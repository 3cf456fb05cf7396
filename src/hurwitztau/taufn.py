"""Hypergeometric tau-series: construction, logarithm, Baker evaluation at
t=0, the KP Hirota residual, and the multicurrent correlators W_n / F_n."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ConfigurationError, OutOfWindowError
from .exactalg import (
    BetaSeries,
    GradedPoly,
    LaurentWindow,
    exp_weight,
    exps_mul,
    monomial_from_partition,
)
from .partitions import Partition, enumerate_partitions, partitions_up_to
from .symfun import schur_at_sigma, schur_monomial_map
from .weights import WeightFamily, content_product, content_product_value

PLAIN = "plain"
BETA_RESCALED = "beta_rescaled"


@dataclass(frozen=True)
class TauSeries:
    """Truncated tau-function.

    ``body`` is always stored in the plain convention (coefficient of the
    monomial p_mu(t) p_nu(s) is beta^d H^d gamma^{|mu|} up to the power-sum
    normalization).  Under the beta_rescaled convention every s-monomial with
    ell parts carries an implicit extra factor beta^{-ell}; extraction
    routines account for it through the key, so no Laurent ring in beta is
    ever needed.
    """

    family: WeightFamily
    w_max: int
    d_max: int
    body: GradedPoly
    s_convention: str = PLAIN


def build_tau(
    family: WeightFamily, w_max: int, d_max: int, s_convention: str = PLAIN
) -> TauSeries:
    """Sum over |lambda| <= w_max of gamma^|lambda| r_lambda s_lambda(t) s_lambda(s)."""
    if s_convention not in (PLAIN, BETA_RESCALED):
        raise ConfigurationError(f"unknown s_convention {s_convention!r}")
    terms: dict = {}
    for lam in partitions_up_to(w_max):
        r = content_product(family, lam, 0, d_max).value
        tmap = schur_monomial_map(lam)
        grade = lam.weight
        for t_exp, a in tmap.items():
            for s_exp, b in tmap.items():
                key = (t_exp, s_exp, grade)
                contrib = r * (a * b)
                if key in terms:
                    terms[key] = terms[key] + contrib
                else:
                    terms[key] = contrib
    body = GradedPoly(terms, w_max, d_max)
    return TauSeries(family, w_max, d_max, body, s_convention)


def log_tau(tau: TauSeries) -> GradedPoly:
    """ln tau; its coefficients carry the connected weighted Hurwitz numbers."""
    return tau.body.log()


def tau_pair_series(tau: TauSeries, mu: Partition, nu: Partition) -> BetaSeries:
    """The beta-series of H^d(mu, nu) read off the tau coefficients."""
    return _pair_series(tau.body, mu, nu)


def _pair_series(body: GradedPoly, mu: Partition, nu: Partition) -> BetaSeries:
    if mu.weight != nu.weight:
        return BetaSeries.zero(body.d_max)
    coeff = body.coeff(
        monomial_from_partition(mu.parts), monomial_from_partition(nu.parts), mu.weight
    )
    norm = Fraction(1)
    for p in mu.parts:
        norm *= p
    for p in nu.parts:
        norm *= p
    return coeff / norm


def connected_pair_series(log_body: GradedPoly, mu: Partition, nu: Partition) -> BetaSeries:
    return _pair_series(log_body, mu, nu)


# ---------------------------------------------------------------------------
# Baker functions at t = 0.
# ---------------------------------------------------------------------------


def baker(
    tau: TauSeries,
    z_lo: int,
    beta_val,
    gamma_val,
    s=(),
) -> tuple[LaurentWindow, LaurentWindow]:
    """(Psi^-, Psi^+) at t = 0 on the window [z_lo, 0], at rational beta, gamma.

    Psi^-(z, 0) = tau(-[z^{-1}])/tau(0) and Psi^+(z, 0) = tau(+[z^{-1}])/tau(0).
    Only column (1^m) respectively row (m) partitions survive the evaluation
    of s_lambda at the (negated) single-variable alphabet, which gives the
    z^{-m} coefficients directly.
    """
    if z_lo > 0:
        raise ConfigurationError("z_lo must be <= 0")
    depth = -z_lo
    if depth > tau.w_max:
        raise OutOfWindowError(
            f"window depth {depth} exceeds w_max={tau.w_max} support"
        )
    beta_val, gamma_val = Fraction(beta_val), Fraction(gamma_val)
    sigma = tuple(Fraction(x) / beta_val for x in s)
    minus = [Fraction(0)] * (depth + 1)
    plus = [Fraction(0)] * (depth + 1)
    for m in range(0, depth + 1):
        col = Partition([1] * m)
        row = Partition([m] if m else [])
        r_col = content_product_value(tau.family, col, beta_val)
        r_row = content_product_value(tau.family, row, beta_val)
        minus[depth - m] = (
            gamma_val**m * r_col * (-1) ** m * schur_at_sigma(col, sigma)
        )
        plus[depth - m] = gamma_val**m * r_row * schur_at_sigma(row, sigma)
    return LaurentWindow(z_lo, tuple(minus)), LaurentWindow(z_lo, tuple(plus))


# ---------------------------------------------------------------------------
# KP Hirota residual.
# ---------------------------------------------------------------------------


def _sub_exponents(exps):
    """All componentwise-dominated exponent vectors."""
    ranges = [range(e + 1) for e in exps]
    return itertools.product(*ranges)


def _delta_monomials(weight: int):
    """delta-t monomials of exact weighted degree, as exponent vectors."""
    for lam in enumerate_partitions(weight):
        yield monomial_from_partition(lam.parts)


def hirota_residual(tau: TauSeries, probe_degree: int) -> dict:
    """Formal residue of e^{-xi(dt,z)} tau(t+dt+[z^{-1}]) tau(t-[z^{-1}]).

    Returned as a map (t_exps, dt_exps, s_exps, grade) -> BetaSeries over all
    output monomials of combined weighted degree (t plus dt) <= probe_degree.
    The KP bilinear identity says every entry vanishes.  Requires
    w_max >= 2 * probe_degree (buffer = probe_degree).
    """
    if tau.w_max < 2 * probe_degree:
        raise OutOfWindowError(
            f"need w_max >= {2 * probe_degree} for probe_degree={probe_degree}"
        )
    d_max = tau.d_max
    # only tau terms of t-weight <= probe_degree + 1 can reach the residue
    relevant = [
        (k, c) for k, c in tau.body.terms.items() if exp_weight(k[0]) <= probe_degree + 1
    ]
    out: dict = {}

    def add(key, value):
        if key in out:
            out[key] = out[key] + value
        else:
            out[key] = value

    for (k1, s1, g1), c1 in relevant:
        w1 = exp_weight(k1)
        # trinomial split of each t_b^{e}: kept t, shifted dt, moved-to-z
        splits1 = []
        for j1 in _sub_exponents(k1):
            rem = tuple(e - j for e, j in zip(k1, j1))
            for l1 in _sub_exponents(rem):
                r1 = tuple(e - l for e, l in zip(rem, l1))
                r1_weight = exp_weight(r1)
                factor = Fraction(1)
                for b0, (e, j, l) in enumerate(zip(k1, j1, l1)):
                    r = e - j - l
                    b = b0 + 1
                    factor *= Fraction(
                        factorial(e), factorial(j) * factorial(l) * factorial(r)
                    ) * Fraction(1, b**r)
                splits1.append((j1, l1, r1_weight, factor))
        for (k2, s2, g2), c2 in relevant:
            coeff12 = c1 * c2
            for j2 in _sub_exponents(k2):
                r2 = tuple(e - j for e, j in zip(k2, j2))
                r2_weight = exp_weight(r2)
                factor2 = Fraction(1)
                for b0, (e, j) in enumerate(zip(k2, j2)):
                    r = e - j
                    b = b0 + 1
                    factor2 *= Fraction(factorial(e), factorial(j) * factorial(r)) * Fraction(
                        (-1) ** r, b**r
                    )
                for j1, l1, r1_weight, factor1 in splits1:
                    pref_weight = r1_weight + r2_weight - 1
                    if pref_weight < 0:
                        continue
                    base_t = exps_mul(tuple(j1), tuple(j2))
                    base_dt_weight = exp_weight(l1)
                    total_so_far = exp_weight(base_t) + base_dt_weight + pref_weight
                    if total_so_far > probe_degree:
                        continue
                    for m_exps in _delta_monomials(pref_weight):
                        pref_factor = Fraction(1)
                        for b0, m in enumerate(m_exps):
                            pref_factor *= Fraction((-1) ** m, factorial(m))
                        dt = exps_mul(tuple(l1), m_exps)
                        key = (base_t, dt, exps_mul(s1, s2), g1 + g2)
                        add(key, coeff12 * (factor1 * factor2 * pref_factor))
    return {k: v for k, v in out.items()}


# ---------------------------------------------------------------------------
# Multicurrent correlators and the F_n generating functions.
# ---------------------------------------------------------------------------


def _derivative_factor(t_exps) -> int:
    out = 1
    for e in t_exps:
        out *= factorial(e)
    return out


def multicurrent_W(
    tau: TauSeries,
    n: int,
    x_degree: int,
    connected: bool = False,
    log_body: GradedPoly | None = None,
) -> dict:
    """W_n as a map (x-exponent vector, s_exps, grade) -> BetaSeries.

    Under the beta_rescaled convention the true coefficient additionally
    carries beta^{-ell} where ell is the part count of the s-monomial; that
    offset is implied by the key and shared with build_F_n.
    """
    if n < 1 or n > 4:
        raise ConfigurationError("multicurrent_W supports 1 <= n <= 4")
    if x_degree + n > tau.w_max:
        raise OutOfWindowError("x_degree + n exceeds w_max")
    if connected:
        body = log_body if log_body is not None else log_tau(tau)
    else:
        body = tau.body
    out: dict = {}
    for a_vec in itertools.product(range(1, x_degree + 2), repeat=n):
        if sum(a_vec) > tau.w_max:
            continue
        t_exp = monomial_from_partition(a_vec)
        mult = _derivative_factor(t_exp)
        x_key = tuple(a - 1 for a in a_vec)
        for (t, s, g), c in body.terms.items():
            if t != t_exp:
                continue
            key = (x_key, s, g)
            contrib = c * mult
            if key in out:
                out[key] = out[key] + contrib
            else:
                out[key] = contrib
    return out


def multicurrent_J(
    tau: TauSeries, n: int, x_degree: int, connected: bool = False
) -> dict:
    """The current correlator (prod_i x_i) W_n: every x-exponent shifts up by one."""
    w_terms = multicurrent_W(tau, n, x_degree, connected=connected)
    return {
        (tuple(e + 1 for e in xexp), s, g): c for (xexp, s, g), c in w_terms.items()
    }


def build_F_n(
    family: WeightFamily,
    n: int,
    w_max: int,
    d_max: int,
    x_degree: int,
    connected: bool = False,
    genus: int | None = None,
) -> dict:
    """F_n (or connected/genus slices) keyed like multicurrent_W's x-keys but
    with the undifferentiated x-exponents: (x-exponents, s_exps, grade).

    Only the rows mu with n parts, none above x_degree + 1, are computed; they
    exist for N <= w_top = min(w_max, n (x_degree + 1)).  Disconnected entries
    come from H_via_characters on those (mu, nu) pairs.  Connected entries
    come from a single log tau truncated at w_top: the weight-N coefficients
    of log tau involve only terms of tau of weight <= N, so that truncation
    gives every connected number with N <= w_top exactly as a log tau
    truncated at N would.
    """
    from .hurwitz import H_via_characters, connected_table_entries  # deferred: cycle

    w_top = min(w_max, n * (x_degree + 1))
    if connected and w_top >= n:
        connected_entries = connected_table_entries(family, w_top, d_max)
    out: dict = {}
    for N in range(n, w_top + 1):
        mus = [m for m in enumerate_partitions(N) if m.length == n and m.parts[0] <= x_degree + 1]
        for mu in mus:
            aut = mu.aut_order()
            for nu in enumerate_partitions(N):
                norm = Fraction(aut)
                for p in nu.parts:
                    norm *= p
                if connected:
                    row = [connected_entries.get((mu, nu, d), Fraction(0))
                           for d in range(d_max + 1)]
                else:
                    row = H_via_characters(family, mu, nu, d_max)
                series = [Fraction(0)] * (d_max + 1)
                for d in range(d_max + 1):
                    val = row[d]
                    if genus is not None and d != n + nu.length + 2 * genus - 2:
                        val = Fraction(0)
                    series[d] = val * norm
                coeff = BetaSeries(series)
                if not coeff:
                    continue
                s_exp = monomial_from_partition(nu.parts)
                for arrangement in sorted(set(itertools.permutations(mu.parts))):
                    key = (arrangement, s_exp, N)
                    if key in out:
                        out[key] = out[key] + coeff
                    else:
                        out[key] = coeff
    return out


def differentiate_F(f_terms: dict, n: int, d_max: int) -> dict:
    """d^n / dx_1..dx_n applied to a build_F_n result."""
    out: dict = {}
    for (xexp, s, g), c in f_terms.items():
        if any(e == 0 for e in xexp):
            continue
        factor = 1
        for e in xexp:
            factor *= e
        key = (tuple(e - 1 for e in xexp), s, g)
        contrib = c * factor
        if key in out:
            out[key] = out[key] + contrib
        else:
            out[key] = contrib
    return out


def check_W_equals_dF(
    family: WeightFamily,
    n: int,
    x_degree: int,
    w_max: int,
    d_max: int,
    connected: bool = False,
    genus: int | None = None,
) -> dict:
    """Verify W_n == d^n F_n / dx_1..dx_n on the shared window.

    Returns {"equal": bool, "mismatches": [...]} listing offending monomials.
    """
    tau = build_tau(family, w_max, d_max, s_convention=BETA_RESCALED)
    log_body = log_tau(tau) if connected else None
    w_terms = multicurrent_W(tau, n, x_degree, connected=connected, log_body=log_body)
    if genus is not None:
        w_terms = _genus_slice(w_terms, n, genus, d_max)
    f_terms = build_F_n(
        family, n, w_max, d_max, x_degree, connected=connected, genus=genus
    )
    df = differentiate_F(f_terms, n, d_max)
    mismatches = []
    zero = BetaSeries.zero(d_max)
    for key in sorted(set(w_terms) | set(df)):
        xexp = key[0]
        if sum(xexp) + n > w_max or max(xexp, default=0) > x_degree:
            continue  # outside the window both sides fully populate
        lhs = w_terms.get(key, zero)
        rhs = df.get(key, zero)
        if lhs != rhs:
            mismatches.append({"key": key, "W": lhs, "dF": rhs})
    return {"equal": not mismatches, "mismatches": mismatches}


def _genus_slice(w_terms: dict, n: int, genus: int, d_max: int) -> dict:
    """Keep only the beta-order d = n + ell(nu) + 2g - 2 of each coefficient."""
    out = {}
    for (xexp, s, g), c in w_terms.items():
        ell = sum(s)
        d = n + ell + 2 * genus - 2
        if 0 <= d <= d_max and c[d] != 0:
            coeffs = [Fraction(0)] * (d_max + 1)
            coeffs[d] = c[d]
            out[(xexp, s, g)] = BetaSeries(coeffs)
    return out
