"""Hypergeometric tau-series: construction, logarithm, the KP Hirota
residual, and the multicurrent correlators W_n / F_n."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import comb, factorial, prod
from typing import NamedTuple

from .errors import ConfigurationError, OutOfWindowError
from .exactalg import (
    BetaSeries,
    BRing,
    GradedPoly,
    exp_weight,
    exps_mul,
    monomial_from_partition,
)
from .partitions import Partition, enumerate_partitions, riemann_hurwitz_d
from .symfun import schur_at_sigma, schur_sector_sum
from .weights import WeightFamily, content_product


class TauSeries(NamedTuple):
    """Truncated tau-function.

    The coefficient in ``body`` of the monomial p_mu(t) p_nu(s) is
    beta^d H^d gamma^{|mu|}, up to the power-sum normalization.
    """

    family: WeightFamily
    w_max: int
    d_max: int
    body: GradedPoly


def build_tau(family: WeightFamily, w_max: int, d_max: int) -> TauSeries:
    """Sum over |lambda| <= w_max of gamma^|lambda| r_lambda s_lambda(t) s_lambda(s)."""
    ring = BRing(d_max)
    body = schur_sector_sum(w_max, d_max, lambda lam: content_product(family, lam, ring))
    return TauSeries(family, w_max, d_max, body)


def schur_weight(family: WeightFamily, lam: Partition, gamma_val, sigma, ring):
    """pi_lambda = gamma^|lambda| r_lambda s_lambda(sigma): the coefficient of
    s_lambda(t) in tau(t, s) at s = beta sigma, as a ring element.

    r_lambda is evaluated even where s_lambda(sigma) = 0, so a family with no
    rational evaluation is refused at rational beta whatever sigma is.
    """
    r = content_product(family, lam, ring)
    return r * (Fraction(gamma_val) ** lam.weight * schur_at_sigma(lam, sigma))


def log_tau(tau: TauSeries) -> GradedPoly:
    """ln tau; its coefficients carry the connected weighted Hurwitz numbers."""
    return tau.body.log()


def pair_series(body: GradedPoly, mu: Partition, nu: Partition) -> BetaSeries:
    """The beta-series of H^d(mu, nu) read off the body of tau, or of the
    connected numbers read off log tau."""
    if mu.weight != nu.weight:
        return BetaSeries.zero(body.d_max)
    coeff = body.coeff(
        monomial_from_partition(mu.parts), monomial_from_partition(nu.parts), mu.weight
    )
    return coeff / (prod(mu.parts) * prod(nu.parts))


# ---------------------------------------------------------------------------
# KP Hirota residual.
# ---------------------------------------------------------------------------


def miwa_expand(exps, letters) -> list:
    """Expand prod_b (sum_i scale_i(b) y_{i,b})^{e_b}, exps = (e_1, e_2, ...),
    into pairs (pieces, multinomial * prod_{i,b} scale_i(b)^{pieces[i][b]}).

    pieces[i] is the exponent vector of y_i; the pieces sum to exps and run in
    lexicographic order.  A letter is the eps of the Miwa shift eps z^{-b}/b
    (y_b = z^{-b}, scale eps/b), or None for a variable such as t_b itself
    (scale 1).
    """
    out = [((), Fraction(1), tuple(exps))]  # (pieces so far, coefficient, remainder)
    for i, eps in enumerate(letters):
        last = i == len(letters) - 1
        grown = []
        for pieces, coeff, rem in out:
            for piece in [rem] if last else itertools.product(*(range(e + 1) for e in rem)):
                c = coeff
                for b, (e, j) in enumerate(zip(rem, piece), start=1):
                    c *= comb(e, j) * (1 if eps is None else Fraction(eps, b)) ** j
                grown.append((pieces + (piece,), c, tuple(e - j for e, j in zip(rem, piece))))
        out = grown
    return [(pieces, coeff) for pieces, coeff, _ in out]


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
    # only tau terms of t-weight <= probe_degree + 1 can reach the residue
    relevant = [
        (k, c) for k, c in tau.body.terms.items() if exp_weight(k[0]) <= probe_degree + 1
    ]
    # each t-monomial of tau(t+dt+[z^{-1}]) splits into kept t, shifted dt and
    # z^{-r}; each of tau(t-[z^{-1}]) into kept t and z^{-r}
    left, right = {}, {}
    for (t_exp, _, _), _ in relevant:
        if t_exp not in left:
            left[t_exp] = [
                (j, l, exp_weight(r), c)
                for (j, l, r), c in miwa_expand(t_exp, (None, None, 1))
            ]
            right[t_exp] = [
                (j, exp_weight(r), c)
                for (j, r), c in miwa_expand(t_exp, (None, -1))
            ]
    # e^{-xi(dt,z)} = sum_m prod_b (-dt_b)^{m_b} / m_b! z^{b m_b}, by weight of m
    xi = {
        w: [(m, Fraction((-1) ** sum(m), prod(map(factorial, m))))
            for m in (monomial_from_partition(lam.parts) for lam in enumerate_partitions(w))]
        for w in range(probe_degree + 1)
    }
    out: dict = {}
    for (k1, s1, g1), c1 in relevant:
        for (k2, s2, g2), c2 in relevant:
            coeff12 = c1 * c2
            for j2, r2_weight, factor2 in right[k2]:
                for j1, l1, r1_weight, factor1 in left[k1]:
                    # the residue takes z^{-1}: m has weight r1 + r2 - 1
                    m_weight = r1_weight + r2_weight - 1
                    if m_weight < 0:
                        continue
                    base_t = exps_mul(j1, j2)
                    if exp_weight(base_t) + exp_weight(l1) + m_weight > probe_degree:
                        continue
                    for m, factor_m in xi[m_weight]:
                        key = (base_t, exps_mul(l1, m), exps_mul(s1, s2), g1 + g2)
                        value = coeff12 * (factor1 * factor2 * factor_m)
                        out[key] = out[key] + value if key in out else value
    return out


# ---------------------------------------------------------------------------
# Multicurrent correlators and the F_n generating functions.
# ---------------------------------------------------------------------------


def multicurrent_W(body: GradedPoly, n: int, x_degree: int) -> dict:
    """W_n as a map (x-exponent vector, s_exps, grade) -> BetaSeries, read off
    ``body``: tau's for W_n, log tau's for the connected W_n.

    Each term whose t-monomial has n parts, none above x_degree + 1, gives
    one key per arrangement of its parts.  In the beta-rescaled normalization
    the true coefficient additionally carries beta^{-ell}, where ell is the
    part count of the s-monomial; that offset is implied by the key and shared
    with build_F_n.
    """
    if n < 1 or n > 4:
        raise ConfigurationError("multicurrent_W supports 1 <= n <= 4")
    if x_degree + n > body.w_max:
        raise OutOfWindowError("x_degree + n exceeds w_max")
    out: dict = {}
    for (t, s, g), c in body.terms.items():
        parts = [a for a, e in enumerate(t, start=1) for _ in range(e)]
        if len(parts) != n or parts[-1] > x_degree + 1:
            continue
        c = c * prod(map(factorial, t))
        for arrangement in set(itertools.permutations(parts)):
            out[(tuple(a - 1 for a in arrangement), s, g)] = c
    return out


def build_F_n(row, n: int, w_max: int, x_degree: int) -> dict:
    """F_n keyed like multicurrent_W's x-keys but with the undifferentiated
    x-exponents: (x-exponents, s_exps, grade).

    ``row(mu, nu)`` gives the beta-series of the Hurwitz numbers F_n is built
    from: partial(H_via_characters, family, d_max=d) for F_n, or
    partial(pair_series, log_tau(tau)) for its connected part.  Only the rows
    mu with n parts, none above x_degree + 1, are read; they exist for
    N <= min(w_max, n (x_degree + 1)).
    """
    out: dict = {}
    for N in range(n, min(w_max, n * (x_degree + 1)) + 1):
        mus = [m for m in enumerate_partitions(N) if m.length == n and m.parts[0] <= x_degree + 1]
        for mu in mus:
            for nu in enumerate_partitions(N):
                coeff = row(mu, nu) * (mu.aut_order() * prod(nu.parts))
                if not coeff:
                    continue
                s_exp = monomial_from_partition(nu.parts)
                for arrangement in sorted(set(itertools.permutations(mu.parts))):
                    out[(arrangement, s_exp, N)] = coeff
    return out


def differentiate_F(f_terms: dict) -> dict:
    """d^n / dx_1..dx_n applied to a build_F_n result."""
    return {
        (tuple(e - 1 for e in xexp), s, g): c * prod(xexp)
        for (xexp, s, g), c in f_terms.items()
        if all(xexp)
    }


def check_W_equals_dF(
    family: WeightFamily,
    n: int,
    x_degree: int,
    w_max: int,
    d_max: int,
    connected: bool = False,
    genus: int | None = None,
) -> dict:
    """Verify W_n == d^n F_n / dx_1..dx_n on the shared window, both sides
    read off log tau if connected and cut to one genus if genus is given.

    Connected, W_n and the rows of F_n are read off one log tau; otherwise
    W_n is read off tau and F_n's rows come from the character route, so the
    check compares two routes.

    Returns {"equal": bool, "mismatches": [...]} listing offending monomials.
    """
    from .hurwitz import H_via_characters  # hurwitz imports this module

    tau = build_tau(family, w_max, d_max)
    if connected:
        body = log_tau(tau)
        row = partial(pair_series, body)
    else:
        body = tau.body
        row = partial(H_via_characters, family, d_max=d_max)
    w_terms = multicurrent_W(body, n, x_degree)
    df = differentiate_F(build_F_n(row, n, w_max, x_degree))
    if genus is not None:
        w_terms = _genus_slice(w_terms, n, genus, d_max)
        df = _genus_slice(df, n, genus, d_max)
    # both sides make only keys with x-exponents <= x_degree and sum + n <= w_max
    mismatches = []
    zero = BetaSeries.zero(d_max)
    for key in sorted(set(w_terms) | set(df)):
        lhs = w_terms.get(key, zero)
        rhs = df.get(key, zero)
        if lhs != rhs:
            mismatches.append({"key": key, "W": lhs, "dF": rhs})
    return {"equal": not mismatches, "mismatches": mismatches}


def _genus_slice(w_terms: dict, n: int, genus: int, d_max: int) -> dict:
    """Keep only the beta-order d of genus g (riemann_hurwitz_d) of each coefficient."""
    out = {}
    for (xexp, s, g), c in w_terms.items():
        d = riemann_hurwitz_d(n, sum(s), genus)
        if 0 <= d <= d_max and c[d] != 0:
            out[(xexp, s, g)] = BetaSeries.constant(c[d], d_max).shift(d)
    return out
