"""Bosonic cut-and-join operators Q_k and V_k on the flow-variable ring, the
exponential reconstruction of the tau-function, and the parametric PDEs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm, prod

from .errors import ConfigurationError, DomainError
from .exactalg import (
    BetaSeries,
    GradedPoly,
    exp_weight,
    exps_mul,
    monomial_from_partition,
    series_exp,
    series_inv,
)
from .partitions import Partition, enumerate_partitions, partitions_up_to
from .symfun import cauchy_kernel, schur_sector_sum, schur_to_power
from .taufn import build_tau
from .weights import WeightFamily, g_coeff, log_coeffs


@dataclass(frozen=True)
class DiffOp:
    """Finite sum of terms (t-monomial multiplier) * (partial-derivative monomial).

    Application to a GradedPoly changes every term's t-weight by exactly
    grading_shift and adds grading_shift to its gamma-grade.
    """

    terms: tuple  # (mult_exps, deriv_exps, Fraction)
    grading_shift: int

    def apply(self, poly: GradedPoly) -> GradedPoly:
        by_deriv: dict = {}  # each derivative monomial is tried once per term
        for mult, deriv, c in self.terms:
            by_deriv.setdefault(deriv, []).append((mult, c))
        out: dict = {}
        for (t, s, g), coeff in poly.terms.items():
            for deriv, group in by_deriv.items():
                if len(deriv) > len(t):
                    continue
                # d^mu t^nu = prod_i perm(nu_i, mu_i) t^(nu - mu), zero unless mu <= nu
                factor = prod(map(perm, t, deriv))
                if not factor:
                    continue
                rest = tuple(e - d for e, d in zip(t, deriv)) + t[len(deriv):]
                for mult, c in group:
                    t_out = exps_mul(rest, mult)
                    if exp_weight(t_out) > poly.w_max:
                        continue
                    key = (t_out, s, g + self.grading_shift)
                    contrib = coeff * (c * factor)
                    out[key] = out[key] + contrib if key in out else contrib
        return GradedPoly(out, poly.w_max, poly.d_max)


def build_Qk(k: int, w_max: int) -> DiffOp:
    """Q_k on weight <= w_max, read off the bosonized vertex operator
    (Okounkov-Pandharipande, math/0204305, section 2)

        sum_k z^k/k! Q_k = vs(z)^-2 ([x^0] exp(sum_n vs(nz)/n a_{-n} x^n)
                                         exp(sum_n vs(nz)/n a_n x^{-n}) - 1)

    with vs(z) = e^{z/2} - e^{-z/2}, a_{-n} = n t_n, a_n = d/dt_n.  Partitions
    nu, mu of one weight give the term t^nu d^mu with coefficient
    k!/(|Aut nu| |Aut mu|) [z^{k+2-l(nu)-l(mu)}] prod_{n in nu} vs(nz)/z
    prod_{m in mu} vs(mz)/(m z) (z/vs(z))^2, where every factor is even in z.
    """
    if w_max < 0:
        raise DomainError("cannot partition a negative integer")
    # vs(nz)/z = sum_j n^{2j+1} z^{2j} / (4^j (2j+1)!), as a z-series through
    # z^k, for n = 0..w_max and n = 1 at least: (z/vs(z))^2 reads it
    vs = [BetaSeries([Fraction(n ** (d + 1) * (1 - d % 2), 2**d * factorial(d + 1))
                      for d in range(k + 1)]) for n in range(max(w_max, 1) + 1)]
    z_over_vs_sq = series_inv(vs[1] * vs[1])
    terms = []
    for w in range(1, w_max + 1):
        parts = enumerate_partitions(w)
        # the multiplier side also carries (z/vs(z))^2
        left = [prod((vs[n] for n in nu.parts), start=z_over_vs_sq) / nu.aut_order()
                for nu in parts]
        right = [prod((vs[m] / m for m in mu.parts), start=BetaSeries.one(k)) / mu.aut_order()
                 for mu in parts]
        for nu, a in zip(parts, left):
            for mu, b in zip(parts, right):
                order = k + 2 - nu.length - mu.length
                if order < 0 or order % 2:
                    continue
                c = (a * b)[order]
                if c:
                    terms.append((monomial_from_partition(nu.parts),
                                  monomial_from_partition(mu.parts), c * factorial(k)))
    return DiffOp(tuple(terms), 0)


def build_Vk(k: int, w_max: int) -> DiffOp:
    """V_k = [Q_k, t_1] for k >= 1, which adds one box weighted by content^k, so
    that G t_1 G^-1 = sum_k g_k beta^k V_k (math/0204305, section 2): each term
    c t^nu d^mu of Q_k with mu_1 >= 1 becomes mu_1 c t^nu d^(mu - e_1)."""
    terms = []
    for mult, deriv, c in build_Qk(k, w_max).terms:
        if deriv and deriv[0]:
            lowered = (deriv[0] - 1,) + deriv[1:]
            terms.append((mult, lowered if any(lowered) else (), deriv[0] * c))
    return DiffOp(tuple(terms), 1)


def diagonal_Qk(k: int, lam: Partition) -> Fraction:
    """Eigenvalue of Q_k on s_lambda: |lambda| for k = 0, else sum of content^k."""
    if k == 0:
        return Fraction(lam.weight)
    return sum((Fraction(c) ** k for c in lam.contents()), Fraction(0))


def schur_eigen_check(weight_max: int = 6, commutator_weight: int = 8) -> dict:
    """The generated Q_0, Q_1, Q_2 have every s_lambda as eigenvector with the
    content-power eigenvalue; [Q_1, Q_2] = 0 on the low-weight component."""
    failures = []
    checks = 0
    lams = partitions_up_to(weight_max)  # refuses a negative weight before any Q_k
    ops = {k: build_Qk(k, weight_max) for k in (0, 1, 2)}
    for lam in lams:
        s_lam = schur_to_power(lam, weight_max)
        for k, op in ops.items():
            got = op.apply(s_lam)
            want = s_lam.scale(diagonal_Qk(k, lam))
            checks += 1
            if got != want:
                failures.append({"k": k, "lambda": lam.parts})
    q1 = build_Qk(1, commutator_weight)
    q2 = build_Qk(2, commutator_weight)
    for lam in partitions_up_to(commutator_weight):
        mono = GradedPoly(
            {(monomial_from_partition(lam.parts), (), 0): BetaSeries.one(0)},
            commutator_weight,
            0,
        )
        left = q1.apply(q2.apply(mono))
        right = q2.apply(q1.apply(mono))
        checks += 1
        if left != right:
            failures.append({"commutator": lam.parts})
    return {"ok": not failures, "checks": checks, "failures": failures}


def diagonal_exponent(family: WeightFamily, lam: Partition, d_max: int) -> BetaSeries:
    """exp(sum_k a_k beta^k q_k(lambda)): lambda's content product rebuilt from
    the log-series a_k of G."""
    a = enumerate(log_coeffs(family, d_max), start=1)
    return series_exp(BetaSeries([0] + [a_k * diagonal_Qk(k, lam) for k, a_k in a]))


def _beta_euler(c: BetaSeries) -> BetaSeries:
    """beta d/dbeta."""
    return BetaSeries([d * x for d, x in enumerate(c.coeffs)])


def exp_terms(apply, v, order: int) -> list:
    """[X^m v / m! for m = 0..order], where apply(p) = X p for a linear X."""
    out = [v]
    for m in range(1, order + 1):
        out.append(apply(out[-1]).scale(Fraction(1, m)))
    return out


def reconstruct_tau(family: WeightFamily, w_max: int, d_max: int) -> dict:
    """Diagonal cut-and-join reconstruction against the content-product tau.

    Every Schur sector of exp(sum k t_k s_k) is multiplied by
    exp(sum_k a_k beta^k q_k(lambda)); the result must match build_tau
    coefficient by coefficient.  The explicit-operator form with Q_1, Q_2 is
    additionally checked through beta^2.
    """
    tau = build_tau(family, w_max, d_max)
    diagonal_ok = tau.body == schur_sector_sum(
        w_max, d_max, lambda lam: diagonal_exponent(family, lam, d_max)
    )

    # explicit operator route through beta^2: exp(a_1 beta Q_1 + a_2 beta^2 Q_2)
    a = log_coeffs(family, min(2, d_max))
    base = cauchy_kernel(w_max, d_max)
    q1 = build_Qk(1, w_max)
    q2 = build_Qk(2, w_max)

    def x_apply(p):
        out = q1.apply(p).scale(BetaSeries.variable(d_max) * a[0])
        if len(a) > 1 and a[1]:
            out = out + q2.apply(p).scale(BetaSeries.variable(d_max).shift(1) * a[1])
        return out

    terms = exp_terms(x_apply, base, 2)
    operator_ok = _equal_through_order(sum(terms[1:], terms[0]), tau.body, min(2, d_max))
    return {
        "ok": diagonal_ok and operator_ok,
        "diagonal_ok": diagonal_ok,
        "operator_ok_through_beta2": operator_ok,
    }


def _equal_through_order(p: GradedPoly, q: GradedPoly, order: int) -> bool:
    keys = set(p.terms) | set(q.terms)
    zero = BetaSeries.zero(p.d_max)
    for key in keys:
        a = p.terms.get(key, zero)
        b = q.terms.get(key, zero)
        if any(a[d] != b[d] for d in range(order + 1)):
            return False
    return True


def pde_check(family: WeightFamily, w_max: int, d_max: int) -> dict:
    """The three parametric identities, verified per (t, s)-monomial.

    * gamma d/dgamma tau = Q_0 tau: the grade times each coefficient equals the
      generated Q_0 action.
    * d/dA_k tau = beta^k Q_k tau (k = 1..d_max), with A_k the coefficient
      a_k of log G (weights.log_coeffs) taken as a parameter: the
      A_k-derivative is computed symbolically through the per-sector
      exponential of the reconstruction; the right side applies the generated
      operator to the content-product tau.
    * beta d/dbeta tau = sum_k k A_k d/dA_k tau, as exact beta-series.

    The A_k left sides are Schur-sector sums weighted by the reconstruction's
    per-sector exponential, so they test the content-product tau against the
    log-series of G; the beta-Euler left side is their sum with weights
    k a_k beta^k.
    """
    tau = build_tau(family, w_max, d_max)
    body = tau.body
    failures = []

    got = build_Qk(0, w_max).apply(body)
    want = GradedPoly(
        {key: coeff * key[2] for key, coeff in body.terms.items()}, w_max, d_max
    )
    if got != want:
        failures.append("gamma-derivative (Q_0)")

    factors = {lam: diagonal_exponent(family, lam, d_max) for lam in partitions_up_to(w_max)}

    # dA_k tau = beta^k Q_k tau; both sides carry beta^k, so the
    # content to verify is (diagonal q_k-weighted sectors) == (generated Q_k tau)
    a = log_coeffs(family, d_max)
    beta = BetaSeries.variable(d_max)
    euler_lhs = GradedPoly.zero(w_max, d_max)
    for k in range(1, d_max + 1):
        lhs = schur_sector_sum(w_max, d_max, lambda lam: factors[lam] * diagonal_Qk(k, lam))
        if lhs != build_Qk(k, w_max).apply(body):
            failures.append(f"A_{k}-derivative")
        # beta d/dbeta of a sector's log weight is sum_k k a_k beta^k q_k
        euler_lhs = euler_lhs + lhs.scale(beta.shift(k - 1) * (k * a[k - 1]))

    # Euler identity in beta: beta d/dbeta tau = sum_k k A_k dA_k tau
    euler_body = GradedPoly({key: _beta_euler(c) for key, c in body.terms.items()}, w_max, d_max)
    if euler_body != euler_lhs:
        failures.append("beta-Euler identity")
    return {"ok": not failures, "failures": failures}


def build_Vk_and_single_rep(family: WeightFamily, w_max: int) -> dict:
    """Single-Hurwitz representation: per gamma-sector,
    tau(t, s = delta_{k,1}) == exp(gamma (t_1 + sum_{k<=M} g_k beta^k V_k)) . 1."""
    M = family.degree
    if M is None:
        raise ConfigurationError("single-Hurwitz V_k representation needs polynomial G")
    d_max = max(M * w_max, 1)
    beta = BetaSeries.variable(d_max)
    t1 = GradedPoly({((1,), (), 1): BetaSeries.one(d_max)}, w_max, d_max)
    ops = [(build_Vk(k, w_max), beta.shift(k - 1) * g_coeff(family, k))
           for k in range(1, M + 1) if g_coeff(family, k)]

    def x_apply(p: GradedPoly) -> GradedPoly:
        out = t1 * p
        for op, factor in ops:
            out = out + op.apply(p).scale(factor)
        return out

    sectors = exp_terms(x_apply, GradedPoly.one(w_max, d_max), w_max)

    # tau(t, s = delta_{k,1}): the s_1^n terms of tau, one sector per n
    want: dict = {n: {} for n in range(w_max + 1)}
    for (t, s, g), c in build_tau(family, w_max, d_max).body.terms.items():
        if s == monomial_from_partition([1] * g):
            want[g][(t, (), g)] = c
    failures = [
        n for n in range(w_max + 1) if sectors[n] != GradedPoly(want[n], w_max, d_max)
    ]
    return {"ok": not failures, "failing_sectors": failures, "M": M}


def resolve_exponential_index(w_max: int = 3, d_max: int = 3) -> dict:
    """Which single cut-and-join exponential reproduces the simple-Hurwitz tau:
    exp(beta Q_1) (the log-expansion index) or exp(beta Q_2) (the index as
    printed in the source derivation)?"""
    tau = build_tau(WeightFamily("exponential"), w_max, d_max)
    base = cauchy_kernel(w_max, d_max)
    beta = BetaSeries.variable(d_max)
    results = {}
    for k in (1, 2):
        op = build_Qk(k, w_max)
        terms = exp_terms(lambda p: op.apply(p).scale(beta), base, d_max)
        results[k] = sum(terms[1:], terms[0]) == tau.body
    return {"matching_index": [k for k, v in results.items() if v], "results": results}
