"""Deeper cross-module checks beyond the acceptance budgets."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from hurwitztau.adaptedbasis import build_basis
from hurwitztau.correlators import K2_via_basis, K2_via_tau, _times_difference, kernels_equal
from hurwitztau.errors import OutOfWindowError
from hurwitztau.exactalg import (
    BRing,
    BetaSeries,
    GradedPoly,
    LaurentWindow,
    QRing,
    exp_weight,
    exps_mul,
    log_pieces,
    monomial_from_partition,
    series_exp,
)
from hurwitztau.hurwitz import H_via_characters, H_via_paths, H_via_profiles
from hurwitztau.partitions import Partition, enumerate_partitions
from hurwitztau.symfun import h_list, power_sum_value
from hurwitztau.taufn import (
    TauSeries,
    build_tau,
    hirota_residual,
    log_tau,
    miwa_expand,
)
from hurwitztau.weights import (
    WeightFamily,
    belyi,
    content_product,
    exponential,
    g_coeff,
    g_value,
    quantum,
    signed,
)

F = Fraction
C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")


def _one_like(a):
    if isinstance(a, BetaSeries):
        return BetaSeries.one(a.d_max)
    return GradedPoly.one(a.w_max, a.d_max)


def reference_log(a):
    """log a as the power sum sum_m (-1)^(m+1) (a - 1)^m / m, summed until a
    power of a - 1 vanishes (a BetaSeries or a GradedPoly with constant term 1)."""
    one = _one_like(a)
    u = a - one
    out, power, m = one - one, one, 1
    while True:
        power = power * u
        if not power:
            return out
        out = out + power * F((-1) ** (m + 1), m)
        m += 1


def reference_exp(u):
    """exp u as the power sum sum_m u^m / m!, summed until a power of u vanishes."""
    one = _one_like(u)
    out, power, m = one, one, 1
    while True:
        power = power * u
        if not power:
            return out
        out = out + power * F(1, factorial(m))
        m += 1


def reference_h_list(p, n_max):
    """h_0..h_n from the power sums p[1..n] by Newton's identity
    n h_n = sum_{k=1..n} p_k h_{n-k}."""
    h = [F(1)] + [F(0)] * n_max
    for n in range(1, n_max + 1):
        h[n] = sum((p[k] * h[n - k] for k in range(1, n + 1)), F(0)) / n
    return h


@lru_cache(maxsize=None)
def _newton_h_list(sigma, sign, n_max):
    p = [F(0)] + [sign * k * (sigma[k - 1] if k <= len(sigma) else 0) for k in range(1, n_max + 1)]
    return reference_h_list(p, n_max)


def h_of_sigma(n, sigma, sign=1):
    """h_n at the alphabet with normalized power sums sigma (p_k = sign k sigma_k),
    zero for n < 0: the Newton-identity reference for symfun.h_list."""
    return _newton_h_list(tuple(F(x) for x in sigma), sign, n)[n] if n >= 0 else F(0)


def random_flow_polys(count=15, seed=123):
    """(1 + u, u) for random GradedPolys u with t- or s-weight on every term."""
    rng = random.Random(seed)
    for _ in range(count):
        w_max, d_max = rng.randint(2, 4), rng.randint(0, 2)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            t = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
            s = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))
            if exp_weight(t) > w_max or exp_weight(s) > w_max or exp_weight(t) + exp_weight(s) == 0:
                continue
            coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d_max + 1)]
            terms[(t, s, rng.randint(0, 2))] = BetaSeries(coeffs)
        u = GradedPoly(terms, w_max, d_max)
        yield GradedPoly.one(w_max, d_max) + u, u


@pytest.mark.parametrize("fam", [belyi(), exponential()], ids=lambda f: f.label)
def test_route_equivalence_at_n5(fam):
    # beyond the acceptance budget: all pairs at N = 5, d <= 2
    for mu in enumerate_partitions(5):
        for nu in enumerate_partitions(5):
            r1 = H_via_characters(fam, mu, nu, 2)
            for d in range(3):
                assert H_via_profiles(fam, mu, nu, d) == r1[d]


def test_paths_route_at_n5_spot():
    fam = quantum(F(1, 3))
    mu, nu = Partition((3, 2)), Partition((2, 2, 1))
    r1 = H_via_characters(fam, mu, nu, 3)
    for d in range(4):
        assert H_via_paths(fam, mu, nu, d) == r1[d]


def test_quantum_series_mode_kernel():
    d_max = 4
    fam = quantum(F(1, 3))
    b = build_basis(fam, None, F(2), sigma=(F(1, 5),), k_range=(-5, 6), depth=-12, d_max=d_max)
    win = (-5, -1, -5, 4)
    k_tau = K2_via_tau(fam, None, F(2), (F(1, 5),), win, d_max=d_max)
    k_bas, _ = K2_via_basis(b, win)
    assert kernels_equal(k_tau, k_bas, BRing(d_max))


def test_shifted_content_product_identity():
    # G(beta (N + c)) = (1 + beta N) G'(beta' c) for the linear family, with
    # beta' = beta/(1 + beta N): an exact rational identity per cell
    beta = F(1, 7)
    for n_shift in (1, 2, -1):
        scale = 1 + beta * n_shift
        beta_prime = beta / scale
        for lam in enumerate_partitions(4):
            lhs = F(1)
            for c in lam.contents():
                lhs *= g_value(belyi(), beta * (n_shift + c))
            rhs = scale**lam.weight * content_product(belyi(), lam, QRing(beta_prime))
            assert lhs == rhs


class TestWindowSemanticsOracle:
    """Randomized check that LaurentWindow.mul's declared valid range is sound:
    truncated views of fully known Laurent polynomials must agree with the
    untruncated product everywhere the window logic claims validity."""

    def test_mul_valid_range_sound(self):
        rng = random.Random(20240817)
        for _ in range(200):
            lo1, lo2 = rng.randint(-6, 0), rng.randint(-6, 0)
            len1, len2 = rng.randint(1, 5), rng.randint(1, 5)
            full1 = {lo1 - extra: F(rng.randint(-3, 3)) for extra in range(1, 4)}
            full2 = {lo2 - extra: F(rng.randint(-3, 3)) for extra in range(1, 4)}
            c1 = {lo1 + i: F(rng.randint(-3, 3)) for i in range(len1)}
            c2 = {lo2 + i: F(rng.randint(-3, 3)) for i in range(len2)}
            full1.update(c1)
            full2.update(c2)
            w1 = LaurentWindow(lo1, tuple(c1[lo1 + i] for i in range(len1)))
            w2 = LaurentWindow(lo2, tuple(c2[lo2 + i] for i in range(len2)))
            try:
                prod = w1.mul(w2)
            except Exception:
                continue
            true_prod = {}
            for e1, a in full1.items():
                for e2, b in full2.items():
                    true_prod[e1 + e2] = true_prod.get(e1 + e2, F(0)) + a * b
            for j in range(prod.lo, prod.hi + 1):
                assert prod.get(j) == true_prod.get(j, F(0)), (
                    j,
                    prod.lo,
                    w1,
                    w2,
                )

    def test_diag_shift_euler_consistency(self):
        rng = random.Random(7)
        for _ in range(50):
            lo = rng.randint(-5, 0)
            coeffs = tuple(F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5)))
            w = LaurentWindow(lo, coeffs)
            assert w.shift(3).shift(-3) == w
            doubled = w.diag(lambda j: F(2))
            assert doubled.coeffs == tuple(2 * c for c in coeffs)
            eulered = w.euler()
            for j in range(lo, w.hi + 1):
                assert eulered.get(j) == j * w.get(j)


def test_route_equivalence_full_profile_budget():
    # the d = 3 oracle at N = 5 exercises mixed colength signatures (2,1), (3)
    fam = belyi()
    mus = [Partition((5,)), Partition((3, 2)), Partition((2, 2, 1)), Partition((1, 1, 1, 1, 1))]
    for mu in mus:
        for nu in mus:
            r1 = H_via_characters(fam, mu, nu, 3)
            assert H_via_profiles(fam, mu, nu, 3) == r1[3]


def test_tau_is_symmetric_in_t_and_s():
    from hurwitztau.taufn import build_tau

    for fam in (belyi(), exponential()):
        body = build_tau(fam, 4, 3).body
        flipped = {(s, t, g): c for (t, s, g), c in body.terms.items()}
        assert flipped == body.terms


def test_graded_exp_log_roundtrip_random():
    for p, u in random_flow_polys():
        assert p.log().exp() == p
        assert u.exp().log() == u


def test_graded_log_exp_match_power_sums():
    for p, u in random_flow_polys():
        assert p.log() == reference_log(p)
        assert u.exp() == reference_exp(u)


@pytest.mark.parametrize(
    "fam", [belyi(), C2, signed(), exponential(), quantum(F(1, 2))], ids=lambda f: f.label
)
def test_log_tau_matches_power_sum(fam):
    tau = build_tau(fam, 6, 4)
    assert log_tau(tau) == reference_log(tau.body)


def test_beta_series_log_exp_match_power_sums():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.randint(0, 6)
        u = BetaSeries([0] + [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(d)])
        a = u + 1
        assert series_exp(u) == reference_exp(u)
        assert BetaSeries(log_pieces(a.coeffs, F(0))) == reference_log(a)


@pytest.mark.parametrize("c", [(F(1), F(1, 2)), (F(2), F(-1, 3))], ids=["1,1/2", "2,-1/3"])
def test_dual_g_coeff_matches_newton(c):
    # the dual family's G = prod (1 - c_i z)^-1 has g_n = h_n(c)
    p = [power_sum_value(k, c) for k in range(10)]
    fam = WeightFamily("dual_finite_c", c=c)
    assert [g_coeff(fam, n) for n in range(10)] == reference_h_list(p, 9)


@pytest.mark.parametrize("sign", [1, -1])
def test_h_of_sigma_matches_newton(sign):
    sigma = (F(2, 3), F(-1, 5), F(1, 7))
    assert list(h_list(sigma, sign, 9)) == [h_of_sigma(n, sigma, sign) for n in range(10)]


def test_three_point_cumulant_identity():
    # W~3 = W_3 - sum_{i} W_1(x_i) W_2(rest) + 2 W_1 W_1 W_1, verified from the
    # log-tau extraction against the tau extraction
    from hurwitztau.exactalg import exps_mul
    from hurwitztau.taufn import build_tau, log_tau, multicurrent_W

    d_max = 2
    tau = build_tau(belyi(), 5, d_max)
    log_body = log_tau(tau)
    w1 = multicurrent_W(tau.body, 1, 1)
    w2 = multicurrent_W(tau.body, 2, 1)
    w3 = multicurrent_W(tau.body, 3, 1)
    w3_conn = multicurrent_W(log_body, 3, 1)
    w2_conn = multicurrent_W(log_body, 2, 1)

    def combine(parts_maps, arrangement):
        # parts_maps: list of (x-slot tuple, terms dict); produce 3-slot keyed dict
        out = {}

        def rec(idx, key_acc, s_acc, g_acc, val_acc):
            if idx == len(parts_maps):
                key = (tuple(key_acc), s_acc, g_acc)
                out[key] = out.get(key, BetaSeries.zero(d_max)) + val_acc
                return
            slots, terms = parts_maps[idx]
            for (xexp, s, g), c in terms.items():
                new_key = list(key_acc)
                for slot, e in zip(slots, xexp):
                    new_key[slot] = e
                rec(idx + 1, new_key, exps_mul(s_acc, s), g_acc + g, val_acc * c)

        rec(0, [None, None, None], (), 0, BetaSeries.one(d_max))
        return out

    zero = BetaSeries.zero(d_max)
    # rhs = W3 - [W1(x1)W2c(x2,x3) + W1(x2)W2c(x1,x3) + W1(x3)W2c(x1,x2)]
    #       - W1 W1 W1; using connected W2c avoids double-counting:
    # standard moment-cumulant at n=3: W3 = W~3 + sum W1 W~2 + W1^3
    rhs = dict(w3)
    for single, pair in (((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1))):
        for key, val in combine([(single, w1), (pair, w2_conn)], None).items():
            rhs[key] = rhs.get(key, zero) - val
    for key, val in combine([((0,), w1), ((1,), w1), ((2,), w1)], None).items():
        rhs[key] = rhs.get(key, zero) - val
    for key in set(w3_conn) | set(rhs):
        xexp = key[0]
        if sum(xexp) + 3 > 5 or max(xexp) > 1:
            continue  # outside the window where all contributing pieces exist
        assert w3_conn.get(key, zero) == rhs.get(key, zero), key


# The KP residual as computed before miwa_expand: a trinomial split of each
# left term and a binomial split of each right term inside the pair loop.
def _sub_exponents(exps):
    """All componentwise-dominated exponent vectors."""
    ranges = [range(e + 1) for e in exps]
    return itertools.product(*ranges)


def _delta_monomials(weight: int):
    """delta-t monomials of exact weighted degree, as exponent vectors."""
    for lam in enumerate_partitions(weight):
        yield monomial_from_partition(lam.parts)


def reference_hirota_residual(tau: TauSeries, probe_degree: int) -> dict:
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


@pytest.mark.parametrize(
    "fam,w_max,probe",
    [(exponential(), 6, 3), (belyi(), 6, 3), (signed(), 6, 3), (quantum(F(1, 2)), 6, 3),
     (exponential(), 8, 4)],
    ids=["exp-w6", "belyi-w6", "signed-w6", "quantum-w6", "exp-w8"],
)
def test_hirota_residual_matches_reference(fam, w_max, probe):
    tau = build_tau(fam, w_max, 3)
    residual = hirota_residual(tau, probe)
    reference = reference_hirota_residual(tau, probe)
    assert residual == reference
    # same key order too: the CLI reports the first nonzero entry
    assert list(residual) == list(reference)


def _dict4_mul(a: dict, b: dict) -> dict:
    """Product of Laurent polynomials, exponent tuple -> coefficient.

    Coefficients are Fractions or BetaSeries; zero ones are dropped (a zero of
    either type is falsy).
    """
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            prev = out.get(key)
            term = va * vb
            out[key] = term if prev is None else prev + term
    return {k: v for k, v in out.items() if v}


def reference_miwa_expand(exps, letters):
    """prod_b (sum_i scale_i(b) y_{i,b})^{e_b} by repeated multiplication, one
    factor t_b at a time, as tau(X) was once built from t_of(b) and _dict4_mul;
    a key lists the exponents of y_1, then of y_2, and so on.  The letter eps
    scales by eps/b, the letter None by 1."""
    width = len(exps)

    def t_of(b):
        out = {}
        for i, eps in enumerate(letters):
            key = [0] * (len(letters) * width)
            key[i * width + b - 1] = 1
            out[tuple(key)] = F(1) if eps is None else F(eps) / b
        return out

    term = {(0,) * (len(letters) * width): F(1)}
    for b, e in enumerate(exps, start=1):
        for _ in range(e):
            term = _dict4_mul(term, t_of(b))
    return term


def test_miwa_expand_matches_repeated_multiplication():
    rng = random.Random(7)
    choices = [None, 1, -1, F(1, 2), -3]
    for _ in range(40):
        exps = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        letters = [rng.choice(choices) for _ in range(rng.randint(1, 4))]
        expansion = miwa_expand(exps, letters)
        flat = {sum(pieces, ()): coeff for pieces, coeff in expansion}
        assert len(flat) == len(expansion)
        assert flat == reference_miwa_expand(exps, letters), (exps, letters)


def _random_dict4(rng, coefficient):
    cells = {}
    for _ in range(rng.randint(1, 8)):
        key = tuple(rng.randint(-3, 1) for _ in range(4))
        cells[key] = coefficient(rng)
    return cells


def _random_fraction(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 4))


def _random_series(rng):
    return BetaSeries([_random_fraction(rng) for _ in range(3)])


@pytest.mark.parametrize("coefficient", [_random_fraction, _random_series],
                         ids=["fraction", "beta-series"])
def test_two_pair_products_match_generic_product(coefficient):
    # the two-pair identity multiplies by (x_a - x_b) with one shift and one
    # subtraction, and forms T(z1,w1) T(z2,w2) as an outer product
    rng = random.Random(11)
    one = F(1) if coefficient is _random_fraction else BetaSeries.one(2)

    def difference(a, b):
        return {tuple(int(k == a) for k in range(4)): one,
                tuple(int(k == b) for k in range(4)): -one}

    for _ in range(30):
        poly = _random_dict4(rng, coefficient)
        a, b = rng.sample(range(4), 2)
        assert _times_difference(poly, a, b) == _dict4_mul(poly, difference(a, b)), (a, b)
        left = {(k[0], 0, k[2], 0): v for k, v in _random_dict4(rng, coefficient).items()}
        right = {(0, k[1], 0, k[3]): v for k, v in _random_dict4(rng, coefficient).items()}
        outer = {(lk[0], rk[1], lk[2], rk[3]): lv * rv
                 for lk, lv in left.items() for rk, rv in right.items()}
        assert {k: v for k, v in outer.items() if v} == _dict4_mul(left, right)


def test_hirota_residual_signed_and_quantum():
    for fam in (signed(), quantum(F(1, 2))):
        tau = build_tau(fam, 6, 3)
        residual = hirota_residual(tau, 3)
        assert residual and all(not v for v in residual.values()), fam.label


def test_reconstruct_dual_family():
    from hurwitztau.cutjoin import reconstruct_tau
    from hurwitztau.weights import signed

    assert reconstruct_tau(signed(), 4, 3)["diagonal_ok"]


def test_baker_matches_basis_for_dual_family():
    from hurwitztau.taufn import build_tau
    from hurwitztau.weights import signed
    from test_taufn import reference_baker

    fam, beta, gamma, s = signed(), F(1, 19), F(3, 2), (F(2, 19),)
    tau = build_tau(fam, 5, 3)
    minus, plus = reference_baker(tau, -5, beta, gamma, s)
    b = build_basis(fam, beta, gamma, s=s, k_range=(1, 1), depth=-7)
    for j in range(-5, 1):
        assert minus.get(j) == b.ws[1].get(j)
        assert plus.get(j) == b.w[1].get(j) * gamma


def test_graded_ring_axioms_random():
    rng = random.Random(99)

    def rand_poly(w_max, d_max):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            t = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))
            s = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))
            from hurwitztau.exactalg import exp_weight

            if exp_weight(t) > w_max or exp_weight(s) > w_max:
                continue
            g = rng.randint(0, 3)
            coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d_max + 1)]
            terms[(t, s, g)] = BetaSeries(coeffs)
        return GradedPoly(terms, w_max, d_max)

    for _ in range(20):
        w_max, d_max = rng.randint(2, 4), rng.randint(0, 2)
        a, b, c = (rand_poly(w_max, d_max) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
