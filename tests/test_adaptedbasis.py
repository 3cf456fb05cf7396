from dataclasses import replace
from fractions import Fraction

import pytest

from hurwitztau.adaptedbasis import (
    build_basis,
    classical_curve,
    euler_P,
    general_Q_cross_check,
    kac_schwarz_check,
    ladder_R,
    pairing_check,
    quantum_curve_residual,
    recursion_entry,
    recursion_Q,
)
from hurwitztau.errors import SingularParameterError
from hurwitztau.exactalg import BRing, LaurentWindow, QRing, series_inv
from hurwitztau.weights import (
    WeightFamily,
    belyi,
    exponential,
    g_at,
    g_value,
    quantum,
    rho,
    rho_inv,
    signed,
)
from test_crosschecks import h_of_sigma

F = Fraction

# Nonsingular configurations: 1/21 keeps every G(i beta) away from zero on the
# index ranges the windows touch.
BELYI_CFG = dict(beta_val=F(1, 21), gamma_val=F(1), s=(F(1, 21),))
BELYI_RING = QRing(BELYI_CFG["beta_val"])
C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")
C2_CFG = dict(beta_val=F(1, 23), gamma_val=F(1), s=(F(1, 23),))


def belyi_basis(**kw):
    args = dict(BELYI_CFG)
    args.update(kw)
    return build_basis(belyi(), k_range=(-3, 5), depth=-10, **args)


def naive_basis(family, beta, gamma, sigma, k_range, depth, d_max=None, sides=("w", "ws")):
    """w_k, w*_k with every rho_j and rho_j^{-1} evaluated afresh per entry."""
    ring = QRing(beta) if beta is not None else BRing(d_max)

    def rho_j(j):
        return rho(family, j, gamma, ring)

    def rho_inv(j):
        if beta is None:
            return series_inv(rho_j(j))
        if j >= 0:
            value = rho_j(j)
            if value == 0:
                raise SingularParameterError(f"rho_{j} = 0: dual basis element undefined")
            return 1 / value
        out = gamma ** (-j)
        for i in range(0, -j):
            out *= g_value(family, -i * beta)
        return out

    w, ws = {}, {}
    for k in range(k_range[0], k_range[1] + 1):
        if "w" in sides:
            w[k] = LaurentWindow(depth, tuple(
                ring.one() * h_of_sigma(k - j - 1, sigma, 1) * rho_j(-j - 1)
                for j in range(depth, k)))
        if "ws" in sides:
            ws[k] = LaurentWindow(depth, tuple(
                ring.one() * h_of_sigma(k - j - 1, sigma, -1) * rho_inv(j)
                for j in range(depth, k)))
    return w, ws


def raised_message(build):
    with pytest.raises(SingularParameterError) as info:
        build()
    return str(info.value)


class TestBuild:
    def test_matches_naive_build_rational(self):
        beta, sigma = F(1, 21), (F(2), F(1, 3))
        b = build_basis(C2, beta, F(2, 3), sigma=sigma, k_range=(-8, 8), depth=-16)
        assert (b.w, b.ws) == naive_basis(C2, beta, F(2, 3), sigma, (-8, 8), -16)

    def test_matches_naive_build_series(self):
        fam, sigma = quantum(F(1, 3)), (F(1, 5),)
        b = build_basis(fam, None, F(2), sigma=sigma, k_range=(-5, 6), depth=-12, d_max=4)
        assert (b.w, b.ws) == naive_basis(fam, None, F(2), sigma, (-5, 6), -12, d_max=4)

    def test_vanishing_rho_keeps_dual_side(self):
        # belyi at beta = 1: rho_j for j <= -2 is singular, rho_j^{-1} is 0 there
        b = build_basis(belyi(), 1, 1, s=(1,), k_range=(-3, 5), depth=-10, sides=("ws",))
        assert b.ws == naive_basis(belyi(), F(1), F(1), (F(1),), (-3, 5), -10, sides=("ws",))[1]

    @pytest.mark.parametrize(
        "family,beta", [(belyi(), F(1)), (C2, F(1, 3))], ids=["belyi", "c2"]
    )
    def test_singular_message_unchanged(self, family, beta):
        got = raised_message(lambda: build_basis(
            family, beta, 1, s=(beta,), k_range=(-3, 5), depth=-10))
        want = raised_message(lambda: naive_basis(
            family, beta, F(1), (F(1),), (-3, 5), -10))
        assert got == want

    def test_s_zero_monomials(self):
        b = build_basis(belyi(), F(1, 21), F(2), s=(), k_range=(-2, 3), depth=-6)
        for k in range(-2, 4):
            # single term rho_{-k} z^{k-1}
            assert b.w[k].get(k - 1) == rho(belyi(), -k, F(2), QRing(F(1, 21)))
            assert all(b.w[k].get(j) == 0 for j in range(-6, k - 1))

    def test_trivial_family_monomials(self):
        triv = WeightFamily("finite_c", c=())
        b = build_basis(triv, F(1), F(1), s=(), k_range=(-2, 3), depth=-6)
        for k in range(-2, 4):
            assert b.w[k].get(k - 1) == 1
            assert b.ws[k].get(k - 1) == 1

    def test_leading_coefficients(self):
        b = belyi_basis()
        for k in range(b.k_lo, b.k_hi + 1):
            assert b.w[k].get(k - 1) == rho(belyi(), -k, BELYI_CFG["gamma_val"], BELYI_RING)
            assert b.ws[k].get(k - 1) == 1 / rho(belyi(), k - 1, BELYI_CFG["gamma_val"], BELYI_RING)

    def test_triangularity(self):
        # everything above z^{k-1} is known zero, and the top is nonzero
        b = belyi_basis()
        for k in range(b.k_lo, b.k_hi + 1):
            assert b.w[k].hi == k - 1 and b.ws[k].hi == k - 1
            assert b.w[k].get(k + 3) == 0
            assert b.w[k].get(k - 1) != 0
            assert b.ws[k].get(k - 1) != 0

    def test_subleading_coefficient(self):
        # coefficient of z^{k-2} in w_k is h_1(sigma) rho_{1-k} = sigma_1 rho_{1-k}
        b = belyi_basis()
        sigma1 = b.sigma[0]
        for k in range(b.k_lo + 1, b.k_hi + 1):
            want = sigma1 * rho(belyi(), 1 - k, BELYI_CFG["gamma_val"], BELYI_RING)
            assert b.w[k].get(k - 2) == want

    def test_singular_parameters_raise(self):
        # Belyi at beta = 1: G(-beta) = 0 makes rho_{-2} undefined
        with pytest.raises(SingularParameterError):
            build_basis(belyi(), F(1), F(1), s=(F(1),), k_range=(2, 2), depth=-4)


# (family, beta, gamma, sigma, k_range, depth, d_max): a rational and a series window
TABLE_WINDOWS = [
    (C2, F(1, 21), F(2, 3), (F(2), F(1, 3)), (-8, 8), -16, None),
    (quantum(F(1, 3)), None, F(2), (F(1, 5),), (-5, 6), -12, 4),
]


class TestWindowTables:
    @pytest.mark.parametrize("family,beta,gamma,sigma,k_range,depth,d_max", TABLE_WINDOWS,
                             ids=["c2-rational", "quantum-series"])
    def test_tables_match_their_definitions(self, family, beta, gamma, sigma, k_range, depth,
                                            d_max):
        b = build_basis(family, beta, gamma, sigma=sigma, k_range=k_range, depth=depth,
                        d_max=d_max)
        ring, (k_lo, k_hi) = b.ring, k_range
        # every exponent that R, R^2 and a meet on the windows, both sides
        for j in range(depth - len(sigma) - 2, k_hi + 2):
            assert b.gamma_g(j) == g_at(family, j, ring) * gamma, j
        # w_k reads rho_{-j-1} and w*_k reads rho_j^{-1} for depth <= j < k_hi
        for j in range(depth, k_hi):
            assert b.rho(-j - 1) == rho(family, -j - 1, gamma, ring), j
            assert b.rho_inv(j) == rho_inv(family, j, gamma, ring), j
        # the elements read h_{k-j-1}(side sigma) for every z^j of the window
        for k in range(k_lo, k_hi + 1):
            assert b.w[k].lo == b.ws[k].lo == depth and b.w[k].hi == b.ws[k].hi == k - 1
            for j in range(depth, k):
                assert b.w[k].get(j) == h_of_sigma(k - j - 1, sigma, 1) * b.rho(-j - 1), (k, j)
                assert b.ws[k].get(j) == h_of_sigma(k - j - 1, sigma, -1) * b.rho_inv(j), (k, j)

    def test_singular_rho_raises_on_every_read(self):
        # belyi at beta = 1: G(-beta) = 0, so rho_{-2} is singular while the
        # dual side survives; the window's table raises weights.rho's error
        # each time it is read, as it never stores an error
        b = build_basis(belyi(), 1, 1, s=(1,), k_range=(-3, 5), depth=-10, sides=("ws",))
        want = raised_message(lambda: rho(belyi(), -2, F(1), QRing(F(1))))
        assert raised_message(lambda: b.rho(-2)) == want
        assert raised_message(lambda: b.rho(-2)) == want
        assert b.rho(-1) == rho(belyi(), -1, F(1), QRing(F(1)))


def reference_recursion_entry(family, ring, sigma, i, j, side):
    """Q+-_{ij} by its defining sum, one h-coefficient at a time:
    sum_{k=i-1}^{j} G(side k beta) h_{k-i+1}(side sigma) h_{j-k}(-side sigma)."""
    acc = ring.zero()
    for k in range(i - 1, j + 1):
        acc = acc + g_at(family, side * k, ring) * (
            h_of_sigma(k - i + 1, sigma, side) * h_of_sigma(j - k, sigma, -side)
        )
    return acc


@pytest.mark.parametrize("family,ring", [(C2, QRing(F(1, 23))), (belyi(), BRing(3)),
                                         (signed(), QRing(F(1, 19)))],
                         ids=["c2-rational", "belyi-series", "signed-rational"])
def test_recursion_entry_matches_its_defining_sum(family, ring):
    sigma = (F(2), F(-1, 3))
    for i in range(-6, 7):
        for j in range(-6, 9):
            for side in (1, -1):
                assert recursion_entry(family, ring, sigma, i, j, side) == \
                    reference_recursion_entry(family, ring, sigma, i, j, side), (i, j, side)


def _outcome(run):
    try:
        run()
    except SingularParameterError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "family,first,message",
    [
        (belyi(), -22, "a* undefined: gamma G(-21 beta) = 0"),
        (WeightFamily("finite_c", c=(F(-1),)), -21, "a undefined: gamma G(21 beta) = 0"),
        (WeightFamily("finite_c", c=(F(1), F(-1))), -21, "a undefined: gamma G(21 beta) = 0"),
    ],
    ids=["belyi", "c=-1", "c=1,-1"],
)
def test_singular_a_refused_as_kac_schwarz_raises(family, first, message):
    # belyi vanishes at G(-21 beta), which a* meets; c = -1 at G(21 beta), which
    # a meets first in the [c, a] step, at depth -21; c = 1,-1 at both, so the
    # side order decides which is named from depth -22 on
    beta, gamma, s, k_range = F(1, 21), F(1), (F(1, 21),), (-3, 5)
    seen = {
        depth: _outcome(lambda: kac_schwarz_check(
            build_basis(family, beta, gamma, s=s, k_range=k_range, depth=depth)
        ))
        for depth in range(-19, -26, -1)
    }
    assert seen[first + 1] is None and seen[first] == message


def test_singular_rho_left_to_build_basis():
    # at beta = 1, G(-beta) = 0 makes rho_{-2} singular: build_basis raises first
    with pytest.raises(SingularParameterError, match="rho_-2 undefined"):
        build_basis(belyi(), F(1), F(1), s=(F(1),), k_range=(-3, 5), depth=-10)


class TestRelations:
    @pytest.mark.parametrize(
        "family,cfg",
        [(belyi(), BELYI_CFG), (C2, C2_CFG), (signed(), BELYI_CFG)],
        ids=["belyi", "c2", "signed"],
    )
    def test_full_suite_rational(self, family, cfg):
        b = build_basis(family, k_range=(-3, 5), depth=-10, **cfg)
        assert pairing_check(b)["ok"]
        assert ladder_R(b)["ok"]
        assert kac_schwarz_check(b)["ok"]
        assert quantum_curve_residual(b)["ok"]
        assert euler_P(b)["ok"]
        if family.kind == "finite_c":
            assert recursion_Q(b)["ok"]
        assert general_Q_cross_check(b, 6)["ok"]

    def test_series_mode_exponential(self):
        b = build_basis(
            exponential(), None, F(1), sigma=(F(1, 2),), k_range=(-2, 3), depth=-8, d_max=4
        )
        assert pairing_check(b)["ok"]
        assert ladder_R(b)["ok"]
        assert quantum_curve_residual(b)["ok"]
        assert euler_P(b)["ok"]

    @pytest.mark.parametrize("sides", [("w",), ("ws",)])
    def test_pairing_on_one_side_says_it_tested_nothing(self, sides):
        b = build_basis(belyi(), k_range=(-3, 5), depth=-10, sides=sides, **BELYI_CFG)
        assert pairing_check(b) == {"ok": True, "tested": 0, "untestable": [], "failures": [],
                                    "skipped": "one side of the basis is not built"}

    def test_pairing_values(self):
        b = belyi_basis()
        assert b.w[1].residue_with(b.ws[0]) == 1  # j + l = 1
        assert b.w[1].residue_with(b.ws[1]) == 0

    def test_q_band_example(self):
        # L = M = 1: Q+_{ii} = sigma_1 (G((i)beta) - G((i-1)beta)) = sigma_1 beta
        b = belyi_basis()
        rep = recursion_Q(b)
        assert rep["band"] == 1
        sigma1 = b.sigma[0]
        for (i, j), v in rep["Q+"].items():
            if i == j:
                assert v == sigma1 * BELYI_CFG["beta_val"]

    def test_corrupted_rho_breaks_quantum_curve(self):
        b = belyi_basis()
        # perturb one coefficient of w_2 and re-check
        bad_w = dict(b.w)
        coeffs = list(bad_w[2].coeffs)
        coeffs[3] = coeffs[3] + 1
        bad_w[2] = LaurentWindow(bad_w[2].lo, tuple(coeffs))
        bad = replace(b, w=bad_w)
        assert not quantum_curve_residual(bad)["ok"]

    @pytest.mark.parametrize(
        "family,cfg", [(belyi(), BELYI_CFG), (C2, C2_CFG)], ids=["belyi", "c2"]
    )
    def test_corrupted_dual_breaks_dual_checks(self, family, cfg):
        # one wrong coefficient of w*_2 must show in every check that reads w*,
        # and only under a dual-side label
        b = build_basis(family, k_range=(-3, 5), depth=-10, **cfg)

        def corrupt(index):
            coeffs = list(b.ws[2].coeffs)
            coeffs[index] += 1
            return replace(b, ws={**b.ws, 2: LaurentWindow(b.ws[2].lo, tuple(coeffs))})

        bad = corrupt(3)
        for check in (ladder_R, kac_schwarz_check, quantum_curve_residual, euler_P, recursion_Q):
            rep = check(bad)
            assert not rep["ok"], check.__name__
            ops = {f["op"] for f in rep["failures"]}
            assert ops <= {"R*", "a*", "b*", "c*", "spectral*", "Pt-", "Q-"}, check.__name__
        # the pairing reads w*_2 only near its top, out of reach of index 3
        assert pairing_check(bad)["ok"]
        assert not pairing_check(corrupt(-1))["ok"]

    def test_euler_example_single_s(self):
        # D w_k = (k-1) w_k - sigma_1 w_{k-1} for L = 1
        b = belyi_basis()
        for k in range(b.k_lo + 1, b.k_hi + 1):
            lhs = b.w[k].euler()
            rhs = b.w[k].scale(k - 1).sub(b.w[k - 1].scale(b.sigma[0]))
            lo = max(lhs.lo, rhs.lo)
            assert lhs.eq_on(rhs, lo, lhs.hi)


class TestClassicalCurve:
    def test_trivial_g(self):
        curve = classical_curve(WeightFamily("finite_c", c=()), (F(1), F(1, 2)), F(1))
        # P = xy - S(gamma x) = xy - s_1 x - 2 s_2 x^2
        assert curve["polynomial"] == {(1, 1): F(1), (1, 0): F(-1), (2, 0): F(-1)}

    def test_belyi_single_s(self):
        curve = classical_curve(belyi(), (F(1),), F(1))
        # xy - s_1 gamma x (1 + xy)
        assert curve["polynomial"] == {(1, 1): F(1), (1, 0): F(-1), (2, 1): F(-1)}

    def test_s_zero(self):
        curve = classical_curve(belyi(), (), F(3))
        assert curve["polynomial"] == {(1, 1): F(1)}

    @pytest.mark.parametrize("c", [(), (1,), (F(1, 2), -2), (1, F(-1, 3), F(2, 5))],
                             ids=lambda c: f"M{len(c)}")
    @pytest.mark.parametrize("s", [(F(1, 2), F(-3)), (F(2, 3), F(0), F(1, 4))],
                             ids=["s2", "s3"])
    @pytest.mark.parametrize("gamma", [F(3, 2), F(-2, 5)], ids=["gamma3/2", "gamma-2/5"])
    def test_matches_closed_form_on_a_grid(self, c, s, gamma):
        # P(x, y) = x y - sum_k k s_k (gamma x G(x y))^k with G(xy) by g_value; P
        # has x-degree <= L + M L and y-degree <= M L, so agreement on a grid one
        # point wider than each degree proves the polynomials equal
        fam = WeightFamily("finite_c", c=c)
        poly = classical_curve(fam, s, gamma)["polynomial"]
        deg = len(c) * len(s)
        for x in (F(i, 3) for i in range(1, len(s) + deg + 2)):
            for y in (F(-i, 5) for i in range(1, deg + 2)):
                want = x * y - sum(k * sk * (gamma * x * g_value(fam, x * y)) ** k
                                   for k, sk in enumerate(s, start=1))
                assert sum(v * x**i * y**j for (i, j), v in poly.items()) == want, (x, y)
        assert all(poly.values())

    def test_transcendental_families_symbolic(self):
        # x y = S(gamma x G(x y)) with G = e^z and G = prod_{j>=1} (1 + q^j z)
        curve = classical_curve(exponential(), (1,), 1)
        assert curve["polynomial"] is None
        assert curve["symbolic"] == "x*y = sum_i i*s_i*gamma^i*x^i*exp(i*x*y)"
        from hurwitztau.weights import quantum

        curve = classical_curve(quantum(F(1, 2)), (1,), 1)
        assert curve["polynomial"] is None
        assert curve["symbolic"] == "x*y = sum_i i*s_i*gamma^i*x^i*(prod_{j>=1}(1 + q^j*x*y))^i"
