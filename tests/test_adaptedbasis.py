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
    recursion_Q,
)
from hurwitztau.errors import SingularParameterError
from hurwitztau.exactalg import BRing, LaurentWindow, QRing, series_inv
from hurwitztau.symfun import h_of_sigma
from hurwitztau.weights import (
    WeightFamily,
    belyi,
    exponential,
    g_value,
    quantum,
    rho,
    rho_series,
    signed,
)

F = Fraction

# Nonsingular configurations: 1/21 keeps every G(i beta) away from zero on the
# index ranges the windows touch.
BELYI_CFG = dict(beta_val=F(1, 21), gamma_val=F(1), s=(F(1, 21),))
C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")
C2_CFG = dict(beta_val=F(1, 23), gamma_val=F(1), s=(F(1, 23),))


def belyi_basis(**kw):
    args = dict(BELYI_CFG)
    args.update(kw)
    return build_basis(belyi(), k_range=(-3, 5), depth=-10, **args)


def naive_basis(family, beta, gamma, sigma, k_range, depth, d_max=None, sides=("w", "ws")):
    """w_k, w*_k with every rho_j and rho_j^{-1} evaluated afresh per entry."""
    ring = QRing() if beta is not None else BRing(d_max)

    def rho_j(j):
        if beta is None:
            return rho_series(family, j, d_max, gamma)
        return rho(family, j, beta, gamma)

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
                ring.coerce(h_of_sigma(k - j - 1, sigma, 1)) * rho_j(-j - 1)
                for j in range(depth, k)))
        if "ws" in sides:
            ws[k] = LaurentWindow(depth, tuple(
                ring.coerce(h_of_sigma(k - j - 1, sigma, -1)) * rho_inv(j)
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
        ring = QRing()
        for k in range(-2, 4):
            # single term rho_{-k} z^{k-1}
            assert b.w[k].get(k - 1, ring) == rho(belyi(), -k, F(1, 21), F(2))
            assert all(b.w[k].get(j, ring) == 0 for j in range(-6, k - 1))

    def test_trivial_family_monomials(self):
        triv = WeightFamily("finite_c", c=())
        b = build_basis(triv, F(1), F(1), s=(), k_range=(-2, 3), depth=-6)
        ring = QRing()
        for k in range(-2, 4):
            assert b.w[k].get(k - 1, ring) == 1
            assert b.ws[k].get(k - 1, ring) == 1

    def test_leading_coefficients(self):
        b = belyi_basis()
        ring = QRing()
        for k in range(b.k_lo, b.k_hi + 1):
            assert b.w[k].get(k - 1, ring) == rho(belyi(), -k, *[BELYI_CFG["beta_val"], BELYI_CFG["gamma_val"]])
            assert b.ws[k].get(k - 1, ring) == 1 / rho(
                belyi(), k - 1, BELYI_CFG["beta_val"], BELYI_CFG["gamma_val"]
            )

    def test_triangularity(self):
        # everything above z^{k-1} is known zero, and the top is nonzero
        b = belyi_basis()
        ring = QRing()
        for k in range(b.k_lo, b.k_hi + 1):
            assert b.w[k].hi == k - 1 and b.ws[k].hi == k - 1
            assert b.w[k].get(k + 3, ring) == 0
            assert b.w[k].get(k - 1, ring) != 0
            assert b.ws[k].get(k - 1, ring) != 0

    def test_subleading_coefficient(self):
        # coefficient of z^{k-2} in w_k is h_1(sigma) rho_{1-k} = sigma_1 rho_{1-k}
        b = belyi_basis()
        ring = QRing()
        sigma1 = b.sigma[0]
        for k in range(b.k_lo + 1, b.k_hi + 1):
            want = sigma1 * rho(belyi(), 1 - k, BELYI_CFG["beta_val"], BELYI_CFG["gamma_val"])
            assert b.w[k].get(k - 2, ring) == want

    def test_singular_parameters_raise(self):
        # Belyi at beta = 1: G(-beta) = 0 makes rho_{-2} undefined
        with pytest.raises(SingularParameterError):
            build_basis(belyi(), F(1), F(1), s=(F(1),), k_range=(2, 2), depth=-4)


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

    def test_pairing_values(self):
        b = belyi_basis()
        ring = QRing()
        assert b.w[1].residue_with(b.ws[0], ring) == 1  # j + l = 1
        assert b.w[1].residue_with(b.ws[1], ring) == 0

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
        from hurwitztau.exactalg import LaurentWindow

        bad_w = dict(b.w)
        coeffs = list(bad_w[2].coeffs)
        coeffs[3] = coeffs[3] + 1
        bad_w[2] = LaurentWindow(bad_w[2].lo, tuple(coeffs))
        from dataclasses import replace

        bad = replace(b, w=bad_w)
        assert not quantum_curve_residual(bad)["ok"]

    def test_euler_example_single_s(self):
        # D w_k = (k-1) w_k - sigma_1 w_{k-1} for L = 1
        b = belyi_basis()
        ring = QRing()
        for k in range(b.k_lo + 1, b.k_hi + 1):
            lhs = b.w[k].euler(ring)
            rhs = b.w[k].scale(k - 1, ring).sub(b.w[k - 1].scale(b.sigma[0], ring), ring)
            lo = max(lhs.lo, rhs.lo)
            assert lhs.eq_on(rhs, lo, lhs.hi, ring)


class TestClassicalCurve:
    def test_trivial_g(self):
        curve = classical_curve(WeightFamily("finite_c", c=()), (F(1), F(1, 2)), F(1))
        # P = xy - S(gamma x) = xy - s_1 x - 2 s_2 x^2
        assert curve.poly == {(1, 1): F(1), (1, 0): F(-1), (2, 0): F(-1)}

    def test_belyi_single_s(self):
        curve = classical_curve(belyi(), (F(1),), F(1))
        # xy - s_1 gamma x (1 + xy)
        assert curve.poly == {(1, 1): F(1), (1, 0): F(-1), (2, 1): F(-1)}

    def test_s_zero(self):
        curve = classical_curve(belyi(), (), F(3))
        assert curve.poly == {(1, 1): F(1)}

    def test_transcendental_families_symbolic(self):
        assert classical_curve(exponential(), (1,), 1).symbolic is not None
        from hurwitztau.weights import quantum

        assert classical_curve(quantum(F(1, 2)), (1,), 1).symbolic is not None
