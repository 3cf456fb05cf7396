import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest

from hurwitztau import weights
from hurwitztau.errors import ConfigurationError, DomainError, SingularParameterError
from hurwitztau.exactalg import BetaSeries, BRing, QRing, log_pieces, series_exp, series_inv
from hurwitztau.hurwitz import build_table
from hurwitztau.partitions import Partition, partitions_up_to
from hurwitztau.weights import (
    WeightFamily,
    belyi,
    content_product,
    exponential,
    g_at,
    g_coeff,
    g_value,
    log_coeffs,
    profile_weight,
    quantum,
    r_factor,
    rho,
    rho_inv,
    signed,
)

F = Fraction


@lru_cache(maxsize=None)
def reference_pk_poly(k: int) -> tuple:
    """Coefficients (by ascending power, constant first) of the unique
    polynomial p_k in x*Q[x] with p_k(x) - p_k(x-1) = x^k.

    p_k has degree k+1 and p_k(m) = 1^k + ... + m^k for integer m >= 0, so it
    is recovered by Lagrange interpolation through x = 0..k+1.
    """
    if k < 0:
        raise DomainError("p_k index must be nonnegative")
    xs = list(range(k + 2))
    ys = []
    acc = Fraction(0)
    for m in xs:
        if m > 0:
            acc += Fraction(m) ** k
        ys.append(acc)
    # Lagrange interpolation, assembling coefficient lists exactly
    coeffs = [Fraction(0)] * (k + 2)
    for i, xi in enumerate(xs):
        # numerator polynomial prod_{j != i} (x - x_j)
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for idx in range(len(num) - 1):
                num[idx] -= Fraction(xj) * num[idx + 1]
            denom *= xi - xj
        scale = ys[i] / denom
        for idx, cval in enumerate(num):
            coeffs[idx] += scale * cval
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reference_pk_eval(k: int, x) -> Fraction:
    x = Fraction(x)
    out = Fraction(0)
    for c in reversed(reference_pk_poly(k)):
        out = out * x + c
    return out


def reference_elementary_list(c, n_max: int) -> list[Fraction]:
    """e_0..e_n of the finite alphabet c, by expanding prod (1 + c_i z)."""
    out = [F(1)] + [F(0)] * n_max
    for ci in c:
        for n in range(n_max, 0, -1):
            out[n] += F(ci) * out[n - 1]
    return out


def reference_complete_list(c, n_max: int) -> list[Fraction]:
    """h_0..h_n of the finite alphabet c, by expanding prod (1 - c_i z)^-1."""
    out = [F(1)] + [F(0)] * n_max
    for ci in c:
        for n in range(1, n_max + 1):
            out[n] += F(ci) * out[n - 1]
    return out


def reference_monomial(lam: Partition, c) -> Fraction:
    """m_lambda(c): each distinct arrangement of lambda's parts as exponents on
    each choice of len(lambda) letters of c."""
    arrangements = set(itertools.permutations(lam.parts))
    return sum((prod(F(c[i]) ** e for i, e in zip(idx, arrangement))
                for idx in itertools.combinations(range(len(c)), lam.length)
                for arrangement in arrangements), F(0))


def reference_forgotten(lam: Partition, c) -> Fraction:
    """f_lambda(c) = omega(m_lambda) at c: (-1)^{|lam| - len(lam)} / |Aut lam|
    times the sum, over the orderings of lambda's parts and the multisets of
    len(lambda) letters of c, of the monomial they make."""
    total = sum((prod(F(c[i]) ** e for i, e in zip(idx, order))
                 for order in itertools.permutations(lam.parts)
                 for idx in itertools.combinations_with_replacement(range(len(c)), lam.length)),
                F(0))
    return F((-1) ** lam.colength(), lam.aut_order()) * total


def reference_quantum_monomial(q: Fraction, lam: Partition) -> Fraction:
    """m_lambda(q, q^2, q^3, ...) by the closed product over orderings of the parts:
    sum_sigma prod_i 1/(q^{-(sigma_1 + ... + sigma_i)} - 1), over |Aut lam|."""
    total = sum((prod(1 / (q ** -partial - 1) for partial in itertools.accumulate(order))
                 for order in itertools.permutations(lam.parts)), F(0))
    return total / lam.aut_order()


def reference_profile_weight(family: WeightFamily, lam: Partition) -> Fraction:
    """m_lambda of G's roots in each kind's closed form, read off c and q, never
    off the log-series: m_lambda(c), f_lambda(c) for the dual family, 1/k! on
    1^k for exp (the all-transpositions limit) and the geometric alphabet q^i."""
    if family.kind == "finite_c":
        return reference_monomial(lam, family.c)
    if family.kind == "dual_finite_c":
        return reference_forgotten(lam, family.c)
    if family.kind == "exponential":
        return F(1, factorial(lam.length)) if set(lam.parts) <= {1} else F(0)
    return reference_quantum_monomial(family.q, lam)


class TestGCoeff:
    def test_exponential(self):
        assert g_coeff(exponential(), 2) == F(1, 2)
        assert g_coeff(exponential(), 5) == F(1, 120)

    def test_belyi(self):
        fam = belyi()
        assert g_coeff(fam, 1) == 1
        assert g_coeff(fam, 2) == 0

    def test_quantum_against_truncated_alphabet(self):
        q = F(1, 2)
        fam = quantum(q)
        assert g_coeff(fam, 1) == 1
        # e_i of (q, ..., q^K) agrees once K is large enough; compare exactly
        # after clearing the tail: closed form minus truncated e_i is O(q^{K+1}).
        for i in range(1, 5):
            for K in (i + 8, i + 12):
                approx = reference_elementary_list([q**j for j in range(1, K + 1)], i)[i]
                exact = g_coeff(fam, i)
                diff = exact - approx
                assert abs(diff) <= F(2, 2 ** (K + 1))

    def test_dual(self):
        fam = signed()
        assert g_coeff(fam, 3) == 1  # h_3(1) = 1

    def test_elementary_complete(self):
        assert g_coeff(WeightFamily("finite_c", c=(1, 1)), 2) == 1  # e_2(1, 1)
        assert g_coeff(WeightFamily("dual_finite_c", c=(1, 1)), 2) == 3  # h_2(1, 1)
        assert reference_elementary_list([1, 1], 2)[2] == 1
        assert reference_complete_list([1, 1], 2)[2] == 3

    def test_degree_is_set_for_polynomial_G_only(self):
        assert belyi().degree == 1
        assert WeightFamily("finite_c", c=(1, F(1, 2), F(-2, 3))).degree == 3
        assert WeightFamily("finite_c", c=()).degree == 0
        for fam in (signed(), WeightFamily("dual_finite_c", c=(1, 2)), exponential(),
                    quantum(F(1, 2))):
            assert fam.degree is None
        # g_i vanishes above the degree, and only there
        fam = WeightFamily("finite_c", c=(1, F(1, 2), F(-2, 3)))
        assert [i for i in range(12) if g_coeff(fam, i) == 0] == list(range(4, 12))


def reference_g_coeff(family: WeightFamily, i: int) -> Fraction:
    """The Taylor coefficient g_i computed from scratch, one index at a time."""
    if i == 0:
        return F(1)
    if family.kind == "finite_c":
        return reference_elementary_list(family.c, i)[i]
    if family.kind == "dual_finite_c":
        return reference_complete_list(family.c, i)[i]
    if family.kind == "exponential":
        out = F(1)
        for k in range(2, i + 1):
            out /= k
        return out
    q = family.q
    num = q ** (i * (i + 1) // 2)
    den = F(1)
    for j in range(1, i + 1):
        den *= 1 - q**j
    return num / den


def direct_g_value(family: WeightFamily, x) -> Fraction:
    """G(x) as the plain product over the family's c_i."""
    out = F(1)
    for ci in family.c:
        out *= 1 + x * ci if family.kind == "finite_c" else 1 / (1 - x * ci)
    return out


CACHED_FAMILIES = (
    exponential(), belyi(), WeightFamily("finite_c", c=(1, F(1, 2), F(-2, 3))), signed(),
    WeightFamily("dual_finite_c", c=(1, F(1, 2))), quantum(F(1, 3)),
)
RATIONAL_FAMILIES = tuple(f for f in CACHED_FAMILIES if f.kind in ("finite_c", "dual_finite_c"))


class TestCachedConstants:
    """G's series and g_value are memoized per (family, order or point); a cached
    value must equal the one computed from scratch, whatever the call order."""

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_g_coeff_matches_reference(self, order):
        weights._g_series.cache_clear()
        indices = range(65) if order == "ascending" else range(64, -1, -1)
        for fam in CACHED_FAMILIES:  # one cache for all six: no entry may leak
            for i in indices:
                assert g_coeff(fam, i) == reference_g_coeff(fam, i)

    def test_g_coeff_still_refuses_negative_index(self):
        for _ in range(2):
            with pytest.raises(DomainError):
                g_coeff(belyi(), -1)

    def test_g_value_matches_direct_product(self):
        g_value.cache_clear()
        beta = F(2, 61)  # j beta stays below every pole 1/c_i for |j| <= 30
        for fam in RATIONAL_FAMILIES:
            for j in range(-30, 31):
                x = j * beta
                assert g_value(fam, x) == direct_g_value(fam, x)
            poles = {1 / ci for ci in fam.c} if fam.kind == "dual_finite_c" else set()
            for j in sorted(set(range(-30, 31)) - poles):
                by_int, by_fraction = g_value(fam, j), g_value(fam, F(j))
                assert by_int == by_fraction == direct_g_value(fam, F(j))
                assert type(by_int) is type(by_fraction) is Fraction

    def test_pole_raises_on_every_call(self):
        for x in (1, 1, F(1), F(1)):
            with pytest.raises(SingularParameterError):
                g_value(signed(), x)

    @pytest.mark.parametrize("fam", CACHED_FAMILIES, ids=lambda f: f.label)
    def test_r_factor_matches_reference(self, fam):
        # j up to the basis --depth cap, d_max up to DMAX_CAP
        for d_max in (0, 1, 4, 64):
            g = [reference_g_coeff(fam, i) for i in range(d_max + 1)]
            for j in (-100, -41, -1, 0, 1, 2, 41, 100):
                want = [gi * F(j) ** i for i, gi in enumerate(g)]
                assert r_factor(fam, j, d_max) == BetaSeries(want)

    def test_r_factor_builds_no_fraction_once_g_is_cached(self, fractions_made):
        calls = [(fam, j, 6) for fam in (exponential(), quantum(F(1, 3))) for j in (-7, 0, 5)]
        want = [r_factor(*call) for call in calls]
        with fractions_made() as made:
            got = [r_factor(*call) for call in calls]
        assert made == [] and got == want

    def test_table_holds_one_coefficient_per_index(self):
        # one G(beta) series per (family, d_max), which every G(j beta) dilates
        weights._g_series.cache_clear()
        build_table(exponential(), 8, 4)
        assert weights._g_series.cache_info().currsize == 1
        assert weights._g_series(exponential(), 4) == r_factor(exponential(), 1, 4)


# Cross-mode checks: for polynomial G of degree M, G(j beta) has beta-degree M,
# r_lambda degree M |lambda| and rho_j degree M j, so a BRing(d) value with d at
# least that degree is the exact polynomial; at beta it must equal the QRing value.
POLY_FAMILIES = (belyi(), WeightFamily("finite_c", c=(1, F(1, 2))))
BETA, GAMMA = F(2, 7), F(3, 5)


def _at_beta(series: BetaSeries, beta) -> Fraction:
    """The polynomial stored in a beta-series, evaluated exactly at beta."""
    return sum((c * beta**d for d, c in enumerate(series.coeffs)), F(0))


class TestRFactor:
    def test_r0_is_one(self):
        for fam in (belyi(), exponential(), signed(), quantum(F(1, 3))):
            assert r_factor(fam, 0, 4) == BetaSeries.one(4)

    def test_belyi_r2(self):
        assert r_factor(belyi(), 2, 3) == BetaSeries([1, 2, 0, 0])

    def test_signed_geometric(self):
        assert r_factor(signed(), 1, 3) == BetaSeries([1, 1, 1, 1])

    def test_dual_is_series_inverse(self):
        fam = signed()
        for j in (-2, 1, 3):
            direct = r_factor(fam, j, 5)
            base = r_factor(WeightFamily("finite_c", c=(1,)), -j, 5)
            assert direct == series_inv(base)

    def test_g_at_series_matches_rational(self):
        for fam in POLY_FAMILIES:
            for j in range(-4, 5):
                got = _at_beta(g_at(fam, j, BRing(len(fam.c))), BETA)
                assert got == g_at(fam, j, QRing(BETA)) == g_value(fam, j * BETA)


class TestContentProduct:
    def test_empty(self):
        for fam in (belyi(), exponential()):
            assert content_product(fam, Partition(), BRing(3)) == BetaSeries.one(3)

    def test_single_cell_for_every_family(self):
        for fam in (belyi(), exponential(), signed(), quantum(F(1, 2))):
            assert content_product(fam, Partition((1,)), BRing(4)) == BetaSeries.one(4)

    def test_exponential_row_two(self):
        got = content_product(exponential(), Partition((2,)), BRing(5))
        want = series_exp(BetaSeries.variable(5))  # contents {0, 1}: e^beta
        assert got == want
        # closed form e^{(beta/2) sum lam_i (lam_i - 2i + 1)} on a bigger shape
        lam = Partition((3, 1))
        s = sum(F(p * (p - 2 * i + 1), 2) for i, p in enumerate(lam.parts, start=1))
        got = content_product(exponential(), lam, BRing(5))
        want = series_exp(BetaSeries.variable(5) * s)
        assert got == want

    def test_belyi_hook(self):
        got = content_product(belyi(), Partition((2, 1)), BRing(4))
        assert got == BetaSeries([1, 0, -1, 0, 0])

    def test_series_matches_rational(self):
        for fam in POLY_FAMILIES:
            for lam in partitions_up_to(5):
                got = _at_beta(content_product(fam, lam, BRing(len(fam.c) * lam.weight)), BETA)
                assert got == content_product(fam, lam, QRing(BETA))


class TestRho:
    def test_normalization(self):
        assert rho(belyi(), 0, F(2), QRing(F(1, 7))) == 1

    def test_belyi_forward(self):
        assert rho(belyi(), 2, 1, QRing(1)) == 6  # (1+1)(1+2)

    def test_rho_minus_one(self):
        for fam in (belyi(), signed()):
            assert rho(fam, -1, F(3), QRing(F(1, 9))) == F(1, 3)

    def test_singular_named(self):
        with pytest.raises(SingularParameterError):
            rho(belyi(), -2, 1, QRing(1))  # G(-beta) = 0 at beta = 1

    def test_ratio_recursion(self):
        beta, gamma = F(1, 11), F(2, 3)
        ring = QRing(beta)
        for fam in (belyi(), WeightFamily("finite_c", c=(1, F(1, 2))), signed()):
            for j in range(-5, 6):
                lhs = rho(fam, j, gamma, ring) / (gamma * rho(fam, j - 1, gamma, ring))
                assert lhs == g_value(fam, j * beta)

    def test_inverse(self):
        ring = QRing(F(1, 11))
        for fam in (belyi(), WeightFamily("finite_c", c=(1, F(1, 2))), signed()):
            for j in range(-6, 7):
                assert rho(fam, j, F(2, 3), ring) * rho_inv(fam, j, F(2, 3), ring) == 1

    def test_inverse_of_vanishing_rho_named(self):
        # rho_2 = gamma^2 G(beta) G(2 beta) and G(2 beta) = 0 at beta = -1/2
        message = "^rho_2 = 0: dual basis element undefined$"
        with pytest.raises(SingularParameterError, match=message):
            rho_inv(belyi(), 2, 1, QRing(F(-1, 2)))
        # j < 0 is a product: G(-2 beta) = 0 at beta = 1/2 gives zero, not an error
        assert rho_inv(belyi(), -3, 1, QRing(F(1, 2))) == 0

    def test_series_matches_rational(self):
        for fam in POLY_FAMILIES:
            for j in range(0, 5):
                got = _at_beta(rho(fam, j, GAMMA, BRing(len(fam.c) * j)), BETA)
                assert got == rho(fam, j, GAMMA, QRing(BETA))

    def test_no_rational_eval_for_exponential(self):
        with pytest.raises(ConfigurationError):
            rho(exponential(), 1, 1, QRing(F(1, 2)))


class TestPkPoly:
    def test_pinned_values(self):
        assert reference_pk_eval(1, 2) == 3  # x(x+1)/2
        assert reference_pk_eval(2, 1) == 1  # x(x+1)(2x+1)/6
        assert reference_pk_eval(0, 5) == 5  # p_0(x) = x

    def test_defining_relation(self):
        for k in range(0, 9):
            for x in range(-3, 4):
                assert reference_pk_eval(k, x) - reference_pk_eval(k, x - 1) == F(x) ** k
            assert reference_pk_eval(k, 0) == 0

    def test_generating_function(self):
        # sum_k p_k(x) a^k / k! = (e^{ax} - 1)/(1 - e^{-a}) as a bivariate truncation
        K = 8
        import math

        # expand both sides as polynomials in x with coefficients in Q[[a]]/a^{K+1}
        # lhs coefficient of a^k: p_k(x)/k! -> dict power-of-x -> Fraction
        lhs = [[F(0)] * (K + 2) for _ in range(K + 1)]
        for k in range(K + 1):
            for i, c in enumerate(reference_pk_poly(k)):
                lhs[k][i] += c / math.factorial(k)
        # rhs: (e^{ax} - 1) * (1 - e^{-a})^{-1}
        # numerator coefficient of a^k: x^k / k!; denominator series in a only
        denom = BetaSeries(
            [F(0)] + [-F((-1) ** k, math.factorial(k)) for k in range(1, K + 2)]
        )
        # denom = 1 - e^{-a} = sum_{k>=1} -(-1)^k a^k / k!; invert a * unit
        unit = BetaSeries([denom.coeffs[i + 1] for i in range(K + 1)])
        inv_unit = series_inv(unit)
        rhs = [[F(0)] * (K + 2) for _ in range(K + 1)]
        for m in range(1, K + 2):  # numerator a^m x^m / m!
            for r in range(K + 1):  # inv_unit a^r, total a^{m+r-1}
                k = m + r - 1
                if k <= K:
                    rhs[k][m] += F(1, math.factorial(m)) * inv_unit.coeffs[r]
        assert lhs == rhs


class TestLogA:
    def test_exponential(self):
        assert log_coeffs(exponential(), 3) == [F(1), F(0), F(0)]

    def test_belyi(self):
        assert log_coeffs(belyi(), 4) == [F(1), F(-1, 2), F(1, 3), F(-1, 4)]

    def test_quantum(self):
        assert log_coeffs(quantum(F(1, 2)), 2)[1] == F(-1, 6)

    @pytest.mark.parametrize(
        "fam",
        [belyi(), WeightFamily("finite_c", c=(1, F(1, 2))), signed(),
         WeightFamily("dual_finite_c", c=(1, F(1, 2))), exponential(), quantum(F(1, 2)),
         quantum(F(1, 3))],
        ids=lambda f: f.label,
    )
    def test_signed_A_are_log_G_coefficients(self, fam):
        # log G(x) = sum_k a_k x^k, with G's Taylor coefficients in closed form
        log_g = log_pieces([reference_g_coeff(fam, i) for i in range(9)], F(0))
        assert log_g == [F(0)] + log_coeffs(fam, 8)

    def test_t_consistency(self):
        # product-form rho_j / gamma^j equals exp(sum_k beta^k a_k p_k(j))
        d = 6
        for fam in (belyi(), WeightFamily("finite_c", c=(1, F(1, 2))), signed()):
            a = log_coeffs(fam, d)
            for j in range(-4, 5):
                series = rho(fam, j, 1, BRing(d))
                expo = BetaSeries.zero(d)
                for k in range(1, d + 1):
                    expo = expo + BetaSeries.variable(d).shift(k - 1) * (
                        a[k - 1] * reference_pk_eval(k, j)
                    )
                assert series == series_exp(expo)


PROFILE_FAMILIES = [
    belyi(), exponential(), signed(), quantum(F(1, 2)), quantum(F(2, 3)),
    WeightFamily("finite_c", c=(1, F(1, 2))), WeightFamily("dual_finite_c", c=(F(1, 3), 2)),
    WeightFamily("finite_c", c=(-1, 2, F(1, 5))),
]


def _profile_mismatches(family):
    return [lam for lam in partitions_up_to(6)
            if profile_weight(family, lam) != reference_profile_weight(family, lam)]


class TestProfileWeight:
    @pytest.mark.parametrize("fam", PROFILE_FAMILIES, ids=lambda f: f.label)
    def test_matches_closed_forms(self, fam):
        assert _profile_mismatches(fam) == []

    @pytest.mark.parametrize("fam", PROFILE_FAMILIES, ids=lambda f: f.label)
    def test_wrong_log_coefficient_is_caught(self, fam, monkeypatch):
        # every route reads log_coeffs, so only the closed forms can catch a wrong a_k
        def wrong(family, k_max):
            a = log_coeffs(family, k_max)
            return a[:2] + [a[2] + 1] + a[3:] if k_max >= 3 else a

        monkeypatch.setattr(weights, "log_coeffs", wrong)
        assert [lam.parts for lam in _profile_mismatches(fam)][:1] == [(3,)]

    def test_exponential_is_transposition_measure(self):
        assert profile_weight(exponential(), Partition((1, 1))) == F(1, 2)
        assert profile_weight(exponential(), Partition((2,))) == 0

    def test_quantum_closed_form_matches_power_sums(self):
        q = F(1, 2)
        fam = quantum(q)
        # m_(2,1) = p_2 p_1 - p_3 with p_k = q^k/(1-q^k)
        p = lambda k: q**k / (1 - q**k)
        assert profile_weight(fam, Partition((2, 1))) == p(2) * p(1) - p(3)

    def test_signed_uses_forgotten(self):
        lam = Partition((2, 1))
        # f at c=(1): (-1)^{l*} k!/prod m_i! = (-1)^1 * 2 = -2
        assert profile_weight(signed(), lam) == -2
