import itertools
import random
from fractions import Fraction

import pytest

from hurwitztau.exactalg import BetaSeries, BRing, GradedPoly, QRing, monomial_from_partition
from hurwitztau.partitions import Partition, enumerate_partitions, partitions_up_to
from hurwitztau.symfun import (
    cauchy_kernel,
    character,
    h_list,
    monomial_value,
    power_sum_value,
    schur_at_sigma,
    schur_monomial_map,
    schur_sector_sum,
    schur_to_power,
    support,
)
from hurwitztau.weights import belyi, content_product, exponential, quantum
from test_weights import (
    reference_complete_list,
    reference_elementary_list,
    reference_forgotten,
    reference_monomial,
)

F = Fraction


def reference_schur_to_power(lam, w_max=None):
    """s_lambda in the t-variables by its own character loop over classes mu."""
    if w_max is None:
        w_max = max(lam.weight, 1)
    terms = {}
    for mu in enumerate_partitions(lam.weight):
        chi = character(lam, mu)
        if chi == 0:
            continue
        coeff = F(chi, mu.z_order())
        for p in mu.parts:
            coeff *= p
        terms[(monomial_from_partition(mu.parts), (), 0)] = BetaSeries.constant(coeff, 0)
    return GradedPoly(terms, w_max, 0)


class TestCharacters:
    def test_trivial_and_sign(self):
        for n in range(1, 7):
            lam_triv = Partition([n])
            lam_sign = Partition([1] * n)
            for mu in enumerate_partitions(n):
                assert character(lam_triv, mu) == 1
                assert character(lam_sign, mu) == (-1) ** mu.colength()

    def test_standard_rep_of_s3(self):
        lam = Partition((2, 1))
        assert character(lam, Partition((1, 1, 1))) == 2
        assert character(lam, Partition((2, 1))) == 0
        assert character(lam, Partition((3,))) == -1

    def test_column_orthogonality(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for mu in parts:
                for nu in parts:
                    s = sum(character(lam, mu) * character(lam, nu) for lam in parts)
                    assert s == (mu.z_order() if mu == nu else 0)

    def test_row_orthogonality(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for lam in parts:
                for rho in parts:
                    s = sum(
                        F(character(lam, mu) * character(rho, mu), mu.z_order())
                        for mu in parts
                    )
                    assert s == (1 if lam == rho else 0)


class TestSchurToPower:
    def test_single_box(self):
        p = schur_to_power(Partition((1,)))
        assert p.coeff((1,), (), 0) == BetaSeries.one(0)

    def test_weight_two(self):
        s2 = schur_to_power(Partition((2,)))
        assert s2.coeff((2,), (), 0) == BetaSeries.constant(F(1, 2), 0)
        assert s2.coeff((0, 1), (), 0) == BetaSeries.one(0)
        s11 = schur_to_power(Partition((1, 1)))
        assert s11.coeff((2,), (), 0) == BetaSeries.constant(F(1, 2), 0)
        assert s11.coeff((0, 1), (), 0) == BetaSeries.constant(-1, 0)

    def test_cauchy_identity(self):
        w = 6
        assert schur_sector_sum(w, 0, lambda lam: BetaSeries.one(0)) == cauchy_kernel(w, 0)

    def test_matches_character_loop_reference(self):
        for lam in partitions_up_to(6):
            assert schur_to_power(lam) == reference_schur_to_power(lam)
            assert schur_to_power(lam, 7) == reference_schur_to_power(lam, 7)


def reference_sector_sum(w_max, d_max, weight):
    """The sector sum by its double loop: r_lambda (a_t a_s) for every ordered
    pair (t, s) of each s_lambda's monomials."""
    terms = {}
    for lam in partitions_up_to(w_max):
        r = weight(lam)
        tmap = schur_monomial_map(lam)
        for t_exp, a in tmap.items():
            for s_exp, b in tmap.items():
                key = (t_exp, s_exp, lam.weight)
                terms[key] = terms[key] + r * (a * b) if key in terms else r * (a * b)
    return GradedPoly(terms, w_max, d_max)


@pytest.mark.parametrize("d_max,weight", [
    (4, lambda lam: content_product(exponential(), lam, BRing(4))),
    (0, lambda lam: BetaSeries.constant(content_product(belyi(), lam, QRing(F(1, 7))), 0)),
    (3, lambda lam: content_product(quantum(F(1, 2)), lam, BRing(3))),
], ids=["exp-series", "belyi-at-1/7", "quantum-1/2-series"])
def test_sector_sum_matches_double_loop(d_max, weight):
    got, want = schur_sector_sum(6, d_max, weight), reference_sector_sum(6, d_max, weight)
    assert got == want
    assert list(got.terms) == list(want.terms)  # in the same order


def _at(c, sign=1):
    """k -> the k-th power sum of the finite alphabet c; with sign -1, of the
    alphabet omega sends it to, (-1)^{k+1} p_k(c), at which m_lambda is f_lambda(c)."""
    return lambda k: sign ** (k + 1) * power_sum_value(k, c)


class TestEvalBasis:
    """m_lambda and f_lambda at finite alphabets: the test-local closed forms,
    and monomial_value at the alphabet's power sums."""

    def test_monomial(self):
        for lam, c, want in (((2,), [1, 1], 2), ((2, 1), [1, 2], 2 + 4)):  # 1^2*2 + 2^2*1
            assert reference_monomial(Partition(lam), c) == want
            assert monomial_value(Partition(lam), _at(c)) == want

    def test_monomial_value_of_a_union_is_the_coproduct(self):
        # p_k adds over a union of alphabets, so m_lambda(c + d) is the sum over
        # alpha + beta = lambda (as multisets) of m_alpha(c) m_beta(d); here d is
        # the infinite geometric alphabet 1/3, 1/9, ... of the quantum family
        c, d = [F(1), F(-1, 2)], lambda k: F(1, 3) ** k / (1 - F(1, 3) ** k)
        union = lambda k: power_sum_value(k, c) + d(k)
        for lam in partitions_up_to(6):
            mult = lam.multiplicities()
            want = F(0)
            for taken in itertools.product(*(range(m + 1) for m in mult.values())):
                alpha = [p for p, t in zip(mult, taken) for _ in range(t)]
                beta = [p for p, t in zip(mult, taken) for _ in range(mult[p] - t)]
                want += (monomial_value(Partition(sorted(alpha, reverse=True)), _at(c))
                         * monomial_value(Partition(sorted(beta, reverse=True)), d))
            assert monomial_value(lam, union) == want, lam

    def test_forgotten_single_part(self):
        assert reference_forgotten(Partition((2,)), [1]) == -1
        assert monomial_value(Partition((2,)), _at([1], -1)) == -1

    def test_forgotten_matches_omega_involution(self):
        # f_lambda = omega(m_lambda); omega(p_mu) = (-1)^{|mu|-ell(mu)} p_mu.
        c = [F(1), F(1, 2), F(1, 3)]
        for d in range(1, 6):
            parts = enumerate_partitions(d)
            # expand p_mu over d variables into the monomial basis
            mat = {}
            for mu in parts:
                expansion = {(): F(1)}
                for part in mu.parts:
                    new = {}
                    for exps, coeff in expansion.items():
                        for var in range(d):
                            e = list(exps) + [0] * (d - len(exps))
                            e[var] += part
                            key = tuple(e)
                            new[key] = new.get(key, F(0)) + coeff
                    expansion = new
                row = {}
                for exps, coeff in expansion.items():
                    lam = Partition(sorted((e for e in exps if e), reverse=True))
                    key = tuple(sorted(exps, reverse=True))
                    if list(key) == list(lam.parts) + [0] * (d - lam.length):
                        row[lam] = coeff  # leading monomial coefficient
                mat[mu] = row
            # invert: m_lam = sum_mu inv[lam][mu] p_mu  (solve small linear system)
            idx = {mu: i for i, mu in enumerate(parts)}
            n = len(parts)
            a = [[mat[mu].get(lam, F(0)) for lam in parts] for mu in parts]
            inv = _invert(a)
            for lam in parts:
                expected = F(0)
                for mu in parts:
                    coeff = inv[idx[lam]][idx[mu]]
                    if coeff:
                        sign = (-1) ** mu.colength()
                        p_mu = F(1)
                        for part in mu.parts:
                            p_mu *= power_sum_value(part, c)
                        expected += coeff * sign * p_mu
                assert reference_forgotten(lam, c) == expected
                assert monomial_value(lam, _at(c, -1)) == expected


def _invert(a):
    n = len(a)
    aug = [row[:] + [F(1) if i == j else F(0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class TestHPoly:
    # h_n of the rescaled alphabet s / beta is h_list(s / beta, sign, n)[n]
    def test_h0_is_one(self):
        assert h_list([F(2) / F(3, 7)], 1, 0)[0] == 1

    def test_h_cache_is_bounded(self):
        from hurwitztau.symfun import _h_list_cached

        assert _h_list_cached.cache_info().maxsize is not None

    def test_h1_sign(self):
        assert h_list([F(1)], 1, 1)[1] == 1
        assert h_list([F(1)], -1, 1)[1] == -1

    def test_h2_single_s(self):
        assert h_list([F(1)], 1, 2)[2] == F(1, 2)

    def test_inverse_series(self):
        sigma = (F(2, 3), F(-1, 5), F(1, 7))
        h, h_dual = h_list(sigma, 1, 8), h_list(sigma, -1, 8)
        for big_n in range(1, 9):
            assert sum(h[n] * h_dual[big_n - n] for n in range(big_n + 1)) == 0

    def test_support_is_the_last_nonzero_index(self):
        # sigma = s/beta for nonzero beta: s and sigma share the support
        assert support((F(1, 3), F(0), F(-2), F(0))) == 3
        assert support((F(0), F(0))) == support(()) == 0
        s = (F(1, 21), F(0), F(1, 50))
        assert support(s) == support(tuple(x / F(1, 21) for x in s)) == 3

    def test_matches_concrete_alphabet(self):
        c = [F(1), F(1, 2), F(2, 5)]
        sigma = tuple(power_sum_value(k, c) / k for k in range(1, 12))
        h = reference_complete_list(c, 8)
        e = reference_elementary_list(c, 8)
        assert list(h_list(sigma, 1, 8)) == h
        # negated alphabet: h_n(-X) = (-1)^n e_n(X)
        assert list(h_list(sigma, -1, 8)) == [(-1) ** n * e[n] for n in range(9)]


class TestSchurAtSigma:
    def test_matches_character_formula(self):
        rng = random.Random(3)
        sigma = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6))
        for lam in partitions_up_to(6):
            if lam.weight == 0:
                continue
            direct = F(0)
            for mu in enumerate_partitions(lam.weight):
                chi = character(lam, mu)
                if not chi:
                    continue
                prod = F(chi, mu.z_order())
                for p in mu.parts:
                    idx = p - 1
                    prod *= p * (sigma[idx] if idx < len(sigma) else F(0))
                direct += prod
            assert schur_at_sigma(lam, sigma) == direct

    def test_tall_hooks_beyond_char_cap(self):
        sigma = (F(1), F(1, 2))
        val = schur_at_sigma(Partition([3] + [1] * 9), sigma)  # |lambda| = 12
        assert isinstance(val, F)
