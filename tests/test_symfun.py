import random
from fractions import Fraction

from hurwitztau.exactalg import BetaSeries, GradedPoly
from hurwitztau.partitions import Partition, enumerate_partitions, partitions_up_to
from hurwitztau.symfun import (
    cauchy_kernel,
    char_table,
    character,
    complete_list,
    elementary_list,
    eval_basis,
    h_of_sigma,
    h_poly,
    power_sum_value,
    schur_at_sigma,
    schur_monomial_map,
    schur_to_power,
)

F = Fraction


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
            table = char_table(n)
            for mu in table.partitions:
                for nu in table.partitions:
                    s = sum(table.chi(lam, mu) * table.chi(lam, nu) for lam in table.partitions)
                    assert s == (mu.z_order() if mu == nu else 0)

    def test_row_orthogonality(self):
        for n in range(1, 9):
            table = char_table(n)
            for lam in table.partitions:
                for rho in table.partitions:
                    s = sum(
                        F(table.chi(lam, mu) * table.chi(rho, mu), mu.z_order())
                        for mu in table.partitions
                    )
                    assert s == (1 if lam == rho else 0)


class TestSchurToPower:
    def test_single_box(self):
        p = schur_to_power(Partition((1,)))
        assert p.coeff((1,), ()) == BetaSeries.one(0)

    def test_weight_two(self):
        s2 = schur_to_power(Partition((2,)))
        assert s2.coeff((2,), ()) == BetaSeries.constant(F(1, 2), 0)
        assert s2.coeff((0, 1), ()) == BetaSeries.one(0)
        s11 = schur_to_power(Partition((1, 1)))
        assert s11.coeff((2,), ()) == BetaSeries.constant(F(1, 2), 0)
        assert s11.coeff((0, 1), ()) == BetaSeries.constant(-1, 0)

    def test_cauchy_identity(self):
        w = 6
        total = GradedPoly.zero(w, 0)
        for lam in partitions_up_to(w):
            terms = {}
            tmap = schur_monomial_map(lam)
            for texp, a in tmap.items():
                for sexp, b in tmap.items():
                    key = (texp, sexp, lam.weight)
                    terms[key] = terms.get(key, BetaSeries.zero(0)) + BetaSeries.constant(
                        a * b, 0
                    )
            total = total + GradedPoly(terms, w, 0)
        assert total == cauchy_kernel(w, 0)


class TestEvalBasis:
    def test_monomial(self):
        assert eval_basis("m", Partition((2,)), [1, 1]) == 2
        assert eval_basis("m", Partition((2, 1)), [1, 2]) == 2 + 4  # 1^2*2 + 2^2*1

    def test_elementary_complete(self):
        assert eval_basis("e", Partition((2,)), [1, 1]) == 1
        assert eval_basis("h", Partition((2,)), [1, 1]) == 3

    def test_forgotten_single_part(self):
        assert eval_basis("f", Partition((2,)), [1]) == -1

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
                        expected += coeff * sign * eval_basis("p", mu, c)
                assert eval_basis("f", lam, c) == expected


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
    def test_h0_is_one(self):
        assert h_poly(0, 1, F(3, 7), [F(2)]) == 1

    def test_beta_zero_rejected(self):
        import pytest

        from hurwitztau.errors import DomainError

        with pytest.raises(DomainError):
            h_poly(1, 1, F(0), [F(1)])

    def test_h_cache_is_bounded(self):
        from hurwitztau.symfun import _h_list_cached

        assert _h_list_cached.cache_info().maxsize is not None

    def test_h1_sign(self):
        assert h_poly(1, 1, F(1), [F(1)]) == 1
        assert h_poly(1, -1, F(1), [F(1)]) == -1

    def test_h2_single_s(self):
        assert h_poly(2, 1, F(1), [F(1)]) == F(1, 2)

    def test_inverse_series(self):
        sigma = (F(2, 3), F(-1, 5), F(1, 7))
        for big_n in range(1, 9):
            total = sum(
                h_of_sigma(n, sigma, 1) * h_of_sigma(big_n - n, sigma, -1)
                for n in range(big_n + 1)
            )
            assert total == 0

    def test_matches_concrete_alphabet(self):
        c = [F(1), F(1, 2), F(2, 5)]
        sigma = tuple(power_sum_value(k, c) / k for k in range(1, 12))
        h = complete_list(c, 8)
        e = elementary_list(c, 8)
        for n in range(9):
            assert h_of_sigma(n, sigma, 1) == h[n]
            # negated alphabet: h_n(-X) = (-1)^n e_n(X)
            assert h_of_sigma(n, sigma, -1) == (-1) ** n * e[n]


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
