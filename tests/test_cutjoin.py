from fractions import Fraction

import pytest

from hurwitztau import cutjoin
from hurwitztau.cutjoin import (
    build_Qk,
    build_V1,
    build_Vk_and_single_rep,
    diagonal_Qk,
    pde_check,
    reconstruct_tau,
    resolve_exponential_index,
    schur_eigen_check,
)
from hurwitztau.errors import UnsupportedDegreeError
from hurwitztau.exactalg import BetaSeries, GradedPoly
from hurwitztau.partitions import Partition
from hurwitztau.symfun import schur_to_power
from hurwitztau.taufn import TauSeries, build_tau
from hurwitztau.weights import WeightFamily, belyi, exponential, quantum

F = Fraction
C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")


def mono(exps, w_max):
    return GradedPoly({(tuple(exps), (), 0): BetaSeries.one(0)}, w_max, 0)


class TestExplicitOperators:
    def test_q0_is_weight_operator(self):
        q0 = build_Qk(0, 4)
        assert q0.apply(mono((0, 0, 1), 4)) == mono((0, 0, 1), 4).scale(3)

    def test_q1_on_weight_two(self):
        q1 = build_Qk(1, 4)
        s2 = schur_to_power(Partition((2,)), 0, 4)
        s11 = schur_to_power(Partition((1, 1)), 0, 4)
        assert q1.apply(s2) == s2
        assert q1.apply(s11) == s11.scale(-1)
        # raw monomial actions: Q_1(t_1^2) = 2 t_2 + ..., Q_1(t_2) = t_1^2/2... wait
        assert q1.apply(mono((2,), 4)) == mono((0, 1), 4).scale(2)
        assert q1.apply(mono((0, 1), 4)) == mono((2,), 4).scale(F(1, 2))

    def test_q2_on_single_box(self):
        q2 = build_Qk(2, 3)
        s1 = schur_to_power(Partition((1,)), 0, 3)
        assert not q2.apply(s1).terms  # content 0

    def test_unsupported_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            build_Qk(3, 4)


class TestDiagonal:
    def test_examples(self):
        assert diagonal_Qk(0, Partition((3, 2))) == 5
        assert diagonal_Qk(1, Partition((2,))) == 1
        assert diagonal_Qk(2, Partition((2, 1))) == 2

    def test_eigen_suite(self):
        report = schur_eigen_check(6, 8)
        assert report["ok"], report["failures"][:3]


class TestReconstruction:
    def test_trivial_family(self):
        triv = WeightFamily("finite_c", c=())
        rep = reconstruct_tau(triv, 3, 2)
        assert rep["ok"]

    @pytest.mark.parametrize(
        "fam", [belyi(), C2, exponential(), quantum(F(1, 2))], ids=lambda f: f.label
    )
    def test_reconstruct_matches_build(self, fam):
        rep = reconstruct_tau(fam, 4, 3)
        assert rep["diagonal_ok"]
        assert rep["operator_ok_through_beta2"]

    def test_reconstruct_5_4(self):
        for fam in (belyi(), C2):
            assert reconstruct_tau(fam, 5, 4)["ok"]

    def test_belyi_weight_two_content_products(self):
        # per-sector exponentials reproduce (1 + beta) and (1 - beta)
        from hurwitztau.cutjoin import diagonal_exponent

        assert diagonal_exponent(belyi(), Partition((2,)), 4) == BetaSeries([1, 1, 0, 0, 0])
        assert diagonal_exponent(belyi(), Partition((1, 1)), 4) == BetaSeries([1, -1, 0, 0, 0])


class TestPDE:
    @pytest.mark.parametrize("fam", [belyi(), C2, exponential()], ids=lambda f: f.label)
    def test_all_three_identities(self, fam):
        assert pde_check(fam, 4, 3)["ok"]


def test_corrupted_tau_fails_pde_and_reconstruction(monkeypatch):
    # add beta to the t_1^2 s_1^2 coefficient: Q_1 and Q_2 both act on t_1^2,
    # and a beta term changes beta d/dbeta
    def corrupted_build_tau(family, w_max, d_max):
        tau = build_tau(family, w_max, d_max)
        terms = dict(tau.body.terms)
        key = ((2,), (2,), 2)
        terms[key] = terms[key] + BetaSeries.variable(d_max)
        return TauSeries(family, w_max, d_max, GradedPoly(terms, w_max, d_max))

    monkeypatch.setattr(cutjoin, "build_tau", corrupted_build_tau)
    report = pde_check(belyi(), 4, 3)
    assert not report["ok"]
    assert report["failures"] == ["A_1-derivative", "A_2-derivative", "beta-Euler identity"]
    assert reconstruct_tau(belyi(), 4, 3)["diagonal_ok"] is False


class TestSingleHurwitzRep:
    def test_beta_zero_sector(self):
        # at beta = 0 the representation is exp(gamma t_1): sector n = t_1^n/n!
        rep = build_Vk_and_single_rep(belyi(), 3)
        assert rep["ok"]

    def test_m2_family(self):
        rep = build_Vk_and_single_rep(C2, 3)
        assert rep["ok"] and rep["M"] == 2

    def test_corrupted_tau_names_failing_sector(self, monkeypatch):
        # add beta^2 to the t_1 t_2 s_1^3 coefficient: only sector 3 changes
        def corrupted_build_tau(family, w_max, d_max):
            tau = build_tau(family, w_max, d_max)
            terms = dict(tau.body.terms)
            key = ((1, 1), (3,), 3)
            terms[key] = terms[key] + BetaSeries.variable(d_max).shift(1)
            return TauSeries(family, w_max, d_max, GradedPoly(terms, w_max, d_max))

        monkeypatch.setattr(cutjoin, "build_tau", corrupted_build_tau)
        rep = build_Vk_and_single_rep(belyi(), 3)
        assert not rep["ok"] and rep["failing_sectors"] == [3]

    def test_v1_action(self):
        v1 = build_V1(4)
        assert v1.apply(mono((1,), 4)) == GradedPoly(
            {((0, 1), (), 1): BetaSeries.constant(2, 0)}, 4, 0
        )

    def test_m3_unsupported(self):
        fam = WeightFamily("finite_c", c=(1, 1, 1))
        with pytest.raises(UnsupportedDegreeError):
            build_Vk_and_single_rep(fam, 2)


def test_exponential_index_resolution():
    rep = resolve_exponential_index(3, 3)
    assert rep["matching_index"] == [1]
    assert rep["results"][2] is False
