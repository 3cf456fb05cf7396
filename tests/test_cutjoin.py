from collections import defaultdict
from fractions import Fraction

import pytest

from hurwitztau import cutjoin
from hurwitztau.cutjoin import (
    DiffOp,
    build_Qk,
    build_Vk,
    build_Vk_and_single_rep,
    diagonal_Qk,
    pde_check,
    reconstruct_tau,
    resolve_exponential_index,
    schur_eigen_check,
)
from hurwitztau.errors import DomainError
from hurwitztau.exactalg import (
    BetaSeries,
    GradedPoly,
    exp_weight,
    exps_mul,
    monomial_from_partition,
)
from hurwitztau.partitions import Partition, partitions_up_to
from hurwitztau.symfun import schur_to_power
from hurwitztau.taufn import TauSeries, build_tau
from hurwitztau.weights import WeightFamily, belyi, exponential, quantum, signed

F = Fraction
C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")


def mono(exps, w_max):
    return GradedPoly({(tuple(exps), (), 0): BetaSeries.one(0)}, w_max, 0)


def _mono(*parts):
    return monomial_from_partition(parts)


def reference_build_Qk(k, w_max):
    """The hand-derived Q_0, Q_1, Q_2 terms, one per ordered choice of parts,
    so a (multiplier, derivative) pair may repeat and a coefficient may be 0."""
    terms = []
    if k == 0:
        for a in range(1, w_max + 1):
            terms.append((_mono(a), _mono(a), F(a)))
    elif k == 1:
        for a in range(1, w_max + 1):
            for b in range(1, w_max - a + 1):
                terms.append((_mono(a, b), _mono(a + b), F(a * b, 2)))
                terms.append((_mono(a + b), _mono(a, b), F(a + b, 2)))
    elif k == 2:
        for a in range(1, w_max + 1):
            for b in range(1, w_max - a + 1):
                for c in range(1, w_max - a - b + 1):
                    n = a + b + c
                    terms.append((_mono(a, b, c), _mono(n), F(a * b * c, 3)))
                    terms.append((_mono(n), _mono(a, b, c), F(n, 3)))
                for c in range(1, a + b):
                    terms.append((_mono(c, a + b - c), _mono(a, b), F(c * (a + b - c), 2)))
            terms.append((_mono(a), _mono(a), F(a * (a * a - 1), 6)))
    return terms


def reference_build_V1(w_max):
    """The hand-derived V_1 = sum_k k t_k d/dt_{k-1} (no t_0: the charge is fixed)."""
    return [(_mono(k), _mono(k - 1), F(k)) for k in range(2, w_max + 1)]


def reference_build_V2(w_max):
    """The hand-derived V_2 = sum_{k,l} (k t_k l t_l d_{k+l-1} + (k+l+1) t_{k+l+1} d_k d_l),
    including terms of multiplier weight w_max + 1, which DiffOp.apply drops."""
    terms = []
    for k in range(1, w_max + 1):
        for l in range(1, w_max - k + 2):
            if k + l - 1 >= 1 and k + l <= w_max + 1:
                terms.append((_mono(k, l), _mono(k + l - 1), F(k * l)))
            if k + l + 1 <= w_max:
                terms.append((_mono(k + l + 1), exps_mul(_mono(k), _mono(l)), F(k + l + 1)))
    return terms


def summed_terms(terms):
    out = defaultdict(F)
    for mult, deriv, c in terms:
        out[mult, deriv] += c
    return {key: c for key, c in out.items() if c}


class TestExplicitOperators:
    def test_q0_is_weight_operator(self):
        q0 = build_Qk(0, 4)
        assert q0.apply(mono((0, 0, 1), 4)) == mono((0, 0, 1), 4).scale(3)

    def test_q1_on_weight_two(self):
        q1 = build_Qk(1, 4)
        s2 = schur_to_power(Partition((2,)), 4)
        s11 = schur_to_power(Partition((1, 1)), 4)
        assert q1.apply(s2) == s2
        assert q1.apply(s11) == s11.scale(-1)
        # raw monomial actions: Q_1(t_1^2) = 2 t_2 + ..., Q_1(t_2) = t_1^2/2... wait
        assert q1.apply(mono((2,), 4)) == mono((0, 1), 4).scale(2)
        assert q1.apply(mono((0, 1), 4)) == mono((2,), 4).scale(F(1, 2))

    def test_q2_on_single_box(self):
        q2 = build_Qk(2, 3)
        s1 = schur_to_power(Partition((1,)), 3)
        assert not q2.apply(s1).terms  # content 0


class TestGenerator:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_hand_derived_terms(self, k):
        for w_max in range(1, 10):
            generated = build_Qk(k, w_max).terms
            assert summed_terms(reference_build_Qk(k, w_max)) == summed_terms(generated)
            # one term per (nu, mu), none with coefficient 0
            assert len(generated) == len(summed_terms(generated))

    @pytest.mark.parametrize("k,reference", [(1, reference_build_V1), (2, reference_build_V2)])
    def test_vk_matches_hand_derived_terms(self, k, reference):
        for w_max in range(1, 10):
            want = {key: c for key, c in summed_terms(reference(w_max)).items()
                    if exp_weight(key[0]) <= w_max}
            generated = build_Vk(k, w_max)
            assert generated.grading_shift == 1
            assert summed_terms(generated.terms) == want, w_max
            assert len(generated.terms) == len(want)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_schur_eigenvalues_beyond_q2(self, k):
        op = build_Qk(k, 6)
        for lam in partitions_up_to(6):
            s_lam = schur_to_power(lam, 6)
            assert op.apply(s_lam) == s_lam.scale(diagonal_Qk(k, lam)), lam.parts

    def test_operators_commute(self):
        ops = [build_Qk(k, 6) for k in range(5)]
        for lam in partitions_up_to(6):
            m = mono(monomial_from_partition(lam.parts), 6)
            for j in range(5):
                for k in range(j + 1, 5):
                    left = ops[j].apply(ops[k].apply(m))
                    assert left == ops[k].apply(ops[j].apply(m)), (j, k, lam.parts)


class TestDiagonal:
    def test_examples(self):
        assert diagonal_Qk(0, Partition((3, 2))) == 5
        assert diagonal_Qk(1, Partition((2,))) == 1
        assert diagonal_Qk(2, Partition((2, 1))) == 2

    def test_eigen_suite(self):
        report = schur_eigen_check(6, 8)
        assert report["ok"], report["failures"][:3]

    def test_wrong_eigenvalue_is_named(self, monkeypatch):
        real = cutjoin.diagonal_Qk
        monkeypatch.setattr(cutjoin, "diagonal_Qk",
                            lambda k, lam: real(k, lam) + (k == 2 and lam == (2, 1)))
        report = schur_eigen_check(3, 3)
        assert not report["ok"]
        assert report["failures"] == [{"k": 2, "lambda": (2, 1)}]

    def test_non_commuting_q2_is_named(self, monkeypatch):
        # Q_2 + t_1 d/dt_2 at the commutator weight: t_1 d/dt_2 kills t_1^2 but
        # not Q_1 t_1^2, a multiple of t_2
        real = cutjoin.build_Qk

        def build_Qk_perturbed(k, w_max):
            op = real(k, w_max)
            if (k, w_max) != (2, 4):
                return op
            return DiffOp(op.terms + (((1,), (0, 1), F(1)),), 0)

        monkeypatch.setattr(cutjoin, "build_Qk", build_Qk_perturbed)
        report = schur_eigen_check(3, 4)
        assert not report["ok"]
        assert all("commutator" in f for f in report["failures"])
        assert report["failures"][0] == {"commutator": (1, 1)}


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
    @pytest.mark.parametrize(
        "fam", [belyi(), C2, exponential(), signed(), quantum(F(1, 2))], ids=lambda f: f.label
    )
    def test_all_three_identities(self, fam):
        assert pde_check(fam, 4, 3)["ok"]

    def test_every_k_through_dmax(self):
        # d/dA_k tau = sign_k beta^k Q_k tau for k = 1..6
        assert pde_check(C2, 6, 6)["ok"]


def test_corrupted_tau_fails_pde_and_reconstruction(monkeypatch):
    # add beta to the t_1^2 s_1^2 coefficient: Q_1, Q_2 and Q_3 act on t_1^2,
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
    assert report["failures"] == [
        "A_1-derivative", "A_2-derivative", "A_3-derivative", "beta-Euler identity"
    ]
    assert reconstruct_tau(belyi(), 4, 3)["diagonal_ok"] is False


def test_wrong_q0_fails_the_gamma_derivative(monkeypatch):
    # Q_0 + t_1 d/dt_1 counts each t_1 twice, so gamma d/dgamma tau != Q_0 tau
    real = cutjoin.build_Qk

    def build_Qk_perturbed(k, w_max):
        op = real(k, w_max)
        return DiffOp(op.terms + (((1,), (1,), F(1)),), 0) if k == 0 else op

    monkeypatch.setattr(cutjoin, "build_Qk", build_Qk_perturbed)
    assert pde_check(belyi(), 4, 3)["failures"] == ["gamma-derivative (Q_0)"]


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

    @pytest.mark.parametrize(
        "c", [(1, F(1, 2), F(-2, 3)), (1, 1, 1), (1, F(1, 2), F(1, 3), F(-1, 4))],
        ids=["m3", "m3-ones", "m4"],
    )
    def test_every_m(self, c):
        rep = build_Vk_and_single_rep(WeightFamily("finite_c", c=c), 3)
        assert rep["ok"] and rep["M"] == len(c)

    def test_dropping_top_vk_fails(self, monkeypatch):
        # without V_3 the beta^3 g_3 V_3 terms are missing from sectors 2 and 3
        fam = WeightFamily("finite_c", c=(1, F(1, 2), F(-2, 3)))

        def without_v3(k, w_max):
            return DiffOp((), 1) if k == 3 else build_Vk(k, w_max)

        monkeypatch.setattr(cutjoin, "build_Vk", without_v3)
        rep = build_Vk_and_single_rep(fam, 3)
        assert not rep["ok"] and rep["failing_sectors"] == [2, 3]

    def test_v1_action(self):
        v1 = build_Vk(1, 4)
        assert v1.apply(mono((1,), 4)) == GradedPoly(
            {((0, 1), (), 1): BetaSeries.constant(2, 0)}, 4, 0
        )


def test_exponential_index_resolution():
    rep = resolve_exponential_index(3, 3)
    assert rep["matching_index"] == [1]
    assert rep["results"][2] is False


# At weight 0, Q_k and V_k have no term: each check compares 1 with itself.
WEIGHT_ZERO_CALLS = {
    "build_Qk": lambda: build_Qk(2, 0).terms == (),
    "build_Vk": lambda: build_Vk(2, 0).terms == (),
    "schur_eigen_check-weight_max": lambda: schur_eigen_check(0, 8)["ok"],
    "schur_eigen_check-commutator_weight": lambda: schur_eigen_check(6, 0)["ok"],
    "reconstruct_tau": lambda: reconstruct_tau(belyi(), 0, 2)["ok"],
    "pde_check": lambda: pde_check(belyi(), 0, 2)["ok"],
    "build_Vk_and_single_rep": lambda: build_Vk_and_single_rep(belyi(), 0)["ok"],
}


@pytest.mark.parametrize("name", WEIGHT_ZERO_CALLS)
def test_weight_zero_has_no_operator_term(name):
    assert WEIGHT_ZERO_CALLS[name]()


def test_negative_weight_is_refused():
    with pytest.raises(DomainError, match="cannot partition a negative integer"):
        build_Qk(1, -1)
