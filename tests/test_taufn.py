import itertools
from fractions import Fraction

import pytest

from hurwitztau.errors import OutOfWindowError
from hurwitztau.exactalg import BetaSeries, GradedPoly, QRing, exps_mul
from hurwitztau.exactalg import monomial_from_partition
from hurwitztau.hurwitz import H_via_characters, build_table, connected_table_entries
from hurwitztau.partitions import Partition, enumerate_partitions
from hurwitztau.symfun import cauchy_kernel
from hurwitztau.taufn import (
    TauSeries,
    baker,
    build_F_n,
    build_tau,
    check_W_equals_dF,
    connected_pair_series,
    hirota_residual,
    log_tau,
    multicurrent_W,
    tau_pair_series,
)
from hurwitztau.weights import WeightFamily, belyi, exponential

F = Fraction
TRIVIAL = WeightFamily("finite_c", c=(), label="G=1")


# (n, x_degree, w_max, d_max) and options of the verify sweep's W = dF checks
F_N_WINDOWS = [
    ((1, 3, 5, 3), {}),
    ((2, 3, 6, 3), {}),
    ((2, 2, 5, 3), {"connected": True}),
    ((2, 2, 5, 3), {"connected": True, "genus": 0}),
]
F_N_WINDOW_IDS = ["n1", "n2", "n2-connected", "n2-genus0"]


def reference_F_n(family, n, w_max, d_max, x_degree, connected=False, genus=None):
    """F_n assembled from a full build_table per N (connected: log tau at each N)."""
    out = {}
    for N in range(n, w_max + 1):
        mus = [m for m in enumerate_partitions(N) if m.length == n and m.parts[0] <= x_degree + 1]
        if not mus:
            continue
        table = build_table(family, N, d_max, connected=connected)
        entries = table.connected if connected else table.entries
        for mu in mus:
            for nu in enumerate_partitions(N):
                norm = Fraction(mu.aut_order())
                for p in nu.parts:
                    norm *= p
                series = [Fraction(0)] * (d_max + 1)
                for d in range(d_max + 1):
                    if genus is None or d == n + nu.length + 2 * genus - 2:
                        series[d] = entries.get((mu, nu, d), Fraction(0)) * norm
                coeff = BetaSeries(series)
                if not coeff:
                    continue
                s_exp = monomial_from_partition(nu.parts)
                for arrangement in set(itertools.permutations(mu.parts)):
                    key = (arrangement, s_exp, N)
                    out[key] = out[key] + coeff if key in out else coeff
    return out


class TestBuildTau:
    def test_trivial_family_is_cauchy(self):
        tau = build_tau(TRIVIAL, 5, 0)
        assert tau.body == cauchy_kernel(5, 0)

    def test_constant_term(self):
        tau = build_tau(exponential(), 3, 2)
        assert tau.body.constant_term() == BetaSeries.one(2)

    def test_grade_equals_both_weights(self):
        tau = build_tau(belyi(), 4, 2)
        from hurwitztau.exactalg import exp_weight

        for (t, s, g) in tau.body.terms:
            assert exp_weight(t) == exp_weight(s) == g

    def test_coefficient_matches_hurwitz_series(self):
        tau = build_tau(exponential(), 4, 3)
        mu, nu = Partition((2,)), Partition((1, 1))
        assert tau_pair_series(tau, mu, nu) == H_via_characters(exponential(), mu, nu, 3)
        # gamma^2 t_2 s_1^2 coefficient equals the pair series times the power-sum norms
        coeff = tau.body.coeff((0, 1), (2,), 2)
        assert coeff == H_via_characters(exponential(), mu, nu, 3) * 2


class TestLogTau:
    def test_trivial_log_is_linear(self):
        tau = build_tau(TRIVIAL, 4, 0)
        log_body = log_tau(tau)
        expected = {}
        for k in range(1, 5):
            key = (tuple([0] * (k - 1) + [1]), tuple([0] * (k - 1) + [1]), k)
            expected[key] = BetaSeries.constant(k, 0)
        assert log_body == GradedPoly(expected, 4, 0)

    def test_single_box_connected(self):
        tau = build_tau(exponential(), 3, 3)
        series = connected_pair_series(log_tau(tau), Partition((1,)), Partition((1,)))
        assert series == BetaSeries([1, 0, 0, 0])

    def test_weight_two_sector_matches_connected_table(self):
        fam = exponential()
        tau = build_tau(fam, 2, 3)
        log_body = log_tau(tau)
        entries = connected_table_entries(fam, 2, 3)
        for mu in (Partition((2,)), Partition((1, 1))):
            for nu in (Partition((2,)), Partition((1, 1))):
                series = connected_pair_series(log_body, mu, nu)
                for d in range(4):
                    assert series[d] == entries.get((mu, nu, d), F(0))


class TestBaker:
    def test_trivial_baker_is_one(self):
        tau = build_tau(TRIVIAL, 4, 0)
        minus, plus = baker(tau, -4, F(1, 3), F(1), s=())
        ring = QRing()
        assert minus.get(0, ring) == 1 and plus.get(0, ring) == 1
        assert all(minus.get(j, ring) == 0 for j in range(-4, 0))
        assert all(plus.get(j, ring) == 0 for j in range(-4, 0))

    def test_leading_normalization(self):
        tau = build_tau(belyi(), 5, 3)
        minus, plus = baker(tau, -5, F(1, 21), F(2, 3), s=(F(2, 21),))
        ring = QRing()
        assert minus.get(0, ring) == 1 and plus.get(0, ring) == 1

    def test_matches_adapted_basis(self):
        from hurwitztau.adaptedbasis import build_basis

        fam, beta, gamma, s = belyi(), F(1, 21), F(2, 3), (F(2, 21),)
        tau = build_tau(fam, 6, 3)
        minus, plus = baker(tau, -6, beta, gamma, s)
        b = build_basis(fam, beta, gamma, s=s, k_range=(1, 1), depth=-8)
        ring = QRing()
        for j in range(-6, 1):
            assert minus.get(j, ring) == b.ws[1].get(j, ring)
            assert plus.get(j, ring) == b.w[1].get(j, ring) * gamma

    def test_window_depth_guard(self):
        tau = build_tau(belyi(), 3, 2)
        with pytest.raises(OutOfWindowError):
            baker(tau, -5, F(1, 7), F(1))


class TestHirota:
    @pytest.mark.parametrize("fam", [TRIVIAL, exponential(), belyi()], ids=lambda f: f.label)
    def test_residual_vanishes(self, fam):
        tau = build_tau(fam, 6, 4)
        residual = hirota_residual(tau, 3)
        assert residual, "probe produced no monomials"
        assert all(not v for v in residual.values())

    def test_corrupted_coefficient_detected(self):
        tau = build_tau(exponential(), 6, 4)
        terms = dict(tau.body.terms)
        key = ((1,), (1,), 1)
        terms[key] = terms[key] + BetaSeries.one(4)
        bad = TauSeries(tau.family, 6, 4, GradedPoly(terms, 6, 4))
        residual = hirota_residual(bad, 3)
        assert any(bool(v) for v in residual.values())

    def test_buffer_precondition(self):
        tau = build_tau(exponential(), 4, 2)
        with pytest.raises(OutOfWindowError):
            hirota_residual(tau, 3)


class TestMulticurrent:
    def test_w1_leading_term_beta_rescaled(self):
        tau = build_tau(exponential(), 4, 3, s_convention="beta_rescaled")
        w1 = multicurrent_W(tau, 1, 2)
        # key: x-power 0, s-monomial s_1 (one part => implied beta^{-1}), grade 1
        assert w1[((0,), (1,), 1)] == BetaSeries([1, 0, 0, 0])

    def test_trivial_tau_has_no_s_free_terms(self):
        tau = build_tau(TRIVIAL, 4, 0)
        w1 = multicurrent_W(tau, 1, 2)
        assert all(s != () for (_, s, _) in w1)

    def test_cumulant_relation_w2(self):
        tau = build_tau(exponential(), 4, 3)
        log_body = log_tau(tau)
        w1 = multicurrent_W(tau, 1, 1)
        w2 = multicurrent_W(tau, 2, 1)
        w2_conn = multicurrent_W(tau, 2, 1, connected=True, log_body=log_body)
        prod = {}
        for (x1, s1, g1), c1 in w1.items():
            for (x2, s2, g2), c2 in w1.items():
                key = ((x1[0], x2[0]), exps_mul(s1, s2), g1 + g2)
                prod[key] = prod.get(key, BetaSeries.zero(3)) + c1 * c2
        zero = BetaSeries.zero(3)
        for key in set(w2) | set(w2_conn) | set(prod):
            assert w2_conn.get(key, zero) == w2.get(key, zero) - prod.get(key, zero)

    def test_f1_leading_term(self):
        f1 = build_F_n(exponential(), 1, 3, 2, 2)
        assert f1[((1,), (1,), 1)][0] == 1  # gamma beta^{-1} x s_1

    def test_current_correlator_shifts_exponents(self):
        from hurwitztau.taufn import multicurrent_J

        tau = build_tau(exponential(), 4, 3, s_convention="beta_rescaled")
        w = multicurrent_W(tau, 1, 2)
        j = multicurrent_J(tau, 1, 2)
        assert j == {((x[0] + 1,), s, g): c for (x, s, g), c in w.items()}

    def test_genus_zero_slice_of_f1(self):
        # connected genus-0 slice at N=2: the x^2 gamma^2 s_1^2 term is built
        # from the connected count 1/2 at d = n + l(nu) + 2g - 2 = 1
        f01 = build_F_n(exponential(), 1, 2, 2, 2, connected=True, genus=0)
        assert f01[((2,), (2,), 2)] == BetaSeries([0, F(1, 2), 0])

    @pytest.mark.parametrize("fam", [exponential(), belyi()], ids=lambda f: f.label)
    @pytest.mark.parametrize("args,kw", F_N_WINDOWS, ids=F_N_WINDOW_IDS)
    def test_f_n_matches_full_table_assembly(self, fam, args, kw):
        n, x_degree, w_max, d_max = args
        assert build_F_n(fam, n, w_max, d_max, x_degree, **kw) == reference_F_n(
            fam, n, w_max, d_max, x_degree, **kw
        )

    def test_connected_f_n_logs_only_up_to_its_rows(self, monkeypatch):
        from hurwitztau import hurwitz

        weights = []

        def spy(family, w_max, d_max):
            weights.append(w_max)
            return connected_table_entries(family, w_max, d_max)

        monkeypatch.setattr(hurwitz, "connected_table_entries", spy)
        fam = exponential()
        # one part of size <= 2: rows exist only for N <= 2, although w_max is 8
        got = build_F_n(fam, 1, 8, 3, 1, connected=True)
        assert weights == [2]
        assert build_F_n(fam, 3, 2, 2, 1, connected=True) == {}
        assert weights == [2]
        assert got == reference_F_n(fam, 1, 8, 3, 1, connected=True)

    @pytest.mark.parametrize("fam", [exponential(), belyi()], ids=lambda f: f.label)
    def test_w_equals_df(self, fam):
        assert check_W_equals_dF(fam, 1, 3, 5, 3)["equal"]
        assert check_W_equals_dF(fam, 2, 2, 5, 3)["equal"]

    @pytest.mark.parametrize("fam", [exponential(), belyi()], ids=lambda f: f.label)
    def test_connected_and_genus_slices(self, fam):
        assert check_W_equals_dF(fam, 2, 2, 5, 3, connected=True)["equal"]
        assert check_W_equals_dF(fam, 2, 2, 5, 3, connected=True, genus=0)["equal"]
        assert check_W_equals_dF(fam, 2, 2, 5, 3, connected=True, genus=1)["equal"]

    def test_genus_slices_reassemble(self):
        # sum over g of the sliced connected W equals the full connected W
        tau = build_tau(belyi(), 5, 3, s_convention="beta_rescaled")
        log_body = log_tau(tau)
        full = multicurrent_W(tau, 2, 2, connected=True, log_body=log_body)
        from hurwitztau.taufn import _genus_slice

        zero = BetaSeries.zero(3)
        total = {}
        for g in range(0, 3):
            for key, val in _genus_slice(full, 2, g, 3).items():
                total[key] = total.get(key, zero) + val
        assert {k: v for k, v in total.items() if v} == {
            k: v for k, v in full.items() if v
        }
