import itertools
import math
from fractions import Fraction
from functools import partial

import pytest

from hurwitztau import taufn
from hurwitztau.errors import ConfigurationError, OutOfWindowError
from hurwitztau.exactalg import BetaSeries, BRing, GradedPoly, LaurentWindow, QRing, exps_mul
from hurwitztau.exactalg import monomial_from_partition
from hurwitztau.hurwitz import H_via_characters, build_table, connected_table_entries
from hurwitztau.partitions import Partition, enumerate_partitions, partitions_up_to
from hurwitztau.symfun import cauchy_kernel, schur_monomial_map
from hurwitztau.taufn import (
    TauSeries,
    _genus_slice,
    build_F_n,
    build_tau,
    check_W_equals_dF,
    hirota_residual,
    log_tau,
    multicurrent_W,
    pair_series,
    schur_weight,
)
from hurwitztau.weights import WeightFamily, belyi, content_product, exponential, quantum, signed

F = Fraction
TRIVIAL = WeightFamily("finite_c", c=(), label="G=1")
C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")


def reference_baker(
    tau: TauSeries,
    z_lo: int,
    beta_val,
    gamma_val,
    s=(),
) -> tuple[LaurentWindow, LaurentWindow]:
    """(Psi^-, Psi^+) at t = 0 on the window [z_lo, 0], at rational beta, gamma.

    Psi^-(z, 0) = tau(-[z^{-1}])/tau(0) and Psi^+(z, 0) = tau(+[z^{-1}])/tau(0).
    Only column (1^m) respectively row (m) partitions survive the evaluation
    of s_lambda at the (negated) single-variable alphabet, which gives the
    z^{-m} coefficients directly.
    """
    if z_lo > 0:
        raise ConfigurationError("z_lo must be <= 0")
    depth = -z_lo
    if depth > tau.w_max:
        raise OutOfWindowError(
            f"window depth {depth} exceeds w_max={tau.w_max} support"
        )
    ring = QRing(beta_val)
    sigma = tuple(Fraction(x) / ring.beta for x in s)
    minus = [Fraction(0)] * (depth + 1)
    plus = [Fraction(0)] * (depth + 1)
    for m in range(0, depth + 1):
        col = Partition([1] * m)
        row = Partition([m] if m else [])
        minus[depth - m] = (-1) ** m * schur_weight(tau.family, col, gamma_val, sigma, ring)
        plus[depth - m] = schur_weight(tau.family, row, gamma_val, sigma, ring)
    return LaurentWindow(z_lo, tuple(minus)), LaurentWindow(z_lo, tuple(plus))


def reference_tau_body(family, w_max, d_max):
    """tau by its own loop over the Schur sectors, s_lambda(t) s_lambda(s) per lambda."""
    terms = {}
    for lam in partitions_up_to(w_max):
        r = content_product(family, lam, BRing(d_max))
        tmap = schur_monomial_map(lam)
        for t_exp, a in tmap.items():
            for s_exp, b in tmap.items():
                key = (t_exp, s_exp, lam.weight)
                terms[key] = terms[key] + r * (a * b) if key in terms else r * (a * b)
    return GradedPoly(terms, w_max, d_max)


# (n, x_degree, w_max, d_max) and options of the verify sweep's W = dF checks
F_N_WINDOWS = [
    ((1, 3, 5, 3), {}),
    ((2, 3, 6, 3), {}),
    ((2, 2, 5, 3), {"connected": True}),
    ((2, 2, 5, 3), {"connected": True, "genus": 0}),
]
F_N_WINDOW_IDS = ["n1", "n2", "n2-connected", "n2-genus0"]


def _rows(family, w_max, d_max, connected=False):
    """The Hurwitz rows build_F_n reads: log tau's connected numbers, or the
    character route."""
    if connected:
        return partial(pair_series, log_tau(build_tau(family, w_max, d_max)))
    return partial(H_via_characters, family, d_max=d_max)


def reference_F_n(family, n, w_max, d_max, x_degree, connected=False, genus=None):
    """F_n assembled from a full table per N (connected: log tau at each N),
    cut to the beta-order n + l(nu) + 2 genus - 2 if genus is given."""
    out = {}
    for N in range(n, w_max + 1):
        mus = [m for m in enumerate_partitions(N) if m.length == n and m.parts[0] <= x_degree + 1]
        if not mus:
            continue
        table = connected_table_entries if connected else build_table
        entries = table(family, N, d_max)
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


def reference_multicurrent_W(body, n, x_degree):
    """W_n by scanning every x-exponent vector against every term of body."""
    out = {}
    for a_vec in itertools.product(range(1, x_degree + 2), repeat=n):
        if sum(a_vec) > body.w_max:
            continue
        t_exp = monomial_from_partition(a_vec)
        mult = 1
        for e in t_exp:
            mult *= math.factorial(e)
        x_key = tuple(a - 1 for a in a_vec)
        for (t, s, g), c in body.terms.items():
            if t != t_exp:
                continue
            key = (x_key, s, g)
            out[key] = out[key] + c * mult if key in out else c * mult
    return out


class TestBuildTau:
    @pytest.mark.parametrize(
        "fam", [belyi(), C2, signed(), exponential(), quantum(F(1, 2))], ids=lambda f: f.label
    )
    def test_matches_sector_loop_reference(self, fam):
        assert build_tau(fam, 5, 3).body == reference_tau_body(fam, 5, 3)

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
        assert pair_series(tau.body, mu, nu) == H_via_characters(exponential(), mu, nu, 3)
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
        series = pair_series(log_tau(tau), Partition((1,)), Partition((1,)))
        assert series == BetaSeries([1, 0, 0, 0])

    def test_weight_two_sector_matches_connected_table(self):
        fam = exponential()
        tau = build_tau(fam, 2, 3)
        log_body = log_tau(tau)
        entries = connected_table_entries(fam, 2, 3)
        for mu in (Partition((2,)), Partition((1, 1))):
            for nu in (Partition((2,)), Partition((1, 1))):
                series = pair_series(log_body, mu, nu)
                for d in range(4):
                    assert series[d] == entries.get((mu, nu, d), F(0))


class TestBaker:
    def test_trivial_baker_is_one(self):
        tau = build_tau(TRIVIAL, 4, 0)
        minus, plus = reference_baker(tau, -4, F(1, 3), F(1), s=())
        assert minus.get(0) == 1 and plus.get(0) == 1
        assert all(minus.get(j) == 0 for j in range(-4, 0))
        assert all(plus.get(j) == 0 for j in range(-4, 0))

    def test_leading_normalization(self):
        tau = build_tau(belyi(), 5, 3)
        minus, plus = reference_baker(tau, -5, F(1, 21), F(2, 3), s=(F(2, 21),))
        assert minus.get(0) == 1 and plus.get(0) == 1

    def test_matches_adapted_basis(self):
        from hurwitztau.adaptedbasis import build_basis

        fam, beta, gamma, s = belyi(), F(1, 21), F(2, 3), (F(2, 21),)
        tau = build_tau(fam, 6, 3)
        minus, plus = reference_baker(tau, -6, beta, gamma, s)
        b = build_basis(fam, beta, gamma, s=s, k_range=(1, 1), depth=-8)
        for j in range(-6, 1):
            assert minus.get(j) == b.ws[1].get(j)
            assert plus.get(j) == b.w[1].get(j) * gamma

    def test_window_depth_guard(self):
        tau = build_tau(belyi(), 3, 2)
        with pytest.raises(OutOfWindowError):
            reference_baker(tau, -5, F(1, 7), F(1))


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
        tau = build_tau(exponential(), 4, 3)
        w1 = multicurrent_W(tau.body, 1, 2)
        # key: x-power 0, s-monomial s_1 (one part => implied beta^{-1}), grade 1
        assert w1[((0,), (1,), 1)] == BetaSeries([1, 0, 0, 0])

    def test_trivial_tau_has_no_s_free_terms(self):
        tau = build_tau(TRIVIAL, 4, 0)
        w1 = multicurrent_W(tau.body, 1, 2)
        assert all(s != () for (_, s, _) in w1)

    def test_cumulant_relation_w2(self):
        tau = build_tau(exponential(), 4, 3)
        w1 = multicurrent_W(tau.body, 1, 1)
        w2 = multicurrent_W(tau.body, 2, 1)
        w2_conn = multicurrent_W(log_tau(tau), 2, 1)
        prod = {}
        for (x1, s1, g1), c1 in w1.items():
            for (x2, s2, g2), c2 in w1.items():
                key = ((x1[0], x2[0]), exps_mul(s1, s2), g1 + g2)
                prod[key] = prod.get(key, BetaSeries.zero(3)) + c1 * c2
        zero = BetaSeries.zero(3)
        for key in set(w2) | set(w2_conn) | set(prod):
            assert w2_conn.get(key, zero) == w2.get(key, zero) - prod.get(key, zero)

    def test_f1_leading_term(self):
        f1 = build_F_n(_rows(exponential(), 3, 2), 1, 3, 2)
        assert f1[((1,), (1,), 1)][0] == 1  # gamma beta^{-1} x s_1

    def test_genus_zero_slice_of_f1(self):
        # connected genus-0 slice at N=2: the x^2 gamma^2 s_1^2 term is built
        # from the connected count 1/2 at d = n + l(nu) + 2g - 2 = 1
        f01 = _genus_slice(build_F_n(_rows(exponential(), 2, 2, True), 1, 2, 2), 1, 0, 2)
        assert f01[((2,), (2,), 2)] == BetaSeries([0, F(1, 2), 0])

    @pytest.mark.parametrize("fam", [exponential(), belyi()], ids=lambda f: f.label)
    @pytest.mark.parametrize("args,kw", F_N_WINDOWS, ids=F_N_WINDOW_IDS)
    def test_f_n_matches_full_table_assembly(self, fam, args, kw):
        n, x_degree, w_max, d_max = args
        got = build_F_n(_rows(fam, w_max, d_max, kw.get("connected", False)), n, w_max, x_degree)
        if "genus" in kw:
            got = _genus_slice(got, n, kw["genus"], d_max)
        assert got == reference_F_n(fam, n, w_max, d_max, x_degree, **kw)

    @pytest.mark.parametrize("fam", [exponential(), belyi()], ids=lambda f: f.label)
    @pytest.mark.parametrize("connected", [False, True], ids=["tau", "log-tau"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_w_n_matches_vector_scan(self, fam, connected, n):
        tau = build_tau(fam, 6, 3)
        body = log_tau(tau) if connected else tau.body
        got = multicurrent_W(body, n, 6 - n)
        assert got and got == reference_multicurrent_W(body, n, 6 - n)

    def test_connected_check_builds_and_logs_tau_once(self, monkeypatch):
        # W_n and the rows of F_n are read off one log tau
        calls = []
        real_build, real_log = taufn.build_tau, GradedPoly.log

        def build_spy(*args):
            calls.append("build_tau")
            return real_build(*args)

        def log_spy(self):
            calls.append("log")
            return real_log(self)

        monkeypatch.setattr(taufn, "build_tau", build_spy)
        monkeypatch.setattr(GradedPoly, "log", log_spy)
        assert check_W_equals_dF(exponential(), 2, 2, 5, 3, connected=True)["equal"]
        assert calls == ["build_tau", "log"]

    @pytest.mark.parametrize("fam", [exponential(), belyi()], ids=lambda f: f.label)
    def test_w_equals_df(self, fam):
        assert check_W_equals_dF(fam, 1, 3, 5, 3)["equal"]
        assert check_W_equals_dF(fam, 2, 2, 5, 3)["equal"]

    def test_corrupted_tau_coefficient_is_named(self, monkeypatch):
        # add beta to the t_1^2 s_1^2 coefficient of tau: W_2 reads it at the
        # x-exponents (0, 0), the character route's dF_2 does not
        real_build = taufn.build_tau

        def corrupted_build_tau(family, w_max, d_max):
            tau = real_build(family, w_max, d_max)
            terms = dict(tau.body.terms)
            terms[((2,), (2,), 2)] += BetaSeries.variable(d_max)
            return TauSeries(family, w_max, d_max, GradedPoly(terms, w_max, d_max))

        monkeypatch.setattr(taufn, "build_tau", corrupted_build_tau)
        report = check_W_equals_dF(belyi(), 2, 2, 5, 3)
        assert not report["equal"]
        assert [m["key"] for m in report["mismatches"]] == [((0, 0), (2,), 2)]

    @pytest.mark.parametrize("fam", [exponential(), belyi()], ids=lambda f: f.label)
    def test_connected_and_genus_slices(self, fam):
        assert check_W_equals_dF(fam, 2, 2, 5, 3, connected=True)["equal"]
        assert check_W_equals_dF(fam, 2, 2, 5, 3, connected=True, genus=0)["equal"]
        assert check_W_equals_dF(fam, 2, 2, 5, 3, connected=True, genus=1)["equal"]

    def test_genus_slices_reassemble(self):
        # sum over g of the sliced connected W equals the full connected W
        full = multicurrent_W(log_tau(build_tau(belyi(), 5, 3)), 2, 2)
        zero = BetaSeries.zero(3)
        total = {}
        for g in range(0, 3):
            for key, val in _genus_slice(full, 2, g, 3).items():
                total[key] = total.get(key, zero) + val
        assert {k: v for k, v in total.items() if v} == {
            k: v for k, v in full.items() if v
        }
