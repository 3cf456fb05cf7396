"""Acceptance suite: one test per criterion, exact rational equality throughout.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (the printed PASS lines additionally show with -s).
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hurwitztau import adaptedbasis, correlators, cutjoin, hurwitz, taufn
from hurwitztau.adaptedbasis import (
    build_basis,
    euler_P,
    general_Q_cross_check,
    kac_schwarz_check,
    ladder_R,
    op_c,
    pairing_check,
    quantum_curve_residual,
    recursion_Q,
)
from hurwitztau.errors import SingularParameterError
from hurwitztau.exactalg import BetaSeries, GradedPoly, QRing
from hurwitztau.partitions import Partition, enumerate_partitions
from hurwitztau.weights import WeightFamily, belyi, exponential, quantum, signed

F = Fraction

ROUTE_FAMILIES = [
    belyi(),
    WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)"),
    signed(),
    exponential(),
    quantum(F(1, 2)),
]


def _announce(name, t0):
    print(f"PASS: {name} ({time.time() - t0:.1f}s)")


def test_criterion_1_route_equivalence():
    """R1 = R2 = R3 exactly for all five families, N <= 4, d <= 3."""
    t0 = time.time()
    for fam in ROUTE_FAMILIES:
        report = hurwitz.verify_routes(fam, n_max=4, d_max=3)
        assert report["ok"], report
    assert time.time() - t0 < 120
    _announce("criterion 1 (route equivalence, 5 families)", t0)


def test_criterion_2_calibration_and_benchmarks():
    """H^0 = delta/z for N <= 5; benchmark values recomputed by the oracle."""
    t0 = time.time()
    for fam in ROUTE_FAMILIES:
        for n in range(1, 6):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    series = hurwitz.H_via_characters(fam, mu, nu, 0)
                    want = F(1, mu.z_order()) if mu == nu else F(0)
                    assert series[0] == want
    mu, nu = Partition((2,)), Partition((1, 1))
    exp_series = hurwitz.H_via_characters(exponential(), mu, nu, 3)
    assert exp_series[1] == F(1, 2) and exp_series[3] == F(1, 12)
    belyi_series = hurwitz.H_via_characters(belyi(), mu, nu, 4)
    assert belyi_series[1] == F(1, 2)
    assert all(belyi_series[d] == 0 for d in range(2, 5))
    # recompute the benchmark values with the brute-force oracle first
    assert hurwitz.H_via_profiles(exponential(), mu, nu, 1) == F(1, 2)
    assert hurwitz.H_via_profiles(exponential(), mu, nu, 3) == F(1, 12)
    assert hurwitz.H_via_profiles(belyi(), mu, nu, 1) == F(1, 2)
    assert hurwitz.H_via_profiles(belyi(), mu, nu, 2) == 0
    _announce("criterion 2 (calibration + benchmarks)", t0)


def test_criterion_3_connected_consistency():
    """log-tau connected numbers match the transitivity oracle (N <= 3, d <= 3);
    inadmissible-genus entries vanish everywhere they are computed."""
    t0 = time.time()
    for fam in ROUTE_FAMILIES:
        report = hurwitz.verify_connected(fam, n_max=3, d_max=3)
        assert report["ok"], report
    for fam in (belyi(), exponential()):
        for n in (2, 3, 4):
            entries = hurwitz.connected_table_entries(fam, n, 4)
            for (mu, nu, d), value in entries.items():
                from hurwitztau.partitions import genus_of

                _, admissible = genus_of(mu, nu, d)
                assert admissible, (mu, nu, d, value)
    assert time.time() - t0 < 60
    _announce("criterion 3 (connected consistency + parity)", t0)


def test_criterion_4_hirota_residual():
    """KP Hirota residual vanishes at probe 3, w_max 6, for exp and belyi;
    a corrupted coefficient is detected."""
    t0 = time.time()
    for fam in (exponential(), belyi()):
        tau = taufn.build_tau(fam, 6, 4)
        residual = taufn.hirota_residual(tau, 3)
        assert residual and all(not v for v in residual.values()), fam.label
    tau = taufn.build_tau(belyi(), 6, 4)
    terms = dict(tau.body.terms)
    terms[((1,), (1,), 1)] = terms[((1,), (1,), 1)] + BetaSeries.one(4)
    corrupted = taufn.TauSeries(tau.family, 6, 4, GradedPoly(terms, 6, 4))
    assert any(bool(v) for v in taufn.hirota_residual(corrupted, 3).values())
    assert time.time() - t0 < 60
    _announce("criterion 4 (Hirota residual + negative control)", t0)


C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")


def _full_basis_suite(b, check_q=True):
    assert pairing_check(b)["ok"]
    assert ladder_R(b)["ok"]
    assert kac_schwarz_check(b)["ok"]
    assert quantum_curve_residual(b)["ok"]
    assert euler_P(b)["ok"]
    if check_q:
        assert recursion_Q(b)["ok"]
        assert general_Q_cross_check(b, 6)["ok"]


def test_criterion_5_adapted_basis_suite():
    """Adapted-basis relations on the declared windows (depth 10, k in [-3,5]).

    The criterion's stated parameters (belyi at beta = gamma = 1; c=(1,1/2) at
    beta = 1/3) sit exactly on the singular locus the weights module documents
    (G(-i beta) = 0 within the window), so per the documented error contract the
    full-range build must raise a SingularParameterError naming the factor.
    Everything that is defined at those parameters is verified exactly, and
    the complete suite is verified on the full declared window at nearby
    nonsingular beta for the same families.
    """
    t0 = time.time()

    # (a) the stated parameters hit the documented singular contract
    with pytest.raises(SingularParameterError):
        build_basis(belyi(), 1, 1, s=(1,), k_range=(-3, 5), depth=-10)
    with pytest.raises(SingularParameterError):
        build_basis(C2, F(1, 3), 1, s=(F(1, 3),), k_range=(-3, 5), depth=-10)

    # (b) division-free relations at the stated parameters, dual side on the
    # full declared range, both sides on the maximal regular sub-range
    b_dual = build_basis(belyi(), 1, 1, s=(1,), k_range=(-3, 5), depth=-10, sides=("ws",))
    assert ladder_R(b_dual)["ok"]
    assert quantum_curve_residual(b_dual)["ok"]
    assert euler_P(b_dual)["ok"]
    assert recursion_Q(b_dual)["ok"]
    for k in range(-2, 6):
        got = op_c(b_dual, b_dual.ws[k], -1)
        want = b_dual.ws[k - 1].scale(k - 1)
        lo = max(got.lo, want.lo)
        assert got.eq_on(want, lo, max(got.hi, want.hi))
    b_part = build_basis(belyi(), 1, 1, s=(1,), k_range=(-3, 1), depth=-10)
    assert pairing_check(b_part)["ok"]
    assert ladder_R(b_part)["ok"]
    assert quantum_curve_residual(b_part)["ok"]
    assert euler_P(b_part)["ok"]
    b2_part = build_basis(C2, F(1, 3), 1, s=(F(1, 3),), k_range=(-3, 3), depth=-10)
    assert pairing_check(b2_part)["ok"]
    assert ladder_R(b2_part)["ok"]
    assert quantum_curve_residual(b2_part)["ok"]
    assert euler_P(b2_part)["ok"]
    # the ladder inverses a, a* divide by G(j beta) values that vanish inside
    # this window (j = -3, -6 at beta = 1/3), so only the division-free
    # Kac-Schwarz actions b, b*, c, c* are defined at the stated parameters
    for k in range(-2, 4):
        got = op_c(b2_part, b2_part.w[k])
        want = b2_part.w[k - 1].scale(k - 1)
        assert got.eq_on(want, max(got.lo, want.lo), max(got.hi, want.hi))
        got = op_c(b2_part, b2_part.ws[k], -1)
        want = b2_part.ws[k - 1].scale(k - 1)
        assert got.eq_on(want, max(got.lo, want.lo), max(got.hi, want.hi))

    # (c) complete suite, full declared window, nonsingular beta
    b1 = build_basis(belyi(), F(1, 21), 1, s=(F(1, 21),), k_range=(-3, 5), depth=-10)
    _full_basis_suite(b1)
    b2 = build_basis(C2, F(1, 23), 1, s=(F(1, 23),), k_range=(-3, 5), depth=-10)
    _full_basis_suite(b2)
    assert time.time() - t0 < 60
    _announce("criterion 5 (adapted-basis suite + singular contract)", t0)


def test_criterion_6_kernel_suite():
    """K2 route equality on 6x6 windows, CD finite rank with margin 3 for
    (L,M) in {1,2}^2, gen_A vs the explicit formula through i+j = 8,
    h-orthogonality, and the two-pair determinant identity."""
    t0 = time.time()
    ring = QRing()
    beta, gamma = F(1, 21), F(2, 3)
    win = (-6, -1, -6, 5)
    for fam in (belyi(), C2, signed()):
        b = build_basis(
            fam, beta, gamma, sigma=(F(2),), k_range=(-8, 8), depth=-16,
            s=(2 * beta,),
        )
        k_tau = correlators.K2_via_tau(fam, beta, gamma, (F(2),), win)
        k_bas, _ = correlators.K2_via_basis(b, win)
        assert correlators.kernels_equal(k_tau, k_bas, ring), fam.label
    # exponential family with beta as a series
    from hurwitztau.exactalg import BRing

    b_exp = build_basis(
        exponential(), None, 1, sigma=(F(1, 2),), k_range=(-6, 7), depth=-14, d_max=5
    )
    k_tau = correlators.K2_via_tau(exponential(), None, 1, (F(1, 2),), win, d_max=5)
    k_bas, _ = correlators.K2_via_basis(b_exp, win)
    assert correlators.kernels_equal(k_tau, k_bas, BRing(5))

    for c in ((1,), (1, F(1, 2))):
        for sig in ((F(2),), (F(2), F(1, 3))):
            fam = WeightFamily("finite_c", c=c)
            L, M = len(sig), len(c)
            A = correlators.cd_matrix(fam, beta, sig, L * M + 3)
            assert all(v == 0 for (i, j), v in A.items() if i + j > L * M)
    for fam, sig in ((belyi(), (F(2),)), (C2, (F(2), F(1, 3)))):
        A = correlators.cd_matrix(fam, beta, sig, 8)
        G = correlators.gen_A(fam, sig, (8, 8), beta_val=beta)
        for i in range(9):
            for j in range(9):
                if i + j <= 8:
                    assert A[(i, j)] == G[(i, j)]
        b = build_basis(fam, beta, gamma, sigma=sig, k_range=(-8, 8), depth=-16,
                        s=tuple(x * beta for x in sig))
        assert correlators.cd_kernel(b, (-4, -1, -3, 3))["ok"]
    for s in ((F(1),), (F(1), F(1, 2))):
        assert correlators.h_orthogonality(s, 3, 12)["ok"]
    assert correlators.multipair_two_point(belyi(), beta, gamma, (F(2),), degree=5)["ok"]
    assert time.time() - t0 < 120
    _announce("criterion 6 (kernel suite)", t0)


def test_criterion_7_cut_and_join_suite():
    """Eigenvalues, commutativity, reconstruction at (5,4), the PDEs, the V_k
    single-Hurwitz representation, and the exponential index resolution."""
    t0 = time.time()
    assert cutjoin.schur_eigen_check(6, 8)["ok"]
    for fam in (belyi(), C2):
        assert cutjoin.reconstruct_tau(fam, 5, 4)["ok"]
        assert cutjoin.pde_check(fam, 4, 3)["ok"]
        assert cutjoin.build_Vk_and_single_rep(fam, 3)["ok"]
    assert cutjoin.pde_check(exponential(), 4, 3)["ok"]
    index_report = cutjoin.resolve_exponential_index(3, 3)
    assert index_report["matching_index"] == [1], index_report
    print("  exponential cut-and-join index: Q_1 reproduces tau; Q_2 does not")
    assert time.time() - t0 < 120
    _announce("criterion 7 (cut-and-join suite)", t0)


def test_criterion_8_multicurrent():
    """W_n = d^n F_n / dx_1..dx_n for n <= 2, degree <= 3, exp and belyi."""
    t0 = time.time()
    for fam in (exponential(), belyi()):
        assert taufn.check_W_equals_dF(fam, 1, 3, 5, 3)["equal"]
        assert taufn.check_W_equals_dF(fam, 2, 3, 6, 3)["equal"]
        assert taufn.check_W_equals_dF(fam, 2, 2, 5, 3, connected=True)["equal"]
        assert taufn.check_W_equals_dF(fam, 2, 2, 5, 3, connected=True, genus=0)["equal"]
    assert time.time() - t0 < 60
    _announce("criterion 8 (multicurrent W = dF)", t0)


def test_criterion_9_cli_determinism(tmp_path):
    """Golden JSON outputs are byte-identical across two runs on pinned configs."""
    t0 = time.time()
    pinned = [
        ("hurwitz", "--family", "belyi", "--N", "3", "--dmax", "2", "--verify-routes"),
        ("hurwitz", "--family", "exp", "--N", "2", "--dmax", "3", "--connected"),
        ("tau", "--family", "exp", "--wmax", "4", "--dmax", "2", "--probe", "2"),
        ("basis", "--family", "belyi", "--beta", "1/21", "--s", "1/21"),
        ("kernel", "--family", "belyi", "--beta", "1/21", "--s", "1/21", "--check-finiteness"),
        ("curve", "--family", "belyi", "--s", "1"),
        ("cutjoin", "--family", "exp", "--wmax", "3", "--dmax", "2", "--resolve-index"),
    ]
    for idx, argv in enumerate(pinned):
        outs = []
        for run in (0, 1):
            out = tmp_path / f"{idx}_{run}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "hurwitztau.cli", *argv, "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv
        json.loads(outs[0])  # well-formed
    _announce("criterion 9 (CLI golden determinism)", t0)
