import random
import tracemalloc
from fractions import Fraction

import pytest

from hurwitztau import correlators, taufn
from hurwitztau.adaptedbasis import build_basis
from hurwitztau.correlators import (
    K2_via_basis,
    K2_via_tau,
    cd_kernel,
    cd_matrix,
    gen_A,
    h_orthogonality,
    kernels_equal,
    multipair_two_point,
)
from hurwitztau.exactalg import BRing, QRing, exp_weight, scalar_ring
from hurwitztau.partitions import Partition, partitions_up_to
from hurwitztau.symfun import schur_monomial_map
from hurwitztau.taufn import miwa_expand
from hurwitztau.weights import WeightFamily, belyi, exponential, g_at, quantum, rho, rho_inv, signed
from test_crosschecks import h_of_sigma

F = Fraction

BETA, GAMMA = F(1, 21), F(2, 3)
SIGMA1 = (F(2),)
C2 = WeightFamily("finite_c", c=(1, F(1, 2)), label="finite_c(1,1/2)")


def rational_basis(fam, sigma, k_range=(-8, 8), depth=-16):
    s = tuple(x * BETA for x in sigma)
    return build_basis(fam, BETA, GAMMA, s=s, k_range=k_range, depth=depth)


class TestPairKernel:
    def test_free_kernel_is_geometric(self):
        fam = WeightFamily("finite_c", c=())
        ring = QRing()
        k = K2_via_tau(fam, F(1), F(1), (), (-5, -1, -4, 4))
        for m in range(4):
            assert k.cell(-m - 1, m, ring) == 1
        assert k.cell(-2, 3, ring) == 0

    def test_diagonal_free_cell(self):
        k = K2_via_tau(belyi(), BETA, GAMMA, SIGMA1, (-4, -1, -3, 3))
        assert k.cell(-1, 0, QRing()) == 1

    @pytest.mark.parametrize("fam", [belyi(), C2, signed()], ids=lambda f: f.label)
    def test_tau_equals_basis_rational(self, fam):
        ring = QRing()
        b = rational_basis(fam, SIGMA1)
        win = (-6, -1, -6, 5)
        k_tau = K2_via_tau(fam, BETA, GAMMA, b.sigma, win)
        k_bas, info = K2_via_basis(b, win)
        assert kernels_equal(k_tau, k_bas, ring)
        assert info["j_cutoff"] <= 6

    def test_corrupted_basis_element_fails(self, monkeypatch):
        # K2_via_basis reads w_1 in every cell of w-exponent 0
        ring = QRing()
        b = rational_basis(belyi(), SIGMA1)
        win = (-6, -1, -6, 5)
        k_tau = K2_via_tau(belyi(), BETA, GAMMA, b.sigma, win)
        monkeypatch.setitem(b.w, 1, b.w[1].scale(2))
        k_bas, _ = K2_via_basis(b, win)
        assert not kernels_equal(k_tau, k_bas, ring)
        assert k_bas.cell(-1, 0, ring) == 2 * k_tau.cell(-1, 0, ring)

    def test_tau_equals_basis_exponential_series(self):
        d_max = 5
        ring = BRing(d_max)
        b = build_basis(
            exponential(), None, F(1), sigma=(F(1, 2),), k_range=(-6, 7), depth=-14, d_max=d_max
        )
        win = (-6, -1, -6, 5)
        k_tau = K2_via_tau(exponential(), None, F(1), (F(1, 2),), win, d_max=d_max)
        k_bas, _ = K2_via_basis(b, win)
        assert kernels_equal(k_tau, k_bas, ring)

    def test_hooks_come_from_jacobi_trudi(self, monkeypatch):
        # the hook formula is the sum K2_via_basis forms, so K2_via_tau keeps
        # its own route: one schur_at_sigma per hook cell of the 6 x 6 block
        hooks = []
        real = taufn.schur_at_sigma

        def spy(lam, sigma):
            hooks.append(lam)
            return real(lam, sigma)

        monkeypatch.setattr(taufn, "schur_at_sigma", spy)
        K2_via_tau(belyi(), BETA, GAMMA, SIGMA1, (-6, -1, -6, 5))
        assert len(hooks) == len(set(hooks)) == 36


def reference_cd_matrix(family, beta_val, sigma, bounds, d_max=None):
    """A_{ij} by its own sum: A_00 = 1, A_{0j} = A_{i0} = 0 and for i, j >= 1
    A_{ij} = -sum_{k=-i}^{j} G(beta k) h_{j-k}(-sigma) h_{i+k}(sigma)."""
    ring = scalar_ring(beta_val, d_max)
    out = {}
    for i in range(bounds + 1):
        for j in range(bounds + 1):
            if i == 0 or j == 0:
                out[(i, j)] = ring.one() if i == j else ring.zero()
                continue
            acc = ring.zero()
            for k in range(-i, j + 1):
                acc = acc + g_at(family, k, ring) * (
                    h_of_sigma(j - k, sigma, -1) * h_of_sigma(i + k, sigma, 1)
                )
            out[(i, j)] = -acc
    return out


class TestCDMatrix:
    @pytest.mark.parametrize(
        "fam,beta,sig,d_max",
        [
            (belyi(), BETA, (F(2), F(1, 3)), None),
            (C2, BETA, (F(2), F(1, 3)), None),
            (signed(), F(1, 19), (F(2),), None),
            (exponential(), None, (F(1, 2),), 4),
            (belyi(), None, (F(1, 2), F(1, 3)), 3),
            (quantum(F(1, 2)), None, (F(1, 2),), 3),
        ],
        ids=["belyi", "c2", "signed", "exp-series", "belyi-series", "quantum-series"],
    )
    def test_matches_reference_sum(self, fam, beta, sig, d_max):
        # A_ij = -Q+_{1-i,j}: the recursion entries reproduce the explicit CD sum
        assert cd_matrix(fam, beta, sig, 6, d_max=d_max) == reference_cd_matrix(
            fam, beta, sig, 6, d_max=d_max
        )

    def test_boundary_values(self):
        A = cd_matrix(belyi(), BETA, SIGMA1, 3)
        assert A[(0, 0)] == 1
        assert A[(0, 1)] == 0 and A[(1, 0)] == 0 and A[(0, 3)] == 0

    def test_a11_at_unit_parameters(self):
        # L = M = 1, beta = 1: A_11 = -(G(beta) h_0 h_2 + G(0) h_1(-s)h_1(s) + G(-beta) h_2 h_0)
        # with sigma = s: hand evaluation gives 0 for c=(1), s=(s_1)
        s1 = F(3, 7)
        A = cd_matrix(belyi(), F(1), (s1,), 2)
        assert A[(1, 1)] == 0

    def test_s_zero_vanishing(self):
        A = cd_matrix(belyi(), BETA, (), 3)
        for i in range(1, 4):
            for j in range(1, 4):
                assert A[(i, j)] == 0

    @pytest.mark.parametrize(
        "c,sig",
        [
            ((1,), (F(2),)),
            ((1,), (F(2), F(1, 3))),
            ((1, F(1, 2)), (F(2),)),
            ((1, F(1, 2)), (F(2), F(1, 3))),
        ],
        ids=["L1M1", "L2M1", "L1M2", "L2M2"],
    )
    def test_finite_rank_with_margin(self, c, sig):
        fam = WeightFamily("finite_c", c=c)
        L, M = len(sig), len(c)
        A = cd_matrix(fam, BETA, sig, L * M + 3)
        for (i, j), v in A.items():
            if i + j > L * M:
                assert v == 0, (i, j)

    def test_cd_kernel_identity(self):
        for fam, sig in [(belyi(), SIGMA1), (C2, (F(2), F(1, 3)))]:
            b = rational_basis(fam, sig)
            rep = cd_kernel(b, (-4, -1, -3, 3))
            assert rep["ok"], rep["identity_failures"]

    def test_cd_kernel_rank1_structure(self):
        # L = M = 1 with A_11 = 0 at beta=1-style normalization: kernel is rank one
        b = rational_basis(belyi(), SIGMA1)
        rep = cd_kernel(b, (-3, -1, -2, 2))
        A = rep["A"]
        assert A[(0, 0)] == 1 and A[(0, 1)] == 0 and A[(1, 0)] == 0


def test_cd_prefactor_claim():
    # the specialization uses g_{00} g^{-1}_{-1,-1} = gamma
    b = rational_basis(belyi(), SIGMA1)
    g00 = rho(b.family, 0, b.gamma, b.ring)  # h_0 = 1
    g_inv_m1 = rho_inv(b.family, -1, b.gamma, b.ring)
    assert g00 * g_inv_m1 == GAMMA


class TestGenA:
    def test_constant_cell(self):
        G = gen_A(belyi(), SIGMA1, (2, 2), beta_val=BETA)
        assert G[(0, 0)] == 1

    def test_total_degree_bound_l1m1(self):
        G = gen_A(belyi(), SIGMA1, (4, 4), beta_val=BETA)
        for (i, j), v in G.items():
            if i + j > 1:
                assert v == 0

    @pytest.mark.parametrize(
        "fam,sig",
        [(belyi(), SIGMA1), (belyi(), (F(2), F(1, 3))), (C2, (F(2), F(1, 3)))],
        ids=["L1M1", "L2M1", "L2M2"],
    )
    def test_matches_cd_matrix_through_8(self, fam, sig):
        A = cd_matrix(fam, BETA, sig, 8)
        G = gen_A(fam, sig, (8, 8), beta_val=BETA)
        for i in range(9):
            for j in range(9):
                if i + j <= 8:
                    assert A[(i, j)] == G[(i, j)], (i, j)

    def test_series_mode(self):
        d_max = 4
        A = cd_matrix(exponential(), None, SIGMA1, 4, d_max=d_max)
        assert A[(0, 0)] == BRing(d_max).one()

    @pytest.mark.parametrize("d_max", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "fam,sig", [(belyi(), (F(1, 2),)), (C2, (F(2), F(1, 3)))], ids=["belyi", "c2"]
    )
    def test_series_matches_series_cd_matrix(self, fam, sig, d_max):
        A = cd_matrix(fam, None, sig, 6, d_max=d_max)
        G = gen_A(fam, sig, (6, 6), beta_val=None, d_max=d_max)
        assert G == A


class TestHOrthogonality:
    def test_claim_holds_up_to_l2(self):
        for s in [(F(1),), (F(1), F(1, 2)), (F(2, 3), F(0))]:
            rep = h_orthogonality(s, 3, 12)
            assert rep["ok"]

    def test_perturbed_h_fails(self, monkeypatch):
        # h_3(s) + 1 adds h_0(-s) = 1 to the k = 0 row at N = 3 > kL = 0
        real = correlators.h_list

        def perturbed(sigma, sign, n_max):
            h = real(sigma, sign, n_max)
            return h[:3] + (h[3] + 1,) + h[4:] if sign == 1 else h

        monkeypatch.setattr(correlators, "h_list", perturbed)
        rep = h_orthogonality((F(1),), 1, 5)
        assert not rep["ok"]
        assert rep["values"][(0, 3)] == 1

    def test_hand_example(self):
        rep = h_orthogonality((F(1),), 1, 2)
        assert rep["values"][(1, 2)] == 0

    def test_generally_nonzero_below_threshold(self):
        rep = h_orthogonality((F(1), F(1, 2)), 2, 8)
        assert rep["values"][(1, 1)] != 0  # N = 1 <= kL = 2: no vanishing forced

    def test_values_match_their_defining_sum(self):
        # sum_{n=0..N} n^k h_n(-s) h_{N-n}(s), with 0^0 = 1, on random s
        rng = random.Random(29)
        for _ in range(6):
            s = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
            values = h_orthogonality(s, 3, 9)["values"]
            assert set(values) == {(k, N) for k in range(4) for N in range(1, 10)}
            for (k, N), value in values.items():
                want = sum(F(n) ** k * h_of_sigma(n, s, -1) * h_of_sigma(N - n, s, 1)
                           for n in range(N + 1))
                assert value == want, (s, k, N)


def reference_multipair_two_point(family, beta_val, gamma_val, sigma, degree=4, d_max=None):
    """The two-pair identity with every product T.T formed, whatever its
    degree.  pair_T and schur_weight are read through the module, so a
    monkeypatched corruption reaches both this and the library route."""
    ring = scalar_ring(beta_val, d_max)
    gamma_val = F(gamma_val)
    sigma = tuple(F(x) for x in sigma)
    D = degree
    by_monomial = {}
    for lam in partitions_up_to(D):
        weight = correlators.schur_weight(family, lam, gamma_val, sigma, ring)
        for t_exp, coeff in schur_monomial_map(lam).items():
            by_monomial[t_exp] = by_monomial.get(t_exp, ring.zero()) + weight * coeff
    letters = (-1, -1, 1, 1)
    tau_x = {}
    for t_exp, value in by_monomial.items():
        for pieces, coeff in miwa_expand(t_exp, letters):
            key = tuple(-exp_weight(piece) for piece in pieces)
            tau_x[key] = tau_x.get(key, ring.zero()) + value * coeff
    depth = D + 3
    t_cells = correlators.pair_T(K2_via_tau(
        family, beta_val, gamma_val, sigma, (-depth, 0, -depth, 0), d_max=d_max
    ), ring)
    times = correlators._times_difference
    z1, z2, w1, w2 = 0, 1, 2, 3
    term1 = {(ez1, ez2, ew1, ew2): v1 * v2
             for (ez1, ew1), v1 in t_cells.items() for (ez2, ew2), v2 in t_cells.items()}
    term2 = {(ez1, ez2, ew1, ew2): v1 * v2
             for (ez1, ew2), v1 in t_cells.items() for (ez2, ew1), v2 in t_cells.items()}
    term1 = times(times(term1, z1, w2), z2, w1)
    term2 = times(times(term2, z1, w1), z2, w2)
    rhs = dict(term1)
    for k, v in term2.items():
        rhs[k] = rhs.get(k, ring.zero()) - v
    lhs = times(times(tau_x, z2, z1), w1, w2)

    def checked(key):
        return -sum(key) <= D - 2 and all(e >= -D for e in key)

    mismatches = [key for key in set(lhs) | set(rhs) if checked(key)
                  and lhs.get(key, ring.zero()) != rhs.get(key, ring.zero())]
    antisym = all(lhs.get((k[1], k[0], k[2], k[3]), ring.zero()) == -v
                  for k, v in lhs.items() if checked(k))
    return {"ok": not mismatches, "mismatches": sorted(mismatches)[:5], "antisymmetric": antisym}


def _corrupt_pair_T(monkeypatch):
    # the hook cell T(z^-2, w^-1) off by one: tau(X) is unchanged, only T moves
    pair_T = correlators.pair_T

    def corrupted(k2, ring):
        cells = pair_T(k2, ring)
        cells[(-2, -1)] = cells.get((-2, -1), ring.zero()) + ring.one()
        return cells

    monkeypatch.setattr(correlators, "pair_T", corrupted)


def _corrupt_non_hook_weight(monkeypatch):
    # pi_(2,2) off by one: (2,2) is not a hook, so T is unchanged and only tau(X) moves
    weight = correlators.schur_weight

    def corrupted(family, lam, gamma_val, sigma, ring):
        value = weight(family, lam, gamma_val, sigma, ring)
        return value + ring.one() if lam == Partition((2, 2)) else value

    monkeypatch.setattr(correlators, "schur_weight", corrupted)


class TestMultipair:
    def test_free_case_is_cauchy_identity(self):
        fam = WeightFamily("finite_c", c=())
        rep = multipair_two_point(fam, F(1), F(1), (), degree=4)
        assert rep["ok"] and rep["antisymmetric"]

    @pytest.mark.parametrize("fam", [belyi(), exponential()], ids=lambda f: f.label)
    def test_two_pair_determinant(self, fam):
        if fam.kind == "finite_c":
            rep = multipair_two_point(fam, BETA, GAMMA, SIGMA1, degree=5)
        else:
            rep = multipair_two_point(fam, None, F(1), (F(1, 2),), degree=5, d_max=4)
        assert rep["ok"], rep["mismatches"]
        assert rep["antisymmetric"]

    def test_corrupted_tau_of_x_fails(self, monkeypatch):
        _corrupt_non_hook_weight(monkeypatch)
        rep = multipair_two_point(belyi(), BETA, GAMMA, SIGMA1, degree=5)
        assert not rep["ok"]
        assert rep["mismatches"][0] == (-2, -1, 0, 1)

    def test_broken_z1_z2_symmetry_fails_antisymmetry(self, monkeypatch):
        # z1's Miwa letter 2 instead of -1: tau(X) is no longer symmetric in z1, z2
        def miwa_expand_z1_moved(exps, letters):
            return miwa_expand(exps, (2, *letters[1:]))

        monkeypatch.setattr(correlators, "miwa_expand", miwa_expand_z1_moved)
        rep = multipair_two_point(belyi(), BETA, GAMMA, SIGMA1, degree=5)
        assert not rep["antisymmetric"]
        assert not rep["ok"]

    def test_corrupted_pair_T_fails(self, monkeypatch):
        _corrupt_pair_T(monkeypatch)
        rep = multipair_two_point(belyi(), BETA, GAMMA, SIGMA1, degree=5)
        assert not rep["ok"]
        assert rep["mismatches"][0] == (-2, -1, -1, 1)

    # forming only the products of inverse degree <= D changes no result
    @pytest.mark.parametrize("corruption", [None, _corrupt_pair_T, _corrupt_non_hook_weight],
                             ids=["intact", "pair_T", "non-hook-weight"])
    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "fam,beta,gamma,sig,d_max",
        [
            (belyi(), BETA, GAMMA, SIGMA1, None),
            (C2, BETA, GAMMA, SIGMA1, None),
            (signed(), F(1, 19), GAMMA, SIGMA1, None),
            (exponential(), None, F(1), (F(1, 2),), 3),
            (quantum(F(1, 2)), None, F(1), (F(1, 2),), 2),
        ],
        ids=["belyi", "c2", "signed", "exp-series", "quantum-series"],
    )
    def test_matches_unbounded_products(self, monkeypatch, fam, beta, gamma, sig, d_max,
                                        degree, corruption):
        if corruption is not None:
            corruption(monkeypatch)
        args = (fam, beta, gamma, sig)
        assert multipair_two_point(*args, degree=degree, d_max=d_max) == (
            reference_multipair_two_point(*args, degree=degree, d_max=d_max)
        )

    def test_traced_peak_under_one_megabyte(self):
        args = (belyi(), BETA, GAMMA, SIGMA1)
        multipair_two_point(*args, degree=5)  # warm the character and Schur caches
        tracemalloc.start()
        try:
            multipair_two_point(*args, degree=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
