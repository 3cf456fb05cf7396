"""Pair correlators by two constructions, the Christoffel-Darboux matrix with
its finite-rank property and generating function, the h-orthogonality lemma,
and the two-pair determinantal identity.

Conventions (pinned by exact verification, see tests): all kernels live in the
|z| > |w| regime, where

    K2(z, w)      = sum_{j>=1} w_j(w) w*_{1-j}(z)
                  = [1/(z-w) expansion] + hook contributions, and
    (z-w) K2(z,w) = gamma * sum_{i,j=0}^{LM} A_{ij} w_{1-i}(w) w*_{1-j}(z).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .adaptedbasis import BasisWindow, q_band, recursion_entry
from .errors import ConfigurationError, OutOfWindowError
from .exactalg import BetaSeries, exp_weight, scalar_ring
from .partitions import Partition, partitions_up_to
from .symfun import h_list, schur_monomial_map, support
from .taufn import miwa_expand, schur_weight
from .weights import WeightFamily, g_coeff


class KernelWindow(NamedTuple):
    """Rectangular window of a two-variable Laurent kernel, |z| > |w| regime.

    Cells outside the rectangle are unknown, except that every kernel here has
    only negative z-exponents, so cells with ez >= 0 are known zero.
    """

    zlo: int
    zhi: int
    wlo: int
    whi: int
    cells: dict  # (ez, ew) -> scalar

    def cell(self, ez: int, ew: int, ring):
        if ez >= 0:
            return ring.zero()
        if not (self.zlo <= ez <= self.zhi and self.wlo <= ew <= self.whi):
            raise OutOfWindowError(f"kernel cell ({ez}, {ew}) outside window")
        return self.cells.get((ez, ew), ring.zero())


def K2_via_tau(
    family: WeightFamily,
    beta_val,
    gamma_val,
    sigma,
    window: tuple,
    d_max: int | None = None,
) -> KernelWindow:
    """K2(z, w) = tau([w^{-1}] - [z^{-1}]) / (z - w).

    Only the empty partition and hooks survive the difference-alphabet
    evaluation: the hook (a|b) contributes on the single cell
    (z^{-b-1}, w^{-a-1}), and the empty partition gives the geometric
    expansion of 1/(z-w).

    The hook values come from Jacobi-Trudi (schur_weight) on purpose: the
    hook formula rho_a rho_{-b-1}^{-1} sum_k h_{a+1+k}(sigma) h_{b-k}(-sigma)
    is the sum K2_via_basis forms from w_j and w*_{1-j}, so it would check
    that route against itself.
    """
    ring = scalar_ring(beta_val, d_max)
    gamma_val = Fraction(gamma_val)
    sigma = tuple(Fraction(x) for x in sigma)
    zlo, zhi, wlo, whi = window
    cells = {}
    for m in range(0, whi + 1):
        ez, ew = -m - 1, m
        if zlo <= ez <= zhi and wlo <= ew:
            cells[(ez, ew)] = ring.one()
    for ez in range(zlo, min(zhi, -1) + 1):
        for ew in range(wlo, min(whi, -1) + 1):
            # the hook (a|b) with a = -ew - 1, b = -ez - 1, and its sign (-1)^b
            hook = Partition([-ew] + [1] * (-ez - 1))
            value = schur_weight(family, hook, gamma_val, sigma, ring) * (-1) ** (-ez - 1)
            if value:
                cells[(ez, ew)] = cells.get((ez, ew), ring.zero()) + value
    return KernelWindow(zlo, zhi, wlo, whi, cells)


def K2_via_basis(b: BasisWindow, window: tuple) -> tuple[KernelWindow, dict]:
    """K2(z, w) = sum_{j >= 1} w_j(w) w*_{1-j}(z), cell by cell.

    Each cell (ez, ew) receives contributions only from max(1, ew+1) <= j <= -ez,
    so the sum stabilizes; the largest j consulted is reported.
    """
    zlo, zhi, wlo, whi = window
    ring = b.ring
    j_max_needed = -zlo
    if b.k_hi < j_max_needed or b.k_lo > min(0, 1 - j_max_needed):
        raise OutOfWindowError(
            f"basis k-range [{b.k_lo}, {b.k_hi}] cannot cover j up to {j_max_needed}"
        )
    if b.depth > zlo or b.depth > wlo:
        raise OutOfWindowError("basis windows too shallow for the requested kernel window")
    cells = {}
    j_used = 0
    for ez in range(zlo, min(zhi, -1) + 1):
        for ew in range(wlo, whi + 1):
            total = ring.zero()
            for j in range(max(1, ew + 1), -ez + 1):
                total = total + b.w[j].get(ew) * b.ws[1 - j].get(ez)
                j_used = max(j_used, j)
            if total:
                cells[(ez, ew)] = total
    return KernelWindow(zlo, zhi, wlo, whi, cells), {"j_cutoff": j_used}


def pair_T(k2: KernelWindow, ring) -> dict:
    """T(z, w) = tau([w^{-1}] - [z^{-1}]) = (z - w) K2(z, w), read off a K2 window.

    Each cell is K2(ez - 1, ew) - K2(ez, ew - 1), so T is known on
    zlo < ez <= zhi, wlo < ew <= whi of the K2 window; zero cells are dropped.
    """
    cells = {}
    for ez in range(k2.zlo + 1, k2.zhi + 1):
        for ew in range(k2.wlo + 1, k2.whi + 1):
            value = k2.cell(ez - 1, ew, ring) - k2.cell(ez, ew - 1, ring)
            if value:
                cells[(ez, ew)] = value
    return cells


def kernels_equal(k1: KernelWindow, k2: KernelWindow, ring) -> bool:
    zlo = max(k1.zlo, k2.zlo)
    zhi = min(k1.zhi, k2.zhi)
    wlo = max(k1.wlo, k2.wlo)
    whi = min(k1.whi, k2.whi)
    for ez in range(zlo, zhi + 1):
        for ew in range(wlo, whi + 1):
            if k1.cell(ez, ew, ring) != k2.cell(ez, ew, ring):
                return False
    return True


# ---------------------------------------------------------------------------
# Christoffel-Darboux matrix.
# ---------------------------------------------------------------------------


def cd_matrix(
    family: WeightFamily,
    beta_val,
    sigma,
    bounds: int,
    d_max: int | None = None,
) -> dict:
    """A_{ij} for 0 <= i, j <= bounds, read off the recursion matrix Q+
    (gen_A is the independent route through the generating function).

    A_00 = 1, A_{0j} = A_{i0} = 0 and for i, j >= 1
        A_{ij} = -Q+_{1-i,j} = -sum_{k=-i}^{j} G(beta k) h_{j-k}(-sigma) h_{i+k}(sigma).
    """
    ring = scalar_ring(beta_val, d_max)
    sigma = tuple(Fraction(x) for x in sigma)

    def entry(i, j):
        if i == 0 or j == 0:
            return ring.one() if i == j else ring.zero()
        return -recursion_entry(family, ring, sigma, 1 - i, j, 1)

    return {(i, j): entry(i, j) for i in range(bounds + 1) for j in range(bounds + 1)}


CD_RANK_MARGIN = 3  # columns beyond the rank LM checked to vanish


def cd_kernel(b: BasisWindow, window: tuple) -> dict:
    """Assemble the finite-rank kernel numerator and verify the CD identity.

    The rank is Q+'s band LM (L = sigma support, M = deg G); checks
      * A_{ij} = 0 for all i + j > LM up to i + j <= LM + CD_RANK_MARGIN;
      * gamma * sum_{i,j<=LM} A_{ij} w_{1-i}(w) w*_{1-j}(z) == (z-w) K2(z,w)
        on the window, against the tau-route kernel.
    """
    ring = b.ring
    rank = q_band(b.family, b.sigma)
    A = cd_matrix(b.family, ring.beta, b.sigma, rank + CD_RANK_MARGIN, d_max=ring.d_max)
    finiteness_failures = [
        (i, j)
        for (i, j), v in A.items()
        if i + j > rank and v
    ]
    zlo, zhi, wlo, whi = window
    if b.k_lo > 1 - rank or b.k_hi < 1:
        raise OutOfWindowError(f"basis k-range must cover [1-{rank}, 1]")
    numer = {}
    for ez in range(zlo, zhi + 1):
        for ew in range(wlo, whi + 1):
            total = ring.zero()
            for i in range(rank + 1):
                for j in range(rank + 1):
                    a = A[(i, j)]
                    if not a:
                        continue
                    total = total + a * b.w[1 - i].get(ew) * b.ws[1 - j].get(ez)
            numer[(ez, ew)] = total * b.gamma
    T = pair_T(K2_via_tau(
        b.family, ring.beta, b.gamma, b.sigma, (zlo - 1, zhi, wlo - 1, whi), d_max=ring.d_max
    ), ring)
    identity_failures = [
        key for key, lhs in numer.items() if lhs != T.get(key, ring.zero())
    ]
    return {
        "ok": not finiteness_failures and not identity_failures,
        "rank": rank,
        "finiteness_failures": finiteness_failures,
        "identity_failures": identity_failures,
        "A": A,
        "numerator": KernelWindow(zlo, zhi, wlo, whi, numer),
    }


# ---------------------------------------------------------------------------
# Generating function for the CD matrix.
# ---------------------------------------------------------------------------


def gen_A(
    family: WeightFamily,
    sigma,
    degrees: tuple,
    beta_val=1,
    d_max: int | None = None,
) -> dict:
    """A(r,t) = [r G(S(t) - t d/dt) - t G(S(r) + r d/dr)] 1/(r-t), expanded.

    Computed in the beta-rescaled normalization: the operator argument uses
    sigma and the effective Taylor weights g_m beta^m, which reproduces
    A_{ij}(beta, s) exactly, at a rational beta_val or, with beta_val=None,
    as beta-series of order d_max.  Returns {(i, j): coefficient} for
    0 <= i <= degrees[0], 0 <= j <= degrees[1]; negative r-power cells are
    verified to cancel and trigger an AssertionError otherwise.
    """
    big_m = family.degree
    if big_m is None:
        raise ConfigurationError("gen_A needs a polynomial G")
    ring = scalar_ring(beta_val, d_max)
    sigma = tuple(Fraction(x) for x in sigma)
    L = len(sigma)
    imax, jmax = degrees
    # effective Taylor weights g_m beta^m of G(beta x)
    ghat = [ring.beta_power(m) * g_coeff(family, m) for m in range(big_m + 1)]

    m_max = max(imax + jmax + big_m * L + 2, jmax + 1)

    def apply_x(poly, lo, sign):
        # X = S_sigma(x) + sign x d/dx, S_sigma(x) = sum_k k sigma_k x^k, on
        # Laurent coefficients starting at x^lo
        out = [ring.zero()] * (len(poly) + L)
        for idx, c in enumerate(poly):
            if not c:
                continue
            for k, s in enumerate(sigma, start=1):
                if s != 0:
                    out[idx + k] = out[idx + k] + c * (k * s)
            out[idx] = out[idx] + c * (sign * (lo + idx))
        return out

    def ghat_of_x(poly, lo, sign):
        # Ghat(X) poly = sum_q ghat_q X^q poly
        acc, power = [ring.zero()] * (len(poly) + big_m * L), poly
        for q, gq in enumerate(ghat):
            if q > 0:
                power = apply_x(power, lo, sign)
            if gq:
                for idx, c in enumerate(power):
                    acc[idx] = acc[idx] + gq * c
        return acc

    cells: dict = {}

    def add_cell(i, j, v):
        if not v:
            return
        cells[(i, j)] = cells.get((i, j), ring.zero()) + v

    for m in range(m_max + 1):
        # term 1: r * Ghat(X_t) t^m r^{-m-1}, X_t = S(t) - t d/dt -> cells (-m, *)
        for e, c in enumerate(ghat_of_x([ring.zero()] * m + [ring.one()], 0, -1)):
            add_cell(-m, e, c)
        # term 2: -t * Ghat(X_r) r^{-m-1} t^m, X_r = S(r) + r d/dr -> cells (*, m+1)
        for idx, c in enumerate(ghat_of_x([ring.one()], -m - 1, 1)):
            add_cell(idx - m - 1, m + 1, -c)

    # negative r-powers must cancel wherever all contributions are inside m_max
    for (i, j), v in cells.items():
        if i < 0 and j <= jmax and -i <= m_max - big_m * L - 1:
            if v:
                raise AssertionError(f"gen_A: uncancelled negative cell ({i},{j})")
    return {
        (i, j): cells.get((i, j), ring.zero())
        for i in range(imax + 1)
        for j in range(jmax + 1)
    }


# ---------------------------------------------------------------------------
# Orthogonality lemma and the two-pair determinant identity.
# ---------------------------------------------------------------------------


def h_orthogonality(s, k_max: int, n_max: int) -> dict:
    """sum_n n^k h_n(-s) h_{N-n}(s), which vanishes for all N > kL.

    The n = 0 term is included with the convention 0^0 = 1, so the k = 0 row
    is the plain inverse-series identity; for k >= 1 it contributes nothing.
    """
    L = support(s)
    h_minus, h_plus = h_list(s, -1, n_max), BetaSeries(h_list(s, 1, n_max))
    rows = {}
    ok = True
    for k in range(k_max + 1):
        # [z^N] of (sum_n n^k h_n(-s) z^n) (sum_n h_n(s) z^n)
        product = BetaSeries([n**k * h for n, h in enumerate(h_minus)]) * h_plus
        for N in range(1, n_max + 1):
            rows[(k, N)] = value = product[N]
            if N > k * L and value != 0:
                ok = False
    return {"ok": ok, "L": L, "values": rows}


def _times_difference(poly: dict, a: int, b: int) -> dict:
    """poly * (x_a - x_b), for a Laurent polynomial keyed by exponent tuples:
    each term is shifted up in slot a, and subtracted shifted up in slot b.
    Zero coefficients are dropped (a zero Fraction or BetaSeries is falsy)."""
    out: dict = {}
    for key, value in poly.items():
        for slot, term in ((a, value), (b, -value)):
            shifted = key[:slot] + (key[slot] + 1,) + key[slot + 1:]
            prev = out.get(shifted)
            out[shifted] = term if prev is None else prev + term
    return {k: v for k, v in out.items() if v}


def multipair_two_point(
    family: WeightFamily,
    beta_val,
    gamma_val,
    sigma,
    degree: int = 4,
    d_max: int | None = None,
) -> dict:
    """The n = 2 determinantal identity, cleared of denominators.

    Verifies, on all cells (z1, z2, w1, w2) of total inverse degree
    <= degree - 2 whose exponents are each >= -degree,
        -tau(X) (z1-z2)(w1-w2)
          == T(z1,w1) T(z2,w2) (z1-w2)(z2-w1) - T(z1,w2) T(z2,w1) (z1-w1)(z2-w2)
    where X = [w1^{-1}] + [w2^{-1}] - [z1^{-1}] - [z2^{-1}] and
    T(z,w) = tau([w^{-1}] - [z^{-1}]).  This is the two-pair correlator
    determinant identity with every 1/(z_i - w_j) multiplied through.  Only
    the products T T of inverse degree <= degree are formed: no other can
    reach a checked cell.
    """
    ring = scalar_ring(beta_val, d_max)
    gamma_val = Fraction(gamma_val)
    sigma = tuple(Fraction(x) for x in sigma)
    D = degree

    # tau(X) through total degree D: sum over lambda of pi_lambda s_lambda(t),
    # collected by t-monomial, at t_b = p_b(X) / b, where
    # p_b(X) = w1^-b + w2^-b - z1^-b - z2^-b is a Miwa shift in each letter
    by_monomial: dict = {}
    for lam in partitions_up_to(D):
        weight = schur_weight(family, lam, gamma_val, sigma, ring)
        for t_exp, coeff in schur_monomial_map(lam).items():
            by_monomial[t_exp] = by_monomial.get(t_exp, ring.zero()) + weight * coeff
    letters = (-1, -1, 1, 1)  # z1 z2 w1 w2
    tau_x: dict = {}
    for t_exp, value in by_monomial.items():
        for pieces, coeff in miwa_expand(t_exp, letters):
            key = tuple(-exp_weight(piece) for piece in pieces)
            tau_x[key] = tau_x.get(key, ring.zero()) + value * coeff

    # T down to exponent -(D + 2): the checked cells read T only above -(D + 2)
    depth = D + 3
    t_cells = pair_T(K2_via_tau(
        family, beta_val, gamma_val, sigma, (-depth, 0, -depth, 0), d_max=d_max
    ), ring)

    # T(z1,w1) T(z2,w2) and T(z1,w2) T(z2,w1): outer products, the variables
    # of the two factors being disjoint; keys are (z1, z2, w1, w2).  Only keys
    # of inverse degree <= D are formed: each (x_a - x_b) factor below lowers
    # the inverse degree by one, so any other product lands above D - 2,
    # outside every checked cell
    z1, z2, w1, w2 = 0, 1, 2, 3
    term1 = {(ez1, ez2, ew1, ew2): v1 * v2
             for (ez1, ew1), v1 in t_cells.items() for (ez2, ew2), v2 in t_cells.items()
             if -(ez1 + ez2 + ew1 + ew2) <= D}
    term2 = {(ez1, ez2, ew1, ew2): v1 * v2
             for (ez1, ew2), v1 in t_cells.items() for (ez2, ew1), v2 in t_cells.items()
             if -(ez1 + ez2 + ew1 + ew2) <= D}
    term1 = _times_difference(_times_difference(term1, z1, w2), z2, w1)
    term2 = _times_difference(_times_difference(term2, z1, w1), z2, w2)
    rhs = dict(term1)
    for k, v in term2.items():
        rhs[k] = rhs.get(k, ring.zero()) - v
    lhs = _times_difference(_times_difference(tau_x, z2, z1), w1, w2)  # -(z1-z2)(w1-w2)

    # every key is a checked cell: tau(X) and T T reach inverse degree D with
    # exponents <= 0, and the two (x_a - x_b) factors lower it to D - 2
    mismatches = []
    keys = set(lhs) | set(rhs)
    for key in keys:
        lv = lhs.get(key, ring.zero())
        rv = rhs.get(key, ring.zero())
        if lv != rv:
            mismatches.append(key)
    # antisymmetry under z1 <-> z2 on the safe window (degenerate-point control)
    antisym = True
    for key, v in lhs.items():
        swapped = (key[1], key[0], key[2], key[3])
        if lhs.get(swapped, ring.zero()) != -v:
            antisym = False
            break
    return {"ok": not mismatches, "mismatches": sorted(mismatches)[:5], "antisymmetric": antisym}
