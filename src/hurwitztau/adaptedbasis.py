"""Adapted bases w_k, w*_k as Laurent windows, their duality pairing,
multiplicative and Euler recursions, ladder / Kac-Schwarz operators, and the
quantum and classical spectral curves.

All elements live at rational gamma and finitely many s-parameters, with beta
either a rational value (finite_c / dual_finite_c families, where every rho_j
is an exact rational) or a formal series.  Internally the s-data is carried as
sigma = beta^{-1} s, which is what every formula consumes; at rational beta
the two parametrizations interconvert exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import ConfigurationError, OutOfWindowError, SingularParameterError
from .exactalg import BetaSeries, BRing, LaurentWindow, QRing, series_inv
from .symfun import h_of_sigma
from .weights import (
    EXPONENTIAL,
    FINITE_C,
    QUANTUM,
    WeightFamily,
    g_coeff,
    g_value,
    r_factor,
    rho,
    rho_series,
)


@dataclass(frozen=True)
class BasisWindow:
    family: WeightFamily
    beta: object  # Fraction, or None in series mode
    gamma: Fraction
    sigma: tuple  # beta^{-1} s as exact rationals
    k_lo: int
    k_hi: int
    depth: int  # lowest retained z-exponent
    ring: object
    w: dict  # k -> LaurentWindow
    ws: dict  # k -> LaurentWindow

    @property
    def sigma_support(self) -> int:
        """L: the largest index with sigma_L != 0."""
        L = 0
        for i, s in enumerate(self.sigma, start=1):
            if s != 0:
                L = i
        return L

    def r_value(self, j: int):
        """G(j beta) as a ring element."""
        if self.beta is None:
            return r_factor(self.family, j, self.ring.d_max)
        return g_value(self.family, j * self.beta)

    def rho_value(self, j: int):
        if self.beta is None:
            return rho_series(self.family, j, self.ring.d_max, self.gamma)
        return rho(self.family, j, self.beta, self.gamma)

    def rho_inv(self, j: int):
        """rho_j^{-1}.  For j < 0 this is the direct product
        gamma^{-j} prod_{i=0}^{-j-1} G(-i beta): always finite, possibly zero
        (the allowed vanishing-rho degeneration)."""
        if self.beta is None:
            return series_inv(self.rho_value(j))
        if j >= 0:
            value = self.rho_value(j)
            if value == 0:
                raise SingularParameterError(f"rho_{j} = 0: dual basis element undefined")
            return 1 / value
        out = self.gamma ** (-j)
        for i in range(0, -j):
            out *= g_value(self.family, -i * self.beta)
        return out

    def h(self, n: int, sign: int = 1) -> Fraction:
        return h_of_sigma(n, self.sigma, sign)


def _sigma_from(beta_val, s, sigma):
    if sigma is not None:
        return tuple(Fraction(x) for x in sigma)
    if beta_val is None:
        raise ConfigurationError("series-mode basis needs sigma = s/beta directly")
    b = Fraction(beta_val)
    return tuple(Fraction(x) / b for x in s)


def build_basis(
    family: WeightFamily,
    beta_val,
    gamma_val,
    s=(),
    k_range=(-3, 5),
    depth: int = -10,
    sigma=None,
    d_max: int | None = None,
    sides: tuple = ("w", "ws"),
) -> BasisWindow:
    """Assemble w_k and w*_k for k in k_range on the window [depth, k-1].

    w_k(z)  = sum_{j <= k-1} h_{k-j-1}(sigma)  rho_{-j-1} z^j
    w*_k(z) = sum_{j <= k-1} h_{k-j-1}(-sigma) rho_j^{-1}  z^j

    With beta_val=None the coefficients are BetaSeries of order d_max (series
    mode; any family).  At rational beta the rho's must be nonsingular on the
    needed index range, otherwise a SingularParameterError names the culprit;
    ``sides`` restricts construction to one family when only that one is
    regular (the dual side survives vanishing G(-i beta) factors).
    """
    gamma_val = Fraction(gamma_val)
    if beta_val is not None and Fraction(beta_val) == 0:
        raise ConfigurationError("beta must be nonzero")
    sig = _sigma_from(beta_val, s, sigma)
    if beta_val is None:
        if d_max is None:
            raise ConfigurationError("series mode needs d_max")
        ring = BRing(d_max)
        beta = None
    else:
        ring = QRing()
        beta = Fraction(beta_val)
    k_lo, k_hi = k_range
    if k_lo > k_hi or depth > k_lo - 1:
        raise ConfigurationError("empty basis window")
    scratch = BasisWindow(family, beta, gamma_val, sig, k_lo, k_hi, depth, ring, {}, {})
    # every k reads the same rho_j and rho_j^{-1}: compute each once per window
    rho_value, rho_inv = cache(scratch.rho_value), cache(scratch.rho_inv)
    w, ws = {}, {}
    for k in range(k_lo, k_hi + 1):
        if "w" in sides:
            coeffs_w = [
                ring.coerce(scratch.h(k - j - 1, 1)) * rho_value(-j - 1)
                for j in range(depth, k)
            ]
            w[k] = LaurentWindow(depth, tuple(coeffs_w))
        if "ws" in sides:
            coeffs_ws = [
                ring.coerce(scratch.h(k - j - 1, -1)) * rho_inv(j)
                for j in range(depth, k)
            ]
            ws[k] = LaurentWindow(depth, tuple(coeffs_ws))
    return BasisWindow(family, beta, gamma_val, sig, k_lo, k_hi, depth, ring, w, ws)


# ---------------------------------------------------------------------------
# Duality pairing.
# ---------------------------------------------------------------------------


def pairing_check(b: BasisWindow) -> dict:
    """Hirota residue pairing <w_j, w*_l> over all pairs in range.

    Expected delta_{j+l,1}.  Pairs whose windows are too shallow to determine
    the residue are listed as untestable.
    """
    ring = b.ring
    failures, untestable = [], []
    tested = 0
    if not b.w or not b.ws:
        return {"ok": True, "tested": 0, "untestable": [], "failures": [],
                "skipped": "one side of the basis is not built"}
    for j in range(b.k_lo, b.k_hi + 1):
        for l in range(b.k_lo, b.k_hi + 1):
            try:
                value = b.w[j].residue_with(b.ws[l], ring)
            except OutOfWindowError:
                untestable.append((j, l))
                continue
            tested += 1
            want = ring.one() if j + l == 1 else ring.zero()
            if value != want:
                failures.append({"j": j, "l": l, "value": value})
    return {
        "ok": not failures,
        "tested": tested,
        "untestable": untestable,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# Operators.
# ---------------------------------------------------------------------------


def op_R(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    """R = (gamma/z) G(-beta D): diagonal multiplier then shift down."""
    return window.diag(lambda j: b.r_value(-j) * b.gamma, b.ring).shift(-1)


def op_R_star(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    return window.diag(lambda j: b.r_value(j) * b.gamma, b.ring).shift(-1)


def op_a(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    """a = R^{-1}: shift up, divide by gamma G(-beta j) at the new exponent."""

    def factor(j):
        val = b.r_value(-j) * b.gamma
        if b.ring.is_zero(val):
            raise SingularParameterError(f"a undefined: gamma G({-j} beta) = 0")
        return b.ring.inv(val)

    return window.shift(1).diag(factor, b.ring)


def op_a_star(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    def factor(j):
        val = b.r_value(j) * b.gamma
        if b.ring.is_zero(val):
            raise SingularParameterError(f"a* undefined: gamma G({j} beta) = 0")
        return b.ring.inv(val)

    return window.shift(1).diag(factor, b.ring)


def _S_of(b: BasisWindow, apply_R, window: LaurentWindow) -> LaurentWindow:
    """beta^{-1} S(R) = sum_k k sigma_k R^k (and likewise with R*)."""
    out = None
    power = window
    for k, sig in enumerate(b.sigma, start=1):
        power = apply_R(b, power)
        if sig == 0:
            continue
        term = power.scale(k * sig, b.ring)
        out = term if out is None else out.add(term, b.ring)
    if out is None:
        top = window.hi - len(b.sigma)
        return LaurentWindow(window.lo - len(b.sigma), tuple(b.ring.zero() for _ in range(top - (window.lo - len(b.sigma)) + 1)))
    return out


def op_b(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    """b = D + beta^{-1} S(R), with D the Euler operator z d/dz.

    The sign is pinned by Newton's identity on the explicit series: it is the
    operator with b w_k = (k-1) w_k, matching the spectral-equation form
    (beta D + S(R)) w_k = (k-1) beta w_k.
    """
    euler = window.euler(b.ring)
    s_part = _S_of(b, op_R, window)
    return euler.add(s_part, b.ring)


def op_b_star(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    """b* = D - beta^{-1} S(R*); the dual eigenoperator, b* w*_k = (k-1) w*_k."""
    euler = window.euler(b.ring)
    s_part = _S_of(b, op_R_star, window)
    return euler.sub(s_part, b.ring)


def op_c(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    return op_R(b, op_b(b, window))


def op_c_star(b: BasisWindow, window: LaurentWindow) -> LaurentWindow:
    return op_R_star(b, op_b_star(b, window))


def op_c_N(b: BasisWindow, N: int, window: LaurentWindow) -> LaurentWindow:
    base = op_c(b, window)
    shiftdown = op_R(b, window).scale(N, b.ring)
    return base.sub(shiftdown, b.ring)


def _eq_windows(x: LaurentWindow, y: LaurentWindow, ring) -> tuple[bool, int, int]:
    lo = max(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    ok = x.eq_on(y, lo, hi, ring)
    return ok, lo, hi


def ladder_R(b: BasisWindow) -> dict:
    """R w_k = w_{k-1}, R* w*_k = w*_{k-1}, and the two-step iterate."""
    failures = []
    checks = 0
    for k in range(b.k_lo + 1, b.k_hi + 1):
        if b.w:
            got = op_R(b, b.w[k])
            ok, lo, hi = _eq_windows(got, b.w[k - 1], b.ring)
            checks += 1
            if not ok:
                failures.append({"op": "R", "k": k, "window": (lo, hi)})
        if b.ws:
            got = op_R_star(b, b.ws[k])
            ok, lo, hi = _eq_windows(got, b.ws[k - 1], b.ring)
            checks += 1
            if not ok:
                failures.append({"op": "R*", "k": k, "window": (lo, hi)})
    for k in range(b.k_lo + 2, b.k_hi + 1):
        if not b.w:
            break
        got = op_R(b, op_R(b, b.w[k]))
        ok, lo, hi = _eq_windows(got, b.w[k - 2], b.ring)
        checks += 1
        if not ok:
            failures.append({"op": "R^2", "k": k, "window": (lo, hi)})
    return {"ok": not failures, "checks": checks, "failures": failures}


def kac_schwarz_check(b: BasisWindow) -> dict:
    """a w_k = w_{k+1}; b w_k = (k-1) w_k; c w_k = (k-1) w_{k-1};
    c_N w_k = (k-1-N) w_{k-1}; [c, a] w_k = w_k.  Dual statements likewise."""
    ring = b.ring
    failures = []
    checks = 0

    def expect(tag, k, got, want):
        nonlocal checks
        checks += 1
        ok, lo, hi = _eq_windows(got, want, ring)
        if not ok:
            failures.append({"op": tag, "k": k, "window": (lo, hi)})

    for k in range(b.k_lo, b.k_hi):
        if b.w:
            expect("a", k, op_a(b, b.w[k]), b.w[k + 1])
        if b.ws:
            expect("a*", k, op_a_star(b, b.ws[k]), b.ws[k + 1])
    for k in range(b.k_lo, b.k_hi + 1):
        if b.w:
            expect("b", k, op_b(b, b.w[k]), b.w[k].scale(k - 1, ring))
        if b.ws:
            expect("b*", k, op_b_star(b, b.ws[k]), b.ws[k].scale(k - 1, ring))
    for k in range(b.k_lo + 1, b.k_hi + 1):
        if b.w:
            expect("c", k, op_c(b, b.w[k]), b.w[k - 1].scale(k - 1, ring))
            for N in (-2, 1, 3):
                expect(f"c_{N}", k, op_c_N(b, N, b.w[k]), b.w[k - 1].scale(k - 1 - N, ring))
        if b.ws:
            expect("c*", k, op_c_star(b, b.ws[k]), b.ws[k - 1].scale(k - 1, ring))
    for k in range(b.k_lo, b.k_hi):
        if not b.w:
            break
        commutator = op_c(b, op_a(b, b.w[k])).sub(op_a(b, op_c(b, b.w[k])), ring)
        expect("[c,a]", k, commutator, b.w[k])
    return {"ok": not failures, "checks": checks, "failures": failures}


def quantum_curve_residual(b: BasisWindow) -> dict:
    """Residuals of (beta D + S(R)) w_k = (k-1) beta w_k and the dual.

    Everything is divided through by beta, so the check is exact in both the
    rational and series modes: (D + beta^{-1}S(R)) w_k - (k-1) w_k = 0.
    The k = 1 dual case is the quantum spectral curve annihilating the Baker
    function at t = 0 (Psi^-_0(x) = w*_1).
    """
    ring = b.ring
    failures = []
    checks = 0
    for k in range(b.k_lo, b.k_hi + 1):
        if b.w:
            lhs = op_b(b, b.w[k]).sub(b.w[k].scale(k - 1, ring), ring)
            checks += 1
            if not lhs.is_zero_on_valid(ring):
                failures.append({"op": "spectral", "k": k})
        if b.ws:
            lhs = op_b_star(b, b.ws[k]).sub(b.ws[k].scale(k - 1, ring), ring)
            checks += 1
            if not lhs.is_zero_on_valid(ring):
                failures.append({"op": "spectral*", "k": k})
    return {"ok": not failures, "checks": checks, "failures": failures}


# ---------------------------------------------------------------------------
# Recursion matrices.
# ---------------------------------------------------------------------------


def q_band(b: BasisWindow) -> int:
    """Band width LM of the multiplicative recursion for polynomial G."""
    if b.family.kind != FINITE_C:
        raise ConfigurationError("finite band requires a polynomial generating function")
    return b.sigma_support * len(b.family.c)


def recursion_Q(b: BasisWindow, band: int | None = None, margin: int = 3) -> dict:
    """Matrices Q+ and Q- plus verification of the multiplicative recursions.

    Q+_{ij} = sum_{k=i-1}^{j} G(k beta) h_{k-i+1}(sigma) h_{j-k}(-sigma)
    Q-_{ij} = sum_{k=i-1}^{j} G(-k beta) h_{j-k}(sigma) h_{k-i+1}(-sigma)

    Verified relations (in z-language, Psi^+_i(x) = gamma w_{1-i}(1/x)):
        z w_{1-i}  = gamma sum_j Q+_{ij} w_{1-j}
        z w*_{1-i} = gamma sum_j Q-_{ij} w*_{1-j}
    and the band statement Q±_{ij} = 0 for j > i-1 + band (margin extra
    columns are checked).
    """
    ring = b.ring
    if band is None:
        band = q_band(b)

    def q_plus(i, j):
        acc = ring.zero()
        for k in range(i - 1, j + 1):
            acc = acc + b.r_value(k) * (b.h(k - i + 1, 1) * b.h(j - k, -1))
        return acc

    def q_minus(i, j):
        acc = ring.zero()
        for k in range(i - 1, j + 1):
            acc = acc + b.r_value(-k) * (b.h(j - k, 1) * b.h(k - i + 1, -1))
        return acc

    failures = []
    checks = 0
    # recursion: i such that w_{1-i} and all needed w_{1-j} (j <= i-1+band) are in range
    i_lo, i_hi = 1 - b.k_hi, 1 - b.k_lo
    for i in range(i_lo + 1, i_hi - band + 2):
        if b.w:
            lhs = b.w[1 - i].shift(1)
            rhs = None
            for j in range(i - 1, i - 1 + band + 1):
                term = b.w[1 - j].scale(q_plus(i, j) * b.gamma, ring)
                rhs = term if rhs is None else rhs.add(term, ring)
            checks += 1
            ok, lo, hi = _eq_windows(lhs, rhs, ring)
            if not ok:
                failures.append({"op": "Q+", "i": i, "window": (lo, hi)})
        if b.ws:
            lhs = b.ws[1 - i].shift(1)
            rhs = None
            for j in range(i - 1, i - 1 + band + 1):
                term = b.ws[1 - j].scale(q_minus(i, j) * b.gamma, ring)
                rhs = term if rhs is None else rhs.add(term, ring)
            checks += 1
            ok, lo, hi = _eq_windows(lhs, rhs, ring)
            if not ok:
                failures.append({"op": "Q-", "i": i, "window": (lo, hi)})
    # band vanishing with margin
    for i in range(i_lo, i_hi + 1):
        for j in range(i - 1 + band + 1, i - 1 + band + margin + 1):
            checks += 1
            if not ring.is_zero(q_plus(i, j)):
                failures.append({"op": "Q+ band", "i": i, "j": j})
            checks += 1
            if not ring.is_zero(q_minus(i, j)):
                failures.append({"op": "Q- band", "i": i, "j": j})
    q_plus_matrix = {
        (i, j): q_plus(i, j)
        for i in range(i_lo, i_hi + 1)
        for j in range(i - 1, i - 1 + band + 1)
    }
    q_minus_matrix = {
        (i, j): q_minus(i, j)
        for i in range(i_lo, i_hi + 1)
        for j in range(i - 1, i - 1 + band + 1)
    }
    return {
        "ok": not failures,
        "checks": checks,
        "failures": failures,
        "band": band,
        "Q+": q_plus_matrix,
        "Q-": q_minus_matrix,
    }


def general_Q_cross_check(b: BasisWindow, size: int = 6) -> dict:
    """The general lower-triangular recursion matrices, specialized to the
    hypergeometric g, against the explicit hypergeometric form.

    g_{ij} = rho_i h_{i-j}(sigma), g^{-1}_{ij} = rho_j^{-1} h_{i-j}(-sigma);
    Qt+_{kj} = sum_{i=-k-1}^{-j} g^{-1}_{-j,i} g_{i+1,-k},
    Qt-_{kj} = sum_{i=j-2}^{k-1} g^{-1}_{k-1,i} g_{i+1,j-1},
    and the bridge is Q+_{kj} = gamma^{-1} Qt-_{jk}, Q-_{kj} = gamma^{-1} Qt+_{jk}.
    """
    ring = b.ring

    def g_el(i, j):
        return b.rho_value(i) * ring.coerce(b.h(i - j, 1)) if i >= j else ring.zero()

    def g_inv_el(i, j):
        return b.rho_inv(j) * ring.coerce(b.h(i - j, -1)) if i >= j else ring.zero()

    def qt_plus(k, j):
        acc = ring.zero()
        for i in range(-k - 1, -j + 1):
            acc = acc + g_inv_el(-j, i) * g_el(i + 1, -k)
        return acc

    def qt_minus(k, j):
        acc = ring.zero()
        for i in range(j - 2, k):
            acc = acc + g_inv_el(k - 1, i) * g_el(i + 1, j - 1)
        return acc

    def q_plus(i, j):
        acc = ring.zero()
        for k in range(i - 1, j + 1):
            acc = acc + b.r_value(k) * (b.h(k - i + 1, 1) * b.h(j - k, -1))
        return acc

    def q_minus(i, j):
        acc = ring.zero()
        for k in range(i - 1, j + 1):
            acc = acc + b.r_value(-k) * (b.h(j - k, 1) * b.h(k - i + 1, -1))
        return acc

    gamma_inv = Fraction(1) / b.gamma
    failures = []
    checks = 0
    lo = -(size // 2)
    for k in range(lo, lo + size):
        for j in range(lo, lo + size):
            checks += 2
            if q_plus(k, j) != qt_minus(j, k) * gamma_inv:
                failures.append({"rel": "Q+ vs Qt-", "k": k, "j": j})
            if q_minus(k, j) != qt_plus(j, k) * gamma_inv:
                failures.append({"rel": "Q- vs Qt+", "k": k, "j": j})
    return {"ok": not failures, "checks": checks, "failures": failures}


def euler_P(b: BasisWindow) -> dict:
    """Lower-triangular Euler matrices and their verification.

    Pt±_{ij} = (i-1) delta_{ij} -/+ (i-j) sigma_{i-j}   (i >= j, else 0),
    with D w_k = sum_j Pt+_{kj} w_j and D w*_k = sum_j Pt-_{kj} w*_j.
    The x-variable form is the antidiagonal transpose: with
    M±_{kj} := -Pt±_{1-k,1-j} = k delta_{kj} + (j-k) sigma_{j-k}, the
    rescaled relation is (x d/dx) Psi^±_k = sum_j M±_{kj} Psi^±_j, i.e.
    P^± = beta M± after restoring the overall beta.
    """
    ring = b.ring
    L = b.sigma_support

    def pt(i, j, sign):
        if i == j:
            return Fraction(i - 1)
        n = i - j
        if 1 <= n <= len(b.sigma):
            return -sign * Fraction(n) * b.sigma[n - 1]
        return Fraction(0)

    failures = []
    checks = 0
    for k in range(b.k_lo + L, b.k_hi + 1):
        if b.w:
            lhs = b.w[k].euler(ring)
            rhs = None
            for j in range(k - L, k + 1):
                term = b.w[j].scale(pt(k, j, +1), ring)
                rhs = term if rhs is None else rhs.add(term, ring)
            checks += 1
            ok, lo, hi = _eq_windows(lhs, rhs, ring)
            if not ok:
                failures.append({"op": "Pt+", "k": k, "window": (lo, hi)})
        if b.ws:
            lhs = b.ws[k].euler(ring)
            rhs = None
            for j in range(k - L, k + 1):
                term = b.ws[j].scale(pt(k, j, -1), ring)
                rhs = term if rhs is None else rhs.add(term, ring)
            checks += 1
            ok, lo, hi = _eq_windows(lhs, rhs, ring)
            if not ok:
                failures.append({"op": "Pt-", "k": k, "window": (lo, hi)})
    # x-form: D_x Psi+_k = -D_z (gamma w_{1-k}); M+_{kj} = k delta + (j-k) sigma_{j-k}
    for k in range(1 - b.k_hi, 1 - b.k_lo - L + 1):
        if not b.w:
            break
        lhs = b.w[1 - k].euler(ring).scale(-1, ring)
        rhs = None
        for j in range(k, k + L + 1):
            m = Fraction(k) if j == k else Fraction(j - k) * b.sigma[j - k - 1]
            term = b.w[1 - j].scale(m, ring)
            rhs = term if rhs is None else rhs.add(term, ring)
        checks += 1
        ok, lo, hi = _eq_windows(lhs, rhs, ring)
        if not ok:
            failures.append({"op": "P+ (x-form)", "k": k, "window": (lo, hi)})
    pt_plus = {
        (i, j): pt(i, j, +1)
        for i in range(b.k_lo, b.k_hi + 1)
        for j in range(max(b.k_lo, i - L), i + 1)
    }
    pt_minus = {
        (i, j): pt(i, j, -1)
        for i in range(b.k_lo, b.k_hi + 1)
        for j in range(max(b.k_lo, i - L), i + 1)
    }
    return {
        "ok": not failures,
        "checks": checks,
        "failures": failures,
        "Pt+": pt_plus,
        "Pt-": pt_minus,
    }


# ---------------------------------------------------------------------------
# Classical spectral curve.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalCurve:
    family_label: str
    poly: dict | None  # (x-exponent, y-exponent) -> Fraction, or None if symbolic
    symbolic: str | None = None


def classical_curve(family: WeightFamily, s, gamma_val) -> ClassicalCurve:
    """P(x, y) = x y - S(gamma x G(x y)) for polynomial G, expanded exactly.

    For the exponential and quantum families the curve is transcendental and
    only a symbolic rendering is returned.
    """
    gamma_val = Fraction(gamma_val)
    s = tuple(Fraction(x) for x in s)
    if family.kind == EXPONENTIAL:
        return ClassicalCurve(
            family.label,
            None,
            "x*y = sum_i i*s_i*gamma^i*x^i*exp(i*x*y)",
        )
    if family.kind == QUANTUM:
        return ClassicalCurve(
            family.label,
            None,
            "x*y = sum_i i*s_i*gamma^i*x^i*(prod_{j>=1}(1 - q^j*x*y))^i",
        )
    if family.kind != FINITE_C:
        raise ConfigurationError("classical curve needs a polynomial G")
    M = len(family.c)
    # G(xy) as a polynomial in the single variable u = x y
    g_of_u = [g_coeff(family, m) for m in range(M + 1)]
    poly: dict = {(1, 1): Fraction(1)}  # x y

    # u-powers of gamma x G(u): compute S(gamma x G(xy)) term by term
    def upoly_mul(a, b):
        out = {}
        for i, ai in a.items():
            for j, bj in b.items():
                out[i + j] = out.get(i + j, Fraction(0)) + ai * bj
        return out

    g_upoly = {m: c for m, c in enumerate(g_of_u) if c != 0}
    power = {0: Fraction(1)}  # (gamma x G)^0 in u with x-bookkeeping below
    for k, sk in enumerate(s, start=1):
        power = upoly_mul(power, g_upoly)
        if sk == 0:
            continue
        # (gamma x G(u))^k = gamma^k x^k * power(u); u^m = x^m y^m
        for m, cm in power.items():
            key = (k + m, m)
            poly[key] = poly.get(key, Fraction(0)) - k * sk * gamma_val**k * cm
    poly = {k: v for k, v in poly.items() if v != 0}
    return ClassicalCurve(family.label, poly)
