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
from functools import cache, partial
from typing import Callable

from .errors import ConfigurationError, OutOfWindowError, SingularParameterError
from .exactalg import BetaSeries, LaurentWindow, scalar_ring
from .symfun import h_list, support
from .weights import EXPONENTIAL, QUANTUM, WeightFamily, g_at, r_factor
from .weights import rho, rho_inv


@dataclass(frozen=True)
class BasisWindow:
    """The elements w_k, w*_k of a window and the scalar tables they are read
    from.  ``gamma_g``, ``rho`` and ``rho_inv`` compute an index on first use
    and keep it for the window's lifetime, so a singular index raises where it
    is first read."""

    family: WeightFamily
    gamma: Fraction
    sigma: tuple  # beta^{-1} s as exact rationals
    k_lo: int
    k_hi: int
    depth: int  # lowest retained z-exponent
    ring: object  # QRing(beta) or BRing(d_max): carries the beta mode
    w: dict  # k -> LaurentWindow
    ws: dict  # k -> LaurentWindow
    gamma_g: Callable  # j -> gamma G(j beta)
    rho: Callable  # j -> rho_j
    rho_inv: Callable  # j -> rho_j^{-1}

    def built_sides(self) -> list:
        """(side, elements) for each side that was built: +1 is w, -1 is w*."""
        return [(side, el) for side, el in ((1, self.w), (-1, self.ws)) if el]


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
    ring = scalar_ring(beta_val, d_max)
    k_lo, k_hi = k_range
    if k_lo > k_hi or depth > k_lo - 1:
        raise ConfigurationError("empty basis window")
    # every k reads the same rho_j and rho_j^{-1}: compute each once per window
    rho_j = cache(lambda j: rho(family, j, gamma_val, ring))
    rho_j_inv = cache(lambda j: rho_inv(family, j, gamma_val, ring))
    h = {side: h_list(sig, side, k_hi - depth - 1) for side in (1, -1)}
    # the rho factor of the z^j coefficient: rho_{-j-1} in w_k, rho_j^{-1} in w*_k
    rho_factor = {1: lambda j: rho_j(-j - 1), -1: rho_j_inv}
    w, ws = {}, {}
    built = [(side, el) for side, name, el in ((1, "w", w), (-1, "ws", ws)) if name in sides]
    for k in range(k_lo, k_hi + 1):
        for side, el in built:
            el[k] = LaurentWindow(depth, tuple(
                h[side][k - j - 1] * rho_factor[side](j) for j in range(depth, k)
            ))
    gamma_g = cache(lambda j: g_at(family, j, ring) * gamma_val)
    return BasisWindow(family, gamma_val, sig, k_lo, k_hi, depth, ring, w, ws,
                       gamma_g, rho_j, rho_j_inv)


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
                value = b.w[j].residue_with(b.ws[l])
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
# Operators.  Each takes the side epsilon = +1 (basis w) or -1 (dual w*): the
# dual operator is the basis one with G(j beta) -> G(-j beta), sigma -> -sigma.
# ---------------------------------------------------------------------------

_STAR = {1: "", -1: "*"}  # op-label suffix of each side
_PLUS_MINUS = {1: "+", -1: "-"}  # matrix-label suffix of each side


def op_R(b: BasisWindow, window: LaurentWindow, side: int = 1) -> LaurentWindow:
    """R = (gamma/z) G(-beta D), R* = (gamma/z) G(beta D): diagonal multiplier
    then shift down."""
    return window.diag(lambda j: b.gamma_g(-side * j)).shift(-1)


def op_a(b: BasisWindow, window: LaurentWindow, side: int = 1) -> LaurentWindow:
    """a = R^{-1}: shift up, divide by gamma G(-side beta j) at the new exponent."""

    def factor(j):
        val = b.gamma_g(-side * j)
        if not val:
            raise _a_undefined(side, j)
        return 1 / val

    return window.shift(1).diag(factor)


def _a_undefined(side: int, j: int) -> SingularParameterError:
    return SingularParameterError(f"a{_STAR[side]} undefined: gamma G({-side * j} beta) = 0")


def _lincomb(terms, out: LaurentWindow | None = None) -> LaurentWindow | None:
    """out + sum of coefficient * window over the (coefficient, window) pairs."""
    for coeff, window in terms:
        term = window.scale(coeff)
        out = term if out is None else out.add(term)
    return out


def op_b(b: BasisWindow, window: LaurentWindow, side: int = 1) -> LaurentWindow:
    """b = D + beta^{-1} S(R) and b* = D - beta^{-1} S(R*), with D the Euler
    operator z d/dz and beta^{-1} S(R) = sum_k k sigma_k R^k.

    The sign is pinned by Newton's identity on the explicit series: it is the
    operator with b w_k = (k-1) w_k, matching the spectral-equation form
    (beta D + S(R)) w_k = (k-1) beta w_k; likewise b* w*_k = (k-1) w*_k.
    """
    terms, power = [], window
    for k, sig in enumerate(b.sigma, start=1):
        power = op_R(b, power, side)
        if sig != 0:
            terms.append((side * k * sig, power))
    return _lincomb(terms, window.euler())


def op_c(b: BasisWindow, window: LaurentWindow, side: int = 1) -> LaurentWindow:
    return op_R(b, op_b(b, window, side), side)


def op_c_N(b: BasisWindow, N: int, window: LaurentWindow) -> LaurentWindow:
    base = op_c(b, window)
    shiftdown = op_R(b, window).scale(N)
    return base.sub(shiftdown)


class _Checks:
    """Counts the checks of one report and keeps its failures in order."""

    def __init__(self):
        self.checks = 0
        self.failures = []

    def expect(self, ok: bool, **failure) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(failure)

    def equal(self, op: str, got: LaurentWindow, want: LaurentWindow, **where) -> None:
        """got == want on the window from the higher bottom to the higher top."""
        lo, hi = max(got.lo, want.lo), max(got.hi, want.hi)
        self.expect(got.eq_on(want, lo, hi), op=op, **where, window=(lo, hi))

    def report(self, **extra) -> dict:
        return {"ok": not self.failures, "checks": self.checks, "failures": self.failures,
                **extra}


def ladder_R(b: BasisWindow) -> dict:
    """R w_k = w_{k-1}, R* w*_k = w*_{k-1}, and the two-step iterate."""
    c = _Checks()
    for k in range(b.k_lo + 1, b.k_hi + 1):
        for side, el in b.built_sides():
            c.equal("R" + _STAR[side], op_R(b, el[k], side), el[k - 1], k=k)
    if b.w:
        for k in range(b.k_lo + 2, b.k_hi + 1):
            c.equal("R^2", op_R(b, op_R(b, b.w[k])), b.w[k - 2], k=k)
    return c.report()


def kac_schwarz_check(b: BasisWindow) -> dict:
    """a w_k = w_{k+1}; b w_k = (k-1) w_k; c w_k = (k-1) w_{k-1};
    c_N w_k = (k-1-N) w_{k-1}; [c, a] w_k = w_k.  Dual statements likewise,
    except c_N and [c, a]."""
    c = _Checks()
    for k in range(b.k_lo, b.k_hi):
        for side, el in b.built_sides():
            c.equal("a" + _STAR[side], op_a(b, el[k], side), el[k + 1], k=k)
    for k in range(b.k_lo, b.k_hi + 1):
        for side, el in b.built_sides():
            c.equal("b" + _STAR[side], op_b(b, el[k], side), el[k].scale(k - 1), k=k)
    for k in range(b.k_lo + 1, b.k_hi + 1):
        for side, el in b.built_sides():
            c.equal("c" + _STAR[side], op_c(b, el[k], side), el[k - 1].scale(k - 1), k=k)
            if side == 1:
                for N in (-2, 1, 3):
                    c.equal(f"c_{N}", op_c_N(b, N, el[k]), el[k - 1].scale(k - 1 - N), k=k)
    if b.w:
        for k in range(b.k_lo, b.k_hi):
            commutator = op_c(b, op_a(b, b.w[k])).sub(op_a(b, op_c(b, b.w[k])))
            c.equal("[c,a]", commutator, b.w[k], k=k)
    return c.report()


def quantum_curve_residual(b: BasisWindow) -> dict:
    """Residuals of (beta D + S(R)) w_k = (k-1) beta w_k and the dual.

    Everything is divided through by beta, so the check is exact in both the
    rational and series modes: (D + beta^{-1}S(R)) w_k - (k-1) w_k = 0.
    The k = 1 dual case is the quantum spectral curve annihilating the Baker
    function at t = 0 (Psi^-_0(x) = w*_1).
    """
    c = _Checks()
    for k in range(b.k_lo, b.k_hi + 1):
        for side, el in b.built_sides():
            lhs = op_b(b, el[k], side).sub(el[k].scale(k - 1))
            c.expect(lhs.is_zero_on_valid(), op="spectral" + _STAR[side], k=k)
    return c.report()


# ---------------------------------------------------------------------------
# Recursion matrices.
# ---------------------------------------------------------------------------


def q_band(family: WeightFamily, sigma) -> int:
    """Band width LM of the multiplicative recursion: L = support(sigma), M = deg G."""
    if family.degree is None:
        raise ConfigurationError("finite band requires a polynomial generating function")
    return support(sigma) * family.degree


def recursion_entry(family: WeightFamily, ring, sigma: tuple, i: int, j: int, side: int):
    """Q+_{ij} = sum_{k=i-1}^{j} G(k beta) h_{k-i+1}(sigma) h_{j-k}(-sigma), and
    Q-_{ij} (side -1) likewise with beta -> -beta, sigma -> -sigma.  The
    Christoffel-Darboux matrix reads A_{ij} = -Q+_{1-i,j} off it (i, j >= 1)."""
    acc = ring.zero()
    if j < i - 1:
        return acc
    h_in, h_out = h_list(sigma, side, j - i + 1), h_list(sigma, -side, j - i + 1)
    for k in range(i - 1, j + 1):
        acc = acc + g_at(family, side * k, ring) * (h_in[k - i + 1] * h_out[j - k])
    return acc


Q_BAND_MARGIN = 3  # columns beyond the band checked to vanish


def recursion_Q(b: BasisWindow) -> dict:
    """Matrices Q+ and Q- plus verification of the multiplicative recursions.

    Verified relations (in z-language, Psi^+_i(x) = gamma w_{1-i}(1/x)):
        z w_{1-i}  = gamma sum_j Q+_{ij} w_{1-j}
        z w*_{1-i} = gamma sum_j Q-_{ij} w*_{1-j}
    and the band statement Q±_{ij} = 0 for j > i-1 + band, band = q_band(family, sigma)
    (Q_BAND_MARGIN extra columns are checked).
    """
    band = q_band(b.family, b.sigma)
    q = partial(recursion_entry, b.family, b.ring, b.sigma)
    c = _Checks()
    # recursion: i such that w_{1-i} (i <= i_hi) and all needed w_{1-j}
    # (i-1 <= j <= i-1+band) are in range; band 0 needs only the first bound
    i_lo, i_hi = 1 - b.k_hi, 1 - b.k_lo
    for i in range(i_lo + 1, i_hi - max(band, 1) + 2):
        for side, el in b.built_sides():
            rhs = _lincomb((q(i, j, side) * b.gamma, el[1 - j]) for j in range(i - 1, i + band))
            c.equal("Q" + _PLUS_MINUS[side], el[1 - i].shift(1), rhs, i=i)
    # band vanishing with margin
    for i in range(i_lo, i_hi + 1):
        for j in range(i + band, i + band + Q_BAND_MARGIN):
            for side in (1, -1):
                c.expect(not q(i, j, side), op=f"Q{_PLUS_MINUS[side]} band", i=i, j=j)
    matrices = {
        "Q" + _PLUS_MINUS[side]: {
            (i, j): q(i, j, side) for i in range(i_lo, i_hi + 1) for j in range(i - 1, i + band)
        }
        for side in (1, -1)
    }
    return c.report(band=band, **matrices)


def general_Q_cross_check(b: BasisWindow, size: int = 6) -> dict:
    """The general lower-triangular recursion matrices, specialized to the
    hypergeometric g, against the explicit hypergeometric form.

    g_{ij} = rho_i h_{i-j}(sigma), g^{-1}_{ij} = rho_j^{-1} h_{i-j}(-sigma);
    Qt+_{kj} = sum_{i=-k-1}^{-j} g^{-1}_{-j,i} g_{i+1,-k},
    Qt-_{kj} = sum_{i=j-2}^{k-1} g^{-1}_{k-1,i} g_{i+1,j-1},
    and the bridge is Q+_{kj} = gamma^{-1} Qt-_{jk}, Q-_{kj} = gamma^{-1} Qt+_{jk}.
    """
    ring = b.ring
    q = partial(recursion_entry, b.family, ring, b.sigma)
    h = {side: h_list(b.sigma, side, size) for side in (1, -1)}  # i - j <= size below

    def g_el(i, j):
        if i < j:
            return ring.zero()
        return b.rho(i) * h[1][i - j]

    def g_inv_el(i, j):
        if i < j:
            return ring.zero()
        return b.rho_inv(j) * h[-1][i - j]

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

    gamma_inv = Fraction(1) / b.gamma
    c = _Checks()
    lo = -(size // 2)
    for k in range(lo, lo + size):
        for j in range(lo, lo + size):
            c.expect(q(k, j, 1) == qt_minus(j, k) * gamma_inv, rel="Q+ vs Qt-", k=k, j=j)
            c.expect(q(k, j, -1) == qt_plus(j, k) * gamma_inv, rel="Q- vs Qt+", k=k, j=j)
    return c.report()


def euler_P(b: BasisWindow) -> dict:
    """Lower-triangular Euler matrices and their verification.

    Pt±_{ij} = (i-1) delta_{ij} -/+ (i-j) sigma_{i-j}   (i >= j, else 0),
    with D w_k = sum_j Pt+_{kj} w_j and D w*_k = sum_j Pt-_{kj} w*_j.
    The x-variable form is the antidiagonal transpose: with
    M±_{kj} := -Pt±_{1-k,1-j} = k delta_{kj} + (j-k) sigma_{j-k}, the
    rescaled relation is (x d/dx) Psi^±_k = sum_j M±_{kj} Psi^±_j, i.e.
    P^± = beta M± after restoring the overall beta.
    """
    L = support(b.sigma)

    def pt(i, j, side):
        if i == j:
            return Fraction(i - 1)
        n = i - j
        if 1 <= n <= len(b.sigma):
            return -side * Fraction(n) * b.sigma[n - 1]
        return Fraction(0)

    c = _Checks()
    for k in range(b.k_lo + L, b.k_hi + 1):
        for side, el in b.built_sides():
            rhs = _lincomb((pt(k, j, side), el[j]) for j in range(k - L, k + 1))
            c.equal("Pt" + _PLUS_MINUS[side], el[k].euler(), rhs, k=k)
    # x-form: D_x Psi+_k = -D_z (gamma w_{1-k}); M+_{kj} = k delta + (j-k) sigma_{j-k}
    if b.w:
        for k in range(1 - b.k_hi, 1 - b.k_lo - L + 1):
            rhs = _lincomb(
                (Fraction(k) if j == k else Fraction(j - k) * b.sigma[j - k - 1], b.w[1 - j])
                for j in range(k, k + L + 1)
            )
            c.equal("P+ (x-form)", b.w[1 - k].euler().scale(-1), rhs, k=k)
    matrices = {
        "Pt" + _PLUS_MINUS[side]: {
            (i, j): pt(i, j, side)
            for i in range(b.k_lo, b.k_hi + 1)
            for j in range(max(b.k_lo, i - L), i + 1)
        }
        for side in (1, -1)
    }
    return c.report(**matrices)


# ---------------------------------------------------------------------------
# Classical spectral curve.
# ---------------------------------------------------------------------------


def classical_curve(family: WeightFamily, s, gamma_val) -> dict:
    """P(x, y) = x y - S(gamma x G(x y)) for polynomial G, expanded exactly, as
    the report {"family", "polynomial", "symbolic"}: the polynomial maps
    (x-exponent, y-exponent) to its coefficient.

    For the exponential and quantum families the curve is transcendental:
    the polynomial is None and only a symbolic rendering is returned.
    """
    gamma_val = Fraction(gamma_val)
    s = tuple(Fraction(x) for x in s)
    if family.kind == EXPONENTIAL:
        return {"family": family.label, "polynomial": None,
                "symbolic": "x*y = sum_i i*s_i*gamma^i*x^i*exp(i*x*y)"}
    if family.kind == QUANTUM:
        return {"family": family.label, "polynomial": None,
                "symbolic": "x*y = sum_i i*s_i*gamma^i*x^i*(prod_{j>=1}(1 + q^j*x*y))^i"}
    M = family.degree
    if M is None:
        raise ConfigurationError("classical curve needs a polynomial G")
    poly: dict = {(1, 1): Fraction(1)}  # x y
    # G(u)^k in the single variable u = x y, exact: deg G^k <= M len(s)
    g = r_factor(family, 1, M * len(s))
    power = BetaSeries.one(g.d_max)
    for k, sk in enumerate(s, start=1):
        power = power * g
        if sk == 0:
            continue
        # (gamma x G(u))^k = gamma^k x^k G(u)^k; u^m = x^m y^m
        for m, cm in enumerate(power.coeffs):
            key = (k + m, m)
            poly[key] = poly.get(key, Fraction(0)) - k * sk * gamma_val**k * cm
    poly = {k: v for k, v in poly.items() if v != 0}
    return {"family": family.label, "polynomial": poly, "symbolic": None}
