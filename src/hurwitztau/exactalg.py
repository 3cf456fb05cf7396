"""Exact truncated rings: beta-series over Q, graded flow-variable polynomials,
and Laurent windows.

Every computation in this package happens in one of three rings, all exact
over the rationals:

* ``BetaSeries`` -- truncated power series in the expansion parameter beta,
  indices 0..d_max, stored as integer numerators over one common denominator
  and read out as `fractions.Fraction`.  Arithmetic above d_max is silently
  dropped; mixing two different truncation orders is a configuration error.
* ``GradedPoly`` -- polynomials in two alphabets of weighted flow variables
  t_1, t_2, ... and s_1, s_2, ... (weight of t_i and s_i is i) with an integer
  grade per term and BetaSeries coefficients, truncated at weighted degree
  w_max separately in each alphabet.
* ``LaurentWindow`` -- a window of a formal Laurent series in z.  Coefficients
  above the stored top are known to vanish; coefficients below the window are
  unknown, and operations track the guaranteed-valid sub-window of results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping

from .errors import (
    ConfigurationError,
    DomainError,
    NonInvertibleError,
    OutOfWindowError,
)

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int or Fraction, denominator > 0."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class BetaSeries:
    """Truncated formal power series in beta with exact rational coefficients.

    Stored as integer numerators over one common denominator (FLINT's
    ``fmpq_poly`` layout): coefficient d is ``nums[d] / den``.  The pair is
    always canonical, den > 0 and gcd(den, *nums) = 1, so equal series have
    equal fields and the zero series has den = 1.  Arithmetic takes one gcd
    per result; only the constructor's input, ``coeffs`` and ``__getitem__``
    deal in Fractions.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction]):
        pairs = [_ratio(c) for c in coeffs]
        if not pairs:
            raise ConfigurationError("BetaSeries needs at least the order-0 coefficient")
        # over the lcm of reduced denominators the numerators are already coprime to it
        den = lcm(*(q for _, q in pairs))
        self.nums = tuple(p * (den // q) for p, q in pairs)
        self.den = den

    @staticmethod
    def _reduced(nums, den: int) -> "BetaSeries":
        """The canonical series nums/den, given den > 0."""
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [n // g for n in nums]
                den //= g
        out = object.__new__(BetaSeries)
        out.nums = tuple(nums)
        out.den = den
        return out

    @property
    def d_max(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, orders 0..d_max."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    @staticmethod
    def zero(d_max: int) -> "BetaSeries":
        return BetaSeries._reduced((0,) * (d_max + 1), 1)

    @staticmethod
    def one(d_max: int) -> "BetaSeries":
        return BetaSeries._reduced((1,) + (0,) * d_max, 1)

    @staticmethod
    def constant(value, d_max: int) -> "BetaSeries":
        p, q = _ratio(value)
        return BetaSeries._reduced((p,) + (0,) * d_max, q)

    @staticmethod
    def variable(d_max: int) -> "BetaSeries":
        """The series beta itself."""
        if d_max < 1:
            raise ConfigurationError("need d_max >= 1 to represent beta")
        return BetaSeries._reduced((0, 1) + (0,) * (d_max - 1), 1)

    def _check_compatible(self, other: "BetaSeries") -> None:
        if len(self.nums) != len(other.nums):
            raise ConfigurationError(
                f"mismatched truncation orders {self.d_max} != {other.d_max}"
            )

    def _scaled(self, p: int, q: int) -> "BetaSeries":
        """self * p/q, for q > 0."""
        return BetaSeries._reduced([n * p for n in self.nums], self.den * q)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BetaSeries.constant(other, self.d_max)
        if not isinstance(other, BetaSeries):
            return NotImplemented
        self._check_compatible(other)
        da, db = self.den, other.den
        if da == db:
            return BetaSeries._reduced([a + b for a, b in zip(self.nums, other.nums)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return BetaSeries._reduced(
            [a * ma + b * mb for a, b in zip(self.nums, other.nums)], da * ma
        )

    __radd__ = __add__

    def __neg__(self):
        return BetaSeries._reduced([-n for n in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BetaSeries.constant(other, self.d_max)
        if not isinstance(other, BetaSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(*_ratio(other))
        if not isinstance(other, BetaSeries):
            return NotImplemented
        self._check_compatible(other)
        b = other.nums
        n = len(b)
        out = [0] * n
        for i, a in enumerate(self.nums):
            if a:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] += a * b[j]
        return BetaSeries._reduced(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            if p == 0:
                raise ZeroDivisionError("division of BetaSeries by zero scalar")
            return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)
        if isinstance(other, BetaSeries):
            return self * series_inv(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return series_inv(self) * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BetaSeries.constant(other, self.d_max)
        if not isinstance(other, BetaSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __bool__(self):
        return any(self.nums)

    def __getitem__(self, d: int) -> Fraction:
        if not 0 <= d <= self.d_max:
            raise OutOfWindowError(f"beta order {d} outside [0, {self.d_max}]")
        return Fraction(self.nums[d], self.den)

    def shift(self, k: int) -> "BetaSeries":
        """Multiply by beta^k (k >= 0), truncating at the same d_max."""
        if k < 0:
            raise ConfigurationError("shift exponent must be nonnegative")
        n = len(self.nums)
        return BetaSeries._reduced(((0,) * min(k, n) + self.nums)[:n], self.den)

    def dilate(self, x: int) -> "BetaSeries":
        """f(x beta) for an integer x: coefficient d times x^d, over the same den."""
        out, power = [], 1
        for n in self.nums:
            out.append(n * power)
            power *= x
        return BetaSeries._reduced(out, self.den)

    def __repr__(self):
        return f"BetaSeries({list(self.coeffs)})"


def series_inv(a: BetaSeries) -> BetaSeries:
    """Multiplicative inverse; requires a nonzero constant term.

    With a = A/D over the integers, 1/A has coefficients C_m / A_0^{m+1}, where
    C_0 = 1 and C_m = -sum_{k=1..m} A_k A_0^{k-1} C_{m-k}: the recurrence
    b_m = -(1/a_0) sum_{k=1..m} a_k b_{m-k} cleared of denominators.
    """
    A = a.nums
    if not A[0]:
        raise NonInvertibleError("series with zero constant term is not invertible")
    d = len(A) - 1
    powers = [A[0] ** k for k in range(d + 1)]
    C = [1]
    for m in range(1, d + 1):
        C.append(-sum(A[k] * powers[k - 1] * C[m - k] for k in range(1, m + 1) if A[k]))
    den = A[0] * powers[d]
    sign = 1 if den > 0 else -1
    return BetaSeries._reduced(
        [sign * a.den * c * powers[d - m] for m, c in enumerate(C)], sign * den
    )


def exp_pieces(a, one, zero) -> list:
    """exp of a graded element given by its homogeneous pieces a[0..n], with a[0] = 0.

    Returns the pieces E[0..n] of exp(a) by the degree recurrence
    n E_n = sum_{k=1..n} k a_k E_{n-k}, E_0 = one.  Only products of pieces
    and rational scalings are taken, so the result is exact in any graded
    ring over Q, truncated ones included.  a[0] is not read.
    """
    ka = [(k, a[k] * k) for k in range(1, len(a)) if a[k]]
    out = [one]
    for n in range(1, len(a)):
        acc = zero
        for k, term in ka:
            if k > n:
                break
            acc = acc + term * out[n - k]
        out.append(acc * Fraction(1, n))
    return out


def log_pieces(a, zero) -> list:
    """log of a graded element given by its homogeneous pieces a[0..n], with a[0] = 1.

    Returns the pieces L[0..n] of log(a) by the degree recurrence
    n L_n = n a_n - sum_{k=1..n-1} k L_k a_{n-k}, L_0 = zero; exact under the
    same conditions as exp_pieces.  a[0] is not read.
    """
    out = [zero]
    kl = []  # (k, k L_k) for the nonzero L_k
    for n in range(1, len(a)):
        acc = a[n] * n
        for k, term in kl:
            if a[n - k]:
                acc = acc - term * a[n - k]
        out.append(acc * Fraction(1, n))
        if out[n]:
            kl.append((n, out[n] * n))
    return out


def series_exp(a: BetaSeries) -> BetaSeries:
    """exp of a series with constant term 0."""
    if a.nums[0]:
        raise DomainError("series_exp requires constant term 0")
    return BetaSeries(exp_pieces(a.coeffs, _ONE, _ZERO))


# ---------------------------------------------------------------------------
# Scalar rings.  The basis/kernel modules are generic over the coefficient
# ring, and the ring carries beta: exact rationals at a rational beta, or
# BetaSeries with beta kept as a formal series.  A ring only makes values
# (zero, one, beta^m); the values combine themselves.  Each ring exposes
# ``beta`` and ``d_max``; exactly one of the two is None.
# ---------------------------------------------------------------------------


class QRing:
    """Coefficients are plain Fractions; beta, if given, is a rational value."""

    d_max = None

    def __init__(self, beta=None):
        self.beta = None if beta is None else Fraction(beta)

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def beta_power(self, m: int):
        return self.beta**m


class BRing:
    """Coefficients are BetaSeries truncated at a shared d_max; beta is formal."""

    beta = None

    def __init__(self, d_max: int):
        self.d_max = d_max

    def zero(self):
        return BetaSeries.zero(self.d_max)

    def one(self):
        return BetaSeries.one(self.d_max)

    def beta_power(self, m: int):
        """beta^m, zero above the truncation order."""
        return self.one().shift(m)


def scalar_ring(beta_val, d_max: int | None):
    """QRing(beta_val) at a rational beta; BRing(d_max) when beta_val is None."""
    if beta_val is not None:
        return QRing(beta_val)
    if d_max is None:
        raise ConfigurationError("series mode needs d_max")
    return BRing(d_max)


# ---------------------------------------------------------------------------
# Graded polynomials in the flow variables.
# ---------------------------------------------------------------------------

Exponents = tuple  # exponent vector, entry i is the exponent of t_{i+1}/s_{i+1}
Key = tuple  # (t_exponents, s_exponents, grade)


def exp_weight(exps: Exponents) -> int:
    """Weighted degree: t_i and s_i carry weight i."""
    return sum((i + 1) * e for i, e in enumerate(exps))


def _strip(exps) -> Exponents:
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def exps_mul(a: Exponents, b: Exponents) -> Exponents:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, e in enumerate(b):
        out[i] += e
    return _strip(tuple(out))


def monomial_from_partition(parts: Iterable[int]) -> Exponents:
    """Exponent vector of prod_i x_{p_i}, e.g. (2,1,1) -> t_2 t_1^2 -> (2, 1)."""
    parts = list(parts)
    if not parts:
        return ()
    out = [0] * max(parts)
    for p in parts:
        out[p - 1] += 1
    return tuple(out)


class GradedPoly:
    """Sparse polynomial over BetaSeries in the t and s alphabets with a grade.

    Keys are (t_exponents, s_exponents, grade).  Multiplication adds grades and
    silently drops any product term whose t-weight or s-weight exceeds w_max.
    """

    __slots__ = ("terms", "w_max", "d_max")

    def __init__(self, terms: Mapping[Key, BetaSeries], w_max: int, d_max: int):
        self.w_max = w_max
        self.d_max = d_max
        clean: dict[Key, BetaSeries] = {}
        for (t, s, g), c in terms.items():
            if not c:
                continue
            if c.d_max != d_max:
                raise ConfigurationError("coefficient d_max differs from polynomial d_max")
            key = (_strip(t), _strip(s), g)
            if key in clean:
                clean[key] = clean[key] + c
            else:
                clean[key] = c
        self.terms = {k: c for k, c in clean.items() if c}

    @staticmethod
    def zero(w_max: int, d_max: int) -> "GradedPoly":
        return GradedPoly({}, w_max, d_max)

    @staticmethod
    def one(w_max: int, d_max: int) -> "GradedPoly":
        return GradedPoly({((), (), 0): BetaSeries.one(d_max)}, w_max, d_max)

    def _check(self, other: "GradedPoly") -> None:
        if self.w_max != other.w_max or self.d_max != other.d_max:
            raise ConfigurationError("mismatched truncation (w_max, d_max)")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                out[k] = out[k] + c
            else:
                out[k] = c
        return GradedPoly(out, self.w_max, self.d_max)

    def __neg__(self):
        return GradedPoly({k: -c for k, c in self.terms.items()}, self.w_max, self.d_max)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "GradedPoly":
        """Multiply every coefficient by an int, a Fraction or a BetaSeries."""
        return GradedPoly(
            {k: c * factor for k, c in self.terms.items()}, self.w_max, self.d_max
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, BetaSeries)):
            return self.scale(other)
        self._check(other)
        out: dict[Key, BetaSeries] = {}
        w_max = self.w_max
        for (t1, s1, g1), c1 in self.terms.items():
            for (t2, s2, g2), c2 in other.terms.items():
                t = exps_mul(t1, t2)
                if exp_weight(t) > w_max:
                    continue
                s = exps_mul(s1, s2)
                if exp_weight(s) > w_max:
                    continue
                k = (t, s, g1 + g2)
                c = c1 * c2
                if k in out:
                    out[k] = out[k] + c
                else:
                    out[k] = c
        return GradedPoly(out, w_max, self.d_max)

    __rmul__ = __mul__

    def constant_term(self) -> BetaSeries:
        return self.terms.get(((), (), 0), BetaSeries.zero(self.d_max))

    def coeff(self, t_exp, s_exp, grade: int) -> BetaSeries:
        """Stored coefficient, or zero.  Keys beyond w_max raise OutOfWindowError."""
        t, s = _strip(t_exp), _strip(s_exp)
        if exp_weight(t) > self.w_max or exp_weight(s) > self.w_max:
            raise OutOfWindowError(
                f"key (t={t}, s={s}) beyond weighted-degree cutoff {self.w_max}"
            )
        return self.terms.get((t, s, grade), BetaSeries.zero(self.d_max))

    def _pieces(self) -> list:
        """Homogeneous pieces by degree = t-weight + s-weight, 0..2 w_max.

        The degree-0 piece holds the constant term and every pure-grade term.
        The recurrence never multiplies by it, so log and exp need it to be
        exactly 1 and 0: a pure-grade term would otherwise be dropped silently.
        """
        buckets = [{} for _ in range(2 * self.w_max + 1)]
        for key, c in self.terms.items():
            buckets[exp_weight(key[0]) + exp_weight(key[1])][key] = c
        return [GradedPoly(b, self.w_max, self.d_max) for b in buckets]

    def _join(self, pieces: list) -> "GradedPoly":
        return GradedPoly(
            {k: c for piece in pieces for k, c in piece.terms.items()}, self.w_max, self.d_max
        )

    def log(self) -> "GradedPoly":
        pieces = self._pieces()
        if pieces[0] != GradedPoly.one(self.w_max, self.d_max):
            raise DomainError(
                "GradedPoly log needs constant term 1 and t- or s-weight on every other term"
            )
        return self._join(log_pieces(pieces, GradedPoly.zero(self.w_max, self.d_max)))

    def exp(self) -> "GradedPoly":
        pieces = self._pieces()
        if pieces[0]:
            raise DomainError("GradedPoly exp needs t- or s-weight on every term")
        one = GradedPoly.one(self.w_max, self.d_max)
        return self._join(exp_pieces(pieces, one, GradedPoly.zero(self.w_max, self.d_max)))

    def __eq__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (
            self.w_max == other.w_max
            and self.d_max == other.d_max
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"GradedPoly({len(self.terms)} terms, w_max={self.w_max}, d_max={self.d_max})"


# ---------------------------------------------------------------------------
# Laurent windows.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentWindow:
    """Window [lo, lo+len(coeffs)-1] of a Laurent series in z.

    Coefficients above the top of the window are known to be zero (all series
    in this package have a finite top); coefficients below ``lo`` are unknown.
    Binary operations return the guaranteed-valid sub-window of the result.
    A window is never empty, so its zero is ``coeffs[0] * 0``, in its own ring.
    """

    lo: int
    coeffs: tuple

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def get(self, j: int):
        """Coefficient of z^j; above the window it is known-zero, below it is unknown."""
        if j > self.hi:
            return self.coeffs[0] * 0
        if j < self.lo:
            raise OutOfWindowError(f"coefficient of z^{j} below valid window lo={self.lo}")
        return self.coeffs[j - self.lo]

    def add(self, other: "LaurentWindow") -> "LaurentWindow":
        lo = max(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        if lo > hi:
            raise OutOfWindowError("empty window in LaurentWindow.add")
        return LaurentWindow(lo, tuple(self.get(j) + other.get(j) for j in range(lo, hi + 1)))

    def sub(self, other: "LaurentWindow") -> "LaurentWindow":
        return self.add(other.scale(-1))

    def scale(self, factor) -> "LaurentWindow":
        return LaurentWindow(self.lo, tuple(c * factor for c in self.coeffs))

    def shift(self, k: int) -> "LaurentWindow":
        """Multiply by z^k."""
        return LaurentWindow(self.lo + k, self.coeffs)

    def diag(self, factor_of_exponent: Callable[[int], object]) -> "LaurentWindow":
        """Apply a diagonal operator z^j -> f(j) z^j (e.g. G(-beta*D))."""
        return LaurentWindow(
            self.lo,
            tuple(factor_of_exponent(self.lo + i) * c for i, c in enumerate(self.coeffs)),
        )

    def euler(self) -> "LaurentWindow":
        """z d/dz."""
        return self.diag(Fraction)

    def mul(self, other: "LaurentWindow") -> "LaurentWindow":
        # Unknown tails contaminate every product coefficient that an unknown
        # index could reach through the other factor's possibly-nonzero range.
        lo = max(self.lo + other.hi, other.lo + self.hi)
        hi = self.hi + other.hi
        if lo > hi:
            raise OutOfWindowError("window too shallow for LaurentWindow.mul")
        out = [self.coeffs[0] * 0] * (hi - lo + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            p = self.lo + i
            for k, b in enumerate(other.coeffs):
                q = other.lo + k
                e = p + q
                if lo <= e <= hi and b:
                    out[e - lo] = out[e - lo] + a * b
        return LaurentWindow(lo, tuple(out))

    def residue_with(self, other: "LaurentWindow"):
        """Coefficient of z^{-1} in the product (the Hirota bilinear pairing)."""
        prod = self.mul(other)
        if prod.lo > -1:
            raise OutOfWindowError(
                f"residue undetermined: product valid only from z^{prod.lo}"
            )
        return prod.get(-1)

    def is_zero_on_valid(self) -> bool:
        return not any(self.coeffs)

    def eq_on(self, other: "LaurentWindow", lo: int, hi: int) -> bool:
        return all(self.get(j) == other.get(j) for j in range(lo, hi + 1))
