"""Exact truncated rings: beta-series over Q, graded flow-variable polynomials,
and Laurent windows.

Every computation in this package happens in one of three rings, all over
`fractions.Fraction`:

* ``BetaSeries`` -- truncated power series in the expansion parameter beta,
  indices 0..d_max.  Arithmetic above d_max is silently dropped; mixing two
  different truncation orders is a configuration error.
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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class BetaSeries:
    """Truncated formal power series in beta with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction]):
        self.coeffs = tuple(_as_fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ConfigurationError("BetaSeries needs at least the order-0 coefficient")

    @property
    def d_max(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(d_max: int) -> "BetaSeries":
        return BetaSeries([_ZERO] * (d_max + 1))

    @staticmethod
    def one(d_max: int) -> "BetaSeries":
        return BetaSeries([_ONE] + [_ZERO] * d_max)

    @staticmethod
    def constant(value, d_max: int) -> "BetaSeries":
        return BetaSeries([_as_fraction(value)] + [_ZERO] * d_max)

    @staticmethod
    def variable(d_max: int) -> "BetaSeries":
        """The series beta itself."""
        if d_max < 1:
            raise ConfigurationError("need d_max >= 1 to represent beta")
        return BetaSeries([_ZERO, _ONE] + [_ZERO] * (d_max - 1))

    def _check_compatible(self, other: "BetaSeries") -> None:
        if self.d_max != other.d_max:
            raise ConfigurationError(
                f"mismatched truncation orders {self.d_max} != {other.d_max}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BetaSeries.constant(other, self.d_max)
        if not isinstance(other, BetaSeries):
            return NotImplemented
        self._check_compatible(other)
        return BetaSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return BetaSeries(-c for c in self.coeffs)

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
            f = _as_fraction(other)
            return BetaSeries(c * f for c in self.coeffs)
        if not isinstance(other, BetaSeries):
            return NotImplemented
        self._check_compatible(other)
        d = self.d_max
        out = [_ZERO] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(0, d - i + 1):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return BetaSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                raise ZeroDivisionError("division of BetaSeries by zero scalar")
            return self * (1 / f)
        if isinstance(other, BetaSeries):
            return self * series_inv(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BetaSeries.constant(other, self.d_max)
        if not isinstance(other, BetaSeries):
            return NotImplemented
        return self.d_max == other.d_max and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __getitem__(self, d: int) -> Fraction:
        if not 0 <= d <= self.d_max:
            raise OutOfWindowError(f"beta order {d} outside [0, {self.d_max}]")
        return self.coeffs[d]

    def shift(self, k: int) -> "BetaSeries":
        """Multiply by beta^k (k >= 0), truncating at the same d_max."""
        if k < 0:
            raise ConfigurationError("shift exponent must be nonnegative")
        return BetaSeries((_ZERO,) * k + self.coeffs[: self.d_max + 1 - k])

    def truncate(self, d_max: int) -> "BetaSeries":
        if d_max > self.d_max:
            raise OutOfWindowError(
                f"cannot extend BetaSeries from d_max={self.d_max} to {d_max}"
            )
        return BetaSeries(self.coeffs[: d_max + 1])

    def __repr__(self):
        return f"BetaSeries({list(self.coeffs)})"


def series_inv(a: BetaSeries) -> BetaSeries:
    """Multiplicative inverse; requires a nonzero constant term.

    Recurrence: b_0 = 1/a_0, b_m = -(1/a_0) * sum_{k=1..m} a_k b_{m-k}.
    """
    if a.coeffs[0] == 0:
        raise NonInvertibleError("series with zero constant term is not invertible")
    d = a.d_max
    inv0 = 1 / a.coeffs[0]
    out = [inv0] + [_ZERO] * d
    for m in range(1, d + 1):
        s = _ZERO
        for k in range(1, m + 1):
            if a.coeffs[k] != 0:
                s += a.coeffs[k] * out[m - k]
        out[m] = -inv0 * s
    return BetaSeries(out)


def series_log(a: BetaSeries) -> BetaSeries:
    """log of a series with constant term 1, as sum (-1)^(m+1) u^m / m."""
    if a.coeffs[0] != 1:
        raise DomainError("series_log requires constant term 1")
    d = a.d_max
    u = a - BetaSeries.one(d)
    out = BetaSeries.zero(d)
    power = BetaSeries.one(d)
    for m in range(1, d + 1):
        power = power * u
        if not power:
            break
        out = out + power * Fraction((-1) ** (m + 1), m)
    return out

def series_exp(a: BetaSeries) -> BetaSeries:
    """exp of a series with constant term 0."""
    if a.coeffs[0] != 0:
        raise DomainError("series_exp requires constant term 0")
    d = a.d_max
    out = BetaSeries.one(d)
    power = BetaSeries.one(d)
    for m in range(1, d + 1):
        power = power * a
        if not power:
            break
        out = out + power * Fraction(1, _factorial(m))
    return out


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# ---------------------------------------------------------------------------
# Scalar rings.  LaurentWindow and the basis/kernel modules are generic over
# the coefficient ring: exact rationals (rational beta evaluation) or
# BetaSeries (beta kept as a formal series).
# ---------------------------------------------------------------------------


class QRing:
    """Coefficients are plain Fractions."""

    name = "Q"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def coerce(self, x):
        return _as_fraction(x)

    def is_zero(self, v) -> bool:
        return v == 0

    def inv(self, v):
        if v == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / v


class BRing:
    """Coefficients are BetaSeries truncated at a shared d_max."""

    name = "Q[[beta]]"

    def __init__(self, d_max: int):
        self.d_max = d_max

    def zero(self):
        return BetaSeries.zero(self.d_max)

    def one(self):
        return BetaSeries.one(self.d_max)

    def coerce(self, x):
        if isinstance(x, BetaSeries):
            if x.d_max != self.d_max:
                raise ConfigurationError("BetaSeries with foreign d_max")
            return x
        return BetaSeries.constant(x, self.d_max)

    def is_zero(self, v) -> bool:
        return not self.coerce(v)

    def inv(self, v):
        return series_inv(self.coerce(v))


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
        if isinstance(factor, (int, Fraction)):
            factor = BetaSeries.constant(factor, self.d_max)
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

    def coeff(self, t_exp, s_exp=(), grade: int | None = None) -> BetaSeries:
        """Stored coefficient, or zero.  Keys beyond w_max raise OutOfWindowError."""
        t, s = _strip(t_exp), _strip(s_exp)
        if exp_weight(t) > self.w_max or exp_weight(s) > self.w_max:
            raise OutOfWindowError(
                f"key (t={t}, s={s}) beyond weighted-degree cutoff {self.w_max}"
            )
        if grade is None:
            # sum over grades (useful when the grade is determined by context)
            total = BetaSeries.zero(self.d_max)
            for (tt, ss, _), c in self.terms.items():
                if tt == t and ss == s:
                    total = total + c
            return total
        return self.terms.get((t, s, grade), BetaSeries.zero(self.d_max))

    def _require_nilpotent(self, op: str) -> None:
        """The log/exp sums stop after 2 w_max powers, which is exact only if
        every term carries t- or s-weight; a term of pure grade never dies out."""
        for t, s, g in self.terms:
            if not t and not s:
                raise DomainError(
                    f"GradedPoly {op} needs t- or s-weight on every nonconstant term; "
                    f"the grade-{g} constant would be truncated silently"
                )

    def log(self) -> "GradedPoly":
        if self.constant_term() != BetaSeries.one(self.d_max):
            raise DomainError("GradedPoly log requires constant term 1")
        u = self - GradedPoly.one(self.w_max, self.d_max)
        u._require_nilpotent("log")
        out = GradedPoly.zero(self.w_max, self.d_max)
        power = GradedPoly.one(self.w_max, self.d_max)
        for m in range(1, 2 * self.w_max + 1):
            power = power * u
            if not power.terms:
                break
            out = out + power.scale(Fraction((-1) ** (m + 1), m))
        return out

    def exp(self) -> "GradedPoly":
        if self.constant_term():
            raise DomainError("GradedPoly exp requires constant term 0")
        self._require_nilpotent("exp")
        out = GradedPoly.one(self.w_max, self.d_max)
        power = GradedPoly.one(self.w_max, self.d_max)
        for m in range(1, 2 * self.w_max + 1):
            power = power * self
            if not power.terms:
                break
            out = out + power.scale(Fraction(1, _factorial(m)))
        return out

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


def graded_arith(a: GradedPoly, b: GradedPoly | None, op: str) -> GradedPoly:
    """Named-op entry point: add/mul need two operands, log/exp one."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "log":
        return a.log()
    if op == "exp":
        return a.exp()
    raise ConfigurationError(f"unknown graded op {op!r}")


def series_arith(a: BetaSeries, b: BetaSeries, op: str) -> BetaSeries:
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    raise ConfigurationError(f"unknown series op {op!r}")


def series_log_exp(a: BetaSeries, op: str) -> BetaSeries:
    if op == "log":
        return series_log(a)
    if op == "exp":
        return series_exp(a)
    raise ConfigurationError(f"unknown series op {op!r}")


# ---------------------------------------------------------------------------
# Laurent windows.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentWindow:
    """Window [lo, lo+len(coeffs)-1] of a Laurent series in z.

    Coefficients above the top of the window are known to be zero (all series
    in this package have a finite top); coefficients below ``lo`` are unknown.
    Binary operations return the guaranteed-valid sub-window of the result.
    """

    lo: int
    coeffs: tuple

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def get(self, j: int, ring):
        """Coefficient of z^j; above the window it is known-zero, below it is unknown."""
        if j > self.hi:
            return ring.zero()
        if j < self.lo:
            raise OutOfWindowError(f"coefficient of z^{j} below valid window lo={self.lo}")
        return self.coeffs[j - self.lo]

    def known(self, j: int) -> bool:
        return j >= self.lo

    def add(self, other: "LaurentWindow", ring) -> "LaurentWindow":
        lo = max(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        if lo > hi:
            raise OutOfWindowError("empty window in LaurentWindow.add")
        return LaurentWindow(
            lo, tuple(self.get(j, ring) + other.get(j, ring) for j in range(lo, hi + 1))
        )

    def sub(self, other: "LaurentWindow", ring) -> "LaurentWindow":
        return self.add(other.scale(-1, ring), ring)

    def scale(self, factor, ring) -> "LaurentWindow":
        factor = ring.coerce(factor)
        return LaurentWindow(self.lo, tuple(c * factor for c in self.coeffs))

    def shift(self, k: int) -> "LaurentWindow":
        """Multiply by z^k."""
        return LaurentWindow(self.lo + k, self.coeffs)

    def diag(self, factor_of_exponent: Callable[[int], object], ring) -> "LaurentWindow":
        """Apply a diagonal operator z^j -> f(j) z^j (e.g. G(-beta*D))."""
        return LaurentWindow(
            self.lo,
            tuple(
                ring.coerce(factor_of_exponent(self.lo + i)) * c
                for i, c in enumerate(self.coeffs)
            ),
        )

    def euler(self, ring) -> "LaurentWindow":
        """z d/dz."""
        return self.diag(lambda j: Fraction(j), ring)

    def mul(self, other: "LaurentWindow", ring) -> "LaurentWindow":
        # Unknown tails contaminate every product coefficient that an unknown
        # index could reach through the other factor's possibly-nonzero range.
        lo = max(self.lo + other.hi, other.lo + self.hi)
        hi = self.hi + other.hi
        if lo > hi:
            raise OutOfWindowError("window too shallow for LaurentWindow.mul")
        out = [ring.zero()] * (hi - lo + 1)
        for i, a in enumerate(self.coeffs):
            if ring.is_zero(a):
                continue
            p = self.lo + i
            for k, b in enumerate(other.coeffs):
                q = other.lo + k
                e = p + q
                if lo <= e <= hi and not ring.is_zero(b):
                    out[e - lo] = out[e - lo] + a * b
        return LaurentWindow(lo, tuple(out))

    def residue_with(self, other: "LaurentWindow", ring):
        """Coefficient of z^{-1} in the product (the Hirota bilinear pairing)."""
        prod = self.mul(other, ring)
        if prod.lo > -1:
            raise OutOfWindowError(
                f"residue undetermined: product valid only from z^{prod.lo}"
            )
        return prod.get(-1, ring)

    def restrict(self, lo: int, hi: int, ring) -> "LaurentWindow":
        if lo < self.lo:
            raise OutOfWindowError(f"window does not reach down to z^{lo}")
        return LaurentWindow(lo, tuple(self.get(j, ring) for j in range(lo, hi + 1)))

    def is_zero_on_valid(self, ring) -> bool:
        return all(ring.is_zero(c) for c in self.coeffs)

    def eq_on(self, other: "LaurentWindow", lo: int, hi: int, ring) -> bool:
        for j in range(lo, hi + 1):
            if self.get(j, ring) != other.get(j, ring):
                return False
        return True
