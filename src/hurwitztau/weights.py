"""Weight generating functions G(z) = exp(sum_k a_k z^k) and their derived
data: the log-series a_k, the Taylor coefficients g_i and the profile weights
m_lambda read off it, content products and the convolution coefficients rho_j."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigurationError, DomainError, SingularParameterError
from .exactalg import BetaSeries, series_exp
from .partitions import Partition
from .symfun import monomial_value, power_sum_value

FINITE_C = "finite_c"
DUAL_FINITE_C = "dual_finite_c"
EXPONENTIAL = "exponential"
QUANTUM = "quantum"

_KINDS = (FINITE_C, DUAL_FINITE_C, EXPONENTIAL, QUANTUM)


@dataclass(frozen=True)
class WeightFamily:
    """A weight generating function.

    finite_c:      G(z) = prod_i (1 + z c_i)            (polynomial, degree M = len(c))
    dual_finite_c: G(z) = prod_i (1 - z c_i)^{-1}        (dual family)
    exponential:   G(z) = e^z
    quantum:       G(z) = prod_{i>=1} (1 + q^i z)
    """

    kind: str
    c: tuple = ()
    q: Fraction | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown weight family kind {self.kind!r}")
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        if self.kind == QUANTUM:
            if self.q is None:
                raise ConfigurationError("quantum family needs q")
            object.__setattr__(self, "q", Fraction(self.q))
            if not 0 < self.q < 1:
                raise ConfigurationError("quantum family needs 0 < q < 1")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.kind == FINITE_C:
            return "G(z)=prod(1+z c_i), c=" + str([str(x) for x in self.c])
        if self.kind == DUAL_FINITE_C:
            return "G(z)=prod(1-z c_i)^-1, c=" + str([str(x) for x in self.c])
        if self.kind == EXPONENTIAL:
            return "G(z)=exp(z)"
        return f"G(z)=prod(1+q^i z), q={self.q}"

    @property
    def degree(self) -> int | None:
        """deg G = len(c) when G is a polynomial (finite_c), None otherwise."""
        return len(self.c) if self.kind == FINITE_C else None


def belyi() -> WeightFamily:
    return WeightFamily(FINITE_C, c=(1,), label="belyi")


def exponential() -> WeightFamily:
    return WeightFamily(EXPONENTIAL, label="exp")


def signed() -> WeightFamily:
    return WeightFamily(DUAL_FINITE_C, c=(1,), label="signed")


def quantum(q) -> WeightFamily:
    return WeightFamily(QUANTUM, q=Fraction(q), label=f"quantum(q={Fraction(q)})")


def log_coeffs(family: WeightFamily, k_max: int) -> list[Fraction]:
    """a_1..a_{k_max} of log G(z) = sum_k a_k z^k: (-1)^{k+1} p_k(c)/k for
    finite_c, p_k(c)/k for dual_finite_c, delta_{k1} for exponential and
    (-1)^{k+1} q^k/(k(1 - q^k)) for quantum."""
    out = []
    for k in range(1, k_max + 1):
        if family.kind == EXPONENTIAL:
            out.append(Fraction(int(k == 1)))
            continue
        if family.kind == QUANTUM:
            qk = family.q**k
            a = qk / (k * (1 - qk))
        else:
            a = power_sum_value(k, family.c) / k
        out.append(a if k % 2 or family.kind == DUAL_FINITE_C else -a)
    return out


def g_coeff(family: WeightFamily, i: int) -> Fraction:
    """Taylor coefficient g_i of z^i in G(z), read off G's series of order i."""
    if i < 0:
        raise DomainError("Taylor index must be nonnegative")
    return _g_series(family, i)[i]


# One entry per (family, d_max), g_coeff's too: the table and kp jobs hold 1, the sweep 23.
@lru_cache(maxsize=256)
def _g_series(family: WeightFamily, d_max: int) -> BetaSeries:
    """G(beta) as a beta-series of order d_max: exp of the log-series."""
    return series_exp(BetaSeries([0, *log_coeffs(family, d_max)]))


def r_factor(family: WeightFamily, j: int, d_max: int) -> BetaSeries:
    """G(j beta) as a truncated beta-series, G(beta) dilated by j; r_0 = 1."""
    return _g_series(family, d_max).dilate(j)


# One entry per (family, x); an int and an equal Fraction share one.  The verify
# sweep holds 140, a basis run at its --k-lo/--k-hi/--depth caps 202.  A pole
# raises on every call: lru_cache stores no exception.
@lru_cache(maxsize=1024)
def g_value(family: WeightFamily, x: Fraction) -> Fraction:
    """Exact value G(x) at a rational point (finite_c / dual_finite_c only)."""
    x = Fraction(x)
    if family.kind == FINITE_C:
        out = Fraction(1)
        for ci in family.c:
            out *= 1 + x * ci
        return out
    if family.kind == DUAL_FINITE_C:
        out = Fraction(1)
        for ci in family.c:
            factor = 1 - x * ci
            if factor == 0:
                raise SingularParameterError(
                    f"dual generating function has a pole at x={x} (c_i={ci})"
                )
            out *= factor
        return 1 / out
    raise ConfigurationError(
        f"{family.kind} family has no exact rational evaluation; keep beta as a series"
    )


def g_at(family: WeightFamily, j: int, ring):
    """G(j beta) in the ring's mode: a beta-series in BRing, the exact value in QRing.

    This is the only place that tells a rational beta from a formal one; r_lambda,
    rho_j and everything built on them go through it.
    """
    if ring.beta is None:
        return r_factor(family, j, ring.d_max)
    return g_value(family, j * ring.beta)


def content_product(family: WeightFamily, lam: Partition, ring):
    """r_lambda = prod over cells of G(beta c), c = j - i the cell's content."""
    out = ring.one()
    for c in lam.contents():
        out = out * g_at(family, c, ring)
    return out


def rho(family: WeightFamily, j: int, gamma_val: Fraction, ring):
    """Convolution coefficient rho_j, normalized rho_0 = 1.

    rho_j = gamma^j prod_{i=1..j} G(i beta);
    rho_{-j} = gamma^{-j} prod_{i=0..j-1} G(-i beta)^{-1}, which is singular
    whenever one of the denominators G(-i beta) vanishes (never for formal
    beta: G(x) has constant term 1).
    """
    gamma_val = Fraction(gamma_val)
    if gamma_val == 0:
        raise SingularParameterError("gamma must be nonzero")
    out = ring.one() * gamma_val**j
    for i in range(1, j + 1):
        out = out * g_at(family, i, ring)
    for i in range(0, -j):
        factor = g_at(family, -i, ring)
        if not factor:
            raise SingularParameterError(
                f"rho_{j} undefined: G({-i}*beta) = 0 at i={i} (beta={ring.beta})"
            )
        out = out / factor
    return out


def rho_inv(family: WeightFamily, j: int, gamma_val: Fraction, ring):
    """rho_j^{-1}.  For j < 0 this is the direct product
    gamma^{-j} prod_{i=0}^{-j-1} G(-i beta): always finite, possibly zero
    (the allowed vanishing-rho degeneration)."""
    if j < 0:
        out = ring.one() * Fraction(gamma_val) ** (-j)
        for i in range(0, -j):
            out = out * g_at(family, -i, ring)
        return out
    value = rho(family, j, gamma_val, ring)
    if not value:
        raise SingularParameterError(f"rho_{j} = 0: dual basis element undefined")
    return 1 / value


def profile_weight(family: WeightFamily, lam: Partition) -> Fraction:
    """Weight of a branch-profile signature lam in the configuration sums:
    m_lambda of G's roots, whose power sums are p_k = (-1)^{k+1} k a_k."""
    a = log_coeffs(family, lam.weight)
    p = [(-1) ** (k + 1) * k * a_k for k, a_k in enumerate(a, start=1)]
    return monomial_value(lam, lambda k: p[k - 1])


def path_weight(family: WeightFamily, lam: Partition) -> Fraction:
    """e_lambda (or h_lambda for the dual family) expressed through the Taylor
    data of G: prod_i g_{lam_i}."""
    out = Fraction(1)
    for part in lam.parts:
        out *= g_coeff(family, part)
    return out
