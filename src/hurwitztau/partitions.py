"""Integer partitions and the Riemann-Hurwitz bookkeeping built on them."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers, equal and hash-equal to
    the plain tuple of its parts.

    Labels both ramification profiles (conjugacy classes of S_N) and
    irreducible characters / Schur functions.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts if p != 0)
        if any(p < 0 for p in parts):
            raise DomainError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            parts = tuple(sorted(parts, reverse=True))
        return super().__new__(cls, parts)

    @property
    def parts(self) -> tuple:
        return tuple(self)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def colength(self) -> int:
        """|lambda| - ell(lambda), the branching defect."""
        return self.weight - self.length

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def aut_order(self) -> int:
        out = 1
        for m in self.multiplicities().values():
            out *= factorial(m)
        return out

    def z_order(self) -> int:
        """z_mu = prod_i i^{m_i} m_i!; |class| = N!/z_mu."""
        out = 1
        for i, m in self.multiplicities().items():
            out *= i**m * factorial(m)
        return out

    def contents(self) -> list[int]:
        """Multiset {j - i : (i, j) a cell}, rows and columns 1-based."""
        return [j - i for i, p in enumerate(self, start=1) for j in range(1, p + 1)]

    def conjugate(self) -> "Partition":
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Frobenius coordinates (a_1..a_r | b_1..b_r): arm and leg lengths on the diagonal."""
        conj = self.conjugate()
        arms, legs = [], []
        for i, p in enumerate(self, start=1):
            if p < i:
                break
            arms.append(p - i)
            legs.append(conj[i - 1] - i)
        return tuple(arms), tuple(legs)

    def __repr__(self):
        return f"Partition{tuple(self)}"


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse lexicographic: (n) first, (1^n) last."""
    if n < 0:
        raise DomainError("cannot partition a negative integer")

    def gen(remaining: int, cap: int, prefix: tuple):
        if remaining == 0:
            yield Partition(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - p, p, prefix + (p,))

    return tuple(gen(n, n, ()))


def partitions_up_to(n: int) -> list[Partition]:
    if n < 0:
        raise DomainError("cannot partition a negative integer")
    out: list[Partition] = []
    for m in range(n + 1):
        out.extend(enumerate_partitions(m))
    return out


def riemann_hurwitz_d(ell_mu: int, ell_nu: int, genus: int) -> int:
    """Riemann-Hurwitz: a genus-g covering with ell(mu) and ell(nu) preimages
    over the two profile points has d = ell(mu) + ell(nu) + 2g - 2 further
    simple branch points, counted by beta^d."""
    return ell_mu + ell_nu + 2 * genus - 2


def genus_of(mu: Partition, nu: Partition, d: int) -> tuple[Fraction, bool]:
    """Genus solving d = riemann_hurwitz_d(ell(mu), ell(nu), g); admissible iff
    g is a nonnegative integer.  Requires |mu| = |nu|."""
    if mu.weight != nu.weight:
        raise DomainError("genus_of needs partitions of equal weight")
    g = Fraction(d - riemann_hurwitz_d(mu.length, nu.length, 0), 2)
    return g, g.denominator == 1 and g >= 0
