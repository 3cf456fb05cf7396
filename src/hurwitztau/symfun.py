"""Symmetric-function layer: S_N characters via Murnaghan-Nakayama, the
Schur <-> power-sum transition, and exact evaluations of the six standard
bases at finite rational alphabets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigurationError, DomainError, ResourceError
from .exactalg import BetaSeries, GradedPoly, monomial_from_partition
from .partitions import Partition, enumerate_partitions

N_CAP_DEFAULT = 10


def _border_strip_removals(lam: Partition, r: int):
    """All ways to remove an r-rim-hook, as (smaller partition, height).

    Works on the beta-numbers B_i = lam_i + n - i: removing an r-hook replaces
    some b in B by b - r (not already in B); the height is the number of
    beta-numbers jumped over.
    """
    n = lam.length
    if n == 0:
        return
    beta = [lam.parts[i] + n - 1 - i for i in range(n)]
    bset = set(beta)
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new = sorted((x for x in beta if x != b), reverse=True)
        new.append(nb)
        new.sort(reverse=True)
        parts = [new[i] - (n - 1 - i) for i in range(n)]
        yield Partition(parts), height


@lru_cache(maxsize=None)
def _character(lam_parts: tuple, mu_parts: tuple) -> int:
    if not mu_parts:
        return 1
    lam = Partition(lam_parts)
    r, rest = mu_parts[0], mu_parts[1:]
    total = 0
    for smaller, height in _border_strip_removals(lam, r):
        total += (-1) ** height * _character(smaller.parts, rest)
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam evaluated on the class of cycle type mu."""
    if lam.weight != mu.weight:
        raise DomainError("character needs |lambda| = |mu|")
    return _character(lam.parts, mu.parts)


@dataclass(frozen=True)
class CharTable:
    N: int
    partitions: tuple
    values: dict  # (lam, mu) -> int

    def chi(self, lam: Partition, mu: Partition) -> int:
        return self.values[(lam, mu)]


def char_table(N: int, n_cap: int = N_CAP_DEFAULT) -> CharTable:
    """Complete integer character table of S_N (N within the configured cap)."""
    if not 1 <= N <= n_cap:
        raise ResourceError(f"character table cap exceeded: N={N} > {n_cap}")
    parts = enumerate_partitions(N)
    values = {
        (lam, mu): character(lam, mu) for lam in parts for mu in parts
    }
    return CharTable(N, parts, values)


def schur_to_power(lam: Partition, d_max: int = 0, w_max: int | None = None) -> GradedPoly:
    """s_lambda as a polynomial in the t-variables (t_i = p_i / i).

    s_lambda(t) = sum_mu chi^lam(mu)/z_mu * p_mu, and p_mu = prod_i mu_i t_{mu_i},
    so each class mu contributes chi/z_mu * prod(mu_i) on the monomial
    prod t_{mu_i}.  The gamma-grade of every term is 0 here; tau assembly
    attaches grades.
    """
    if w_max is None:
        w_max = max(lam.weight, 1)
    terms = {}
    for mu in enumerate_partitions(lam.weight):
        chi = character(lam, mu)
        if chi == 0:
            continue
        coeff = Fraction(chi, mu.z_order())
        for p in mu.parts:
            coeff *= p
        key = (monomial_from_partition(mu.parts), (), 0)
        terms[key] = BetaSeries.constant(coeff, d_max)
    if lam.weight == 0:
        terms[((), (), 0)] = BetaSeries.one(d_max)
    return GradedPoly(terms, w_max, d_max)


def schur_monomial_map(lam: Partition) -> dict:
    """t-monomial -> Fraction map for s_lambda (same data as schur_to_power)."""
    out = {}
    for mu in enumerate_partitions(lam.weight):
        chi = character(lam, mu)
        if chi == 0:
            continue
        coeff = Fraction(chi, mu.z_order())
        for p in mu.parts:
            coeff *= p
        out[monomial_from_partition(mu.parts)] = coeff
    if lam.weight == 0:
        out[()] = Fraction(1)
    return out


# ---------------------------------------------------------------------------
# Evaluations at finite alphabets.
# ---------------------------------------------------------------------------


def power_sum_value(k: int, c) -> Fraction:
    return sum((Fraction(ci) ** k for ci in c), Fraction(0))


def elementary_list(c, n_max: int) -> list[Fraction]:
    """e_0..e_n of the finite alphabet c, via prod (1 + c_i z)."""
    out = [Fraction(1)] + [Fraction(0)] * n_max
    deg = 0
    for ci in c:
        ci = Fraction(ci)
        deg = min(deg + 1, n_max)
        for n in range(deg, 0, -1):
            out[n] += ci * out[n - 1]
    return out


def complete_list(c, n_max: int) -> list[Fraction]:
    """h_0..h_n via Newton's identity n h_n = sum p_k h_{n-k}."""
    p = [power_sum_value(k, c) for k in range(n_max + 1)]
    h = [Fraction(1)] + [Fraction(0)] * n_max
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += p[k] * h[n - k]
        h[n] = acc / n
    return h


def _distinct_arrangements(parts):
    return sorted(set(itertools.permutations(parts)))


def eval_basis(basis: str, lam: Partition, c) -> Fraction:
    """Exact evaluation of m/e/h/f/p_lambda at the finite alphabet c."""
    c = [Fraction(x) for x in c]
    if lam.weight == 0:
        return Fraction(1)
    k = lam.length
    if basis == "p":
        out = Fraction(1)
        for part in lam.parts:
            out *= power_sum_value(part, c)
        return out
    if basis == "e":
        e = elementary_list(c, lam.parts[0])
        out = Fraction(1)
        for part in lam.parts:
            out *= e[part]
        return out
    if basis == "h":
        h = complete_list(c, lam.parts[0])
        out = Fraction(1)
        for part in lam.parts:
            out *= h[part]
        return out
    if basis == "m":
        if k > len(c):
            return Fraction(0)
        total = Fraction(0)
        for idx in itertools.combinations(range(len(c)), k):
            for arrangement in _distinct_arrangements(lam.parts):
                prod = Fraction(1)
                for pos, expo in zip(idx, arrangement):
                    prod *= c[pos] ** expo
                total += prod
        return total
    if basis == "f":
        # forgotten basis, with the displayed sign and 1/|aut| normalization
        sign = (-1) ** lam.colength()
        total = Fraction(0)
        for sigma in itertools.permutations(range(k)):
            for idx in itertools.combinations_with_replacement(range(len(c)), k):
                prod = Fraction(1)
                for pos, which in zip(idx, sigma):
                    prod *= c[pos] ** lam.parts[which]
                total += prod
        return Fraction(sign, lam.aut_order()) * total
    raise ConfigurationError(f"unknown basis {basis!r}")


# ---------------------------------------------------------------------------
# Complete symmetric functions of rescaled flow alphabets.
# ---------------------------------------------------------------------------


H_CACHE_SIZE = 1024  # the verify sweep holds about 200 entries


@lru_cache(maxsize=H_CACHE_SIZE)
def _h_list_cached(sigma: tuple, sign: int, n_max: int) -> tuple:
    """h_0..h_n of the alphabet whose generating series is exp(sign * sum sigma_k z^k)."""
    h = [Fraction(1)] + [Fraction(0)] * n_max
    # Newton with p_k = sign * k * sigma_k
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for j, s in enumerate(sigma, start=1):
            if j > n or s == 0:
                continue
            acc += sign * j * s * h[n - j]
        h[n] = acc / n
    return tuple(h)


def h_of_sigma(n: int, sigma, sign: int = 1) -> Fraction:
    """h_n at the alphabet with normalized power sums sigma (p_k = sign k sigma_k)."""
    if n < 0:
        return Fraction(0)
    sigma = tuple(Fraction(x) for x in sigma)
    return _h_list_cached(sigma, sign, n)[n]


def h_poly(n: int, sign: int, beta_val: Fraction, s) -> Fraction:
    """h_n of the rescaled alphabet beta^{-1} s (sign -1 negates the alphabet)."""
    beta_val = Fraction(beta_val)
    if beta_val == 0:
        raise DomainError("h_poly needs beta != 0")
    sigma = tuple(Fraction(x) / beta_val for x in s)
    return h_of_sigma(n, sigma, sign)


def schur_at_sigma(lam: Partition, sigma, sign: int = 1) -> Fraction:
    """s_lambda of the sigma-alphabet via Jacobi-Trudi, det(h_{lam_i - i + j}).

    Works for any |lambda| without touching the character-table cap.
    """
    ell = lam.length
    if ell == 0:
        return Fraction(1)
    sigma = tuple(Fraction(x) for x in sigma)
    n_max = lam.parts[0] + ell
    h = _h_list_cached(sigma, sign, n_max)

    def entry(i, j):
        n = lam.parts[i] - (i + 1) + (j + 1)
        return h[n] if 0 <= n <= n_max else Fraction(0)

    # exact determinant by fraction-free-ish Gaussian elimination
    mat = [[entry(i, j) for j in range(ell)] for i in range(ell)]
    det = Fraction(1)
    for col in range(ell):
        piv = next((r for r in range(col, ell) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, ell):
            if mat[r][col] == 0:
                continue
            factor = mat[r][col] * inv
            for cc in range(col, ell):
                mat[r][cc] -= factor * mat[col][cc]
    return det


def cauchy_kernel(w_max: int, d_max: int) -> GradedPoly:
    """exp(sum_k k t_k s_k) with the grade of t_k s_k set to k.

    This is the G == 1 tau-function; its grade bookkeeping matches
    gamma^{|lambda|} in the Schur expansion.
    """
    terms = {}
    for k in range(1, w_max + 1):
        t = tuple([0] * (k - 1) + [1])
        terms[(t, t, k)] = BetaSeries.constant(k, d_max)
    u = GradedPoly(terms, w_max, d_max)
    return u.exp()
