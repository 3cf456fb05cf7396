"""Symmetric-function layer: S_N characters via Murnaghan-Nakayama, the
Schur <-> power-sum transition, and exact evaluations at an alphabet given by
its power sums: p_k of a finite rational alphabet, m_lambda, h_n and s_lambda."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .exactalg import BetaSeries, GradedPoly, exp_pieces, monomial_from_partition
from .partitions import Partition, enumerate_partitions, partitions_up_to


def _border_strip_removals(lam: Partition, r: int):
    """All ways to remove an r-rim-hook, as (smaller partition, height).

    Works on the beta-numbers B_i = lam_i + n - i: removing an r-hook replaces
    some b in B by b - r (not already in B); the height is the number of
    beta-numbers jumped over.
    """
    n = lam.length
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


def schur_monomial_map(lam: Partition) -> dict:
    """s_lambda as a t-monomial -> Fraction map (t_i = p_i / i).

    s_lambda(t) = sum_mu chi^lam(mu)/z_mu * p_mu, and p_mu = prod_i mu_i t_{mu_i},
    so each class mu contributes chi/z_mu * prod(mu_i) on the monomial
    prod t_{mu_i}.
    """
    out = {}
    for mu in enumerate_partitions(lam.weight):
        chi = character(lam, mu)
        if chi == 0:
            continue
        coeff = Fraction(chi, mu.z_order())
        for p in mu.parts:
            coeff *= p
        out[monomial_from_partition(mu.parts)] = coeff
    return out


def schur_to_power(lam: Partition, w_max: int | None = None) -> GradedPoly:
    """s_lambda as a GradedPoly in the t-variables, every term of grade 0."""
    if w_max is None:
        w_max = max(lam.weight, 1)
    terms = {
        (t_exp, (), 0): BetaSeries.constant(coeff, 0)
        for t_exp, coeff in schur_monomial_map(lam).items()
    }
    return GradedPoly(terms, w_max, 0)


# ---------------------------------------------------------------------------
# Evaluations at an alphabet given by its power sums.
# ---------------------------------------------------------------------------


def power_sum_value(k: int, c) -> Fraction:
    return sum((Fraction(ci) ** k for ci in c), Fraction(0))


def monomial_value(lam: Partition, p) -> Fraction:
    """m_lambda of the alphabet whose k-th power sum is p(k).

    |Aut lambda| m_lambda is the Moebius inversion of p_lambda over the set
    partitions pi of lambda's parts, sum_pi prod_{B in pi} (-1)^{|B|-1} (|B|-1)!
    p(sum_{i in B} lambda_i).  It is summed by splitting off the first part a:
    M(a, mu) = p(a) M(mu) - sum_i M(mu with mu_i + a), since p_a M(mu) puts x^a
    on a letter apart from those of mu or on the letter of one mu_i.
    """

    def augmented(parts):  # |Aut| m of the nonempty parts, in any order
        a, rest = parts[0], parts[1:]
        if not rest:
            return p(a)
        out = p(a) * augmented(rest)
        for i in range(len(rest)):
            out -= augmented(rest[:i] + (rest[i] + a,) + rest[i + 1:])
        return out

    return Fraction(augmented(lam.parts), lam.aut_order()) if lam.parts else Fraction(1)


# ---------------------------------------------------------------------------
# Complete symmetric functions of rescaled flow alphabets.
# ---------------------------------------------------------------------------


H_CACHE_SIZE = 1024  # the verify sweep holds about 200 entries


@lru_cache(maxsize=H_CACHE_SIZE)
def _h_list_cached(sigma: tuple, sign: int, n_max: int) -> tuple:
    """h_0..h_n of the alphabet whose generating series is exp(sign * sum sigma_k z^k)."""
    a = [Fraction(0)] + [sign * sigma[k - 1] if k <= len(sigma) else Fraction(0)
                         for k in range(1, n_max + 1)]
    return tuple(exp_pieces(a, Fraction(1), Fraction(0)))


def support(sigma) -> int:
    """L: the largest index with sigma_L != 0 (0 for an all-zero sigma)."""
    return max((i for i, x in enumerate(sigma, start=1) if x), default=0)


def h_list(sigma, sign: int, n_max: int) -> tuple:
    """h_0..h_{n_max} at the alphabet with normalized power sums sigma
    (p_k = sign k sigma_k), for any sequence of rationals sigma."""
    return _h_list_cached(tuple(Fraction(x) for x in sigma), sign, n_max)


def schur_at_sigma(lam: Partition, sigma) -> Fraction:
    """s_lambda of the sigma-alphabet via Jacobi-Trudi, det(h_{lam_i - i + j}).

    Works for any |lambda| without reading a single character.
    """
    ell = lam.length
    if ell == 0:
        return Fraction(1)
    n_max = lam.parts[0] + ell
    h = h_list(sigma, 1, n_max)

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


def schur_sector_sum(w_max: int, d_max: int, weight) -> GradedPoly:
    """sum over |lambda| <= w_max of weight(lambda) s_lambda(t) s_lambda(s), at grade |lambda|.

    ``weight`` maps a partition to a BetaSeries of order d_max.  Weight 1
    gives cauchy_kernel (the Cauchy identity); the content product gives the
    tau-function.
    """
    terms: dict = {}
    for lam in partitions_up_to(w_max):
        r = weight(lam)
        tmap = list(schur_monomial_map(lam).items())
        grade = lam.weight
        # r a_t a_s is symmetric in (t, s): form r a_t once per t and each
        # unordered pair once (row i holds j >= i), then add in (t, s) order
        rows = []
        for i, (_, a) in enumerate(tmap):
            ra = r * a
            rows.append([ra * b for _, b in tmap[i:]])
        for i, (t_exp, _) in enumerate(tmap):
            for j, (s_exp, _) in enumerate(tmap):
                key = (t_exp, s_exp, grade)
                contrib = rows[i][j - i] if i <= j else rows[j][i - j]
                if key in terms:
                    terms[key] = terms[key] + contrib
                else:
                    terms[key] = contrib
    return GradedPoly(terms, w_max, d_max)
