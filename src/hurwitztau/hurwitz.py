"""Weighted Hurwitz numbers by three independent routes.

R1 (characters) is the production route; R2 (weighted configuration sums over
branch profiles) and R3 (monotone walks) are exponential-cost oracle routes
used for cross-validation on small inputs, and the connected numbers come
from log tau with a transitivity oracle as a further check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import factorial

from .errors import ResourceError
from .exactalg import BetaSeries, BRing
from .grouporacle import (
    PATH_D_CAP,
    PATH_N_CAP,
    factorization_count,
    monotone_path_count,
    transitive_factorization_count,
)
from .partitions import Partition, enumerate_partitions, genus_of
from .symfun import character
from .taufn import build_tau, log_tau, pair_series
from .weights import WeightFamily, content_product, path_weight, profile_weight

CHAR_TABLE_N_CAP = 10
PROFILE_N_CAP = 5
PROFILE_D_CAP = 3


def _check_char_table_cap(N: int) -> None:
    if N > CHAR_TABLE_N_CAP:
        raise ResourceError(f"character table cap exceeded: N={N} > {CHAR_TABLE_N_CAP}")


def H_via_characters(
    family: WeightFamily, mu: Partition, nu: Partition, d_max: int
) -> BetaSeries:
    """sum_d beta^d H^d(mu,nu) = (1/(z_mu z_nu)) sum_{|lam|=N} chi(mu) chi(nu) r_lam."""
    if mu.weight != nu.weight:
        return BetaSeries.zero(d_max)
    N = mu.weight
    if N == 0:
        return BetaSeries.one(d_max)
    _check_char_table_cap(N)
    ring = BRing(d_max)
    acc = BetaSeries.zero(d_max)
    for lam in enumerate_partitions(N):
        chi_mu = character(lam, mu)
        if chi_mu == 0:
            continue
        chi_nu = character(lam, nu)
        if chi_nu == 0:
            continue
        acc = acc + content_product(family, lam, ring) * (chi_mu * chi_nu)
    return acc / Fraction(mu.z_order() * nu.z_order())


def _profiles_with_colength(N: int, c: int):
    return [p for p in enumerate_partitions(N) if p.colength() == c]


def _profile_sum(family: WeightFamily, mu: Partition, nu: Partition, d: int, count) -> Fraction:
    """Weighted configuration sum over branch-profile tuples.

    For each signature lam of d, one nontrivial profile is assigned to every
    part of lam (parts in their sorted order, distinct profiles of equal
    colength contributing once per assignment) -- this is the class-sum
    expansion of the content product, prod over parts of C-sums of the given
    colength, weighted by the monomial (or forgotten) symmetric function.
    ``count(N, profiles)`` is 1/N! times the number of identity
    factorizations with those cycle types: all of them for R2, the transitive
    ones for the connected oracle.
    """
    if mu.weight != nu.weight:
        return Fraction(0)
    N = mu.weight
    total = Fraction(0)
    for lam in enumerate_partitions(d):
        weight = profile_weight(family, lam)
        if weight == 0:
            continue
        for tup in itertools.product(*(_profiles_with_colength(N, c) for c in lam.parts)):
            h = count(N, list(tup) + [mu, nu])
            if h:
                total += weight * h
    return total


def H_via_profiles(family: WeightFamily, mu: Partition, nu: Partition, d: int) -> Fraction:
    """R2: the configuration sum over all factorizations (class algebra of S_N)."""
    if mu.weight == nu.weight and (mu.weight > PROFILE_N_CAP or d > PROFILE_D_CAP):
        raise ResourceError(
            f"profile oracle budget: need N <= {PROFILE_N_CAP}, d <= {PROFILE_D_CAP}"
        )
    return _profile_sum(family, mu, nu, d, factorization_count)


def H_via_paths(family: WeightFamily, mu: Partition, nu: Partition, d: int) -> Fraction:
    """(1/N!) sum over signatures lam of d of g_lam-weighted monotone walk counts."""
    if mu.weight != nu.weight:
        return Fraction(0)
    N = mu.weight
    if N > PATH_N_CAP or d > PATH_D_CAP:
        raise ResourceError(f"path oracle budget: need N <= {PATH_N_CAP}, d <= {PATH_D_CAP}")
    total = Fraction(0)
    for lam in enumerate_partitions(d):
        w = path_weight(family, lam)
        if w == 0:
            continue
        count = monotone_path_count(N, lam, mu, nu)
        if count:
            total += w * Fraction(count, factorial(N))
    return total


def H_connected_via_oracle(
    family: WeightFamily, mu: Partition, nu: Partition, d: int
) -> Fraction:
    """The configuration sum restricted to transitive factorizations (the
    connected analogue of R2)."""
    return _profile_sum(family, mu, nu, d, transitive_factorization_count)


def _table(row, weights, d_max: int) -> dict:
    """(mu, nu, d) -> nonzero [beta^d] row(mu, nu) for |mu| = |nu| in weights."""
    table = {}
    for N in weights:
        pairs = enumerate_partitions(N)
        for mu in pairs:
            for nu in pairs:
                series = row(mu, nu)
                for d in range(d_max + 1):
                    if series[d] != 0:
                        table[(mu, nu, d)] = series[d]
    return table


def build_table(family: WeightFamily, N: int, d_max: int) -> dict:
    """(mu, nu, d) -> nonzero H^d(mu, nu) for |mu| = |nu| = N, via characters."""
    _check_char_table_cap(N)  # before the p(N) partitions are enumerated
    return _table(partial(H_via_characters, family, d_max=d_max), [N], d_max)


def connected_table_entries(family: WeightFamily, N: int, d_max: int) -> dict:
    """(mu, nu, d) -> connected number, extracted from log tau at w_max = N."""
    log_body = log_tau(build_tau(family, N, d_max))
    return _table(partial(pair_series, log_body), range(1, N + 1), d_max)


def verify_routes(family: WeightFamily, n_max: int = 4, d_max: int = 3) -> dict:
    """Cross-check R1 = R2 = R3 on every pair with N <= n_max, d <= d_max.

    Returns a report of the window checked, with the first mismatch (if any)
    spelled out.
    """
    window = {"family": family.label, "n_max": n_max, "d_max": d_max}
    checked = 0
    for N in range(1, n_max + 1):
        parts = enumerate_partitions(N)
        for mu in parts:
            for nu in parts:
                r1 = H_via_characters(family, mu, nu, d_max)
                for d in range(d_max + 1):
                    r2 = H_via_profiles(family, mu, nu, d)
                    r3 = H_via_paths(family, mu, nu, d)
                    checked += 1
                    if not (r1[d] == r2 == r3):
                        return {
                            "ok": False,
                            **window,
                            "mu": mu.parts,
                            "nu": nu.parts,
                            "d": d,
                            "characters": str(r1[d]),
                            "profiles": str(r2),
                            "paths": str(r3),
                            "checked": checked,
                        }
    return {"ok": True, **window, "checked": checked}


def verify_connected(family: WeightFamily, n_max: int = 3, d_max: int = 3) -> dict:
    """log-tau connected numbers vs the transitivity oracle, plus genus parity.

    One log tau at n_max serves every N: its weight-N coefficients read only
    the terms of tau of weight <= N.
    """
    entries = connected_table_entries(family, max(n_max, 0), d_max)
    checked = 0
    for N in range(1, n_max + 1):
        parts = enumerate_partitions(N)
        for mu in parts:
            for nu in parts:
                for d in range(d_max + 1):
                    got = entries.get((mu, nu, d), Fraction(0))
                    want = H_connected_via_oracle(family, mu, nu, d)
                    checked += 1
                    if got != want:
                        return {
                            "ok": False,
                            "N": N,
                            "mu": mu.parts,
                            "nu": nu.parts,
                            "d": d,
                            "log_tau": str(got),
                            "oracle": str(want),
                        }
                    g, admissible = genus_of(mu, nu, d)
                    if not admissible and got != 0:
                        return {
                            "ok": False,
                            "reason": "inadmissible genus with nonzero entry",
                            "mu": mu.parts,
                            "nu": nu.parts,
                            "d": d,
                            "genus": str(g),
                        }
    return {"ok": True, "family": family.label, "checked": checked}
