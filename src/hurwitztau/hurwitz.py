"""Weighted Hurwitz numbers by independent routes, each a (mu, nu, d) table.

R1 (characters) is the production route; R2 (weighted configuration sums over
branch profiles) and R3 (monotone walks) are exponential-cost oracle routes,
and tau's own coefficients a fourth, all compared on small inputs; the
connected numbers come from log tau, checked against a transitivity oracle.
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


def _profile_sum(family: WeightFamily, mu: Partition, nu: Partition, d: int, count) -> Fraction:
    """Weighted configuration sum over branch-profile tuples.

    For each signature lam of d, one nontrivial profile is assigned to every
    part of lam (parts in their sorted order, distinct profiles of equal
    colength contributing once per assignment) -- this is the class-sum
    expansion of the content product, prod over parts of C-sums of the given
    colength, weighted by m_lambda of G's roots (``profile_weight``).
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
        profiles = ([p for p in enumerate_partitions(N) if p.colength() == c] for c in lam.parts)
        for tup in itertools.product(*profiles):
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


def _per_d(route, family: WeightFamily, d_max: int):
    """A per-d route as a row: (mu, nu) -> sum_d beta^d route(family, mu, nu, d)."""
    return lambda mu, nu: BetaSeries([route(family, mu, nu, d) for d in range(d_max + 1)])


def _agreement(tables: dict, window: dict, n_max: int, d_max: int) -> dict:
    """Named (mu, nu, d) -> value tables over N <= n_max, d <= d_max, compared
    key by key (an absent key reads 0): the first key where they differ, with
    every route's value there, or success with the number of keys compared."""
    for key in dict.fromkeys(k for table in tables.values() for k in table):
        values = {name: table.get(key, 0) for name, table in tables.items()}
        if len(set(values.values())) > 1:
            mu, nu, d = key
            return {"ok": False, **window, "mu": mu.parts, "nu": nu.parts, "d": d,
                    **{name: str(value) for name, value in values.items()}}
    pairs = sum(len(enumerate_partitions(N)) ** 2 for N in range(1, n_max + 1))
    return {"ok": True, **window, "checked": pairs * (d_max + 1)}


def verify_routes(family: WeightFamily, n_max: int = 4, d_max: int = 3) -> dict:
    """R2 = R3 = R1 = tau's own coefficients for N <= n_max, d <= d_max; the
    budgeted oracles run first, so a window past their budget fails fast."""
    weights = range(1, n_max + 1)
    tables = {
        "profiles": _table(_per_d(H_via_profiles, family, d_max), weights, d_max),
        "paths": _table(_per_d(H_via_paths, family, d_max), weights, d_max),
        "characters": _table(partial(H_via_characters, family, d_max=d_max), weights, d_max),
        "tau": _table(
            partial(pair_series, build_tau(family, max(n_max, 0), d_max).body), weights, d_max
        ),
    }
    window = {"family": family.label, "n_max": n_max, "d_max": d_max}
    return _agreement(tables, window, n_max, d_max)


def verify_connected(family: WeightFamily, n_max: int = 3, d_max: int = 3) -> dict:
    """Genus parity of the log-tau connected numbers, then the numbers against
    the transitivity oracle.  One log tau at n_max serves every N: its weight-N
    coefficients read only the terms of tau of weight <= N."""
    log_tau_table = connected_table_entries(family, max(n_max, 0), d_max)
    for (mu, nu, d), value in log_tau_table.items():
        g, admissible = genus_of(mu, nu, d)
        if not admissible:
            return {"ok": False, "family": family.label, "mu": mu.parts, "nu": nu.parts,
                    "d": d, "reason": "inadmissible genus with nonzero entry", "genus": str(g)}
    oracle = _table(_per_d(H_connected_via_oracle, family, d_max), range(1, n_max + 1), d_max)
    tables = {"log_tau": log_tau_table, "oracle": oracle}
    return _agreement(tables, {"family": family.label}, n_max, d_max)
