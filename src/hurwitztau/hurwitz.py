"""Weighted Hurwitz numbers by three independent routes.

R1 (characters) is the production route; R2 (weighted configuration sums over
branch profiles) and R3 (monotone walks) are exponential-cost oracle routes
used for cross-validation on small inputs, and the connected numbers come
from log tau with a transitivity oracle as a further check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ResourceError
from .exactalg import BetaSeries
from .grouporacle import (
    PATH_D_CAP,
    PATH_N_CAP,
    factorization_count,
    monotone_path_count,
    transitive_factorization_count,
)
from .partitions import Partition, enumerate_partitions, genus_of
from .symfun import char_table
from .weights import WeightFamily, content_product, path_weight, profile_weight

PROFILE_N_CAP = 5
PROFILE_D_CAP = 3


@dataclass
class HurwitzTable:
    family: WeightFamily
    N: int
    d_max: int
    entries: dict = field(default_factory=dict)  # (mu, nu, d) -> Fraction
    connected: dict | None = None
    route: str = "characters"


def H_via_characters(
    family: WeightFamily, mu: Partition, nu: Partition, d_max: int
) -> BetaSeries:
    """sum_d beta^d H^d(mu,nu) = (1/(z_mu z_nu)) sum_{|lam|=N} chi(mu) chi(nu) r_lam."""
    if mu.weight != nu.weight:
        return BetaSeries.zero(d_max)
    N = mu.weight
    if N == 0:
        return BetaSeries.one(d_max)
    table = char_table(N)
    acc = BetaSeries.zero(d_max)
    for lam in table.partitions:
        chi_mu = table.chi(lam, mu)
        if chi_mu == 0:
            continue
        chi_nu = table.chi(lam, nu)
        if chi_nu == 0:
            continue
        acc = acc + content_product(family, lam, 0, d_max).value * (chi_mu * chi_nu)
    return acc / Fraction(mu.z_order() * nu.z_order())


def _profiles_with_colength(N: int, c: int):
    return [p for p in enumerate_partitions(N) if p.colength() == c]


def H_via_profiles(family: WeightFamily, mu: Partition, nu: Partition, d: int) -> Fraction:
    """Weighted configuration sum over branch-profile tuples.

    For each signature lam of d, one nontrivial profile is assigned to every
    part of lam (parts in their sorted order, distinct profiles of equal
    colength contributing once per assignment) -- this is the class-sum
    expansion of the content product, prod over parts of C-sums of the given
    colength, weighted by the monomial (or forgotten) symmetric function.
    """
    if mu.weight != nu.weight:
        return Fraction(0)
    N = mu.weight
    if N > PROFILE_N_CAP or d > PROFILE_D_CAP:
        raise ResourceError(
            f"profile oracle budget: need N <= {PROFILE_N_CAP}, d <= {PROFILE_D_CAP}"
        )
    total = Fraction(0)
    for lam in enumerate_partitions(d):
        weight = profile_weight(family, lam)
        if weight == 0:
            continue
        for tup in itertools.product(*(_profiles_with_colength(N, c) for c in lam.parts)):
            h = factorization_count(N, list(tup) + [mu, nu])
            if h:
                total += weight * h
    return total


def H_via_paths(family: WeightFamily, mu: Partition, nu: Partition, d: int) -> Fraction:
    """(1/N!) sum over signatures lam of d of g_lam-weighted monotone walk counts."""
    if mu.weight != nu.weight:
        return Fraction(0)
    N = mu.weight
    if N > PATH_N_CAP or d > PATH_D_CAP:
        raise ResourceError(f"path oracle budget: need N <= {PATH_N_CAP}, d <= {PATH_D_CAP}")
    total = Fraction(0)
    nfact = 1
    for i in range(2, N + 1):
        nfact *= i
    for lam in enumerate_partitions(d):
        w = path_weight(family, lam)
        if w == 0:
            continue
        count = monotone_path_count(N, lam, mu, nu)
        if count:
            total += w * Fraction(count, nfact)
    return total


def H_connected_via_oracle(
    family: WeightFamily, mu: Partition, nu: Partition, d: int
) -> Fraction:
    """Transitivity-restricted configuration sum (the connected analogue of R2)."""
    if mu.weight != nu.weight:
        return Fraction(0)
    N = mu.weight
    total = Fraction(0)
    for lam in enumerate_partitions(d):
        weight = profile_weight(family, lam)
        if weight == 0:
            continue
        for tup in itertools.product(*(_profiles_with_colength(N, c) for c in lam.parts)):
            h = transitive_factorization_count(N, list(tup) + [mu, nu])
            if h:
                total += weight * h
    return total


def build_table(
    family: WeightFamily, N: int, d_max: int, connected: bool = False
) -> HurwitzTable:
    """Production table via characters; connected entries from log tau on request."""
    table = HurwitzTable(family, N, d_max, route="characters")
    pairs = enumerate_partitions(N)
    for mu in pairs:
        for nu in pairs:
            series = H_via_characters(family, mu, nu, d_max)
            for d in range(d_max + 1):
                if series[d] != 0:
                    table.entries[(mu, nu, d)] = series[d]
    if connected:
        table.connected = connected_table_entries(family, N, d_max)
    return table


def connected_table_entries(family: WeightFamily, N: int, d_max: int) -> dict:
    """(mu, nu, d) -> connected number, extracted from log tau at w_max = N."""
    from .taufn import build_tau, connected_pair_series, log_tau

    tau = build_tau(family, N, d_max)
    log_body = log_tau(tau)
    out = {}
    for M in range(1, N + 1):
        for mu in enumerate_partitions(M):
            for nu in enumerate_partitions(M):
                series = connected_pair_series(log_body, mu, nu)
                for d in range(d_max + 1):
                    if series[d] != 0:
                        out[(mu, nu, d)] = series[d]
    return out


def H_connected(family: WeightFamily, N: int, d_max: int) -> HurwitzTable:
    table = build_table(family, N, d_max, connected=True)
    table.route = "log"
    return table


def verify_routes(family: WeightFamily, n_max: int = 4, d_max: int = 3) -> dict:
    """Cross-check R1 = R2 = R3 on every pair with N <= n_max, d <= d_max.

    Returns a report with the first mismatch (if any) spelled out.
    """
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
                            "family": family.label,
                            "mu": mu.parts,
                            "nu": nu.parts,
                            "d": d,
                            "characters": str(r1[d]),
                            "profiles": str(r2),
                            "paths": str(r3),
                            "checked": checked,
                        }
    return {"ok": True, "family": family.label, "checked": checked}


def verify_connected(family: WeightFamily, n_max: int = 3, d_max: int = 3) -> dict:
    """log-tau connected numbers vs the transitivity oracle, plus genus parity."""
    checked = 0
    for N in range(1, n_max + 1):
        entries = connected_table_entries(family, N, d_max)
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
