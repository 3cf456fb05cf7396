"""Brute-force ground truth in S_N: class-algebra structure constants,
factorization counts, transitive (connected) counts, and monotone-walk counts.

Everything here is independent of the character/series machinery on purpose:
it is the oracle the fast routes are validated against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError, ResourceError
from .partitions import Partition, enumerate_partitions

CLASS_ALGEBRA_CAP = 7
TRANSITIVE_CAP = 5
TUPLE_BUDGET = 2_000_000

Perm = tuple  # perm[x] = image of x, 0-based


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def cycle_type(p: Perm) -> Partition:
    n = len(p)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return Partition(lengths)


def transposition(n: int, a: int, b: int) -> Perm:
    out = list(range(n))
    out[a], out[b] = out[b], out[a]
    return tuple(out)


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> dict:
    """cycle type -> tuple of all permutations of that type."""
    buckets: dict[Partition, list] = {lam: [] for lam in enumerate_partitions(n)}
    for p in itertools.permutations(range(n)):
        buckets[cycle_type(p)].append(p)
    return {lam: tuple(v) for lam, v in buckets.items()}


@lru_cache(maxsize=None)
def build_class_algebra(N: int) -> dict:
    """The class algebra of S_N as its structure constants, by direct
    enumeration (N <= 7): (mu, nu) -> {lam: k}, C_mu C_nu = sum k^lam C_lam."""
    if not 1 <= N <= CLASS_ALGEBRA_CAP:
        raise ResourceError(f"class algebra cap exceeded: N={N} > {CLASS_ALGEBRA_CAP}")
    classes = enumerate_partitions(N)
    members = conjugacy_classes(N)
    sizes = {lam: len(members[lam]) for lam in classes}
    structure = {}
    for mu in classes:
        rep = members[mu][0]
        for nu in classes:
            counts: dict[Partition, int] = {}
            for y in members[nu]:
                lam = cycle_type(compose(rep, y))
                counts[lam] = counts.get(lam, 0) + 1
            row = {}
            for lam, cnt in counts.items():
                total = sizes[mu] * cnt
                if total % sizes[lam]:
                    raise AssertionError("structure constant is not an integer")
                row[lam] = total // sizes[lam]
            structure[(mu, nu)] = row
    return structure


def factorization_count(N: int, profiles) -> Fraction:
    """H(mu^1, ..., mu^k): 1/N! times the number of identity factorizations
    with the prescribed cycle types.  Zero if the weights disagree."""
    profiles = [Partition(p) if not isinstance(p, Partition) else p for p in profiles]
    if any(p.weight != N for p in profiles):
        return Fraction(0)
    structure = build_class_algebra(N)
    id_class = Partition([1] * N)
    # accumulate prod C_mu in the class-sum basis
    vec = {id_class: 1}
    for prof in profiles:
        new: dict[Partition, int] = {}
        for lam, a in vec.items():
            for rho_cls, k in structure[(prof, lam)].items():
                new[rho_cls] = new.get(rho_cls, 0) + a * k
        vec = new
    return Fraction(vec.get(id_class, 0), factorial(N))


def _is_transitive(perms, n: int) -> bool:
    if n == 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(n):
            rx, ry = find(x), find(p[x])
            if rx != ry:
                parent[rx] = ry
    root = find(0)
    return all(find(x) == root for x in range(n))


def transitive_factorization_count(N: int, profiles) -> Fraction:
    """Same count as factorization_count but restricted to tuples generating a
    transitive subgroup (connected coverings)."""
    profiles = [Partition(p) if not isinstance(p, Partition) else p for p in profiles]
    if any(p.weight != N for p in profiles):
        return Fraction(0)
    if N > TRANSITIVE_CAP:
        raise ResourceError(f"transitive enumeration cap exceeded: N={N} > {TRANSITIVE_CAP}")
    if not profiles:
        return Fraction(1 if N == 1 else 0, factorial(N))
    members = conjugacy_classes(N)
    head = profiles[:-1]
    last = profiles[-1]
    total_tuples = 1
    for p in head:
        total_tuples *= len(members[p])
    if total_tuples > TUPLE_BUDGET:
        raise ResourceError(f"tuple budget exceeded: {total_tuples} > {TUPLE_BUDGET}")
    count = 0
    for combo in itertools.product(*(members[p] for p in head)):
        prod = identity(N)
        for h in combo:
            prod = compose(prod, h)
        closer = inverse(prod)
        if cycle_type(closer) != last:
            continue
        if _is_transitive(combo + (closer,), N):
            count += 1
    return Fraction(count, factorial(N))


def _monotone_sequences(n: int, d: int):
    """All transposition sequences ((a_1,b_1)..(a_d,b_d)), a<b, with b_i nondecreasing."""
    pairs = [(a, b) for b in range(1, n) for a in range(b)]

    def gen(prefix, min_b):
        if len(prefix) == d:
            yield tuple(prefix)
            return
        for a, b in pairs:
            if b >= min_b:
                yield from gen(prefix + [(a, b)], b)

    yield from gen([], 0)


PATH_N_CAP = 6  # the path oracle's budget: N <= PATH_N_CAP, d <= PATH_D_CAP
PATH_D_CAP = 4


@lru_cache(maxsize=(PATH_N_CAP + 1) * (PATH_D_CAP + 1))
def _walk_table(N: int, d: int) -> dict:
    """(lam, nu) -> {mu: count} over all weakly monotone d-step walks and all
    start points h in S_N, mu being the cycle type of walk * h."""
    walks: dict[tuple, int] = {}
    for seq in _monotone_sequences(N, d):
        mult: dict[int, int] = {}
        for _, b in seq:
            mult[b] = mult.get(b, 0) + 1
        lam = Partition(sorted(mult.values(), reverse=True))
        walk = identity(N)
        for a, b in seq:
            walk = compose(transposition(N, a, b), walk)
        walks[(lam, walk)] = walks.get((lam, walk), 0) + 1
    table: dict[tuple, dict] = {}
    for nu, members in conjugacy_classes(N).items():
        for (lam, walk), times in walks.items():
            hist = table.setdefault((lam, nu), {})
            for h in members:
                mu = cycle_type(compose(walk, h))
                hist[mu] = hist.get(mu, 0) + times
    return table


def monotone_path_count(N: int, lam: Partition, mu: Partition, nu: Partition) -> int:
    """Number of weakly monotone d-step transposition walks from cyc(nu) into
    cyc(mu) whose second-element multiplicity profile is lam.

    Counts all start points h in the class of nu; the 1/N! normalization is
    applied by the Hurwitz-number assembly, not here.  The count is read from
    one brute-force table per (N, d = |lam|): every monotone walk composed
    with every h in S_N, histogrammed by (lam, nu) and the cycle type of the
    product.  The tables sit in an LRU cache with one slot for every
    (N, d) within the path oracle's budget, N <= PATH_N_CAP and d <= PATH_D_CAP.
    """
    if mu.weight != N or nu.weight != N:
        raise DomainError("mu, nu must partition N")
    return _walk_table(N, lam.weight).get((lam, nu), {}).get(mu, 0)
