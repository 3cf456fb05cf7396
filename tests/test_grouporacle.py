import itertools
from fractions import Fraction
from math import factorial

import pytest

from hurwitztau.errors import ResourceError
from hurwitztau.grouporacle import (
    PATH_D_CAP,
    PATH_N_CAP,
    _monotone_sequences,
    _walk_table,
    build_class_algebra,
    compose,
    conjugacy_classes,
    cycle_type,
    factorization_count,
    identity,
    inverse,
    monotone_path_count,
    transitive_factorization_count,
    transposition,
)
from hurwitztau.partitions import Partition, enumerate_partitions

F = Fraction


def test_class_sizes():
    alg = build_class_algebra(4)
    assert sum(alg.sizes.values()) == factorial(4)
    assert alg.sizes[Partition((2, 1, 1))] == 6


def test_transposition_squares_to_identity():
    alg = build_class_algebra(2)
    row = alg.structure[(Partition((2,)), Partition((2,)))]
    assert row == {Partition((1, 1)): 1}


def test_s3_transposition_product():
    alg = build_class_algebra(3)
    row = alg.structure[(Partition((2, 1)), Partition((2, 1)))]
    assert row == {Partition((1, 1, 1)): 3, Partition((3,)): 3}


def test_identity_class_is_unit():
    alg = build_class_algebra(4)
    e = Partition((1, 1, 1, 1))
    for lam in alg.classes:
        assert alg.structure[(e, lam)] == {lam: 1}
        assert alg.structure[(lam, e)] == {lam: 1}


def test_class_multiplication_commutes_and_associates_spot():
    alg = build_class_algebra(4)
    classes = alg.classes
    for mu, nu in itertools.product(classes[:3], classes[:3]):
        assert alg.structure[(mu, nu)] == alg.structure[(nu, mu)]


def test_factorization_against_direct_enumeration():
    # class-algebra coefficients vs raw permutation tuples, N <= 4, <= 3 factors
    for n in (2, 3, 4):
        members = conjugacy_classes(n)
        profiles_pool = list(enumerate_partitions(n))
        for profs in itertools.product(profiles_pool, repeat=2):
            direct = 0
            for pair in itertools.product(*(members[p] for p in profs)):
                prod = identity(n)
                for h in pair:
                    prod = compose(prod, h)
                if prod == identity(n):
                    direct += 1
            assert factorization_count(n, profs) == F(direct, factorial(n))


def test_factorization_examples():
    assert factorization_count(2, [Partition((2,)), Partition((2,))]) == F(1, 2)
    assert factorization_count(3, [Partition((2, 1)), Partition((3,))]) == 0
    # mismatched weights
    assert factorization_count(2, [Partition((2,)), Partition((3,))]) == 0
    for n in range(1, 5):
        assert factorization_count(n, [Partition([1] * n)]) == F(1, factorial(n))


def test_transitive_examples():
    assert transitive_factorization_count(2, [Partition((2,)), Partition((2,))]) == F(1, 2)
    assert transitive_factorization_count(2, [Partition((1, 1)), Partition((1, 1))]) == 0
    assert transitive_factorization_count(1, [Partition((1,))]) == 1


def test_transitive_not_more_than_total():
    for n in (2, 3):
        for profs in itertools.product(enumerate_partitions(n), repeat=2):
            total = factorization_count(n, profs)
            conn = transitive_factorization_count(n, profs)
            assert conn <= total
            if n == 1:
                assert conn == total


def test_transitive_cap():
    with pytest.raises(ResourceError):
        transitive_factorization_count(6, [Partition([6])])


def test_monotone_path_d0():
    members = conjugacy_classes(3)
    nu = Partition((2, 1))
    assert monotone_path_count(3, Partition(), nu, nu) == len(members[nu])
    assert monotone_path_count(3, Partition(), Partition((3,)), nu) == 0


def test_monotone_path_small():
    assert monotone_path_count(2, Partition((1,)), Partition((2,)), Partition((1, 1))) == 1
    assert monotone_path_count(2, Partition((2,)), Partition((1, 1)), Partition((1, 1))) == 1


def reference_monotone_count(N, lam, mu, nu):
    """Per-call enumeration: every monotone sequence with profile lam, every h in nu."""
    members = conjugacy_classes(N)
    count = 0
    for seq in _monotone_sequences(N, lam.weight):
        mult = {}
        for _, b in seq:
            mult[b] = mult.get(b, 0) + 1
        if Partition(sorted(mult.values(), reverse=True)) != lam:
            continue
        walk = identity(N)
        for a, b in seq:
            walk = compose(transposition(N, a, b), walk)
        for h in members[nu]:
            if cycle_type(compose(walk, h)) == mu:
                count += 1
    return count


def test_monotone_table_matches_enumeration():
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        for d in range(4):
            for lam in enumerate_partitions(d):
                for mu in parts:
                    for nu in parts:
                        want = reference_monotone_count(n, lam, mu, nu)
                        assert monotone_path_count(n, lam, mu, nu) == want, (n, lam, mu, nu)


def test_monotone_table_cache_is_bounded():
    # bounded, with room for every (N, d) the path oracle admits
    maxsize = _walk_table.cache_info().maxsize
    assert maxsize is not None
    assert maxsize >= (PATH_N_CAP + 1) * (PATH_D_CAP + 1)


def test_monotone_calibration_identity():
    # d = 0 reduces to delta_{mu nu} |cyc(nu)|; with 1/N! this is 1/z_mu
    for n in (2, 3, 4):
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                count = monotone_path_count(n, Partition(), mu, nu)
                expected = factorial(n) // nu.z_order() if mu == nu else 0
                assert count == expected


def test_perm_helpers():
    p = (1, 2, 0, 3)
    assert compose(p, inverse(p)) == identity(4)
    assert cycle_type(p) == Partition((3, 1))
