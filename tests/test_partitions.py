from fractions import Fraction
from math import factorial

import pytest

from hurwitztau.errors import DomainError
from hurwitztau.partitions import (
    Partition,
    enumerate_partitions,
    genus_of,
)

F = Fraction


def test_enumeration_counts():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert len(enumerate_partitions(3)) == 3
    assert len(enumerate_partitions(6)) == 11  # brute-force count


def test_enumeration_reverse_lex_order():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_colength():
    assert Partition((1, 1, 1)).colength() == 0
    assert Partition((3, 1)).colength() == 2
    assert Partition().colength() == 0


def test_aut_and_z():
    def aut_and_z(lam):
        return lam.aut_order(), lam.z_order()

    assert aut_and_z(Partition((2, 2, 1))) == (2, 8)
    assert aut_and_z(Partition((2,))) == (1, 2)
    n = 5
    assert aut_and_z(Partition([1] * n)) == (factorial(n), factorial(n))


def test_class_sizes_partition_the_group():
    for n in range(1, 9):
        total = sum(factorial(n) // p.z_order() for p in enumerate_partitions(n))
        assert total == factorial(n)


def test_contents():
    assert Partition((1,)).contents() == [0]
    assert sorted(Partition((2, 1)).contents()) == [-1, 0, 1]
    assert Partition((3,)).contents() == [0, 1, 2]


def test_contents_count_and_sum():
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            cs = lam.contents()
            assert len(cs) == lam.weight
            expected = sum(
                F(p * (p - 2 * i + 1), 2) for i, p in enumerate(lam.parts, start=1)
            )
            assert sum(cs) == expected


def test_genus():
    # 2 - 2g = l(mu) + l(nu) - d
    g, ok = genus_of(Partition((1, 1)), Partition((1, 1)), 2)
    assert (g, ok) == (0, True)
    g, ok = genus_of(Partition((2,)), Partition((2,)), 2)
    assert (g, ok) == (1, True)
    g, ok = genus_of(Partition((2,)), Partition((2,)), 0)
    assert (g, ok) == (0, True)
    g, ok = genus_of(Partition((2,)), Partition((1, 1)), 2)
    assert (g, ok) == (F(1, 2), False)
    with pytest.raises(DomainError):
        genus_of(Partition((2,)), Partition((1, 1, 1)), 1)


def test_frobenius_roundtrip_examples():
    assert Partition((3, 1)).frobenius() == ((2,), (1,))
    assert Partition((2, 2)).frobenius() == ((1, 0), (1, 0))
    assert Partition().frobenius() == ((), ())


def test_conjugate():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    for n in range(7):
        for lam in enumerate_partitions(n):
            assert lam.conjugate().conjugate() == lam


def test_a_partition_is_the_tuple_of_its_parts():
    lam = Partition([1, 0, 3, 1])  # zeros dropped, parts sorted
    assert isinstance(lam, tuple)
    assert lam == (3, 1, 1) and hash(lam) == hash((3, 1, 1))
    assert lam.parts == (3, 1, 1) and type(lam.parts) is tuple
    assert {lam: 1}[(3, 1, 1)] == 1
    assert repr(lam) == "Partition(3, 1, 1)"
    with pytest.raises(DomainError, match="partition parts must be positive"):
        Partition([2, -1])
