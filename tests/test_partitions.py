from itertools import chain

import pytest

import _brute as brute
from qcore import (
    OracleScaleExceeded,
    Partition,
    count_t_cores,
    gen_c5,
    partitions_of,
)


def flat_hooks(p):
    return list(chain.from_iterable(p.hook_numbers()))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))


def test_enumeration_counts_match_partition_numbers():
    expected = brute.partition_counts(12)
    for n in range(13):
        assert sum(1 for _ in partitions_of(n)) == expected[n]


def test_enumeration_of_zero():
    assert list(partitions_of(0)) == [Partition(())]


def test_enumeration_order_is_decreasing_lex():
    for n in (5, 6, 9):
        seen = [p.parts for p in partitions_of(n)]
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)


def test_partitions_of_nine_include_example():
    assert Partition((4, 3, 1, 1)) in set(partitions_of(9))


def test_conjugate_example():
    assert Partition((4, 3, 1, 1)).conjugate() == Partition((4, 2, 2, 1))


def test_conjugate_involution_and_row():
    for n in range(9):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p
    assert Partition((6,)).conjugate() == Partition((1,) * 6)


def test_hook_numbers_example():
    assert flat_hooks(Partition((4, 3, 1, 1))) == [7, 4, 3, 1, 5, 2, 1, 2, 1]
    assert flat_hooks(Partition((1,))) == [1]
    assert flat_hooks(Partition((2, 1))) == [3, 1, 1]
    assert Partition(()).hook_numbers() == ()


def test_example_partition_core_profile():
    l = Partition((4, 3, 1, 1))
    assert l.is_t_core(6)
    assert all(l.is_t_core(t) for t in range(8, 15))
    assert not any(l.is_t_core(t) for t in (1, 2, 3, 4, 5, 7))


def test_empty_partition_is_every_core():
    assert Partition(()).is_t_core(1)
    assert Partition(()).is_t_core(7)


def test_conjugation_preserves_hook_multiset():
    for n in range(13):
        for p in partitions_of(n):
            assert sorted(flat_hooks(p)) == sorted(flat_hooks(p.conjugate()))


def test_count_t_cores_small_values():
    assert count_t_cores(0, 5) == 1
    assert count_t_cores(2, 5) == 2
    assert count_t_cores(4, 5) == 5


def test_count_large_t_degenerates_to_partition_count():
    expected = brute.partition_counts(10)
    for n in range(11):
        assert count_t_cores(n, n + 1) == expected[n]


def test_oracle_matches_series_prefix():
    series = gen_c5(25)
    for n in range(26):
        assert count_t_cores(n, 5) == series[n]


def test_positivity_for_t_at_least_four():
    for t in (4, 5, 6):
        assert all(count_t_cores(n, t) >= 1 for n in range(26))


def test_ceiling_enforced():
    with pytest.raises(OracleScaleExceeded):
        count_t_cores(61, 5)
    assert count_t_cores(12, 5, ceiling=12) == gen_c5(12)[12]
    with pytest.raises(OracleScaleExceeded):
        count_t_cores(13, 5, ceiling=12)
