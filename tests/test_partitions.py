import random
from itertools import chain

import pytest

import _brute as brute
from qcore import Partition, count_t_cores, evaluate_side, t_cores
from qcore.products import FORMS


def flat_hooks(p):
    return list(chain.from_iterable(p.hook_numbers()))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))


# -- the reference enumerator in _brute, and Partition over what it lists ----


def test_enumeration_counts_match_partition_numbers():
    expected = brute.partition_counts(12)
    for n in range(13):
        assert sum(1 for _ in brute.partitions_of(n)) == expected[n]


def test_enumeration_of_zero():
    assert list(brute.partitions_of(0)) == [()]


def test_enumeration_order_is_decreasing_lex():
    for n in (5, 6, 9):
        seen = list(brute.partitions_of(n))
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)


def test_partitions_of_nine_include_example():
    assert (4, 3, 1, 1) in set(brute.partitions_of(9))


def test_conjugate_example():
    assert Partition((4, 3, 1, 1)).conjugate() == Partition((4, 2, 2, 1))


def test_conjugate_involution_and_row():
    for n in range(9):
        for parts in brute.partitions_of(n):
            p = Partition(parts)
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


def test_is_t_core_rejects_t_below_one():
    with pytest.raises(ValueError):
        Partition((2, 1)).is_t_core(0)


def test_is_t_core_matches_brute_hook_test():
    for n in range(11):
        for parts in brute.partitions_of(n):
            for t in range(1, 8):
                assert Partition(parts).is_t_core(t) == brute.is_t_core(parts, t), (parts, t)


def test_conjugation_preserves_hook_multiset():
    for n in range(13):
        for parts in brute.partitions_of(n):
            p = Partition(parts)
            assert sorted(flat_hooks(p)) == sorted(flat_hooks(p.conjugate()))


# -- the lattice-vector oracle -----------------------------------------------


def test_count_t_cores_small_values():
    assert count_t_cores(0, 5) == 1
    assert count_t_cores(2, 5) == 2
    assert count_t_cores(4, 5) == 5


def test_count_large_t_degenerates_to_partition_count():
    expected = brute.partition_counts(10)
    for n in range(11):
        assert count_t_cores(n, n + 1) == expected[n]


def test_only_the_empty_partition_is_a_one_core():
    assert t_cores(0, 1) == [Partition(())]
    assert all(count_t_cores(n, 1) == 0 for n in range(1, 30))


def test_rejects_negative_n_and_t_below_one():
    for n, t in ((-1, 5), (5, 0)):
        with pytest.raises(ValueError):
            count_t_cores(n, t)
        with pytest.raises(ValueError):
            t_cores(n, t)


def test_oracle_matches_series_prefix():
    # gen_c5 is a divisor sum; the series engine is checked here through
    # the product side f5^5/f1
    series = evaluate_side(FORMS["c5"].side, 300)
    for n in range(301):
        assert count_t_cores(n, 5) == series[n], n


def test_oracle_matches_series_at_sampled_large_n():
    rng = random.Random(11)
    sample = [rng.randint(301, 5000) for _ in range(10)]
    series = evaluate_side(FORMS["c5"].side, max(sample))
    for n in sample:
        assert count_t_cores(n, 5) == series[n], n


def test_counts_match_product_formula():
    for t in range(1, 8):
        expected = brute.t_core_counts(t, 40)
        assert [count_t_cores(n, t) for n in range(41)] == expected, t


def test_listing_matches_brute_enumerator():
    for n in range(21):
        partitions = list(brute.partitions_of(n))
        for t in range(1, 8):
            expected = [parts for parts in partitions if brute.is_t_core(parts, t)]
            assert [p.parts for p in t_cores(n, t)] == expected, (n, t)
            assert count_t_cores(n, t) == len(expected), (n, t)


@pytest.mark.parametrize("n, t", [(36, 5), (40, 7), (25, 12), (20, 30)])
def test_every_listed_partition_is_a_t_core_of_n(n, t):
    cores = t_cores(n, t)
    assert len(cores) == count_t_cores(n, t) == len(set(cores))
    assert all(p.weight == n and p.is_t_core(t) for p in cores)


def test_positivity_for_t_at_least_four():
    for t in (4, 5, 6):
        assert all(count_t_cores(n, t) >= 1 for n in range(26))
