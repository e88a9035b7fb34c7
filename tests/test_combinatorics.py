import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnirate import Partition, bits, min_partition_sum, partition_min_table, subsets
from omnirate.combinatorics import min_partition

from oracles import (
    bell_number,
    brute_min_partition,
    mask_from_indices,
    partitions,
    scatter_subsets,
    set_partitions,
)


def test_bits_roundtrip():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert list(bits(0)) == []


def test_subsets_counts():
    two = mask_from_indices([1, 2])
    assert sorted(subsets(two)) == [0, 0b010, 0b100, 0b110]
    three = mask_from_indices([1, 2, 3])
    assert len(scatter_subsets(three, nonempty=True, proper=True)) == 6
    single = mask_from_indices([1])
    assert scatter_subsets(single, nonempty=True, proper=True) == []


def test_subsets_ascending_and_unique():
    ground = 0b101101
    seen = list(subsets(ground))
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen)) == 2 ** ground.bit_count()
    assert all(s & ~ground == 0 for s in seen)


@pytest.mark.parametrize("nonempty", [False, True])
@pytest.mark.parametrize("proper", [False, True])
def test_subsets_match_bit_scatter_oracle(nonempty, proper):
    # every ground below 2^9, holes and the empty ground included
    for ground in range(1 << 9):
        got = list(subsets(ground, nonempty=nonempty))
        # ground comes last, so the proper sub-masks are all the others
        if proper:
            got = got[:-1]
        assert got == scatter_subsets(ground, nonempty=nonempty, proper=proper), ground


@pytest.mark.parametrize(
    "n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]
)
def test_partition_counts_are_bell_numbers(n, count):
    ground = (1 << n) - 1
    assert sum(1 for _ in partitions(ground)) == count


def test_proper_partition_counts():
    for n in range(1, 6):
        ground = (1 << n) - 1
        total = sum(1 for _ in partitions(ground))
        assert sum(1 for _ in partitions(ground, proper=True)) == total - 1


def test_partitions_of_singleton():
    got = list(partitions(1))
    assert got == [Partition(1, (1,))]
    assert list(partitions(1, proper=True)) == []


@given(st.integers(min_value=1, max_value=63))
def test_partitions_are_valid_and_distinct(ground):
    seen = set()
    for part in partitions(ground):
        assert part.ground == ground
        union = 0
        for block in part.blocks:
            assert block != 0
            assert union & block == 0
            union |= block
        assert union == ground
        # canonical order: ascending smallest element
        lows = [b & -b for b in part.blocks]
        assert lows == sorted(lows)
        assert part.blocks not in seen
        seen.add(part.blocks)
    assert len(seen) == bell_number(ground.bit_count())


def test_min_partition_sum_trivial_cases():
    value, part = min_partition_sum(0b001, lambda s: Fraction(s.bit_count()))
    assert (value, part.blocks) == (Fraction(1), (0b001,))
    value, part = min_partition_sum(0b011, lambda s: Fraction(1))
    assert value == Fraction(1)
    assert part.blocks == (0b011,)  # fewer blocks win the tie-break among cost-1 options


def test_min_partition_sum_prefers_fewer_blocks_then_lex():
    # every partition costs the same: 2 per element, any grouping
    value, part = min_partition_sum(0b111, lambda s: Fraction(2 * s.bit_count()))
    assert value == Fraction(6)
    assert part.blocks == (0b111,)
    # all two-block partitions tie; {0},{1,2} is lexicographically first
    cost = {0b001: 1, 0b010: 1, 0b100: 1, 0b011: 2, 0b101: 2, 0b110: 2, 0b111: 9}
    value, part = min_partition_sum(0b111, lambda s: Fraction(cost[s]))
    assert value == Fraction(3)
    assert part.blocks == (0b001, 0b110)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=-20, max_value=20),
                min_size=2**n - 1,
                max_size=2**n - 1,
            ),
        )
    )
)
def test_min_partition_sum_matches_raw_enumeration(case):
    n, raw = case
    ground = (1 << n) - 1
    cost = {m: Fraction(raw[m - 1]) for m in range(1, 1 << n)}
    value, part = min_partition_sum(ground, lambda s: cost[s])
    assert value == brute_min_partition(ground, lambda s: cost[s])
    # the minimizer re-evaluates to the returned value exactly
    assert sum((cost[b] for b in part.blocks), Fraction(0)) == value


def test_min_partition_sum_with_random_rational_costs():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        ground = (1 << n) - 1
        cost = {
            m: Fraction(rng.randint(-24, 24), rng.randint(1, 4))
            for m in range(1, 1 << n)
        }
        value, part = min_partition_sum(ground, lambda s: cost[s])
        assert value == brute_min_partition(ground, lambda s: cost[s])
        assert sum((cost[b] for b in part.blocks), Fraction(0)) == value


def test_oracle_partition_enumerator_agrees_with_library():
    # cross-check the two independent enumerators on sizes up to 5
    for n in range(1, 6):
        ground = (1 << n) - 1
        lib = {p.blocks for p in partitions(ground)}
        ora = {
            tuple(sorted((sum(1 << i for i in block) for block in part), key=lambda b: b & -b))
            for part in set_partitions(list(range(n)))
        }
        assert lib == ora


def _brute_certificate(ground, cost, *, proper=False):
    # value, then fewer blocks, then the lexicographically smallest block list
    return min(
        (sum(cost[b] for b in part.blocks), len(part), part.key(), part)
        for part in partitions(ground, proper=proper)
    )


def test_engine_matches_brute_force_on_grounds_with_holes():
    # small cost ranges make ties common, so the tie rule is exercised too
    rng = random.Random(71)
    for _ in range(150):
        ground = rng.randrange(1, 1 << 7)
        cost = [rng.randint(-3, 3) for _ in range(ground + 1)]
        width = ground.bit_count() + 1
        table = partition_min_table(ground, cost)
        for x in subsets(ground, nonempty=True):
            assert table[x] // width == brute_min_partition(x, cost.__getitem__)
        value, blocks, _, part = _brute_certificate(ground, cost)
        assert divmod(table[ground], width) == (value, blocks)
        assert min_partition(ground, cost, table) == part
        if ground.bit_count() >= 2:
            # pricing the single block above the singletons, as the minimum
            # sum-rate search does, leaves the proper partitions to the engine
            value, blocks, _, part = _brute_certificate(ground, cost, proper=True)
            priced = cost[:ground] + [sum(cost[1 << i] for i in bits(ground)) + 1]
            table = partition_min_table(ground, priced)
            assert divmod(table[ground], width) == (value, blocks)
            assert min_partition(ground, priced, table) == part


def test_certificate_compares_blocks_as_index_tuples():
    # {0,1,3} (mask 0b1011) sorts before {0,2} (mask 0b0101): the partitions
    # {0,1,3},{2} and {0,2},{1,3} both cost 2, every other partition more
    cost = [9] * 16
    cost[0b1011], cost[0b0100], cost[0b0101], cost[0b1010] = 1, 1, 1, 1
    table = partition_min_table(0b1111, cost)
    assert min_partition(0b1111, cost, table).blocks == (0b1011, 0b0100)
