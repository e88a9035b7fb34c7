"""Metamorphic relations at the user guard, where no oracle finishes.

Private shift: give user i a packet no one else holds. Every proper
partition has exactly |P| - 1 blocks without i, so every partition's ratio
rises by exactly 1: R_CO rises by 1 and its partition stays. At alpha + 1
the dual gains [i in X], so the core keeps its answer and its certificate,
and the partition minimum rises by 1.

Scaling: hold every packet three times over. Every entropy triples, so R_CO
triples with the same partition, and at 3 * alpha the dual triples: the
core keeps its answer and its certificate, and the partition minimum
triples.

The same shift and scaling on fractional entropy tables: add w to H(X) for
every X that holds user i, or multiply the table by k. The shift also moves
the greedy vertex of a join order and the Shapley value at alpha + w by w
in user i's rate, and the scaling scales the Shapley value at k * alpha.

Relabelling: list the users in reverse. R_CO does not depend on the order,
and the Shapley value is symmetric, so it comes out reversed.
"""

import math
import random
from fractions import Fraction

import pytest

from omnirate import (
    EntropyTable,
    Game,
    PacketModel,
    core_nonempty,
    dilworth_truncate,
    greedy_vertex,
    min_sum_rate_asymptotic,
    shapley,
)

from oracles import random_entropy_table


def seeded_packets(n: int) -> dict[str, list[str]]:
    """40 packets, each held by each of n users with probability 0.4."""
    rng = random.Random(n)
    return {str(u + 1): [str(k) for k in range(40) if rng.random() < 0.4] for u in range(n)}


@pytest.mark.parametrize("n", [10, 11, 12])
def test_a_private_packet_shifts_the_minimum_sum_rate_and_the_core(n):
    packets = seeded_packets(n)
    model = PacketModel(packets)
    user = str(n % 3 + 1)
    shifted = PacketModel({**packets, user: packets[user] + ["private"]})
    base, moved = min_sum_rate_asymptotic(model), min_sum_rate_asymptotic(shifted)
    assert moved.r_co == base.r_co + 1
    assert moved.argmax_partition == base.argmax_partition
    # one alpha below R_CO (an empty core) and the first integer above it
    ceiling = math.ceil(base.r_co)
    answers = []
    for alpha in (ceiling - 1, ceiling):
        before, after = core_nonempty(Game(model, alpha)), core_nonempty(Game(shifted, alpha + 1))
        assert (after.core_nonempty, after.certificate) == (before.core_nonempty, before.certificate)
        assert after.partition_min == before.partition_min + 1
        answers.append(before.core_nonempty)
    assert answers == [False, True]


@pytest.mark.parametrize("n", [10, 11, 12])
def test_tripled_packets_scale_the_minimum_sum_rate_and_the_core(n):
    packets = seeded_packets(n)
    model = PacketModel(packets)
    tripled = PacketModel(
        {u: [f"{k}.{c}" for k in held for c in range(3)] for u, held in packets.items()}
    )
    base, scaled = min_sum_rate_asymptotic(model), min_sum_rate_asymptotic(tripled)
    assert scaled.r_co == 3 * base.r_co
    assert scaled.argmax_partition == base.argmax_partition
    ceiling = math.ceil(base.r_co)
    answers = []
    for alpha in (ceiling - 1, ceiling):
        before, after = core_nonempty(Game(model, alpha)), core_nonempty(Game(tripled, 3 * alpha))
        assert (after.core_nonempty, after.certificate) == (before.core_nonempty, before.certificate)
        assert after.partition_min == 3 * before.partition_min
        answers.append(before.core_nonempty)
    assert answers == [False, True]


@pytest.mark.parametrize("n", [10, 11, 12])
def test_reversed_users_keep_the_minimum_sum_rate_and_reverse_shapley(n):
    packets = seeded_packets(n)
    model = PacketModel(packets)
    reversed_model = PacketModel(dict(reversed(list(packets.items()))))
    r_co = min_sum_rate_asymptotic(model).r_co
    assert min_sum_rate_asymptotic(reversed_model).r_co == r_co
    alpha = math.ceil(r_co)
    forward = shapley(dilworth_truncate(Game(model, alpha))).rates
    backward = shapley(dilworth_truncate(Game(reversed_model, alpha))).rates
    assert tuple(backward) == tuple(reversed(forward))


# R_CO of random_entropy_table(random.Random(n), n, 24): fractional, so
# alpha = R_CO - 1/7 and R_CO sit on either side of the threshold.
TABLE_R_CO = {10: Fraction(403, 12), 11: Fraction(211, 6), 12: Fraction(275, 6)}


def seeded_table(n: int) -> tuple[EntropyTable, list[int], int]:
    model = random_entropy_table(random.Random(n), n, 24)
    h, den = model.entropy_table
    return model, h, den


@pytest.mark.parametrize("n", sorted(TABLE_R_CO))
def test_a_private_weight_shifts_a_table_and_its_greedy_vertex(n):
    model, h, den = seeded_table(n)
    i, w = n % 3, Fraction(1, 3)
    shifted = EntropyTable(
        model.users, {x: Fraction(h[x], den) + (w if x >> i & 1 else 0) for x in range(1 << n)}
    )
    base, moved = min_sum_rate_asymptotic(model), min_sum_rate_asymptotic(shifted)
    assert base.r_co == TABLE_R_CO[n]
    assert moved.r_co == base.r_co + w
    assert moved.argmax_partition == base.argmax_partition
    answers = []
    for alpha in (base.r_co - Fraction(1, 7), base.r_co):
        before, after = core_nonempty(Game(model, alpha)), core_nonempty(Game(shifted, alpha + w))
        assert (after.core_nonempty, after.certificate) == (before.core_nonempty, before.certificate)
        assert after.partition_min == before.partition_min + w
        answers.append(before.core_nonempty)
    assert answers == [False, True]
    order = tuple(reversed(range(n)))
    trunc = dilworth_truncate(Game(model, base.r_co))
    moved_trunc = dilworth_truncate(Game(shifted, base.r_co + w))
    vertex, moved_vertex = greedy_vertex(trunc, order).rates, greedy_vertex(moved_trunc, order).rates
    assert tuple(moved_vertex) == tuple(r + (w if j == i else 0) for j, r in enumerate(vertex))
    fair, moved_fair = shapley(trunc).rates, shapley(moved_trunc).rates
    assert tuple(moved_fair) == tuple(r + (w if j == i else 0) for j, r in enumerate(fair))


@pytest.mark.parametrize("n", sorted(TABLE_R_CO))
def test_a_scaled_table_scales_the_minimum_sum_rate_and_the_core(n):
    model, h, den = seeded_table(n)
    k = Fraction(5, 2)
    scaled = EntropyTable(model.users, {x: k * Fraction(h[x], den) for x in range(1 << n)})
    base, moved = min_sum_rate_asymptotic(model), min_sum_rate_asymptotic(scaled)
    assert moved.r_co == k * base.r_co
    assert moved.argmax_partition == base.argmax_partition
    answers = []
    for alpha in (base.r_co - Fraction(1, 7), base.r_co):
        before, after = core_nonempty(Game(model, alpha)), core_nonempty(Game(scaled, k * alpha))
        assert (after.core_nonempty, after.certificate) == (before.core_nonempty, before.certificate)
        assert after.partition_min == k * before.partition_min
        answers.append(before.core_nonempty)
    assert answers == [False, True]
    fair = shapley(dilworth_truncate(Game(model, base.r_co))).rates
    scaled_fair = shapley(dilworth_truncate(Game(scaled, k * base.r_co))).rates
    assert tuple(scaled_fair) == tuple(k * r for r in fair)
