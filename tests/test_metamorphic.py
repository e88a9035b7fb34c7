"""Metamorphic relations at the user guard, where no oracle finishes.

Private shift: give user i a packet no one else holds. Every proper
partition has exactly |P| - 1 blocks without i, so every partition's ratio
rises by exactly 1: R_CO rises by 1 and its partition stays. At alpha + 1
the dual gains [i in X], so the core keeps its answer and its certificate,
and the partition minimum rises by 1.
"""

import math
import random

import pytest

from omnirate import Game, PacketModel, core_nonempty, min_sum_rate_asymptotic


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
        assert (after.nonempty, after.certificate) == (before.nonempty, before.certificate)
        assert after.partition_min == before.partition_min + 1
        answers.append(before.nonempty)
    assert answers == [False, True]
