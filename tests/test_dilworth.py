import random
from fractions import Fraction
from math import lcm

import pytest

from omnirate import (
    Game,
    RateVector,
    check_submodular,
    check_supermodular,
    convex_characteristic,
    dilworth_truncate,
    min_partition_sum,
    min_sum_rate_asymptotic,
    min_sum_rate_non_asymptotic,
    partition_min_table,
    subsets,
)

from oracles import cores_equal, random_packet_model, random_rate_vector

F = Fraction


def masks(model, *id_lists):
    return [model.mask_from_ids(ids) for ids in id_lists]


def test_truncation_table_on_example(example1):
    trunc = dilworth_truncate(Game(example1, 4))
    one, two, three = masks(example1, ["1"], ["2"], ["3"])
    expected = {
        0: 0,
        one: 3,
        two: 1,
        three: 1,
        one | two: 4,
        one | three: 4,
        two | three: 2,
        example1.full_mask: 4,
    }
    assert {x: trunc.values[x] for x in sorted(trunc.values)} == expected
    assert trunc.core_nonempty


def test_truncation_argmin_partitions_reproduce_values(example1):
    # the truncation keeps values only; a minimising partition is rebuilt on demand
    trunc = dilworth_truncate(Game(example1, 4))
    game = Game(example1, 4)
    for x in subsets(example1.full_mask, nonempty=True):
        value, part = min_partition_sum(x, game.dual_value)
        assert value == trunc.values[x]
        assert sum((game.dual_value(b) for b in part), F(0)) == trunc.values[x]


def test_convex_characteristic_on_example(example1):
    trunc = dilworth_truncate(Game(example1, 4))
    conv = convex_characteristic(trunc)
    one, two, three = masks(example1, ["1"], ["2"], ["3"])
    expected = {
        0: 0,
        one: 2,
        two: 0,
        three: 0,
        one | two: 3,
        one | three: 3,
        two | three: 1,
        example1.full_mask: 4,
    }
    assert {x: conv.values[x] for x in sorted(conv.values)} == expected


def test_modularity_checks_on_example(example1):
    trunc = dilworth_truncate(Game(example1, 4))
    conv = convex_characteristic(trunc)
    assert check_submodular(dict(trunc.values), example1.full_mask)
    assert check_supermodular(dict(conv.values), example1.full_mask)
    below = Game(example1, F(16, 5))
    table = below.dual_table()
    verdict = check_submodular(table, example1.full_mask)
    assert not verdict
    x, y = verdict.witness
    assert x & y == 0  # only disjoint pairs may break below the total entropy
    assert check_submodular(table, example1.full_mask, intersecting_only=True)


def test_truncation_equals_dual_above_total_entropy(example1):
    game = Game(example1, 6)
    trunc = dilworth_truncate(game)
    for x in subsets(example1.full_mask):
        assert trunc.values[x] == game.dual_value(x)


def test_truncation_is_idempotent():
    rng = random.Random(61)
    for _ in range(20):
        model = random_packet_model(rng)
        r_co = min_sum_rate_asymptotic(model).r_co
        for alpha in (r_co, max(r_co - F(1, 2), F(0)), model.entropy(model.full_mask)):
            trunc = dilworth_truncate(Game(model, alpha))
            den = lcm(*(v.denominator for v in trunc.values.values()))
            scaled = [int(trunc.values[x] * den) for x in range(model.full_mask + 1)]
            again = partition_min_table(model.full_mask, scaled)
            width = model.n + 1
            assert all(F(again[x] // width, den) == trunc.values[x] for x in trunc.values)


def test_truncation_bounds_and_properties_above_threshold():
    rng = random.Random(67)
    for _ in range(25):
        model = random_packet_model(rng)
        r_co = min_sum_rate_asymptotic(model).r_co
        h = model.entropy(model.full_mask)
        for alpha in (r_co, r_co + F(1, 2), h):
            game = Game(model, alpha)
            trunc = dilworth_truncate(game)
            assert all(trunc.values[x] <= game.dual_value(x) for x in trunc.values)
            assert trunc.values[0] == 0
            assert trunc.values[model.full_mask] == alpha
            assert check_submodular(dict(trunc.values), model.full_mask)
            conv = convex_characteristic(trunc)
            assert check_supermodular(dict(conv.values), model.full_mask)


def test_integer_models_stay_integer():
    rng = random.Random(71)
    for _ in range(25):
        model = random_packet_model(rng)
        alpha = min_sum_rate_non_asymptotic(model).r_co
        trunc = dilworth_truncate(Game(model, alpha))
        assert all(v.denominator == 1 for v in trunc.values.values())


def test_cores_equal_on_example(example1):
    game = Game(example1, 4)
    trunc = dilworth_truncate(game)
    samples = [
        RateVector.of([2, 1, 1]),
        RateVector.of([3, 1, 0]),
        RateVector.of([4, 0, 0]),
        RateVector.of(["8/3", "2/3", "2/3"]),
    ]
    verdict = cores_equal(game, trunc, samples)
    assert verdict.applicable and verdict.equal
    assert verdict.vertices_checked == 3
    assert not verdict.vertex_failures


def test_cores_equal_below_threshold_is_inapplicable(example1):
    game = Game(example1, 3)
    trunc = dilworth_truncate(game)
    verdict = cores_equal(game, trunc, [])
    assert not verdict.applicable


def test_cores_equal_rejects_off_plane_samples(example1):
    game = Game(example1, 4)
    trunc = dilworth_truncate(game)
    with pytest.raises(ValueError, match="sum to alpha"):
        cores_equal(game, trunc, [RateVector.of([1, 1, 1])])


def test_cores_equal_on_random_models():
    rng = random.Random(73)
    for _ in range(20):
        model = random_packet_model(rng, n_users=rng.randint(2, 4))
        r_co = min_sum_rate_asymptotic(model).r_co
        alpha = r_co + F(rng.randint(0, 3), 2)
        game = Game(model, alpha)
        trunc = dilworth_truncate(game)
        samples = [
            RateVector.of(random_rate_vector(rng, model.n, alpha)) for _ in range(8)
        ]
        assert cores_equal(game, trunc, samples)
