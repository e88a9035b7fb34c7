import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from omnirate import (
    Game,
    PacketModel,
    RateVector,
    convex_characteristic,
    dilworth_truncate,
    in_core,
    min_partition_sum,
    min_sum_rate_asymptotic,
    min_sum_rate_non_asymptotic,
    partition_min_table,
    shapley,
    subsets,
)

from oracles import (
    check_submodular,
    check_supermodular,
    cores_equal,
    random_entropy_table,
    random_packet_model,
    random_rate_vector,
)

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


def test_only_the_truncated_game_is_convex():
    # at alpha = R_CO = 1 the core is nonempty, yet the untruncated game is
    # not convex: v({1,3}) + v({2,3}) = 2 > v(V) + v({3}) = 1
    model = PacketModel({"1": ["a"], "2": ["b"], "3": ["a", "b"]})
    assert min_sum_rate_asymptotic(model).r_co == 1
    game = Game(model, 1)
    full = model.full_mask
    verdict = check_supermodular({x: game.char_value(x) for x in subsets(full)}, full)
    assert not verdict
    assert sorted(verdict.witness) == masks(model, ["1", "3"], ["2", "3"])
    conv = convex_characteristic(dilworth_truncate(game))
    assert check_supermodular(dict(conv.values), full)


def test_only_the_truncated_games_shapley_value_is_in_the_core():
    # the model above at alpha = R_CO = 1: the untruncated game's Shapley
    # value, averaged over the 3! join orders, breaks the coalition {1,3}
    model = PacketModel({"1": ["a"], "2": ["b"], "3": ["a", "b"]})
    game = Game(model, 1)
    rates = [F(0)] * 3
    for order in permutations(range(3)):
        joined = 0
        for i in order:
            rates[i] += (game.char_value(joined | 1 << i) - game.char_value(joined)) / 6
            joined |= 1 << i
    assert rates == [F(1, 6), F(1, 6), F(2, 3)]
    decision = in_core(game, RateVector(tuple(rates)))
    assert not decision
    assert (decision.kind, decision.witness) == ("coalition", model.mask_from_ids(["1", "3"]))
    assert decision.detail == "r(X)=5/6 < f(X)=1 for X={1,3}"
    truncated = shapley(dilworth_truncate(game))
    assert truncated.rates.rates == (0, 0, 1)
    assert in_core(game, truncated.rates)


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


def test_int_table_is_the_fraction_view_and_decides_nonemptiness():
    # table[X] / den is what the allocators read; values is the Fraction view
    rng = random.Random(79)
    empty = 0
    for n in range(2, 8):
        for model in (random_packet_model(rng, n_users=n), random_entropy_table(rng, n)):
            r_co = min_sum_rate_asymptotic(model).r_co
            for alpha in (r_co + F(1, 3), r_co, r_co - F(1, 7)):
                game = Game(model, max(alpha, F(0)))
                trunc = dilworth_truncate(game)
                for x in subsets(model.full_mask):
                    assert F(trunc.table[x], trunc.den) == trunc.values[x]
                assert trunc.core_nonempty == (game.alpha >= r_co)
                empty += not trunc.core_nonempty
    assert empty >= 10


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
