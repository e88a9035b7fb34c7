import os
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnirate.game

from omnirate import (
    Allocation,
    CoreEmptyError,
    EntropyTable,
    Game,
    IntegralityError,
    PacketModel,
    RateVector,
    dilworth_truncate,
    enumerate_integer_core,
    fairness_compare,
    greedy_marginals,
    greedy_vertex,
    greedy_vertices,
    in_core,
    jain_index,
    load_model,
    min_sum_rate_asymptotic,
    min_sum_rate_non_asymptotic,
    shapley,
)

from oracles import (
    brute_integer_core,
    brute_shapley,
    fraction_greedy_vertices,
    random_entropy_table,
    random_packet_model,
)

F = Fraction


def test_shapley_on_example(example1):
    trunc = dilworth_truncate(Game(example1, 4))
    alloc = shapley(trunc)
    assert tuple(alloc.rates) == (F(8, 3), F(2, 3), F(2, 3))
    assert alloc.rates.total() == 4
    assert alloc.jain == F(2, 3)
    assert in_core(Game(example1, 4), alloc.rates)


def test_shapley_symmetric_model():
    model = PacketModel({"1": ["a"], "2": ["b"]})
    trunc = dilworth_truncate(Game(model, 2))
    alloc = shapley(trunc)
    assert tuple(alloc.rates) == (F(1), F(1))
    assert alloc.jain == 1


def test_shapley_clone_users_get_equal_rates():
    # users 2 and 3 hold identical packet sets, so their marginal
    # contributions agree on every subset
    model = PacketModel({"1": ["a", "b"], "2": ["b", "c"], "3": ["b", "c"], "4": ["d"]})
    rep = min_sum_rate_asymptotic(model)
    for alpha in (rep.r_co, rep.r_co + 1):
        alloc = shapley(dilworth_truncate(Game(model, alpha)))
        assert alloc.rates[1] == alloc.rates[2]


def test_all_zero_vertex_path():
    # identical users need no exchange: at alpha=0 the core is {(0,0)}
    model = PacketModel({"1": ["a"], "2": ["a"]})
    trunc = dilworth_truncate(Game(model, 0))
    vertices, partial = greedy_vertices(trunc)
    assert not partial
    assert [tuple(v.rates) for v in vertices] == [(F(0), F(0))]
    assert vertices[0].jain is None
    nonzero = Allocation(RateVector.of([1, 1]), "greedy", None, F(1))
    ranked = fairness_compare([vertices[0], nonzero])
    assert ranked[-1] is vertices[0]  # undefined fairness sorts last


def test_shapley_refuses_below_threshold(example1):
    trunc = dilworth_truncate(Game(example1, 3))
    with pytest.raises(CoreEmptyError) as exc:
        shapley(trunc)
    assert exc.value.alpha == 3


def test_greedy_on_example(example1):
    trunc4 = dilworth_truncate(Game(example1, 4))
    assert tuple(greedy_vertex(trunc4, (0, 1, 2)).rates) == (F(3), F(1), F(0))
    trunc35 = dilworth_truncate(Game(example1, F(7, 2)))
    for order in permutations(range(3)):
        alloc = greedy_vertex(trunc35, order)
        assert tuple(alloc.rates) == (F(5, 2), F(1, 2), F(1, 2))
    single = greedy_vertex(trunc4, (2, 0, 1))
    assert single.rates[2] == trunc4.values[0b100]  # first joiner gets its own value


def test_greedy_rejects_non_permutations(example1):
    trunc = dilworth_truncate(Game(example1, 4))
    with pytest.raises(ValueError, match=r"permutation of 0\.\.2"):
        greedy_vertex(trunc, (0, 0, 1))


def test_all_greedy_vertices_on_example(example1):
    trunc = dilworth_truncate(Game(example1, 4))
    vertices, partial = greedy_vertices(trunc)
    assert not partial
    assert {tuple(v.rates) for v in vertices} == {
        (F(3), F(0), F(1)),
        (F(2), F(1), F(1)),
        (F(3), F(1), F(0)),
    }


def test_greedy_vertices_in_core_for_all_orders():
    rng = random.Random(79)
    for _ in range(15):
        model = random_packet_model(rng, n_users=rng.randint(2, 4))
        r_co = min_sum_rate_asymptotic(model).r_co
        for alpha in (r_co, r_co + F(1, 2), model.entropy(model.full_mask)):
            game = Game(model, alpha)
            trunc = dilworth_truncate(game)
            for order in permutations(range(model.n)):
                assert in_core(game, greedy_vertex(trunc, order).rates)


def test_shapley_is_average_of_greedy_vertices():
    rng = random.Random(83)
    for _ in range(15):
        model = random_packet_model(rng, n_users=rng.randint(2, 5))
        r_co = min_sum_rate_asymptotic(model).r_co
        alpha = r_co + F(rng.randint(0, 2), 2)
        trunc = dilworth_truncate(Game(model, alpha))
        n = model.n
        acc = [F(0)] * n
        count = 0
        for order in permutations(range(n)):
            rates = greedy_marginals(trunc.values, order)
            acc = [a + r for a, r in zip(acc, rates)]
            count += 1
        mean = tuple(a / count for a in acc)
        assert tuple(shapley(trunc).rates) == mean


def test_shapley_matches_fraction_formula():
    # the integer sum against the per-term Fraction formula, on packet and
    # fractional truncations, at R_CO (where ties are widest) and above it
    rng = random.Random(107)
    for n in range(2, 8):
        for model in (random_packet_model(rng, n_users=n), random_entropy_table(rng, n)):
            r_co = min_sum_rate_asymptotic(model).r_co
            for alpha in (r_co, r_co + F(1, 3), r_co + 2):
                trunc = dilworth_truncate(Game(model, alpha))
                assert tuple(shapley(trunc).rates) == brute_shapley(trunc)


def test_greedy_vertices_match_the_fraction_walk():
    # the walk on the int table against the one on the Fraction view: the
    # same vertices, first orders and Jain indices, in the same order, on
    # packet and fractional truncations at R_CO (where ties are widest) and
    # above it
    rng = random.Random(113)
    for n in range(2, 7):
        for model in (random_packet_model(rng, n_users=n), random_entropy_table(rng, n)):
            r_co = min_sum_rate_asymptotic(model).r_co
            for alpha in (r_co, r_co + F(1, 3), r_co + 2):
                trunc = dilworth_truncate(Game(model, alpha))
                vertices, partial = greedy_vertices(trunc)
                assert not partial
                assert vertices == fraction_greedy_vertices(trunc, permutations(range(n)))
                order = tuple(rng.sample(range(n), n))
                assert [greedy_vertex(trunc, order)] == fraction_greedy_vertices(trunc, [order])


def test_shapley_in_core_at_threshold_grid():
    rng = random.Random(89)
    for _ in range(15):
        model = random_packet_model(rng)
        r_co = min_sum_rate_asymptotic(model).r_co
        h = model.entropy(model.full_mask)
        for alpha in (r_co, r_co + F(1, 2), h):
            game = Game(model, alpha)
            alloc = shapley(dilworth_truncate(game))
            assert alloc.rates.total() == alpha
            assert in_core(game, alloc.rates)


def test_integer_core_on_example(example1):
    got = enumerate_integer_core(Game(example1, 4))
    assert {tuple(int(x) for x in r) for r in got} == {(3, 0, 1), (2, 1, 1), (3, 1, 0)}
    assert enumerate_integer_core(Game(example1, 3)) == []


def test_integer_core_two_disjoint_users():
    model = PacketModel({"1": ["a"], "2": ["b"]})
    got = enumerate_integer_core(Game(model, 2))
    assert [tuple(int(x) for x in r) for r in got] == [(1, 1)]


def test_integer_core_refusals(example1):
    with pytest.raises(IntegralityError):
        enumerate_integer_core(Game(example1, F(7, 2)))
    table = EntropyTable(
        ["1", "2"],
        {0: F(0), 0b01: F(1, 2), 0b10: F(1, 2), 0b11: F(3, 4)},
    )
    with pytest.raises(IntegralityError, match="integer rates need integer entropies"):
        enumerate_integer_core(Game(table, 1))


def test_integer_core_matches_unbounded_brute_force():
    # alphas below the integer minimum give empty cores, which must come back
    # as []; alphas at or above it give nonempty cores, listed in brute-force
    # (ascending lexicographic) order
    rng = random.Random(103)
    cases = 0
    for n in range(2, 6):
        for _ in range(12):
            model = random_packet_model(rng, n_users=n, max_packets=6)
            top = int(min_sum_rate_non_asymptotic(model).r_co)
            for alpha in range(max(0, top - 2), top + 3):
                game = Game(model, alpha)
                got = [tuple(int(x) for x in r) for r in enumerate_integer_core(game)]
                assert got == brute_integer_core(game), (model.packet_sets, alpha)
                assert bool(got) == (alpha >= top)
                cases += 1
    assert cases > 200


def test_integer_core_makes_no_core_test(example1, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate_integer_core called in_core")

    monkeypatch.setattr(omnirate.game, "in_core", forbidden)
    got = enumerate_integer_core(Game(example1, 5))
    assert [tuple(int(x) for x in r) for r in got] == [
        (1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 0, 2), (3, 1, 1), (3, 2, 0), (4, 0, 1), (4, 1, 0)
    ]


def test_jain_index_values():
    assert jain_index([F(1), F(1), F(1)]) == 1
    assert jain_index([F(8, 3), F(2, 3), F(2, 3)]) == F(2, 3)
    assert jain_index([F(3), F(0), F(1)]) == F(8, 15)
    with pytest.raises(ValueError):
        jain_index([F(0), F(0)])


_rates = st.lists(
    st.fractions(min_value=0, max_value=50, max_denominator=12), min_size=1, max_size=8
).filter(lambda xs: any(xs))


@settings(max_examples=100, deadline=None)
@given(_rates)
def test_jain_index_matches_fraction_formula(rates):
    total = sum(rates, F(0))
    square_sum = sum((x * x for x in rates), F(0))
    assert jain_index(rates) == total * total / (len(rates) * square_sum)
    assert jain_index(RateVector(tuple(rates))) == jain_index(rates)


def test_fairness_compare_ranks_by_jain(example1):
    shap = Allocation(RateVector.of(["8/3", "2/3", "2/3"]), "shapley", None, F(2, 3))
    vert = Allocation(RateVector.of([3, 1, 0]), "greedy", (0, 1, 2), F(8, 15))
    ranked = fairness_compare([vert, shap])
    assert ranked[0] is shap
    assert fairness_compare([vert]) == [vert]
    same = [
        Allocation(RateVector.of([1, 1]), "greedy", (0, 1), F(1)),
        Allocation(RateVector.of([1, 1]), "greedy", (1, 0), F(1)),
    ]
    assert fairness_compare(same) == same  # stable on full ties


def test_fairness_compare_refuses_an_empty_list():
    with pytest.raises(ValueError, match="nothing to compare"):
        fairness_compare([])


def test_fairness_compare_breaks_jain_ties_lexicographically():
    a = Allocation(RateVector.of([3, 1, 0]), "greedy", None, F(8, 15))
    b = Allocation(RateVector.of([3, 0, 1]), "greedy", None, F(8, 15))
    assert fairness_compare([a, b]) == [b, a]


def test_greedy_vertices_sampling_is_partial_and_seeded():
    small = random_packet_model(random.Random(101), n_users=4)
    trunc = dilworth_truncate(Game(small, min_sum_rate_asymptotic(small).r_co + 1))
    _, partial_flag = greedy_vertices(trunc)
    assert not partial_flag  # up to 8 users every join order is walked
    model = random_packet_model(random.Random(101), n_users=9)
    game = Game(model, min_sum_rate_asymptotic(model).r_co)
    trunc = dilworth_truncate(game)
    sampled, partial = greedy_vertices(trunc)
    assert partial
    again, _ = greedy_vertices(trunc)
    assert [(v.order, tuple(v.rates)) for v in sampled] == [
        (v.order, tuple(v.rates)) for v in again
    ]
    # distinct vertices, each the greedy vertex of its own order (so a subset
    # of the vertices over all 9! orders) and in the core
    assert len({tuple(v.rates) for v in sampled}) == len(sampled) > 1
    for v in sampled:
        assert tuple(v.rates) == greedy_marginals(trunc.values, v.order)
        assert in_core(game, v.rates)
    with pytest.raises(TypeError):
        greedy_vertices(trunc, seed=0)  # the sample is fixed; nothing selects it


def test_greedy_vertices_default_seed_is_zero():
    # 9 users: the orders are 2000 shuffles by random.Random(0), so every
    # call lists the same vertices in the same order
    model = load_model(os.path.join(os.path.dirname(__file__), "data", "packets_n9.json"))
    trunc = dilworth_truncate(Game(model, 4))
    first, partial = greedy_vertices(trunc)
    assert partial
    rng, base = random.Random(0), list(range(9))

    def orders():
        for _ in range(2000):
            rng.shuffle(base)
            yield tuple(base)

    assert first == fraction_greedy_vertices(trunc, orders())
