import random
from fractions import Fraction

import pytest

from omnirate import (
    Decision,
    Game,
    PacketModel,
    RateVector,
    dual_membership,
    in_core,
    subsets,
)

from oracles import (
    check_submodular,
    random_packet_model,
    random_rate_vector,
    satisfies_slepian_wolf,
    sum_over,
)

F = Fraction


def test_char_values_on_example(example1):
    g = Game(example1, 4)
    assert g.char_value(example1.mask_from_ids(["2", "3"])) == 1
    assert g.char_value(example1.full_mask) == 4
    assert g.char_value(example1.mask_from_ids(["1"])) == 1
    assert g.char_value(0) == 0
    for bad in (-1, 1 << example1.n):
        for value in (g.char_value, g.dual_value):
            with pytest.raises(ValueError, match="is not a subset of the user set"):
                value(bad)


def test_dual_values_on_example(example1):
    for alpha in (F(4), F(7, 2), F(16, 5)):
        g = Game(example1, alpha)
        assert g.dual_value(example1.mask_from_ids(["1"])) == alpha - 1
        assert g.dual_value(example1.mask_from_ids(["2"])) == alpha - 3
        assert g.dual_value(0) == 0
        assert g.dual_value(example1.full_mask) == alpha


def test_dual_char_identity(example1):
    rng = random.Random(3)
    for _ in range(20):
        model = random_packet_model(rng)
        alpha = F(rng.randint(0, 12), rng.randint(1, 3))
        g = Game(model, alpha)
        for x in subsets(model.full_mask):
            assert g.dual_value(x) + g.char_value(model.full_mask & ~x) == alpha


def test_alpha_must_be_nonnegative(example1):
    with pytest.raises(ValueError):
        Game(example1, F(-1, 2))


def test_rate_vector_rejects_negative():
    with pytest.raises(ValueError):
        RateVector.of([1, -1])
    r = RateVector.of(["5/2", "1/2", "1/2"])
    assert r.total() == F(7, 2)
    assert sum_over(r, 0b011) == 3


def test_slepian_wolf_examples(example1):
    ok = satisfies_slepian_wolf(example1, RateVector.of(["5/2", "1/2", "1/2"]))
    assert ok
    bad = satisfies_slepian_wolf(example1, RateVector.of([0, 0, 0]))
    assert not bad
    assert bad.witness == example1.mask_from_ids(["1"])
    assert satisfies_slepian_wolf(example1, RateVector.of([3, 1, 0]))
    # the first failing coalition in ascending mask order is the witness
    assert satisfies_slepian_wolf(example1, RateVector.of([1, 0, 0])) == Decision(
        False, "coalition", 0b011, "r(X)=1 < 3 for X={1,2}"
    )


def test_in_core_examples(example1):
    g35 = Game(example1, F(7, 2))
    assert in_core(g35, RateVector.of(["5/2", "1/2", "1/2"]))
    g4 = Game(example1, 4)
    assert in_core(g4, RateVector.of([2, 1, 1]), integer_mode=True)
    off = in_core(g35, RateVector.of(["5/2", "1/2", "2/5"]))
    assert not off and off.kind == "sum"


def test_in_core_integer_mode_flags_fractional(example1):
    g = Game(example1, 4)
    verdict = in_core(g, RateVector.of(["5/2", "1/2", "1"]), integer_mode=True)
    assert not verdict and verdict.kind == "fractional"


def test_dual_membership_examples(example1):
    g = Game(example1, 4)
    assert dual_membership(g, RateVector.of([3, 0, 1]))
    bad = dual_membership(g, RateVector.of([4, 0, 0]))
    assert not bad
    assert bad.witness == example1.mask_from_ids(["1"])
    assert bad == Decision(False, "upper", 0b001, "r(X)=4 > f#(X)=3 for X={1}")
    assert dual_membership(g, RateVector.of([0, 1, 3])) == Decision(
        False, "upper", 0b100, "r(X)=3 > f#(X)=1 for X={3}"
    )
    assert dual_membership(g, RateVector.of([3, 0, 0])) == Decision(
        False, "sum", 0b111, "r(V)=3 != alpha=4"
    )


def test_dual_membership_all_constraints_tight():
    # two symmetric users, each rate pinned exactly at its singleton bound
    model = PacketModel({"1": ["a"], "2": ["b"]})
    g = Game(model, 2)
    assert g.dual_value(0b01) == 1 and g.dual_value(0b10) == 1
    assert dual_membership(g, RateVector.of([1, 1]))


def test_wrong_arity_raises(example1):
    g = Game(example1, 4)
    with pytest.raises(ValueError):
        in_core(g, RateVector.of([1, 1]))


def test_in_core_implies_slepian_wolf(example1):
    rng = random.Random(5)
    for _ in range(30):
        model = random_packet_model(rng)
        alpha = model.entropy(model.full_mask) + F(rng.randint(0, 4), 2)
        g = Game(model, alpha)
        r = RateVector.of(random_rate_vector(rng, model.n, alpha))
        if in_core(g, r):
            assert satisfies_slepian_wolf(model, r)


def test_duality_on_random_models():
    # primal lower-bound form and dual upper-bound form must always agree
    # once the total rate is pinned to alpha
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        model = random_packet_model(rng)
        h = model.entropy(model.full_mask)
        for alpha in (h, h + F(1, 2), F(max(0, int(h) - 1))):
            g = Game(model, alpha)
            for _ in range(5):
                r = RateVector.of(random_rate_vector(rng, model.n, alpha))
                assert bool(in_core(g, r)) == bool(dual_membership(g, r))
                checked += 1
    assert checked >= 500


def test_dual_is_submodular_above_h_and_intersecting_below():
    rng = random.Random(23)
    for _ in range(25):
        model = random_packet_model(rng)
        h = model.entropy(model.full_mask)
        table = Game(model, h).dual_table()
        assert check_submodular(table, model.full_mask)
        if h > 0:
            below = Game(model, h - F(1, 8)).dual_table()
            assert check_submodular(below, model.full_mask, intersecting_only=True)
