import os
import random
import time
from fractions import Fraction

import pytest

import omnirate.sumrate
from omnirate import (
    EntropyTable,
    Game,
    IntegralityError,
    PacketModel,
    core_nonempty,
    load_model,
    min_partition_sum,
    min_sum_rate_asymptotic,
    min_sum_rate_non_asymptotic,
    mmi,
)

from oracles import (
    brute_min_sum_rate,
    brute_mmi,
    partitions,
    random_entropy_table,
    random_packet_model,
    scan_min_sum_rate,
    scan_mmi,
)

F = Fraction


def test_example_min_sum_rates(example1):
    asym = min_sum_rate_asymptotic(example1)
    assert asym.r_co == F(7, 2)
    assert asym.h_total == 6
    assert asym.argmax_partition.blocks == (0b001, 0b010, 0b100)
    integer = min_sum_rate_non_asymptotic(example1)
    assert integer.r_co == 4


def test_example_core_nonemptiness(example1):
    assert not core_nonempty(Game(example1, F(16, 5)))
    assert core_nonempty(Game(example1, F(7, 2)))
    assert core_nonempty(Game(example1, 6))


def test_example_mmi(example1):
    res = mmi(example1)
    assert res.value == F(5, 2)
    assert res.partition.blocks == (0b001, 0b010, 0b100)
    assert min_sum_rate_asymptotic(example1).r_co == example1.entropy(example1.full_mask) - res.value


def test_two_user_edge_models():
    identical = PacketModel({"1": ["a"], "2": ["a"]})
    assert min_sum_rate_asymptotic(identical).r_co == 0
    assert min_sum_rate_non_asymptotic(identical).r_co == 0
    assert mmi(identical).value == 1

    disjoint = PacketModel({"1": ["a"], "2": ["b"]})
    assert min_sum_rate_asymptotic(disjoint).r_co == 2
    assert min_sum_rate_non_asymptotic(disjoint).r_co == 2
    assert mmi(disjoint).value == 0


def test_three_identical_users():
    model = PacketModel({"1": ["a"], "2": ["a"], "3": ["a"]})
    assert min_sum_rate_asymptotic(model).r_co == 0
    assert min_sum_rate_non_asymptotic(model).r_co == 0


def test_min_sum_rate_matches_brute_force():
    rng = random.Random(41)
    for _ in range(40):
        model = random_packet_model(rng)
        assert min_sum_rate_asymptotic(model).r_co == brute_min_sum_rate(model)
        assert mmi(model).value == brute_mmi(model)


def test_mmi_identity_on_random_models():
    rng = random.Random(43)
    for _ in range(40):
        model = random_packet_model(rng)
        rep = min_sum_rate_asymptotic(model)
        assert rep.r_co == rep.h_total - rep.mmi


def test_threshold_and_monotone_nonemptiness():
    rng = random.Random(47)
    for _ in range(30):
        model = random_packet_model(rng)
        r_co = min_sum_rate_asymptotic(model).r_co
        h = model.entropy(model.full_mask)
        if r_co > 0:
            assert not core_nonempty(Game(model, r_co - F(1, 8)))
        grid = [r_co, r_co + F(1, 8), r_co + 1, h, h + 2]
        seen_true = False
        for alpha in sorted(grid):
            status = core_nonempty(Game(model, alpha))
            assert status.nonempty
            if seen_true:
                assert status.nonempty  # once nonempty, stays nonempty
            seen_true = seen_true or status.nonempty


def test_threshold_equivalence_of_both_forms():
    # "alpha at least the proper-partition maximum" must coincide with the
    # partition-minimum equality that certifies nonemptiness
    rng = random.Random(53)
    for _ in range(25):
        model = random_packet_model(rng)
        r_co = min_sum_rate_asymptotic(model).r_co
        h = model.entropy(model.full_mask)
        for alpha in {F(0), r_co, r_co + F(1, 3), max(r_co - F(1, 4), F(0)), h}:
            game = Game(model, alpha)
            status = core_nonempty(game)
            assert status.nonempty == (alpha >= r_co)
            # restricted comparison against proper partitions only
            proper_min = min(
                (
                    sum((game.dual_value(c) for c in part), F(0))
                    for part in partitions(model.full_mask, proper=True)
                ),
                default=None,
            )
            assert status.nonempty == (proper_min >= alpha)


def test_non_asymptotic_gap_within_unit():
    rng = random.Random(59)
    for _ in range(30):
        model = random_packet_model(rng)
        asym = min_sum_rate_asymptotic(model).r_co
        integer = min_sum_rate_non_asymptotic(model).r_co
        assert 0 <= integer - asym < 1


def test_non_asymptotic_identity_via_floored_mmi():
    # integer-entropy models: ceil(H - I) agrees with H - floor(I)
    rng = random.Random(61)
    for _ in range(30):
        model = random_packet_model(rng)
        rep = min_sum_rate_non_asymptotic(model)
        floored = rep.mmi.numerator // rep.mmi.denominator
        assert rep.r_co == rep.h_total - floored


def test_fractional_table_refused():
    # R_CO = 1, but neither (1, 0) nor (0, 1) is in the integer core at
    # alpha = 1: the integer minimum is 2, so the ceiling of R_CO is refused
    model = EntropyTable(["1", "2"], {0: F(0), 0b01: F(1, 2), 0b10: F(1, 2), 0b11: F(1)})
    assert min_sum_rate_asymptotic(model).r_co == 1
    with pytest.raises(IntegralityError, match="integer rates need integer entropies"):
        min_sum_rate_non_asymptotic(model)


def test_certificate_partition_reproduces_value(example1):
    rep = min_sum_rate_asymptotic(example1)
    h = rep.h_total
    total = sum((h - example1.entropy(c) for c in rep.argmax_partition), F(0))
    assert total / (len(rep.argmax_partition) - 1) == rep.r_co


def test_min_partition_certificate_on_example(example1):
    game = Game(example1, 4)
    value, part = min_partition_sum(example1.full_mask, game.dual_value)
    assert value == 4
    assert part.blocks == (example1.full_mask,)


def _bell_scan_cases():
    rng = random.Random(73)
    models = [random_packet_model(rng, n_users=n) for n in range(2, 8) for _ in range(6)]
    models += [
        PacketModel({str(i): [] for i in range(1, 5)}),  # nobody holds anything
        PacketModel({"1": ["a", "b"], "2": ["a", "b"]}),
        PacketModel({str(i): ["a", "b", "c"] for i in range(1, 6)}),
        PacketModel({"1": ["a", "b"], "2": ["a", "b"], "3": ["c"], "4": ["c"]}),
    ]
    models += [random_entropy_table(rng, n) for n in range(3, 7) for _ in range(5)]
    return models


def test_parametric_r_co_matches_bell_scan():
    # value and certificate, MMI and its partition, all equal to the scans
    for model in _bell_scan_cases():
        rep = min_sum_rate_asymptotic(model)
        assert (rep.r_co, rep.argmax_partition) == scan_min_sum_rate(model)
        res = mmi(model)
        assert (res.value, res.partition) == scan_mmi(model)
        assert res.value == brute_mmi(model)
        assert rep.r_co == rep.h_total - res.value


def test_minrate_at_the_user_guard():
    # 12 users, 40 packets: the parametric solve needs no partition scan
    rng = random.Random(12)
    model = PacketModel(
        {str(u): [f"p{k}" for k in range(40) if rng.random() < 0.4] for u in range(1, 13)}
    )
    started = time.perf_counter()
    rep = min_sum_rate_asymptotic(model)
    elapsed = time.perf_counter() - started
    h = rep.h_total
    part = rep.argmax_partition
    ratio = sum((h - model.entropy(c) for c in part), F(0)) / (len(part) - 1)
    assert ratio == rep.r_co
    assert core_nonempty(Game(model, rep.r_co))
    assert not core_nonempty(Game(model, rep.r_co - F(1, 12)))
    assert elapsed < 2, f"took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "name, passes",
    [("example1", 1), ("identical_users", 1), ("packets_n8", 1), ("packets_n9", 2), ("entropy_n6", 3)],
)
def test_dinkelbach_pass_count(monkeypatch, name, passes):
    # the iteration starts at the singleton partition's ratio; starting at
    # lambda = 0 gives the same R_CO after more engine passes
    calls = []
    engine = omnirate.sumrate.partition_min_table

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(omnirate.sumrate, "partition_min_table", counted)
    model = load_model(os.path.join(os.path.dirname(__file__), "data", name + ".json"))
    min_sum_rate_asymptotic(model)
    assert len(calls) == passes
