"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they go;
without -s they still appear in the captured output of failing tests.
"""

import io
import json
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from omnirate import (
    Game,
    RateVector,
    convex_characteristic,
    core_nonempty,
    dilworth_truncate,
    dual_membership,
    enumerate_integer_core,
    greedy_marginals,
    in_core,
    min_partition_sum,
    min_sum_rate_asymptotic,
    min_sum_rate_non_asymptotic,
    mmi,
    shapley,
    subsets,
)
from omnirate.cli import run as cli_run

from oracles import (
    brute_integer_core,
    brute_min_partition,
    check_submodular,
    check_supermodular,
    random_packet_model,
)

F = Fraction


def _verdict(num: int, label: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {num:2d} {status}  {label}")
            return False

    return _Ctx()


@pytest.fixture(scope="module")
def corpus():
    """200 random packet models with their sum-rate reports precomputed."""
    rng = random.Random(20240817)
    out = []
    for _ in range(200):
        model = random_packet_model(rng)  # 2..5 users, <= 8 packets
        rep = min_sum_rate_asymptotic(model)
        out.append((model, rep))
    return out


def test_criterion_01_example_min_sum_rates(example1):
    with _verdict(1, "Example 1: asymptotic 7/2 and integer 4, under 10 ms"):
        start = time.perf_counter()
        asym = min_sum_rate_asymptotic(example1).r_co
        integer = min_sum_rate_non_asymptotic(example1).r_co
        elapsed_ms = (time.perf_counter() - start) * 1000
        assert asym == F(7, 2)
        assert integer == F(4)
        assert elapsed_ms < 10, f"took {elapsed_ms:.2f} ms"


def test_criterion_02_example_optimal_sets(example1):
    with _verdict(2, "Example 1: optimal rate vectors at 7/2 and 4, under 50 ms"):
        start = time.perf_counter()
        member = in_core(Game(example1, F(7, 2)), RateVector.of(["5/2", "1/2", "1/2"]))
        integer_points = enumerate_integer_core(Game(example1, 4))
        elapsed_ms = (time.perf_counter() - start) * 1000
        assert member
        got = {tuple(int(x) for x in r) for r in integer_points}
        assert got == {(3, 0, 1), (2, 1, 1), (3, 1, 0)}
        assert elapsed_ms < 50, f"took {elapsed_ms:.2f} ms"


def test_criterion_03_shapley_reproduction(example1):
    with _verdict(3, "Shapley at alpha=4 is (8/3, 2/3, 2/3), efficient, in core"):
        game = Game(example1, 4)
        alloc = shapley(dilworth_truncate(game))
        assert tuple(alloc.rates) == (F(8, 3), F(2, 3), F(2, 3))
        assert alloc.rates.total() == 4
        assert in_core(game, alloc.rates)


def test_criterion_04_truncation_tables(example1):
    with _verdict(4, "truncated dual and convex characteristic match on all 8 subsets"):
        trunc = dilworth_truncate(Game(example1, 4))
        m = example1.mask_from_ids
        expected_dual = {
            0: F(0),
            m(["1"]): F(3),
            m(["2"]): F(1),
            m(["3"]): F(1),
            m(["1", "2"]): F(4),
            m(["1", "3"]): F(4),
            m(["2", "3"]): F(2),
            m(["1", "2", "3"]): F(4),
        }
        assert dict(trunc.values) == expected_dual
        conv = convex_characteristic(trunc)
        expected_char = {
            0: F(0),
            m(["1"]): F(2),
            m(["2"]): F(0),
            m(["3"]): F(0),
            m(["1", "2"]): F(3),
            m(["1", "3"]): F(3),
            m(["2", "3"]): F(1),
            m(["1", "2", "3"]): F(4),
        }
        assert dict(conv.values) == expected_char


def test_criterion_05_threshold_property(corpus):
    with _verdict(5, "200 random models: empty just below the minimum, nonempty at and above"):
        below_checked = 0
        for model, rep in corpus:
            r_co, h = rep.r_co, rep.h_total
            if r_co > 0:
                # packet models keep r_co's denominator <= |V|-1, so the
                # 1/8 step never crosses zero when r_co is positive
                assert not core_nonempty(Game(model, r_co - F(1, 8)))
                below_checked += 1
            for alpha in (r_co, r_co + F(1, 8), h):
                assert core_nonempty(Game(model, alpha))
        assert below_checked > 100  # the probe must actually fire on the corpus


def test_criterion_06_mmi_identity(corpus):
    with _verdict(6, "minimum sum-rate equals total entropy minus mutual information"):
        for model, rep in corpus:
            res = mmi(model)
            assert rep.r_co == rep.h_total - res.value
            assert rep.mmi == res.value


def test_criterion_07_duality_agreement(corpus):
    with _verdict(7, "1000 sampled vectors: lower-bound and dual upper-bound forms agree"):
        rng = random.Random(424243)
        checked = 0
        for model, rep in corpus:
            alphas = [rep.r_co, rep.r_co + F(1, 2), rep.h_total]
            if rep.r_co > 0:
                alphas.append(rep.r_co - F(1, 8))
            for alpha in alphas:
                game = Game(model, alpha)
                trunc = dilworth_truncate(game)
                samples = [
                    RateVector.of(_random_simplex_point(rng, model.n, alpha))
                    for _ in range(1)
                ]
                if trunc.core_nonempty:
                    order = list(range(model.n))
                    rng.shuffle(order)
                    samples.append(RateVector(greedy_marginals(trunc.values, tuple(order))))
                for r in samples:
                    assert bool(in_core(game, r)) == bool(dual_membership(game, r))
                    checked += 1
        assert checked >= 1000, f"only {checked} samples"


def _random_simplex_point(rng, n, alpha):
    weights = [F(rng.randint(0, 10)) for _ in range(n)]
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(n)] = F(1)
        total = F(1)
    return tuple(alpha * w / total for w in weights)


def test_criterion_08_dual_modularity_regimes(corpus):
    with _verdict(8, "dual is submodular at alpha=H(V), intersecting submodular below"):
        for model, rep in corpus:
            h = rep.h_total
            table = Game(model, h).dual_table()
            assert check_submodular(table, model.full_mask)
            if h == 0:
                continue  # no alpha below the total entropy exists
            alpha_below = max(rep.r_co - F(1, 8), F(0))
            below = Game(model, alpha_below).dual_table()
            assert check_submodular(below, model.full_mask, intersecting_only=True)


def test_criterion_09_convex_game_properties(corpus, example1):
    with _verdict(9, "above the minimum: supermodular flip, vertices in core, Shapley = vertex mean"):
        cases = [(example1, min_sum_rate_asymptotic(example1))] + corpus[::4]
        for model, rep in cases:
            for alpha in (rep.r_co, rep.r_co + F(1, 2), rep.h_total):
                game = Game(model, alpha)
                trunc = dilworth_truncate(game)
                conv = convex_characteristic(trunc)
                assert check_supermodular(dict(conv.values), model.full_mask)
                n = model.n
                acc = [F(0)] * n
                count = 0
                for order in permutations(range(n)):
                    rates = greedy_marginals(trunc.values, order)
                    assert in_core(game, RateVector(rates))
                    acc = [a + r for a, r in zip(acc, rates)]
                    count += 1
                mean = tuple(a / count for a in acc)
                assert tuple(shapley(trunc).rates) == mean


def test_criterion_10_oracle_equivalence(corpus):
    with _verdict(10, "partition DP matches raw enumeration; integer core matches brute force"):
        for model, rep in corpus:
            game = Game(model, rep.r_co)
            table = game.dual_table()
            for x in subsets(model.full_mask, nonempty=True):
                value, part = min_partition_sum(x, table.__getitem__)
                assert value == brute_min_partition(x, table.__getitem__)
                assert sum((table[b] for b in part), F(0)) == value
        # integer-core brute force on a fixed subsample (it is the slow oracle)
        for model, rep in corpus[::3]:
            alpha = min_sum_rate_non_asymptotic(model).r_co
            game = Game(model, alpha)
            got = [tuple(int(x) for x in r) for r in enumerate_integer_core(game)]
            assert got == brute_integer_core(game)
            assert got, "integer core empty at the integer minimum sum-rate"


def _cli(*argv) -> tuple[int, dict | None]:
    out = io.StringIO()
    code = cli_run(list(argv), out=out, err=io.StringIO())
    text = out.getvalue()
    return code, (json.loads(text) if text.strip().startswith("{") else None)


def test_criterion_11_cli_contract(example1_path):
    with _verdict(11, "CLI reproduces the Example 1 numbers bit-exactly, exit 3 when empty"):
        code, rep = _cli("validate", example1_path)
        assert code == 0 and rep["results"]["valid"] is True

        code, rep = _cli("minrate", example1_path, "--mode", "asymptotic")
        assert code == 0 and rep["results"]["r_co"]["rational"] == "7/2"
        code, rep = _cli("minrate", example1_path, "--mode", "integer")
        assert code == 0 and rep["results"]["r_co"]["rational"] == "4"

        code, rep = _cli("core", example1_path, "--alpha", "7/2", "--rates", "5/2,1/2,1/2")
        assert code == 0 and rep["results"]["member"] is True

        code, rep = _cli("allocate", example1_path, "--alpha", "4", "--method", "shapley")
        assert code == 0
        assert rep["results"]["allocations"][0]["rates"]["rational"] == ["8/3", "2/3", "2/3"]

        code, rep = _cli("allocate", example1_path, "--alpha", "4", "--method", "enumerate")
        assert code == 0
        got = {tuple(a["rates"]["rational"]) for a in rep["results"]["allocations"]}
        assert got == {("3", "0", "1"), ("2", "1", "1"), ("3", "1", "0")}

        code, rep = _cli("polyhedron", example1_path, "--alpha", "4")
        assert code == 0
        trunc_table = {
            tuple(row["set"]): row["value"]["rational"]
            for row in rep["results"]["truncated_dual"]
        }
        assert trunc_table == {
            (): "0", ("1",): "3", ("2",): "1", ("3",): "1",
            ("1", "2"): "4", ("1", "3"): "4", ("2", "3"): "2", ("1", "2", "3"): "4",
        }
        conv_table = {
            tuple(row["set"]): row["value"]["rational"]
            for row in rep["results"]["convex_characteristic"]
        }
        assert conv_table == {
            (): "0", ("1",): "2", ("2",): "0", ("3",): "0",
            ("1", "2"): "3", ("1", "3"): "3", ("2", "3"): "1", ("1", "2", "3"): "4",
        }

        # the documented core-empty exit
        code, rep = _cli("allocate", example1_path, "--alpha", "3", "--method", "shapley")
        assert code == 3 and rep["results"]["r_co"]["rational"] == "7/2"
        code, rep = _cli("core", example1_path, "--alpha", "3")
        assert code == 3 and rep["results"]["nonempty"] is False
