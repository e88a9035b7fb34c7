import argparse
import io
import json
import math
import os
import random
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnirate.cli
import omnirate.game
from omnirate import (
    Game,
    PacketModel,
    RateVector,
    dilworth_truncate,
    format_rational,
    greedy_vertices,
    in_core,
    load_model,
    min_sum_rate_asymptotic,
)
from omnirate.cli import build_parser, json_text, run
from omnirate.combinatorics import flip

from oracles import random_entropy_table, random_packet_model


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    text = out.getvalue()
    report = json.loads(text) if text.strip().startswith("{") else None
    if report is not None:
        # the printed bytes themselves, not only what they parse to, must be
        # json.dumps(indent=2) of the report: the golden cases below go
        # through here, so a layout drift fails them
        assert text == json.dumps(report, indent=2) + "\n"
    return code, report, text, err.getvalue()


# The emitter's domain: what a report can hold. Keys and strings include
# non-ASCII and control characters; floats are finite (float() of a Fraction
# out of range raises OverflowError, which run maps to exit 1).
_report_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 0.1]),
    st.text(),
)
# lists of one scalar type take the emitter's one-map path
_uniform_lists = st.one_of(
    st.lists(st.integers()),
    st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    st.lists(st.text()),
    st.lists(st.booleans()),
    st.lists(st.none()),
)
_report_values = st.recursive(
    st.one_of(_report_scalars, _uniform_lists),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=15,
)


@settings(max_examples=150, deadline=None)
@given(_report_values)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_fixed_cases():
    for value in (
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}]},
        {"\u00e9\x00\n\t\"\\": ["\U0001f600", "\x1f", "\u2028"]},
        [True, 1, 1.0, None, "1", [False], {"k": 0}],
        [-0.0, 1e300, 5e-324, 10**30, -(10**30)],
    ):
        assert json_text(value) == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        json_text({"rates": (1, 2)})


def test_cached_parser_keeps_no_state(example1_path):
    # one parser serves every run in a process; no flag may leak between runs
    assert build_parser() is build_parser()
    argv = ("allocate", example1_path, "--alpha", "4", "--method", "greedy")
    code, report, _, _ = cli(*argv, "--order", "3,1,2")
    assert code == 0 and report["inputs"]["order"] == "3,1,2"
    assert len(report["results"]["allocations"]) == 1
    code, report, _, _ = cli(*argv)
    assert code == 0 and report["inputs"]["order"] is None
    assert len(report["results"]["allocations"]) == 3

    code, report, _, _ = cli("allocate", example1_path, "--alpha", "4", "--method", "bogus")
    assert (code, report) == (1, None)
    code, report, _, _ = cli("minrate", example1_path)
    assert code == 0 and report["results"]["r_co"]["rational"] == "7/2"

    code, report, text, _ = cli("minrate", example1_path, "--format", "csv")
    assert (code, report) == (0, None) and text.startswith("key,value\n")
    code, report, _, _ = cli("minrate", example1_path)
    assert code == 0 and report["inputs"]["format"] == "json"


def test_validate_example(example1_path):
    code, report, _, _ = cli("validate", example1_path)
    assert code == 0
    assert report["results"]["valid"] is True
    assert report["results"]["violations"] == []
    assert report["model_digest"].startswith("sha256:")


def test_validate_invalid_table(tmp_path):
    obj = {
        "type": "entropy",
        "users": ["1", "2"],
        "entries": [
            {"set": [], "H": "1"},
            {"set": ["1"], "H": "1"},
            {"set": ["2"], "H": "1"},
            {"set": ["1", "2"], "H": "2"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, report, _, _ = cli("validate", str(path))
    assert code == 2
    assert report["results"]["valid"] is False
    assert any(v["kind"] == "normalization" for v in report["results"]["violations"])


def test_validate_report_is_bounded_at_12_users(tmp_path):
    # a weighted coverage table on 12 users with H(V minus user 1) raised by
    # 5: the report is the one pass's certificate, at most the normalization
    # entry, n*2^(n-1) steps and C(n,2)*2^(n-2) elementary pairs, not the
    # O(4^n) list of every failing pair
    n = 12
    rng = random.Random(n)
    weights = [rng.choice([2, 3, 4, 6]) for _ in range(24)]
    held = [sum(1 << k for k in range(24) if rng.random() < 0.4) for _ in range(n)]
    unions = [0]
    for mask in held:
        unions += [u | mask for u in unions]
    h = [sum(w for k, w in enumerate(weights) if u >> k & 1) for u in unions]
    h[((1 << n) - 1) & ~1] += 5
    users = [str(i + 1) for i in range(n)]
    entries = [
        {"set": [u for i, u in enumerate(users) if x >> i & 1], "H": str(v)} for x, v in enumerate(h)
    ]
    path = tmp_path / "raised.json"
    path.write_text(json.dumps({"type": "entropy", "users": users, "entries": entries}))
    code, report, _, _ = cli("validate", str(path))
    violations = report["results"]["violations"]
    assert code == 2 and violations
    assert len(violations) <= 1 + n * 2 ** (n - 1) + math.comb(n, 2) * 2 ** (n - 2)
    model = load_model(str(path), validate=False)
    H = model.entropy
    for v in violations:
        masks = [model.mask_from_ids(ids) for ids in v["sets"]]
        if v["kind"] == "normalization":
            assert masks == [0] and H(0) != 0
        elif v["kind"] == "monotonicity":
            x, y = masks
            assert (x ^ y).bit_count() == 1 and y & ~x and H(x) > H(y)
        else:
            x, y = masks
            # an elementary pair: X+j and X+i
            assert (x ^ y).bit_count() == 2 and (x & ~y).bit_count() == 1
            assert H(x) + H(y) < H(x | y) + H(x & y)


def test_validate_missing_file(tmp_path):
    code, report, _, err = cli("validate", str(tmp_path / "nope.json"))
    assert code == 1
    assert report is None
    assert "error" in err


def test_minrate_modes(example1_path):
    code, report, _, _ = cli("minrate", example1_path, "--mode", "asymptotic")
    assert code == 0
    res = report["results"]
    assert res["r_co"]["rational"] == "7/2"
    assert res["mmi"]["rational"] == "5/2"
    assert res["h_total"]["rational"] == "6"
    assert res["identity_holds"] is True
    assert report["certificates"]["argmax_partition"] == [["1"], ["2"], ["3"]]

    code, report, _, _ = cli("minrate", example1_path, "--mode", "integer")
    assert code == 0
    assert report["results"]["r_co"]["rational"] == "4"
    assert report["results"]["identity_holds"] is True


def test_minrate_two_identical_users(tmp_path):
    path = tmp_path / "twins.json"
    path.write_text(json.dumps({"type": "packets", "users": {"1": ["a"], "2": ["a"]}}))
    for mode in ("asymptotic", "integer"):
        code, report, _, _ = cli("minrate", str(path), "--mode", mode)
        assert code == 0
        assert report["results"]["r_co"]["rational"] == "0"


def test_core_nonemptiness(example1_path):
    code, report, _, _ = cli("core", example1_path, "--alpha", "16/5")
    assert code == 3
    assert report["results"]["nonempty"] is False
    code, report, _, _ = cli("core", example1_path, "--alpha", "7/2")
    assert code == 0
    assert report["results"]["nonempty"] is True
    assert report["certificates"]["min_partition"] == [["1", "2", "3"]]


def test_core_membership(example1_path):
    code, report, _, _ = cli(
        "core", example1_path, "--alpha", "7/2", "--rates", "5/2,1/2,1/2"
    )
    assert code == 0
    assert report["results"]["member"] is True
    assert report["results"]["dual_form_member"] is True

    code, report, _, _ = cli(
        "core", example1_path, "--alpha", "4", "--rates", "3,0,1", "--integer"
    )
    assert code == 0
    assert report["results"]["member"] is True

    code, report, _, _ = cli(
        "core", example1_path, "--alpha", "4", "--rates", "4,0,0"
    )
    assert code == 0
    assert report["results"]["member"] is False
    assert report["certificates"]["witness"]["kind"] == "coalition"


def test_core_bad_rates(example1_path):
    code, _, _, err = cli("core", example1_path, "--alpha", "4", "--rates", "1,1")
    assert code == 1 and "3 users" in err
    code, _, _, err = cli("core", example1_path, "--alpha", "4", "--rates", "5,-1,0")
    assert code == 1 and "negative" in err
    code, _, _, err = cli("core", example1_path, "--alpha", "-2")
    assert code == 1


def test_allocate_shapley(example1_path):
    code, report, _, _ = cli("allocate", example1_path, "--alpha", "4", "--method", "shapley")
    assert code == 0
    alloc = report["results"]["allocations"][0]
    assert alloc["rates"]["rational"] == ["8/3", "2/3", "2/3"]
    assert alloc["jain"]["rational"] == "2/3"
    assert report["results"]["in_core"] == [True]


def test_allocate_core_empty_exit(example1_path):
    code, report, _, _ = cli("allocate", example1_path, "--alpha", "3", "--method", "shapley")
    assert code == 3
    assert report["results"]["core_empty"] is True
    assert report["results"]["r_co"]["rational"] == "7/2"


@pytest.mark.parametrize(
    "extra",
    [
        ("--method", "greedy"),
        ("--method", "greedy", "--order", "2,1,3"),
        # shapley reads no join order, so a bad one does not stop it
        ("--method", "shapley", "--order", "1,1,3"),
    ],
)
def test_allocate_empty_core_report(example1_path, extra):
    code, report, _, err = cli("allocate", example1_path, "--alpha", "3", *extra)
    assert (code, err) == (3, "")
    assert report["results"] == {
        "alpha": {"rational": "3", "decimal": 3.0},
        "method": extra[1],
        "core_empty": True,
        "r_co": {"rational": "7/2", "decimal": 3.5},
        "detail": "core is empty at alpha=3; minimum sum-rate is 7/2",
    }


@pytest.mark.parametrize("alpha,order", [("3", "1,1,3"), ("4", "")])
def test_allocate_bad_order_exits_one_on_any_core(example1_path, alpha, order):
    # the order is parsed before the emptiness check: a bad one is an input error
    argv = ("allocate", example1_path, "--alpha", alpha, "--method", "greedy", "--order", order)
    code, report, text, err = cli(*argv)
    assert (code, report, text) == (1, None, "")
    assert err == "error: --order must be a permutation of the users 1,2,3\n"


def test_allocate_enumerate(example1_path):
    code, report, _, _ = cli("allocate", example1_path, "--alpha", "4", "--method", "enumerate")
    assert code == 0
    got = {tuple(a["rates"]["rational"]) for a in report["results"]["allocations"]}
    assert got == {("3", "0", "1"), ("2", "1", "1"), ("3", "1", "0")}
    # fractional alpha cannot ask for integer enumeration
    code, _, _, err = cli("allocate", example1_path, "--alpha", "7/2", "--method", "enumerate")
    assert code == 4
    assert "integer" in err


@pytest.mark.parametrize("alpha", ["4", "5"])
def test_allocate_enumerate_golden(example1_path, alpha):
    # Reports must not change by a single byte: results and certificates of
    # the JSON report (timing and the echoed path vary) and the whole CSV.
    golden = os.path.join(os.path.dirname(example1_path), "golden")
    stem = os.path.join(golden, f"allocate_enumerate_alpha{alpha}")
    argv = ("allocate", example1_path, "--alpha", alpha, "--method", "enumerate")
    code, report, _, _ = cli(*argv)
    assert code == 0
    pinned = {"results": report["results"], "certificates": report["certificates"]}
    with open(stem + ".json", encoding="utf-8") as fh:
        assert json.dumps(pinned, indent=2) + "\n" == fh.read()
    code, _, text, _ = cli(*argv, "--format", "csv")
    assert code == 0
    with open(stem + ".csv", encoding="utf-8", newline="") as fh:
        assert text == fh.read()


# Reports that read R_CO, MMI or a partition minimum, per model: each case is
# (label, argv after the model path). Alphas sit at R_CO (the boundary, where
# ties are widest), above it, and below it (the core-empty exits).
REPORT_GOLDEN_CASES = {
    "example1": [
        ("minrate asymptotic", ("minrate", "--mode", "asymptotic")),
        ("minrate integer", ("minrate", "--mode", "integer")),
        ("core at R_CO", ("core", "--alpha", "7/2")),
        ("core above R_CO", ("core", "--alpha", "4")),
        ("core below R_CO", ("core", "--alpha", "3")),
        ("shapley above R_CO", ("allocate", "--alpha", "4", "--method", "shapley")),
        ("shapley below R_CO", ("allocate", "--alpha", "3", "--method", "shapley")),
    ],
    # three users holding the same packets: R_CO = 0 and every proper
    # partition ties, so the certificates show the tie rule alone
    "identical_users": [
        ("minrate asymptotic", ("minrate", "--mode", "asymptotic")),
        ("minrate integer", ("minrate", "--mode", "integer")),
        ("core at R_CO", ("core", "--alpha", "0")),
        ("core above R_CO", ("core", "--alpha", "1")),
        ("shapley at R_CO", ("allocate", "--alpha", "0", "--method", "shapley")),
    ],
    # seeded 8 users, 40 packets: R_CO = 193/7
    "packets_n8": [
        ("minrate asymptotic", ("minrate", "--mode", "asymptotic")),
        ("minrate integer", ("minrate", "--mode", "integer")),
        ("core at R_CO", ("core", "--alpha", "193/7")),
        ("core below R_CO", ("core", "--alpha", "27")),
        ("shapley above R_CO", ("allocate", "--alpha", "28", "--method", "shapley")),
        ("shapley below R_CO", ("allocate", "--alpha", "27", "--method", "shapley")),
    ],
    # seeded fractional 6-user entropy table: R_CO = 117/4
    # (--mode integer refuses it: see test_integer_minrate_refuses_fractional_tables)
    "entropy_n6": [
        ("minrate asymptotic", ("minrate", "--mode", "asymptotic")),
        ("core at R_CO", ("core", "--alpha", "117/4")),
        ("core below R_CO", ("core", "--alpha", "29")),
        ("shapley at R_CO", ("allocate", "--alpha", "117/4", "--method", "shapley")),
        ("shapley below R_CO", ("allocate", "--alpha", "29", "--method", "shapley")),
    ],
}


# Core membership (one case per witness kind, in the order the checks run)
# and the polyhedron report, on example1: the coalition checks and the
# truncation behind them.
MEMBERSHIP_GOLDEN_CASES = [
    ("core member", ("core", "--alpha", "4", "--rates", "3,0,1")),
    ("core sum failure", ("core", "--alpha", "4", "--rates", "3,0,0")),
    ("core fractional failure", ("core", "--alpha", "4", "--rates", "5/2,1/2,1", "--integer")),
    ("core coalition failure", ("core", "--alpha", "4", "--rates", "4,0,0")),
    ("core first of two coalition failures", ("core", "--alpha", "4", "--rates", "0,1,3")),
    ("polyhedron above R_CO", ("polyhedron", "--alpha", "4")),
    ("polyhedron core empty", ("polyhedron", "--alpha", "16/5")),
]


# The same witness kinds on the fractional 6-user table, at alpha = R_CO =
# 117/4 (the member is its Shapley vector) and, for --integer, at 30.
MEMBERSHIP_ENTROPY_GOLDEN_CASES = [
    (
        "core member",
        ("core", "--alpha", "117/4", "--rates", "11/4,1357/240,31/20,407/240,3137/240,1087/240"),
    ),
    (
        "core coalition failure",
        ("core", "--alpha", "117/4", "--rates", "3,1357/240,31/20,407/240,3137/240,1027/240"),
    ),
    (
        "core sum failure",
        ("core", "--alpha", "117/4", "--rates", "11/4,1357/240,31/20,407/240,3137/240,1"),
    ),
    (
        "core integer member",
        ("core", "--alpha", "30", "--rates", "3,6,2,2,13,4", "--integer"),
    ),
    (
        "core fractional failure",
        ("core", "--alpha", "30", "--rates", "5/2,13/2,2,2,13,4", "--integer"),
    ),
]


def golden_reports_text(data_dir: str, model: str, cases=None) -> str:
    """Exit code, results and certificates of every case, as pinned on disk."""
    path = os.path.join(data_dir, model + ".json")
    pinned = {}
    for label, (command, *rest) in cases or REPORT_GOLDEN_CASES[model]:
        code, report, _, _ = cli(command, path, *rest)
        pinned[label] = {
            "exit": code,
            "results": report["results"],
            "certificates": report["certificates"],
        }
    return json.dumps(pinned, indent=2) + "\n"


@pytest.mark.parametrize("model", sorted(REPORT_GOLDEN_CASES))
def test_report_golden(example1_path, model):
    # minrate, core and allocate reports must not change by a single byte
    data_dir = os.path.dirname(example1_path)
    with open(os.path.join(data_dir, "golden", f"reports_{model}.json"), encoding="utf-8") as fh:
        assert golden_reports_text(data_dir, model) == fh.read()


def test_membership_and_polyhedron_golden(example1_path):
    data_dir = os.path.dirname(example1_path)
    path = os.path.join(data_dir, "golden", "membership_example1.json")
    with open(path, encoding="utf-8") as fh:
        assert golden_reports_text(data_dir, "example1", MEMBERSHIP_GOLDEN_CASES) == fh.read()


def test_membership_entropy_golden(example1_path):
    data_dir = os.path.dirname(example1_path)
    path = os.path.join(data_dir, "golden", "membership_entropy_n6.json")
    with open(path, encoding="utf-8") as fh:
        assert golden_reports_text(data_dir, "entropy_n6", MEMBERSHIP_ENTROPY_GOLDEN_CASES) == fh.read()


def golden_digest_text(data_dir: str, model: str = "noncanonical_entropy_n3") -> str:
    """The digest and validation of a table. By default its "H" strings are
    not in lowest terms ("2.50", "10/4", "-0", "1e1", " 3 ", "+12.5",
    Arabic-Indic digits): the digest hashes the canonical values, not the
    file's text."""
    code, report, _, _ = cli("validate", os.path.join(data_dir, model + ".json"))
    pinned = {"exit": code, "model_digest": report["model_digest"], "results": report["results"]}
    return json.dumps(pinned, indent=2) + "\n"


def test_noncanonical_digest_golden(example1_path):
    data_dir = os.path.dirname(example1_path)
    path = os.path.join(data_dir, "golden", "digest_noncanonical_entropy_n3.json")
    with open(path, encoding="utf-8") as fh:
        assert golden_digest_text(data_dir) == fh.read()


def test_escaped_ids_digest_golden(example1_path):
    # ids with a quote, a backslash, a non-ASCII and an astral character, and
    # a unit with a tab, quotes, a backslash and a control character: each
    # is written as an ASCII escape in the hashed JSON
    data_dir = os.path.dirname(example1_path)
    path = os.path.join(data_dir, "golden", "digest_escaped_ids_entropy_n3.json")
    with open(path, encoding="utf-8") as fh:
        assert golden_digest_text(data_dir, "escaped_ids_entropy_n3") == fh.read()


# Validation reports list each failing elementary inequality with its
# detail string; one valid fractional table and one with violations of all
# three kinds.
VALIDATE_GOLDEN_MODELS = ("entropy_n6", "invalid_entropy_n4")


def golden_validate_text(data_dir: str, model: str) -> str:
    code, report, _, _ = cli("validate", os.path.join(data_dir, model + ".json"))
    pinned = {"exit": code, "results": report["results"], "certificates": report["certificates"]}
    return json.dumps(pinned, indent=2) + "\n"


@pytest.mark.parametrize("model", VALIDATE_GOLDEN_MODELS)
def test_validate_golden(example1_path, model):
    data_dir = os.path.dirname(example1_path)
    with open(os.path.join(data_dir, "golden", f"validate_{model}.json"), encoding="utf-8") as fh:
        assert golden_validate_text(data_dir, model) == fh.read()


# Sampled join orders (n! > 8!): allocate --method greedy on a 9-user model
# at alpha = R_CO = 3. The report lists the distinct vertices of 2000 orders
# shuffled by random.Random(0), ranked by Jain index with ties on the rates.
GREEDY_SAMPLED_ARGV = ("allocate", "--alpha", "3", "--method", "greedy")


def golden_greedy_sampled_text(data_dir: str) -> str:
    command, *rest = GREEDY_SAMPLED_ARGV
    code, report, _, _ = cli(command, os.path.join(data_dir, "packets_n9.json"), *rest)
    inputs = {k: v for k, v in report["inputs"].items() if k != "model"}
    pinned = {
        "exit": code,
        "inputs": inputs,
        "results": report["results"],
        "certificates": report["certificates"],
    }
    return json.dumps(pinned, indent=2) + "\n"


def test_allocate_greedy_sampled_golden(example1_path):
    data_dir = os.path.dirname(example1_path)
    path = os.path.join(data_dir, "golden", "allocate_greedy_packets_n9.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert json.loads(text)["results"]["partial"] is True
    assert golden_greedy_sampled_text(data_dir) == text


# Exact join orders (n <= 8): every greedy vertex with its first order, one
# vertex along a given order, and the polyhedron rows and vertices, on the
# fractional 6-user table at R_CO = 117/4 and the 8-user packet model above
# R_CO.
GREEDY_GOLDEN_CASES = {
    "entropy_n6": [
        ("greedy at R_CO", ("allocate", "--alpha", "117/4", "--method", "greedy")),
        (
            "greedy along an order",
            ("allocate", "--alpha", "117/4", "--method", "greedy", "--order", "4,2,6,1,5,3"),
        ),
        ("polyhedron at R_CO", ("polyhedron", "--alpha", "117/4")),
    ],
    "packets_n8": [
        ("greedy above R_CO", ("allocate", "--alpha", "28", "--method", "greedy")),
    ],
}


@pytest.mark.parametrize("model", sorted(GREEDY_GOLDEN_CASES))
def test_greedy_and_polyhedron_golden(example1_path, model):
    data_dir = os.path.dirname(example1_path)
    path = os.path.join(data_dir, "golden", f"greedy_{model}.json")
    with open(path, encoding="utf-8") as fh:
        assert golden_reports_text(data_dir, model, GREEDY_GOLDEN_CASES[model]) == fh.read()


def test_allocate_greedy_with_order(example1_path):
    code, report, _, _ = cli(
        "allocate", example1_path, "--alpha", "4", "--method", "greedy", "--order", "1,2,3"
    )
    assert code == 0
    assert report["results"]["allocations"][0]["rates"]["rational"] == ["3", "1", "0"]
    code, _, _, err = cli(
        "allocate", example1_path, "--alpha", "4", "--method", "greedy", "--order", "1,1,3"
    )
    assert code == 1


def test_allocate_greedy_all_vertices_ranked(example1_path):
    code, report, _, _ = cli("allocate", example1_path, "--alpha", "4", "--method", "greedy")
    assert code == 0
    allocs = report["results"]["allocations"]
    rates = [tuple(a["rates"]["rational"]) for a in allocs]
    assert set(rates) == {("3", "0", "1"), ("2", "1", "1"), ("3", "1", "0")}
    assert rates[0] == ("2", "1", "1")  # fairest vertex first
    jains = [Fraction(a["jain"]["rational"]) for a in allocs]
    assert jains == sorted(jains, reverse=True)


def _model_body(model) -> dict:
    """A model file body for a packet model or an entropy table."""
    if isinstance(model, PacketModel):
        return {"type": "packets", "users": dict(zip(model.users, map(sorted, model.packet_sets)))}
    h, den = model.entropy_table
    entries = [
        {"set": list(model.ids_from_mask(x)), "H": f"{v}/{den}"} for x, v in enumerate(h)
    ]
    return {"type": "entropy", "users": list(model.users), "entries": entries}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.sampled_from([2, 3, 5, 8, 9]),
    fractional=st.booleans(),
    step=st.sampled_from(["ceil", "ceil+1", "H(V)"]),
    method=st.sampled_from(["greedy", "order", "shapley"]),
)
def test_reported_in_core_matches_the_membership_check(seed, n, fractional, step, method):
    # allocate reports in_core without testing each allocation; the test
    # here is the per-allocation in_core it replaced, at exact (n <= 8) and
    # sampled (n = 9) vertex lists
    rng = random.Random(seed)
    model = random_entropy_table(rng, n) if fractional else random_packet_model(rng, n_users=n)
    ceil = math.ceil(min_sum_rate_asymptotic(model).r_co)
    h_total = model.entropy(model.full_mask)  # >= R_CO, so the core is nonempty
    alpha = {"ceil": ceil, "ceil+1": ceil + 1, "H(V)": h_total}[step]
    extra = ["--method", "shapley" if method == "shapley" else "greedy"]
    if method == "order":
        extra += ["--order", ",".join(rng.sample(model.users, n))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_model_body(model), fh)
        code, report, _, _ = cli("allocate", path, "--alpha", str(alpha), *extra)
    assert code == 0
    game = Game(model, alpha)
    checked = [
        bool(in_core(game, RateVector.of(a["rates"]["rational"])))
        for a in report["results"]["allocations"]
    ]
    assert report["results"]["in_core"] == checked == [True] * len(checked)


def test_allocate_makes_no_core_test(example1_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("allocate called in_core")

    monkeypatch.setattr(omnirate.cli, "in_core", forbidden)
    monkeypatch.setattr(omnirate.game, "in_core", forbidden)
    n9 = os.path.join(os.path.dirname(example1_path), "packets_n9.json")
    for path, alpha, order in ((example1_path, "4", "2,3,1"), (n9, "3", "9,8,7,6,5,4,3,2,1")):
        for extra in (("greedy",), ("greedy", "--order", order), ("shapley",)):
            code, report, _, _ = cli("allocate", path, "--alpha", alpha, "--method", *extra)
            assert code == 0
            res = report["results"]
            assert res["in_core"] == [True] * len(res["allocations"]) != []


def test_polyhedron(example1_path):
    code, report, _, _ = cli("polyhedron", example1_path, "--alpha", "4")
    assert code == 0
    res = report["results"]
    constraints = {tuple(c["set"]): c["upper_bound"]["rational"] for c in res["constraints"]}
    assert constraints[("1",)] == "3"
    assert constraints[("2", "3")] == "3"
    vertices = {tuple(v["rational"]) for v in res["vertices"]}
    assert vertices == {("3", "0", "1"), ("2", "1", "1"), ("3", "1", "0")}
    truncated = {tuple(t["set"]): t["value"]["rational"] for t in res["truncated_dual"]}
    assert truncated[("2", "3")] == "2"

    code, report, _, _ = cli("polyhedron", example1_path, "--alpha", "7/2")
    assert code == 0
    vertices = {tuple(v["rational"]) for v in report["results"]["vertices"]}
    assert vertices == {("5/2", "1/2", "1/2")}

    code, report, _, _ = cli("polyhedron", example1_path, "--alpha", "16/5")
    assert code == 0
    assert report["results"]["core_empty"] is True
    assert report["results"]["vertices"] == []


def test_reports_are_reproducible(example1_path):
    _, first, _, _ = cli("minrate", example1_path, "--mode", "asymptotic")
    _, second, _, _ = cli("minrate", first["inputs"]["model"], "--mode", first["inputs"]["mode"])
    for key in ("results", "certificates", "model_digest", "inputs"):
        assert first[key] == second[key]

    _, first, _, _ = cli("allocate", example1_path, "--alpha", "4", "--method", "greedy")
    _, second, _, _ = cli(
        "allocate",
        first["inputs"]["model"],
        "--alpha",
        first["inputs"]["alpha"],
        "--method",
        first["inputs"]["method"],
    )
    assert first["results"] == second["results"]


# The report envelope and the echoed inputs, in order, of every command and
# option; "<model>" stands for the model path. The goldens pin only
# results and certificates.
ENVELOPE_CASES = [
    (("validate", "entropy_n6"), 0, []),
    (("validate", "invalid_entropy_n4"), 2, []),
    (("minrate", "example1"), 0, [("mode", "asymptotic")]),
    (("minrate", "example1", "--mode", "integer"), 0, [("mode", "integer")]),
    (("core", "example1", "--alpha", "7/2"), 0, [("alpha", "7/2"), ("rates", None), ("integer", False)]),
    (("core", "example1", "--alpha", "3"), 3, [("alpha", "3"), ("rates", None), ("integer", False)]),
    (
        ("core", "example1", "--alpha", "4", "--rates", "4,0,0"),
        0,
        [("alpha", "4"), ("rates", "4,0,0"), ("integer", False)],
    ),
    (
        ("core", "example1", "--integer", "--alpha", "4", "--rates", "2,1,1"),
        0,
        [("alpha", "4"), ("rates", "2,1,1"), ("integer", True)],
    ),
    (
        ("allocate", "example1", "--alpha", "4", "--method", "shapley"),
        0,
        [("alpha", "4"), ("method", "shapley"), ("order", None)],
    ),
    (
        ("allocate", "example1", "--alpha", "4", "--method", "greedy"),
        0,
        [("alpha", "4"), ("method", "greedy"), ("order", None)],
    ),
    (
        ("allocate", "example1", "--order", "3,1,2", "--alpha", "4", "--method", "greedy"),
        0,
        [("alpha", "4"), ("method", "greedy"), ("order", "3,1,2")],
    ),
    (
        ("allocate", "example1", "--alpha", "5", "--method", "enumerate"),
        0,
        [("alpha", "5"), ("method", "enumerate"), ("order", None)],
    ),
    (
        ("allocate", "example1", "--alpha", "3", "--method", "shapley"),
        3,
        [("alpha", "3"), ("method", "shapley"), ("order", None)],
    ),
    (("polyhedron", "example1", "--alpha", "4"), 0, [("alpha", "4")]),
]


@pytest.mark.parametrize("argv, exit_code, extra", ENVELOPE_CASES)
def test_report_envelope_and_inputs_are_pinned(example1_path, argv, exit_code, extra):
    command, model, *rest = argv
    path = os.path.join(os.path.dirname(example1_path), model + ".json")
    code, report, _, err = cli(command, path, *rest)
    assert (code, err) == (exit_code, "")
    assert list(report) == [
        "command",
        "model_digest",
        "inputs",
        "results",
        "certificates",
        "timing_ms",
    ]
    assert report["command"] == command
    inputs = [(k, "<model>" if k == "model" and v == path else v) for k, v in report["inputs"].items()]
    assert inputs == [("model", "<model>"), ("format", "json"), *extra]


def test_integer_minrate_refuses_fractional_tables(tmp_path, example1_path):
    # H({1}) = H({2}) = 1/2, H({1,2}) = 1: R_CO = 1, but the integer minimum
    # is 2 (core --alpha 1 --integer admits neither 1,0 nor 0,1)
    obj = {
        "type": "entropy",
        "users": ["1", "2"],
        "entries": [
            {"set": [], "H": "0"},
            {"set": ["1"], "H": "1/2"},
            {"set": ["2"], "H": "1/2"},
            {"set": ["1", "2"], "H": "1"},
        ],
    }
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(obj))
    for alpha, rates, member in (("1", "1,0", False), ("1", "0,1", False), ("2", "1,1", True)):
        _, report, _, _ = cli("core", str(path), "--alpha", alpha, "--rates", rates, "--integer")
        assert report["results"]["member"] is member
    entropy_n6 = os.path.join(os.path.dirname(example1_path), "entropy_n6.json")
    for model, alpha in ((str(path), "2"), (entropy_n6, "30")):
        refused = cli("minrate", model, "--mode", "integer")
        assert refused == (
            4,
            None,
            "",
            "error: integer rates need integer entropies; this model has fractional values\n",
        )
        # the same single error line as integer-core enumeration
        assert cli("allocate", model, "--alpha", alpha, "--method", "enumerate") == refused


def test_console_module_entry(example1_path):
    import subprocess
    import sys

    # run from src/, which "-m" puts first on the path, so the entry point
    # is found without PYTHONPATH or an install
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "omnirate.cli", "minrate", example1_path],
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["r_co"]["rational"] == "7/2"


def test_console_script_entry_resolves_to_main():
    import importlib

    # pyproject is read as text: tomllib is not in Python 3.10
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n[project.scripts]\n") :].split("\n\n")[0]
    (target,) = re.findall(r'^omnirate = "([\w.]+):(\w+)"$', section, re.M)
    module, name = target
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry) and entry is omnirate.cli.main


def test_csv_output(example1_path):
    code, _, text, _ = cli(
        "allocate", example1_path, "--alpha", "4", "--method", "enumerate", "--format", "csv"
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "method,order,jain,rates"
    assert any("2,1,1" in line for line in lines)

    code, _, text, _ = cli("polyhedron", example1_path, "--alpha", "4", "--format", "csv")
    assert code == 0
    assert any(line.startswith("vertex") for line in text.splitlines())

    code, _, text, _ = cli("minrate", example1_path, "--format", "csv")
    assert code == 0
    assert "r_co,7/2" in text


def test_user_guard(example1_path, monkeypatch):
    monkeypatch.setenv("OMNI_MAX_USERS", "2")
    code, _, _, err = cli("minrate", example1_path)
    assert code == 4
    assert "OMNI_MAX_USERS" in err


def test_user_guard_comes_before_the_table(tmp_path):
    # 13 users and no entries: the size refusal comes before the missing
    # 8192 subsets are counted, and before any table is built
    obj = {"type": "entropy", "users": [str(u) for u in range(1, 14)], "entries": []}
    path = tmp_path / "n13.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "minrate"):
        assert cli(command, str(path)) == (
            4,
            None,
            "",
            "error: model has 13 users, above the OMNI_MAX_USERS guard (12); "
            "the algorithms here are exponential by design\n",
        )


@pytest.mark.parametrize("command", ["minrate", "validate"])
def test_user_guard_rejects_non_integer(example1_path, monkeypatch, command):
    monkeypatch.setenv("OMNI_MAX_USERS", "abc")
    code, report, _, err = cli(command, example1_path)
    assert code == 1
    assert report is None
    assert err.startswith("error: OMNI_MAX_USERS")


@pytest.mark.parametrize(
    "value, code",
    [("3", 0), ("03", 0), ("0", 4)]
    + [(v, 1) for v in ("1_0", " 3", "3 ", "+3", "\u0663", "-1", "", "3.0")],
)
def test_user_guard_takes_only_ascii_digits(example1_path, monkeypatch, value, code):
    # int() would take "1_0", " 3", "3 ", "+3" and "\u0663"; a negative guard is no guard
    monkeypatch.setenv("OMNI_MAX_USERS", value)
    got, report, _, err = cli("minrate", example1_path)
    assert got == code
    if code == 1:
        assert report is None
        assert err == f"error: OMNI_MAX_USERS must be a nonnegative integer, got {value!r}\n"


def test_usage_errors_exit_one(example1_path):
    code, _, _, _ = cli("minrate")  # missing model path
    assert code == 1
    code, _, _, _ = cli("allocate", example1_path, "--alpha", "4", "--method", "bogus")
    assert code == 1
    # no command takes --seed: greedy's sample of join orders is fixed
    code, _, _, _ = cli("minrate", example1_path, "--seed", "1")
    assert code == 1
    code, _, _, _ = cli("allocate", example1_path, "--alpha", "4", "--method", "greedy", "--seed", "1")
    assert code == 1


# Every option each command accepts (the top level under ""), --help aside.
# A new option edits this table and the README's CLI section.
CLI_OPTIONS = {
    "": ["--version"],
    "validate": ["--format"],
    "minrate": ["--format", "--mode"],
    "core": ["--alpha", "--format", "--integer", "--rates"],
    "allocate": ["--alpha", "--format", "--method", "--order"],
    "polyhedron": ["--alpha", "--format"],
}


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help"))


def test_cli_option_set_is_pinned_and_documented():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {"": _options(parser)}
    got.update((name, _options(sub)) for name, sub in commands.choices.items())
    assert got == CLI_OPTIONS
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## CLI\n") : text.index("\n## Library\n")]
    # --help is argparse's own, dropped on both sides
    named = set(re.findall(r"--[a-z][a-z-]*", section)) - {"--help"}
    assert named == {o for opts in CLI_OPTIONS.values() for o in opts}


def test_argparse_output_goes_to_the_given_streams(capsys):
    from omnirate import __version__

    code, report, text, err = cli("minrate")  # missing model path
    assert (code, report, text) == (1, None, "")
    assert err.startswith("usage: omnirate minrate")
    assert err.endswith("error: the following arguments are required: model\n")
    code, report, text, err = cli("--version")
    assert (code, report, text, err) == (0, None, f"omnirate {__version__}\n", "")
    code, _, text, err = cli("core", "--help")
    assert code == 0 and text.startswith("usage: omnirate core") and err == ""
    # nothing reached the process's own streams
    assert capsys.readouterr() == ("", "")


def test_rationals_in_reports_are_lowest_terms(example1_path):
    _, report, _, _ = cli("core", example1_path, "--alpha", "14/4", "--rates", "5/2,2/4,1/2")
    assert report["results"]["alpha"]["rational"] == "7/2"
    assert report["results"]["rates"]["rational"] == ["5/2", "1/2", "1/2"]


@pytest.mark.parametrize("bad_id", [["1"], {"1": "2"}])
def test_non_string_ids_in_entry_set_exit_one(tmp_path, bad_id):
    obj = {
        "type": "entropy",
        "users": ["1", "2"],
        "entries": [{"set": [bad_id], "H": "1"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    for argv in (("validate", str(path)), ("minrate", str(path))):
        code, report, _, err = cli(*argv)
        assert code == 1
        assert report is None
        assert err.startswith("error: bad subset in entry")


def test_oversized_numbers_and_bad_bytes_exit_one(tmp_path, example1_path):
    entries = [{"set": [], "H": "0"}, {"set": ["1"], "H": "1"}, {"set": ["2"], "H": "1"}]
    table = {"type": "entropy", "users": ["1", "2"], "entries": entries}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**table, "entries": entries + [{"set": ["1", "2"], "H": "1e5000"}]}))
    literal = tmp_path / "literal.json"
    literal.write_text(
        json.dumps({**table, "entries": entries + [{"set": ["1", "2"], "H": 2}]}).replace(
            '"H": 2}', '"H": 1' + "0" * 5000 + "}"
        )
    )
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"type": "packets", "users": {"1": ["\xff"], "2": ["b"]}}')
    # nesting deeper than the decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv, message in (
        (("validate", str(latin)), "malformed JSON"),
        (("validate", str(deep)), "malformed JSON"),
        (("minrate", str(deep)), "malformed JSON"),
        (("validate", str(path)), "too many digits"),
        (("minrate", str(path)), "too many digits"),
        (("validate", str(literal)), "malformed JSON"),
        (("core", example1_path, "--alpha", "1e5000"), "bad --alpha"),
        (("core", example1_path, "--alpha", "4", "--rates", "1e5000,0,0"), "bad --rates"),
    ):
        code, report, _, err = cli(*argv)
        assert (code, report) == (1, None), argv
        assert err.startswith("error:") and message in err, argv


def test_results_that_cannot_be_printed_exit_one(tmp_path):
    # Valid tables whose results cannot be printed: H = 1e400 overflows the
    # float `decimal` value, and R_CO over two 3000-digit denominators passes
    # the int/str digit limit.
    def table(name, h1, h2, h12):
        entries = [
            {"set": [], "H": "0"},
            {"set": ["1"], "H": h1},
            {"set": ["2"], "H": h2},
            {"set": ["1", "2"], "H": h12},
        ]
        path = tmp_path / name
        path.write_text(json.dumps({"type": "entropy", "users": ["1", "2"], "entries": entries}))
        return str(path)

    huge = table("huge.json", "1e400", "1e400", "2e400")
    big = 10**2999
    fine = table("fine.json", f"1/{big + 1}", f"1/{big + 3}", f"1/{big + 1}")
    for path in (huge, fine):
        assert cli("validate", path)[0] == 0
    for argv in (
        ("minrate", huge),
        ("core", huge, "--alpha", "1e400"),
        ("allocate", huge, "--alpha", "2e400", "--method", "shapley"),
        ("minrate", fine),
        # the sum-failure detail prints r(V) over both denominators
        ("core", fine, "--alpha", "1", "--rates", f"1/{big + 1},1/{big + 3}"),
    ):
        code, report, text, err = cli(*argv)
        assert (code, report, text) == (1, None, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_a_library_value_error_is_not_taken_for_an_unprintable_result(example1_path, monkeypatch):
    # only OverflowError means "cannot be printed"; any other ValueError out
    # of a command is a bug, and it surfaces as one
    def broken(args, model, out):
        raise ValueError("not a printing error")

    monkeypatch.setitem(omnirate.cli.COMMANDS, "minrate", broken)
    with pytest.raises(ValueError, match="not a printing error"):
        cli("minrate", example1_path)


def _entries_2(a, b):
    return [
        {"set": [], "H": "0"},
        {"set": [a], "H": "1"},
        {"set": [b], "H": "1"},
        {"set": [a, b], "H": "2"},
    ]


def _entropy_2(**fields):
    return {"type": "entropy", "users": ["1", "2"], "entries": _entries_2("1", "2"), **fields}


UNNAMEABLE = "cannot be named: ids must be nonempty, without commas or surrounding spaces"

# Every structural refusal of a model file, with the message it prints.
MALFORMED_MODELS = [
    ([1, 2], "model file must contain a JSON object"),
    ({"type": "packets", "unit": 5, "users": {"1": ["a"], "2": ["b"]}}, '"unit" must be a string'),
    ({"type": "packets"}, 'packets model needs a "users" object'),
    ({"type": "packets", "users": {"1": "a", "2": ["b"]}}, "packet list of user '1' must be a list of strings"),
    (_entropy_2(users="12"), 'entropy model needs a "users" list of strings'),
    ({"type": "entropy", "users": ["1", "2"]}, 'entropy model needs an "entries" list'),
    (_entropy_2(users=["1", "1"]), "duplicate user ids"),
    (_entropy_2(entries=[{"set": []}]), "bad entropy entry: {'set': []}"),
    (_entropy_2(entries=["x"]), "bad entropy entry: 'x'"),
    (_entropy_2(entries=[{"set": "1", "H": "1"}]), "bad subset in entry: {'set': '1', 'H': '1'}"),
    (_entropy_2(entries=[{"set": ["1", "9"], "H": "1"}]), "unknown user id '9' in entry"),
    (
        _entropy_2(entries=[{"set": ["1"], "H": "1"}, {"set": ["1"], "H": "2"}]),
        "duplicate entry for subset ['1']",
    ),
    ({"type": "graph", "users": {}}, "unknown model type 'graph' (expected \"packets\" or \"entropy\")"),
    ({"users": {"1": ["a"]}}, "unknown model type None (expected \"packets\" or \"entropy\")"),
    # ids that --order and CSV rows, which split on commas and strip the
    # parts, could not name
    ({"type": "packets", "users": {"": ["a"], "2": ["b"]}}, "user id '' " + UNNAMEABLE),
    ({"type": "packets", "users": {"a,b": ["a"], "2": ["b"]}}, "user id 'a,b' " + UNNAMEABLE),
    ({"type": "packets", "users": {" a": ["a"], "2": ["b"]}}, "user id ' a' " + UNNAMEABLE),
    (_entropy_2(users=["1", "2\t"], entries=_entries_2("1", "2\t")), "user id '2\\t' " + UNNAMEABLE),
    (_entropy_2(users=["1", ","], entries=_entries_2("1", ",")), "user id ',' " + UNNAMEABLE),
]


@pytest.mark.parametrize("obj, message", MALFORMED_MODELS)
def test_malformed_models_exit_one_with_their_message(tmp_path, obj, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "minrate"):
        assert cli(command, str(path)) == (1, None, "", f"error: {message}\n")


def test_model_unit_is_part_of_the_digest(tmp_path):
    digests = {}
    for name, obj in (
        ("plain", _entropy_2()),
        ("bits", _entropy_2(unit="bits")),
        ("packets", {"type": "packets", "unit": "packets", "users": {"1": ["a", "b"], "2": ["b"]}}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, report, _, _ = cli("validate", str(path))
        assert code == 0 and report["results"]["unit"] == obj.get("unit")
        digests[name] = report["model_digest"]
    assert digests["bits"] != digests["plain"]
    assert digests["bits"] == "sha256:5928d9f1dd132a470f0357667fc380e417251b0f2774242e183dfe2fff791bb2"
    assert digests["packets"] == "sha256:fca7d36da181f4d95208e999735bc758ab7be5d2e247ad4e767222c042611403"


def test_polyhedron_above_eight_users_reports_sampled_vertices(example1_path):
    # 9 users: the rows cover every subset, and the vertices are
    # greedy_vertices' sample, in its order, flagged as partial
    path = os.path.join(os.path.dirname(example1_path), "packets_n9.json")
    code, report, _, _ = cli("polyhedron", path, "--alpha", "4")
    assert code == 0
    res = report["results"]
    assert res["core_empty"] is False and res["partial_vertices"] is True
    model = load_model(path)
    game = Game(model, 4)
    trunc = dilworth_truncate(game)
    allocs, partial = greedy_vertices(trunc)
    assert partial
    assert res["vertices"] == [
        {"rational": list(map(format_rational, a.rates)), "decimal": list(map(float, a.rates))}
        for a in allocs
    ]

    def rows(values, den, first=0):
        return [
            (list(model.ids_from_mask(x)), format_rational(Fraction(v, den)))
            for x, v in enumerate(values)
            if x >= first
        ]

    dual, den = game.dual_ints()
    assert [(c["set"], c["upper_bound"]["rational"]) for c in res["constraints"]] == rows(dual, den, 1)
    for key, values in (("truncated_dual", trunc.table), ("convex_characteristic", flip(trunc.table))):
        assert [(t["set"], t["value"]["rational"]) for t in res[key]] == rows(values, trunc.den)


def test_refusals_exit_with_their_codes(example1_path):
    data_dir = os.path.dirname(example1_path)
    # a non-polymatroid table is refused before any solve
    code, report, text, err = cli("minrate", os.path.join(data_dir, "invalid_entropy_n4.json"))
    assert (code, report, text) == (2, None, "")
    assert err == (
        "error: entropy table is not a polymatroid (11 violation(s); "
        "first: H(empty)=1/2, expected 0)\n"
    )
    # integer enumeration below R_CO = 7/2 reports the empty core
    code, report, _, err = cli("allocate", example1_path, "--alpha", "3", "--method", "enumerate")
    assert (code, err) == (3, "")
    assert report["results"] == {
        "alpha": {"rational": "3", "decimal": 3.0},
        "method": "enumerate",
        "allocations": [],
        "count": 0,
        "core_empty": True,
        "r_co": {"rational": "7/2", "decimal": 3.5},
        "detail": "core is empty at alpha=3; minimum sum-rate is 7/2",
    }


# One command of each kind, run in a fresh interpreter per hash seed: a
# report that followed the iteration order of a set of strings would differ.
_HASH_SEED_SCRIPT = """
import sys
from omnirate.cli import run
for argv in (
    ["validate", "entropy_n6.json"],
    ["validate", "invalid_entropy_n4.json"],
    ["minrate", "packets_n8.json", "--mode", "integer"],
    ["minrate", "entropy_n6.json"],
    ["core", "entropy_n6.json", "--alpha", "117/4"],
    ["core", "example1.json", "--alpha", "4", "--rates", "4,0,0"],
    ["allocate", "packets_n9.json", "--alpha", "3", "--method", "greedy"],
    ["allocate", "example1.json", "--alpha", "5", "--method", "enumerate"],
    ["polyhedron", "example1.json", "--alpha", "4"],
):
    argv[1] = sys.argv[1] + "/" + argv[1]
    print(run(argv))
"""


def test_reports_do_not_depend_on_the_hash_seed(example1_path):
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, os.path.dirname(example1_path)],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            check=True,
        )
        outputs.append(re.sub(rb'"timing_ms": [^\n]*', b"", proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b'"command"') == 9
