"""Input fuzzing: model dicts, model file bytes and command lines.

A bad input must end in a refusal the caller can act on. The library may
raise only ModelFormatError or InvalidModelError, and ``cli.run`` returns an
exit code in 0..4 without printing a traceback.
"""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnirate import (
    InvalidModelError,
    ModelFormatError,
    load_model,
    model_digest,
    model_from_dict,
    validate_polymatroid,
)
from omnirate.cli import run

from oracles import canonical_digest

DATA = os.path.join(os.path.dirname(__file__), "data")

# ids a model may name (some that the digest must escape), ids that cannot
# be named, and ids that are not strings
IDS = ["1", "2", "3", "4", "é", 'q"x', "b\\s", "\x07", "𝄞", "", "a,b", " 5"]
NOT_STRINGS = [1, None, True, 2.5, ["1"], {"1": "a"}]
# entropy values: exact rationals, negatives, floats, and text the parser refuses
H_VALUES = [
    "0", "1", "2", "5/2", "2.5", "-1", "1/3", 3, 0, 2.5, True, None, [], {},
    "1/0", "abc", "", " 1", "1e400", "1e999999", "0x10", "nan", "inf", "1_0", "9" * 5000,
]
UNITS = [None, None, "bits", "", 3, ["bits"]]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def often(draw) -> bool:
    # four times in five: hypothesis draws the bounds of a range more often
    # than its inside, so sample from a list instead
    return draw(st.sampled_from([True, True, True, True, False]))


@st.composite
def entropy_bodies(draw) -> dict:
    """An entropy model body over at most 4 users: a complete table, often
    of |X| (a polymatroid), then up to two damages to its entries, and
    sometimes bad user ids or a bad unit."""
    n = draw(st.integers(min_value=2, max_value=4))
    users = [str(i + 1) for i in range(n)]
    if not often(draw):
        users = draw(st.lists(st.sampled_from(IDS + NOT_STRINGS), max_size=4))
    named = [u for u in users if isinstance(u, str)]
    cardinality = draw(st.booleans())
    entries: list = []
    for mask in range(1 << len(named)):
        ids = [u for i, u in enumerate(named) if mask >> i & 1]
        h = str(len(ids)) if cardinality else draw(st.sampled_from(["0", "1", "2", "5/2", "1/3", 3]))
        entries.append({"set": ids, "H": h})
    damages = {
        "H": st.sampled_from(H_VALUES),
        "set": st.one_of(st.lists(st.sampled_from(IDS + NOT_STRINGS), max_size=3), json_values),
        "drop": st.none(),
        "add": st.sampled_from(NOT_STRINGS + ["x", {"set": []}, {"H": "1"}]),
    }
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        kind = draw(st.sampled_from(sorted(damages)))
        index, value = draw(st.integers(0, len(entries))), draw(damages[kind])
        if kind == "add":
            entries.insert(index, value)
        elif index < len(entries):
            if kind == "drop":
                del entries[index]
            elif isinstance(entries[index], dict):
                entries[index][kind] = value
    body = {"type": "entropy", "users": users, "entries": entries}
    unit = draw(st.sampled_from(UNITS))
    if unit is not None:
        body["unit"] = unit
    return body


@st.composite
def packet_bodies(draw) -> dict:
    packets = st.lists(st.sampled_from(["a", "b", "c", "d", 1, None]), max_size=4)
    users = draw(st.dictionaries(st.sampled_from(IDS), st.one_of(packets, json_values), max_size=4))
    body = {"type": draw(st.sampled_from(["packets", "entropy", "other"])), "users": users}
    unit = draw(st.sampled_from(UNITS))
    if unit is not None:
        body["unit"] = unit
    return body


# entropy bodies twice as often as the others: they reach the most checks
model_bodies = st.one_of(entropy_bodies(), entropy_bodies(), packet_bodies(), json_values)


@settings(max_examples=300, deadline=None)
@given(model_bodies)
def test_model_from_dict_refuses_only_with_format_errors(obj):
    try:
        model = model_from_dict(obj)
    except ModelFormatError:
        return
    # whatever it builds can be validated and digested
    validate_polymatroid(model)
    assert model_digest(model) == canonical_digest(model)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "model.json")


def _damaged(text: str, cut: int, junk: bytes) -> bytes:
    data = text.encode("utf-8")
    cut %= len(data) + 1
    return data[:cut] + junk + data[cut:]


model_bytes = st.one_of(
    st.binary(max_size=200),
    st.builds(json.dumps, model_bodies).map(lambda text: text.encode("utf-8")),
    st.builds(_damaged, st.builds(json.dumps, model_bodies), st.integers(0, 400), st.binary(max_size=4)),
)


@settings(max_examples=200, deadline=None)
@given(model_bytes)
def test_load_model_refuses_only_with_model_errors(model_file, data):
    with open(model_file, "wb") as fh:
        fh.write(data)
    try:
        load_model(model_file)
    except (ModelFormatError, InvalidModelError):
        pass


# Models of at most 4 users, so that enumerate, greedy and polyhedron stay
# small, then two golden reports that are not models and a missing path.
CLI_PATHS = [
    os.path.join(DATA, name)
    for name in (
        "example1.json",
        "identical_users.json",
        "invalid_entropy_n4.json",
        "noncanonical_entropy_n3.json",
        os.path.join("golden", "validate_entropy_n6.json"),
        os.path.join("golden", "allocate_enumerate_alpha4.csv"),
        "missing.json",
    )
]
# each option's well-formed values, then its malformed ones
OPTION_VALUES = {
    "--alpha": (["0", "3", "7/2", "4", "5", "2.5"], ["", "-1", "x", "1/0", "nan", "1e999999", "4,"]),
    "--rates": (["2,1,1", "7/2,0,0", "1,1,1,1", "1,1,1"], ["", "1,1", "a,b,c", "1/0,1,1", ",,", "-1,5,0"]),
    "--order": (["1,2,3", "3,2,1", "1,2,3,4", " 1, 2,3"], ["", "1,1,2", "x,y,z"]),
    "--method": (["shapley", "greedy", "enumerate"], ["bogus", ""]),
    "--mode": (["asymptotic", "integer"], ["fast"]),
    "--format": (["json", "csv"], ["xml"]),
}
COMMAND_OPTIONS = {
    "validate": ["--format"],
    "minrate": ["--format", "--mode"],
    "core": ["--format", "--alpha", "--rates", "--integer"],
    "allocate": ["--format", "--alpha", "--method", "--order"],
    "polyhedron": ["--format", "--alpha"],
}


@st.composite
def command_lines(draw) -> list[str]:
    """Mostly the options a command takes, each usually well formed; now
    and then no model path, a path that is not a model file, or another
    command's option."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if often(draw):
        argv.append(draw(st.sampled_from(CLI_PATHS[:4] if often(draw) else CLI_PATHS[4:])))
    flags = [f for f in COMMAND_OPTIONS[command] if often(draw)]
    if not often(draw):
        flags.append(draw(st.sampled_from(sorted(OPTION_VALUES) + ["--integer"])))
    for flag in flags:
        argv.append(flag)
        if flag != "--integer":
            good, bad = OPTION_VALUES[flag]
            argv.append(draw(st.sampled_from(good if often(draw) else bad)))
    return argv


@settings(max_examples=250, deadline=None)
@given(command_lines())
def test_cli_exits_with_a_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    assert code in range(5), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
