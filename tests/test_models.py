import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnirate import rationals
from omnirate import (
    EntropyTable,
    InvalidModelError,
    ModelFormatError,
    PacketModel,
    load_model,
    model_digest,
    model_from_dict,
    parse_rational,
    subsets,
    validate_polymatroid,
)
from omnirate.combinatorics import halves

from oracles import (
    canonical_digest,
    conditional_entropy,
    elementary_violations,
    fraction_scan_violations,
    random_entropy_table,
    random_packet_model,
)


def table_of(model) -> dict:
    return {x: model.entropy(x) for x in subsets(model.full_mask)}


def test_example_entropies(example1):
    assert example1.entropy(example1.mask_from_ids(["1"])) == 5
    assert example1.entropy(example1.mask_from_ids(["1", "2", "3"])) == 6
    assert example1.entropy(0) == 0
    assert example1.entropy(example1.mask_from_ids(["2", "3"])) == 5


def test_example_conditional_entropies(example1):
    m = example1
    assert conditional_entropy(m, m.mask_from_ids(["1", "2"]), m.mask_from_ids(["3"])) == 3
    assert conditional_entropy(m, m.mask_from_ids(["2"]), m.mask_from_ids(["1", "3"])) == 0
    assert conditional_entropy(m, 0, m.mask_from_ids(["2"])) == 0


def test_entropy_rejects_unknown_users_and_bad_masks(example1):
    with pytest.raises(ModelFormatError):
        example1.mask_from_ids(["nope"])
    table = EntropyTable(["1", "2"], {0: 0, 1: 1, 2: 1, 3: 2})
    for model in (example1, table):
        with pytest.raises(ValueError, match="is not a subset of the user set"):
            model.entropy(1 << model.n)


def test_single_user_model_rejected():
    with pytest.raises(ModelFormatError):
        PacketModel({"1": ["a"]})


def test_duplicate_users_rejected():
    with pytest.raises(ModelFormatError):
        model_from_dict(
            {"type": "entropy", "users": ["1", "1"], "entries": []}
        )
    # the constructors check the ids themselves, whatever built their input
    with pytest.raises(ModelFormatError, match="duplicate user ids"):
        EntropyTable(["1", "1"], {0: 0, 1: 1, 2: 1, 3: 2})


@pytest.mark.parametrize("bad", ["", "a,b", ",", " a", "a ", "a\n"])
def test_user_ids_that_cannot_be_named_rejected(bad):
    # --order and CSV rows split ids on commas, and --order strips each part
    for build in (
        lambda: PacketModel({bad: ["a"], "2": ["b"]}),
        lambda: EntropyTable([bad, "2"], {0: 0, 1: 1, 2: 1, 3: 2}),
    ):
        with pytest.raises(ModelFormatError, match=re.escape(f"user id {bad!r} cannot be named")):
            build()
    assert PacketModel({"a b": ["a"], "2": ["b"]}).users == ("a b", "2")


def test_example_table_is_valid_polymatroid(example1):
    assert validate_polymatroid(example1).ok


def test_entropy_table_roundtrip(example1):
    table = EntropyTable(example1.users, table_of(example1))
    assert table_of(table) == table_of(example1)
    assert validate_polymatroid(table).ok


def test_report_is_true_exactly_when_valid(example1):
    assert bool(validate_polymatroid(example1)) is True
    vals = table_of(example1)
    vals[0] = Fraction(1)
    assert bool(validate_polymatroid(EntropyTable(example1.users, vals))) is False


def test_normalization_violation_detected(example1):
    vals = table_of(example1)
    vals[0] = Fraction(1)
    report = validate_polymatroid(EntropyTable(example1.users, vals))
    assert not report.ok
    assert any(v.kind == "normalization" for v in report.violations)


def test_submodularity_violation_witnessed():
    vals = {0: Fraction(0), 0b01: Fraction(1), 0b10: Fraction(1), 0b11: Fraction(3)}
    report = validate_polymatroid(EntropyTable(["1", "2"], vals))
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "submodularity" in kinds
    witness = next(v for v in report.violations if v.kind == "submodularity")
    assert set(witness.sets) == {0b01, 0b10}


def test_monotonicity_violation_witnessed():
    vals = {0: Fraction(0), 0b01: Fraction(2), 0b10: Fraction(1), 0b11: Fraction(1)}
    report = validate_polymatroid(EntropyTable(["1", "2"], vals))
    assert any(v.kind == "monotonicity" for v in report.violations)


def test_missing_entries_are_a_format_error():
    with pytest.raises(ModelFormatError, match="missing"):
        EntropyTable(["1", "2"], {0: Fraction(0), 0b11: Fraction(2)})


def test_entries_outside_the_user_set_are_a_format_error():
    vals = {0: Fraction(0), 0b01: Fraction(1), 0b10: Fraction(1), 0b11: Fraction(2)}
    for extra in ({0b100: Fraction(1)}, {-1: Fraction(1)}, {0b100: Fraction(1), 0b111: Fraction(3)}):
        with pytest.raises(ModelFormatError, match=f"has {len(extra)} entries outside the user set"):
            EntropyTable(["1", "2"], {**vals, **extra})


def test_entropy_table_holds_one_integer_table():
    vals = {0: Fraction(0), 0b01: Fraction(1, 2), 0b10: Fraction(1, 3), 0b11: Fraction(5, 6)}
    table = EntropyTable(["1", "2"], vals)
    assert table.entropy_table == ([0, 3, 2, 5], 6)
    assert all(table.entropy(m) == v and type(table.entropy(m)) is Fraction for m, v in vals.items())
    # other rationals are converted
    table = EntropyTable(["1", "2"], {0: 0, 0b01: 1, 0b10: 1, 0b11: 2})
    assert table.entropy_table == ([0, 1, 1, 2], 1)
    assert all(type(table.entropy(m)) is Fraction for m in range(4))
    table = EntropyTable(["1", "2"], {0: 0, 0b01: 0.5, 0b10: "1/4", 0b11: Fraction(3, 4)})
    assert table.entropy_table == ([0, 2, 1, 3], 4)
    # the file path passes reduced pairs, which build the same table
    pairs = {0: (0, 1), 0b01: (1, 2), 0b10: (1, 3), 0b11: (5, 6)}
    assert EntropyTable(["1", "2"], pairs).entropy_table == ([0, 3, 2, 5], 6)


def test_missing_subsets_are_counted_without_scanning_every_mask():
    # 40 users: 2^40 masks, of which the file gives three
    users = [str(i) for i in range(40)]
    with pytest.raises(ModelFormatError, match=r"missing 1099511627773 subset\(s\), e.g. \{0,1\}, \{2\}"):
        EntropyTable(users, {0: (0, 1), 1: (1, 1), 2: (1, 1)})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_packet_models_are_polymatroids(seed):
    model = random_packet_model(random.Random(seed))
    assert validate_polymatroid(model).ok


@st.composite
def perturbed_tables(draw, min_users: int, max_users: int) -> EntropyTable:
    """A weighted-coverage polymatroid on min_users..max_users users with up
    to three entries moved by a step or two: some stay valid, others lose
    normalization, monotonicity or submodularity, often by a single step."""
    n = draw(st.integers(min_value=min_users, max_value=max_users))
    weights = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
    held = draw(st.lists(st.integers(0, (1 << len(weights)) - 1), min_size=n, max_size=n))
    values = {}
    for mask in range(1 << n):
        covered = 0
        for i in range(n):
            if mask >> i & 1:
                covered |= held[i]
        values[mask] = sum(w for k, w in enumerate(weights) if covered >> k & 1)
    moves = st.tuples(st.integers(0, (1 << n) - 1), st.integers(min_value=-2, max_value=2))
    for mask, step in draw(st.lists(moves, max_size=3)):
        values[mask] += step
    den = draw(st.sampled_from((1, 2, 3)))
    return EntropyTable([str(i + 1) for i in range(n)], {m: Fraction(v, den) for m, v in values.items()})


@settings(max_examples=300, deadline=None)
@given(perturbed_tables(2, 6))
def test_elementary_check_agrees_with_full_scan(model):
    # the report is the elementary certificate, entry for entry and byte for
    # byte, and it passes or fails with the full Fraction pair scan
    full = fraction_scan_violations(model)
    report = validate_polymatroid(model)
    assert report == elementary_violations(model, full)
    assert report.ok == full.ok


@settings(max_examples=30, deadline=None)
@given(perturbed_tables(6, 8))
def test_elementary_check_agrees_with_full_scan_up_to_8_users(model):
    # the check slices its table as blocks or as strided runs, whichever
    # takes fewer slices; 6..8 users mix the two ways on every level (the
    # full scan is O(4^n), hence fewer runs)
    full = fraction_scan_violations(model)
    report = validate_polymatroid(model)
    assert report == elementary_violations(model, full)
    assert report.ok == full.ok


def test_halves_are_in_mask_order():
    # both ways of slicing give each half as a list indexed by its mask with
    # bit k dropped, so a bit's place never depends on which way was taken
    for m in range(1, 9):
        values = list(range(100, 100 + (1 << m)))
        for k in range(m):
            low = (1 << k) - 1
            expected = [
                [values[(x & ~low) << 1 | bit << k | (x & low)] for x in range(1 << (m - 1))]
                for bit in (0, 1)
            ]
            off, on = halves(values, k)
            assert type(off) is list and type(on) is list, (m, k)
            assert [off, on] == expected, (m, k)


@settings(max_examples=300, deadline=None)
@given(perturbed_tables(2, 6))
def test_scan_matches_the_fraction_scan(model):
    # the report against the Fraction scan, without the oracle's cut: its
    # normalization and monotonicity entries are the scan's, and its pairs
    # are the scan's in the same order with the same detail strings
    full = fraction_scan_violations(model).violations
    report = validate_polymatroid(model).violations
    assert [v for v in report if v.kind != "submodularity"] == [
        v for v in full if v.kind != "submodularity"
    ]
    rest = iter(full)
    assert all(any(v == w for w in rest) for v in report)
    assert (not report) == (not full)


def test_scan_matches_the_fraction_scan_on_every_kind():
    # a fractional table with H(empty) != 0, two failing steps and a
    # failing incomparable pair
    h = [Fraction(1, 2), 2, Fraction(3, 2), 1, 1, 2, Fraction(5, 2), 4]
    model = EntropyTable(["1", "2", "3"], dict(enumerate(h)))
    report = validate_polymatroid(model)
    assert {v.kind for v in report.violations} == {"normalization", "monotonicity", "submodularity"}
    assert report == elementary_violations(model)
    # a fractional 10-user table with three entries moved. Steps fail for
    # user indices 2, 7 and 8, and pairs for (0, 2) up to (7, 8), so both
    # sides of halves' switch list failures: strided slices up to bit 4,
    # blocks above it. The Fraction scan takes 1-2 s at 10 users.
    base = random_entropy_table(random.Random(10), 10, 24)
    h, den = base.entropy_table
    values = {x: Fraction(v, den) for x, v in enumerate(h)}
    values[0b0000001110] -= Fraction(1, 3)
    values[0b0101000000] -= Fraction(1, 3)
    values[0b1000100001] += Fraction(1, 2)
    model = EntropyTable(base.users, values)
    report = validate_polymatroid(model)
    steps = [v.sets for v in report.violations if v.kind == "monotonicity"]
    assert {(y ^ x).bit_length() - 1 for x, y in steps} == {2, 7, 8}
    pairs = {
        tuple(sorted(((a & ~b).bit_length() - 1, (b & ~a).bit_length() - 1)))
        for v in report.violations
        if v.kind == "submodularity"
        for a, b in [v.sets]
    }
    assert {(0, 2), (2, 9), (7, 8)} <= pairs
    assert report == elementary_violations(model)


def test_report_leaves_out_pairs_that_are_not_elementary():
    # H(X) = |X| with H(V) raised by 1: every incomparable pair fails, but
    # the report keeps only the pairs of two-user sets; a user and the
    # other two differ in three users
    h = [x.bit_count() for x in range(8)]
    h[0b111] += 1
    model = EntropyTable(["1", "2", "3"], dict(enumerate(h)))
    full = fraction_scan_violations(model).violations
    report = validate_polymatroid(model)
    one_and_two = [(0b100, 0b011), (0b101, 0b010), (0b110, 0b001)]
    assert [v.sets for v in report.violations] == [(0b101, 0b011), (0b110, 0b011), (0b110, 0b101)]
    assert set(one_and_two) <= {v.sets for v in full}
    assert report.violations == tuple(v for v in full if v.sets not in one_and_two)


def test_monotone_and_conditional_nonnegative(example1):
    rng = random.Random(11)
    for _ in range(25):
        model = random_packet_model(rng)
        for x in subsets(model.full_mask):
            for y in subsets(model.full_mask):
                assert conditional_entropy(model, x, y) >= 0
                if x & ~y == 0:
                    assert model.entropy(x) <= model.entropy(y)


def test_model_file_loading(example1_path, example1, tmp_path):
    model = load_model(example1_path)
    assert model.users == ("1", "2", "3")
    assert table_of(model) == table_of(example1)
    assert model_digest(model) == model_digest(example1)


def test_entropy_file_loading(tmp_path, example1):
    entries = [
        {"set": list(example1.ids_from_mask(x)), "H": str(example1.entropy(x))}
        for x in subsets(example1.full_mask)
    ]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"type": "entropy", "users": ["1", "2", "3"], "entries": entries}))
    model = load_model(str(path))
    assert table_of(model) == table_of(example1)


def test_entropy_file_accepts_decimal_strings_and_fractions(tmp_path):
    obj = {
        "type": "entropy",
        "users": ["1", "2"],
        "entries": [
            {"set": [], "H": "0"},
            {"set": ["1"], "H": "2.5"},
            {"set": ["2"], "H": "3/2"},
            {"set": ["1", "2"], "H": 3},
        ],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    model = load_model(str(path))
    assert model.entropy(0b01) == Fraction(5, 2)
    assert model.entropy(0b10) == Fraction(3, 2)


def test_entropy_file_rejects_floats(tmp_path):
    obj = {
        "type": "entropy",
        "users": ["1", "2"],
        "entries": [
            {"set": [], "H": 0},
            {"set": ["1"], "H": 2.5},
            {"set": ["2"], "H": 1},
            {"set": ["1", "2"], "H": 3},
        ],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ModelFormatError, match="float"):
        load_model(str(path))


def test_invalid_table_rejected_at_load_unless_disabled(tmp_path):
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
    with pytest.raises(InvalidModelError):
        load_model(str(path))
    model = load_model(str(path), validate=False)
    assert not validate_polymatroid(model).ok


def test_malformed_json_and_missing_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(str(path))
    with pytest.raises(ModelFormatError):
        load_model(str(tmp_path / "nope.json"))


def test_duplicate_json_keys_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"type": "packets", "users": {"1": ["a"], "1": ["b"], "2": ["c"]}}')
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(str(path))


def test_unit_field_is_carried(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(
        json.dumps(
            {"type": "packets", "unit": "packets", "users": {"1": ["a"], "2": ["b"]}}
        )
    )
    model = load_model(str(path))
    assert model.unit == "packets"


def test_is_integral(example1):
    assert example1.is_integral()
    vals = {0: Fraction(0), 0b01: Fraction(1, 2), 0b10: Fraction(1, 2), 0b11: Fraction(1, 2)}
    assert not EntropyTable(["1", "2"], vals).is_integral()


def test_digest_ignores_packet_order(example1):
    shuffled = PacketModel(
        {
            "1": ["e", "d", "c", "b", "a"],
            "2": ["f", "a", "b"],
            "3": ["f", "d", "c"],
        }
    )
    assert model_digest(shuffled) == model_digest(example1)


# characters JSON escapes (quote, backslash, control characters, and
# non-ASCII ones up to the astral planes), or any other
ESCAPED_CHARS = st.one_of(st.sampled_from(list('a1"\\\x00\x07\n\x7fé\u2028𝄞')), st.characters())
NAMEABLE_IDS = st.text(ESCAPED_CHARS, min_size=1, max_size=4).filter(
    lambda u: "," not in u and u == u.strip()
)
UNITS = st.one_of(st.none(), st.just('b"i\\t\ts\x01é𝄞'), st.text(ESCAPED_CHARS, max_size=4))


@st.composite
def digest_models(draw):
    """A packet model or an entropy table (any values) on 2..6 users with
    ids that need escapes, with or without a unit."""
    users = draw(st.lists(NAMEABLE_IDS, min_size=2, max_size=6, unique=True))
    unit = draw(UNITS)
    if draw(st.booleans()):
        packets = st.lists(st.text(ESCAPED_CHARS, max_size=3), max_size=4)
        return PacketModel({u: draw(packets) for u in users}, unit)
    size = 1 << len(users)
    pairs = draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 12)), min_size=size, max_size=size))
    return EntropyTable(users, {m: Fraction(p, q) for m, (p, q) in enumerate(pairs)}, unit)


@settings(max_examples=200, deadline=None)
@given(digest_models())
def test_digest_matches_the_canonical_dict(model):
    # the digest writes its JSON by hand; the oracle dumps one dict per entry
    assert model_digest(model) == canonical_digest(model)


@pytest.mark.parametrize("bad_id", [["1"], {"1": "2"}])
def test_non_string_ids_in_entry_set_are_a_format_error(bad_id):
    obj = {
        "type": "entropy",
        "users": ["1", "2"],
        "entries": [{"set": [bad_id], "H": "1"}],
    }
    with pytest.raises(ModelFormatError, match="bad subset"):
        model_from_dict(obj)


def test_entropy_table_matches_entropy(example1):
    rng = random.Random(79)
    tables = [example1, random_entropy_table(rng, 4), random_packet_model(rng, n_users=5)]
    for model in tables:
        h, den = model.entropy_table
        assert len(h) == model.full_mask + 1
        assert all(Fraction(h[x], den) == model.entropy(x) for x in subsets(model.full_mask))
        assert model.is_integral() == (den == 1)
    # a packet model's table against a direct count of the packets each subset holds
    for model in (example1, random_packet_model(rng, n_users=6, max_packets=12)):
        h, _ = model.entropy_table
        for x in subsets(model.full_mask):
            held = [model.packet_sets[i] for i in range(model.n) if x >> i & 1]
            assert h[x] == len(frozenset().union(*held))


def two_user_table(h12) -> dict:
    return {
        "type": "entropy",
        "users": ["1", "2"],
        "entries": [
            {"set": [], "H": "0"},
            {"set": ["1"], "H": "1"},
            {"set": ["2"], "H": "1"},
            {"set": ["1", "2"], "H": h12},
        ],
    }


@pytest.mark.parametrize(
    "text",
    ["1e5000", "1E-5000", "0." + "1" * 5000, "1" * 3000 + "." + "1" * 3000],
    ids=["1e5000", "1E-5000", "long-fraction-part", "long-mantissa"],
)
def test_rationals_beyond_the_digit_limit_are_rejected(text):
    # refused with one message, before any report tries to print the value
    with pytest.raises(ValueError, match="too many digits"):
        parse_rational(text)
    with pytest.raises(ModelFormatError, match="too many digits"):
        model_from_dict(two_user_table(text))
    assert parse_rational("1e100") == 10**100
    assert parse_rational("-2.5e-3") == Fraction(-1, 400)


def test_huge_exponent_is_rejected_before_any_fraction_is_built(monkeypatch):
    def forbidden(*args):
        raise AssertionError("Fraction built for an oversized rational")

    monkeypatch.setattr(rationals, "Fraction", forbidden)
    with pytest.raises(ValueError, match="too many digits"):
        parse_rational("1e999999999")
