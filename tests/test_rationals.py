"""The pair parser behind model files and CLI flags: its int fast path gives
the value, or the ValueError text, of the Fraction rules it stands in for."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnirate import parse_rational
from omnirate import rationals
from omnirate.rationals import parse_pair


def outcome(parse, value):
    try:
        x = parse(value)
    except ValueError as exc:
        return ("error", str(exc))
    return tuple(x) if type(x) is tuple else (x.numerator, x.denominator)


def check_agrees(value):
    # _parse_fraction holds the Fraction(str) rules parse_rational had
    # before the fast path
    expected = outcome(rationals._parse_fraction, value)
    assert outcome(parse_pair, value) == expected
    assert outcome(parse_rational, value) == expected
    if expected[0] != "error":
        p, q = expected
        assert q > 0 and Fraction(p, q) == (Fraction(value.strip()) if type(value) is str else value)


_texts = st.one_of(
    # the fast path's shapes, with zero denominators and leading zeros
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "-", "+", " "]),
        st.integers(min_value=0, max_value=10**30),
        st.sampled_from(["", "/0", "/1", "/4", "/00", "/12", "/-3", "/ 2", "/1_0", " "]),
    ),
    # Unicode digits, whitespace, signs, underscores, exponents, decimals
    st.text(alphabet="0123456789-+/._eE \t\n١٢²１", max_size=12),
)
_long = st.sampled_from(
    [
        "1" * 639,
        "-" + "9" * 638,
        "-" + "9" * 639,
        "1" * 4299,
        "1" * 4300,
        "1/" + "1" * 4299,
        "1/" + "1" * 4301,
        "1" * 4301 + "/1",
        "1e4299",
        "1e4300",
        "0." + "1" * 5000,
    ]
)
_values = st.one_of(
    _texts,
    _long,
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
)


@settings(max_examples=600, deadline=None)
@given(_values)
def test_pair_parser_agrees_with_the_fraction_rules(value):
    check_agrees(value)


def test_pair_parser_fixed_cases():
    for value in ("0", "-0", "007", "10/4", "-10/4", "0/5", "1/0", "١٢", "²", " 3 ", "+3", "1_000", "2.50", "1e1"):
        check_agrees(value)
    assert parse_pair("10/4") == (5, 2)
    assert parse_pair("-0") == (0, 1)
    assert parse_pair("١٢") == (12, 1)
    for value in ("1/0", "²", True, 2.5, None):
        with pytest.raises(ValueError):
            parse_pair(value)


def test_pair_parser_at_the_smallest_digit_limit():
    # 640 is the smallest nonzero limit CPython allows: strings of 640
    # characters or more skip the fast path, so its int() never refuses
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for value in ("1" * 639, "1" * 640, "-" + "1" * 639, "1/" + "1" * 638, "1/" + "1" * 641, "1" * 641):
            check_agrees(value)
        assert outcome(parse_pair, "1" * 640)[0] == "error"
    finally:
        sys.set_int_max_str_digits(before)


def test_text_past_the_digit_limit_is_an_overflow():
    # a number too large to print raises OverflowError, as float() of it
    # does, so one exception type means "cannot be printed"
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        big = 10**640
        for text in (
            lambda: rationals.ratio_text(big, 1),
            lambda: rationals.ratio_text(1, big + 1),
            lambda: rationals.format_rational(big),
            lambda: rationals.format_rational(Fraction(1, big + 1)),
        ):
            with pytest.raises(OverflowError, match="limit"):
                text()
        assert rationals.ratio_text(big // 10, 3) == "1" + "0" * 639 + "/3"
    finally:
        sys.set_int_max_str_digits(before)
