"""Exact rational parsing shared by model files and the CLI."""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# CPython's default int/str conversion limit, for interpreters that set none
_DEFAULT_MAX_DIGITS = 4300

# Strings shorter than this may take the fast path of parse_pair: no
# int/str digit limit is lower (CPython refuses a nonzero limit below 640),
# so int() accepts both sides and the digit check below cannot refuse them.
_FAST_LEN = 640


def parse_pair(value: int | str) -> tuple[int, int]:
    """Convert a JSON/CLI number to its exact value as a reduced
    ``(numerator, denominator)`` pair, with a positive denominator.

    Accepts ints and strings of the form "p/q" or a decimal like "2.5"
    (converted exactly). Floats are rejected: binary floats would poison
    the exact equality tests the whole library is built on. So is a string
    whose exact value needs more digits than Python converts to and from
    text (``sys.get_int_max_str_digits()``, 4300 by default), checked
    before the Fraction is built: reports could not print it, and an
    exponent like "1e999999999" would build a huge int first.

    ASCII "p", "-p" and "p/q" strings are read with ``int()`` and ``gcd``;
    every other input goes through ``Fraction``'s own grammar.
    """
    if type(value) is str and value.isascii() and len(value) < _FAST_LEN:
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit():
                p, q = int(num), int(den)
                if q:
                    g = gcd(p, q)
                    return p // g, q // g
    x = _parse_fraction(value)
    return x.numerator, x.denominator


def parse_rational(value: int | str) -> Fraction:
    """:func:`parse_pair`'s value as a Fraction, so that CLI flags and model
    files share one grammar, one digit-limit refusal and one set of error
    messages."""
    return Fraction(*parse_pair(value))


def _parse_fraction(value: int | str) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} rejected; write it as a string like \"{value}\" or \"p/q\""
        )
    if isinstance(value, str):
        _check_digits(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise ValueError(f"cannot parse rational from {value!r}")


def _check_digits(text: str) -> None:
    # "p/q" needs no check: Fraction parses each side with int(), which
    # enforces the limit itself. A decimal's numerator and denominator have
    # at most (mantissa digits + |exponent| + 1) digits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_MAX_DIGITS
    mantissa, _, exponent = text.upper().partition("E")
    if "/" in mantissa:
        return
    try:
        shift = abs(int(exponent)) if exponent else 0
    except ValueError as exc:
        raise ValueError(f"cannot parse rational from {text[:40]!r}") from exc
    if sum(c.isdigit() for c in mantissa) + shift >= limit:
        raise ValueError(f"rational {text[:40]!r} has too many digits (limit {limit})")


def format_rational(x: Fraction | int) -> str:
    """Lowest-terms "p/q" string ("4" when the denominator is 1). An int is
    printed as it is, with no Fraction built. OverflowError past the int/str
    digit limit, as ``float()`` raises past the float range."""
    if type(x) not in (Fraction, int):
        x = Fraction(x)
    try:
        return str(x)
    except ValueError as exc:  # str() of an int refuses only past the digit limit
        raise OverflowError(str(exc)) from exc


def ratio_text(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for ints with ``den > 0``,
    with no Fraction built; OverflowError past the digit limit, too."""
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError as exc:
        raise OverflowError(str(exc)) from exc


def scale_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Pairs ``(p, q)``, q > 0, as ints over their least common denominator:
    ``(ints, den)`` with ``p / q == ints[k] / den`` for ``pairs[k]``."""
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def to_ints(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Rationals as ints over their least common denominator: ``(ints, den)``
    with ``values[k] == Fraction(ints[k], den)``. Ints count as over 1."""
    return scale_pairs([(v.numerator, v.denominator) for v in values])
