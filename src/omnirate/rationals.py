"""Exact rational parsing shared by model files and the CLI."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(value: int | str) -> Fraction:
    """Convert a JSON/CLI number to an exact Fraction.

    Accepts ints and strings of the form "p/q" or a decimal like "2.5"
    (converted exactly). Floats are rejected: binary floats would poison
    the exact equality tests the whole library is built on.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} rejected; write it as a string like \"{value}\" or \"p/q\""
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise ValueError(f"cannot parse rational from {value!r}")


def format_rational(x: Fraction) -> str:
    """Lowest-terms "p/q" string ("4" when the denominator is 1)."""
    return str(x if isinstance(x, Fraction) else Fraction(x))
