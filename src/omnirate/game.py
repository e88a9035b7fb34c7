"""The coalitional game on a source model: characteristic function, dual, and
membership tests for the rate polyhedra and the core."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .combinatorics import bits, subsets
from .models import SourceModel
from .rationals import format_rational


@dataclass(frozen=True)
class RateVector:
    """Per-user nonnegative rational rates, indexed like the model's users."""

    rates: tuple[Fraction, ...]

    def __post_init__(self):
        for i, r in enumerate(self.rates):
            if r < 0:
                raise ValueError(f"rate {i} is negative ({format_rational(r)})")

    @classmethod
    def of(cls, values: Iterable) -> "RateVector":
        return cls(tuple(Fraction(v) for v in values))

    def __getitem__(self, i: int) -> Fraction:
        return self.rates[i]

    def __len__(self) -> int:
        return len(self.rates)

    def __iter__(self):
        return iter(self.rates)

    def total(self) -> Fraction:
        return sum(self.rates, Fraction(0))

    def sum_over(self, mask: int) -> Fraction:
        return sum((self.rates[i] for i in bits(mask)), Fraction(0))

    def is_integral(self) -> bool:
        return all(r.denominator == 1 for r in self.rates)


class Game:
    """Game on user set V with sum-rate ``alpha``.

    The coalition value of a proper X is what V-minus-X is missing,
    H(Z_X | Z_{V\\X}); the grand coalition is worth alpha. The dual set
    function alpha - f(V\\X) gives the equivalent upper-bound form of the
    same core.
    """

    def __init__(self, model: SourceModel, alpha):
        alpha = Fraction(alpha)
        if alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {format_rational(alpha)}")
        self.model = model
        self.alpha = alpha
        self._h, self._h_den = model.entropy_table

    @property
    def full_mask(self) -> int:
        return self.model.full_mask

    def char_value(self, mask: int) -> Fraction:
        if mask < 0 or mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#b} is not a subset of the user set")
        if mask == self.full_mask:
            return self.alpha
        if mask == 0:
            return Fraction(0)
        h = self._h
        return Fraction(h[self.full_mask] - h[self.full_mask & ~mask], self._h_den)

    def dual_value(self, mask: int) -> Fraction:
        if mask < 0 or mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#b} is not a subset of the user set")
        return self.alpha - self.char_value(self.full_mask & ~mask)

    def dual_ints(self) -> tuple[list[int], int]:
        """The dual on every subset as ints over one denominator: f#(X) =
        d[X] / den, with f#(X) = alpha - H(V) + H(X) for nonempty X, f#(empty) = 0."""
        den = lcm(self._h_den, self.alpha.denominator)
        scale = den // self._h_den
        h_total = self._h[self.full_mask]
        dual = [int(self.alpha * den) - (h_total - h) * scale for h in self._h]
        dual[0] = 0
        return dual, den

    def dual_table(self) -> dict[int, Fraction]:
        dual, den = self.dual_ints()
        return {x: Fraction(v, den) for x, v in enumerate(dual)}


@dataclass(frozen=True)
class Decision:
    """Yes/no answer plus, on failure, the constraint that broke."""

    holds: bool
    kind: str | None = None  # "coalition" | "sum" | "fractional" | "upper"
    witness: int | None = None  # offending subset mask, or user index for "fractional"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


_OK = Decision(True)


def _subset_sums(r: RateVector, full_mask: int) -> list[Fraction]:
    sums = [Fraction(0)] * (full_mask + 1)
    for x in subsets(full_mask, nonempty=True):
        low = x & -x
        sums[x] = sums[x ^ low] + r[low.bit_length() - 1]
    return sums


def _check_arity(model: SourceModel, r: RateVector) -> None:
    if len(r) != model.n:
        raise ValueError(f"rate vector has {len(r)} entries for {model.n} users")


def satisfies_slepian_wolf(model: SourceModel, r: RateVector) -> Decision:
    """Do the rates cover every proper coalition's missing information?

    Checks r(X) >= H(Z_X | Z_{V\\X}) for all proper X; a failing X is returned
    as witness.
    """
    _check_arity(model, r)
    full = model.full_mask
    h_total = model.entropy(full)
    sums = _subset_sums(r, full)
    for x in subsets(full, nonempty=True, proper=True):
        need = h_total - model.entropy(full & ~x)
        if sums[x] < need:
            return Decision(
                False,
                "coalition",
                x,
                f"r(X)={format_rational(sums[x])} < {format_rational(need)} "
                f"for X={{{','.join(model.ids_from_mask(x))}}}",
            )
    return _OK


def in_core(game: Game, r: RateVector, integer_mode: bool = False) -> Decision:
    """Core membership: all coalition lower bounds hold and r(V) = alpha.

    The grand coalition enters as the exact sum equality only. With
    ``integer_mode`` every rate must also be an integer.
    """
    _check_arity(game.model, r)
    full = game.full_mask
    sums = _subset_sums(r, full)
    if sums[full] != game.alpha:
        return Decision(
            False,
            "sum",
            full,
            f"r(V)={format_rational(sums[full])} != alpha={format_rational(game.alpha)}",
        )
    if integer_mode:
        for i, x in enumerate(r):
            if x.denominator != 1:
                return Decision(False, "fractional", i, f"r_{game.model.users[i]}={format_rational(x)}")
    for x in subsets(full, nonempty=True, proper=True):
        bound = game.char_value(x)
        if sums[x] < bound:
            return Decision(
                False,
                "coalition",
                x,
                f"r(X)={format_rational(sums[x])} < f(X)={format_rational(bound)} "
                f"for X={{{','.join(game.model.ids_from_mask(x))}}}",
            )
    return _OK


def dual_membership(game: Game, r: RateVector) -> Decision:
    """Core membership via the dual upper-bound form r(X) <= f#(X).

    Must agree with :func:`in_core` whenever r(V) = alpha; exposed so that
    the duality can be checked directly.
    """
    _check_arity(game.model, r)
    full = game.full_mask
    sums = _subset_sums(r, full)
    if sums[full] != game.alpha:
        return Decision(
            False,
            "sum",
            full,
            f"r(V)={format_rational(sums[full])} != alpha={format_rational(game.alpha)}",
        )
    for x in subsets(full, nonempty=True, proper=True):
        bound = game.dual_value(x)
        if sums[x] > bound:
            return Decision(
                False,
                "upper",
                x,
                f"r(X)={format_rational(sums[x])} > f#(X)={format_rational(bound)} "
                f"for X={{{','.join(game.model.ids_from_mask(x))}}}",
            )
    return _OK
