"""The coalitional game on a source model: characteristic function, dual, and
membership tests for the rate polyhedra and the core, all on one subset loop."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

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


def _check_coalitions(
    model: SourceModel,
    r: RateVector,
    bound: Callable[[int], Fraction],
    label: str,
    alpha: Fraction | None = None,
    upper: bool = False,
) -> Decision:
    """The membership loop of the three checks below: arity, then r(V) = alpha
    if ``alpha`` is given, then the first proper X in ascending mask order with
    r(X) < bound(X) (r(X) > bound(X) if ``upper``); ``label`` names the bound.
    """
    if len(r) != model.n:
        raise ValueError(f"rate vector has {len(r)} entries for {model.n} users")
    full = model.full_mask
    sums = [Fraction(0)] * (full + 1)
    for x in subsets(full, nonempty=True):
        low = x & -x
        sums[x] = sums[x ^ low] + r[low.bit_length() - 1]
    if alpha is not None and sums[full] != alpha:
        return Decision(
            False,
            "sum",
            full,
            f"r(V)={format_rational(sums[full])} != alpha={format_rational(alpha)}",
        )
    for x in subsets(full, nonempty=True, proper=True):
        b = bound(x)
        if sums[x] > b if upper else sums[x] < b:
            return Decision(
                False,
                "upper" if upper else "coalition",
                x,
                f"r(X)={format_rational(sums[x])} {'>' if upper else '<'} "
                f"{label}{format_rational(b)} for X={{{','.join(model.ids_from_mask(x))}}}",
            )
    return _OK


def satisfies_slepian_wolf(model: SourceModel, r: RateVector) -> Decision:
    """Do the rates cover every proper coalition's missing information?

    Checks r(X) >= H(Z_X | Z_{V\\X}) for all proper X; a failing X is returned
    as witness.
    """
    full = model.full_mask
    h_total = model.entropy(full)
    return _check_coalitions(model, r, lambda x: h_total - model.entropy(full & ~x), "")


def in_core(game: Game, r: RateVector, integer_mode: bool = False) -> Decision:
    """Core membership: r(V) = alpha and r(X) >= f(X) for every proper X.

    With ``integer_mode`` every rate must also be an integer. The failure
    reported is the first of: sum, fractional rate, coalition.
    """
    decision = _check_coalitions(game.model, r, game.char_value, "f(X)=", game.alpha)
    if integer_mode and decision.kind != "sum":
        for i, x in enumerate(r):
            if x.denominator != 1:
                return Decision(False, "fractional", i, f"r_{game.model.users[i]}={format_rational(x)}")
    return decision


def dual_membership(game: Game, r: RateVector) -> Decision:
    """Core membership via the dual upper-bound form r(X) <= f#(X).

    The same polyhedron as :func:`in_core` without ``integer_mode``, so the
    two agree on every vector; exposed so that duality can be checked directly.
    """
    return _check_coalitions(game.model, r, game.dual_value, "f#(X)=", game.alpha, upper=True)
