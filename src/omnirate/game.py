"""The coalitional game on a source model: characteristic function, dual, and
membership tests for the core in both forms, on one integer subset loop."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from operator import gt, indexOf, lt
from typing import Iterable

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
        self.model._check_mask(mask)
        if mask == self.full_mask:
            return self.alpha
        if mask == 0:
            return Fraction(0)
        h = self._h
        return Fraction(h[self.full_mask] - h[self.full_mask & ~mask], self._h_den)

    def dual_value(self, mask: int) -> Fraction:
        self.model._check_mask(mask)
        return self.alpha - self.char_value(self.full_mask & ~mask)

    def dual_ints(self) -> tuple[list[int], int]:
        """The dual on every subset as ints over one denominator: f#(X) =
        d[X] / den, with f#(X) = alpha - H(V) + H(X) for nonempty X, f#(empty) = 0."""
        den = lcm(self._h_den, self.alpha.denominator)
        scale = den // self._h_den
        # alpha - H(V) + H(X), with alpha - H(V) scaled once
        base = self.alpha.numerator * (den // self.alpha.denominator) - self._h[-1] * scale
        dual = [base + h * scale for h in self._h]
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
    bound: list[int],
    den: int,
    label: str,
    alpha: Fraction,
    upper: bool = False,
) -> Decision:
    """The membership loop of the two checks below: arity, then r(V) = alpha,
    then the first proper X in ascending mask order with r(X) < bound[X] / den
    (r(X) > bound[X] / den if ``upper``); ``label`` names the bound. Runs on
    ints: the rates and the bound are scaled to one denominator once, and
    only a failure's detail is printed from Fractions.
    """
    if len(r) != model.n:
        raise ValueError(f"rate vector has {len(r)} entries for {model.n} users")
    full = model.full_mask
    unit = lcm(den, *(x.denominator for x in r))
    # sums[X] = r(X) * unit: the masks with user i are those without it, plus i
    sums = [0]
    for x in r:
        step = x.numerator * (unit // x.denominator)
        sums += [s + step for s in sums]
    if sums[full] * alpha.denominator != alpha.numerator * unit:
        return Decision(
            False,
            "sum",
            full,
            f"r(V)={format_rational(Fraction(sums[full], unit))} != alpha={format_rational(alpha)}",
        )
    scale = unit // den
    if scale != 1:
        bound = [b * scale for b in bound]
    fails = map(gt if upper else lt, islice(sums, 1, full), islice(bound, 1, full))
    try:
        x = indexOf(fails, True) + 1
    except ValueError:
        return _OK
    return Decision(
        False,
        "upper" if upper else "coalition",
        x,
        f"r(X)={format_rational(Fraction(sums[x], unit))} {'>' if upper else '<'} "
        f"{label}{format_rational(Fraction(bound[x], unit))} "
        f"for X={{{','.join(model.ids_from_mask(x))}}}",
    )


def in_core(game: Game, r: RateVector, integer_mode: bool = False) -> Decision:
    """Core membership: r(V) = alpha and r(X) >= f(X) for every proper X.

    With ``integer_mode`` every rate must also be an integer. The failure
    reported is the first of: sum, fractional rate, coalition.
    """
    h, den = game.model.entropy_table
    # f(X) = H(V) - H(V minus X) for proper X; h[-1] is H(V)
    bound = [h[-1] - v for v in reversed(h)]
    decision = _check_coalitions(game.model, r, bound, den, "f(X)=", game.alpha)
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
    dual, den = game.dual_ints()
    return _check_coalitions(game.model, r, dual, den, "f#(X)=", game.alpha, upper=True)
