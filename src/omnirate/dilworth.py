"""Dilworth truncation of the dual set function and the equivalent convex game.

Truncating the dual (subset-wise minimum over partition block sums) yields a
submodular function with the same upper base polyhedron whenever the sum-rate
is achievable; flipping it through the ground set gives a supermodular
characteristic function, i.e. a convex game with the same core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .combinatorics import partition_min_table, subsets
from .game import Game


@dataclass(frozen=True)
class TruncatedDual:
    """Full truncation table of the dual function."""

    alpha: Fraction
    ground: int
    values: Mapping[int, Fraction]

    def value(self, mask: int) -> Fraction:
        return self.values[mask]

    @property
    def core_nonempty(self) -> bool:
        # Truncation at the ground set is the partition minimum, so equality
        # with alpha is exactly the nonemptiness condition.
        return self.values[self.ground] == self.alpha


@dataclass(frozen=True)
class ConvexCharacteristic:
    """Characteristic function of the equivalent convex game."""

    alpha: Fraction
    ground: int
    values: Mapping[int, Fraction]

    def value(self, mask: int) -> Fraction:
        return self.values[mask]


def dilworth_truncate(game: Game) -> TruncatedDual:
    """Truncate the game's dual on every subset (one engine pass on its ints)."""
    dual, den = game.dual_ints()
    width = game.model.n + 1
    table = partition_min_table(game.full_mask, dual)
    return TruncatedDual(
        game.alpha, game.full_mask, {x: Fraction(v // width, den) for x, v in enumerate(table)}
    )


def convex_characteristic(trunc: TruncatedDual) -> ConvexCharacteristic:
    """Flip the truncated dual back into a characteristic function.

    value(X) = trunc(V) - trunc(V\\X); supermodular whenever the core is
    nonempty at this alpha.
    """
    total = trunc.values[trunc.ground]
    values = {
        x: total - trunc.values[trunc.ground & ~x] for x in subsets(trunc.ground)
    }
    return ConvexCharacteristic(trunc.alpha, trunc.ground, values)


@dataclass(frozen=True)
class ModularityCheck:
    holds: bool
    witness: tuple[int, int] | None = None  # violating pair (X, Y)

    def __bool__(self) -> bool:
        return self.holds


def check_submodular(
    values: Mapping[int, Fraction], ground: int, *, intersecting_only: bool = False
) -> ModularityCheck:
    """Exhaustive pair check of g(X)+g(Y) >= g(X|Y)+g(X&Y).

    Comparable pairs hold with equality and are skipped. With
    ``intersecting_only`` the check is restricted to pairs with X&Y != 0.
    """
    for x in subsets(ground, nonempty=True):
        for y in subsets(ground, nonempty=True):
            if y >= x or x & ~y == 0 or y & ~x == 0:
                continue
            if intersecting_only and x & y == 0:
                continue
            if values[x] + values[y] < values[x | y] + values[x & y]:
                return ModularityCheck(False, (y, x))
    return ModularityCheck(True)


def check_supermodular(values: Mapping[int, Fraction], ground: int) -> ModularityCheck:
    """Supermodular iff the negated table is submodular."""
    return check_submodular({x: -v for x, v in values.items()}, ground)


def greedy_marginals(
    values: Mapping[int, Fraction], order: Sequence[int]
) -> tuple[Fraction, ...]:
    """Marginal gains of ``values`` along the prefix chain of ``order``.

    rate[order[k]] = values(first k+1 users) - values(first k users); for a
    submodular table with values(V) = alpha this is a vertex of the core.
    """
    rates = [Fraction(0)] * len(order)
    prefix = 0
    prev = Fraction(0)
    for i in order:
        prefix |= 1 << i
        cur = values[prefix]
        rates[i] = cur - prev
        prev = cur
    return tuple(rates)
