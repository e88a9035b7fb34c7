"""Dilworth truncation of the dual set function and the equivalent convex game.

Truncating the dual (subset-wise minimum over partition block sums) yields a
submodular function with the same upper base polyhedron whenever the sum-rate
is achievable; flipping it through the ground set gives a supermodular
characteristic function, i.e. a convex game with the same core. The
truncation is one table of ints over one denominator, as the partition
engine computes it; the allocators read those ints. Its value at the ground
set is the dual's partition minimum, so the same pass decides and certifies
whether the core is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .combinatorics import Partition, flip, min_partition, partition_min_table, subsets
from .game import Game


@dataclass(frozen=True)
class TruncatedDual:
    """The game at alpha after one engine pass over its dual: the truncation
    on every subset, ``table[X] / den`` at mask X. ``dual`` (over the same
    ``den``) and ``encoded`` are the engine's input and output, kept for the
    certificate. True exactly when the core is nonempty."""

    alpha: Fraction
    ground: int
    table: Sequence[int]
    den: int
    dual: Sequence[int] = field(repr=False)
    encoded: Sequence[int] = field(repr=False)

    @cached_property
    def values(self) -> dict[int, Fraction]:
        """The same table as Fractions keyed by mask, built on first use."""
        return {x: Fraction(v, self.den) for x, v in enumerate(self.table)}

    @property
    def partition_min(self) -> Fraction:
        """The dual's minimum block sum over the partitions of the ground set."""
        return Fraction(self.table[self.ground], self.den)

    @property
    def core_nonempty(self) -> bool:
        # Truncation at the ground set is the partition minimum, so equality
        # with alpha is exactly the nonemptiness condition.
        return self.table[self.ground] * self.alpha.denominator == self.alpha.numerator * self.den

    def __bool__(self) -> bool:
        return self.core_nonempty

    @cached_property
    def certificate(self) -> Partition:
        """A partition attaining ``partition_min`` (fewer blocks, then the
        lexicographically smallest), rebuilt from the pass on first use."""
        return min_partition(self.ground, self.dual, self.encoded)


@dataclass(frozen=True)
class ConvexCharacteristic:
    """Characteristic function of the equivalent convex game."""

    alpha: Fraction
    ground: int
    values: Mapping[int, Fraction]


def dilworth_truncate(game: Game) -> TruncatedDual:
    """Truncate the game's dual on every subset: one engine pass over its
    ints, decoded (the engine keeps the block count in the low digits)."""
    dual, den = game.dual_ints()
    width = game.model.n + 1
    encoded = partition_min_table(game.full_mask, dual)
    table = [v // width for v in encoded]
    return TruncatedDual(game.alpha, game.full_mask, table, den, dual, encoded)


def convex_characteristic(trunc: TruncatedDual) -> ConvexCharacteristic:
    """Flip the truncated dual back into a characteristic function.

    value(X) = trunc(V) - trunc(V\\X); supermodular whenever the core is
    nonempty at this alpha.
    """
    flipped, den = flip(trunc.table), trunc.den
    values = {x: Fraction(flipped[x], den) for x in subsets(trunc.ground)}
    return ConvexCharacteristic(trunc.alpha, trunc.ground, values)


def greedy_marginals(
    values: Mapping[int, Fraction] | Sequence[int], order: Sequence[int]
) -> tuple[Fraction, ...] | tuple[int, ...]:
    """Marginal gains of ``values`` along the prefix chain of ``order``.

    rate[order[k]] = values(first k+1 users) - values(first k users); for a
    submodular table with values(V) = alpha this is a vertex of the core.
    ``values`` is indexed by mask: the rates are ints on an int table such
    as ``TruncatedDual.table`` (over its ``den``) and Fractions on the
    Fraction view ``TruncatedDual.values``.
    """
    rates = [0] * len(order)
    prefix = 0
    prev = 0
    for i in order:
        prefix |= 1 << i
        cur = values[prefix]
        rates[i] = cur - prev
        prev = cur
    return tuple(rates)
