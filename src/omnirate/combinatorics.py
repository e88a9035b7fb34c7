"""Subset enumeration and the one partition-minimum engine, over bit-masks.

Subsets of the user set are plain ints used as bit-masks: bit i set means
user index i is in the subset. The ground set may have holes (it is itself
just a mask), so everything below works on sub-masks of an arbitrary ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .rationals import to_ints


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subsets(ground: int, *, nonempty: bool = False) -> Iterator[int]:
    """Enumerate sub-masks of ``ground`` exactly once, ascending.

    ``nonempty`` skips the empty set. Steps by ``x = (x - ground) & ground``,
    the next larger sub-mask.
    """
    x = 0
    if not nonempty:
        yield 0
    while x != ground:
        x = (x - ground) & ground
        yield x


def flip(table: Sequence[int]) -> list[int]:
    """t(V) - t(V minus X) at every mask X, for a table t indexed by the
    sub-masks of V = len(table) - 1: the value of V minus X sits at index
    V - X, so the flip reads the table backwards."""
    top = table[-1]
    return [top - v for v in reversed(table)]


def halves(values: list[int], k: int) -> tuple[list[int], list[int]]:
    """The entries of ``values`` (indexed by the 2^m masks) whose mask has
    bit k clear and those with it set: two lists, each indexed by its mask
    with bit k dropped, so ``off[c]`` and ``on[c]`` sit at X and X+k.

    Blocks of 2^k entries alternate between the two. With no more offsets
    below 2^k than blocks, the entries at each offset s form one strided
    slice, written to every 2^k-th place from s; else each block is appended.
    """
    low = 1 << k
    step = low << 1
    size = len(values)
    if low * step <= size:  # no more offsets than blocks
        off = [0] * (size >> 1)
        on = off[:]
        for s in range(low):
            off[s::low] = values[s::step]
            on[s::low] = values[s + low :: step]
        return off, on
    off, on = [], []
    for s in range(0, size, step):
        off += values[s : s + low]
        on += values[s + low : s + step]
    return off, on


@dataclass(frozen=True)
class Partition:
    """A partition of ``ground`` into disjoint nonempty blocks.

    ``blocks`` is canonical: ordered by each block's smallest element, so
    structurally equal partitions compare equal. :func:`min_partition`
    builds them in that order.
    """

    ground: int
    blocks: tuple[int, ...]

    def __iter__(self) -> Iterator[int]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Sort key: blocks as tuples of ascending indices (lexicographic)."""
        return tuple(tuple(bits(b)) for b in self.blocks)


def partitions(ground: int, *, proper: bool = False) -> Iterator[Partition]:
    """Removed: the Bell-number scan is a test oracle now (tests/oracles.py).
    The name stays for perfbench/tracing.py, which wraps it by name."""
    raise NotImplementedError("partition enumeration moved to tests/oracles.py")


def partition_min_table(ground: int, cost: Sequence[int]) -> list[int]:
    """Minimum block-cost sum over the partitions of every sub-mask of ``ground``.

    ``cost`` is a list of ints indexed by mask. The table is f(empty) = 0 and
    f(X) = min over blocks S containing the lowest element of X of
    cost(S) + f(X minus S); fixing that element counts each partition once.

    Ties prefer fewer blocks: a block costs ``cost[S] * (m + 1) + 1`` with
    m = |ground|, so each entry is ``value * (m + 1) + blocks`` (split it
    with divmod). :func:`min_partition` rebuilds a minimiser. One pass walks
    the sub-masks of each X by ``(sub - 1) & rest``: about 3^m / 2 int
    additions, and nothing but ints is stored.
    """
    width = ground.bit_count() + 1
    enc = [c * width + 1 for c in cost]
    table = [0] * (ground + 1)
    x = 0
    while x != ground:
        x = (x - ground) & ground  # next sub-mask of ground, ascending
        low = x & -x
        rest = x ^ low
        best = enc[x]
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            value = enc[low | sub] + table[rest ^ sub]
            if value < best:
                best = value
        table[x] = best
    return table


def min_partition(ground: int, cost: Sequence[int], table: Sequence[int]) -> Partition:
    """A partition of ``ground`` attaining ``table[ground]``, where ``table``
    came from :func:`partition_min_table` with the same ``cost``.

    Ties: fewer blocks (already in the table), then the lexicographically
    smallest block list, blocks compared as ascending index tuples ({0,1,3}
    before {0,2}). Built greedily from the lowest element, O(m * 2^m).
    """
    width = ground.bit_count() + 1
    blocks = []
    x = ground
    while x:
        low = x & -x
        tied = [
            low | sub
            for sub in subsets(x ^ low)
            if cost[low | sub] * width + 1 + table[x ^ low ^ sub] == table[x]
        ]
        blocks.append(min(tied, key=lambda b: tuple(bits(b))))
        x ^= blocks[-1]
    return Partition(ground, tuple(blocks))


def min_partition_sum(ground: int, cost: Callable[[int], Fraction]) -> tuple[Fraction, Partition]:
    """Minimum of sum(cost(C) for C in P) over partitions P of ``ground``.

    Exact: the costs are scaled to ints over their common denominator and
    handed to :func:`partition_min_table`.
    """
    values = [Fraction(cost(x)) if x and x & ~ground == 0 else 0 for x in range(ground + 1)]
    scaled, den = to_ints(values)
    table = partition_min_table(ground, scaled)
    value = Fraction(table[ground] // (ground.bit_count() + 1), den)
    return value, min_partition(ground, scaled, table)
