"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (textbook
recursion over Python lists, no bit tricks) so it shares no code path with
the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterable, Iterator

from omnirate import (
    EntropyTable,
    Game,
    PacketModel,
    Partition,
    RateVector,
    TruncatedDual,
    bits,
    greedy_marginals,
    in_core,
    subsets,
)


def set_partitions(items):
    """Yield all partitions of a list as lists of lists (textbook recursion)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1 :]
        yield smaller + [[first]]


def bell_number(n: int) -> int:
    return sum(1 for _ in set_partitions(list(range(n))))


def mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def brute_min_partition(ground_mask: int, cost) -> Fraction:
    """Minimum block-cost sum over all partitions, via raw enumeration."""
    indices = [i for i in range(ground_mask.bit_length()) if ground_mask >> i & 1]
    best = None
    for part in set_partitions(indices):
        total = sum((cost(mask_from_indices(block)) for block in part), Fraction(0))
        if best is None or total < best:
            best = total
    return best


def brute_min_sum_rate(model) -> Fraction:
    """Asymptotic minimum sum-rate by direct scan of proper partitions."""
    h_total = model.entropy(model.full_mask)
    best = None
    for part in set_partitions(list(range(model.n))):
        if len(part) < 2:
            continue
        total = sum(
            (h_total - model.entropy(mask_from_indices(block)) for block in part),
            Fraction(0),
        )
        value = total / (len(part) - 1)
        if best is None or value > best:
            best = value
    return best


def brute_mmi(model) -> Fraction:
    h_total = model.entropy(model.full_mask)
    best = None
    for part in set_partitions(list(range(model.n))):
        if len(part) < 2:
            continue
        total = sum((model.entropy(mask_from_indices(block)) for block in part), Fraction(0))
        value = (total - h_total) / (len(part) - 1)
        if best is None or value < best:
            best = value
    return best


def partitions(ground: int, *, proper: bool = False) -> Iterator[Partition]:
    """Enumerate all partitions of ``ground`` (count = Bell(|ground|)).

    With ``proper`` the single-block partition {ground} is skipped, which
    realizes the proper-partition family of the sum-rate scans.
    """
    for blocks in _block_lists(ground):
        if proper and len(blocks) == 1:
            continue
        yield Partition(ground, blocks)


def _block_lists(mask: int) -> Iterator[tuple[int, ...]]:
    # The first block always contains the lowest remaining element, so the
    # emitted block tuples are canonical without sorting.
    if mask == 0:
        yield ()
        return
    low = mask & -mask
    rest = mask ^ low
    positions = list(bits(rest))
    for k in range(1 << len(positions)):
        first = low
        for j in bits(k):
            first |= 1 << positions[j]
        for tail in _block_lists(mask ^ first):
            yield (first,) + tail


def scan_proper_partitions(
    model,
    value_of: Callable[[Partition], Fraction],
    *,
    maximize: bool,
) -> tuple[Fraction, Partition]:
    """Best proper partition by exhaustive scan, with its value.

    Ties prefer fewer blocks, then the lexicographically smallest block list
    (the library's tie rule).
    """
    best: tuple[Fraction, Partition] | None = None
    for part in partitions(model.full_mask, proper=True):
        value = value_of(part)
        if best is None:
            best = (value, part)
            continue
        if maximize:
            improves = value > best[0]
        else:
            improves = value < best[0]
        if improves or (
            value == best[0] and (len(part), part.key()) < (len(best[1]), best[1].key())
        ):
            best = (value, part)
    if best is None:
        raise ValueError("no proper partition; need at least 2 users")
    return best


def scan_min_sum_rate(model) -> tuple[Fraction, Partition]:
    """R_CO and its certificate by scanning every proper partition."""
    h_total = model.entropy(model.full_mask)

    def value_of(part: Partition) -> Fraction:
        total = sum((h_total - model.entropy(c) for c in part), Fraction(0))
        return total / (len(part) - 1)

    return scan_proper_partitions(model, value_of, maximize=True)


def scan_mmi(model) -> tuple[Fraction, Partition]:
    """MMI and its minimising partition by scanning every proper partition."""
    h_total = model.entropy(model.full_mask)

    def value_of(part: Partition) -> Fraction:
        total = sum((model.entropy(c) for c in part), Fraction(0))
        return (total - h_total) / (len(part) - 1)

    return scan_proper_partitions(model, value_of, maximize=False)


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def brute_integer_core(game) -> list[tuple[int, ...]]:
    """All integer core points: scan every vector summing to alpha, no per-user
    upper bounds, and keep the ones passing the core test."""
    out = []
    for vec in compositions(int(game.alpha), game.model.n):
        if in_core(game, RateVector.of(vec), integer_mode=True):
            out.append(vec)
    return out


def random_packet_model(rng: random.Random, n_users=None, max_packets: int = 8) -> PacketModel:
    """Random CCDE-style model: 2..5 users drawing from <= max_packets packets."""
    n = n_users if n_users is not None else rng.randint(2, 5)
    universe = [f"p{k}" for k in range(rng.randint(1, max_packets))]
    packets = {}
    for u in range(n):
        held = [p for p in universe if rng.random() < 0.5]
        packets[str(u + 1)] = held
    return PacketModel(packets)


def random_entropy_table(rng: random.Random, n: int, max_packets: int = 8) -> EntropyTable:
    """Fractional weighted-coverage entropy table (a polymatroid): each user
    holds random packets, each packet weighs a random p/q."""
    weights = [
        Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4)))
        for _ in range(rng.randint(1, max_packets))
    ]
    held = [[k for k in range(len(weights)) if rng.random() < 0.5] for _ in range(n)]
    values = {}
    for mask in range(1 << n):
        covered = {k for i in range(n) if mask >> i & 1 for k in held[i]}
        values[mask] = sum((weights[k] for k in covered), Fraction(0))
    return EntropyTable([str(i + 1) for i in range(n)], values)


def random_rate_vector(rng: random.Random, n: int, alpha: Fraction) -> tuple[Fraction, ...]:
    """Random nonnegative rational vector summing exactly to alpha."""
    weights = [Fraction(rng.randint(0, 12)) for _ in range(n)]
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(n)] = Fraction(1)
        total = Fraction(1)
    return tuple(alpha * w / total for w in weights)


@dataclass(frozen=True)
class CoreComparison:
    """Outcome of checking that truncation preserved the core."""

    applicable: bool  # False when alpha is below the minimum sum-rate
    equal: bool
    mismatches: tuple[RateVector, ...]
    vertices_checked: int
    vertex_failures: tuple[RateVector, ...]

    def __bool__(self) -> bool:
        return self.applicable and self.equal and not self.vertex_failures


def cores_equal(
    game: Game, trunc: TruncatedDual, samples: Iterable[RateVector]
) -> CoreComparison:
    """Check B(f#, <=) and B(truncated f#, <=) agree on the given samples.

    Every sample must satisfy r(V) = alpha. On small ground sets (|V| <= 4)
    additionally enumerates all greedy vertices of the truncation and
    confirms each one lies in the original core.
    """
    if not trunc.core_nonempty:
        return CoreComparison(False, False, (), 0, ())
    full = game.full_mask
    mismatches = []
    for r in samples:
        if r.total() != game.alpha:
            raise ValueError("sample rate vector does not sum to alpha")
        member_orig = all(
            r.sum_over(x) <= game.dual_value(x) for x in subsets(full, nonempty=True)
        )
        member_trunc = all(
            r.sum_over(x) <= trunc.values[x] for x in subsets(full, nonempty=True)
        )
        if member_orig != member_trunc:
            mismatches.append(r)
    vertices_checked = 0
    vertex_failures = []
    n = full.bit_count()
    if n <= 4:
        seen = set()
        for order in permutations(range(n)):
            rates = greedy_marginals(trunc.values, order)
            if rates in seen:
                continue
            seen.add(rates)
            vertices_checked += 1
            vertex = RateVector(rates)
            if not in_core(game, vertex):
                vertex_failures.append(vertex)
    return CoreComparison(
        True, not mismatches, tuple(mismatches), vertices_checked, tuple(vertex_failures)
    )
