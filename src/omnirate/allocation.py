"""Rate allocation: Shapley fairness, greedy core vertices, integer core
enumeration, and Jain-index comparison.

Every allocator reads the truncated dual's ints (``TruncatedDual.table``
over ``den``): Shapley sums them, greedy vertices are their marginals along
join orders, and the integer-core walk bounds its prefix sums with them.
Rates become Fractions once per reported vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from operator import mul, sub
from typing import Iterable, Sequence

from .combinatorics import flip, halves
from .dilworth import TruncatedDual, dilworth_truncate, greedy_marginals
from .game import Game, RateVector
from .models import IntegralityError
from .rationals import format_rational, to_ints


class CoreEmptyError(ValueError):
    """The requested sum-rate is below the achievable minimum."""

    def __init__(self, alpha: Fraction, partition_min: Fraction):
        super().__init__(
            f"core is empty at alpha={format_rational(alpha)}: the best partition "
            f"splits for {format_rational(partition_min)}"
        )
        self.alpha = alpha
        self.partition_min = partition_min


@dataclass(frozen=True)
class Allocation:
    rates: RateVector
    method: str  # "shapley" | "greedy" | "enumerated"
    order: tuple[int, ...] | None = None
    jain: Fraction | None = None  # None only for the all-zero vector


# join orders: all n! of them up to this many users, a fixed sample above
_EXACT_MAX_USERS = 8
_SAMPLED_ORDERS = 2000


def _require_nonempty(trunc: TruncatedDual) -> None:
    if not trunc.core_nonempty:
        raise CoreEmptyError(trunc.alpha, trunc.partition_min)


def shapley(trunc: TruncatedDual) -> Allocation:
    """Shapley value of the convex game given by the truncated dual.

    Each user's rate is the factorial-weighted sum of marginal contributions
    over all subsets X not containing the user i,
    sum |X|!(n-|X|-1)! * (t(X+i) - t(X)) / n!. The sum runs on the
    truncation's :func:`~omnirate.combinatorics.halves` at bit i, with one
    weight list for every user (dropping bit i keeps |X|), and each rate is
    one exact division by n! * den: n * 2^(n-1) integer terms in all.
    Refuses when the core is empty, since the fairness guarantee only
    exists above the minimum sum-rate.
    """
    _require_nonempty(trunc)
    n = trunc.ground.bit_count()
    weight = [factorial(k) * factorial(n - k - 1) for k in range(n)]
    weights = [weight[c.bit_count()] for c in range(1 << (n - 1))]
    total = factorial(n) * trunc.den
    rates = []
    for i in range(n):
        without, with_i = halves(trunc.table, i)
        rates.append(Fraction(sum(map(mul, weights, map(sub, with_i, without))), total))
    return Allocation(RateVector(tuple(rates)), "shapley", None, jain_or_none(tuple(rates)))


def _greedy_allocation(
    trunc: TruncatedDual, ints: tuple[int, ...], order: tuple[int, ...]
) -> Allocation:
    # the Jain index is scale-free, so it reads the ints over den as they are
    rates = tuple(Fraction(v, trunc.den) for v in ints)
    return Allocation(RateVector(rates), "greedy", order, jain_or_none(ints))


def greedy_vertex(trunc: TruncatedDual, order: Sequence[int]) -> Allocation:
    """Core vertex from greedy marginals along one join order."""
    _require_nonempty(trunc)
    n = trunc.ground.bit_count()
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order!r} is not a permutation of 0..{n - 1}")
    order = tuple(order)
    return _greedy_allocation(trunc, greedy_marginals(trunc.table, order), order)


def greedy_vertices(trunc: TruncatedDual) -> tuple[list[Allocation], bool]:
    """All distinct greedy vertices of the core (one allocation per vertex).

    Exhausts every join order up to 8 users (8! orders). Larger ground sets
    get 2000 orders shuffled by ``random.Random(0)`` instead, so every call
    gives the same vertices, and the second return value flags the result
    as partial. Every vertex lies in the core: the truncation is submodular
    and equals alpha on V, and the core is its base polyhedron (Edmonds).
    """
    _require_nonempty(trunc)
    n = trunc.ground.bit_count()
    partial = n > _EXACT_MAX_USERS
    if partial:
        rng = random.Random(0)
        base = list(range(n))

        def orders():
            for _ in range(_SAMPLED_ORDERS):
                rng.shuffle(base)
                yield tuple(base)

        order_iter = orders()
    else:
        order_iter = permutations(range(n))
    out: list[Allocation] = []
    seen: set[tuple[int, ...]] = set()
    for order in order_iter:
        ints = greedy_marginals(trunc.table, order)
        if ints not in seen:
            seen.add(ints)
            out.append(_greedy_allocation(trunc, ints, tuple(order)))
    return out, partial


def enumerate_integer_core(game: Game) -> list[tuple[int, ...]]:
    """Every integer rate vector in the core, in ascending lexicographic order,
    as tuples of ints indexed like the model's users.

    Only defined when alpha and all dual values are integers (packet-style
    models); refuses otherwise.

    Method: a depth-first walk fixes users 0, 1, ... in index order, trying
    values in ascending order, against the Dilworth-truncated dual g. Every
    core vector r satisfies r(X) <= g(X) and r(X) >= p(X) = g(V) - g(V\\X)
    for all X, and the core is empty unless g(V) = alpha. With the prefix
    sums s(Y) kept for every Y among the users already fixed, user i may
    take the integers in [max_Y p(Y+i) - s(Y), min_Y g(Y+i) - s(Y)], clipped
    at zero; the last user takes the remainder alpha - s, whose constraints
    follow from the earlier ones by complementation.

    No dead ends: for a polymatroid entropy (every validated model) the core
    is the base polyhedron of g, and its projection onto each prefix of users
    is exactly the integral g-polymatroid cut out by those bounds (Frank &
    Tardos). So each interval is nonempty, each value in it extends to a core
    vector, every leaf is an output, and no per-leaf core test is made.

    Cost: one 3^n truncation, read as ints (its denominator is 1 here),
    then O(n * 2^n) integer operations per output vector. Tables that are
    not polymatroids get the same exact answer, but the walk can then meet
    empty intervals.
    """
    if game.alpha.denominator != 1:
        raise IntegralityError(
            f"integer-rate enumeration needs an integer alpha, got {format_rational(game.alpha)}"
        )
    game.model.require_integral()
    trunc = dilworth_truncate(game)
    if not trunc.core_nonempty:
        return []
    full = game.full_mask
    last = 1 << (game.model.n - 1)
    g = trunc.table  # over den = 1: alpha and every entropy are integers
    alpha = g[full]
    lower = flip(g)
    # s[Y] = r(Y) for every Y among the users fixed so far; the masks of
    # "Y plus user i" for Y within users 0..i-1 are the slice [bit, 2*bit).
    s = [0] * (full + 1)
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def walk(bit: int) -> None:
        if bit == last:
            v = alpha - s[bit - 1]
            if v >= 0:
                out.append((*stack, v))
            return
        prefix = s[:bit]
        lo = max(0, max(map(sub, lower[bit : 2 * bit], prefix)))
        hi = min(map(sub, g[bit : 2 * bit], prefix))
        for v in range(lo, hi + 1):
            s[bit : 2 * bit] = [y + v for y in prefix]
            stack.append(v)
            walk(bit << 1)
            stack.pop()

    walk(1)
    return out


def jain_index(r: Iterable[Fraction] | RateVector) -> Fraction:
    """Jain fairness of a rate vector: (sum r)^2 / (n * sum r^2), 1 = uniform.

    Exact: the rates are scaled to integers over their common denominator,
    which cancels from the ratio. Int rates are used as they are.
    """
    scaled = list(r)
    if not all(type(x) is int for x in scaled):
        scaled, _ = to_ints([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in scaled])
    square_sum = sum(a * a for a in scaled)
    if square_sum == 0:
        raise ValueError("Jain index is undefined for the all-zero vector")
    total = sum(scaled)
    return Fraction(total * total, len(scaled) * square_sum)


def jain_or_none(rates: Sequence[Fraction] | RateVector) -> Fraction | None:
    """Jain index, or None for the all-zero vector (where it is undefined)."""
    return jain_index(rates) if any(rates) else None


def fairness_compare(candidates: Sequence[Allocation]) -> list[Allocation]:
    """Rank allocations by Jain index, fairest first.

    Ties break on lexicographically smaller rates; the sort is stable, so
    fully equal candidates keep their input order. All-zero allocations
    (undefined index) rank last.
    """
    if not candidates:
        raise ValueError("nothing to compare")
    return sorted(
        candidates,
        key=lambda a: ((0, -a.jain) if a.jain is not None else (1, Fraction(0)), tuple(a.rates)),
    )
