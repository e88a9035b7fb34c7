"""Reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (textbook
recursion over Python lists, scans over every candidate), and membership is
decided by the Fraction loops here (``fraction_in_core``), never by the
library's ``in_core``. Some code paths are still shared with the package
under test, so a bug in one of them can pass both sides:

- entropies, read through ``model.entropy``, ``model.entropy_table`` and
  the game's ``char_value`` and ``dual_value``;
- subset and bit walks, through ``subsets`` and ``bits``;
- greedy marginals and the Jain index, through ``greedy_marginals`` and
  ``jain_index``;
- the Dilworth truncation, read from ``trunc.values`` by the Shapley and
  greedy-vertex oracles.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Callable, Iterable, Iterator, Mapping

from omnirate import (
    Allocation,
    Decision,
    EntropyTable,
    Game,
    PacketModel,
    Partition,
    RateVector,
    TruncatedDual,
    ValidationReport,
    Violation,
    bits,
    format_rational,
    greedy_marginals,
    jain_index,
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


def scatter_subsets(ground: int, *, nonempty: bool = False, proper: bool = False) -> list[int]:
    """Sub-masks of ``ground``, ascending: each k in 0 .. 2^m - 1 with its
    bits scattered onto the m set positions of ``ground``, in order.
    ``nonempty`` drops k = 0, ``proper`` drops k = 2^m - 1 (ground itself)."""
    positions = [i for i in range(ground.bit_length()) if ground >> i & 1]
    m = len(positions)
    out = []
    for k in range(1 if nonempty else 0, (1 << m) - (1 if proper else 0)):
        out.append(sum(1 << positions[j] for j in range(m) if k >> j & 1))
    return out


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
    upper bounds, and keep the ones passing ``fraction_in_core``."""
    out = []
    for vec in compositions(int(game.alpha), game.model.n):
        if fraction_in_core(game, RateVector.of(vec), integer_mode=True):
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
            sum_over(r, x) <= game.dual_value(x) for x in subsets(full, nonempty=True)
        )
        member_trunc = all(
            sum_over(r, x) <= trunc.values[x] for x in subsets(full, nonempty=True)
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
            if not fraction_in_core(game, vertex):
                vertex_failures.append(vertex)
    return CoreComparison(
        True, not mismatches, tuple(mismatches), vertices_checked, tuple(vertex_failures)
    )


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


def brute_shapley(trunc: TruncatedDual) -> tuple[Fraction, ...]:
    """Shapley value of the truncated dual's convex game, one Fraction weight
    |X|!(n-|X|-1)!/n! and one Fraction product per subset term."""
    n = trunc.ground.bit_count()
    fact = [Fraction(factorial(k)) for k in range(n + 1)]
    rates = []
    for i in range(n):
        bit = 1 << i
        acc = Fraction(0)
        for x in subsets(trunc.ground & ~bit):
            size = x.bit_count()
            weight = fact[n - size - 1] * fact[size] / fact[n]
            acc += weight * (trunc.values[x | bit] - trunc.values[x])
        rates.append(acc)
    return tuple(rates)


def fraction_check_coalitions(
    model,
    r: RateVector,
    bound: Callable[[int], Fraction],
    label: str,
    alpha: Fraction | None = None,
    upper: bool = False,
) -> Decision:
    """The coalition loop on Fractions: arity, then r(V) = alpha if ``alpha``
    is given, then the first proper X in ascending mask order with r(X) <
    bound(X) (r(X) > bound(X) if ``upper``); ``label`` names the bound."""
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
    for x in scatter_subsets(full, nonempty=True, proper=True):
        b = bound(x)
        if sums[x] > b if upper else sums[x] < b:
            return Decision(
                False,
                "upper" if upper else "coalition",
                x,
                f"r(X)={format_rational(sums[x])} {'>' if upper else '<'} "
                f"{label}{format_rational(b)} for X={{{','.join(model.ids_from_mask(x))}}}",
            )
    return Decision(True)


def fraction_in_core(game: Game, r: RateVector, integer_mode: bool = False) -> Decision:
    """in_core on Fractions: sum, then fractional rate, then coalition."""
    decision = fraction_check_coalitions(game.model, r, game.char_value, "f(X)=", game.alpha)
    if integer_mode and decision.kind != "sum":
        for i, x in enumerate(r):
            if x.denominator != 1:
                return Decision(False, "fractional", i, f"r_{game.model.users[i]}={format_rational(x)}")
    return decision


def fraction_dual_membership(game: Game, r: RateVector) -> Decision:
    """dual_membership on Fractions: r(X) <= f#(X) for every proper X."""
    return fraction_check_coalitions(
        game.model, r, game.dual_value, "f#(X)=", game.alpha, upper=True
    )


def satisfies_slepian_wolf(model, r: RateVector) -> Decision:
    """Do the rates cover every proper coalition's missing information?

    Checks r(X) >= H(Z_X | Z_{V\\X}) for all proper X; a failing X is returned
    as witness.
    """
    full = model.full_mask
    h_total = model.entropy(full)
    return fraction_check_coalitions(model, r, lambda x: h_total - model.entropy(full & ~x), "")


def conditional_entropy(model, x: int, y: int) -> Fraction:
    """H(Z_X | Z_Y) = H(Z_{X union Y}) - H(Z_Y)."""
    return model.entropy(x | y) - model.entropy(y)


def sum_over(r: RateVector, mask: int) -> Fraction:
    """r(X): the rates of the users in the mask, summed."""
    return sum((r[i] for i in bits(mask)), Fraction(0))


def fraction_scan_violations(model) -> ValidationReport:
    """Every polymatroid violation, on one Fraction per subset: H(empty) !=
    0, then each failing single-element step X -> X+i (X ascending, i
    ascending), then each unordered incomparable pair (X, Y) with H(X)+H(Y)
    < H(X|Y)+H(X&Y), X ascending and Y < X ascending."""
    h = {x: model.entropy(x) for x in subsets(model.full_mask)}
    out: list[Violation] = []

    def name(mask: int) -> str:
        return "{" + ",".join(model.ids_from_mask(mask)) + "}"

    if h[0] != 0:
        out.append(
            Violation("normalization", (0,), f"H(empty)={format_rational(h[0])}, expected 0")
        )
    for x in scatter_subsets(model.full_mask, proper=True):
        for i in bits(model.full_mask & ~x):
            y = x | (1 << i)
            if h[y] < h[x]:
                out.append(
                    Violation(
                        "monotonicity",
                        (x, y),
                        f"H({name(x)})={format_rational(h[x])} > H({name(y)})={format_rational(h[y])}",
                    )
                )
    for x in subsets(model.full_mask, nonempty=True):
        for y in subsets(model.full_mask, nonempty=True):
            if y >= x or x & ~y == 0 or y & ~x == 0:
                continue  # unordered, incomparable pairs only
            if h[x] + h[y] < h[x | y] + h[x & y]:
                out.append(
                    Violation(
                        "submodularity",
                        (x, y),
                        f"H({name(x)})+H({name(y)}) < H({name(x | y)})+H({name(x & y)})",
                    )
                )
    return ValidationReport(tuple(out))


def elementary_violations(model, full: ValidationReport | None = None) -> ValidationReport:
    """:func:`fraction_scan_violations` (or ``full``, when the caller has
    it) cut to the elementary certificate: normalization, monotonicity, and
    the pairs (X+j, X+i) with i, j outside X, which differ in two users and
    each hold one the other lacks."""
    full = full if full is not None else fraction_scan_violations(model)
    return ValidationReport(
        tuple(
            v
            for v in full.violations
            if v.kind != "submodularity"
            or ((v.sets[0] ^ v.sets[1]).bit_count() == 2 and (v.sets[0] & ~v.sets[1]).bit_count() == 1)
        )
    )


def fraction_greedy_vertices(trunc: TruncatedDual, orders) -> list[Allocation]:
    """The distinct greedy vertices along ``orders``, each with the first
    order that reaches it, from the Fraction view ``trunc.values``."""
    out: list[Allocation] = []
    seen: set[tuple[Fraction, ...]] = set()
    for order in orders:
        rates = greedy_marginals(trunc.values, order)
        if rates in seen:
            continue
        seen.add(rates)
        jain = jain_index(rates) if any(rates) else None
        out.append(Allocation(RateVector(rates), "greedy", tuple(order), jain))
    return out


def canonical_digest(model) -> str:
    """``model_digest`` the obvious way: the model as one JSON-ready dict,
    a ``{"set": [...], "H": ...}`` dict per subset, hashed as
    ``json.dumps(..., separators=(",", ":"), sort_keys=True)``."""
    if isinstance(model, PacketModel):
        body: dict = {
            "type": "packets",
            "users": {u: sorted(ps) for u, ps in zip(model.users, model.packet_sets)},
        }
    else:
        # ids[x] lists the users in mask x: the masks with user u are those
        # without it, plus u
        ids: list[list[str]] = [[]]
        for u in model.users:
            ids += [t + [u] for t in ids]
        h, den = model.entropy_table
        body = {
            "type": "entropy",
            "users": list(model.users),
            "entries": [{"set": t, "H": format_rational(Fraction(v, den))} for v, t in zip(h, ids)],
        }
    if model.unit is not None:
        body["unit"] = model.unit
    blob = json.dumps(body, separators=(",", ":"), sort_keys=True)
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()
