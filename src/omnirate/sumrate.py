"""Core nonemptiness and minimum sum-rate for omniscience.

Both reduce to the integer partition-minimum engine
(:func:`~omnirate.combinatorics.partition_min_table`). The core is nonempty
iff the dual's partition minimum equals alpha. The minimum sum-rate R_CO, a
maximum ratio over proper partitions, is found by a parametric (Dinkelbach)
iteration of the same engine; the multivariate mutual information comes out
of the same solve as I(V) = H(V) - R_CO, with the same partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .combinatorics import Partition, min_partition, min_partition_sum, partition_min_table
from .game import Game
from .models import SourceModel

ASYMPTOTIC = "asymptotic"
NON_ASYMPTOTIC = "non-asymptotic"

FLAG_NON_INTEGER_ENTROPY = "non-integer-entropy"


@dataclass(frozen=True)
class NonemptinessCertificate:
    """Partition-minimum certificate for an upper base polyhedron."""

    nonempty: bool
    value: Fraction  # g(ground), = alpha for the CO game
    partition_min: Fraction
    certificate: Partition

    def __bool__(self) -> bool:
        return self.nonempty


@dataclass(frozen=True)
class MmiResult:
    value: Fraction
    partition: Partition


@dataclass(frozen=True)
class SumRateReport:
    model_kind: str  # ASYMPTOTIC | NON_ASYMPTOTIC
    r_co: Fraction
    argmax_partition: Partition
    mmi: Fraction
    h_total: Fraction
    flags: tuple[str, ...] = ()


def upper_base_nonempty(cost: Callable[[int], Fraction], ground: int) -> NonemptinessCertificate:
    """Nonemptiness of B(g, <=) for an intersecting-submodular g, g(empty)=0.

    The polyhedron is nonempty iff g(ground) equals the minimum over all
    partitions of the block sums of g; the minimizing partition is returned
    as certificate either way.
    """
    total = cost(ground)
    value, part = min_partition_sum(ground, cost)
    return NonemptinessCertificate(value == total, total, value, part)


def core_nonempty(game: Game) -> NonemptinessCertificate:
    """Is the core of the game nonempty at its alpha? Certificate included.

    One engine pass over the integer-scaled dual, plus the certificate.
    """
    dual, den = game.dual_ints()
    full = game.full_mask
    table = partition_min_table(full, dual)
    value = table[full] // (game.model.n + 1)
    part = min_partition(full, dual, table)
    return NonemptinessCertificate(value == dual[full], game.alpha, Fraction(value, den), part)


def min_sum_rate_asymptotic(model: SourceModel) -> SumRateReport:
    """Minimum total rate for omniscience with divisible (real) rates.

    R_CO = max over proper partitions P of sum(H(Z_{V\\C} | Z_C) for C in P)
    / (|P|-1), found by Dinkelbach's parametric method on the integer
    entropy table. Start at lambda = the singleton partition's ratio. At
    lambda, the dual at sum-rate lambda, c(C) = lambda - H(V) + H(C), is
    minimised over proper partitions by one engine pass; a partition P
    beats lambda exactly when its block sum is below lambda, and then lambda
    moves up to P's ratio. At the fixed point the minimisers are exactly
    the partitions of maximum ratio, so the engine's tie rule (fewer blocks,
    then lexicographically smallest) picks the certificate. Each pass costs
    about 3^n / 2 int additions. Lambda strictly increases, so the loop
    ends; seeded packet models and entropy tables with n = 2..12 took 1-4
    passes, most of them 1-3.

    MMI = H(V) - R_CO, minimised by the same partition.
    """
    h, den = model.entropy_table
    full, n = model.full_mask, model.n
    h_total = h[full]
    # lambda * den = p / q
    p, q = sum(h_total - h[1 << i] for i in range(n)), n - 1
    while True:
        cost = [p - q * (h_total - x) for x in h]
        table = partition_min_table(full, cost, proper=True)
        value, blocks = divmod(table[full], n + 1)
        if value >= p:  # nothing beats lambda (value > p cannot happen)
            break
        # the minimiser's block sum is p * blocks - q * (its ratio's numerator)
        p, q = (p * blocks - value) // q, blocks - 1
    r_co = Fraction(p, q * den)
    h_v = Fraction(h_total, den)
    part = min_partition(full, cost, table)
    return SumRateReport(ASYMPTOTIC, r_co, part, h_v - r_co, h_v)


def min_sum_rate_non_asymptotic(model: SourceModel) -> SumRateReport:
    """Minimum total rate when every rate must be an integer.

    Ceiling of the asymptotic value. Meaningful for packet-style models with
    integer entropies; a non-integer entropy table gets the value as written
    plus a report flag.
    """
    base = min_sum_rate_asymptotic(model)
    flags = () if model.is_integral() else (FLAG_NON_INTEGER_ENTROPY,)
    return SumRateReport(
        NON_ASYMPTOTIC,
        Fraction(math.ceil(base.r_co)),
        base.argmax_partition,
        base.mmi,
        base.h_total,
        flags,
    )


def mmi(model: SourceModel) -> MmiResult:
    """Multivariate mutual information I(Z_V) with its minimizing partition.

    min over proper partitions P of (sum(H(Z_C) for C in P) - H(Z_V)) / (|P|-1).
    Each partition's value is H(V) minus its R_CO ratio, so this is read off
    :func:`min_sum_rate_asymptotic`: same partition, I = H(V) - R_CO.
    """
    rep = min_sum_rate_asymptotic(model)
    return MmiResult(rep.mmi, rep.argmax_partition)
