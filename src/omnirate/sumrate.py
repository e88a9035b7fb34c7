"""Core nonemptiness and minimum sum-rate for omniscience.

Both reduce to the integer partition-minimum engine
(:func:`~omnirate.combinatorics.partition_min_table`). The core is nonempty
iff the dual's partition minimum, the Dilworth truncation at the ground set,
equals alpha. The minimum sum-rate R_CO, a maximum ratio over proper
partitions, is found by a parametric (Dinkelbach) iteration of the same
engine; the multivariate mutual information comes out of the same solve as
I(V) = H(V) - R_CO, with the same partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .combinatorics import Partition, min_partition, partition_min_table
from .dilworth import TruncatedDual, dilworth_truncate
from .game import Game
from .models import SourceModel


@dataclass(frozen=True)
class MmiResult:
    value: Fraction
    partition: Partition


@dataclass(frozen=True)
class SumRateReport:
    r_co: Fraction
    argmax_partition: Partition
    mmi: Fraction
    h_total: Fraction


def core_nonempty(game: Game) -> TruncatedDual:
    """Is the core of the game nonempty at its alpha? The Dilworth
    truncation answers (it is true exactly then) and certifies it: its
    ``partition_min`` and ``certificate`` come from the same engine pass."""
    return dilworth_truncate(game)


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
        # the single block costs more than the singletons, so it never wins
        cost[full] = sum(cost[1 << i] for i in range(n)) + 1
        table = partition_min_table(full, cost)
        value, blocks = divmod(table[full], n + 1)
        if value >= p:  # nothing beats lambda (value > p cannot happen)
            break
        # the minimiser's block sum is p * blocks - q * (its ratio's numerator)
        p, q = (p * blocks - value) // q, blocks - 1
    r_co = Fraction(p, q * den)
    h_v = Fraction(h_total, den)
    part = min_partition(full, cost, table)
    return SumRateReport(r_co, part, h_v - r_co, h_v)


def min_sum_rate_non_asymptotic(model: SourceModel) -> SumRateReport:
    """Minimum total rate when every rate must be an integer.

    The ceiling of the asymptotic value, which on integer-entropy
    (packet-style) models is the coded-cooperative-data-exchange minimum.
    Refuses a model with fractional entropies with :class:`IntegralityError`,
    since there the ceiling can fall below the integer minimum.
    """
    model.require_integral()
    base = min_sum_rate_asymptotic(model)
    return replace(base, r_co=Fraction(math.ceil(base.r_co)))


def mmi(model: SourceModel) -> MmiResult:
    """Multivariate mutual information I(Z_V) with its minimizing partition.

    min over proper partitions P of (sum(H(Z_C) for C in P) - H(Z_V)) / (|P|-1).
    Each partition's value is H(V) minus its R_CO ratio, so this is read off
    :func:`min_sum_rate_asymptotic`: same partition, I = H(V) - R_CO.
    """
    rep = min_sum_rate_asymptotic(model)
    return MmiResult(rep.mmi, rep.argmax_partition)
