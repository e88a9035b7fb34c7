"""Claims ledger: each claim of the source paper's abstract (PAPER.md), with
the test that checks it.

1. The core at sum-rate alpha holds exactly the rate vectors that achieve
   omniscience with that sum-rate: :func:`test_core_is_the_achievable_region`.
2. The core is nonempty exactly when the partition condition holds, that is
   when alpha is at least the minimum sum-rate R_CO: acceptance criterion 5,
   and ``test_sumrate.py::test_core_certificate_matches_the_partition_scan``
   for the partition minimum and its certificate.
3. R_CO agrees with the multivariate mutual information, R_CO = H(V) - I(V):
   acceptance criterion 6.
4. R_CO agrees with coded cooperative data exchange, where rates count whole
   packets: :func:`test_integer_minimum_is_the_ceiling_on_packet_models`.
5. The game is convex when alpha is at least R_CO. That holds for the
   Dilworth-truncated game (acceptance criterion 9). The untruncated game
   needs more, and :func:`test_untruncated_game_convexity_threshold` pins
   exactly how much.
6. Above R_CO the Shapley value is a fair allocation in the core: acceptance
   criteria 3 and 9.
"""

import math
import random
from fractions import Fraction

import pytest

from omnirate import (
    Game,
    RateVector,
    dilworth_truncate,
    greedy_marginals,
    in_core,
    min_sum_rate_asymptotic,
    subsets,
)

from oracles import (
    brute_integer_core,
    check_supermodular,
    random_entropy_table,
    random_packet_model,
    random_rate_vector,
    satisfies_slepian_wolf,
)

F = Fraction


@pytest.fixture(scope="module")
def models():
    """150 random models with 2..5 users: packet models and fractional tables."""
    rng = random.Random(1510)
    out = []
    for k in range(150):
        n = 2 + k % 4
        model = random_packet_model(rng, n_users=n) if k % 2 else random_entropy_table(rng, n)
        out.append((model, min_sum_rate_asymptotic(model)))
    return out


def test_core_is_the_achievable_region(models):
    # the Slepian-Wolf constraints r(X) >= H(Z_X | Z_{V minus X}) for every
    # proper X, on vectors that sum to alpha, are the core's constraints
    rng = random.Random(1511)
    outcomes = {True: 0, False: 0}
    for model, rep in models:
        for alpha in {max(rep.r_co - F(1, 8), F(0)), rep.r_co, rep.r_co + F(1, 2), rep.h_total}:
            game = Game(model, alpha)
            vectors = [random_rate_vector(rng, model.n, alpha) for _ in range(3)]
            trunc = dilworth_truncate(game)
            if trunc.core_nonempty:
                order = list(range(model.n))
                rng.shuffle(order)
                vectors.append(greedy_marginals(trunc.values, order))
            for vector in vectors:
                r = RateVector(vector)
                verdict = bool(in_core(game, r))
                assert verdict == bool(satisfies_slepian_wolf(model, r))
                outcomes[verdict] += 1
    assert min(outcomes.values()) >= 100, outcomes


def _convexity_threshold(model) -> Fraction:
    """H(V) minus the least mutual information I(Z_A; Z_B) over disjoint
    nonempty A and B."""
    full = model.full_mask
    h = model.entropy
    least = min(
        h(a) + h(b) - h(a | b)
        for a in subsets(full, nonempty=True)
        for b in subsets(full & ~a, nonempty=True)
    )
    return h(full) - least


def test_untruncated_game_convexity_threshold(models):
    # v(S) + v(T) <= v(S | T) + v(S & T) follows from the entropy's
    # submodularity unless S | T = V; there, with A = V - S and B = V - T
    # (disjoint), it reads alpha >= H(V) - I(Z_A; Z_B)
    checked = {True: 0, False: 0}
    for model, rep in models:
        full = model.full_mask
        threshold = _convexity_threshold(model)
        for alpha in {threshold - F(1, 7), threshold, threshold + F(1, 3), rep.r_co, rep.h_total}:
            if alpha < 0:
                continue
            game = Game(model, alpha)
            verdict = check_supermodular({x: game.char_value(x) for x in subsets(full)}, full)
            assert bool(verdict) == (alpha >= threshold)
            if not verdict:
                s, t = verdict.witness
                assert s | t == full
            checked[bool(verdict)] += 1
    assert min(checked.values()) >= 100, checked


def test_integer_minimum_is_the_ceiling_on_packet_models(models):
    # CCDE: with whole packets, the least sum-rate with an integer core vector
    # is the ceiling of R_CO
    checked = 0
    for model, rep in models:
        if model.kind != "packets":
            continue
        ceiling = math.ceil(rep.r_co)
        assert brute_integer_core(Game(model, ceiling))
        if ceiling > 0:
            assert not brute_integer_core(Game(model, ceiling - 1))
            checked += 1
    assert checked >= 50
