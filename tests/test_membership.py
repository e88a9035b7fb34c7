"""The integer membership loop against the Fraction loop it replaced
(``tests/oracles.py``): the same whole Decision, witness and detail string
included, for in_core with and without integer_mode and for dual_membership."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from omnirate import Game, RateVector, dilworth_truncate, dual_membership, greedy_vertex, in_core

from oracles import (
    fraction_dual_membership,
    fraction_in_core,
    random_entropy_table,
    random_packet_model,
    random_rate_vector,
)


def rate_vectors(rng: random.Random, game: Game, shape: str) -> list[RateVector]:
    """Vectors of one shape: "split" sums to alpha at random; "vertex" is a
    greedy vertex of the truncation with some rate moved between two users
    (members, and coalition failures with a small negative slack); "sum"
    misses alpha; "integer" is an integer vector summing to floor(alpha)."""
    n, alpha = game.model.n, game.alpha
    if shape == "split":
        return [RateVector(random_rate_vector(rng, n, alpha)) for _ in range(4)]
    if shape == "sum":
        out = []
        for _ in range(4):
            rates = list(random_rate_vector(rng, n, alpha))
            rates[rng.randrange(n)] += Fraction(rng.randint(1, 5), rng.randint(1, 7))
            out.append(RateVector(tuple(rates)))
        return out
    if shape == "integer":
        out = []
        for _ in range(4):
            rates = [0] * n
            for _ in range(int(alpha)):
                rates[rng.randrange(n)] += 1
            out.append(RateVector.of(rates))
        return out
    trunc = dilworth_truncate(game)
    if not trunc.core_nonempty:
        return []
    out = []
    for _ in range(4):
        order = list(range(n))
        rng.shuffle(order)
        rates = list(greedy_vertex(trunc, order).rates)
        give, take = rng.sample(range(n), 2)
        step = min(rates[give], Fraction(rng.randint(0, 3), rng.randint(1, 4)))
        rates[give] -= step
        rates[take] += step
        out.append(RateVector(tuple(rates)))
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=2, max_value=6),
    st.sampled_from(["packets", "entropy"]),
    st.sampled_from(["split", "vertex", "sum", "integer"]),
)
def test_integer_membership_matches_the_fraction_loop(seed, n, kind, shape):
    rng = random.Random(seed)
    if kind == "packets":
        model = random_packet_model(rng, n_users=n)
    else:
        model = random_entropy_table(rng, n)
    h_total = model.entropy(model.full_mask)
    # below, at and above H(V): the core may be empty, a point or wide
    alpha = max(h_total + Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), Fraction(0))
    game = Game(model, alpha)
    for r in rate_vectors(rng, game, shape):
        assert in_core(game, r) == fraction_in_core(game, r)
        assert in_core(game, r, integer_mode=True) == fraction_in_core(game, r, integer_mode=True)
        assert dual_membership(game, r) == fraction_dual_membership(game, r)


def test_every_witness_kind_is_drawn():
    # the shapes above reach members and all four failure kinds
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        model = random_entropy_table(rng, 4)
        game = Game(model, model.entropy(model.full_mask) + Fraction(rng.randint(0, 2), 2))
        for shape in ("split", "vertex", "sum", "integer"):
            for r in rate_vectors(rng, game, shape):
                seen.add(in_core(game, r, integer_mode=True).kind)
                seen.add(dual_membership(game, r).kind)
    assert seen == {None, "sum", "coalition", "fractional", "upper"}
