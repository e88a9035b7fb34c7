"""Seeded model files, command lists and expected answers for each workload.

Every model comes from ``random.Random`` seeded with (seed, workload, round,
slot), so one seed always gives the same files. The minimum sum-rate that
picks each alpha and checks each ``minrate`` report comes from the
brute-force oracle in ``tests/oracles.py``, fed an entropy table this module
builds itself, so no expected answer depends on the library under test.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _oracle():
    # tests/oracles.py imports omnirate at module level, so src/ goes first.
    for sub in ("src", "tests"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    from oracles import brute_min_sum_rate

    return brute_min_sum_rate


class CoverageTable:
    """Weighted-coverage entropy H(X) = total weight of the packets X holds.

    Only what the oracle reads: ``n``, ``full_mask`` and ``entropy``. Unit
    weights are plain ints, which the oracle's Fraction sums take faster.
    """

    def __init__(self, holdings: list[set[int]], weights: list):
        self.n = len(holdings)
        self.full_mask = (1 << self.n) - 1
        self.values = []
        for mask in range(self.full_mask + 1):
            held = set()
            for i in range(self.n):
                if mask >> i & 1:
                    held |= holdings[i]
            self.values.append(sum(weights[p] for p in held))

    def entropy(self, mask: int):
        return self.values[mask]


def _holdings(rng: random.Random, n: int, packets: int, p: float) -> list[set[int]]:
    return [{k for k in range(packets) if rng.random() < p} for _ in range(n)]


def packet_model(rng: random.Random, n: int, packets: int, p: float):
    """A packet model file body and its coverage table."""
    held = _holdings(rng, n, packets, p)
    body = {
        "type": "packets",
        "users": {str(i + 1): [f"p{k:02d}" for k in sorted(h)] for i, h in enumerate(held)},
    }
    return body, CoverageTable(held, [1] * packets)


def entropy_model(rng: random.Random, n: int, packets: int, p: float, denominators):
    """A fractional weighted-coverage entropy-table file body and its table."""
    held = _holdings(rng, n, packets, p)
    weights = [Fraction(rng.randint(1, 12), rng.choice(denominators)) for _ in range(packets)]
    table = CoverageTable(held, weights)
    users = [str(i + 1) for i in range(n)]
    entries = [
        {"set": [users[i] for i in range(n) if mask >> i & 1], "H": str(table.values[mask])}
        for mask in range(table.full_mask + 1)
    ]
    return {"type": "entropy", "users": users, "entries": entries}, table


# One round of each workload: (slot name, n, command kind) for round r.
# Every slot gets its own model, so no model file is read by more than one
# command in a run. Slots of one kind are spread through the round, so that a
# slow spell of the machine does not land on every sample of one kind at once.
def _minrate_round(spec, r):
    # the mode alternates from one command to the next, across rounds too
    modes = ("asymptotic", "integer")
    first = r * len(spec["round"])
    return [
        (f"{j}-n{n}-{modes[(first + j) % 2]}", n, ("minrate", modes[(first + j) % 2]))
        for j, n in enumerate(spec["round"])
    ]


def _enum_round(spec, r):
    return [(f"n{n}-k{k}", n, ("enumerate", k)) for k in spec["k"] for n in spec["n"]]


def _entropy_round(spec, r):
    return [
        (f"{j}-n{n}-{cmd}", n, (cmd, arg))
        for cmd, arg in (("validate", 0), ("minrate", "asymptotic"), ("core", 0), ("shapley", 0))
        for j, n in enumerate(spec["round"])
    ]


ROUNDS = {
    "minrate-packets": _minrate_round,
    "enum-packets": _enum_round,
    "entropy-tables": _entropy_round,
}


def _argv_and_expect(kind, path: str, r_co: Fraction, integral: bool):
    """CLI argv for one command and what its report must show."""
    cmd, arg = kind
    expect = {"kind": cmd, "exit": 0}
    if cmd == "validate":
        return ["validate", path], expect
    ceil = Fraction(math.ceil(r_co))
    # Packet models use an integer alpha; entropy tables sit exactly at R_CO.
    alpha = ceil if integral else r_co
    if cmd == "minrate":
        expect["r_co"] = str(r_co if arg == "asymptotic" else ceil)
        argv = ["minrate", path, "--mode", arg]
    elif cmd == "core":
        argv = ["core", path, "--alpha", str(alpha)]
    elif cmd == "shapley":
        argv = ["allocate", path, "--alpha", str(alpha), "--method", "shapley"]
    else:  # enumerate at ceil(R_CO) + arg
        alpha += arg
        argv = ["allocate", path, "--alpha", str(alpha), "--method", "enumerate"]
    expect["alpha"] = str(alpha)
    return argv, expect


def _make(workload: str, spec: dict, seed: int, r: int, slot, out_dir: str) -> dict:
    """Write one model file and return its command with the expected answer."""
    name, n, kind = slot
    rng = random.Random(f"{seed}/{workload}/{r}/{name}")
    if spec["model"] == "entropy":
        body, table = entropy_model(rng, n, spec["packets"], spec["p"], spec["denominators"])
    else:
        body, table = packet_model(rng, n, spec["packets"], spec["p"])
    path = os.path.join(out_dir, f"r{r}-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh)
    r_co = None if kind[0] == "validate" else _oracle()(table)
    argv, expect = _argv_and_expect(kind, path, r_co, spec["model"] == "packets")
    return {"id": f"r{r}/{name}", "argv": argv, "expect": expect}


def build_plan(workload: str, spec: dict, seed: int, rounds: int, out_dir: str) -> list[dict]:
    """Write ``rounds`` rounds of model files under ``out_dir``; return the commands.

    Each command is {"id", "argv", "expect"}; ids are "r<round>/<slot>".
    """
    os.makedirs(out_dir, exist_ok=True)
    return [
        _make(workload, spec, seed, r, slot, out_dir)
        for r in range(rounds)
        for slot in ROUNDS[workload](spec, r)
    ]
