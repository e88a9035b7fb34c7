"""Spans and counters around the library's public functions, installed from
outside the package by rebinding each function at its defining module and at
every module that imported it by name.

A span records (name, start, end, parent span, command id). Spans stay in
memory until the run ends. A layer's self time is its span durations minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function): one span per call, named "<module>.<function>".
SPANS = [
    ("sumrate", "min_sum_rate_asymptotic"),
    ("sumrate", "min_sum_rate_non_asymptotic"),
    ("sumrate", "mmi"),
    ("sumrate", "core_nonempty"),
    ("combinatorics", "partition_min_table"),
    ("game", "in_core"),
    ("game", "dual_membership"),
    ("dilworth", "dilworth_truncate"),
    ("dilworth", "convex_characteristic"),
    ("allocation", "shapley"),
    ("allocation", "greedy_vertices"),
    ("allocation", "fairness_compare"),
    ("allocation", "enumerate_integer_core"),
    ("models", "load_model"),
    ("models", "validate_polymatroid"),
    ("models", "model_digest"),
    ("cli", "run"),
]
# (module, class, method): one span per call.
METHOD_SPANS = [("game", "Game", "dual_table")]
# (module, class, method): counted under one shared name, no span; these
# are called per subset, and a span each would cost more than the call.
METHOD_COUNTS = [
    ("models", "PacketModel", "entropy", "models.entropy.calls"),
    ("models", "EntropyTable", "entropy", "models.entropy.calls"),
]
ENUMERATE = "allocation.enumerate_integer_core"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command id]
        self.counters: dict[str, int] = {}
        self.command = None
        self._stack: list[int] = []

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_yields(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[name] += 1
                yield item

        return wrapper

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self) -> None:
        """Wrap every target in the already-imported ``omnirate`` package."""
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "omnirate"]

        def rebind(original, wrapper):
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        def lookup(module: str, attr: str):
            return getattr(sys.modules[f"omnirate.{module}"], attr)

        for module, fn in SPANS:
            name = f"{module}.{fn}"
            hook = None
            if name == ENUMERATE:
                hook = lambda vectors: self.add("allocation.enumerate.vectors", len(vectors))
            original = lookup(module, fn)
            rebind(original, self.span(name, original, hook))
        original = lookup("combinatorics", "partitions")
        rebind(original, self.count_yields("combinatorics.partitions.yielded", original))
        for module, cls, method in METHOD_SPANS:
            owner = lookup(module, cls)
            setattr(owner, method, self.span(f"{module}.{method}", getattr(owner, method)))
        for module, cls, method, name in METHOD_COUNTS:
            owner = lookup(module, cls)
            setattr(owner, method, self.count(name, getattr(owner, method)))
        # COMMANDS holds the cmd_* functions by value, so rebind its entries.
        commands = lookup("cli", "COMMANDS")
        for key, fn in commands.items():
            commands[key] = self.span("cli.cmd", fn)

    def layer_totals(self) -> dict[str, float]:
        """Per span name: summed self seconds and call count, plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = dict(self.counters)
        leaves = 0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child[index]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if name == "game.in_core" and parent >= 0 and self.spans[parent][0] == ENUMERATE:
                leaves += 1
        out["allocation.enumerate.leaves"] = leaves
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
