"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
name when it installs; a renamed or deleted target makes ``--trace 1`` crash.
This checks every name it looks up against the package as imported."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = load_tracing()
    targets = [(module, (fn,)) for module, fn in tracing.SPANS]
    targets += [(module, (cls, method)) for module, cls, method in tracing.METHOD_SPANS]
    targets += [(module, (cls, method)) for module, cls, method, _ in tracing.METHOD_COUNTS]
    targets.append(("combinatorics", ("partitions",)))
    for module, path in targets:
        obj = importlib.import_module(f"omnirate.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), f"omnirate.{module}.{'.'.join(path)}"
