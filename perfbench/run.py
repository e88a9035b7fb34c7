"""omnirate benchmark: seeded CLI workloads in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One client, one worker process, one thread: each command goes to
``omnirate.cli.run`` only after the previous one returned. A run is a fixed
command list of whole rounds (see workloads.json); the round count is
``--seconds`` divided by the round's time at the commit that defined the
benchmark, so every commit runs the same work. Each round gets fresh models,
so no model file is read twice in a run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced worker that reruns
the same commands after an untraced one. ``--smoke`` shrinks every model to
n <= 5 and one round. ``--record-digests`` (default seed only) stores the
digest of every report as the expected one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
from checks import check, report_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CONF = os.path.join(HERE, "workloads.json")
DIGESTS = os.path.join(HERE, "expected_digests.json")
CACHE = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0

PER_LAYER = [
    "sumrate.min_sum_rate_asymptotic.self_s",
    "sumrate.mmi.self_s",
    "sumrate.mmi.calls",
    "combinatorics.partitions.yielded",
    "sumrate.core_nonempty.self_s",
    "combinatorics.partition_min_table.self_s",
    "combinatorics.partition_min_table.calls",
    "game.dual_table.self_s",
    "dilworth.dilworth_truncate.self_s",
    "dilworth.convex_characteristic.self_s",
    "game.in_core.self_s",
    "game.in_core.calls",
    "game.dual_membership.self_s",
    "allocation.shapley.self_s",
    "allocation.greedy_vertices.self_s",
    "allocation.fairness_compare.self_s",
    "allocation.enumerate_integer_core.self_s",
    "allocation.enumerate.leaves",
    "allocation.enumerate.yield",
    "models.load_model.self_s",
    "models.validate_polymatroid.self_s",
    "models.model_digest.self_s",
    "models.entropy.calls",
    "cli.run.self_s",
    "cli.cmd.self_s",
    "cli.report_bytes",
    "trace.overhead_frac",
    "failed_frac",
]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.report_bytes":
        return "bytes"
    if name.endswith(("yield", "_frac")):
        return "ratio"
    return "count"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_plan(workload: str, spec: dict, seed: int, rounds: int) -> tuple[str, list[dict]]:
    """Generate (or reuse) the seeded models and command list; untimed."""
    with open(gen.__file__, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(
        source + json.dumps([spec, seed, rounds], sort_keys=True).encode()
    ).hexdigest()[:12]
    out_dir = os.path.join(CACHE, f"{workload}-s{seed}-{key}")
    plan_path = os.path.join(out_dir, "plan.json")
    if os.path.exists(plan_path):
        with open(plan_path, encoding="utf-8") as fh:
            return out_dir, json.load(fh)["commands"]
    commands = gen.build_plan(workload, spec, seed, rounds, os.path.join(out_dir, "models"))
    for command in commands:  # relative paths keep reports free of the checkout path
        command["argv"][1] = os.path.relpath(command["argv"][1], ROOT)
    with open(plan_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump({"commands": commands}, fh)
    os.replace(plan_path + ".tmp", plan_path)
    return out_dir, commands


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("OMNI_MAX_USERS", None)
    return env


def time_setup(spawns: int, deadline: float) -> list[float]:
    """Seconds from spawn until a fresh worker has imported omnirate.cli."""
    samples = []
    for _ in range(spawns + 1):  # the first spawn is a warm-up (bytecode cache)
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, "ready"], cwd=ROOT, env=worker_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("worker failed to import omnirate.cli")
        samples.append(ready)
    return samples[1:]


def run_worker(out_dir: str, commands: list[dict], deadline: float, trace: bool) -> dict:
    """Run ``commands`` in one fresh worker, then check every report."""
    tag = "traced" if trace else "plain"
    plan = os.path.join(out_dir, f"{tag}-plan.json")
    result = os.path.join(out_dir, f"{tag}-result.json")
    reports = os.path.join(out_dir, f"{tag}-reports")
    os.makedirs(reports, exist_ok=True)
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands}, fh)
    if os.path.exists(result):
        os.remove(result)
    argv = [sys.executable, WORKER, "run", plan, result, reports]
    if trace:
        argv.append(os.path.join(out_dir, "spans.jsonl"))
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past the time limit")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(result, encoding="utf-8") as fh:
        outcome = json.load(fh)
    for index, (command, record) in enumerate(zip(commands, outcome["commands"])):
        report = None
        if record["exit"] is not None:
            with open(os.path.join(reports, f"{index}.json"), encoding="utf-8") as fh:
                text = fh.read()
            try:
                report = json.loads(text) if text else None
            except json.JSONDecodeError:
                pass
        record["digest"] = report_digest(report) if report is not None else None
        record["problems"] = check(command["expect"], record["exit"], report)
    shutil.rmtree(reports)  # up to MBs a run; the digests keep what is needed
    return outcome


def tail(seconds: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile (the maximum when there are ten samples or fewer)."""
    ordered = sorted(seconds)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(records: list[dict], setup: list[float], rss_mb: float) -> tuple[dict, str]:
    seconds = [r["seconds"] for r in records]
    tail_s, pct = tail(seconds)
    metrics = {
        "solves_per_s": (len(seconds) / sum(seconds), "1/s"),
        "solve_p50_s": (statistics.median(seconds), "s"),
        "solve_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    note = f"solve_tail_s is p{pct:.1f} of {len(seconds)} samples; setup_s is the median of {len(setup)} spawns"
    return metrics, note


def per_layer(layers: dict, traced: list[dict], plain: list[dict], failed: int, attempted: int) -> dict:
    vectors = layers.get("allocation.enumerate.vectors", 0)
    leaves = layers.get("allocation.enumerate.leaves", 0)
    derived = {
        "allocation.enumerate.yield": vectors / leaves if leaves else 0.0,
        "cli.report_bytes": sum(r["bytes"] for r in traced),
        "trace.overhead_frac": sum(r["seconds"] for r in traced)
        / sum(r["seconds"] for r in plain) - 1.0,
        "failed_frac": failed / attempted,
    }
    return {
        name: (derived[name] if name in derived else layers.get(name, 0), unit_of(name))
        for name in PER_LAYER
    }


def record_digests(workload: str, size: str, records: list[dict]) -> None:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[size] = {r["id"]: r["digest"] for r in records}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    with open(CONF, encoding="utf-8") as fh:
        conf = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(conf["workloads"]))
    parser.add_argument("--seed", type=int, default=conf["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    for needed in ("src/omnirate/cli.py", "tests/oracles.py"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return _fail(f"{needed} not found; run from a full checkout of the repository")
    if args.record_digests and args.seed != conf["default_seed"]:
        return _fail("--record-digests needs the default seed")

    workload = conf["workloads"][args.workload]
    spec = dict(workload["generator"], **(workload["smoke"] if args.smoke else {}))
    rounds = 1 if args.smoke else max(1, round(args.seconds / workload["round_s"]))
    size = "smoke" if args.smoke else "full"
    started = time.monotonic()
    out_dir, commands = load_plan(args.workload, spec, args.seed, rounds)
    generated = time.monotonic()
    if args.seed == conf["default_seed"] and not args.record_digests:
        try:
            with open(DIGESTS, encoding="utf-8") as fh:
                expected = json.load(fh).get(args.workload, {}).get(size, {})
        except FileNotFoundError:
            expected = {}
        for command in commands:
            if command["id"] in expected:
                command["expect"]["digest"] = expected[command["id"]]

    try:
        # set-up time is an end-to-end metric only, so the traced run skips it
        if not args.trace:
            setup = time_setup(2 if args.smoke else conf["setup_spawns"], deadline)
        plain = run_worker(out_dir, commands, deadline, trace=False)
        runs = [plain]
        if args.trace:
            runs.append(run_worker(out_dir, commands, deadline, trace=True))
    except RuntimeError as exc:
        return _fail(str(exc))

    records = [r for run in runs for r in run["commands"]]
    failures = [r for r in records if r["problems"]]
    for r in failures[:10]:
        print(f"FAILED {r['id']}: {'; '.join(r['problems'])}", file=sys.stderr)
    if args.record_digests and not failures:
        record_digests(args.workload, size, plain["commands"])

    if args.trace:
        metrics = per_layer(
            runs[1]["layers"], runs[1]["commands"], plain["commands"], len(failures), len(records)
        )
        note = f"per-layer totals over {len(commands)} traced commands"
    else:
        metrics, note = end_to_end(plain["commands"], setup, plain["peak_rss_mb"])
    print(
        f"# {args.workload} seed={args.seed} rounds={rounds}: {note}; "
        f"generation {generated - started:.1f} s, total {time.monotonic() - started:.1f} s"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
