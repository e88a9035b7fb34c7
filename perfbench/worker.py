"""One benchmark worker process: imports the CLI, then runs a command list.

    python3 perfbench/worker.py ready
        import omnirate.cli, print "ready" and exit (set-up timing).
    python3 perfbench/worker.py run PLAN RESULT REPORTS [SPANS]
        run every command of PLAN through omnirate.cli.run, one after
        another, write each report to REPORTS/<index>.json and the timings
        to RESULT. With SPANS, install the tracer first and write its spans
        there.

Only the cli.run call is timed. The reports are checked by the parent, so
this process's peak memory is the CLI's own.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from omnirate import cli  # noqa: E402


def run_plan(commands: list[dict], reports: str, tracer=None) -> list[dict]:
    records = []
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.command = command["id"]
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            code = cli.run(command["argv"], out=out, err=err)
        except Exception as exc:  # a crash is a failed command, not a dead run
            code, text = None, f"raised {exc!r}"
        else:
            text = out.getvalue()
        seconds = time.perf_counter() - started
        with open(os.path.join(reports, f"{index}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        records.append({"id": command["id"], "seconds": seconds, "exit": code, "bytes": len(text)})
    return records


def main(argv: list[str]) -> int:
    if argv[:1] == ["ready"]:
        print("ready", flush=True)
        return 0
    if argv[:1] != ["run"] or len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 1
    with open(argv[1], encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    tracer = None
    if len(argv) == 5:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = run_plan(commands, argv[3], tracer)
    result = {
        "commands": records,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        tracer.write(argv[4])
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
