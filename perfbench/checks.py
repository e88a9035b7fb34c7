"""Correctness checks on one CLI report, with the standard library alone."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def report_digest(report: dict) -> str:
    """sha256 of the report's results and certificates (timing excluded)."""
    body = {"results": report.get("results"), "certificates": report.get("certificates")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sums_to(rationals: list[str], alpha: Fraction) -> bool:
    return sum((Fraction(x) for x in rationals), Fraction(0)) == alpha


def check(expect: dict, code: int | None, report: dict | None) -> list[str]:
    """Everything wrong with one command's outcome; empty when correct."""
    if code != expect["exit"]:
        return [f"exit {code}, expected {expect['exit']}"]
    if report is None:
        return ["no JSON report"]
    res = report.get("results", {})
    kind = expect["kind"]
    problems = []
    if kind == "validate":
        if res.get("valid") is not True:
            problems.append("model reported invalid")
    elif kind == "minrate":
        if res.get("r_co", {}).get("rational") != expect["r_co"]:
            problems.append(f"r_co {res.get('r_co')} != oracle {expect['r_co']}")
        if res.get("identity_holds") is not True:
            problems.append("identity_holds is not true")
    elif kind == "core":
        if res.get("nonempty") is not (code == 0):
            problems.append("nonempty disagrees with the exit code")
    elif kind in ("shapley", "enumerate"):
        alpha = Fraction(expect["alpha"])
        allocs = res.get("allocations") or []
        if not allocs:
            problems.append("no allocation reported")
        if kind == "enumerate":
            if res.get("count") != len(allocs):
                problems.append("enumeration count disagrees with the vectors listed")
        elif res.get("in_core") != [True] * len(allocs):
            problems.append("an allocation is not reported in_core")
        if not all(_sums_to(a["rates"]["rational"], alpha) for a in allocs):
            problems.append("an allocation does not sum to alpha")
    if "digest" in expect and report_digest(report) != expect["digest"]:
        problems.append("results/certificates differ from the recorded digest")
    return problems
