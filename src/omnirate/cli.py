"""Command-line interface.

Commands: validate, minrate, core, allocate, polyhedron. Reports are JSON
(default) or CSV, printed to stdout; every rational appears as an exact
lowest-terms string plus a float convenience value.

Exit codes:
  0  success
  1  I/O, parse, or usage error (bad file, bad flag values, bad rationals),
     or a result past the float range or the int/str digit limit
  2  model fails the entropy-function validation
  3  core is empty at the requested sum-rate
  4  inapplicable mode: integer rates on fractional entropies or alpha (minrate
     --mode integer, allocate --method enumerate), or the OMNI_MAX_USERS guard
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import __version__
from .allocation import (
    Allocation,
    enumerate_integer_core,
    fairness_compare,
    greedy_vertex,
    greedy_vertices,
    jain_or_none,
    shapley,
)
from .combinatorics import Partition, flip, subsets
from .dilworth import dilworth_truncate
from .game import Game, RateVector, dual_membership, in_core
from .models import (
    IntegralityError,
    InvalidModelError,
    ModelFormatError,
    SourceModel,
    _build_model,
    _read_json,
    model_digest,
    validate_polymatroid,
)
from .rationals import format_rational, parse_rational, ratio_text
from .sumrate import (
    core_nonempty,
    min_sum_rate_asymptotic,
    min_sum_rate_non_asymptotic,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID_MODEL = 2
EXIT_CORE_EMPTY = 3
EXIT_INAPPLICABLE = 4

DEFAULT_MAX_USERS = 12


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _q(x: Fraction) -> dict:
    return _ratio_json(x.numerator, x.denominator)


def _ratio_json(num: int, den: int) -> dict:
    # num / den is float(Fraction(num, den)) bit for bit, OverflowError included
    return {"rational": ratio_text(num, den), "decimal": num / den}


def _qv(rates) -> dict:
    rates = list(rates)
    return {
        "rational": list(map(format_rational, rates)),
        "decimal": list(map(float, rates)),
    }


def _partition_json(model: SourceModel, part: Partition) -> list[list[str]]:
    return [list(model.ids_from_mask(b)) for b in part.blocks]


def _subset_json(model: SourceModel, mask: int) -> list[str]:
    return list(model.ids_from_mask(mask))


def _allocation_json(method: str, order: list[str] | None, rates, jain) -> dict:
    return {
        "method": method,
        "order": order,
        "rates": _qv(rates),
        "jain": _q(jain) if jain is not None else None,
    }


def _vertex_json(model: SourceModel, alloc: Allocation) -> dict:
    order = [model.users[i] for i in alloc.order] if alloc.order is not None else None
    return _allocation_json(alloc.method, order, alloc.rates, alloc.jain)


def _load(args, validate: bool) -> SourceModel:
    text = os.environ.get("OMNI_MAX_USERS", str(DEFAULT_MAX_USERS))
    # int() would also take signs, spaces, underscores and non-ASCII digits
    if not (text.isascii() and text.isdigit()):
        raise CliError(
            EXIT_INPUT, f"OMNI_MAX_USERS must be a nonnegative integer, got {text!r}"
        )
    guard = int(text)
    try:
        obj = _read_json(args.model)
        # count the users before the 2^n-entry table is built and validated
        users = obj.get("users") if isinstance(obj, dict) else None
        if isinstance(users, (list, dict)) and len(users) > guard:
            raise CliError(
                EXIT_INAPPLICABLE,
                f"model has {len(users)} users, above the OMNI_MAX_USERS guard ({guard}); "
                "the algorithms here are exponential by design",
            )
        return _build_model(obj, validate)
    except InvalidModelError as exc:
        raise CliError(EXIT_INVALID_MODEL, str(exc)) from exc
    except ModelFormatError as exc:
        raise CliError(EXIT_INPUT, str(exc)) from exc


def _parse_alpha(text: str) -> Fraction:
    try:
        alpha = parse_rational(text)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad --alpha: {exc}") from exc
    if alpha < 0:
        raise CliError(EXIT_INPUT, f"--alpha must be nonnegative, got {text}")
    return alpha


def _parse_rates(model: SourceModel, text: str) -> RateVector:
    parts = text.split(",")
    if len(parts) != model.n:
        raise CliError(
            EXIT_INPUT, f"--rates has {len(parts)} entries for {model.n} users"
        )
    try:
        return RateVector(tuple(parse_rational(p) for p in parts))
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"bad --rates: {exc}") from exc


def _parse_order(model: SourceModel, text: str) -> tuple[int, ...]:
    ids = [p.strip() for p in text.split(",")]
    if sorted(ids) != sorted(model.users):
        raise CliError(
            EXIT_INPUT,
            f"--order must be a permutation of the users {','.join(model.users)}",
        )
    return tuple(model.index_of(u) for u in ids)


def cmd_validate(args, model: SourceModel, out: dict) -> int:
    report = validate_polymatroid(model)
    out["results"] = {
        "valid": report.ok,
        "model_type": model.kind,
        "users": list(model.users),
        "unit": model.unit,
        "violations": [
            {
                "kind": v.kind,
                "sets": [_subset_json(model, m) for m in v.sets],
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }
    return EXIT_OK if report.ok else EXIT_INVALID_MODEL


def cmd_minrate(args, model: SourceModel, out: dict) -> int:
    if args.mode == "asymptotic":
        rep = min_sum_rate_asymptotic(model)
        identity = rep.h_total - rep.mmi
    else:
        rep = min_sum_rate_non_asymptotic(model)
        identity = rep.h_total - math.floor(rep.mmi)
    out["results"] = {
        "mode": args.mode,
        "r_co": _q(rep.r_co),
        "mmi": _q(rep.mmi),
        "h_total": _q(rep.h_total),
        "h_total_minus_mmi": _q(identity),
        "identity_holds": identity == rep.r_co,
        # always empty; kept so that minrate reports stay byte-identical
        "flags": [],
    }
    out["certificates"] = {
        "argmax_partition": _partition_json(model, rep.argmax_partition),
        # MMI is minimised by the same partition (I = H(V) - R_CO per partition)
        "mmi_partition": _partition_json(model, rep.argmax_partition),
    }
    return EXIT_OK


def cmd_core(args, model: SourceModel, out: dict) -> int:
    alpha = _parse_alpha(args.alpha)
    game = Game(model, alpha)
    if args.rates is None:
        trunc = core_nonempty(game)
        out["results"] = {
            "alpha": _q(alpha),
            "nonempty": trunc.core_nonempty,
            "partition_min": _q(trunc.partition_min),
        }
        out["certificates"] = {
            "min_partition": _partition_json(model, trunc.certificate),
        }
        return EXIT_OK if trunc.core_nonempty else EXIT_CORE_EMPTY
    r = _parse_rates(model, args.rates)
    decision = in_core(game, r, integer_mode=args.integer)
    dual = dual_membership(game, r) if r.total() == alpha else None
    out["results"] = {
        "alpha": _q(alpha),
        "rates": _qv(r),
        "member": decision.holds,
        "integer_mode": args.integer,
        "dual_form_member": dual.holds if dual is not None else None,
    }
    if not decision.holds:
        out["certificates"]["witness"] = {
            "kind": decision.kind,
            "subset": _subset_json(model, decision.witness)
            if decision.kind in ("coalition", "sum", "upper")
            else model.users[decision.witness],
            "detail": decision.detail,
        }
    return EXIT_OK


def cmd_allocate(args, model: SourceModel, out: dict) -> int:
    alpha = _parse_alpha(args.alpha)
    game = Game(model, alpha)
    results = out["results"]
    results["alpha"] = _q(alpha)
    results["method"] = args.method
    if args.method == "enumerate":
        vectors = enumerate_integer_core(game)
        results["allocations"] = [
            _allocation_json("enumerated", None, r, jain_or_none(r)) for r in vectors
        ]
        results["count"] = len(vectors)
        nonempty = bool(vectors)
    else:
        # shapley reads no order; a bad one for greedy is an input error on any core
        order = None
        if args.method == "greedy" and args.order is not None:
            order = _parse_order(model, args.order)
        trunc = dilworth_truncate(game)
        nonempty = trunc.core_nonempty
        if nonempty:
            if args.method == "shapley":
                allocs, partial = [shapley(trunc)], False
            elif order is not None:
                allocs, partial = [greedy_vertex(trunc, order)], False
            else:
                allocs, partial = greedy_vertices(trunc)
                allocs = fairness_compare(allocs)
            results["allocations"] = [_vertex_json(model, a) for a in allocs]
            results["partial"] = partial
            # a nonempty core makes the Dilworth-truncated game convex, so its Shapley
            # value and greedy vertices lie in the core (Shapley 1971; Edmonds 1970)
            results["in_core"] = [True] * len(allocs)
    if nonempty:
        return EXIT_OK
    r_co = min_sum_rate_asymptotic(model).r_co
    results["core_empty"] = True
    results["r_co"] = _q(r_co)
    results["detail"] = (
        f"core is empty at alpha={format_rational(alpha)}; "
        f"minimum sum-rate is {format_rational(r_co)}"
    )
    return EXIT_CORE_EMPTY


def cmd_polyhedron(args, model: SourceModel, out: dict) -> int:
    """The dual constraints, the truncated-dual and convex-characteristic
    tables, and the core's greedy vertices as :func:`greedy_vertices` lists
    them: every vertex up to 8 users, a fixed sample of join orders above
    that, flagged by ``partial_vertices``."""
    alpha = _parse_alpha(args.alpha)
    trunc = dilworth_truncate(Game(model, alpha))
    constraints = [
        {"set": _subset_json(model, x), "upper_bound": _ratio_json(trunc.dual[x], trunc.den)}
        for x in subsets(model.full_mask, nonempty=True)
    ]
    truncated = [
        {"set": _subset_json(model, x), "value": _ratio_json(trunc.table[x], trunc.den)}
        for x in subsets(model.full_mask)
    ]
    convex = flip(trunc.table)  # the convex game's characteristic function
    convex_rows = [
        {"set": _subset_json(model, x), "value": _ratio_json(convex[x], trunc.den)}
        for x in subsets(model.full_mask)
    ]
    if trunc.core_nonempty:
        allocs, partial = greedy_vertices(trunc)
        vertices = [_qv(a.rates) for a in allocs]
    else:
        vertices, partial = [], False
    out["results"] = {
        "alpha": _q(alpha),
        "users": list(model.users),
        "core_empty": not trunc.core_nonempty,
        "constraints": constraints,
        "sum_constraint": {"set": list(model.users), "equals": _q(alpha)},
        "truncated_dual": truncated,
        "convex_characteristic": convex_rows,
        "vertices": vertices,
        "partial_vertices": partial,
    }
    return EXIT_OK


def _emit_csv(report: dict, out: io.TextIOBase) -> None:
    command = report["command"]
    writer = csv.writer(out, lineterminator="\n")
    results = report["results"]
    if command == "allocate" and "allocations" in results:
        writer.writerow(["method", "order", "jain", "rates"])
        for alloc in results["allocations"]:
            writer.writerow(
                [
                    alloc["method"],
                    ",".join(alloc["order"]) if alloc["order"] else "",
                    alloc["jain"]["rational"] if alloc["jain"] else "",
                    ",".join(alloc["rates"]["rational"]),
                ]
            )
        return
    if command == "polyhedron":
        writer.writerow(["kind", "set", "value"])
        for c in results["constraints"]:
            writer.writerow(["constraint<=", ",".join(c["set"]), c["upper_bound"]["rational"]])
        for t in results["truncated_dual"]:
            writer.writerow(["truncated", ",".join(t["set"]), t["value"]["rational"]])
        for v in results["vertices"]:
            writer.writerow(["vertex", "", ",".join(v["rational"])])
        return
    # generic fallback: flat key/value rows
    writer.writerow(["key", "value"])
    for key, value in results.items():
        if isinstance(value, dict) and "rational" in value:
            value = value["rational"]
        writer.writerow([key, json.dumps(value) if isinstance(value, (list, dict)) else value])


# JSON text of each scalar type a report holds, exactly as json.dumps writes it
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a report value.

    The domain is what reports hold: dicts with str keys, lists, and the
    scalars str, int, bool, None and finite float. No non-finite float
    arises, since float() of an out-of-range Fraction raises OverflowError
    (exit 1 in :func:`run`). Scalars go through the encoders json.dumps
    itself uses; a scalar dict value is written inline, and a list whose
    items share one scalar type is joined with one map. ``newline`` is the
    line break plus the indentation of the enclosing level.
    """
    kind = type(value)
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            scalar = _SCALAR_JSON.get(type(item))
            text = scalar(item) if scalar else json_text(item, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        scalar = _SCALAR_JSON.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    scalar = _SCALAR_JSON.get(kind)
    if scalar is None:
        raise TypeError(f"{kind.__name__} is not a report value")
    return scalar(value)


@functools.cache  # one parser per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnirate",
        description="Coalitional-game rate allocation for communication for omniscience.",
    )
    parser.add_argument("--version", action="version", version=f"omnirate {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model", help="path to a model JSON file")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    # listed after common, so that every report echoes model and format first
    at_alpha = argparse.ArgumentParser(add_help=False)
    at_alpha.add_argument("--alpha", required=True, help="sum-rate, e.g. 4 or 7/2 or 3.5")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "validate", parents=[common], help="check the model file and entropy axioms"
    )

    p = sub.add_parser("minrate", parents=[common], help="minimum sum-rate for omniscience")
    p.add_argument(
        "--mode",
        choices=("asymptotic", "integer"),
        default="asymptotic",
        help="divisible rates or integer rates",
    )

    p = sub.add_parser(
        "core", parents=[common, at_alpha], help="core nonemptiness or rate-vector membership"
    )
    p.add_argument("--rates", default=None, help="comma-separated rates to test")
    p.add_argument(
        "--integer", action="store_true", help="also require integer rates for membership"
    )

    p = sub.add_parser("allocate", parents=[common, at_alpha], help="compute rate allocations")
    p.add_argument(
        "--method", choices=("shapley", "greedy", "enumerate"), required=True
    )
    p.add_argument(
        "--order",
        default=None,
        help="user join order for greedy, e.g. 1,2,3 (default: all vertices)",
    )

    sub.add_parser(
        "polyhedron", parents=[common, at_alpha], help="emit plot-ready constraint and vertex data"
    )

    return parser


COMMANDS = {
    "validate": cmd_validate,
    "minrate": cmd_minrate,
    "core": cmd_core,
    "allocate": cmd_allocate,
    "polyhedron": cmd_polyhedron,
}


def run(argv: Sequence[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse prints usage errors to sys.stderr and --version or --help
        # to sys.stdout; send them to the caller's streams
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors, which collides with our
        # invalid-model code; remap to the input-error code.
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    started = time.perf_counter()
    try:
        model = _load(args, validate=args.command != "validate")
        # inputs echoes every option of the command, defaults included, in
        # the order the parser declares them; the command fills in results
        # and certificates, and timing_ms is set once it returns
        report = {
            "command": args.command,
            "model_digest": model_digest(model),
            "inputs": {k: v for k, v in vars(args).items() if k != "command"},
            "results": {},
            "certificates": {},
            "timing_ms": None,
        }
        code = COMMANDS[args.command](args, model, report)
    except CliError as exc:
        print(f"error: {exc}", file=err)
        return exc.code
    except IntegralityError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INAPPLICABLE
    except OverflowError as exc:
        # a result of valid inputs can pass the int/str digit limit or float range
        print(f"error: a result cannot be printed: {exc}", file=err)
        return EXIT_INPUT
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    if args.format == "csv":
        _emit_csv(report, out)
    else:
        out.write(json_text(report) + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
