"""Source models: entropy oracles over subsets of a finite user set.

Two concrete models are supported:

* :class:`PacketModel` - each user holds a finite set of packets; the entropy
  of a user subset is the number of distinct packets it holds. Integer-valued,
  so it feeds both the asymptotic and the integer-rate branches.
* :class:`EntropyTable` - an explicit table of rational entropies for every
  subset, for models that are not packet-based. Tables must pass the
  polymatroid checks (normalized, monotone, submodular) before anything
  downstream is trusted; :func:`load_model` enforces that by default.

Model file format (JSON, UTF-8)::

    {"type": "packets",
     "users": {"1": ["a","b","c","d","e"], "2": ["a","b","f"], "3": ["c","d","f"]}}

    {"type": "entropy",
     "users": ["1","2","3"],
     "entries": [{"set": [], "H": "0"}, {"set": ["1"], "H": "5"}, ...]}

Entropy values are exact rationals written as strings ("5", "5/2", "2.5");
floats are rejected. The order of "users" fixes the bit-mask index order
0..|V|-1. An entry is required for every one of the 2^|V| subsets. An
optional "unit" field is carried through to reports but never interpreted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import ge, sub
from typing import Iterable, Mapping, Sequence

from .combinatorics import bits, halves, subsets
from .rationals import parse_pair, ratio_text, scale_pairs


class ModelFormatError(ValueError):
    """The model file or dict is structurally unusable."""


class InvalidModelError(ValueError):
    """A structurally complete entropy table violates the polymatroid axioms."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(
            f"entropy table is not a polymatroid ({len(report.violations)} violation(s); "
            f"first: {report.violations[0].detail})"
        )
        self.report = report


class IntegralityError(ValueError):
    """Integer rates asked for where an entropy or alpha is fractional."""


class SourceModel:
    """Base class: a user set plus an entropy function H on its subsets."""

    kind = "abstract"
    # H on every subset as (h, den): H(X) = h[X] / den over one common
    # denominator, h indexed by mask. Each subclass fills it; do not mutate it.
    entropy_table: tuple[list[int], int]

    def __init__(self, users: Sequence[str], unit: str | None = None):
        users = tuple(str(u) for u in users)
        if len(set(users)) != len(users):
            raise ModelFormatError("duplicate user ids")
        # --order and CSV rows split ids on commas, and --order strips them
        for u in users:
            if not u or "," in u or u != u.strip():
                raise ModelFormatError(
                    f"user id {u!r} cannot be named: ids must be nonempty, "
                    "without commas or surrounding spaces"
                )
        if len(users) < 2:
            raise ModelFormatError(f"need more than one user, got {len(users)}")
        self.users = users
        self.unit = unit
        self.n = len(users)
        self.full_mask = (1 << self.n) - 1
        self._index = {u: i for i, u in enumerate(users)}

    def index_of(self, user: str) -> int:
        try:
            return self._index[user]
        except KeyError:
            raise ModelFormatError(f"unknown user id {user!r}") from None

    def mask_from_ids(self, ids: Iterable[str]) -> int:
        m = 0
        for u in ids:
            m |= 1 << self.index_of(str(u))
        return m

    def ids_from_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.users[i] for i in bits(mask))

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#b} is not a subset of the user set")

    def entropy(self, mask: int) -> Fraction:
        """H(Z_X) for the subset X given as a bit-mask."""
        self._check_mask(mask)
        h, den = self.entropy_table
        return Fraction(h[mask], den)

    def is_integral(self) -> bool:
        """True when every subset entropy is an integer."""
        return self.entropy_table[1] == 1

    def require_integral(self) -> None:
        """Raise :class:`IntegralityError` unless :meth:`is_integral`."""
        if not self.is_integral():
            raise IntegralityError(
                "integer rates need integer entropies; this model has fractional values"
            )


class PacketModel(SourceModel):
    """Users hold packet sets; H(X) counts the distinct packets in X."""

    kind = "packets"

    def __init__(self, packets: Mapping[str, Iterable[str]], unit: str | None = None):
        super().__init__(list(packets), unit)
        universe: list[str] = sorted({str(p) for ps in packets.values() for p in ps})
        pindex = {p: i for i, p in enumerate(universe)}
        self.packet_sets = tuple(
            frozenset(str(p) for p in packets[u]) for u in self.users
        )
        self._packet_masks = tuple(
            sum(1 << pindex[p] for p in ps) for ps in self.packet_sets
        )

    @cached_property
    def entropy_table(self) -> tuple[list[int], int]:
        # subset-union DP: the masks with user i are those without it, plus i
        unions = [0]
        for held in self._packet_masks:
            unions += [u | held for u in unions]
        return [u.bit_count() for u in unions], 1


class EntropyTable(SourceModel):
    """Explicit rational entropy for every subset of the user set, held as
    the one integer table ``entropy_table`` = ``(h, den)``: H(X) = h[X] / den.

    The constructor only checks structural completeness; call
    :func:`validate_polymatroid` (or load with ``validate=True``) to check
    the entropy axioms.
    """

    kind = "entropy"

    def __init__(self, users: Sequence[str], values: Mapping[int, object], unit: str | None = None):
        # H(X) = values[X] as a rational, or as the reduced pair (p, q) model
        # files arrive as: the table is built on ints from the pairs
        super().__init__(users, unit)
        self._check_subsets(values)
        self.entropy_table = scale_pairs([
            v if type(v) is tuple else Fraction(v).as_integer_ratio()
            for v in map(values.__getitem__, range(self.full_mask + 1))
        ])

    def _check_subsets(self, table: Mapping[int, object]) -> None:
        full = self.full_mask
        extra = [m for m in table if m < 0 or m & ~full]
        # every mask not in the table is missing: count them without a scan
        # of all 2^n masks, and name the first five
        missing = full + 1 - (len(table) - len(extra))
        if missing:
            first = islice((m for m in range(full + 1) if m not in table), 5)
            names = ", ".join("{" + ",".join(self.ids_from_mask(m)) + "}" for m in first)
            raise ModelFormatError(
                f"entropy table is missing {missing} subset(s), e.g. {names}"
            )
        if extra:
            raise ModelFormatError(f"entropy table has {len(extra)} entries outside the user set")


@dataclass(frozen=True)
class Violation:
    kind: str  # "normalization" | "monotonicity" | "submodularity"
    sets: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_polymatroid(model: SourceModel) -> ValidationReport:
    """Check that the model's entropy function is a polymatroid rank function.

    One fast check decides. It makes n*2^(n-1) + n(n-1)/2 * 2^(n-2)
    integer comparisons on ``model.entropy_table``, each side split off by
    :func:`~omnirate.combinatorics.halves`: H(empty) = 0, single-step
    monotonicity H(X+i) >= H(X), and the elementary inequalities
    H(X+i) + H(X+j) >= H(X+i+j) + H(X) for i < j outside X. These imply
    submodularity on every pair (Fujishige, *Submodular Functions and
    Optimization*), so their failures are a complete certificate: the report
    is empty exactly when the table is a polymatroid. A failing user i or
    pair i < j then scans the masks X that hold neither user for witnesses.
    The report lists H(empty) != 0, then every failing step (X, X+i) by X
    and then i, then every failing elementary pair (X+j, X+i) by (X+j, X+i);
    at most 1 + n*2^(n-1) + n(n-1)/2 * 2^(n-2) entries.
    """
    h, den = model.entropy_table
    steps: list[tuple[int, int]] = []  # failing (X, X+i)
    pairs: list[tuple[int, int]] = []  # failing (X+j, X+i)
    # For user i, gain[X] = h(X+i) - h(X) on the masks X without i, indexed
    # with bit i dropped. A step fails where a gain is < 0, and the
    # elementary inequality for j > i where gain[X] < gain[X+j] (it is
    # symmetric in i and j); bit j of a mask is bit j - 1 of gain's index.
    for i in range(model.n):
        bi = 1 << i
        without, with_i = halves(h, i)
        gain = list(map(sub, with_i, without))
        if min(gain) < 0:
            steps += [(x, x | bi) for x in subsets(model.full_mask ^ bi) if h[x | bi] < h[x]]
        for j in range(i + 1, model.n):
            if not all(map(ge, *halves(gain, j - 1))):
                bj = 1 << j
                pairs += [
                    (x | bj, x | bi)
                    for x in subsets(model.full_mask ^ bi ^ bj)
                    if h[x | bi] + h[x | bj] < h[x | bi | bj] + h[x]
                ]

    def name(mask: int) -> str:
        return "{" + ",".join(model.ids_from_mask(mask)) + "}"

    def value(mask: int) -> str:
        return ratio_text(h[mask], den)

    out = [Violation("normalization", (0,), f"H(empty)={value(0)}, expected 0")] if h[0] else []
    out += [
        Violation("monotonicity", (x, y), f"H({name(x)})={value(x)} > H({name(y)})={value(y)}")
        for x, y in sorted(steps)
    ]
    out += [
        Violation(
            "submodularity",
            (x, y),
            f"H({name(x)})+H({name(y)}) < H({name(x | y)})+H({name(x & y)})",
        )
        for x, y in sorted(pairs)
    ]
    return ValidationReport(tuple(out))


def model_from_dict(obj: object) -> SourceModel:
    """Build a SourceModel from a parsed model-file dict (no axiom checks)."""
    if not isinstance(obj, dict):
        raise ModelFormatError("model file must contain a JSON object")
    kind = obj.get("type")
    unit = obj.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise ModelFormatError("\"unit\" must be a string")
    if kind == "packets":
        users = obj.get("users")
        if not isinstance(users, dict) or not users:
            raise ModelFormatError("packets model needs a \"users\" object")
        packets: dict[str, list[str]] = {}
        for u, ps in users.items():
            if not isinstance(ps, list) or not all(isinstance(p, str) for p in ps):
                raise ModelFormatError(f"packet list of user {u!r} must be a list of strings")
            packets[str(u)] = ps
        return PacketModel(packets, unit)
    if kind == "entropy":
        users = obj.get("users")
        if not isinstance(users, list) or not all(isinstance(u, str) for u in users):
            raise ModelFormatError("entropy model needs a \"users\" list of strings")
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise ModelFormatError("entropy model needs an \"entries\" list")
        bit = {u: 1 << i for i, u in enumerate(users)}
        if len(bit) != len(users):
            raise ModelFormatError("duplicate user ids")
        pairs: dict[int, tuple[int, int]] = {}
        for entry in entries:
            if not isinstance(entry, dict) or "set" not in entry or "H" not in entry:
                raise ModelFormatError(f"bad entropy entry: {entry!r}")
            ids = entry["set"]
            if not isinstance(ids, list):
                raise ModelFormatError(f"bad subset in entry: {entry!r}")
            mask = 0
            try:
                for u in ids:
                    mask |= bit[u]
            except (KeyError, TypeError):
                # a non-string id is reported first, then the first unknown one
                if not all(isinstance(u, str) for u in ids):
                    raise ModelFormatError(f"bad subset in entry: {entry!r}") from None
                unknown = next(u for u in ids if u not in bit)
                raise ModelFormatError(f"unknown user id {unknown!r} in entry") from None
            if mask in pairs:
                raise ModelFormatError(f"duplicate entry for subset {ids!r}")
            try:
                pairs[mask] = parse_pair(entry["H"])
            except ValueError as exc:
                raise ModelFormatError(str(exc)) from None
        return EntropyTable(users, pairs, unit)
    raise ModelFormatError(f"unknown model type {kind!r} (expected \"packets\" or \"entropy\")")


def _reject_duplicate_keys(pairs):
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ModelFormatError(f"duplicate key {key!r} in model file")
            seen.add(key)
    return out


def _read_json(path: str) -> object:
    """The parsed JSON of a model file, before any check of its body."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_reject_duplicate_keys)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an int over the digit limit, or too deep nesting
        raise ModelFormatError(f"malformed JSON in {path}: {exc}") from exc


def load_model(path: str, *, validate: bool = True) -> SourceModel:
    """Load a model file; with ``validate`` (default) reject non-polymatroids.

    Packet models are skipped by validation: union cardinality is a matroid
    rank, hence always a polymatroid.
    """
    return _build_model(_read_json(path), validate)


def _build_model(obj: object, validate: bool) -> SourceModel:
    model = model_from_dict(obj)
    if validate and isinstance(model, EntropyTable):
        report = validate_polymatroid(model)
        if not report.ok:
            raise InvalidModelError(report)
    return model


def model_digest(model: SourceModel) -> str:
    """SHA-256 of the model's canonical JSON, for traceable reports (README
    spells out the bytes). A table's entries are written from its ints."""
    if isinstance(model, PacketModel):
        users = {u: sorted(ps) for u, ps in zip(model.users, model.packet_sets)}
        body: dict = {"type": "packets", "users": users}
        head = "{"
    else:
        # ids[x] is ",id,id..." for the users in mask x: the masks with
        # user u are those without it, plus u
        ids = [""]
        for u in model.users:
            text = "," + encode_basestring_ascii(u)
            ids += [t + text for t in ids]
        h, den = model.entropy_table
        entries = ",".join(
            f'{{"H":"{ratio_text(v, den)}","set":[{t[1:]}]}}' for v, t in zip(h, ids)
        )
        body = {"type": "entropy", "users": list(model.users)}
        # "entries" sorts before every other key, where sort_keys puts it
        head = '{"entries":[' + entries + "],"
    if model.unit is not None:
        body["unit"] = model.unit
    blob = head + json.dumps(body, separators=(",", ":"), sort_keys=True)[1:]
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()
