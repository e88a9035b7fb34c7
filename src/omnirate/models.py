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
from math import lcm
from typing import Iterable, Mapping, Sequence

from .combinatorics import bits, subsets
from .rationals import format_rational, parse_rational


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


class SourceModel:
    """Base class: a user set plus an entropy function H on its subsets."""

    kind = "abstract"

    def __init__(self, users: Sequence[str], unit: str | None = None):
        users = tuple(str(u) for u in users)
        if len(set(users)) != len(users):
            raise ModelFormatError("duplicate user ids")
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
        raise NotImplementedError

    def conditional_entropy(self, x: int, y: int) -> Fraction:
        """H(Z_X | Z_Y) = H(Z_{X union Y}) - H(Z_Y)."""
        return self.entropy(x | y) - self.entropy(y)

    @cached_property
    def entropy_table(self) -> tuple[list[int], int]:
        """H on every subset as (h, den): H(X) = h[X] / den, one common
        denominator, ``h`` indexed by mask. Built once; do not mutate it."""
        values = [self.entropy(x) for x in range(self.full_mask + 1)]
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    def is_integral(self) -> bool:
        """True when every subset entropy is an integer."""
        return self.entropy_table[1] == 1


class PacketModel(SourceModel):
    """Users hold packet sets; H(X) counts the distinct packets in X."""

    kind = "packets"

    def __init__(self, packets: Mapping[str, Iterable[str]], unit: str | None = None):
        super().__init__(list(packets), unit)
        universe: list[str] = sorted({str(p) for ps in packets.values() for p in ps})
        pindex = {p: i for i, p in enumerate(universe)}
        self.packet_universe = tuple(universe)
        self.packet_sets = tuple(
            frozenset(str(p) for p in packets[u]) for u in self.users
        )
        self._packet_masks = tuple(
            sum(1 << pindex[p] for p in ps) for ps in self.packet_sets
        )

    def entropy(self, mask: int) -> Fraction:
        self._check_mask(mask)
        union = 0
        for i in bits(mask):
            union |= self._packet_masks[i]
        return Fraction(union.bit_count())

    @cached_property
    def entropy_table(self) -> tuple[list[int], int]:
        # subset-union DP: the masks with user i are those without it, plus i
        unions = [0]
        for held in self._packet_masks:
            unions += [u | held for u in unions]
        return [u.bit_count() for u in unions], 1


class EntropyTable(SourceModel):
    """Explicit rational entropy for every subset of the user set.

    The constructor only checks structural completeness; call
    :func:`validate_polymatroid` (or load with ``validate=True``) to check
    the entropy axioms.
    """

    kind = "entropy"

    def __init__(
        self,
        users: Sequence[str],
        values: Mapping[int, Fraction],
        unit: str | None = None,
    ):
        super().__init__(users, unit)
        table = {int(m): Fraction(v) for m, v in values.items()}
        missing = [m for m in subsets(self.full_mask) if m not in table]
        if missing:
            names = ", ".join(
                "{" + ",".join(self.ids_from_mask(m)) + "}" for m in missing[:5]
            )
            raise ModelFormatError(
                f"entropy table is missing {len(missing)} subset(s), e.g. {names}"
            )
        extra = set(table) - set(subsets(self.full_mask))
        if extra:
            raise ModelFormatError(f"entropy table has {len(extra)} entries outside the user set")
        self._table = table

    def entropy(self, mask: int) -> Fraction:
        self._check_mask(mask)
        return self._table[mask]


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

    Checks H(empty)=0, monotonicity on every single-element step, and the
    submodular inequality H(X)+H(Y) >= H(X|Y)+H(X&Y) on every unordered
    incomparable pair (comparable pairs hold with equality and are skipped).
    Returns a report listing every violation found; an empty report is a pass.
    """
    h = {x: model.entropy(x) for x in subsets(model.full_mask)}
    out: list[Violation] = []

    def name(mask: int) -> str:
        return "{" + ",".join(model.ids_from_mask(mask)) + "}"

    if h[0] != 0:
        out.append(
            Violation("normalization", (0,), f"H(empty)={format_rational(h[0])}, expected 0")
        )
    for x in subsets(model.full_mask, proper=True):
        for i in bits(model.full_mask & ~x):
            y = x | (1 << i)
            if h[y] < h[x]:
                out.append(
                    Violation(
                        "monotonicity",
                        (x, y),
                        f"H({name(x)})={format_rational(h[x])} > H({name(y)})={format_rational(h[y])}",
                    )
                )
    for x in subsets(model.full_mask, nonempty=True):
        for y in subsets(model.full_mask, nonempty=True):
            if y >= x or x & ~y == 0 or y & ~x == 0:
                continue  # unordered, incomparable pairs only
            if h[x] + h[y] < h[x | y] + h[x & y]:
                out.append(
                    Violation(
                        "submodularity",
                        (x, y),
                        f"H({name(x)})+H({name(y)}) < H({name(x | y)})+H({name(x & y)})",
                    )
                )
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
        index = {u: i for i, u in enumerate(users)}
        if len(index) != len(users):
            raise ModelFormatError("duplicate user ids")
        values: dict[int, Fraction] = {}
        for entry in entries:
            if not isinstance(entry, dict) or "set" not in entry or "H" not in entry:
                raise ModelFormatError(f"bad entropy entry: {entry!r}")
            ids = entry["set"]
            if not isinstance(ids, list) or not all(isinstance(u, str) for u in ids):
                raise ModelFormatError(f"bad subset in entry: {entry!r}")
            mask = 0
            for u in ids:
                if u not in index:
                    raise ModelFormatError(f"unknown user id {u!r} in entry")
                mask |= 1 << index[u]
            if mask in values:
                raise ModelFormatError(f"duplicate entry for subset {ids!r}")
            try:
                values[mask] = parse_rational(entry["H"])
            except ValueError as exc:
                raise ModelFormatError(str(exc)) from None
        return EntropyTable(users, values, unit)
    raise ModelFormatError(f"unknown model type {kind!r} (expected \"packets\" or \"entropy\")")


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ModelFormatError(f"duplicate key {key!r} in model file")
        out[key] = value
    return out


def load_model(path: str, *, validate: bool = True) -> SourceModel:
    """Load a model file; with ``validate`` (default) reject non-polymatroids.

    Packet models are skipped by validation: union cardinality is a matroid
    rank, hence always a polymatroid.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_reject_duplicate_keys)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed JSON in {path}: {exc}") from exc
    model = model_from_dict(obj)
    if validate and isinstance(model, EntropyTable):
        report = validate_polymatroid(model)
        if not report.ok:
            raise InvalidModelError(report)
    return model


def canonical_model_dict(model: SourceModel) -> dict:
    """Canonical JSON-ready form of the model (user order preserved)."""
    if isinstance(model, PacketModel):
        body: dict = {
            "type": "packets",
            "users": {u: sorted(ps) for u, ps in zip(model.users, model.packet_sets)},
        }
    else:
        body = {
            "type": "entropy",
            "users": list(model.users),
            "entries": [
                {"set": list(model.ids_from_mask(x)), "H": format_rational(model.entropy(x))}
                for x in subsets(model.full_mask)
            ],
        }
    if model.unit is not None:
        body["unit"] = model.unit
    return body


def model_digest(model: SourceModel) -> str:
    """Content hash of the canonicalized model, for traceable reports."""
    blob = json.dumps(canonical_model_dict(model), separators=(",", ":"), sort_keys=True)
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()
