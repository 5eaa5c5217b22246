"""JSON wire formats for rationals, matrices, sequence elements, operators.

Rationals serialize as bare integers when the denominator is 1 and as
"p/q" strings otherwise; matrices as row-major arrays of arrays; finitely
supported families as {"domain", "dim", "support"} objects with sorted
support. Parsing is strict: floats are rejected, a zero denominator raises
DenominatorZero, and every ParseError carries the JSON path of the bad
node.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import IO, Any, Callable, NamedTuple, Union

from . import seqops as so
from .finsupp import BadIndex, Domain, FsVec, check_index
from .matrix import Mat, Vec

_RAT_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")
_TOO_LONG = "number has more digits than Python's int-string limit allows"


class ParseError(ValueError):
    """Malformed input; `where` is the JSON path of the offending node."""

    def __init__(self, message: str, where: str = "$"):
        super().__init__(f"{where}: {message}")
        self.where = where


class DenominatorZero(ParseError):
    def __init__(self, where: str = "$"):
        super().__init__("denominator is zero", where)


# ----------------------------------------------------------------------
# rationals


def rat_to_json(q: Fraction) -> Union[int, str]:
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def rat_from_json(value: Any, where: str = "$") -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got {value!r}", where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RAT_RE.match(value)
        if not m:
            raise ParseError(f"malformed rational string {value!r}", where)
        try:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:
            raise ParseError(_TOO_LONG, where) from None
        if den == 0:
            raise DenominatorZero(where)
        return Fraction(num, den)
    if isinstance(value, float):
        raise ParseError("floats are not accepted; use \"p/q\" strings", where)
    raise ParseError(f"expected a rational, got {type(value).__name__}", where)


# ----------------------------------------------------------------------
# vectors and matrices


def vec_to_json(v: Vec) -> list:
    return [rat_to_json(x) for x in v]


def vec_from_json(value: Any, where: str = "$") -> Vec:
    if not isinstance(value, list):
        raise ParseError(f"expected an array, got {type(value).__name__}", where)
    return tuple(rat_from_json(x, f"{where}[{i}]") for i, x in enumerate(value))


def _ratio_to_json(n: int, den: int) -> Union[int, str]:
    """``rat_to_json(Fraction(n, den))`` for den >= 1, with one gcd."""
    g = gcd(n, den)
    return n // g if g == den else f"{n // g}/{den // g}"


def mat_to_json(m: Mat) -> list[list]:
    den = m.den
    return [[_ratio_to_json(n, den) for n in row] for row in m.nums]


def compact_json(value: Any) -> str:
    """A JSON value on one line without spaces, for an error message."""
    return json.dumps(value, separators=(",", ":"))


def mat_from_json(value: Any, where: str = "$") -> Mat:
    if not isinstance(value, list) or not value:
        raise ParseError("expected a nonempty array of rows", where)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ParseError("expected a nonempty row array", f"{where}[{i}]")
        rows.append([rat_from_json(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged rows", where)
    return Mat(rows)


# ----------------------------------------------------------------------
# finitely supported families

_DOMAIN_TAGS = {d.value: d for d in Domain}


def fsvec_to_json(x: FsVec) -> dict:
    return {
        "domain": x.domain.value,
        "dim": x.dim,
        "support": [
            {"index": list(k) if isinstance(k, tuple) else k, "value": vec_to_json(v)}
            for k, v in x.items()
        ],
    }


def fsvec_from_json(value: Any, where: str = "$") -> FsVec:
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}", where)
    domain = _read_domain(value.get("domain"), f"{where}.domain")
    dim = _read_dim(value.get("dim"), f"{where}.dim", 0)
    raw_support = value.get("support", [])
    if not isinstance(raw_support, list):
        raise ParseError("support must be an array", f"{where}.support")
    items = []
    for i, entry in enumerate(raw_support):
        loc = f"{where}.support[{i}]"
        if not isinstance(entry, dict) or "index" not in entry or "value" not in entry:
            raise ParseError("support entries need index and value", loc)
        index = entry["index"]
        try:
            index = check_index(domain, tuple(index) if isinstance(index, list) else index)
        except BadIndex as exc:
            raise ParseError(str(exc), f"{loc}.index") from None
        column = vec_from_json(entry["value"], f"{loc}.value")
        if len(column) != dim:
            raise ParseError(f"value has length {len(column)}, expected {dim}", f"{loc}.value")
        items.append((index, column))
    try:
        return FsVec(domain, dim, items)
    except ValueError as exc:
        raise ParseError(str(exc), f"{where}.support") from exc


# ----------------------------------------------------------------------
# operator descriptors: one table maps each wire kind to its class and its
# fields; a field's wire key is the constructor argument of the same name

# largest n of a "power", of the applications it makes of its base, and of
# a column_blocks position: each ends up as an exponent of T in a projection
MAX_POWER = 1000
MAX_DEPTH = 64  # deepest nesting of operators inside operators


class _Field(NamedTuple):
    read: Callable[[Any, str, int], Any]  # (JSON value, path, depth) -> value
    write: Callable[[Any], Any]
    default: Any = None  # JSON value used when the key is absent


def _read_dim(value: Any, where: str, depth: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParseError(f"bad dimension {value!r}", where)
    return value


def _read_domain(value: Any, where: str, depth: int = 0) -> Domain:
    if not isinstance(value, str) or value not in _DOMAIN_TAGS:
        raise ParseError(f"unknown domain {value!r}", where)
    return _DOMAIN_TAGS[value]


def _read_power(value: Any, where: str, depth: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"bad power {value!r}", where)
    if value > MAX_POWER:
        raise ParseError(f"power {value} exceeds the cap of {MAX_POWER}", where)
    return value


def _read_factors(value: Any, where: str, depth: int) -> tuple:
    if not isinstance(value, list):
        raise ParseError("factors must be an array", where)
    return tuple(seqop_from_json(f, f"{where}[{i}]", depth + 1) for i, f in enumerate(value))


def _read_blocks(value: Any, where: str, depth: int) -> dict:
    if not isinstance(value, list):
        raise ParseError("blocks must be an array", where)
    blocks = {}
    for i, entry in enumerate(value):
        loc = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("block entries must be objects", loc)
        r, c = entry.get("row"), entry.get("col")
        for label, k in (("row", r), ("col", c)):
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ParseError(f"bad {label} {k!r}", f"{loc}.{label}")
            if k > MAX_POWER:
                raise ParseError(f"{label} {k} exceeds the cap of {MAX_POWER}", f"{loc}.{label}")
        blocks[(r, c)] = mat_from_json(entry.get("block"), f"{loc}.block")
    return blocks


def _write_blocks(blocks: dict) -> list:
    return [{"row": r, "col": c, "block": mat_to_json(b)} for (r, c), b in sorted(blocks.items())]


_DIM = _Field(_read_dim, lambda d: d)
_MAT = _Field(lambda value, where, depth: mat_from_json(value, where), mat_to_json)
_OP = _Field(
    lambda value, where, depth: seqop_from_json(value, where, depth + 1),
    lambda op: seqop_to_json(op),
)
_OPS = _Field(_read_factors, lambda ops: [seqop_to_json(f) for f in ops])
_FIELDS_DIM = (("dim", _DIM),)
_FIELDS_DIM_DOMAIN = (("dim", _DIM), ("domain", _Field(_read_domain, lambda d: d.value, "uninat")))

_KINDS = {
    "embed": (so.EmbedI, _FIELDS_DIM_DOMAIN),
    "coord_proj0": (so.CoordProj0, _FIELDS_DIM_DOMAIN),
    "shift_right": (so.ShiftRight, _FIELDS_DIM),
    "shift_bilat": (so.ShiftBilat, _FIELDS_DIM),
    "grid_down": (so.GridDown, _FIELDS_DIM),
    "grid_right": (so.GridRight, _FIELDS_DIM),
    "schaffer_u": (so.SchafferU, (("T", _MAT),)),
    "schaffer_v_inv": (so.SchafferVInv, (("T", _MAT),)),
    "proj_std": (so.ProjStd, (("T", _MAT),)),
    "proj_ando": (so.ProjAndo, (("T", _MAT), ("S", _MAT))),
    "block_dense": (so.BlockDense, (("dim", _DIM), ("matrix", _MAT))),
    "componentwise": (so.Componentwise, (("S", _MAT),)),
    "column_blocks": (
        so.ColumnBlocks,
        (("dim_in", _DIM), ("dim_out", _DIM), ("blocks", _Field(_read_blocks, _write_blocks))),
    ),
    "compose": (so.Compose, (("factors", _OPS),)),
    "power": (so.PowerOp, (("base", _OP), ("n", _Field(_read_power, lambda n: n)))),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}


def _applications(op, where: str) -> int:
    """How many operators of a non-nesting kind one application of op runs,
    each counted at least once: exponents multiply and compose factors add.
    A power that runs its base more than MAX_POWER times is a ParseError."""
    if isinstance(op, so.Compose):
        factors = enumerate(op.factors)
        return max(1, sum(_applications(f, f"{where}.factors[{i}]") for i, f in factors))
    if not isinstance(op, so.PowerOp):
        return 1
    count = max(1, op.n) * _applications(op.base, f"{where}.base")
    if count > MAX_POWER:
        message = f"power applies its base {count} times, over the cap of {MAX_POWER}"
        raise ParseError(message, f"{where}.n")
    return count


def seqop_to_json(op) -> dict:
    kind = _KIND_OF.get(type(op))
    # the wire format has no domain for componentwise, so it reads back one-sided
    if kind is None or (kind == "componentwise" and op.domain is not Domain.UNINAT):
        raise TypeError(f"cannot serialize operator {op!r}")
    _, fields = _KINDS[kind]
    return {"kind": kind, **{key: field.write(getattr(op, key)) for key, field in fields}}


def seqop_from_json(value: Any, where: str = "$", depth: int = 0):
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}", where)
    if depth > MAX_DEPTH:
        raise ParseError(f"operators nested more than {MAX_DEPTH} deep", where)
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown operator kind {kind!r}", f"{where}.kind")
    cls, fields = _KINDS[kind]
    args = {
        key: field.read(value.get(key, field.default), f"{where}.{key}", depth)
        for key, field in fields
    }
    try:
        op = cls(**args)
    except so.OperandError as exc:
        raise ParseError(str(exc), f"{where}.{exc.field}") from exc
    if depth == 0:  # once, for the whole descriptor
        _applications(op, where)
    return op


# ----------------------------------------------------------------------
# file-level entry points

Source = Union[str, Path, IO[str]]


def _load_json(source: Source) -> Any:
    try:
        text = Path(source).read_text("utf-8") if isinstance(source, (str, Path)) else source.read()
    except UnicodeDecodeError:
        raise ParseError("file is not UTF-8 text", "$") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "$") from exc
    except ValueError:  # an integer literal past the digit limit
        raise ParseError(_TOO_LONG, "$") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", "$") from None


def parse_instance_file(source: Source):
    """Parse a JSON instance file into a typed value.

    Arrays of arrays parse as matrices; objects with a "domain" key as
    finitely supported families; objects with a "kind" key as operators.
    """
    doc = _load_json(source)
    if isinstance(doc, list):
        return mat_from_json(doc)
    if isinstance(doc, dict):
        if "domain" in doc and "kind" not in doc:
            return fsvec_from_json(doc)
        if "kind" in doc:
            return seqop_from_json(doc)
    raise ParseError("unrecognized instance shape", "$")


def load_matrix(source: Source) -> Mat:
    value = parse_instance_file(source)
    if not isinstance(value, Mat):
        raise ParseError(f"expected a matrix, got {type(value).__name__}", "$")
    return value


def load_operator(source: Source) -> so.SeqOp:
    value = parse_instance_file(source)
    if not isinstance(value, so.SeqOp):
        raise ParseError(f"expected an operator descriptor, got {type(value).__name__}", "$")
    return value
