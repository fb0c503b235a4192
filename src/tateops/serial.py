"""JSON serialization of operators; round-trips are bit-exact.

Document shape:

    {"level": n,
     "lines": [{"orientation": "diag"|"anti", "offset": d,
                "left_limit": E, "right_limit": E,
                "window_start": s, "window": [E, ...]}, ...],
     "correction": [{"row": i, "col": j, "value": E}, ...]}

where an entry E is a scalar at level 1 ("a/b" string or {"mod": p,
"val": v}) and a nested operator document at level n >= 2.
"""

from __future__ import annotations

import functools
import json
import reprlib
import sys
import threading
from fractions import Fraction
from typing import Any

from .fields import Field, PrimeField, QQ, Scalar
from .operators import Entry, EvSeq, TateOp


class SchemaError(ValueError):
    """The document does not conform to the operator schema; the message
    starts with the JSON path of the offending value ($ is the root)."""


MAX_LEVEL = 333
"""The highest ``level`` an operator document may claim.  A level-n document
nests one operator document per level, and every nested level is checked
before it is read, so no parse descends further than this."""

# Frames a guarded call may use above its caller's limit: decoding a document
# takes one per JSON array or object, at most four per level, and parsing and
# normalizing it about three per level; six leaves a margin.
_HEADROOM = 6 * MAX_LEVEL

_RECURSION_LIMIT_LOCK = threading.Lock()


def _guarded(parse):
    """Run ``parse`` with _HEADROOM more frames than the caller's limit, under
    a lock since all threads share that limit, and restore it after; deeper
    recursion is a SchemaError.  Guarded calls never nest: the lock is not
    reentrant."""
    @functools.wraps(parse)
    def guarded(*args, **kwargs):
        with _RECURSION_LIMIT_LOCK:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit + _HEADROOM)
            try:
                return parse(*args, **kwargs)
            except RecursionError as exc:
                raise SchemaError("$: document is nested too deeply") from exc
            finally:
                sys.setrecursionlimit(limit)
    return guarded


_QUOTE = reprlib.Repr()
_QUOTE.maxlevel = 3
_QUOTE_LENGTH = 80


def _quote(value: Any) -> str:
    """The repr of a document value for an error message, cut at a fixed depth
    and length, so no value however large or deep is quoted whole."""
    text = _QUOTE.repr(value)
    return text if len(text) <= _QUOTE_LENGTH else text[:_QUOTE_LENGTH - 3] + "..."


def _integer(doc: Any, path: str) -> int:
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise SchemaError(f"{path}: expected an integer, got {_quote(doc)}")
    return doc


def _member(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}: missing key {key!r}")
    return obj[key]


def _array(obj: dict, key: str, path: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}: expected an array")
    return value


def scalar_to_json(s: Scalar) -> Any:
    if isinstance(s.field, PrimeField):
        return {"mod": s.field.p, "val": s.value}
    frac: Fraction = s.value
    return f"{frac.numerator}/{frac.denominator}" if frac.denominator != 1 \
        else str(frac.numerator)


def scalar_from_json(doc: Any, field: Field | None = None, path: str = "$") -> Scalar:
    if isinstance(doc, dict):
        if set(doc) != {"mod", "val"}:
            raise SchemaError(f"{path}: bad scalar document {_quote(doc)}")
        mod = _integer(doc["mod"], f"{path}.mod")
        got = PrimeField(mod).from_int(_integer(doc["val"], f"{path}.val"))
    elif isinstance(doc, str):
        num, slash, den = doc.partition("/")
        try:
            got = (QQ.from_fraction(int(num), int(den)) if slash
                   else QQ.from_int(int(num)))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{path}: bad rational {_quote(doc)}") from exc
    elif isinstance(doc, int) and not isinstance(doc, bool):
        got = QQ.from_int(doc)
    else:
        raise SchemaError(f"{path}: bad scalar document {_quote(doc)}")
    if field is not None and got.field != field:
        raise SchemaError(f"{path}: scalar field {got.field} does not match {field}")
    return got


def _entry_to_json(e: Entry) -> Any:
    if isinstance(e, TateOp):
        return op_to_json(e)
    return scalar_to_json(e)


def _entry_from_json(doc: Any, level: int, field: Field, path: str) -> Entry:
    if level <= 1:
        return scalar_from_json(doc, field, path)
    got = _level(doc, path)
    if got != level - 1:
        raise SchemaError(f"{path}: entry level {got}, expected {level - 1}")
    return _op_from_json(doc, got, field, path)


def op_to_json(a: TateOp) -> dict:
    lines = []
    for (orient, off) in sorted(a.lines):
        seq = a.lines[(orient, off)]
        lines.append({
            "orientation": orient,
            "offset": off,
            "left_limit": _entry_to_json(seq.left),
            "right_limit": _entry_to_json(seq.right),
            "window_start": seq.window_start,
            "window": [_entry_to_json(v) for v in seq.window],
        })
    correction = [{"row": i, "col": j, "value": _entry_to_json(v)}
                  for (i, j), v in sorted(a.corr.items())]
    return {"level": a.level, "lines": lines, "correction": correction}


def _entry_docs(doc: Any):
    """The entry documents of an operator document in reading order,
    skipping malformed parts (parsing reports those with their path)."""
    if not isinstance(doc, dict):
        return
    lines = doc.get("lines")
    for line in lines if isinstance(lines, list) else ():
        if isinstance(line, dict):
            yield from (line[k] for k in ("left_limit", "right_limit") if k in line)
            window = line.get("window")
            yield from window if isinstance(window, list) else ()
    cells = doc.get("correction")
    for cell in cells if isinstance(cells, list) else ():
        if isinstance(cell, dict) and "value" in cell:
            yield cell["value"]


def _document_field(doc: dict, level: int) -> Field | None:
    """The field of the first well-formed scalar anywhere in a level-``level``
    operator document, nested entries of the level below included; None when
    there is none.  Entries claiming another level are skipped unread."""
    for entry in _entry_docs(doc):
        if level == 1:
            try:
                return scalar_from_json(entry).field
            except SchemaError:
                continue
        elif isinstance(entry, dict) and entry.get("level") == level - 1:
            found = _document_field(entry, level - 1)
            if found is not None:
                return found
    return None


@_guarded
def op_from_json(doc: Any, field: Field | None = None) -> TateOp:
    """Parse an operator document.  Without an explicit field, every entry
    takes the field of the first scalar found anywhere in the document (Q
    when it has none), so zero entries, which carry no scalar, agree with it.
    A ``level`` above MAX_LEVEL is rejected before anything nested is read."""
    level = _level(doc, "$")
    if field is None:
        field = _document_field(doc, level) or QQ
    return _op_from_json(doc, level, field, "$")


def _level(doc: Any, path: str) -> int:
    """The level an operator document claims, checked before its entries are."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: operator document must be an object")
    extra = set(doc) - {"level", "lines", "correction"}
    if extra:
        raise SchemaError(f"{path}: unknown keys {_quote(sorted(extra))}")
    level = doc.get("level")
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise SchemaError(f"{path}.level: level must be a positive integer")
    if level > MAX_LEVEL:
        raise SchemaError(f"{path}.level: level {level} is nested too deeply "
                          f"(at most {MAX_LEVEL})")
    return level


def _op_from_json(doc: dict, level: int, field: Field, path: str) -> TateOp:
    lines: dict[tuple[str, int], EvSeq] = {}
    for k, line in enumerate(_array(doc, "lines", path)):
        at = f"{path}.lines[{k}]"
        if not isinstance(line, dict):
            raise SchemaError(f"{at}: line must be an object")
        orient = line.get("orientation")
        if orient not in ("diag", "anti"):
            raise SchemaError(f"{at}.orientation: bad orientation {_quote(orient)}")
        key = (orient, _integer(_member(line, "offset", at), f"{at}.offset"))
        if key in lines:
            raise SchemaError(f"{at}: duplicate line {key}")
        left = _entry_from_json(_member(line, "left_limit", at), level, field,
                                f"{at}.left_limit")
        right = _entry_from_json(_member(line, "right_limit", at), level, field,
                                 f"{at}.right_limit")
        window = [_entry_from_json(v, level, field, f"{at}.window[{w}]")
                  for w, v in enumerate(_array(line, "window", at))]
        start = _integer(line.get("window_start", 0), f"{at}.window_start")
        lines[key] = EvSeq.of(left, right, start, window)
    corr = {}
    for k, cell in enumerate(_array(doc, "correction", path)):
        at = f"{path}.correction[{k}]"
        if not isinstance(cell, dict):
            raise SchemaError(f"{at}: correction cell must be an object")
        row = _integer(_member(cell, "row", at), f"{at}.row")
        col = _integer(_member(cell, "col", at), f"{at}.col")
        corr[(row, col)] = _entry_from_json(_member(cell, "value", at), level, field,
                                            f"{at}.value")
    return TateOp(level, field, lines, corr)


def dump_op(a: TateOp) -> str:
    return json.dumps(op_to_json(a), indent=2, sort_keys=True)


@_guarded
def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise SchemaError(f"not valid JSON: {exc}") from exc


def load_op(text: str, field: Field | None = None) -> TateOp:
    """Parse an operator from JSON text; decoding and parsing each run under
    the recursion headroom MAX_LEVEL needs, whatever the caller's stack depth."""
    return op_from_json(_decode(text), field)
