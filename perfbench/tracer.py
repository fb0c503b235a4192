"""Span tracer for a traced run, installed from outside the engine.

`Tracer.install` wraps the public functions of each layer module and a few
hot methods, then rebinds every tateops module attribute that still points
at an original function (cocycles, cubical and cli use ``from .x import y``,
sometimes under another name), so no call can bypass its span.  Scalar
arithmetic is counted by field instead of spanned: it runs millions of
times per pass.

Each span records name, start, end and parent in flat arrays; they stay in
memory and are written out when the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("fields", "laurent", "operators", "trace", "cocycles", "cubical", "serial", "cli")

METHODS = {
    ("operators", "TateOp", "__init__"): "operators.init",
    ("operators", "TateOp", "__add__"): "operators.add",
    ("operators", "TateOp", "__mul__"): "operators.mul",
    ("operators", "TateOp", "__eq__"): "operators.eq",
    ("operators", "TateOp", "entry"): "operators.entry",
    ("operators", "EvSeq", "of"): "operators.evseq_of",
    ("cocycles", "BlockOp", "__mul__"): "cocycles.blockop_mul",
}

SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__eq__")


def _diagonal_cells(op) -> int:
    """Diagonal positions of a level-1 operator that can hold a nonzero entry:
    the useful cells of a trace, read from the line geometry."""
    cells = set()
    seq = op.lines.get(("diag", 0))
    if seq is not None:
        lo, hi = seq.support_min(), seq.support_max()
        if lo is not None and abs(lo) != float("inf") and abs(hi) != float("inf"):
            cells.update(range(int(lo), int(hi) + 1))
    for (orient, off), seq in op.lines.items():
        if orient == "anti" and off % 2 == 0 and not seq.value(off // 2).is_zero():
            cells.add(off // 2)
    cells.update(i for (i, j) in op.corr if i == j)
    return len(cells)


def _count_mul_level(counts, a, *_):
    counts[f"operators.mul.calls.l{a.level}"] += 1


def _count_diagonal(counts, a, *_):
    if a.level == 1:
        counts["trace.diag_cells"] += _diagonal_cells(a)


def _count_bytes(counts, text, *_):
    counts["serial.bytes_read"] += len(text.encode("utf-8"))


def _count_window(counts, cert):
    counts["trace.window_cells"] += cert.window_size() ** 2


PRE = {"operators.mul": _count_mul_level, "trace.trace": _count_diagonal,
       "serial.load_op": _count_bytes}
POST = {"trace.certificate": _count_window}


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self.name_of = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        return self._open(self._id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        pre, post = PRE.get(name), POST.get(name)
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(counts, *args)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(counts, result)
            return result
        return spanned

    def _counted(self, fn, prime_field):
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def counted(self, *args):
            if tracer.on:
                counts["fields.scalar_ops.fp" if isinstance(self.field, prime_field)
                       else "fields.scalar_ops.qq"] += 1
            return fn(self, *args)
        return counted

    def install(self) -> None:
        """Wrap every layer of the imported tateops package (call once)."""
        mods = {name: sys.modules[f"tateops.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "tateops" or modname.startswith("tateops."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])
        for (layer, cls_name, attr), span in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(span, raw))
        fields = mods["fields"]
        for attr in SCALAR_OPS:
            setattr(fields.Scalar, attr,
                    self._counted(fields.Scalar.__dict__[attr], fields.PrimeField))

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            parent = self.parent[k]
            if parent >= 0:
                child[parent] += dur[k]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for k in range(n):
            row = out[self.names[self.name_of[k]]]
            row["calls"] += 1
            row["total_s"] += dur[k]
            row["self_s"] += dur[k] - child[k]
        return out

    def write(self, path) -> None:
        """Spans as gzip text: a JSON header naming the columns and span
        names, then one row per span (the row number is the span id):
        parent id, name index, start and end in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["parent", "name", "start_ns", "end_ns"],
                                 "names": self.names}) + "\n")
            for k in range(len(self.start)):
                fh.write(f"{self.parent[k]},{self.name_of[k]},"
                         f"{round((self.start[k] - t0) * 1e9)},"
                         f"{round((self.end[k] - t0) * 1e9)}\n")
