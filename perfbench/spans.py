"""Spans around lrcdec's public functions, for the traced benchmark run.

``Tracer.installed()`` replaces each function in TARGETS, wherever an
lrcdec module binds it, with a wrapper that records a span (name, start,
end, parent, op id, attributes) in memory; on exit every original is put
back.  Field.mul only counts calls: a span per scalar product would cost
more than the product.  Nothing here edits lrcdec's source.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: object  # op index, or "setup"
    attrs: dict = field(default_factory=dict)


def _cells(a, *_):
    return {"cells": int(a.shape[0]) * int(a.shape[1])}


def _length(code, *_):
    return {"n": code.n}


def _list_stats(result):
    return {"shortened": result.shortened_decodes, "combinations": result.combinations_explored}


def _hit(result):
    return {"hit": bool(result)}


# (module, attribute path, span name, attributes from the arguments, from the result)
TARGETS = [
    ("lrcdec.galois", "lagrange_interpolate", "galois.lagrange", None, None),
    ("lrcdec.linalg", "rref", "linalg.rref", _cells, None),
    ("lrcdec.linalg", "rank", "linalg.rank", None, None),
    ("lrcdec.linalg", "matmul", "linalg.matmul", None, None),
    ("lrcdec.linalg", "right_nullspace", "linalg.nullspace", None, None),
    ("lrcdec.linalg", "solve", "linalg.solve", None, None),
    ("lrcdec.grs", "GrsCode.gs_list_decode", "grs.gs_list_decode", _length, None),
    ("lrcdec.grs", "GrsCode.shorten_received", "grs.shorten", None, None),
    ("lrcdec.lrc", "LrcCode.is_codeword", "lrc.is_codeword", None, _hit),
    ("lrcdec.listdec", "list_decode_lrc", "listdec.list_decode", None, _list_stats),
    ("lrcdec.radii", "refined_error_count", "radii.refined_error_count", None, None),
    ("lrcdec.interleaved", "mk_decode", "interleaved.mk_decode", None, None),
    ("lrcdec.pmds", "failure_prob_exact", "pmds.exact", None, None),
    ("lrcdec.pmds", "verify_pmds", "pmds.verify", None, None),
]


class Tracer:
    """In-memory spans and Field.mul counts, keyed by the current op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.mul_calls: dict[object, int] = {}
        self.op: object = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, from_args, from_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                        from_args(*args) if from_args else {})
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if from_result:
                span.attrs.update(from_result(result))
            return result

        return wrapper

    def _count_mul(self, fn):
        counts = self.mul_calls

        @functools.wraps(fn)
        def mul(field, a, b):
            counts[self.op] = counts.get(self.op, 0) + 1
            return fn(field, a, b)

        return mul

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install_function(self, fn, new):
        """Rebind fn to new in every lrcdec module that imported it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lrcdec" or mod_name.startswith("lrcdec."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, new)

    @contextmanager
    def installed(self):
        import lrcdec.galois

        try:
            for mod_name, path, name, from_args, from_result in TARGETS:
                owner = sys.modules[mod_name]
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    fn = vars(cls)[attr]
                    self._replace(cls, attr, self._wrap(fn, name, from_args, from_result))
                else:
                    fn = getattr(owner, attr)
                    self._install_function(fn, self._wrap(fn, name, from_args, from_result))
            field_cls = lrcdec.galois.Field
            self._replace(field_cls, "mul", self._count_mul(vars(field_cls)["mul"]))
            yield self
        finally:
            while self._restore:
                owner, attr, value = self._restore.pop()
                setattr(owner, attr, value)

    @contextmanager
    def op_scope(self, op):
        """Attribute spans and counts to op; the whole call is a root span named 'op'."""
        self.op = op
        span = Span("op", 0.0, 0.0, -1, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.op = None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(tracer: Tracer, ops: list, local_length: int) -> dict[str, tuple[float, str]]:
    """Per-op averages (and the setup count) of every per-layer metric.

    ops are the op ids that ran traced; gs_list_decode calls on a code of
    length local_length are local decodes, every other length a shortened one.
    """
    opset = set(ops)
    n_ops = max(len(ops), 1)
    own = self_times(tracer.spans)
    total: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    cells = max_cells = hits = shortened = combos = verify_ranks = 0
    for i, s in enumerate(tracer.spans):
        if s.op == "setup":
            if s.name == "linalg.rank" and _has_ancestor(tracer.spans, i, "pmds.verify"):
                verify_ranks += 1
            continue
        if s.op not in opset:
            continue
        name = s.name
        if name == "grs.gs_list_decode":
            name = "grs.gs_local" if s.attrs["n"] == local_length else "grs.gs_short"
        total[name] = total.get(name, 0.0) + (s.end - s.start)
        selft[name] = selft.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "linalg.rref":
            cells += s.attrs["cells"]
            max_cells = max(max_cells, s.attrs["cells"])
        elif name == "lrc.is_codeword":
            hits += s.attrs["hit"]
        elif name == "listdec.list_decode":
            shortened += s.attrs["shortened"]
            combos += s.attrs["combinations"]

    def ms(table, name):
        return 1000.0 * table.get(name, 0.0) / n_ops, "ms"

    def per_op(count, unit="count"):
        return count / n_ops, unit

    is_cw = calls.get("lrc.is_codeword", 0)
    return {
        "linalg.rref_ms": ms(total, "linalg.rref"),
        "linalg.rref_calls": per_op(calls.get("linalg.rref", 0)),
        "linalg.rref_cells": per_op(cells, "cells"),
        "linalg.rref_max_cells": (max_cells, "cells"),
        "linalg.nullspace_ms": ms(total, "linalg.nullspace"),
        "linalg.rank_ms": ms(total, "linalg.rank"),
        "linalg.matmul_ms": ms(total, "linalg.matmul"),
        "linalg.matmul_calls": per_op(calls.get("linalg.matmul", 0)),
        "grs.gs_short_ms": ms(selft, "grs.gs_short"),
        "grs.gs_short_calls": per_op(calls.get("grs.gs_short", 0)),
        "grs.gs_local_ms": ms(selft, "grs.gs_local"),
        "grs.gs_local_calls": per_op(calls.get("grs.gs_local", 0)),
        "grs.shorten_ms": ms(total, "grs.shorten"),
        "lrc.is_codeword_ms": ms(total, "lrc.is_codeword"),
        "lrc.is_codeword_calls": per_op(is_cw),
        "lrc.is_codeword_hit_ratio": (hits / is_cw if is_cw else 0.0, "ratio"),
        "galois.lagrange_ms": ms(total, "galois.lagrange"),
        "galois.mul_calls": per_op(sum(c for op, c in tracer.mul_calls.items() if op in opset)),
        "listdec.shortened_decodes": per_op(shortened),
        "listdec.combinations": per_op(combos),
        "listdec.self_ms": ms(selft, "listdec.list_decode"),
        "radii.refined_error_count_ms": ms(total, "radii.refined_error_count"),
        "interleaved.mk_self_ms": ms(selft, "interleaved.mk_decode"),
        "pmds.exact_ms": ms(total, "pmds.exact"),
        "pmds.verify_rank_calls": (verify_ranks, "count"),
    }


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
