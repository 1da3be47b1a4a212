"""Spans and counters recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is edited.  :func:`span_pass` wraps the public
functions and methods of the ``amzv`` modules for the length of a ``with``
block; every call records a span (name, start, end, parent span, operation
id) into flat arrays held in memory.  :func:`count_pass` wraps the
fine-grained ``FieldElem`` operations with bare counters and no clock, in a
pass of its own, so that counting them cannot inflate any span.

A layer's self time is the sum over its spans of the span's duration minus
the time covered by its child spans.  The ``verify.check_*`` metrics are the
exception: they are inclusive, since each one is the time to one verdict.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import time
from array import array

# span name -> layer metric it feeds; the first part of a name is its module
SPAN_METRIC = {
    "ff.field_make": "ff.spec_build_ms",
    "ff.field_from_q": "ff.spec_build_ms",
    "words.Element.__add__": "words.element_arith_ms",
    "words.Element.__sub__": "words.element_arith_ms",
    "words.Element.scale": "words.element_arith_ms",
    "words.Element.from_terms": "words.element_arith_ms",
    "words.TensorElement.__add__": "words.element_arith_ms",
    "words.TensorElement.__sub__": "words.element_arith_ms",
    "words.TensorElement.scale": "words.element_arith_ms",
    "words.TensorElement.from_terms": "words.element_arith_ms",
    "words.basis_words": "words.basis_ms",
    "words.parse_word": "words.parse_format_ms",
    "words.parse_element": "words.parse_format_ms",
    "words.format_word": "words.parse_format_ms",
    "words.format_element": "words.parse_format_ms",
    "words.format_tensor": "words.parse_format_ms",
    "products.shuffle": "products.shuffle_ms",
    "products.diamond": "products.diamond_ms",
    "products.triangle": "products.triangle_ms",
    "products.horizontal": "products.horizontal_ms",
    "products.bracket": None,
    "coalgebra.coproduct": "coalgebra.coproduct_ms",
    "coalgebra.coproduct_letter": "coalgebra.coproduct_ms",
    "coalgebra.antipode": "coalgebra.antipode_ms",
    "coalgebra.tensor_shuffle": "coalgebra.tensor_shuffle_ms",
    "coalgebra.coproduct_mzv_recursive": "coalgebra.oracle_ms",
    "coalgebra.coproduct_mzv_word": "coalgebra.oracle_ms",
    "zeta.zeta_trunc": "zeta.zeta_trunc_ms",
    "zeta.power_sum_d": "zeta.power_sum_ms",
    "zeta.power_sum_lt": "zeta.power_sum_ms",
    "zeta.power_sum_lt_element": "zeta.power_sum_ms",
    "zeta.Laurent.__mul__": "zeta.laurent_mul_ms",
    "verify.check_algebra": "verify.check_algebra_ms",
    "verify.check_coalgebra": "verify.check_coalgebra_ms",
    "verify.check_hopf": "verify.check_hopf_ms",
    "verify.check_coproduct_oracle": "verify.check_coproduct_oracle_ms",
    "verify.check_zeta_homomorphism": "verify.check_zeta_homomorphism_ms",
    "cli.main": "cli.self_ms",
}

# span-count metrics: metric -> span-name prefixes it counts
SPAN_COUNTS = {
    "words.element_arith_calls": ("words.Element.", "words.TensorElement."),
    "products.calls": ("products.",),
    "zeta.laurent_mul_calls": ("zeta.Laurent.__mul__",),
}

# per-field memo names owned by each layer
MEMOS = {
    "products.memo_entries": ("shuffle", "diamond", "bracket", "delta"),
    "coalgebra.memo_entries": ("coproduct_letter", "coproduct", "antipode", "mzv_letter", "mzv_word"),
    "zeta.memo_entries": ("inv_pow", "power_sum_d", "depth1_power_sum", "sd_fast", "slt_fast",
                          "zeta_word", "idx_tables"),
}

FIELD_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "inverse")

METRIC_UNITS = {m: "ms" for m in SPAN_METRIC.values() if m}
METRIC_UNITS.update({m: "count" for m in SPAN_COUNTS})
METRIC_UNITS.update({m: "count" for m in MEMOS})
METRIC_UNITS.update({"verify.self_ms": "ms", "ff.elem_ops": "count", "ff.elem_hashes": "count",
                     "trace.overhead_ratio": "ratio"})


# operation ids: spans recorded between operations (preparing inputs, memo
# snapshots) carry OUTSIDE and count toward no metric; SETUP marks the
# construction of the workload's fields
OUTSIDE, SETUP = -1, -2


class Spans:
    """Flat in-memory span store; index i is one span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = OUTSIDE

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def write(self, path: str) -> dict:
        """Binary dump: five arrays back to back, in the order and types
        given in the returned header."""
        layout = [("name", "H"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d")]
        with open(path, "wb") as fh:
            for field, _ in layout:
                getattr(self, field).tofile(fh)
        return {"file": os.path.basename(path), "count": len(self.start),
                "layout": layout, "names": self.names}


def _amzv_modules():
    return [m for n, m in sorted(sys.modules.items()) if m is not None
            and (n == "amzv" or n.startswith("amzv."))]


def _patch_function(mods, module, attr, wrapper, undo):
    """Rebind ``module.attr`` in every amzv module that imported it by name."""
    orig = getattr(module, attr)
    for m in mods:
        if m.__dict__.get(attr) is orig:
            undo.append((m, attr, orig))
            setattr(m, attr, wrapper(orig))


def _patch_method(cls, attr, wrapper, undo):
    raw = cls.__dict__[attr]
    undo.append((cls, attr, raw))
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper(raw.__func__)))
    else:
        setattr(cls, attr, wrapper(raw))


def _restore(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


@contextlib.contextmanager
def span_pass(spans: Spans, on_field=None):
    """Record spans around the public calls named in SPAN_METRIC.  ``on_field``
    is called with every FieldSpec that ``field_make`` returns."""
    import amzv

    mods = _amzv_modules()
    undo: list = []
    for name in SPAN_METRIC:
        modname, *rest = name.split(".")
        module = getattr(amzv, modname)
        if len(rest) == 2:
            _patch_method(getattr(module, rest[0]), rest[1],
                          lambda fn, n=name: spans.wrap(n, fn), undo)
        elif name == "ff.field_make" and on_field is not None:
            def watch(fn, n=name):
                def made(*args, **kwargs):
                    spec = fn(*args, **kwargs)
                    on_field(spec)
                    return spec
                return spans.wrap(n, made)
            _patch_function(mods, module, rest[0], watch, undo)
        else:
            _patch_function(mods, module, rest[0], lambda fn, n=name: spans.wrap(n, fn), undo)
    try:
        yield spans
    finally:
        _restore(undo)


@contextlib.contextmanager
def count_pass(counts: dict):
    """Count FieldElem arithmetic and hashing; no clock is read."""
    from amzv.ff import FieldElem

    ops, hashes = itertools.count(), itertools.count()
    undo: list = []

    def counted(fn, tick=ops.__next__):
        def op(*args):
            tick()
            return fn(*args)
        return op

    for attr in FIELD_OPS:
        _patch_method(FieldElem, attr, counted, undo)
    _patch_method(FieldElem, "__hash__", lambda fn, tick=hashes.__next__: counted(fn, tick), undo)
    try:
        yield counts
    finally:
        _restore(undo)
        counts["ff.elem_ops"] = next(ops)
        counts["ff.elem_hashes"] = next(hashes)


def memo_entries(specs) -> dict[str, int]:
    out = dict.fromkeys(MEMOS, 0)
    for spec in specs:
        memos = spec._memos
        for metric, names in MEMOS.items():
            out[metric] += sum(len(memos[n]) for n in names if n in memos)
    return out


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer self times (ms) and span counts from one traced pass,
    over the spans recorded inside operations and field set-up."""
    out = {m: 0.0 for m, u in METRIC_UNITS.items() if u == "ms"}
    counts = dict.fromkeys(SPAN_COUNTS, 0)
    self_t = spans.self_times()
    names = spans.names
    metric_of = [SPAN_METRIC.get(n) for n in names]
    count_of = [[m for m, pre in SPAN_COUNTS.items() if n.startswith(pre)] for n in names]
    is_check = [n.startswith("verify.check_") for n in names]
    for i, nid in enumerate(spans.name):
        if spans.op[i] == OUTSIDE:
            continue
        m = metric_of[nid]
        if is_check[nid]:
            out[m] += (spans.end[i] - spans.start[i]) * 1e3
            out["verify.self_ms"] += self_t[i] * 1e3
        elif m:
            out[m] += self_t[i] * 1e3
        for c in count_of[nid]:
            counts[c] += 1
    out.update(counts)
    return out


def dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
