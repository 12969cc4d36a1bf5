"""Spans and counters recorded around calls into hopfkit, from outside it.

Nothing in ``src/`` knows about tracing.  :meth:`Tracer.install` rebinds each
function named in ``SPANNED`` in every loaded hopfkit module that holds it
(``from .linmap import tensor`` copies the reference, so patching only the
defining module would miss most calls), and patches ``Field.mul`` and
``CheckReport.add``/``add_result`` on their classes, which every call site
looks up at call time.  :meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (``-1`` for none) and ``op`` the id of the
benchmark op that caused it.  Spans stay in memory until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span named "module.function"
SPANNED = (
    ("linmap", "tensor"),
    ("linmap", "compose"),
    ("linmap", "first_mismatch"),
    ("solve", "rref"),
    ("solve", "solve"),
    ("solve", "invert"),
    ("structures", "convolution_inverse"),
    ("structures", "check_braided_object"),
    ("truss", "check_truss"),
    ("truss", "check_truss_derived"),
    ("post_hopf", "check_twisted"),
    ("post_hopf", "derived_antipode_suite"),
    ("post_hopf", "post_hopf_from_truss"),
    ("post_hopf", "truss_from_post_hopf"),
    ("rota_baxter", "rota_baxter_from_truss"),
    ("rota_baxter", "truss_from_rota_baxter"),
    ("rota_baxter", "truss_from_idempotent"),
    ("groups", "idempotent_endos"),
    ("groups", "semidirect_group"),
    ("factories", "group_algebra"),
    ("storage", "loads"),
    ("storage", "dumps"),
    ("cli", "structure_report"),
)

# counters whose merge across processes is a maximum rather than a sum
MAXIMA = ("linmap.max_cols", "solve.max_unknowns")


def hopfkit_modules() -> dict:
    """Loaded hopfkit modules by short name (``""`` is the package itself)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hopfkit" or name.startswith("hopfkit."):
            out[name[len("hopfkit."):] if "." in name else ""] = mod
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op = None
        self.counts = defaultdict(int)
        self._undo = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = hopfkit_modules()
        wrapped = {}
        for mod, attr in SPANNED:
            if mod in modules:
                fn = getattr(modules[mod], attr)
                wrapped[id(fn)] = (fn, self._wrap(f"{mod}.{attr}", fn))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, key, hit[1])
        self._patch_mul(modules["fields"].Field)
        self._patch_laws(modules["structures"].CheckReport)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = _AFTER.get(name)
        before = _BEFORE.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, stack[-1], self.op)
            if after is not None:
                after(counts, out)
            return out

        return traced

    def _patch_mul(self, field_cls) -> None:
        counts = self.counts
        mul = field_cls.mul

        def counted_mul(fld, a, b):
            counts["fields.mul_calls"] += 1
            if a == 0 or a == 1 or b == 0 or b == 1:
                counts["fields.mul_trivial"] += 1
            return mul(fld, a, b)

        self._patch(field_cls, "mul", counted_mul)

    def _patch_laws(self, report_cls) -> None:
        counts = self.counts
        add, add_result = report_cls.add, report_cls.add_result

        def tally(rep):
            r = rep.results[-1]
            counts["structures.laws_checked"] += 1
            if not r.passed:
                counts["structures.laws_failed"] += 1
            return rep

        self._patch(report_cls, "add",
                    lambda rep, name, lhs, rhs: tally(add(rep, name, lhs, rhs)))
        self._patch(report_cls, "add_result",
                    lambda rep, result: tally(add_result(rep, result)))

    # -- ops and child processes ------------------------------------------------

    def open_span(self, name) -> None:
        self.stack.append(len(self.spans))
        self.spans.append((name, time.perf_counter(), None, self.stack[-2], self.op))

    def close_span(self) -> None:
        sid = self.stack.pop()
        name, t0, _, parent, op = self.spans[sid]
        self.spans[sid] = (name, t0, time.perf_counter(), parent, op)

    def begin_op(self, op_id, name="op") -> None:
        self.op = op_id
        self.open_span(name)

    def end_op(self) -> None:
        self.close_span()
        self.op = None

    def merge_child(self, doc: dict) -> None:
        """Fold a child process's :meth:`export` under the open span."""
        root, offset = self.stack[-1], len(self.spans)
        for name, t0, t1, parent, _ in doc["spans"]:
            self.spans.append((name, t0, t1,
                               parent + offset if parent >= 0 else root, self.op))
        for key, value in doc["counts"].items():
            if key in MAXIMA:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    # -- summaries --------------------------------------------------------------

    def layer_table(self) -> dict:
        """``{span name: (calls, self seconds, total seconds)}``.

        Self time is a span's duration minus that of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += (t1 - t0) - child[i]
            row[2] += t1 - t0
        return {name: tuple(row) for name, row in table.items()}

    def dump(self, path, t_origin: float) -> None:
        """Write every span, one JSON array per line, times relative to ``t_origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "op"]) + "\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, round(t0 - t_origin, 9),
                                     round(t1 - t_origin, 9), parent, op]) + "\n")


def _record_built(counts, out) -> None:
    cols = len(out.cols)
    if cols > counts["linmap.max_cols"]:
        counts["linmap.max_cols"] = cols
    counts["linmap.nnz_built"] += sum(len(c) for c in out.cols)


def _record_unknowns(counts, args) -> None:
    n = args[0].dom.total
    if n > counts["solve.max_unknowns"]:
        counts["solve.max_unknowns"] = n


def _record_read(counts, args) -> None:
    counts["storage.bytes_read"] += len(args[0].encode("utf-8"))


def _record_written(counts, out) -> None:
    counts["storage.bytes_written"] += len(out.encode("utf-8"))


_AFTER = {
    "linmap.tensor": _record_built,
    "linmap.compose": _record_built,
    "storage.dumps": _record_written,
}
_BEFORE = {
    "solve.solve": _record_unknowns,
    "solve.invert": _record_unknowns,
    "storage.loads": _record_read,
}
