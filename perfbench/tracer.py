"""Outside-in span tracing of polyres layers.

The tracer replaces layer functions at the module attribute their caller
looks up at call time (``polyres.generate.lattice_points``,
``polyres.solve.eig``, ...).  The pipeline imports these names with
``from .x import y``, so patching the defining module would miss every
call.  No file of the program changes.

Spans are kept in memory as ``[name, start, end, parent, result]`` and
summarised (or written out) when the run ends.  A layer's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# layer name -> (module, attribute) binding that the pipeline calls through
LAYERS = {
    "lattice.convex_hull": ("polyres.generate", "convex_hull"),
    "lattice.minkowski_sum": ("polyres.generate", "minkowski_sum"),
    "lattice.lattice_points": ("polyres.generate", "lattice_points"),
    "linalg.exact_rank": ("polyres.plan", "exact_rank"),
    "plan.has_full_column_rank": ("polyres.generate", "has_full_column_rank"),
    "plan.build_layout": ("polyres.generate", "build_layout"),
    "poly.extend_system": ("polyres.generate", "extend_system"),
    "generate.generate_plan": ("polyres.generate", "generate_plan"),
    "generate.search_candidates": ("polyres.generate", "search_candidates"),
    "generate.verify_partition": ("polyres.generate", "verify_partition"),
    "generate.reduce_rowcol": ("polyres.generate", "reduce_rowcol"),
    "generate.squarify": ("polyres.generate", "squarify"),
    "solve.solve_instance": ("polyres.solve", "solve_instance"),
    "solve.fill": ("polyres.solve", "fill"),
    "solve.solve": ("polyres.solve", "solve"),
    "solve.schur_matrix": ("polyres.solve", "schur_matrix"),
    "linalg.eig": ("polyres.solve", "eig"),
    "solve.recover": ("polyres.solve", "recover"),
    "poly.normalized_residual": ("polyres.solve", "normalized_residual"),
    "action_matrix.build_template": ("polyres.action_matrix", "build_template"),
    "action_matrix.res_to_am": ("polyres.action_matrix", "res_to_am"),
    "action_matrix.am_to_res": ("polyres.action_matrix", "am_to_res"),
    "action_matrix.check_equivalence": ("polyres.action_matrix", "check_equivalence"),
    "action_matrix.extract_action_matrix": ("polyres.action_matrix", "extract_action_matrix"),
    "action_matrix._row_basis_modp": ("polyres.action_matrix", "_row_basis_modp"),
    "linalg.float_rref": ("polyres.action_matrix", "float_rref"),
}

# layers whose boolean result is kept, for pass ratios
RESULT_LAYERS = frozenset({"plan.has_full_column_rank"})

# the offline stage a rank check runs in, named by its nearest enclosing span
STAGES = {
    "generate.search_candidates": "search",
    "generate.verify_partition": "verify",
    "generate.reduce_rowcol": "rowcol",
    "generate.squarify": "squarify",
}

OP_SPAN = "bench.op"


class Tracer:
    """Records spans around the benchmark's operations and the wrapped layers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) of every binding found
        self._bindings: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        for name, (mod_name, attr) in LAYERS.items():
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                # renamed or removed by a refactor: reported, not an error
                self.absent.append(name)
                continue
            self._bindings.append((mod, attr, fn, self._wrap(name, fn)))

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """Span of one benchmark operation; every layer span nests inside one."""
        rec = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        keep_result = name in RESULT_LAYERS

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if keep_result:
                rec[4] = bool(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Per-layer calls, self seconds, pass ratios and rank checks per stage."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        layers: dict[str, dict] = {
            name: {"calls": 0, "self_s": 0.0, "passed": 0} for name in (*LAYERS, OP_SPAN)
        }
        stage_calls = {stage: 0 for stage in STAGES.values()}
        for i, rec in enumerate(spans):
            st = layers[rec[0]]
            st["calls"] += 1
            st["self_s"] += (rec[2] - rec[1]) - child[i]
            if rec[4]:
                st["passed"] += 1
            if rec[0] == "plan.has_full_column_rank":
                p = rec[3]
                while p >= 0 and spans[p][0] not in STAGES:
                    p = spans[p][3]
                if p >= 0:
                    stage_calls[STAGES[spans[p][0]]] += 1
        op_total = sum(r[2] - r[1] for r in spans if r[0] == OP_SPAN)
        # The self time of an entry span (a layer the benchmark calls
        # directly, such as generate_plan or solve_instance) holds all the
        # work no inner layer covers, so only inner layers count as covered.
        covered = sum(
            (rec[2] - rec[1]) - child[i]
            for i, rec in enumerate(spans)
            if rec[0] != OP_SPAN and rec[3] >= 0 and spans[rec[3]][0] != OP_SPAN
        )
        return {
            "layers": layers,
            "stage_calls": stage_calls,
            "covered_pct": 100.0 * covered / op_total if op_total > 0 else 0.0,
            "spans": len(spans),
            "absent": list(self.absent),
        }

    def write(self, path) -> None:
        """Dump every span as one JSON document: name, start, end, parent."""
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [r[:4] for r in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
