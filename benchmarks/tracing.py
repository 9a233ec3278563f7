"""Spans around calls into kaczlab's public functions, recorded from outside.

The tracer wraps ``RowColMatrix`` methods on the class, and the step,
sampling, selection and stopping names in ``kaczlab.solvers``'s namespace,
where ``run()`` and the step functions look them up at call time.  Nothing
inside the package changes.  Each call records one span (name, start, end,
parent span) in flat in-memory arrays; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

import kaczlab.solvers as solvers
from kaczlab.matrix import RowColMatrix

MATRIX_METHODS = ("row_dot", "col_dot", "rows_dot", "cols_dot", "add_row_to",
                  "add_col_to", "gram_row_update", "gram_col_update", "matvec",
                  "rmatvec")
SAMPLING_NAMES = ("weighted_row_sample", "weighted_column_sample",
                  "simple_random_subset", "grak_residual_sample")
STEP_NAMES = ("rek_step", "grak_step", "agrak_step", "sampled_step")
STEP_SPAN = "solvers.step"


class Tracer:
    """In-memory span recorder; ``segment(label)`` attributes spans to a run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.segments: list[tuple[str, int, int]] = []
        self.candidates = 0
        self.selections = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        return traced

    @contextlib.contextmanager
    def segment(self, label: str):
        """Attribute every span recorded inside the block to ``label``."""
        first = len(self.start)
        try:
            yield
        finally:
            self.segments.append((label, first, len(self.start)))

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in; restore the originals on exit."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        for meth in MATRIX_METHODS:
            patch(RowColMatrix, meth, self.wrap(f"matrix.{meth}", getattr(RowColMatrix, meth)))
        for fname in SAMPLING_NAMES:
            patch(solvers, fname, self.wrap(f"sampling.{fname}", getattr(solvers, fname)))
        for fname in STEP_NAMES:
            patch(solvers, fname, self.wrap(STEP_SPAN, getattr(solvers, fname)))

        build = self.wrap("solvers.grak_build_selection", solvers.grak_build_selection)

        def build_selection(state, system):
            sel = build(state, system)
            self.candidates += sel.row_set.size + sel.col_set.size
            self.selections += 1
            return sel

        patch(solvers, "grak_build_selection", build_selection)

        make_monitor = solvers.make_monitor

        def traced_make_monitor(*args, **kwargs):
            monitor = make_monitor(*args, **kwargs)
            monitor.observe = self.wrap("stopping.observe", monitor.observe)
            return monitor

        patch(solvers, "make_monitor", traced_make_monitor)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> np.ndarray:
        """Self time of every span, in seconds."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.intc)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return dur - children

    def totals(self, labels) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self seconds) over segments in ``labels``."""
        self_t = self.self_times()
        ids = np.frombuffer(self.span_name, dtype=np.intc)
        calls = np.zeros(len(self.names), dtype=np.int64)
        secs = np.zeros(len(self.names))
        for label, a, b in self.segments:
            if label in labels:
                calls += np.bincount(ids[a:b], minlength=len(self.names))
                secs += np.bincount(ids[a:b], weights=self_t[a:b], minlength=len(self.names))
        return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        """Dump every span and segment as a compressed numpy archive."""
        labels = sorted({label for label, _, _ in self.segments})
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            segment_labels=np.array(labels),
            segments=np.array([(labels.index(label), a, b) for label, a, b in self.segments],
                              dtype=np.int64).reshape(-1, 3),
        )
