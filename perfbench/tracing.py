"""In-memory span recorder for the benchmark's traced run.

Spans are recorded around calls into the library's public functions by
replacing module and class attributes with timing wrappers for the duration
of a traced round; ``unwrap`` restores the originals, so untraced rounds run
the library untouched.  Every root span (one per top-level solve or set-up)
opens a new trace id that its descendants share.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import fraclap.control
import fraclap.fem
import fraclap.fractional
import fraclap.mesh
import fraclap.multigrid
import fraclap.shifted
from fraclap.multigrid import GeometricMultigrid, MeshHierarchy


def _family_counts(result):
    values, stats = result
    return {"systems_multishift": stats.n_alg1, "systems_pcg": stats.n_alg2,
            "matvecs": stats.n_matvec, "n": values.shape[-1]}


def _pcg_counts(result):
    _, stats = result
    return {"matvecs_pcg": stats.n_matvec,
            "pcg_iterations": sum(stats.iterations.values()),
            "prec_setups": stats.n_prec_setups}


# (owner, attribute, span name, counts taken from the return value).  A
# function imported by name into another module is wrapped at every place it
# is looked up, otherwise calls through the importer's binding are missed.
TARGETS = [
    (fraclap.mesh, "unit_square_mesh", "mesh.build", None),
    (fraclap.mesh, "unit_cube_mesh", "mesh.build", None),
    (fraclap.multigrid, "unit_square_mesh", "mesh.build", None),
    (fraclap.multigrid, "unit_cube_mesh", "mesh.build", None),
    (fraclap.multigrid, "prolongation_matrix", "mesh.prolongation", None),
    (fraclap.fem, "operators", "fem.operators", None),
    (MeshHierarchy, "for_mesh", "multigrid.hierarchy", None),
    (GeometricMultigrid, "__init__", "multigrid.setup", None),
    (GeometricMultigrid, "apply", "multigrid.apply", None),
    (fraclap.shifted, "normalize", "shifted.normalize", None),
    (fraclap.shifted, "solve_preconditioned", "shifted.pcg", _pcg_counts),
    (fraclap.fractional, "solve_family", "shifted.family", _family_counts),
    (fraclap.fractional, "fractional_solve", "fractional.solve", None),
    (fraclap.control, "fractional_solve", "fractional.solve", None),
]


class Tracer:
    """Spans ``[name, start, end, parent, trace, counts]`` kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trace = -1
        self._saved: list[tuple] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._trace += 1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._trace, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer._enter(name)
                return self

            def __exit__(self, *exc):
                tracer._exit(self.idx)

            def count(self, **counts):
                tracer.spans[self.idx][5] = counts

        return _Span()

    def _wrapper(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                self.spans[idx][5] = counter(result)
            return result
        return traced

    def wrap(self):
        """Replace every target attribute with a timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already wrapping")
        for owner, attr, name, counter in TARGETS:
            raw = vars(owner).get(attr)
            if raw is None:
                raise AttributeError(f"{owner!r} has no attribute {attr!r}")
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    self._wrapper(raw.__func__, name, counter)))
            else:
                setattr(owner, attr, self._wrapper(raw, name, counter))

    def unwrap(self):
        """Restore the original attributes."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path):
        """One JSON object per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, trace, counts) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "span": idx, "trace": trace, "parent": parent,
                    "name": name, "start_s": start - t0, "end_s": end - t0,
                    "counts": counts}) + "\n")


def self_times(spans, roots):
    """Per span name: summed self time, summed total time and call count
    over the spans whose trace ids belong to ``roots``' traces.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of one trace add up to its root's duration.
    """
    traces = {spans[r][4] for r in roots}
    child = defaultdict(float)
    for name, start, end, parent, trace, _ in spans:
        if parent is not None and trace in traces:
            child[parent] += end - start
    out = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for idx, (name, start, end, parent, trace, _) in enumerate(spans):
        if trace in traces:
            entry = out[name]
            entry["self_s"] += end - start - child[idx]
            entry["total_s"] += end - start
            entry["calls"] += 1
    return out
