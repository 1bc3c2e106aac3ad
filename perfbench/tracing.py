"""Span recorder that times the package's layers from outside.

``install`` wraps public functions of the package modules.  A module that
bound a function by name at import (``from .operators import compress``)
keeps calling the original, so every module attribute that refers to a
wrapped function is replaced, not only the one in the defining module.
Spans stay in memory; the worker writes them out when it ends.  tracemalloc
runs only inside the spans that report a peak, so the rest of the traced run
does not pay for it.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (module, function, extra) -- extra names what a span records beyond time:
# "peak" for a tracemalloc peak, or a count taken from the result.
TARGETS = [
    ("gasket", "build_vertices", None),
    ("gasket", "build_measure", None),
    ("gasket", "build_dirichlet_laplacian", "peak"),
    ("decimation", "enumerate_spectrum", "records"),
    ("decimation", "truncated_graph_spectrum", None),
    ("eigenbasis", "solve_graph_spectrum", "peak"),
    ("eigenbasis", "group_eigenspaces", None),
    ("eigenbasis", "localized_split", None),
    ("operators", "selection_from_bundles", None),
    ("operators", "symbol_vertex_values", None),
    ("operators", "compress", "columns"),
    ("operators", "operator_eigenvalues", None),
    ("operators", "trace_F", None),
    ("operators", "log_det", None),
    ("szego", "target_integral", None),
    ("szego", "szego_trace_full", None),
    ("szego", "szego_logdet_full", None),
    ("szego", "szego_trace_single_series", None),
    ("szego", "szego_logdet_single_series", None),
    ("szego", "logdet_sandwich", None),
    ("clusters", "build_schrodinger", None),
    ("clusters", "identify_clusters", None),
    ("clusters", "cluster_moments", None),
    ("clusters", "weak_limit_check", None),
    ("clusters", "lipschitz_check", None),
    ("cli", "run", None),
    ("serialize", "write_csv", None),
    ("serialize", "sha256_file", None),
]
PACKAGE = "gasket_szego"


class Recorder:
    """In-memory spans: id, name, start, end, parent id and job id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "job": self.job,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            own_tracemalloc = extra == "peak" and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if own_tracemalloc:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            if extra == "records":
                span["records"] = len(result.records)
            elif extra == "columns":
                span["columns"] = result.dim
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a package module refers to it."""
        import importlib

        for mod_name, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, fn_name, extra in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy time, self time, peak and summed counts.

    Busy time counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of its direct children.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out: dict[str, dict] = {}
    for s in spans:
        t = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0,
                                       "self_s": 0.0, "peak_mb": 0.0,
                                       "records": 0, "columns": 0})
        dur = s["end"] - s["start"]
        t["calls"] += 1
        t["self_s"] += dur - child_time.get(s["id"], 0.0)
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            t["busy_s"] += dur
        t["peak_mb"] = max(t["peak_mb"], s.get("peak_mb", 0.0))
        t["records"] += s.get("records", 0)
        t["columns"] += s.get("columns", 0)
    return out
