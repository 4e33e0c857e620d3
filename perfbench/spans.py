"""Function-level spans around the program's layers.

``Tracer`` wraps the public functions named in ``TRACED`` by rebinding
each name in every ``impactfield`` module that holds it, because the
modules import one another's functions with ``from .x import name``.
Calls made inside the defining module, such as ``decompose`` calling
``spectral_radius``, go through the same rebound global and are caught
too. Spans stay in memory until the caller dumps them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

TRACED = {
    "graph": ("geodesic_distances", "parse_edge_list", "largest_component_diameter"),
    "spectral": ("spectral_radius", "decompose", "select_modes"),
    "impact": ("build_weight", "exact_propagator", "approx_impact"),
    "analysis": ("mean_impact_by_distance", "dyad_correlation", "fit_exponential", "run_study"),
    "io": (
        "write_curves_csv",
        "write_fits_csv",
        "write_correlations_csv",
        "write_manifest_csv",
        "write_dyads_csv",
    ),
    "cli": ("main",),
}
# metrics that cover the traced command once: functions that call other
# traced functions count by self time, graph and io by layer total, and
# the remaining leaf functions by total time
PARTITION = (
    "graph.s",
    "spectral.spectral_radius.s",
    "spectral.decompose.self_s",
    "spectral.select_modes.s",
    "impact.build_weight.s",
    "impact.exact_propagator.s",
    "impact.approx_impact.s",
    "analysis.mean_impact_by_distance.s",
    "analysis.dyad_correlation.s",
    "analysis.fit_exponential.s",
    "analysis.run_study.self_s",
    "io.s",
    "cli.self_s",
)
TABLE_WRITERS = ("write_curves_csv", "write_fits_csv", "write_correlations_csv", "write_manifest_csv")


def _run_study_counts(arguments, result) -> dict[str, int]:
    return {
        "cells": len(result),
        "cells_failed": sum(cell.error is not None for cell in result),
        "dyads": sum(cell.correlations[0].n_dyads for cell in result if cell.correlations),
    }


def _bytes_written(arguments, result) -> dict[str, int]:
    return {"bytes": os.path.getsize(arguments["path"])}


COUNTERS = {
    "impact.approx_impact": lambda arguments, result: {"modes": arguments["modes"].num_modes},
    "analysis.run_study": _run_study_counts,
    **{f"io.{name}": _bytes_written for name in TRACED["io"]},
}


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    Each span is ``[name, parent_index, start, end, counts]``, with times
    from ``time.perf_counter`` and ``parent_index`` -1 for a root span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "impactfield" or name.startswith("impactfield.")
        ]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"impactfield.{module_name}")
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    if vars(module).get(name) is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def _wrap(self, name: str, function):
        counter = COUNTERS.get(name)
        signature = inspect.signature(function)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else -1, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span[4] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per function name: calls, total seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for (name, _, start, end, counts), inner in zip(spans, child_time):
        entry = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - inner
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return table


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The benchmark's per-layer metrics for one traced command.

    A function that only some workloads call is reported by its call
    count, and its time by its layer's total (``graph.s``, ``io.s``), so
    no time metric is zero by construction on any workload.
    """
    table = summarize(spans)

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    return {
        "graph.s": sum(get(f"graph.{name}", "s") for name in TRACED["graph"]),
        "graph.geodesic_distances.s": get("graph.geodesic_distances", "s"),
        "graph.parse_edge_list.s": get("graph.parse_edge_list", "s"),
        "graph.largest_component_diameter.calls": get("graph.largest_component_diameter", "calls"),
        "spectral.spectral_radius.calls": get("spectral.spectral_radius", "calls"),
        "spectral.spectral_radius.s": get("spectral.spectral_radius", "s"),
        "spectral.decompose.self_s": get("spectral.decompose", "self_s"),
        "spectral.select_modes.s": get("spectral.select_modes", "s"),
        "impact.build_weight.s": get("impact.build_weight", "s"),
        "impact.exact_propagator.s": get("impact.exact_propagator", "s"),
        "impact.approx_impact.s": get("impact.approx_impact", "s"),
        "impact.approx_impact.modes": get("impact.approx_impact", "modes"),
        "analysis.mean_impact_by_distance.s": get("analysis.mean_impact_by_distance", "s"),
        "analysis.dyad_correlation.s": get("analysis.dyad_correlation", "s"),
        "analysis.fit_exponential.s": get("analysis.fit_exponential", "s"),
        "analysis.run_study.self_s": get("analysis.run_study", "self_s"),
        "analysis.cells": get("analysis.run_study", "cells"),
        "analysis.cells_failed": get("analysis.run_study", "cells_failed"),
        "analysis.dyads": get("analysis.run_study", "dyads"),
        "io.s": sum(get(f"io.{name}", "s") for name in TRACED["io"]),
        "io.write_tables.s": sum(get(f"io.{name}", "s") for name in TABLE_WRITERS),
        "io.write_dyads_csv.calls": get("io.write_dyads_csv", "calls"),
        "io.bytes_written": sum(get(f"io.{name}", "bytes") for name in TRACED["io"]),
        "cli.self_s": get("cli.main", "self_s"),
    }
