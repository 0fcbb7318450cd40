"""Trace sites in the library and the per-layer metrics computed from them.

Each site is the name where a caller looks a function up, written
``module:attribute.path``.  Span names are ``<layer>.<function>`` of the
function called, whichever caller's name the call went through.
"""

from __future__ import annotations

import os
import statistics

from .stats import summarize
from .tracing import descendants_of, self_times

# A CVA iteration counts as "near best" from the first iteration whose SDR is
# within this many dB of the best SDR of the run.
NEAR_BEST_DB = 0.1


def _solver_counts(args, kwargs, result):
    counts = {"iters": len(result.objective_trace)}
    if result.sdr_trace is not None:
        best = max(result.sdr_trace)
        counts["near_best_iter"] = next(
            i + 1 for i, v in enumerate(result.sdr_trace) if v >= best - NEAR_BEST_DB
        )
    return counts


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


SITES = [
    # frames
    ("dualquant.solvers:analyze", "frames.analyze", None),
    ("dualquant.solvers:synthesize", "frames.synthesize", None),
    ("dualquant.frames:make_tight_frame", "frames.make_tight_frame", None),
    ("dualquant.experiment:make_tight_frame", "frames.make_tight_frame", None),
    ("dualquant.cli:make_tight_frame", "frames.make_tight_frame", None),
    # signals: the filter pair the solver's operator object runs, and the
    # filter of the acquisition front end
    ("dualquant.solvers:_DualBranchOperators.down_filter", "signals.down_filter", None),
    (
        "dualquant.solvers:_DualBranchOperators.up_filter_adjoint",
        "signals.up_filter_adjoint",
        None,
    ),
    ("dualquant.acquisition:apply_filter", "signals.apply_filter", None),
    # quantizers
    ("dualquant.solvers:project", "quantizers.project", None),
    ("dualquant.solvers:consistency_set", "quantizers.consistency_set", None),
    ("dualquant.quantizers:consistency_set", "quantizers.consistency_set", None),
    # acquisition
    ("dualquant.acquisition:simulate_acquisition", "acquisition.simulate_acquisition", None),
    ("dualquant.experiment:simulate_acquisition", "acquisition.simulate_acquisition", None),
    ("dualquant.cli:simulate_acquisition", "acquisition.simulate_acquisition", None),
    ("dualquant.solvers:sdr", "acquisition.sdr", None),
    ("dualquant.experiment:sdr", "acquisition.sdr", None),
    ("dualquant.cli:sdr", "acquisition.sdr", None),
    # solvers
    ("dualquant.solvers:clip_complex", "solvers.clip_complex", None),
    ("dualquant.solvers:cva_solve", "solvers.cva_solve", None),
    ("dualquant.experiment:cva_solve", "solvers.cva_solve", None),
    ("dualquant.cli:cva_solve", "solvers.cva_solve", None),
    ("dualquant.experiment:cpa_solve", "solvers.cpa_solve", None),
    ("dualquant.cli:cpa_solve", "solvers.cpa_solve", None),
    ("dualquant.solvers:cva_solve_sets", "solvers.cva_solve_sets", _solver_counts),
    ("dualquant.solvers:cpa_solve_box", "solvers.cpa_solve_box", _solver_counts),
    # experiment
    ("dualquant.experiment:run_grid", "experiment.run_grid", None),
    ("dualquant.experiment:build_filter", "experiment.build_filter", None),
    ("dualquant.cli:build_filter", "experiment.build_filter", None),
    # wavio
    ("dualquant.wavio:load_wav", "wavio.load_wav", _file_bytes),
    ("dualquant.experiment:load_wav", "wavio.load_wav", _file_bytes),
    ("dualquant.cli:load_wav", "wavio.load_wav", _file_bytes),
    ("dualquant.cli:save_wav", "wavio.save_wav", _file_bytes),
    # cli
    ("dualquant.cli:main", "cli.main", None),
]

# Per-call medians of these spans, in ms (``_ms``) or s (``_s``).
PER_CALL = {
    "frames.analyze_ms": "frames.analyze",
    "frames.synthesize_ms": "frames.synthesize",
    "frames.build_s": "frames.make_tight_frame",
    "experiment.build_filter_ms": "experiment.build_filter",
    "signals.down_filter_ms": "signals.down_filter",
    "signals.up_filter_adjoint_ms": "signals.up_filter_adjoint",
    "signals.apply_filter_ms": "signals.apply_filter",
    "quantizers.project_ms": "quantizers.project",
    "quantizers.consistency_set_ms": "quantizers.consistency_set",
    "acquisition.simulate_ms": "acquisition.simulate_acquisition",
    "acquisition.sdr_ms": "acquisition.sdr",
    "solvers.clip_complex_ms": "solvers.clip_complex",
    "solvers.cva_solve_ms": "solvers.cva_solve_sets",
    "solvers.cpa_solve_ms": "solvers.cpa_solve_box",
    "wavio.load_ms": "wavio.load_wav",
    "wavio.save_ms": "wavio.save_wav",
}

# Children of one CVA run, in the order of the iteration split.
CVA_CHILDREN = (
    "frames.analyze",
    "frames.synthesize",
    "signals.down_filter",
    "signals.up_filter_adjoint",
    "solvers.clip_complex",
    "quantizers.project",
    "acquisition.sdr",
)


def _named(spans, name):
    return [s for s in spans if s.name == name]


def layer_metrics(spans, cells_per_grid=None, pairs_per_grid=None):
    """Per-layer metrics and their distributions from the traced spans.

    Returns ``(values, details)``: ``values`` maps metric name to number;
    ``details`` holds the per-call distributions, the CVA iteration split
    and the operation split (self time of each layer's spans per traced
    operation).  ``cells_per_grid`` and ``pairs_per_grid`` describe each
    ``run_grid`` call, for the per-cell experiment metrics.
    """
    own = self_times(spans)
    values, details = {}, {}
    for metric, name in PER_CALL.items():
        durations = [s.duration for s in _named(spans, name)]
        if durations:
            scale = 1000.0 if metric.endswith("_ms") else 1.0
            details[metric] = summarize([d * scale for d in durations])
            values[metric] = details[metric]["median"]

    solves = {}
    for kind, name in (("cva", "solvers.cva_solve_sets"), ("cpa", "solvers.cpa_solve_box")):
        runs = _named(spans, name)
        iters = sum(s.counts["iters"] for s in runs)
        if iters:
            solves[kind] = (runs, iters)
            values[f"solvers.{kind}_self_ms"] = 1000.0 * sum(own[s.id] for s in runs) / iters
    if solves:
        runs = [s for r, _ in solves.values() for s in r]
        calls = len(_named(descendants_of(spans, runs), "frames.analyze"))
        values["frames.analyze_calls_per_iter"] = calls / sum(n for _, n in solves.values())
    if "cva" in solves:
        runs, iters = solves["cva"]
        near = [s.counts["near_best_iter"] for s in runs if "near_best_iter" in s.counts]
        if near:
            values["solvers.iters_to_near_best"] = statistics.fmean(near)
        run_ids = {r.id for r in runs}
        split = {
            name: 1000.0
            * sum(s.duration for s in spans if s.parent in run_ids and s.name == name)
            / iters
            for name in CVA_CHILDREN
        }
        split["self"] = values["solvers.cva_self_ms"]
        details["cva_iteration_split_ms"] = split
        details["cva_iteration_traced_ms"] = 1000.0 * sum(s.duration for s in runs) / iters

    ops = _named(spans, "bench.op")
    if ops:
        split: dict[str, float] = {}
        for s in ops + descendants_of(spans, ops):
            layer = s.name.split(".")[0]
            split[layer] = split.get(layer, 0.0) + 1000.0 * own[s.id] / len(ops)
        details["op_split_ms"] = dict(sorted(split.items(), key=lambda kv: -kv[1]))
        details["op_traced_ms"] = 1000.0 * sum(s.duration for s in ops) / len(ops)

    io_bytes = {}
    for s in spans:
        if s.name.startswith("wavio."):
            root = _root_of(s, spans)
            io_bytes[root] = io_bytes.get(root, 0) + s.counts["bytes"]
    if io_bytes:
        values["wavio.bytes"] = statistics.fmean(io_bytes.values())

    mains = _named(spans, "cli.main")
    if mains:
        ops = {_root_of(m, spans) for m in mains}
        values["cli.self_s"] = sum(own[m.id] for m in mains) / len(ops)

    grids = _named(spans, "experiment.run_grid")
    if grids and cells_per_grid:
        cells = cells_per_grid * len(grids)
        inner = descendants_of(spans, grids)
        phase = {
            "simulate": "acquisition.simulate_acquisition",
            "cva": "solvers.cva_solve",
            "cpa": "solvers.cpa_solve",
        }
        total = sum(s.duration for s in grids)
        spent = 0.0
        for key, name in phase.items():
            t = sum(s.duration for s in inner if s.name == name)
            values[f"experiment.{key}_s"] = t / cells
            spent += t
        values["experiment.self_s"] = (total - spent) / cells
        cpa_runs = len([s for s in inner if s.name == "solvers.cpa_solve_box"])
        if cpa_runs:
            values["experiment.cpa_useful_ratio"] = pairs_per_grid * len(grids) / cpa_runs
    return values, details


def _root_of(span, spans) -> int:
    while span.parent is not None:
        span = spans[span.parent]
    return span.id
