"""Turn a finished run into metrics, a printed table and a result file."""

from __future__ import annotations

import json
import resource
import statistics
from pathlib import Path

from .layers import layer_metrics
from .stats import summarize

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _units(kind: str) -> dict:
    """Names and units of the result-line metrics, from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


END_TO_END = _units("end_to_end")
PER_LAYER = _units("per_layer")
# Per-layer metrics outside the result line (layers that only some workloads
# run, and whole-solve times); they go to the table and the result file.
PER_LAYER_EXTRA = {
    "solvers.cpa_self_ms": "ms",
    "solvers.cva_solve_ms": "ms",
    "solvers.cpa_solve_ms": "ms",
    "wavio.save_ms": "ms",
    "cli.self_s": "s",
    "experiment.simulate_s": "s",
    "experiment.cva_s": "s",
    "experiment.cpa_s": "s",
    "experiment.self_s": "s",
    "experiment.cpa_useful_ratio": "ratio",
}

# What latency_ms is on each workload, under its per-workload name, with the
# scale from ms.
LATENCY_AS = {
    "hires-cva": ("cva_iter_ms", "ms", 1.0),
    "grid-16k": ("grid_cell_s", "s", 1e-3),
    "cli-oneshot": ("oneshot_s", "s", 1e-3),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(run) -> dict:
    """Summaries of the untraced timings and the quality of the run."""
    out = {name: summarize(values) for name, values in run.samples.items()}
    for name, values in run.quality.items():
        out[name] = {"mean": statistics.fmean(values), "n": len(values)}
    out["peak_rss_mb"] = {"value": peak_rss_mb()}
    out["fail_ratio"] = {"value": run.ledger.fail_ratio}
    return out


def _value(summary: dict) -> float:
    for key in ("median", "mean", "value"):
        if key in summary:
            return summary[key]
    raise KeyError("summary has no value")


def per_layer(run) -> tuple[dict, dict]:
    values, details = layer_metrics(
        run.tracer.spans, run.info.get("cells_per_grid"), run.info.get("pairs_per_grid")
    )
    for what in ("cva_iteration", "op"):
        split = details.get(f"{what}_split_ms")
        if split:
            with run.ledger.operation(f"traced {what} split") as ledger:
                total, traced = sum(split.values()), details[f"{what}_traced_ms"]
                ledger.check(
                    abs(total - traced) <= 1e-9 * traced,
                    f"split adds up to {total} ms, traced {what} is {traced} ms",
                )
    values["frames.coeff_mb"] = run.info["coeff_bytes_per_array"] / 1e6
    traced = statistics.median(run.traced["latency_ms"])
    untraced = statistics.median(run.samples["latency_ms"])
    values["trace.overhead_ratio"] = traced / untraced
    details["traced_latency_ms"] = summarize(run.traced["latency_ms"])
    check_coverage(run, values)
    return values, details


def check_coverage(run, values: dict) -> None:
    """Fail the run for each trace site that no longer exists in the library
    and for result-line metrics the traced run did not measure, so that a
    renamed function cannot read as a per-layer gain."""
    for where in run.tracer.missing:
        with run.ledger.operation(f"trace site {where}") as ledger:
            ledger.check(False, "not found in the library; update SITES in dqbench/layers.py")
    with run.ledger.operation("per-layer metrics") as ledger:
        for name in PER_LAYER:
            ledger.check(name in values, f"{name} not measured")


def result_line(run, trace: bool, e2e: dict, layer_values: dict | None) -> dict:
    if trace:
        wanted = PER_LAYER
        # A metric that was not measured has failed the run (check_coverage).
        values = {name: layer_values.get(name, 0.0) for name in wanted}
    else:
        wanted = END_TO_END
        values = {name: _value(e2e[name]) for name in wanted}
    return {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in wanted.items()},
    }


def table(workload: str, run, e2e: dict, layer_values, details) -> list[str]:
    lines = [
        f"{workload}: seed {run.seed}, {run.ledger.attempted} operations, "
        f"{run.ledger.failed} failed"
    ]

    def row(name, unit, summary, scale=1.0):
        if summary is None:
            lines.append(f"  {name:<32} {'n/a':>14}")
            return
        text = f"  {name:<32} {_value(summary) * scale:>14.6g} {unit:<6}"
        if "n" in summary:
            text += f" n={summary['n']}"
        if "q1" in summary:
            text += f" q1={summary['q1'] * scale:.6g} q3={summary['q3'] * scale:.6g}"
        if "tail" in summary:
            text += f" p{summary['tail_level']:g}={summary['tail'] * scale:.6g}"
        lines.append(text)

    lines.append(" end to end (untraced):")
    row("setup_s", "s", e2e.get("setup_s"))
    for owner, (name, unit, scale) in LATENCY_AS.items():
        row(name, unit, e2e.get("latency_ms") if owner == workload else None, scale)
    row("peak_rss_mb", "MB", e2e["peak_rss_mb"])
    for name in ("sdr_cva_db", "sdr_margin_db", "sdr_gain_db"):
        row(name, "dB", e2e.get(name))
    row("fail_ratio", "ratio", e2e["fail_ratio"])
    if layer_values is not None:
        lines.append(" per layer (traced):")
        for name, u in {**PER_LAYER, **PER_LAYER_EXTRA}.items():
            if name in details:
                row(name, u, details[name])
            elif name in layer_values:
                row(name, u, {"value": layer_values[name]})
            else:
                row(name, u, None)
        for what, label in (("cva_iteration", "CVA iteration"), ("op", "operation")):
            split = details.get(f"{what}_split_ms")
            if split:
                lines.append(f" traced {label} {details[f'{what}_traced_ms']:.4f} ms =")
                for name, ms in split.items():
                    lines.append(f"  {name:<32} {ms:>14.4f} ms")
    for failure in run.ledger.failures[:10]:
        lines.append(f" FAILED {failure}")
    return lines


def write_result(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
