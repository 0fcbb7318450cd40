import math
import sys
import types

import numpy as np
import pytest

from dqbench import checks, report
from dqbench.tracing import Tracer
from dqbench.workloads import DEFAULT_SEED, REFERENCE_DIR, RESULT_COLUMNS, Run


def _stored_trace():
    path = REFERENCE_DIR / f"hires-cva-seed{DEFAULT_SEED}.json"
    return checks.load_reference(path)["sdr_trace"]


def test_stored_trace_check_passes_on_itself_and_trips_on_a_perturbation():
    stored = _stored_trace()
    assert len(stored) == 10 and all(math.isfinite(v) for v in stored)
    assert checks.trace_deviation(list(stored), stored) == 0.0
    perturbed = list(stored)
    perturbed[-1] += 1e-9
    assert checks.trace_deviation(perturbed, stored) > checks.TRACE_TOL_DB
    assert checks.trace_deviation(stored[:-1], stored) == math.inf


def test_forced_failure_shows_in_fail_ratio(tmp_path):
    run = Run(dq=None, seed=1, seconds=1.0, workdir=tmp_path)
    with run.ledger.operation("passes") as ledger:
        ledger.check(True, "never reported")
    with run.ledger.operation("fails a check") as ledger:
        ledger.check(False, "forced failure")
    with run.ledger.operation("raises"):
        raise ValueError("forced error")
    run.samples["setup_s"].append(0.1)
    run.samples["latency_ms"].append(1.0)
    run.quality["sdr_cva_db"].append(40.0)
    e2e = report.end_to_end(run)
    assert e2e["fail_ratio"]["value"] == pytest.approx(2 / 3)
    line = report.result_line(run, False, e2e, None)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 2)
    assert set(line["metrics"]) == set(report.END_TO_END)
    assert any("forced failure" in f for f in run.ledger.failures)
    assert any("ValueError: forced error" in f for f in run.ledger.failures)


def test_on_grid_accepts_levels_and_rejects_off_grid_or_out_of_range():
    step = 2.0**-9  # 10 bits
    levels = step * (np.arange(-512, 512) + 0.5)
    assert checks.on_grid(levels, 10)
    assert not checks.on_grid(levels + 1e-9, 10)
    assert not checks.on_grid([1.0 + step / 2], 10)


def test_csv_problems_finds_missing_rows_and_empty_fields(tmp_path):
    path = tmp_path / "results.csv"
    full = ["s", "8", "16", "4", "40.0", "41.0", "42.0", "7", "0.5"]
    path.write_text(",".join(RESULT_COLUMNS) + "\n" + ",".join(full) + "\n")
    assert checks.csv_problems(path, RESULT_COLUMNS, 1) == []
    assert len(checks.csv_problems(path, RESULT_COLUMNS, 2)) == 1
    path.write_text(",".join(RESULT_COLUMNS) + "\n" + ",".join(full[:-1] + [""]) + "\n")
    assert len(checks.csv_problems(path, RESULT_COLUMNS, 1)) == 1



def test_missing_trace_site_and_unmeasured_metric_fail_a_traced_run(tmp_path, monkeypatch):
    module = types.ModuleType("fake_solvers")
    module.analyze = lambda x: x
    monkeypatch.setitem(sys.modules, "fake_solvers", module)
    tracer = Tracer()
    tracer.site("fake_solvers:analyze", "frames.analyze")
    tracer.site("fake_solvers:renamed_away", "signals.down_filter")
    run = Run(dq=None, seed=1, seconds=1.0, workdir=tmp_path, tracer=tracer)
    with tracer.installed():
        module.analyze(1)
    values = {name: 1.0 for name in report.PER_LAYER}
    report.check_coverage(run, values)
    assert (run.ledger.attempted, run.ledger.failed) == (2, 1)
    assert any("fake_solvers:renamed_away" in f for f in run.ledger.failures)

    del values["signals.down_filter_ms"]
    report.check_coverage(run, values)
    assert run.ledger.failed == 3
    assert any("signals.down_filter_ms not measured" in f for f in run.ledger.failures)
    line = report.result_line(run, True, {}, values)
    assert line["correct"] is False
    assert set(line["metrics"]) == set(report.PER_LAYER)
