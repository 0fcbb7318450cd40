"""Smoke tests: the demo scripts run end to end on tiny settings."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_single_run_demo(tmp_path):
    done = run_script("single_run_demo.py", "--iters", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "best at iteration" in done.stdout and "gaps at the best iterate" in done.stdout


def test_run_grid_demo(tmp_path):
    outdir = tmp_path / "grid"
    done = run_script(
        "run_grid_demo.py",
        "--signals", "1", "--duration", "0.25", "--iters", "2", "--outdir", str(outdir),
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert (outdir / "results.csv").exists() and (outdir / "averages.csv").exists()


def _paired_bench():
    spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "scripts" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(latency, rss, sdr, failed=0):
    metrics = {
        "latency_ms": {"value": latency, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "sdr_cva_db": {"value": sdr, "unit": "dB"},
    }
    return json.dumps({"correct": True, "attempted": 10, "failed": failed, "metrics": metrics})


def test_paired_bench_summary():
    bench = _paired_bench()
    parent = [bench.parse_result(f"table\n{_result_line(*r)}\n") for r in
              [(10.0, 80.0, 50.0), (12.0, 80.0, 50.0), (11.0, 81.0, 50.0)]]
    change = [bench.parse_result(_result_line(*r)) for r in
              [(9.0, 80.0, 50.5), (12.6, 79.0, 50.0), (9.9, 82.62, 50.5, 1)]]
    metrics = bench.end_to_end_metrics()
    rows = {row["name"]: row for row in bench.summarize(parent, change, metrics)}
    latency = rows["latency_ms"]
    assert (latency["parent_median"], latency["change_median"]) == (11.0, 9.9)
    assert latency["parent_quartiles"] == pytest.approx((10.0, 12.0))
    # ratios 0.9, 1.05 and 0.9: lower is better, two pairs improved
    assert latency["median_ratio"] == pytest.approx(0.9) and latency["improved"] == 2
    rss = rows["peak_rss_mb"]
    assert rss["median_ratio"] == pytest.approx(1.0) and rss["improved"] == 1
    # higher is better for an SDR; a tie is no improvement
    assert rows["sdr_cva_db"]["improved"] == 2 and rows["sdr_cva_db"]["pairs"] == 3
    # a metric neither side reported has no pairs
    assert rows["setup_s"]["pairs"] == 0
    text = bench.format_summary(list(rows.values()), parent, change)
    assert "change: 1 of 30 operations failed" in text and "2/3 (ms)" in text
    with pytest.raises(ValueError):
        bench.summarize(parent, change[:2], metrics)
