"""Smoke tests: the demo scripts run end to end on tiny settings."""

import os
import subprocess
import sys
from pathlib import Path

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
    assert "best at iteration" in done.stdout and "final-iterate gaps" in done.stdout


def test_run_grid_demo(tmp_path):
    outdir = tmp_path / "grid"
    done = run_script(
        "run_grid_demo.py",
        "--signals", "1", "--duration", "0.25", "--iters", "2", "--outdir", str(outdir),
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert (outdir / "results.csv").exists() and (outdir / "averages.csv").exists()
