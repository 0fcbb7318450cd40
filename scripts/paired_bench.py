#!/usr/bin/env python3
"""Paired benchmark runs of two versions of the repository.

    python3 scripts/paired_bench.py PARENT CHANGE --workload hires-cva --pairs 10 --seconds 45

Each side is a git revision of this repository (exported with ``git
archive``) or a directory holding a checkout.  Every run of
``bench/run.py --trace 0`` happens in a fresh copy of its side, in a
directory whose name is random and of one fixed length, so neither the
path nor files left by an earlier run differ between the sides.  The two
sides alternate, and the order is swapped each pair (A B, B A, A B, ...).

At the end it prints, for each end-to-end metric of ``BENCHMARK.json``,
the median of each side, the median of the paired ratios (CHANGE over
PARENT) and how many pairs the change improved, with the failed and
incorrect runs of each side.  The runs are one after another, so the
sides share the machine's state as evenly as alternation allows.
"""

from __future__ import annotations

import argparse
import json
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# hex digits of each run directory's name: every name has this length
_NAME_DIGITS = 16


def end_to_end_metrics(root: Path = ROOT) -> list[dict]:
    """The ``end_to_end`` entries of ``BENCHMARK.json`` under ``root``."""
    return json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a ``bench/run.py`` run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def _quartiles(values) -> tuple[float, float]:
    """The first and third quartiles of ``values`` (both the value itself
    for a single run)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """Per metric, from paired results (``parent[i]`` and ``change[i]`` are
    pair i, each a JSON line of ``bench/run.py``): both medians, the
    parent's quartiles (a gain counts when the medians differ by more than
    their distance), the median of the ratios change / parent, and the
    pairs in which the change was better (lower or higher, as the metric's
    ``better`` says).  A pair in which either side lacks the metric is left
    out of its row."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent results but {len(change)} change results")
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [
            (a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(parent, change)
            if name in a.get("metrics", {}) and name in b.get("metrics", {})
        ]
        if not pairs:
            rows.append({"name": name, "unit": metric["unit"], "pairs": 0})
            continue
        olds, news = zip(*pairs)
        ratios = [new / old if old else float("nan") for old, new in pairs]
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "pairs": len(pairs),
            "parent_median": statistics.median(olds),
            "change_median": statistics.median(news),
            "parent_quartiles": _quartiles(olds),
            "median_ratio": statistics.median(ratios),
            "improved": sum((new < old) if lower else (new > old) for old, new in pairs),
        })
    return rows


def format_summary(rows: list[dict], parent: list[dict], change: list[dict]) -> str:
    """The table :func:`summarize` gives, as text, with the failed and
    incorrect runs of each side."""
    lines = [
        f"{'metric':<14}{'parent':>14}{'parent q1-q3':>26}{'change':>14}{'ratio':>10}  improved"
    ]
    for row in rows:
        if not row["pairs"]:
            lines.append(f"{row['name']:<14}{'n/a':>14}")
            continue
        q1, q3 = row["parent_quartiles"]
        lines.append(
            f"{row['name']:<14}{row['parent_median']:>14.6g}{f'{q1:.6g}-{q3:.6g}':>26}"
            f"{row['change_median']:>14.6g}"
            f"{row['median_ratio']:>10.4f}  {row['improved']}/{row['pairs']} ({row['unit']})"
        )
    for side, results in (("parent", parent), ("change", change)):
        failed = sum(r.get("failed", 0) for r in results)
        attempted = sum(r.get("attempted", 0) for r in results)
        wrong = sum(not r.get("correct", False) for r in results)
        lines.append(f"{side}: {failed} of {attempted} operations failed, {wrong} runs not correct")
    return "\n".join(lines)


def _left_behind(folder: str, names: list[str]) -> list[str]:
    """The names in ``folder`` that a copy of a checkout leaves out: git's
    files, caches and the benchmark's earlier output."""
    skip = {".git", "__pycache__", ".pytest_cache"}
    return [n for n in names if n in skip or (Path(folder).name == "bench" and n == "out")]


def export(side: str, dest: Path) -> None:
    """Write the files of ``side`` (a directory, or a revision of this
    repository) into the new directory ``dest``."""
    path = Path(side)
    if path.is_dir():
        shutil.copytree(path, dest, ignore=_left_behind)
        return
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", side], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(source: Path, work: Path, workload: str, seconds: float) -> dict:
    """One ``bench/run.py`` run of ``workload`` in a fresh copy of
    ``source``, removed afterwards; returns its JSON line."""
    copy = work / secrets.token_hex(_NAME_DIGITS // 2)
    shutil.copytree(source, copy)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True,
        )
        if done.returncode:
            raise RuntimeError(f"bench/run.py exited {done.returncode}: {done.stderr.strip()}")
        return parse_result(done.stdout)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or directory of the parent side")
    parser.add_argument("change", help="git revision or directory of the changed side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        work = Path(tmp)
        sources = {}
        for label, side in (("parent", args.parent), ("change", args.change)):
            sources[label] = work / label
            export(side, sources[label])
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for label in order:
                result = run_once(sources[label], work, args.workload, args.seconds)
                results[label].append(result)
                metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                print(f"pair {i + 1} {label}: {json.dumps(metrics)}", flush=True)
    metrics = end_to_end_metrics()
    rows = summarize(results["parent"], results["change"], metrics)
    print(format_summary(rows, results["parent"], results["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
