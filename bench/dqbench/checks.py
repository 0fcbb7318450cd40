"""Correctness checks on the library's outputs, and the failure ledger.

Every benchmark operation runs inside :meth:`Ledger.operation`.  An
operation fails when it raises or when any check made inside it fails;
``failed / attempted`` is the benchmark's fail ratio.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import traceback
from pathlib import Path

import numpy as np

GRID_TOL = 1e-12
TRACE_TOL_DB = 1e-10


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._problems: list[str] | None = None

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self._problems.append(what)
        return ok

    @contextlib.contextmanager
    def operation(self, label: str):
        """Count one attempted operation; record its failed checks or error."""
        self.attempted += 1
        self._problems = []
        try:
            yield self
        except Exception:  # an operation that raises is a failed operation
            self._problems.append(traceback.format_exc(limit=4).strip())
        finally:
            problems, self._problems = self._problems, None
            if problems:
                self.failed += 1
                self.failures.extend(f"{label}: {p}" for p in problems)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else math.nan


def on_grid(y, bits: int) -> bool:
    """True when every sample is a ``bits``-bit mid-riser reproduction level."""
    step = 2.0 ** (1 - bits)
    cell = np.asarray(y, dtype=np.float64) / step - 0.5
    idx = np.round(cell)
    return bool(
        np.all(np.abs(cell - idx) * step <= GRID_TOL)
        and np.all(idx >= -(2 ** (bits - 1)))
        and np.all(idx <= 2 ** (bits - 1) - 1)
    )


def all_finite(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return arr.size > 0 and bool(np.all(np.isfinite(arr)))


def csv_problems(path: Path, columns: list[str], rows: int) -> list[str]:
    """Ways in which a results CSV misses a row, a column or a value."""
    with open(path, newline="", encoding="ascii") as fh:
        table = list(csv.reader(fh))
    if not table or table[0] != columns:
        return [f"{path.name}: header {table[:1]} != {columns}"]
    problems = []
    if len(table) - 1 != rows:
        problems.append(f"{path.name}: {len(table) - 1} rows, expected {rows}")
    for i, row in enumerate(table[1:], start=1):
        if len(row) != len(columns) or any(cell == "" for cell in row):
            problems.append(f"{path.name}: row {i} has an empty field: {row}")
    return problems


def read_trace_csv(path: Path) -> dict[str, list[float]]:
    """Columns of a solver trace CSV written by the CLI, as floats."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    return {
        key: [float(r[key]) if r[key] else math.nan for r in rows]
        for key in ("objective", "sdr")
    }


def trace_deviation(trace, stored) -> float:
    """Largest absolute difference in dB; inf when the lengths differ."""
    a = np.asarray(trace, dtype=np.float64)
    b = np.asarray(stored, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b)))


def load_reference(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def save_reference(path: Path, reference: dict) -> None:
    Path(path).write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
