"""Bit-depth grid experiment: configuration, synthetic corpus, run loop.

A grid cell is one (signal, coarse bits, fine bits) combination.  For each
cell the harness simulates the two observations, reconstructs with the
dual-branch solver and with the single-branch baseline, and records the
SDR of the raw coarse observation and of both reconstructions, selecting
for each solver the best SDR reached within its iteration budget.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import logging
import math
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionModel, peak_normalize, sdr, simulate_acquisition
from .frames import TfFrame, make_tight_frame
from .quantizers import Quantizer
from .signals import FirFilter, Signal, design_lowpass, pad_to_multiple
from .solvers import SolverConfig, cpa_solve, cva_solve
from .wavio import load_wav

__all__ = [
    "ExperimentConfig",
    "GridRow",
    "RESULT_COLUMNS",
    "automatic_lam",
    "build_filter",
    "padded_length",
    "synth_sparse_signal",
    "synth_corpus",
    "run_grid",
    "write_manifest",
    "read_manifest",
    "taps_digest",
]

logger = logging.getLogger(__name__)

# The most samples a padded signal, or a synthetic corpus, may have (46 min
# at 48 kHz): both come from sizes in files and flags, and a run holds
# several float64 arrays of the padded length and frame coefficients of a
# few times it.
_MAX_SAMPLES = 2**27

# What a JSON setting must be for each declared type of a settings field.
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _check_type(label: str, value, hint) -> None:
    """Raise ``ValueError`` naming ``label`` unless ``value`` has the
    declared type ``hint``: a key of ``_TYPE_NAMES``, a ``list`` of one, a
    ``dict`` (an object, whose entries its owner checks), or one ``|
    None``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ValueError(f"{label} must be a list, got {value!r}")
        for item in value:
            _check_type(f"each entry of {label}", item, args[0])
    elif typing.get_origin(hint) is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{label} must be an object, got {value!r}")
    elif type(None) in args:
        if value is not None:
            (inner,) = set(args) - {type(None)}
            _check_type(label, value, inner)
    # bool is an int subclass, but true/false is no count or step size;
    # JSON NaN and Infinity pass every ``<=`` check of a config, and an
    # integer beyond the float range has no float value
    elif (
        isinstance(value, bool) != (hint is bool)
        or not isinstance(value, (int, float) if hint is float else hint)
        or (hint is float and not abs(value) <= sys.float_info.max)
    ):
        raise ValueError(f"{label} must be {_TYPE_NAMES[hint]}, got {value!r}")


@functools.cache
def _hints(cls) -> dict:
    """The field types of the dataclass ``cls``, evaluated once per process."""
    return typing.get_type_hints(cls)


def _from_json(cls, data, path, kind: str, section: str = ""):
    """``cls`` built from the JSON object ``data`` read from the ``kind``
    file ``path`` (its ``section``, for a nested dataclass); raise
    ``ValueError`` naming the file and the dotted key of the first missing,
    mistyped or unknown entry, or a section that is not an object.  A field
    with a default may be left out.  An error ``cls`` raises on the values
    names the file too."""
    if not isinstance(data, dict):
        if section:
            raise ValueError(f"{path}: {kind} key {section!r} is not an object")
        raise ValueError(f"{path}: {kind} is not a JSON object")
    hints, values = _hints(cls), {}
    for f in dataclasses.fields(cls):
        key = f"{section}.{f.name}" if section else f.name
        hint = hints[f.name]
        if f.name not in data:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"{path}: {kind} lacks key {key!r}")
        elif dataclasses.is_dataclass(hint):
            values[f.name] = _from_json(hint, data[f.name], path, kind, key)
        else:
            try:
                _check_type(f"{kind} key {key!r}", data[f.name], hint)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            values[f.name] = data[f.name]
    unknown = sorted(set(data) - set(hints))
    if unknown:
        where = f" in {section!r}" if section else ""
        raise ValueError(f"{path}: unknown {kind} keys {unknown}{where}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def automatic_lam(coarse_bits: int) -> float:
    """The default l1 weight: half the step of the coarse quantizer.

    It scales the sparsity pressure with the quantization noise, which
    keeps the 200-iteration protocol productive across the whole bit-depth
    grid.  Grid cells and ``dualquant simulate`` both take it from here.
    """
    return Quantizer(coarse_bits).step / 2


@dataclass
class ExperimentConfig:
    """Grid experiment settings; mirrors the JSON config file key-for-key."""

    signals: list[str] = field(default_factory=list)
    synth_count: int = 5
    synth_seed: int = 1337
    synth_duration_s: float = 2.0
    synth_rate_hz: int = 16000
    coarse_bits: list[int] = field(default_factory=lambda: list(range(4, 17)))
    fine_bits: list[int] = field(default_factory=lambda: list(range(10, 25)))
    k: int = 4
    filter_taps: int = 129
    filter_beta: float = 8.0
    frame_window: int = 2048
    frame_hop: int = 512
    frame_channels: int = 2048
    rho: float = 1.0
    lam: float | None = None
    max_iters: int = 200
    lambda_table: dict[str, float] = field(default_factory=dict)
    output_dir: str = "grid-results"
    workers: int = 1
    record_timing: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # each key's type is its annotation; lambda_table's entries are checked below
        for name, hint in _hints(type(self)).items():
            _check_type(f"config key {name!r}", getattr(self, name), hint)
        for name in ("coarse_bits", "fine_bits"):
            depths = getattr(self, name)
            if not depths or len(set(depths)) != len(depths):
                raise ValueError(f"config key {name!r} must list distinct bit depths, got {depths}")
        for w in [*self.coarse_bits, *self.fine_bits]:
            if not 1 <= int(w) <= 32:
                raise ValueError(f"bit depth {w} outside [1, 32]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.signals and self.synth_count < 1:
            raise ValueError("no input signals: supply paths or synth_count >= 1")
        lams = [("config", 1.0 if self.lam is None else self.lam)]
        for key, value in self.lambda_table.items():
            # lambda_for looks cells up by this exact spelling, so "10, 20"
            # or "010,20" would match none
            parts = key.split(",") if isinstance(key, str) else []
            digits = len(parts) == 2 and all(p.isascii() and p.isdigit() for p in parts)
            if not digits or key != "{},{}".format(*map(int, parts)):
                raise ValueError(
                    f'lambda_table keys must look like "coarse,fine"; got {key!r}'
                )
            coarse, fine = map(int, parts)
            if not (1 <= coarse <= 32 and 1 <= fine <= 32):
                raise ValueError(f"lambda_table key {key!r} names a bit depth outside [1, 32]")
            if coarse not in self.coarse_bits or fine not in self.fine_bits:
                raise ValueError(
                    f"lambda_table key {key!r} names no cell of coarse_bits x fine_bits"
                )
            _check_type(f"lambda_table entry {key!r}", value, float)
            lams.append((f"lambda_table entry {key!r}", value))
        # The solver's own rules, so that no cell fails on a setting the
        # config could have rejected.
        for label, lam in lams:
            try:
                SolverConfig(rho=self.rho, lam=lam, max_iters=self.max_iters)
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None

    def lambda_for(self, coarse: int, fine: int) -> float:
        """l1 weight for a grid cell: per-cell table entry, then the global
        override, then :func:`automatic_lam` of the coarse depth."""
        key = f"{coarse},{fine}"
        if key in self.lambda_table:
            return float(self.lambda_table[key])
        if self.lam is not None:
            return float(self.lam)
        return automatic_lam(coarse)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return _from_json(cls, read_manifest(path), path, "config")

    def to_file(self, path) -> None:
        write_manifest(path, dataclasses.asdict(self))


@dataclass
class GridRow:
    signal_id: str
    coarse_bits: int
    fine_bits: int
    k: int
    sdr_y2: float | None
    sdr_cpa: float | None
    sdr_cva: float | None
    best_iter: int | None
    wall_time_s: float | None


# Header of results.csv, whose rows are the GridRow fields in this order.
RESULT_COLUMNS = [f.name for f in dataclasses.fields(GridRow)]
# GridRow columns that averages.csv averages over the completed cells.
_AVERAGED = ("sdr_y2", "sdr_cpa", "sdr_cva")
_AVERAGE_COLUMNS = ["coarse_bits", "fine_bits", "k", "n_signals"]
_AVERAGE_COLUMNS += [f"mean_{c}" for c in _AVERAGED]


def build_filter(k: int, num_taps: int = 129, beta: float = 8.0) -> FirFilter:
    """Anti-aliasing filter for factor ``k``; unit impulse when k == 1."""
    if k == 1:
        return FirFilter(np.array([1.0]))
    return design_lowpass(k, num_taps, beta)


def _check_filter_taps(num_taps: int, signal_len: int) -> None:
    """Raise ``ValueError`` if a filter of ``num_taps`` taps is longer than
    the padded signal it filters; run before :func:`build_filter` designs
    it, so a size from a file allocates nothing before it is checked."""
    if num_taps > signal_len:
        raise ValueError(
            f"filter of {num_taps} taps is longer than the padded signal ({signal_len} samples)"
        )


def padded_length(length: int, k: int, hop: int, channels: int) -> int:
    """Smallest admissible signal length >= ``length`` for the pipeline."""
    named = {"signal length": length, "factor k": k, "frame hop": hop, "frame channels": channels}
    for name, value in named.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    base = math.lcm(k, hop, channels)
    padded = ((length + base - 1) // base) * base
    if padded > _MAX_SAMPLES:
        raise ValueError(
            f"padded signal length {padded} (a multiple of lcm(k, frame hop, frame channels)"
            f" = {base}) exceeds {_MAX_SAMPLES} samples: a run holds several arrays of it"
        )
    return padded


def synth_sparse_signal(rng: np.random.Generator, duration_s: float, rate_hz: int) -> Signal:
    """Random sum of 5..20 decaying sinusoids, peak-normalized.

    Frequencies are log-uniform between 60 Hz and 0.45 * rate, amplitudes
    uniform, each component damped with its own exponential envelope, so
    the result is sparse under a time-frequency transform.
    """
    n = int(round(duration_s * rate_hz))
    if n < 1:
        raise ValueError("duration too short for the sample rate")
    t = np.arange(n) / rate_hz
    count = int(rng.integers(5, 21))
    log_lo, log_hi = np.log(60.0), np.log(0.45 * rate_hz)
    freqs = np.exp(rng.uniform(log_lo, log_hi, size=count))
    amps = rng.uniform(0.05, 1.0, size=count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    decays = rng.uniform(0.3, 2.0, size=count)
    x = np.zeros(n)
    for a, f, ph, tc in zip(amps, freqs, phases, decays):
        x += a * np.exp(-t / tc) * np.sin(2.0 * np.pi * f * t + ph)
    return peak_normalize(Signal(x, rate_hz))


def synth_corpus(
    count: int, seed: int, duration_s: float, rate_hz: int
) -> list[tuple[str, Signal]]:
    total = count * duration_s * rate_hz
    # ``not <=`` also rejects NaN
    if not total <= _MAX_SAMPLES:
        raise ValueError(
            f"a synthetic corpus of {count} signals of {duration_s} s at {rate_hz} Hz must have "
            f"at most {_MAX_SAMPLES} samples (it is held in memory), got {total:g}"
        )
    rng = np.random.default_rng(seed)
    return [
        (f"synthetic-{i:03d}", synth_sparse_signal(rng, duration_s, rate_hz))
        for i in range(count)
    ]


def _load_corpus(cfg: ExperimentConfig) -> list[tuple[str, Signal]]:
    corpus: list[tuple[str, Signal]] = []
    for path in cfg.signals:
        p = Path(path)
        if not p.exists():
            raise ValueError(f"input signal not found: {p}")
        if any(p.stem == signal_id for signal_id, _ in corpus):
            raise ValueError(
                f"two input signals share the file stem {p.stem!r}, "
                "which is their signal_id in results.csv"
            )
        corpus.append((p.stem, load_wav(p)))
    if cfg.synth_count >= 1 and not cfg.signals:
        corpus.extend(
            synth_corpus(cfg.synth_count, cfg.synth_seed, cfg.synth_duration_s, cfg.synth_rate_hz)
        )
    return corpus


def _run_cell(
    signal_id: str,
    x_pad: Signal,
    frame: TfFrame,
    fir: FirFilter,
    cfg: ExperimentConfig,
    coarse: int,
    fine: int,
) -> GridRow:
    start = time.perf_counter()
    try:
        model = AcquisitionModel(fir, cfg.k, Quantizer(fine), Quantizer(coarse))
        y1, y2 = simulate_acquisition(x_pad, model)
        lam = cfg.lambda_for(coarse, fine)
        solver_cfg = SolverConfig(rho=cfg.rho, lam=lam, max_iters=cfg.max_iters)
        sdr_y2 = sdr(x_pad, y2)
        cva_run = cva_solve(y1, y2, model, frame, solver_cfg, reference=x_pad)
        cpa_run = cpa_solve(y2, model.coarse, frame, solver_cfg, reference=x_pad)
        elapsed = time.perf_counter() - start
        return GridRow(
            signal_id=signal_id,
            coarse_bits=coarse,
            fine_bits=fine,
            k=cfg.k,
            sdr_y2=sdr_y2,
            sdr_cpa=float(np.max(cpa_run.sdr_trace)),
            sdr_cva=float(np.max(cva_run.sdr_trace)),
            best_iter=cva_run.best_sdr_iter,
            wall_time_s=elapsed if cfg.record_timing else None,
        )
    except (ValueError, MemoryError) as exc:
        logger.warning(
            "grid cell (%s, coarse=%d, fine=%d) failed: %s",
            signal_id, coarse, fine, str(exc) or type(exc).__name__,
        )
        return GridRow(signal_id, coarse, fine, cfg.k, None, None, None, None, None)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header line, then ``rows``.  csv writes None as an empty
    field and a float as its repr, so every float reads back bit for bit."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _average_rows(rows: list[GridRow]):
    """One averages.csv row per (coarse, fine) pair: the mean of each
    averaged column over the pair's completed cells, None if there are none."""
    groups: dict[tuple[int, int], list[GridRow]] = {}
    for row in rows:
        groups.setdefault((row.coarse_bits, row.fine_bits), []).append(row)
    for (coarse, fine), members in sorted(groups.items()):
        done = [r for r in members if r.sdr_cva is not None]
        means = [np.mean([getattr(r, c) for r in done]) if done else None for c in _AVERAGED]
        yield [coarse, fine, members[0].k, len(done), *means]


def run_grid(cfg: ExperimentConfig) -> list[GridRow]:
    """Run the full bit-depth grid and write results.csv / averages.csv.

    Failed cells are kept as rows with empty metric fields.  Rows are
    sorted before writing, so the output is independent of scheduling.
    """
    cfg.validate()
    corpus = _load_corpus(cfg)
    if not corpus:
        raise ValueError("experiment corpus is empty")
    targets = [padded_length(len(x), cfg.k, cfg.frame_hop, cfg.frame_channels) for _, x in corpus]
    _check_filter_taps(cfg.filter_taps, min(targets))
    fir = build_filter(cfg.k, cfg.filter_taps, cfg.filter_beta)
    frames: dict[int, TfFrame] = {}

    jobs = []
    for (signal_id, x), target in zip(corpus, targets):
        x_pad = pad_to_multiple(peak_normalize(x), target)
        if target not in frames:
            frames[target] = make_tight_frame(
                cfg.frame_window, cfg.frame_hop, cfg.frame_channels, target
            )
        for coarse in cfg.coarse_bits:
            for fine in cfg.fine_bits:
                jobs.append((signal_id, x_pad, frames[target], coarse, fine))

    def run(job) -> GridRow:
        signal_id, x_pad, frame, coarse, fine = job
        return _run_cell(signal_id, x_pad, frame, fir, cfg, coarse, fine)

    if cfg.workers == 1:
        rows = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(run, jobs))

    rows.sort(key=lambda r: (r.signal_id, r.coarse_bits, r.fine_bits))
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "results.csv", RESULT_COLUMNS, map(dataclasses.astuple, rows))
    _write_csv(outdir / "averages.csv", _AVERAGE_COLUMNS, _average_rows(rows))
    return rows


def taps_digest(fir: FirFilter) -> str:
    return hashlib.sha256(fir.taps.tobytes()).hexdigest()


def write_manifest(path, manifest: dict) -> None:
    """Write a run manifest, or a grid config, as indented key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    """Read a run manifest, or a grid config, as parsed JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
