"""The three benchmark workloads.

Each workload is a closed loop in one process and one thread: the next
operation starts when the previous one has returned, until the time budget
is spent.  Timings go to ``Run.samples`` (untraced) or ``Run.traced``
(traced); in a traced run the two alternate operation by operation, so the
tracing overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import checks
from .inputs import read_samples, sparse_signal, write_pcm24

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "reference"

# The paper's front end: k=4, 129-tap Kaiser low-pass, 2048-channel frame
# with hop 512.
K = 4
WINDOW, HOP, CHANNELS = 2048, 512, 2048
COEFF_BYTES = 16  # complex128

HIRES = {"duration_s": 6.0, "rate_hz": 48000, "coarse": 10, "fine": 20, "iters": 10}
GRID = {
    "duration_s": 2.0,
    "rate_hz": 16000,
    "coarse_bits": [8, 10],
    "fine_bits": [16, 20],
    "iters": 200,
}
ONESHOT = {"duration_s": 6.0, "rate_hz": 48000, "coarse": 10, "fine": 20, "iters": 1}
SETUP_REPS = 9

# The documented columns of results.csv, kept here so that a change to the
# library's own list is caught rather than followed.
RESULT_COLUMNS = [
    "signal_id",
    "coarse_bits",
    "fine_bits",
    "k",
    "sdr_y2",
    "sdr_cpa",
    "sdr_cva",
    "best_iter",
    "wall_time_s",
]


class Run:
    """State of one benchmark run: budget, samples, ledger and tracer."""

    def __init__(self, dq, seed: int, seconds: float, workdir: Path, tracer=None):
        self.dq = dq
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.deadline = time.perf_counter() + seconds
        self.ledger = checks.Ledger()
        self.samples = defaultdict(list)
        self.traced = defaultdict(list)
        self.quality = defaultdict(list)
        self.info: dict = {}
        self._turn = defaultdict(int)

    def measure(self, kind: str, fn):
        """Run ``fn`` once, timed; traced on every other call of a kind
        when this is a traced run.  Returns ``(result, seconds, traced)``."""
        traced = self.tracer is not None and self._turn[kind] % 2 == 1
        self._turn[kind] += 1
        if not traced:
            start = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - start, False
        with self.tracer.installed(), self.tracer.span(f"bench.{kind}"):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        return result, elapsed, True

    def add(self, metric: str, value: float, traced: bool) -> None:
        (self.traced if traced else self.samples)[metric].append(value)

    def repeat(self, op) -> None:
        """Closed loop: run ``op(i)`` while the next one fits in the budget.

        A traced run makes at least one untraced and one traced operation.
        """
        least = 2 if self.tracer is not None else 1
        i = 0
        while True:
            start = time.perf_counter()
            op(i)
            i += 1
            last = time.perf_counter() - start
            if i >= least and time.perf_counter() + last > self.deadline:
                return


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    """SDR in dB, computed by the benchmark rather than by the library."""
    return 20.0 * math.log10(
        np.linalg.norm(reference) / np.linalg.norm(reference - estimate)
    )


def _setup(run: Run, wav: Path, coarse: int, fine: int):
    """Input file to ready-to-iterate: load, normalize, pad, frame, filter,
    observations and their consistency boxes."""
    dq = run.dq
    x = dq.wavio.load_wav(wav)
    x = dq.acquisition.peak_normalize(x)
    length = dq.experiment.padded_length(len(x), K, HOP, CHANNELS)
    x_pad = dq.signals.pad_to_multiple(x, length)
    frame = dq.frames.make_tight_frame(WINDOW, HOP, CHANNELS, length)
    fir = dq.experiment.build_filter(K)
    model = dq.acquisition.AcquisitionModel(
        fir, K, dq.quantizers.Quantizer(fine), dq.quantizers.Quantizer(coarse)
    )
    y1, y2 = dq.acquisition.simulate_acquisition(x_pad, model)
    dq.quantizers.consistency_set(y1, model.fine)
    dq.quantizers.consistency_set(y2, model.coarse)
    return x_pad, frame, model, y1, y2


def _timed_setups(run: Run, wav: Path, coarse: int, fine: int):
    """Set up ``SETUP_REPS`` times; check and return the last set-up."""
    for i in range(SETUP_REPS):
        with run.ledger.operation(f"setup {i}") as ledger:
            state, elapsed, traced = run.measure(
                "setup", lambda: _setup(run, wav, coarse, fine)
            )
            run.add("setup_s", elapsed, traced)
            x_pad, frame, model, y1, y2 = state
            ledger.check(checks.on_grid(y1.samples, fine), "y1 off its quantizer grid")
            ledger.check(checks.on_grid(y2.samples, coarse), "y2 off its quantizer grid")
            ledger.check(len(y1) * K == len(y2) == len(x_pad), "observation lengths")
    run.info["signal_len"] = len(x_pad)
    run.info["coeff_bytes_per_array"] = frame.num_coeffs * COEFF_BYTES
    return state


def _hires_input(run: Run, seed: int) -> Path:
    p = HIRES
    wav = run.workdir / f"hires-{seed}.wav"
    samples = sparse_signal(seed, "hires-cva", p["duration_s"], p["rate_hz"])
    write_pcm24(wav, samples, p["rate_hz"])
    return wav


def _hires_config(dq, model):
    tau, sigma = dq.solvers.default_steps(model.filter)
    lam = model.coarse.step / 2
    return dq.solvers.SolverConfig(tau, sigma, lam=lam, max_iters=HIRES["iters"])


def check_stored_trace(run: Run, record: bool = False) -> None:
    """Solve the default seed's hires-cva input once, untimed, and compare
    its SDR trace with the stored one (or store it when ``record``).

    This runs whatever the seed of the run, so every hires-cva run guards
    the numerics: a rewrite that changes them cannot pass as a speed-up.
    """
    dq, p = run.dq, HIRES
    path = REFERENCE_DIR / f"hires-cva-seed{DEFAULT_SEED}.json"
    with run.ledger.operation("stored-trace check") as ledger:
        wav = _hires_input(run, DEFAULT_SEED)
        x_pad, frame, model, y1, y2 = _setup(run, wav, p["coarse"], p["fine"])
        cfg = _hires_config(dq, model)
        trace = dq.solvers.cva_solve(y1, y2, model, frame, cfg, reference=x_pad).sdr_trace
        if record:
            checks.save_reference(
                path, {"seed": DEFAULT_SEED, "workload": "hires-cva", "sdr_trace": trace.tolist()}
            )
            return
        dev = checks.trace_deviation(trace, checks.load_reference(path)["sdr_trace"])
        ledger.check(
            dev <= checks.TRACE_TOL_DB, f"SDR trace deviates from {path.name} by {dev:.3g} dB"
        )


def hires_cva(run: Run, record_reference: bool = False) -> None:
    """Dual-branch solves on one 6 s / 48 kHz signal (criterion-9 shape)."""
    dq, p = run.dq, HIRES
    check_stored_trace(run, record_reference)
    wav = _hires_input(run, run.seed)
    x_pad, frame, model, y1, y2 = _timed_setups(run, wav, p["coarse"], p["fine"])
    cfg = _hires_config(dq, model)
    sdr_y2 = snr_db(x_pad.samples, y2.samples)
    run.info.update(iters=p["iters"], coarse_bits=p["coarse"], fine_bits=p["fine"], lam=cfg.lam)

    def op(i):
        with run.ledger.operation(f"hires-cva solve {i}") as ledger:
            result, elapsed, traced = run.measure(
                "op", lambda: dq.solvers.cva_solve(y1, y2, model, frame, cfg, reference=x_pad)
            )
            run.add("latency_ms", 1000.0 * elapsed / p["iters"], traced)
            trace = result.sdr_trace
            ledger.check(checks.all_finite(trace), "SDR trace not finite")
            ledger.check(checks.all_finite(result.objective_trace), "objective trace not finite")
            ledger.check(len(result.estimate) == len(x_pad), "estimate length")
            best = float(np.max(trace))
            run.quality["sdr_cva_db"].append(best)
            run.quality["sdr_gain_db"].append(best - sdr_y2)

    run.repeat(op)


def grid_16k(run: Run) -> None:
    """``run_grid`` on seeded 2 s / 16 kHz WAV files, paper's 200 iterations."""
    dq, p = run.dq, GRID
    cells = len(p["coarse_bits"]) * len(p["fine_bits"])
    run.info.update(
        iters=p["iters"], coarse_bits=p["coarse_bits"], fine_bits=p["fine_bits"],
        cells_per_grid=cells, pairs_per_grid=len(p["coarse_bits"]),
    )

    def signal(i):
        wav = run.workdir / f"grid-{i:03d}.wav"
        samples = sparse_signal(run.seed, f"grid-16k-{i}", p["duration_s"], p["rate_hz"])
        write_pcm24(wav, samples, p["rate_hz"])
        return wav

    _timed_setups(run, signal(0), p["coarse_bits"][0], p["fine_bits"][0])

    def op(i):
        wav = signal(i)
        outdir = run.workdir / f"grid-{i:03d}"
        cfg = dq.experiment.ExperimentConfig(
            signals=[str(wav)],
            coarse_bits=p["coarse_bits"],
            fine_bits=p["fine_bits"],
            k=K,
            max_iters=p["iters"],
            output_dir=str(outdir),
            workers=1,
        )
        with run.ledger.operation(f"grid-16k grid {i}") as ledger:
            rows, elapsed, traced = run.measure("op", lambda: dq.experiment.run_grid(cfg))
            run.add("latency_ms", 1000.0 * elapsed / cells, traced)
            for problem in checks.csv_problems(outdir / "results.csv", RESULT_COLUMNS, cells):
                ledger.check(False, problem)
            values = [[r.sdr_y2, r.sdr_cpa, r.sdr_cva] for r in rows]
            if ledger.check(
                len(rows) == cells and all(v is not None for row in values for v in row)
                and checks.all_finite(values),
                "grid rows with missing or non-finite SDR",
            ):
                y2_, cpa, cva = np.asarray(values).T
                run.quality["sdr_cva_db"].append(float(np.mean(cva)))
                run.quality["sdr_margin_db"].append(float(np.mean(cva - cpa)))
                run.quality["sdr_gain_db"].append(float(np.mean(cva - y2_)))

    run.repeat(op)


def cli_oneshot(run: Run) -> None:
    """simulate -> reconstruct -> baseline -> sdr through ``dualquant.cli.main``
    on a 6 s / 48 kHz WAV with a one-iteration budget."""
    dq, p = run.dq, ONESHOT
    wav = run.workdir / "oneshot.wav"
    source = sparse_signal(run.seed, "cli-oneshot", p["duration_s"], p["rate_hz"])
    write_pcm24(wav, source, p["rate_hz"])
    out = run.workdir / "oneshot"
    manifest, reference = str(out / "manifest.json"), str(out / "reference.wav")
    run.info.update(
        iters=p["iters"], coarse_bits=p["coarse"], fine_bits=p["fine"],
        signal_len=dq.experiment.padded_length(source.size, K, HOP, CHANNELS),
    )
    run.info["coeff_bytes_per_array"] = run.info["signal_len"] * CHANNELS // HOP * COEFF_BYTES
    simulate = [
        "simulate", str(wav), "--outdir", str(out), "--iters", str(p["iters"]),
        "--coarse-bits", str(p["coarse"]), "--fine-bits", str(p["fine"]),
    ]
    commands = [
        ["reconstruct", manifest, "--reference", reference],
        ["baseline", manifest, "--reference", reference],
        ["sdr", str(wav), str(out / "xhat.wav")],
    ]

    def four_commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            start = time.perf_counter()
            codes = [dq.cli.main(simulate)]
            simulated = time.perf_counter() - start
            codes += [dq.cli.main(argv) for argv in commands]
        return codes, simulated, stdout.getvalue()

    def op(i):
        shutil.rmtree(out, ignore_errors=True)
        with run.ledger.operation(f"cli-oneshot {i}") as ledger:
            (codes, simulated, stdout), elapsed, traced = run.measure("op", four_commands)
            run.add("latency_ms", 1000.0 * elapsed, traced)
            run.add("setup_s", simulated, traced)
            ledger.check(codes == [0, 0, 0, 0], f"exit codes {codes}")
            xhat = read_samples(out / "xhat.wav")
            ledger.check(xhat.size == source.size, f"xhat.wav has {xhat.size} samples")
            ledger.check(checks.on_grid(read_samples(out / "y1.wav"), p["fine"]), "y1 off grid")
            y2 = read_samples(out / "y2.wav")
            ledger.check(checks.on_grid(y2, p["coarse"]), "y2 off grid")
            cva = checks.read_trace_csv(out / "trace.csv")
            cpa = checks.read_trace_csv(out / "trace_baseline.csv")
            for name, trace in (("trace.csv", cva), ("trace_baseline.csv", cpa)):
                ledger.check(
                    checks.all_finite(trace["objective"]) and checks.all_finite(trace["sdr"]),
                    f"{name} not finite",
                )
            printed = stdout.strip().splitlines()[-1]
            ledger.check(math.isfinite(float(printed)), f"sdr printed {printed!r}")
            best = max(cva["sdr"])
            ref = read_samples(out / "reference.wav")
            run.quality["sdr_cva_db"].append(best)
            run.quality["sdr_margin_db"].append(best - max(cpa["sdr"]))
            run.quality["sdr_gain_db"].append(best - snr_db(ref, y2))

    run.repeat(op)


WORKLOADS = {
    "hires-cva": hires_cva,
    "grid-16k": grid_16k,
    "cli-oneshot": cli_oneshot,
}
