"""Command-line interface.

Subcommands:
  synth        write seeded synthetic sparse test signals
  simulate     turn a signal into the two observations plus a run manifest
  reconstruct  dual-branch reconstruction from observations + manifest
  baseline     single-branch baseline reconstruction from y2 + manifest
  sdr          print the SDR between two WAV files
  grid         run the bit-depth grid experiment from a JSON config
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from itertools import count, repeat
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionModel, PEAK_TARGET, sdr, simulate_acquisition
from .experiment import (
    ExperimentConfig,
    _check_filter_taps,
    _from_json,
    _write_csv,
    automatic_lam,
    build_filter,
    padded_length,
    read_manifest,
    run_grid,
    synth_corpus,
    taps_digest,
    write_manifest,
)
from .frames import TfFrame, make_tight_frame
from .quantizers import Quantizer
from .signals import Signal, export_taps_csv, pad_to_multiple
from .solvers import SolverConfig, SolverRun, _l1_radius, _norm_bound, cpa_solve, cva_solve
from .wavio import _SAVED_FORMATS, _max_rate, load_wav, save_wav

_WAV_BITS = 64  # bits per sample of every WAV simulate, reconstruct and baseline write


def _add_model_args(p: argparse.ArgumentParser) -> None:
    grid = ExperimentConfig()
    p.add_argument("--k", type=int, default=grid.k, help="downsampling factor")
    p.add_argument("--coarse-bits", type=int, default=10)
    p.add_argument("--fine-bits", type=int, default=20)
    p.add_argument("--filter-taps", type=int, default=grid.filter_taps)
    p.add_argument("--filter-beta", type=float, default=grid.filter_beta)
    p.add_argument("--frame-window", type=int, default=grid.frame_window)
    p.add_argument("--frame-hop", type=int, default=grid.frame_hop)
    p.add_argument("--frame-channels", type=int, default=grid.frame_channels)
    p.add_argument("--rho", type=float, default=grid.rho)
    p.add_argument(
        "--lam",
        type=float,
        default=grid.lam,
        help="l1 weight; default is half the coarse quantization step",
    )
    p.add_argument("--iters", type=int, default=grid.max_iters)


def cmd_synth(args) -> int:
    corpus = synth_corpus(args.count, args.seed, args.duration, args.rate)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sig in corpus:
        path = outdir / f"{name}.wav"
        save_wav(path, sig, bits=args.bits)
        print(path)
    return 0


@dataclasses.dataclass(frozen=True)
class FilterSpec:
    """The anti-aliasing filter ``build_filter(k, num_taps, beta)``, whose
    taps have the SHA-256 digest ``sha256`` (:func:`taps_digest`)."""

    num_taps: int
    beta: float
    sha256: str


@dataclasses.dataclass(frozen=True)
class FrameSpec:
    """The arguments of :func:`make_tight_frame` but the signal length."""

    window_len: int
    hop: int
    num_channels: int


@dataclasses.dataclass(frozen=True)
class RunFiles:
    """The observations and the reference, relative to the manifest's folder."""

    y1: str
    y2: str
    reference: str


@dataclasses.dataclass(frozen=True)
class Manifest:
    """The run manifest: one recorded acquisition and the solver settings.

    ``simulate`` writes its ``dataclasses.asdict``; ``reconstruct`` and
    ``baseline`` read it back with :func:`_from_json`; both apply its value
    rules, ``__post_init__``.  Each annotation is the JSON type of its key,
    and each section is a dataclass of its own (``solver`` is
    :class:`SolverConfig`, whose defaulted keys may be left out).
    """

    k: int
    coarse_bits: int
    fine_bits: int
    filter: FilterSpec
    frame: FrameSpec
    sample_rate_hz: int
    original_len: int
    padded_len: int
    normalization_scale: float
    solver: SolverConfig
    files: RunFiles

    def __post_init__(self):
        # the estimate is cropped, saved and rescaled with these after the
        # whole solve, and simulate saves its files at this rate or below: a
        # bad value would give a wrong file or fail there
        upper = {
            "original_len": (self.padded_len, ""),
            "sample_rate_hz": (_max_rate(_WAV_BITS), f", the sample rates of a {_WAV_BITS}-bit WAV"),
        }
        for key, (top, what) in upper.items():
            value = getattr(self, key)
            if not 1 <= value <= top:
                raise ValueError(f"manifest key {key!r} is {value}, not in [1, {top}]{what}")
        if self.normalization_scale <= 0:
            raise ValueError(
                "manifest key 'normalization_scale' must be positive, "
                f"got {self.normalization_scale}"
            )
        _check_filter_taps(self.filter.num_taps, self.padded_len)


def _build_run(manifest: Manifest, path) -> tuple[TfFrame, AcquisitionModel]:
    """The frame and the acquisition model ``manifest`` describes.  All three
    commands build their run here, so ``simulate`` rejects what
    ``reconstruct`` and ``baseline`` would."""
    fir = build_filter(manifest.k, manifest.filter.num_taps, manifest.filter.beta)
    if taps_digest(fir) != manifest.filter.sha256:
        raise ValueError(
            f"{path}: filter digest mismatch; manifest does not describe "
            "a filter this build can reproduce"
        )
    frame = make_tight_frame(**dataclasses.asdict(manifest.frame), signal_len=manifest.padded_len)
    model = AcquisitionModel(
        fir, manifest.k, Quantizer(manifest.fine_bits), Quantizer(manifest.coarse_bits)
    )
    return frame, model


def cmd_simulate(args) -> int:
    x = load_wav(args.input)
    peak = float(np.max(np.abs(x.samples)))
    if peak == 0.0:
        raise ValueError(f"{args.input}: signal is identically zero")
    target = padded_length(len(x), args.k, args.frame_hop, args.frame_channels)
    _check_filter_taps(args.filter_taps, target)
    fir = build_filter(args.k, args.filter_taps, args.filter_beta)
    lam = args.lam if args.lam is not None else automatic_lam(args.coarse_bits)
    manifest = Manifest(
        k=args.k,
        coarse_bits=args.coarse_bits,
        fine_bits=args.fine_bits,
        filter=FilterSpec(len(fir), args.filter_beta, taps_digest(fir)),
        frame=FrameSpec(args.frame_window, args.frame_hop, args.frame_channels),
        sample_rate_hz=x.sample_rate_hz,
        original_len=len(x),
        padded_len=target,
        normalization_scale=PEAK_TARGET / peak,
        solver=SolverConfig(rho=args.rho, lam=lam, max_iters=args.iters),
        files=RunFiles(y1="y1.wav", y2="y2.wav", reference="reference.wav"),
    )
    outdir = Path(args.outdir)
    # the run reconstruct and baseline will build, built before any file is
    # written, and the l1 clip radius of reconstruct's steps (the baseline's
    # unit sigma gives a smaller one)
    frame, model = _build_run(manifest, outdir / "manifest.json")
    _l1_radius(frame, manifest.solver.with_steps_for(_norm_bound(fir)))

    x_pad = pad_to_multiple(x.with_samples(x.samples * manifest.normalization_scale), target)
    y1, y2 = simulate_acquisition(x_pad, model)
    outdir.mkdir(parents=True, exist_ok=True)
    save_wav(outdir / manifest.files.y1, y1, bits=_WAV_BITS)
    save_wav(outdir / manifest.files.y2, y2, bits=_WAV_BITS)
    save_wav(outdir / manifest.files.reference, x_pad, bits=_WAV_BITS)
    export_taps_csv(model.filter, outdir / "taps.csv")
    write_manifest(outdir / "manifest.json", dataclasses.asdict(manifest))
    print(outdir / "manifest.json")
    return 0


def _load_run_inputs(args):
    """The manifest, its folder, the frame and model it describes, ``y2``
    and the reference (or None)."""
    path = Path(args.manifest)
    manifest = _from_json(Manifest, read_manifest(path), path, "manifest")
    y2 = load_wav(args.y2 or path.parent / manifest.files.y2)
    # the frame is built for padded_len samples; y2 bounds it by a real file
    if len(y2) != manifest.padded_len:
        raise ValueError(
            f"{path}: manifest key 'padded_len' is {manifest.padded_len}, "
            f"but y2 has {len(y2)} samples"
        )
    frame, model = _build_run(manifest, path)
    reference = load_wav(args.reference) if args.reference else None
    return manifest, path.parent, frame, model, y2, reference


def cmd_reconstruct(args) -> int:
    manifest, base, frame, model, y2, reference = _load_run_inputs(args)
    y1 = load_wav(args.y1 or base / manifest.files.y1)
    run = cva_solve(y1, y2, model, frame, manifest.solver, reference=reference)
    return _write_run_outputs(args, manifest, base, run, suffix="")


def cmd_baseline(args) -> int:
    manifest, base, frame, model, y2, reference = _load_run_inputs(args)
    # a manifest's steps are the dual-branch solver's; the baseline runs its own
    cfg = dataclasses.replace(manifest.solver, tau=None, sigma=None)
    run = cpa_solve(y2, model.coarse, frame, cfg, reference=reference)
    return _write_run_outputs(args, manifest, base, run, suffix="_baseline")


def _write_run_outputs(args, manifest: Manifest, base, run: SolverRun, suffix: str) -> int:
    """Save the estimate (``--out``, else ``xhat<suffix>.wav``) and the trace
    (``--trace``, else ``trace<suffix>.csv``) and print the estimate's path."""
    out = Path(args.out) if args.out else base / f"xhat{suffix}.wav"
    trace = Path(args.trace) if args.trace else base / f"trace{suffix}.csv"
    # Back to the input's amplitude domain: drop padding, undo normalization.
    estimate = run.estimate.samples[: manifest.original_len]
    estimate = estimate / manifest.normalization_scale
    save_wav(out, Signal(estimate, manifest.sample_rate_hz), bits=_WAV_BITS)
    sdrs = repeat(None) if run.sdr_trace is None else run.sdr_trace
    _write_csv(trace, ["iteration", "objective", "sdr"], zip(count(1), run.objective_trace, sdrs))
    print(out)
    return 0


def cmd_sdr(args) -> int:
    value = sdr(load_wav(args.reference), load_wav(args.estimate))
    print(f"{value:.6f}" if value != float("inf") else "inf")
    return 0


def cmd_grid(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    rows = run_grid(cfg)
    done = sum(1 for r in rows if r.sdr_cva is not None)
    results = Path(cfg.output_dir) / "results.csv"
    if not done:
        raise ValueError(f"no grid cell completed; {results} holds the {len(rows)} failed rows")
    print(f"{len(rows)} cells ({done} completed) -> {results}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualquant",
        description="Two-branch quantized acquisition and sparse reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic sparse test signals")
    p.add_argument("--outdir", required=True)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--seed", type=int, default=1337)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--rate", type=int, default=16000)
    p.add_argument("--bits", type=int, default=64, choices=sorted(_SAVED_FORMATS))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="produce observations y1/y2 + manifest")
    p.add_argument("input", help="input WAV file")
    p.add_argument("--outdir", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="dual-branch reconstruction")
    p.add_argument("manifest", help="manifest.json from `simulate`")
    p.add_argument("--y1")
    p.add_argument("--y2")
    p.add_argument("--reference", help="clean reference enabling SDR tracking")
    p.add_argument("--out")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("baseline", help="single-branch baseline from y2")
    p.add_argument("manifest")
    p.add_argument("--y2")
    p.add_argument("--reference")
    p.add_argument("--out")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sdr", help="SDR between two WAV files, in dB")
    p.add_argument("reference")
    p.add_argument("estimate")
    p.set_defaults(func=cmd_sdr)

    p = sub.add_parser("grid", help="run the bit-depth grid experiment")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
