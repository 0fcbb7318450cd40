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
import typing
from itertools import count, repeat
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionModel, PEAK_TARGET, sdr, simulate_acquisition
from .experiment import (
    ExperimentConfig,
    _check_type,
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
from .frames import make_tight_frame
from .quantizers import Quantizer
from .signals import Signal, export_taps_csv, pad_to_multiple
from .solvers import SolverConfig, SolverRun, cpa_solve, cva_solve
from .wavio import _SAVED_FORMATS, _max_rate, load_wav, save_wav

_ESTIMATE_BITS = 64  # bits per sample of the estimate reconstruct and baseline write


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
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sig in synth_corpus(args.count, args.seed, args.duration, args.rate):
        path = outdir / f"{name}.wav"
        save_wav(path, sig, bits=args.bits)
        print(path)
    return 0


def cmd_simulate(args) -> int:
    x = load_wav(args.input)
    peak = float(np.max(np.abs(x.samples)))
    if peak == 0.0:
        raise ValueError(f"{args.input}: signal is identically zero")
    scale = PEAK_TARGET / peak
    original_len = len(x)
    target = padded_length(original_len, args.k, args.frame_hop, args.frame_channels)
    fir = build_filter(args.k, args.filter_taps, args.filter_beta)
    # Build what reconstruct and baseline will build from the manifest, so
    # settings they would reject fail here, before any file is written.
    make_tight_frame(args.frame_window, args.frame_hop, args.frame_channels, target)
    lam = args.lam if args.lam is not None else automatic_lam(args.coarse_bits)
    cfg = SolverConfig(rho=args.rho, lam=lam, max_iters=args.iters)
    model = AcquisitionModel(
        fir, args.k, Quantizer(args.fine_bits), Quantizer(args.coarse_bits)
    )

    x_pad = pad_to_multiple(x.with_samples(x.samples * scale), target)
    y1, y2 = simulate_acquisition(x_pad, model)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_wav(outdir / "y1.wav", y1, bits=64)
    save_wav(outdir / "y2.wav", y2, bits=64)
    save_wav(outdir / "reference.wav", x_pad, bits=64)
    export_taps_csv(fir, outdir / "taps.csv")
    write_manifest(
        outdir / "manifest.json",
        {
            "k": args.k,
            "coarse_bits": args.coarse_bits,
            "fine_bits": args.fine_bits,
            "filter": {
                "num_taps": len(fir),
                "beta": args.filter_beta,
                "sha256": taps_digest(fir),
            },
            "frame": {
                "window_len": args.frame_window,
                "hop": args.frame_hop,
                "num_channels": args.frame_channels,
            },
            "sample_rate_hz": x.sample_rate_hz,
            "original_len": original_len,
            "padded_len": target,
            "normalization_scale": scale,
            "solver": dataclasses.asdict(cfg),
            "files": {"y1": "y1.wav", "y2": "y2.wav", "reference": "reference.wav"},
        },
    )
    print(outdir / "manifest.json")
    return 0


# Value type of each manifest key, dotted for section members; the solver
# keys and their types are the SolverConfig fields.  Every key is required
# but the solver settings that SolverConfig has a default for.
_MANIFEST_TYPES = {
    "k": int,
    "coarse_bits": int,
    "fine_bits": int,
    "filter.num_taps": int,
    "filter.beta": float,
    "filter.sha256": str,
    "frame.window_len": int,
    "frame.hop": int,
    "frame.num_channels": int,
    "sample_rate_hz": int,
    "original_len": int,
    "padded_len": int,
    "normalization_scale": float,
    **{f"solver.{name}": hint for name, hint in typing.get_type_hints(SolverConfig).items()},
    "files.y1": str,
    "files.y2": str,
    "files.reference": str,
}
_OPTIONAL_KEYS = {
    f"solver.{f.name}"
    for f in dataclasses.fields(SolverConfig)
    if f.default is not dataclasses.MISSING
}


def _check_manifest(manifest, path) -> None:
    """Raise ``ValueError`` naming the first missing, unknown, mistyped or out-of-range key."""
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    for dotted, hint in _MANIFEST_TYPES.items():
        section, _, name = dotted.rpartition(".")
        holder = manifest
        if section:
            if section not in manifest:
                raise ValueError(f"{path}: manifest lacks key {section!r}")
            holder = manifest[section]
            if not isinstance(holder, dict):
                raise ValueError(f"{path}: manifest key {section!r} is not an object")
        if name in holder:
            _check_type(f"{path}: manifest key {dotted!r}", holder[name], hint)
        elif dotted not in _OPTIONAL_KEYS:
            raise ValueError(f"{path}: manifest lacks key {dotted!r}")
    unknown = sorted(n for n in manifest["solver"] if f"solver.{n}" not in _MANIFEST_TYPES)
    if unknown:
        raise ValueError(f"{path}: unknown solver keys {unknown} in manifest")
    # reconstruct and baseline crop, save and rescale the estimate with these
    # after the whole solve: a bad value would give a wrong file or fail there
    upper = {"original_len": manifest["padded_len"], "sample_rate_hz": _max_rate(_ESTIMATE_BITS)}
    for key, top in upper.items():
        if not 1 <= manifest[key] <= top:
            raise ValueError(f"{path}: manifest key {key!r} is {manifest[key]}, not in [1, {top}]")
    if manifest["normalization_scale"] <= 0:
        raise ValueError(
            f"{path}: manifest key 'normalization_scale' must be positive, "
            f"got {manifest['normalization_scale']}"
        )


def _load_run_inputs(args):
    manifest_path = Path(args.manifest)
    manifest = read_manifest(manifest_path)
    _check_manifest(manifest, manifest_path)
    base = manifest_path.parent
    fir = build_filter(
        manifest["k"], manifest["filter"]["num_taps"], manifest["filter"]["beta"]
    )
    if taps_digest(fir) != manifest["filter"]["sha256"]:
        raise ValueError(
            f"{manifest_path}: filter digest mismatch; manifest does not describe "
            "a filter this build can reproduce"
        )
    frame = make_tight_frame(
        manifest["frame"]["window_len"],
        manifest["frame"]["hop"],
        manifest["frame"]["num_channels"],
        manifest["padded_len"],
    )
    y2 = load_wav(args.y2 if args.y2 else base / manifest["files"]["y2"])
    reference = None
    if args.reference:
        reference = load_wav(args.reference)
    cfg = SolverConfig(**manifest["solver"])
    return manifest, base, fir, frame, y2, reference, cfg


def cmd_reconstruct(args) -> int:
    manifest, base, fir, frame, y2, reference, cfg = _load_run_inputs(args)
    y1 = load_wav(args.y1 if args.y1 else base / manifest["files"]["y1"])
    model = AcquisitionModel(
        fir,
        manifest["k"],
        Quantizer(manifest["fine_bits"]),
        Quantizer(manifest["coarse_bits"]),
    )
    run = cva_solve(y1, y2, model, frame, cfg, reference=reference)
    return _write_run_outputs(args, manifest, base, run, suffix="")


def cmd_baseline(args) -> int:
    manifest, base, fir, frame, y2, reference, cfg = _load_run_inputs(args)
    coarse = Quantizer(manifest["coarse_bits"])
    # a manifest's steps are the dual-branch solver's; the baseline runs its own
    baseline_cfg = dataclasses.replace(cfg, tau=None, sigma=None)
    run = cpa_solve(y2, coarse, frame, baseline_cfg, reference=reference)
    return _write_run_outputs(args, manifest, base, run, suffix="_baseline")


def _write_run_outputs(args, manifest, base, run: SolverRun, suffix: str) -> int:
    """Save the estimate (``--out``, else ``xhat<suffix>.wav``) and the trace
    (``--trace``, else ``trace<suffix>.csv``) and print the estimate's path."""
    out = Path(args.out) if args.out else base / f"xhat{suffix}.wav"
    trace = Path(args.trace) if args.trace else base / f"trace{suffix}.csv"
    # Back to the input's amplitude domain: drop padding, undo normalization.
    estimate = run.estimate.samples[: manifest["original_len"]]
    estimate = estimate / manifest["normalization_scale"]
    save_wav(out, Signal(estimate, manifest["sample_rate_hz"]), bits=_ESTIMATE_BITS)
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
    print(f"{len(rows)} cells ({done} completed) -> {Path(cfg.output_dir) / 'results.csv'}")
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
