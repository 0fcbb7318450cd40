#!/usr/bin/env python3
"""Run one dualquant benchmark workload and print its metrics.

    python3 bench/run.py --workload hires-cva --seed 0 --seconds 45 --trace 0

The library is imported from ``src/`` of the checkout that holds this file.
The table goes to standard output; its last line is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Results and spans are also written under ``bench/out/``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("hires-cva", "grid-16k", "cli-oneshot")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="rewrite the stored hires-cva SDR trace of the default seed",
    )
    return parser.parse_args(argv)


def import_library():
    """The ``dualquant`` modules from this checkout's ``src/``, or None."""
    src = ROOT / "src"
    if not (src / "dualquant" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import dualquant
    from dualquant import (
        acquisition, cli, experiment, frames, quantizers, signals, solvers, wavio,
    )

    if Path(dualquant.__file__).resolve().parent != (src / "dualquant").resolve():
        return None
    return argparse.Namespace(
        acquisition=acquisition, cli=cli, experiment=experiment, frames=frames,
        quantizers=quantizers, signals=signals, solvers=solvers, wavio=wavio,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    from dqbench import env

    env.pin_threads()  # before numpy is imported
    dq = import_library()
    if dq is None:
        print(f"error: no dualquant package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from dqbench import report
    from dqbench.layers import SITES
    from dqbench.tracing import Tracer
    from dqbench.workloads import WORKLOADS as RUNNERS, Run

    if args.record_reference and args.workload != "hires-cva":
        print("error: --record-reference needs --workload hires-cva", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        for where, name, counts in SITES:
            tracer.site(where, name, counts)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(dq, args.seed, args.seconds, workdir, tracer)
        runner = RUNNERS[args.workload]
        if args.record_reference:
            runner(run, record_reference=True)
        else:
            runner(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = report.end_to_end(run)
    layer_values = details = None
    if tracer is not None:
        layer_values, details = report.per_layer(run)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    machine = env.environment()
    # Computed, not measured: one coefficient array against each cache.
    run.info["coeff_array_per_cache"] = {
        level: run.info["coeff_bytes_per_array"] / size
        for level, size in machine["cache_bytes"].items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": machine,
        "inputs": run.info,
        "end_to_end": e2e,
        "per_layer": layer_values,
        "per_layer_details": details,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "failures": run.ledger.failures,
    }
    if tracer is not None:
        record["missing_trace_sites"] = tracer.missing
        tracer.write(OUT / f"{stem}-spans.jsonl")
    report.write_result(OUT / f"{stem}.json", record)
    for line in report.table(args.workload, run, e2e, layer_values, details):
        print(line)
    print(json.dumps(report.result_line(run, bool(args.trace), e2e, layer_values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
