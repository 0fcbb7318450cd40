"""Every trace site of the benchmark names a callable in ``src/dualquant``,
and a dual-branch solve reaches every site of its iteration split.

The traced benchmark wraps functions at the names listed in
``bench/dqbench/layers.py::SITES``; a hot-path function renamed in the
library, or one the solver stops calling through that name, would otherwise
surface only as a failed traced run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from dualquant import (
    AcquisitionModel,
    Quantizer,
    SolverConfig,
    cva_solve,
    default_steps,
    design_lowpass,
    make_tight_frame,
    simulate_acquisition,
)
from dualquant.experiment import synth_corpus

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

from dqbench.layers import CVA_CHILDREN, SITES  # noqa: E402


@pytest.mark.parametrize("where", sorted({site for site, _, _ in SITES}))
def test_trace_site_resolves(where):
    module_name, _, path = where.partition(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "dualquant")
    owner = module
    for part in path.split("."):
        assert hasattr(owner, part), f"{where}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def _owner_and_name(where):
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def _one_iteration_cva_calls(monkeypatch):
    """Calls per site name of the iteration split in a one-iteration CVA
    solve, counted through the names the benchmark traces."""
    calls = dict.fromkeys(CVA_CHILDREN, 0)
    for where, name, _ in SITES:
        if name not in calls:
            continue
        owner, attr = _owner_and_name(where)
        original = getattr(owner, attr)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    length = 4096
    (_, x), = synth_corpus(1, 3, length / 16000, 16000)
    fir = design_lowpass(4, 33)
    model = AcquisitionModel(fir, 4, Quantizer(16), Quantizer(10))
    y1, y2 = simulate_acquisition(x, model)
    frame = make_tight_frame(512, 128, 512, length)
    cfg = SolverConfig(*default_steps(fir), max_iters=1)
    cva_solve(y1, y2, model, frame, cfg, reference=x)
    return calls


def test_one_iteration_cva_solve_reaches_every_split_site(monkeypatch):
    calls = _one_iteration_cva_calls(monkeypatch)
    assert [name for name, n in calls.items() if n == 0] == []
    assert calls["frames.analyze"] == 1


def test_one_iteration_cva_solve_clips_and_synthesizes_once(monkeypatch):
    # a 32-frame signal is one block of frames, so an iteration clips once;
    # on longer signals clip_complex runs once per block (its per-call
    # median is a per-block cost) and synthesize once per iteration
    calls = _one_iteration_cva_calls(monkeypatch)
    assert calls["solvers.clip_complex"] == 1
    assert calls["frames.synthesize"] == 1
