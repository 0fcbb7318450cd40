"""Every trace site of the benchmark names a callable in ``src/dualquant``,
and a dual-branch solve reaches every site of its iteration split, as a
baseline solve does those of its own.

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
    cpa_solve,
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


def _counted(monkeypatch, names):
    """Calls per site name in ``names``, counted from now on through the
    names the benchmark traces."""
    calls = dict.fromkeys(names, 0)
    for where, name, _ in SITES:
        if name not in calls:
            continue
        owner, attr = _owner_and_name(where)
        original = getattr(owner, attr)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


def _problem():
    """A 32-frame signal (one block of frames), its model, observations and frame."""
    length = 4096
    (_, x), = synth_corpus(1, 3, length / 16000, 16000)
    model = AcquisitionModel(design_lowpass(4, 33), 4, Quantizer(16), Quantizer(10))
    y1, y2 = simulate_acquisition(x, model)
    return x, model, y1, y2, make_tight_frame(512, 128, 512, length)


def _one_iteration_cva_calls(monkeypatch):
    """Calls per site name of the iteration split in a one-iteration CVA
    solve, counted through the names the benchmark traces."""
    calls = _counted(monkeypatch, CVA_CHILDREN)
    x, model, y1, y2, frame = _problem()
    cfg = SolverConfig(*default_steps(model.filter), max_iters=1)
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


def test_one_iteration_cpa_solve_reaches_its_split_sites(monkeypatch):
    # the baseline's per-layer split (cli-oneshot's `baseline` command)
    # reads these names; its first dual update, at the start point, is a
    # second analysis
    calls = _counted(
        monkeypatch,
        ("frames.analyze", "frames.synthesize", "solvers.clip_complex",
         "quantizers.project", "acquisition.sdr"),
    )
    x, model, _, y2, frame = _problem()
    cpa_solve(y2, model.coarse, frame, SolverConfig(max_iters=1), reference=x)
    assert [name for name, n in calls.items() if n == 0] == []
    assert calls["frames.analyze"] == 2
    assert calls["frames.synthesize"] == 1
