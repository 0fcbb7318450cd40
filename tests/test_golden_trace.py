"""Both solvers reproduce stored per-iteration traces on a fixed input.

The traces in ``data/golden_traces.json`` were recorded before the Gabor
coefficients moved to the phase-free half-spectrum convention; a rewrite of
the hot path must keep the iterates, not just clear the acceptance bounds.
The ``cva_rho15`` traces pin the over-relaxed (``rho != 1``) branch of the
dual-branch updates; they were recorded before the filter pair moved to the
aliasing fold.

The solvers run on the observations stored with the traces (``y1_levels``,
``y2_levels``: quantizer level indices), so the traces pin the solvers
alone; a separate test checks that ``simulate_acquisition`` still makes
those observations.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dualquant import (
    AcquisitionModel,
    Quantizer,
    Signal,
    SolverConfig,
    cpa_solve,
    cva_solve,
    default_steps,
    make_tight_frame,
    pad_to_multiple,
    simulate_acquisition,
)
from dualquant.experiment import build_filter, padded_length, synth_corpus

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_traces.json").read_text())
SDR_TOL_DB = 1e-10
ITERS = 50


@pytest.fixture(scope="module")
def problem():
    (_, x), = synth_corpus(1, 1337, 0.5, 16000)
    x = pad_to_multiple(x, padded_length(len(x), 4, 512, 2048))
    model = AcquisitionModel(build_filter(4), 4, Quantizer(16), Quantizer(10))
    return x, model


def stored(name, q: Quantizer, rate_hz: int) -> Signal:
    """A stored observation: the levels ``step * (i + 0.5)`` of its indices."""
    return Signal(q.step * (np.array(GOLDEN[f"{name}_levels"]) + 0.5), rate_hz)


def test_simulation_reproduces_the_stored_observations(problem):
    x, model = problem
    y1, y2 = simulate_acquisition(x, model)
    np.testing.assert_array_equal(y1.samples, stored("y1", model.fine, 4000).samples)
    np.testing.assert_array_equal(y2.samples, stored("y2", model.coarse, 16000).samples)
    assert (y1.sample_rate_hz, y2.sample_rate_hz) == (4000, 16000)


@pytest.fixture(scope="module")
def runs(problem):
    x, model = problem
    fir = model.filter
    frame = make_tight_frame(2048, 512, 2048, len(x))
    y1, y2 = stored("y1", model.fine, 4000), stored("y2", model.coarse, 16000)
    lam = model.coarse.step / 2
    tau, sigma = default_steps(fir)
    cva = cva_solve(
        y1, y2, model, frame, SolverConfig(tau, sigma, lam=lam, max_iters=ITERS), reference=x
    )
    cva_rho15 = cva_solve(
        y1,
        y2,
        model,
        frame,
        SolverConfig(tau, sigma, rho=1.5, lam=lam, max_iters=ITERS),
        reference=x,
    )
    cpa = cpa_solve(
        y2, model.coarse, frame, SolverConfig(1.0, 1.0, lam=lam, max_iters=ITERS), reference=x
    )
    return {"cva": cva, "cpa": cpa, "cva_rho15": cva_rho15}


@pytest.mark.parametrize("solver", ["cva", "cpa", "cva_rho15"])
def test_sdr_trace_matches_golden(runs, solver):
    got = runs[solver].sdr_trace
    want = np.array(GOLDEN[f"{solver}_sdr_trace"])
    assert got.shape == want.shape == (ITERS,)
    assert np.max(np.abs(got - want)) <= SDR_TOL_DB


@pytest.mark.parametrize("solver", ["cva", "cpa", "cva_rho15"])
def test_objective_trace_matches_golden(runs, solver):
    np.testing.assert_allclose(
        runs[solver].objective_trace, GOLDEN[f"{solver}_objective_trace"], rtol=1e-10
    )
