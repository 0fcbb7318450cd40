import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualquant import (
    AcquisitionModel,
    ConsistencySet,
    Downsampler,
    FirFilter,
    Quantizer,
    Signal,
    SolverConfig,
    analyze,
    apply_filter,
    apply_filter_adjoint,
    clip_complex,
    consistency_set,
    cpa_solve,
    cpa_solve_box,
    cva_solve,
    cva_solve_sets,
    default_steps,
    design_lowpass,
    downsample,
    make_tight_frame,
    quantize,
    sdr,
    simulate_acquisition,
    upsample_adjoint,
)
from dualquant import frames
from dualquant.solvers import (
    _DualBranchOperators,
    _L1Branch,
    _norm_bound,
    _step_generator,
    _weighted_l1,
)

L = 4
IDENTITY_FRAME = make_tight_frame(1, 1, 1, L)
IMPULSE = FirFilter([1.0])
TAU, SIGMA = default_steps(IMPULSE)


def box(lo, hi, n=L):
    return ConsistencySet(np.full(n, lo), np.full(n, hi))


def min_abs_point(lo, hi):
    """Per-coordinate minimizer of |x| over [lo, hi]: the solver-free oracle."""
    return np.where((lo <= 0) & (hi >= 0), 0.0, np.where(lo > 0, lo, hi))


class TestClipComplex:
    def test_rescales_large_modulus(self):
        out = clip_complex(np.array([3 + 4j]), 1.0)
        np.testing.assert_allclose(out, [0.6 + 0.8j], atol=1e-15)

    def test_small_values_untouched(self):
        c = np.array([0.3 + 0.0j, -0.2j])
        np.testing.assert_array_equal(clip_complex(c, 1.0), c)

    def test_real_input_clamps_to_interval(self):
        np.testing.assert_allclose(
            clip_complex(np.array([-3.0, 0.5, 2.0]), 1.0), [-1.0, 0.5, 1.0]
        )

    def test_nonpositive_lam_rejected(self):
        with pytest.raises(ValueError):
            clip_complex(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            clip_complex(np.ones((2, 3)), np.array([1.0, -1.0, 1.0]))

    def test_radius_shapes_broadcast(self):
        # a radius per bin, per coefficient, per row or a scalar; and a radius
        # that broadcasts the coefficients to a larger shape
        rng = np.random.default_rng(4)
        c = rng.standard_normal((70, 5)) + 1j * rng.standard_normal((70, 5))
        for lam in (rng.uniform(0.2, 2, 5), rng.uniform(0.2, 2, (70, 5)),
                    rng.uniform(0.2, 2, (70, 1)), rng.uniform(0.2, 2, (1, 5)), 0.7):
            want = c * np.minimum(1.0, lam / np.maximum(np.abs(c), 1e-300))
            np.testing.assert_allclose(clip_complex(c, lam), want, rtol=1e-15, atol=0)
        column = c[:, :1]
        lam = rng.uniform(0.2, 2, 5)
        want = column * np.minimum(1.0, lam / np.abs(column))
        np.testing.assert_allclose(clip_complex(column, lam), want, rtol=1e-15, atol=0)

    @given(
        re=arrays(np.float64, 32, elements=st.floats(-5, 5, width=64)),
        im=arrays(np.float64, 32, elements=st.floats(-5, 5, width=64)),
        lam=st.floats(0.01, 4.0),
    )
    def test_projection_properties(self, re, im, lam):
        c = re + 1j * im
        out = clip_complex(c, lam)
        assert np.max(np.abs(out)) <= lam * (1 + 1e-12)
        inside = np.abs(c) <= lam
        np.testing.assert_array_equal(out[inside], c[inside])


# (L, k) of the fold tests: odd L, odd L/k, taps longer than L/k (and than
# L at 27), k = 1 (no fold) and k = L/k.
FOLD_SHAPES = [(27, 3), (45, 5), (60, 4), (63, 7), (64, 1), (30, 2)]
FOLD_FIR = FirFilter(np.random.default_rng(7).standard_normal(33))
# (L, k, taps) at the block boundaries of the block-FFT pair (S = 256 at
# k = 4 and at k = 3 with 129 taps, 2048 at 1025 taps): a short last block
# (L/k = 750 and 7000 are not multiples of the 224 and 213 outputs per
# block), more than one chunk of blocks (49152), S longer than L/k (1025
# taps at 4096) and taps longer than L, folded onto the circle (1025 at 512).
BLOCK_SHAPES = [
    (3000, 4, 129), (21000, 3, 129), (49152, 4, 129), (4096, 4, 1025), (512, 4, 1025)
]


def random_fir(taps):
    return FirFilter(np.random.default_rng(taps).standard_normal(taps) / np.sqrt(taps))


OPERATOR_CASES = [
    pytest.param(length, k, FOLD_FIR, id=f"{length}-{k}") for length, k in FOLD_SHAPES
] + [
    pytest.param(length, k, random_fir(taps), id=f"{length}-{k}-{taps}taps")
    for length, k, taps in BLOCK_SHAPES
]


def fold_ops(length, k, fir=FOLD_FIR):
    return _DualBranchOperators(length, fir, k)


class TestDualBranchOperators:
    @pytest.mark.parametrize("length, k, fir", OPERATOR_CASES)
    def test_down_filter_matches_filter_then_downsample(self, length, k, fir):
        rng = np.random.default_rng(length * 10 + k)
        ops = fold_ops(length, k, fir)
        for _ in range(10):
            x = rng.standard_normal(length)
            want = downsample(apply_filter(x, fir), Downsampler(k))
            got = ops.down_filter(x)
            assert got.shape == (length // k,)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length, k, fir", OPERATOR_CASES)
    def test_up_filter_adjoint_matches_upsample_then_correlate(self, length, k, fir):
        rng = np.random.default_rng(length * 10 + k)
        ops = fold_ops(length, k, fir)
        for _ in range(10):
            w = rng.standard_normal(length // k)
            want = apply_filter_adjoint(upsample_adjoint(w, Downsampler(k), length), fir)
            got = ops.up_filter_adjoint(w, np.zeros(length))
            assert got.shape == (length,)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length, k, fir", OPERATOR_CASES)
    def test_up_filter_adjoint_adds_into_the_given_array(self, length, k, fir):
        # the solver's form: the same sums, added into its gradient
        rng = np.random.default_rng(length * 10 + k + 1)
        ops = fold_ops(length, k, fir)
        w, base = rng.standard_normal(length // k), rng.standard_normal(length)
        want = base + ops.up_filter_adjoint(w, np.zeros(length))
        got = base.copy()
        assert ops.up_filter_adjoint(w, add_to=got) is got
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("length, k, fir", OPERATOR_CASES)
    def test_down_filter_adds_into_the_given_array(self, length, k, fir):
        # the solver's form at rho == 1: the fine prox argument, formed in
        # the dual
        rng = np.random.default_rng(length * 10 + k + 2)
        ops = fold_ops(length, k, fir)
        v, base = rng.standard_normal(length), rng.standard_normal(length // k)
        want = base + ops.down_filter(v)
        got = base.copy()
        assert ops.down_filter(v, add_to=got) is got
        np.testing.assert_array_equal(got, want)

    def test_down_filter_output_is_fresh(self):
        # with rho != 1 the solver forms the fine prox argument in the output
        ops = fold_ops(3000, 4, random_fir(129))
        rng = np.random.default_rng(3)
        first = ops.down_filter(rng.standard_normal(3000))
        kept = first.copy()
        ops.down_filter(rng.standard_normal(3000))
        np.testing.assert_array_equal(first, kept)

    def test_filter_pair_adjoint(self):
        # the solver's own D_k B and its adjoint, criterion-1 style, on the
        # fold and block shapes and on the design filter at lengths 64 and 256
        rng = np.random.default_rng(2025)
        lowpass = design_lowpass(4, 33, 8.0)
        cases = [(length, k, FOLD_FIR) for length, k in FOLD_SHAPES]
        cases += [(length, k, random_fir(taps)) for length, k, taps in BLOCK_SHAPES]
        cases += [(length, 4, lowpass) for length in (64, 256)]
        for length, k, fir in cases:
            ops = fold_ops(length, k, fir)
            for _ in range(100):
                x = rng.standard_normal(length)
                w = rng.standard_normal(length // k)
                scale = np.linalg.norm(x) * np.linalg.norm(w)
                adjoint = ops.up_filter_adjoint(w, np.zeros(length))
                err = abs(np.dot(ops.down_filter(x), w) - np.dot(x, adjoint)) / scale
                assert err < 1e-10

    def test_held_state_does_not_grow_with_length(self):
        # the pair reads its input through chunk-sized lines, not through
        # histories as long as the signal
        def held(length):
            ops = _DualBranchOperators(length, design_lowpass(4), 4)
            return sum(v.nbytes for v in vars(ops).values() if isinstance(v, np.ndarray))

        assert held(49152) == held(1155072)

    @pytest.mark.parametrize("taps", [129, 1025])
    def test_call_transients_bounded(self, taps):
        # One call of either direction at the hires-cva length holds no more
        # than its output plus a fixed bound: no index array, whole-signal
        # spectrum, length-L scratch or numpy iterator buffer per call.
        length, k = 288768, 4
        rng = np.random.default_rng(taps)
        ops = fold_ops(length, k, design_lowpass(k, taps))
        v, w = rng.standard_normal(length), rng.standard_normal(length // k)
        short, full = np.zeros(length // k), np.zeros(length)
        calls = [
            (lambda: ops.down_filter(v), short.nbytes),
            (lambda: ops.down_filter(v, add_to=short), 0),
            (lambda: ops.up_filter_adjoint(w, add_to=full), 0),
        ]
        for call, out_bytes in calls:
            assert _peak_bytes(call) <= out_bytes + 80 * 1024


class TestCvaStepAllocation:
    @pytest.mark.parametrize(
        "solver, rho",
        [pytest.param("cva", 1.0, id="1.0"), pytest.param("cva", 1.5, id="1.5"),
         pytest.param("cpa", 1.0, id="cpa")],
    )
    def test_steps_allocate_at_most_two_coefficient_arrays(self, solver, rho):
        # Every coefficient array of the iteration is allocated once per run;
        # a step may still hold transients inside the transforms and the
        # clip, but no more than two arrays' worth at a time.
        from dualquant.experiment import synth_corpus

        length = 32768
        frame = make_tight_frame(2048, 512, 2048, length)
        model = AcquisitionModel(design_lowpass(4), 4, Quantizer(16), Quantizer(10))
        (_, x), = synth_corpus(1, 5, length / 16000, 16000)
        y1, y2 = simulate_acquisition(x, model)
        steps = _steps_of(solver, rho, frame, model, y1, y2)
        next(steps)
        next(steps)
        tracemalloc.start()
        try:
            for _ in range(3):
                next(steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        coeff_bytes = frame.num_coeffs * np.dtype(np.complex128).itemsize
        assert peak <= 2 * coeff_bytes


def _steps_of(solver, rho, frame, model, y1, y2):
    """The step generator of either solver's problem from ``y2``, at
    default steps and ``lam`` half the coarse step."""
    lam = model.coarse.step / 2
    coarse_set = consistency_set(y2.samples, model.coarse)
    if solver == "cpa":
        cfg = SolverConfig(1.0, 1.0, lam=lam)
        branches, primal_box = [], coarse_set
    else:
        cfg = SolverConfig(*default_steps(model.filter), rho=rho, lam=lam)
        ops = _DualBranchOperators(frame.signal_len, model.filter, model.factor)
        branches = [(ops, consistency_set(y1.samples, model.fine)), (None, coarse_set)]
        primal_box = None
    return _step_generator(y2.samples.copy(), _L1Branch(frame, cfg), cfg, branches, primal_box)


def _peak_bytes(call):
    """Peak of the memory ``call()`` allocates (tracemalloc), after one
    warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestBlockScratch:
    """A solve holds its iteration state, and every call in it adds only
    block-sized scratch on top: no temporary the size of the signal's
    coefficients."""

    @pytest.mark.parametrize("name", ["analyze", "clip_complex", "_weighted_l1"])
    def test_call_allocates_its_output_plus_one_mib(self, name):
        length = 288768  # the hires-cva length
        frame = make_tight_frame(2048, 512, 2048, length)
        coeffs = analyze(frame, np.random.default_rng(1).standard_normal(length))
        coeffs = coeffs.reshape(frame.coeff_shape)
        radius = 0.5 * np.median(np.abs(coeffs)) * frame.coeff_weight
        x = np.random.default_rng(2).standard_normal(length)
        terms = np.empty(frame.num_frames)
        calls = {
            "analyze": (lambda: analyze(frame, x), coeffs.nbytes),
            "clip_complex": (lambda: clip_complex(coeffs, radius), coeffs.nbytes),
            "_weighted_l1": (lambda: _weighted_l1(coeffs, frame, terms), 0),
        }
        call, output_bytes = calls[name]
        assert _peak_bytes(call) <= output_bytes + (1 << 20)

    @staticmethod
    def _problem():
        """Frame, model, signal and observations of a 256-frame signal, so
        that a block of 32 frames is a small part of it."""
        from dualquant.experiment import synth_corpus

        length = 131072
        frame = make_tight_frame(2048, 512, 2048, length)
        model = AcquisitionModel(design_lowpass(4), 4, Quantizer(16), Quantizer(10))
        (_, x), = synth_corpus(1, 5, length / 16000, 16000)
        y1, y2 = simulate_acquisition(x, model)
        return frame, model, x, y1, y2

    @classmethod
    def _steps(cls, solver, rho):
        """A step generator of either solver on :meth:`_problem`."""
        frame, model, _, y1, y2 = cls._problem()
        return _steps_of(solver, rho, frame, model, y1, y2), frame

    @pytest.mark.parametrize(
        "solver, rho, signals",
        # the iterate, the coarse dual and the work vector plus the fine dual
        # (L / 4), and at rho != 1 its prox argument (L / 4): the SDR rises
        # in all three iterations, so no best iterate is copied; or the
        # iterate, the work vector and the best iterate, copied when the
        # baseline's SDR turns down after its first iteration
        [("cva", 1.0, 3.25), ("cva", 1.5, 3.5), ("cpa", 1.0, 3.0)],
    )
    def test_solve_peaks_at_its_state_plus_three_mib(self, solver, rho, signals):
        # a whole solve with a reference, boxes and gap included, peaks at
        # the two coefficient arrays of the l1 branch, its signal vectors and
        # block scratch: the boxes hold no bounds, a step no signal-length
        # temporary, and the iteration is gone before the gap is measured
        frame, model, x, y1, y2 = self._problem()
        cfg = SolverConfig(rho=rho, lam=model.coarse.step / 2, max_iters=3)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            if solver == "cva":
                cva_solve(y1, y2, model, frame, cfg, reference=x)
            else:
                cpa_solve(y2, model.coarse, frame, cfg, reference=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        coeff_bytes = frame.num_coeffs * np.dtype(np.complex128).itemsize
        assert peak - before <= 2 * coeff_bytes + signals * frame.signal_len * 8 + (3 << 20)

    @pytest.mark.parametrize("solver, rho", [("cva", 1.0), ("cva", 1.5), ("cpa", 1.0)])
    def test_step_peaks_at_half_a_coefficient_array(self, solver, rho):
        # Steps 3-5 of either iteration allocate at most half a coefficient
        # array above the state held after step 2.
        steps, frame = self._steps(solver, rho)
        tracemalloc.start()
        try:
            next(steps)
            next(steps)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(3):
                next(steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        coeff_bytes = frame.num_coeffs * np.dtype(np.complex128).itemsize
        assert peak - held <= 0.5 * coeff_bytes

    @pytest.mark.parametrize(
        "solver, rho",
        [pytest.param("cva", 1.0, id="1.0"), pytest.param("cva", 1.5, id="1.5"),
         pytest.param("cpa", 1.0, id="cpa")],
    )
    def test_cva_step_peaks_below_one_signal_array(self, solver, rho):
        # the (D_k B)^* term is added into the gradient, the box projections
        # are formed in the work vector, and the baseline's look-ahead point
        # in the old iterate's buffer, so a step makes no signal-length
        # temporary
        steps, frame = self._steps(solver, rho)
        tracemalloc.start()
        try:
            next(steps)
            next(steps)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(3):
                next(steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < frame.signal_len * 8

    def test_fine_dual_updated_in_place_at_rho_one(self):
        # at factor 1 the fine dual is as long as the signal, so a fresh
        # D_k B output per step would be a signal-length allocation; with
        # rho == 1 the prox argument is formed in the dual itself
        from dualquant.experiment import synth_corpus

        length = 262144
        frame = make_tight_frame(2048, 512, 2048, length)
        model = AcquisitionModel(design_lowpass(4), 1, Quantizer(16), Quantizer(10))
        (_, x), = synth_corpus(1, 5, length / 16000, 16000)
        y1, y2 = simulate_acquisition(x, model)
        steps = _steps_of("cva", 1.0, frame, model, y1, y2)
        tracemalloc.start()
        try:
            next(steps)
            next(steps)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(3):
                next(steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < length * 8

    @pytest.mark.parametrize("solver", ["cva", "cpa"])
    def test_debug_logging_copies_no_iterate(self, solver, caplog):
        # the relative primal change comes from the new and the old iterate
        # the iteration shows the solve, so DEBUG adds no signal-length copy
        frame, model, x, y1, y2 = self._problem()
        cfg = SolverConfig(lam=model.coarse.step / 2, max_iters=3)

        def solve():
            if solver == "cva":
                cva_solve(y1, y2, model, frame, cfg, reference=x)
            else:
                cpa_solve(y2, model.coarse, frame, cfg, reference=x)

        quiet = _peak_bytes(solve)
        with caplog.at_level(logging.DEBUG, logger="dualquant.solvers"):
            debug = _peak_bytes(solve)
        assert len([r for r in caplog.records if "relative primal change" in r.getMessage()]) == 6
        assert debug - quiet < frame.signal_len * 8 / 8

    @pytest.mark.parametrize(
        "solver, rho, arrays, signals",
        # the l1 dual and A x; the coarse dual and the one work vector plus
        # the fine dual (L / 4), or the one work vector alone (the iterate
        # and the work vector swap with the start point's buffer)
        [("cva", 1.0, 2, 2.25), ("cva", 1.5, 2, 2.25), ("cpa", 1.0, 2, 1.0)],
    )
    def test_step_holds_its_coefficient_arrays_plus_one_mib(self, solver, rho, arrays, signals):
        # the analysis and the l1 dual update run a block of frames at a
        # time, so no coefficient array beyond the state is held
        steps, frame = self._steps(solver, rho)
        held = self._held_after_two_steps(steps)
        coeff_bytes = frame.num_coeffs * np.dtype(np.complex128).itemsize
        assert held <= arrays * coeff_bytes + signals * frame.signal_len * 8 + (1 << 20)

    def test_over_relaxation_holds_what_rho_one_holds(self):
        # with rho != 1 the fine-branch prox argument (L / 4 floats,
        # 256 KiB here) is freed before the step yields, as with rho == 1
        held = {rho: self._held_after_two_steps(self._steps("cva", rho)[0]) for rho in (1.0, 1.5)}
        assert held[1.5] <= held[1.0] + (64 << 10)

    @staticmethod
    def _held_after_two_steps(steps) -> int:
        """Bytes the step generator ``steps`` holds after its second step."""
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            next(steps)
            next(steps)
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()


class TestSeveralBlocks:
    """The golden input has 16 frames, one block; here the block loops of
    both solvers cross block boundaries."""

    @pytest.fixture(scope="class")
    def problem(self):
        from dualquant.experiment import synth_corpus

        # 100 frames: blocks of 32, 32, 32 and a last one of 4 that wraps
        length = 100 * 512
        frame = make_tight_frame(2048, 512, 2048, length)
        fir = design_lowpass(4)
        model = AcquisitionModel(fir, 4, Quantizer(16), Quantizer(10))
        (_, x), = synth_corpus(1, 11, length / 16000, 16000)
        y1, y2 = simulate_acquisition(x, model)
        return frame, model, x, y1, y2

    @staticmethod
    def _runs(problem):
        frame, model, x, y1, y2 = problem
        lam = model.coarse.step / 2
        tau, sigma = default_steps(model.filter)
        runs = [
            cva_solve(y1, y2, model, frame, SolverConfig(tau, sigma, rho=rho, lam=lam, max_iters=8),
                      reference=x)
            for rho in (1.0, 1.5)
        ]
        cfg = SolverConfig(1.0, 1.0, lam=lam, max_iters=8)
        return runs + [cpa_solve(y2, model.coarse, frame, cfg, reference=x)]

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_traces_match_the_default_blocks(self, problem, rows, monkeypatch):
        frame = problem[0]
        default = self._runs(problem)
        assert frames._block_rows(frame) * 3 < frame.num_frames
        monkeypatch.setattr(frames, "_BLOCK_SAMPLES", rows * frame.num_channels)
        for got, want in zip(self._runs(problem), default):
            np.testing.assert_allclose(got.sdr_trace, want.sdr_trace, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.objective_trace, want.objective_trace, rtol=1e-12)

    @pytest.mark.parametrize("debug", [False, True], ids=["off", "on"])
    def test_solves_call_no_blas_routine(self, problem, monkeypatch, caplog, debug):
        # every sum of an iteration is numpy's own reduction, not a BLAS
        # routine, whose thread pool grid threads would share; DEBUG logging
        # of the relative primal change included
        def blas(*args, **kwargs):
            raise AssertionError("a BLAS routine was called")

        for owner, name in ((np, "matmul"), (np, "dot"), (np, "vdot"), (np.linalg, "norm")):
            monkeypatch.setattr(owner, name, blas)
        level = logging.DEBUG if debug else logging.WARNING
        with caplog.at_level(level, logger="dualquant.solvers"):
            assert logging.getLogger("dualquant.solvers").isEnabledFor(logging.DEBUG) == debug
            for run in self._runs(problem):
                assert np.all(np.isfinite(run.sdr_trace))

    @pytest.mark.parametrize("solver, rho", [("cva", 1.0), ("cva", 1.5), ("cpa", 1.0)])
    def test_objective_is_the_l1_of_the_iterate(self, problem, solver, rho):
        # A x is carried by linearity, not analyzed: check it against a
        # direct analysis of each iterate
        frame, model, _, y1, y2 = problem
        steps = _steps_of(solver, rho, frame, model, y1, y2)
        for _ in range(8):
            x, l1 = next(steps)
            coeffs = analyze(frame, x).reshape(frame.coeff_shape)
            np.testing.assert_allclose(l1, np.sum(frame.coeff_weight * np.abs(coeffs)), rtol=1e-12)

    @pytest.mark.parametrize("solve, passes", [("cva", 0), ("cpa", 1)])
    def test_n_steps_analyze_n_or_n_plus_one_times(self, problem, monkeypatch, solve, passes):
        # one analysis pass per step, for the dual update and the objective
        # alike; the baseline's first dual update runs before its first step
        from dualquant import solvers

        frame, model, x, y1, y2 = problem
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return analyze(*args, **kwargs)

        monkeypatch.setattr(solvers, "analyze", counted)
        cfg = SolverConfig(lam=model.coarse.step / 2, max_iters=5)
        if solve == "cva":
            cva_solve(y1, y2, model, frame, cfg)
        else:
            cpa_solve(y2, model.coarse, frame, cfg)
        blocks = len(list(frames._frame_blocks(frame)))
        assert blocks > 1
        assert len(calls) == (5 + passes) * blocks


class TestDefaultSteps:
    def test_unit_impulse(self):
        tau, sigma = default_steps(FirFilter([1.0]))
        assert tau == sigma == pytest.approx(1 / np.sqrt(3), abs=1e-15)

    def test_l1_norm_scaling(self):
        tau, sigma = default_steps(FirFilter([0.6, 0.6]))
        assert tau == sigma == pytest.approx(1 / np.sqrt(3.44), abs=1e-15)

    @given(taps=arrays(np.float64, st.integers(1, 32), elements=st.floats(-2, 2, width=64)))
    def test_condition_saturated(self, taps):
        if not np.any(taps):
            taps = taps + 1e-3
        b = FirFilter(taps)
        tau, sigma = default_steps(b)
        assert tau * sigma * (2 + b.l1_norm**2) <= 1 + 1e-12


class TestSolverConfig:
    def test_rho_strictly_inside_zero_two(self):
        for rho in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(ValueError):
                SolverConfig(0.5, 0.5, rho=rho)
        SolverConfig(0.5, 0.5, rho=1.999)

    def test_positivity(self):
        with pytest.raises(ValueError):
            SolverConfig(0.0, 0.5)
        with pytest.raises(ValueError):
            SolverConfig(0.5, 0.5, lam=0.0)
        with pytest.raises(ValueError):
            SolverConfig(0.5, 0.5, max_iters=0)

    def test_iteration_count_capped(self):
        # a run allocates its two traces up front, 16 bytes per iteration
        assert SolverConfig(max_iters=10**6).max_iters == 10**6
        for iters in (10**6 + 1, 10**12):
            with pytest.raises(ValueError, match="max_iters must be <= 1000000, .*16 bytes"):
                SolverConfig(max_iters=iters)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            SolverConfig(max_iters=0)

    def test_non_finite_rejected(self):
        nan, inf = float("nan"), float("inf")
        for kwargs in (
            {"lam": nan}, {"lam": inf}, {"tau": nan, "sigma": 0.4}, {"tau": 0.4, "sigma": inf}
        ):
            with pytest.raises(ValueError, match="positive and finite"):
                SolverConfig(**{"tau": 0.4, "sigma": 0.4, **kwargs})

    def test_steps_set_together_or_not_at_all(self):
        for kwargs in ({"tau": 0.5}, {"sigma": 0.5}):
            with pytest.raises(ValueError, match="set both tau and sigma, or neither"):
                SolverConfig(**kwargs)
        unset = SolverConfig()
        assert unset.tau is unset.sigma is None
        # each problem's bound fills in equal steps that meet its condition
        for bound in (_norm_bound(IMPULSE), _norm_bound(None)):
            filled = unset.with_steps_for(bound)
            assert filled.tau == filled.sigma == 1.0 / np.sqrt(bound)
            assert filled.with_steps_for(bound) is filled

    def test_dual_branch_step_condition(self):
        cfg = SolverConfig(1.0, 1.0)
        with pytest.raises(ValueError, match=r"norm bound 3 \(got 3\)"):
            cfg.with_steps_for(_norm_bound(IMPULSE))
        SolverConfig(TAU, SIGMA).with_steps_for(_norm_bound(IMPULSE))

    def test_single_branch_step_condition(self):
        with pytest.raises(ValueError, match=r"norm bound 1 \(got 1\.1\)"):
            SolverConfig(1.1, 1.0).with_steps_for(_norm_bound(None))
        SolverConfig(1.0, 1.0).with_steps_for(_norm_bound(None))

    @pytest.mark.parametrize("solver", ["cva", "cpa"])
    def test_overflowing_l1_radius_rejected(self, solver):
        # lam / sigma * weight beyond the float range would clip at inf and
        # turn the iterate NaN
        cfg = SolverConfig(TAU, SIGMA, lam=1.2e308, max_iters=2)
        with pytest.raises(ValueError, match=r"lam 1\.2e\+308, sigma 0\.577"):
            if solver == "cva":
                cva_solve_sets(box(0.3, 0.8), box(0.2, 0.6), IMPULSE, 1, IDENTITY_FRAME,
                               x0=np.zeros(L), cfg=cfg)
            else:
                cpa_solve_box(box(0.2, 0.6), IDENTITY_FRAME, x0=np.zeros(L), cfg=cfg)

    def test_solver_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            cva_solve_sets(
                box(0.3, 0.8),
                box(0.2, 0.6),
                IMPULSE,
                1,
                IDENTITY_FRAME,
                x0=np.zeros(L),
                cfg=SolverConfig(1.0, 1.0),
            )


class TestDualBranchOracle:
    def test_intersection_minimizer(self):
        # feasible set is [0.3, 0.6] per coordinate; nearest-to-zero point 0.3
        run = cva_solve_sets(
            box(0.3, 0.8),
            box(0.2, 0.6),
            IMPULSE,
            1,
            IDENTITY_FRAME,
            x0=np.full(L, 0.4),
            cfg=SolverConfig(TAU, SIGMA, max_iters=2000),
        )
        np.testing.assert_allclose(run.estimate.samples, np.full(L, 0.3), atol=1e-6)

    def test_zero_feasible_gives_zero(self):
        run = cva_solve_sets(
            box(-0.3, 0.5),
            box(-0.2, 0.4),
            IMPULSE,
            1,
            IDENTITY_FRAME,
            x0=np.full(L, 0.1),
            cfg=SolverConfig(TAU, SIGMA, max_iters=2000),
        )
        np.testing.assert_allclose(run.estimate.samples, 0.0, atol=1e-8)

    def test_lambda_invariance_of_minimizer(self):
        solutions = []
        for lam in (0.1, 1.0, 10.0):
            run = cva_solve_sets(
                box(0.3, 0.8),
                box(0.2, 0.6),
                IMPULSE,
                1,
                IDENTITY_FRAME,
                x0=np.full(L, 0.4),
                cfg=SolverConfig(TAU, SIGMA, lam=lam, max_iters=2000),
            )
            solutions.append(run.estimate.samples)
        for other in solutions[1:]:
            np.testing.assert_allclose(solutions[0], other, atol=1e-5)

    def test_feasibility_at_convergence(self):
        run = cva_solve_sets(
            box(0.3, 0.8),
            box(0.2, 0.6),
            IMPULSE,
            1,
            IDENTITY_FRAME,
            x0=np.full(L, 0.4),
            cfg=SolverConfig(TAU, SIGMA, max_iters=2000),
        )
        assert run.feasibility_gap.coarse < 1e-6
        assert run.feasibility_gap.fine < 1e-6

    def test_random_boxes_match_per_coordinate_oracle(self):
        rng = np.random.default_rng(7)
        n = 8
        frame = make_tight_frame(1, 1, 1, n)
        for _ in range(10):
            center = rng.uniform(-0.7, 0.7, n)
            coarse = ConsistencySet(
                center - rng.uniform(0, 0.3, n), center + rng.uniform(0, 0.3, n)
            )
            fine = ConsistencySet(
                center - rng.uniform(0, 0.3, n), center + rng.uniform(0, 0.3, n)
            )
            run = cva_solve_sets(
                fine,
                coarse,
                IMPULSE,
                1,
                frame,
                x0=center,
                cfg=SolverConfig(TAU, SIGMA, max_iters=3000),
            )
            expect = min_abs_point(
                np.maximum(coarse.lower, fine.lower),
                np.minimum(coarse.upper, fine.upper),
            )
            np.testing.assert_allclose(run.estimate.samples, expect, atol=1e-3)

    def test_objective_tail_nonincreasing(self):
        run = cva_solve_sets(
            box(0.3, 0.8),
            box(0.2, 0.6),
            IMPULSE,
            1,
            IDENTITY_FRAME,
            x0=np.full(L, 0.4),
            cfg=SolverConfig(TAU, SIGMA, max_iters=500),
        )
        tail = run.objective_trace[-50:]
        assert np.all(np.diff(tail) <= 1e-8)

    def test_matches_single_branch_when_fine_is_vacuous(self):
        vacuous = box(-1.0, 1.0)
        run_dual = cva_solve_sets(
            vacuous,
            box(0.2, 0.6),
            IMPULSE,
            1,
            IDENTITY_FRAME,
            x0=np.full(L, 0.4),
            cfg=SolverConfig(TAU, SIGMA, max_iters=3000),
        )
        run_single = cpa_solve_box(
            box(0.2, 0.6),
            IDENTITY_FRAME,
            x0=np.full(L, 0.4),
            cfg=SolverConfig(1.0, 1.0, max_iters=3000),
        )
        np.testing.assert_allclose(
            run_dual.estimate.samples, run_single.estimate.samples, atol=1e-5
        )


class TestSingleBranchOracle:
    def test_box_minimizer(self):
        run = cpa_solve_box(
            box(0.2, 0.6),
            IDENTITY_FRAME,
            x0=np.full(L, 0.4),
            cfg=SolverConfig(1.0, 1.0, max_iters=2000),
        )
        np.testing.assert_allclose(run.estimate.samples, np.full(L, 0.2), atol=1e-6)

    def test_zero_feasible_gives_zero(self):
        run = cpa_solve_box(
            box(-0.2, 0.4),
            IDENTITY_FRAME,
            x0=np.full(L, 0.1),
            cfg=SolverConfig(1.0, 1.0, max_iters=2000),
        )
        np.testing.assert_allclose(run.estimate.samples, 0.0, atol=1e-8)

    def test_iterates_always_feasible(self):
        run = cpa_solve_box(
            box(0.2, 0.6),
            IDENTITY_FRAME,
            x0=np.full(L, 0.4),
            cfg=SolverConfig(1.0, 1.0, max_iters=5),
        )
        assert run.feasibility_gap.coarse == 0.0
        assert run.feasibility_gap.fine == 0.0


class TestEstimateRate:
    def test_signal_start_point_sets_the_rate(self):
        x0 = Signal(np.full(L, 0.4), 8000)
        cfg = SolverConfig(TAU, SIGMA, max_iters=2)
        dual = cva_solve_sets(box(0.3, 0.8), box(0.2, 0.6), IMPULSE, 1, IDENTITY_FRAME, x0, cfg)
        single = cpa_solve_box(box(0.2, 0.6), IDENTITY_FRAME, x0, cfg)
        assert dual.estimate.sample_rate_hz == 8000
        assert single.estimate.sample_rate_hz == 8000


class TestMoreauDecomposition:
    @given(
        p=arrays(np.float64, 16, elements=st.floats(-3, 3, width=64)),
        sigma=st.floats(0.1, 3.0),
    )
    def test_projected_point_lies_in_box(self, p, sigma):
        from dualquant import project

        cs = ConsistencySet(np.full(16, -0.4), np.full(16, 0.7))
        projected = project(cs, p / sigma)
        assert cs.max_violation(projected) == 0.0
        # the dual update p - sigma*projected recovers p when re-decomposed
        u = p - sigma * projected
        np.testing.assert_allclose(u + sigma * projected, p, atol=1e-12)


class TestRunBookkeeping:
    def _pipeline(self, bits_fine=12, bits_coarse=6):
        rng = np.random.default_rng(0)
        length = 256
        frame = make_tight_frame(32, 8, 32, length)
        fir = FirFilter([0.5, 0.5])
        model = AcquisitionModel(fir, 4, Quantizer(bits_fine), Quantizer(bits_coarse))
        x = Signal(0.9 * rng.uniform(-1, 1, length), 16000)
        y1, y2 = simulate_acquisition(x, model)
        return x, y1, y2, model, frame

    def _solve(self, solver, max_iters, with_reference=True):
        x, y1, y2, model, frame = self._pipeline()
        reference = x if with_reference else None
        if solver == "cva":
            cfg = SolverConfig(*default_steps(model.filter), lam=0.01, max_iters=max_iters)
            return x, cva_solve(y1, y2, model, frame, cfg, reference=reference)
        cfg = SolverConfig(1.0, 1.0, lam=0.01, max_iters=max_iters)
        return x, cpa_solve(y2, model.coarse, frame, cfg, reference=reference)

    def test_trace_lengths_and_selection(self):
        for solver in ("cva", "cpa"):
            x, run = self._solve(solver, 30)
            assert run.objective_trace.shape == (30,)
            assert run.sdr_trace.shape == (30,)
            assert 1 <= run.best_sdr_iter <= 30
            assert run.sdr_trace[run.best_sdr_iter - 1] == np.max(run.sdr_trace)
            assert sdr(x, run.estimate) == pytest.approx(float(np.max(run.sdr_trace)))

    @pytest.mark.parametrize("solver", ["cva", "cpa"])
    def test_debug_log_one_primal_change_per_iteration(self, solver, caplog):
        with caplog.at_level(logging.DEBUG, logger="dualquant.solvers"):
            _, run = self._solve(solver, 7, with_reference=False)
        records = [r for r in caplog.records if "relative primal change" in r.getMessage()]
        assert all(r.levelno == logging.DEBUG for r in records)
        assert [r.args[0] for r in records] == list(range(1, 8))
        # the last change is |x7 - x6| / |x6|, and logging leaves the run as it is
        _, quiet = self._solve(solver, 7, with_reference=False)
        np.testing.assert_array_equal(run.estimate.samples, quiet.estimate.samples)
        x6 = self._solve(solver, 6, with_reference=False)[1].estimate.samples
        change = np.linalg.norm(quiet.estimate.samples - x6) / np.linalg.norm(x6)
        assert change > 0
        assert records[-1].args[1] == pytest.approx(change, rel=1e-9)

    @pytest.mark.parametrize("solver", ["cva", "cpa"])
    def test_array_reference_wrapped_once(self, solver, monkeypatch):
        # an array reference becomes one Signal per solve, so no iteration's
        # sdr scans it for NaN and Inf again
        from dualquant import solvers

        x, y1, y2, model, frame = self._pipeline()
        references = []

        def recorded(reference, estimate, **kwargs):
            references.append(reference)
            return sdr(reference, estimate, **kwargs)

        monkeypatch.setattr(solvers, "sdr", recorded)
        cfg = SolverConfig(lam=0.01, max_iters=4)
        if solver == "cva":
            cva_solve(y1, y2, model, frame, cfg, reference=x.samples)
        else:
            cpa_solve(y2, model.coarse, frame, cfg, reference=x.samples)
        assert len(references) == 4
        assert all(isinstance(r, Signal) for r in references)
        assert all(r is references[0] for r in references)
        assert references[0].samples is x.samples

    def test_no_reference_returns_final_iterate(self):
        x, y1, y2, model, frame = self._pipeline()
        run = cva_solve(y1, y2, model, frame, SolverConfig(*default_steps(model.filter), max_iters=10))
        assert run.sdr_trace is None
        assert run.best_sdr_iter is None

    def test_off_grid_observation_rejected(self):
        x, y1, y2, model, frame = self._pipeline()
        bad = y2.with_samples(y2.samples + 1e-3)
        with pytest.raises(ValueError):
            cva_solve(y1, bad, model, frame, SolverConfig(*default_steps(model.filter)))

    def test_length_mismatch_rejected(self):
        x, y1, y2, model, frame = self._pipeline()
        with pytest.raises(ValueError):
            cva_solve(y2, y2, model, frame, SolverConfig(*default_steps(model.filter)))

    def test_default_config_used_when_none(self):
        x, y1, y2, model, frame = self._pipeline()
        run = cva_solve(y1, y2, model, frame)
        assert run.objective_trace.shape == (200,)

    def test_unset_steps_are_each_solvers_rule(self):
        x, y1, y2, model, frame = self._pipeline()
        runs = []
        for tau, sigma in ((None, None), default_steps(model.filter)):
            cfg = SolverConfig(tau, sigma, rho=1.5, lam=0.01, max_iters=20)
            runs.append(cva_solve(y1, y2, model, frame, cfg, reference=x))
        for tau, sigma in ((None, None), (1.0, 1.0)):
            cfg = SolverConfig(tau, sigma, lam=0.01, max_iters=20)
            runs.append(cpa_solve(y2, model.coarse, frame, cfg, reference=x))
        for unset, explicit in (runs[:2], runs[2:]):
            assert np.array_equal(unset.sdr_trace, explicit.sdr_trace)
            assert np.array_equal(unset.objective_trace, explicit.objective_trace)

    def test_single_branch_pipeline(self):
        x, y1, y2, model, frame = self._pipeline()
        run = cpa_solve(y2, model.coarse, frame, SolverConfig(1.0, 1.0, max_iters=15), reference=x)
        assert run.objective_trace.shape == (15,)
        assert run.feasibility_gap.coarse == 0.0


# Scripted SDR values per iteration: the estimate and best_sdr_iter must be
# those of the rule "copy the iterate at every strict improvement".
SDR_SCRIPTS = {
    "rise": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    "downturn": [1.0, 3.0, 2.0, 1.0, 0.5, 0.0],
    "tie": [1.0, 3.0, 3.0, 2.0, 3.0, 2.5],
    "inf": [1.0, math.inf, 5.0, math.inf, 2.0, 1.0],
    "nan": [math.nan, 1.0, math.nan, 0.5, 2.0, math.nan],
    "all-nan": [math.nan] * 6,
    "new-best-after-downturn": [1.0, 3.0, 2.0, 4.0, 3.5, 5.0],
    "first-is-best": [6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
}


def _copy_at_every_improvement(values):
    """0-based index of the value a copy at every strict improvement keeps,
    or None."""
    best, index = -math.inf, None
    for i, value in enumerate(values):
        if value > best:
            best, index = value, i
    return index


class TestBestIterate:
    """A solve sees each move as (new, old) before the old iterate's buffer
    is reused, and copies the old one only when the SDR turns down after
    it.  The selection is that of copying the iterate at every strict
    improvement."""

    SOLVERS = [("cva", 1.0), ("cva", 1.5), ("cpa", 1.0)]

    @staticmethod
    def _scripted(monkeypatch, values, seen=None):
        """Patch the solver's ``sdr`` to return ``values`` in turn, from the
        start again after the last (one solve each), and to append a copy of
        each estimate to ``seen`` when it is given."""
        from dualquant import solvers

        calls = itertools.count()

        def scripted(reference, estimate, **kwargs):
            if seen is not None:
                seen.append(np.array(estimate, copy=True))
            return values[next(calls) % len(values)]

        monkeypatch.setattr(solvers, "sdr", scripted)

    @staticmethod
    def _solve(solver, rho, problem, iters, reference=True):
        frame, model, x, y1, y2 = problem
        cfg = SolverConfig(rho=rho, lam=model.coarse.step / 2, max_iters=iters)
        ref = x if reference else None
        if solver == "cva":
            return cva_solve(y1, y2, model, frame, cfg, reference=ref)
        return cpa_solve(y2, model.coarse, frame, cfg, reference=ref)

    @pytest.fixture(scope="class")
    def small(self):
        x, y1, y2, model, frame = TestRunBookkeeping()._pipeline()
        return frame, model, x, y1, y2

    @pytest.mark.parametrize("script", list(SDR_SCRIPTS))
    @pytest.mark.parametrize("solver, rho", SOLVERS)
    def test_selection_is_the_copy_at_every_improvement(self, monkeypatch, small, solver, rho,
                                                        script):
        values, seen = SDR_SCRIPTS[script], []
        self._scripted(monkeypatch, values, seen)
        run = self._solve(solver, rho, small, len(values))
        assert len(seen) == len(values)
        np.testing.assert_array_equal(run.sdr_trace, values)
        index = _copy_at_every_improvement(values)
        assert run.best_sdr_iter == (None if index is None else index + 1)
        want = seen[-1] if index is None else seen[index]
        np.testing.assert_array_equal(run.estimate.samples, want)

    @pytest.mark.parametrize("iters", [1, 4])
    def test_rising_sdr_holds_no_best_copy(self, monkeypatch, iters):
        # the best iterate is the last, so a solve with a reference peaks
        # where one without does: no fourth signal vector
        problem = TestBlockScratch._problem()
        length = problem[0].signal_len
        self._scripted(monkeypatch, [float(i) for i in range(iters)])
        for solver, rho in self.SOLVERS:
            without = _peak_bytes(lambda: self._solve(solver, rho, problem, iters, False))
            rising = _peak_bytes(lambda: self._solve(solver, rho, problem, iters))
            assert rising - without < length * 8 / 8

    def test_downturns_allocate_one_best_buffer(self, monkeypatch):
        # a best buffer is allocated at the first downturn and refilled at
        # the next ones, so three downturns hold one signal vector more
        problem = TestBlockScratch._problem()
        length = problem[0].signal_len
        rise, downs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, 0.0, 2.0, 1.0, 3.0, 2.0]
        for solver, rho in self.SOLVERS:
            peaks = []
            for values in (rise, downs):
                self._scripted(monkeypatch, values)
                peaks.append(_peak_bytes(lambda: self._solve(solver, rho, problem, len(values))))
            assert 0.875 * length * 8 < peaks[1] - peaks[0] < 1.125 * length * 8


def test_pipeline_feasibility_gap_shrinks_with_iterations():
    # Active box constraints make the violation decay sublinearly, so the
    # fixed-budget gap is not tiny; it must still sit far inside one coarse
    # quantization step and keep falling as the budget grows.
    from dualquant import design_lowpass, pad_to_multiple
    from dualquant.experiment import synth_corpus

    x = pad_to_multiple(synth_corpus(1, 5, 0.25, 16000)[0][1], 4096)
    frame = make_tight_frame(512, 128, 512, 4096)
    fir = design_lowpass(4, 65, 8.0)
    tau, sigma = default_steps(fir)
    model = AcquisitionModel(fir, 4, Quantizer(14), Quantizer(10))
    y1, y2 = simulate_acquisition(x, model)
    lam = Quantizer(10).step / 2
    gaps = []
    for iters in (100, 400):
        run = cva_solve(
            y1, y2, model, frame, SolverConfig(tau, sigma, lam=lam, max_iters=iters)
        )
        gaps.append(max(run.feasibility_gap))
    assert gaps[1] < gaps[0]
    assert gaps[1] < Quantizer(10).step / 4
