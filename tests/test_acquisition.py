import math
import tracemalloc

import numpy as np
import pytest

from dualquant import (
    PEAK_TARGET,
    AcquisitionModel,
    FirFilter,
    Quantizer,
    Signal,
    peak_normalize,
    quantize,
    sdr,
    simulate_acquisition,
)


def impulse_model(k=4, fine=24, coarse=8):
    return AcquisitionModel(FirFilter([1.0]), k, Quantizer(fine), Quantizer(coarse))


class TestAcquisitionModel:
    def test_factor_validation(self):
        with pytest.raises(ValueError):
            AcquisitionModel(FirFilter([1.0]), 0, Quantizer(20), Quantizer(10))

    def test_warns_when_fine_is_coarser(self):
        with pytest.warns(UserWarning):
            AcquisitionModel(FirFilter([1.0]), 4, Quantizer(8), Quantizer(16))


class TestSimulateAcquisition:
    def test_output_shapes(self):
        x = Signal(np.linspace(-0.9, 0.9, 8), 8000)
        y1, y2 = simulate_acquisition(x, impulse_model())
        assert len(y1) == 2
        assert len(y2) == 8
        assert y1.sample_rate_hz == 2000
        assert y2.sample_rate_hz == 8000

    def test_near_lossless_chain(self):
        rng = np.random.default_rng(0)
        x = Signal(rng.uniform(-0.9, 0.9, 64), 8000)
        model = impulse_model(k=1, fine=24, coarse=24)
        y1, y2 = simulate_acquisition(x, model)
        assert np.max(np.abs(y2.samples - x.samples)) <= 2.0**-24
        assert np.max(np.abs(y1.samples - x.samples)) <= 2.0**-24

    def test_zero_signal_maps_to_half_step_levels(self):
        x = Signal(np.zeros(8), 8000)
        model = impulse_model(fine=24, coarse=8)
        y1, y2 = simulate_acquisition(x, model)
        np.testing.assert_array_equal(y2.samples, np.full(8, Quantizer(8).step / 2))
        np.testing.assert_array_equal(y1.samples, np.full(2, Quantizer(24).step / 2))

    def test_observations_are_quantizer_fixed_points(self):
        rng = np.random.default_rng(1)
        x = Signal(0.99 * rng.uniform(-1, 1, 128), 16000)
        model = AcquisitionModel(
            FirFilter([0.25, 0.5, 0.25]), 4, Quantizer(14), Quantizer(6)
        )
        y1, y2 = simulate_acquisition(x, model)
        np.testing.assert_array_equal(quantize(y1, model.fine).samples, y1.samples)
        np.testing.assert_array_equal(quantize(y2, model.coarse).samples, y2.samples)


class TestPeakNormalize:
    def test_scales_to_target(self):
        out = peak_normalize(Signal([0.5, -0.25], 8000))
        np.testing.assert_allclose(
            out.samples, [PEAK_TARGET, -PEAK_TARGET / 2], atol=1e-15
        )

    def test_idempotent_within_tolerance(self):
        x = peak_normalize(Signal([0.5, -0.25], 8000))
        again = peak_normalize(x)
        np.testing.assert_allclose(again.samples, x.samples, atol=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            peak_normalize(Signal(np.zeros(4), 8000))


class TestSdr:
    def test_known_value(self):
        assert sdr(np.array([1.0, 0.0]), np.array([0.9, 0.0])) == pytest.approx(20.0)

    def test_exact_match_is_infinite(self):
        x = np.array([0.3, -0.4])
        assert sdr(x, x.copy()) == math.inf

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            sdr(np.zeros(4), np.ones(4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sdr(np.ones(4), np.ones(5))

    def test_sixteen_bit_sinusoid_matches_model(self):
        t = np.arange(48000) / 48000
        x = (1 - 2.0**-15) * np.sin(2 * np.pi * 997.0 * t)
        value = sdr(x, quantize(x, Quantizer(16)))
        assert value == pytest.approx(6.02 * 16 + 1.76, abs=1.5)

    def test_arrays_scored_without_a_signal_length_temporary(self):
        # the NaN scan of an array argument holds one block of samples, so
        # two arrays peak no higher than the same two wrapped as Signals
        rng = np.random.default_rng(2)
        ref, est = rng.standard_normal((2, 300_000))

        def peak(a, b):
            sdr(a, b)  # warm-up
            tracemalloc.start()
            try:
                sdr(a, b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        wrapped = peak(Signal(ref, 16000), Signal(est, 16000))
        assert peak(ref, est) <= wrapped < ref.nbytes
