import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualquant import (
    Downsampler,
    FirFilter,
    Signal,
    apply_filter,
    apply_filter_adjoint,
    design_lowpass,
    downsample,
    export_taps_csv,
    pad_to_multiple,
    upsample_adjoint,
)
from dualquant.experiment import build_filter, taps_digest
from dualquant.frames import _hop_energy
from dualquant.signals import _MAX_BETA, _add_circular, _fill_circular, fold_taps


class TestSignal:
    def test_valid(self):
        s = Signal([0.1, -0.2, 0.3], 16000)
        assert len(s) == 3
        assert s.sample_rate_hz == 16000
        assert s.duration_s == pytest.approx(3 / 16000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signal([], 16000)

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            Signal([0.0, np.nan], 16000)
        with pytest.raises(ValueError):
            Signal([np.inf], 16000)
        # the scan reads the extremes: -Inf is the minimum, NaN amid finite
        # samples of either sign, past the first block of samples
        with pytest.raises(ValueError):
            Signal([1.0, -np.inf], 16000)
        samples = np.linspace(-1.0, 1.0, 40000)
        samples[30000] = np.nan
        with pytest.raises(ValueError):
            Signal(samples, 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Signal([0.0], 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Signal(np.zeros((2, 2)), 16000)


class TestFirFilter:
    def test_l1_norm_cached(self):
        b = FirFilter([0.5, -0.25, 0.125])
        assert b.l1_norm == pytest.approx(0.875, abs=1e-15)
        assert b.l1_norm == pytest.approx(np.sum(np.abs(b.taps)), abs=0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            FirFilter([])
        with pytest.raises(ValueError):
            FirFilter([1.0, np.nan])


class TestApplyFilter:
    def test_identity_filter(self):
        out = apply_filter(Signal([1, 0, 0, 0], 8), FirFilter([1.0]))
        np.testing.assert_array_equal(out.samples, [1, 0, 0, 0])

    def test_impulse_response_readout(self):
        out = apply_filter(Signal([1, 0, 0, 0], 8), FirFilter([0.5, 0.5]))
        np.testing.assert_allclose(out.samples, [0.5, 0.5, 0, 0], atol=1e-15)

    def test_circular_wraparound(self):
        out = apply_filter(Signal([0, 0, 0, 1], 8), FirFilter([0.5, 0.5]))
        np.testing.assert_allclose(out.samples, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            apply_filter([], FirFilter([1.0]))

    def test_adjoint_identity_filter(self):
        out = apply_filter_adjoint(Signal([1, 0, 0, 0], 8), FirFilter([1.0]))
        np.testing.assert_array_equal(out.samples, [1, 0, 0, 0])

    def test_adjoint_hand_computed_four_point(self):
        b = FirFilter([0.5, 0.5])
        e1 = np.array([1.0, 0, 0, 0])
        lhs = np.dot(apply_filter(e1, b), e1)
        rhs = np.dot(e1, apply_filter_adjoint(e1, b))
        assert lhs == pytest.approx(0.5, abs=1e-15)
        assert rhs == pytest.approx(0.5, abs=1e-15)

    def test_adjoint_random_draws(self):
        rng = np.random.default_rng(42)
        b = design_lowpass(4, 33, 8.0)
        for _ in range(100):
            x = rng.standard_normal(64)
            y = rng.standard_normal(64)
            lhs = np.dot(apply_filter(x, b), y)
            rhs = np.dot(x, apply_filter_adjoint(y, b))
            denom = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) / denom < 1e-12

    def test_operator_norm_bounded_by_l1(self):
        rng = np.random.default_rng(1)
        b = design_lowpass(4, 65, 6.0)
        for _ in range(50):
            x = rng.standard_normal(128)
            assert np.linalg.norm(apply_filter(x, b)) <= b.l1_norm * np.linalg.norm(x) * (
                1 + 1e-12
            )

    def test_taps_longer_than_signal_fold(self):
        # the folded taps define the same circulant operator
        b = FirFilter([0.25, 0.25, 0.25, 0.25, 1.0])  # length 5 on a length-4 signal
        x = np.array([1.0, 0.0, 0.0, 0.0])
        out = apply_filter(x, b)
        np.testing.assert_allclose(out, [1.25, 0.25, 0.25, 0.25], atol=1e-15)


class TestDownsample:
    def test_every_fourth(self):
        out = downsample(Signal([1, 2, 3, 4, 5, 6, 7, 8], 8000), Downsampler(4))
        np.testing.assert_array_equal(out.samples, [1, 5])
        assert out.sample_rate_hz == 2000

    def test_identity(self):
        x = Signal([0.1, 0.2, 0.3], 8000)
        out = downsample(x, Downsampler(1))
        np.testing.assert_array_equal(out.samples, x.samples)
        assert out.sample_rate_hz == 8000

    def test_length_not_divisible(self):
        with pytest.raises(ValueError):
            downsample(Signal([0.1, 0.2, 0.3], 8000), Downsampler(2))

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            Downsampler(0)


class TestUpsampleAdjoint:
    def test_zero_insertion(self):
        out = upsample_adjoint(Signal([1, 5], 2000), Downsampler(4), 8)
        np.testing.assert_array_equal(out.samples, [1, 0, 0, 0, 5, 0, 0, 0])
        assert out.sample_rate_hz == 8000

    def test_empty(self):
        out = upsample_adjoint(np.zeros(0), Downsampler(4), 0)
        assert out.size == 0

    def test_mismatched_out_len(self):
        with pytest.raises(ValueError):
            upsample_adjoint(Signal([1, 5], 2000), Downsampler(4), 10)

    def test_adjoint_identity_exact(self):
        # correctly-rounded sums of identical term multisets agree bitwise
        import math

        rng = np.random.default_rng(3)
        d = Downsampler(4)
        for _ in range(100):
            x = rng.standard_normal(64)
            y = rng.standard_normal(16)
            lhs = math.fsum(downsample(x, d) * y)
            rhs = math.fsum(x * upsample_adjoint(y, d, 64))
            assert lhs == rhs

    def test_down_up_composition(self):
        rng = np.random.default_rng(4)
        d = Downsampler(4)
        y = rng.standard_normal(16)
        np.testing.assert_array_equal(downsample(upsample_adjoint(y, d, 64), d), y)
        x = rng.standard_normal(64)
        back = upsample_adjoint(downsample(x, d), d, 64)
        np.testing.assert_array_equal(back[::4], x[::4])
        mask = np.ones(64, dtype=bool)
        mask[::4] = False
        assert np.all(back[mask] == 0.0)


class TestDesignLowpass:
    def test_symmetry(self):
        b = design_lowpass(4, 129, 8.0)
        np.testing.assert_array_equal(b.taps, b.taps[::-1])

    def test_dc_gain(self):
        b = design_lowpass(4, 129, 8.0)
        assert abs(np.sum(b.taps) - 1.0) < 1e-12

    def test_stopband_attenuation(self):
        b = design_lowpass(4, 129, 8.0)
        # response at twice the cutoff (0.25 cycles/sample)
        response = np.dot(b.taps, np.exp(-2j * np.pi * 0.25 * np.arange(129)))
        assert 20 * np.log10(abs(response)) < -60.0

    @pytest.mark.parametrize("k,taps,beta", [(2, 65, 4.0), (8, 129, 10.0)])
    def test_other_configs_symmetric_normalized(self, k, taps, beta):
        b = design_lowpass(k, taps, beta)
        np.testing.assert_array_equal(b.taps, b.taps[::-1])
        assert abs(np.sum(b.taps) - 1.0) < 1e-12

    # taps_digest(build_filter(k)) at the default 129 taps and beta 8, as
    # scipy.signal.firwin designed them: manifests record this digest, so a
    # run simulated with either design reconstructs with the other
    DIGESTS = {
        2: "7adc7e1cc87b0b852c1d0623cfe1ae5165200277f0e9bcd7356ec475a2291e2c",
        3: "3e087bb5c3640345e48247bc67ad9b3a00ae7cbfff8fc05c2f7b51569a0e594b",
        4: "b7a2724ba46d28e4214338c926fd4c291b31b55367ffef25c3e796a30f19e0fa",
        8: "4ec911d633a642eb04df97ff36827faac5222ac272888e29e5d6af1d10e6c25f",
    }

    @pytest.mark.parametrize("k", sorted(DIGESTS))
    def test_default_taps_digest_pinned(self, k):
        assert taps_digest(build_filter(k)) == self.DIGESTS[k]

    @pytest.mark.parametrize("k", [2, 3, 4, 7, 16])
    def test_taps_equal_firwin_bit_for_bit(self, k):
        # beta 14 puts window arguments on both sides of I0's series split at 8
        signal = pytest.importorskip("scipy.signal")
        for num_taps in (3, 33, 129, 1025):
            for beta in (0.0, 5.0, 8.0, 14.0):
                want = signal.firwin(num_taps, 1.0 / k, window=("kaiser", beta))
                got = design_lowpass(k, num_taps, beta).taps
                assert got.tobytes() == want.tobytes(), (num_taps, beta)

    def test_even_taps_rejected(self):
        with pytest.raises(ValueError):
            design_lowpass(4, 128, 8.0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            design_lowpass(1, 129, 8.0)

    def test_beta_where_i0_overflows_rejected(self):
        # the largest beta still gives finite, normalized taps
        b = design_lowpass(4, 129, _MAX_BETA)
        assert abs(np.sum(b.taps) - 1.0) < 1e-12
        for beta in (np.nextafter(_MAX_BETA, np.inf), 1e308, float("nan")):
            with pytest.raises(ValueError, match="where I0 overflows"):
                design_lowpass(4, 129, beta)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            design_lowpass(4, 129, -1.0)


class TestPadToMultiple:
    def test_pads_seven_to_eight(self):
        out = pad_to_multiple(Signal(np.arange(1.0, 8.0), 8000), 4)
        assert len(out) == 8
        assert out.samples[7] == 0.0
        np.testing.assert_array_equal(out.samples[:7], np.arange(1.0, 8.0))

    def test_already_multiple_unchanged(self):
        x = Signal(np.arange(8.0) + 1, 8000)
        out = pad_to_multiple(x, 4)
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_invalid_multiple(self):
        with pytest.raises(ValueError):
            pad_to_multiple(Signal([1.0], 8000), 0)

    @given(n=st.integers(1, 200), k=st.integers(1, 32))
    def test_minimal_padding_property(self, n, k):
        out = pad_to_multiple(np.ones(n), k)
        assert out.size % k == 0
        assert out.size - n < k
        assert np.all(out[n:] == 0.0)


def test_export_taps_roundtrip(tmp_path):
    b = design_lowpass(4, 33, 8.0)
    path = tmp_path / "taps.csv"
    export_taps_csv(b, path)
    loaded = np.array([float(line) for line in path.read_text().splitlines()])
    np.testing.assert_array_equal(loaded, b.taps)


class TestCircularHelpers:
    @pytest.mark.parametrize("dest_size, v_size", [(40, 7), (7, 7), (5, 23), (1, 9), (9, 1)])
    def test_add_is_the_adjoint_of_fill(self, dest_size, v_size):
        # fill maps R^v_size to R^dest_size, add maps back: <fill v, u> == <v, add u>
        rng = np.random.default_rng(dest_size * 100 + v_size)
        for start in (-3 * v_size - 2, -1, 0, 1, v_size, 5 * v_size + 3):
            v, u = rng.standard_normal(v_size), rng.standard_normal(dest_size)
            filled = np.empty(dest_size)
            _fill_circular(filled, v, start)
            np.testing.assert_array_equal(filled, v[(start + np.arange(dest_size)) % v_size])
            added = np.zeros(v_size)
            _add_circular(added, u, start)
            assert np.dot(filled, u) == pytest.approx(np.dot(v, added), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "taps, length", [(129, 288768), (1025, 512), (5000, 7), (129, 129), (1, 1)]
    )
    def test_fold_taps_equals_the_indexed_sum(self, taps, length):
        t = np.random.default_rng(taps).standard_normal(taps)
        want = np.zeros(min(taps, length))
        np.add.at(want, np.arange(taps) % length, t)
        assert np.array_equal(fold_taps(t, length), want)

    @pytest.mark.parametrize("hop, window", [(3, 9), (512, 2048), (7, 7), (33, 100), (1, 5)])
    def test_hop_energy_equals_the_indexed_sum(self, hop, window):
        g = np.random.default_rng(window).random(window)
        want = np.zeros(hop)
        np.add.at(want, np.arange(window) % hop, g**2)
        assert np.array_equal(_hop_energy(g, hop), want)


def test_import_loads_no_scipy():
    # the library depends on numpy alone; scipy.signal alone would add
    # about 70 MB to every process's peak RSS
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, dualquant, dualquant.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
