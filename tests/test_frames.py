import numpy as np
import pytest

from dualquant import Signal, analyze, hann_window, make_tight_frame, synthesize
from dualquant import frames
from dualquant.frames import TfFrame

# Odd channel count (no Nyquist bin), and a window that is not a whole
# number of hops.
ODD_FRAME = make_tight_frame(7, 3, 9, 36)


def brute_force_matrix(frame):
    """Analysis operator as an explicit matrix, one basis vector at a time."""
    length = frame.signal_len
    cols = []
    for i in range(length):
        e = np.zeros(length)
        e[i] = 1.0
        cols.append(analyze(frame, e))
    return np.stack(cols, axis=1)


class TestConstruction:
    def test_painless_diagonal_condition(self):
        frame = make_tight_frame(4, 2, 4, 8)
        w = frame.tight_window
        # direct evaluation: M * sum_j w[n - 2j]^2 == 1 for every n
        for n in range(8):
            acc = 0.0
            for j in range(4):  # shifts 0, 2, 4, 6
                t = (n - 2 * j) % 8
                if t < 4:
                    acc += w[t] ** 2
            assert 4 * acc == pytest.approx(1.0, abs=1e-12)

    def test_rectangular_case_is_orthonormal_basis(self):
        frame = make_tight_frame(4, 4, 4, 16)
        np.testing.assert_allclose(frame.tight_window, np.full(4, 0.5), atol=1e-14)

    def test_hop_exceeding_window_rejected(self):
        with pytest.raises(ValueError):
            make_tight_frame(4, 5, 8, 16)

    def test_window_wider_than_channels_rejected(self):
        with pytest.raises(ValueError):
            make_tight_frame(8, 2, 4, 16)

    def test_window_wider_than_channels_rejected_before_allocation(self, monkeypatch):
        def refuse(length):
            pytest.fail(f"hann_window ran with {length} samples before they were checked")

        monkeypatch.setattr(frames, "hann_window", refuse)
        with pytest.raises(ValueError, match="window length 1000000000 exceeds channel count 64"):
            make_tight_frame(10**9, 16, 64, 448)

    def test_length_not_multiple_of_hop_rejected(self):
        with pytest.raises(ValueError):
            make_tight_frame(4, 3, 4, 16)

    def test_length_not_multiple_of_channels_rejected(self):
        with pytest.raises(ValueError):
            make_tight_frame(4, 2, 4, 10)

    def test_non_tight_window_rejected(self):
        g = hann_window(4)
        with pytest.raises(ValueError):
            TfFrame(g, g, 2, 4, 8)  # prototype itself is not tight

    def test_coeff_count(self):
        # one rfft half-spectrum (M//2 + 1 bins) per frame, frame-major
        frame = make_tight_frame(32, 8, 32, 256)
        assert frame.num_coeffs == (256 // 8) * (32 // 2 + 1)
        assert frame.coeff_shape == (32, 17)
        assert ODD_FRAME.coeff_shape == (12, 5)
        assert ODD_FRAME.num_coeffs == 60

    def test_hann_window_positive_symmetric(self):
        for n in (1, 4, 33, 64):
            g = hann_window(n)
            assert np.all(g > 0)
            np.testing.assert_allclose(g, g[::-1], atol=1e-15)


class TestAnalyzeSynthesize:
    @pytest.fixture
    def frame(self):
        return make_tight_frame(32, 8, 32, 256)

    def test_zero_in_zero_out(self, frame):
        assert np.all(analyze(frame, np.zeros(256)) == 0)
        assert np.all(synthesize(frame, np.zeros(frame.num_coeffs, complex)) == 0)

    def test_parseval(self, frame):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(256)
            ratio = np.linalg.norm(analyze(frame, x)) / np.linalg.norm(x)
            assert abs(ratio - 1.0) < 1e-10

    def test_perfect_reconstruction(self, frame):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(256)
            rec = synthesize(frame, analyze(frame, x))
            assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-10

    def test_adjoint_pairing(self, frame):
        rng = np.random.default_rng(2)
        for fr in (frame, ODD_FRAME):
            for _ in range(50):
                x = rng.standard_normal(fr.signal_len)
                c = rng.standard_normal(fr.num_coeffs) + 1j * rng.standard_normal(
                    fr.num_coeffs
                )
                lhs = np.real(np.sum(analyze(fr, x) * np.conj(c)))
                rhs = np.dot(x, synthesize(fr, c))
                assert abs(lhs - rhs) < 1e-10 * np.linalg.norm(x) * np.linalg.norm(c)

    @pytest.mark.parametrize("shape", ["flat", "2-D"])
    def test_out_matches_result_without_out(self, frame, shape):
        rng = np.random.default_rng(7)
        for fr in (frame, ODD_FRAME):
            x = rng.standard_normal(fr.signal_len)
            c = analyze(fr, x) + 1e-3j * rng.standard_normal(fr.num_coeffs)
            size = fr.num_coeffs if shape == "flat" else fr.coeff_shape
            out = np.full(size, np.nan, dtype=complex)
            assert analyze(fr, x, out=out) is out
            np.testing.assert_allclose(out.ravel(), analyze(fr, x), rtol=0, atol=1e-12)
            sig = np.full(fr.signal_len, np.nan)
            assert synthesize(fr, c.reshape(size), out=sig) is sig
            np.testing.assert_allclose(sig, synthesize(fr, c), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_synthesis_in_blocks_of_frames(self, frame, rows, monkeypatch):
        # synthesize runs the irfft over blocks of frames; blocks of 1, 3
        # and 5 frames (a last block shorter than the others, windows that
        # wrap across a block boundary and the end of the signal) give the
        # one-block result and stay the adjoint of analysis
        rng = np.random.default_rng(rows)
        for fr in (frame, ODD_FRAME):
            c = rng.standard_normal(fr.num_coeffs) + 1j * rng.standard_normal(fr.num_coeffs)
            x = rng.standard_normal(fr.signal_len)
            whole = synthesize(fr, c)
            monkeypatch.setattr(frames, "_BLOCK_SAMPLES", rows * fr.num_channels)
            np.testing.assert_allclose(synthesize(fr, c), whole, rtol=0, atol=1e-12)
            lhs = np.real(np.sum(analyze(fr, x) * np.conj(c)))
            rhs = np.dot(x, synthesize(fr, c))
            assert abs(lhs - rhs) < 1e-10 * np.linalg.norm(x) * np.linalg.norm(c)
            monkeypatch.undo()

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_analysis_in_blocks_of_frames(self, frame, rows, monkeypatch):
        # analyze windows the segments a block of frames at a time; blocks
        # of 1, 3 and 5 frames (a short last block, blocks holding segments
        # inside the signal and segments that wrap round its end) give the
        # one-block result exactly, on frames with an even and an odd
        # channel count, with window == hop and with L == window
        rng = np.random.default_rng(rows)
        cases = (frame, ODD_FRAME, make_tight_frame(8, 8, 16, 64), make_tight_frame(32, 8, 32, 32))
        for fr in cases:
            x = rng.standard_normal(fr.signal_len)
            m, w, hop = fr.num_channels, fr.window.size, fr.hop
            segs = x[(np.arange(fr.num_frames)[:, None] * hop + np.arange(w)) % x.size]
            direct = np.fft.rfft(segs * fr.tight_window, n=m, axis=1) * fr.coeff_weight
            monkeypatch.setattr(frames, "_BLOCK_SAMPLES", fr.num_frames * m)
            whole = analyze(fr, x)
            np.testing.assert_allclose(whole, direct.ravel(), rtol=0, atol=1e-12)
            monkeypatch.setattr(frames, "_BLOCK_SAMPLES", rows * m)
            np.testing.assert_array_equal(analyze(fr, x), whole)
            monkeypatch.undo()

    def test_out_of_wrong_shape_or_dtype_rejected(self, frame):
        x = np.zeros(frame.signal_len)
        c = np.zeros(frame.num_coeffs, complex)
        for bad in (
            np.empty(frame.num_coeffs - 1, complex),
            np.empty(frame.num_coeffs, np.float64),
            np.empty(frame.num_coeffs, np.complex64),
            np.empty((frame.num_frames, frame.num_channels), complex),
            np.empty(frame.coeff_shape[::-1], complex).T,  # not C-contiguous
        ):
            with pytest.raises(ValueError, match="out must be"):
                analyze(frame, x, out=bad)
        for bad in (
            np.empty(frame.signal_len + 1),
            np.empty(frame.signal_len, complex),
            np.empty(frame.signal_len, np.float32),
            np.empty((frame.num_frames, frame.hop)),
            np.empty(2 * frame.signal_len)[::2],
        ):
            with pytest.raises(ValueError, match="out must be"):
                synthesize(frame, c, out=bad)

    def test_linearity(self, frame):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(256), rng.standard_normal(256)
        a, b = 0.7, -1.3
        combined = analyze(frame, a * x + b * y)
        separate = a * analyze(frame, x) + b * analyze(frame, y)
        assert np.linalg.norm(combined - separate) < 1e-12 * np.linalg.norm(separate)

    def test_length_mismatch_rejected(self, frame):
        with pytest.raises(ValueError):
            analyze(frame, np.zeros(128))
        with pytest.raises(ValueError):
            synthesize(frame, np.zeros(7, complex))

    def test_accepts_signal_objects(self, frame):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(256)
        np.testing.assert_array_equal(
            analyze(frame, Signal(x, 16000)), analyze(frame, x)
        )


class TestBlockForm:
    """``analyze(.., rows=slice)`` analyzes a block of frames: the rows of
    the whole-signal call, bit for bit."""

    # (window, hop, channels, length): the hires frame, the 64-frame grid
    # frame and two small frames whose windows are not whole hops, one with
    # an odd channel count; the small ones get blocks of 5 frames
    CASES = [(2048, 512, 2048, 288768), (2048, 512, 2048, 32768), (7, 3, 9, 36), (9, 3, 12, 36)]

    @staticmethod
    def _frame(case, monkeypatch):
        fr = make_tight_frame(*case)
        if frames._block_rows(fr) == fr.num_frames:
            monkeypatch.setattr(frames, "_BLOCK_SAMPLES", 5 * fr.num_channels)
        return fr

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_blocks_equal_rows_of_the_whole_call(self, case, monkeypatch):
        fr = self._frame(case, monkeypatch)
        x = np.random.default_rng(case[0]).standard_normal(fr.signal_len)
        whole = analyze(fr, x).reshape(fr.coeff_shape)
        b, last = frames._block_rows(fr), fr.num_frames
        # the first block, a middle one, the last (partial, its windows wrap
        # round the end of the signal) and one across a block boundary
        partial = last % b or b
        middle, across = slice(b, 2 * b), slice(b - 2, b + 3)
        for rows in (slice(0, b), middle, slice(last - partial, last), across):
            block = analyze(fr, x, rows=rows)
            assert block.shape == ((rows.stop - rows.start) * fr.coeff_shape[1],)
            np.testing.assert_array_equal(block.reshape(-1, fr.coeff_shape[1]), whole[rows])
            out = np.full((rows.stop - rows.start, fr.coeff_shape[1]), np.nan, dtype=complex)
            assert analyze(fr, Signal(x, 16000), out=out, rows=rows) is out
            np.testing.assert_array_equal(out, whole[rows])

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_nan_in_the_last_hop_rejected(self, case, monkeypatch):
        # only the frames whose windows wrap round the end read the last hop
        fr = self._frame(case, monkeypatch)
        x = np.zeros(fr.signal_len)
        x[-1 - fr.hop // 2] = np.nan
        last = slice(fr.num_frames - 1, fr.num_frames)
        for call in (lambda: analyze(fr, x), lambda: analyze(fr, x, rows=last)):
            with pytest.raises(ValueError, match="signal contains NaN or Inf samples"):
                call()
        x[-1 - fr.hop // 2] = np.inf
        with pytest.raises(ValueError, match="signal contains NaN or Inf samples"):
            analyze(fr, x, rows=last)

    def test_block_call_reads_only_its_samples(self):
        # the first block of the hires frame does not reach the last hop, so
        # a NaN there is not read (nor checked) by that block
        fr = make_tight_frame(2048, 512, 2048, 288768)
        x = np.zeros(fr.signal_len)
        x[-1] = np.nan
        first = analyze(fr, x, rows=slice(0, frames._block_rows(fr)))
        assert np.all(first == 0)

    def test_empty_or_strided_rows_rejected(self):
        fr = make_tight_frame(8, 4, 8, 32)
        x = np.zeros(fr.signal_len)
        for rows in (slice(3, 3), slice(5, 2), slice(0, 8, 2), slice(8, None)):
            with pytest.raises(ValueError, match="select no block"):
                analyze(fr, x, rows=rows)
        with pytest.raises(ValueError, match="out must be"):
            analyze(fr, x, out=np.empty(fr.num_coeffs, complex), rows=slice(0, 2))


class TestSpectralBehavior:
    def test_sinusoid_concentrates_in_matching_channels(self):
        # rectangular, non-overlapping frame: windowed DFT of each block
        m0, m = 2, 8
        frame = make_tight_frame(m, m, m, 32)
        n = np.arange(32)
        x = np.cos(2 * np.pi * m0 * n / m)
        c = np.abs(analyze(frame, x).reshape(frame.coeff_shape))
        on = np.zeros(m // 2 + 1, dtype=bool)
        on[m0] = True
        assert np.all(c[:, on] > 0.1)
        assert np.all(c[:, ~on] < 1e-10)

    def test_brute_force_tightness_small_frame(self):
        for frame in (make_tight_frame(8, 4, 8, 32), ODD_FRAME):
            a = brute_force_matrix(frame)
            gram = np.real(a.conj().T @ a)
            np.testing.assert_allclose(gram, np.eye(frame.signal_len), atol=1e-10)

    def test_moduli_match_full_gabor_formula(self):
        # |c| / weight is the modulus of c[m, j] = sum_n x[n] w[n - j*hop]
        # exp(-2i*pi*m*n/M) for the stored bins m = 0 .. M//2
        rng = np.random.default_rng(6)
        for frame in (make_tight_frame(8, 4, 8, 32), ODD_FRAME):
            length, m, hop = frame.signal_len, frame.num_channels, frame.hop
            x = rng.standard_normal(length)
            n = np.arange(length)
            expected = np.empty(frame.coeff_shape)
            for j in range(frame.num_frames):
                shifted = np.zeros(length)
                shifted[(np.arange(frame.window.size) + j * hop) % length] = (
                    frame.tight_window
                )
                for k in range(m // 2 + 1):
                    atom = shifted * np.exp(-2j * np.pi * k * n / m)
                    expected[j, k] = abs(np.sum(x * atom))
            c = analyze(frame, x).reshape(frame.coeff_shape)
            np.testing.assert_allclose(
                np.abs(c) / frame.coeff_weight, expected, atol=1e-12
            )

    def test_identity_frame(self):
        frame = make_tight_frame(1, 1, 1, 4)
        x = np.array([0.3, -0.1, 0.0, 0.25])
        np.testing.assert_allclose(analyze(frame, x), x.astype(complex), atol=1e-15)
