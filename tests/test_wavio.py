import struct

import numpy as np
import pytest

from dualquant import Quantizer, Signal, consistency_set, load_wav, quantize, save_wav
from dualquant.wavio import _ENCODINGS


def _wav_bytes(tag, bits, channels, block_align, payload, rate=8000):
    """A WAV file: a 16-byte fmt chunk, then ``payload`` as the data chunk."""
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        tag, channels, rate, rate * block_align, block_align, bits, b"data", len(payload),
    )
    return header + payload


@pytest.fixture
def signal():
    rng = np.random.default_rng(0)
    return Signal(rng.uniform(-0.99, 0.99, 479), 48000)


class TestRoundTrip:
    def test_float64_exact(self, signal, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, signal, bits=64)
        loaded = load_wav(path)
        np.testing.assert_array_equal(loaded.samples, signal.samples)
        assert loaded.sample_rate_hz == 48000

    def test_float32(self, signal, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, signal, bits=32)
        assert np.max(np.abs(load_wav(path).samples - signal.samples)) <= 2.0**-24

    def test_pcm24(self, signal, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, signal, bits=24)
        assert np.max(np.abs(load_wav(path).samples - signal.samples)) <= 2.0**-23

    def test_pcm16(self, signal, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, signal, bits=16)
        assert np.max(np.abs(load_wav(path).samples - signal.samples)) <= 2.0**-15

    def test_negative_full_scale_pcm24(self, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, Signal([-1.0, 1.0], 8000), bits=24)
        loaded = load_wav(path)
        assert loaded.samples[0] == -1.0
        assert loaded.samples[1] == (2**23 - 1) / 2**23  # saturated top code

    def test_quantized_observation_survives_float64_storage(self, tmp_path):
        rng = np.random.default_rng(1)
        q = Quantizer(24)
        y = quantize(Signal(rng.uniform(-0.9, 0.9, 64), 48000), q)
        path = tmp_path / "y.wav"
        save_wav(path, y, bits=64)
        consistency_set(load_wav(path), q)  # still exactly on the level grid


class TestFormat:
    def test_sixteen_bit_full_scale_mapping(self, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, Signal([1.0], 8000), bits=16)  # saturates to 0x7FFF
        assert load_wav(path).samples[0] == 32767 / 32768

    def test_first_channel_of_stereo(self, tmp_path):
        frames = 4
        left = np.array([100, -200, 300, -400], dtype="<i2")
        right = np.array([1, 2, 3, 4], dtype="<i2")
        inter = np.empty(2 * frames, dtype="<i2")
        inter[0::2] = left
        inter[1::2] = right
        payload = inter.tobytes()
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
            1, 2, 8000, 8000 * 4, 4, 16, b"data", len(payload),
        )
        path = tmp_path / "stereo.wav"
        path.write_bytes(header + payload)
        loaded = load_wav(path)
        np.testing.assert_array_equal(loaded.samples, left.astype(np.float64) / 32768)

    def test_unsupported_bit_width_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_wav(tmp_path / "x.wav", Signal([0.0], 8000), bits=8)

    @pytest.mark.parametrize("rate, bits", [(2**31, 64), (2**29, 64), (2**31, 16)])
    def test_rate_overflowing_the_header_rejected_on_save(self, tmp_path, rate, bits):
        # the byte rate, rate * bits / 8, is a 32-bit header field
        path = tmp_path / "x.wav"
        with pytest.raises(ValueError, match=f"sample rate {rate} Hz"):
            save_wav(path, Signal([0.0], rate), bits=bits)
        assert not path.exists()

    def test_highest_rate_that_fits_the_header(self, tmp_path):
        rate = 2**29 - 1  # byte rate 2^32 - 8 at 64 bits
        save_wav(tmp_path / "x.wav", Signal([0.5], rate), bits=64)
        assert load_wav(tmp_path / "x.wav").sample_rate_hz == rate

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"this is not audio at all, sorry")
        with pytest.raises(ValueError):
            load_wav(path)

    def test_missing_data_chunk_rejected(self, tmp_path):
        header = struct.pack(
            "<4sI4s4sIHHIIHH",
            b"RIFF", 28, b"WAVE", b"fmt ", 16, 1, 1, 8000, 16000, 2, 16,
        )
        path = tmp_path / "nodata.wav"
        path.write_bytes(header)
        with pytest.raises(ValueError):
            load_wav(path)

    @pytest.mark.parametrize("channels, block_align", [(0, 2), (1, 1), (1, 3), (2, 2)])
    def test_block_align_other_than_channels_times_width_rejected(
        self, tmp_path, channels, block_align
    ):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(1, 16, channels, block_align, bytes(range(12))))
        with pytest.raises(ValueError, match="malformed fmt chunk"):
            load_wav(path)

    def test_unsupported_codec_rejected(self, tmp_path):
        payload = b"\x00\x00"
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
            7, 1, 8000, 8000, 1, 8, b"data", len(payload),  # mu-law
        )
        path = tmp_path / "mulaw.wav"
        path.write_bytes(header + payload)
        with pytest.raises(ValueError, match="unsupported"):
            load_wav(path)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("tag, bits", sorted(_ENCODINGS))
def test_each_encoding_decodes_the_first_channel(tmp_path, tag, bits, channels):
    # hand-built samples: two's-complement codes of full scale 2^(bits-1),
    # or IEEE floats exact in single precision; a second channel holds
    # the same samples reversed
    width = bits // 8
    if tag == 1:
        full = 2 ** (bits - 1)
        codes = [-full, -full // 3, -1, 0, 1, full // 5, full - 1]
        expected = np.array(codes, dtype=np.float64) / full
        encoded = [c.to_bytes(width, "little", signed=True) for c in codes]
    else:
        expected = np.array([-1.0, -0.3125, 0.0, 2.0**-20, 0.5, 1 - 2.0**-12])
        encoded = [struct.pack("<f" if bits == 32 else "<d", v) for v in expected]
    payload = b"".join(
        b"".join([sample, *[other] * (channels - 1)])
        for sample, other in zip(encoded, reversed(encoded))
    )
    path = tmp_path / "x.wav"
    path.write_bytes(_wav_bytes(tag, bits, channels, channels * width, payload))
    loaded = load_wav(path)
    np.testing.assert_array_equal(loaded.samples, expected)
    assert loaded.samples.dtype == np.float64 and loaded.sample_rate_hz == 8000
