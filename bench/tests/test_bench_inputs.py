import numpy as np

from dqbench.inputs import PEAK, read_samples, sparse_signal, write_pcm24


def _wav_bytes(tmp_path, seed, tag, name):
    path = tmp_path / name
    write_pcm24(path, sparse_signal(seed, tag, 0.25, 16000), 16000)
    return path.read_bytes()


def test_same_seed_gives_byte_identical_wavs(tmp_path):
    assert _wav_bytes(tmp_path, 7, "grid-16k-0", "a.wav") == _wav_bytes(
        tmp_path, 7, "grid-16k-0", "b.wav"
    )


def test_other_seed_or_stream_gives_other_wavs(tmp_path):
    base = _wav_bytes(tmp_path, 7, "grid-16k-0", "a.wav")
    assert _wav_bytes(tmp_path, 8, "grid-16k-0", "b.wav") != base
    assert _wav_bytes(tmp_path, 7, "grid-16k-1", "c.wav") != base


def test_pcm24_roundtrip_and_peak(tmp_path):
    x = sparse_signal(3, "hires-cva", 0.5, 8000)
    assert x.size == 4000
    assert abs(np.max(np.abs(x)) - PEAK) < 1e-15
    path = tmp_path / "x.wav"
    write_pcm24(path, x, 8000)
    assert np.max(np.abs(read_samples(path) - x)) <= 2.0**-24
