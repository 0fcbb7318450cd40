"""Seeded benchmark inputs and the WAV files that carry them.

The generator and the WAV writer/reader here do not use the library, so a
change to ``dualquant`` cannot change the benchmark's inputs or the checks
made on its outputs.
"""

from __future__ import annotations

import struct
import wave
import zlib
from pathlib import Path

import numpy as np

# Peak of the written signal: below full scale so the 24-bit codes never clip.
PEAK = 0.9
COMPONENTS = 16


def _stream_seed(seed: int, tag: str) -> list[int]:
    """Seed sequence for one named input stream of a benchmark seed.

    Each workload draws from its own stream, so adding a workload or a
    signal to one of them leaves the inputs of the others unchanged.
    """
    return [int(seed), zlib.crc32(tag.encode("ascii"))]


def sparse_signal(seed: int, tag: str, duration_s: float, rate_hz: int) -> np.ndarray:
    """Sum of decaying sinusoids with random onsets, scaled to ``PEAK``.

    Each component starts at its own onset and decays exponentially, so the
    signal is sparse in time and in frequency, the prior the reconstruction
    relies on.  A fixed component count keeps the crest factor, and so the
    quantization SDR, similar from seed to seed.
    """
    rng = np.random.default_rng(_stream_seed(seed, tag))
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz
    freqs = np.exp(rng.uniform(np.log(80.0), np.log(0.4 * rate_hz), COMPONENTS))
    amps = rng.uniform(0.2, 1.0, COMPONENTS)
    phases = rng.uniform(0.0, 2.0 * np.pi, COMPONENTS)
    decays = rng.uniform(0.2, 1.5, COMPONENTS)
    onsets = rng.uniform(0.0, 0.5 * duration_s, COMPONENTS)
    x = np.zeros(n)
    for a, f, ph, tc, t0 in zip(amps, freqs, phases, decays, onsets):
        lag = np.maximum(t - t0, 0.0)
        x += (t >= t0) * a * np.exp(-lag / tc) * np.sin(2.0 * np.pi * f * lag + ph)
    return x * (PEAK / np.max(np.abs(x)))


def write_pcm24(path: Path, samples: np.ndarray, rate_hz: int) -> None:
    """Write mono 24-bit PCM with the standard library's ``wave`` module."""
    codes = np.clip(np.round(samples * 2.0**23), -(2**23), 2**23 - 1).astype("<i4")
    payload = codes.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(3)
        fh.setframerate(rate_hz)
        fh.writeframes(payload)


def read_samples(path: Path) -> np.ndarray:
    """Samples of a mono WAV file in 24-bit PCM or 64-bit IEEE float."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    chunks = {}
    pos = 12
    while pos + 8 <= len(raw):
        tag, size = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        chunks.setdefault(tag, raw[pos + 8 : pos + 8 + size])
        pos += 8 + size + (size & 1)
    fmt_tag, channels, _, _, _, bits = struct.unpack_from("<HHIIHH", chunks[b"fmt "])
    data = chunks[b"data"]
    if channels != 1:
        raise ValueError(f"{path}: expected mono, got {channels} channels")
    if fmt_tag == 3 and bits == 64:
        return np.frombuffer(data, dtype="<f8").copy()
    if fmt_tag == 1 and bits == 24:
        by = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = by[:, 0] | (by[:, 1] << 8) | (by[:, 2] << 16)
        return np.where(vals >= 1 << 23, vals - (1 << 24), vals) / 2.0**23
    raise ValueError(f"{path}: unsupported encoding (tag {fmt_tag}, {bits} bits)")
