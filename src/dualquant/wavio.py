"""Minimal mono WAV reader/writer.

Supports integer PCM at 16/24/32 bits and IEEE float at 32/64 bits.
Integer samples map to floats as value / 2^(bits-1), so full negative
scale is exactly -1.0 and the largest positive code is 1 - 2^(1-bits)
(e.g. 0x7FFF -> 32767/32768 at 16 bits).  Saving is the inverse mapping
with rounding and saturation.  Multichannel files are read by keeping the
first channel; writing is mono only.
"""

from __future__ import annotations

import struct

import numpy as np

from .signals import Signal, samples_of

__all__ = ["load_wav", "save_wav"]

_PCM = 1
_IEEE_FLOAT = 3
_U32_MAX = 2**32 - 1


def _max_rate(bits: int) -> int:
    """Highest rate whose byte rate fits the 32-bit header field at ``bits``."""
    return _U32_MAX // (bits // 8)


def _read_chunks(raw: bytes, path) -> dict[bytes, memoryview]:
    """The body of each chunk of ``raw``, by tag, as views into ``raw``."""
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    view = memoryview(raw)
    chunks: dict[bytes, memoryview] = {}
    pos = 12
    while pos + 8 <= len(raw):
        tag = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if tag not in chunks:  # keep the first occurrence
            chunks[tag] = view[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def load_wav(path) -> Signal:
    """Read a WAV file as a float64 signal in [-1, 1)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    chunks = _read_chunks(raw, path)
    if b"fmt " not in chunks or b"data" not in chunks:
        raise ValueError(f"{path}: missing fmt or data chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise ValueError(f"{path}: malformed fmt chunk")
    audio_format, channels, rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt
    )
    data = chunks[b"data"]
    if channels < 1 or block_align == 0:
        raise ValueError(f"{path}: malformed fmt chunk")
    frames = len(data) // block_align
    data = data[: frames * block_align]

    if audio_format == _PCM and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
        samples = samples.reshape(frames, channels)[:, 0] / 2.0**15
    elif audio_format == _PCM and bits == 24:
        by = np.frombuffer(data, dtype=np.uint8).reshape(frames, channels, 3)[:, 0, :]
        vals = (
            by[:, 0].astype(np.int32)
            | (by[:, 1].astype(np.int32) << 8)
            | (by[:, 2].astype(np.int32) << 16)
        )
        vals = np.where(vals >= 1 << 23, vals - (1 << 24), vals)
        samples = vals.astype(np.float64) / 2.0**23
    elif audio_format == _PCM and bits == 32:
        samples = np.frombuffer(data, dtype="<i4").astype(np.float64)
        samples = samples.reshape(frames, channels)[:, 0] / 2.0**31
    elif audio_format == _IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").reshape(frames, channels)[:, 0]
        samples = samples.astype(np.float64)
    elif audio_format == _IEEE_FLOAT and bits == 64:
        samples = np.frombuffer(data, dtype="<f8").reshape(frames, channels)[:, 0]
        samples = samples.astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported WAV encoding (format tag {audio_format}, "
            f"{bits} bits); expected 16/24/32-bit PCM or 32/64-bit float"
        )
    return Signal(samples, rate)


def save_wav(path, x: Signal, bits: int = 24) -> None:
    """Write a mono WAV file at the given bit width.

    ``bits`` of 16 or 24 produce integer PCM; 32 or 64 produce IEEE float.
    """
    arr = samples_of(x)
    rate = x.sample_rate_hz if isinstance(x, Signal) else 48000
    if bits in (16, 24):
        full_scale = 2 ** (bits - 1)
        codes = np.round(arr * full_scale)
        codes = np.clip(codes, -full_scale, full_scale - 1).astype(np.int32)
        if bits == 16:
            payload = codes.astype("<i2").tobytes()
        else:
            u = codes.astype(np.uint32) & 0xFFFFFF
            by = np.empty((arr.size, 3), dtype=np.uint8)
            by[:, 0] = u & 0xFF
            by[:, 1] = (u >> 8) & 0xFF
            by[:, 2] = (u >> 16) & 0xFF
            payload = by.tobytes()
        audio_format = _PCM
    elif bits == 32:
        payload = arr.astype("<f4").tobytes()
        audio_format = _IEEE_FLOAT
    elif bits == 64:
        payload = arr.astype("<f8").tobytes()
        audio_format = _IEEE_FLOAT
    else:
        raise ValueError(f"unsupported bit width {bits}; use 16, 24, 32 or 64")

    block_align = bits // 8
    if rate > _max_rate(bits):
        raise ValueError(
            f"{path}: sample rate {rate} Hz is too high for a {bits}-bit WAV header "
            f"(the byte rate {rate * block_align} exceeds {_U32_MAX})"
        )
    # the RIFF size is an unsigned 32-bit header field too
    if 36 + len(payload) > _U32_MAX:
        raise ValueError(f"{path}: {arr.size} samples at {bits} bits do not fit in one WAV file")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        1,
        rate,
        rate * block_align,
        block_align,
        bits,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        if len(payload) & 1:
            fh.write(b"\x00")
