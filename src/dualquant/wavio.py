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

# Each supported (format tag, bits): the little-endian dtype of one stored
# sample, of which 24-bit PCM keeps the low three bytes, and whether
# save_wav writes that encoding at that width.
_ENCODINGS = {
    (_PCM, 16): ("<i2", True),
    (_PCM, 24): ("<i4", True),
    (_PCM, 32): ("<i4", False),
    (_IEEE_FLOAT, 32): ("<f4", True),
    (_IEEE_FLOAT, 64): ("<f8", True),
}
# The format tag save_wav writes at each width it supports.
_SAVED_FORMATS = {bits: tag for (tag, bits), (_, saved) in _ENCODINGS.items() if saved}


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
    if (audio_format, bits) not in _ENCODINGS:
        pcm, ieee = ("/".join(str(b) for t, b in _ENCODINGS if t == f) for f in (_PCM, _IEEE_FLOAT))
        raise ValueError(
            f"{path}: unsupported WAV encoding (format tag {audio_format}, {bits} bits); "
            f"expected {pcm}-bit PCM or {ieee}-bit float"
        )
    if channels < 1 or block_align != channels * (bits // 8):
        raise ValueError(f"{path}: malformed fmt chunk")
    frames = len(data) // block_align
    data = data[: frames * block_align]
    dtype = _ENCODINGS[audio_format, bits][0]
    if bits == 24:
        # three bytes above a zero byte are an int32 of 256 times the sample
        wide = np.empty((frames, 4), np.uint8)
        wide[:, 0] = 0
        wide[:, 1:] = np.frombuffer(data, np.uint8).reshape(frames, channels, 3)[:, 0]
        samples = wide.view(dtype)[:, 0] >> 8
    else:
        samples = np.frombuffer(data, dtype).reshape(frames, channels)[:, 0]
    samples = samples.astype(np.float64)
    if audio_format == _PCM:
        samples /= 2.0 ** (bits - 1)
    return Signal(samples, rate)


def save_wav(path, x: Signal, bits: int = 24) -> None:
    """Write a mono WAV file at the given bit width.

    ``bits`` of 16 or 24 produce integer PCM; 32 or 64 produce IEEE float.
    """
    arr = samples_of(x)
    rate = x.sample_rate_hz if isinstance(x, Signal) else 48000
    if bits not in _SAVED_FORMATS:
        *others, last = sorted(_SAVED_FORMATS)
        raise ValueError(
            f"unsupported bit width {bits}; use {', '.join(map(str, others))} or {last}"
        )
    audio_format = _SAVED_FORMATS[bits]
    if audio_format == _PCM:
        full_scale = 2 ** (bits - 1)
        arr = np.clip(np.round(arr * full_scale), -full_scale, full_scale - 1)
    stored = arr.astype(_ENCODINGS[audio_format, bits][0])
    if bits == 24:  # the low three bytes of each int32
        stored = stored.view(np.uint8).reshape(arr.size, 4)[:, :3]
    payload = stored.tobytes()

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
