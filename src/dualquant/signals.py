"""Discrete-time signals and the linear front-end operators.

Boundary handling is periodic throughout: filtering is circular
convolution, so the filter and the downsampler are exact square/rectangular
matrices on R^L with exact adjoints.  All operations are pure; containers
are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import firwin

__all__ = [
    "Signal",
    "FirFilter",
    "Downsampler",
    "samples_of",
    "apply_filter",
    "apply_filter_adjoint",
    "downsample",
    "upsample_adjoint",
    "design_lowpass",
    "pad_to_multiple",
    "fold_taps",
    "taps_spectrum",
    "export_taps_csv",
]


def _as_samples(values, check_finite: bool = True) -> np.ndarray:
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError("signal samples must be real-valued")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sample array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("signal is empty")
    if check_finite:
        _check_finite(arr)
    return arr


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal contains NaN or Inf samples")


def samples_of(x) -> np.ndarray:
    """Samples of ``x``, which may be a Signal or any 1-D array-like."""
    if isinstance(x, Signal):
        return x.samples
    return _as_samples(x)


def _rewrap(template, samples: np.ndarray, sample_rate_hz: int | None = None):
    """Return ``samples`` as a Signal when ``template`` is one, else as-is."""
    if isinstance(template, Signal):
        rate = template.sample_rate_hz if sample_rate_hz is None else sample_rate_hz
        return Signal(samples, rate)
    return samples


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real signal, nominal amplitude range [-1, 1)."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples))
        rate = int(self.sample_rate_hz)
        if rate <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def with_samples(self, samples) -> "Signal":
        return Signal(samples, self.sample_rate_hz)


@dataclass(frozen=True, eq=False)
class FirFilter:
    """FIR impulse response; the l1 norm of the taps is cached because it
    bounds the operator norm of the induced circular filter."""

    taps: np.ndarray
    l1_norm: float = field(init=False)

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("filter taps must form a nonempty 1-D array")
        if not np.all(np.isfinite(taps)):
            raise ValueError("filter taps contain NaN or Inf")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "l1_norm", float(np.sum(np.abs(taps))))

    def __len__(self) -> int:
        return self.taps.size


@dataclass(frozen=True)
class Downsampler:
    """Keep-every-k-th-sample operator D_k."""

    factor: int

    def __post_init__(self):
        if int(self.factor) < 1:
            raise ValueError("downsampling factor must be >= 1")
        object.__setattr__(self, "factor", int(self.factor))


def fold_taps(taps: np.ndarray, length: int) -> np.ndarray:
    """The taps wrapped onto a circle of ``length`` samples.

    Tap t adds to tap ``t mod length``, so taps longer than the circle give
    the same circulant operator; the result has ``min(taps.size, length)``
    entries.
    """
    taps = np.asarray(taps, dtype=np.float64)
    folded = np.zeros(min(taps.size, length))
    _add_circular(folded, taps, 0)
    return folded


def _fill_circular(dest: np.ndarray, v: np.ndarray, start: int) -> None:
    """``dest[i] = v[(start + i) mod v.size]`` for every ``i``, by slicing."""
    pos, i = start % v.size, 0
    while i < dest.size:
        piece = v[pos : pos + dest.size - i]
        dest[i : i + piece.size] = piece
        i += piece.size
        pos = 0


def _add_circular(dest: np.ndarray, v: np.ndarray, start: int) -> None:
    """Adjoint of :func:`_fill_circular`: ``dest[(start + i) mod dest.size] += v[i]``."""
    pos, i = start % dest.size, 0
    while i < v.size:
        piece = dest[pos : pos + v.size - i]
        piece += v[i : i + piece.size]
        i += piece.size
        pos = 0


def taps_spectrum(taps: np.ndarray, length: int) -> np.ndarray:
    """rfft of the taps wrapped onto a circular buffer of ``length`` samples
    (see :func:`fold_taps`)."""
    folded = fold_taps(taps, length)
    # padded in a zeroed buffer, not by rfft(.., n=length): that allocates
    # less, but hires-cva read 0.2-0.6 MB more peak RSS with it in each of
    # 7 paired runs (2-core Xeon VM)
    buffer = np.zeros(length)
    buffer[: folded.size] = folded
    return np.fft.rfft(buffer)


def _circular_apply(arr: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    return np.fft.irfft(np.fft.rfft(arr) * spectrum, n=arr.size)


def apply_filter(x, b: FirFilter):
    """Circular convolution of the signal with the taps (operator B)."""
    arr = samples_of(x)
    out = _circular_apply(arr, taps_spectrum(b.taps, arr.size))
    return _rewrap(x, out)


def apply_filter_adjoint(x, b: FirFilter):
    """Adjoint of :func:`apply_filter`: circular correlation with the taps."""
    arr = samples_of(x)
    out = _circular_apply(arr, np.conj(taps_spectrum(b.taps, arr.size)))
    return _rewrap(x, out)


def downsample(x, d: Downsampler):
    """Keep every ``factor``-th sample; input length must be divisible."""
    arr = samples_of(x)
    k = d.factor
    if arr.size % k:
        raise ValueError(
            f"signal length {arr.size} is not divisible by factor {k}; pad first"
        )
    rate = None
    if isinstance(x, Signal):
        rate = max(1, round(x.sample_rate_hz / k))
    return _rewrap(x, arr[::k].copy(), rate)


def upsample_adjoint(y, d: Downsampler, out_len: int):
    """Adjoint of :func:`downsample`: zero insertion up to ``out_len``."""
    k = d.factor
    if not isinstance(y, Signal):
        arr = np.asarray(y, dtype=np.float64)
        if arr.size == 0 and out_len == 0:
            return arr.copy()
    arr = samples_of(y)
    if out_len != arr.size * k:
        raise ValueError(
            f"out_len {out_len} does not equal factor {k} x input length {arr.size}"
        )
    out = np.zeros(out_len)
    out[::k] = arr
    rate = None
    if isinstance(y, Signal):
        rate = y.sample_rate_hz * k
    return _rewrap(y, out, rate)


def design_lowpass(k: int, num_taps: int = 129, beta: float = 8.0) -> FirFilter:
    """Kaiser-windowed-sinc low-pass with cutoff at 1/(2k) cycles per sample.

    The taps are symmetric (linear phase) and normalized to unit DC gain.
    """
    if k < 2:
        raise ValueError("anti-aliasing design requires factor k >= 2")
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError("num_taps must be odd and >= 3")
    if beta < 0:
        raise ValueError("Kaiser beta must be >= 0")
    taps = firwin(num_taps, 1.0 / k, window=("kaiser", float(beta)))
    return FirFilter(taps)


def pad_to_multiple(x, k: int):
    """Append the minimal number of zeros so the length is a multiple of k.

    The caller is responsible for remembering the original length (the
    pipeline stores it in the run manifest) and truncating after
    reconstruction.
    """
    if k < 1:
        raise ValueError("padding multiple must be >= 1")
    arr = samples_of(x)
    extra = (-arr.size) % k
    if extra == 0:
        return _rewrap(x, arr.copy())
    return _rewrap(x, np.concatenate([arr, np.zeros(extra)]))


def export_taps_csv(b: FirFilter, path) -> None:
    """Write the taps to ``path``, one full-precision value per line."""
    with open(path, "w", encoding="ascii") as fh:
        for tap in b.taps:
            fh.write(f"{float(tap)!r}\n")
