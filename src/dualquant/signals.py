"""Discrete-time signals and the linear front-end operators.

Boundary handling is periodic throughout: filtering is circular
convolution, so the filter and the downsampler are exact square/rectangular
matrices on R^L with exact adjoints.  All operations are pure; containers
are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


# Samples per block of the per-sample passes (box bounds and projections,
# violations, SDR sums): a pass holds one block, not a signal-length array.
_SAMPLE_BLOCK = 1 << 14


def _sample_blocks(size: int):
    """Yield slices of ``_SAMPLE_BLOCK`` samples (the last may be shorter)
    that cover ``size`` samples, in order."""
    for s0 in range(0, size, _SAMPLE_BLOCK):
        yield slice(s0, min(s0 + _SAMPLE_BLOCK, size))


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


# Chebyshev coefficients of the modified Bessel function I0 from Cephes
# (S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989):
# of exp(-x) I0(x) in x/2 - 2 on [0, 8], and of exp(-x) sqrt(x) I0(x) in
# 32/x - 2 above 8.
_I0_SMALL = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17, -2.43127984654795469359e-16,
    1.71539128555513303061e-15, -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12, -1.72682629144155570723e-11,
    9.67580903537323691224e-11, -5.18979560163526290666e-10, 2.65982372468238665035e-09,
    -1.30002500998624804212e-08, 6.04699502254191894932e-08, -2.67079385394061173391e-07,
    1.11738753912010371815e-06, -4.41673835845875056359e-06, 1.64484480707288970893e-05,
    -5.75419501008210370398e-05, 1.88502885095841655729e-04, -5.76375574538582365885e-04,
    1.63947561694133579842e-03, -4.32430999505057594430e-03, 1.05464603945949983183e-02,
    -2.37374148058994688156e-02, 4.93052842396707084878e-02, -9.49010970480476444210e-02,
    1.71620901522208775349e-01, -3.04682672343198398683e-01, 6.76795274409476084995e-01,
)
_I0_LARGE = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18, 4.46562142029675999901e-17,
    3.46122286769746109310e-17, -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15, -9.55484669882830764870e-15,
    -4.15056934728722208663e-14, 1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12, -1.32158118404477131188e-11,
    -3.14991652796324136454e-11, 1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-09, 2.26666899049817806459e-08, 2.04891858946906374183e-07,
    2.89137052083475648297e-06, 6.88975834691682398426e-05, 3.36911647825569408990e-03,
    8.04490411014108831608e-01,
)


def _chebyshev(y: np.ndarray, coeffs) -> np.ndarray:
    """The Chebyshev series ``coeffs`` at ``y`` by Clenshaw's recurrence,
    one rounding per operation in Cephes's order."""
    b0, b1 = coeffs[0], 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _bessel_i0(x: np.ndarray) -> np.ndarray:
    """I0 of the non-negative ``x`` as Cephes computes it (as
    ``scipy.special.i0`` does), with ``exp`` from the C library: numpy's
    vectorized ``exp`` may differ from it in the last bit."""
    out = np.array([math.exp(v) for v in x.tolist()])
    # a series runs only if some argument needs it; at beta <= 8 none is above 8
    small = x <= 8.0
    if small.any():
        out[small] *= _chebyshev(x[small] / 2.0 - 2.0, _I0_SMALL)
    large = ~small
    if large.any():
        s = x[large]
        out[large] = out[large] * _chebyshev(32.0 / s - 2.0, _I0_LARGE) / np.sqrt(s)
    return out


# The largest Kaiser beta: above it exp(beta), and with it I0(beta),
# overflows a float.
_MAX_BETA = math.log(np.finfo(np.float64).max)


def design_lowpass(k: int, num_taps: int = 129, beta: float = 8.0) -> FirFilter:
    """Kaiser-windowed-sinc low-pass with cutoff at 1/(2k) cycles per sample.

    The taps are symmetric (linear phase) and normalized to unit DC gain.
    They equal ``scipy.signal.firwin(num_taps, 1/k, window=("kaiser",
    beta))`` bit for bit, because each step below is an operation of firwin
    and of its Kaiser window, in their order; a manifest records their
    digest.
    """
    if k < 2:
        raise ValueError("anti-aliasing design requires factor k >= 2")
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError("num_taps must be odd and >= 3")
    if beta < 0:
        raise ValueError("Kaiser beta must be >= 0")
    if not beta <= _MAX_BETA:
        raise ValueError(f"Kaiser beta must be <= {_MAX_BETA!r}, where I0 overflows; got {beta}")
    beta = float(beta)
    cutoff = 1.0 / k
    alpha = 0.5 * (num_taps - 1)
    n = np.arange(num_taps, dtype=np.float64)
    taps = cutoff * np.sinc(cutoff * (n - alpha))
    # the window's I0 values and its normalizer I0(beta) in one evaluation
    arg = np.append(beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0), beta)
    i0 = _bessel_i0(arg)
    taps *= i0[:-1] / i0[-1]
    taps /= np.sum(taps)
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
