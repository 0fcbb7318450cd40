"""Two-branch acquisition front end and the distortion metric.

Branch 1 low-pass filters, downsamples by k and quantizes finely; branch 2
quantizes the full-rate signal coarsely.  Reconstruction solves for a
signal consistent with both observations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quantizers import Quantizer, quantize
from .signals import (
    _SAMPLE_BLOCK,
    Downsampler,
    FirFilter,
    Signal,
    _rewrap,
    _sample_blocks,
    apply_filter,
    downsample,
    samples_of,
)

__all__ = [
    "PEAK_TARGET",
    "AcquisitionModel",
    "simulate_acquisition",
    "peak_normalize",
    "sdr",
]

# Normalization headroom keeps the peak just inside [-1, 1) so the top
# quantization cell does not dominate at high bit depths.
PEAK_TARGET = 1.0 - 2.0**-15


@dataclass(frozen=True, eq=False)
class AcquisitionModel:
    """Filter, downsampling factor and the two quantizers of the front end."""

    filter: FirFilter
    factor: int
    fine: Quantizer
    coarse: Quantizer

    def __post_init__(self):
        if int(self.factor) < 1:
            raise ValueError("downsampling factor must be >= 1")
        object.__setattr__(self, "factor", int(self.factor))
        if self.fine.bits < self.coarse.bits:
            warnings.warn(
                f"fine quantizer ({self.fine.bits} bits) is coarser than the "
                f"coarse one ({self.coarse.bits} bits)",
                stacklevel=2,
            )


def simulate_acquisition(x: Signal, model: AcquisitionModel) -> tuple[Signal, Signal]:
    """Observations (y1, y2) of ``x``: filtered/downsampled/fine-quantized
    and coarse-quantized at full rate.

    ``x`` is expected peak-normalized with its length a multiple of the
    downsampling factor.
    """
    filtered = apply_filter(x, model.filter)
    y1 = quantize(downsample(filtered, Downsampler(model.factor)), model.fine)
    y2 = quantize(x, model.coarse)
    return y1, y2


def peak_normalize(x):
    """Scale so the largest absolute sample equals ``PEAK_TARGET``."""
    arr = samples_of(x)
    peak = float(np.max(np.abs(arr)))
    if peak == 0.0:
        raise ValueError("cannot peak-normalize an all-zero signal")
    return _rewrap(x, arr * (PEAK_TARGET / peak))


def sdr(reference, estimate, reference_norm: float | None = None) -> float:
    """Signal-to-distortion ratio 20*log10(|x| / |x - x_hat|) in dB.

    Returns +inf when the estimate matches the reference exactly.  Both
    norms are summed a block of samples at a time.  A caller that scores
    many estimates against one reference may pass ``|reference|``, summed
    once the same way, as ``reference_norm``.
    """
    ref = samples_of(reference)
    est = samples_of(estimate)
    if ref.size != est.size:
        raise ValueError(
            f"length mismatch: reference {ref.size} vs estimate {est.size}"
        )
    ref_norm = _norm(ref) if reference_norm is None else reference_norm
    if ref_norm == 0.0:
        raise ValueError("reference signal is identically zero")
    err_norm = _norm(ref, est)
    if err_norm == 0.0:
        return math.inf
    return 20.0 * math.log10(ref_norm / err_norm)


def _norm(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """``|a - b|`` (``|a|`` without ``b``), its squares formed and summed a
    block of samples at a time in one scratch block: no signal-length
    temporary and no BLAS call.  A sum beyond the float range is inf."""
    scratch = np.empty(min(a.size, _SAMPLE_BLOCK))
    total = 0.0
    with np.errstate(over="ignore"):
        for part in _sample_blocks(a.size):
            d = scratch[: part.stop - part.start]
            if b is None:
                np.square(a[part], out=d)
            else:
                np.square(np.subtract(a[part], b[part], out=d), out=d)
            total += float(d.sum())
    return math.sqrt(total)
