"""Parseval-tight Gabor (time-frequency) analysis and synthesis of real signals.

The full Gabor transform maps R^L to C^(M x J) with

    c[m, j] = sum_n x[n] * w[n - j*hop] * exp(-2i*pi*m*n / M),

where ``w`` is the tight window, ``M`` the number of channels, ``J = L/hop``
the number of frames and indices are taken modulo L.  For real ``x``,
channel ``M-m`` is the conjugate of channel ``m``, and the modulus of a
coefficient does not depend on its phase.  The coefficients stored here
follow the real-input convention of LTFAT's ``dgtreal`` without the phase
factor: the ``rfft`` of each windowed segment,

    c[j, m] = weight[m] * sum_t x[j*hop + t] * w[t] * exp(-2i*pi*m*t / M),

for ``m = 0 .. M//2``, so ``|c[j, m]| = weight[m] * |c_full[m, j]|``.  The
weight is sqrt(2) on interior bins and 1 on DC and (for even ``M``) on the
Nyquist bin, which keeps analysis Parseval (each interior bin stands for
itself and its mirror) and gives ``|c_full|_1 = sum(weight * |c|)``.

Construction is restricted to the painless case (window length <= M, hop
divides L, M divides L), where the frame operator is diagonal and the
canonical tight window is a pointwise normalization of the prototype.  For
a tight frame the synthesis operator below is both the adjoint and the
inverse of analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .signals import samples_of

__all__ = ["TfFrame", "make_tight_frame", "analyze", "synthesize", "hann_window"]

_TIGHT_TOL = 1e-10


def hann_window(length: int) -> np.ndarray:
    """Hann window sampled at half-integer offsets: sin^2(pi*(n+1/2)/N).

    This periodic variant is symmetric and strictly positive, so the
    painless-case diagonal normalization below is defined for every hop,
    including the non-overlapping (rectangular) limit.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * (n + 0.5) / length)


def _hop_energy(g: np.ndarray, hop: int) -> np.ndarray:
    """``sum_j g[n - j*hop]^2`` for ``n`` in ``[0, hop)``; the painless frame
    diagonal (divided by M) is this sequence repeated with period ``hop``."""
    energy = np.zeros(hop)
    np.add.at(energy, np.arange(g.size) % hop, g**2)
    return energy


@dataclass(frozen=True, eq=False)
class TfFrame:
    """Tight Gabor frame for real signals, bound to a fixed signal length.

    Coefficients are stored flat in C-order of shape
    ``(num_frames, num_channels // 2 + 1)``: index ``j * (M//2 + 1) + m``
    holds bin ``m`` of the segment starting at ``j * hop``.  ``coeff_weight``
    holds the per-bin weight (sqrt(2) on interior bins, 1 on DC and Nyquist)
    already applied to the coefficients; see the module docstring.
    """

    window: np.ndarray
    tight_window: np.ndarray
    hop: int
    num_channels: int
    signal_len: int
    num_frames: int = field(init=False, repr=False)
    coeff_weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        window = np.asarray(self.window, dtype=np.float64)
        tight = np.asarray(self.tight_window, dtype=np.float64)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "tight_window", tight)
        hop, m, length = self.hop, self.num_channels, self.signal_len
        if window.ndim != 1 or window.size == 0:
            raise ValueError("window must be a nonempty 1-D array")
        if tight.shape != window.shape:
            raise ValueError("tight_window must match the window length")
        w = window.size
        if hop < 1:
            raise ValueError("hop must be >= 1")
        if hop > w:
            raise ValueError(f"hop {hop} exceeds window length {w}: coverage gap")
        if w > m:
            raise ValueError(
                f"window length {w} exceeds channel count {m}: not painless"
            )
        if length % hop or length % m:
            raise ValueError(
                f"signal length {length} must be a multiple of hop {hop} "
                f"and of channel count {m}"
            )
        object.__setattr__(self, "num_frames", length // hop)
        # Diagonal Parseval condition: M * sum_j w[n - j*hop]^2 == 1 for all n.
        err = np.max(np.abs(m * _hop_energy(tight, hop) - 1.0))
        if err > _TIGHT_TOL:
            raise ValueError(
                f"tight_window fails the Parseval diagonal condition (err={err:.2e})"
            )
        weight = np.ones(m // 2 + 1)
        weight[1 : (m + 1) // 2] = math.sqrt(2.0)
        object.__setattr__(self, "coeff_weight", weight)

    @property
    def num_coeffs(self) -> int:
        return self.num_frames * (self.num_channels // 2 + 1)

    @property
    def coeff_shape(self) -> tuple[int, int]:
        return (self.num_frames, self.num_channels // 2 + 1)


def make_tight_frame(
    window_len: int, hop: int, num_channels: int, signal_len: int
) -> TfFrame:
    """Build the canonical tight frame from a Hann prototype.

    The prototype is divided pointwise by the square root of the diagonal
    frame operator, which in the painless case is hop-periodic:

        w[n] = g[n] / sqrt(M * sum_j g[n - j*hop]^2)
    """
    g = hann_window(window_len)
    if hop < 1 or hop > window_len:
        raise ValueError(f"hop must lie in [1, window_len]; got {hop}")
    diag = num_channels * _hop_energy(g, hop)
    tight = g / np.sqrt(diag[np.arange(window_len) % hop])
    return TfFrame(g, tight, hop, num_channels, signal_len)


def analyze(frame: TfFrame, x) -> np.ndarray:
    """Tight-frame analysis coefficients of ``x`` (flat complex array)."""
    arr = samples_of(x)
    if arr.size != frame.signal_len:
        raise ValueError(
            f"signal length {arr.size} does not match frame length {frame.signal_len}"
        )
    w, hop = frame.window.size, frame.hop
    # Segment j is ext[j*hop : j*hop + w]; the tail wraps circularly.
    ext = np.concatenate((arr, arr[: w - hop]))
    segs = np.lib.stride_tricks.sliding_window_view(ext, w)[::hop] * frame.tight_window
    spectra = np.fft.rfft(segs, n=frame.num_channels, axis=1)
    spectra *= frame.coeff_weight
    return spectra.ravel()


def synthesize(frame: TfFrame, coeffs) -> np.ndarray:
    """Adjoint of :func:`analyze`; inverse of it on tight frames.

    Accepts the flat coefficient array or its ``coeff_shape`` view.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape not in ((frame.num_coeffs,), frame.coeff_shape):
        raise ValueError(
            f"expected {frame.num_coeffs} coefficients, got shape {c.shape}"
        )
    m, hop = frame.num_channels, frame.hop
    w = frame.window.size
    scaled = c.reshape(frame.coeff_shape) * (m / frame.coeff_weight)
    segs = np.fft.irfft(scaled, n=m, axis=1)[:, :w]
    segs *= frame.tight_window
    blocks = -(-w // hop)
    if blocks * hop != w:
        segs = np.pad(segs, ((0, 0), (0, blocks * hop - w)))
    # Block q of frame j lands on hop-block (j + q) mod J of the output.
    frames = frame.num_frames
    out = np.zeros((frames, hop))
    for q in range(blocks):
        part = segs[:, q * hop : (q + 1) * hop]
        out[q:] += part[: frames - q]
        out[:q] += part[frames - q :]
    return out.ravel()
