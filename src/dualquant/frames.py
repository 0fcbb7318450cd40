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

Both transforms take an optional ``out=`` array, in the numpy idiom, so an
iterative solver can keep its coefficient and signal buffers for a whole
run.  Neither builds a weighted copy of the coefficients: the constant
parts of the weights ride on the windows, and the DC and Nyquist bins are
corrected on their own (see :func:`analyze` and :func:`synthesize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signals import Signal, _add_circular, _as_samples, _check_finite, _fill_circular

__all__ = ["TfFrame", "make_tight_frame", "analyze", "synthesize", "hann_window"]

_TIGHT_TOL = 1e-10
# Samples per block of frames that :func:`analyze` and :func:`synthesize`
# run through one ``rfft`` or ``irfft`` (32 frames at 2048 channels): the
# size of their scratch, one block array and one line of samples.
_BLOCK_SAMPLES = 1 << 16


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
    _add_circular(energy, g**2, 0)
    return energy


def _check_painless(window_len: int, num_channels: int) -> None:
    """Raise ``ValueError`` unless the window fits in one period of the
    channels, the painless case this module is restricted to."""
    if window_len > num_channels:
        raise ValueError(
            f"window length {window_len} exceeds channel count {num_channels}: not painless"
        )


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
    # The tight window times sqrt(2) (analysis) and times M / sqrt(2)
    # (synthesis): the interior-bin weight and the irfft scale, applied on
    # the window instead of on the coefficients.
    _analysis_window: np.ndarray = field(init=False, repr=False)
    _synthesis_window: np.ndarray = field(init=False, repr=False)

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
        _check_painless(w, m)
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
        object.__setattr__(self, "_analysis_window", math.sqrt(2.0) * tight)
        object.__setattr__(self, "_synthesis_window", (m / math.sqrt(2.0)) * tight)

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
    # before the window is allocated
    _check_painless(window_len, num_channels)
    if num_channels > signal_len:
        raise ValueError(f"channel count {num_channels} exceeds signal length {signal_len}")
    g = hann_window(window_len)
    if hop < 1 or hop > window_len:
        raise ValueError(f"hop must lie in [1, window_len]; got {hop}")
    diag = np.empty(window_len)
    _fill_circular(diag, num_channels * _hop_energy(g, hop), 0)
    return TfFrame(g, g / np.sqrt(diag), hop, num_channels, signal_len)


def _check_out(out, shapes, dtype) -> None:
    """Raise ``ValueError`` unless ``out`` is a C-contiguous ``dtype`` array
    of one of ``shapes``."""
    ok = isinstance(out, np.ndarray) and out.dtype == dtype and out.shape in shapes
    if not (ok and out.flags.c_contiguous):
        raise ValueError(
            f"out must be a C-contiguous {np.dtype(dtype)} array of shape "
            f"{' or '.join(map(str, shapes))}, got {getattr(out, 'shape', out)!r}"
        )


def _rows_per_block(row_len: int) -> int:
    """Rows of ``row_len`` values in one block of about ``_BLOCK_SAMPLES``
    values (at least one)."""
    return max(1, _BLOCK_SAMPLES // row_len)


def _block_rows(frame: TfFrame) -> int:
    """Frames per block: one row of ``M`` samples per frame."""
    return min(_rows_per_block(frame.num_channels), frame.num_frames)


def _frame_blocks(frame: TfFrame):
    """Yield the blocks of frames, as slices of frame indices of
    ``_block_rows(frame)`` frames (the last may be shorter), in order."""
    rows = _block_rows(frame)
    for j0 in range(0, frame.num_frames, rows):
        yield slice(j0, min(j0 + rows, frame.num_frames))


def _analyze_block(frame: TfFrame, arr: np.ndarray, j0: int, spectra: np.ndarray) -> None:
    """Frames ``j0 .. j0 + len(spectra)`` of the analysis of ``arr`` into
    ``spectra``: their segments are windows of one line, read circularly
    from ``j0 * hop`` and checked for NaN and Inf (every sample is in some
    segment, since hop <= w), and go through the ``rfft`` straight into
    ``spectra``."""
    m, w, hop = frame.num_channels, frame.window.size, frame.hop
    rows = len(spectra)
    line = np.empty((rows - 1) * hop + w)
    _fill_circular(line, arr, j0 * hop)
    _check_finite(line)
    segs = sliding_window_view(line, w)[::hop]
    np.fft.rfft(segs * frame._analysis_window, n=m, axis=1, out=spectra)
    spectra[:, 0] *= 1.0 / math.sqrt(2.0)
    if m % 2 == 0:
        spectra[:, m // 2] *= 1.0 / math.sqrt(2.0)


def analyze(frame: TfFrame, x, out=None, rows: slice | None = None) -> np.ndarray:
    """Tight-frame analysis coefficients of ``x`` (flat complex array).

    ``rows`` (a slice of frame indices, step 1) selects the block form:
    only frames ``rows.start .. rows.stop`` are analyzed, in one pass, into
    an output of that many rows of ``coeff_shape``; its scratch is the
    size of that output.  By default every frame is, one block of
    :func:`_frame_blocks` at a time.  With ``out`` (a C-contiguous
    complex128 array of the output's size, flat or 2-D) the coefficients
    are written there and ``out`` is returned.  The window carries the
    sqrt(2) interior weight, so only the DC and (even ``M``) Nyquist
    columns are rescaled after the ``rfft``.  Each block is formed from
    one line of the samples it reads (see :func:`_analyze_block`); only
    those samples are checked for NaN and Inf, so a block call does not
    scan the whole signal.
    """
    arr = x.samples if isinstance(x, Signal) else _as_samples(x, check_finite=False)
    if arr.size != frame.signal_len:
        raise ValueError(
            f"signal length {arr.size} does not match frame length {frame.signal_len}"
        )
    j0, j1, step = (rows or slice(None)).indices(frame.num_frames)
    if step != 1 or j1 <= j0:
        raise ValueError(f"rows {rows} select no block of the {frame.num_frames} frames")
    shape = (j1 - j0, frame.num_channels // 2 + 1)
    if out is None:
        out = np.empty(math.prod(shape), dtype=np.complex128)
    else:
        _check_out(out, ((math.prod(shape),), shape), np.complex128)
    spectra = out.reshape(shape)
    for part in _frame_blocks(frame) if rows is None else (slice(j0, j1),):
        _analyze_block(frame, arr, part.start, spectra[part.start - j0 : part.stop - j0])
    return out


def synthesize(frame: TfFrame, coeffs, out=None) -> np.ndarray:
    """Adjoint of :func:`analyze`; inverse of it on tight frames.

    Accepts the flat coefficient array or its ``coeff_shape`` view.  With
    ``out`` (a C-contiguous float64 array of ``signal_len`` samples) the
    signal is written there and ``out`` is returned.

    The ``irfft`` runs on the coefficients as they are, and the window
    carries ``M / sqrt(2)``: the interior bins need exactly that (``M``
    undoes the ``irfft`` scale, ``1/sqrt(2)`` their weight).  DC and the
    Nyquist bin have weight 1, so they are short by a factor sqrt(2); the
    ``irfft`` is linear, so the missing part of segment sample ``t``,
    ``((sqrt(2) - 1) / M) * (Re c[j, 0] + (-1)^t Re c[j, M/2])``, is added
    before windowing.  Odd ``M`` has no Nyquist term.  The frames go
    through the ``irfft`` in blocks of about ``_BLOCK_SAMPLES``
    samples, into one scratch array per call; each block is overlap-added
    into one line of samples, which is added circularly into the output.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.shape not in ((frame.num_coeffs,), frame.coeff_shape):
        raise ValueError(
            f"expected {frame.num_coeffs} coefficients, got shape {c.shape}"
        )
    length = frame.signal_len
    if out is None:
        out = np.empty(length)
    else:
        _check_out(out, ((length,),), np.float64)
    m, w, hop = frame.num_channels, frame.window.size, frame.hop
    c = c.reshape(frame.coeff_shape)
    rows, span = _block_rows(frame), -(-w // hop)
    scratch = np.empty((rows, m))
    excess = (math.sqrt(2.0) - 1.0) / m
    # A block of frames is overlap-added into one line, hop-block q of frame
    # j0 + r on its hop-block r + q (the last of a window that is not whole
    # hops is narrower), and the line is added circularly from j0 * hop on.
    line = np.empty((rows + span - 1) * hop)
    blocks = line.reshape(-1, hop)
    out[:] = 0.0
    for part in _frame_blocks(frame):
        j0, j1 = part.start, part.stop
        segs = np.fft.irfft(c[j0:j1], n=m, axis=1, out=scratch[: j1 - j0])[:, :w]
        dc = c[j0:j1, :1].real * excess
        if m % 2 == 0:
            nyquist = c[j0:j1, m // 2 :].real * excess
            segs[:, 0::2] += dc + nyquist
            segs[:, 1::2] += dc - nyquist
        else:
            segs += dc
        segs *= frame._synthesis_window
        line[:] = 0.0
        for q in range(span):
            part = segs[:, q * hop : (q + 1) * hop]
            blocks[q : q + j1 - j0, : part.shape[1]] += part
        _add_circular(out, line[: (j1 - j0 + span - 1) * hop], j0 * hop)
    return out
