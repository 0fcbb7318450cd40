"""Primal-dual solvers for quantization-consistent sparse recovery.

Both solvers minimize the l1 norm of tight-frame analysis coefficients
subject to box constraints.  The dual-branch problem

    min_x  lam * |A x|_1  +  i_fine(D_k B x)  +  i_coarse(x)

is handled by the Condat-Vu splitting: a gradient-style primal step against
the stacked adjoints followed by one dual prox per term, each obtained
through the Moreau decomposition (so only ``clip`` and box projections are
ever evaluated).  The single-branch baseline drops the fine branch and runs
the Chambolle-Pock iteration, whose primal step projects directly onto the
coarse box.

Each iteration is a private generator (``_cva_steps``, ``_cpa_steps``)
that advances the iterate and yields it with the weighted l1 norm of its
coefficients.  Both run their l1 term through one ``_L1Branch``, whose dual
update also gives ``A x`` of the new iterate by linearity, so the objective
costs no transform.  One driver (``_drive``) runs either generator for
``max_iters`` steps and does the rest: the objective and SDR traces, the
best-SDR iterate, DEBUG logging of the relative primal change and the
assembled :class:`SolverRun`.

The frame coefficients are the half-spectrum ones of :mod:`.frames`, in
which ``|A x|_1`` of the full Gabor transform is ``sum(weight * |c|)``; the
l1 prox therefore clips each bin at ``lam * weight``.

Both iterations keep each dual divided by sigma, ``y = u / sigma``.  The
conjugate prox of the l1 term is a clip, and a clip commutes with scaling,
so ``y1`` is clipped at radius ``lam * weight / sigma``; a box dual becomes
``p - project(box, p)`` at ``p = y + K x``; and the primal gradient ``K^T
u`` is ``sigma * (A^* y1 + (D_k B)^* y2 + y3)``, scaled once on the signal
instead of on every coefficient.  The iterates are those of the unscaled
form up to rounding.

Step sizes: with a Parseval frame (norm 1), identity and a filter whose
operator norm is at most the l1 norm of its taps, the stacked operator has
squared norm at most 2 + l1^2, giving the sufficient condition
tau * sigma * (2 + l1^2) <= 1 for the dual-branch solver and
tau * sigma <= 1 for the baseline.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acquisition import AcquisitionModel, sdr
from .frames import TfFrame, _block_rows, _frame_blocks, _rows_per_block, analyze, synthesize
from .quantizers import ConsistencySet, consistency_set, project, Quantizer
from .signals import (
    _SAMPLE_BLOCK,
    FirFilter,
    Signal,
    _fill_circular,
    _sample_blocks,
    fold_taps,
    samples_of,
)

__all__ = [
    "SolverConfig",
    "SolverRun",
    "FeasibilityGap",
    "clip_complex",
    "default_steps",
    "cva_solve",
    "cva_solve_sets",
    "cpa_solve",
    "cpa_solve_box",
]

logger = logging.getLogger(__name__)

_STEP_SLACK = 1e-12
# The most iterations a run may ask for: its traces are allocated up front.
_MAX_ITERS = 10**6


class FeasibilityGap(NamedTuple):
    """Largest per-sample constraint violations at the reported iterate."""

    coarse: float
    fine: float


@dataclass(frozen=True)
class SolverConfig:
    """Step sizes and weights shared by both solvers.

    Unset steps (``tau`` and ``sigma`` both ``None``) mean each solver's own
    rule: :func:`default_steps` of the filter for the dual-branch solver,
    unit steps for the baseline.  ``rho`` is the over-relaxation parameter
    of the dual-branch solver (ignored by the baseline); ``lam`` weights
    the l1 term and only affects iteration dynamics, not the minimizer.
    """

    tau: float | None = None
    sigma: float | None = None
    rho: float = 1.0
    lam: float = 1.0
    max_iters: int = 200

    def __post_init__(self):
        if (self.tau is None) != (self.sigma is None):
            raise ValueError("set both tau and sigma, or neither")
        steps = () if self.tau is None else (self.tau, self.sigma)
        if not all(0 < step < math.inf for step in steps):
            raise ValueError("tau and sigma must be positive and finite")
        if not 0.0 < self.rho < 2.0:
            raise ValueError(f"rho must lie strictly inside (0, 2), got {self.rho}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.max_iters > _MAX_ITERS:
            raise ValueError(
                f"max_iters must be <= {_MAX_ITERS}, got {self.max_iters}: a run allocates "
                "its objective and SDR traces up front, 16 bytes per iteration"
            )

    def _with_steps(self, tau: float, sigma: float) -> "SolverConfig":
        """This config, with ``tau`` and ``sigma`` in place of unset steps."""
        return self if self.tau is not None else replace(self, tau=tau, sigma=sigma)

    def validate_for_cva(self, filter_l1_norm: float) -> None:
        bound = 0.0 if self.tau is None else self.tau * self.sigma * (2.0 + filter_l1_norm**2)
        if bound > 1.0 + _STEP_SLACK:
            raise ValueError(
                f"step sizes violate tau*sigma*(2 + |b|_1^2) <= 1 (got {bound:.6g})"
            )

    def validate_for_cpa(self) -> None:
        if self.tau is not None and self.tau * self.sigma > 1.0 + _STEP_SLACK:
            raise ValueError(
                f"step sizes violate tau*sigma <= 1 (got {self.tau * self.sigma:.6g})"
            )


@dataclass(frozen=True, eq=False)
class SolverRun:
    """Result of a solver run.

    ``estimate`` is the final iterate, or the best-SDR iterate when a clean
    reference was supplied.  Traces have one entry per executed iteration;
    ``best_sdr_iter`` is 1-based, matching the iteration numbering of the
    traces.
    """

    estimate: Signal
    objective_trace: np.ndarray
    sdr_trace: Optional[np.ndarray]
    best_sdr_iter: Optional[int]
    feasibility_gap: FeasibilityGap


def _moduli(c: np.ndarray):
    """Yield ``(rows, |c[rows]|)`` over blocks of rows of ``c`` (slices of
    its first axis) of about ``frames._BLOCK_SAMPLES`` entries, each
    modulus block formed in the same scratch array.  A row of frame
    coefficients has fewer entries than a frame has channels, so a block
    of frames from :func:`analyze` is one modulus block."""
    rows = _rows_per_block(math.prod(c.shape[1:]))
    scratch = np.empty((min(rows, len(c)), *c.shape[1:]))
    for r0 in range(0, len(c), rows):
        part = slice(r0, r0 + rows)
        block = c[part]
        yield part, np.abs(block, out=scratch[: len(block)])


def clip_complex(c, lam, out=None) -> np.ndarray:
    """Project coefficients onto the ball of modulus at most ``lam``.

    Moduli above ``lam`` are rescaled onto the ball boundary with phase
    preserved; everything else passes through unchanged.  This is the prox
    of the convex conjugate of lam * |.|_1 for complex coefficients.
    ``lam`` may be an array broadcastable against ``c`` (one radius per
    coefficient, for a weighted l1 norm).  With ``out`` (which may be ``c``
    itself) the result is written there instead of a new array.  The
    moduli are formed a block of rows at a time, so a call holds no
    scratch the size of ``c``.
    """
    if np.any(np.asarray(lam) <= 0):
        raise ValueError("lam must be positive")
    c, lam = np.broadcast_arrays(np.asarray(c), np.asarray(lam, dtype=np.float64))
    if out is None:
        out = np.empty(c.shape, dtype=np.result_type(c, lam))
    for part, scale in _moduli(c):
        np.maximum(scale, lam[part], out=scale)
        np.divide(lam[part], scale, out=scale)
        np.multiply(c[part], scale, out=out[part])
    return out


def _weighted_l1(c: np.ndarray, frame: TfFrame, out: np.ndarray) -> None:
    """Per-frame terms of ``|A_full x|_1`` from rows ``c`` of the
    half-spectrum coefficients of ``A x``: ``out[j] = sum(weight *
    |c[j]|)``, so the terms of every frame sum to the l1 norm.  Each row
    is summed on its own (no BLAS call)."""
    for part, moduli in _moduli(c):
        moduli *= frame.coeff_weight
        np.sum(moduli, axis=1, out=out[part])


def default_steps(b: FirFilter) -> tuple[float, float]:
    """Equal steps saturating the dual-branch sufficient condition."""
    step = 1.0 / math.sqrt(2.0 + b.l1_norm**2)
    return step, step


# Samples per chunk of blocks in the filter pair (32 blocks at the default
# 129 taps).
_CHUNK_SAMPLES = 32 * 1024


class _DualBranchOperators:
    """The filtered/downsampled branch ``D_k B`` and its adjoint, as block FFTs.

    ``down_filter`` is ``D_k B`` with ``B`` the circular filter and ``D_k``
    keeping every k-th sample, so its output has length ``M = L/k``;
    ``up_filter_adjoint`` is ``B^T D_k^T``.  Taps longer than L are first
    folded onto the circle (tap t adds to tap t mod L), which is the same
    circulant operator; ``T`` is the folded tap count.

    Both are overlap-save block convolutions with FFTs of ``N`` points
    (Oppenheim & Schafer, *Discrete-Time Signal Processing*), each block
    reading its input circularly.  ``P`` is ``T - 1`` rounded up to a
    multiple of k, and ``N`` is k times the smallest power of two for which
    ``N >= 4 * (P + k)``: one rule for every tap count, so the cost follows
    the tap count and not L or how L factors (``N = 1024`` at k = 4 and the
    default 129 taps).  Block b has ``Q = (N - P) / k`` samples of the short
    side, starting at ``b * Q``, and ``k * Q`` of the signal, starting at
    ``b * k * Q``.

    ``down_filter``: the signal is laid out circularly with its last ``P``
    samples in front.  Each N-sample block is one ``rfft`` and a product
    with the N-point taps spectrum; its samples ``P, P + k, ..`` are valid,
    and they are the kept outputs.  Keeping every k-th sample folds the
    spectrum onto ``N/k`` bins (bin g gathers bins ``g + r N/k``; those
    above ``N/2`` are the conjugates of their mirrors), so the ``irfft``
    runs at ``N/k`` points and forms every k-th sample only (the polyphase
    view of decimation, Crochiere & Rabiner 1983).

    ``up_filter_adjoint``: the adjoint is the circular correlation of the
    zero-stuffed input with the taps.  Each block reads ``N/k`` inputs from
    its start, and its first ``k * Q = N - P`` samples of an N-point
    circular correlation with the taps are valid, since ``k * Q + T - 1 <=
    N``.  The spectrum of the stuffed block is the ``N/k``-point spectrum of
    the inputs repeated k times, so the ``rfft`` runs at ``N/k`` points and
    no stuffed block is formed; the product is with the conjugate taps
    spectrum.

    The transforms run over chunks of about ``_CHUNK_SAMPLES`` samples, each
    read circularly into one line from the start of its first block b0
    (``b0 * k * Q - P`` down, ``b0 * Q`` up).  The instance holds the lines,
    spectra and time blocks (none grows with L), so one instance serves one
    solve at a time.  ``down_filter`` returns a fresh array (a view of one),
    because with ``rho == 1`` the solver keeps its output as its fine-branch
    dual.
    """

    def __init__(self, length: int, fir: FirFilter, factor: int):
        if length % factor:
            raise ValueError(f"signal length {length} is not divisible by factor {factor}")
        k = self.factor = factor
        self.length = length
        self.short_len = length // factor
        taps = fold_taps(fir.taps, length)
        self._lead = -(-(taps.size - 1) // k) * k
        short = self._short = 1 << (-(-4 * (self._lead + k) // k) - 1).bit_length()
        n = self._size = k * short
        self._per_block = (n - 1 - self._lead) // k + 1
        self._stride = k * self._per_block
        self._blocks = -(-self.short_len // self._per_block)
        rows = self._chunk = min(max(1, _CHUNK_SAMPLES // n), self._blocks)
        # the 1/k of the spectral fold rides on the taps spectrum
        self._spectrum = np.fft.rfft(taps, n) / k
        self._spectrum_conj = np.conj(np.fft.rfft(taps, n))
        self._line = np.empty((rows - 1) * self._stride + n)
        self._windows = sliding_window_view(self._line, n)[:: self._stride]
        self._short_line = np.empty((rows - 1) * self._per_block + short)
        self._short_windows = sliding_window_view(self._short_line, short)[:: self._per_block]
        self._spec = np.empty((rows, n // 2 + 1), dtype=np.complex128)
        self._half = np.empty((rows, short // 2 + 1), dtype=np.complex128)
        self._full = np.empty((rows, short), dtype=np.complex128)
        self._time = np.empty((rows, n))
        self._short_time = np.empty((rows, short))

    def down_filter(self, v: np.ndarray) -> np.ndarray:
        k, lead, per_block = self.factor, self._lead, self._per_block
        short = self._short
        half = short // 2
        out = np.empty((self._blocks, per_block))
        for b0 in range(0, self._blocks, self._chunk):
            rows = min(self._chunk, self._blocks - b0)
            _fill_circular(self._line, v, b0 * self._stride - lead)
            spec = np.fft.rfft(self._windows[:rows], axis=1, out=self._spec[:rows])
            spec *= self._spectrum
            # bin g of the fold gathers bins g + r * short for r < k/2, and
            # the conjugates of bins s * short - g for 1 <= s <= k/2
            fold, mirror = self._half[:rows], self._full[:rows, : half + 1]
            fold[:] = spec[:, : half + 1]
            for r in range(1, (k + 1) // 2):
                fold += spec[:, r * short : r * short + half + 1]
            for s in range(1, k // 2 + 1):
                np.conj(spec[:, s * short - half : s * short + 1][:, ::-1], out=mirror)
                fold += mirror
            time = np.fft.irfft(fold, short, axis=1, out=self._short_time[:rows])
            out[b0 : b0 + rows] = time[:, lead // k : lead // k + per_block]
        return out.reshape(-1)[: self.short_len]

    def up_filter_adjoint(self, w: np.ndarray, add_to: np.ndarray | None = None) -> np.ndarray:
        """``B^T D_k^T w``, as a fresh array, or added into ``add_to`` (of
        length L), which is returned: the solver adds it straight into its
        gradient."""
        n, short, stride = self._size, self._short, self._stride
        half = short // 2
        out = np.zeros(self.length) if add_to is None else add_to
        # blocks 0 .. whole - 1 lie inside the signal; a last block past
        # them is cut at its end
        whole = self.length // stride
        rows_of = out[: whole * stride].reshape(whole, stride)
        for b0 in range(0, self._blocks, self._chunk):
            rows = min(self._chunk, self._blocks - b0)
            full = self._full[:rows]
            _fill_circular(self._short_line, w, b0 * self._per_block)
            spectrum = np.fft.rfft(self._short_windows[:rows], axis=1, out=self._half[:rows])
            full[:, : half + 1] = spectrum
            np.conj(spectrum[:, half - 1 : 0 : -1], out=full[:, half + 1 :])
            spec = self._spec[:rows]
            for r in range(0, n // 2 + 1, short):
                width = min(short, n // 2 + 1 - r)
                np.multiply(
                    full[:, :width], self._spectrum_conj[r : r + width],
                    out=spec[:, r : r + width],
                )
            time = np.fft.irfft(spec, n, axis=1, out=self._time[:rows])
            inside = min(rows, whole - b0)
            rows_of[b0 : b0 + inside] += time[:inside, :stride]
            if inside < rows:
                out[whole * stride :] += time[inside, : self.length - whole * stride]
        return out


def _box_dual_prox(p, box: ConsistencySet, scratch: np.ndarray):
    """``p - project(box, p)``, computed in ``p`` a block of samples at a
    time, each block's projection formed in ``scratch`` (one block long):
    the dual prox of a box indicator, divided by sigma, at ``p = y + K x``
    (see the module docstring for the scaling)."""
    for part in _sample_blocks(p.size):
        block = p[part]
        block -= project(box[part], block, out=scratch[: block.size])
    return p


def _relax(y, target, rho: float):
    """``y + rho * (target - y)``, formed in ``y``, with ``target`` used as
    scratch.  Returns the pair (new dual, free buffer): with ``rho == 1``
    the two buffers swap and nothing is computed."""
    if rho == 1.0:
        return target, y
    target -= y
    target *= rho
    y += target
    return y, target


class _L1Branch:
    """The l1 term of either iteration: its dual, divided by sigma, and
    ``A x`` of the running iterate, for the objective trace.

    :meth:`update` runs the dual update at a look-ahead point ``v`` a block
    of frames at a time, so the branch holds two coefficient arrays.  The
    iterate moves by ``(rho/2) * (v - x)``, and ``A x`` with it by
    linearity; the first ``v`` is the iterate itself.
    """

    def __init__(self, frame: TfFrame, cfg: SolverConfig, rho: float):
        shape = frame.coeff_shape
        self.frame, self.rho = frame, rho
        # Python floats: an overflow is inf, not a numpy warning
        if not cfg.lam / cfg.sigma * float(frame.coeff_weight.max()) < math.inf:
            raise ValueError(
                f"the l1 clip radius lam / sigma * weight overflows (lam {cfg.lam:g}, "
                f"sigma {cfg.sigma:g}); lower lam"
            )
        self.radius = (cfg.lam / cfg.sigma) * frame.coeff_weight
        self.dual = np.zeros(shape, dtype=np.complex128)
        self.ax = np.empty(shape, dtype=np.complex128)
        # one block of the analysis of v, then of the clip's argument
        self.block = np.empty((_block_rows(frame), shape[1]), dtype=np.complex128)
        self.l1_terms = np.empty(frame.num_frames)
        self.first = True

    def update(self, v) -> float:
        """Update the dual at ``v``; return the weighted l1 of the
        coefficients of the new iterate."""
        frame, rho, dual = self.frame, self.rho, self.dual
        for rows in _frame_blocks(frame):
            a = analyze(frame, v, out=self.block[: rows.stop - rows.start], rows=rows)
            # A x is formed in place as (rho/2) * ((2 - rho)/rho * A x + a)
            ax_rows = self.ax[rows]
            if self.first:
                ax_rows[...] = a
            else:
                if rho != 1.0:
                    ax_rows *= (2.0 - rho) / rho
                ax_rows += a
                ax_rows *= 0.5 * rho
            _weighted_l1(ax_rows, frame, out=self.l1_terms[rows])
            a += dual[rows]
            if rho == 1.0:
                clip_complex(a, self.radius, out=dual[rows])
            else:
                _relax(dual[rows], clip_complex(a, self.radius, out=a), rho)
        self.first = False
        return float(np.sum(self.l1_terms))


def _rate_of(*candidates) -> int:
    for c in candidates:
        if isinstance(c, Signal):
            return c.sample_rate_hz
    return 1


def _start(x0, length: int, reference):
    """Checked start-up of either solver: a private copy of the start point
    ``x0``, the reference samples (or ``None``) and the sample rate of
    ``x0`` or else of ``reference`` (1 Hz when neither is a Signal)."""
    x = samples_of(x0).copy()
    if x.size != length:
        raise ValueError(f"x0 (y2) length {x.size} does not match frame length {length}")
    ref = None if reference is None else samples_of(reference)
    if ref is not None and ref.size != length:
        raise ValueError("reference length does not match the frame length")
    return x, ref, _rate_of(x0, reference)


def _drive(steps, x, cfg: SolverConfig, ref, rate: int, gap) -> SolverRun:
    """Run ``cfg.max_iters`` steps of the iteration ``steps`` (a generator
    yielding each iterate with the weighted l1 of its coefficients) from
    ``x``; ``gap`` gives the (coarse, fine) violations of an iterate."""
    objective = np.empty(cfg.max_iters)
    sdr_values = np.empty(cfg.max_iters) if ref is not None else None
    best_sdr, best_x, best_iter = -math.inf, None, None
    debug = logger.isEnabledFor(logging.DEBUG)
    for i in range(cfg.max_iters):
        # a copy, since the dual-branch iteration updates its iterate in place
        previous = x.copy() if debug else None
        x, l1 = next(steps)
        objective[i] = cfg.lam * l1
        if debug:
            rel = np.linalg.norm(x - previous) / max(np.linalg.norm(previous), 1e-300)
            logger.debug("iter %d relative primal change %.3e", i + 1, rel)
        if ref is not None:
            value = sdr_values[i] = sdr(ref, x)
            if value > best_sdr:
                # one buffer for the best iterate, filled at each improvement
                if best_x is None:
                    best_x = x.copy()
                else:
                    np.copyto(best_x, x)
                best_sdr, best_iter = value, i + 1
    # the iteration's arrays are freed before the gap is measured
    steps.close()
    selected = best_x if best_x is not None else x
    gap_at = FeasibilityGap(*gap(selected))
    return SolverRun(Signal(selected, rate), objective, sdr_values, best_iter, gap_at)


def cva_solve(
    y1,
    y2,
    model: AcquisitionModel,
    frame: TfFrame,
    cfg: SolverConfig = SolverConfig(),
    reference=None,
) -> SolverRun:
    """Dual-branch reconstruction from observations ``y1`` (fine, low rate)
    and ``y2`` (coarse, full rate) via the Condat-Vu iteration.

    Both observations must sit on their quantizers' level grids.  The run
    starts from ``y2``, the best available full-rate estimate.
    """
    y2_arr = samples_of(y2)
    y1_arr = samples_of(y1)
    k = model.factor
    if y1_arr.size * k != y2_arr.size:
        raise ValueError(
            f"y1 length {y1_arr.size} does not equal y2 length {y2_arr.size} / k={k}"
        )
    fine_set = consistency_set(y1_arr, model.fine)
    coarse_set = consistency_set(y2_arr, model.coarse)
    return cva_solve_sets(
        fine_set, coarse_set, model.filter, k, frame, x0=y2, cfg=cfg, reference=reference
    )


def cva_solve_sets(
    fine_set: ConsistencySet,
    coarse_set: ConsistencySet,
    fir: FirFilter,
    factor: int,
    frame: TfFrame,
    x0,
    cfg: SolverConfig,
    reference=None,
) -> SolverRun:
    """Dual-branch solver taking explicit constraint boxes.

    Entry point for synthetic instances whose boxes are not quantizer
    cells; :func:`cva_solve` delegates here after deriving the boxes from
    the observations.  The estimate has the sample rate of ``x0`` when it
    is a Signal, else that of ``reference``.
    """
    cfg = cfg._with_steps(*default_steps(fir))
    cfg.validate_for_cva(fir.l1_norm)
    ops = _DualBranchOperators(frame.signal_len, fir, factor)
    x, ref, rate = _start(x0, ops.length, reference)
    if len(coarse_set) != ops.length or len(fine_set) != ops.short_len:
        raise ValueError("constraint box lengths do not match the operator shapes")

    def gap(v):
        return coarse_set.max_violation(v), fine_set.max_violation(ops.down_filter(v))

    steps = _cva_steps(x, ops, frame, fine_set, coarse_set, cfg)
    return _drive(steps, x, cfg, ref, rate, gap)


def _cva_steps(x, ops: _DualBranchOperators, frame: TfFrame, fine_set, coarse_set, cfg):
    """Condat-Vu iteration from ``x``, which it updates in place.

    Every array is allocated once per run and updated in place.  Besides
    the iterate and the l1 branch, a run holds the two box duals and one
    work vector: the gradient, then the primal step, then the look-ahead
    point, then the coarse-branch prox argument.  With ``rho == 1`` the
    coarse dual and the work vector swap instead of being copied.
    """
    tau, sigma, rho = cfg.tau, cfg.sigma, cfg.rho
    l1 = _L1Branch(frame, cfg, rho)
    y2 = np.zeros(ops.short_len)
    y3 = np.zeros(ops.length)
    work = np.empty(ops.length)
    # one block of a box projection
    scratch = np.empty(min(ops.length, _SAMPLE_BLOCK))
    while True:
        # grad / sigma = A^* y1 + (D_k B)^* y2 + y3
        synthesize(frame, l1.dual, out=work)
        ops.up_filter_adjoint(y2, add_to=work)
        work += y3
        # x_tilde = x - tau * grad is not formed: the primal step is
        # rho * (x_tilde - x), and the look-ahead point 2 * x_tilde - x is
        # the new iterate plus (2 - rho) / rho times that step
        work *= -rho * tau * sigma
        x += work
        if rho != 1.0:
            work *= (2.0 - rho) / rho
        work += x
        objective = l1.update(work)
        p2 = ops.down_filter(work)
        p2 += y2
        # the buffer _relax frees is dropped: down_filter returns a new one
        y2 = _relax(y2, _box_dual_prox(p2, fine_set, scratch), rho)[0]
        del p2  # with rho != 1 it is that freed buffer
        work += y3
        y3, work = _relax(y3, _box_dual_prox(work, coarse_set, scratch), rho)
        yield x, objective


def cpa_solve(
    y2,
    quantizer: Quantizer,
    frame: TfFrame,
    cfg: SolverConfig = SolverConfig(),
    reference=None,
) -> SolverRun:
    """Single-branch baseline: sparse recovery from the coarse full-rate
    observation alone, via the Chambolle-Pock iteration."""
    box = consistency_set(y2, quantizer)
    return cpa_solve_box(box, frame, x0=y2, cfg=cfg, reference=reference)


def cpa_solve_box(
    box: ConsistencySet,
    frame: TfFrame,
    x0,
    cfg: SolverConfig,
    reference=None,
) -> SolverRun:
    """Chambolle-Pock iteration with an explicit constraint box; the
    estimate's sample rate is chosen as in :func:`cva_solve_sets`."""
    cfg = cfg._with_steps(1.0, 1.0)
    cfg.validate_for_cpa()
    x, ref, rate = _start(x0, frame.signal_len, reference)
    if len(box) != frame.signal_len:
        raise ValueError("box length does not match the frame length")
    steps = _cpa_steps(x, frame, box, cfg)
    return _drive(steps, x, cfg, ref, rate, lambda v: (box.max_violation(v), 0.0))


def _cpa_steps(x, frame: TfFrame, box: ConsistencySet, cfg: SolverConfig):
    """Chambolle-Pock iteration from ``x``, with the l1 branch at rho = 1.

    The dual update moves from the start of a step to the end of the one
    before, where it also gives ``A x_next`` for the objective: a step
    projects ``x - tau * sigma * A^* y`` onto the box, then updates the
    dual at ``x_bar = 2 * x_next - x``.  The first update runs at ``x``, so
    n steps run n + 1 analyses.  The projection is formed in place, and
    the new iterate and the old one's buffer swap, so a run holds three
    signal vectors and allocates none per step.
    """
    l1 = _L1Branch(frame, cfg, 1.0)
    l1.update(x)
    x_bar, step = np.empty_like(x), np.empty_like(x)
    while True:
        synthesize(frame, l1.dual, out=step)
        step *= -cfg.tau * cfg.sigma
        step += x
        project(box, step, out=step)
        np.multiply(step, 2.0, out=x_bar)
        x_bar -= x
        x, step = step, x
        yield x, l1.update(x_bar)
