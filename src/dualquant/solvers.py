"""Primal-dual solvers for quantization-consistent sparse recovery.

Both solvers minimize the l1 norm of tight-frame analysis coefficients
subject to box constraints by one primal-dual iteration.  The dual-branch
problem

    min_x  lam * |A x|_1  +  i_fine(D_k B x)  +  i_coarse(x)

is handled by the Condat-Vu splitting: a gradient-style primal step against
the stacked adjoints followed by one dual prox per term, each obtained
through the Moreau decomposition (so only ``clip`` and box projections are
ever evaluated).  The single-branch baseline is the same iteration with no
fine branch and the coarse box moved into the primal step, which projects
onto it: the Chambolle-Pock iteration.

The iteration is one private generator, ``_step_generator``, given the
problem: the l1 branch, the box branches and an optional primal box.  It
yields each iterate with the weighted l1 norm of its coefficients; the l1
branch's dual update also gives ``A x`` of the new iterate by linearity,
so the objective costs no transform.  ``_solve`` runs it for
``max_iters`` steps and does the rest: the objective and SDR traces, the
best-SDR iterate, DEBUG logging of the relative primal change, the
feasibility gap and the assembled :class:`SolverRun`.  The iteration
shows it each move as the pair (new, old) before the old iterate's buffer
is reused, so a solve copies an iterate only when the SDR turns down after
it, and holds no copy when the best iterate is the last.

The frame coefficients are the half-spectrum ones of :mod:`.frames`, in
which ``|A x|_1`` of the full Gabor transform is ``sum(weight * |c|)``; the
l1 prox therefore clips each bin at ``lam * weight``.

The iteration keeps each dual divided by sigma, ``y = u / sigma``.  The
conjugate prox of the l1 term is a clip, and a clip commutes with scaling,
so ``y1`` is clipped at radius ``lam * weight / sigma``; a box dual becomes
``p - project(box, p)`` at ``p = y + K x``; and the primal gradient ``K^T
u`` is ``sigma * (A^* y1 + (D_k B)^* y2 + y3)``, scaled once on the signal
instead of on every coefficient.  The iterates are those of the unscaled
form up to rounding.

Step sizes: with a Parseval frame (norm 1), identity and a filter whose
operator norm is at most the l1 norm of its taps, the stacked operator has
squared norm at most 2 + l1^2 with both box branches and 1 with none
(:func:`_norm_bound`).  One rule serves both problems: unset steps are
1 / sqrt(bound) each, and set steps must satisfy tau * sigma * bound <= 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .acquisition import AcquisitionModel, _norm, sdr
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

    Unset steps (``tau`` and ``sigma`` both ``None``) mean one rule at each
    problem's bound (:meth:`with_steps_for`): :func:`default_steps` of the
    filter for the dual-branch solver, unit steps for the baseline.
    ``rho`` is the over-relaxation parameter of the dual-branch solver
    (ignored by the baseline); ``lam`` weights the l1 term and only affects
    iteration dynamics, not the minimizer.
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

    def with_steps_for(self, bound: float) -> "SolverConfig":
        """This config with its steps for a problem whose stacked operator
        has squared norm at most ``bound``: unset steps become ``1 /
        sqrt(bound)`` each, and set steps must satisfy ``tau * sigma *
        bound <= 1`` (else ``ValueError``)."""
        if self.tau is None:
            step = 1.0 / math.sqrt(bound)
            return replace(self, tau=step, sigma=step)
        if self.tau * self.sigma * bound > 1.0 + _STEP_SLACK:
            raise ValueError(
                f"step sizes violate tau*sigma*bound <= 1 at the stacked operator's "
                f"norm bound {bound:.6g} (got {self.tau * self.sigma * bound:.6g})"
            )
        return self


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


def _norm_bound(fir: FirFilter | None) -> float:
    """Bound on the squared norm of the stacked operator: ``[A; D_k B; I]``
    with filter ``fir``, or ``A`` alone when ``fir`` is None.  ``A`` is
    Parseval and ``|D_k B| <= |b|_1``."""
    return 1.0 if fir is None else 2.0 + fir.l1_norm**2


def default_steps(b: FirFilter) -> tuple[float, float]:
    """Equal steps saturating the dual-branch sufficient condition."""
    cfg = SolverConfig().with_steps_for(_norm_bound(b))
    return cfg.tau, cfg.sigma


def _unbuffered_product(a, b, out):
    """``np.multiply(a, b, out=out)`` run with numpy's smallest ufunc
    buffer (16 elements).  When a broadcast operand's contiguous runs are
    shorter than the buffer (``np.getbufsize()``, 8192 elements by
    default), numpy copies the operands through buffers of that size,
    allocated per call; with the buffer no longer than a run it multiplies
    in place.  The products are the same.  The buffer size is local to the
    thread (a context variable), and restored."""
    size = np.setbufsize(16)
    try:
        return np.multiply(a, b, out=out)
    finally:
        np.setbufsize(size)


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

    Both are overlap-save block convolutions (Oppenheim & Schafer,
    *Discrete-Time Signal Processing*) in polyphase form (Crochiere &
    Rabiner 1983), each block reading its input circularly.  ``p`` is
    ``(T - 1) / k`` rounded up, ``P = k * p``, and ``S`` is the smallest
    power of two for which ``S >= 4 * (p + 1)``: one rule for every tap
    count, so the cost follows the tap count and not L or how L factors
    (``S = 256`` at k = 4 and the default 129 taps).  Block b has ``Q = S -
    p`` samples of the short side, starting at ``b * Q``, and ``k * Q`` of
    the signal, starting at ``b * k * Q``.

    Output m is ``sum_r sum_i taps[k i + r] * v[k (m - i) - r]``: phase 0
    of the signal (samples ``k j``) meets tap phase 0 (``taps[0::k]``), and
    phase ``s > 0`` meets tap phase ``k - s`` one short sample later.  So
    the pair holds one table of k S-point spectra, ``G_0 = H_0`` and ``G_s
    = H_{k-s} * exp(-2 pi i f / S)``, with ``H_r`` the spectrum of
    ``taps[r::k]``; each phase filter has at most ``p + 1`` taps.

    ``down_filter``: the signal is laid out circularly with its last ``P``
    samples in front.  Each block's ``k * S`` samples are copied phase-major
    into k rows of S, run through one ``rfft``, multiplied by ``G`` and
    summed over the phases; one S-point ``irfft`` gives the block's short
    circular convolution, whose samples ``p .. S - 1`` are valid and are
    the kept outputs.

    ``up_filter_adjoint``: each block reads S inputs from its start.  One
    S-point ``rfft``, a product with ``conj(G)`` per phase and one ``irfft``
    give k circular correlations, whose first Q samples are valid, since
    ``Q + p <= S``; sample q of phase s is sample ``k q + s`` of the block.

    The transforms run over chunks of about ``_CHUNK_SAMPLES`` samples, each
    read circularly into one line from the start of its first block b0
    (``b0 * k * Q - P`` down, ``b0 * Q`` up).  The instance holds the lines,
    the phase table and block scratch (none grows with L), so one instance
    serves one solve at a time.  Both directions add their output into a
    given array, so the solver forms the fine-branch prox argument in its
    dual and the gradient in its work vector; ``down_filter`` without one
    returns a fresh array.  Each block's outputs are written in place
    through a ``(blocks, Q)`` view of the output (``(blocks, Q, k)`` up).
    """

    def __init__(self, length: int, fir: FirFilter, factor: int):
        if length % factor:
            raise ValueError(f"signal length {length} is not divisible by factor {factor}")
        k = self.factor = factor
        self.length = length
        self.short_len = length // factor
        taps = fold_taps(fir.taps, length)
        lead = self._lead = -(-(taps.size - 1) // k)
        short = self._short = 1 << (4 * lead + 3).bit_length()
        self._per_block = short - lead
        self._stride = k * self._per_block
        self._blocks = -(-self.short_len // self._per_block)
        rows = self._chunk = min(max(1, _CHUNK_SAMPLES // (k * short)), self._blocks)
        padded = np.zeros(k * short)
        padded[: taps.size] = taps
        # row s of the table is tap phase -s mod k, delayed one sample if s > 0
        spectra = np.fft.rfft(padded.reshape(short, k).T, axis=1)[-np.arange(k) % k]
        spectra[1:] *= np.exp(-2j * np.pi * np.arange(short // 2 + 1) / short)
        self._table, self._table_conj = spectra, np.conj(spectra)
        self._line = np.empty((rows - 1) * self._stride + k * short)
        self._windows = sliding_window_view(self._line, k * short)[:: self._stride]
        self._short_line = np.empty((rows - 1) * self._per_block + short)
        self._short_windows = sliding_window_view(self._short_line, short)[:: self._per_block]
        self._phases = np.empty((rows, k, short))
        self._phase_spec = np.empty((rows, k, short // 2 + 1), dtype=np.complex128)
        self._spec = np.empty((rows, short // 2 + 1), dtype=np.complex128)
        self._time = np.empty((rows, short))

    def down_filter(self, v: np.ndarray, add_to: np.ndarray | None = None) -> np.ndarray:
        """``D_k B v`` added into ``add_to`` (of length L/k), which is
        returned, or into a fresh array of zeros without it: with ``rho ==
        1`` the solver forms its fine-branch prox argument in the dual."""
        k, short, per_block = self.factor, self._short, self._per_block
        out = np.zeros(self.short_len) if add_to is None else add_to
        # blocks 0 .. whole - 1 lie inside the output; a last block past
        # them is cut at its end
        whole = self.short_len // per_block
        rows_of = out[: whole * per_block].reshape(whole, per_block)
        tail = out[whole * per_block :]
        for b0 in range(0, self._blocks, self._chunk):
            rows = min(self._chunk, self._blocks - b0)
            _fill_circular(self._line, v, b0 * self._stride - k * self._lead)
            phases = self._phases[:rows]
            phases[...] = self._windows[:rows].reshape(rows, short, k).transpose(0, 2, 1)
            spec = np.fft.rfft(phases, axis=2, out=self._phase_spec[:rows])
            _unbuffered_product(spec, self._table, out=spec)
            total = np.sum(spec, axis=1, out=self._spec[:rows])
            time = np.fft.irfft(total, short, axis=1, out=self._time[:rows])[:, self._lead :]
            inside = min(rows, whole - b0)
            rows_of[b0 : b0 + inside] += time[:inside]
            if inside < rows:
                tail += time[inside, : len(tail)]
        return out

    def up_filter_adjoint(self, w: np.ndarray, add_to: np.ndarray) -> np.ndarray:
        """``B^T D_k^T w`` added into ``add_to`` (of length L), which is
        returned: the solver adds it straight into its gradient."""
        k, short, per_block, stride = self.factor, self._short, self._per_block, self._stride
        # blocks 0 .. whole - 1 lie inside the signal; a last block past
        # them is cut at its end
        whole = self.length // stride
        rows_of = add_to[: whole * stride].reshape(whole, per_block, k)
        tail = add_to[whole * stride :].reshape(-1, k)
        for b0 in range(0, self._blocks, self._chunk):
            rows = min(self._chunk, self._blocks - b0)
            _fill_circular(self._short_line, w, b0 * per_block)
            spec = np.fft.rfft(self._short_windows[:rows], axis=1, out=self._spec[:rows])
            spec = _unbuffered_product(spec[:, None], self._table_conj, out=self._phase_spec[:rows])
            time = np.fft.irfft(spec, short, axis=2, out=self._phases[:rows])
            inside = min(rows, whole - b0)
            rows_of[b0 : b0 + inside] += time[:inside, :, :per_block].transpose(0, 2, 1)
            if inside < rows:
                tail += time[inside, :, : len(tail)].T
        return add_to


def _box_dual_prox(p, box: ConsistencySet, scratch: np.ndarray):
    """``p - project(box, p)``, computed in ``p`` a block of samples at a
    time, each block's projection formed in ``scratch`` (one block long):
    the dual prox of a box indicator, divided by sigma, at ``p = y + K x``
    (see the module docstring for the scaling)."""
    for part in _sample_blocks(p.size):
        block = p[part]
        block -= project(box[part], block, out=scratch[: block.size])
    return p


def _relax(y, target, rho: float) -> None:
    """``y + rho * (target - y)``, formed in ``y``, with ``target`` used as
    scratch."""
    target -= y
    target *= rho
    y += target


class _L1Branch:
    """The l1 term of the iteration: its dual, divided by sigma, and
    ``A x`` of the running iterate, for the objective trace.

    :meth:`update` runs the dual update at a look-ahead point ``v`` a block
    of frames at a time, so the branch holds two coefficient arrays.  The
    iterate moves by ``(rho/2) * (v - x)``, and ``A x`` with it by
    linearity; the first ``v`` is the iterate itself.
    """

    def __init__(self, frame: TfFrame, cfg: SolverConfig):
        shape = frame.coeff_shape
        self.frame, self.rho = frame, cfg.rho
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


def _step_generator(x, l1: _L1Branch, cfg: SolverConfig, branches, primal_box=None, moved=None):
    """The primal-dual iteration from ``x`` on ``lam * |A x|_1`` plus the
    indicators of each branch's box and of ``primal_box``; yields each
    iterate with the weighted l1 of its coefficients.

    A branch ``(K, box)`` puts ``box`` on ``K x``: ``K`` is a
    :class:`_DualBranchOperators` (``D_k B``) or ``None``, the identity,
    which comes last, since its prox argument is formed in the work vector.
    The primal step projects onto a primal box and is then not relaxed
    (``cfg.rho`` must be 1).

    The gradient ``A^* y1 + sum K^* y`` (divided by sigma) becomes the new
    iterate in one work vector: ``x + rho * (x_tilde - x)``, ``x_tilde = x
    - tau * grad``, projected onto a primal box if there is one.  The old
    iterate keeps its buffer until ``moved(new, old)``, when given, has
    returned; then the look-ahead point ``2 * x_tilde - x``, which is ``new
    + ((2 - rho) / rho) * (new - old)``, is written over it a block at a
    time, and the two buffers swap.  The duals update at the look-ahead
    point; with ``rho == 1`` each box branch forms its prox argument ``y +
    K v`` in its dual.  So a run holds the iterate, one work vector, the
    box duals and block scratch.
    """
    tau, sigma, rho = cfg.tau, cfg.sigma, cfg.rho
    ahead = (2.0 - rho) / rho
    work = np.empty_like(x)
    duals = [np.zeros(x.size if op is None else op.short_len) for op, _ in branches]
    # one block of a box projection or of the look-ahead point
    scratch = np.empty(min(x.size, _SAMPLE_BLOCK))
    while True:
        # grad / sigma = A^* y1 + sum K^* y
        synthesize(l1.frame, l1.dual, out=work)
        for (op, _), y in zip(branches, duals):
            if op is None:
                work += y
            else:
                op.up_filter_adjoint(y, add_to=work)
        work *= -rho * tau * sigma
        work += x
        if primal_box is not None:
            project(primal_box, work, out=work)
        if moved is not None:
            moved(work, x)
        for part in _sample_blocks(x.size):
            block = scratch[: part.stop - part.start]
            if rho == 1.0:
                np.multiply(work[part], 2.0, out=block)
                np.subtract(block, x[part], out=x[part])
            else:
                np.subtract(work[part], x[part], out=block)
                block *= ahead
                np.add(work[part], block, out=x[part])
        x, work = work, x
        objective = l1.update(work)
        for (op, box), y in zip(branches, duals):
            if rho == 1.0:
                # the prox argument y + K v, formed in the dual itself
                if op is None:
                    y += work
                else:
                    op.down_filter(work, add_to=y)
                _box_dual_prox(y, box, scratch)
            else:
                # K v in the work vector (the identity's) or a fresh array
                p = work if op is None else op.down_filter(work)
                p += y
                _relax(y, _box_dual_prox(p, box, scratch), rho)
        yield x, objective


def _solve(x0, reference, frame: TfFrame, cfg: SolverConfig, branches, primal_box=None):
    """Run ``cfg.max_iters`` steps of :func:`_step_generator` from a copy
    of ``x0``.  The estimate is the best-SDR iterate (or the last), at the
    rate of ``x0`` or else of ``reference`` (1 Hz if neither is a Signal);
    the gap is that of the boxes given, on ``x`` (coarse) or ``D_k B x``."""
    length = frame.signal_len
    x = samples_of(x0).copy()
    if x.size != length:
        raise ValueError(f"x0 (y2) length {x.size} does not match frame length {length}")
    rate = next((c.sample_rate_hz for c in (x0, reference) if isinstance(c, Signal)), 1)
    # wrapped once, so that no iteration's sdr checks it for NaN and Inf
    ref = reference if isinstance(reference, (Signal, type(None))) else Signal(reference, rate)
    if ref is not None and len(ref) != length:
        raise ValueError("reference length does not match the frame length")
    boxes = branches if primal_box is None else [*branches, (None, primal_box)]
    if any(len(box) != (length if op is None else op.short_len) for op, box in boxes):
        raise ValueError("constraint box lengths do not match the operator shapes")

    l1 = _L1Branch(frame, cfg)
    if primal_box is not None:
        # the baseline's first dual update runs at x0, before its first
        # step, so its n steps run n + 1 analyses
        l1.update(x)
    objective = np.empty(cfg.max_iters)
    sdr_values = np.empty(cfg.max_iters) if ref is not None else None
    ref_norm = _norm(ref.samples) if ref is not None else None
    best_sdr, best_x, best_iter = -math.inf, None, None
    debug = logger.isEnabledFor(logging.DEBUG)

    def moved(new, old):
        # called in iteration i (the loop below) between the move and the
        # look-ahead point, which is then written over the old iterate
        nonlocal best_sdr, best_x, best_iter
        if debug:
            rel = _norm(new, old) / max(_norm(old), 1e-300)
            logger.debug("iter %d relative primal change %.3e", i + 1, rel)
        if ref is None:
            return
        value = sdr_values[i] = sdr(ref, new, reference_norm=ref_norm)
        if value > best_sdr:
            best_sdr, best_iter = value, i + 1
        elif best_iter == i:
            # the old iterate is the best so far and is about to go: one
            # buffer keeps it, allocated at the first downturn
            if best_x is None:
                best_x = old.copy()
            else:
                np.copyto(best_x, old)

    steps = _step_generator(x, l1, cfg, branches, primal_box, moved)
    for i in range(cfg.max_iters):
        x, l1_norm = next(steps)
        objective[i] = cfg.lam * l1_norm
    # the iteration's arrays are freed before the gap is measured
    steps.close()
    selected = x if best_iter in (None, cfg.max_iters) else best_x
    coarse = fine = 0.0
    for op, box in boxes:
        if op is None:
            coarse = box.max_violation(selected)
        else:
            fine = box.max_violation(op.down_filter(selected))
    return SolverRun(
        Signal(selected, rate), objective, sdr_values, best_iter, FeasibilityGap(coarse, fine)
    )


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
    cfg = cfg.with_steps_for(_norm_bound(fir))
    ops = _DualBranchOperators(frame.signal_len, fir, factor)
    return _solve(x0, reference, frame, cfg, [(ops, fine_set), (None, coarse_set)])


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
    """Chambolle-Pock iteration with an explicit constraint box: the
    dual-branch iteration with no box branch, the box in its primal step
    and rho = 1.  The estimate's sample rate is chosen as in
    :func:`cva_solve_sets`."""
    cfg = replace(cfg.with_steps_for(_norm_bound(None)), rho=1.0)
    return _solve(x0, reference, frame, cfg, [], primal_box=box)
