"""Mid-riser uniform quantization and per-sample consistency boxes.

A w-bit mid-riser quantizer on the nominal range [-1, 1) has step
2^(1-w) and reproduction levels step*(i + 1/2); zero is a decision
boundary, not a level.  A sample lying exactly on a boundary maps to the
upper cell (floor convention).  Every observation induces a box of
signals that quantize back to it; saturated cells end at the signal
range [-1, 1] so the box stays compact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import _SAMPLE_BLOCK, _rewrap, _sample_blocks, samples_of

__all__ = ["Quantizer", "ConsistencySet", "quantize", "consistency_set", "project"]

GRID_TOL = 1e-12  # absorbs storage round-trip error when validating observations


@dataclass(frozen=True)
class Quantizer:
    """Uniform mid-riser quantizer with ``bits`` bits per sample."""

    bits: int

    def __post_init__(self):
        bits = int(self.bits)
        if not 1 <= bits <= 32:
            raise ValueError(f"bits must lie in [1, 32], got {bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def step(self) -> float:
        return 2.0 ** (1 - self.bits)

    @property
    def top_level(self) -> float:
        return 1.0 - self.step / 2

    @property
    def bottom_level(self) -> float:
        return -1.0 + self.step / 2


class ConsistencySet:
    """Per-sample interval bounds; the set of signals matching an observation.

    A box holds two arrays and a scalar half-width and is ``[lower - half,
    upper + half]``.  ``ConsistencySet(lower, upper)`` holds the two bound
    arrays and half-width 0.  A box from :func:`consistency_set` holds the
    observation's levels as both arrays and the half-step.  Its bounds are
    formed a block of samples at a time where they are used; ``lower`` and
    ``upper`` form them whole, as fresh arrays.
    """

    __slots__ = ("_lower", "_upper", "_half")

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("interval bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("every lower bound must be <= its upper bound")
        self._lower, self._upper, self._half = lower, upper, 0.0

    @classmethod
    def _of(cls, lower: np.ndarray, upper: np.ndarray, half: float) -> "ConsistencySet":
        """The box ``[lower - half, upper + half]``, unchecked."""
        box = object.__new__(cls)
        box._lower, box._upper, box._half = lower, upper, half
        return box

    @property
    def lower(self) -> np.ndarray:
        return self._lower - self._half

    @property
    def upper(self) -> np.ndarray:
        return self._upper + self._half

    def __len__(self) -> int:
        return self._lower.size

    def __getitem__(self, part: slice) -> "ConsistencySet":
        """The box of samples ``part`` (a slice), sharing this box's arrays."""
        return ConsistencySet._of(self._lower[part], self._upper[part], self._half)

    def _bound_blocks(self):
        """Yield ``(part, lower, upper)`` over the blocks of samples
        ``part``, the bounds formed in one scratch pair (exactly ``lower``
        and ``upper``, a block at a time)."""
        scratch = np.empty((2, min(len(self), _SAMPLE_BLOCK)))
        for part in _sample_blocks(len(self)):
            size = part.stop - part.start
            lower = np.subtract(self._lower[part], self._half, out=scratch[0, :size])
            upper = np.add(self._upper[part], self._half, out=scratch[1, :size])
            yield part, lower, upper

    def _samples(self, x) -> np.ndarray:
        arr = samples_of(x)
        if arr.size != len(self):
            raise ValueError(
                f"signal length {arr.size} does not match box length {len(self)}"
            )
        return arr

    def max_violation(self, x) -> float:
        """Largest per-sample distance outside the box (0 when ``x`` is
        inside), formed a block of samples and one side of the box at a
        time."""
        arr = self._samples(x)
        worst = 0.0
        scratch = np.empty(min(len(self), _SAMPLE_BLOCK))
        for part, lower, upper in self._bound_blocks():
            gap = scratch[: lower.size]
            below = float(np.subtract(lower, arr[part], out=gap).max())
            worst = max(worst, below, float(np.subtract(arr[part], upper, out=gap).max()))
        return worst


def quantize(x, q: Quantizer):
    """Map each sample to its mid-riser reproduction level, with saturation."""
    step = q.step
    levels = np.divide(samples_of(x), step)
    np.floor(levels, out=levels)
    levels += 0.5
    levels *= step
    return _rewrap(x, np.clip(levels, q.bottom_level, q.top_level, out=levels))


def consistency_set(y, q: Quantizer) -> ConsistencySet:
    """Box of signals that quantize to the observation ``y``.

    Each sample of ``y`` must lie within GRID_TOL of its level by
    :func:`quantize`, which saturates, so a sample beyond the level range
    is rejected too.  Every cell spans one step around its level; the two
    saturated cells end exactly at the range edges -1 and 1.  The box holds
    the levels and the half-step: the levels are ``y``'s own samples when
    each sits exactly on its level (so the box changes if they are
    changed), else the quantized copy.
    """
    arr = samples_of(y)
    levels = quantize(arr, q)
    distance = np.subtract(arr, levels)
    np.abs(distance, out=distance)
    if distance.max() > GRID_TOL:
        i = int(np.argmax(distance > GRID_TOL))
        raise ValueError(
            f"observation sample {arr[i]!r} at position {i} is not a "
            f"{q.bits}-bit reproduction level"
        )
    del distance
    if np.array_equal(levels, arr):
        levels = arr
    return ConsistencySet._of(levels, levels, q.step / 2)


def project(cs: ConsistencySet, x, out=None):
    """Euclidean projection onto the box: per-sample clamp, a block of
    samples at a time.  With ``out`` (a float64 array of the box's length,
    which may be ``x`` itself) the clamp is written there."""
    arr = cs._samples(x)
    if out is None:
        out = np.empty(arr.size)
    for part, lower, upper in cs._bound_blocks():
        np.clip(arr[part], lower, upper, out=out[part])
    return _rewrap(x, out)
