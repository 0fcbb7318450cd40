"""Mid-riser uniform quantization and per-sample consistency boxes.

A w-bit mid-riser quantizer on the nominal range [-1, 1) has step
2^(1-w) and reproduction levels step*(i + 1/2); zero is a decision
boundary, not a level.  A sample lying exactly on a boundary maps to the
upper cell (floor convention).  Every observation induces a box of
signals that quantize back to it; saturated cells are clamped to the
signal range [-1, 1] so the box stays compact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import samples_of, _rewrap

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


@dataclass(frozen=True, eq=False)
class ConsistencySet:
    """Per-sample interval bounds; the set of signals matching an observation."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("interval bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("every lower bound must be <= its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __len__(self) -> int:
        return self.lower.size

    def max_violation(self, x) -> float:
        """Largest per-sample distance outside the box (0 when ``x`` is
        inside), formed from one side of the box at a time."""
        arr = samples_of(x)
        return max(0.0, float((self.lower - arr).max()), float((arr - self.upper).max()))


def quantize(x, q: Quantizer):
    """Map each sample to its mid-riser reproduction level, with saturation."""
    arr = samples_of(x)
    step = q.step
    levels = step * (np.floor(arr / step) + 0.5)
    return _rewrap(x, np.clip(levels, q.bottom_level, q.top_level))


def consistency_set(y, q: Quantizer) -> ConsistencySet:
    """Box of signals that quantize to the observation ``y``.

    Each sample of ``y`` must sit on the quantizer's level grid (within
    GRID_TOL).  Interior cells span one step around the level; the two
    saturated cells extend to the range edges -1 and 1.
    """
    arr = samples_of(y)
    step = q.step
    top_idx = 2 ** (q.bits - 1) - 1
    bottom_idx = -(2 ** (q.bits - 1))
    idx = np.divide(arr, step)
    idx -= 0.5
    np.round(idx, out=idx)
    # upper holds the levels step * (idx + 0.5), and lower the distance of
    # each sample from its level, until the bounds are formed in place
    upper = idx + 0.5
    upper *= step
    lower = np.subtract(arr, upper)
    np.abs(lower, out=lower)
    if lower.max() > GRID_TOL or idx.max() > top_idx or idx.min() < bottom_idx:
        invalid = (lower > GRID_TOL) | (idx > top_idx) | (idx < bottom_idx)
        i = int(np.argmax(invalid))
        raise ValueError(
            f"observation sample {arr[i]!r} at position {i} is not a "
            f"{q.bits}-bit reproduction level"
        )
    np.subtract(upper, step / 2, out=lower)
    upper += step / 2
    upper[idx == top_idx] = 1.0
    lower[idx == bottom_idx] = -1.0
    return ConsistencySet(lower, upper)


def project(cs: ConsistencySet, x, out=None):
    """Euclidean projection onto the box: per-sample clamp.  With ``out``
    (a float64 array of the box's length) the clamp is written there."""
    arr = samples_of(x)
    if arr.size != len(cs):
        raise ValueError(
            f"signal length {arr.size} does not match box length {len(cs)}"
        )
    return _rewrap(x, np.clip(arr, cs.lower, cs.upper, out=out))
