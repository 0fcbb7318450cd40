import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualquant import ConsistencySet, Quantizer, consistency_set, project, quantize, sdr
from dualquant.quantizers import GRID_TOL

finite_samples = arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-1.0, 1.0, allow_nan=False, width=64),
)


class TestQuantizer:
    def test_step_values(self):
        assert Quantizer(2).step == 0.5
        assert Quantizer(16).step == 2.0**-15

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            Quantizer(0)
        with pytest.raises(ValueError):
            Quantizer(33)

    def test_two_bit_examples(self):
        q = Quantizer(2)
        out = quantize(np.array([0.3, 1.0, -1.0]), q)
        np.testing.assert_array_equal(out, [0.25, 0.75, -0.75])

    def test_boundary_maps_to_upper_cell(self):
        # documented tie-break: a sample exactly on a decision boundary
        q = Quantizer(2)
        assert quantize(np.array([0.5]), q)[0] == 0.75
        assert quantize(np.array([0.0]), q)[0] == 0.25

    @given(x=finite_samples, bits=st.integers(1, 16))
    def test_idempotent(self, x, bits):
        q = Quantizer(bits)
        once = quantize(x, q)
        np.testing.assert_array_equal(quantize(once, q), once)

    @given(x=finite_samples, bits=st.integers(1, 16))
    def test_error_bounds(self, x, bits):
        q = Quantizer(bits)
        err = np.abs(x - quantize(x, q))
        assert np.all(err <= q.step + 1e-15)
        interior = np.abs(x) <= 1.0 - q.step
        assert np.all(err[interior] <= q.step / 2 + 1e-15)

    def test_full_scale_sinusoid_snr_model(self):
        t = np.arange(48000) / 48000
        x = (1 - 2.0**-15) * np.sin(2 * np.pi * 997.0 * t)
        for bits in (9, 11, 14):
            value = sdr(x, quantize(x, Quantizer(bits)))
            assert value == pytest.approx(6.02 * bits + 1.76, abs=1.5)


class TestConsistencySet:
    def test_interior_cell(self):
        cs = consistency_set(np.array([0.25]), Quantizer(2))
        assert (cs.lower[0], cs.upper[0]) == (0.0, 0.5)

    def test_saturated_cells_clamped_to_range(self):
        cs = consistency_set(np.array([0.75, -0.75]), Quantizer(2))
        assert (cs.lower[0], cs.upper[0]) == (0.5, 1.0)
        assert (cs.lower[1], cs.upper[1]) == (-1.0, -0.5)

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError):
            consistency_set(np.array([0.26]), Quantizer(2))

    def test_beyond_saturation_rejected(self):
        # on the half-step lattice but outside the level range
        with pytest.raises(ValueError):
            consistency_set(np.array([1.25]), Quantizer(2))

    def test_membership_of_unsaturated_samples(self):
        rng = np.random.default_rng(0)
        q = Quantizer(6)
        x = rng.uniform(-1 + q.step, 1 - q.step, size=500)
        cs = consistency_set(quantize(x, q), q)
        assert cs.max_violation(x) == 0

    def test_grid_tolerance_absorbs_storage_noise(self):
        q = Quantizer(12)
        y = quantize(np.array([0.123, -0.456]), q)
        consistency_set(y + 1e-13, q)  # should not raise

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ConsistencySet(np.array([0.5]), np.array([0.0]))
        with pytest.raises(ValueError):
            ConsistencySet(np.array([0.0]), np.array([np.inf]))


class TestProject:
    def test_feasible_point_unchanged(self):
        cs = ConsistencySet(np.array([0.0, -1.0]), np.array([0.5, -0.5]))
        x = np.array([0.25, -0.75])
        np.testing.assert_array_equal(project(cs, x), x)

    def test_clamps_to_nearest_edge(self):
        cs = ConsistencySet(np.array([0.0]), np.array([0.5]))
        assert project(cs, np.array([0.9]))[0] == 0.5
        assert project(cs, np.array([-0.9]))[0] == 0.0

    def test_length_mismatch(self):
        cs = ConsistencySet(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            project(cs, np.zeros(3))

    def test_out_receives_the_projection(self):
        rng = np.random.default_rng(4)
        cs = ConsistencySet(np.full(50, -0.5), np.full(50, 0.5))
        x = rng.standard_normal(50)
        out = np.empty(50)
        assert project(cs, x, out=out) is out
        np.testing.assert_array_equal(out, project(cs, x))

    @given(
        x=arrays(np.float64, 16, elements=st.floats(-2, 2, width=64)),
        y=arrays(np.float64, 16, elements=st.floats(-2, 2, width=64)),
    )
    def test_nonexpansive(self, x, y):
        rng = np.random.default_rng(7)
        lo = rng.uniform(-1, 0, 16)
        cs = ConsistencySet(lo, lo + rng.uniform(0.01, 1, 16))
        dist = np.linalg.norm(project(cs, x) - project(cs, y))
        assert dist <= np.linalg.norm(x - y) + 1e-12

    def test_requantization_consistency(self):
        # projected points strictly inside a cell quantize back to its level;
        # points clamped onto the upper edge fall to the next cell by the
        # floor tie-break
        rng = np.random.default_rng(1)
        q = Quantizer(4)
        y = quantize(rng.uniform(-0.9, 0.9, 300), q)
        cs = consistency_set(y, q)
        x = rng.uniform(-1.5, 1.5, 300)
        p = project(cs, x)
        interior = p < cs.upper
        np.testing.assert_array_equal(quantize(p, q)[interior], y[interior])

    def test_violation_measure(self):
        cs = ConsistencySet(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert cs.max_violation(np.array([-0.25, 0.5])) == 0.25
        assert cs.max_violation(np.array([-0.25, 1.5])) == 0.5
        assert cs.max_violation(np.array([0.0, 1.0])) == 0


def _observation(bits, size=40000, seed=0):
    """Random levels of a ``bits``-bit quantizer (both saturated cells
    included) over more than two blocks of samples, and the explicit box
    ``level -/+ step / 2`` around them."""
    q = Quantizer(bits)
    rng = np.random.default_rng(seed)
    top = 2 ** (bits - 1)
    idx = rng.integers(-top, top, size)
    idx[:4] = [-top, top - 1, -top, top - 1]
    levels = q.step * (idx + 0.5)
    return q, levels, ConsistencySet(levels - q.step / 2, levels + q.step / 2)


class TestLevelBox:
    """A quantizer box holds the observation's levels and the half-step;
    its bounds are formed a block at a time and equal the explicit box
    ``level -/+ step / 2`` bit for bit."""

    @pytest.mark.parametrize("off_grid", [False, True])
    @pytest.mark.parametrize("bits", [1, 2, 10, 16, 24, 32])
    def test_projection_and_violation_equal_the_explicit_box(self, bits, off_grid):
        q, levels, explicit = _observation(bits)
        # an observation off its levels by less than GRID_TOL has the same box
        y = levels.copy()
        if off_grid:
            y[::2] += 0.5 * GRID_TOL
            y[1::2] -= 0.5 * GRID_TOL
        box = consistency_set(y, q)
        # the saturated cells end at -1 and 1 exactly
        assert (box.lower[0], box.upper[1]) == (-1.0, 1.0)
        assert box.lower.tobytes() == explicit.lower.tobytes()
        assert box.upper.tobytes() == explicit.upper.tobytes()
        rng = np.random.default_rng(bits)
        near = levels + rng.uniform(-1, 1, levels.size) * q.step
        for x in (rng.uniform(-1.5, 1.5, levels.size), near):
            assert project(box, x).tobytes() == project(explicit, x).tobytes()
            assert box.max_violation(x) == explicit.max_violation(x)
            want = project(explicit, x)
            assert project(box, x, out=x) is x
            assert x.tobytes() == want.tobytes()
            assert box.max_violation(x) == 0.0

    def test_on_grid_box_holds_no_signal_length_array(self):
        q, levels, _ = _observation(16)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            box = consistency_set(levels, q)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(box) == levels.size
        assert held < levels.nbytes / 8

    def test_box_follows_its_observation(self):
        # an on-grid box keeps the observation itself as its levels
        q, levels, _ = _observation(10, size=8)
        box = consistency_set(levels, q)
        levels[0] = q.bottom_level + q.step
        assert box.lower[0] == -1.0 + q.step

    def test_block_of_a_box_is_the_box_of_the_block(self):
        q, levels, explicit = _observation(12)
        box = consistency_set(levels, q)
        part = slice(17000, 35000)
        for whole in (box, explicit):
            assert whole[part].lower.tobytes() == whole.lower[part].tobytes()
            assert whole[part].upper.tobytes() == whole.upper[part].tobytes()
