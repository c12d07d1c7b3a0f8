"""Stage plans: gathering kept tokens and scattering them back.

The roundtrip identity plan.scatter(plan.gather(x), x) == x must hold at
the bit level for every (x, keep); hypothesis drives that across shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescan.backbone import StagePlan
from sparsescan.errors import ShapeError
from sparsescan.stca import kept_ratio


def plan_of(keep):
    return StagePlan.build(keep, np.zeros(keep.shape))


def random_case(rng, h, w, c, p_keep):
    x = rng.standard_normal((h, w, c))
    keep = rng.random((h, w)) < p_keep
    return x, keep


class TestGather:
    def test_hand_case(self):
        x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # a,b,c,d with C=1
        d = np.array([[1, 0], [0, 1]], dtype=bool)
        plan = plan_of(d)
        assert len(plan) == 2
        np.testing.assert_array_equal(plan.gather(x)[:, 0], [1.0, 4.0])
        np.testing.assert_array_equal(plan.coords, [[0, 0], [1, 1]])

    def test_all_ones_row_major(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        plan = plan_of(np.ones((2, 2), dtype=bool))
        assert len(plan) == 4
        expected = [(i, j) for i in range(2) for j in range(2)]
        np.testing.assert_array_equal(plan.coords, expected)
        np.testing.assert_array_equal(plan.gather(x), x.reshape(4, 2))

    def test_all_zeros_empty(self):
        x = np.arange(4.0).reshape(2, 2, 1)
        plan = plan_of(np.zeros((2, 2), dtype=bool))
        assert len(plan) == 0
        assert plan.gather(x).shape == (0, 1)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            plan_of(np.ones((3, 2), dtype=bool)).gather(np.zeros((2, 2, 1)))

    def test_coords_strictly_row_major(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, keep = random_case(rng, 6, 5, 2, rng.uniform(0.1, 0.9))
            plan = plan_of(keep)
            if len(plan) > 1:
                lin = plan.coords[:, 0] * 5 + plan.coords[:, 1]
                assert (np.diff(lin) > 0).all()

    def test_count_matches_kept_ratio_exactly(self):
        rng = np.random.default_rng(9)
        x, keep = random_case(rng, 8, 8, 3, 0.4)
        plan = plan_of(keep)
        assert len(plan) == len(plan.gather(x)) == kept_ratio(keep) * keep.size


class TestScatter:
    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 8),
        w=st.integers(1, 8),
        c=st.integers(1, 4),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_bit_exact(self, h, w, c, p, seed):
        rng = np.random.default_rng(seed)
        x, keep = random_case(rng, h, w, c, p)
        plan = plan_of(keep)
        out = plan.scatter(plan.gather(x), x)
        assert out.tobytes() == x.tobytes()

    def test_empty_plan_returns_base(self):
        base = np.arange(12.0).reshape(2, 2, 3)
        plan = plan_of(np.zeros((2, 2), dtype=bool))
        np.testing.assert_array_equal(plan.scatter(plan.gather(base), base), base)

    def test_discarded_positions_bit_equal(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x, keep = random_case(rng, 4, 4, 2, rng.uniform(0, 1))
            plan = plan_of(keep)
            fresh = rng.standard_normal(plan.gather(x).shape)
            out = plan.scatter(fresh, x)
            off = ~keep
            assert out[off].tobytes() == x[off].tobytes()

    def test_gather_copies(self):
        """Updating gathered tokens in place leaves the map as it was."""
        x = np.arange(8.0).reshape(2, 2, 2)
        before = x.copy()
        plan = plan_of(np.ones((2, 2), dtype=bool))
        tokens = plan.gather(x)
        tokens += 1.0
        assert x.tobytes() == before.tobytes()

    def test_stack_gathers_and_scatters_each_map(self):
        rng = np.random.default_rng(12)
        x, keep = random_case(rng, 5, 6, 3, 0.5)
        stack = np.stack([x, 2.0 * x, -x])
        plan = plan_of(keep)
        tokens = plan.gather(stack)
        assert tokens.shape == (3, len(plan), 3)
        for t in range(3):
            assert tokens[t].tobytes() == plan.gather(stack[t]).tobytes()
        fresh = rng.standard_normal(tokens.shape)
        out = plan.scatter(fresh, stack)
        for t in range(3):
            want = plan.scatter(fresh[t], stack[t])
            assert out[t].tobytes() == want.tobytes()

    @pytest.mark.parametrize("tokens_shape", [(2, 4, 3), (4, 3), (3, 4, 2), (3, 5, 3)])
    def test_stack_of_other_shape_rejected(self, tokens_shape):
        base = np.zeros((3, 2, 2, 3))
        plan = plan_of(np.ones((2, 2), dtype=bool))
        with pytest.raises(ShapeError):
            plan.scatter(np.zeros(tokens_shape), base)

    def test_out_of_bounds_coord_rejected(self):
        base = np.zeros((2, 2, 1))
        plan = StagePlan(coords=np.array([[5, 0]]), index=np.full((2, 2), -1),
                         nbr=np.full((1, 9), -1), ipl=np.zeros(1, dtype=np.int64))
        with pytest.raises(ShapeError):
            plan.scatter(np.zeros((1, 1)), base)


@pytest.mark.parametrize("call", [
    lambda: plan_of(np.ones((2, 2), dtype=bool)).scatter(np.zeros((4, 1)), np.zeros((2, 3, 1))),
], ids=["scatter-base-of-other-grid"])
def test_refusals(call):
    with pytest.raises(ShapeError, match="token grid"):
        call()
