"""Token gather/scatter and kept-ratio accounting.

The roundtrip identity scatter(gather(x, D), x) == x must hold at the
bit level for every (x, D); hypothesis drives that across shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescan.sparsify import (
    ShapeError,
    TokenSet,
    gather_tokens,
    kept_ratio,
    scatter_tokens,
)


def random_case(rng, h, w, c, p_keep):
    x = rng.standard_normal((h, w, c))
    keep = rng.random((h, w)) < p_keep
    return x, keep


class TestGather:
    def test_hand_case(self):
        x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # a,b,c,d with C=1
        d = np.array([[1, 0], [0, 1]], dtype=bool)
        ts = gather_tokens(x, d)
        assert len(ts) == 2
        np.testing.assert_array_equal(ts.tokens[:, 0], [1.0, 4.0])
        np.testing.assert_array_equal(ts.coords, [[0, 0], [1, 1]])

    def test_all_ones_row_major(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        ts = gather_tokens(x, np.ones((2, 2), dtype=bool))
        assert len(ts) == 4
        expected = [(i, j) for i in range(2) for j in range(2)]
        np.testing.assert_array_equal(ts.coords, expected)

    def test_all_zeros_empty(self):
        x = np.arange(4.0).reshape(2, 2, 1)
        ts = gather_tokens(x, np.zeros((2, 2), dtype=bool))
        assert len(ts) == 0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            gather_tokens(np.zeros((2, 2, 1)), np.ones((3, 2), dtype=bool))

    def test_coords_strictly_row_major(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, keep = random_case(rng, 6, 5, 2, rng.uniform(0.1, 0.9))
            ts = gather_tokens(x, keep)
            if len(ts) > 1:
                lin = ts.coords[:, 0] * 5 + ts.coords[:, 1]
                assert (np.diff(lin) > 0).all()

    def test_count_matches_kept_ratio_exactly(self):
        rng = np.random.default_rng(9)
        x, keep = random_case(rng, 8, 8, 3, 0.4)
        ts = gather_tokens(x, keep)
        assert len(ts) == kept_ratio(keep) * keep.size


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
        out = scatter_tokens(gather_tokens(x, keep), x)
        assert out.tobytes() == x.tobytes()

    def test_empty_tokenset_returns_base(self):
        base = np.arange(12.0).reshape(2, 2, 3)
        ts = gather_tokens(base, np.zeros((2, 2), dtype=bool))
        np.testing.assert_array_equal(scatter_tokens(ts, base), base)

    def test_discarded_positions_bit_equal(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            x, keep = random_case(rng, 4, 4, 2, rng.uniform(0, 1))
            ts = gather_tokens(x, keep)
            fresh = rng.standard_normal(ts.tokens.shape)
            out = scatter_tokens(
                TokenSet(fresh, ts.coords, ts.grid_shape), x)
            off = ~keep
            assert out[off].tobytes() == x[off].tobytes()

    def test_stack_gathers_and_scatters_each_map(self):
        rng = np.random.default_rng(12)
        x, keep = random_case(rng, 5, 6, 3, 0.5)
        stack = np.stack([x, 2.0 * x, -x])
        ts = gather_tokens(stack, keep)
        assert ts.tokens.shape == (3, len(ts), 3)
        for t in range(3):
            assert ts.tokens[t].tobytes() == gather_tokens(stack[t], keep).tokens.tobytes()
        fresh = rng.standard_normal(ts.tokens.shape)
        out = scatter_tokens(TokenSet(fresh, ts.coords, ts.grid_shape), stack)
        for t in range(3):
            want = scatter_tokens(TokenSet(fresh[t], ts.coords, ts.grid_shape), stack[t])
            assert out[t].tobytes() == want.tobytes()

    @pytest.mark.parametrize("tokens_shape", [(2, 4, 3), (4, 3), (3, 4, 2), (3, 5, 3)])
    def test_stack_of_other_shape_rejected(self, tokens_shape):
        base = np.zeros((3, 2, 2, 3))
        coords = np.argwhere(np.ones((2, 2), dtype=bool))
        with pytest.raises(ShapeError):
            scatter_tokens(TokenSet(np.zeros(tokens_shape), coords, (2, 2)), base)

    def test_out_of_bounds_coord_rejected(self):
        base = np.zeros((2, 2, 1))
        ts = TokenSet(np.zeros((1, 1)), np.array([[5, 0]]), (2, 2))
        with pytest.raises(ShapeError):
            scatter_tokens(ts, base)


class TestKeptRatio:
    def test_half(self):
        assert kept_ratio(np.array([[1, 0], [0, 1]], dtype=bool)) == 0.5

    def test_all_ones(self):
        assert kept_ratio(np.ones((3, 3), dtype=bool)) == 1.0

    def test_bernoulli_mean(self):
        rng = np.random.default_rng(11)
        p, n, size = 0.3, 400, 64
        ratios = [kept_ratio(rng.random((8, 8)) < p) for _ in range(n)]
        sigma = np.sqrt(p * (1 - p) / (n * size))
        assert abs(np.mean(ratios) - p) <= 4 * sigma


@pytest.mark.parametrize("call", [
    lambda: scatter_tokens(gather_tokens(np.zeros((2, 2, 1)), np.ones((2, 2), dtype=bool)),
                           np.zeros((2, 3, 1))),
], ids=["scatter-base-of-other-grid"])
def test_refusals(call):
    with pytest.raises(ShapeError, match="token grid"):
        call()
