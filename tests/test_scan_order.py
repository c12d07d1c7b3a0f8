"""Token orderings: IPL and inversion.

The IPL case with a hand-built 4x4 score map is the anchor; the rest are
structural properties (bijection, window contiguity) checked
over random masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescan.backbone import StagePlan
from sparsescan.errors import ConfigError, ShapeError
from sparsescan.scan_order import invert, ipl_order

IPL_SCORES = np.array([
    [5.0, 1.0, 0.0, 0.0],
    [2.0, 3.0, 0.0, 1.0],
    [0.0, 0.0, 9.0, 8.0],
    [0.0, 0.0, 7.0, 6.0],
])
# window maxima TL=5, TR=1, BL=0, BR=9 -> visit BR, TL, TR, BL,
# row-major inside each window
IPL_COORDS = [
    (2, 2), (2, 3), (3, 2), (3, 3),
    (0, 0), (0, 1), (1, 0), (1, 1),
    (0, 2), (0, 3), (1, 2), (1, 3),
    (2, 0), (2, 1), (3, 0), (3, 1),
]


def plan_of(keep):
    """The kept tokens' coordinates and grid index, from a stage plan."""
    return StagePlan.build(keep, np.zeros(keep.shape))


def full(h, w):
    return plan_of(np.ones((h, w), dtype=bool))


def random_keep(rng, h, w):
    keep = rng.random((h, w)) < rng.uniform(0.2, 0.9)
    keep.flat[rng.integers(0, h * w)] = True  # at least one token
    return keep


class TestIpl:
    def test_frozen_4x4_case(self):
        plan = full(4, 4)
        order = ipl_order(plan.index, IPL_SCORES, 2)
        visited = [tuple(plan.coords[i]) for i in order]
        assert visited == IPL_COORDS

    def test_frozen_case_with_discard(self):
        keep = np.ones((4, 4), dtype=bool)
        keep[0, 1] = False
        plan = plan_of(keep)
        order = ipl_order(plan.index, IPL_SCORES, 2)
        visited = [tuple(plan.coords[i]) for i in order]
        assert visited == [c for c in IPL_COORDS if c != (0, 1)]

    def test_uniform_scores_row_major_by_window(self):
        plan = full(4, 4)
        order = ipl_order(plan.index, np.ones((4, 4)), 2)
        visited = [tuple(plan.coords[i]) for i in order]
        expected = []
        for wi in range(2):
            for wj in range(2):
                for i in range(2):
                    for j in range(2):
                        expected.append((2 * wi + i, 2 * wj + j))
        assert visited == expected

    def test_window_equals_grid_gives_row_major(self):
        rng = np.random.default_rng(14)
        keep = random_keep(rng, 4, 4)
        plan = plan_of(keep)
        order = ipl_order(plan.index, rng.random((4, 4)), 4)
        np.testing.assert_array_equal(order, np.arange(len(plan)))

    def test_global_max_window_first(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            keep = random_keep(rng, 6, 6)
            scores = rng.random((6, 6))
            plan = plan_of(keep)
            order = ipl_order(plan.index, scores, 2)
            top = np.unravel_index(np.argmax(scores), scores.shape)
            top_win = (top[0] // 2, top[1] // 2)
            first = tuple(plan.coords[order[0]])
            # the winning window may hold no kept tokens; then it is skipped
            win_keep = keep[2 * top_win[0]:2 * top_win[0] + 2,
                            2 * top_win[1]:2 * top_win[1] + 2]
            if win_keep.any():
                assert (first[0] // 2, first[1] // 2) == top_win

    def test_window_runs_contiguous_and_maxima_non_increasing(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            keep = random_keep(rng, 6, 6)
            scores = rng.random((6, 6))
            plan = plan_of(keep)
            order = ipl_order(plan.index, scores, 2)
            wins = [(plan.coords[i][0] // 2, plan.coords[i][1] // 2)
                    for i in order]
            seen = []
            for w in wins:
                if not seen or seen[-1] != w:
                    assert w not in seen  # no window revisited
                    seen.append(w)
            maxima = [scores[2 * a:2 * a + 2, 2 * b:2 * b + 2].max()
                      for a, b in seen]
            assert all(m1 >= m2 for m1, m2 in zip(maxima, maxima[1:]))

    def test_non_dividing_window_rejected(self):
        with pytest.raises(ShapeError):
            ipl_order(full(4, 4).index, np.ones((4, 4)), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_window_below_one_rejected(self, k):
        with pytest.raises(ConfigError, match="at least 1"):
            ipl_order(full(4, 4).index, np.ones((4, 4)), k)

    def test_score_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ipl_order(full(4, 4).index, np.ones((2, 2)), 2)


class TestInvert:
    def test_hand_case(self):
        np.testing.assert_array_equal(invert(np.array([2, 0, 1])), [1, 2, 0])

    def test_identity(self):
        ident = np.arange(7)
        np.testing.assert_array_equal(invert(ident), ident)

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(12))))
    def test_involution(self, perm):
        p = np.asarray(perm)
        np.testing.assert_array_equal(invert(invert(p)), p)
        np.testing.assert_array_equal(invert(p)[p], np.arange(len(p)))
