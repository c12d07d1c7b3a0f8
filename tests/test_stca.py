"""Temporal-continuity scoring and the sparsification map.

The pipeline is accumulate -> pool -> gaussian aggregate -> threshold ->
binarize.  Each stage gets its hand-computed cases, then the composed
run gets oracle and invariance checks (brute force, timestamp scaling,
beta monotonicity).
"""

import math
import time

import numpy as np
import pytest

from sparsescan.event_io import (
    EventStream,
    SceneSpec,
    EdgeSegment,
    ValidationError,
    generate_synthetic_scene,
    scene_preset,
)
from sparsescan.stca import (
    ConfigError,
    GaussianConfig,
    ShapeError,
    accumulate_temporal_scores,
    build_sparsification_map,
    compute_threshold,
    gaussian_aggregate,
    kept_ratio,
    max_pool2d,
    pool_to_tokens,
    run_stca,
    write_map_csv,
    write_map_pgm,
)

# interior 3x3 Gaussian window, sigma=1: center 1, edges e^-0.5, corners e^-1
DELTA_GAIN = 1.0 / (1.0 + 4.0 * math.exp(-0.5) + 4.0 * math.exp(-1.0))


def make_stream(xs, ys, ts, ps=None, w=8, h=8, t0=0, t1=1000):
    n = len(xs)
    if ps is None:
        ps = [1] * n
    return EventStream(
        np.asarray(xs, dtype=np.int64),
        np.asarray(ys, dtype=np.int64),
        np.asarray(ts, dtype=np.int64),
        np.asarray(ps, dtype=np.int64),
        w, h, t0, t1,
    )


class TestAccumulate:
    def test_two_events_hand_sum(self):
        # normalized t = 0.2 and 0.3 at pixel (1,1)
        s = make_stream([1, 1], [1, 1], [200, 300])
        m = accumulate_temporal_scores(s)
        assert m[1, 1] == pytest.approx(0.5)
        assert m.sum() == pytest.approx(0.5)

    def test_empty_stream_zero_map(self):
        s = make_stream([], [], [])
        m = accumulate_temporal_scores(s)
        assert m.shape == (8, 8)
        assert not m.any()

    def test_zero_span_with_events_rejected(self):
        s = EventStream(np.array([1]), np.array([1]), np.array([5]),
                        np.array([1]), 8, 8, 5, 5)
        with pytest.raises(ValidationError):
            accumulate_temporal_scores(s)

    def test_total_equals_sum_of_normalized_timestamps(self):
        rng = np.random.default_rng(0)
        ts = np.sort(rng.integers(0, 1000, size=100))
        s = make_stream(rng.integers(0, 8, 100), rng.integers(0, 8, 100), ts,
                        rng.choice([-1, 1], 100))
        m = accumulate_temporal_scores(s)
        assert m.sum() == pytest.approx((ts / 1000.0).sum())

    def test_window_spanning_int64(self):
        # t - window_start = 5 + 2**63 leaves int64; normalized it is ~0.5
        s = make_stream([1], [2], [5], t0=-2**63, t1=2**63 - 1)
        m = accumulate_temporal_scores(s)
        assert m[2, 1] == pytest.approx(0.5)

    def test_shifted_window_scores_bit_identical(self):
        rng = np.random.default_rng(3)
        ts = np.sort(rng.integers(0, 1000, size=50))
        xs, ys = rng.integers(0, 8, 50), rng.integers(0, 8, 50)
        base = accumulate_temporal_scores(make_stream(xs, ys, ts))
        for shift in (2**60, -2**63, 2**63 - 1001):
            moved = make_stream(xs, ys, ts + shift, t0=shift, t1=shift + 1000)
            assert accumulate_temporal_scores(moved).tobytes() == base.tobytes()

    def test_polarity_ignored(self):
        a = make_stream([2, 2], [3, 3], [400, 600], [1, 1])
        b = make_stream([2, 2], [3, 3], [400, 600], [-1, -1])
        np.testing.assert_array_equal(accumulate_temporal_scores(a),
                                      accumulate_temporal_scores(b))


class TestPooling:
    def test_block_mean(self):
        m = np.array([[4.0, 0.0], [0.0, 0.0]])
        t = pool_to_tokens(m, 2)
        assert t.shape == (1, 1)
        assert t[0, 0] == pytest.approx(1.0)

    def test_constant_map(self):
        t = pool_to_tokens(np.full((8, 8), 3.5), 4)
        np.testing.assert_allclose(t, 3.5)

    def test_patch_one_identity(self):
        m = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(pool_to_tokens(m, 1), m)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            pool_to_tokens(np.zeros((6, 6)), 4)


class TestGaussianAggregate:
    def test_constant_preserved_including_borders(self):
        m = np.full((5, 7), 2.25)
        out = gaussian_aggregate(m, GaussianConfig(radius=1, sigma=1.0))
        np.testing.assert_allclose(out, 2.25, atol=1e-12)

    def test_interior_delta_gain(self):
        m = np.zeros((5, 5))
        m[2, 2] = 3.0
        out = gaussian_aggregate(m, GaussianConfig(radius=1, sigma=1.0))
        assert out[2, 2] == pytest.approx(3.0 * DELTA_GAIN, rel=1e-12)
        assert DELTA_GAIN == pytest.approx(0.20418, abs=1e-5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError):
            GaussianConfig(sigma=sigma)

    def test_tiny_sigma_is_identity(self):
        m = np.arange(12.0).reshape(3, 4)
        out = gaussian_aggregate(m, GaussianConfig(radius=1, sigma=1e-9))
        np.testing.assert_allclose(out, m, atol=1e-12)

    # 2 sigma^2 is normal, subnormal, then underflows to 0
    @pytest.mark.parametrize("sigma", [1e-100, 1e-160, 1e-200, 5e-324])
    def test_vanishing_sigma_returns_map_unchanged(self, sigma):
        m = np.random.default_rng(2).uniform(0, 5, size=(6, 7))
        for radius in (0, 1, 3):
            out = gaussian_aggregate(m, GaussianConfig(radius=radius, sigma=sigma))
            np.testing.assert_array_equal(out, m)

    def test_radius_clamped_to_map(self):
        m = np.random.default_rng(3).uniform(0, 5, size=(16, 16))
        t0 = time.perf_counter()
        out = gaussian_aggregate(m, GaussianConfig(radius=10**8, sigma=4.0))
        assert time.perf_counter() - t0 < 1.0
        want = gaussian_aggregate(m, GaussianConfig(radius=15, sigma=4.0))
        assert out.tobytes() == want.tobytes()

    def test_output_max_bounded_by_input_max(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.uniform(0, 10, size=(6, 6))
            out = gaussian_aggregate(m, GaussianConfig(radius=2, sigma=1.5))
            assert out.max() <= m.max() + 1e-12
            assert out.min() >= -1e-12


class TestThresholdAndMap:
    def test_threshold_hand_case(self):
        m = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert compute_threshold(m, 1.0) == pytest.approx(1.0)

    def test_uniform_map(self):
        assert compute_threshold(np.full((3, 3), 0.7), 1.0) == pytest.approx(0.7)

    def test_beta_inverse_linearity(self):
        m = np.array([[1.0, 3.0], [2.0, 6.0]])
        assert compute_threshold(m, 2.0) == pytest.approx(
            compute_threshold(m, 1.0) / 2.0)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ConfigError):
            compute_threshold(np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_nonfinite_beta_rejected(self, beta):
        with pytest.raises(ConfigError):
            compute_threshold(np.ones((2, 2)), beta)

    def test_tiny_beta_keeps_nothing_without_warning(self):
        alpha = compute_threshold(np.full((16, 16), 0.5), 1e-320)   # RuntimeWarning fails
        assert alpha == math.inf
        assert not build_sparsification_map(np.full((16, 16), 0.5), alpha).any()

    def test_map_hand_case(self):
        m = np.array([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(
            build_sparsification_map(m, 1.0),
            np.array([[1, 0], [0, 1]], dtype=bool))

    def test_ties_kept(self):
        m = np.full((2, 2), 0.4)
        assert build_sparsification_map(m, 0.4).all()

    def test_all_zero_map_positive_threshold(self):
        assert not build_sparsification_map(np.zeros((3, 3)), 0.1).any()


class TestDownsample:
    def test_any_kept_propagates(self):
        d = np.array([[1, 0], [0, 0]], dtype=bool)
        np.testing.assert_array_equal(max_pool2d(d, 2),
                                      np.array([[True]]))

    def test_all_zero_stays_zero(self):
        assert not max_pool2d(np.zeros((4, 4), dtype=bool), 2).any()

    def test_kept_ratio_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = rng.random((8, 8)) < rng.uniform(0.05, 0.95)
            assert kept_ratio(max_pool2d(d, 2)) >= kept_ratio(d)


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


def brute_force_keep(stream, patch, gauss, beta):
    """Plain-loop recomputation of the whole pipeline."""
    span = stream.span
    pixel = np.zeros((stream.height, stream.width))
    for x, y, t in zip(stream.xs, stream.ys, stream.ts):
        pixel[y, x] += (t - stream.window_start) / span
    gh, gw = stream.height // patch, stream.width // patch
    tok = np.zeros((gh, gw))
    for i in range(gh):
        for j in range(gw):
            tok[i, j] = pixel[i * patch:(i + 1) * patch,
                              j * patch:(j + 1) * patch].mean()
    agg = np.zeros_like(tok)
    r, sig = gauss.radius, gauss.sigma
    for i in range(gh):
        for j in range(gw):
            num = den = 0.0
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < gh and 0 <= jj < gw:
                        w = math.exp(-(di * di + dj * dj) / (2 * sig * sig))
                        num += w * tok[ii, jj]
                        den += w
            agg[i, j] = num / den
    alpha = agg.sum() / (beta * agg.size)
    return agg >= alpha


class TestRunStca:
    def test_empty_stream_keeps_everything(self):
        s = make_stream([], [], [])
        res = run_stca(s, patch=4)
        assert res.threshold == 0.0
        assert res.keep.all()
        assert not res.scores.any()

    def test_matches_brute_force(self):
        gauss = GaussianConfig(radius=1, sigma=1.0)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 80))
            ts = np.sort(rng.integers(0, 1000, size=n))
            s = make_stream(rng.integers(0, 32, n), rng.integers(0, 32, n),
                            ts, rng.choice([-1, 1], n), w=32, h=32)
            res = run_stca(s, patch=2, gauss=gauss, beta=1.0)
            np.testing.assert_array_equal(
                res.keep, brute_force_keep(s, 2, gauss, 1.0))

    def test_timestamp_scaling_leaves_map_unchanged(self):
        rng = np.random.default_rng(6)
        n = 60
        ts = np.sort(rng.integers(0, 100, size=n)) * 10
        xs, ys = rng.integers(0, 16, n), rng.integers(0, 16, n)
        ps = rng.choice([-1, 1], n)
        base = make_stream(xs, ys, ts, ps, w=16, h=16, t1=1000)
        scaled = make_stream(xs, ys, ts * 10, ps, w=16, h=16, t1=10000)
        a = run_stca(base, patch=2)
        b = run_stca(scaled, patch=2)
        np.testing.assert_array_equal(a.keep, b.keep)

    def test_keep_set_monotone_in_beta(self):
        rng = np.random.default_rng(7)
        n = 80
        ts = np.sort(rng.integers(0, 1000, size=n))
        s = make_stream(rng.integers(0, 16, n), rng.integers(0, 16, n), ts,
                        rng.choice([-1, 1], n), w=16, h=16)
        prev = None
        for beta in (0.5, 1.0, 2.0, 4.0):
            keep = run_stca(s, patch=2, beta=beta).keep
            if prev is not None:
                assert (keep | ~prev).all()  # prev subset of keep
            prev = keep

    def test_kept_tokens_near_object(self):
        """Noise-free single-object scene: kept tokens hug the object."""
        seg = EdgeSegment(x0=8, y0=8, x1=8, y1=24, vx=18.0, vy=0.0)
        spec = SceneSpec(32, 32, 100000, (seg,), 0.0)
        s, mask = generate_synthetic_scene(spec, seed=2)
        res = run_stca(s, patch=4)
        obj = pool_to_tokens(mask.astype(float), 4) > 0
        r = 1  # gaussian radius
        near = np.zeros_like(obj)
        oy, ox = np.nonzero(obj)
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                yy = np.clip(oy + dy, 0, obj.shape[0] - 1)
                xx = np.clip(ox + dx, 0, obj.shape[1] - 1)
                near[yy, xx] = True
        assert not (res.keep & ~near).any()


class TestMapSerialization:
    def test_csv_roundtrip(self, tmp_path):
        d = np.array([[1, 0], [0, 1]], dtype=bool)
        p = tmp_path / "mask.csv"
        write_map_csv(d, p)
        np.testing.assert_array_equal(np.loadtxt(p, delimiter=",", ndmin=2).astype(bool), d)

    def test_scores_csv_roundtrip(self, tmp_path):
        s = np.array([[0.125, 3.0], [2.5e-17, 1.0]])
        p = tmp_path / "scores.csv"
        write_map_csv(s, p)
        np.testing.assert_array_equal(np.loadtxt(p, delimiter=",", ndmin=2), s)

    def test_pgm_header_and_payload(self, tmp_path):
        d = np.array([[1, 0], [0, 1]], dtype=bool)
        p = tmp_path / "mask.pgm"
        write_map_pgm(d, p)
        raw = p.read_bytes()
        header, payload = raw.rsplit(b"\n", 1)
        assert header.split() == [b"P5", b"2", b"2", b"255"]
        assert payload == bytes([255, 0, 0, 255])

    @pytest.mark.parametrize("a", [np.array([[0.5, np.nan]]), np.zeros((2, 2), dtype=np.uint8),
                                   np.zeros(4, dtype=bool)], ids=["float", "uint8", "1d"])
    def test_pgm_takes_2d_bool_masks_only(self, tmp_path, a):
        with pytest.raises(ValidationError, match="2D boolean mask"):
            write_map_pgm(a, tmp_path / "map.pgm")
        assert not (tmp_path / "map.pgm").exists()


@pytest.mark.parametrize("call,error", [
    (lambda: max_pool2d(np.zeros((4, 4)), 0), ConfigError),
    (lambda: max_pool2d(np.zeros((4, 6)), 4), ShapeError),
], ids=["max-pool-factor-zero", "max-pool-indivisible"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()
