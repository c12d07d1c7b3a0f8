"""Event stream I/O, the synthetic scene generator, and voxelization.

Frozen example values come first in each class; statistical checks
(Poisson noise counts) run last since they are the slow ones.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsescan.errors import ConfigError, SparseScanError
from sparsescan.event_io import (
    EVENTS_PER_CROSSING,
    EdgeSegment,
    EventStream,
    FormatError,
    OrderingError,
    SceneSpec,
    ValidationError,
    build_voxel_grid,
    event_spatial_ratio,
    generate_synthetic_scene,
    load_events,
    save_events,
    scene_preset,
    split_windows,
)


def make_stream(xs, ys, ts, ps, w=8, h=8, t0=0, t1=2000):
    return EventStream(
        np.asarray(xs, dtype=np.int64),
        np.asarray(ys, dtype=np.int64),
        np.asarray(ts, dtype=np.int64),
        np.asarray(ps, dtype=np.int64),
        w, h, t0, t1,
    )


class TestCsvFormat:
    def test_single_line_field_mapping(self, tmp_path):
        """CSV row "3,4,1000,1" maps directly onto event fields."""
        p = tmp_path / "one.csv"
        p.write_text("W=8,H=8,T0=0,T1=2000\nx,y,t,p\n3,4,1000,1\n")
        s = load_events(p)
        assert s.n_events == 1
        assert (s.xs[0], s.ys[0], s.ts[0], s.ps[0]) == (3, 4, 1000, 1)

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("W=8,H=8\nx,y,t,p\n")
        s = load_events(p)
        assert s.n_events == 0
        assert s.width == 8 and s.height == 8

    def test_roundtrip_preserves_window(self, tmp_path):
        s = make_stream([1, 2], [3, 4], [100, 700], [1, -1], t0=50, t1=900)
        p = tmp_path / "w.csv"
        save_events(s, p)
        r = load_events(p)
        assert (r.window_start, r.window_end) == (50, 900)
        np.testing.assert_array_equal(r.xs, s.xs)
        np.testing.assert_array_equal(r.ps, s.ps)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("W=8,H=8\nx,y,t,p\n1,2,10,1\n3,oops,20,1\n")
        with pytest.raises(FormatError, match="4"):
            load_events(p)

    @pytest.mark.parametrize("field", ["2,3,1180591620717411303424,1",
                                       "-9223372036854775809,3,20,1"])
    def test_field_outside_int64_reports_line_number(self, tmp_path, field):
        p = tmp_path / "big.csv"
        p.write_text(f"W=8,H=8\nx,y,t,p\n1,2,10,1\n\n{field}\n")
        with pytest.raises(FormatError, match="line 5"):
            load_events(p)

    @pytest.mark.parametrize("geometry", ["W=8,H=8,T0=0,T1=1180591620717411303424",
                                          "W=-9223372036854775809,H=8"])
    def test_geometry_outside_int64_reports_line_one(self, tmp_path, geometry):
        p = tmp_path / "geo.csv"
        p.write_text(f"{geometry}\nx,y,t,p\n1,2,10,1\n")
        with pytest.raises(FormatError, match="line 1"):
            load_events(p)

    @pytest.mark.parametrize("geometry", ["W=8,H=8,t1=1000", "W=8,H=8,X=1", "W=8,H=8,=5",
                                          "W=8,H=8,W=4,T1=1000", "W=8,H=8,T0=0,T0=5",
                                          "W=8,H=8,T1=1000, T1=900"])
    def test_unknown_or_repeated_geometry_key_reports_line_one(self, tmp_path, geometry):
        p = tmp_path / "geo.csv"
        p.write_text(f"{geometry}\nx,y,t,p\n1,2,10,1\n")
        with pytest.raises(FormatError, match="line 1"):
            load_events(p)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        p = tmp_path / "ord.csv"
        p.write_text("W=8,H=8\nx,y,t,p\n1,1,500,1\n1,1,400,1\n")
        with pytest.raises(OrderingError):
            load_events(p)

    def test_out_of_bounds_coordinate_rejected(self, tmp_path):
        p = tmp_path / "oob.csv"
        p.write_text("W=8,H=8\nx,y,t,p\n9,1,500,1\n")
        with pytest.raises(ValidationError):
            load_events(p)


class TestBinaryFormat:
    def test_two_record_roundtrip_byte_exact(self, tmp_path):
        s = make_stream([3, 5], [4, 6], [1000, 1500], [1, -1])
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_events(s, a)
        save_events(load_events(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_stream_header_only(self, tmp_path):
        s = make_stream([], [], [], [])
        p = tmp_path / "empty.bin"
        save_events(s, p)
        assert p.stat().st_size == 16
        r = load_events(p)
        assert r.n_events == 0

    def test_negative_polarity_byte(self, tmp_path):
        # record layout: x u16, y u16, t u32, p i8, 3 pad; header is 16 bytes,
        # so the first record's polarity byte sits at absolute offset 24.
        s = make_stream([3], [4], [1000], [-1])
        p = tmp_path / "neg.bin"
        save_events(s, p)
        raw = p.read_bytes()
        assert len(raw) == 28
        assert raw[:4] == b"EVT1"
        assert raw[24] == 0xFF

    def test_truncated_file_rejected(self, tmp_path):
        s = make_stream([3], [4], [1000], [1])
        p = tmp_path / "t.bin"
        save_events(s, p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_events(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError):
            load_events(p)

    # a window end beyond int64 (refused on construction); an offset
    # 2**62 + 2**63 that int64 wraps
    @pytest.mark.parametrize("t0,t1,t", [(0, 2**70, 5), (-2**63, 2**62, 2**62)])
    def test_window_beyond_format_range_rejected(self, tmp_path, t0, t1, t):
        with pytest.raises(ValidationError, match="range"):
            save_events(make_stream([1], [2], [t], [1], t0=t0, t1=t1), tmp_path / "w.bin")

    def test_span_beyond_int64_not_saved(self, tmp_path):
        # a loaded binary window is [0, span], which must stay inside int64
        p = tmp_path / "w.bin"
        save_events(EventStream([], [], [], [], 8, 8, -1, 2**63 - 2), p)
        assert load_events(p).span == 2**63 - 1
        with pytest.raises(ValidationError, match="range"):
            save_events(EventStream([], [], [], [], 8, 8, -2**63, 2**63 - 1), p)


fuzz_settings = settings(max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])
fuzz_int = st.one_of(st.integers(-2, 12), st.integers())


def loads_or_rejects(path, data: bytes):
    path.write_bytes(data)
    try:
        assert isinstance(load_events(path), EventStream)
    except SparseScanError:
        pass


class TestLoaderFuzz:
    """Any file content ends in an EventStream or a SparseScanError."""

    @fuzz_settings
    @given(data=st.one_of(st.binary(max_size=64),
                          st.binary(max_size=60).map(lambda b: b"EVT1" + b)))
    def test_binary_bytes(self, tmp_path, data):
        loads_or_rejects(tmp_path / "f.bin", data)

    @fuzz_settings
    @given(data=st.binary(max_size=64))
    def test_csv_bytes(self, tmp_path, data):
        loads_or_rejects(tmp_path / "f.csv", data)

    @fuzz_settings
    @given(geometry=st.lists(st.tuples(st.sampled_from(["W", "H", "T0", "T1"]), fuzz_int),
                             max_size=5),
           rows=st.lists(st.lists(fuzz_int, min_size=3, max_size=5), max_size=6))
    def test_csv_integer_lines(self, tmp_path, geometry, rows):
        lines = [",".join(f"{k}={v}" for k, v in geometry), "x,y,t,p"]
        lines += [",".join(map(str, row)) for row in rows]
        loads_or_rejects(tmp_path / "f.csv", "\n".join(lines).encode())


class TestStreamValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            make_stream([1, 2], [1], [10, 20], [1, 1])

    def test_bad_polarity(self):
        with pytest.raises(ValidationError):
            make_stream([1], [1], [10], [2])

    # abs() wraps at int64 min, so -2**63 must not pass as a unit polarity
    @pytest.mark.parametrize("p", [0, 2, -2, 2**63 - 1, -2**63])
    def test_csv_polarity_outside_pm1_refused(self, tmp_path, p):
        path = tmp_path / "p.csv"
        path.write_text(f"W=8,H=8\nx,y,t,p\n1,1,5,{p}\n")
        with pytest.raises(ValidationError, match="polarities"):
            load_events(path)

    def test_timestamp_outside_window(self):
        with pytest.raises(ValidationError):
            make_stream([1], [1], [5000], [1], t1=2000)

    @pytest.mark.parametrize("t0,t1", [(-2**63 - 5, 0), (0, 2**63), (-2**63 - 1, 2**63)])
    def test_window_outside_int64_rejected(self, t0, t1):
        with pytest.raises(ValidationError, match="int64"):
            EventStream([], [], [], [], 8, 8, t0, t1)

    def test_timestamps_spanning_int64_accepted(self):
        # the first consecutive difference, 2**64 - 3, wraps in int64
        s = make_stream([0, 1, 2], [0, 0, 0], [-2**63, 2**63 - 3, 2**63 - 1], [1, 1, 1],
                        t0=-2**63, t1=2**63 - 1)
        assert s.n_events == 3

    def test_span_property(self):
        s = make_stream([1], [1], [100], [1], t0=50, t1=900)
        assert s.span == 850


class TestSplitWindows:
    @pytest.mark.parametrize("t0,t1", [(0, 2**63 - 1), (-2**63, 2**63 - 1), (-2**63, -2**63 + 7)])
    def test_edges_span_the_window_at_int64_bounds(self, t0, t1):
        ts = [t0, t0 + 1, t1 - 1, t1]
        stream = EventStream([0, 1, 2, 3], [0] * 4, ts, [1] * 4, 4, 4, t0, t1)
        subs = split_windows(stream, 2)
        assert subs[0].window_start == t0 and subs[-1].window_end == t1
        assert subs[0].window_end == subs[1].window_start
        assert subs[0].window_start < subs[0].window_end < subs[1].window_end
        assert sum(sub.n_events for sub in subs) == 4

    def test_edges_unchanged_from_window_start_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            span, n = int(rng.integers(1, 2**53)), int(rng.integers(2, 65))
            stream = EventStream([], [], [], [], 4, 4, 0, span)
            subs = split_windows(stream, n)
            edges = [sub.window_start for sub in subs] + [subs[-1].window_end]
            assert edges == np.rint(np.linspace(0, span, n + 1)).astype(np.int64).tolist()

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_window_refused(self, n):
        stream = EventStream([0, 1], [0, 0], [3, 9], [1, -1], 4, 4, 0, 10)
        with pytest.raises(ConfigError, match=f"at least 1 sub-window, got {n}"):
            split_windows(stream, n)


class TestVoxelGrid:
    def test_event_at_bin_center(self):
        # B=5 over span 2000: bin centers at t = 500*b; t=1000 is bin 2.
        s = make_stream([3], [4], [1000], [1])
        v = build_voxel_grid(s, 5)
        assert v.values.shape == (10, 8, 8)
        assert v.values[2, 4, 3] == 1.0
        assert v.values.sum() == 1.0

    def test_event_midway_between_bins(self):
        # t*=0.5 sits halfway between bins 0 and 1.
        s = make_stream([3], [4], [250], [1], t1=2000)
        v = build_voxel_grid(s, 5)
        assert v.values[0, 4, 3] == pytest.approx(0.5)
        assert v.values[1, 4, 3] == pytest.approx(0.5)

    def test_negative_polarity_channel(self):
        s = make_stream([3], [4], [0], [-1])
        v = build_voxel_grid(s, 5)
        # negative channels follow the positive block
        assert v.values[5, 4, 3] == 1.0
        assert v.values[:5].sum() == 0.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(1)
        ts = np.sort(rng.integers(0, 2000, size=10))
        s = make_stream(rng.integers(0, 8, 10), rng.integers(0, 8, 10), ts,
                        rng.choice([-1, 1], 10))
        v = build_voxel_grid(s, 7)
        assert v.values.sum() == pytest.approx(10.0, abs=1e-12)

    def test_single_bin_degenerate(self):
        rng = np.random.default_rng(2)
        ts = np.sort(rng.integers(0, 2000, size=20))
        s = make_stream(rng.integers(0, 8, 20), rng.integers(0, 8, 20), ts,
                        np.ones(20, dtype=int))
        v = build_voxel_grid(s, 1)
        assert v.values.shape == (2, 8, 8)
        assert v.values[0].sum() == pytest.approx(20.0)

    def test_window_spanning_int64(self):
        # t - window_start = 5 + 2**63 leaves int64; t* is ~4.5 of bins 0..9
        s = make_stream([3], [4], [5], [1], t0=-2**63, t1=2**63 - 1)
        v = build_voxel_grid(s, 10)
        assert v.values[4, 4, 3] == pytest.approx(0.5)
        assert v.values[5, 4, 3] == pytest.approx(0.5)
        assert v.values.sum() == pytest.approx(1.0)

    def test_shifted_window_grid_bit_identical(self):
        rng = np.random.default_rng(4)
        ts = np.sort(rng.integers(0, 2000, size=40))
        xs, ys, ps = rng.integers(0, 8, 40), rng.integers(0, 8, 40), rng.choice([-1, 1], 40)
        base = build_voxel_grid(make_stream(xs, ys, ts, ps), 7).values
        for shift in (2**60, -2**63, 2**63 - 2001):
            moved = make_stream(xs, ys, ts + shift, ps, t0=shift, t1=shift + 2000)
            assert build_voxel_grid(moved, 7).values.tobytes() == base.tobytes()

    def test_integer_grid_point_goes_to_single_bin(self):
        # span 2000, B=5: t=500 gives t*=1.0 exactly; all weight in bin 1.
        s = make_stream([0], [0], [500], [1])
        v = build_voxel_grid(s, 5)
        assert v.values[1, 0, 0] == 1.0
        assert np.count_nonzero(v.values) == 1


class TestSceneGenerator:
    def test_frozen_sparse30_scene(self):
        """Events and truth mask of one scene, byte for byte."""
        s, truth = generate_synthetic_scene(scene_preset("sparse30"), seed=3)
        digest = hashlib.sha256()
        for a in (s.xs, s.ys, s.ts, s.ps, truth):
            digest.update(a.tobytes())
        assert s.n_events == 6324
        assert digest.hexdigest() == \
            "591b568eb8c5604b58ca0807f1e0c24ddff04bf652570e36c933e1a24e529852"

    def test_determinism(self):
        spec = scene_preset("edge-noise")
        a, ma = generate_synthetic_scene(spec, seed=7)
        b, mb = generate_synthetic_scene(spec, seed=7)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ts, b.ts)
        np.testing.assert_array_equal(ma, mb)

    def test_zero_noise_events_stay_on_mask(self):
        base = scene_preset("edge-noise")
        spec = SceneSpec(base.width, base.height, base.duration_us,
                         base.segments, 0.0)
        s, mask = generate_synthetic_scene(spec, seed=3)
        assert s.n_events > 0
        assert mask[s.ys, s.xs].all()

    def test_swept_pixels_emit_bursts(self):
        """Each mask pixel gets >= EVENTS_PER_CROSSING consecutive-us events."""
        base = scene_preset("edge-noise")
        spec = SceneSpec(base.width, base.height, base.duration_us,
                         base.segments, 0.0)
        need = EVENTS_PER_CROSSING
        s, mask = generate_synthetic_scene(spec, seed=3)
        for y, x in zip(*np.nonzero(mask)):
            t = np.sort(s.ts[(s.xs == x) & (s.ys == y)])
            assert len(t) >= need
            runs = np.split(t, np.nonzero(np.diff(t) != 1)[0] + 1)
            assert max(len(r) for r in runs) >= need

    def test_spatial_ratio_of_sparse_preset(self):
        s, _ = generate_synthetic_scene(scene_preset("sparse30"), seed=11)
        assert 0.15 <= event_spatial_ratio(s) <= 0.40

    def test_noise_count_poisson(self):
        """Observed noise-event total over 100 seeds within 4 sigma."""
        spec = scene_preset("noise-only")
        per_scene = (spec.noise_rate * spec.duration_us / 1e6
                     * spec.width * spec.height)
        total = sum(
            generate_synthetic_scene(spec, seed=s)[0].n_events
            for s in range(100)
        )
        mean = 100 * per_scene
        assert abs(total - mean) <= 4.0 * np.sqrt(mean)


def _write_and_load(tmp_path, text):
    (tmp_path / "e.csv").write_text(text)
    return load_events(tmp_path / "e.csv")


@pytest.mark.parametrize("call,error", [
    (lambda tmp: EventStream([], [], [], [], 0, 8, 0, 10), ValidationError),
    (lambda tmp: EventStream([], [], [], [], 8, 8, 10, 5), ValidationError),
    (lambda tmp: _write_and_load(tmp, "W=8,H=x\nx,y,t,p\n"), FormatError),
    (lambda tmp: _write_and_load(tmp, "W=8,H=8\nx,y,p,t\n"), FormatError),
    (lambda tmp: _write_and_load(tmp, "W=8,H=8\nx,y,t,p\n1,2,3\n"), FormatError),
    (lambda tmp: save_events(make_stream([1], [1], [2**32], [1], t1=2**32), tmp / "e.bin"),
     ValidationError),
    (lambda tmp: generate_synthetic_scene(SceneSpec(8, 8, 0, (), 0.0), seed=0), ConfigError),
    (lambda tmp: generate_synthetic_scene(SceneSpec(8, 8, 1000, (), -1.0), seed=0), ConfigError),
    (lambda tmp: generate_synthetic_scene(
        SceneSpec(8, 8, 1000, (EdgeSegment(2, 2, 2, 2, 0.0, 0.0),), 0.0), seed=0), ConfigError),
    (lambda tmp: scene_preset("no-such-scene"), ConfigError),
    (lambda tmp: build_voxel_grid(make_stream([1], [1], [5], [1]), 0), ConfigError),
    (lambda tmp: build_voxel_grid(make_stream([1], [1], [5], [1], t0=5, t1=5), 2), ConfigError),
], ids=["zero-width", "window-reversed", "csv-non-integer-geometry", "csv-bad-header",
        "csv-three-fields", "bin-offset-beyond-u32", "zero-duration", "negative-noise",
        "zero-area-segment", "unknown-preset", "zero-bins", "zero-span-bins"])
def test_refusals(tmp_path, call, error):
    with pytest.raises(error):
        call(tmp_path)
