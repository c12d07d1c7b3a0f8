"""Event stream I/O, the synthetic scene generator, and voxelization.

Frozen example values come first in each class; statistical checks
(Poisson noise counts) run last since they are the slow ones.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsescan.errors import SparseScanError
from sparsescan.event_io import (
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

    # a span beyond the u64 header field; an offset 2**62 + 2**63 that int64 wraps
    @pytest.mark.parametrize("t0,t1,t", [(0, 2**70, 5), (-2**63, 2**62, 2**62)])
    def test_window_beyond_format_range_rejected(self, tmp_path, t0, t1, t):
        s = make_stream([1], [2], [t], [1], t0=t0, t1=t1)
        with pytest.raises(ValidationError, match="range"):
            save_events(s, tmp_path / "w.bin")


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

    def test_timestamp_outside_window(self):
        with pytest.raises(ValidationError):
            make_stream([1], [1], [5000], [1], t1=2000)

    def test_span_property(self):
        s = make_stream([1], [1], [100], [1], t0=50, t1=900)
        assert s.span == 850


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

    def test_integer_grid_point_goes_to_single_bin(self):
        # span 2000, B=5: t=500 gives t*=1.0 exactly; all weight in bin 1.
        s = make_stream([0], [0], [500], [1])
        v = build_voxel_grid(s, 5)
        assert v.values[1, 0, 0] == 1.0
        assert np.count_nonzero(v.values) == 1


class TestSceneGenerator:
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
        """Each mask pixel gets >= events_per_crossing consecutive-us events."""
        base = scene_preset("edge-noise")
        spec = SceneSpec(base.width, base.height, base.duration_us,
                         base.segments, 0.0)
        need = base.segments[0].events_per_crossing
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
