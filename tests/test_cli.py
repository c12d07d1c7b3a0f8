"""Command-line interface, exercised in-process through main(argv).

Exit code contract: 0 success, 1 domain/file errors, 2 usage errors
(argparse raises SystemExit for those).
"""

import hashlib
import json

import numpy as np
import pytest

from sparsescan.acceptance import CriterionResult
from sparsescan.backbone import BackboneConfig, StagePlan, count_params
from sparsescan.cli import _BUDGET_BYTES, _gen_bytes, main
from sparsescan.event_io import EventStream, generate_synthetic_scene, load_events, \
    save_events, scene_preset
from sparsescan.stca import run_stca


def _refuse_generation(spec, seed):
    raise AssertionError("scene generated")


def _refuse_stca(*args, **kwargs):
    raise AssertionError("STCA ran")


def _refuse_params(*args, **kwargs):
    raise AssertionError("parameters drawn")


def write_csv(path, geometry, rows=()):
    path.write_text(geometry + "\nx,y,t,p\n" + "".join(f"{r}\n" for r in rows))
    return path


def run_gen(tmp_path, name="scene.evt", seed="7", preset="edge-noise"):
    out = tmp_path / name
    rc = main(["gen", "--preset", preset, "--seed", seed, "-o", str(out)])
    assert rc == 0
    return out


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a = run_gen(tmp_path, "a.evt")
        b = run_gen(tmp_path, "b.evt")
        assert a.read_bytes() == b.read_bytes()

    def test_csv_extension_writes_text(self, tmp_path):
        out = run_gen(tmp_path, "scene.csv")
        first = out.read_text().splitlines()[0]
        assert first.startswith("W=")

    def test_truth_mask_written(self, tmp_path):
        out = tmp_path / "scene.evt"
        truth = tmp_path / "truth.pgm"
        rc = main(["gen", "--preset", "edge-noise", "--seed", "1",
                   "-o", str(out), "--truth", str(truth)])
        assert rc == 0
        assert truth.read_bytes().startswith(b"P5")

    @pytest.mark.parametrize("flag,value", [("--width", "-5"), ("--height", "0")])
    def test_nonpositive_size_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.bin"
        rc = main(["gen", "--preset", "sparse30", flag, value, "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "positive" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["1", "3"])
    def test_window_shorter_than_burst_rejected(self, tmp_path, capsys, duration):
        out = tmp_path / "x.bin"
        rc = main(["gen", "--preset", "sparse30", "--duration-us", duration, "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: a 5-event edge burst needs a window of at least 4 us, got {duration} us\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["sparse30", "edge-noise"])
    def test_zero_duration_rejected(self, tmp_path, capsys, preset):
        out = tmp_path / "x.bin"
        assert main(["gen", "--preset", preset, "--duration-us", "0", "-o", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: scene duration must be positive and inside int64, got 0\n"
        assert not out.exists()

    def test_window_fitting_one_burst(self, tmp_path):
        out = tmp_path / "x.bin"
        assert main(["gen", "--preset", "sparse30", "--duration-us", "4", "-o", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("flag,value", [("--width", "65536"), ("--height", "1000000000")])
    def test_binary_geometry_beyond_u16_refused_before_generation(
            self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr("sparsescan.cli.generate_synthetic_scene", _refuse_generation)
        out = tmp_path / "x.bin"
        assert main(["gen", "--preset", "sparse30", flag, value, "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: sensor geometry exceeds u16 range\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["x.csv", "x.bin"])
    def test_geometry_over_budget_refused_before_generation(
            self, tmp_path, capsys, monkeypatch, out):
        calls = []
        monkeypatch.setattr("sparsescan.cli.generate_synthetic_scene",
                            lambda spec, seed: calls.append(spec) or generate_synthetic_scene(spec, seed))
        need = _gen_bytes(scene_preset("sparse30", width=32, height=24))
        monkeypatch.setattr("sparsescan.cli._BUDGET_BYTES", need)
        argv = ["gen", "--preset", "sparse30", "--width", "32", "-o", str(tmp_path / out)]
        assert main(argv + ["--height", "24"]) == 0
        assert len(calls) == 1
        capsys.readouterr()
        assert main(argv + ["--height", "25"]) == 1
        over = _gen_bytes(scene_preset("sparse30", width=32, height=25))
        assert capsys.readouterr().err == (
            f"error: a 32x25 scene needs an estimated {over} bytes of per-pixel "
            f"and event arrays, above the {need}-byte limit\n")
        assert len(calls) == 1

    @pytest.mark.parametrize("preset", ["sparse30", "edge-noise", "noise-only"])
    def test_events_counted_in_budget(self, tmp_path, capsys, monkeypatch, preset):
        # the per-pixel arrays alone (9 bytes per pixel) fit; the events do not
        monkeypatch.setattr("sparsescan.cli._BUDGET_BYTES", 2 * 9 * 64 * 64)
        monkeypatch.setattr("sparsescan.cli.generate_synthetic_scene", _refuse_generation)
        out = tmp_path / "x.bin"
        assert main(["gen", "--preset", preset, "-o", str(out)]) == 1
        assert "bytes of per-pixel and event arrays" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_csv_geometry_refused_at_once(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        side = str(10**6)
        assert main(["gen", "--preset", "sparse30", "--width", side, "--height", side,
                     "-o", str(out)]) == 1
        assert "bytes of per-pixel and event arrays" in capsys.readouterr().err
        assert not out.exists()


class TestStca:
    def test_mask_dimensions(self, tmp_path):
        scene = run_gen(tmp_path)
        mask = tmp_path / "mask.pgm"
        rc = main(["stca", str(scene), "-o", str(mask), "--beta", "1.0"])
        assert rc == 0
        header = mask.read_bytes().split(b"\n", 2)
        w, h = header[1].split()
        assert (int(w), int(h)) == (16, 16)  # 64/4 token grid

    @pytest.mark.parametrize("name", ["mask.PGM", "mask.Pgm"])
    def test_pgm_suffix_in_any_case_writes_pgm(self, tmp_path, name):
        scene = run_gen(tmp_path)
        mask = tmp_path / name
        assert main(["stca", str(scene), "-o", str(mask)]) == 0
        assert mask.read_bytes().startswith(b"P5\n16 16\n")

    def test_scores_csv(self, tmp_path):
        scene = run_gen(tmp_path)
        mask = tmp_path / "mask.csv"
        scores = tmp_path / "scores.csv"
        rc = main(["stca", str(scene), "-o", str(mask),
                   "--scores", str(scores)])
        assert rc == 0
        s = np.loadtxt(scores, delimiter=",", ndmin=2)
        assert s.shape == (16, 16)
        assert (s >= 0).all()

    @pytest.mark.parametrize("flag", ["--beta", "--sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_value_rejected(self, tmp_path, capsys, flag, value):
        scene = run_gen(tmp_path)
        assert main(["stca", str(scene), flag, value]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix,suffix", [(b"\xef\xbb\xbf", b""), (b"", b"1,2,\xff,1\n")],
                             ids=["utf8-bom", "byte-ff"])
    def test_non_ascii_csv_rejected(self, tmp_path, capsys, prefix, suffix):
        scene = run_gen(tmp_path, "scene.csv")
        scene.write_bytes(prefix + scene.read_bytes() + suffix)
        assert main(["stca", str(scene)]) == 1
        err = capsys.readouterr().err
        assert "not ASCII" in err and str(scene) in err and "Traceback" not in err

    def test_input_not_mutated(self, tmp_path):
        scene = run_gen(tmp_path)
        digest = hashlib.sha256(scene.read_bytes()).hexdigest()
        main(["stca", str(scene), "-o", str(tmp_path / "m.csv")])
        assert hashlib.sha256(scene.read_bytes()).hexdigest() == digest


class TestScanViz:
    def test_stdout_header_and_rows(self, tmp_path, capsys):
        scene = run_gen(tmp_path)
        capsys.readouterr()  # drop gen's status line
        rc = main(["scan-viz", str(scene), "--order", "ipl"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "position,row,col"
        assert len(lines) > 1
        # every body row is position,row,col integers
        for pos, line in enumerate(lines[1:]):
            p, r, c = (int(v) for v in line.split(","))
            assert p == pos

    def test_file_output_bijection(self, tmp_path):
        scene = run_gen(tmp_path)
        out = tmp_path / "order.csv"
        rc = main(["scan-viz", str(scene), "--order", "bidi-backward",
                   "-o", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        coords = {tuple(map(int, r.split(",")[1:])) for r in rows}
        assert len(coords) == len(rows)  # no coordinate repeats

    def test_bidi_rows_row_major_and_reversed(self, tmp_path):
        scene = run_gen(tmp_path)
        mask = tmp_path / "mask.csv"
        assert main(["stca", str(scene), "-o", str(mask)]) == 0
        rows = {}
        for order in ("bidi-forward", "bidi-backward"):
            out = tmp_path / f"{order}.csv"
            assert main(["scan-viz", str(scene), "--order", order, "-o", str(out)]) == 0
            body = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
            np.testing.assert_array_equal(body[:, 0], np.arange(len(body)))
            rows[order] = body[:, 1:]
        kept = np.argwhere(np.loadtxt(mask, delimiter=",", ndmin=2).astype(bool))
        assert len(kept) > 1
        np.testing.assert_array_equal(rows["bidi-forward"], kept)
        np.testing.assert_array_equal(rows["bidi-backward"], kept[::-1])

    @pytest.mark.parametrize("order", ["bidi-forward", "bidi-backward", "ipl"])
    def test_no_kept_token_writes_header_only(self, tmp_path, order):
        """A tiny beta overflows the threshold, so no token is kept."""
        scene = run_gen(tmp_path)
        out = tmp_path / "order.csv"
        assert main(["scan-viz", str(scene), "--order", order, "--beta", "1e-300",
                     "-o", str(out)]) == 0
        assert out.read_text() == "position,row,col\n"

    # token grids 16x16 (IPL window 2) and 11x11 (IPL window 1)
    @pytest.mark.parametrize("size", [64, 44])
    def test_ipl_rows_are_the_stage_plan(self, tmp_path, size):
        scene = tmp_path / "scene.bin"
        assert main(["gen", "--preset", "sparse30", "--width", str(size),
                     "--height", str(size), "-o", str(scene)]) == 0
        out = tmp_path / "ipl.csv"
        assert main(["scan-viz", str(scene), "--order", "ipl", "-o", str(out)]) == 0
        body = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        res = run_stca(load_events(scene), patch=4)
        plan = StagePlan.build(res.keep, res.scores)
        np.testing.assert_array_equal(body[:, 0], np.arange(len(plan.ipl)))
        np.testing.assert_array_equal(body[:, 1:], plan.coords[plan.ipl])


class TestScoreMapBudget:
    """stca and scan-viz refuse a sensor whose float64 (H, W) score map
    is above the budget before scoring it."""

    @pytest.mark.parametrize("command", ["stca", "scan-viz"])
    def test_huge_csv_geometry_refused(self, tmp_path, capsys, monkeypatch, command):
        scene = write_csv(tmp_path / "huge.csv", "W=3000000000,H=3000000000")
        monkeypatch.setattr("sparsescan.cli.run_stca", _refuse_stca)
        assert main([command, str(scene)]) == 1
        assert capsys.readouterr().err == (
            f"error: a 3000000000x3000000000 sensor needs a {8 * 9 * 10**18}-byte score map, "
            f"above the {_BUDGET_BYTES}-byte limit\n")

    @pytest.mark.parametrize("command", ["stca", "scan-viz"])
    def test_smallest_square_over_budget_refused(self, tmp_path, capsys, monkeypatch,
                                                  command):
        assert 8 * 11585 ** 2 <= _BUDGET_BYTES < 8 * 11586 ** 2
        monkeypatch.setattr("sparsescan.cli.run_stca", _refuse_stca)
        scene = write_csv(tmp_path / "over.csv", "W=11586,H=11586")
        assert main([command, str(scene)]) == 1
        assert "score map" in capsys.readouterr().err
        scene = write_csv(tmp_path / "under.csv", "W=11585,H=11585")
        with pytest.raises(AssertionError, match="STCA ran"):
            main([command, str(scene)])

    def test_u16_max_binary_header_refused(self, tmp_path, capsys, monkeypatch):
        scene = tmp_path / "wide.bin"
        save_events(EventStream([], [], [], [], 0xFFFF, 0xFFFF, 0, 10), scene)
        monkeypatch.setattr("sparsescan.cli.run_stca", _refuse_stca)
        assert main(["stca", str(scene)]) == 1
        assert "score map" in capsys.readouterr().err


class TestForward:
    @pytest.mark.parametrize("t0", [None, -2**63])
    def test_window_end_at_int64_max_runs(self, tmp_path, capsys, t0):
        geometry = "W=64,H=64" + ("" if t0 is None else f",T0={t0}") + f",T1={2**63 - 1}"
        scene = write_csv(tmp_path / "far.csv", geometry,
                          ["1,2,5,1", "3,4,4611686018427387904,-1", f"5,6,{2**63 - 1},1"])
        assert main(["forward", str(scene), "--timesteps", "2"]) == 0
        assert capsys.readouterr().out.startswith("2 timestep(s)")

    def test_report_ratio_matches_mask(self, tmp_path):
        scene = run_gen(tmp_path, preset="sparse30")
        mask = tmp_path / "mask.csv"
        assert main(["stca", str(scene), "-o", str(mask)]) == 0
        report = tmp_path / "flops.json"
        rc = main(["forward", str(scene), "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        kept = np.loadtxt(mask, delimiter=",", ndmin=2).astype(bool).mean()
        blk = doc["blocks"]["stage1.ss2d"]
        assert blk["sparse"] / blk["dense"] == pytest.approx(kept, abs=0.02)

    def test_nan_beta_rejected(self, tmp_path):
        scene = run_gen(tmp_path)
        assert main(["forward", str(scene), "--beta", "nan"]) == 1

    def test_bad_timesteps_rejected(self, tmp_path):
        scene = run_gen(tmp_path)
        assert main(["forward", str(scene), "--timesteps", "0"]) == 1

    def test_timesteps_beyond_span_refused_before_split(self, tmp_path, capsys, monkeypatch):
        scene = tmp_path / "short.bin"
        assert main(["gen", "--preset", "sparse30", "--width", "32", "--height", "32",
                     "--duration-us", "6", "-o", str(scene)]) == 0
        splits = []
        monkeypatch.setattr("sparsescan.cli.split_windows",
                            lambda stream, n: splits.append(n) or [stream] * n)
        capsys.readouterr()
        assert main(["forward", str(scene), "--timesteps", "7"]) == 1
        assert capsys.readouterr().err == (
            "error: --timesteps 7 exceeds the stream's span of 6 us; "
            "each timestep needs at least 1 us\n")
        assert splits == []
        assert main(["forward", str(scene), "--timesteps", "6"]) == 0
        assert splits == [6]

    def test_voxel_budget_refused_before_split(self, tmp_path, capsys, monkeypatch):
        scene = tmp_path / "scene.bin"
        assert main(["gen", "--preset", "sparse30", "--width", "32", "--height", "32",
                     "-o", str(scene)]) == 0
        splits = []
        monkeypatch.setattr("sparsescan.cli.split_windows",
                            lambda stream, n: splits.append(n) or [stream] * n)
        def need(t, b):   # float64 bytes of T (2B, 32, 32) voxel grids plus the parameters
            return 8 * (2 * b * t * 32 * 32 + count_params(BackboneConfig(32, 32, bins=b)))

        monkeypatch.setattr("sparsescan.cli._BUDGET_BYTES", need(2, 3))
        capsys.readouterr()
        assert main(["forward", str(scene), "--timesteps", "2", "-B", "3"]) == 0
        assert splits == [2]
        for t, b in ((3, 3), (2, 4)):
            assert main(["forward", str(scene), "--timesteps", str(t), "-B", str(b)]) == 1
            assert capsys.readouterr().err == (
                f"error: --timesteps {t} and -B {b} need an estimated {need(t, b)} bytes "
                f"of voxel grids and parameters, above the {need(2, 3)}-byte limit\n")
        assert splits == [2]

    def test_parameter_budget_refused_before_init(self, tmp_path, capsys, monkeypatch):
        """A 2048x2048 sensor's parameters alone are 4.4 GiB (stage 3's GCI
        w_dt is 2 GiB): refused before any is drawn."""
        scene = write_csv(tmp_path / "big.csv", "W=2048,H=2048")
        monkeypatch.setattr("sparsescan.cli.init_backbone_params", _refuse_params)
        monkeypatch.setattr("sparsescan.cli.run_stca", _refuse_stca)
        assert main(["forward", str(scene)]) == 1
        params = 8 * count_params(BackboneConfig(2048, 2048))
        need = 8 * 2 * 10 * 2048 * 2048 + params
        assert need - params < _BUDGET_BYTES < params   # the voxel grid alone would fit
        assert capsys.readouterr().err == (
            f"error: --timesteps 1 and -B 10 need an estimated {need} bytes of voxel grids "
            f"and parameters, above the {_BUDGET_BYTES}-byte limit\n")

    def test_paper_geometry_fits_the_budget(self):
        """1280x736 at T=1: 150 MB of voxel grid and 317 MiB of parameters."""
        cfg = BackboneConfig(height=736, width=1280)
        assert 8 * (2 * 10 * 736 * 1280 + count_params(cfg)) < _BUDGET_BYTES


class TestExitCodes:
    def test_missing_input_is_domain_error(self, tmp_path, capsys):
        rc = main(["stca", str(tmp_path / "nope.evt"),
                   "-o", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err != ""

    def test_memory_error_is_domain_error(self, monkeypatch, capsys):
        def out_of_memory(args):
            raise MemoryError
        monkeypatch.setattr("sparsescan.cli.cmd_gen", out_of_memory)
        assert main(["gen", "--preset", "sparse30", "-o", "x.bin"]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["scan-viz", "x.bin", "-k", "2"],
                                      ["forward", "x.bin", "--parallel"],
                                      ["scan-viz", "x.bin", "-P", "8"]])
    def test_removed_scan_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bad_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--preset", "bogus", "-o", "x.evt"])
        assert exc.value.code == 2


class TestBench:
    def test_prints_one_row_per_scene(self, tmp_path, capsys):
        rc = main(["bench", "--scenes", "2", "--preset", "sparse30",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "saved" in out
        rows = [line.split()[0] for line in out.splitlines()[2:-1]]
        assert rows == ["0", "1"]

    def test_row_printed_before_next_scene(self, capsys, monkeypatch):
        printed = []

        def spy(spec, seed):
            printed.append(capsys.readouterr().out)
            return generate_synthetic_scene(spec, seed)

        monkeypatch.setattr("sparsescan.cli.generate_synthetic_scene", spy)
        assert main(["bench", "--scenes", "2", "--seed", "3"]) == 0
        assert [line.split()[0] for line in printed[1].splitlines()] == ["0"]

    @pytest.mark.parametrize("scenes", ["0", "-3"])
    def test_nonpositive_scene_count_rejected(self, scenes, capsys):
        rc = main(["bench", "--scenes", scenes])
        assert rc == 1
        assert "--scenes" in capsys.readouterr().err


class TestSelftest:
    """cmd_selftest's verdict over a stubbed battery of ten criteria."""

    @staticmethod
    def stub_battery(monkeypatch, passed=(True,) * 10, seconds=0.1):
        def run_all(verbose=False):
            return [CriterionResult(f"c{i}", ok, "stub", seconds) for i, ok in enumerate(passed)]

        monkeypatch.setattr("sparsescan.acceptance.run_all", run_all)

    def test_every_criterion_passing_exits_zero(self, monkeypatch, capsys):
        self.stub_battery(monkeypatch)
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS  battery runtime" in out and "11/11 criteria passed" in out

    def test_one_failing_criterion_exits_one(self, monkeypatch, capsys):
        self.stub_battery(monkeypatch, passed=(True,) * 9 + (False,))
        assert main(["selftest"]) == 1
        assert "10/11 criteria passed" in capsys.readouterr().out

    def test_battery_over_budget_exits_one(self, monkeypatch, capsys):
        self.stub_battery(monkeypatch, seconds=6.0)     # 60 s in all: the budget is < 60 s
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  battery runtime: 60.0s" in out and "10/11 criteria passed" in out


HUGE = str(10**30)
SCENE = "{scene}"      # replaced by a 32x32 sparse30 binary scene


def _sweep_cases():
    """Degenerate values for every flag that takes one, per subcommand.

    Left out: values that make the program allocate or loop in proportion
    to the value (gen --width/--height whose per-pixel arrays fit the 1 GiB
    budget, forward --timesteps and -B values whose voxel grids fit it,
    bench --scenes), and gen --duration-us values whose events would fit
    in memory: only durations that fail at once are fed.
    """
    gen = ["gen", "--preset", "noise-only", "--width", "2", "--height", "2", "-o", "{out}"]
    gen_bin = gen[:-1] + ["{out_bin}"]
    gen_wide = ["gen", "--preset", "sparse30", "--width", str(10**6), "-o", "{out}"]
    stca = ["stca", SCENE, "-o", "{out}"]
    viz = ["scan-viz", SCENE, "-o", "{out}"]
    fwd = ["forward", SCENE]
    table = [
        (gen, "--seed", ["0", "-1", HUGE]),
        (gen, "--width", ["0", "-1", "1", HUGE]),
        (gen, "--height", ["0", "-1", "1", HUGE]),
        (gen_wide, "--height", [str(10**6), HUGE, "-1"]),
        (gen_bin, "--width", ["65536", HUGE]),
        (gen_bin, "--height", ["65536", HUGE]),
        (gen, "--duration-us", ["0", "-1", "1", str(2**63 - 1), str(2**63), HUGE]),
        (stca, "--beta", ["0", "-1", "1e-320", "5e-324", "1e300"]),
        (stca, "--sigma", ["0", "-1", "1e-100", "1e-160", "1e-200", "5e-324", "1e300"]),
        (stca, "--radius", ["0", "-1", "100000000", HUGE]),
        (stca + ["--sigma", "1e-300"], "--radius", ["0"]),
        (stca, "--patch", ["0", "-1", "1", "3", HUGE]),
        (viz, "--beta", ["0", "1e-320", "1e300"]),
        (viz, "--order", ["bidi-backward"]),
        (fwd, "--seed", ["-1", HUGE]),
        (fwd, "--timesteps", ["0", "-1", "50000", "100001", HUGE]),
        (fwd, "--bins", ["0", "-1", "1", "100000", HUGE]),
        (fwd, "--beta", ["0", "1e-320", "1e300"]),
        (["bench"], "--scenes", ["0", "-1"]),
        (["bench", "--scenes", "1"], "--seed", ["-1"]),
        (["selftest"], "--no-such-flag", ["1"]),
    ]
    return [base + [flag, v] for base, flag, values in table for v in values]


class TestSweep:
    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sweep") / "scene.bin"
        assert main(["gen", "--preset", "sparse30", "--width", "32", "--height", "32",
                     "-o", str(path)]) == 0
        return path

    @pytest.mark.parametrize("argv", _sweep_cases(), ids=" ".join)
    def test_degenerate_value(self, argv, scene, tmp_path, capsys):
        argv = [a.format(scene=scene, out=tmp_path / "out.csv", out_bin=tmp_path / "out.bin")
                for a in argv]
        capsys.readouterr()
        try:
            rc = main(argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
        assert "nan" not in out.lower()
        if rc == 1:
            assert err.startswith("error: ")
