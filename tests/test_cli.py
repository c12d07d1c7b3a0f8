"""Command-line interface, exercised in-process through main(argv).

Exit code contract: 0 success, 1 domain/file errors, 2 usage errors
(argparse raises SystemExit for those).
"""

import hashlib
import json

import numpy as np
import pytest

from sparsescan.cli import THREADS_ENV, main
from sparsescan.stca import read_map_csv


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


class TestStca:
    def test_mask_dimensions(self, tmp_path):
        scene = run_gen(tmp_path)
        mask = tmp_path / "mask.pgm"
        rc = main(["stca", str(scene), "-o", str(mask), "--beta", "1.0"])
        assert rc == 0
        header = mask.read_bytes().split(b"\n", 2)
        w, h = header[1].split()
        assert (int(w), int(h)) == (16, 16)  # 64/4 token grid

    def test_scores_csv(self, tmp_path):
        scene = run_gen(tmp_path)
        mask = tmp_path / "mask.csv"
        scores = tmp_path / "scores.csv"
        rc = main(["stca", str(scene), "-o", str(mask),
                   "--scores", str(scores)])
        assert rc == 0
        s = read_map_csv(scores)
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


class TestForward:
    def test_report_ratio_matches_mask(self, tmp_path):
        scene = run_gen(tmp_path, preset="sparse30")
        mask = tmp_path / "mask.csv"
        assert main(["stca", str(scene), "-o", str(mask)]) == 0
        report = tmp_path / "flops.json"
        rc = main(["forward", str(scene), "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        kept = read_map_csv(mask).astype(bool).mean()
        blk = doc["blocks"]["stage1.ss2d"]
        assert blk["sparse"] / blk["dense"] == pytest.approx(kept, abs=0.02)

    def test_nan_beta_rejected(self, tmp_path):
        scene = run_gen(tmp_path)
        assert main(["forward", str(scene), "--beta", "nan"]) == 1

    def test_bad_timesteps_rejected(self, tmp_path):
        scene = run_gen(tmp_path)
        assert main(["forward", str(scene), "--timesteps", "0"]) == 1


class TestExitCodes:
    def test_missing_input_is_domain_error(self, tmp_path, capsys):
        rc = main(["stca", str(tmp_path / "nope.evt"),
                   "-o", str(tmp_path / "m.csv")])
        assert rc == 1
        assert capsys.readouterr().err != ""

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--no-such-flag"])
        assert exc.value.code == 2

    def test_bad_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--preset", "bogus", "-o", "x.evt"])
        assert exc.value.code == 2


class TestBench:
    def test_runs_with_thread_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "1")
        rc = main(["bench", "--scenes", "2", "--preset", "sparse30",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "saved" in out
        assert "1 worker(s)" in out

    @pytest.mark.parametrize("scenes", ["0", "-3"])
    def test_nonpositive_scene_count_rejected(self, scenes, capsys):
        rc = main(["bench", "--scenes", scenes])
        assert rc == 1
        assert "--scenes" in capsys.readouterr().err

    def test_bad_thread_env_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv(THREADS_ENV, "zero")
        rc = main(["bench", "--scenes", "1"])
        assert rc == 1
        assert capsys.readouterr().err != ""
