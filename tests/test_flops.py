"""FLOP accounting: runtime meters, analytic closed forms, reports.

Convention under test: one multiply-accumulate is 2 FLOPs, elementwise
ops are 1 per element.  Token-wise blocks (names suffixed .ss2d / .mlp)
must scale exactly linearly with the kept ratio in the analytic model,
and the measured meters equal it exactly.
"""

import json

import numpy as np
import pytest

from sparsescan.acceptance import SMALL_CONFIG as SMALL
from sparsescan.backbone import BackboneConfig, init_backbone_params
from sparsescan.errors import ConfigError
from sparsescan.event_io import build_voxel_grid, generate_synthetic_scene, scene_preset, \
    split_windows
from sparsescan.flops import (
    NULL_METER,
    FlopsMeter,
    count_analytic,
    is_token_wise,
    measure,
)
from sparsescan.stca import run_stca


def small_case(seed=0, p_keep=0.5):
    rng = np.random.default_rng(seed)
    g = SMALL.grid(0)
    voxels = rng.standard_normal((2 * SMALL.bins, SMALL.height, SMALL.width))
    scores = rng.uniform(0, 1, size=g)
    keep = rng.random(g) < p_keep
    keep.flat[0] = True
    return voxels, keep, scores


class TestMeter:
    def test_mac_counts_double(self):
        m = FlopsMeter()
        m.macs("blk", 10)
        assert m.flops["blk"] == 20

    def test_elem_counts_single(self):
        m = FlopsMeter()
        m.elem("blk", 10)
        assert m.flops["blk"] == 10

    def test_total_sums_blocks(self):
        m = FlopsMeter()
        m.macs("a", 3)
        m.elem("b", 4)
        assert sum(m.flops.values()) == 10

    def test_null_meter_is_silent(self):
        NULL_METER.macs("x", 100)
        NULL_METER.elem("x", 100)
        assert NULL_METER.flops == {}

    def test_token_wise_suffix_rule(self):
        assert is_token_wise("stage1.ss2d")
        assert is_token_wise("stage2.mlp")
        assert not is_token_wise("stage3.gci")
        assert not is_token_wise("stage1.lstm")
        assert not is_token_wise("embed")


class TestAnalytic:
    def test_ratio_one_reduction_zero(self):
        r = count_analytic(SMALL, [1.0, 1.0, 1.0, 1.0])
        assert r.sparse_total == r.dense_total
        assert r.reduction == 0.0

    def test_token_wise_blocks_scale_linearly(self):
        r = count_analytic(SMALL, [0.5, 0.5, 0.5, 0.5])
        for name, cost in r.blocks.items():
            if is_token_wise(name):
                assert cost.sparse == pytest.approx(0.5 * cost.dense)
            else:
                assert cost.sparse == cost.dense

    def test_monotone_in_ratio(self):
        lo = count_analytic(SMALL, [0.2, 0.5, 0.5, 0.5]).sparse_total
        hi = count_analytic(SMALL, [0.4, 0.5, 0.5, 0.5]).sparse_total
        assert lo <= hi

    def test_timesteps_multiplier(self):
        one = count_analytic(SMALL, [0.5] * 4, timesteps=1)
        three = count_analytic(SMALL, [0.5] * 4, timesteps=3)
        assert three.dense_total == 3 * one.dense_total
        assert three.sparse_total == 3 * one.sparse_total

    @pytest.mark.parametrize("timesteps", [-2, -1, 1.5, 2.0, True, "3", None])
    def test_timesteps_not_a_non_negative_int_rejected(self, timesteps):
        with pytest.raises(ConfigError, match="timesteps must be a non-negative int"):
            count_analytic(SMALL, [0.5] * 4, timesteps=timesteps)

    def test_zero_or_numpy_int_timesteps_accepted(self):
        r = count_analytic(SMALL, [0.5] * 4, timesteps=0)
        assert r.dense_total == r.sparse_total == 0
        assert count_analytic(SMALL, [0.5] * 4, timesteps=np.int64(3)).dense_total \
            == count_analytic(SMALL, [0.5] * 4, timesteps=3).dense_total

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            count_analytic(SMALL, [1.5, 0.5, 0.5, 0.5])
        with pytest.raises(ConfigError):
            count_analytic(SMALL, [0.5, 0.5])


class TestMeasured:
    def test_dense_run_matches_analytic(self):
        voxels, _, scores = small_case(seed=1)
        keep = np.ones(SMALL.grid(0), dtype=bool)
        params = init_backbone_params(SMALL, seed=1)
        measured = measure(SMALL, params, [voxels], scores, keep)
        analytic = count_analytic(SMALL, [1.0] * 4)
        for name, cost in measured.blocks.items():
            ref = analytic.blocks[name].dense
            assert cost.dense == ref, name

    def test_token_wise_ratio_equals_kept_ratio(self):
        voxels, keep, scores = small_case(seed=2, p_keep=0.4)
        params = init_backbone_params(SMALL, seed=2)
        r = measure(SMALL, params, [voxels], scores, keep)
        for name, cost in r.blocks.items():
            if is_token_wise(name) and cost.dense:
                stage = int(name[5]) - 1
                assert cost.sparse / cost.dense == pytest.approx(
                    r.kept_ratios[stage], abs=1e-12), name

    def test_empty_keep_zeroes_token_wise_blocks(self):
        voxels, _, scores = small_case(seed=3)
        keep = np.zeros(SMALL.grid(0), dtype=bool)
        params = init_backbone_params(SMALL, seed=3)
        r = measure(SMALL, params, [voxels], scores, keep)
        for name, cost in r.blocks.items():
            if is_token_wise(name):
                assert cost.sparse == 0, name

    def test_recurrent_conv_counted_on_fresh_state(self):
        """The ConvLSTM skips its recurrent conv on a zero state; the meter
        still counts it, so measured blocks equal the analytic ones."""
        voxels, keep, scores = small_case(seed=3)
        params = init_backbone_params(SMALL, seed=0)
        r = measure(SMALL, params, [voxels, voxels], scores, keep)
        analytic = count_analytic(SMALL, r.kept_ratios, timesteps=2)
        assert {n: (b.dense, b.sparse) for n, b in r.blocks.items()} == \
            {n: (b.dense, b.sparse) for n, b in analytic.blocks.items()}
        lstm = {n: b.dense for n, b in r.blocks.items() if n.endswith(".lstm")}
        assert lstm == {"stage1.lstm": 1192960, "stage2.lstm": 668544,
                        "stage3.lstm": 296576, "stage4.lstm": 166512}
        assert (r.dense_total, r.sparse_total) == (4021984, 3614816)

    @pytest.mark.parametrize("preset, timesteps", [("sparse30", 1), ("edge-noise", 4)])
    def test_default_config_matches_analytic_exactly(self, preset, timesteps):
        """At the default 64x64 config, on a scene's STCA mask and the
        sequential scan, every block's dense and sparse count equals the
        closed form."""
        cfg = BackboneConfig()
        stream, _ = generate_synthetic_scene(scene_preset(preset), seed=0)
        res = run_stca(stream, patch=cfg.patch)
        voxels = [build_voxel_grid(sub, cfg.bins) for sub in split_windows(stream, timesteps)]
        r = measure(cfg, init_backbone_params(cfg), voxels, res.scores, res.keep)
        analytic = count_analytic(cfg, r.kept_ratios, timesteps=timesteps)
        assert 0.0 < r.kept_ratios[0] < 1.0
        assert {n: (b.dense, b.sparse) for n, b in r.blocks.items()} == \
            {n: (b.dense, b.sparse) for n, b in analytic.blocks.items()}

    def test_parallel_runs_keep_every_block_but_ss2d_on_the_closed_form(self):
        """parallel=True hands only the SS2D token scans to the recursive
        doubling, whose meter counts its passes; GCI's channel scans stay
        sequential, so the stage3.gci and stage4.gci counts equal the closed form."""
        cfg = BackboneConfig()
        stream, _ = generate_synthetic_scene(scene_preset("edge-noise"), seed=0)
        res = run_stca(stream, patch=cfg.patch)
        voxels = [build_voxel_grid(sub, cfg.bins) for sub in split_windows(stream, 4)]
        r = measure(cfg, init_backbone_params(cfg), voxels, res.scores, res.keep,
                    parallel=True)
        analytic = count_analytic(cfg, r.kept_ratios, timesteps=4)
        off = {n for n, b in r.blocks.items()
               if (b.dense, b.sparse) != (analytic.blocks[n].dense, analytic.blocks[n].sparse)}
        assert {"stage3.gci", "stage4.gci"} <= r.blocks.keys()
        assert off and all(n.endswith(".ss2d") for n in off)

    def test_reduction_on_sparse_scene(self):
        """Desk config on a ~30% spatial-ratio scene lands in [0.20, 0.35]."""
        cfg = BackboneConfig()
        stream, _ = generate_synthetic_scene(scene_preset("sparse30"), seed=4)
        voxels = build_voxel_grid(stream, cfg.bins)
        res = run_stca(stream, patch=cfg.patch)
        params = init_backbone_params(cfg, seed=4)
        r = measure(cfg, params, [voxels.values], res.scores, res.keep)
        assert 0.20 <= r.reduction <= 0.35


class TestReport:
    def test_to_dict_shape(self):
        r = count_analytic(SMALL, [0.5] * 4)
        d = r.to_dict()
        assert set(d) == {"blocks", "kept_ratios", "totals", "reduction"}
        blk = d["blocks"]["stage1.ss2d"]
        assert set(blk) == {"dense", "sparse", "ratio", "token_wise"}
        assert d["totals"]["dense"] == r.dense_total

    def test_save_json(self, tmp_path):
        r = count_analytic(SMALL, [0.5] * 4)
        p = tmp_path / "report.json"
        r.save_json(p)
        loaded = json.loads(p.read_text())
        assert loaded["reduction"] == pytest.approx(r.reduction)

    def test_table_mentions_every_block(self):
        r = count_analytic(SMALL, [0.5] * 4)
        text = r.table()
        for name in r.blocks:
            assert name in text
