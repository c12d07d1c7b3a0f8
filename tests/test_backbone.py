"""Backbone blocks and the four-stage forward pass.

Block-level identities (passthrough, residual dominance) are bit-level
requirements; the dense-reference comparison for the whole backbone
lives in the acceptance battery, so here we only pin block behavior
and the stage shape/state contracts.
"""

import copy
import dataclasses
import hashlib
import inspect
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsescan import backbone as bb
from sparsescan.acceptance import SMALL_CONFIG as SMALL
from sparsescan.backbone import (
    BackboneConfig,
    ConvLstmParams,
    GciParams,
    LstmState,
    StagePlan,
    _sparse_depthwise,
    backbone_forward,
    bidi_scan,
    convlstm_step,
    count_params,
    downsample_features,
    gci_forward,
    init_backbone_params,
    init_lstm_states,
    ipl_window,
    iter_arrays,
    load_checkpoint,
    patch_embed,
    save_checkpoint,
    sparse_mlp,
    sparse_ss2d,
)
from sparsescan.errors import ConfigError, FormatError, ShapeError
from sparsescan.event_io import build_voxel_grid, generate_synthetic_scene, scene_preset
from sparsescan.nn import conv2d_same, depthwise_conv2d, gelu, layer_norm, sigmoid
from sparsescan import s6
from sparsescan.s6 import init_s6_params, s6_forward
from sparsescan.stca import max_pool2d, run_stca


def small_inputs(seed=0, p_keep=0.5):
    rng = np.random.default_rng(seed)
    g = SMALL.grid(0)
    voxels = rng.standard_normal((2 * SMALL.bins, SMALL.height, SMALL.width))
    scores = rng.uniform(0, 1, size=g)
    keep = rng.random(g) < p_keep
    keep.flat[0] = True
    return voxels, keep, scores


class TestConfig:
    # stage-4 grids 1x1, 2x2, 3x3, 5x5 and 2x3
    @pytest.mark.parametrize("height, width, ks", [
        (32, 32, (2, 2, 2, 1)), (64, 64, (2, 2, 2, 2)), (96, 96, (2, 2, 2, 1)),
        (160, 160, (2, 2, 2, 1)), (64, 96, (2, 2, 2, 1))])
    def test_ipl_windows_derived_per_stage(self, height, width, ks):
        cfg = BackboneConfig(height=height, width=width)
        assert tuple(ipl_window(cfg.grid(s)) for s in range(cfg.n_stages)) == ks

    def test_replaced_geometry_rederives_windows(self):
        cfg = dataclasses.replace(BackboneConfig(), height=32, width=32)
        assert tuple(ipl_window(cfg.grid(s)) for s in range(cfg.n_stages)) == (2, 2, 2, 1)
        assert cfg == BackboneConfig(height=32, width=32)

    def test_fewer_stages_than_gci_rejected(self):
        with pytest.raises(ConfigError, match="stages for GCI"):
            BackboneConfig(channels=(8, 16))

    @pytest.mark.parametrize("kwargs, match", [
        ({"height": 40}, "stage 3 grid does not divide 40x64"),
        ({"bins": 0}, "must be positive"), ({"height": 0}, "must be positive"),
        ({"width": -64}, "must be positive"), ({"channels": (8, 0, 8, 8)}, "must be positive")])
    def test_invalid_config_not_constructible(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            BackboneConfig(**kwargs)
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(BackboneConfig(), **kwargs)

    @pytest.mark.parametrize("name", ["patch", "mlp_expand", "gci_stages"])
    def test_constants_not_settable(self, name):
        with pytest.raises(TypeError):
            BackboneConfig(**{name: getattr(BackboneConfig, name)})


class TestCountParams:
    @pytest.mark.parametrize("cfg", [BackboneConfig(), SMALL, BackboneConfig(96, 64, bins=3)],
                             ids=["default", "small", "96x64"])
    def test_closed_form_equals_drawn_tree(self, cfg):
        drawn = sum(a.size for _, a in iter_arrays(init_backbone_params(cfg)))
        assert count_params(cfg) == drawn


class TestPatchEmbed:
    def test_shape(self):
        rng = np.random.default_rng(32)
        v = rng.standard_normal((20, 64, 64))
        w = rng.standard_normal((32, 20 * 16))
        out = patch_embed(v, 4, w, np.zeros(32))
        assert out.shape == (16, 16, 32)

    def test_zero_grid_zero_bias(self):
        w = np.ones((8, 2 * 4))
        out = patch_embed(np.zeros((2, 4, 4)), 2, w, np.zeros(8))
        assert not out.any()

    def test_one_hot_patch_reads_weight_column(self):
        rng = np.random.default_rng(33)
        w = rng.standard_normal((8, 2 * 4))
        v = np.zeros((2, 4, 4))
        v[1, 0, 1] = 1.0  # channel 1, top-left patch, pixel (0,1)
        out = patch_embed(v, 2, w, np.zeros(8))
        col = 1 * 4 + 0 * 2 + 1  # channel-major flattening of the patch
        np.testing.assert_allclose(out[0, 0], w[:, col])
        assert not out[0, 1:].any()


class TestSparseDepthwise:
    @pytest.mark.parametrize("p_keep", [0.2, 0.5, 0.8, 1.0])
    def test_kept_positions_match_dense_conv(self, p_keep):
        """Equals a zero-padded dense 3x3 depthwise conv of the map with
        discarded positions zeroed, read at the kept positions."""
        rng = np.random.default_rng(int(p_keep * 10))
        d, h, w = 5, 7, 6
        kernel = rng.standard_normal((d, 3, 3))
        bias = rng.standard_normal(d)
        for _ in range(5):
            x = rng.standard_normal((h, w, d))
            keep = rng.random((h, w)) < p_keep
            keep[[0, -1], rng.integers(w)] = True
            keep[rng.integers(h), [0, -1]] = True
            plan = StagePlan.build(keep, np.zeros((h, w)))
            assert plan.index.dtype == np.int64
            np.testing.assert_array_equal(plan.index[keep], np.arange(len(plan)))
            assert (plan.index[~keep] == -1).all()
            got = _sparse_depthwise(plan.gather(x), plan.nbr, kernel, bias)
            want = depthwise_conv2d(np.where(keep[..., None], x, 0.0), kernel, bias)
            np.testing.assert_allclose(got, want[keep], rtol=1e-12, atol=1e-12)


def brute_force_neighbours(keep):
    """Each kept token's 3x3 neighbour rows, looked up token by token."""
    coords = [(r, c) for r in range(keep.shape[0]) for c in range(keep.shape[1]) if keep[r, c]]
    row = {rc: n for n, rc in enumerate(coords)}
    table = [[row.get((r + dr, c + dc), -1) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
             for r, c in coords]
    return np.array(table, dtype=np.int64).reshape(-1, 9)


class TestStagePlanNeighbours:
    @pytest.mark.parametrize("shape", [(5, 6), (4, 4), (2, 2), (1, 1), (1, 7), (7, 1)])
    @pytest.mark.parametrize("mask", ["random", "all", "none", "border"])
    def test_table_equals_per_token_lookup(self, shape, mask):
        rng = np.random.default_rng(sum(shape))
        for _ in range(4 if mask == "random" else 1):
            keep = rng.random(shape) < 0.5
            if mask in ("all", "none"):
                keep[...] = mask == "all"
            elif mask == "border":   # every border cell kept, the interior at random
                keep[[0, -1], :] = keep[:, [0, -1]] = True
            plan = StagePlan.build(keep, rng.random(shape))
            assert plan.nbr.dtype == np.int64 and plan.nbr.shape == (keep.sum(), 9)
            assert plan.nbr.tobytes() == brute_force_neighbours(keep).tobytes()


class TestSparseSs2d:
    def test_all_discarded_is_passthrough(self):
        rng = np.random.default_rng(34)
        p = init_backbone_params(SMALL, seed=1).stages[0].ss2d
        x = rng.standard_normal((8, 8, 8))
        keep = np.zeros((8, 8), dtype=bool)
        out = sparse_ss2d(x, StagePlan.build(keep, np.ones((8, 8))), p)
        assert out.tobytes() == x.tobytes()

    def test_zero_out_projection_is_identity(self):
        rng = np.random.default_rng(35)
        p = init_backbone_params(SMALL, seed=2).stages[0].ss2d
        p.w_out[:] = 0.0
        p.b_out[:] = 0.0
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.6
        out = sparse_ss2d(x, StagePlan.build(keep, np.ones((8, 8))), p)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_discarded_positions_bit_equal(self):
        rng = np.random.default_rng(36)
        p = init_backbone_params(SMALL, seed=3).stages[0].ss2d
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.5
        out = sparse_ss2d(x, StagePlan.build(keep, rng.uniform(0, 1, (8, 8))), p)
        off = ~keep
        assert out[off].tobytes() == x[off].tobytes()

    def test_score_shape_mismatch(self):
        with pytest.raises(ShapeError):
            StagePlan.build(np.ones((8, 8), dtype=bool), np.ones((4, 4)))

    # a leading timestep axis is valid, so the 4-D case is a stack on the wrong grid
    @pytest.mark.parametrize("shape", [(4, 4, 8), (8, 8), (2, 4, 4, 8)])
    def test_map_shape_mismatch(self, shape):
        p = init_backbone_params(SMALL, seed=4).stages[0].ss2d
        with pytest.raises(ShapeError):
            sparse_ss2d(np.zeros(shape), StagePlan.build(np.ones((8, 8), dtype=bool),
                                                         np.ones((8, 8))), p)


class TestSparseMlp:
    def test_all_discarded_is_passthrough(self):
        rng = np.random.default_rng(37)
        p = init_backbone_params(SMALL, seed=5).stages[0].mixer
        x = rng.standard_normal((8, 8, 8))
        out = sparse_mlp(x, StagePlan.build(np.zeros((8, 8), dtype=bool), np.ones((8, 8))), p)
        assert out.tobytes() == x.tobytes()

    def test_zero_second_layer_is_identity(self):
        rng = np.random.default_rng(38)
        p = init_backbone_params(SMALL, seed=6).stages[0].mixer
        p.w2[:] = 0.0
        p.b2[:] = 0.0
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.7
        np.testing.assert_allclose(sparse_mlp(x, StagePlan.build(keep, np.ones((8, 8))), p), x,
                                   atol=1e-14)

    def test_kept_positions_match_dense_reference(self):
        rng = np.random.default_rng(39)
        p = init_backbone_params(SMALL, seed=7).stages[0].mixer
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.5
        out = sparse_mlp(x, StagePlan.build(keep, np.ones((8, 8))), p)

        c = x.shape[-1]
        flat = x.reshape(-1, c)
        normed = layer_norm(flat, p.norm.gain, p.norm.bias)
        hidden = gelu(normed @ p.w1.T + p.b1)
        dense = (flat + (hidden @ p.w2.T + p.b2)).reshape(x.shape)
        np.testing.assert_allclose(out[keep], dense[keep], rtol=1e-12)


class TestBidiChannelScan:
    def test_single_channel_doubles_forward_map(self):
        rng = np.random.default_rng(40)
        s = 6
        p1 = init_s6_params(s, 4, rng)
        p2_src = init_s6_params(s, 4, rng)
        # equal parameter sets: flipped length-1 sequence is the same input
        x = rng.standard_normal((1, 2, 3))
        for f in ("log_a", "w_dt", "b_dt", "w_b", "w_c", "skip"):
            getattr(p2_src, f)[:] = getattr(p1, f)
        out = bidi_scan(x, p1, p2_src)
        single, _ = s6_forward(x.reshape(1, s), p1)
        np.testing.assert_allclose(out, 2 * single.reshape(x.shape),
                                   rtol=1e-12)

    def test_zero_projections_zero_output(self):
        rng = np.random.default_rng(41)
        s = 4
        p1 = init_s6_params(s, 4, rng)
        p2 = init_s6_params(s, 4, rng)
        for p in (p1, p2):
            p.w_c[:] = 0.0
            p.skip[:] = 0.0
        x = rng.standard_normal((3, 2, 2))
        out = bidi_scan(x, p1, p2)
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_flip_symmetry(self):
        """flip(g(flip(x); p2, p1)) == g(x; p1, p2)."""
        rng = np.random.default_rng(42)
        s = 6
        p1 = init_s6_params(s, 4, rng)
        p2 = init_s6_params(s, 4, rng)
        x = rng.standard_normal((4, 2, 3))
        direct = bidi_scan(x, p1, p2)
        swapped = bidi_scan(x[::-1].copy(), p2, p1)[::-1]
        np.testing.assert_allclose(swapped, direct, rtol=1e-10, atol=1e-12)


class TestGci:
    def test_zero_out_projection_is_identity(self):
        rng = np.random.default_rng(43)
        p = init_backbone_params(SMALL, seed=8).stages[2].mixer
        p.w_out[:] = 0.0
        p.b_out[:] = 0.0
        g = SMALL.grid(2)
        x = rng.standard_normal((*g, SMALL.channels[2]))
        np.testing.assert_allclose(gci_forward(x, p), x, atol=1e-14)

    def test_pointwise_branch_only(self):
        """Scan silenced: out = x + (x @ w_mix.T + b_mix) @ w_out.T + b_out."""
        rng = np.random.default_rng(44)
        p = init_backbone_params(SMALL, seed=9).stages[2].mixer
        for s6p in (p.s6_fwd, p.s6_bwd):
            s6p.w_c[:] = 0.0
            s6p.skip[:] = 0.0
        g = SMALL.grid(2)
        c = SMALL.channels[2]
        x = rng.standard_normal((*g, c))
        out = gci_forward(x, p)
        flat = x.reshape(-1, c)
        mixed = flat @ p.w_mix.T + p.b_mix
        expected = flat + mixed @ p.w_out.T + p.b_out
        np.testing.assert_allclose(out, expected.reshape(x.shape),
                                   rtol=1e-12)

    def test_two_channel_hand_case(self):
        g = SMALL.grid(2)
        c = SMALL.channels[2]
        p = init_backbone_params(SMALL, seed=10).stages[2].mixer
        for s6p in (p.s6_fwd, p.s6_bwd):
            s6p.w_c[:] = 0.0
            s6p.skip[:] = 0.0
        p.w_mix[:] = 0.0
        p.b_mix[:] = 0.0
        p.w_out[:] = 0.0
        p.b_out[:] = 0.0
        # wire channels 0,1 through a known 2x2 map
        p.w_mix[0, 0], p.w_mix[0, 1] = 2.0, -1.0
        p.w_mix[1, 0], p.w_mix[1, 1] = 0.5, 3.0
        p.w_out[0, 0] = 1.0
        p.w_out[1, 1] = 1.0
        x = np.zeros((*g, c))
        x[..., 0], x[..., 1] = 4.0, 2.0
        out = gci_forward(x, p)
        np.testing.assert_allclose(out[..., 0], 4.0 + (2.0 * 4.0 - 1.0 * 2.0))
        np.testing.assert_allclose(out[..., 1], 2.0 + (0.5 * 4.0 + 3.0 * 2.0))
        np.testing.assert_allclose(out[..., 2:], 0.0, atol=1e-14)

    def test_constant_field_kernel_collapse(self):
        """On constant input a sum-normalized depthwise kernel acts like
        its center tap alone."""
        rng = np.random.default_rng(45)
        p = init_backbone_params(SMALL, seed=11).stages[2].mixer
        k = rng.standard_normal(p.dw_kernel.shape)
        k /= k.sum(axis=(1, 2), keepdims=True)
        g = SMALL.grid(2)
        c = SMALL.channels[2]
        x = np.ones((*g, c)) * rng.standard_normal((1, 1, c))

        p.dw_kernel[:] = k
        full = gci_forward(x, p)
        center = np.zeros_like(k)
        center[:, 1, 1] = 1.0
        p.dw_kernel[:] = center
        collapsed = gci_forward(x, p)
        np.testing.assert_allclose(full, collapsed, rtol=1e-10, atol=1e-12)


class TestChannelLastMaps:
    """Every block takes the one map layout and refuses the other with
    ShapeError: a channel-first (C, H, W) map for the stage blocks, and a
    channel-last (H, W, 2B) grid for patch_embed, whose voxel input is
    channel-first."""

    @pytest.mark.parametrize("block", ["patch_embed", "sparse_ss2d", "sparse_mlp",
                                       "gci_forward", "convlstm_step", "downsample_features"])
    def test_block_refuses_the_other_layout(self, block):
        params = init_backbone_params(SMALL, seed=47)
        rng = np.random.default_rng(51)
        # stage 2 has a 4x4 grid and 12 channels and stage 3 a 2x2 grid and
        # 16, so neither channel-first map reads as a channel-last one
        s = 2 if block == "gci_forward" else 1
        sp, (gh, gw), c = params.stages[s], SMALL.grid(s), SMALL.channels[s]
        plan = StagePlan.build(np.ones((gh, gw), dtype=bool), rng.random((gh, gw)))
        x = rng.standard_normal((gh, gw, c))
        run = {
            "patch_embed": lambda m: patch_embed(m, SMALL.patch, params.w_embed, params.b_embed),
            "sparse_ss2d": lambda m: sparse_ss2d(m, plan, sp.ss2d),
            "sparse_mlp": lambda m: sparse_mlp(m, plan, sp.mixer),
            "gci_forward": lambda m: gci_forward(m, sp.mixer),
            "convlstm_step": lambda m: convlstm_step(m, init_lstm_states(SMALL)[s], sp.lstm),
            "downsample_features": lambda m: downsample_features(m, sp.down_w, sp.down_b),
        }[block]
        if block == "patch_embed":
            x = rng.standard_normal((2 * SMALL.bins, SMALL.height, SMALL.width))
        run(x)     # the block's own layout runs
        with pytest.raises(ShapeError):
            run(np.moveaxis(x, 0, -1) if block == "patch_embed" else np.moveaxis(x, -1, 0))

    @pytest.mark.parametrize("channels", [10, 13])
    def test_downsample_refuses_channels_that_do_not_fit(self, channels):
        sp = init_backbone_params(SMALL, seed=48).stages[1]
        with pytest.raises(ShapeError, match="48 inputs per patch"):
            downsample_features(np.zeros((4, 4, channels)), sp.down_w, sp.down_b)


class TestEmptyStacks:
    @pytest.mark.parametrize("block", ["patch_embed", "sparse_ss2d", "sparse_mlp", "bidi_scan",
                                       "gci_forward", "convlstm_step", "downsample_features",
                                       "s6_forward"])
    def test_stack_of_no_maps_runs(self, block):
        """A (0, ...) stack of maps gives a (0, ...) stack of the block's
        output shape, and s6_forward scans a (T, 0, L) input as no sequences."""
        params = init_backbone_params(SMALL, seed=49)
        s = 1 if block == "sparse_mlp" else 2     # stage 3 is a 2x2 GCI stage
        sp, (gh, gw), c = params.stages[s], SMALL.grid(s), SMALL.channels[s]
        plan = StagePlan.build(np.ones((gh, gw), dtype=bool), np.ones((gh, gw)))
        scan = sp.ss2d.s6_fwd if block == "sparse_mlp" else sp.mixer.s6_fwd
        x = np.zeros((0, gh, gw, c))
        voxels = np.zeros((0, 2 * SMALL.bins, SMALL.height, SMALL.width))
        run, want = {
            "patch_embed": (lambda: patch_embed(voxels, SMALL.patch, params.w_embed,
                                                params.b_embed),
                            (0,) + SMALL.grid(0) + (SMALL.channels[0],)),
            "sparse_ss2d": (lambda: sparse_ss2d(x, plan, sp.ss2d), x.shape),
            "sparse_mlp": (lambda: sparse_mlp(x, plan, sp.mixer), x.shape),
            "bidi_scan": (lambda: bidi_scan(np.moveaxis(x, -1, 0), sp.mixer.s6_fwd,
                                            sp.mixer.s6_bwd), (c, 0, gh, gw)),
            "gci_forward": (lambda: gci_forward(x, sp.mixer), x.shape),
            "convlstm_step": (lambda: convlstm_step(x, init_lstm_states(SMALL)[s], sp.lstm)[0],
                              x.shape),
            "downsample_features": (lambda: downsample_features(x, sp.down_w, sp.down_b),
                                    (0, gh // 2, gw // 2, SMALL.channels[s + 1])),
            "s6_forward": (lambda: s6_forward(np.zeros((5, 0, scan.n_lanes)), scan),
                           ((5, 0, scan.n_lanes), (0, scan.n_state, scan.n_lanes))),
        }[block]
        out = run()
        assert (tuple(a.shape for a in out) if block == "s6_forward" else out.shape) == want


class TestSigmoid:
    def test_half_at_zero(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_symmetric_and_matches_logistic(self):
        x = np.linspace(-700.0, 700.0, 2801)
        y = sigmoid(x)
        # 2**-53 is one rounding of a value near 1, which 1 - y itself incurs
        np.testing.assert_allclose(sigmoid(-x), 1.0 - y, rtol=0, atol=2**-53)
        ref = [1.0 / (1.0 + math.exp(-v)) for v in x]
        np.testing.assert_allclose(y, ref, rtol=0, atol=2**-52)

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = sigmoid(np.array([-1e4, 1e4]))
        assert y.tolist() == [0.0, 1.0]


class TestConvLstm:
    def test_zero_network_zero_output(self):
        c = 4
        p = ConvLstmParams(w_x=np.zeros((4 * c, c, 3, 3)),
                           w_h=np.zeros((4 * c, c, 3, 3)),
                           bias=np.zeros(4 * c))
        s = LstmState(h=np.zeros((5, 5, c)), c=np.zeros((5, 5, c)))
        h, ns = convlstm_step(np.ones((5, 5, c)), s, p)
        assert not h.any()
        assert not ns.c.any()

    def test_gate_saturation_preserves_cell(self):
        c = 2
        bias = np.zeros(4 * c)
        bias[0 * c:1 * c] = -50.0   # input gate shut
        bias[1 * c:2 * c] = 50.0    # forget gate open
        p = ConvLstmParams(w_x=np.zeros((4 * c, c, 3, 3)),
                           w_h=np.zeros((4 * c, c, 3, 3)),
                           bias=bias)
        cell = np.random.default_rng(46).standard_normal((3, 3, c))
        s = LstmState(h=np.zeros((3, 3, c)), c=cell.copy())
        _, ns = convlstm_step(np.zeros((3, 3, c)), s, p)
        np.testing.assert_allclose(ns.c, cell, atol=1e-12)

    def test_single_pixel_matches_scalar_reference(self):
        rng = np.random.default_rng(47)
        wx = rng.standard_normal(4)
        wh = rng.standard_normal(4)
        b = rng.standard_normal(4)
        p = ConvLstmParams(w_x=np.zeros((4, 1, 3, 3)),
                           w_h=np.zeros((4, 1, 3, 3)),
                           bias=b)
        p.w_x[:, 0, 1, 1] = wx
        p.w_h[:, 0, 1, 1] = wh
        x0, h0, c0 = 0.7, -0.3, 0.4
        s = LstmState(h=np.full((1, 1, 1), h0), c=np.full((1, 1, 1), c0))
        h, ns = convlstm_step(np.full((1, 1, 1), x0), s, p)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        gi, gf, gg, go = (wx[i] * x0 + wh[i] * h0 + b[i] for i in range(4))
        c_ref = sig(gf) * c0 + sig(gi) * math.tanh(gg)
        h_ref = sig(go) * math.tanh(c_ref)
        assert ns.c[0, 0, 0] == pytest.approx(c_ref, rel=1e-12)
        assert h[0, 0, 0] == pytest.approx(h_ref, rel=1e-12)

    @staticmethod
    def two_conv_reference(x, state, p):
        """The step with the recurrent convolution always taken."""
        cout = p.bias.size // 4
        gates = conv2d_same(x, p.w_x) + conv2d_same(state.h, p.w_h) + p.bias
        gi, gf, gg, go = (gates[..., i * cout:(i + 1) * cout] for i in range(4))
        c_new = sigmoid(gf) * state.c + sigmoid(gi) * np.tanh(gg)
        return sigmoid(go) * np.tanh(c_new), c_new

    @pytest.fixture
    def step_case(self):
        rng = np.random.default_rng(49)
        c = 3
        p = ConvLstmParams(w_x=rng.standard_normal((4 * c, c, 3, 3)),
                           w_h=rng.standard_normal((4 * c, c, 3, 3)),
                           bias=rng.standard_normal(4 * c))
        x = rng.standard_normal((4, 5, c))
        cell = rng.standard_normal((4, 5, c))
        return x, cell, p

    def test_zero_state_matches_two_conv_reference(self, step_case):
        x, cell, p = step_case
        s = LstmState(h=np.zeros_like(x), c=cell)
        h, ns = convlstm_step(x, s, p)
        h_ref, c_ref = self.two_conv_reference(x, s, p)
        assert h.tobytes() == h_ref.tobytes()
        assert ns.c.tobytes() == c_ref.tobytes()

    def test_one_nonzero_h_takes_recurrent_conv(self, step_case):
        x, cell, p = step_case
        zero = LstmState(h=np.zeros_like(x), c=cell)
        hot = LstmState(h=np.zeros_like(x), c=cell)
        hot.h[2, 3, 1] = 0.5
        h0, _ = convlstm_step(x, zero, p)
        h1, ns = convlstm_step(x, hot, p)
        h_ref, c_ref = self.two_conv_reference(x, hot, p)
        assert h1.tobytes() == h_ref.tobytes()
        assert ns.c.tobytes() == c_ref.tobytes()
        assert not np.array_equal(h1, h0)

    def test_recurrent_conv_skipped_only_for_zero_h(self, step_case, monkeypatch):
        x, cell, p = step_case
        calls = []
        monkeypatch.setattr(bb, "conv2d_same", lambda a, w: calls.append(w) or conv2d_same(a, w))
        convlstm_step(x, LstmState(h=np.zeros_like(x), c=cell), p)
        assert [w is p.w_x for w in calls] == [True]
        calls.clear()
        convlstm_step(x, LstmState(h=np.full_like(x, -0.0), c=cell), p)
        assert len(calls) == 1   # -0.0 is zero
        calls.clear()
        convlstm_step(x, LstmState(h=np.full_like(x, 1e-300), c=cell), p)
        assert [w is p.w_h for w in calls] == [False, True]

    @pytest.mark.parametrize("h_shape, c_shape", [
        ((3, 3, 3), (4, 5, 3)), ((4, 5, 3), (3, 3, 3)),
        ((4, 5, 2), (4, 5, 2)), ((5, 4, 3), (5, 4, 3))])
    def test_misshaped_state_rejected(self, step_case, h_shape, c_shape):
        x, _, p = step_case
        s = LstmState(h=np.zeros(h_shape), c=np.zeros(c_shape))
        with pytest.raises(ShapeError, match=r"must both be \(4, 5, 3\)"):
            convlstm_step(x, s, p)

    def test_forget_bias_initialized_positive(self):
        p = init_backbone_params(SMALL, seed=12).stages[0].lstm
        c = SMALL.channels[0]
        assert (p.bias[c:2 * c] == 1.0).all()


class TestBackboneForward:
    def test_stage_shapes_default_config(self):
        cfg = BackboneConfig()
        params = init_backbone_params(cfg, seed=13)
        rng = np.random.default_rng(48)
        voxels = rng.standard_normal((2 * cfg.bins, 64, 64))
        keep = np.ones((16, 16), dtype=bool)
        scores = rng.uniform(0, 1, (16, 16))
        outs, _ = backbone_forward([voxels], keep, scores, cfg, params)
        shapes = [o.shape for o in outs[0]]
        assert shapes == [(32, 16, 16), (64, 8, 8), (128, 4, 4), (256, 2, 2)]

    def test_severed_recurrence(self):
        cfg = SMALL
        params = init_backbone_params(cfg, seed=14)
        for sp in params.stages:
            sp.lstm.w_x[:] = 0.0
            sp.lstm.bias[:] = 0.0
        voxels, keep, scores = small_inputs(seed=15)
        outs, _ = backbone_forward([voxels, voxels], keep, scores, cfg,
                                   params)
        for a, b in zip(outs[0], outs[1]):
            assert a.tobytes() == b.tobytes()

    def test_state_persists_across_timesteps(self):
        cfg = SMALL
        params = init_backbone_params(cfg, seed=16)
        voxels, keep, scores = small_inputs(seed=17)
        outs, _ = backbone_forward([voxels, voxels], keep, scores, cfg,
                                   params)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(outs[0], outs[1]))

    def test_deterministic(self):
        cfg = SMALL
        params = init_backbone_params(cfg, seed=18)
        voxels, keep, scores = small_inputs(seed=19)
        a, _ = backbone_forward([voxels], keep, scores, cfg, params)
        b, _ = backbone_forward([voxels], keep, scores, cfg, params)
        for u, v in zip(a[0], b[0]):
            assert u.tobytes() == v.tobytes()

    def test_default_states_match_explicit_fresh_states(self):
        params = init_backbone_params(SMALL, seed=18)
        voxels, keep, scores = small_inputs(seed=19)
        a, sa = backbone_forward([voxels, voxels], keep, scores, SMALL, params)
        b, sb = backbone_forward([voxels, voxels], keep, scores, SMALL, params,
                                 states=init_lstm_states(SMALL))
        for u, v in zip(a[0] + a[1], b[0] + b[1]):
            assert u.tobytes() == v.tobytes()
        for u, v in zip(sa, sb):
            assert u.h.tobytes() == v.h.tobytes() and u.c.tobytes() == v.c.tobytes()

    def test_caller_state_of_wrong_grid_rejected(self):
        params = init_backbone_params(SMALL, seed=18)
        voxels, keep, scores = small_inputs(seed=19)
        states = init_lstm_states(SMALL)
        gh, gw, c = states[0].h.shape
        states[0] = LstmState(h=np.zeros((gh // 2, gw // 2, c)), c=np.zeros((gh // 2, gw // 2, c)))
        with pytest.raises(ShapeError, match="LSTM state"):
            backbone_forward([voxels], keep, scores, SMALL, params, states=states)

    @pytest.mark.parametrize("n_states", [SMALL.n_stages - 1, SMALL.n_stages + 1])
    def test_caller_states_of_wrong_count_rejected(self, n_states, monkeypatch):
        params = init_backbone_params(SMALL, seed=18)
        voxels, keep, scores = small_inputs(seed=19)
        states = (init_lstm_states(SMALL) * 2)[:n_states]
        monkeypatch.setattr(bb, "patch_embed", None)    # refused before any work
        with pytest.raises(ShapeError, match=f"{n_states} LSTM states for {SMALL.n_stages}"):
            backbone_forward([voxels], keep, scores, SMALL, params, states=states)

    def test_caller_states_list_left_as_it_was(self):
        params = init_backbone_params(SMALL, seed=18)
        voxels, keep, scores = small_inputs(seed=19)
        states = init_lstm_states(SMALL)
        before = list(states)
        _, got = backbone_forward([voxels], keep, scores, SMALL, params, states=states)
        assert got is not states
        assert all(a is b for a, b in zip(states, before, strict=True))
        assert not any(st.h.any() or st.c.any() for st in states)
        assert all(a is not b for a, b in zip(got, before))

    def test_keep_shape_mismatch(self):
        cfg = SMALL
        params = init_backbone_params(cfg, seed=20)
        voxels, keep, scores = small_inputs(seed=21)
        with pytest.raises(ShapeError):
            backbone_forward([voxels], keep[:4], scores, cfg, params)

    def test_voxel_shape_mismatch(self):
        params = init_backbone_params(SMALL, seed=20)
        voxels, keep, scores = small_inputs(seed=21)
        with pytest.raises(ShapeError, match="voxel grid shape"):
            backbone_forward([voxels[:, :-4]], keep, scores, SMALL, params)

    def test_full_scene_smoke(self):
        """End-to-end on a generated scene through STCA, no reference."""
        cfg = BackboneConfig()
        stream, _ = generate_synthetic_scene(scene_preset("sparse30"), seed=3)
        voxels = build_voxel_grid(stream, cfg.bins)
        res = run_stca(stream, patch=cfg.patch)
        params = init_backbone_params(cfg, seed=22)
        outs, _ = backbone_forward([voxels], res.keep, res.scores, cfg,
                                   params)
        assert all(np.isfinite(o).all() for o in outs[0])


def stage_composition(voxels, keep, scores, cfg, params, parallel):
    """The forward pass composed from the public map-level blocks, stage-major:
    after the per-grid embedding, each block runs once over the stack of all
    timesteps, as the forward's blocks do, so the two share every matmul's
    shape. Stage outputs are returned as backbone_forward returns them, (C, H, W)."""
    maps = [(keep, scores)]
    for _ in range(cfg.n_stages - 1):
        maps.append((max_pool2d(maps[-1][0], 2), max_pool2d(maps[-1][1], 2)))
    states = init_lstm_states(cfg)
    x = np.stack([patch_embed(v, cfg.patch, params.w_embed, params.b_embed) for v in voxels])
    stage_outs = []
    for s, (sp, (k_map, s_map)) in enumerate(zip(params.stages, maps)):
        plan = StagePlan.build(k_map, s_map)
        x = sparse_ss2d(x, plan, sp.ss2d, parallel=parallel)
        if isinstance(sp.mixer, GciParams):
            x = gci_forward(x, sp.mixer)
        else:
            x = sparse_mlp(x, plan, sp.mixer)
        x, states[s] = convlstm_step(x, states[s], sp.lstm)
        stage_outs.append(np.moveaxis(x, -1, -3))
        if sp.down_w is not None:
            x = downsample_features(x, sp.down_w, sp.down_b)
    return [list(step) for step in zip(*stage_outs)], states


class TestStagePlans:
    @pytest.fixture(scope="class")
    def scene_inputs(self):
        spec = scene_preset("sparse30", width=SMALL.width, height=SMALL.height)
        streams = [generate_synthetic_scene(spec, seed=s)[0] for s in range(3)]
        res = run_stca(streams[0], patch=SMALL.patch)
        voxels = [build_voxel_grid(st, SMALL.bins).values for st in streams]
        return voxels, res.keep, res.scores

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("mask", ["stca", "all", "none"])
    def test_forward_equals_map_level_composition(self, scene_inputs, parallel, mask):
        voxels, keep, scores = scene_inputs
        if mask in ("all", "none"):
            keep = np.full_like(keep, mask == "all")
        else:
            assert 0 < keep.sum() < keep.size
        params = init_backbone_params(SMALL, seed=40)
        got, got_states = backbone_forward(voxels, keep, scores, SMALL, params,
                                           parallel=parallel)
        want, want_states = stage_composition(voxels, keep, scores, SMALL, params, parallel)
        assert len(got) == 3
        for step_got, step_want in zip(got, want):
            for a, b in zip(step_got, step_want):
                assert a.tobytes() == b.tobytes()
        for a, b in zip(got_states, want_states):
            assert a.h.tobytes() == b.h.tobytes() and a.c.tobytes() == b.c.tobytes()

    def test_ipl_order_once_per_stage_per_call(self, monkeypatch):
        calls = []
        real = bb.ipl_order

        def counting(index, scores, k):
            calls.append(k)
            return real(index, scores, k)

        monkeypatch.setattr(bb, "ipl_order", counting)
        params = init_backbone_params(SMALL, seed=41)
        voxels, keep, scores = small_inputs(seed=42)
        backbone_forward([voxels] * 4, keep, scores, SMALL, params)
        assert tuple(calls) == tuple(ipl_window(SMALL.grid(s)) for s in range(SMALL.n_stages))

    @pytest.mark.parametrize("batch, batches", [(8, 1), (3, 2)])
    def test_one_plan_per_stage_per_call_shared_by_both_blocks(self, monkeypatch, batch,
                                                               batches):
        """backbone_forward builds n_stages plans per call, however many
        batches its timesteps run in, and every batch's sparse_ss2d and
        sparse_mlp of a stage receive that stage's one plan."""
        built, used = [], {"ss2d": [], "mlp": []}
        real_build = StagePlan.build.__func__
        real_ss2d, real_mlp = bb.sparse_ss2d, bb.sparse_mlp

        def build(cls, keep, scores):
            built.append(real_build(cls, keep, scores))
            return built[-1]

        def ss2d(x, plan, *args, **kwargs):
            used["ss2d"].append(plan)
            return real_ss2d(x, plan, *args, **kwargs)

        def mlp(x, plan, *args, **kwargs):
            used["mlp"].append(plan)
            return real_mlp(x, plan, *args, **kwargs)

        monkeypatch.setattr(StagePlan, "build", classmethod(build))
        monkeypatch.setattr(bb, "sparse_ss2d", ss2d)
        monkeypatch.setattr(bb, "sparse_mlp", mlp)
        monkeypatch.setattr(bb, "_timesteps_per_batch", lambda cfg: batch)
        voxels, keep, scores = small_inputs(seed=42)
        backbone_forward([voxels] * 4, keep, scores, SMALL, init_backbone_params(SMALL, seed=41))
        assert len(built) == SMALL.n_stages
        assert [id(p) for p in used["ss2d"]] == [id(p) for p in built] * batches
        mlp_stages = [s for s in range(SMALL.n_stages) if s + 1 not in SMALL.gci_stages]
        assert [id(p) for p in used["mlp"]] == [id(built[s]) for s in mlp_stages] * batches


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)


class TestDoublingForward:
    def test_multi_chunk_doubling_matches_sequential(self, monkeypatch):
        """At 96x96 the stage-4 grid is 3x3, so its IPL window is 1, and at T=2
        some doubling scans run in several chunks."""
        cfg = BackboneConfig(height=96, width=96)
        assert ipl_window(cfg.grid(3)) == 1
        spec = scene_preset("sparse30", width=cfg.width, height=cfg.height)
        streams = [generate_synthetic_scene(spec, seed=s)[0] for s in range(2)]
        res = run_stca(streams[0], patch=cfg.patch)
        voxels = [build_voxel_grid(st, cfg.bins) for st in streams]
        params = init_backbone_params(cfg, seed=46)
        want, want_states = backbone_forward(voxels, res.keep, res.scores, cfg, params)
        calls = {"s6": 0, "chunks": 0}
        real_s6, real_doubling = bb.s6_forward, s6._scan_states_doubling

        def s6_counting(*args, **kwargs):
            calls["s6"] += 1
            return real_s6(*args, **kwargs)

        def doubling_counting(*args):
            calls["chunks"] += 1
            return real_doubling(*args)

        monkeypatch.setattr(bb, "s6_forward", s6_counting)
        monkeypatch.setattr(s6, "_scan_states_doubling", doubling_counting)
        got, got_states = backbone_forward(voxels, res.keep, res.scores, cfg, params,
                                           parallel=True)
        assert calls["chunks"] > calls["s6"] > 0
        for step_got, step_want in zip(got, want, strict=True):
            for a, b in zip(step_got, step_want, strict=True):
                assert np.isfinite(a).all() and rel_err(a, b) <= 1e-12
        for a, b in zip(got_states, want_states, strict=True):
            assert rel_err(a.h, b.h) <= 1e-12 and rel_err(a.c, b.c) <= 1e-12


class TestStageMajor:
    """A call runs each stage over all its timesteps; only the LSTM loops over t."""

    @pytest.fixture(scope="class")
    def four_steps(self):
        spec = scene_preset("edge-noise", width=SMALL.width, height=SMALL.height)
        streams = [generate_synthetic_scene(spec, seed=s)[0] for s in range(4)]
        res = run_stca(streams[0], patch=SMALL.patch)
        voxels = [build_voxel_grid(st, SMALL.bins).values for st in streams]
        return voxels, res.keep, res.scores

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("mask", ["stca", "all", "none"])
    def test_call_equals_single_steps_with_carried_states(self, four_steps, mask, parallel):
        voxels, keep, scores = four_steps
        if mask in ("all", "none"):
            keep = np.full_like(keep, mask == "all")
        else:
            assert 0 < keep.sum() < keep.size
        params = init_backbone_params(SMALL, seed=43)
        got, got_states = backbone_forward(voxels, keep, scores, SMALL, params,
                                           parallel=parallel)
        states = init_lstm_states(SMALL)
        for t, values in enumerate(voxels):
            want, states = backbone_forward([values], keep, scores, SMALL, params,
                                            states=states, parallel=parallel)
            for a, b in zip(got[t], want[0]):
                assert a.shape == b.shape and rel_err(a, b) <= 1e-12
        for a, b in zip(got_states, states):
            assert rel_err(a.h, b.h) <= 1e-12 and rel_err(a.c, b.c) <= 1e-12

    def test_weights_read_once_per_call(self, four_steps, monkeypatch):
        voxels, keep, scores = four_steps
        params = init_backbone_params(SMALL, seed=44)
        w_x = {id(sp.lstm.w_x) for sp in params.stages}
        calls = {"s6": 0, "w_x": 0}
        real_s6, real_conv = bb.s6_forward, bb.conv2d_same

        def s6_counting(*args, **kwargs):
            calls["s6"] += 1
            return real_s6(*args, **kwargs)

        def conv_counting(x, w):
            calls["w_x"] += id(w) in w_x
            return real_conv(x, w)

        monkeypatch.setattr(bb, "s6_forward", s6_counting)
        monkeypatch.setattr(bb, "conv2d_same", conv_counting)
        counts = []
        for steps in (voxels[:1], voxels):
            calls.update(s6=0, w_x=0)
            backbone_forward(steps, keep, scores, SMALL, params)
            counts.append(dict(calls))
        assert counts[0] == counts[1] == {"s6": 3 * SMALL.n_stages + 2 * len(SMALL.gci_stages),
                                         "w_x": SMALL.n_stages}

    def test_batch_bounds_the_stack(self):
        assert bb._timesteps_per_batch(BackboneConfig()) == 8
        assert bb._timesteps_per_batch(BackboneConfig(height=736, width=1280)) == 1

    @pytest.mark.parametrize("batch, stacks", [(1, [1, 1, 1, 1]), (3, [3, 1])])
    def test_batches_carry_states(self, four_steps, monkeypatch, batch, stacks):
        """Under the STCA, all-true, all-false and single-token masks, a call
        in batches equals one unbatched call and builds n_stages plans."""
        voxels, stca_keep, scores = four_steps
        params = init_backbone_params(SMALL, seed=45)
        single = np.zeros_like(stca_keep)
        single[3, 5] = True
        seen, built = [], []
        real_lstm, real_build = bb.convlstm_step, StagePlan.build.__func__

        def lstm_recording(x, *args, **kwargs):
            seen.append(len(x))
            return real_lstm(x, *args, **kwargs)

        def build_counting(cls, keep, scores):
            built.append(keep.shape)
            return real_build(cls, keep, scores)

        for keep in (stca_keep, np.ones_like(stca_keep), np.zeros_like(stca_keep), single):
            want, want_states = backbone_forward(voxels, keep, scores, SMALL, params)
            seen.clear()
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(bb, "convlstm_step", lstm_recording)
                m.setattr(StagePlan, "build", classmethod(build_counting))
                m.setattr(bb, "_timesteps_per_batch", lambda cfg: batch)
                got, got_states = backbone_forward(voxels, keep, scores, SMALL, params)
            assert seen == [size for size in stacks for _ in range(SMALL.n_stages)]
            assert built == [SMALL.grid(s) for s in range(SMALL.n_stages)]
            for step_got, step_want in zip(got, want, strict=True):
                for a, b in zip(step_got, step_want):
                    assert rel_err(a, b) <= 1e-12
            for a, b in zip(got_states, want_states):
                assert rel_err(a.h, b.h) <= 1e-12 and rel_err(a.c, b.c) <= 1e-12


    def test_stages_run_the_map_level_blocks_once_per_batch(self, four_steps, monkeypatch):
        """The call builds every stage's plan first, each running ipl_order
        once; then each batch runs sparse_ss2d and sparse_mlp or gci_forward:
        one route per stage."""
        voxels, keep, scores = four_steps
        params = init_backbone_params(SMALL, seed=45)
        calls = []

        def recording(name, key):
            real = getattr(bb, name)
            sig = inspect.signature(real)

            def wrapper(*args, **kwargs):
                calls.append(key(sig.bind(*args, **kwargs).arguments))
                return real(*args, **kwargs)
            monkeypatch.setattr(bb, name, wrapper)

        for name in ("sparse_ss2d", "sparse_mlp", "gci_forward"):
            recording(name, lambda a: (a["label"], len(a["x"])))
        recording("ipl_order", lambda a: ("ipl", a["k"]))
        monkeypatch.setattr(bb, "_timesteps_per_batch", lambda cfg: 3)
        backbone_forward(voxels, keep, scores, SMALL, params)

        def batch(t):
            out = []
            for s in range(SMALL.n_stages):
                mixer = "gci" if s + 1 in SMALL.gci_stages else "mlp"
                out += [(f"stage{s + 1}.ss2d", t), (f"stage{s + 1}.{mixer}", t)]
            return out
        plans = [("ipl", ipl_window(SMALL.grid(s))) for s in range(SMALL.n_stages)]
        assert len(voxels) == 4
        assert calls == plans + batch(3) + batch(1)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = SMALL
        params = init_backbone_params(cfg, seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path, cfg)
        for (na, a), (nb, b) in zip(iter_arrays(params), iter_arrays(loaded)):
            assert na == nb
            assert a.tobytes() == b.tobytes()

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=23), path)
        (tmp_path / "model.ckpt.json").unlink()
        with pytest.raises(FormatError, match="missing checkpoint manifest"):
            load_checkpoint(path, SMALL)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        params = init_backbone_params(SMALL, seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(path, SMALL)
        for (na, a), (nb, b) in zip(iter_arrays(params), iter_arrays(loaded), strict=True):
            assert na == nb
            assert a.tobytes() == b.tobytes()

    def test_files_pinned(self, tmp_path):
        # the format is frozen: these are the bytes sparsescan-checkpoint-v1 files have had
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "7760671bf841d530fb8ae4b5b907a53155881576e199f24c6ad78b58d4866905"
        assert hashlib.sha256((tmp_path / "model.ckpt.json").read_bytes()).hexdigest() == \
            "e2a88233e6012e7a9c3895f69d6e34f0a7dc651dc4db25e74143ed14cb7a37d1"

    def test_manifest_is_json(self, tmp_path):
        params = init_backbone_params(SMALL, seed=24)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        manifest = json.loads(
            (tmp_path / "model.ckpt.json").read_text())
        names = {e["name"] for e in manifest["entries"]}
        assert "w_embed" in names

    def test_truncated_blob_rejected(self, tmp_path):
        params = init_backbone_params(SMALL, seed=26)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_checkpoint(path, SMALL)

    def test_trailing_blob_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=26), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(FormatError, match="blob"):
            load_checkpoint(path, SMALL)

    def test_unknown_format_rejected(self, tmp_path):
        params = init_backbone_params(SMALL, seed=27)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        manifest_path = tmp_path / "model.ckpt.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "sparsescan-checkpoint-v0"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            load_checkpoint(path, SMALL)

    @pytest.mark.parametrize("corrupt", [
        lambda m: "{not json",
        lambda m: json.dumps([m]),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "entries"}),
        lambda m: json.dumps({**m, "entries": {"w_embed": 0}}),
        lambda m: json.dumps({**m, "entries": ["w_embed"]}),
        lambda m: json.dumps({**m, "entries": [{"offset": 0, "shape": [8]}]}),
        lambda m: json.dumps({**m, "entries": [{"name": "b_embed", "shape": [8]}]}),
        lambda m: json.dumps({**m, "entries": [{"name": "b_embed", "offset": 0}]}),
        lambda m: json.dumps({**m, "entries": [{"name": ["b_embed"], "offset": 0,
                                                "shape": [8]}]}),
        lambda m: json.dumps({**m, "entries": [{"name": "b_embed", "offset": "0",
                                                "shape": [8]}]}),
        lambda m: json.dumps({**m, "entries": m["entries"] + m["entries"][:1]}),
        lambda m: json.dumps({**m, "entries": [{**m["entries"][0], "offset": True}]
                              + m["entries"][1:]}),
        lambda m: json.dumps({**m, "entries": [{**m["entries"][0], "shape": [
            float(d) for d in m["entries"][0]["shape"]]}] + m["entries"][1:]}),
        lambda m: json.dumps({**m, "extra": 0}),
        lambda m: json.dumps({**m, "entries": [{**m["entries"][0], "extra": 0}]
                              + m["entries"][1:]}),
        lambda m: json.dumps({**m, "entries": m["entries"][::-1]}),
        lambda m: "[" * 100000,
    ], ids=["not-json", "not-object", "no-entries", "entries-not-list", "entry-not-object",
            "no-name", "no-offset", "no-shape", "list-name", "string-offset", "repeated-name",
            "bool-offset", "float-shape", "extra-key", "extra-entry-key", "reversed-entries",
            "deep-nesting"])
    def test_malformed_manifest_rejected(self, tmp_path, corrupt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=28), path)
        manifest_path = tmp_path / "model.ckpt.json"
        manifest_path.write_text(corrupt(json.loads(manifest_path.read_text())))
        with pytest.raises(FormatError):
            load_checkpoint(path, SMALL)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=29), path)
        manifest = json.loads((tmp_path / "model.ckpt.json").read_text())
        entry = next(e for e in manifest["entries"] if e["name"] == "stages[1].lstm.bias")
        blob = bytearray(path.read_bytes())
        blob[entry["offset"] + 8:entry["offset"] + 16] = np.array(value, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"'stages\[1\]\.lstm\.bias'.*non-finite"):
            load_checkpoint(path, SMALL)

    @pytest.mark.parametrize("value, loads", [(710.0, False), (1e300, False), (709.0, True),
                                              (-800.0, True), (-1e300, True)])
    def test_log_a_whose_a_overflows_rejected(self, tmp_path, value, loads):
        # a = -exp(log_a) must be finite; a zero or subnormal a scans exactly
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=29), path)
        manifest = json.loads((tmp_path / "model.ckpt.json").read_text())
        entry = next(e for e in manifest["entries"]
                     if e["name"] == "stages[0].ss2d.s6_fwd.log_a")
        blob = bytearray(path.read_bytes())
        blob[entry["offset"] + 8:entry["offset"] + 16] = np.array(value, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        if not loads:
            with pytest.raises(FormatError,
                               match=r"'stages\[0\]\.ss2d\.s6_fwd\.log_a'.*exp overflows"):
                load_checkpoint(path, SMALL)
            return
        params = load_checkpoint(path, SMALL)
        assert params.stages[0].ss2d.s6_fwd.log_a.flat[1] == value
        voxels, keep, scores = small_inputs()
        outs, _ = backbone_forward([voxels], keep, scores, SMALL, params)
        assert all(np.isfinite(out).all() for out in outs[0])

    def test_wrong_geometry_rejected(self, tmp_path):
        params = init_backbone_params(SMALL, seed=25)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        other = dataclasses.replace(SMALL, channels=(16, 24, 32, 48))
        with pytest.raises(FormatError):
            load_checkpoint(path, other)

    def test_other_sensor_size_rejected(self, tmp_path):
        # GCI's scan lanes are the stage grid's positions, so its S6 shapes follow the geometry
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=25), path)
        with pytest.raises(FormatError, match=r"height=64.*stages\[2\]\.mixer\.s6_fwd\.log_a"):
            load_checkpoint(path, dataclasses.replace(SMALL, height=64, width=64))


@pytest.fixture(scope="module")
def saved_small(tmp_path_factory):
    """The manifest and blob save_checkpoint writes for a SMALL parameter tree."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(init_backbone_params(SMALL, seed=30), path)
    return (path.parent / "model.ckpt.json").read_text(), path.read_bytes()


def loads_or_refuses(path, manifest: str, blob: bytes) -> bool:
    """Load a checkpoint written from manifest and blob: the arrays must be the
    blob's float64 words, or the loader must raise FormatError."""
    path.write_bytes(blob)
    (path.parent / (path.name + ".json")).write_text(manifest)
    try:
        params = load_checkpoint(path, SMALL)
    except FormatError:
        return False
    assert np.concatenate([a.ravel() for _, a in iter_arrays(params)]).tobytes() == blob
    return True


def a_overflows(manifest: str, blob: bytes) -> bool:
    """Whether a log_a entry of blob holds a value whose a = -exp(log_a) is infinite."""
    words = np.frombuffer(blob, dtype="<f8")
    with np.errstate(over="ignore"):
        return any(np.isinf(np.exp(words[e["offset"] // 8:][:math.prod(e["shape"])])).any()
                   for e in json.loads(manifest)["entries"] if e["name"].endswith(".log_a"))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


def _target(m, data):
    """The top-level object or one of its entries, whichever the draw picks."""
    entries = m.get("entries")
    if isinstance(entries, list) and entries and data.draw(st.booleans()):
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        return entry if isinstance(entry, dict) else m
    return m


def _edit_key(m, data):
    t = _target(m, data)
    t[data.draw(st.sampled_from(sorted(t) or ["name"]))] = data.draw(json_values)


def _add_key(m, data):
    _target(m, data)[data.draw(st.text(max_size=6))] = data.draw(json_values)


def _drop_key(m, data):
    t = _target(m, data)
    if t:
        del t[data.draw(st.sampled_from(sorted(t)))]


def _swap_entries(m, data):
    entries = m.get("entries")
    if isinstance(entries, list) and entries:
        i, j = (data.draw(st.integers(0, len(entries) - 1)) for _ in range(2))
        entries[i], entries[j] = entries[j], entries[i]


def _repeat_entry(m, data):
    entries = m.get("entries")
    if isinstance(entries, list) and entries:
        i, j = (data.draw(st.integers(0, len(entries) - 1)) for _ in range(2))
        entries.insert(j, copy.deepcopy(entries[i]))


def _drop_entry(m, data):
    entries = m.get("entries")
    if isinstance(entries, list) and entries:
        del entries[data.draw(st.integers(0, len(entries) - 1))]


def _swap_int(m, data):
    """Replace an offset or a dimension with true, its float or its string."""
    t = _target(m, data)
    slots = [(t, "offset")] if isinstance(t.get("offset"), int) else []
    if isinstance(t.get("shape"), list):
        slots += [(t["shape"], i) for i, d in enumerate(t["shape"]) if isinstance(d, int)]
    if slots:
        holder, key = data.draw(st.sampled_from(slots))
        holder[key] = data.draw(st.sampled_from([True, float(holder[key]), str(holder[key])]))


fuzz_settings = settings(max_examples=40, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCheckpointFuzz:
    """Any manifest or blob mutation loads the blob's words or raises FormatError."""

    @fuzz_settings
    @given(data=st.data())
    def test_manifest_mutations(self, tmp_path, saved_small, data):
        manifest, blob = saved_small
        m = json.loads(manifest)
        mutations = [_edit_key, _add_key, _drop_key, _swap_entries, _repeat_entry,
                     _drop_entry, _swap_int]
        for mutate in data.draw(st.lists(st.sampled_from(mutations), min_size=1, max_size=3)):
            mutate(m, data)
        loaded = loads_or_refuses(tmp_path / "model.ckpt", json.dumps(m), blob)
        # only the manifest save_checkpoint wrote loads, whatever its key order
        assert loaded == (json.dumps(m, sort_keys=True)
                          == json.dumps(json.loads(manifest), sort_keys=True))

    @fuzz_settings
    @given(data=st.data())
    def test_blob_mutations(self, tmp_path, saved_small, data):
        manifest, blob = saved_small
        words = len(blob) // 8
        value = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf])
        kind = data.draw(st.sampled_from(["truncate", "extend", "overwrite", "log_a"]))
        if kind == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        elif kind == "extend":
            blob += data.draw(st.binary(min_size=1, max_size=16))
        elif kind == "log_a":
            # one log_a word near log(float64 max) ~ 709.78, where exp(log_a) overflows
            entry = data.draw(st.sampled_from([e for e in json.loads(manifest)["entries"]
                                               if e["name"].endswith(".log_a")]))
            i = entry["offset"] // 8 + data.draw(st.integers(0, math.prod(entry["shape"]) - 1))
            out = bytearray(blob)
            out[8 * i:8 * i + 8] = np.float64(data.draw(st.floats(700, 720))).tobytes()
            blob = bytes(out)
        else:
            out = bytearray(blob)
            for i, v in data.draw(st.lists(st.tuples(st.integers(0, words - 1), value),
                                           min_size=1, max_size=4)):
                out[8 * i:8 * i + 8] = np.float64(v).tobytes()
            blob = bytes(out)
        loaded = loads_or_refuses(tmp_path / "model.ckpt", manifest, blob)
        assert loaded == (kind in ("overwrite", "log_a") and bool(np.isfinite(
            np.frombuffer(blob, dtype="<f8")).all()) and not a_overflows(manifest, blob))
