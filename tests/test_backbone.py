"""Backbone blocks and the four-stage forward pass.

Block-level identities (passthrough, residual dominance) are bit-level
requirements; the dense-reference comparison for the whole backbone
lives in the acceptance battery, so here we only pin block behavior
and the stage shape/state contracts.
"""

import json
import math
import warnings

import numpy as np
import pytest

from sparsescan.backbone import (
    BackboneConfig,
    ConvLstmParams,
    LstmState,
    _sparse_depthwise,
    backbone_forward,
    bidi_scan,
    convlstm_step,
    gci_forward,
    init_backbone_params,
    init_lstm_states,
    iter_arrays,
    load_checkpoint,
    patch_embed,
    save_checkpoint,
    sparse_mlp,
    sparse_ss2d,
)
from sparsescan.errors import FormatError, ShapeError
from sparsescan.event_io import build_voxel_grid, generate_synthetic_scene, scene_preset
from sparsescan.nn import depthwise_conv2d, gelu, layer_norm, sigmoid
from sparsescan.s6 import init_s6_params, s6_forward
from sparsescan.sparsify import gather_tokens
from sparsescan.stca import run_stca

SMALL = BackboneConfig(height=32, width=32, patch=4, bins=2,
                       channels=(8, 12, 16, 24), n_state=4,
                       inner_expand=2, ipl_k=(2, 2, 2, 1))


def small_inputs(seed=0, p_keep=0.5):
    rng = np.random.default_rng(seed)
    g = SMALL.grid(0)
    voxels = rng.standard_normal((2 * SMALL.bins, SMALL.height, SMALL.width))
    scores = rng.uniform(0, 1, size=g)
    keep = rng.random(g) < p_keep
    keep.flat[0] = True
    return voxels, keep, scores


class TestPatchEmbed:
    def test_shape(self):
        rng = np.random.default_rng(32)
        v = rng.standard_normal((20, 64, 64))
        w = rng.standard_normal((32, 20 * 16))
        out = patch_embed(v, 4, w, np.zeros(32))
        assert out.shape == (32, 16, 16)

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
        np.testing.assert_allclose(out[:, 0, 0], w[:, col])
        assert not out[:, 0, 1:].any()


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
            x = rng.standard_normal((d, h, w))
            keep = rng.random((h, w)) < p_keep
            keep[[0, -1], rng.integers(w)] = True
            keep[rng.integers(h), [0, -1]] = True
            ts = gather_tokens(x, keep)
            assert ts.index.dtype == np.int64
            np.testing.assert_array_equal(ts.index[keep], np.arange(len(ts)))
            assert (ts.index[~keep] == -1).all()
            got = _sparse_depthwise(ts.tokens, ts, kernel, bias)
            want = depthwise_conv2d(np.where(keep, x, 0.0), kernel, bias, pad_mode="constant")
            np.testing.assert_allclose(got, want[:, keep].T, rtol=1e-12, atol=1e-12)


class TestSparseSs2d:
    def test_all_discarded_is_passthrough(self):
        rng = np.random.default_rng(34)
        p = init_backbone_params(SMALL, seed=1).stages[0].ss2d
        x = rng.standard_normal((8, 8, 8))
        keep = np.zeros((8, 8), dtype=bool)
        out = sparse_ss2d(x, keep, np.ones((8, 8)), p)
        assert out.tobytes() == x.tobytes()

    def test_zero_out_projection_is_identity(self):
        rng = np.random.default_rng(35)
        p = init_backbone_params(SMALL, seed=2).stages[0].ss2d
        p.w_out[:] = 0.0
        p.b_out[:] = 0.0
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.6
        out = sparse_ss2d(x, keep, np.ones((8, 8)), p)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_discarded_positions_bit_equal(self):
        rng = np.random.default_rng(36)
        p = init_backbone_params(SMALL, seed=3).stages[0].ss2d
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.5
        out = sparse_ss2d(x, keep, rng.uniform(0, 1, (8, 8)), p)
        off = ~keep
        assert out[:, off].tobytes() == x[:, off].tobytes()

    def test_score_shape_mismatch(self):
        p = init_backbone_params(SMALL, seed=4).stages[0].ss2d
        with pytest.raises(ShapeError):
            sparse_ss2d(np.zeros((8, 8, 8)), np.ones((8, 8), dtype=bool),
                        np.ones((4, 4)), p)


class TestSparseMlp:
    def test_all_discarded_is_passthrough(self):
        rng = np.random.default_rng(37)
        p = init_backbone_params(SMALL, seed=5).stages[0].mixer
        x = rng.standard_normal((8, 8, 8))
        out = sparse_mlp(x, np.zeros((8, 8), dtype=bool), p)
        assert out.tobytes() == x.tobytes()

    def test_zero_second_layer_is_identity(self):
        rng = np.random.default_rng(38)
        p = init_backbone_params(SMALL, seed=6).stages[0].mixer
        p.w2[:] = 0.0
        p.b2[:] = 0.0
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.7
        np.testing.assert_allclose(sparse_mlp(x, keep, p), x, atol=1e-14)

    def test_kept_positions_match_dense_reference(self):
        rng = np.random.default_rng(39)
        p = init_backbone_params(SMALL, seed=7).stages[0].mixer
        x = rng.standard_normal((8, 8, 8))
        keep = rng.random((8, 8)) < 0.5
        out = sparse_mlp(x, keep, p)

        c = x.shape[0]
        flat = x.reshape(c, -1).T
        normed = layer_norm(flat, p.norm.gain, p.norm.bias)
        hidden = gelu(normed @ p.w1.T + p.b1)
        dense = (flat + (hidden @ p.w2.T + p.b2)).T.reshape(x.shape)
        np.testing.assert_allclose(out[:, keep], dense[:, keep], rtol=1e-12)


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
        x = rng.standard_normal((SMALL.channels[2], *g))
        np.testing.assert_allclose(gci_forward(x, p), x, atol=1e-14)

    def test_pointwise_branch_only(self):
        """Scan silenced: out = x + w_out @ (w_mix @ x + b_mix) + b_out."""
        rng = np.random.default_rng(44)
        p = init_backbone_params(SMALL, seed=9).stages[2].mixer
        for s6p in (p.s6_fwd, p.s6_bwd):
            s6p.w_c[:] = 0.0
            s6p.skip[:] = 0.0
        g = SMALL.grid(2)
        c = SMALL.channels[2]
        x = rng.standard_normal((c, *g))
        out = gci_forward(x, p)
        flat = x.reshape(c, -1)
        mixed = p.w_mix @ flat + p.b_mix[:, None]
        expected = flat + p.w_out @ mixed + p.b_out[:, None]
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
        x = np.zeros((c, *g))
        x[0], x[1] = 4.0, 2.0
        out = gci_forward(x, p)
        np.testing.assert_allclose(out[0], 4.0 + (2.0 * 4.0 - 1.0 * 2.0))
        np.testing.assert_allclose(out[1], 2.0 + (0.5 * 4.0 + 3.0 * 2.0))
        np.testing.assert_allclose(out[2:], 0.0, atol=1e-14)

    def test_constant_field_kernel_collapse(self):
        """On constant input a sum-normalized depthwise kernel acts like
        its center tap alone."""
        rng = np.random.default_rng(45)
        p = init_backbone_params(SMALL, seed=11).stages[2].mixer
        k = rng.standard_normal(p.dw_kernel.shape)
        k /= k.sum(axis=(1, 2), keepdims=True)
        g = SMALL.grid(2)
        c = SMALL.channels[2]
        x = np.ones((c, *g)) * rng.standard_normal((c, 1, 1))

        p.dw_kernel[:] = k
        full = gci_forward(x, p)
        center = np.zeros_like(k)
        center[:, 1, 1] = 1.0
        p.dw_kernel[:] = center
        collapsed = gci_forward(x, p)
        np.testing.assert_allclose(full, collapsed, rtol=1e-10, atol=1e-12)


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
        s = LstmState(h=np.zeros((c, 5, 5)), c=np.zeros((c, 5, 5)))
        h, ns = convlstm_step(np.ones((c, 5, 5)), s, p)
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
        cell = np.random.default_rng(46).standard_normal((c, 3, 3))
        s = LstmState(h=np.zeros((c, 3, 3)), c=cell.copy())
        _, ns = convlstm_step(np.zeros((c, 3, 3)), s, p)
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

    def test_keep_shape_mismatch(self):
        cfg = SMALL
        params = init_backbone_params(cfg, seed=20)
        voxels, keep, scores = small_inputs(seed=21)
        with pytest.raises(ShapeError):
            backbone_forward([voxels], keep[:4], scores, cfg, params)

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
    ], ids=["not-json", "not-object", "no-entries", "entries-not-list", "entry-not-object",
            "no-name", "no-offset", "no-shape", "list-name", "string-offset"])
    def test_malformed_manifest_rejected(self, tmp_path, corrupt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_backbone_params(SMALL, seed=28), path)
        manifest_path = tmp_path / "model.ckpt.json"
        manifest_path.write_text(corrupt(json.loads(manifest_path.read_text())))
        with pytest.raises(FormatError):
            load_checkpoint(path, SMALL)

    def test_wrong_geometry_rejected(self, tmp_path):
        params = init_backbone_params(SMALL, seed=25)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        other = BackboneConfig(height=32, width=32, patch=4, bins=2,
                               channels=(16, 24, 32, 48), n_state=4,
                               inner_expand=2, ipl_k=(2, 2, 2, 1))
        with pytest.raises(FormatError):
            load_checkpoint(path, other)
