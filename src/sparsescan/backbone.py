"""Four-stage recurrent backbone over sparsified event tokens.

Each timestep embeds a voxel grid into patch tokens, then runs four
stages. A stage applies a sparse multi-direction scan block, a token
mixer (a sparse MLP in the early stages, a global channel-interaction
block in the late ones), and a convolutional LSTM whose state persists
across timesteps, fed the mixer output; the stage output is the LSTM
hidden map h itself. Between stages, features are merged 2x2 and
projected.

Feature maps are channel-last from the patch embedding to the LSTM: a
stage's map is (H, W, C), a stack of T maps (T, H, W, C), and the LSTM
states and gates are (H, W, C), so kept tokens are (n, C) rows indexed
straight out of a map. The layout changes in three places only:
patch_embed reads the (2B, H, W) voxel grid through a channel-last
view, GCI puts the channels on its scan axis, and backbone_forward
returns each stage output as a (C, H, W) view.

The forward runs stage-major: stage s at step t needs only stage s - 1
at t and its own LSTM state from t - 1, so each stage runs over the
(T, ...) stack of all a call's timesteps at once, and only the LSTM
recurrence loops over t. Each block's weights are then read once per
call rather than once per timestep; only the small patch embedding runs
grid by grid. Every block takes one map or a
stack with a leading timestep axis through the same code. Long calls
run in batches of _timesteps_per_batch(cfg) timesteps, which bounds the
stack's working set.

A stage is the public map-level blocks composed, and the forward has no
other route: sparse_ss2d, then gci_forward or sparse_mlp, then
convlstm_step and downsample_features, with the keep mask and score map
max-pooled 2x after each downsample. The sparse blocks compute only at
kept token positions, gathering the (T, n, C) kept tokens of the stack
and scattering them back, and pass discarded positions through
bit-unchanged. sparse_ss2d builds its stage's token plan, with the IPL
window ipl_window derives from the stage grid, once per stage per batch
of timesteps.

All parameters live in plain float64 arrays; checkpoints serialize them
as one flat little-endian blob plus a JSON manifest. load_checkpoint
accepts only the manifest save_checkpoint writes for its config, so a
checkpoint is bound to its config, sensor size included (GCI's scan
lanes are the stage grid's positions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from itertools import zip_longest
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import blas
from .errors import ConfigError, FormatError, ShapeError
from .event_io import VoxelGrid
from .flops import NULL_METER, FlopsMeter
from .nn import (conv2d_same, depthwise_conv2d, gelu, layer_norm, patchify, sigmoid, silu,
                 stencil_taps)
from .s6 import S6Params, init_s6_params, s6_forward
from .scan_order import ipl_order
from .sparsify import TokenSet, gather_tokens, scatter_tokens
from .stca import max_pool2d

_CHECKPOINT_FORMAT = "sparsescan-checkpoint-v1"


def ipl_window(grid: tuple[int, int]) -> int:
    """IPL window of a token grid: 2 where the grid is even in both
    dimensions and at least 2, else 1."""
    gh, gw = grid
    return 2 if gh % 2 == 0 and gw % 2 == 0 and min(gh, gw) >= 2 else 1


@dataclass(frozen=True)
class BackboneConfig:
    """Backbone geometry and widths, checked at construction. Each stage's
    IPL window is ipl_window(grid(stage))."""

    patch: ClassVar[int] = 4
    mlp_expand: ClassVar[int] = 4
    gci_stages: ClassVar[tuple[int, ...]] = (3, 4)   # 1-indexed
    height: int = 64
    width: int = 64
    bins: int = 10
    channels: tuple[int, ...] = (32, 64, 128, 256)
    n_state: int = 16
    inner_expand: int = 4

    def __post_init__(self):
        self.validate()

    @property
    def n_stages(self) -> int:
        return len(self.channels)

    def grid(self, stage: int) -> tuple[int, int]:
        """Token grid (rows, cols) of a 0-indexed stage."""
        f = self.patch * (1 << stage)
        return self.height // f, self.width // f

    def validate(self) -> None:
        if min(self.height, self.width, self.bins, self.n_state, self.inner_expand,
               *self.channels) < 1:
            raise ConfigError("height, width, bins, channels, n_state and inner_expand "
                              "must be positive")
        if self.n_stages < max(self.gci_stages):
            raise ConfigError(f"need at least {max(self.gci_stages)} stages for GCI")
        for s in range(self.n_stages):
            f = self.patch * (1 << s)
            if self.height % f or self.width % f:
                raise ConfigError(f"stage {s + 1} grid does not divide {self.height}x{self.width}")


@dataclass
class LayerNormParams:
    gain: np.ndarray
    bias: np.ndarray


@dataclass
class Ss2dParams:
    norm: LayerNormParams
    w_in: np.ndarray       # (D, C)
    b_in: np.ndarray
    w_gate: np.ndarray     # (D, C)
    b_gate: np.ndarray
    dw_kernel: np.ndarray  # (D, 3, 3)
    dw_bias: np.ndarray
    s6_fwd: S6Params
    s6_bwd: S6Params
    s6_ipl: S6Params
    w_out: np.ndarray      # (C, D)
    b_out: np.ndarray


@dataclass
class MlpParams:
    norm: LayerNormParams
    w1: np.ndarray         # (E, C)
    b1: np.ndarray
    w2: np.ndarray         # (C, E)
    b2: np.ndarray


@dataclass
class GciParams:
    w_pre: np.ndarray      # (C, C)
    b_pre: np.ndarray
    dw_kernel: np.ndarray  # (C, 3, 3)
    dw_bias: np.ndarray
    s6_fwd: S6Params       # lanes = flattened spatial size, sequence = channels
    s6_bwd: S6Params
    w_mix: np.ndarray      # (C, C)
    b_mix: np.ndarray
    w_out: np.ndarray      # (C, C)
    b_out: np.ndarray


@dataclass
class ConvLstmParams:
    w_x: np.ndarray        # (4C, C, 3, 3), gate order i, f, g, o
    w_h: np.ndarray        # (4C, C, 3, 3)
    bias: np.ndarray       # (4C,)


@dataclass
class LstmState:
    h: np.ndarray          # (H, W, C)
    c: np.ndarray          # (H, W, C)


@dataclass
class StageParams:
    ss2d: Ss2dParams
    mixer: MlpParams | GciParams
    lstm: ConvLstmParams
    down_w: np.ndarray | None    # (C_next, 4C)
    down_b: np.ndarray | None


@dataclass
class BackboneParams:
    w_embed: np.ndarray    # (C1, 2B * P * P)
    b_embed: np.ndarray
    stages: list[StageParams]


def _linear_init(rng, out_dim, in_dim):
    return rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))


class _Zeros:
    """A np.random.Generator stand-in that draws nothing: every sample is 0."""
    normal = uniform = staticmethod(lambda loc, scale, size: np.zeros(size))


def init_backbone_params(cfg: BackboneConfig, seed: int = 0) -> BackboneParams:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return _build_params(cfg, np.random.default_rng(seed))


def _build_params(cfg: BackboneConfig, rng) -> BackboneParams:
    c1 = cfg.channels[0]
    in_dim = 2 * cfg.bins * cfg.patch * cfg.patch
    stages = []
    for s, c in enumerate(cfg.channels):
        d = cfg.inner_expand * c
        ss2d = Ss2dParams(
            norm=LayerNormParams(np.ones(c), np.zeros(c)),
            w_in=_linear_init(rng, d, c), b_in=np.zeros(d),
            w_gate=_linear_init(rng, d, c), b_gate=np.zeros(d),
            dw_kernel=rng.normal(0.0, 1.0 / 3.0, size=(d, 3, 3)), dw_bias=np.zeros(d),
            s6_fwd=init_s6_params(d, cfg.n_state, rng),
            s6_bwd=init_s6_params(d, cfg.n_state, rng),
            s6_ipl=init_s6_params(d, cfg.n_state, rng),
            w_out=_linear_init(rng, c, d), b_out=np.zeros(c),
        )
        if (s + 1) in cfg.gci_stages:
            gh, gw = cfg.grid(s)
            lanes = gh * gw
            mixer = GciParams(
                w_pre=_linear_init(rng, c, c), b_pre=np.zeros(c),
                dw_kernel=rng.normal(0.0, 1.0 / 3.0, size=(c, 3, 3)), dw_bias=np.zeros(c),
                s6_fwd=init_s6_params(lanes, cfg.n_state, rng),
                s6_bwd=init_s6_params(lanes, cfg.n_state, rng),
                w_mix=_linear_init(rng, c, c), b_mix=np.zeros(c),
                w_out=_linear_init(rng, c, c), b_out=np.zeros(c),
            )
        else:
            e = cfg.mlp_expand * c
            mixer = MlpParams(
                norm=LayerNormParams(np.ones(c), np.zeros(c)),
                w1=_linear_init(rng, e, c), b1=np.zeros(e),
                w2=_linear_init(rng, c, e), b2=np.zeros(c),
            )
        bias = np.zeros(4 * c)
        bias[c:2 * c] = 1.0   # forget gate starts open
        lstm = ConvLstmParams(
            w_x=rng.normal(0.0, 1.0 / np.sqrt(9 * c), size=(4 * c, c, 3, 3)),
            w_h=rng.normal(0.0, 1.0 / np.sqrt(9 * c), size=(4 * c, c, 3, 3)),
            bias=bias,
        )
        if s + 1 < cfg.n_stages:
            cn = cfg.channels[s + 1]
            down_w, down_b = _linear_init(rng, cn, 4 * c), np.zeros(cn)
        else:
            down_w = down_b = None
        stages.append(StageParams(ss2d=ss2d, mixer=mixer, lstm=lstm,
                                  down_w=down_w, down_b=down_b))
    return BackboneParams(w_embed=_linear_init(rng, c1, in_dim),
                          b_embed=np.zeros(c1), stages=stages)


def init_lstm_states(cfg: BackboneConfig) -> list[LstmState]:
    out = []
    for s, c in enumerate(cfg.channels):
        gh, gw = cfg.grid(s)
        out.append(LstmState(h=np.zeros((gh, gw, c)), c=np.zeros((gh, gw, c))))
    return out


def _patch_linear(x: np.ndarray, patch: int, w: np.ndarray, b: np.ndarray,
                  meter: FlopsMeter, label: str) -> np.ndarray:
    """Project the non-overlapping P x P patches of (..., H, W, C) maps with
    one matmul to (..., H/P, W/P, C_out)."""
    per_patch = x.shape[-1] * patch * patch
    if per_patch != w.shape[1]:
        raise ShapeError(f"{label} expects {w.shape[1]} inputs per patch, got {per_patch}")
    col = patchify(x, patch)
    rows = col.reshape(-1, col.shape[-1])
    y = rows @ w.T + b
    meter.macs(label, rows.size * w.shape[0])
    meter.elem(label, y.size)
    h, wd = x.shape[-3:-1]
    return y.reshape(x.shape[:-3] + (h // patch, wd // patch, -1))


def patch_embed(values: np.ndarray, patch: int, w: np.ndarray, b: np.ndarray,
                meter: FlopsMeter = NULL_METER, label: str = "embed") -> np.ndarray:
    """Project non-overlapping P x P voxel patches of (..., 2B, H, W) grids
    to channel-last tokens, (..., H/P, W/P, C1)."""
    return _patch_linear(np.moveaxis(values, -3, -1), patch, w, b, meter, label)


@dataclass(frozen=True)
class StagePlan:
    """A stage's kept tokens, built from its (keep, scores):
    coordinates and grid index, each token's 3x3 neighbour rows (-1 where
    discarded or off-grid) and the IPL scan permutation, in windows of
    ipl_window(keep.shape)."""

    ts: TokenSet       # coordinates and grid index; no channels
    nbr: np.ndarray    # (n, 9) int64
    ipl: np.ndarray    # (n,) int64

    @classmethod
    def build(cls, keep: np.ndarray, scores: np.ndarray) -> StagePlan:
        ts = gather_tokens(np.empty(keep.shape + (0,)), keep)
        rows, cols = ts.coords.T
        taps = stencil_taps(ts.index[..., None], fill=-1)     # (H, W, 1) views
        nbr = np.stack([tap[rows, cols, 0] for tap in taps], axis=1)
        return cls(ts, nbr, ipl_order(ts, scores, ipl_window(keep.shape)))


def _sparse_depthwise(tokens: np.ndarray, nbr: np.ndarray, kernel, bias):
    """3x3 depthwise pass over kept tokens; missing neighbours read as 0.

    Row i of the (n, 9) neighbour table names token i's nine neighbours,
    with -1 for a missing one, which reads the zero row appended to the
    tokens.
    """
    padded = np.vstack([tokens, np.zeros((1, tokens.shape[1]))])
    return np.einsum("nkd,dk->nd", padded[nbr], kernel.reshape(-1, 9)) + bias


def sparse_ss2d(x: np.ndarray, keep: np.ndarray, scores: np.ndarray, p: Ss2dParams,
                meter: FlopsMeter = NULL_METER, label: str = "ss2d",
                parallel: bool = False) -> np.ndarray:
    """Multi-direction selective scan over the kept tokens of an (H, W, C)
    map or a (T, H, W, C) stack; discarded ones return bit-equal.

    The stage plan is built from (keep, scores) once per call, and the
    (T, n, C) kept tokens are gathered once and scattered back once. They
    are normalized, projected, depthwise-mixed (one map at a time, which
    bounds the (n, 9, D) neighbour gather), serialized forward, backward
    and in IPL order through three scan blocks, the T maps scanning as T
    sequences of one call, merged by sum, gated, projected back and added
    residually. Every projection is one matmul over all T * n rows.
    """
    plan = StagePlan.build(keep, scores)
    ts = plan.ts.regather(x)
    n, c = ts.tokens.shape[-2:]
    rows = ts.tokens.reshape(-1, c)
    m = len(rows)
    if m == 0:
        return x.copy()
    d = p.w_in.shape[0]
    t = layer_norm(rows, p.norm.gain, p.norm.bias)
    meter.elem(label, 8 * m * c)
    pre = (t @ p.w_in.T + p.b_in).reshape(-1, n, d)
    seq = np.empty((n, len(pre), d))      # scan order: token, map, channel
    for i in range(len(pre)):
        seq[:, i] = _sparse_depthwise(pre[i], plan.nbr, p.dw_kernel, p.dw_bias)
    del pre          # each (T * n, D) array goes once used, which bounds the peak
    seq *= sigmoid(seq)                   # silu, in place
    meter.macs(label, 9 * m * d)
    meter.elem(label, 2 * m * d)
    acc = bidi_scan(seq, p.s6_fwd, p.s6_bwd, meter, label, parallel)
    seq = seq[plan.ipl]
    y, _ = s6_forward(seq, p.s6_ipl, parallel=parallel, meter=meter, label=label)
    del seq
    acc[plan.ipl] += y
    meter.elem(label, m * d)
    del y
    gate = silu(t @ p.w_gate.T + p.b_gate)
    meter.macs(label, 2 * m * c * d)
    meter.elem(label, 3 * m * d)
    mixed = np.swapaxes(acc, 0, 1).reshape(m, d) * gate
    ts.tokens += (mixed @ p.w_out.T + p.b_out).reshape(ts.tokens.shape)
    meter.macs(label, m * d * c)
    meter.elem(label, m * d + 2 * m * c)
    return scatter_tokens(ts, x)


def sparse_mlp(x: np.ndarray, keep: np.ndarray, p: MlpParams,
               meter: FlopsMeter = NULL_METER, label: str = "mlp") -> np.ndarray:
    """Two-layer MLP added residually at the kept tokens of an (H, W, C)
    map or a (T, H, W, C) stack; discarded ones return bit-equal."""
    ts = gather_tokens(x, keep)
    c = x.shape[-1]
    rows = ts.tokens.reshape(-1, c)
    m = len(rows)
    if m == 0:
        return x.copy()
    e = p.w1.shape[0]
    t = layer_norm(rows, p.norm.gain, p.norm.bias)
    meter.elem(label, 8 * m * c)
    hmid = gelu(t @ p.w1.T + p.b1)
    meter.macs(label, m * c * e)
    meter.elem(label, 2 * m * e)
    ts.tokens += (hmid @ p.w2.T + p.b2).reshape(ts.tokens.shape)
    meter.macs(label, m * e * c)
    meter.elem(label, 2 * m * c)
    return scatter_tokens(ts, x)


def bidi_scan(x: np.ndarray, s6_fwd: S6Params, s6_bwd: S6Params,
              meter: FlopsMeter = NULL_METER, label: str = "scan",
              parallel: bool = False) -> np.ndarray:
    """Scan axis 0 forward and backward and sum the two outputs.

    Trailing axes are flattened and cut into sequences of the blocks' lane
    count, which scan side by side: GCI's (C, T, H, W) copy of its maps
    scans their channels with one spatial layout per step, and an
    (n, T, D) token stack scans T token sequences.
    """
    seq = x.reshape(len(x), -1, s6_fwd.n_lanes)
    y, _ = s6_forward(seq, s6_fwd, parallel=parallel, meter=meter, label=label)
    yb, _ = s6_forward(seq[::-1], s6_bwd, parallel=parallel, meter=meter, label=label)
    y += yb[::-1]
    meter.elem(label, y.size)
    return y.reshape(x.shape)


def gci_forward(x: np.ndarray, p: GciParams, meter: FlopsMeter = NULL_METER,
                label: str = "gci", parallel: bool = False) -> np.ndarray:
    """Global channel interaction on a dense (H, W, C) map or (T, H, W, C) stack.

    Branch 1 projects, depthwise-mixes (edge padding, so constant fields
    pass through a sum-normalized kernel unchanged) and channel-scans the
    map, the T maps scanning as T sequences of one call; branch 2 is a
    pointwise 1x1 channel mix of the input. The output projection of their
    sum is added residually. Every projection is one matmul over the
    (cells, C) rows of all maps.
    """
    h, w, c = x.shape[-3:]
    if h * w != p.s6_fwd.n_lanes:
        raise ShapeError(f"GCI scans {p.s6_fwd.n_lanes} grid cells, got a {h}x{w} map")
    rows = x.reshape(-1, c)
    cells = len(rows)
    pre = rows @ p.w_pre.T + p.b_pre
    meter.macs(label, cells * c * c)
    meter.elem(label, cells * c)
    b1_in = silu(depthwise_conv2d(pre.reshape(x.shape), p.dw_kernel, p.dw_bias, edge=True))
    meter.macs(label, 9 * cells * c)
    meter.elem(label, 2 * cells * c)
    # the one transpose: channels become the scan axis, the cells its lanes
    b1 = bidi_scan(np.moveaxis(b1_in, -1, 0), p.s6_fwd, p.s6_bwd, meter, label, parallel)
    b2 = rows @ p.w_mix.T + p.b_mix
    meter.macs(label, cells * c * c)
    meter.elem(label, cells * c)
    merged = b1.reshape(c, cells).T + b2
    meter.elem(label, cells * c)
    upd = merged @ p.w_out.T + p.b_out
    meter.macs(label, cells * c * c)
    meter.elem(label, cells * c)
    out = x + upd.reshape(x.shape)
    meter.elem(label, cells * c)
    return out


def convlstm_step(x: np.ndarray, state: LstmState, p: ConvLstmParams,
                  meter: FlopsMeter = NULL_METER, label: str = "lstm"):
    """Convolutional LSTM with 3x3 gates over one (H, W, C) input or T steps
    (T, H, W, C). Returns (h', state): each step's hidden map, shaped like
    x, and the state after the last step.

    The input convolution of all steps is one matmul; only the recurrent
    convolution and the gate math loop over the steps. The recurrent
    convolution is skipped while ``state.h`` is all zero (a fresh state):
    it would add exact zeros. The meter still counts its MACs.
    """
    h, w, c = x.shape[-3:]
    cout = p.bias.size // 4
    if state.h.shape != (h, w, cout) or state.c.shape != (h, w, cout):
        raise ShapeError(f"LSTM state h {state.h.shape} and c {state.c.shape} "
                         f"must both be {(h, w, cout)}")
    gates_x = conv2d_same(x.reshape(-1, h, w, c), p.w_x)
    hs = np.empty((len(gates_x), h, w, cout))
    for gates, h_out in zip(gates_x, hs):
        if state.h.any():
            gates += conv2d_same(state.h, p.w_h)
        gates += p.bias
        gi, gf, gg, go = (gates[..., i * cout:(i + 1) * cout] for i in range(4))
        c_new = sigmoid(gf) * state.c + sigmoid(gi) * np.tanh(gg)
        h_new = sigmoid(go) * np.tanh(c_new)
        h_out[...] = h_new
        state = LstmState(h=h_new, c=c_new)
    steps = len(hs)
    meter.macs(label, steps * (h * w * 9 * c * 4 * cout + h * w * 9 * cout * 4 * cout))
    meter.elem(label, steps * h * w * 4 * cout)
    meter.elem(label, steps * 9 * h * w * cout)
    return hs.reshape(x.shape[:-1] + (cout,)), state


def downsample_features(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                        meter: FlopsMeter = NULL_METER, label: str = "down") -> np.ndarray:
    """Merge 2x2 token neighborhoods of (..., H, W, C) maps and project to
    the next stage width."""
    return _patch_linear(x, 2, w, b, meter, label)


# Timesteps that run through the stages together: as many as keep one
# stage-1 inner activation (kept tokens x inner width, float64) within
# 2 MB, and at least one. The stack's arrays grow with this count, so it
# bounds the working set of a long call; a 64x64 forward batches 8.
_BATCH_ELEMS = 1 << 18


def _timesteps_per_batch(cfg: BackboneConfig) -> int:
    gh, gw = cfg.grid(0)
    return max(1, _BATCH_ELEMS // (gh * gw * cfg.inner_expand * cfg.channels[0]))


def backbone_forward(voxels, keep: np.ndarray, scores: np.ndarray,
                     cfg: BackboneConfig, params: BackboneParams,
                     states: list[LstmState] | None = None,
                     meter: FlopsMeter = NULL_METER, parallel: bool = False):
    """Run the backbone over a sequence of voxel grids, stage-major.

    Each batch of timesteps runs stage by stage over its (T, ...) stack,
    with the LSTM states carried from step to step and batch to batch.
    Returns (outputs, states): one list of per-stage (C, H, W) feature
    maps per timestep, each a view of the stage's channel-last stack, and
    a new list of the updated (H, W, C) LSTM states; the given states
    list is left as it was.

    Forwards may run in several threads at once. While more than one is
    in flight, OpenBLAS runs one thread per call so that the forwards
    share the cores instead of contending for its one pool; a lone
    forward leaves the thread count alone (blas.ThreadPolicy). Outputs do
    not depend on the thread count. Another process taking a core is not
    covered.
    """
    with blas.POLICY.forward():
        grid0 = cfg.grid(0)
        if keep.shape != grid0 or scores.shape != grid0:
            raise ShapeError(f"keep mask and scores must have shape {grid0}")
        states = init_lstm_states(cfg) if states is None else list(states)
        if len(states) != cfg.n_stages:
            raise ShapeError(f"got {len(states)} LSTM states for {cfg.n_stages} stages")
        values = [vox.values if isinstance(vox, VoxelGrid) else np.asarray(vox) for vox in voxels]
        for v in values:
            if v.shape != (2 * cfg.bins, cfg.height, cfg.width):
                raise ShapeError(f"voxel grid shape {v.shape} does not match config")
        outputs = []
        batch = _timesteps_per_batch(cfg)
        for start in range(0, len(values), batch):
            # grid by grid: a stacked copy of the grids next to their patch rows
            # made the allocator map fresh pages on every call, and the small
            # embedding weight gains nothing from a batch
            x = np.stack([patch_embed(v, cfg.patch, params.w_embed, params.b_embed, meter)
                          for v in values[start:start + batch]])
            k_map, s_map = keep, scores
            stage_outs = []
            for s, sp in enumerate(params.stages):
                tag = f"stage{s + 1}"
                x = sparse_ss2d(x, k_map, s_map, sp.ss2d, meter, f"{tag}.ss2d", parallel)
                if isinstance(sp.mixer, GciParams):
                    x = gci_forward(x, sp.mixer, meter, f"{tag}.gci", parallel)
                else:
                    x = sparse_mlp(x, k_map, sp.mixer, meter, f"{tag}.mlp")
                x, states[s] = convlstm_step(x, states[s], sp.lstm, meter, f"{tag}.lstm")
                stage_outs.append(np.moveaxis(x, -1, -3))
                if sp.down_w is not None:
                    x = downsample_features(x, sp.down_w, sp.down_b, meter, f"{tag}.down")
                    k_map, s_map = max_pool2d(k_map, 2), max_pool2d(s_map, 2)
            outputs += [list(step) for step in zip(*stage_outs)]
        return outputs, states


def iter_arrays(obj, prefix=""):
    """Yield (dotted name, array) for every ndarray leaf, in field order."""
    if isinstance(obj, np.ndarray):
        yield prefix, obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from iter_arrays(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from iter_arrays(item, f"{prefix}[{i}]")
    # scalars and None carry no learnable state


def _manifest(params: BackboneParams) -> dict:
    """The manifest save_checkpoint writes for params: each array's name, byte offset and shape."""
    entries, offset = [], 0
    for name, arr in iter_arrays(params):
        entries.append({"name": name, "offset": offset, "shape": list(arr.shape)})
        offset += 8 * arr.size
    return {"format": _CHECKPOINT_FORMAT, "dtype": "<f8", "entries": entries}


def save_checkpoint(params: BackboneParams, path: str | Path) -> None:
    """Write parameters as flat little-endian float64 plus a JSON manifest."""
    path = Path(path)
    path.write_bytes(b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                              for _, arr in iter_arrays(params)))
    Path(str(path) + ".json").write_text(json.dumps(_manifest(params), indent=1))


def _canonical(manifest) -> str:
    return json.dumps(manifest, sort_keys=True)   # True == 1 and 8.0 == 8, but not as JSON


def _first_difference(found, expected: dict) -> str:
    """Name the first entry, or else the header, where found departs from expected."""
    entries = found.get("entries") if isinstance(found, dict) else None
    pairs = zip_longest(entries if isinstance(entries, list) else [], expected["entries"])
    for i, (have, want) in enumerate(map(_canonical, pair) for pair in pairs):
        if have != want:
            return f"entry {i} is {have[:200]}, expected {want}"
    have, want = ({k: v for k, v in m.items() if k != "entries"} for m in (found, expected))
    return f"header is {_canonical(have)[:200]}, expected {_canonical(want)}"


def load_checkpoint(path: str | Path, cfg: BackboneConfig) -> BackboneParams:
    """Restore the parameters save_checkpoint wrote for cfg's parameter tree."""
    path, manifest_path = Path(path), Path(str(path) + ".json")
    if not manifest_path.exists():
        raise FormatError(f"missing checkpoint manifest {manifest_path}")
    try:
        found = json.loads(manifest_path.read_text())
        text = _canonical(found)
    except (ValueError, RecursionError):
        raise FormatError(f"malformed checkpoint manifest {manifest_path}") from None
    params = _build_params(cfg, _Zeros())   # only the tree's shapes matter here
    expected = _manifest(params)
    if text != _canonical(expected):
        raise FormatError(f"checkpoint manifest does not fit {cfg}: "
                          f"{_first_difference(found, expected)}")
    blob, size = path.read_bytes(), 8 * sum(arr.size for _, arr in iter_arrays(params))
    if len(blob) != size:
        raise FormatError(f"checkpoint blob holds {len(blob)} bytes, its manifest {size}")
    words = np.frombuffer(blob, dtype="<f8")
    for name, arr in iter_arrays(params):
        chunk, words = words[:arr.size], words[arr.size:]
        if not np.isfinite(chunk).all():
            raise FormatError(f"checkpoint entry {name!r} holds a non-finite value")
        # a = -exp(log_a) must be finite; a zero or subnormal a scans exactly
        if name.endswith(".log_a") and chunk.max() > np.log(np.finfo(np.float64).max):
            raise FormatError(f"checkpoint entry {name!r} holds a log_a whose exp overflows")
        np.copyto(arr, chunk.reshape(arr.shape))
    return params
