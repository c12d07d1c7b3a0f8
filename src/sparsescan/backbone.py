"""Four-stage recurrent backbone over sparsified event tokens.

Each timestep embeds a voxel grid into patch tokens, then runs four
stages. A stage applies a sparse multi-direction scan block, a token
mixer (a sparse MLP in the early stages, a global channel-interaction
block in the late ones), and a convolutional LSTM whose state persists
across timesteps; the stage output is the mixer output plus the LSTM
response. Between stages, features are merged 2x2 and projected.

Sparse blocks compute only at kept token positions and pass discarded
positions through bit-unchanged. Each stage's token plan is built once
per call from the keep mask and score map, max-pooled to the stage grid;
per timestep a stage gathers its kept tokens once, runs the scan block
and the MLP on them in place, and scatters them once, before GCI or the
LSTM. All parameters live in plain float64 arrays; checkpoints serialize
them as one flat little-endian blob plus a JSON manifest mapping names
to byte offsets and shapes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, FormatError, ShapeError
from .event_io import VoxelGrid
from .flops import NULL_METER, FlopsMeter
from .nn import conv2d_same, depthwise_conv2d, gelu, layer_norm, patchify, sigmoid, silu
from .s6 import S6Params, init_s6_params, s6_forward
from .scan_order import ipl_order
from .sparsify import TokenSet, gather_tokens, scatter_tokens
from .stca import max_pool2d

_CHECKPOINT_FORMAT = "sparsescan-checkpoint-v1"


@dataclass(frozen=True)
class BackboneConfig:
    """Backbone geometry and widths, checked at construction. Each stage's
    IPL window (``ipl_windows``) is derived from its token grid: 2 where
    the grid is even in both dimensions and at least 2, else 1."""

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

    @property
    def ipl_windows(self) -> tuple[int, ...]:
        return tuple(2 if gh % 2 == 0 and gw % 2 == 0 and min(gh, gw) >= 2 else 1
                     for gh, gw in map(self.grid, range(self.n_stages)))

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
    ipl_k: int = 2


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
    h: np.ndarray
    c: np.ndarray


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


def init_backbone_params(cfg: BackboneConfig, seed: int = 0) -> BackboneParams:
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
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
            ipl_k=cfg.ipl_windows[s],
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
        out.append(LstmState(h=np.zeros((c, gh, gw)), c=np.zeros((c, gh, gw))))
    return out


def patch_embed(values: np.ndarray, patch: int, w: np.ndarray, b: np.ndarray,
                meter: FlopsMeter = NULL_METER, label: str = "embed") -> np.ndarray:
    """Project non-overlapping P x P voxel patches to tokens, (C1, H/P, W/P)."""
    col = patchify(values, patch)
    if col.shape[1] != w.shape[1]:
        raise ShapeError(f"embedding expects {w.shape[1]} inputs per patch, got {col.shape[1]}")
    tok = col @ w.T + b
    meter.macs(label, col.shape[0] * col.shape[1] * w.shape[0])
    meter.elem(label, col.shape[0] * w.shape[0])
    _, h, wd = values.shape
    return tok.T.reshape(w.shape[0], h // patch, wd // patch)


@dataclass(frozen=True)
class StagePlan:
    """A stage's kept tokens, built once per call from its (keep, scores):
    coordinates and grid index, each token's 3x3 neighbour rows (-1 where
    discarded or off-grid) and the IPL scan permutation."""

    keep: np.ndarray   # (H, W) bool
    ts: TokenSet       # coordinates and grid index; no channels
    nbr: np.ndarray    # (n, 9) int64
    ipl: np.ndarray    # (n,) int64

    @classmethod
    def build(cls, keep: np.ndarray, scores: np.ndarray, ipl_k: int) -> StagePlan:
        ts = gather_tokens(np.empty((0,) + keep.shape), keep)
        index = np.pad(ts.index, 1, constant_values=-1)
        nbr = sliding_window_view(index, (3, 3))[ts.coords[:, 0], ts.coords[:, 1]]
        return cls(keep, ts, nbr.reshape(-1, 9), ipl_order(ts, scores, ipl_k))


def stage_plans(keep: np.ndarray, scores: np.ndarray,
                ipl_k: tuple[int, ...]) -> list[StagePlan]:
    """One plan per stage: the inputs, then successive 2x max-pools."""
    plans = [StagePlan.build(keep, scores, ipl_k[0])]
    for k in ipl_k[1:]:
        keep, scores = max_pool2d(keep, 2), max_pool2d(scores, 2)
        plans.append(StagePlan.build(keep, scores, k))
    return plans


def _sparse_depthwise(tokens: np.ndarray, nbr: np.ndarray, kernel, bias):
    """3x3 depthwise pass over kept tokens; missing neighbours read as 0.

    Row i of the (n, 9) neighbour table names token i's nine neighbours,
    with -1 for a missing one, which reads the zero row appended to the
    tokens.
    """
    padded = np.vstack([tokens, np.zeros((1, tokens.shape[1]))])
    return np.einsum("nkd,dk->nd", padded[nbr], kernel.reshape(-1, 9)) + bias


def ss2d_tokens(tokens: np.ndarray, plan: StagePlan, p: Ss2dParams,
                meter: FlopsMeter = NULL_METER, label: str = "ss2d",
                parallel: bool = False) -> None:
    """Multi-direction selective scan over a stage's kept tokens, in place.

    Tokens are normalized, projected, depthwise-mixed, serialized
    forward, backward and in IPL order through three scan blocks, merged
    by sum, gated, projected back and added residually.
    """
    n, c = tokens.shape
    if n == 0:
        return
    d = p.w_in.shape[0]
    t = layer_norm(tokens, p.norm.gain, p.norm.bias)
    meter.elem(label, 8 * n * c)
    pre = t @ p.w_in.T + p.b_in
    gate = silu(t @ p.w_gate.T + p.b_gate)
    meter.macs(label, 2 * n * c * d)
    meter.elem(label, 3 * n * d)
    u = silu(_sparse_depthwise(pre, plan.nbr, p.dw_kernel, p.dw_bias))
    meter.macs(label, 9 * n * d)
    meter.elem(label, 2 * n * d)
    acc = bidi_scan(u, p.s6_fwd, p.s6_bwd, meter, label, parallel)
    y, _ = s6_forward(u[plan.ipl], p.s6_ipl, parallel=parallel, meter=meter, label=label)
    acc[plan.ipl] += y
    meter.elem(label, n * d)
    tokens += (acc * gate) @ p.w_out.T + p.b_out
    meter.macs(label, n * d * c)
    meter.elem(label, n * d + 2 * n * c)


def mlp_tokens(tokens: np.ndarray, p: MlpParams,
               meter: FlopsMeter = NULL_METER, label: str = "mlp") -> None:
    """Two-layer MLP over a stage's kept tokens, added residually in place."""
    n, c = tokens.shape
    if n == 0:
        return
    e = p.w1.shape[0]
    t = layer_norm(tokens, p.norm.gain, p.norm.bias)
    meter.elem(label, 8 * n * c)
    hmid = gelu(t @ p.w1.T + p.b1)
    meter.macs(label, n * c * e)
    meter.elem(label, 2 * n * e)
    tokens += hmid @ p.w2.T + p.b2
    meter.macs(label, n * e * c)
    meter.elem(label, 2 * n * c)


def sparse_ss2d(x: np.ndarray, keep: np.ndarray, scores: np.ndarray, p: Ss2dParams,
                meter: FlopsMeter = NULL_METER, label: str = "ss2d",
                parallel: bool = False) -> np.ndarray:
    """ss2d_tokens on a map's kept tokens; discarded ones return bit-equal."""
    plan = StagePlan.build(keep, scores, p.ipl_k)
    ts = plan.ts.regather(x)
    ss2d_tokens(ts.tokens, plan, p, meter, label, parallel)
    return scatter_tokens(ts, x)


def sparse_mlp(x: np.ndarray, keep: np.ndarray, p: MlpParams,
               meter: FlopsMeter = NULL_METER, label: str = "mlp") -> np.ndarray:
    """mlp_tokens on a map's kept tokens; discarded ones return bit-equal."""
    ts = gather_tokens(x, keep)
    mlp_tokens(ts.tokens, p, meter, label)
    return scatter_tokens(ts, x)


def bidi_scan(x: np.ndarray, s6_fwd: S6Params, s6_bwd: S6Params,
              meter: FlopsMeter = NULL_METER, label: str = "scan",
              parallel: bool = False) -> np.ndarray:
    """Scan axis 0 forward and backward and sum the two outputs.

    Trailing axes are flattened into the lane vector, so a (C, H, W) map
    scans its channels with one spatial layout per step.
    """
    seq = x.reshape(len(x), -1)
    y, _ = s6_forward(seq, s6_fwd, parallel=parallel, meter=meter, label=label)
    yb, _ = s6_forward(seq[::-1], s6_bwd, parallel=parallel, meter=meter, label=label)
    y += yb[::-1]
    meter.elem(label, y.size)
    return y.reshape(x.shape)


def gci_forward(x: np.ndarray, p: GciParams, meter: FlopsMeter = NULL_METER,
                label: str = "gci", parallel: bool = False) -> np.ndarray:
    """Global channel interaction on the dense map.

    Branch 1 projects, depthwise-mixes (edge padding, so constant fields
    pass through a sum-normalized kernel unchanged) and channel-scans the
    map; branch 2 is a pointwise 1x1 channel mix of the input. The output
    projection of their sum is added residually.
    """
    c, h, w = x.shape
    s = h * w
    flat = x.reshape(c, s)
    pre = (p.w_pre @ flat + p.b_pre[:, None]).reshape(c, h, w)
    meter.macs(label, s * c * c)
    meter.elem(label, s * c)
    b1_in = silu(depthwise_conv2d(pre, p.dw_kernel, p.dw_bias, pad_mode="edge"))
    meter.macs(label, 9 * s * c)
    meter.elem(label, 2 * s * c)
    b1 = bidi_scan(b1_in, p.s6_fwd, p.s6_bwd, meter, label, parallel)
    b2 = p.w_mix @ flat + p.b_mix[:, None]
    meter.macs(label, s * c * c)
    meter.elem(label, s * c)
    merged = b1.reshape(c, s) + b2
    meter.elem(label, s * c)
    upd = p.w_out @ merged + p.b_out[:, None]
    meter.macs(label, s * c * c)
    meter.elem(label, s * c)
    out = x + upd.reshape(c, h, w)
    meter.elem(label, s * c)
    return out


def convlstm_step(x: np.ndarray, state: LstmState, p: ConvLstmParams,
                  meter: FlopsMeter = NULL_METER, label: str = "lstm"):
    """One convolutional LSTM step with 3x3 gates. Returns (h', new state).

    The recurrent convolution is skipped while ``state.h`` is all zero (a
    fresh state): it would add exact zeros. The meter still counts its MACs.
    """
    c, h, w = x.shape
    cout = p.bias.size // 4
    if state.h.shape != (cout, h, w) or state.c.shape != (cout, h, w):
        raise ShapeError(f"LSTM state h {state.h.shape} and c {state.c.shape} "
                         f"must both be {(cout, h, w)}")
    gates = conv2d_same(x, p.w_x)
    if state.h.any():
        gates += conv2d_same(state.h, p.w_h)
    gates += p.bias[:, None, None]
    meter.macs(label, h * w * 9 * c * 4 * cout + h * w * 9 * cout * 4 * cout)
    meter.elem(label, h * w * 4 * cout)
    gi, gf, gg, go = (gates[i * cout:(i + 1) * cout] for i in range(4))
    c_new = sigmoid(gf) * state.c + sigmoid(gi) * np.tanh(gg)
    h_new = sigmoid(go) * np.tanh(c_new)
    meter.elem(label, 9 * h * w * cout)
    return h_new, LstmState(h=h_new, c=c_new)


def downsample_features(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                        meter: FlopsMeter = NULL_METER, label: str = "down") -> np.ndarray:
    """Merge 2x2 token neighborhoods and project to the next stage width."""
    col = patchify(x, 2)
    y = col @ w.T + b
    meter.macs(label, col.shape[0] * col.shape[1] * w.shape[0])
    meter.elem(label, col.shape[0] * w.shape[0])
    _, h, wd = x.shape
    return y.T.reshape(w.shape[0], h // 2, wd // 2)


def backbone_forward(voxels, keep: np.ndarray, scores: np.ndarray,
                     cfg: BackboneConfig, params: BackboneParams,
                     states: list[LstmState] | None = None,
                     meter: FlopsMeter = NULL_METER, parallel: bool = False):
    """Run the backbone over a sequence of voxel grids.

    Returns (outputs, states): one list of per-stage feature maps per
    timestep, and the updated LSTM states.
    """
    grid0 = cfg.grid(0)
    if keep.shape != grid0 or scores.shape != grid0:
        raise ShapeError(f"keep mask and scores must have shape {grid0}")
    if states is None:
        states = init_lstm_states(cfg)
    plans = stage_plans(keep, scores, cfg.ipl_windows)
    outputs = []
    for vox in voxels:
        values = vox.values if isinstance(vox, VoxelGrid) else np.asarray(vox)
        if values.shape != (2 * cfg.bins, cfg.height, cfg.width):
            raise ShapeError(f"voxel grid shape {values.shape} does not match config")
        x = patch_embed(values, cfg.patch, params.w_embed, params.b_embed, meter)
        stage_outs = []
        for s, (sp, plan) in enumerate(zip(params.stages, plans)):
            tag = f"stage{s + 1}"
            ts = plan.ts.regather(x)
            ss2d_tokens(ts.tokens, plan, sp.ss2d, meter, f"{tag}.ss2d", parallel)
            if isinstance(sp.mixer, GciParams):
                x = gci_forward(scatter_tokens(ts, x), sp.mixer, meter, f"{tag}.gci", parallel)
            else:
                mlp_tokens(ts.tokens, sp.mixer, meter, f"{tag}.mlp")
                x = scatter_tokens(ts, x)
            x, states[s] = convlstm_step(x, states[s], sp.lstm, meter, f"{tag}.lstm")
            stage_outs.append(x)
            if sp.down_w is not None:
                x = downsample_features(x, sp.down_w, sp.down_b, meter, f"{tag}.down")
        outputs.append(stage_outs)
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


def save_checkpoint(params: BackboneParams, path: str | Path) -> None:
    """Write parameters as flat little-endian float64 plus a JSON manifest."""
    path = Path(path)
    entries = []
    offset = 0
    chunks = []
    for name, arr in iter_arrays(params):
        data = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "offset": offset, "shape": list(arr.shape)})
        chunks.append(data.tobytes())
        offset += len(chunks[-1])
    path.write_bytes(b"".join(chunks))
    manifest = {"format": _CHECKPOINT_FORMAT, "dtype": "<f8", "entries": entries}
    Path(str(path) + ".json").write_text(json.dumps(manifest, indent=1))


def load_checkpoint(path: str | Path, cfg: BackboneConfig) -> BackboneParams:
    """Restore parameters saved by save_checkpoint into a cfg-shaped tree."""
    path = Path(path)
    manifest_path = Path(str(path) + ".json")
    if not manifest_path.exists():
        raise FormatError(f"missing checkpoint manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        entries = [(e["name"], e["offset"], tuple(e["shape"])) for e in manifest["entries"]]
    except (ValueError, KeyError, TypeError):
        # not JSON, not an object, or an entry without name/offset/shape
        raise FormatError(f"malformed checkpoint manifest {manifest_path}") from None
    if manifest.get("format") != _CHECKPOINT_FORMAT:
        raise FormatError(f"unsupported checkpoint format {manifest.get('format')!r}")
    if manifest.get("dtype") != "<f8":
        raise FormatError(f"unsupported checkpoint dtype {manifest.get('dtype')!r}")
    blob = path.read_bytes()
    params = init_backbone_params(cfg, seed=0)
    slots = dict(iter_arrays(params))
    seen = set()
    for name, off, shape in entries:
        if not isinstance(name, str) or name not in slots:
            raise FormatError(f"checkpoint entry {name!r} has no slot in this config")
        if slots[name].shape != shape:
            raise FormatError(f"checkpoint entry {name!r} shape {shape} != {slots[name].shape}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if not isinstance(off, int) or not 0 <= off <= len(blob) - 8 * count:
            raise FormatError(f"checkpoint entry {name!r} lies outside the {len(blob)}-byte blob")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(slots[name].shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"checkpoint entry {name!r} holds a non-finite value")
        np.copyto(slots[name], arr)
        seen.add(name)
    missing = set(slots) - seen
    if missing:
        raise FormatError(f"checkpoint is missing entries: {sorted(missing)[:3]}...")
    return params
