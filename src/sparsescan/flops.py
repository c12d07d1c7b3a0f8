"""FLOPs accounting: runtime counters and a closed-form analytic model.

Convention: one multiply-accumulate costs 2 FLOPs; every other scalar
operation, nonlinearities included, costs 1 FLOP per element. Kernels
increment a :class:`FlopsMeter` with what they actually execute, so
token-wise blocks scale with the kept-token count while dense blocks do
not. Every matmul against a parameter is counted in nn.linear, bias
included; the blocks count only their elementwise work and the ConvLSTM
convolutions, where convlstm_step also counts the recurrent convolution
it skips on a fresh (all-zero) state. :func:`count_analytic` reproduces
the same totals from the configuration alone (sequential scan schedule),
giving an independent cross-check of the instrumentation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

from .errors import ConfigError

TOKEN_WISE_SUFFIXES = (".ss2d", ".mlp")


class FlopsMeter:
    """Per-block FLOP accumulator passed through the forward pass."""

    def __init__(self):
        self.flops: dict[str, int] = {}

    def macs(self, label: str, n: int) -> None:
        self.flops[label] = self.flops.get(label, 0) + 2 * int(n)

    def elem(self, label: str, n: int) -> None:
        self.flops[label] = self.flops.get(label, 0) + int(n)


class _NullMeter(FlopsMeter):
    def macs(self, label, n):
        pass

    def elem(self, label, n):
        pass


NULL_METER = _NullMeter()


def is_token_wise(name: str) -> bool:
    return name.endswith(TOKEN_WISE_SUFFIXES)


@dataclass(frozen=True)
class BlockCost:
    dense: int
    sparse: int


@dataclass
class FlopsReport:
    """Per-block dense and sparse FLOPs for one forward configuration."""

    blocks: dict[str, BlockCost]
    kept_ratios: list[float]

    @property
    def dense_total(self) -> int:
        return sum(b.dense for b in self.blocks.values())

    @property
    def sparse_total(self) -> int:
        return sum(b.sparse for b in self.blocks.values())

    @property
    def reduction(self) -> float:
        dense = self.dense_total
        return 0.0 if dense == 0 else 1.0 - self.sparse_total / dense

    def to_dict(self) -> dict:
        return {
            "blocks": {
                name: {
                    "dense": b.dense,
                    "sparse": b.sparse,
                    "ratio": (b.sparse / b.dense) if b.dense else 1.0,
                    "token_wise": is_token_wise(name),
                }
                for name, b in self.blocks.items()
            },
            "kept_ratios": list(self.kept_ratios),
            "totals": {"dense": self.dense_total, "sparse": self.sparse_total},
            "reduction": self.reduction,
        }

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    def table(self) -> str:
        width = max(len(n) for n in self.blocks) if self.blocks else 5
        lines = [f"{'block':<{width}}  {'dense':>14}  {'sparse':>14}  ratio"]
        for name, b in self.blocks.items():
            ratio = b.sparse / b.dense if b.dense else 1.0
            lines.append(f"{name:<{width}}  {b.dense:>14d}  {b.sparse:>14d}  {ratio:5.3f}")
        lines.append(f"{'total':<{width}}  {self.dense_total:>14d}  {self.sparse_total:>14d}"
                     f"  {1.0 - self.reduction:5.3f}")
        lines.append(f"reduction: {100.0 * self.reduction:.1f}%")
        return "\n".join(lines)


def _s6_cost(t, lanes, n_state):
    """Parameterize plus sequential scan of one direction."""
    macs = t * lanes * lanes + 2 * t * n_state * lanes   # dt/b/c projections
    elem = 2 * t * lanes + 6 * t * lanes * n_state       # softplus, bias, discretize
    macs += t * lanes * n_state                          # state updates
    macs += t * lanes * n_state + t * lanes              # output stage and skip
    return macs, elem


def _ss2d_cost(n_tok, c, d, n_state):
    macs = 2 * n_tok * c * d + 9 * n_tok * d + n_tok * d * c
    elem = 8 * n_tok * c + 3 * n_tok * d + 2 * n_tok * d + 2 * n_tok * d \
        + n_tok * d + n_tok * c + n_tok * c
    for _ in range(3):
        m, e = _s6_cost(n_tok, d, n_state)
        macs += m
        elem += e
    return 2 * macs + elem


def _mlp_cost(n_tok, c, expand):
    e_dim = expand * c
    macs = n_tok * c * e_dim + n_tok * e_dim * c
    elem = 8 * n_tok * c + 2 * n_tok * e_dim + 2 * n_tok * c
    return 2 * macs + elem


def _gci_cost(s, c, n_state):
    macs = 3 * s * c * c + 9 * s * c
    elem = 8 * s * c   # projections, conv, merge, residual, direction sum
    for _ in range(2):
        m, e = _s6_cost(c, s, n_state)
        macs += m
        elem += e
    return 2 * macs + elem


def _lstm_cost(s, c):
    macs = 2 * s * 9 * c * 4 * c
    elem = s * 4 * c + 9 * s * c  # gate bias/sum plus cell and hidden updates
    return 2 * macs + elem


def _linear_cost(rows, in_dim, out_dim):
    return 2 * rows * in_dim * out_dim + rows * out_dim


def count_analytic(cfg, kept_ratios, timesteps: int = 1) -> FlopsReport:
    """Closed-form per-block FLOPs for the given per-stage kept ratios."""
    # bool is an int, and a fractional or negative count of timesteps would
    # scale the costs to a fraction or below zero
    if isinstance(timesteps, bool) or not isinstance(timesteps, Integral) or timesteps < 0:
        raise ConfigError(f"timesteps must be a non-negative int, got {timesteps!r}")
    if len(kept_ratios) != cfg.n_stages:
        raise ConfigError(f"need {cfg.n_stages} kept ratios, got {len(kept_ratios)}")
    for r in kept_ratios:
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"kept ratio {r} outside [0, 1]")
    blocks: dict[str, BlockCost] = {}

    def put(name, dense, sparse=None):
        dense = int(round(timesteps * dense))
        sparse = dense if sparse is None else int(round(timesteps * sparse))
        blocks[name] = BlockCost(dense=dense, sparse=sparse)

    gh, gw = cfg.grid(0)
    put("embed", _linear_cost(gh * gw, 2 * cfg.bins * cfg.patch ** 2, cfg.channels[0]))
    for s, c in enumerate(cfg.channels):
        gh, gw = cfg.grid(s)
        m = gh * gw
        n_kept = kept_ratios[s] * m
        d = cfg.inner_expand * c
        tag = f"stage{s + 1}"
        put(f"{tag}.ss2d", _ss2d_cost(m, c, d, cfg.n_state),
            _ss2d_cost(n_kept, c, d, cfg.n_state))
        if (s + 1) in cfg.gci_stages:
            put(f"{tag}.gci", _gci_cost(m, c, cfg.n_state))
        else:
            put(f"{tag}.mlp", _mlp_cost(m, c, cfg.mlp_expand),
                _mlp_cost(n_kept, c, cfg.mlp_expand))
        put(f"{tag}.lstm", _lstm_cost(m, c))
        if s + 1 < cfg.n_stages:
            put(f"{tag}.down", _linear_cost(m // 4, 4 * c, cfg.channels[s + 1]))
    return FlopsReport(blocks=blocks, kept_ratios=list(kept_ratios))


def measure(cfg, params, voxels, scores, keep, parallel: bool = False) -> FlopsReport:
    """Instrumented dense and sparse forward runs over the same inputs.
    parallel picks the SS2D token-scan kernel, as in backbone_forward;
    count_analytic follows the sequential one."""
    import numpy as np

    from .backbone import backbone_forward
    from .stca import kept_ratio, max_pool2d

    sparse_meter = FlopsMeter()
    backbone_forward(voxels, keep, scores, cfg, params,
                     states=None, meter=sparse_meter, parallel=parallel)
    dense_meter = FlopsMeter()
    backbone_forward(voxels, np.ones_like(keep), scores, cfg, params,
                     states=None, meter=dense_meter, parallel=parallel)
    blocks = {name: BlockCost(dense=flops, sparse=sparse_meter.flops.get(name, 0))
              for name, flops in dense_meter.flops.items()}
    ratios = [kept_ratio(max_pool2d(keep, 1 << s)) for s in range(cfg.n_stages)]
    return FlopsReport(blocks=blocks, kept_ratios=ratios)
