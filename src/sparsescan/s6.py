"""Input-dependent diagonal state-space scan kernels.

Per lane l with diagonal state of size N, the continuous system
dh/dt = a h + b x is discretized per step with a zero-order hold over
the input-dependent step size:

    abar = exp(z)
    bbar = dt * b * phi1(z),    z = dt * a,  phi1(z) = expm1(z) / z

with phi1(0) = 1. Since expm1 is accurate for tiny z, this one form is
exact through a = 0, dt = 0 and subnormal a, and never divides by a.
The recurrence is

    h_t = abar_t * h_{t-1} + bbar_t * x_t
    y_t = <c_t, h_t> + skip * x_t

Input-dependence follows the canonical selective parameterization:
dt_t = softplus(W_dt x_t + b_dt) per lane, b_t = W_b x_t,
c_t = W_c x_t, and a = -exp(log_a) elementwise, so 0 < abar <= 1 and
the recurrence is unconditionally stable.

Two forward scans share one output stage: a sequential loop, and a
recursive-doubling (Hillis-Steele) scan over the associative operator
(a1, b1) . (a2, b2) = (a1 a2, a2 b1 + b2), which takes ceil(log2 T)
whole-array passes and O(T log T) work, with h0 folded into step 0. A
manual reverse-mode adjoint of the recurrence completes the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .flops import NULL_METER, FlopsMeter


@dataclass
class S6Params:
    """Learnable state of one scan block over L lanes and N states."""

    log_a: np.ndarray    # (L, N); a = -exp(log_a)
    w_dt: np.ndarray     # (L, L)
    b_dt: np.ndarray     # (L,)
    w_b: np.ndarray      # (N, L)
    w_c: np.ndarray      # (N, L)
    skip: np.ndarray     # (L,)

    @property
    def n_lanes(self) -> int:
        return self.log_a.shape[0]

    @property
    def n_state(self) -> int:
        return self.log_a.shape[1]


@dataclass
class S6Discretized:
    """Per-step discretized coefficients ready for scanning."""

    abar: np.ndarray     # (T, L, N)
    bx: np.ndarray       # (T, L, N), bbar already folded with the input
    c: np.ndarray        # (T, N)


def init_s6_params(n_lanes: int, n_state: int, rng: np.random.Generator,
                   dt_min: float = 1e-3, dt_max: float = 1e-1) -> S6Params:
    """Standard initialization: a_n = -(n+1), log-uniform step sizes."""
    log_a = np.tile(np.log(np.arange(1, n_state + 1, dtype=np.float64)), (n_lanes, 1))
    dt = np.exp(rng.uniform(np.log(dt_min), np.log(dt_max), size=n_lanes))
    b_dt = dt + np.log1p(-np.exp(-dt))  # inverse softplus
    scale = 1.0 / np.sqrt(n_lanes)
    return S6Params(
        log_a=log_a,
        w_dt=rng.normal(0.0, scale, size=(n_lanes, n_lanes)),
        b_dt=b_dt,
        w_b=rng.normal(0.0, scale, size=(n_state, n_lanes)),
        w_c=rng.normal(0.0, scale, size=(n_state, n_lanes)),
        skip=np.ones(n_lanes, dtype=np.float64),
    )


def discretize_zoh(a, b, dt):
    """Zero-order-hold (abar, bbar) in the phi1 form above.

    The three arguments broadcast to one shape, which both results take.
    """
    a, b, dt = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (a, b, dt)))
    z = dt * a
    abar = np.exp(z)
    bbar = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)   # phi1(z)
    bbar *= b
    bbar *= dt
    return abar, bbar


def softplus(x):
    return np.logaddexp(0.0, x)


def parameterize(x: np.ndarray, p: S6Params,
                 meter: FlopsMeter = NULL_METER, label: str = "s6") -> S6Discretized:
    """Build per-step coefficients from the input sequence x of shape (T, L)."""
    if x.ndim != 2 or x.shape[1] != p.n_lanes:
        raise ShapeError(f"expected (T, {p.n_lanes}) input, got {x.shape}")
    t_len, lanes = x.shape
    n = p.n_state
    dt = softplus(x @ p.w_dt.T + p.b_dt)             # (T, L)
    b_t = x @ p.w_b.T                                # (T, N)
    c_t = x @ p.w_c.T                                # (T, N)
    a = -np.exp(p.log_a)                             # (L, N)
    abar, bx = discretize_zoh(a[None, :, :], b_t[:, None, :], dt[:, :, None])
    bx *= x[:, :, None]
    meter.macs(label, t_len * lanes * lanes + 2 * t_len * n * lanes)
    meter.elem(label, 2 * t_len * lanes + 6 * t_len * lanes * n)
    return S6Discretized(abar=abar, bx=bx, c=c_t)


def _scan_states_seq(d: S6Discretized, h0: np.ndarray | None) -> np.ndarray:
    t_len, lanes, n = d.abar.shape
    hs = np.empty_like(d.abar)
    h = np.zeros((lanes, n)) if h0 is None else h0
    for t in range(t_len):
        h = d.abar[t] * h + d.bx[t]
        hs[t] = h
    return hs


def _scan_states_doubling(d: S6Discretized, h0: np.ndarray | None,
                          meter: FlopsMeter, label: str) -> np.ndarray:
    """Recursive-doubling inclusive scan of h_t = abar_t h_{t-1} + bx_t.

    After the pass with shift k, hs[t] holds the recurrence summed over the
    last 2k steps and a[t] the product of the last 2k abars, so ceil(log2 T)
    passes finish the scan; h0 enters as part of step 0.
    """
    t_len = d.abar.shape[0]
    a = d.abar.copy()
    hs = d.bx.copy()
    if h0 is not None:
        hs[:1] += a[:1] * h0
        meter.macs(label, hs[:1].size)
    k = 1
    while k < t_len:
        hs[k:] += a[k:] * hs[:-k]
        meter.macs(label, hs[k:].size)
        if 2 * k < t_len:
            # numpy buffers overlapping ufunc operands: a[:-k] is read before a[k:] is written
            a[k:] *= a[:-k]
            meter.elem(label, a[k:].size)
        k *= 2
    return hs


def _scan_outputs(hs, d: S6Discretized, h0, skip, x, meter, label):
    """Shared output stage: y_t = <c_t, h_t> (+ skip * x_t), and h_T."""
    t_len, lanes, n = hs.shape
    y = np.einsum("tln,tn->tl", hs, d.c)
    meter.macs(label, t_len * lanes * n)
    if skip is not None:
        y = y + skip * x
        meter.macs(label, t_len * lanes)
    last = hs[-1] if t_len else (np.zeros((lanes, n)) if h0 is None else h0.copy())
    return y, last


def selective_scan_seq(d: S6Discretized, h0: np.ndarray | None = None,
                       skip: np.ndarray | None = None, x: np.ndarray | None = None,
                       meter: FlopsMeter = NULL_METER, label: str = "s6"):
    """Evaluate the recurrence step by step. Returns (y, h_T)."""
    hs = _scan_states_seq(d, h0)
    meter.macs(label, hs.size)
    return _scan_outputs(hs, d, h0, skip, x, meter, label)


def selective_scan_parallel(d: S6Discretized, h0: np.ndarray | None = None,
                            skip: np.ndarray | None = None, x: np.ndarray | None = None,
                            meter: FlopsMeter = NULL_METER, label: str = "s6"):
    """Recursive-doubling evaluation; matches the sequential path to rounding."""
    hs = _scan_states_doubling(d, h0, meter, label)
    return _scan_outputs(hs, d, h0, skip, x, meter, label)


@dataclass
class ScanGradients:
    """Adjoints of the scan with respect to its inputs."""

    abar: np.ndarray     # (T, L, N)
    bx: np.ndarray       # (T, L, N)
    c: np.ndarray        # (T, N)
    skip: np.ndarray     # (L,)
    h0: np.ndarray       # (L, N)


def selective_scan_backward(d: S6Discretized, h0: np.ndarray | None,
                            x: np.ndarray, dy: np.ndarray) -> ScanGradients:
    """Reverse-mode adjoint of selective_scan_seq with skip enabled.

    Forward states are recomputed; the backward recursion is
    dh_t = abar_{t+1} * dh_{t+1} + dy_t c_t, with
    d(abar_t) = dh_t * h_{t-1}, d(bx_t) = dh_t, d(c_t) = sum_l dy_tl h_tl.
    """
    t_len, lanes, n = d.abar.shape
    if dy.shape != (t_len, lanes):
        raise ShapeError(f"upstream gradient must be (T, L), got {dy.shape}")
    hs = _scan_states_seq(d, h0)
    h_init = np.zeros((lanes, n)) if h0 is None else h0
    g_abar = np.empty_like(d.abar)
    g_bx = np.empty_like(d.bx)
    g_c = np.empty_like(d.c)
    g_skip = (dy * x).sum(axis=0)
    dh = np.zeros((lanes, n))
    for t in range(t_len - 1, -1, -1):
        dh = dh + dy[t][:, None] * d.c[t][None, :]
        prev = hs[t - 1] if t > 0 else h_init
        g_abar[t] = dh * prev
        g_bx[t] = dh
        g_c[t] = dy[t] @ hs[t]
        dh = dh * d.abar[t]
    return ScanGradients(abar=g_abar, bx=g_bx, c=g_c, skip=g_skip, h0=dh)


def s6_forward(x: np.ndarray, p: S6Params, parallel: bool = False,
               meter: FlopsMeter = NULL_METER, label: str = "s6"):
    """Parameterize and scan an (T, L) sequence. Returns (y, h_T)."""
    d = parameterize(x, p, meter, label)
    scan = selective_scan_parallel if parallel else selective_scan_seq
    return scan(d, h0=None, skip=p.skip, x=x, meter=meter, label=label)
