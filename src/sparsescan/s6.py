"""Input-dependent diagonal state-space scan kernels.

Per lane l with diagonal state of size N, the continuous system
dh/dt = a h + b x is discretized per step with a zero-order hold over
the input-dependent step size:

    abar = exp(z)
    bbar = dt * b * phi1(z) = expm1(z) * b / a,    z = dt * a

with phi1(z) = expm1(z) / z and phi1(0) = 1: Mamba's (dt a)^-1 (exp(dt a) - 1) dt b
for diagonal a. 1/a is built once per call, so no pass divides. A zero or
subnormal a, whose 1/a overflows, keeps the phi1 form, exact through a = 0
and dt = 0 as expm1 is accurate for tiny z. Elsewhere the 1/a form is exact
to rounding while z is normal; where dt * a is subnormal or underflows,
bbar is off by less than 2^-1075 |b| / |a|, far under rounding at the
state's scale |b x| / |a|. The recurrence is

    h_t = abar_t * h_{t-1} + bbar_t * x_t
    y_t = <c_t, h_t> + skip * x_t

Input-dependence follows the canonical selective parameterization:
dt_t = softplus(W_dt x_t + b_dt) per lane, b_t = W_b x_t,
c_t = W_c x_t, and a = -exp(log_a) elementwise, so 0 < abar <= 1 and
the recurrence is unconditionally stable. softplus is evaluated as
max(x, 0) + log1p(exp(-|x|)), which cannot overflow and is made of
vectorized ufuncs (np.logaddexp(0, x) runs a scalar loop). The input
folds into the discretization: bx = expm1(z) * (1/a) * b * x, six passes
over the coefficients: z = dt * a as one broadcast product (np.einsum, whose
inner loop beats np.multiply's here; equal values, but +0 for a zero
product), expm1, three products and exp.

Coefficients and states put the state axis outside the lanes: abar and
bx are (T, N, L), a state h is (N, L), and B sequences make them
(T, B, N, L) and (B, N, L). Each broadcast of the discretization then
runs its inner loop over the L contiguous lanes, not over N = 16 states,
and y_t = <c_t, h_t> is one (1, N) @ (N, L) product per step. S6Params
keeps log_a as (L, N); the forward uses a = -exp(log_a) transposed to a
C-contiguous (N, L).

There are two forward scans: a sequential loop, and a recursive-doubling
(Hillis-Steele) scan over the associative operator
(a1, b1) . (a2, b2) = (a1 a2, a2 b1 + b2), which takes ceil(log2 R)
passes over R rows. Both start from the bx terms, with h0 folded into
step 0 as abar_0 * h0. A manual reverse-mode adjoint of the recurrence
completes the kernels.

s6_forward takes a (T, L) sequence, or B equal-length sequences as
(T, B, L), which it scans together as B * L lanes; (T, L) is the B = 1
case of the same code, and h_T is (N, L) or (B, N, L). It and
selective_scan_parallel cut the T steps into chunks of
rows = max(1, _CHUNK_ELEMS // (B * L * N)) steps, 16 at B = 1, L = 128
and N = 16. Each chunk is scanned from the last state of the chunk
before, so the doubling scan makes ceil(log2 rows) passes per chunk and
O(T log rows) work in all. selective_scan_seq scans the whole sequence
at once and is the reference both are checked against.

discretize_zoh writes into a given out= pair of arrays, and the state
kernels of both scans work in place, using their abar argument as
scratch: the sequential scan overwrites each abar_t with abar_t * h_{t-1},
so no step allocates, and the doubling scan multiplies in place the
products of abars later passes read; selective_scan_seq and
selective_scan_backward scan copies. The outputs y_t = <c_t, h_t> come
from one stacked (1, N) @ (N, L) product per step (np.matmul), in
s6_forward and selective_scan_seq alike, so the two give the same bits.
The public functions return new arrays. s6_forward projects all T * B
rows once in one matmul each (dt, b and c), then per chunk discretizes,
scans and contracts in two float64 chunk buffers allocated once per call
and reused for every chunk. Each holds one chunk, max(_CHUNK_ELEMS,
B * L * N) elements at most (256 KB while B * L * N <= _CHUNK_ELEMS),
whatever T is; each doubling pass adds numpy temporaries of at most one
chunk. Only y and h_T outlive the call; nothing is kept between calls.
"""

from __future__ import annotations

import math
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

    abar: np.ndarray     # (T, N, L)
    bx: np.ndarray       # (T, N, L), bbar already folded with the input
    c: np.ndarray        # (T, N)


def init_s6_params(n_lanes: int, n_state: int, rng: np.random.Generator) -> S6Params:
    """Standard initialization: a_n = -(n+1), step sizes log-uniform in [1e-3, 1e-1]."""
    log_a = np.tile(np.log(np.arange(1, n_state + 1, dtype=np.float64)), (n_lanes, 1))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=n_lanes))
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


def zoh_reciprocal(a):
    """(inv_a, tiny) of a float64 array a for discretize_zoh: 1/a where |a| >=
    finfo.tiny, else 0, and the mask of zero or subnormal a, or None if none."""
    normal = np.abs(a) >= np.finfo(np.float64).tiny
    inv_a = np.divide(1.0, a, out=np.zeros_like(a), where=normal)
    return inv_a, (None if normal.all() else ~normal)


def discretize_zoh(a, b, dt, x=None, out=None, recip=None):
    """Zero-order-hold (abar, bbar) in the 1/a form above.

    The arguments broadcast to one shape, which both results take. With x
    given, bbar comes out multiplied by the input, as bbar * x. out, if
    given, is a pair of float64 arrays of the result shape to write
    (abar, bbar) into; it must not overlap the arguments. recip is
    zoh_reciprocal(a), built here when not given; s6_forward builds it
    once per call. The s6 kernels pass a (N, L) a, (..., N, 1) b and
    (..., 1, L) dt and x, so every pass runs over contiguous lanes.
    """
    a, b, dt = (np.asarray(v, dtype=np.float64) for v in (a, b, dt))
    if out is None:
        shape = np.broadcast_shapes(a.shape, b.shape, dt.shape, np.shape(x))
        out = (np.empty(shape), np.empty(shape))
    inv_a, tiny = zoh_reciprocal(a) if recip is None else recip
    abar, bbar = out
    z = np.einsum("...,...->...", dt, a, out=abar)   # z lives in abar until its exp
    np.expm1(z, out=bbar)
    bbar *= inv_a                           # dt * phi1(z) = expm1(z) / a
    if tiny is not None:                    # the phi1 form where 1/a overflows
        phi1 = np.divide(np.expm1(z), z, out=np.ones_like(z), where=tiny & (z != 0.0))
        np.copyto(bbar, np.multiply(phi1, dt, out=phi1), where=tiny)
    bbar *= b
    if x is not None:
        bbar *= x
    np.exp(z, out=abar)
    return abar, bbar


def softplus(x, out=None):
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)).

    The terms never overflow, and each is a vectorized ufunc, where
    np.logaddexp(0, x) runs a scalar loop. out may be x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    tail = np.abs(x, out=np.empty_like(x))
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    out = np.maximum(x, 0.0, out=out)
    out += tail
    return out


def _project(x: np.ndarray, p: S6Params, meter: FlopsMeter, label: str):
    """a (N, L) and the per-step dt (..., L), b (..., N), c (..., N) of x.

    Each projection is one matmul over all T * B rows. dt takes its bias
    and softplus in place, so it is the only (T * B, L) array made. a is
    made C-contiguous: np.exp keeps the strides of log_a.T, and a
    transposed a would bring back the N-element inner loops.
    """
    lanes, n = p.log_a.shape
    if x.ndim not in (2, 3) or x.shape[-1] != lanes:
        raise ShapeError(f"expected (T, {lanes}) or (T, B, {lanes}) input, got {x.shape}")
    rows = x.reshape(-1, lanes)
    dt = rows @ p.w_dt.T
    dt += p.b_dt
    softplus(dt, out=dt)
    b_t = rows @ p.w_b.T
    c_t = rows @ p.w_c.T
    meter.macs(label, len(rows) * lanes * lanes + 2 * len(rows) * n * lanes)
    meter.elem(label, 2 * len(rows) * lanes)
    lead = x.shape[:-1]
    a = np.ascontiguousarray(-np.exp(p.log_a).T)
    return a, dt.reshape(x.shape), b_t.reshape(lead + (n,)), c_t.reshape(lead + (n,))


def _discretize(a, dt, b_t, x, out, meter: FlopsMeter, label: str, recip=None):
    """abar and bx of the steps whose dt, b and input rows are given."""
    abar, bx = discretize_zoh(a, b_t[..., :, None], dt[..., None, :], x=x[..., None, :],
                              out=out, recip=recip)
    meter.elem(label, 6 * bx.size)
    return abar, bx


def parameterize(x: np.ndarray, p: S6Params) -> S6Discretized:
    """Build per-step (T, N, L) coefficients from the input sequence x of shape (T, L)."""
    a, dt, b_t, c_t = _project(x, p, NULL_METER, "")
    abar, bx = _discretize(a, dt, b_t, x, None, NULL_METER, "")
    return S6Discretized(abar=abar, bx=bx, c=c_t)


def _scan_states_seq(abar: np.ndarray, hs: np.ndarray, h0: np.ndarray | None) -> np.ndarray:
    """Sequential scan of h_t = abar_t h_{t-1} + bx_t in place: hs holds bx on
    entry. Each abar_t row is overwritten with abar_t h_{t-1}, so no step
    allocates."""
    if h0 is not None:
        abar[:1] *= h0
        hs[:1] += abar[:1]
    # row views, each updated in place before it becomes the next step's h_prev
    for a_t, h_prev, h_t in zip(abar[1:], hs, hs[1:]):
        a_t *= h_prev
        h_t += a_t
    return hs


def _contract(hs: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y_t = <c_t, h_t> per lane of (T, ..., N, L) states hs and (T, ..., N) c,
    as one stacked (1, N) @ (N, L) product per step (B sequences of a step
    are B more steps); into out, shaped (T, ..., L), if given."""
    n, lanes = hs.shape[-2:]
    if out is None:
        out = np.empty(hs.shape[:-2] + (lanes,))
    np.matmul(c.reshape(-1, 1, n), hs.reshape(-1, n, lanes), out=out.reshape(-1, 1, lanes))
    return out


def _scan_states_doubling(a: np.ndarray, hs: np.ndarray, h0: np.ndarray | None,
                          meter: FlopsMeter, label: str) -> np.ndarray:
    """Recursive-doubling inclusive scan of h_t = abar_t h_{t-1} + bx_t in place.

    a holds abar and hs holds bx on entry; on return a is scratch. The pass
    with shift k reads a[t >= k] as the product of the k abars ending at t and
    leaves hs[t] summed over the last 2k steps; a[t >= 2k], the only rows later
    passes read, then become products of 2k abars. ceil(log2 R) passes finish
    a scan of R rows; h0 enters as part of step 0.
    """
    t_len = a.shape[0]
    if h0 is not None:
        hs[:1] += a[:1] * h0
        meter.macs(label, hs[:1].size)
    k = 1
    while k < t_len:
        hs[k:] += a[k:] * hs[:-k]
        meter.macs(label, hs[k:].size)
        if 2 * k < t_len:
            a[2 * k:] *= a[k:-k]    # numpy >= 1.13 reads overlapping operands first: no buffer
            meter.elem(label, a[2 * k:].size)
        k *= 2
    return hs


def selective_scan_seq(d: S6Discretized, h0: np.ndarray | None = None,
                       skip: np.ndarray | None = None, x: np.ndarray | None = None):
    """Evaluate the recurrence step by step over the whole sequence. Returns (y, h_T)."""
    t_len, n, lanes = d.abar.shape
    hs = _scan_states_seq(d.abar.copy(), d.bx.copy(), h0)
    y = _contract(hs, d.c)
    if skip is not None:
        y = y + skip * x
    # a copy, so that h_T does not keep the whole (T, N, L) state array alive
    last = hs[-1].copy() if t_len else (np.zeros((n, lanes)) if h0 is None else h0.copy())
    return y, last


def selective_scan_parallel(d: S6Discretized, h0: np.ndarray | None = None,
                            skip: np.ndarray | None = None, x: np.ndarray | None = None):
    """Recursive-doubling evaluation; matches the sequential path to rounding.

    The doubling runs over the same chunks as s6_forward(parallel=True),
    whose results it reproduces bit for bit.
    """
    def fill(s, e, abar, bx):
        np.copyto(abar, d.abar[s:e])
        np.copyto(bx, d.bx[s:e])

    return _scan_chunked(fill, d.abar.shape, d.c, h0, skip, x, True, NULL_METER, "")


@dataclass
class ScanGradients:
    """Adjoints of the scan with respect to its inputs."""

    abar: np.ndarray     # (T, N, L)
    bx: np.ndarray       # (T, N, L)
    c: np.ndarray        # (T, N)
    skip: np.ndarray     # (L,)
    h0: np.ndarray       # (N, L)


def selective_scan_backward(d: S6Discretized, h0: np.ndarray | None,
                            x: np.ndarray, dy: np.ndarray) -> ScanGradients:
    """Reverse-mode adjoint of selective_scan_seq with skip enabled.

    Forward states are recomputed; the backward recursion is
    dh_t = abar_{t+1} * dh_{t+1} + dy_t c_t, with
    d(abar_t) = dh_t * h_{t-1}, d(bx_t) = dh_t, d(c_t) = sum_l dy_tl h_tl.
    """
    t_len, n, lanes = d.abar.shape
    if dy.shape != (t_len, lanes):
        raise ShapeError(f"upstream gradient must be (T, L), got {dy.shape}")
    hs = _scan_states_seq(d.abar.copy(), d.bx.copy(), h0)
    h_init = np.zeros((n, lanes)) if h0 is None else h0
    g_abar = np.empty_like(d.abar)
    g_bx = np.empty_like(d.bx)
    g_c = np.empty_like(d.c)
    g_skip = (dy * x).sum(axis=0)
    dh = np.zeros((n, lanes))
    for t in range(t_len - 1, -1, -1):
        dh = dh + d.c[t][:, None] * dy[t][None, :]
        prev = hs[t - 1] if t > 0 else h_init
        g_abar[t] = dh * prev
        g_bx[t] = dh
        g_c[t] = hs[t] @ dy[t]
        dh = dh * d.abar[t]
    return ScanGradients(abar=g_abar, bx=g_bx, c=g_c, skip=g_skip, h0=dh)


# Elements per chunk buffer: 256 KB of float64, so the two buffers of a scan
# fit in a core's L2 together.
_CHUNK_ELEMS = 32768


def _chunk_rows(lanes: int, n: int) -> int:
    return max(1, _CHUNK_ELEMS // (lanes * n))


def _scan_chunked(fill, shape, c, h0, skip, x, parallel, meter, label):
    """Scan a (T, N, L) or (T, B, N, L) recurrence chunk by chunk.

    fill(s, e, abar, bx) writes steps s to e - 1 of abar and bx into the
    given (e - s, ..., N, L) buffers, which are allocated once per call and
    reused for every chunk. Each chunk's scan starts from the last state of
    the one before. Returns new arrays (y, h_T).
    """
    t_len, state = shape[0], shape[1:]
    n = state[-2]
    rows = _chunk_rows(math.prod(state) // n, n)     # B * L lanes
    bufs = [np.empty((min(rows, t_len),) + state) for _ in range(2)]
    y = np.empty(shape[:-2] + shape[-1:])
    h = h0
    for s in range(0, t_len, rows):
        e = min(s + rows, t_len)
        abar, hs = (buf[:e - s] for buf in bufs)
        fill(s, e, abar, hs)
        if parallel:
            _scan_states_doubling(abar, hs, h, meter, label)
        else:
            _scan_states_seq(abar, hs, h)
        _contract(hs, c[s:e], out=y[s:e])
        h = hs[-1].copy()        # the next chunk overwrites hs
    if not parallel:                        # the doubling meters its own passes
        meter.macs(label, y.size * n)
    meter.macs(label, y.size * n)           # output contraction
    if skip is not None:
        y += skip * x
        meter.macs(label, y.size)
    if h is h0:
        h = np.zeros(state) if h0 is None else h0.copy()
    return y, h


def s6_forward(x: np.ndarray, p: S6Params, parallel: bool = False,
               meter: FlopsMeter = NULL_METER, label: str = "s6"):
    """Parameterize and scan a (T, L) sequence, or B equal-length sequences
    given as (T, B, L). Returns (y, h_T): y shaped like x, and h_T (N, L)
    or (B, N, L).

    The projections run once over all T * B rows; discretization and the
    scan run chunk by chunk, the B sequences side by side as extra lanes.
    y and h_T are new arrays.
    """
    a, dt, b_t, c_t = _project(x, p, meter, label)
    recip = zoh_reciprocal(a)

    def fill(s, e, abar, bx):
        _discretize(a, dt[s:e], b_t[s:e], x[s:e], (abar, bx), meter, label, recip)

    shape = x.shape[:-1] + (p.n_state, p.n_lanes)
    return _scan_chunked(fill, shape, c_t, None, p.skip, x, parallel, meter, label)
