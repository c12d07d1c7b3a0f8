"""Small dense numeric primitives shared by the backbone blocks.

Feature maps are channel-last, (..., H, W, C): one (H, W, C) map or a
stack of them with leading axes. patchify, conv2d_same and
depthwise_conv2d take and return that layout, so a map's C channels
are its innermost, contiguous axis.

Every 3x3 neighbourhood is read one way: stencil_taps writes channel-last
maps into a bordered buffer by slice assignment and returns its nine
shifted views. The ConvLSTM's im2col (conv2d_same), the GCI depthwise
pass (depthwise_conv2d) and the stage plans' neighbour tables use it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .flops import NULL_METER, FlopsMeter


def sigmoid(x):
    # tanh saturates instead of overflowing, so this holds for every x
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu(x):
    return x * sigmoid(x)


def gelu(x):
    # tanh approximation
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)))


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
           meter: FlopsMeter = NULL_METER, label: str = "") -> np.ndarray:
    """x @ w.T for (rows, in) x and (out, in) w, plus b if given, metered as
    rows * in * out MACs and, with b, rows * out bias FLOPs."""
    y = x @ w.T
    meter.macs(label, y.size * w.shape[1])
    if b is not None:
        y += b
        meter.elem(label, y.size)
    return y


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize each row of an (n, C) matrix over its channels (eps 1e-5)."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    return xc / np.sqrt(var + 1e-5) * gain + bias


def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """Rearrange (..., H, W, C) into (..., H/P * W/P, C * P * P) patch rows,
    each row's columns in (c, ph, pw) order."""
    *lead, h, w, c = x.shape
    if h % patch or w % patch:
        raise ShapeError(f"patch {patch} does not divide feature map {h}x{w}")
    k = len(lead)
    v = x.reshape(*lead, h // patch, patch, w // patch, patch, c)
    v = v.transpose(*range(k), k, k + 2, k + 4, k + 1, k + 3)
    return v.reshape(*lead, (h // patch) * (w // patch), c * patch * patch)


# im2col output rows per block: a block's columns stay within 2 MB, the
# per-core L2 of the 2-vCPU x86-64 host this was measured on. Unblocked,
# the nine strided tap passes over a 1280x736 stage-1 map ran 2x slower.
_COL_ELEMS = 1 << 18


def stencil_taps(x: np.ndarray, fill=0, edge: bool = False) -> list[np.ndarray]:
    """The nine taps of a 3x3 stencil over channel-last maps (..., H, W, C),
    in row-major kernel order: the [i:i+H, j:j+W] views of a new buffer
    holding x, written by slice assignment, inside a one-cell border of
    fill, or with edge=True of each map's nearest edge value (numpy's
    'edge' padding)."""
    *lead, h, w, c = x.shape
    xp = np.empty((*lead, h + 2, w + 2, c), x.dtype)
    xp[..., 1:-1, 1:-1, :] = x
    # rows first, then whole columns, so edge corners copy an edge row's end
    xp[..., 0, 1:-1, :] = xp[..., 1, 1:-1, :] if edge else fill
    xp[..., -1, 1:-1, :] = xp[..., -2, 1:-1, :] if edge else fill
    xp[..., :, 0, :] = xp[..., :, 1, :] if edge else fill
    xp[..., :, -1, :] = xp[..., :, -2, :] if edge else fill
    return [xp[..., i:i + h, j:j + w, :] for i in range(3) for j in range(3)]


def conv2d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 3x3 cross-correlation with zero padding, (..., H, W, Cin) -> (..., H, W, Cout).

    All maps form one im2col matmul, so the kernel is read once per call.
    Its (pixel, (cin, kh, kw)) columns are copied, in row blocks, from the
    nine shifted views of a zero-bordered copy of the maps.
    """
    *lead, h, wd, cin = x.shape
    if w.shape[1:] != (cin, 3, 3):
        raise ShapeError(f"kernel {w.shape} does not fit {cin} input channels and 3x3 taps")
    taps = stencil_taps(x.reshape(-1, h, wd, cin))
    col = np.empty((len(taps[0]), h, wd, cin, 9))
    rows = max(1, _COL_ELEMS // max(1, 9 * cin * wd))
    for m, r in np.ndindex(len(col), -(-h // rows)):
        for k, tap in enumerate(taps):
            col[m, r * rows:(r + 1) * rows, ..., k] = tap[m, r * rows:(r + 1) * rows]
    y = col.reshape(-1, cin * 9) @ w.reshape(len(w), -1).T
    return y.reshape(*lead, h, wd, len(w))


def depthwise_conv2d(x: np.ndarray, k: np.ndarray, bias: np.ndarray,
                     edge: bool = False) -> np.ndarray:
    """Per-channel 3x3 cross-correlation of (..., H, W, C), as nine shifted
    multiply-adds, each running along the channels. The maps are bordered
    with zeros, or with edge=True with their edge values, so constant
    fields pass through a sum-normalized kernel unchanged."""
    taps = stencil_taps(x, edge=edge)
    wk = k.reshape(len(k), 9).T
    out = taps[0] * wk[0]
    for i in range(1, 9):
        out += taps[i] * wk[i]
    out += bias
    return out
