"""Small dense numeric primitives shared by the backbone blocks."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError


def sigmoid(x):
    # tanh saturates instead of overflowing, so this holds for every x
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu(x):
    return x * sigmoid(x)


def gelu(x):
    # tanh approximation
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x * x * x)))


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize each row of an (n, C) matrix over its channels (eps 1e-5)."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    return xc / np.sqrt(var + 1e-5) * gain + bias


def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """Rearrange (..., C, H, W) into (..., H/P * W/P, C * P * P) patch rows."""
    *lead, c, h, w = x.shape
    if h % patch or w % patch:
        raise ShapeError(f"patch {patch} does not divide feature map {h}x{w}")
    k = len(lead)
    v = x.reshape(*lead, c, h // patch, patch, w // patch, patch)
    v = v.transpose(*range(k), k + 1, k + 3, k, k + 2, k + 4)
    return v.reshape(*lead, (h // patch) * (w // patch), c * patch * patch)


def _pad_hw(x: np.ndarray, kh: int, kw: int, mode: str = "constant") -> np.ndarray:
    """Pad the last two axes by half a kernel on each side."""
    return np.pad(x, [(0, 0)] * (x.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)],
                  mode=mode)


def conv2d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with zero padding, (..., Cin, H, W) -> (..., Cout, H, W).

    All maps form one im2col matmul, so the kernel is read once per call.
    """
    *lead, cin, h, wd = x.shape
    cout, cin2, kh, kw = w.shape
    if cin != cin2:
        raise ShapeError(f"kernel expects {cin2} input channels, got {cin}")
    win = sliding_window_view(_pad_hw(x, kh, kw), (kh, kw), axis=(-2, -1))
    col = np.moveaxis(win, -5, -3).reshape(-1, cin * kh * kw)
    y = col @ w.reshape(cout, -1).T
    return np.moveaxis(y.reshape(*lead, h, wd, cout), -1, -3)


def depthwise_conv2d(x: np.ndarray, k: np.ndarray, bias: np.ndarray,
                     pad_mode: str = "constant") -> np.ndarray:
    """Per-channel 3x3 cross-correlation of (..., C, H, W). pad_mode 'edge' preserves constants."""
    kh, kw = k.shape[1:]
    win = sliding_window_view(_pad_hw(x, kh, kw, pad_mode), (kh, kw), axis=(-2, -1))
    return np.einsum("...chwij,cij->...chw", win, k) + bias[:, None, None]
