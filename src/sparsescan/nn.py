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


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Normalize each row of an (n, C) matrix over its channels."""
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    return xc / np.sqrt(var + eps) * gain + bias


def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """Rearrange (C, H, W) into (H/P * W/P, C * P * P) patch rows."""
    c, h, w = x.shape
    if h % patch or w % patch:
        raise ShapeError(f"patch {patch} does not divide feature map {h}x{w}")
    v = x.reshape(c, h // patch, patch, w // patch, patch)
    return v.transpose(1, 3, 0, 2, 4).reshape((h // patch) * (w // patch), c * patch * patch)


def conv2d_same(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 cross-correlation with zero padding, (Cin,H,W) -> (Cout,H,W)."""
    cin, h, wd = x.shape
    cout, cin2, kh, kw = w.shape
    if cin != cin2:
        raise ShapeError(f"kernel expects {cin2} input channels, got {cin}")
    pad = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    win = sliding_window_view(pad, (kh, kw), axis=(1, 2))
    col = win.transpose(1, 2, 0, 3, 4).reshape(h * wd, cin * kh * kw)
    y = col @ w.reshape(cout, -1).T
    if bias is not None:
        y = y + bias
    return y.T.reshape(cout, h, wd)


def depthwise_conv2d(x: np.ndarray, k: np.ndarray, bias: np.ndarray | None = None,
                     pad_mode: str = "constant") -> np.ndarray:
    """Per-channel 3x3 cross-correlation. pad_mode 'edge' preserves constants."""
    c, h, w = x.shape
    kh, kw = k.shape[1:]
    pad = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)), mode=pad_mode)
    win = sliding_window_view(pad, (kh, kw), axis=(1, 2))
    y = np.einsum("chwij,cij->chw", win, k)
    if bias is not None:
        y = y + bias[:, None, None]
    return y
