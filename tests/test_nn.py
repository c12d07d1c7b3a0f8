"""The dense primitives: the metered linear projection, and the 3x3
stencil primitives (bordered taps, the im2col convolution and the
depthwise pass).

linear is checked byte for byte against x @ w.T + b, and its counts
against flops._linear_cost. Each stencil primitive is checked against a
plain formulation: np.pad for the border, the np.pad +
sliding_window_view im2col for conv2d_same (byte for byte, since the
column order and the matmul are unchanged), and a per-pixel loop for the
depthwise pass (whose summation order may differ).
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from sparsescan import nn
from sparsescan.errors import ShapeError
from sparsescan.flops import NULL_METER, FlopsMeter, _linear_cost
from sparsescan.nn import conv2d_same, depthwise_conv2d, linear, patchify, stencil_taps

# channel-last 1x1, 2x2, 1x5, 5x1 and 3x4 maps, and a (T, H, W, C) stack
SHAPES = [(1, 1, 3), (2, 2, 4), (1, 5, 2), (5, 1, 2), (3, 4, 5), (3, 3, 4, 2)]


def padded_im2col_conv(x, w):
    """conv2d_same as an np.pad + sliding_window_view im2col."""
    *lead, h, wd, cin = x.shape
    cout = w.shape[0]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 3) + [(1, 1), (1, 1), (0, 0)])
    win = sliding_window_view(xp, (3, 3), axis=(-3, -2))   # (..., H, W, C, 3, 3)
    col = win.reshape(-1, cin * 9)
    y = col @ w.reshape(cout, -1).T
    return y.reshape(*lead, h, wd, cout)


def looped_depthwise(x, k, bias, mode):
    """Per-pixel, per-channel 3x3 sums over an np.pad-bordered map."""
    xp = np.pad(x, [(0, 0)] * (x.ndim - 3) + [(1, 1), (1, 1), (0, 0)], mode=mode)
    out = np.empty(x.shape)
    *lead, h, w, _ = x.shape
    for *m, c in np.ndindex(x.shape[:-3] + x.shape[-1:]):
        for i in range(h):
            for j in range(w):
                win = xp[(*m, slice(i, i + 3), slice(j, j + 3), c)]
                out[(*m, i, j, c)] = (win * k[c]).sum() + bias[c]
    return out


class TestStencilTaps:
    @pytest.mark.parametrize("shape", [(1, 1, 2), (2, 2, 1), (1, 5, 3), (5, 1, 3), (2, 3, 4, 2)])
    @pytest.mark.parametrize("mode", ["zero", "edge", "index"])
    def test_taps_are_slices_of_np_pad(self, shape, mode):
        rng = np.random.default_rng(1)
        if mode == "index":
            x = rng.integers(-1, 50, size=shape, dtype=np.int64)
            taps = stencil_taps(x, fill=-1)
            want = np.pad(x, [(0, 0)] * (x.ndim - 3) + [(1, 1), (1, 1), (0, 0)],
                          constant_values=-1)
        else:
            x = rng.standard_normal(shape)
            taps = stencil_taps(x, edge=mode == "edge")
            want = np.pad(x, [(0, 0)] * (x.ndim - 3) + [(1, 1), (1, 1), (0, 0)],
                          mode="edge" if mode == "edge" else "constant")
        h, w = shape[-3:-1]
        assert len(taps) == 9
        for k, tap in enumerate(taps):
            i, j = divmod(k, 3)
            assert tap.dtype == x.dtype
            assert tap.tobytes() == want[..., i:i + h, j:j + w, :].tobytes()

    def test_taps_do_not_alias_the_input(self):
        x = np.zeros((3, 3, 1))
        stencil_taps(x, edge=True)[4][...] = 1.0
        assert not x.any()


class TestLinear:
    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_equals_matmul_plus_bias_bytes(self, rows):
        rng = np.random.default_rng(5)
        x, w, b = (rng.standard_normal(shape) for shape in ((rows, 6), (4, 6), 4))
        got = linear(x, w, b)
        assert got.shape == (rows, 4)
        assert got.tobytes() == (x @ w.T + b).tobytes()
        assert linear(x, w).tobytes() == (x @ w.T).tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_counts_macs_and_bias(self, rows):
        x, w = np.ones((rows, 6)), np.ones((4, 6))
        meter = FlopsMeter()
        linear(x, w, np.zeros(4), meter, "proj")
        assert meter.flops == {"proj": _linear_cost(rows, 6, 4)}
        meter = FlopsMeter()
        linear(x, w, None, meter, "proj")
        assert meter.flops == {"proj": 2 * rows * 6 * 4}

    def test_null_meter_stays_empty(self):
        linear(np.ones((3, 2)), np.ones((5, 2)), np.ones(5), label="proj")
        assert NULL_METER.flops == {}


class TestConv2dSame:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_padded_im2col_bytes(self, shape):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(shape)
        w = rng.standard_normal((7, shape[-1], 3, 3))
        got, want = conv2d_same(x, w), padded_im2col_conv(x, w)
        assert got.shape == want.shape == shape[:-1] + (7,)
        assert got.tobytes() == want.tobytes()

    def test_row_blocks_equal_padded_im2col_bytes(self, monkeypatch):
        """Blocks of 2 rows, so a 5-row map has a short last block."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 4, 3))
        w = rng.standard_normal((6, 3, 3, 3))
        monkeypatch.setattr(nn, "_COL_ELEMS", 2 * 9 * 3 * 4)
        got = conv2d_same(x, w)
        assert got.tobytes() == padded_im2col_conv(x, w).tobytes()

    @pytest.mark.parametrize("wshape", [(4, 2, 3, 3), (4, 3, 5, 5), (4, 3, 1, 1)])
    def test_refuses_kernel_that_does_not_fit(self, wshape):
        with pytest.raises(ShapeError):
            conv2d_same(np.zeros((4, 4, 3)), np.zeros(wshape))


class TestDepthwiseConv2d:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("edge", [False, True])
    def test_matches_per_pixel_loop(self, shape, edge):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(shape)
        c = shape[-1]
        k = rng.standard_normal((c, 3, 3))
        bias = rng.standard_normal(c)
        got = depthwise_conv2d(x, k, bias, edge=edge)
        want = looped_depthwise(x, k, bias, "edge" if edge else "constant")
        assert got.shape == shape and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("call", [
    lambda: patchify(np.zeros((6, 8, 2)), 4),
], ids=["patchify-indivisible-map"])
def test_refusals(call):
    with pytest.raises(ShapeError):
        call()
