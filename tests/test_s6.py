"""Selective-scan kernel: discretization, recurrence, parallel form, adjoint.

Constants below are hand-unrolled from the recurrence
h_t = abar_t * h_{t-1} + bx_t, y_t = <c_t, h_t> + skip * x_t.
"""

import math

import numpy as np
import pytest

from sparsescan.flops import FlopsMeter
from sparsescan.s6 import (
    S6Discretized,
    S6Params,
    discretize_zoh,
    init_s6_params,
    parameterize,
    s6_forward,
    selective_scan_backward,
    selective_scan_parallel,
    selective_scan_seq,
    softplus,
)
from sparsescan.errors import ShapeError


def const_disc(t, abar, bx, c, lanes=1, n_state=1):
    """Discretized coefficients held constant across steps."""
    return S6Discretized(
        abar=np.full((t, lanes, n_state), abar),
        bx=np.full((t, lanes, n_state), bx),
        c=np.full((t, n_state), c),
    )


def random_disc(rng, t, lanes, n_state, a_low=0.0):
    return S6Discretized(
        abar=rng.uniform(a_low, 1.0, size=(t, lanes, n_state)),
        bx=rng.standard_normal((t, lanes, n_state)),
        c=rng.standard_normal((t, n_state)),
    )


class TestDiscretizeZoh:
    def test_a_zero_limit(self):
        abar, bbar = discretize_zoh(0.0, 1.0, 0.5)
        assert abar == pytest.approx(1.0)
        assert bbar == pytest.approx(0.5)

    def test_closed_form_point(self):
        abar, bbar = discretize_zoh(-1.0, 2.0, math.log(2.0))
        assert abar == pytest.approx(0.5, rel=1e-14)
        assert bbar == pytest.approx(1.0, rel=1e-14)

    def test_zero_step(self):
        abar, bbar = discretize_zoh(-3.0, 5.0, 0.0)
        assert abar == 1.0
        assert bbar == 0.0

    def test_series_branch_continuity(self):
        b = 1.0
        # a subnormal a gives a subnormal z, where phi1(z) = 1 holds exactly
        for a, dt, tol in ((1e-9, 1.0, 1e-8), (-1e-9, 1.0, 1e-8), (-1e-310, 0.3, 1e-15)):
            _, bbar = discretize_zoh(a, b, dt)
            assert abs(bbar - dt * b) <= tol * abs(dt * b)

    def test_broadcasting(self):
        dt = 0.5
        for a in (np.array([-1.0, -2.0]), np.array([0.0, -1.0, 0.0, 2.0, -3.0]),
                  -np.logspace(math.log10(2e-300), math.log10(1400.0), 301)):  # z in [-700, -1e-300]
            abar, bbar = discretize_zoh(a, 1.0, dt)
            np.testing.assert_allclose(abar, np.exp(dt * a))
            ref = [math.expm1(dt * v) / v if v else dt for v in a]
            np.testing.assert_allclose(bbar, ref, rtol=1e-14, atol=0)


class TestParameterize:
    def test_softplus_at_zero(self):
        assert softplus(np.array(0.0)) == pytest.approx(math.log(2.0))

    def test_zero_input_gives_log2_step(self):
        rng = np.random.default_rng(17)
        p = init_s6_params(3, 4, rng)
        p.b_dt[:] = 0.0
        d = parameterize(np.zeros((5, 3)), p)
        # dt = softplus(0) = ln 2, so abar = exp(ln2 * a) = 2**a
        a = -np.exp(p.log_a)
        np.testing.assert_allclose(d.abar[0], np.exp(math.log(2.0) * a))

    def test_zero_input_matrix_gives_skip_only(self):
        rng = np.random.default_rng(18)
        p = init_s6_params(2, 4, rng)
        p.w_b[:] = 0.0
        x = rng.standard_normal((6, 2))
        y, _ = s6_forward(x, p)
        np.testing.assert_allclose(y, p.skip[None, :] * x, atol=1e-14)

    def test_c_projection_linear(self):
        rng = np.random.default_rng(19)
        p = init_s6_params(2, 4, rng)
        x = rng.standard_normal((6, 2))
        d1 = parameterize(x, p)
        p.w_c[:] *= 2.0
        d2 = parameterize(x, p)
        np.testing.assert_allclose(d2.c, 2.0 * d1.c, rtol=1e-14)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(20)
        p = init_s6_params(3, 4, rng)
        with pytest.raises(ShapeError):
            parameterize(np.zeros((5, 7)), p)


class TestSequentialScan:
    def test_three_step_unroll(self):
        d = const_disc(3, abar=0.5, bx=1.0, c=1.0)
        y, h = selective_scan_seq(d)
        np.testing.assert_allclose(y[:, 0], [1.0, 1.5, 1.75])
        assert h[0, 0] == pytest.approx(1.75)

    def test_memoryless_when_abar_zero(self):
        rng = np.random.default_rng(21)
        d = random_disc(rng, 6, 2, 3)
        d.abar[:] = 0.0
        y, _ = selective_scan_seq(d)
        expected = np.einsum("tln,tn->tl", d.bx, d.c)
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_single_step_base_case(self):
        rng = np.random.default_rng(22)
        d = random_disc(rng, 1, 2, 3)
        h0 = rng.standard_normal((2, 3))
        y, h = selective_scan_seq(d, h0=h0)
        h_expected = d.abar[0] * h0 + d.bx[0]
        np.testing.assert_allclose(h, h_expected)
        np.testing.assert_allclose(y[0], h_expected @ d.c[0])

    def test_skip_term(self):
        d = const_disc(2, abar=0.0, bx=0.0, c=1.0, lanes=2)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        skip = np.array([10.0, 100.0])
        y, _ = selective_scan_seq(d, skip=skip, x=x)
        np.testing.assert_allclose(y, skip[None, :] * x)

    def test_bounded_state_with_stable_coefficients(self):
        rng = np.random.default_rng(23)
        p = init_s6_params(4, 8, rng)
        x = rng.standard_normal((200, 4))
        d = parameterize(x, p)
        assert (d.abar > 0).all() and (d.abar <= 1.0).all()
        _, h = selective_scan_seq(d)
        bound = np.abs(d.bx).max(axis=(1, 2)).sum()
        assert np.abs(h).max() <= bound + 1e-9


class TestParallelScan:
    def test_matches_sequential(self):
        rng = np.random.default_rng(24)
        for t in (1, 2, 3, 7, 64, 129):
            d = random_disc(rng, t, 3, 4)
            h0 = rng.standard_normal((3, 4))
            ys, hs = selective_scan_seq(d, h0=h0)
            yp, hp = selective_scan_parallel(d, h0=h0)
            np.testing.assert_allclose(yp, ys, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(hp, hs, rtol=1e-9, atol=1e-12)

    def test_single_step_bit_identical(self):
        rng = np.random.default_rng(25)
        d = random_disc(rng, 1, 2, 5)
        ys, hs = selective_scan_seq(d)
        yp, hp = selective_scan_parallel(d)
        assert ys.tobytes() == yp.tobytes()
        assert hs.tobytes() == hp.tobytes()

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(28)
        d = random_disc(rng, 37, 3, 4)
        h0 = rng.standard_normal((3, 4))
        before = [d.abar.copy(), d.bx.copy(), d.c.copy(), h0.copy()]
        selective_scan_parallel(d, h0=h0)
        for was, now in zip(before, [d.abar, d.bx, d.c, h0]):
            assert was.tobytes() == now.tobytes()

    def test_operator_associativity(self):
        rng = np.random.default_rng(26)
        op = lambda p, q: (p[0] * q[0], q[0] * p[1] + q[1])
        for _ in range(100):
            a1, b1, a2, b2, a3, b3 = rng.uniform(-1, 1, size=6)
            left = op(op((a1, b1), (a2, b2)), (a3, b3))
            right = op((a1, b1), op((a2, b2), (a3, b3)))
            assert abs(left[0] - right[0]) <= 1e-12
            assert abs(left[1] - right[1]) <= 1e-12

    def test_linearity_in_input(self):
        rng = np.random.default_rng(27)
        base = random_disc(rng, 16, 2, 3)
        u = rng.standard_normal(base.bx.shape)
        v = rng.standard_normal(base.bx.shape)
        alpha, beta = 0.7, -1.3

        def run(bx):
            y, _ = selective_scan_parallel(
                S6Discretized(base.abar, bx, base.c))
            return y

        combo = run(alpha * u + beta * v)
        parts = alpha * run(u) + beta * run(v)
        np.testing.assert_allclose(combo, parts, atol=1e-12)


class TestBackward:
    def test_memoryless_input_gradient(self):
        d = const_disc(4, abar=0.0, bx=0.5, c=1.0)
        dy = np.zeros((4, 1))
        dy[2, 0] = 1.0
        x = np.zeros((4, 1))
        g = selective_scan_backward(d, None, x, dy)
        np.testing.assert_allclose(g.bx[:, 0, 0], [0.0, 0.0, 1.0, 0.0])

    def test_three_step_chain(self):
        # dy only at the last step; d y_3 / d bx_1 = abar^2 * c = 0.25
        d = const_disc(3, abar=0.5, bx=1.0, c=1.0)
        dy = np.array([[0.0], [0.0], [1.0]])
        g = selective_scan_backward(d, None, np.zeros((3, 1)), dy)
        assert g.bx[0, 0, 0] == pytest.approx(0.25)
        assert g.bx[1, 0, 0] == pytest.approx(0.5)
        assert g.bx[2, 0, 0] == pytest.approx(1.0)

    def test_skip_gradient_is_x_weighted(self):
        rng = np.random.default_rng(28)
        d = random_disc(rng, 5, 2, 3)
        x = rng.standard_normal((5, 2))
        dy = rng.standard_normal((5, 2))
        g = selective_scan_backward(d, None, x, dy)
        np.testing.assert_allclose(g.skip, (dy * x).sum(axis=0))

    def test_finite_differences(self):
        rng = np.random.default_rng(29)
        t, lanes, n = 8, 2, 3
        d = random_disc(rng, t, lanes, n, a_low=0.5)
        h0 = rng.standard_normal((lanes, n))
        x = rng.standard_normal((t, lanes))
        skip = rng.standard_normal(lanes)
        dy = rng.standard_normal((t, lanes))

        def loss(abar, bx, c, h0v):
            y, _ = selective_scan_seq(
                S6Discretized(abar, bx, c), h0=h0v, skip=skip, x=x)
            return float((dy * y).sum())

        g = selective_scan_backward(d, h0, x, dy)
        eps = 1e-6
        for arr, grad in ((d.abar, g.abar), (d.bx, g.bx), (d.c, g.c),
                          (h0, g.h0)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                args = {id(d.abar): d.abar.copy(), id(d.bx): d.bx.copy(),
                        id(d.c): d.c.copy(), id(h0): h0.copy()}
                plus = args[id(arr)].copy()
                plus[idx] += eps
                minus = args[id(arr)].copy()
                minus[idx] -= eps

                def eval_at(p):
                    vals = {id(d.abar): d.abar, id(d.bx): d.bx,
                            id(d.c): d.c, id(h0): h0}
                    vals[id(arr)] = p
                    return loss(vals[id(d.abar)], vals[id(d.bx)],
                                vals[id(d.c)], vals[id(h0)])

                fd = (eval_at(plus) - eval_at(minus)) / (2 * eps)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_empty_sequence(self):
        d = S6Discretized(np.zeros((0, 2, 3)), np.zeros((0, 2, 3)),
                          np.zeros((0, 3)))
        h0 = np.ones((2, 3))
        g = selective_scan_backward(d, h0, np.zeros((0, 2)),
                                    np.zeros((0, 2)))
        np.testing.assert_array_equal(g.h0, np.zeros((2, 3)))


class TestForwardWrapper:
    def test_parallel_flag_matches_sequential(self):
        rng = np.random.default_rng(30)
        p = init_s6_params(4, 8, rng)
        x = rng.standard_normal((50, 4))
        ys, _ = s6_forward(x, p, parallel=False)
        yp, _ = s6_forward(x, p, parallel=True)
        np.testing.assert_allclose(yp, ys, rtol=1e-9, atol=1e-12)

    def test_meter_counts_something(self):
        rng = np.random.default_rng(31)
        p = init_s6_params(4, 8, rng)
        x = rng.standard_normal((10, 4))
        meter = FlopsMeter()
        s6_forward(x, p, meter=meter, label="probe")
        assert meter.total() > 0
        assert any(k.startswith("probe") for k in meter.flops)
