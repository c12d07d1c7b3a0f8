"""Selective-scan kernel: discretization, recurrence, parallel form, adjoint.

Constants below are hand-unrolled from the recurrence
h_t = abar_t * h_{t-1} + bx_t, y_t = <c_t, h_t> + skip * x_t.
Coefficients and states are (T, N, L) and (N, L): state axis before lanes.
"""

import copy
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sparsescan import s6
from sparsescan.acceptance import SMALL_CONFIG
from sparsescan.backbone import init_backbone_params, iter_arrays, load_checkpoint, \
    save_checkpoint
from sparsescan.flops import NULL_METER, FlopsMeter, _s6_cost
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
from sparsescan.errors import ShapeError, ValidationError


def const_disc(t, abar, bx, c, lanes=1, n_state=1):
    """Discretized coefficients held constant across steps."""
    return S6Discretized(
        abar=np.full((t, n_state, lanes), abar),
        bx=np.full((t, n_state, lanes), bx),
        c=np.full((t, n_state), c),
    )


def random_disc(rng, t, lanes, n_state, a_low=0.0):
    return S6Discretized(
        abar=rng.uniform(a_low, 1.0, size=(t, n_state, lanes)),
        bx=rng.standard_normal((t, n_state, lanes)),
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


    def test_input_folds_into_bbar(self):
        rng = np.random.default_rng(31)
        a = -np.exp(rng.standard_normal((1, 4, 5)))
        a[:, 0] = 0.0
        b = rng.standard_normal((6, 4, 1))
        dt = np.exp(rng.uniform(-7.0, 0.0, size=(6, 1, 5)))
        dt[0] = 0.0
        x = rng.standard_normal((6, 1, 5))
        abar, bx = discretize_zoh(a, b, dt, x=x)
        abar_ref, bbar_ref = discretize_zoh(a, b, dt)
        assert abar.tobytes() == abar_ref.tobytes()
        np.testing.assert_allclose(bx, bbar_ref * x, rtol=1e-15, atol=0)

    def test_state_major_broadcast_is_transpose_of_lane_major(self):
        """The kernels' (N, L) a, (T, N, 1) b and (T, 1, L) dt and x give the
        transpose of the (L, N) layout's results, byte for byte."""
        rng = np.random.default_rng(33)
        t_len, lanes, n = 6, 7, 5
        a = -np.exp(rng.standard_normal((lanes, n)))
        a[0] = 0.0                                   # a = 0: phi1(0) = 1
        a[1] = -5e-324                               # subnormal a
        a[2, :2] = -1e-310
        b = rng.standard_normal((t_len, n))
        dt = np.exp(rng.uniform(-7.0, 0.0, size=(t_len, lanes)))
        dt[0] = 0.0                                  # dt = 0: z = 0 in every lane
        dt[1, 3] = 0.0
        x = rng.standard_normal((t_len, lanes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lane_major = discretize_zoh(a, b[:, None, :], dt[:, :, None], x=x[:, :, None])
            state_major = discretize_zoh(np.ascontiguousarray(a.T), b[:, :, None],
                                         dt[:, None, :], x=x[:, None, :])
        for got, want in zip(state_major, lane_major):
            assert got.shape == (t_len, n, lanes)
            assert got.tobytes() == np.ascontiguousarray(want.transpose(0, 2, 1)).tobytes()
        abar, bx = state_major
        assert (abar[0] == 1.0).all() and (bx[0] == 0.0).all()
        assert (abar[:, :, :2] == 1.0).all()

    def test_non_normal_lanes_match_elementwise_reference(self):
        """Normal, zero, subnormal and -inf a in one (N, L) a: every element
        within 4 ulp of phi1 evaluated per element with math.expm1 and exact
        products; dt = 0 gives abar = 1 and bx = 0. Where a normal a meets a
        dt that makes dt * a subnormal, bx may also be off by the documented
        2^-1075 |b x| / |a|."""
        rng = np.random.default_rng(35)
        t_len, n, lanes = 5, 6, 8
        tiny = np.finfo(np.float64).tiny
        a = -np.exp(rng.uniform(-3.0, 3.0, size=(n, lanes)))
        a[0] = 0.0                                   # a = 0 in every lane
        a[1] = 5e-324                                # subnormal a
        a[2, :4] = -5e-324
        a[3, 4:] = -np.inf
        a[4, 1] = -tiny                              # the smallest normal a
        b = rng.standard_normal((t_len, n, 1))
        dt = np.exp(rng.uniform(-7.0, 1.0, size=(t_len, 1, lanes)))
        dt[0, 0, :4] = 0.0                           # dt = 0 meets only finite a:
        dt[2, 0, 1] = 0.0                            # dt * -inf has no limit
        x = rng.standard_normal((t_len, 1, lanes))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            abar, bx = discretize_zoh(a, b, dt, x=x)
        assert abar.shape == bx.shape == (t_len, n, lanes)

        def phi1(z):
            if math.isinf(z):
                return Fraction(0)                   # expm1(-inf) / -inf
            return Fraction(math.expm1(z)) / Fraction(z) if z else Fraction(1)

        subnormal_z = 0
        for t, i, l in np.ndindex(abar.shape):
            d, z, bxl = dt[t, 0, l], dt[t, 0, l] * a[i, l], b[t, i, 0] * x[t, 0, l]
            ref = float(Fraction(d) * phi1(z) * Fraction(b[t, i, 0]) * Fraction(x[t, 0, l]))
            slack = 0.0
            if 0.0 < abs(z) < tiny and abs(a[i, l]) >= tiny:
                slack = 2.0 ** -53 * (tiny / abs(a[i, l])) * abs(bxl)   # 2^-1075 |b x| / |a|
                subnormal_z += 1
            assert abs(abar[t, i, l] - math.exp(z)) <= 4 * np.spacing(math.exp(z))
            assert abs(bx[t, i, l] - ref) <= 4 * np.spacing(abs(ref)) + slack
        assert subnormal_z > 0                       # the case is exercised
        zero_step = np.broadcast_to(dt == 0.0, abar.shape)
        assert (abar[zero_step] == 1.0).all() and (bx[zero_step] == 0.0).all()
        assert (bx[:, 3, 4:] == 0.0).all() and (abar[:, 3, 4:] == 0.0).all()   # a = -inf


class TestSoftplus:
    """softplus against np.logaddexp(0, x): within 2 ulp where the result is
    normal, within the smallest subnormal where it is subnormal."""

    EDGES = [0.0, -0.0, 709.8, -709.8, 745.0, -745.0, 5e-324, -5e-324, 1e-310, -1e-310,
             2.2250738585072014e-308, -2.2250738585072014e-308, np.inf, -np.inf, np.nan]

    @staticmethod
    def softplus_no_warning(x, out=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return softplus(x, out=out)

    @staticmethod
    def assert_matches(got, x):
        with np.errstate(invalid="ignore"):       # inf - inf in the reference
            want = np.logaddexp(0.0, x)
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), np.isnan(want))
            inf = np.isinf(want)
            assert np.array_equal(got[inf], want[inf])
            normal = np.isfinite(want) & (want >= np.finfo(np.float64).tiny)
            assert (np.abs(got - want)[normal] <= 2 * np.spacing(want[normal])).all()
            sub = np.isfinite(want) & ~normal
            assert (np.abs(got - want)[sub] <= 5e-324).all()

    def grid(self):
        # the tail [-746, -708] is where the result is subnormal
        return np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                               np.linspace(-746.0, -708.0, 20_001), self.EDGES])

    def test_agrees_with_logaddexp(self):
        x = self.grid()
        self.assert_matches(self.softplus_no_warning(x), x)

    @pytest.mark.parametrize("v", EDGES + [-3.5, 0.5, 40.0])
    def test_zero_dimensional_and_python_float(self, v):
        self.assert_matches(self.softplus_no_warning(np.array(v)), np.array(v))
        self.assert_matches(self.softplus_no_warning(v), np.array(v))

    def test_in_place(self):
        x = self.grid().reshape(-1, 1)
        orig = x.copy()
        assert self.softplus_no_warning(x, out=x) is x
        self.assert_matches(x, orig)


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
        np.testing.assert_allclose(d.abar[0], np.exp(math.log(2.0) * a).T)

    def test_coefficients_are_state_major(self):
        rng = np.random.default_rng(22)
        p = init_s6_params(3, 4, rng)
        d = parameterize(rng.standard_normal((5, 3)), p)
        assert p.log_a.shape == (3, 4)
        assert d.abar.shape == d.bx.shape == (5, 4, 3) and d.c.shape == (5, 4)
        assert d.abar.flags.c_contiguous and d.bx.flags.c_contiguous

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

    @staticmethod
    def fields_of(p):
        return {f: getattr(p, f).copy() for f in ("log_a", "w_dt", "b_dt", "w_b", "w_c", "skip")}

    @pytest.mark.parametrize("field", ["log_a", "w_dt", "b_dt", "w_b", "w_c", "skip"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_hand_built_non_finite_rejected(self, field, value):
        arrays = self.fields_of(init_s6_params(3, 4, np.random.default_rng(23)))
        arrays[field].flat[-1] = value
        with pytest.raises(ValidationError, match=f"S6Params.{field} holds a non-finite"):
            S6Params(**arrays)

    @pytest.mark.parametrize("value, ok", [(709.78, True), (709.79, False), (1e300, False)])
    def test_hand_built_log_a_whose_a_overflows_rejected(self, value, ok):
        """The rule load_checkpoint applies to a file: a = -exp(log_a) must be finite."""
        arrays = self.fields_of(init_s6_params(3, 4, np.random.default_rng(24)))
        arrays["log_a"][1, 2] = value
        if ok:
            y, _ = s6_forward(np.ones((2, 3)), S6Params(**arrays))
            assert np.isfinite(y).all()
        else:
            with pytest.raises(ValidationError, match="exp overflows"):
                S6Params(**arrays)

    @pytest.mark.parametrize("field, shape", [
        ("log_a", (3,)), ("log_a", (3, 4, 1)), ("w_dt", (3, 4)), ("b_dt", (4,)),
        ("w_b", (3, 4)), ("w_c", (4, 2)), ("skip", (3, 1))])
    def test_hand_built_shapes_that_disagree_rejected(self, field, shape):
        arrays = self.fields_of(init_s6_params(3, 4, np.random.default_rng(25)))
        arrays[field] = np.zeros(shape)
        with pytest.raises(ShapeError, match=f"S6Params.{field}"):
            S6Params(**arrays)

    def test_step_underflow_to_zero(self):
        rng = np.random.default_rng(21)
        p = init_s6_params(3, 4, rng)
        p.w_dt[:] = np.eye(3)
        p.b_dt[:] = 0.0
        x = rng.standard_normal((4, 3))
        x[1] = -800.0                    # softplus(-800) is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = parameterize(x, p)
            s6_forward(x, p)
        assert (softplus(x[1]) == 0.0).all()
        assert (d.abar[1] == 1.0).all() and (d.bx[1] == 0.0).all()
        assert (d.abar[[0, 2, 3]] < 1.0).all()


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
        expected = np.einsum("tnl,tn->tl", d.bx, d.c)
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_single_step_base_case(self):
        rng = np.random.default_rng(22)
        d = random_disc(rng, 1, 2, 3)
        h0 = rng.standard_normal((3, 2))
        y, h = selective_scan_seq(d, h0=h0)
        h_expected = d.abar[0] * h0 + d.bx[0]
        np.testing.assert_allclose(h, h_expected)
        np.testing.assert_allclose(y[0], d.c[0] @ h_expected)

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


    @pytest.mark.parametrize("t_len, h0", [(9, False), (9, True), (0, True)])
    def test_final_state_owns_its_data(self, t_len, h0):
        rng = np.random.default_rng(29)
        d = random_disc(rng, t_len, 3, 4)
        _, h = selective_scan_seq(d, h0=rng.standard_normal((4, 3)) if h0 else None)
        assert h.shape == (4, 3) and h.flags.owndata

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(27)
        d = random_disc(rng, 9, 3, 4)
        h0 = rng.standard_normal((4, 3))
        before = [d.abar.copy(), d.bx.copy(), d.c.copy(), h0.copy()]
        selective_scan_seq(d, h0=h0)
        for was, now in zip(before, [d.abar, d.bx, d.c, h0]):
            assert was.tobytes() == now.tobytes()


class TestParallelScan:
    def test_matches_sequential(self):
        rng = np.random.default_rng(24)
        for t in (1, 2, 3, 7, 64, 129):
            d = random_disc(rng, t, 3, 4)
            h0 = rng.standard_normal((4, 3))
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
        h0 = rng.standard_normal((4, 3))
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


def doubling_copy_back(a, hs, work, h0):
    """The recursive-doubling scan with every product of abars computed into
    work and copied back into a: the reference for the in-place kernel."""
    t_len = a.shape[0]
    if h0 is not None:
        hs[:1] += a[:1] * h0
    k = 1
    while k < t_len:
        hs[k:] += np.multiply(a[k:], hs[:-k], out=work[k:])
        if 2 * k < t_len:
            a[k:] = np.multiply(a[k:], a[:-k], out=work[k:])
        k *= 2
    return hs


class TestDoublingBuffers:
    @pytest.mark.parametrize("with_h0", [False, True])
    @pytest.mark.parametrize("t_len", range(1, 40))
    def test_in_place_products_match_copy_back(self, t_len, with_h0):
        rng = np.random.default_rng(60 + t_len)
        abar = rng.uniform(0.2, 1.0, size=(t_len, 3, 2, 5))
        bx = rng.standard_normal(abar.shape)
        h0 = rng.standard_normal(abar.shape[1:]) if with_h0 else None
        got = s6._scan_states_doubling(abar.copy(), bx.copy(), h0, NULL_METER, "")
        want = doubling_copy_back(abar.copy(), bx.copy(), np.empty_like(abar), h0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 16, 17, 39])
    def test_meter_counts_the_rows_each_pass_multiplies(self, rows):
        """Each pass k < R updates R - k state rows (one multiply-add each);
        while 2k < R it then multiplies the R - 2k product rows the next pass
        reads: at R = 16, 49 state rows and 34 product rows."""
        per_row = 3 * 2 * 5
        shifts = [2 ** j for j in range((rows - 1).bit_length())]
        want = (2 * per_row * sum(rows - k for k in shifts)
                + per_row * sum(rows - 2 * k for k in shifts if 2 * k < rows))
        rng = np.random.default_rng(61)
        abar = rng.uniform(0.2, 1.0, size=(rows, 3, 2, 5))
        meter = FlopsMeter()
        s6._scan_states_doubling(abar, rng.standard_normal(abar.shape), None, meter, "scan")
        assert meter.flops.get("scan", 0) == want


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
        h0 = rng.standard_normal((n, lanes))
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

    def test_inputs_unchanged(self):
        rng = np.random.default_rng(32)
        d = random_disc(rng, 9, 3, 4)
        h0 = rng.standard_normal((4, 3))
        before = [d.abar.copy(), d.bx.copy(), d.c.copy(), h0.copy()]
        selective_scan_backward(d, h0, rng.standard_normal((9, 3)), rng.standard_normal((9, 3)))
        for was, now in zip(before, [d.abar, d.bx, d.c, h0]):
            assert was.tobytes() == now.tobytes()

    def test_empty_sequence(self):
        d = S6Discretized(np.zeros((0, 3, 2)), np.zeros((0, 3, 2)),
                          np.zeros((0, 3)))
        h0 = np.ones((3, 2))
        g = selective_scan_backward(d, h0, np.zeros((0, 2)),
                                    np.zeros((0, 2)))
        np.testing.assert_array_equal(g.h0, np.zeros((3, 2)))

    def test_gradients_are_state_major(self):
        rng = np.random.default_rng(33)
        t, lanes, n = 7, 3, 5
        d = random_disc(rng, t, lanes, n)
        g = selective_scan_backward(d, rng.standard_normal((n, lanes)),
                                    rng.standard_normal((t, lanes)),
                                    rng.standard_normal((t, lanes)))
        assert g.abar.shape == g.bx.shape == (t, n, lanes)
        assert g.c.shape == (t, n) and g.skip.shape == (lanes,) and g.h0.shape == (n, lanes)
        with pytest.raises(ShapeError):
            selective_scan_backward(d, None, np.zeros((t, n)), np.zeros((t, n)))


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
        assert sum(meter.flops.values()) > 0
        assert any(k.startswith("probe") for k in meter.flops)

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("lead", [(9,), (9, 1), (9, 3)])
    def test_final_state_is_state_major(self, lead, parallel):
        rng = np.random.default_rng(32)
        lanes, n = 6, 4
        p = init_s6_params(lanes, n, rng)
        y, h = s6_forward(rng.standard_normal(lead + (lanes,)), p, parallel=parallel)
        assert y.shape == lead + (lanes,)
        assert h.shape == lead[1:] + (n, lanes) and h.flags.c_contiguous


class TestBatchedSequences:
    """s6_forward on (T, B, L) scans B equal-length sequences as extra lanes."""

    # (T, B, L, N): one chunk; several chunks of 5 rows; one row per chunk
    CASES = [(7, 2, 4, 8), (37, 3, 128, 16), (4, 2, 520, 64)]

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("shape", CASES)
    def test_equals_separate_sequences(self, shape, parallel):
        t_len, b, lanes, n = shape
        rng = np.random.default_rng(60 + t_len)
        p = init_s6_params(lanes, n, rng)
        x = rng.standard_normal((t_len, b, lanes))
        y, h = s6_forward(x, p, parallel=parallel)
        assert y.shape == x.shape and h.shape == (b, n, lanes)
        for i in range(b):
            y_i, h_i = s6_forward(x[:, i].copy(), p, parallel=parallel)
            assert rel_err(y[:, i], y_i) <= 1e-12 and rel_err(h[i], h_i) <= 1e-12

    @pytest.mark.parametrize("parallel", [False, True])
    def test_one_sequence_is_bit_identical_to_two_dimensional_input(self, parallel):
        rng = np.random.default_rng(61)
        p = init_s6_params(128, 16, rng)
        x = rng.standard_normal((37, 128))
        y, h = s6_forward(x, p, parallel=parallel)
        y3, h3 = s6_forward(x[:, None], p, parallel=parallel)
        assert y3.tobytes() == y.tobytes() and h3.tobytes() == h.tobytes()

    def test_chunks_shrink_with_sequence_count(self):
        assert s6._chunk_rows(3 * 128, 16) == 5
        p = init_s6_params(128, 16, np.random.default_rng(62))
        x = np.zeros((37, 3, 128))
        _, _, peak, _ = traced_call(x, p, parallel=True)
        assert peak <= 3 * 5 * 3 * 128 * 16 * 8 + call_bytes(x, 16)

    @pytest.mark.parametrize("shape", [(5, 2, 3, 4), (5, 2, 3), (5,)])
    def test_other_ranks_rejected(self, shape):
        p = init_s6_params(4, 4, np.random.default_rng(63))
        with pytest.raises(ShapeError):
            s6_forward(np.zeros(shape), p)


class TestWorkspace:
    """s6_forward allocates its chunk buffers once per call and keeps
    nothing between calls but its S6Params' a and 1/a."""

    SHAPE = (81, 128, 16)    # stage-1 token count, lanes and state size

    @pytest.mark.parametrize("parallel", [False, True])
    def test_steady_state_allocates_less_than_one_coefficient_array(self, parallel):
        t_len, lanes, n = self.SHAPE
        rng = np.random.default_rng(40)
        p = init_s6_params(lanes, n, rng)
        x = rng.standard_normal((t_len, lanes))
        s6_forward(x, p, parallel=parallel)
        tracemalloc.start()
        try:
            s6_forward(x, p, parallel=parallel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t_len * lanes * n * 8

    @pytest.mark.parametrize("parallel", [False, True])
    def test_results_do_not_alias_the_workspace(self, parallel):
        rng = np.random.default_rng(41)
        p = init_s6_params(4, 8, rng)
        x1, x2 = rng.standard_normal((2, 12, 4))
        y1, h1 = s6_forward(x1, p, parallel=parallel)
        kept = y1.copy(), h1.copy()
        y2, h2 = s6_forward(x2, p, parallel=parallel)
        assert y1.tobytes() == kept[0].tobytes() and h1.tobytes() == kept[1].tobytes()
        assert not np.shares_memory(h1, h2) and not np.shares_memory(y1, y2)

    def test_matches_allocating_kernels(self):
        rng = np.random.default_rng(42)
        p = init_s6_params(5, 6, rng)
        x = rng.standard_normal((37, 5))
        s6_forward(rng.standard_normal((80, 5)), p)    # a larger call grows the buffers first
        d = parameterize(x, p)
        for parallel, scan in ((False, selective_scan_seq), (True, selective_scan_parallel)):
            y, h = s6_forward(x, p, parallel=parallel)
            y_ref, h_ref = scan(d, skip=p.skip, x=x)
            assert y.tobytes() == y_ref.tobytes() and h.tobytes() == h_ref.tobytes()

    @pytest.mark.parametrize("parallel", [False, True])
    def test_nothing_kept_after_the_call(self, parallel):
        rng = np.random.default_rng(44)
        p = init_s6_params(128, 16, rng)
        y, h, _, current = traced_call(rng.standard_normal((83, 128)), p, parallel)
        assert current - (y.nbytes + h.nbytes) < s6._CHUNK_ELEMS * 8

    def test_concurrent_threads_match_single_thread(self):
        rng = np.random.default_rng(43)
        cases = []
        for t_len, lanes, n, parallel in ((81, 16, 16, False), (40, 24, 8, True),
                                          (9, 32, 16, False), (130, 8, 4, True)):
            p = init_s6_params(lanes, n, rng)
            x = rng.standard_normal((t_len, lanes))
            cases.append((x, p, parallel, s6_forward(x, p, parallel=parallel)))
        start = threading.Barrier(len(cases))
        mismatches = []

        def run(x, p, parallel, want):
            start.wait(timeout=10)
            for _ in range(30):
                y, h = s6_forward(x, p, parallel=parallel)
                if y.tobytes() != want[0].tobytes() or h.tobytes() != want[1].tobytes():
                    mismatches.append(x.shape)

        threads = [threading.Thread(target=run, args=case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert mismatches == []


class TestParameterConstants:
    """Each S6Params builds a = -exp(log_a) and its ZOH reciprocal once, at its
    first forward, and then holds log_a read-only."""

    @staticmethod
    def rebuilt(p):
        """A fresh block from copies of p's six arrays."""
        return S6Params(**TestParameterize.fields_of(p))

    def test_list_built_block_scans_like_its_array_form(self):
        fields = dict(log_a=[[0.0, 0.5]], w_dt=[[0.1]], b_dt=[0.0], w_b=[[1.0], [1.0]],
                      w_c=[[1.0], [1.0]], skip=[1.0])
        listed = S6Params(**fields)
        arrays = S6Params(**{k: np.array(v) for k, v in fields.items()})
        assert all(isinstance(getattr(listed, k), np.ndarray) and
                   getattr(listed, k).dtype == np.float64 for k in fields)
        x = np.ones((3, 1))
        for parallel in (False, True):
            y, h = s6_forward(x, listed, parallel=parallel)
            y_ref, h_ref = s6_forward(x, arrays, parallel=parallel)
            assert y.tobytes() == y_ref.tobytes() and h.tobytes() == h_ref.tobytes()

    def test_float64_fields_are_not_copied(self):
        p = init_s6_params(3, 4, np.random.default_rng(70))
        w_c = p.w_c
        q = S6Params(p.log_a, p.w_dt, p.b_dt, p.w_b, w_c, p.skip)
        assert q.w_c is w_c

    def test_two_forwards_build_the_constants_once(self, monkeypatch):
        real, calls = s6.zoh_reciprocal, []

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(s6, "zoh_reciprocal", counting)
        rng = np.random.default_rng(71)
        p = init_s6_params(5, 4, rng)
        x = rng.standard_normal((9, 5))
        y1, _ = s6_forward(x, p)
        y2, _ = s6_forward(x, p, parallel=True)
        parameterize(x, p)
        assert calls == [(4, 5)]
        assert rel_err(y2, y1) <= 1e-12

    def test_write_after_first_forward_raises(self):
        rng = np.random.default_rng(72)
        p = init_s6_params(3, 4, rng)
        s6_forward(rng.standard_normal((4, 3)), p)
        with pytest.raises(ValueError, match="read-only"):
            p.log_a[0, 0] = 1.0
        p.w_c[:] = 0.0      # the other fields stay writeable

    def test_write_before_first_forward_takes_effect(self):
        rng = np.random.default_rng(73)
        p = init_s6_params(3, 4, rng)
        x = rng.standard_normal((6, 3))
        p.log_a[:] = rng.uniform(-2.0, 2.0, size=p.log_a.shape)
        want = s6_forward(x, self.rebuilt(p))
        got = s6_forward(x, p)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_copy_after_a_forward_rebuilds_from_its_own_log_a(self):
        rng = np.random.default_rng(74)
        p = init_s6_params(3, 4, rng)
        x = rng.standard_normal((6, 3))
        s6_forward(x, p)
        q = copy.deepcopy(p)
        q.log_a[:] += 0.5
        want = s6_forward(x, self.rebuilt(q))
        assert [v.tobytes() for v in s6_forward(x, q)] == [v.tobytes() for v in want]

    def test_loaded_checkpoint_scans_with_the_loaded_log_a(self, tmp_path):
        saved = init_backbone_params(SMALL_CONFIG, seed=75)
        rng = np.random.default_rng(75)
        for _, arr in iter_arrays(saved):
            arr += rng.uniform(-0.5, 0.5, size=arr.shape)   # log_a differs from the init one
        path = tmp_path / "params.bin"
        save_checkpoint(saved, path)
        loaded = load_checkpoint(path, SMALL_CONFIG)
        p = loaded.stages[0].ss2d.s6_fwd
        x = rng.standard_normal((7, p.n_lanes))
        want = s6_forward(x, self.rebuilt(saved.stages[0].ss2d.s6_fwd))
        assert [v.tobytes() for v in s6_forward(x, p)] == [v.tobytes() for v in want]


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)


def traced_call(x, p, parallel):
    """s6_forward(x, p) in a fresh thread under tracemalloc.

    Returns (y, h_T, peak, current): the traced peak during the call and
    the traced memory still held when it returns, y and h_T included.
    """
    seen = {}

    def run():
        tracemalloc.start()
        try:
            seen["y"], seen["h"] = s6_forward(x, p, parallel=parallel)
            seen["current"], seen["peak"] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    th = threading.Thread(target=run)
    th.start()
    th.join(timeout=60)
    assert not th.is_alive()
    return seen["y"], seen["h"], seen["peak"], seen["current"]


def call_bytes(x, n):
    """Bound on what s6_forward(x) allocates besides its chunk buffers: the
    dt projection, y and one temporary of x's size (softplus's tail, then
    skip * x), the b and c projections, two copies of h, and per-chunk
    temporaries within half a chunk buffer."""
    rows = x.size // x.shape[-1]
    h_bytes = x[0].size * n * 8
    return 3 * x.nbytes + 2 * rows * n * 8 + 2 * h_bytes + s6._CHUNK_ELEMS * 8 // 2


class TestChunks:
    """s6_forward scans in chunks of _chunk_rows(L, N) rows, carrying h across."""

    ROWS = s6._chunk_rows(128, 16)
    WIDE = (520, 64)             # L * N above _CHUNK_ELEMS: one row per chunk
    CASES = [(t, 128, 16) for t in (ROWS - 1, ROWS, ROWS + 1, 5 * ROWS + 3)] + [(4,) + WIDE]

    def inputs(self, t_len, lanes, n, seed=50):
        rng = np.random.default_rng(seed + t_len + lanes)
        return rng.standard_normal((t_len, lanes)), init_s6_params(lanes, n, rng)

    def test_cases_span_chunk_boundaries(self):
        assert self.ROWS == 16
        assert self.WIDE[0] * self.WIDE[1] > s6._CHUNK_ELEMS
        assert s6._chunk_rows(*self.WIDE) == 1

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("shape, rows", [((81, 128), 16), ((81, 1, 128), 16),
                                             ((81, 3, 128), 5)])
    def test_chunk_rows_count_lanes_and_states(self, shape, rows, parallel, monkeypatch):
        """rows = _CHUNK_ELEMS // (B * L * N): 16 rows at B = 1, 5 at B = 3."""
        name = "_scan_states_doubling" if parallel else "_scan_states_seq"
        real, calls = getattr(s6, name), []

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(s6, name, counting)
        rng = np.random.default_rng(52)
        s6_forward(rng.standard_normal(shape), init_s6_params(128, 16, rng), parallel=parallel)
        assert calls == [rows] * (81 // rows) + [81 % rows]

    @pytest.mark.parametrize("shape", CASES)
    def test_sequential_matches_whole_sequence_scan(self, shape):
        x, p = self.inputs(*shape)
        y, h = s6_forward(x, p)
        y_ref, h_ref = selective_scan_seq(parameterize(x, p), skip=p.skip, x=x)
        assert y.tobytes() == y_ref.tobytes() and h.tobytes() == h_ref.tobytes()

    @pytest.mark.parametrize("shape", CASES)
    def test_doubling_matches_parallel_kernel_and_sequential(self, shape):
        """The whole-sequence doubling applied chunk by chunk, each chunk
        starting from the last state of the one before, gives s6_forward's bits."""
        x, p = self.inputs(*shape)
        y, h = s6_forward(x, p, parallel=True)
        d = parameterize(x, p)
        rows = s6._chunk_rows(*shape[1:])
        parts, h_ref = [], None
        for s in range(0, len(x), rows):
            chunk = S6Discretized(d.abar[s:s + rows], d.bx[s:s + rows], d.c[s:s + rows])
            y_s, h_ref = selective_scan_parallel(chunk, h_ref, skip=p.skip, x=x[s:s + rows])
            parts.append(y_s)
        y_ref = np.concatenate(parts)
        assert y.tobytes() == y_ref.tobytes() and h.tobytes() == h_ref.tobytes()
        y_seq, h_seq = selective_scan_seq(d, skip=p.skip, x=x)
        assert rel_err(y, y_seq) <= 1e-12 and rel_err(h, h_seq) <= 1e-12

    @pytest.mark.parametrize("shape", CASES[2:])
    def test_parallel_carries_initial_state_across_chunks(self, shape):
        rng = np.random.default_rng(51)
        d = random_disc(rng, *shape, a_low=0.5)
        h0 = 10.0 * rng.standard_normal(d.abar.shape[1:])
        y, h = selective_scan_parallel(d, h0=h0)
        y_ref, h_ref = selective_scan_seq(d, h0=h0)
        assert rel_err(y, y_ref) <= 1e-12 and rel_err(h, h_ref) <= 1e-12
        y0, _ = selective_scan_parallel(d)
        assert rel_err(y, y0) > 1e-3      # h0 still shows in the outputs

    @pytest.mark.parametrize("parallel", [False, True])
    def test_workspace_stays_at_one_chunk(self, parallel):
        t_len, lanes, n = 4000, 128, 16
        x, p = self.inputs(t_len, lanes, n)
        y, _, peak, _ = traced_call(x, p, parallel)
        assert y.shape == (t_len, lanes)
        assert peak <= 2 * self.ROWS * lanes * n * 8 + call_bytes(x, n)
        assert peak < t_len * lanes * n * 8

    def test_sequential_meter_matches_analytic_count(self):
        t_len, lanes, n = self.CASES[3]
        x, p = self.inputs(t_len, lanes, n)
        meter = FlopsMeter()
        s6_forward(x, p, meter=meter, label="probe")
        macs, elem = _s6_cost(t_len, lanes, n)
        assert meter.flops == {"probe": 2 * macs + elem}

    @pytest.mark.parametrize("parallel", [False, True])
    def test_empty_sequence(self, parallel):
        x, p = self.inputs(0, 128, 16)
        y, h = s6_forward(x, p, parallel=parallel)
        assert y.shape == (0, 128)
        assert h.shape == (16, 128) and not h.any()
