import mpmath
import numpy as np
import pytest
import sympy as sp

from dsest import InputSignal


class TestConstructors:
    def test_zero(self):
        u = InputSignal.zero(3)
        assert u.dim == 3
        assert np.allclose(u(0.7), np.zeros(3))

    def test_polynomial_values(self):
        # component 0: 1 + 2t, component 1: t^2
        u = InputSignal.polynomial([[1.0, 2.0], [0.0, 0.0, 1.0]])
        t = np.linspace(0.0, 2.0, 11)
        vals = u.eval(t)
        assert vals.shape == (2, 11)
        assert np.allclose(vals[0], 1.0 + 2.0 * t)
        assert np.allclose(vals[1], t ** 2)

    def test_sinusoid_values(self):
        u = InputSignal.sinusoid([2.0], 3.0, phase=0.5)
        t = np.linspace(0.0, 1.0, 7)
        assert np.allclose(u.eval(t)[0], 2.0 * np.sin(3.0 * t + 0.5))

    def test_probe_values(self):
        # sin((t + 1)^2) / (t + 1)^2 on the shifted grid
        u = InputSignal.probe(2, 1)
        t = np.linspace(0.0, 5.0, 13)
        ref = np.sin((t + 1.0) ** 2) / (t + 1.0) ** 2
        assert np.allclose(u.eval(t)[0], ref)

    def test_probe_component_placement(self):
        u = InputSignal.probe(1, 3, component=2)
        v = u(1.3)
        assert v[0] == 0.0 and v[1] == 0.0 and v[2] != 0.0


class TestCalculus:
    def test_polynomial_derivatives(self):
        u = InputSignal.polynomial([[0.0, 0.0, 0.0, 1.0]])  # t^3
        t = np.array([0.5, 1.0, 2.0])
        assert np.allclose(u.eval(t, order=1)[0], 3.0 * t ** 2)
        assert np.allclose(u.eval(t, order=2)[0], 6.0 * t)
        assert np.allclose(u.eval(t, order=3)[0], 6.0)
        assert np.allclose(u.eval(t, order=4)[0], 0.0)

    def test_derivative_object_matches_eval_order(self):
        u = InputSignal.sinusoid([1.0], 2.0)
        du = u.derivative()
        t = np.linspace(0.0, 3.0, 17)
        assert np.allclose(du.eval(t), u.eval(t, order=1))

    def test_probe_derivative_finite_difference(self):
        u = InputSignal.probe(2, 1)
        t0, h = 1.7, 1e-6
        fd = (u(t0 + h)[0] - u(t0 - h)[0]) / (2 * h)
        assert abs(u.eval(np.array([t0]), order=1)[0, 0] - fd) < 1e-6


class TestAlgebra:
    def test_sum_and_scale(self):
        a = InputSignal.polynomial([[1.0]])
        b = InputSignal.sinusoid([1.0], 1.0)
        t = np.linspace(0.0, 2.0, 9)
        s = (a + b).scale(2.0)
        assert np.allclose(s.eval(t)[0], 2.0 * (1.0 + np.sin(t)))

    def test_dim_mismatch_rejected(self):
        a = InputSignal.zero(1)
        b = InputSignal.zero(2)
        with pytest.raises(Exception):
            _ = a + b


class TestShapes:
    def test_scalar_time(self):
        u = InputSignal.polynomial([[0.0, 1.0], [1.0]])
        v = u(2.0)
        assert v.shape == (2,)
        assert np.allclose(v, [2.0, 1.0])

    def test_zero_dim_signal(self):
        u = InputSignal.zero(0)
        t = np.linspace(0.0, 1.0, 5)
        assert u.eval(t).shape == (0, 5)
        assert u(0.3).shape == (0,)


_T = sp.Symbol("t", real=True)
_GRID = np.linspace(0.0, 5.0, 21)


def _exact(exprs, order: int) -> np.ndarray:
    """order-th derivatives of sympy expressions in t on the grid, in
    30-digit arithmetic at the exact binary grid values."""
    fns = [sp.lambdify(_T, sp.diff(e, _T, order), "mpmath") for e in exprs]
    with mpmath.workdps(30):
        return np.array([[float(f(mpmath.mpf(v))) for v in _GRID] for f in fns]
                        ).reshape(len(exprs), len(_GRID))


def _assert_exact(u: InputSignal, exprs, orders=range(6)):
    for k in orders:
        ref = _exact(exprs, k)
        got = u.eval(_GRID, order=k)
        assert got.shape == ref.shape
        for i, (g, r) in enumerate(zip(got, ref)):
            err = np.abs(g - r).max()
            assert err <= 1e-12 * np.abs(r).max(), (k, i, err)


def _f(x: float):
    return sp.Float(x, 30)


class TestExactOracle:
    """Derivatives of every family against sympy, rtol 1e-12 per column."""

    def test_polynomials(self):
        coeffs = [[1.5, -2.0, 0.5, 3.0, -0.25], [0.0, 1.0], []]
        exprs = [sum((_f(c) * _T ** j for j, c in enumerate(comp)), sp.Integer(0))
                 for comp in coeffs]
        _assert_exact(InputSignal.polynomial(coeffs), exprs)

    def test_sinusoids(self):
        u = InputSignal.sinusoid([2.0, -0.5], 3.0, phase=0.7)
        exprs = [_f(a) * sp.sin(_f(3.0) * _T + _f(0.7)) for a in (2.0, -0.5)]
        _assert_exact(u, exprs)

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_probe(self, s):
        tau = _T + _f(1.0)
        _assert_exact(InputSignal.probe(s, 1), [sp.sin(tau ** 2) / tau ** s])

    def test_probe_unshifted_chirp(self):
        _assert_exact(InputSignal.probe(0, 2, component=1, shift=0.0),
                      [sp.Integer(0), sp.sin(_T ** 2)])

    def test_derivative_sum_scale_and_stack(self):
        tau = _T + _f(0.5)
        poly = InputSignal.polynomial([[1.0, -1.0, 2.0]])
        sine = InputSignal.sinusoid([1.25], -2.0, phase=0.3)
        probe = InputSignal.probe(2, 1, shift=0.5)
        e_poly = 1 - _T + 2 * _T ** 2
        e_sine = _f(1.25) * sp.sin(_f(-2.0) * _T + _f(0.3))
        e_probe = sp.sin(tau ** 2) / tau ** 2
        _assert_exact(probe.derivative(2), [sp.diff(e_probe, _T, 2)], range(4))
        _assert_exact(((poly + sine) + probe).scale(-1.5),
                      [_f(-1.5) * (e_poly + e_sine + e_probe)])
        stacked = InputSignal.stack([sine, InputSignal.zero(1), probe.derivative(), poly])
        _assert_exact(stacked, [e_sine, sp.Integer(0), sp.diff(e_probe, _T), e_poly])

    def test_zero_dimensional(self):
        for u in (InputSignal.zero(0), InputSignal.stack([])):
            assert u.dim == 0
            for k in range(6):
                assert u.eval(_GRID, order=k).shape == (0, len(_GRID))
                assert u.derivative(k).eval(1.0).shape == (0,)


class TestProbeDomain:
    @pytest.mark.parametrize("s, shift", [(1.5, 1.0), (-1, 1.0), (1, 0.0), (3, -2.0)])
    def test_rejected(self, s, shift):
        with pytest.raises(ValueError):
            InputSignal.probe(s, 1, shift=shift)

    def test_plain_chirp_needs_no_shift(self):
        assert InputSignal.probe(0, 1, shift=0.0)(0.0)[0] == 0.0
