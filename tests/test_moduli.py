"""Weighted moduli of smoothness and their envelope quantities."""
import math

import numpy as np
import pytest

from shapeapprox import (
    ExpFunction,
    PowerFunction,
    RegimeError,
    bound_envelope,
    fit_modulus_exponent,
    linear,
    modulus_sweep,
    omega,
    omega_dt,
    step_weight,
    sym_diff,
)
from shapeapprox.moduli import (
    _boundary_aligned_points,
    _sym_diff_grid,
    default_h_grid,
    default_x_grid,
)


def test_step_weight_values():
    assert step_weight(0.5, 2.0) == pytest.approx(0.25)
    assert step_weight(0.5, 0.0) == pytest.approx(1.0)
    assert step_weight(0.0, 1.0) == pytest.approx(0.0)


def test_sym_diff_polynomial_annihilation():
    # second difference of a linear function vanishes; of x^2 equals delta^2
    f = lambda x: 2.0 * np.asarray(x) + 1.0
    assert sym_diff(f, 2, 0.1, 0.5) == pytest.approx(0.0, abs=1e-14)
    g = lambda x: np.asarray(x) ** 2
    # f(x-d) - 2 f(x) + f(x+d) = d^2 f'' = 2 d^2 for x^2
    assert sym_diff(g, 2, 0.1, 0.5) == pytest.approx(0.02)


def test_sym_diff_outside_domain_is_zero():
    g = lambda x: np.asarray(x) ** 2
    assert sym_diff(g, 2, 0.3, 0.1) == 0.0
    assert sym_diff(g, 2, 0.3, 0.9) == 0.0


def test_omega_linear_function_vanishes():
    est = omega(linear(1, 3), 2, 0.5)
    assert est.value <= 1e-13


def test_omega_monotone_in_t():
    f = ExpFunction()
    v1 = omega_dt(f, 2, 1.0, 0.1).value
    v2 = omega_dt(f, 2, 1.0, 0.3).value
    assert v2 >= v1 > 0


def test_omega_exp_second_order():
    # omega_2(f, t) ~ t^2 max|f''| for smooth f as t -> 0
    f = ExpFunction()
    t = 0.01
    est = omega(f, 2, t)
    assert est.value <= t * t * math.e * 1.05
    assert est.value >= t * t * 0.5


def test_omega_dt_is_the_first_maximum_of_the_sweep():
    f = PowerFunction(0.5)
    for k, lam, t in ((1, 0.0, 0.1), (2, 1.0, 0.05), (3, 1.5, 0.5)):
        hs = default_h_grid(t)
        values, args = modulus_sweep(f, k, lam, hs)
        est = omega_dt(f, k, lam, t)
        j = int(np.argmax(values))
        assert (est.value, est.argmax_h, est.argmax_x) == (values[j], hs[j], args[j])


def test_sweep_reaches_the_boundary_aligned_points():
    # x^0.5 at lambda = 1 peaks where the leftmost node of the second
    # difference sits at 0, which no Chebyshev grid point does
    f = PowerFunction(0.5)
    hs = np.geomspace(1e-4, 0.1, 8)
    values, args = modulus_sweep(f, 2, 1.0, hs)
    xs = default_x_grid()
    for h, value, x in zip(hs, values, args):
        on_grid = np.max(np.abs(_sym_diff_grid(f, 2, h * step_weight(xs, 1.0), xs)))
        assert value > on_grid
        assert x in _boundary_aligned_points(2, 1.0, h)


def test_fitted_exponent_classical_smooth():
    # omega_2(x^0.5, t) ~ t^0.5 classically
    slope = fit_modulus_exponent(PowerFunction(0.5), 2, 0.0, [2.0**-k for k in range(4, 9)])
    assert abs(slope - 0.5) <= 0.05


def test_fitted_exponent_weighted():
    # with lambda = 1 the x^eps exponent becomes eps/(1 - lambda/2) = 2 eps
    slope = fit_modulus_exponent(PowerFunction(0.7), 2, 1.0, [2.0**-k for k in range(4, 9)])
    assert abs(slope - 1.4) <= 0.05


def test_bound_envelope_regimes():
    with pytest.raises(RegimeError):
        bound_envelope("modulus_arg", 10, 2.0, 0.5)
    v = bound_envelope("modulus_arg", 10, 1.0, 0.5)
    assert v > 0
    with pytest.raises(ValueError):
        bound_envelope("nope", 10, 1.0, 0.5)
    with pytest.raises(ValueError):
        bound_envelope("pointwise", 10, 1.0, 0.5)  # missing h


def test_envelope_delta_n_lambda_piecewise():
    n = 10
    inner = bound_envelope("delta_n_lambda", n, 0.0, 0.5)
    assert inner == pytest.approx(0.5 / n)
    edge = bound_envelope("delta_n_lambda", n, 0.0, 1.0 / (2 * n * n))
    x = 1.0 / (2 * n * n)
    assert edge == pytest.approx(math.sqrt(x * (1 - x)) / n)
