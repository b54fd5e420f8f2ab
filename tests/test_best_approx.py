"""Discretized best uniform / best q-monotone approximation."""
from fractions import Fraction

import numpy as np
import pytest

from shapeapprox import (
    ExpFunction,
    PolyFunction,
    Polynomial,
    TruncatedPowerFunction,
    best_qmonotone,
    best_uniform,
    catalog,
    jackson_ratio,
    linear,
    monomial,
)
from shapeapprox.best_approx import _reconstruct, _shifted_chebyshev
from shapeapprox.special import chebyshev_T


def test_best_linear_of_x_squared():
    res = best_uniform(monomial(2), 1)
    assert abs(res.error - 0.125) <= 1e-3
    assert res.equioscillations >= 3


def test_polynomial_approximates_itself():
    f = PolyFunction(Polynomial.monomial([1, -2, Fraction(1, 3), 5]))
    res = best_uniform(f, 3)
    assert res.error <= 1e-10
    res_c = best_qmonotone(monomial(3), 3, 5)
    assert res_c.error <= 1e-10


@pytest.mark.parametrize("solve", [
    lambda f: best_uniform(f, 19, N=10),
    lambda f: best_qmonotone(f, 3, 19, N=10),
])
def test_too_few_sample_nodes_rejected(solve):
    # 20 unknowns are not determined by 10 sample nodes, constrained or not
    with pytest.raises(ValueError, match="sample nodes"):
        solve(catalog("truncpow:0.5:3"))


def test_equioscillation_count_smooth():
    for n in (2, 4, 6):
        res = best_uniform(ExpFunction(), n)
        assert res.equioscillations >= n + 2


def test_best_monotone_constant_for_x():
    # best nondecreasing constant approximation of x is 1/2
    res = best_qmonotone(monomial(1), 1, 0)
    assert abs(res.error - 0.5) <= 1e-9


def test_constrained_dominates_unconstrained():
    f = TruncatedPowerFunction(Fraction(1, 2), 3)
    for n in (6, 10):
        eu = best_uniform(f, n).error
        ec = best_qmonotone(f, 4, n).error
        assert ec >= eu - 1e-10


def test_error_nonincreasing_in_n():
    f = ExpFunction()
    errs = [best_qmonotone(f, 2, n).error for n in (2, 3, 4, 6)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-9


def test_constraint_validation_flag():
    res = best_qmonotone(TruncatedPowerFunction(Fraction(1, 2), 3), 4, 12)
    assert res.constraint_validated
    from shapeapprox import check_k_monotone_poly

    assert check_k_monotone_poly(res.poly, 4).passed


def test_constrained_result_is_certified():
    # the shape rows are the Bernstein coefficients of p^(q) at degree
    # constraint_size - 1; their exact values must be nonnegative up to the
    # LP's feasibility tolerance, so p^(3) >= 0 holds on all of [0,1]
    res = best_qmonotone(catalog("truncpow:0.5:3"), 3, 19, N=129, M=129)
    assert res.constraint_size > 0
    assert res.constraint_validated
    coeffs = res.poly.to_exact().differentiate(3).to_bernstein(res.constraint_size - 1).coeffs
    scale = max(abs(c) for c in coeffs)
    assert min(coeffs) >= -1e-10 * scale


def test_constrained_error_nonincreasing_in_n():
    # degree-n q-monotone polynomials are degree-(n+1) ones too, so the
    # feasible sets are nested and the constrained optimum cannot rise
    f = catalog("truncpow:0.5:3")
    errs = [best_qmonotone(f, 4, n, N=129, M=129).error for n in range(4, 23)]
    for n, (a, b) in enumerate(zip(errs, errs[1:]), start=5):
        assert b <= a * (1 + 1e-9), (n, a, b)


def test_jackson_ratio_linear_is_zero():
    assert jackson_ratio(linear(2, 5), 2, 8) == 0.0


def test_jackson_ratio_positive_for_kink():
    r = jackson_ratio(TruncatedPowerFunction(Fraction(1, 2), 3), 4, 15)
    assert 0 < r < 10


def test_shifted_chebyshev_recurrence_matches_composition():
    two_x_minus_one = Polynomial.monomial([-1, 2])
    for j in range(41):
        assert _shifted_chebyshev(j).coeffs == chebyshev_T(j).compose(two_x_minus_one).coeffs


def test_reconstruct_matches_fraction_sum():
    # integer sum over one power-of-two denominator against a Fraction sum
    # of the exact float values times T_j(2x-1)
    rng = np.random.default_rng(5)
    two_x_minus_one = Polynomial.monomial([-1, 2])
    for n in (0, 1, 4, 12, 19, 30):
        for _ in range(3):
            a = rng.standard_normal(n + 1) * 2.0 ** rng.integers(-60, 20, n + 1)
            a[rng.random(n + 1) < 0.2] = 0.0
            want = Polynomial.monomial([0])
            for j, aj in enumerate(a):
                want = want + chebyshev_T(j).compose(two_x_minus_one).scale(Fraction(float(aj)))
            assert _reconstruct(a).coeffs == want.coeffs
