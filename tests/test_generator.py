"""Generating polynomials: unit integral, nonnegative derivatives, and
second-moment deficiency decay."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from shapeapprox import Polynomial, build_generator, deficiency_slope, moment
from shapeapprox.generator import GRID_POINTS, _grid_min_certified, _grid_min_relative


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", [32, 64])
def test_generator_basic_properties(n, r):
    gen = build_generator(n, r)
    assert gen.n == n and gen.r == r
    assert gen.m == math.ceil(n / (8 * r))
    assert gen.P.degree <= n
    with mpmath.workprec(max(256, gen.precision_bits) + 2 * gen.P.degree + 64):
        assert abs(gen.P.integrate_01() - 1) <= mpmath.mpf("1e-20")
        for nu in range(r + 1):
            assert _grid_min_relative(gen.P.differentiate(nu)) >= -1e-15


def test_generator_moment_deficiencies_positive_and_ordered():
    gen = build_generator(64, 2)
    d = gen.moment_deficiency
    assert all(float(d[mu]) > 0 for mu in (1, 2, 3, 4))
    # delta_mu = 1 - int x^mu P increases with mu since x^mu decreases on [0,1]
    assert float(d[1]) < float(d[2]) < float(d[3]) < float(d[4])


def test_moment_of_unit_mass():
    gen = build_generator(48, 1)
    with mpmath.workprec(gen.precision_bits + 2 * gen.P.degree + 64):
        m0 = moment(gen.P, 0)
        assert abs(m0 - 1) <= mpmath.mpf("1e-20")
        m2 = moment(gen.P, 2)
        assert abs((1 - m2) - gen.moment_deficiency[2]) <= mpmath.mpf("1e-25")


def test_delta2_decays_like_inverse_square():
    slope = deficiency_slope(1, [32, 64, 128, 256])
    assert -2.4 <= slope <= -1.6


def test_n2_delta2_bounded():
    vals = []
    for n in (32, 64, 128):
        gen = build_generator(n, 2)
        vals.append(n * n * float(gen.moment_deficiency[2]))
    assert max(vals) <= 4 * min(vals)


def test_grid_min_certified_reevaluates_dips_exactly():
    # (x - 1/2)^2 - 1e-6 dips below the sign tolerance near x = 1/2, so the
    # dipping grid points are evaluated again in exact arithmetic
    eps = Fraction(1, 10**6)
    p = Polynomial.monomial([Fraction(1, 4) - eps, -1, 1])
    scale = float(Fraction(1, 4) + eps)  # largest |Bernstein coefficient|
    want = min(float(p(Fraction(x))) for x in np.linspace(0.0, 1.0, GRID_POINTS)) / scale
    for bits in (53, 1000):
        with mpmath.workprec(bits):
            assert _grid_min_certified(p) == want < 0
