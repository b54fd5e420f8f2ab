"""Construction of the generating polynomial P_n with nonnegative derivatives
up to order r, unit integral, and O(n^-2) moment deficiency."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from .errors import PrecisionError, RegimeError
from .polynomial import Polynomial, _to_mpf, bernstein_basis
from .special import tau

PRECISION_BITS = 256  # working precision of the generator and the M_n image
UNIT_INTEGRAL_TOL = 1e-20
GRID_SIGN_REL_TOL = 1e-15
GRID_POINTS = 2048


@dataclass(frozen=True)
class GeneratorPoly:
    """The degree-<=n generating polynomial with its construction metadata."""

    n: int
    r: int
    m: int
    lambda_n: mpmath.mpf
    P: Polynomial
    moment_deficiency: dict = field(repr=False)  # mu -> 1 - int x^mu P
    precision_bits: int  # mantissa bits P is computed and stored at
    unit_integral_residual: float  # |int P - 1|, exact, rounded once
    derivative_minima: tuple  # certified grid minimum of each P^(nu), relative


def moment(P: Polynomial, mu: int):
    """Integral of x^mu * P(x) over [0,1]: exact for exact P, else the exact
    value of the stored coefficients rounded once at the ambient precision."""
    total = P.integer_form.moment(mu)
    return total if P.backend == "exact" else _to_mpf(total)


def _grid_relative_orders(poly: Polynomial, r: int):
    """poly^(nu) for nu = 0..r on a uniform GRID_POINTS grid of [0,1], from
    one basis matrix: the grid, one column of values per order, each divided
    by the largest Bernstein coefficient of poly^(nu) at its native degree,
    and those scales.

    The exact Bernstein coefficients of each poly^(nu) are raised to degree
    d = deg poly (integer convex recursion, nu steps) and rounded once, so
    one product with the degree-d basis evaluates every derivative."""
    form = poly.integer_form
    d = form.degree
    columns, scales = [], []
    for nu in range(r + 1):
        c, den = form.derivative(nu)
        scales.append(max(1e-300, max(map(abs, c)) / den))
        for k in range(len(c) - 1, d):  # c'_i = (i c_{i-1} + (k+1-i) c_i)/(k+1)
            c = [i * x + (k + 1 - i) * y for i, x, y in zip(range(k + 2), [0] + c, c + [0])]
            den *= k + 1
        columns.append([x / den for x in c])
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    return xs, bernstein_basis(d, xs) @ np.array(columns).T / np.array(scales), scales


def _grid_minima_certified(poly: Polynomial, r: int) -> list:
    """The grid minimum of each relative column of _grid_relative_orders.
    float64 Bernstein evaluation is only good to a few ulps at high degree,
    so grid points dipping below the sign tolerance are evaluated again
    exactly."""
    xs, vals, scales = _grid_relative_orders(poly, r)
    minima = []
    for nu, col in enumerate(vals.T):
        low = col < -GRID_SIGN_REL_TOL
        if low.any():
            exact = poly.to_exact().differentiate(nu)
            col = [*col[~low], min(float(exact(Fraction(x))) for x in xs[low]) / scales[nu]]
        minima.append(float(np.min(col)))
    return minima


@lru_cache(maxsize=64)
def build_generator(n: int, r: int) -> GeneratorPoly:
    """Build the generating polynomial for n > 8r at PRECISION_BITS plus
    guard bits; raises PrecisionError when the result fails its
    certification."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if n <= 8 * r:
        raise RegimeError(f"construction requires n > 8r (n={n}, r={r})")
    m = math.ceil(n / (8 * r))
    deg_q = 4 * r * (m - 1)
    work = PRECISION_BITS + 2 * deg_q + 64  # convolution/conversion guard digits
    with mpmath.workprec(work):
        t = tau(m, prec_bits=work)
        Q = t.poly ** (4 * r)
        one_minus_t_r = Polynomial.monomial([1, -1]).to_float() ** r
        denom = (Q * one_minus_t_r).integrate_01()
        lam = r / denom
        kernel = Q
        for _ in range(r):
            kernel = kernel.antidifferentiate_from_zero()
        P = kernel.scale(lam * mpmath.factorial(r - 1))

        if P.degree > n:
            raise RegimeError(f"generator degree {P.degree} exceeds n={n}")
        resid = float(abs(P.integer_form.moment(0) - 1))
        if resid > UNIT_INTEGRAL_TOL:
            raise PrecisionError(f"unit integral off by {resid}")
        deficiency = {}
        for mu in (1, 2, 3, 4):
            d = 1 - moment(P, mu)
            if d <= 0:
                raise PrecisionError(f"moment deficiency delta_{mu} = {d} <= 0")
            deficiency[mu] = d
        minima = tuple(_grid_minima_certified(P, r))
        for nu, rel_min in enumerate(minima):
            if rel_min < -GRID_SIGN_REL_TOL:
                raise PrecisionError(
                    f"derivative order {nu} dips to {rel_min} (relative) on grid"
                )
    return GeneratorPoly(
        n=n,
        r=r,
        m=m,
        lambda_n=lam,
        P=P,
        moment_deficiency=deficiency,
        precision_bits=work,
        unit_integral_residual=resid,
        derivative_minima=minima,
    )


def deficiency_slope(r: int, n_list) -> float:
    """Least-squares slope of log delta_2(n) against log n."""
    ns = list(n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    logs_n, logs_d = [], []
    for n in ns:
        gen = build_generator(n, r)
        logs_n.append(math.log(n))
        logs_d.append(float(mpmath.log(gen.moment_deficiency[2])))
    slope, _ = np.polyfit(logs_n, logs_d, 1)
    return float(slope)
