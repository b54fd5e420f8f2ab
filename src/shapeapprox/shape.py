"""Numerical k-monotonicity verdicts for functions and polynomials on [0,1].

A function is k-monotone when its k-th symmetric differences are nonnegative
wherever they are defined (k = 0, 1, 2: nonnegative, nondecreasing, convex).
For polynomials this is equivalent to p^(k) >= 0 on (0,1) for k >= 1, which
admits a sufficient certificate: if all Bernstein coefficients of p^(k) are
nonnegative, the polynomial is k-monotone with no sampling caveat.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .moduli import default_x_grid
from .polynomial import Polynomial, bernstein_basis

POLY_GRID_POINTS = 4096
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ShapeReport:
    k: int
    passed: bool
    witness_x: float | None  # point with the most negative difference, on fail
    witness_delta: float | None
    witness_value: float | None
    x_grid_size: int
    delta_grid_size: int
    tol: float
    #: True when every Bernstein coefficient of p^(k) is >= 0 (polynomials
    #: only); a certificate that needs no grid caveat
    bernstein_certificate: bool = False


def check_k_monotone_fn(
    f,
    k: int,
    x_grid_size: int = 257,
    delta_grid_size: int = 64,
    tol: float = DEFAULT_TOL,
) -> ShapeReport:
    """Test Delta^k_delta(f, x) >= -tol*scale over a product grid; only
    points with x +- k delta/2 in [0,1] participate."""
    if k < 0:
        raise ValueError("k must be >= 0")
    xs = default_x_grid(x_grid_size)
    scale = max(1e-30, float(np.max(np.abs(np.asarray(f(xs), dtype=float)))))
    threshold = tol * scale
    if k == 0:
        vals = np.asarray(f(xs), dtype=float)
        j = int(np.argmin(vals))
        if vals[j] < -threshold:
            return ShapeReport(k, False, float(xs[j]), 0.0, float(vals[j]),
                               x_grid_size, delta_grid_size, threshold)
        return ShapeReport(k, True, None, None, None,
                           x_grid_size, delta_grid_size, threshold)
    deltas = np.geomspace(2.0 ** -20, 1.0 / max(k, 1), delta_grid_size)
    worst, wx, wd = 0.0, None, None
    offsets = np.arange(k + 1)
    signs = np.array([(-1) ** (k - i) * comb(k, i) for i in range(k + 1)], dtype=float)
    for d in deltas:
        lo = xs - k * d / 2.0
        hi = xs + k * d / 2.0
        valid = (lo >= -1e-15) & (hi <= 1.0 + 1e-15)
        if not valid.any():
            continue
        nodes = np.clip(lo[valid, None] + d * offsets[None, :], 0.0, 1.0)
        diffs = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape) @ signs
        j = int(np.argmin(diffs))
        if diffs[j] < worst:
            worst, wx, wd = float(diffs[j]), float(xs[valid][j]), float(d)
    if worst < -threshold:
        return ShapeReport(k, False, wx, wd, worst,
                           x_grid_size, delta_grid_size, threshold)
    return ShapeReport(k, True, None, None, None,
                       x_grid_size, delta_grid_size, threshold)


def check_k_monotone_poly(p: Polynomial, k: int, tol: float = DEFAULT_TOL) -> ShapeReport:
    """Sign check of p^(k) (p itself for k = 0): Bernstein-coefficient
    certificate first, then dense 4096-point sampling."""
    if k < 0:
        raise ValueError("k must be >= 0")
    coeffs, certificate = p.bernstein_float64(k)
    p_coeffs, _ = p.bernstein_float64()
    threshold = tol * max(1e-30, float(np.max(np.abs(p_coeffs))),
                          float(np.max(np.abs(coeffs))))
    if certificate:
        return ShapeReport(k, True, None, None, None, POLY_GRID_POINTS, 0,
                           threshold, bernstein_certificate=True)
    xs = np.linspace(0.0, 1.0, POLY_GRID_POINTS)
    vals = bernstein_basis(len(coeffs) - 1, xs) @ coeffs
    j = int(np.argmin(vals))
    if vals[j] < -threshold:
        return ShapeReport(k, False, float(xs[j]), 0.0, float(vals[j]),
                           POLY_GRID_POINTS, 0, threshold)
    return ShapeReport(k, True, None, None, None, POLY_GRID_POINTS, 0, threshold)
