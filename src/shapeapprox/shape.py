"""Numerical k-monotonicity verdicts for functions and polynomials on [0,1].

A function is k-monotone when its k-th symmetric differences are nonnegative
wherever they are defined (k = 0, 1, 2: nonnegative, nondecreasing, convex).
For polynomials this is equivalent to p^(k) >= 0 on (0,1) for k >= 1. Every
polynomial here has an exact value, so the verdict on p^(k) >= 0 is first
sought exactly, with no sampling caveat. It has three exits. A proof: all
Bernstein coefficients of p^(k) are nonnegative (the native certificate), or
they become so on every piece of a dyadic subdivision (the subdivision
certificate). A counterexample: the subdivision meets a negative end
coefficient, which is the exact value of p^(k) at a dyadic point, below the
threshold. A sample: only when neither decides is p^(k) sampled on a dense
grid, and that sample alone decides the verdict.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .moduli import _centre_term, _sym_diff_grid, default_x_grid
from .polynomial import Polynomial, bernstein_basis, nonnegative_by_halving

POLY_GRID_POINTS = 4096
FN_X_POINTS = 257
FN_DELTA_POINTS = 64
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
    #: True when they are not, but halving them proved p^(k) >= 0 exactly
    subdivision_certificate: bool = False


def check_k_monotone_fn(f, k: int) -> ShapeReport:
    """Test Delta^k_delta(f, x) >= -tol*scale over a product grid, all 64
    steps in one kernel call; only points with x +- k delta/2 in [0,1]
    participate."""
    if k < 0:
        raise RegimeError("k must be >= 0")
    xs = default_x_grid(FN_X_POINTS)
    vals = np.asarray(f(xs), dtype=float)
    threshold = DEFAULT_TOL * max(1e-30, float(np.max(np.abs(vals))))
    if k == 0:
        j = int(np.argmin(vals))
        if vals[j] < -threshold:
            return ShapeReport(k, False, float(xs[j]), 0.0, float(vals[j]),
                               FN_X_POINTS, FN_DELTA_POINTS, threshold)
        return ShapeReport(k, True, None, None, None,
                           FN_X_POINTS, FN_DELTA_POINTS, threshold)
    deltas = np.geomspace(2.0 ** -20, 1.0 / k, FN_DELTA_POINTS)
    centre = _centre_term(k, vals) if k % 2 == 0 else None
    diffs = _sym_diff_grid(f, k, deltas[:, None], xs, centre)
    i, j = np.unravel_index(np.argmin(diffs), diffs.shape)
    if diffs[i, j] < -threshold:
        return ShapeReport(k, False, float(xs[j]), float(deltas[i]), float(diffs[i, j]),
                           FN_X_POINTS, FN_DELTA_POINTS, threshold)
    return ShapeReport(k, True, None, None, None,
                       FN_X_POINTS, FN_DELTA_POINTS, threshold)


def _halving_budget(degree: int) -> int:
    """Halvings allowed before sampling a degree-`degree` p^(k). A halving
    costs O(d^2) big-integer additions, the sample 4096 (d+1) basis values;
    with this budget a search that finds neither a proof nor a
    counterexample (a double zero at a non-dyadic point) costs less than
    the sample it precedes, and from degree 512 on the budget is 0. A
    counterexample found within it saves the sample."""
    return POLY_GRID_POINTS // (8 * (degree + 1))


def check_k_monotone_poly(p: Polynomial, k: int) -> ShapeReport:
    """Sign check of p^(k) (p itself for k = 0) on [0,1], from the exact
    Bernstein integers of p^(k), with three exits. A proof passes: the
    native certificate (every coefficient >= 0), or the subdivision
    certificate (``nonnegative_by_halving`` within ``_halving_budget``). A
    counterexample fails: the exact value of p^(k) at the dyadic point where
    the halving gave up, when it lies below -threshold; it is the witness.
    Otherwise dense 4096-point sampling of the float64 coefficients decides.
    ``x_grid_size = 0`` means the verdict was decided exactly. A proof
    implies that the sample would pass (roundoff stays far below the
    threshold). A counterexample is a value the sample could only miss, so
    no sample would pass p more justly; one in (-threshold, 0) decides
    nothing, and the sample does, against the same threshold as before."""
    if k < 0:
        raise RegimeError("k must be >= 0")
    c, den = p.integer_form.derivative(k)
    p_c, p_den = p.integer_form.derivative(0) if k else (c, den)
    # max|c|/den, one correctly rounded quotient: the max of the rounded values
    threshold = DEFAULT_TOL * max(1e-30, max(map(abs, p_c)) / p_den, max(map(abs, c)) / den)
    proved, halvings, witness = nonnegative_by_halving(c, _halving_budget(len(c) - 1))
    if proved:
        return ShapeReport(k, True, None, None, None, 0, 0, threshold,
                           bernstein_certificate=not halvings,
                           subdivision_certificate=bool(halvings))
    if witness is not None:
        x, value = witness[0], witness[1] / den
        if value < -threshold:
            return ShapeReport(k, False, float(x), 0.0, float(value), 0, 0, threshold)
    xs = np.linspace(0.0, 1.0, POLY_GRID_POINTS)
    vals = bernstein_basis(len(c) - 1, xs) @ np.array([x / den for x in c])
    j = int(np.argmin(vals))
    if vals[j] < -threshold:
        return ShapeReport(k, False, float(xs[j]), 0.0, float(vals[j]),
                           POLY_GRID_POINTS, 0, threshold)
    return ShapeReport(k, True, None, None, None, POLY_GRID_POINTS, 0, threshold)
