"""Numerical k-monotonicity verdicts for functions and polynomials on [0,1].

A function is k-monotone when its k-th symmetric differences are nonnegative
wherever they are defined (k = 0, 1, 2: nonnegative, nondecreasing, convex).
For polynomials this is equivalent to p^(k) >= 0 on (0,1) for k >= 1. Every
polynomial here has an exact value, so its verdict is decided exactly, with
no sample, by integer de Casteljau halving of the Bernstein integers of
p^(k), the differences of p's own (``Polynomial.bernstein_read``): a
Bernstein form stored at its exact degree, as an M_n image is as a rule,
gives its stored numerators, and any other form has them formed from
its monomial form (``to_monomial``).
Its ``certificate`` names the exit. Two are proofs of p^(k) >= 0: all of
them are nonnegative ("native"), or they become so on every piece of a
dyadic subdivision ("subdivision"). A proof within tolerance
("tolerance"): those of p^(k) + threshold do, so p^(k) >= -threshold on
[0,1]. A counterexample ("counterexample"): a negative end coefficient of a
piece, the exact value of p^(k) at a dyadic point, below -threshold.
Undecided ("undecided"): a fail with no witness, when the halvings allowed
find none of these. A function's verdict is read from a sample ("sample").
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .moduli import _centre_term, _sym_diff_grid, default_x_grid
from .polynomial import Polynomial, bernstein_derivative, nonnegative_by_halving

FN_X_POINTS = 257
FN_DELTA_POINTS = 64
DEFAULT_TOL = 1e-9
#: halvings allowed to each exact run of a polynomial check: over the tests,
#: the benchmark panels and M_n images up to degree 511 a proof took at most
#: 13; more only slow the runs that decide nothing (at 64, 1.5 s at degree 252)
HALVINGS = 16
#: the ``certificate`` values of a proof of p^(k) >= 0
PROOFS = ("native", "subdivision")


@dataclass(frozen=True)
class ShapeReport:
    """A verdict on k-monotonicity, with the name of how it was reached. For
    a polynomial, ``x_grid_size`` is 0 (it is decided exactly)."""

    k: int
    passed: bool
    witness_x: float | None  # on fail, a point where the difference is below -tol
    witness_delta: float | None
    witness_value: float | None
    x_grid_size: int
    delta_grid_size: int
    tol: float
    #: "sample" for a function; for a polynomial one of the module's exits:
    #: "native" or "subdivision" (proofs of p^(k) >= 0), "tolerance" (a
    #: proof of p^(k) >= -tol), "counterexample" or "undecided"
    certificate: str = "sample"

    @property
    def bernstein_certificate(self) -> bool:
        """True when every Bernstein coefficient of p^(k) is >= 0."""
        return self.certificate == "native"


def check_k_monotone_fn(f, k: int) -> ShapeReport:
    """Test Delta^k_delta(f, x) >= -tol*scale over a product grid, all 64
    steps in one kernel call; only points with x +- k delta/2 in [0,1]
    participate; scale = max|f|, tol = max(DEFAULT_TOL, 2^k eps): a k-th
    difference sums 2^k roundings of size eps max|f|."""
    if k < 0:
        raise RegimeError("k must be >= 0")
    xs = default_x_grid(FN_X_POINTS)
    vals = np.asarray(f(xs), dtype=float)
    tol = max(DEFAULT_TOL, 2.0**k * np.finfo(float).eps)
    threshold = tol * max(1e-30, float(np.max(np.abs(vals))))
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


def check_k_monotone_poly(p: Polynomial, k: int) -> ShapeReport:
    """Sign check of p^(k) (p itself for k = 0) on [0,1] from its exact
    Bernstein integers c over den, with the module's five exits; c and p's
    scale come from one ``bernstein_read``. Each run
    of ``nonnegative_by_halving`` takes at most ``HALVINGS`` halvings. When
    the first decides nothing, the second runs on c_i t_den + t_num den, for
    threshold = t_num/t_den: the integers of (p^(k) + threshold) den t_den,
    since the basis sums to 1."""
    if k < 0:
        raise RegimeError("k must be >= 0")
    bern, bern_den = p.bernstein_read()
    c, den = bernstein_derivative(bern, bern_den, k)
    # max|b|/(den d!) and max|c|/den, each one correctly rounded quotient:
    # the max of the rounded values
    p_scale = max(map(abs, bern)) / (bern_den * math.factorial(len(bern) - 1))
    threshold = DEFAULT_TOL * max(1e-30, p_scale, max(map(abs, c)) / den)
    proved, halvings, witness = nonnegative_by_halving(c, HALVINGS)
    if proved:
        return ShapeReport(k, True, None, None, None, 0, 0, threshold,
                           "subdivision" if halvings else "native")
    if witness is None or witness[1] / den >= -threshold:
        t_num, t_den = threshold.as_integer_ratio()
        proved, _, shifted = nonnegative_by_halving([b * t_den + t_num * den for b in c],
                                                    HALVINGS)
        if proved:
            return ShapeReport(k, True, None, None, None, 0, 0, threshold, "tolerance")
        if shifted is None:
            return ShapeReport(k, False, None, None, None, 0, 0, threshold, "undecided")
        witness = shifted[0], (shifted[1] - t_num * den) / t_den
    x, value = witness[0], witness[1] / den
    return ShapeReport(k, False, float(x), 0.0, float(value), 0, 0, threshold, "counterexample")
