"""Discretized best uniform and best q-monotone polynomial approximation.

E_n(f)      = inf over degree-<=n polynomials of the uniform error;
E_n^(q)(f)  = the same infimum restricted to q-monotone polynomials.

Both are computed on Chebyshev-distributed sample nodes, as min over a of
max_i |f(x_i) - p(x_i)|, by ``simplex.minimax``: Stiefel's exchange without
a shape constraint, and the same dual simplex continued with the shape
rows.  The shape constraint p^(q) >= 0 (p >= 0 when q = 0) is imposed as
nonnegative Bernstein coefficients of p^(q) after degree elevation, which
certifies it on all of [0,1] (Powers & Reznick, Trans. AMS 2001), not only
at sample nodes.  Both work in the shifted Chebyshev basis for
conditioning; the returned polynomial is reconstructed exactly from the
float solution so downstream basis conversions do not amplify cancellation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .errors import RegimeError, SolverError
from .moduli import default_x_grid, omega_dt
from .polynomial import Polynomial
from .shape import check_k_monotone_poly
from .simplex import minimax

DEFAULT_SAMPLE_POINTS = 257
DEFAULT_CONSTRAINT_POINTS = 257


@dataclass(frozen=True)
class ApproxResult:
    n: int
    q: int | None  # None for the unconstrained problem
    poly: Polynomial
    error: float  # uniform norm of f - p on the sample grid
    #: highest levelled value of the solve: a lower bound on the discrete
    #: optimum, up to rounding, and never above ``error``
    error_dual: float
    sample_size: int
    #: Bernstein coefficients of p^(q) constrained in the solve; 0 when the
    #: unconstrained optimum was already q-monotone
    constraint_size: int
    #: exchange steps, plus the dual simplex steps after them when the
    #: shape rows were added
    iterations: int
    equioscillations: int
    constraint_validated: bool


@lru_cache(maxsize=256)
def _shifted_chebyshev(j: int) -> Polynomial:
    """T_j(2x-1) in the monomial basis with exact integer coefficients, by
    the recurrence T*_{j+1} = (4x-2) T*_j - T*_{j-1}."""
    prev, cur = [1], [-1, 2]
    for _ in range(j):
        prev, cur = cur, [4 * b - 2 * c - a for a, b, c in
                          zip(prev + [0, 0], [0] + cur, cur + [0])]
    return Polynomial.monomial(prev)


def _basis_values(xs: np.ndarray, n: int) -> np.ndarray:
    return npcheb.chebvander(2.0 * np.asarray(xs, dtype=float) - 1.0, n)


def _elevate(C: np.ndarray, m: int) -> np.ndarray:
    """Bernstein coefficients (one column per polynomial) raised from degree
    d to m by two products, d -> min(2d, m) -> m, each with the matrix
    E[i,k] = C(i,k) C(t-i,s-k) / C(t,s) from degree s to t, every entry the
    correctly rounded quotient of exact binomials.  E is nonnegative and its
    rows sum to 1, so each output is a convex combination of the inputs and
    its absolute error stays near the rounding level of the largest one.
    The first doubling damps the alternating part of the coefficients, and
    the second product averages the first one's rounding errors: on the
    rows of ``_shape_rows(19, 0, 512)``, where entries cancel, one product
    to m loses 3.4e-11 of a row's max, two lose 4.1e-12."""
    for t in (min(2 * (C.shape[0] - 1), m), m):
        s = C.shape[0] - 1
        if t > s:
            # T[i, k] = C(i, k) as Python integers, column k by prefix sums of k-1
            T = np.zeros((t + 1, s + 1), dtype=object)
            T[:, 0] = 1
            for k in range(1, s + 1):
                T[1:, k] = np.cumsum(T[:-1, k - 1])
            E, top = np.empty((t + 1, s + 1)), math.comb(t, s)
            for i in range(0, t + 1, 64):  # in blocks: few products held as integers at once
                E[i:i + 64] = T[i:i + 64] * T[::-1, ::-1][i:i + 64] / top
            C = E @ C
    return C


def _shape_rows(n: int, q: int, m: int) -> np.ndarray:
    """R with R a = the Bernstein coefficients at degree m of p^(q), for
    p = sum_j a_j T_j(2x-1), each row scaled to max 1.  R a >= 0 certifies
    p^(q) >= 0 on [0,1].  Exact coefficients of each T_j^(q), rounded once,
    are elevated in float, since Fraction elevation to m ~ 1000 costs
    seconds.  Entries that cancel lose relative accuracy (up to 2.5e-7 of
    a row's max at n=35, q=4, m=1024), so check_k_monotone_poly still gives
    the final verdict."""
    B = np.zeros((n - q + 1, n + 1))
    for j in range(q, n + 1):
        c, _ = _shifted_chebyshev(j).bernstein_float64(q)
        B[:, j] = _elevate(c[:, None], n - q)[:, 0]
    R = _elevate(B, m)
    return R / np.abs(R).max(axis=1, keepdims=True)


def _reconstruct(coeffs: np.ndarray) -> Polynomial:
    """Exact monomial polynomial from float Chebyshev-basis coefficients.
    Each float is a dyadic rational, so the sum runs in integers over the
    largest power-of-two denominator."""
    parts = [float(aj).as_integer_ratio() for aj in coeffs]
    den = max(q for _, q in parts)
    acc = [0] * len(parts)
    for j, (p, q) in enumerate(parts):
        if p:
            a = p * (den // q)
            for l, cl in enumerate(_shifted_chebyshev(j).coeffs):
                acc[l] += a * cl.numerator
    return Polynomial.monomial([Fraction(x, den) for x in acc])


def equioscillation_count(residuals: np.ndarray, error: float) -> int:
    """Number of alternating near-extrema of the residual with magnitude
    within 1% of the error."""
    if error <= 0:
        return 0
    level = 0.99 * error
    count, last_sign = 0, 0
    for r in residuals:
        if abs(r) >= level:
            s = 1 if r > 0 else -1
            if s != last_sign:
                count += 1
                last_sign = s
    return count


def _sample(f, n: int, N: int | None):
    """The sample size, the values of f at N Chebyshev-distributed nodes and
    the degree-n basis matrix there; N defaults to max(257, 4(n+1))."""
    if N is None:
        N = max(DEFAULT_SAMPLE_POINTS, 4 * (n + 1))
    if N < 4 * (n + 1):
        raise RegimeError("need N >= 4(n+1) sample nodes")
    xs = default_x_grid(N)
    return N, np.asarray(f(xs), dtype=float), _basis_values(xs, n)


def best_uniform(f, n: int, N: int | None = None) -> ApproxResult:
    """Best uniform approximation from degree-<=n polynomials, discretized on
    N >= 4(n+1) Chebyshev-distributed nodes."""
    if n < 0:
        raise RegimeError("n must be >= 0")
    N, fvals, V = _sample(f, n, N)
    a, err, bound, iters = minimax(fvals, V)
    p = _reconstruct(a)
    resid = fvals - V @ a
    return ApproxResult(
        n=n, q=None, poly=p, error=err, error_dual=bound, sample_size=N, constraint_size=0,
        iterations=iters, equioscillations=equioscillation_count(resid, err),
        constraint_validated=True,
    )


def best_qmonotone(
    f, q: int, n: int, N: int | None = None, M: int | None = None,
) -> ApproxResult:
    """Best approximation from q-monotone degree-<=n polynomials.

    When the unconstrained optimum is not q-monotone, the solve requires the
    Bernstein coefficients of p^(q) (p for q=0), elevated to degree
    m = 4(M-1), to be >= 0, which certifies the shape on all of [0,1];
    ``constraint_size`` is then m+1.  ``constraint_validated`` is the
    verdict of ``check_k_monotone_poly`` on the returned polynomial."""
    if q < 0 or n < 0:
        raise RegimeError("need q >= 0 and n >= 0")
    if M is None:
        M = DEFAULT_CONSTRAINT_POINTS
    N, fvals, V = _sample(f, n, N)
    # if the unconstrained optimum already satisfies the shape constraint it
    # is the constrained optimum too (constrained error can only be larger)
    a, err, bound, iters = minimax(fvals, V)
    p = _reconstruct(a)
    constraint_size, validated = 0, True
    if not check_k_monotone_poly(p, q).passed:
        m = max(4 * (M - 1), n - q)
        a, err, bound, iters = minimax(fvals, V, _shape_rows(n, q, m))
        p = _reconstruct(a)
        constraint_size, validated = m + 1, check_k_monotone_poly(p, q).passed
    resid = fvals - V @ a
    return ApproxResult(
        n=n, q=q, poly=p, error=err, error_dual=bound, sample_size=N,
        constraint_size=constraint_size, iterations=iters,
        equioscillations=equioscillation_count(resid, err), constraint_validated=validated,
    )


def jackson_quotient(error: float, modulus: float) -> float:
    """E_n^(q)(f) / omega_2^phi(f, 1/n), taken as 0 when both vanish."""
    if modulus <= 1e-12:
        if error <= 1e-12:
            return 0.0
        raise SolverError("modulus vanished while the error did not")
    return error / modulus


def jackson_ratio(f, q: int, n: int, N: int | None = None, M: int | None = None) -> float:
    """Empirical constant E_n^(q)(f) / omega_2^phi(f, 1/n)."""
    return jackson_quotient(best_qmonotone(f, q, n, N=N, M=M).error,
                            omega_dt(f, 2, 1.0, 1.0 / n).value)
