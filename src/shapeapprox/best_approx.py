"""Discretized best uniform and best q-monotone polynomial approximation.

E_n(f)      = inf over degree-<=n polynomials of the uniform error;
E_n^(q)(f)  = the same infimum restricted to q-monotone polynomials.

Both are computed on Chebyshev-distributed sample nodes, as min over a of
max_i |f(x_i) - p(x_i)|, by ``simplex.exchange`` (a Remez-type exchange) and,
when its optimum is not proved q-monotone, ``simplex.dual_simplex``
continued from the exchange's last reference with the shape rows.  The
shape constraint p^(q) >= 0 (p >= 0 when q = 0) is imposed as nonnegative
Bernstein coefficients of p^(q) after degree elevation, which certifies it
on all of [0,1] (Powers & Reznick, Trans. AMS 2001), not only at sample
nodes.  The shape rows are the Bernstein coefficients of each
T_j(2x-1)^(q), formed exactly in integers at degree 2(n-q), rounded once,
and elevated to m by one float product with a nonnegative matrix; the
simplex stops once no row is violated by more than 1e-15 max|f|.  Both
problems work in the shifted Chebyshev basis for conditioning; the returned
polynomial is reconstructed exactly from the float solution
(``polynomial._reconstruct``) so downstream basis conversions do not
amplify cancellation.  The integer table of the T_j(2x-1), which the
shape rows and both reconstructions read, is formed once per degree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .errors import RegimeError, SolverError
from .moduli import default_x_grid
from .polynomial import (Polynomial, _chebyshev_ints, _reconstruct, bernstein_elevation,
                         bernstein_integers)
from .shape import PROOFS, check_k_monotone_poly
from .simplex import dual_simplex, exchange

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
    #: unconstrained optimum was proved q-monotone
    constraint_size: int
    #: exchange steps, plus the dual simplex steps after them when the
    #: shape rows were added
    iterations: int
    #: the dual simplex steps among ``iterations``; 0 when the shape rows
    #: never entered
    simplex_steps: int
    equioscillations: int
    constraint_validated: bool


def _basis_values(xs: np.ndarray, n: int) -> np.ndarray:
    return npcheb.chebvander(2.0 * np.asarray(xs, dtype=float) - 1.0, n)


def _shape_rows(n: int, q: int, m: int) -> np.ndarray:
    """R with R a = the Bernstein coefficients at degree m of p^(q), for
    p = sum_j a_j T_j(2x-1), each row scaled to max 1.  R a >= 0 certifies
    p^(q) >= 0 on [0,1].

    The Bernstein coefficients of every T_j^(q) at degree d = min(2(n-q), m)
    are formed exactly in integers from ``_chebyshev_ints(n)`` and rounded
    once;
    one float product with ``bernstein_elevation(d, m)`` takes them to m.
    Exact elevation to 2(n-q) damps the alternating coefficients of T_j^(q)
    before any rounding, and the float step forms convex combinations.
    Against exact rows, for q <= 4, the error is at most 2.3e-14 of a
    row's max at n = 19 and 8.7e-13 at n = 40 (m = 512), and 2.1e-12 at
    n = 40, m = 1024."""
    d = min(2 * (n - q), m)
    T = _chebyshev_ints(n)
    # monomial coefficients of T_j^(q), padded to degree d
    num = np.zeros((d + 1, n + 1), dtype=object)
    for i in range(n - q + 1):
        num[i] = T[i + q] * math.perm(i + q, q)
    B = (bernstein_integers(num) / math.factorial(d)).astype(float)
    R = bernstein_elevation(d, m) @ B
    return R / np.abs(R).max(axis=1, keepdims=True)


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


def _solve(f, n: int, N: int | None, q: int | None = None, M: int = 0) -> ApproxResult:
    """Sample f, run the exchange and reconstruct its optimum; for a q that
    the optimum's shape check does not prove, continue by the dual simplex
    with the shape rows at degree m = max(4(M-1), n-q)."""
    N, fvals, V = _sample(f, n, N)
    a, err, bound, ref = exchange(fvals, V)
    p = _reconstruct(a)
    constraint_size, validated, steps = 0, True, 0
    # if the unconstrained optimum is proved to satisfy the shape constraint
    # it is the constrained optimum too (constrained error can only be
    # larger); a pass within tolerance proves nothing of the kind
    if q is not None and check_k_monotone_poly(p, q).certificate not in PROOFS:
        m = max(4 * (M - 1), n - q)
        a, err, bound, steps = dual_simplex(fvals, V, _shape_rows(n, q, m), ref)
        p = _reconstruct(a)
        constraint_size, validated = m + 1, check_k_monotone_poly(p, q).passed
    resid = fvals - V @ a
    return ApproxResult(
        n=n, q=q, poly=p, error=err, error_dual=bound, sample_size=N,
        constraint_size=constraint_size, iterations=ref.steps + steps, simplex_steps=steps,
        equioscillations=equioscillation_count(resid, err), constraint_validated=validated,
    )


def best_uniform(f, n: int, N: int | None = None) -> ApproxResult:
    """Best uniform approximation from degree-<=n polynomials, discretized on
    N >= 4(n+1) Chebyshev-distributed nodes."""
    if n < 0:
        raise RegimeError("n must be >= 0")
    return _solve(f, n, N)


def best_qmonotone(
    f, q: int, n: int, N: int | None = None, M: int | None = None,
) -> ApproxResult:
    """Best approximation from q-monotone degree-<=n polynomials.

    When the unconstrained optimum is not q-monotone, the solve requires the
    Bernstein coefficients of p^(q) (p for q=0), elevated to degree
    m = 4(M-1), to be >= 0, which certifies the shape on all of [0,1];
    ``constraint_size`` is then m+1.  The solve is skipped only when
    ``check_k_monotone_poly`` proves the unconstrained optimum's p^(q) >= 0
    in exact arithmetic (a "native" or "subdivision" certificate); a pass
    within tolerance, a counterexample or an undecided verdict leads to the
    solve.  ``constraint_validated`` is the verdict of
    ``check_k_monotone_poly`` on the returned polynomial, a pass within
    tolerance included."""
    if q < 0 or n < 0:
        raise RegimeError("need q >= 0 and n >= 0")
    return _solve(f, n, N, q, DEFAULT_CONSTRAINT_POINTS if M is None else M)


def jackson_quotient(error: float, modulus: float) -> float:
    """E_n^(q)(f) / omega_2^phi(f, 1/n), taken as 0 when both vanish."""
    if modulus <= 1e-12:
        if error <= 1e-12:
            return 0.0
        raise SolverError("modulus vanished while the error did not")
    return error / modulus
