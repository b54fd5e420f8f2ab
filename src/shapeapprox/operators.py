"""Positive linear polynomial operators on C[0,1]:

* B_n            classical Bernstein operator
* U_n            genuine Bernstein-Durrmeyer operator (endpoint interpolating)
* D_n / D_n^<a>  Bernstein-Durrmeyer operator, plain and with ultraspherical
                 weight t^a (1-t)^a in its inner products
* H              the generating-polynomial combination sum_k a_k/(k+1) U_{k+2}
* M_n            the composite operator: H driven by the constructed
                 generating polynomial, with a linear-interpolation fallback

Operators are exposed as full polynomial images (``*_image``) in Bernstein
form, which the shape and moment tests consume.  U_n, D_n (alpha = 0) and H
read f once, through ``_read_out``, that is through f's moments
(``FunctionHandle.moment_read``, whose base-class default reads a plain
callable through the exact moments of its Chebyshev interpolant), and form
the image in exact arithmetic.
U_n and D_n give an exact image on exact data (polynomials, exact moments);
otherwise, and for H always, each Bernstein coefficient is rounded once at
PRECISION_BITS.  D_n^<a>, a != 0, maps a polynomial exactly (a float a is
read as its exact value) and any other f by a Gauss-Jacobi rule.  H maps
every f through the eigenpolynomials that all U_n share: its eigenvalues
depend on P alone and are formed once per generator, and f enters through
its projections on them, from its moments.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RegimeError
from .functions import FunctionHandle, PolyFunction
from .generator import PRECISION_BITS, GeneratorPoly, build_generator
from .polynomial import (BERNSTEIN, Polynomial, _round_value, bernstein_basis,
                         bernstein_integers)
from .special import pochhammer, shifted_jacobi


class _CallbackHandle(FunctionHandle):
    """Adapter for plain callables, called on float64 scalars and arrays."""

    def __init__(self, fn):
        self.fn = fn
        self.name = getattr(fn, "__name__", "callback")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _as_handle(f) -> FunctionHandle:
    if isinstance(f, FunctionHandle):
        return f
    if isinstance(f, Polynomial):
        return PolyFunction(f)
    if callable(f):
        return _CallbackHandle(f)
    raise TypeError(f"cannot interpret {f!r} as a function on [0,1]")


# ----------------------------------------------------------------------
# Bernstein operator
def bernstein_image(n: int, f) -> Polynomial:
    """B_n(f): Bernstein form with coefficients f(k/n), a polynomial's exact
    values, or any other f's float64 values at the floats k/n."""
    if n < 1:
        raise RegimeError("n must be >= 1")
    f = _as_handle(f)
    if isinstance(f, PolyFunction):
        return Polynomial.bernstein([f.poly(Fraction(k, n)) for k in range(n + 1)])
    return Polynomial.bernstein(np.asarray(f(np.arange(n + 1) / n), dtype=float))


# ----------------------------------------------------------------------
# the one read-out of f
def _read_out(f, d: int, gain: int = 0) -> tuple[list, int, bool]:
    """Read f once at degree d: f(0), m_0..m_d and f(1), m_i = int_0^1 t^i
    f(t) dt, over one denominator (``FunctionHandle.moment_read``) at bits =
    PRECISION_BITS plus 2d, plus ``gain`` for a caller whose weights sum to
    2^gain in size, and whether they are f's exact values (otherwise images
    built from them are rounded once; a function with exact moments is taken
    to give exact values at 0 and 1, even as floats, as x^eps does).
    The images rebuild g_{i,j} = int t^i (1-t)^j f from them by the triangle
    g_{i,j+1} = g_{i,j} - g_{i+1,j}, which multiplies moment errors by less
    than 3^d; a plain callable is read through the exact moments of its
    Chebyshev interpolant.
    """
    f = _as_handle(f)
    num, den = f.moment_read(d, PRECISION_BITS + 2 * d + gain)
    return num, den, f.exact_moments


def _bernstein_moments(row: list) -> list:
    """b_i = int_0^1 p_{d,i} f = C(d,i) g_{i,d-i} from the moments m_0..m_d
    of f, over their denominator, by the triangle g_{i,j+1} = g_{i,j} -
    g_{i+1,j}."""
    d = len(row) - 1
    diag = [row[-1]]  # g_{d-j,j} for j = 0..d
    for _ in range(d):
        row = [x - y for x, y in zip(row, row[1:])]
        diag.append(row[-1])
    return [comb(d, i) * g for i, g in enumerate(reversed(diag))]


def _bernstein(num, den: int, exact: bool) -> Polynomial:
    """The Bernstein polynomial with coefficients num/den, exactly, or each
    rounded once to PRECISION_BITS bits, to nearest with ties to even, and
    the rounded values held over one power of two."""
    if exact:
        return Polynomial.from_integers(BERNSTEIN, num, den)
    return Polynomial.from_dyadics(BERNSTEIN, [_round_value(v, den, PRECISION_BITS) for v in num])


# ----------------------------------------------------------------------
# genuine Bernstein-Durrmeyer operator U_n
def genuine_durrmeyer_image(n: int, f) -> Polynomial:
    """U_n(f) as a Bernstein-form polynomial of degree n.

    Coefficients: c_0 = f(0), c_n = f(1),
    c_k = (n-1) int_0^1 p_{n-2,k-1}(t) f(t) dt for 0 < k < n.
    """
    if n < 2:
        raise RegimeError("U_n requires n >= 2")
    (v0, *moments, v1), den, exact = _read_out(f, n - 2)
    return _bernstein([v0, *((n - 1) * v for v in _bernstein_moments(moments)), v1], den, exact)


def genuine_durrmeyer_moment(n: int, i: int) -> Polynomial:
    """Closed-form image U_n(e_i) as an exact monomial polynomial."""
    if n < 2 or i < 0:
        raise ValueError("need n >= 2, i >= 0")
    if i == 0:
        return Polynomial.monomial([1])
    pref = Fraction(math.factorial(n - 1) * math.factorial(i), math.factorial(n + i - 1))
    coeffs = [Fraction(0)] * (i + 1)
    for j in range(max(0, i - n), i):
        coeffs[i - j] += pref * comb(i - 1, j) * comb(n, i - j)
    return Polynomial.monomial(coeffs)


def genuine_durrmeyer_moment_recurrence(n: int, i: int) -> Polynomial:
    """U_n(e_i) via the three-term recurrence in the moment index,
    (n+k) U_n(e_{k+1}) = (2k + (n-k) x) U_n(e_k) - k(k-1)/(n+k-1) (1-x) U_n(e_{k-1}),
    on object arrays of Fractions, where numpy.polynomial is exact."""
    if n < 2 or i < 0:
        raise ValueError("need n >= 2, i >= 0")
    if i == 0:
        return Polynomial.monomial([1])
    prev2 = np.array([Fraction(1)], dtype=object)  # U_n(e_0)
    prev1 = np.array([Fraction(0), Fraction(1)], dtype=object)  # U_n(e_1) = x
    for k in range(1, i):
        tail = npoly.polymul([1, -1], prev2) * Fraction(k * (k - 1), n + k - 1)
        prev2, prev1 = prev1, npoly.polysub(npoly.polymul([2 * k, n - k], prev1), tail) / (n + k)
    return Polynomial.monomial(prev1)


# ----------------------------------------------------------------------
# Bernstein-Durrmeyer operators with ultraspherical weights
def _gauss_jacobi(order: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for (1-u^2)^alpha on [-1,1], weights of total mass 1: the
    eigenvalues of the Jacobi matrix of the orthonormal recurrence, and the
    Christoffel numbers 1/sum_k p_k(u)^2 (Golub & Welsch, Math. Comp. 1969).
    RegimeError when they are not finite: from alpha about 6.7e153 on, the
    denominators of b_k overflow."""
    k = np.arange(2, order, dtype=float)
    with np.errstate(all="ignore"):  # an overflow is caught below
        # b_1 apart: the general form is 0/0 at alpha = -1/2
        b = np.concatenate([[math.sqrt(1 / (3 + 2 * alpha))], np.sqrt(
            k * (k + 2 * alpha) / ((2 * k + 2 * alpha + 1) * (2 * k + 2 * alpha - 1)))])
        u = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
        prev, cur, total = np.zeros(order), np.ones(order), np.ones(order)
        for bk, bk1 in zip(np.concatenate([[0.0], b[:-1]]), b):
            prev, cur = cur, (u * cur - bk * prev) / bk1
            total += cur * cur
        w = 1 / total
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(w))):
        raise RegimeError(f"no Gauss-Jacobi rule of order {order} in float64 at alpha = {alpha}")
    return u, w


def durrmeyer_lupas_image(n: int, alpha, f) -> Polynomial:
    """D_n^<alpha>(f) in Bernstein form; coefficients <p_{n,k},f>/<p_{n,k},1>
    against the weight t^alpha (1-t)^alpha: exact for a polynomial f, by a
    Gauss-Jacobi rule of order max(64, n+2) otherwise."""
    if not math.isfinite(alpha):
        raise RegimeError(f"alpha must be finite, not {alpha}")
    if alpha <= -1:
        raise RegimeError("alpha must be > -1")
    if n < 0:
        raise RegimeError("n must be >= 0")
    if alpha == 0:  # <p_{n,k},1> = 1/(n+1)
        (_, *moments, _), den, exact = _read_out(f, n)
        return _bernstein([(n + 1) * v for v in _bernstein_moments(moments)], den, exact)
    f = _as_handle(f)
    if isinstance(f, PolyFunction):
        # exact route, a float alpha read as its exact value: the image of
        # e_i has coefficients (alpha+k+1)_i / (n+2 alpha+2)_i; for alpha =
        # p/q that is N_{k,i}/D_i with the integers N_{k,i} = prod_{t<i}
        # (p + (k+1+t) q) and D_i = prod_{t<i} (2p + (n+2+t) q), so every
        # coefficient is an integer over den D_e
        p, q = Fraction(alpha).as_integer_ratio()
        form = f.poly.to_monomial()
        D = [1]
        for t in range(form.degree):
            D.append(D[-1] * (2 * p + (n + 2 + t) * q))
        w = [c * (D[-1] // d) for c, d in zip(form.num, D)]
        out = []
        for k in range(n + 1):
            acc, N = 0, 1
            for t, c in enumerate(w):
                acc += c * N
                N *= p + (k + 1 + t) * q
            out.append(acc)
        return Polynomial.from_integers(BERNSTEIN, out, form.den * D[-1])
    # a non-polynomial f: Gauss-Jacobi quadrature with weight t^alpha
    # (1-t)^alpha on [0,1]
    u, w = _gauss_jacobi(max(64, n + 2), float(alpha))
    t = (u + 1) / 2
    fv = np.asarray(f(t), dtype=float)
    basis = bernstein_basis(n, t)  # (order, n+1)
    num = (w * fv) @ basis
    den = w @ basis
    return Polynomial.bernstein(num / den)


def durrmeyer_image(n: int, f) -> Polynomial:
    """The plain Bernstein-Durrmeyer operator D_n (alpha = 0)."""
    return durrmeyer_lupas_image(n, 0, f)


def lupas_endpoint_moment(n: int, alpha, i: int):
    """D_n^<alpha>(e_i, 0) = (alpha+1)_i / (n+2 alpha+2)_i, exactly."""
    alpha = Fraction(alpha)
    return pochhammer(alpha + 1, i) / pochhammer(n + 2 * alpha + 2, i)


def lupas_moment_closed_form(n: int, alpha, i: int) -> Polynomial:
    """Closed-form images of e_0, e_1, e_2 under D_n^<alpha>, exactly; a
    float alpha is read as its exact value."""
    a = Fraction(alpha)
    if i == 0:
        return Polynomial.monomial([1])
    if i == 1:
        d = n + 2 * a + 2
        return Polynomial.monomial([(a + 1) / d, Fraction(n) / d])
    if i == 2:
        d = (n + 2 * a + 2) * (n + 2 * a + 3)
        return Polynomial.monomial(
            [(a + 1) * (a + 2) / d, 2 * n * (a + 2) / d, Fraction(n * (n - 1)) / d]
        )
    raise ValueError("closed forms implemented for i <= 2")


def lupas_derivative_identity_check(n: int, alpha, nu: int, f) -> float:
    """Max grid residual of the commutation identity

        d^nu/dx^nu D_n^<a>(f) = n!/((n-nu)! (n+2a+2)_nu) D_{n-nu}^<a+nu>(f^(nu))

    Exact; a float alpha is read as its exact value.
    """
    if not 1 <= nu <= n:
        raise ValueError("need 1 <= nu <= n")
    f, alpha = _as_handle(f), Fraction(alpha)
    if not isinstance(f, PolyFunction):
        raise TypeError("identity check requires a polynomial input")
    lhs = npoly.polyder(_monomial_array(durrmeyer_lupas_image(n, alpha, f)), nu)
    factor = math.perm(n, nu) / pochhammer(n + 2 * alpha + 2, nu)
    fder = PolyFunction(Polynomial.monomial(npoly.polyder(_monomial_array(f.poly), nu)))
    rhs = _monomial_array(durrmeyer_lupas_image(n - nu, alpha + nu, fder)) * factor
    return _max_grid_diff(Polynomial.monomial(lhs), Polynomial.monomial(rhs))


def derivative_bridge_residual(n: int, f) -> float:
    """Max grid residual of d/dx U_{n+1}(f) = D_n(f')."""
    f = _as_handle(f)
    if not isinstance(f, PolyFunction):
        raise TypeError("bridge check requires a polynomial input")
    lhs = npoly.polyder(_monomial_array(genuine_durrmeyer_image(n + 1, f)))
    fder = PolyFunction(Polynomial.monomial(npoly.polyder(_monomial_array(f.poly))))
    return _max_grid_diff(Polynomial.monomial(lhs), durrmeyer_lupas_image(n, 0, fder))


def _monomial_array(p: Polynomial) -> np.ndarray:
    """p's monomial coefficients as an object array of Fractions."""
    return np.array(p.to_monomial().coeffs, dtype=object)


def _max_grid_diff(p: Polynomial, q: Polynomial, points: int = 50) -> float:
    """max |p - q| on `points` equispaced nodes of [0,1], exactly, rounded once."""
    diff = npoly.polysub(_monomial_array(p), _monomial_array(q))
    return max(abs(float(npoly.polyval(Fraction(j, points - 1), diff))) for j in range(points))


# ----------------------------------------------------------------------
# Gavrea combination and the composite operator M_n
def gavrea_image(gen_poly: Polynomial, f) -> Polynomial:
    """H f = sum_k a_k/(k+1) U_{k+2}(f), where a_k are the monomial
    coefficients of the generating polynomial P of degree d, in Bernstein
    form of degree D = d + 2, or of degree e for a polynomial f of degree
    e < D, which its image keeps.

    Every U_n has the eigenpolynomials p_0 = 1-x and p_1 = x, with
    eigenvalue 1, and p_j = x(1-x) P^(1,1)_{j-2}(2x-1), with eigenvalue
    lambda_{n,j} = n!(n-1)!/((n+j-1)!(n-j)!), which is 0 for j > n.  For
    every f, U_n f = sum_j lambda_{n,j} c_j p_j, since U_n g for
    g = f - c_0 p_0 - c_1 p_1, which vanishes at 0 and 1, is a finite sum
    over its kernel's p_j.  So H f = sum_{j <= e} Lambda_j c_j p_j, where

    * Lambda_j = sum_k a_k/(k+1) lambda_{k+2,j} are H's eigenvalues,
      formed once per generator (``_eigenvalues``);
    * c_0 = f(0), c_1 = f(1), and c_j for j >= 2 is the projection of g on
      P^(1,1)_{j-2}(2x-1), orthogonal for the weight x(1-x) with
      int_0^1 x(1-x) P^(1,1)_m(2x-1)^2 = (m+1)/((2m+3)(m+2)), so, with
      int_0^1 x P^(1,1)_m(2x-1) = 1/(m+2) and
      int_0^1 (1-x) P^(1,1)_m(2x-1) = (-1)^m/(m+2),
      c_j = (2j-1) j/(j-1) int g P^(1,1)_{j-2}(2x-1)
          = (2j-1)/(j-1) (j int f P^(1,1)_{j-2}(2x-1) - (-1)^j f(0) - f(1)),
      from f's moments up to e - 2.

    f is read once at degree e - 2 (0 at least); a function that is not a
    polynomial at PRECISION_BITS + 2d + gain bits, gain the bit length of
    floor(sum_k |a_k|/(k+1)), the size of H's weights.  The sum is formed
    exactly on the reading's integers, in O(e^2) products, and each
    Bernstein coefficient is rounded once at PRECISION_BITS.
    """
    P = gen_poly.to_monomial()
    D = P.degree + 2  # the degree of the image of a general f
    f = _as_handle(f)
    # H f has f's degree; rounded at degree D it would gain noise above it
    e = min(f.poly.to_monomial().degree, D) if isinstance(f, PolyFunction) else D
    lam = _eigenvalues(P, e + 1)
    (v0, *moments, v1), Q, _ = _read_out(f, max(e - 2, 0), lam.gain)
    # H f = Lambda_0 (v0 p_0 + v1 p_1) + x(1-x) Z with
    # Z = sum_{j>=2} Lambda_j c_j P^(1,1)_{j-2}(2x-1), all over Q lam.den K
    # for K = lcm(1..e-1), which clears the j-1 of c_j
    K = math.lcm(*range(1, e))
    Z = [0] * (e - 1)
    for j, (lam_j, row) in enumerate(zip(lam.num[2:e + 1], map(_jacobi_row, range(e - 1))), 2):
        edge = v1 + v0 if j % 2 == 0 else v1 - v0  # (-1)^j f(0) + f(1)
        c = lam_j * (2 * j - 1) * (K // (j - 1)) * (j * sum(map(mul, row, moments)) - edge)
        Z[:j - 1] = map(add, Z, [c * x for x in row])
    ends = lam.num[0] * K
    num = [ends * v0, ends * (v1 - v0), *[0] * (e - 1)]
    for i, z in enumerate(Z):  # x(1-x) Z
        num[i + 1] += z
        num[i + 2] -= z
    return _rounded_bernstein(num, Q * lam.den * K, e)


@lru_cache(maxsize=512)
def _jacobi_row(m: int) -> tuple:
    """``shifted_jacobi(m, 1, 1)``, formed once and shared by every image."""
    return tuple(shifted_jacobi(m, 1, 1))


class _Eigenvalues:
    """H's eigenvalues Lambda_j = num[j]/den, j < len(num), for one
    generator P = sum_k a_k x^k of degree d, and the bit length ``gain`` of
    floor(sum_k |a_k|/(k+1))."""

    def __init__(self, gain: int, num: list, den: int):
        self.gain, self.num, self.den = gain, num, den


@lru_cache(maxsize=64)
def _eigen_store(P: Polynomial) -> _Eigenvalues:
    """The per-generator store of ``_eigenvalues``, without eigenvalues."""
    L = math.lcm(*range(1, P.degree + 2))
    gain = sum(abs(x) * (L // (k + 1)) for k, x in enumerate(P.num)) // (L * P.den)
    return _Eigenvalues(gain.bit_length(), [], 1)


def _eigenvalues(P: Polynomial, count: int) -> _Eigenvalues:
    """H's eigenvalues Lambda_j, j < count at least, for a monomial P, over
    one denominator A L (P's A, L = lcm(1..d+count)): Lambda_0 =
    Lambda_1 = int P = sum_k a_k/(k+1), and for j = m + 2
    Lambda_j = sum_k a_k/(k+1) lambda_{k+2,j}
             = sum_{k >= m} a_k k!(k+2)!/((k-m)!(k+m+3)!).
    Each weight is int t^(k+2) P^(0,2)_m(2t-1) dt, a sum of integers over
    k+i+3 <= d+count, so L times it is an integer: L/(k+3) at m = 0, then
    times (k-m)/(k+m+4), an exact division.  Formed again only for a count
    larger than any before on this generator."""
    store = _eigen_store(P)
    if len(store.num) < count:
        d, a = P.degree, P.num
        L = math.lcm(*range(1, d + max(count, 2) + 1))
        lam = [sum(x * (L // (k + 1)) for k, x in enumerate(a))] * 2
        w = [L // (k + 3) for k in range(d + 1)]  # the weights times L for k >= m
        for m in range(count - 2):
            lam.append(sum(map(mul, a[m:], w)))
            w = [x * (k - m) // (k + m + 4) for k, x in enumerate(w[1:], m + 1)]
        store.num, store.den = lam, P.den * L
    return store


def _rounded_bernstein(num: list, den: int, e: int) -> Polynomial:
    """sum_i num[i]/den x^i, of degree at most e, as its degree-e Bernstein
    form, each coefficient rounded once."""
    return _bernstein(bernstein_integers(num[:e + 1]), den * math.factorial(e), False)


class MnResult(NamedTuple):
    poly: Polynomial
    q: int
    n: int
    r: int
    used_fallback: bool
    alpha_n: object  # second-moment gap; None if the small-n gate fired first
    generator: GeneratorPoly | None


def mn_image(q: int, n: int, f) -> MnResult:
    """The composite operator of degree <= n preserving k-monotonicity for
    all k <= q.

    With r = max(q-1, 1): for n-2 > 8r build the generating polynomial of
    degree <= n-2 and apply the combination when its second-moment gap
    alpha_n <= 1/4; otherwise (small n, or gap too large) fall back to the
    endpoint linear interpolant of f(0) and f(1) as ``_read_out`` gives
    them, rounded once unless exact, as H's images are.  A handle without
    moments of its own (a plain callable) is sampled at its two ends alone:
    the base ``moment_read`` gives those float64 values, and its
    interpolant would be formed only to be dropped.
    """
    if q < 0 or n < 1:
        raise RegimeError("need q >= 0, n >= 1")
    r = max(q - 1, 1)
    gen = alpha_n = None
    if n - 2 > 8 * r:
        gen = build_generator(n - 2, r)
        alpha_n = gen.moment_deficiency[2]
        if alpha_n <= 0.25:
            return MnResult(gavrea_image(gen.P, f), q, n, r, False, alpha_n, gen)
    f = _as_handle(f)
    if type(f).moment_read is FunctionHandle.moment_read:
        poly = Polynomial.bernstein(np.asarray(f(np.array([0.0, 1.0])), dtype=float))
    else:
        (v0, _, v1), den, exact = _read_out(f, 0)
        poly = _bernstein([v0, v1], den, exact)
    return MnResult(poly, q, n, r, True, alpha_n, gen)
