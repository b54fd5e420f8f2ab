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
PRECISION_BITS.  H maps a polynomial
of degree at most about half P's through the eigenpolynomials that every U_n
shares, in O(e d) instead of the O(d^2) of the general sum, to the same
exact value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, mul

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RegimeError
from .functions import FunctionHandle, PolyFunction
from .generator import PRECISION_BITS, GeneratorPoly, build_generator
from .polynomial import (BERNSTEIN, IntegerForm, Polynomial, _monomial_integers, _round_to_bits,
                         bernstein_basis, bernstein_integers)
from .special import pochhammer, shifted_jacobi


class _CallbackHandle(FunctionHandle):
    """Adapter for plain callables: float/array evaluation only."""

    def __init__(self, fn):
        self.fn = fn
        self.name = getattr(fn, "__name__", "callback")

    def __call__(self, x):
        if isinstance(x, Fraction):
            return self.fn(float(x))
        return self.fn(x)


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
    """B_n(f): Bernstein form with coefficients f(k/n)."""
    if n < 1:
        raise RegimeError("n must be >= 1")
    f = _as_handle(f)
    vals = [f(Fraction(k, n)) for k in range(n + 1)]
    return Polynomial.bernstein(vals)


# ----------------------------------------------------------------------
# the one read-out of f
@dataclass(frozen=True)
class _Reading:
    """f(0), m_0, ..., m_d, f(1) as integers over one denominator, where
    m_i = int_0^1 t^i f(t) dt; ``exact`` says whether they are f's exact
    values (otherwise images built from them are rounded once).  A function
    with exact moments is taken to give exact values at 0 and 1, even as
    floats (x^eps does)."""

    num: list
    den: int
    exact: bool


def _read_out(f, d: int, gain: int = 0) -> _Reading:
    """Read f once at degree d: f(0), m_0..m_d and f(1) over one
    denominator (``FunctionHandle.moment_read``), at bits = PRECISION_BITS
    plus 2d, plus ``gain`` for a caller whose weights sum to 2^gain in size.
    The images rebuild g_{i,j} = int t^i (1-t)^j f from them by the triangle
    g_{i,j+1} = g_{i,j} - g_{i+1,j}, which multiplies moment errors by less
    than 3^d; a plain callable is read through the exact moments of its
    Chebyshev interpolant.
    """
    f = _as_handle(f)
    num, den = f.moment_read(d, PRECISION_BITS + 2 * d + gain)
    return _Reading(num, den, f.exact_moments)


def _bernstein_moments(r: _Reading) -> list:
    """b_i = int_0^1 p_{d,i} f = C(d,i) g_{i,d-i}, over r.den, from the
    moments of a reading by the triangle g_{i,j+1} = g_{i,j} - g_{i+1,j}."""
    row = r.num[1:-1]
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
    parts = [_round_to_bits([v], den, PRECISION_BITS) for v in num]  # c 2^e each
    return Polynomial.from_dyadics(BERNSTEIN, [(c, e) for (c,), e in parts])


# ----------------------------------------------------------------------
# genuine Bernstein-Durrmeyer operator U_n
def genuine_durrmeyer_image(n: int, f) -> Polynomial:
    """U_n(f) as a Bernstein-form polynomial of degree n.

    Coefficients: c_0 = f(0), c_n = f(1),
    c_k = (n-1) int_0^1 p_{n-2,k-1}(t) f(t) dt for 0 < k < n.
    """
    if n < 2:
        raise RegimeError("U_n requires n >= 2")
    r = _read_out(f, n - 2)
    num = [r.num[0], *((n - 1) * v for v in _bernstein_moments(r)), r.num[-1]]
    return _bernstein(num, r.den, r.exact)


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
    Christoffel numbers 1/sum_k p_k(u)^2 (Golub & Welsch, Math. Comp. 1969)."""
    k = np.arange(2, order, dtype=float)
    # b_1 apart: the general form is 0/0 at alpha = -1/2
    b = np.concatenate([[math.sqrt(1 / (3 + 2 * alpha))], np.sqrt(
        k * (k + 2 * alpha) / ((2 * k + 2 * alpha + 1) * (2 * k + 2 * alpha - 1)))])
    u = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
    prev, cur, total = np.zeros(order), np.ones(order), np.ones(order)
    for bk, bk1 in zip(np.concatenate([[0.0], b[:-1]]), b):
        prev, cur = cur, (u * cur - bk * prev) / bk1
        total += cur * cur
    return u, 1 / total


def durrmeyer_lupas_image(n: int, alpha, f) -> Polynomial:
    """D_n^<alpha>(f) in Bernstein form; coefficients <p_{n,k},f>/<p_{n,k},1>
    against the weight t^alpha (1-t)^alpha."""
    if not math.isfinite(alpha):
        raise RegimeError(f"alpha must be finite, not {alpha}")
    if alpha <= -1:
        raise RegimeError("alpha must be > -1")
    if n < 0:
        raise RegimeError("n must be >= 0")
    if alpha == 0:  # <p_{n,k},1> = 1/(n+1)
        r = _read_out(f, n)
        num = [(n + 1) * v for v in _bernstein_moments(r)]
        return _bernstein(num, r.den, r.exact)
    f = _as_handle(f)
    exact_alpha = isinstance(alpha, (int, Fraction))
    if isinstance(f, PolyFunction) and exact_alpha:
        # exact route: the image of e_i has coefficients (alpha+k+1)_i /
        # (n+2 alpha+2)_i; for alpha = p/q that is N_{k,i}/D_i with the
        # integers N_{k,i} = prod_{t<i} (p + (k+1+t) q) and D_i = prod_{t<i}
        # (2p + (n+2+t) q), so every coefficient is an integer over den D_e
        p, q = Fraction(alpha).as_integer_ratio()
        form = f.poly.integer_form
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
    # Gauss-Jacobi quadrature with weight t^alpha (1-t)^alpha on [0,1]
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
    """sum_k a_k/(k+1) U_{k+2}(f), where a_k are the monomial coefficients of
    the generating polynomial, of degree d, in Bernstein form of degree d+2,
    or of degree e for a polynomial f of degree e < d+2, which its image
    keeps.

    The weights a_k/(k+1) are huge and alternate in sign while the result is
    O(||f||), so the sum is formed exactly, reduced to degree e for a
    polynomial f, and each Bernstein coefficient is rounded once at
    PRECISION_BITS.  Two routes give the same exact sum:

    * a polynomial f of degree e with 2e <= d + 2 goes through the
      eigenbasis that all U_n share (``_eigenbasis_sum``): e + 1 eigenvalues
      of the combination, from e + 1 moments of P, in O(e d) products;
    * any other f (catalog functions, callables, polynomials of higher
      degree) is read once at degree d.  With g_{i,j} = int t^i (1-t)^j f,
      U_{k+2}(f) has Bernstein coefficients f(0),
      (k+1) b^(k)_i = (k+1) C(k,i) g_{i,k-i} and f(1).  The antidiagonals
      i+j = k are built upwards from the read-out's moments g_{k,0} while
      the images, written in the basis x^j (1-x)^(k+2-j), are summed by
      degree elevation, in O(d^2) products, with C(k,.) and C(k+2,.)
      carried as rows of Pascal's triangle.  The sum runs on P's numerators
      divided by their content, a'_k, over A Q M for P's denominator A, the
      reading's Q and the least M that makes every a'_k M/(k+1) an integer
      (a few bits for the built generators); the content multiplies the
      d+3 results.  These O(d) integers depend on P alone, so they are
      formed once per generator (``_h_weights``) and shared by every f
      sent through it.

    For e near d the eigenbasis costs more than the loop it replaces (at
    d = 253, e = 189 it took 309 ms against 227 ms on a 2-vCPU x86-64
    machine), so the route is chosen by e and d alone.
    """
    form = gen_poly.integer_form
    D = form.degree + 2  # the degree of the image of a general f
    f = _as_handle(f)
    # H f has f's degree; rounded at degree D it would gain noise above it
    e = min(f.poly.integer_form.degree, D) if isinstance(f, PolyFunction) else D
    if 2 * e <= D:
        return _rounded_bernstein(*_eigenbasis_sum(form, f.poly.integer_form), e)
    h = _h_weights(form)
    r = _read_out(f, form.degree, h.gain)
    v0, *moments, v1 = r.num  # over Q = r.den
    # everything below is over Z = A Q M / content
    acc, row = [0, 0], []
    pascal = [[1], [1, 1], [1, 2, 1]]  # rows k, k+1 and k+2
    for k, (alpha, ends) in enumerate(zip(h.alpha, h.ends)):
        new = [moments[k]]
        for x in reversed(row):  # g_{i,k-i} = g_{i,k-1-i} - g_{i+1,k-1-i}
            new.append(x - new[-1])
        row = new[::-1]
        term = [ends * v0]
        # C(k+2, i+1) C(k, i) g_{i,k-i}
        term += [alpha * (c2 * c0 * g) for c2, c0, g in zip(pascal[2][1:], pascal[0], row)]
        term.append(ends * v1)
        acc = [x + y + t for x, y, t in zip([0] + acc, acc + [0], term)]
        top = pascal[2]
        pascal = [pascal[1], top, [1, *map(add, top, top[1:]), 1]]
    # sum_j acc_j x^j (1-x)^(D-j) = sum_j acc_j j! (D-j)!/D! p_{D,j}, times the content
    bern = list(map(mul, h.scale, acc))
    if e < D:
        return _rounded_bernstein(_monomial_integers(bern), h.den * r.den, e)
    return _bernstein(bern, h.den * r.den, False)


@dataclass(frozen=True)
class _HWeights:
    """What H's loop takes from P = sum_k num_k/A x^k of degree d = D - 2
    alone, with content the gcd of the num_k, a'_k = num_k/content and M
    the least integer that makes every a'_k M/(k+1) one: the weights
    a'_k M, the end weights a'_k M/(k+1), the bit length of
    floor(sum_k |a_k|/(k+1)), the scales content j!(D-j)! and the
    denominator A M D!.  O(d) integers."""

    alpha: tuple
    ends: tuple
    gain: int
    scale: tuple
    den: int


@lru_cache(maxsize=16)
def _h_weights(form: IntegerForm) -> _HWeights:
    """``_HWeights`` of P's integer form, formed once per generator."""
    A, D = form.den, form.degree + 2
    content = math.gcd(*form.num) or 1  # 1 for the zero P
    a = [x // content for x in form.num]
    M = math.lcm(*((k + 1) // math.gcd(k + 1, x) for k, x in enumerate(a)))  # (k+1) | a'_k M
    alpha = tuple(x * M for x in a)
    ends = tuple(x // (k + 1) for k, x in enumerate(alpha))
    gain = content * sum(map(abs, ends)) // (A * M)
    fact = list(accumulate(range(1, D + 1), mul, initial=1))
    scale = tuple(content * fact[j] * fact[D - j] for j in range(D + 1))
    return _HWeights(alpha, ends, gain.bit_length(), scale, A * M * fact[D])


@lru_cache(maxsize=16)
def _moment_store(form: IntegerForm) -> list:
    """The per-generator store of ``_eigen_moments``: [S, s], or empty."""
    return []


def _eigen_moments(form: IntegerForm, count: int) -> tuple[list, int]:
    """P's moments int x^mu P = S_mu/s for mu < count at least, over one
    denominator.  They are formed again only for a count larger than any
    asked for before on this generator, so a batch that starts with its
    largest degree forms them once; moments of a smaller count are the
    same rationals over a smaller denominator.  Forming them up to (d+2)/2
    on first use would cost a low degree a hundredfold at d = 509
    (``mn_image(2, 1026, x^3)`` with P built: 0.41 s against 4.5 ms on a
    2-vCPU x86-64 machine)."""
    store = _moment_store(form)
    if not store or len(store[0]) < count:
        store[:] = form.moments(count)
    return store[0], store[1]


def _rounded_bernstein(num: list, den: int, e: int) -> Polynomial:
    """sum_i num[i]/den x^i, of degree at most e, as its degree-e Bernstein
    form, each coefficient rounded once."""
    num = np.array((list(num) + [0] * e)[:e + 1], dtype=object)[:, None]
    return _bernstein(bernstein_integers(num)[:, 0], den * math.factorial(e), False)


def _eigenbasis_sum(P: IntegerForm, f: IntegerForm) -> tuple[list, int]:
    """sum_k a_k/(k+1) U_{k+2}(f) for the polynomial P = sum_k a_k x^k of
    degree d and the polynomial f = sum_i F_i/D x^i of degree e, both
    exact: the monomial coefficients as integers over one denominator.

    Every U_n has the eigenpolynomials p_0 = 1-x and p_1 = x, with
    eigenvalue 1, and p_j = x(1-x) P^(1,1)_{j-2}(2x-1), with eigenvalue
    lambda_{n,j} = n!(n-1)!/((n+j-1)!(n-j)!), which is 0 for j > n.  So
    with f = sum_j c_j p_j the sum is sum_j Lambda_j c_j p_j, where

    * Lambda_0 = Lambda_1 = int P, and Lambda_j = sum_k a_k/(k+1)
      lambda_{k+2,j} = int t^2 P(t) P^(0,2)_{j-2}(2t-1) dt, from P's
      moments S_mu/s, mu <= e, kept per generator (``_eigen_moments``);
    * c_0 = f(0), c_1 = f(1), and c_j for j >= 2 is the projection of
      g = f - c_0 p_0 - c_1 p_1, which vanishes at 0 and 1, on
      P^(1,1)_{j-2}(2x-1), orthogonal for the weight x(1-x) with
      int_0^1 x(1-x) P^(1,1)_m(2x-1)^2 = (m+1)/((2m+3)(m+2)), so
      c_j = (2j-1) j/(j-1) int g(x) P^(1,1)_{j-2}(2x-1) dx, from g's
      moments G_l/t, l <= e - 2.
    """
    F, D, e = f.num, f.den, f.degree
    S, s = _eigen_moments(P, e + 1)  # int x^mu P = S_mu/s, mu <= e at least
    G, t = IntegerForm((0, -sum(F[2:]), *F[2:]), D).moments(e - 1)  # int x^l g = G_l/t
    # H f = Lambda_0 (c_0 p_0 + c_1 p_1) + x(1-x) Z with
    # Z = sum_{j>=2} Lambda_j c_j P^(1,1)_{j-2}(2x-1), all over s t K for
    # K = lcm(1..e-1), which clears the j-1 of c_j
    K = math.lcm(*range(1, e))
    Z = [0] * (e - 1)
    for j in range(2, e + 1):
        lam = sum(map(mul, shifted_jacobi(j - 2, 0, 2), S[2:]))
        jac = shifted_jacobi(j - 2, 1, 1)
        c = lam * sum(map(mul, jac, G)) * (2 * j - 1) * j * (K // (j - 1))
        for i, x in enumerate(jac):
            Z[i] += c * x
    ends = S[0] * (t // D) * K
    num = [ends * F[0], ends * (sum(F) - F[0]), *[0] * (e - 1)]
    for i, z in enumerate(Z):  # x(1-x) Z
        num[i + 1] += z
        num[i + 2] -= z
    return num, s * t * K


@dataclass(frozen=True)
class MnResult:
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
    endpoint linear interpolant.
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
    ends = Polynomial.bernstein([f(Fraction(0)), f(Fraction(1))])
    return MnResult(ends, q, n, r, True, alpha_n, gen)
