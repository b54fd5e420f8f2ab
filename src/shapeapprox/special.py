"""Chebyshev polynomials, the clipped factor tau_m, and ultraspherical
polynomials on [0,1] with their Bernstein expansion."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
from mpmath import mpf
from mpmath.libmp import from_rational, round_nearest
from numpy.polynomial import polynomial as npoly

from .errors import PrecisionError
from .polynomial import Polynomial

TAU_REMAINDER_REL_TOL = mpmath.mpf("1e-20")


def _to_mpf(v):
    """v as an mpf at the ambient precision; a Fraction is rounded once."""
    if isinstance(v, mpf):
        return v
    if isinstance(v, Fraction):
        return mpmath.mp.make_mpf(from_rational(*v.as_integer_ratio(), mpmath.mp.prec, round_nearest))
    return mpmath.mpf(v)


def pochhammer(beta, k: int):
    """Rising factorial (beta)_k = beta (beta+1) ... (beta+k-1), (beta)_0 = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = Fraction(1) if isinstance(beta, (int, Fraction)) else mpmath.mpf(1)
    for i in range(k):
        acc = acc * (beta + i)
    return acc


@lru_cache(maxsize=256)
def chebyshev_T(m: int) -> Polynomial:
    """T_m in the monomial basis with exact integer coefficients."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Polynomial.monomial([1])
    if m == 1:
        return Polynomial.monomial([0, 1])
    tm2 = [1]
    tm1 = [0, 1]
    for _ in range(2, m + 1):
        nxt = [0] + [2 * c for c in tm1]
        for i, c in enumerate(tm2):
            nxt[i] -= c
        tm2, tm1 = tm1, nxt
    return Polynomial.monomial(tm1)


@dataclass(frozen=True)
class TauPoly:
    """T_m divided synthetically by (x - x_tilde) and scaled by |I_1|.

    Native variable lives on [-1,1]; x_tilde = cos(pi/2m) is the rightmost
    zero of T_m, and I_1 = [cos(pi/m), 1], from T_m's rightmost local
    minimum, with |I_1| = 2 sin^2(pi/2m).
    """

    m: int
    poly: Polynomial  # degree m-1, monomial: the exact values of its mpf coefficients
    x_tilde: mpf
    len_I1: mpf
    division_remainder: mpf


def tau(m: int, prec_bits: int = 256) -> TauPoly:
    if m < 2:
        raise ValueError("tau requires m >= 2")
    with mpmath.workprec(prec_bits):
        x_tilde = mpmath.cos(mpmath.pi / (2 * m))
        len_i1 = 2 * mpmath.sin(mpmath.pi / (2 * m)) ** 2
        a = [_to_mpf(c) for c in chebyshev_T(m).coeffs]  # ascending
        # synthetic division by (x - x_tilde), descending order
        q = [mpmath.mpf(0)] * m  # quotient, ascending degrees 0..m-1
        carry = a[m]
        for k in range(m - 1, -1, -1):
            q[k] = carry
            carry = a[k] + x_tilde * carry
        remainder = carry
        scale = max(abs(c) for c in a)
        if abs(remainder) > TAU_REMAINDER_REL_TOL * scale:
            raise PrecisionError(
                f"tau({m}): division remainder {remainder} too large at "
                f"{prec_bits} bits"
            )
        poly = Polynomial.monomial([c * len_i1 for c in q])
    return TauPoly(
        m=m,
        poly=poly,
        x_tilde=x_tilde,
        len_I1=len_i1,
        division_remainder=remainder,
    )


def ultraspherical_phi(n: int, alpha) -> Polynomial:
    """Shifted ultraspherical polynomial phi_n^(alpha) on [0,1], normalized so
    phi_n(1) = 1, built by the three-term recurrence.

    Exact when alpha is int/Fraction; mpf otherwise.
    """
    if alpha <= -1:
        raise ValueError("alpha must be > -1")
    exact = isinstance(alpha, (int, Fraction))
    alpha = Fraction(alpha) if exact else _to_mpf(alpha)
    one = Fraction(1) if exact else mpmath.mpf(1)
    lin = np.array([-one, 2 * one], dtype=object)  # 2x - 1
    prev2, prev1 = np.array([one], dtype=object), lin
    for j in range(2, n + 1):
        num = npoly.polysub(npoly.polymul(lin, prev1) * (2 * j + 2 * alpha - 1), prev2 * (j - 1))
        prev2, prev1 = prev1, num * (1 / (j + 2 * alpha))
    return Polynomial.monomial(prev1 if n else prev2)


def shifted_jacobi(m: int, a: int, b: int) -> list[int]:
    """The integer monomial coefficients c_0..c_m of P_m^(a,b)(2x-1), for
    integers a, b >= 0, from the hypergeometric form
    (-1)^m C(m+b,m) 2F1(-m, m+a+b+1; b+1; x): c_0 = (-1)^m C(m+b,m) and
    c_{i+1} = -c_i (m-i)(m+a+b+1+i) / ((i+1)(b+1+i)), an exact division."""
    c = [(-1) ** m * comb(m + b, m)]
    for i in range(m):
        c.append(-c[-1] * (m - i) * (m + a + b + 1 + i) // ((i + 1) * (b + 1 + i)))
    return c


def phi_leading_coefficient(n: int, alpha):
    """(2 alpha + n + 1)_n / (alpha + 1)_n."""
    return pochhammer(2 * alpha + n + 1, n) / pochhammer(alpha + 1, n)


def phi_bernstein_expansion(n: int, alpha) -> Polynomial:
    """phi_n^(alpha) as an explicit Bernstein-form polynomial."""
    if alpha <= -1:
        raise ValueError("alpha must be > -1")
    exact = isinstance(alpha, (int, Fraction))
    if exact:
        alpha = Fraction(alpha)
    else:
        alpha = _to_mpf(alpha)
    top = pochhammer(alpha + 1, n)
    coeffs = []
    for k in range(n + 1):
        denom = pochhammer(alpha + 1, k) * pochhammer(alpha + 1, n - k)
        coeffs.append(top * (-1) ** (n - k) / denom)
    return Polynomial.bernstein(coeffs)


def _bern_value(n: int, k: int, x):
    return comb(n, k) * x**k * (1 - x) ** (n - k)


def lupas_product_identity_check(n: int, alpha, x, t):
    """|LHS - RHS| of the corrected product identity

        (x+t-1)^n phi_n((xt)/(x+t-1))
          = (alpha+1)_n sum_k p_{n,k}(x) p_{n,k}(t) / (C(n,k)(alpha+1)_k (alpha+1)_{n-k})

    Exposed as a test utility; exact for rational inputs, and in mpf at the
    ambient precision for a float alpha.
    """
    if x + t == 1:
        raise ValueError("requires t != 1 - x")
    if not isinstance(alpha, (int, Fraction)):  # phi has mpf coefficients
        x, t = _to_mpf(x), _to_mpf(t)
    if n == 0:
        return 0 * (x + t)
    phi = ultraspherical_phi(n, alpha)
    z = (x * t) / (x + t - 1)
    lhs = (x + t - 1) ** n * phi(z)
    rhs = 0 * lhs
    top = pochhammer(alpha + 1, n)
    for k in range(n + 1):
        denom = comb(n, k) * pochhammer(alpha + 1, k) * pochhammer(alpha + 1, n - k)
        rhs += _bern_value(n, k, x) * _bern_value(n, k, t) / denom
    rhs = top * rhs
    return abs(lhs - rhs)
