"""Chebyshev polynomials, the clipped factor tau_m, and ultraspherical
polynomials on [0,1] with their Bernstein expansion."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import PrecisionError
from .polynomial import MONOMIAL, Polynomial, _dyadic, _round_div, _round_value

TAU_REMAINDER_REL_TOL = Fraction(1e-20)  # the double nearest 1e-20, exactly


def pochhammer(beta, k: int) -> Fraction:
    """Rising factorial (beta)_k = beta (beta+1) ... (beta+k-1), (beta)_0 = 1,
    exactly; a float beta is read as its exact value."""
    if k < 0:
        raise ValueError("k must be >= 0")
    acc, beta = Fraction(1), Fraction(beta)
    for i in range(k):
        acc = acc * (beta + i)
    return acc


@lru_cache(maxsize=256)
def chebyshev_T(m: int) -> Polynomial:
    """T_m in the monomial basis with exact integer coefficients, in O(m)
    steps from the closed form c_(m-2k) = (-1)^k 2^(m-2k-1) m/(m-k)
    C(m-k,k) (T_0 = 1): c_m = 2^(m-1), and each next coefficient is
    c_(m-2k-2) = -c_(m-2k) (m-2k)(m-2k-1)/(4(k+1)(m-k-1)), an exact
    division."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Polynomial.from_integers(MONOMIAL, [1])
    c = [0] * (m + 1)
    c[m] = 1 << (m - 1)
    for k in range(m // 2):
        j = m - 2 * k
        c[j - 2] = -c[j] * j * (j - 1) // (4 * (k + 1) * (m - k - 1))
    return Polynomial.from_integers(MONOMIAL, c)


class TauPoly(NamedTuple):
    """T_m divided synthetically by (x - x_tilde) and scaled by |I_1|.

    Native variable lives on [-1,1]; x_tilde = cos(pi/2m) is the rightmost
    zero of T_m, and I_1 = [cos(pi/m), 1], from T_m's rightmost local
    minimum, with |I_1| = 2 sin^2(pi/2m). Every field is an exact dyadic
    rational.
    """

    m: int
    poly: Polynomial  # degree m-1, monomial, over one power of two
    x_tilde: Fraction
    len_I1: Fraction
    division_remainder: Fraction


def _atan(z: int, w: int, hyperbolic: bool = False) -> int:
    """atan(z 2^-w) 2^w, or atanh, for |z| <= 2^w/3, by its Taylor series
    summed in w-bit fixed point: within one unit per term, about w/3 units."""
    total, power, z2, k = 0, abs(z), z * z >> w, 1
    while power:
        total += power // k if hyperbolic or k & 2 == 0 else -(power // k)
        power, k = power * z2 >> w, k + 2
    return total if z >= 0 else -total


def _log_fixed(v: Fraction, w: int) -> int:
    """ln v 2^w for a rational v > 0, in w-bit fixed point, within
    (|t| + 1)(w + 8) units for the t below: ln v = t ln 2 + 2 atanh(z),
    z = (y-1)/(y+1) for y = v 2^-t in (1/2, 2), with ln 2 = 2 atanh(1/3),
    each atanh by ``_atan``."""
    t = v.numerator.bit_length() - v.denominator.bit_length()
    a, b = (v.numerator, v.denominator << t) if t >= 0 else (v.numerator << -t, v.denominator)
    z = ((a - b) << w) // (a + b)
    return 2 * t * _atan((1 << w) // 3, w, True) + 2 * _atan(z, w, True)


def _log(v: Fraction) -> float:
    """ln v for a rational v > 0, within about 2^-120, rounded once to a
    float: ``_log_fixed`` at 128 bits, correctly rounded unless |ln v| is
    below about 2^-60 or that close to a tie."""
    return float(Fraction(_log_fixed(v, 128), 1 << 128))


def tau(m: int, prec_bits: int) -> TauPoly:
    """tau_m in integers, with the roundings of an mpf evaluation at
    ``prec_bits`` bits, each to nearest with ties to even: pi, theta =
    pi/2m, cos theta, sin theta, sin^2 theta, each product and sum of the
    synthetic division and each quotient coefficient times |I_1|. Each value
    is held as c 2^e; pi, sin and cos are summed in fixed point with 64
    guard bits (sin by its Taylor series, cos = sqrt(1 - sin^2)) and then
    rounded.

    PrecisionError when the division's remainder exceeds
    TAU_REMAINDER_REL_TOL relative to T_m's largest coefficient, or when
    tau(1) (1 - x_tilde), which T_m(1) = 1 makes |I_1| (1 - remainder), is
    off |I_1| by more than that relative: the division amplifies rounding
    by up to (1 + sqrt 2)^m, so too few bits lose tau(1) while the
    remainder stays small. Both checks are exact integer
    cross-multiplications against TAU_REMAINDER_REL_TOL's ratio."""
    if m < 2:
        raise ValueError("tau requires m >= 2")

    def rnd(v: int, e: int) -> tuple[int, int]:  # v 2^e rounded to prec_bits bits
        shift = max(v.bit_length() - prec_bits, 0)
        return (_round_div(v, 1, shift) if shift else v), e + shift

    w = prec_bits + 64  # pi by Machin's formula 16 atan(1/5) - 4 atan(1/239)
    pi, e_pi = rnd(16 * _atan((1 << w) // 5, w) - 4 * _atan((1 << w) // 239, w), -w)
    t, e_t = _round_value(pi, 2 * m, prec_bits)  # theta = t 2^(e_t + e_pi)
    x = t << (w + e_t + e_pi)  # theta 2^w, exactly
    x2, sin, term, k = x * x >> w, x, x, 0
    while term:
        k += 2
        term = (term * x2 >> w) // (k * (k + 1))
        sin += -term if k & 2 else term
    x_tilde = rnd(isqrt((1 << 2 * w) - sin * sin), -w)  # cos theta
    s, e_s = rnd(sin, -w)
    c, e_c = rnd(s * s, 2 * e_s)
    len_i1 = (c, e_c + 1)  # 2 sin^2 theta
    a = chebyshev_T(m).num  # ascending; integers
    # synthetic division by (x - x_tilde), descending order
    q, carry = [None] * m, (a[m], 0)  # quotient, ascending degrees 0..m-1
    for k in range(m - 1, -1, -1):
        q[k] = carry
        p, e = rnd(carry[0] * x_tilde[0], carry[1] + x_tilde[1])  # x_tilde * carry
        low = min(e, 0)
        carry = rnd((a[k] << -low) + (p << (e - low)), low)  # a[k] + that
    # |remainder| against TOL = a_tol/b_tol times T_m's largest coefficient
    a_tol, b_tol = TAU_REMAINDER_REL_TOL.as_integer_ratio()
    (rem, e_rem), scale = carry, max(map(abs, a))
    if abs(rem) * b_tol << max(e_rem, 0) > a_tol * scale << max(-e_rem, 0):
        raise PrecisionError(
            f"tau({m}): division remainder {float(_dyadic(rem, e_rem))} too large at "
            f"{prec_bits} bits"
        )
    poly = Polynomial.from_dyadics(MONOMIAL, [rnd(v * len_i1[0], e + len_i1[1]) for v, e in q])
    # tau(1) (1 - x_tilde)/|I_1| = N/D against 1, with 1 - x_tilde = c 2^e
    # as (2^-low - c 2^(e - low)) 2^low
    low = min(x_tilde[1], 0)
    one_minus = (1 << -low) - (x_tilde[0] << (x_tilde[1] - low))
    shift = low - len_i1[1]
    N = sum(poly.num) * one_minus << max(shift, 0)
    D = poly.den * len_i1[0] << max(-shift, 0)
    if abs(N - D) * b_tol > a_tol * D:
        raise PrecisionError(f"tau({m}): tau(1) off by {abs(N - D) / D:.2g} relative at "
                             f"{prec_bits} bits")
    x_tilde, len_i1, remainder = _dyadic(*x_tilde), _dyadic(*len_i1), _dyadic(rem, e_rem)
    return TauPoly(m=m, poly=poly, x_tilde=x_tilde, len_I1=len_i1, division_remainder=remainder)


def ultraspherical_phi(n: int, alpha) -> Polynomial:
    """Shifted ultraspherical polynomial phi_n^(alpha) on [0,1], normalized so
    phi_n(1) = 1, built exactly by the three-term recurrence; a float alpha
    is read as its exact value.
    """
    if alpha <= -1:
        raise ValueError("alpha must be > -1")
    alpha = Fraction(alpha)
    lin = np.array([Fraction(-1), Fraction(2)], dtype=object)  # 2x - 1
    prev2, prev1 = np.array([Fraction(1)], dtype=object), lin
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
    """(2 alpha + n + 1)_n / (alpha + 1)_n, exactly."""
    alpha = Fraction(alpha)
    return pochhammer(2 * alpha + n + 1, n) / pochhammer(alpha + 1, n)


def phi_bernstein_expansion(n: int, alpha) -> Polynomial:
    """phi_n^(alpha) as an explicit Bernstein-form polynomial, exactly."""
    if alpha <= -1:
        raise ValueError("alpha must be > -1")
    alpha = Fraction(alpha)
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

    Exposed as a test utility; exact, with a float alpha, x or t read as
    its exact value.
    """
    alpha, x, t = Fraction(alpha), Fraction(x), Fraction(t)
    if x + t == 1:
        raise ValueError("requires t != 1 - x")
    phi = ultraspherical_phi(n, alpha)
    z = (x * t) / (x + t - 1)
    lhs = (x + t - 1) ** n * phi(z)
    rhs = Fraction(0)
    top = pochhammer(alpha + 1, n)
    for k in range(n + 1):
        denom = comb(n, k) * pochhammer(alpha + 1, k) * pochhammer(alpha + 1, n - k)
        rhs += _bern_value(n, k, x) * _bern_value(n, k, t) / denom
    rhs = top * rhs
    return abs(lhs - rhs)
