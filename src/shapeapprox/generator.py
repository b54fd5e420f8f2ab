"""Construction of the generating polynomial P_n with nonnegative derivatives
up to order r, unit integral, and O(n^-2) moment deficiency.

P = lambda (r-1)! int^r Q with Q = tau^(4r) is built in Python integers after
tau: tau's mpf coefficients are read exactly over one power of two, Q is
raised by repeated squaring with each product made by Kronecker substitution
(one big-integer multiply) and rounded to ``precision_bits`` bits of its
largest coefficient, lambda and the r-fold antiderivative are exact, and P
is rounded once onto one power-of-two denominator that keeps
``precision_bits`` bits of its largest coefficient."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp

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
    # bits of P's largest coefficient; all coefficients share one
    # power-of-two denominator
    precision_bits: int
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


def _dyadic(coeffs) -> tuple[list, int]:
    """Exact values of finite mpf coefficients as integers over one power of
    two: coeffs[j] = c[j] 2^e."""
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in (c._mpf_ for c in coeffs)]
    e = min(exp for man, exp in parts if man)
    return [man << (exp - e) for man, exp in parts], e


def _pack(c: list, w: int) -> int:
    """sum_j c[j] 2^(8wj) for integers |c[j]| < 2^(8w)."""
    pos = b"".join(max(v, 0).to_bytes(w, "little") for v in c)
    neg = b"".join(max(-v, 0).to_bytes(w, "little") for v in c)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_mul(a: list, b: list) -> list:
    """Coefficients of the product of two integer polynomials (ascending), by
    Kronecker substitution: pack each at x = 2^B, multiply once, and read the
    product's B-bit slots back from its two's-complement bytes. A slot read
    as signed is the coefficient minus the borrow its lower neighbour took,
    which is that neighbour's top bit. B leaves two bits above the largest
    product coefficient, so the reading is unique."""
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    w = (bound.bit_length() + 9) // 8  # bytes per slot
    x = _pack(a, w)
    y = x if b is a else _pack(b, w)
    size = (len(a) + len(b) - 1) * w
    data = (x * y).to_bytes(size, "little", signed=True)
    out, borrow = [], 0
    for i in range(0, size, w):
        out.append(int.from_bytes(data[i:i + w], "little", signed=True) + borrow)
        borrow = data[i + w - 1] >> 7
    return out


def _round_div(x: int, den: int, e: int) -> int:
    """The integer nearest x / (den 2^e), for den > 0 (ties up)."""
    if e >= 0:
        den <<= e
    else:
        x <<= -e
    return (2 * x + den) // (2 * den)


def _round_to_bits(num: list, den: int, bits: int) -> tuple[list, int]:
    """The values num[j]/den, den > 0, rounded to the nearest multiples of the
    one power of two 2^e that keeps `bits` bits of the largest: the
    integers c[j] ~ num[j]/den 2^-e and e."""
    top = max(map(abs, num))
    e = top.bit_length() - den.bit_length() - bits
    if _round_div(top, den, e).bit_length() > bits:
        e += 1
    return [_round_div(x, den, e) for x in num], e


def _power(c: list, e: int, k: int, bits: int) -> tuple[list, int]:
    """(sum_j c[j] 2^e x^j)^k by repeated squaring, each product rounded to
    `bits` bits of its largest coefficient."""

    def product(a, b):
        out, shift = _round_to_bits(_kronecker_mul(a[0], b[0]), 1, bits)
        return out, a[1] + b[1] + shift

    base, out = (c, e), None
    while k:
        if k & 1:
            out = base if out is None else product(out, base)
        k >>= 1
        if k:
            base = product(base, base)
    return out


@lru_cache(maxsize=64)
def build_generator(n: int, r: int) -> GeneratorPoly:
    """Build the generating polynomial P = lambda (r-1)! int^r Q, Q = tau^(4r),
    for n > 8r; raises PrecisionError when the result fails its
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
        q, eq = _power(*_dyadic(t.poly.coeffs), 4 * r, work)  # Q = sum q_j 2^eq x^j
        # int_0^1 x^j (1-x)^r = j! r!/(j+r+1)!, so with D = (deg Q + r + 1)!
        # and g_j = D j!/(j+r+1)!, int Q (1-x)^r = 2^eq r! S/D, S = sum q_j g_j.
        # P = lambda (r-1)! sum q_j 2^eq j!/(j+r)! x^(j+r) with lambda = r/that
        # integral, so its x^(j+r) coefficient is q_j g_j (j+r+1)/S exactly.
        fact = [1]
        for i in range(1, deg_q + r + 2):
            fact.append(fact[-1] * i)
        g = [fact[-1] // fact[j + r + 1] * fact[j] for j in range(len(q))]
        s = sum(x * y for x, y in zip(q, g))
        lam = _to_mpf(Fraction(fact[-1], fact[r - 1] * s) / Fraction(2) ** eq)
        num = [0] * r + [x * y * (j + r + 1) for j, (x, y) in enumerate(zip(q, g))]
        coeffs, e = _round_to_bits(num, s, work)
        P = Polynomial.monomial([mpmath.mp.make_mpf(from_man_exp(c, e)) for c in coeffs])

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
