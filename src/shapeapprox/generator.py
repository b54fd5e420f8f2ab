"""Construction of the generating polynomial P_n with nonnegative derivatives
up to order r, unit integral, and O(n^-2) moment deficiency.

P = lambda (r-1)! int^r S^2 with S = tau^(2r) is built in Python integers
after tau: tau's exact read is its integers over one power of two; S comes
by repeated squaring, each product exact by multipoint Kronecker substitution
(Harvey 2009: the product read from its values at x = 2^N and x = -2^N, two
integer products of half the size of the one at x = 2^(2N)) and rounded to
``precision_bits`` bits of its largest coefficient; S^2 is one more product,
not rounded. The only other rounding is of kappa = lambda/L, L = lcm_j
r C(j+r,r), to ``precision_bits`` bits, after which every coefficient of P is
an exact dyadic, and P is stored as those integers over one power of two.
kappa comes from Q's moments, the integers A_l = sum_j q_j Lq/(j+l+1) for
l <= r+4 over one Lq = lcm(1..deg Q + r + 5): one weighted pass per l over
Q's integers, which carry a little over half the bits of P's (940 against
1,692 at n = 417, r = 1).

The construction is the certificate: P^(r) = lambda~ (r-1)! S^2 >= 0 on all
of R, lambda~ = L kappa~ > 0, and P has no coefficient below x^r, so each
P^(nu), nu < r, is the integral from 0 of the one above it and P^(nu) >= 0 on
[0,1] for nu <= r. Rounding kappa moves only int P - 1, to about
2^-precision_bits. The build checks the identity exactly on the stored
integers, against the reduced ratio u/v of the leading coefficients of P^(r)
and S^2, so that P = (u/(v den)) I^r Q for the stored den, I the integral
from 0. Only then are int P and the deficiencies 1 - int x^mu P read, from
the A_l through that identity by Cauchy's formula for I^r, each exact and
rounded once."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import PrecisionError, RegimeError
from .polynomial import MONOMIAL, Polynomial, _dyadic, _round_to_bits, _round_value
from .special import _log, tau

PRECISION_BITS = 256  # working precision of the generator and the M_n image


class GeneratorPoly(NamedTuple):
    """The degree-<=n generating polynomial with its construction metadata."""

    n: int
    r: int
    m: int
    lambda_n: Fraction  # lambda~ = L kappa~, exactly the scale P carries
    P: Polynomial  # exactly lambda_n (r-1)! int^r S^2, over one power of two
    moment_deficiency: dict  # mu -> 1 - int x^mu P, a dyadic Fraction
    # bits tau, each product of tau's power, kappa and each deficiency are
    # rounded to: PRECISION_BITS plus the guard bits for tau's growth
    precision_bits: int
    unit_integral_residual: float  # |int P - 1|, exact, rounded once


def _pack(c: list, w: int) -> int:
    """sum_j c[j] 2^(8wj) for integers |c[j]| < 2^(8w-1): each c[j] + 2^(8w-1)
    fills its w bytes unsigned, and the offsets are taken off in one
    subtraction."""
    off = 1 << (8 * w - 1)
    return (int.from_bytes(b"".join((v + off).to_bytes(w, "little") for v in c), "little")
            - int.from_bytes(off.to_bytes(w, "little") * len(c), "little"))


def _kronecker_mul(a: list, b: list) -> list:
    """Coefficients of the product h of two integer polynomials (ascending),
    exactly, by Harvey's multipoint Kronecker substitution KS2 ("Faster
    polynomial multiplication via multipoint Kronecker substitution",
    J. Symbolic Comput. 44, 2009): h(2^N) and h(-2^N) are two integer
    products of half the size of the one product at x = 2^(2N), which costs
    about 2^-0.585 of it under Karatsuba. A factor c = E(x^2) + x O(x^2) packs
    its even- and odd-indexed coefficients once each at 2^(2N), and c(+-2^N)
    = E +- 2^N O. Then (h(2^N) + h(-2^N))/2 packs h's even coefficients at
    2^(2N), and (h(2^N) - h(-2^N))/2^(N+1) its odd ones. Each 2N-bit slot is
    read back from the two's-complement bytes as signed, which is the
    coefficient minus the borrow its lower neighbour took, that neighbour's
    top bit. 2N leaves two bits above every coefficient of h and of either
    factor, so each packed factor fits and the reading is unique."""
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bound = max(min(len(a), len(b)) * top_a * top_b, top_a, top_b)
    half = (bound.bit_length() + 17) // 16  # bytes per N
    w, shift = 2 * half, 8 * half  # bytes per slot, N

    def points(c):
        even, odd = _pack(c[0::2], w), _pack(c[1::2], w) << shift
        return even + odd, even - odd

    pa, ma = points(a)
    pb, mb = (pa, ma) if b is a else points(b)
    p, m = pa * pb, ma * mb  # h(2^N), h(-2^N); squares when b is a
    n = len(a) + len(b) - 1
    out = [0] * n
    for start, packed in ((0, (p + m) >> 1), (1, (p - m) >> (shift + 1))):
        data = packed.to_bytes((n - start + 1) // 2 * w, "little", signed=True)
        borrow = 0
        for k, i in zip(range(start, n, 2), range(0, len(data), w)):
            out[k] = int.from_bytes(data[i:i + w], "little", signed=True) + borrow
            borrow = data[i + w - 1] >> 7
    return out


def _square(c: list) -> list:
    """c(x)^2 for integer coefficients c (ascending), exactly, as t^2 + 2t x A
    + x^2 A^2 with c = t + x A, and A^2 formed from A's integers with the
    trailing zeros they share shifted out. For odd m, tau's constant
    coefficient is a rounding residue (T_m(0) = 0) about 2^-bits below the
    others, and over its denominator every other integer carries that many
    zero bits: squaring c whole would double every slot."""
    t, rest = c[0], c[1:]
    shared = 0
    for v in rest:
        shared |= v
    z = (shared & -shared).bit_length() - 1 if shared else 0
    out = [t * t, *(2 * t * v for v in rest)] + [0] * len(rest)
    if rest:
        narrow = [v >> z for v in rest]
        for j, v in enumerate(_kronecker_mul(narrow, narrow)):
            out[j + 2] += v << 2 * z
    return out


def _power(c: list, e: int, k: int, bits: int) -> tuple[list, int]:
    """(sum_j c[j] 2^e x^j)^k by repeated squaring, each product rounded to
    `bits` bits of its largest coefficient."""

    def product(a, b):
        exact = _square(a[0]) if a is b else _kronecker_mul(a[0], b[0])
        out, shift = _round_to_bits(exact, 1, bits)
        return out, a[1] + b[1] + shift

    base, out = (c, e), None
    while k:
        if k & 1:
            out = base if out is None else product(out, base)
        k >>= 1
        if k:
            base = product(base, base)
    return out


def _guard_bits(m: int, r: int) -> int:
    """Bits S = tau^(2r) may lose on [0,1] to the build's roundings, with 64
    to spare. Each product of tau's power is rounded relative to its largest
    monomial coefficient, so S loses at most log2(||s||_1 / S(1)) <=
    2r log2(||tau||_1 / tau(1)) bits of value (||tau^k||_1 <= ||tau||_1^k),
    and ||tau||_1 / tau(1) <= ||T_m||_1 = |T_m(i)| <= (1 + sqrt 2)^m, with
    log2(1 + sqrt 2) < 1.272; each of the deg S + 1 terms of a coefficient
    may carry one rounding of tau (2m + 1 per coefficient) or of a product
    (at most 2r)."""
    count = (2 * m + 1 + 2 * r) * (2 * r * (m - 1) + 1)
    return -(-2 * r * m * 1272 // 1000) + count.bit_length() + 64


@lru_cache(maxsize=64)
def build_generator(n: int, r: int) -> GeneratorPoly:
    """Build the generating polynomial P = lambda (r-1)! int^r S^2, S =
    tau^(2r), for n > 8r; raises PrecisionError when the stored P is not that
    construction or a moment deficiency is not positive."""
    if r < 1:
        raise RegimeError("r must be >= 1")
    if n <= 8 * r:
        raise RegimeError(f"construction requires n > 8r (n={n}, r={r})")
    m = math.ceil(n / (8 * r))
    deg_q = 4 * r * (m - 1)
    work = PRECISION_BITS + _guard_bits(m, r)
    tf = tau(m, prec_bits=work).poly  # monomial, over a power of two
    s, es = _power(tf.num, 1 - tf.den.bit_length(), 2 * r, work)  # S = sum s_j 2^es x^j
    q, eq = _kronecker_mul(s, s), 2 * es  # Q = S^2, exact
    # Q's moments, A_l = Lq int_0^1 x^l sum_j q_j x^j = sum_j q_j Lq/(j+l+1)
    # for l <= r+4, on the weights Lq/i of one Lq = lcm(1..deg Q + r + 5)
    top = deg_q + r + 5
    Lq = math.lcm(*range(1, top + 1))
    w = [Lq // i for i in range(1, top + 1)]
    A = [sum(map(mul, q, w[l:])) for l in range(r + 5)]
    # int_0^1 x^j (1-x)^r = j! r!/(j+r+1)!, so int Q (1-x)^r = 2^eq r! G with
    # G = sum_j q_j j!/(j+r+1)! = sum_i C(r,i) (-1)^i A_i/(r! Lq), and lambda
    # = r/that integral = 1/((r-1)! 2^eq G). P's x^(j+r) coefficient
    # lambda (r-1)! 2^eq q_j j!/(j+r)! is kappa 2^eq q_j L/b_j with b_j =
    # r C(j+r,r), L = lcm_j b_j and kappa = lambda/L.
    b = [r * math.comb(j + r, r) for j in range(len(q))]
    L = math.lcm(*b)
    rG = sum((-1) ** i * math.comb(r, i) * A[i] for i in range(r + 1))  # r! Lq G
    k, ek = _round_value(r * Lq, rG * L, work)  # kappa~ 2^eq = k 2^ek
    lam = _dyadic(k * L, ek - eq)
    P = Polynomial.from_integers(MONOMIAL, [0] * r + [(k * x * (L // y)) << max(ek, 0)
                                                      for x, y in zip(q, b)], 1 << max(-ek, 0))

    if P.degree > n:
        raise RegimeError(f"generator degree {P.degree} exceeds n={n}")
    # the certificate, on the stored integers: none below x^r, and P^(r)
    # (x^j coefficient num[j+r] (j+r)!/j!) one positive multiple of Q,
    # tested against the reduced ratio u/v of the leading coefficients
    num = P.num
    d = [x * math.perm(j + r, r) for j, x in enumerate(num[r:])]
    h = math.gcd(d[-1], q[-1]) or 1
    u, v = d[-1] // h, q[-1] // h  # v > 0: q's leading coefficient is a square
    if (any(num[:r]) or len(d) != len(q) or u * v <= 0
            or any(x * v != y * u for x, y in zip(d, q))):
        raise PrecisionError(f"stored P^({r}) is not a positive multiple of tau^{4 * r}")
    # so P = u/(v P.den) I^r(sum_j q_j x^j), I the integral from 0, and by
    # Cauchy's formula int_0^1 x^mu P = u/(v P.den (r-1)! Lq) sum_{i<r}
    # C(r-1,i) (-1)^(r-1-i) (A_(r-1-i) - A_(mu+r))/(mu+i+1): over scale,
    # with M = lcm(1..r+4), that is T_mu for mu <= 4, exactly
    M = math.lcm(*range(1, r + 5))
    scale = v * P.den * math.factorial(r - 1) * Lq * M
    T = [u * sum((-1) ** (r - 1 - i) * math.comb(r - 1, i) * (A[r - 1 - i] - A[mu + r])
                 * (M // (mu + i + 1)) for i in range(r)) for mu in range(5)]
    resid = abs(T[0] - scale) / scale  # exact, then rounded once
    deficiency = {}
    for mu in (1, 2, 3, 4):  # exact, then rounded once at `work` bits
        if T[mu] >= scale:
            raise PrecisionError(f"moment deficiency delta_{mu} = {(scale - T[mu]) / scale} <= 0")
        c, e = _round_value(scale - T[mu], scale, work)
        deficiency[mu] = _dyadic(c, e)
    return GeneratorPoly(
        n=n,
        r=r,
        m=m,
        lambda_n=lam,
        P=P,
        moment_deficiency=deficiency,
        precision_bits=work,
        unit_integral_residual=resid,
    )


def deficiency_slope(r: int, n_list) -> float:
    """Least-squares slope of log delta_2(n) against log n."""
    ns = list(n_list)
    if len(ns) < 2:
        raise RegimeError("need at least two n to fit a slope")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise RegimeError("n_list must be strictly increasing")
    logs_n, logs_d = [], []
    for n in ns:
        gen = build_generator(n, r)
        logs_n.append(math.log(n))
        logs_d.append(_log(gen.moment_deficiency[2]))
    slope, _ = np.polyfit(logs_n, logs_d, 1)
    return float(slope)
