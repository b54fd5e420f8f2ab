"""Reference arithmetic for the tests. Exact references, independent of the
library's own conversions: coefficient vectors are numpy object arrays of
Fractions, on which numpy.polynomial.polynomial is exact. Float references:
library kernels in their earlier, plainer form, which the faster ones must
match bit for bit, and the sampled shape verdict, with which the exact one
must agree. Empirical constants that the acceptance criteria fit from
the library's results: modulus decay exponents and Jackson ratios."""
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath
import numpy as np
from mpmath.libmp import from_rational, round_nearest, to_rational
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.chebyshev import chebinterpolate

from shapeapprox import generator
from shapeapprox.best_approx import best_qmonotone, jackson_quotient
from shapeapprox.functions import ExpFunction, FunctionHandle, LogShiftFunction, PolyFunction
from shapeapprox.generator import PRECISION_BITS, GeneratorPoly
from shapeapprox.moduli import (_REFINE_PEAKS, _REFINE_POINTS, _SIGNED_XS, _aligned_point,
                                _boundary_aligned_points, _grid_neighbours, _largest_steps,
                                _sym_diff_grid, default_x_grid, omega_dt, step_weight)
from shapeapprox.operators import (_as_handle, _bernstein, bernstein_image, durrmeyer_image,
                                   durrmeyer_lupas_image, gavrea_image, genuine_durrmeyer_image)
from shapeapprox.polynomial import Polynomial, bernstein_basis, bernstein_derivative
from shapeapprox.special import TauPoly, tau


def exact(v) -> Fraction:
    """The exact value of an int, Fraction or finite mpf."""
    return Fraction(*to_rational(v._mpf_)) if isinstance(v, mpmath.mpf) else Fraction(v)


def fractions(coeffs) -> np.ndarray:
    """The exact values of int, Fraction or finite mpf coefficients, as an
    object array of Fractions."""
    return np.array([exact(c) for c in coeffs], dtype=object)


def bernstein_coeffs(a, m: int | None = None) -> list:
    """The degree-m Bernstein coefficients of sum_j a_j x^j, m at least its
    exact degree (the default): c_k = sum_j C(k,j)/C(m,j) a_j."""
    a = list(fractions(a))
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    m = len(a) - 1 if m is None else m
    assert m >= len(a) - 1
    return [sum(Fraction(comb(k, j), comb(m, j)) * a[j] for j in range(min(k, len(a) - 1) + 1))
            for k in range(m + 1)]


def monomial_coeffs(b) -> list:
    """The monomial coefficients of sum_k b_k C(n,k) x^k (1-x)^(n-k), n =
    len(b) - 1, up to the exact degree: the binomial expansion of each
    (1-x)^(n-k), summed in Fractions."""
    b = list(fractions(b))
    n = len(b) - 1
    a = [Fraction(0)] * (n + 1)
    for k, c in enumerate(b):
        for i in range(n - k + 1):
            a[k + i] += c * comb(n, k) * comb(n - k, i) * (-1) ** i
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def compose(a, g) -> np.ndarray:
    """The monomial coefficients of a(g(x)), by Horner."""
    acc = fractions([0])
    for c in reversed(fractions(a)):
        acc = npoly.polyadd(npoly.polymul(acc, fractions(g)), [c])
    return acc


def integral_01(a) -> Fraction:
    """int_0^1 sum_j a_j x^j dx."""
    return npoly.polyval(1, npoly.polyint(fractions(a)))


def sym_diff_grid(f, k: int, deltas, xs, centre=None) -> np.ndarray:
    """The library's difference kernel as it was before it took buffers: a
    fresh array per call, the sum started from zeros, and for even k the
    centre values f(xs), unsigned, may be passed in."""
    shape = np.broadcast_shapes(np.shape(deltas), np.shape(xs))
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), shape)
    signs = [(-1) ** (k - i) * comb(k, i) for i in range(k + 1)]
    offsets = [i - k / 2.0 for i in range(k + 1) if centre is None or 2 * i != k]
    nodes = np.multiply.outer(offsets, deltas)
    nodes += xs
    invalid = (deltas <= 0) | (nodes[0] < -1e-15) | (nodes[-1] > 1.0 + 1e-15)
    np.clip(nodes, 0.0, 1.0, out=nodes)
    rows = list(np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape))
    if centre is not None:
        rows.insert(k // 2, np.asarray(centre, dtype=float))
    out = np.zeros(shape)
    for sign, row in zip(signs, rows):
        out += sign * row
    out[invalid] = 0.0
    return out


def modulus_sweep(f, k: int, lam: float, hs) -> tuple[np.ndarray, np.ndarray]:
    """The library's modulus sweep as it was before it took buffers, on
    ``sym_diff_grid`` above and the library's grids and aligned points."""
    hs = np.asarray(hs, dtype=float)
    xs = default_x_grid()
    w = step_weight(xs, lam)
    centre = np.asarray(f(xs), dtype=float) if k and k % 2 == 0 else None
    values, args = np.empty(len(hs)), np.empty(len(hs))
    for s in range(0, len(hs), 8):
        vals = np.abs(sym_diff_grid(f, k, hs[s:s + 8, None] * w, xs, centre))
        j = np.argmax(vals, axis=1)
        values[s:s + 8] = vals[np.arange(len(j)), j]
        args[s:s + 8] = xs[j]
    points, steps = _boundary_aligned_points(k, lam, hs)
    has = np.flatnonzero(~np.isnan(points[:, 0]))
    if len(has):
        vals = np.abs(sym_diff_grid(f, k, steps[has], points[has]))
        j = np.argmax(vals, axis=1)
        best = vals[np.arange(len(j)), j]
        wins = best > values[has]
        values[has[wins]] = best[wins]
        args[has[wins]] = points[has[wins], j[wins]]
    return values, args


def equioscillation_count(residuals, error: float) -> int:
    """The library's count of alternating near-extrema as it was before it
    was vectorized: one pass over the residuals, counting sign changes
    among the entries within 1% of the error."""
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


def exchange_peaks(r, j: int, size: int) -> list | None:
    """The multi-point exchange's reference as one loop over the residual:
    the first node reaching each sign run's largest |r|, trimmed from its
    ends to ``size`` nodes, each time at the end with the smaller |r| unless
    that end is j; None when r has fewer than ``size`` sign runs."""
    nodes = []
    for i, v in enumerate(r):
        if i == 0 or (v > 0) != (r[i - 1] > 0):
            nodes.append(i)
        elif abs(v) > abs(r[nodes[-1]]):
            nodes[-1] = i
    if len(nodes) < size:
        return None
    while len(nodes) > size:
        if nodes[-1] == j or (nodes[0] != j and abs(r[nodes[0]]) < abs(r[nodes[-1]])):
            nodes.pop(0)
        else:
            nodes.pop()
    return nodes


def signed_sup(f, k: int, lam: float, t: float) -> tuple[float, float, float, int]:
    """The library's signed-route sup as it was before it took the grid's
    and the refined maximum apart: both reads concatenated, and the first
    maximum of the concatenation."""
    xs, deltas = _SIGNED_XS, _largest_steps(_SIGNED_XS, k, lam, t)
    aligned = _aligned_point(k, lam, t)
    if aligned is not None:
        x, step = aligned
        xs, deltas = np.concatenate([xs, [x, 1.0 - x]]), np.concatenate([deltas, [step, step]])
    values = np.abs(_sym_diff_grid(f, k, deltas, xs))
    rest, around = values.copy(), []
    for _ in range(_REFINE_PEAKS):
        j = np.argmax(rest)
        rest[j] = -1.0
        around.append(_grid_neighbours(xs[j]))
    lo, hi = zip(*around)
    fine = np.linspace(lo, hi, _REFINE_POINTS, axis=1).ravel()
    fine_deltas = _largest_steps(fine, k, lam, t)
    xs, deltas = np.concatenate([xs, fine]), np.concatenate([deltas, fine_deltas])
    values = np.concatenate([values, np.abs(_sym_diff_grid(f, k, fine_deltas, fine))])
    j = int(np.argmax(values))
    return float(values[j]), float(xs[j]), float(deltas[j]), len(xs)


def sampled_shape_verdict(p: Polynomial, k: int, tol: float) -> bool:
    """The library's polynomial shape verdict as it was when a sample
    decided it: p^(k) >= -tol at 4096 equispaced points of [0,1], in
    float64 from the exact Bernstein integers of p^(k)."""
    c, den = bernstein_derivative(*p.bernstein_read(), k)
    xs = np.linspace(0.0, 1.0, 4096)
    return bool(np.min(bernstein_basis(len(c) - 1, xs) @ np.array([x / den for x in c])) >= -tol)


def callable_moments(f, d: int) -> list:
    """f(0), m_0..m_d, f(1) for a handle without moments of its own, as
    Fractions: m_i the moments of the polynomial p that interpolates f at
    K + 1 first-kind Chebyshev points, K = max(64, d+4). numpy's float
    coefficients c_j of p = sum_j c_j T_j(2x - 1) are summed as Fractions
    over ``chebyshev_T_reference``, composed with t = 2x - 1 by Horner's
    rule and integrated term by term."""
    K = max(64, d + 4)
    c = chebinterpolate(lambda u: np.asarray(f((u + 1) / 2), dtype=float), K)
    in_t = np.array([Fraction(0)] * (K + 1), dtype=object)
    for j, cj in enumerate(c):
        Tj = chebyshev_T_reference(j)
        in_t[:len(Tj)] += np.array(Tj, dtype=object) * Fraction(cj)
    a = np.array([Fraction(0)], dtype=object)
    for tk in reversed(in_t):
        a = npoly.polyadd(npoly.polymul(a, [Fraction(-1), Fraction(2)]), [tk])
    moments = [sum(ak / (i + k + 1) for k, ak in enumerate(a)) for i in range(d + 1)]
    ends = np.asarray(f(np.array([0.0, 1.0])), dtype=float)
    return [Fraction(ends[0]), *moments, Fraction(ends[1])]


def bernstein_read_out(f, d: int, gain: int = 0) -> tuple[list, int, bool]:
    """The library's read-out of f as it was when it gave b_i =
    int_0^1 p_{d,i} f rather than moments: f(0), b_0..b_d, f(1) as integers
    over one denominator, and whether they are exact. Moments (``moment_read``
    at PRECISION_BITS + 2d + gain bits, or ``callable_moments`` for a handle
    without moments of its own, such as a plain callable) become b by the
    subtractive triangle."""
    f = _as_handle(f)
    if type(f).moment_read is FunctionHandle.moment_read:
        vals = callable_moments(f, d)
        den = math.lcm(*(v.denominator for v in vals))
        v0, *row, v1 = [v.numerator * (den // v.denominator) for v in vals]
    else:
        (v0, *row, v1), den = f.moment_read(d, PRECISION_BITS + 2 * d + gain)
    diag = [row[-1]]  # g_{d-j,j}, g_{i,j} = int t^i (1-t)^j f
    for _ in range(d):
        row = [x - y for x, y in zip(row, row[1:])]
        diag.append(row[-1])
    row = [comb(d, i) * g for i, g in enumerate(reversed(diag))]
    return [v0, *row, v1], den, f.exact_moments


# ----------------------------------------------------------------------
# the mpmath computations that integer arithmetic replaced, bit for bit or
# to within the bits asked for
@lru_cache(maxsize=None)
def chebyshev_T_reference(m: int) -> tuple:
    """T_m's integer monomial coefficients (ascending) by the three-term
    recurrence T_(k+1) = 2x T_k - T_(k-1), as the library once formed them."""
    prev, cur = [1], [0, 1]
    for _ in range(m):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(prev)


def tau_reference(m: int, prec_bits: int = 256) -> TauPoly:
    """tau_m as the library formed it in mpmath at ``prec_bits`` bits: cos
    and sin of pi/2m, each product and sum of the synthetic division by
    (x - x_tilde) and each product by |I_1|, every operation rounded to
    nearest; the fields are the exact values of the mpf results."""
    with mpmath.workprec(prec_bits):
        x_tilde = mpmath.cos(mpmath.pi / (2 * m))
        len_i1 = 2 * mpmath.sin(mpmath.pi / (2 * m)) ** 2
        a = [mpmath.mpf(c) for c in chebyshev_T_reference(m)]  # ascending, exact
        q, carry = [None] * m, a[m]  # the quotient, ascending
        for k in range(m - 1, -1, -1):
            q[k] = carry
            carry = a[k] + x_tilde * carry
        poly = Polynomial.monomial([exact(c * len_i1) for c in q])
    return TauPoly(m, poly, exact(x_tilde), exact(len_i1), exact(carry))


def generator_scales_reference(gen: GeneratorPoly) -> tuple:
    """lambda_n, the unit-integral residual and the moment deficiencies of a
    build as the library once formed them: kappa~ 2^eq = D/((r-1)! G L)
    on the weights g_j = D j!/(j+r+1)! of Q's integers, D = (deg Q + r + 1)!,
    and int x^mu P from ``Polynomial.moments(5)`` of the stored P, each
    rounded once at the build's bits as mpmath rounds."""
    r, bits = gen.r, gen.precision_bits

    def rounded(v: int, den: int) -> Fraction:
        return Fraction(*to_rational(from_rational(v, den, bits, round_nearest)))

    tf = tau(gen.m, bits).poly
    s, es = generator._power(tf.num, 1 - tf.den.bit_length(), 2 * r, bits)
    q, eq = generator._kronecker_mul(s, s), 2 * es
    D = math.factorial(len(q) + r)
    G, g = 0, D // math.factorial(r + 1)
    for j, x in enumerate(q):
        G += x * g
        g = g * (j + 1) // (j + r + 2)
    L = math.lcm(*(r * comb(j + r, r) for j in range(len(q))))
    lam = rounded(D, math.factorial(r - 1) * G * L) * L / Fraction(2) ** eq
    T, scale = gen.P.moments(5)
    return (lam, abs(T[0] - scale) / scale,
            {mu: rounded(scale - T[mu], scale) for mu in (1, 2, 3, 4)})


def exp_moments_reference(imax: int, bits: int) -> list:
    """int_0^1 t^i e^t dt for i <= imax as the library formed them in
    mpmath: the downward recurrence I_{i-1} = (e - I_i)/i at bits + 64 bits,
    from a zero guess at the first index where (imax+1)...start passes
    2^(bits+64); the exact values of the mpf results."""
    prec = bits + 64
    start, gain = imax, 1
    while gain <= 1 << prec:
        start, gain = start + 1, gain * (start + 1)
    with mpmath.workprec(prec):
        e = mpmath.e + 0
        seq = [mpmath.mpf(0)] * (start + 1)
        for i in range(start, 0, -1):
            seq[i - 1] = (e - seq[i]) / i
    return [exact(v) for v in seq[:imax + 1]]


class MpfExp(ExpFunction):
    """exp read as the library read it in mpmath: the moments of
    ``exp_moments_reference`` and f(1) = exp(1) rounded to ``bits`` bits."""

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        with mpmath.workprec(bits):
            e = exact(mpmath.exp(mpmath.mpf(1)))
        vals = [Fraction(1), *exp_moments_reference(d, bits), e]
        den = math.lcm(*(v.denominator for v in vals))
        return [v.numerator * (den // v.denominator) for v in vals], den


def logeps_moments_reference(eps: Fraction, imax: int, bits: int) -> list:
    """ln eps, int_0^1 t^i ln(t + eps) dt for i <= imax and ln(1 + eps) in
    mpmath: by parts, J_i = (ln(1+eps) - K_(i+1))/(i+1) with K_m =
    int_0^1 t^m/(t+eps) dt, K_0 = ln((1+eps)/eps) and K_m = 1/m - eps
    K_(m-1), at bits + 64 bits plus the log2 eps^(imax+1) the recurrence
    loses for eps > 1; the exact values of the mpf results."""
    prec = bits + 64 + (imax + 1) * max(0, math.ceil(math.log2(eps)))
    with mpmath.workprec(prec):
        e = mpmath.mpf(eps.numerator) / eps.denominator
        top = mpmath.log(1 + e)
        K, out = top - mpmath.log(e), [mpmath.log(e)]
        for m in range(1, imax + 2):
            K = mpmath.mpf(1) / m - e * K
            out.append((top - K) / m)
        out.append(top)
    return [exact(v) for v in out]


class MpfLogShift(LogShiftFunction):
    """ln(x + eps) read from ``logeps_moments_reference``."""

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        vals = logeps_moments_reference(self.eps, d, bits)
        den = math.lcm(*(v.denominator for v in vals))
        return [v.numerator * (den // v.denominator) for v in vals], den


def genuine_durrmeyer_reference(n: int, f) -> Polynomial:
    """U_n(f) from ``bernstein_read_out``: f(0), (n-1) b_i, f(1)."""
    (v0, *b, v1), den, exact = bernstein_read_out(f, n - 2)
    return _bernstein([v0, *((n - 1) * v for v in b), v1], den, exact)


def durrmeyer_reference(n: int, f) -> Polynomial:
    """D_n(f) from ``bernstein_read_out``: (n+1) b_i."""
    num, den, exact = bernstein_read_out(f, n)
    return _bernstein([(n + 1) * v for v in num[1:-1]], den, exact)


def gavrea_reference(gen_poly: Polynomial, f, exact: bool = False) -> Polynomial:
    """sum_k a_k/(k+1) U_{k+2}(f) as the library formed it from
    ``bernstein_read_out``: b back to the moments by the additive triangle,
    the antidiagonals rebuilt upwards and the images summed by degree
    elevation, all over A Q (d+1)!, on P's numerators as they are. For a
    polynomial f of degree e < d + 2 the exact sum is converted to degree e
    by Fraction binomial sums. Each Bernstein coefficient is rounded once,
    or with ``exact``, on exact data, kept exact."""
    form = gen_poly.to_monomial()
    a, A = form.num, form.den
    d = len(a) - 1
    lcm = math.lcm(*range(1, d + 2))
    gain = sum(abs(x) * (lcm // (k + 1)) for k, x in enumerate(a)) // (A * lcm)
    (v0, *b, v1), Q, read_exact = bernstein_read_out(f, d, gain.bit_length())
    fact = [math.factorial(i) for i in range(d + 3)]
    row = [bi * fact[i] * fact[d - i] for i, bi in enumerate(b)]  # g_{i,d-i}, over Q d!
    moments = [row[-1]]
    for _ in range(d):
        row = [x + y for x, y in zip(row, row[1:])]
        moments.append(row[-1])
    moments.reverse()
    acc, row = [0, 0], []
    for k, alpha in enumerate(a):
        new = [moments[k]]
        for x in reversed(row):
            new.append(x - new[-1])
        row = new[::-1]
        ends = alpha * fact[d + 1] // (k + 1)
        term = [ends * v0]
        term += [alpha * (d + 1) * comb(k + 2, i + 1) * comb(k, i) * g for i, g in enumerate(row)]
        term.append(ends * v1)
        acc = [x + y + t for x, y, t in zip([0] + acc, acc + [0], term)]
    D = d + 2  # acc_j multiplies x^j (1-x)^(D-j) = p_{D,j} / C(D,j)
    bern = [c * fact[j] * fact[D - j] for j, c in enumerate(acc)]
    den = A * Q * fact[d + 1] * fact[D]
    f = _as_handle(f)
    e = min(f.poly.to_monomial().degree, D) if isinstance(f, PolyFunction) else D
    if e < D:  # the image keeps f's degree
        c = bernstein_coeffs(monomial_coeffs([Fraction(x, den) for x in bern]), e)
        den = math.lcm(*(x.denominator for x in c))
        bern = [x.numerator * (den // x.denominator) for x in c]
    return _bernstein(bern, den, exact and read_exact)


# ----------------------------------------------------------------------
# moment profiles of the linear operators
@dataclass(frozen=True)
class MomentProfile:
    n: int
    image_e0: Polynomial
    image_e1: Polynomial
    image_e2: Polynomial
    alpha_n: object  # factor in L(e_2,x) - x^2 = alpha_n x(1-x); None if n/a
    conforming: bool
    residual: float


def _image_fn(kind: str, params: dict):
    if kind == "bernstein":
        return (lambda f: bernstein_image(params["n"], f)), params["n"]
    if kind == "genuine_durrmeyer":
        return (lambda f: genuine_durrmeyer_image(params["n"], f)), params["n"]
    if kind == "durrmeyer":
        return (lambda f: durrmeyer_image(params["n"], f)), params["n"]
    if kind == "lupas":
        return (lambda f: durrmeyer_lupas_image(params["n"], params["alpha"], f)), params["n"]
    if kind == "gavrea":
        gen = params["gen"]
        gen_poly = gen.P if isinstance(gen, GeneratorPoly) else gen
        return (lambda f: gavrea_image(gen_poly, f)), gen_poly.degree + 2
    raise ValueError(f"unknown operator kind {kind!r}")


def _float_coeffs(p: Polynomial, length: int) -> list[float]:
    c = [float(v) for v in p.to_monomial().coeffs]
    return c + [0.0] * max(0, length - len(c))


def moment_profile(kind: str, **params) -> MomentProfile:
    """Images of e_0, e_1, e_2 and the factor alpha_n when the operator
    reproduces linear functions and L(e_2,x) - x^2 is proportional to x(1-x).

    Operators that fail either property (e.g. the weighted Durrmeyer family,
    which does not fix e_1) come back with conforming=False and alpha_n=None.
    """
    image, n = _image_fn(kind, params)
    imgs = [image(Polynomial.e(i)).to_monomial() for i in range(3)]
    tol = 1e-10
    lin_resid = 0.0
    for i in (0, 1):
        c = _float_coeffs(imgs[i], i + 2)
        c[i] -= 1.0
        lin_resid = max(lin_resid, max(abs(v) for v in c))
    s = _float_coeffs(imgs[2], max(4, len(imgs[2].coeffs)))
    s[2] -= 1.0  # subtract x^2
    alpha_float = s[1]
    resid = max(
        abs(s[0]),
        abs(s[1] + s[2]),  # the gap must be alpha * (x - x^2)
        max((abs(v) for v in s[3:]), default=0.0),
    )
    conforming = lin_resid <= tol and resid <= tol and alpha_float >= -tol
    alpha_n = None
    if conforming:
        # report the exact/high-precision coefficient, not its float cast
        raw = list(imgs[2].coeffs)
        alpha_n = raw[1] if len(raw) > 1 else alpha_float
    return MomentProfile(
        n=n,
        image_e0=imgs[0],
        image_e1=imgs[1],
        image_e2=imgs[2],
        alpha_n=alpha_n,
        conforming=conforming,
        residual=max(lin_resid, resid),
    )


def fit_modulus_exponent(f, k: int, lam: float, t_list) -> float:
    """Least-squares slope of log omega_dt(f,k,lam,t) against log t."""
    ts = np.asarray(list(t_list), dtype=float)
    vals = np.array([omega_dt(f, k, lam, t).value for t in ts])
    assert len(ts) >= 2 and np.all(vals > 0), (ts, vals)
    slope, _ = np.polyfit(np.log(ts), np.log(vals), 1)
    return float(slope)


def jackson_ratio(f, q: int, n: int) -> float:
    """Empirical constant E_n^(q)(f) / omega_2^phi(f, 1/n)."""
    return jackson_quotient(best_qmonotone(f, q, n).error, omega_dt(f, 2, 1.0, 1.0 / n).value)
