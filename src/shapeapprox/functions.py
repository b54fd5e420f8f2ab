"""Catalog of test functions on [0,1].

Each handle is called in float64, on scalars and numpy arrays, and is read
by the operators through one method, ``moment_read``: the integrals
``int_0^1 t^i f(t) dt`` for i = 0..d with f(0) and f(1), as integers over one
denominator. Every catalog handle gives them itself: exactly for
polynomials, x^eps and the truncated power, and within 2^-bits for exp and
ln(x + eps), whose moments are irrational and are formed in fixed point.
Any other handle (a plain callable, wrapped by the operators) is read by the
base class through the exact moments of its Chebyshev interpolant, sampled
in float64. A polynomial's exact values come from ``Polynomial.__call__``.
Handles declare the k-monotonicity orders they are known to satisfy.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebval

from .errors import DomainError
from .polynomial import Polynomial, _lowest, _rational, _reconstruct
from .special import _log_fixed


class FunctionHandle:
    name = "f"
    #: orders k for which the function is known to be k-monotone on [0,1]
    known_monotone_orders: frozenset = frozenset()
    #: whether ``moment_read`` gives exact values
    exact_moments = False

    def __call__(self, x):
        raise NotImplementedError

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        """f(0), m_0, ..., m_d, f(1), with m_i = int_0^1 t^i f(t) dt, as
        integers over one denominator: exact, or if not ``exact_moments``
        within 2^-bits.

        This default, for a handle without moments of its own, gives f(0),
        f(1) and the exact moments of the polynomial p that interpolates f
        at K + 1 first-kind Chebyshev points, K = max(64, d+4), sampled in
        float64: numpy's float Chebyshev coefficients of p, taken exactly
        (``_reconstruct``). ``bits`` is not used. A positive operator T that
        reads them gives T p, within (1 + |T 1 - 1|) max|f - p| of T f."""
        K = max(64, d + 4)
        c = chebinterpolate(lambda u: np.asarray(self((u + 1) / 2), dtype=float), K)
        form = _reconstruct(c).integer_form
        moments, den = form.moments(d + 1)
        (v0, q0), (v1, q1) = map(_rational, np.asarray(self(np.array([0.0, 1.0])), dtype=float))
        L = math.lcm(den, q0, q1)
        return [v0 * (L // q0), *(m * (L // den) for m in moments), v1 * (L // q1)], L

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class PolyFunction(FunctionHandle):
    """A polynomial, kept as given.  It is sampled by Clenshaw on its shifted
    Chebyshev coefficients (``IntegerForm.chebyshev``), each rounded once to
    float64 on first use: bounded by 2 max|p|, and the same bits whatever the
    batch or thread count.  Its moments are exact, whatever its basis, and so
    are its values through ``self.poly(x)``."""

    exact_moments = True

    def __init__(self, poly: Polynomial, name: str | None = None):
        self.poly = poly
        self.name = name or "poly"

    @cached_property
    def _cheb(self) -> np.ndarray:
        c, den = self.poly.integer_form.chebyshev()
        return np.array([x / den for x in c])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)  # a scalar x gives a scalar back
        inside = (x >= 0) & (x <= 1)  # False for NaN
        if not inside.all():
            raise DomainError(f"polynomial sampled at x={x[~inside][0]} outside [0,1]")
        return chebval(2 * x - 1, self._cheb)[()]

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        """From the integer form, over the one denominator of its moments."""
        form = self.poly.integer_form
        T, den = form.moments(d + 1)
        L = den // form.den
        return [form.num[0] * L, *T, sum(form.num) * L], den


class ExpFunction(FunctionHandle):
    """exp(x); k-monotone for every k."""

    name = "exp"
    known_monotone_orders = frozenset(range(32))

    def __call__(self, x):
        return np.exp(np.asarray(x, dtype=float))

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        """Over 2^w, w = bits + 64: 1, the moments I_0..I_d and E, with E =
        sum_k 2^w // k! within k_max units of e 2^w. I_i = e - i I_{i-1};
        the downward recurrence I_{i-1} = (E - I_i) // i divides the error
        of a zero guess at I_start by (d+1)...start, so start is the first
        index where that product passes 2^w, and each floor adds less than
        one unit, which the next division shrinks."""
        w = bits + 64
        start, gain = d, 1
        while gain <= 1 << w:
            start, gain = start + 1, gain * (start + 1)
        E, term, k = 0, 1 << w, 0
        while term:
            E, k = E + term, k + 1
            term //= k
        seq = [0] * (start + 1)
        for i in range(start, 0, -1):
            seq[i - 1] = (E - seq[i]) // i
        return [1 << w, *seq[:d + 1], E], 1 << w


class PowerFunction(FunctionHandle):
    """x^eps with 0 < eps < 1, a float read as its exact value; nonnegative
    and nondecreasing (k <= 1)."""

    exact_moments = True

    def __init__(self, eps):
        self.eps = Fraction(eps)
        self.name = f"x^{float(self.eps):g}"
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0,1)")
        self.known_monotone_orders = frozenset({0, 1})

    def __call__(self, x):
        return np.power(np.asarray(x, dtype=float), float(self.eps))

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        """0, m_0..m_d, 1 with m_i = v/((i+1)v + u) for eps = u/v, over the
        lcm L of those denominators, which leaves the integers coprime."""
        u, v = self.eps.as_integer_ratio()
        dens = [(i + 1) * v + u for i in range(d + 1)]
        L = math.lcm(*dens)
        return [0, *(v * (L // q) for q in dens), L], L


class TruncatedPowerFunction(FunctionHandle):
    """(x - a)_+^p for a in (0,1), a float read as its exact value, and
    integer p >= 1.

    k-monotone for every k <= p + 1.
    """

    exact_moments = True

    def __init__(self, a, p: int):
        self.a = Fraction(a)
        self.p = int(p)
        if not 0 < self.a < 1:
            raise ValueError("a must be in (0,1)")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        self.name = f"(x-{float(self.a):g})_+^{self.p}"
        self.known_monotone_orders = frozenset(range(self.p + 2))

    def __call__(self, x):
        d = np.asarray(x, dtype=float) - float(self.a)
        # the power only where d > 0 (a scalar x gives a scalar back)
        return np.power(d, self.p, out=np.zeros_like(d), where=d > 0)[()]

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        """0, m_0..m_d, (1-a)^p in lowest terms for m_i = int_a^1 t^i (t-a)^p
        dt. Integrating by parts, with t^(i-1) (t-a)^(p+1) = t^i (t-a)^p -
        a t^(i-1) (t-a)^p, gives (p+1+i) m_i = (1-a)^(p+1) + i a m_(i-1),
        run on the integers m_i den: a = u/v and
        den = v^(p+1+d) (p+1)...(p+1+d) make every m_i den and a m_i den
        with i < d an integer, so each division is exact."""
        u, v = self.a.as_integer_ratio()
        p = self.p
        den = v ** (p + 1 + d) * math.prod(range(p + 1, p + 2 + d))
        top = (v - u) ** (p + 1) * (den // v ** (p + 1))  # (1-a)^(p+1) den
        num = [top // (p + 1)]
        for i in range(1, d + 1):
            num.append((top + i * u * num[-1] // v) // (p + 1 + i))
        return _lowest([0, *num, top * v // (v - u)], den)


class LogShiftFunction(FunctionHandle):
    """ln(x + eps) for eps > 0, a float read as its exact value and sampled
    at float(eps); the lambda=2 counterexample family."""

    def __init__(self, eps):
        self.eps = Fraction(eps)
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        self.name = f"ln(x+{float(self.eps):g})"
        self.known_monotone_orders = frozenset({1})

    def __call__(self, x):
        return np.log(np.asarray(x, dtype=float) + float(self.eps))

    def moment_read(self, d: int, bits: int) -> tuple[list, int]:
        """ln eps, J_0..J_d and ln(1+eps) over 2^w, within 2^-bits, for
        J_i = int_0^1 t^i ln(t+eps) dt = (ln(1+eps) - K_(i+1))/(i+1) (by
        parts), K_m = int_0^1 t^m/(t+eps) dt, K_0 = ln(1+eps) - ln eps and
        K_m = 1/m - eps K_(m-1).

        In w-bit fixed point each ln is within (T+1)(w+8) units
        (``special._log_fixed``, T bounding |log2| of eps and 1+eps) and
        each step adds two floors, one unit each, to eps times the error
        before it: the error stays below eps^(d+1) (3(T+1)(w+8) + 2d + 3)
        units when eps > 1, and without the eps^(d+1) factor otherwise.
        So w = bits plus ``grow`` >= log2 eps^(d+1) plus the bit length of
        the rest, with w + 8 taken as at most bits + grow + 72."""
        u, v = self.eps.as_integer_ratio()
        grow = (d + 1) * (u.bit_length() - v.bit_length() + 1) if u > v else 0
        T = max(u.bit_length(), v.bit_length()) + 1
        w = bits + grow
        w += (3 * (T + 1) * (w + 72) + 2 * d + 3).bit_length()
        ln1, ln0 = _log_fixed(1 + self.eps, w), _log_fixed(self.eps, w)
        one, K, out = 1 << w, ln1 - ln0, []
        for m in range(1, d + 2):
            K = one // m - u * K // v
            out.append((ln1 - K) // m)
        return [ln0, *out, ln1], one


def monomial(i: int) -> PolyFunction:
    f = PolyFunction(Polynomial.e(i), name=f"x^{i}")
    f.known_monotone_orders = frozenset(range(32))
    return f


def linear(a, b) -> PolyFunction:
    """a + b x."""
    return PolyFunction(Polynomial.monomial([a, b]), name=f"{a}+{b}x")


def q_monotone_catalog(q: int) -> list[FunctionHandle]:
    """Five functions known to be k-monotone for every k <= q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    entries = [
        ExpFunction(),
        monomial(q),
        monomial(q + 1),
        TruncatedPowerFunction(Fraction(3, 10), max(q - 1, 1)),
        TruncatedPowerFunction(Fraction(3, 5), max(q - 1, 1)),
    ]
    return entries


_CATALOG = {"exp": ("exp", ExpFunction), "xeps": ("xeps:<eps>", PowerFunction),
            "truncpow": ("truncpow:<a>:<p>", TruncatedPowerFunction),
            "logeps": ("logeps:<eps>", LogShiftFunction), "monomial": ("monomial:<k>", monomial),
            "linear": ("linear:<a>:<b>", linear)}


def parameter(text: str, integer: bool = False) -> Fraction | int | None:
    """A catalog parameter read exactly: an integer literal if ``integer``,
    otherwise "a/b" or a decimal as a Fraction; None for text that spells no
    such number. ValueError for a zero denominator, or for a decimal that is
    not finite or whose float is not (nan, inf, 1e400)."""
    try:
        value = int(text) if integer else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"catalog parameter {text!r} divides by zero") from None
    except ValueError:
        value = None
    if integer or "/" in text:
        return value
    try:
        finite = math.isfinite(float(text))
    except ValueError:  # no number
        return value
    if not finite:
        raise ValueError(f"catalog parameter {text!r} is not finite")
    return value


def catalog(name: str) -> FunctionHandle:
    """Build a handle from a CLI-style name such as ``exp``, ``xeps:0.5``,
    ``truncpow:0.5:3``, ``logeps:1e-4``, ``monomial:3`` or ``linear:1:2``."""
    parts = name.split(":")
    if parts[0] not in _CATALOG:
        raise ValueError(f"unknown catalog function {name!r}")
    form, build = _CATALOG[parts[0]]
    if len(parts) != form.count(":") + 1:
        raise ValueError(f"catalog function {name!r} is not of the form {form}")
    values = []
    for field, text in zip(form.split(":")[1:], parts[1:]):
        integer = field in ("<p>", "<k>")
        values.append(parameter(text, integer))
        if values[-1] is None:
            raise ValueError(f"catalog function {name!r}: {field[1:-1]} = {text!r} is not "
                             + ("an integer" if integer else "a number"))
    return build(*values)
