"""Exact reference arithmetic for the tests, independent of the library's own
conversions: coefficient vectors are numpy object arrays of Fractions, on
which numpy.polynomial.polynomial is exact."""
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
from mpmath.libmp import to_rational
from numpy.polynomial import polynomial as npoly


def fractions(coeffs) -> np.ndarray:
    """The exact values of int, Fraction or finite mpf coefficients, as an
    object array of Fractions."""
    return np.array([Fraction(*to_rational(c._mpf_)) if isinstance(c, mpmath.mpf) else Fraction(c)
                     for c in coeffs], dtype=object)


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


def compose(a, g) -> np.ndarray:
    """The monomial coefficients of a(g(x)), by Horner."""
    acc = fractions([0])
    for c in reversed(fractions(a)):
        acc = npoly.polyadd(npoly.polymul(acc, fractions(g)), [c])
    return acc


def integral_01(a) -> Fraction:
    """int_0^1 sum_j a_j x^j dx."""
    return npoly.polyval(1, npoly.polyint(fractions(a)))
