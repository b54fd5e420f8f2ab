"""Reference arithmetic for the tests. Exact references, independent of the
library's own conversions: coefficient vectors are numpy object arrays of
Fractions, on which numpy.polynomial.polynomial is exact. Float references:
library kernels in their earlier, plainer form, which the faster ones must
match bit for bit."""
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
from mpmath.libmp import to_rational
from numpy.polynomial import polynomial as npoly

from shapeapprox.moduli import _boundary_aligned_points, default_x_grid, step_weight


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
