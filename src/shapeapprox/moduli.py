"""Classical and weighted moduli of smoothness on [0,1].

The step weight is phi(x)^lambda with phi(x) = sqrt(x(1-x)); lambda = 0
recovers the classical modulus

    omega_k^{phi^lambda}(f, t) = sup_{0<h<=t} sup_x |Delta^k_{h phi^lambda(x)} f(x)|,

over the x whose nodes x + (i - k/2) h phi^lambda(x) all lie in [0,1].  No
step above h* = 2^lambda/k admits a k-th difference (x = 1/2 is the most
interior point for lambda <= 2), so omega(t) = omega(h*) for t >= h*, and
``omega_dt`` reads t as min(t, h*).  It takes one of two routes, named in
the result:

- ``signed``, for k >= 1 when f declares the sign of f^(k)
  (``FunctionHandle.derivative_signs``).  With M_k the centred B-spline of
  order k, Delta^k_delta f(x) = delta^(k-1) int M_k(u/delta) f^(k)(x+u) du,
  and M_k is symmetric and unimodal (DeVore & Lorentz, Constructive
  Approximation, 1993), so when f^(k) has one sign |Delta^k_delta f(x)| is
  nondecreasing in delta.  The sup over the step is then its largest
  admissible value, delta(x) = min(t phi^lambda(x), 2x/k, 2(1-x)/k), and
  the modulus is the 1-D sup over x of |Delta^k_{delta(x)} f(x)|.  It is
  read on the Chebyshev grid, 1024 geometric points down to 1e-16 at each
  end, and the point where t phi^lambda(x) = 2x/k with its mirror, read
  with the step the aligned-point solve returns, so the outer node is
  exactly on the endpoint; then on 65 points around each of the three
  largest values, between their neighbours in the grid (found by bisection
  of a sorted copy of the grid, made at import).
- ``sweep``, for every other f and k: ``modulus_sweep`` over 64 geometric
  step bounds in (0, t], each read on 1025 Chebyshev points plus the
  step's boundary-aligned points (where endpoint-singular f peak).

Either way the estimate is a sup over finite grids, so it is a lower bound
of the true supremum; the grid sizes are recorded in the result.

One kernel, ``_sym_diff_grid``, forms every difference, here and in the
function shape check: centred nodes x + (i - k/2) delta, all k+1 rows of
them sent to f in one call.  The sweep takes the step bounds in blocks of
8.  Both routes take their aligned points from one bracketed Newton solve
on Python floats, ``_aligned_point``, one step bound at a time; the
sweep reads those of all h in one more kernel call, with the outer node
exactly on the endpoint.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb, exp, inf, isnan, log, log1p
from typing import NamedTuple

import numpy as np

from .errors import RegimeError

DEFAULT_H_POINTS = 64
DEFAULT_X_POINTS = 1025
_H_SPAN = 2.0**-16  # smallest h is t * _H_SPAN
# step bounds per kernel call: on omega_dt(f, 2, 1, 1/19) down the sweep
# (2-vCPU x86-64, medians), 4, 16 and 64 took 7.3, 10.2 and 15 ms against
# 6.8 ms at 8 for the degree-26 generator P(64, 2) as a PolyFunction, and
# 1.3, 1.08 and 2.4 ms against 1.13 ms for x^0.5 as a plain callable
_H_BLOCK = 8
_ALIGN_STEPS = 60  # cap on the safeguarded Newton steps of the aligned points
_EDGE_POINTS = 1024  # geometric points at each end on the signed route,
_EDGE_SPAN = 1e-16  # from this distance to the end up to 1/2
_REFINE_POINTS = 65  # points around each refined value on the signed route
_REFINE_PEAKS = 3  # the largest values refined
_LN2 = log(2.0)


def step_weight(x, lam: float):
    """phi^lambda(x) = (x(1-x))^(lambda/2)."""
    x = np.asarray(x, dtype=float)
    return (x * (1.0 - x)) ** (lam / 2.0)


class ModulusEstimate(NamedTuple):
    k: int
    lam: float
    t: float
    value: float
    h_grid_size: int
    x_grid_size: int
    argmax_h: float
    argmax_x: float
    route: str  # "signed" (1-D sup at the largest admissible step) or "sweep"


def default_h_grid(t: float) -> np.ndarray:
    """Geometric grid of step bounds in (0, t], largest point exactly t."""
    if t <= 0:
        raise RegimeError("t must be positive")
    return t * _UNIT_H


def default_x_grid(size: int = DEFAULT_X_POINTS) -> np.ndarray:
    """Chebyshev-distributed points on [0,1] (clustered at the endpoints)."""
    j = np.arange(size)
    return (1.0 - np.cos(np.pi * j / (size - 1))) / 2.0


# the grids every sweep and every signed sup read, formed once; read-only.
# The signed grid holds no endpoint, where delta(x) = 0, and no point twice
# (1 - x rounds some x next to 0 alike). np.sort and np.searchsorted would
# map 0.2-0.25 MB more of numpy into memory, so the ascending copy, from
# which bisection takes the grid neighbours of a point, is sorted in Python
_UNIT_H = np.geomspace(_H_SPAN, 1.0, DEFAULT_H_POINTS)
_XS = default_x_grid()
_EDGE = np.geomspace(_EDGE_SPAN, 0.5, _EDGE_POINTS)
_MIRROR = 1.0 - _EDGE[-2::-1]  # ascending, without 1/2
_SIGNED_XS = np.concatenate([_XS[1:-1], _EDGE, _MIRROR[np.diff(_MIRROR, append=1.0) > 0]])
_SORTED_XS = np.array(sorted(_SIGNED_XS.tolist()))
_UNIT_H.flags.writeable = _XS.flags.writeable = False
_SIGNED_XS.flags.writeable = _SORTED_XS.flags.writeable = False


def _aligned_point(k: int, lam: float, t: float) -> tuple[float, float] | None:
    """The x in (0, 1/2) with x = (k t/2) phi^lam(x), where the leftmost node
    of the k-th difference of step bound t sits on 0, and its step t
    phi^lam(x), or None where t has no such point.  The root is rounded to
    x = (k/2) step, so the outer node x - (k/2) step is exactly 0 (mirror:
    1 - x + (k/2) step is exactly 1)."""
    t = float(t)
    c = k * t / 2.0
    # no point for k = 0, t <= 0, a k t/2 that rounds to 0, inf or nan
    if lam >= 2 or not 0 < c < inf:
        return None
    # in u = ln x, g(u) = a u - b ln(1 - e^u) - ln c is convex and
    # increasing; a root below u = -ln 2 exists iff g(-ln 2) > 0
    a, b, log_c = 1.0 - lam / 2.0, lam / 2.0, log(c)
    if not (b - a) * _LN2 > log_c:
        return None
    lo = (log_c - b * _LN2) / a  # g(lo) <= 0, since -b ln(1 - x) <= b ln 2
    u = hi = min(log_c / a, -_LN2)  # g(hi) >= 0, since -b ln(1 - x) >= 0
    for _ in range(_ALIGN_STEPS):
        x = exp(u)
        g = a * u - b * log1p(-x) - log_c
        nxt = u - g / (a + b * x / (1.0 - x))
        if g < 0:
            lo = u
        elif g > 0:
            hi = u
        if not lo <= nxt <= hi:  # Newton, safeguarded by bisection
            nxt = (lo + hi) / 2.0
        converged = abs(nxt - u) <= 1e-15 * abs(u)
        u = nxt
        if converged:
            break
    xu = exp(u)
    step = t * (xu * (1.0 - xu)) ** (lam / 2.0)
    x = (k / 2.0) * step
    return (x, step) if 0 < x < 0.5 else None


def _boundary_aligned_points(k: int, lam: float, hs) -> tuple[np.ndarray, np.ndarray]:
    """For each step bound h, _aligned_point's x, its mirror 1 - x and their
    common step: arrays of shape (len(hs), 2), nan where h has no point."""
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    nan = (np.nan, np.nan)
    x, step = np.array([_aligned_point(k, lam, h) or nan for h in hs.tolist()]).reshape(-1, 2).T
    return np.stack([x, 1.0 - x], axis=1), np.stack([step, step], axis=1)


def _sym_diff_grid(f, k: int, deltas, xs) -> np.ndarray:
    """Delta^k_delta(f, x) = sum_i (-1)^(k-i) C(k,i) f(x + (i - k/2) delta)
    for steps deltas of any shape that broadcasts against the points xs; a
    difference with delta <= 0 or a node outside [0,1] is 0.  All nodes go to
    f in one call, one contiguous row per i."""
    deltas, xs = np.broadcast_arrays(np.asarray(deltas, dtype=float), xs)
    nodes = np.multiply.outer([i - k / 2.0 for i in range(k + 1)], deltas) + xs
    # rows 0 and -1 hold the outer nodes x -+ (k/2) delta
    invalid = (deltas <= 0) | (nodes[0] < -1e-15) | (nodes[-1] > 1.0 + 1e-15)
    np.clip(nodes, 0.0, 1.0, out=nodes)
    rows = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    out = (-1) ** k * rows[0]  # the sum starts from its first term
    for i in range(1, k + 1):
        sign = (-1) ** (k - i) * comb(k, i)
        out += rows[i] if sign == 1 else sign * rows[i]
    out[invalid] = 0.0
    return out


def check_order(k: int, lam: float) -> None:
    """RegimeError unless k >= 0 and lam lies in [0,2] (NaN does not)."""
    if k < 0:
        raise RegimeError("k must be >= 0")
    if not 0 <= lam <= 2:
        raise RegimeError("lambda must lie in [0,2]")


def modulus_sweep(f, k: int, lam: float, hs) -> tuple[np.ndarray, np.ndarray]:
    """For each step bound h in hs, max_x |Delta^k_{h phi^lam(x)}(f, x)| over
    default_x_grid() and the boundary-aligned points, and the first x that
    attains it (grid points before the aligned points); RegimeError for
    k < 0, lam outside [0,2] or a step bound that is not finite."""
    check_order(k, lam)
    hs = np.asarray(hs, dtype=float)
    bad = hs[~np.isfinite(hs)]
    if len(bad):  # its nodes would be NaN, where f reads what it likes
        raise RegimeError(f"step bounds must be finite, not {bad[0]}")
    xs = _XS
    w = step_weight(xs, lam)
    values, args = np.empty(len(hs)), np.empty(len(hs))
    for s in range(0, len(hs), _H_BLOCK):
        vals = np.abs(_sym_diff_grid(f, k, hs[s:s + _H_BLOCK, None] * w, xs))
        values[s:s + _H_BLOCK] = vals.max(axis=1)
        args[s:s + _H_BLOCK] = xs[vals.argmax(axis=1)]
    # endpoint-singular functions peak exactly where the outer node of the
    # difference touches 0 (mirrored: 1), which no grid point does; those
    # points come after the grid, so they win only when strictly larger
    points, steps = _boundary_aligned_points(k, lam, hs)
    has = np.flatnonzero(~np.isnan(points[:, 0]))
    if len(has):
        vals = np.abs(_sym_diff_grid(f, k, steps[has], points[has]))
        j = np.argmax(vals, axis=1)
        best = vals[np.arange(len(j)), j]
        wins = best > values[has]
        values[has[wins]] = best[wins]
        args[has[wins]] = points[has[wins], j[wins]]
    return values, args


def declared_sign(f, k: int) -> int | None:
    """The sign f declares for f^(k) on (0,1), +1 or -1, or None: from its
    ``derivative_signs``, which a plain callable does not have."""
    return getattr(f, "derivative_signs", {}).get(k)


def _largest_steps(xs, k: int, lam: float, t: float) -> np.ndarray:
    """delta(x) = min(t phi^lam(x), 2x/k, 2(1-x)/k): the largest step at x
    of a k-th difference with step bound h <= t and nodes in [0,1]."""
    return np.minimum(t * step_weight(xs, lam), np.minimum(xs, 1.0 - xs) * (2.0 / k))


def _grid_neighbours(x: float) -> tuple[float, float]:
    """The largest point of _SIGNED_XS below x and the smallest above it (0
    and 1 past the ends), by bisection of its ascending copy."""
    below, above = bisect_left(_SORTED_XS, x), bisect_right(_SORTED_XS, x)
    return (_SORTED_XS[below - 1] if below else 0.0,
            _SORTED_XS[above] if above < len(_SORTED_XS) else 1.0)


def _signed_sup(f, k: int, lam: float, t: float) -> tuple[float, float, float, int]:
    """sup_x |Delta^k_{delta(x)} f(x)| for k >= 1, delta = _largest_steps:
    the value, the first x read that attains it, its step and the number of
    points read.  The points are _SIGNED_XS, then the two boundary-aligned
    points of t, read with their own steps, then _REFINE_POINTS points
    between the grid neighbours of each of the _REFINE_PEAKS largest
    values."""
    xs, deltas = _SIGNED_XS, _largest_steps(_SIGNED_XS, k, lam, t)
    aligned = _aligned_point(k, lam, t)
    if aligned is not None:
        x, step = aligned
        xs, deltas = np.concatenate([xs, [x, 1.0 - x]]), np.concatenate([deltas, [step, step]])
    values = np.abs(_sym_diff_grid(f, k, deltas, xs))
    rest, around = values.copy(), []
    for _ in range(_REFINE_PEAKS):  # no partial sort: it maps 0.13 MB more
        j = np.argmax(rest)
        rest[j] = -1.0
        around.append(_grid_neighbours(xs[j]))
    lo, hi = zip(*around)
    fine = np.linspace(lo, hi, _REFINE_POINTS, axis=1).ravel()
    fine_deltas = _largest_steps(fine, k, lam, t)
    fine_values = np.abs(_sym_diff_grid(f, k, fine_deltas, fine))
    size = len(xs) + len(fine)
    # the first maximum over both reads (the first NaN, if any), as one
    # argmax over their concatenation takes it: the grid's on a tie
    j, i = int(np.argmax(values)), int(np.argmax(fine_values))
    value, fine_value = float(values[j]), float(fine_values[i])
    if not isnan(value) and not fine_value <= value:
        return fine_value, float(fine[i]), float(fine_deltas[i]), size
    return value, float(xs[j]), float(deltas[j]), size


def omega_dt(f, k: int, lam: float, t: float) -> ModulusEstimate:
    """Weighted modulus sup_{0<h<=t} max_x |Delta^k_{h phi^lam(x)}(f, x)|
    at t' = min(t, h*), h* = 2^lam/k the largest step that admits a
    difference (t' = t for k = 0).  On the signed route (k >= 1 and a
    declared sign of f^(k)) it is _signed_sup at t', with argmax_h the step
    bound delta(x)/phi^lam(x) of its argument and no h grid; otherwise it
    is the first maximum of modulus_sweep over default_h_grid(t').
    RegimeError for a t that is not finite and positive, and for k and lam
    as in modulus_sweep, checked before h* is formed."""
    check_order(k, lam)
    if not np.isfinite(t):
        raise RegimeError(f"t must be finite, not {t}")
    if t <= 0:
        raise RegimeError("t must be positive")
    # no step above 2^lam/k admits a difference
    top = min(t, 2.0**lam / k) if k else t
    if k and declared_sign(f, k) is not None:
        value, x, step, size = _signed_sup(f, k, lam, top)
        return ModulusEstimate(k=k, lam=float(lam), t=float(t), value=value, h_grid_size=0,
                               x_grid_size=size, argmax_h=step / float(step_weight(x, lam)),
                               argmax_x=x, route="signed")
    hs = default_h_grid(top)
    values, args = modulus_sweep(f, k, lam, hs)
    j = int(np.argmax(values))
    return ModulusEstimate(
        k=k,
        lam=float(lam),
        t=float(t),
        value=float(values[j]),
        h_grid_size=len(hs),
        x_grid_size=DEFAULT_X_POINTS,
        argmax_h=float(hs[j]),
        argmax_x=float(args[j]),
        route="sweep",
    )


def omega(f, k: int, t: float) -> ModulusEstimate:
    """Classical modulus of smoothness (lambda = 0)."""
    return omega_dt(f, k, 0.0, t)
