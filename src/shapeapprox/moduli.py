"""Classical and weighted moduli of smoothness on [0,1].

The step weight is phi(x)^lambda with phi(x) = sqrt(x(1-x)); lambda = 0
recovers the classical modulus.  Suprema are approximated over finite grids
(64 geometric h-points; 1025 Chebyshev-distributed x-points plus, for each h,
the points where a node of the difference meets an endpoint), so every
estimate is a lower bound of the true supremum; the grid sizes are recorded
in the result.  ``modulus_sweep`` is the one sweep behind every estimate.

One kernel, ``_sym_diff_grid``, forms every difference, here and in the
function shape check: centred nodes x + (i - k/2) delta, all sent to f in one
call, and for even k the signed centre term passed in, so a sweep forms it
once.  The sweep takes the step bounds in blocks of 8 and runs the kernel in
place, in node and sum buffers that it allocates once; the sum starts from
its first term, and the mask and the absolute value are taken in place.  The
nodes x + o h w(x) move monotonically with h, also under rounding, so when
a block's largest step keeps both outer node rows inside [0,1] every row of
the block stays inside: that block skips the clip and the range masks, and
only the steps delta <= 0 are masked.  The aligned points of all h come
from one bracketed Newton solve and are read in one more kernel call, with
the outer node exactly on the endpoint.

No step above h* = 2^lambda/k admits a k-th difference (x = 1/2 is the most
interior point for lambda <= 2), so omega(t) = omega(h*) for t >= h*, and
``omega_dt`` sweeps (0, min(t, h*)].
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import RegimeError

DEFAULT_H_POINTS = 64
DEFAULT_X_POINTS = 1025
_H_SPAN = 2.0**-16  # smallest h is t * _H_SPAN
# step bounds per kernel call. Timed on the 12 omega_dt(f, 2, 1, 1/n) calls of
# the minimax panel (2-vCPU x86-64, medians of 60): 4 and 16 took 1.15x and
# 1.55x as long as 8 (16.8 and 22.9 ms against 14.8 ms)
_H_BLOCK = 8
_ALIGN_STEPS = 60  # cap on the safeguarded Newton steps of the aligned points
_LN2 = np.log(2.0)


def step_weight(x, lam: float):
    """phi^lambda(x) = (x(1-x))^(lambda/2)."""
    x = np.asarray(x, dtype=float)
    return (x * (1.0 - x)) ** (lam / 2.0)


@dataclass(frozen=True)
class ModulusEstimate:
    k: int
    lam: float
    t: float
    value: float
    h_grid_size: int
    x_grid_size: int
    argmax_h: float
    argmax_x: float


def default_h_grid(t: float) -> np.ndarray:
    """Geometric grid of step bounds in (0, t], largest point exactly t."""
    if t <= 0:
        raise RegimeError("t must be positive")
    return t * _UNIT_H


def default_x_grid(size: int = DEFAULT_X_POINTS) -> np.ndarray:
    """Chebyshev-distributed points on [0,1] (clustered at the endpoints)."""
    j = np.arange(size)
    return (1.0 - np.cos(np.pi * j / (size - 1))) / 2.0


# the grids every sweep reads, formed once; read-only
_UNIT_H = np.geomspace(_H_SPAN, 1.0, DEFAULT_H_POINTS)
_XS = default_x_grid()
_UNIT_H.flags.writeable = _XS.flags.writeable = False


def _boundary_aligned_points(k: int, lam: float, hs) -> tuple[np.ndarray, np.ndarray]:
    """For each step bound h, the x in (0, 1/2) with x = (k h/2) phi^lam(x),
    where the leftmost node of the k-th difference sits on 0, its mirror
    1 - x, and their common step h phi^lam(x): arrays of shape (len(hs), 2),
    nan where h has no such point.  The root is rounded to x = (k/2) step, so
    the outer node x - (k/2) step is exactly 0 (mirror: 1 - x + (k/2) step
    is exactly 1)."""
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    points = np.full((len(hs), 2), np.nan)
    steps = np.full((len(hs), 2), np.nan)
    if k == 0 or lam >= 2:
        return points, steps
    # in u = ln x the equation is g(u) = a u - b ln(1 - e^u) - ln c = 0, g
    # convex and increasing; a root below u = -ln 2 exists iff g(-ln 2) > 0
    a, b = 1.0 - lam / 2.0, lam / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.log(k * hs / 2.0)
    # -inf where k h/2 rounds to 0, nan for h < 0: no point
    has = np.flatnonzero(np.isfinite(log_c) & ((b - a) * _LN2 > log_c))
    log_c = log_c[has]
    lo = (log_c - b * _LN2) / a  # g(lo) <= 0, since -b ln(1 - x) <= b ln 2
    hi = np.minimum(log_c / a, -_LN2)  # g(hi) >= 0, since -b ln(1 - x) >= 0
    u = hi.copy()
    for _ in range(_ALIGN_STEPS):
        x = np.exp(u)
        g = a * u - b * np.log1p(-x) - log_c
        lo = np.where(g < 0, u, lo)
        hi = np.where(g > 0, u, hi)
        nxt = u - g / (a + b * x / (1.0 - x))  # Newton, safeguarded by bisection
        nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, (lo + hi) / 2.0)
        converged = np.all(np.abs(nxt - u) <= 1e-15 * np.abs(u))
        u = nxt
        if converged:
            break
    step = hs[has] * step_weight(np.exp(u), lam)
    x = (k / 2.0) * step
    ok = (0 < x) & (x < 0.5)
    has, x, step = has[ok], x[ok], step[ok]
    points[has] = np.stack([x, 1.0 - x], axis=1)
    steps[has] = step[:, None]
    return points, steps


def _centre_term(k: int, fx) -> np.ndarray:
    """The centre term (-1)^(k/2) C(k, k/2) f(x) of a difference of even
    order k >= 2, from the values fx = f(x): the ``centre`` of
    _sym_diff_grid."""
    return (-1) ** (k // 2) * comb(k, k // 2) * np.asarray(fx, dtype=float)


def _sym_diff_grid(f, k: int, deltas, xs, centre=None, buffers=None, widest=None
                   ) -> np.ndarray:
    """Delta^k_delta(f, x) = sum_i (-1)^(k-i) C(k,i) f(x + (i - k/2) delta)
    for steps deltas of any shape that broadcasts against the points xs; a
    difference with delta <= 0 or a node outside [0,1] is 0.  All nodes go to
    f in one call, one contiguous row per i; for even k >= 2 the centre term
    may be passed in (``_centre_term``), and f(xs) is then not evaluated.
    ``buffers`` are optional caller-owned arrays (nodes, out) of shapes
    (number of nodes sent to f per point, *shape) and shape; the result is
    then ``out``, which the next call overwrites.  ``widest`` says that
    deltas is 2-D with rows h w for steps h >= 0 and one weight w, and
    names the row of the largest h: when its outer nodes lie in [0,1], so
    do every row's, and only the steps delta <= 0 are masked."""
    deltas = np.asarray(deltas, dtype=float)
    shape = np.broadcast_shapes(deltas.shape, np.shape(xs))
    if deltas.shape != shape:
        deltas = np.broadcast_to(deltas, shape)
    signs = [(-1) ** (k - i) * comb(k, i) for i in range(k + 1)]
    offsets = [i - k / 2.0 for i in range(k + 1) if centre is None or 2 * i != k]
    nodes, out = buffers or (np.empty((len(offsets),) + shape), np.empty(shape))
    np.multiply.outer(offsets, deltas, out=nodes)
    nodes += xs
    # rows 0 and -1 hold the outer nodes x -+ (k/2) delta
    if widest is not None and nodes[0, widest].min() >= 0 and nodes[-1, widest].max() <= 1:
        invalid = deltas <= 0
    else:
        invalid = (deltas <= 0) | (nodes[0] < -1e-15) | (nodes[-1] > 1.0 + 1e-15)
        np.clip(nodes, 0.0, 1.0, out=nodes)
    rows = list(np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape))
    if centre is not None:
        rows.insert(k // 2, centre)
        signs[k // 2] = 1
    np.multiply(rows[0], signs[0], out=out)  # the sum starts from its first term
    for sign, row in zip(signs[1:], rows[1:]):
        out += row if sign == 1 else sign * row
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
    k < 0 or lam outside [0,2]."""
    check_order(k, lam)
    hs = np.asarray(hs, dtype=float)
    xs = _XS
    w = step_weight(xs, lam)
    centre = _centre_term(k, f(xs)) if k and k % 2 == 0 else None
    block = (_H_BLOCK, len(xs))
    buffers = np.empty((k + (centre is None),) + block), np.empty(block)
    values, args = np.empty(len(hs)), np.empty(len(hs))
    for s in range(0, len(hs), _H_BLOCK):
        b = min(_H_BLOCK, len(hs) - s)
        h = hs[s:s + b]
        # the largest step bounds every row's nodes for steps h >= 0
        widest = h.argmax() if h.min() >= 0 else None  # None for a nan h
        vals = _sym_diff_grid(f, k, h[:, None] * w, xs, centre,
                              (buffers[0][:, :b], buffers[1][:b]), widest)
        np.abs(vals, out=vals)
        values[s:s + b] = vals.max(axis=1)
        args[s:s + b] = xs[vals.argmax(axis=1)]
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


def omega_dt(f, k: int, lam: float, t: float) -> ModulusEstimate:
    """Weighted modulus sup_{0<h<=t} max_x |Delta^k_{h phi^lam(x)}(f, x)|,
    the first maximum of modulus_sweep over default_h_grid(min(t, h*)),
    h* = 2^lam/k the largest step that admits a difference (t for k = 0);
    RegimeError for a t that is not finite and positive, and for k and lam
    as in modulus_sweep, checked before h* is formed."""
    check_order(k, lam)
    if not np.isfinite(t):
        raise RegimeError(f"t must be finite, not {t}")
    # no step above 2^lam/k admits a difference
    hs = default_h_grid(min(t, 2.0**lam / k) if k else t)  # raises for t <= 0
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
    )


def omega(f, k: int, t: float) -> ModulusEstimate:
    """Classical modulus of smoothness (lambda = 0)."""
    return omega_dt(f, k, 0.0, t)
