"""min over a of max_i |f_i - (V a)_i|, optionally subject to R a >= 0, by
one dense dual simplex in two stages.

This is a linear program in (a, t) with error rows s (f_i - V_i a) <= t,
s = +-1, and shape rows R_j a >= 0.  A basis is n + 2 rows whose multipliers
y = G_B^{-T} e_t are nonnegative; its levelled value t is then a lower bound
on the optimum (weak duality).  On the error rows alone the Haar condition
makes every alternating reference such a basis, and ``exchange`` moves the
whole reference at once to the peaks of the residual's sign runs, as Remez's
algorithm does on a grid (Pachon & Trefethen, BIT 49, 2009), with Stiefel's
one-point exchange (Numer. Math. 1, 1959), a dual simplex step, where the
residual has too few sign runs; it returns its last reference.
``dual_simplex`` lets shape rows enter that basis one at a time (Barrodale &
Phillips, ACM TOMS Alg. 495, 1975), on an inverse kept by rank-one updates
(the product form of Dantzig & Orchard-Hays, MTAC 8, 1954).  Every row is
searched as given, and the search stops once the violations left are
roundoff.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SolverError

# the exchange took at most 13 steps, and 1 per reference node, on seven
# catalog functions up to n = 100 at N = max(257, 4(n+1)) and N = 8193 (the
# one-point exchange alone took up to 3.5 per node); the bound only stops a
# runaway
_MAX_EXCHANGE_STEPS_PER_NODE = 20
# the dual simplex took at most 3.8 steps per row (N sample nodes plus the
# shape rows) on five catalog functions, q <= 4, n <= 40, m = 512 (1.8 at
# m = 1024), but 4.4 on truncpow:0.5:3, q = 3 at n = 60 and 19.9 at n = 100
# (m = 1024): a runaway stop too, which a solvable problem nears at n = 100
_MAX_SIMPLEX_STEPS_PER_ROW = 20
_ROUNDOFF = 1e-15  # violations up to this fraction of max|f| are roundoff


class Reference(NamedTuple):
    """The exchange's last basis: the residual at sample node rows[i] is
    signs[i] h, after ``steps`` exchange steps."""

    rows: np.ndarray
    signs: np.ndarray
    steps: int


def _peaks(r, absr, j, size):
    """The reference of a multi-point exchange, or None when r has fewer
    than ``size`` sign runs: the first node reaching each run's largest |r|,
    trimmed from its ends to ``size`` nodes, each time at the end with the
    smaller |r| unless that end is the argmax j."""
    positive = r > 0
    starts = np.flatnonzero(positive[1:] != positive[:-1]) + 1  # of every run but the first
    if len(starts) + 1 < size:
        return None
    run = np.zeros(len(r), dtype=int)
    run[starts] = 1
    run = run.cumsum()
    peak = np.maximum.reduceat(absr, np.concatenate(([0], starts)))
    hit = np.flatnonzero(absr == peak[run])
    nodes = hit[np.concatenate(([True], run[hit[1:]] != run[hit[:-1]]))]
    lo, hi = 0, len(nodes) - 1
    while hi - lo >= size:
        if nodes[hi] == j or (nodes[lo] != j and absr[nodes[lo]] < absr[nodes[hi]]):
            lo += 1
        else:
            hi -= 1
    return nodes[lo:hi + 1]


def exchange(fvals, V):
    """(a, grid error, dual bound, reference) for min over a of
    max|fvals - V a|; the bound is the highest levelled value reached,
    capped at the grid error.

    Each step levels the residual on the reference.  When the residual has
    at least n + 2 sign runs, the whole reference moves to their peaks (a
    multi-point, Remez-type exchange); otherwise the grid's argmax enters
    it with alternating signs (Stiefel's one-point exchange).  The exchange
    stops once |h| reaches the grid error, the argmax is already a node, or
    |h| stops rising (at roundoff), so no reference is solved twice; the
    iterate with the smallest grid error is returned, with the last
    reference."""
    N, k = V.shape
    ref = np.round(np.linspace(0, N - 1, k + 1)).astype(int)  # the grid is Chebyshev-distributed
    alt = (-1.0) ** np.arange(k + 1)
    best_a, best_err, last_h = None, np.inf, -1.0
    for step in range(1, _MAX_EXCHANGE_STEPS_PER_NODE * (k + 1) + 1):
        try:
            sol = np.linalg.solve(np.column_stack([V[ref], alt]), fvals[ref])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular exchange reference: {exc}") from None
        a, h = sol[:-1], abs(sol[-1])
        r = fvals - V @ a
        absr = np.abs(r)
        j = int(np.argmax(absr))
        err = float(absr[j])
        if err < best_err:
            best_a, best_err = a, err
        if err <= h or j in ref or h <= last_h:
            break
        last_h = h
        peaks = _peaks(r, absr, j, k + 1)
        if peaks is not None:
            ref = peaks
            continue
        # j replaces the neighbour whose residual has its sign, or enters at
        # an end of the reference and pushes out the node at the other end
        same = (np.copysign(1.0, sol[-1]) * alt > 0) == (r[j] > 0)
        pos = int(np.searchsorted(ref, j))
        if pos == 0 and not same[0]:
            ref = np.concatenate([[j], ref[:-1]])
        elif pos == k + 1 and not same[-1]:
            ref = np.concatenate([ref[1:], [j]])
        else:
            ref[pos - 1 if pos == k + 1 or (pos > 0 and same[pos - 1]) else pos] = j
    else:
        raise SolverError(f"exchange did not converge in {step} steps")
    bound = min(max(h, last_h), best_err)
    return best_a, best_err, bound, Reference(ref, np.copysign(1.0, sol[-1]) * alt, step)


def dual_simplex(fvals, V, R, ref: Reference):
    """(a, grid error, dual bound, steps) for min over a of max|fvals - V a|
    subject to R a >= 0, continued from the exchange's reference ``ref``;
    the bound is the last levelled value, capped at the grid error.

    Each step prices the error and shape rows with one product, lets the
    most violated row enter, and picks the leaving row by the ratio test on
    y, with ties broken by the lexicographic rule on the columns of
    G_B^{-1}, which cannot cycle.  G_B^{-1} takes a rank-one update per step
    and is formed afresh every n + 2 updates, before a stop is accepted and
    before an entering row with no positive w is taken for infeasibility.
    The search stops once no row is violated by more than _ROUNDOFF max|f|:
    neighbouring shape rows are nearly parallel, and rows violated by
    roundoff alone would enter and leave in turn.  The final basis is
    solved once more, with one step of iterative refinement."""
    N, k = V.shape
    A = np.vstack([V, R])  # error row i < N, shape row N + j
    At = np.column_stack([A, np.r_[np.ones(N), np.zeros(len(R))]])  # with the t column
    rows = ref.rows.copy()
    G = np.column_stack([ref.signs[:, None] * V[rows], np.ones(k + 1)])
    g = ref.signs * fvals[rows]
    stop = _ROUNDOFF * np.max(np.abs(fvals))
    z, neg_a, viol, r = np.empty(k + 1), np.empty(k), np.empty(len(A)), np.empty(N)
    row, w, col, outer = np.empty(k + 1), np.empty(k + 1), np.empty(k + 1), np.empty((k + 1, k + 1))

    def price(Binv):
        np.matmul(Binv, g, out=z)
        np.matmul(A, np.negative(z[:k], out=neg_a), out=viol)  # -(R a) on the shape rows
        np.add(viol[:N], fvals, out=r)
        np.subtract(np.abs(r, out=viol[:N]), z[k], out=viol[:N])
        viol[rows] = -np.inf
        e = int(viol.argmax())
        return viol[e], e

    Binv, updates = np.linalg.inv(G), 0
    for step in range(1, _MAX_SIMPLEX_STEPS_PER_ROW * len(A) + 1):
        worst, e = price(Binv)
        if worst <= stop and updates:  # decide a stop on a fresh inverse
            Binv, updates = np.linalg.inv(G), 0
            worst, e = price(Binv)
        if worst <= stop:
            break
        if e < N:
            s = math.copysign(1.0, r[e])
            np.multiply(At[e], s, out=row)
            row[k], rhs = 1.0, s * fvals[e]
        else:
            row[:], rhs = At[e], 0.0
        np.matmul(row, Binv, out=w)  # the entering row in terms of the basis rows
        pos = (w > 0).nonzero()[0]
        if not len(pos) and updates:  # decide infeasibility on a fresh inverse
            Binv, updates = np.linalg.inv(G), 0
            continue
        if not len(pos):
            raise SolverError("shape constraints are infeasible")
        ratios = Binv[k, pos] / w[pos]  # y_l / w_l, with y = G_B^{-T} e_t
        ties = pos[ratios == ratios.min()]
        l = ties[0] if len(ties) == 1 else min(ties, key=lambda c: tuple(Binv[:k, c] / w[c]))
        rows[l], G[l], g[l] = e, row, rhs
        updates += 1
        if updates == k + 1:
            Binv, updates = np.linalg.inv(G), 0
        else:  # row l of G_B became w G_B: G_B^{-1} -= (column l / w_l)(w - e_l)
            np.divide(Binv[:, l], w[l], out=col)
            w[l] -= 1.0
            Binv -= np.multiply(col[:, None], w, out=outer)
    else:
        raise SolverError(f"dual simplex did not converge in {step} steps")
    z = np.linalg.solve(G, g)
    z += np.linalg.solve(G, g - G @ z)  # one step of refinement
    err = float(np.max(np.abs(fvals - V @ z[:-1])))
    return z[:-1], err, min(float(z[-1]), err), step
