"""min over a of max_i |f_i - (V a)_i|, optionally subject to R a >= 0, by
one dense dual simplex.

This is a linear program in (a, t) with error rows s (f_i - V_i a) <= t,
s = +-1, and shape rows R_j a >= 0.  A basis is n + 2 rows whose multipliers
y = G_B^{-T} e_t are nonnegative; its levelled value t is then a lower bound
on the optimum (weak duality).  Stiefel's exchange (Numer. Math. 1, 1959) is
this method on the error rows, where the Haar condition makes every
alternating reference such a basis; shape rows enter the same way
(Barrodale & Phillips, ACM TOMS Alg. 495, 1975).  Every row is searched as
given, and the search stops once the violations left are roundoff.
"""
from __future__ import annotations

import numpy as np

from .errors import SolverError

# the exchange took at most 3.5 steps per reference node on catalog
# functions up to n = 100 and N = 8193; the bound only stops a runaway
_MAX_EXCHANGE_STEPS_PER_NODE = 20
# the dual simplex took at most 3.9 steps per row (N sample nodes plus the
# shape rows) on five catalog functions, q <= 4, n <= 40, m = 512 (1.9 at
# m = 1024): a runaway stop too
_MAX_SIMPLEX_STEPS_PER_ROW = 20
_ROUNDOFF = 1e-15  # violations up to this fraction of max|f| are roundoff


def minimax(fvals, V, R=None):
    """(a, grid error, dual bound, steps); the bound is the highest levelled
    value reached, capped at the grid error.

    The exchange puts the grid's argmax into the reference with alternating
    signs, which raises |h|, until |h| stops rising at roundoff; without R,
    the iterate with the smallest grid error is returned.  With R, the most
    violated row enters the exchange's last basis and the ratio test on y
    picks the leaving row, with ties broken by the lexicographic rule on the
    columns of G_B^{-1}, which cannot cycle.  The search stops once no row
    is violated by more than _ROUNDOFF max|f|: neighbouring shape rows are
    nearly parallel, and rows violated by roundoff alone would enter and
    leave in turn.  The final basis is solved once more, with one step of
    iterative refinement."""
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
        j = int(np.argmax(np.abs(r)))
        err = abs(float(r[j]))
        if err < best_err:
            best_a, best_err = a, err
        if err <= h or j in ref or h <= last_h:
            break
        last_h = h
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
    if R is None:
        return best_a, best_err, min(max(h, last_h), best_err), step

    sign = np.copysign(1.0, sol[-1]) * alt
    rows = ref.copy()  # basis rows: error row i < N, shape row N + j
    G = np.column_stack([sign[:, None] * V[ref], np.ones(k + 1)])
    g = sign * fvals[ref]
    stop = _ROUNDOFF * np.max(np.abs(fvals))
    for step in range(step + 1, step + _MAX_SIMPLEX_STEPS_PER_ROW * (N + len(R)) + 1):
        Binv = np.linalg.inv(G)
        z = Binv @ g
        r = fvals - V @ z[:-1]
        viol_err, viol_shape = np.abs(r) - z[-1], -(R @ z[:-1])
        viol_err[rows[rows < N]] = viol_shape[rows[rows >= N] - N] = -np.inf
        i, j = int(np.argmax(viol_err)), int(np.argmax(viol_shape))
        if max(viol_err[i], viol_shape[j]) <= stop:
            break
        if viol_err[i] >= viol_shape[j]:
            s = np.copysign(1.0, r[i])
            row, rhs, enter = np.append(s * V[i], 1.0), s * fvals[i], i
        else:
            row, rhs, enter = np.append(R[j], 0.0), 0.0, N + j
        w = row @ Binv  # the entering row in terms of the basis rows
        pos = np.flatnonzero(w > 0)
        if not len(pos):
            raise SolverError("shape constraints are infeasible")
        ratios = Binv[k, pos] / w[pos]  # y_l / w_l, with y = G_B^{-T} e_t
        l = min(pos[ratios == ratios.min()], key=lambda c: tuple(Binv[:k, c] / w[c]))
        rows[l], G[l], g[l] = enter, row, rhs
    else:
        raise SolverError(f"dual simplex did not converge in {step} steps")
    z = np.linalg.solve(G, g)
    z += np.linalg.solve(G, g - G @ z)  # one step of refinement
    err = float(np.max(np.abs(fvals - V @ z[:-1])))
    return z[:-1], err, min(float(z[-1]), err), step
