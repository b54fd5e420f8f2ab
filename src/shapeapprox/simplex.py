"""Small linear programs, solved by the HiGHS dual simplex.

Solves   minimize c.x   subject to  A x <= b,  x >= 0
with ``scipy.optimize.linprog(method="highs-ds")`` (Huangfu & Hall,
Math. Prog. Comp. 2018).  The primal and dual feasibility tolerances are
tightened from HiGHS's 1e-7 to 1e-10 for the one program solved here, the
shape-constrained minimax problem of ``best_approx.best_qmonotone``: its
errors on O(1) data reach 1e-5 (``truncpow:0.5:3`` at n = 30), within two
decades of the default tolerances.  The unconstrained problem needs no LP;
``best_approx`` solves it by exchange.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

FEASIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    value: float
    iterations: int
    status: str  # "optimal"


def solve_lp(c, A, b) -> SimplexResult:
    """Optimal vertex of min c.x s.t. A x <= b, x >= 0; SolverError when the
    program is infeasible or unbounded, or HiGHS stops short of an optimum."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    from scipy.optimize import linprog  # imported here: commands without an LP load no scipy

    res = linprog(
        c, A_ub=A, b_ub=b, bounds=(0, None), method="highs-ds",
        options={"primal_feasibility_tolerance": FEASIBILITY_TOL,
                 "dual_feasibility_tolerance": FEASIBILITY_TOL},
    )
    if res.status != 0:
        raise SolverError(f"linear program not solved: {res.message}")
    return SimplexResult(x=res.x, value=float(res.fun), iterations=int(res.nit),
                         status="optimal")
