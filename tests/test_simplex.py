"""The LP solver behind best_approx (HiGHS dual simplex)."""
import numpy as np
import pytest

from shapeapprox import SolverError, solve_lp


def test_basic_lp():
    # max x+y s.t. x+2y<=4, 3x+y<=6  ->  min -(x+y)
    res = solve_lp([-1, -1], [[1, 2], [3, 1]], [4, 6])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-(8 / 5 + 6 / 5))
    assert np.allclose(res.x, [8 / 5, 6 / 5])


def test_negative_rhs_phase1():
    # x >= 2 encoded as -x <= -2; minimize x
    res = solve_lp([1.0], [[-1.0]], [-2.0])
    assert res.x[0] == pytest.approx(2.0)


def test_infeasible():
    # x <= 1 and x >= 3
    with pytest.raises(SolverError):
        solve_lp([1.0], [[1.0], [-1.0]], [1.0, -3.0])


def test_unbounded():
    with pytest.raises(SolverError):
        solve_lp([-1.0], [[-1.0]], [0.0])


def test_degenerate_ties():
    # multiple redundant constraints through the same vertex
    A = [[1, 0], [1, 0], [1, 1], [0, 1]]
    b = [1, 1, 2, 1]
    res = solve_lp([-1, -1], A, b)
    assert res.value == pytest.approx(-2.0)


def test_random_lps_against_brute_force_vertices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 3, 7
        A = rng.normal(size=(m, n))
        A[-1] = 1.0  # sum(x) <= b[-1] keeps the polytope bounded
        b = rng.uniform(0.5, 2.0, size=m)  # origin feasible
        c = rng.normal(size=n)
        res = solve_lp(c, A, b)
        # brute force: enumerate basic feasible points of {Ax<=b, x>=0}
        import itertools

        best = 0.0  # origin
        G = np.vstack([A, -np.eye(n)])
        h = np.concatenate([b, np.zeros(n)])
        for rows in itertools.combinations(range(m + n), n):
            sub = G[list(rows)]
            if abs(np.linalg.det(sub)) < 1e-9:
                continue
            x = np.linalg.solve(sub, h[list(rows)])
            if np.all(G @ x <= h + 1e-9):
                best = min(best, float(c @ x))
        assert res.value == pytest.approx(best, abs=1e-7)
