"""Discretized best uniform / best q-monotone approximation."""
import hashlib
import subprocess
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.optimize import linprog

from shapeapprox import (
    ExpFunction,
    PolyFunction,
    Polynomial,
    TruncatedPowerFunction,
    best_approx,
    best_qmonotone,
    best_uniform,
    catalog,
    linear,
    monomial,
)
from shapeapprox.best_approx import _sample, _shape_rows, equioscillation_count
from shapeapprox.errors import RegimeError
from shapeapprox.polynomial import _chebyshev_ints, _reconstruct, bernstein_elevation
from shapeapprox.shape import check_k_monotone_poly
from shapeapprox.simplex import _peaks, dual_simplex, exchange
from shapeapprox.special import chebyshev_T

import oracles
from oracles import bernstein_coeffs, compose, fractions, jackson_ratio

EPS = 2.0 ** -52
ORACLE_FUNCTIONS = ("exp", "truncpow:0.5:3", "xeps:0.5", "logeps:1e-4", "truncpow:0.3:1")
# exp, the fifth function of the panel, has no binding case
BINDING_FUNCTIONS = ("xeps:0.5", "xeps:0.25", "truncpow:0.5:3", "logeps:1e-4")


def _linprog_minimax(fvals, V, R=None):
    """a minimizing max|fvals - V a|, subject to R a >= 0 when R is given,
    as one HiGHS LP in t and a = u - w (u, w >= 0) on fvals / max|fvals|,
    with feasibility tolerances tightened to 1e-10."""
    scale = float(np.max(np.abs(fvals)))
    one = np.ones((len(fvals), 1))
    A = np.vstack([np.hstack([-one, V, -V]), np.hstack([-one, -V, V])])
    b = np.concatenate([fvals, -fvals]) / scale
    if R is not None:
        A = np.vstack([A, np.hstack([np.zeros((len(R), 1)), -R, R])])
        b = np.concatenate([b, np.zeros(len(R))])
    c = np.zeros(A.shape[1])
    c[0] = 1.0
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    k = V.shape[1]
    return (res.x[1:k + 1] - res.x[k + 1:]) * scale


def _lp_minimax(fvals, V):
    """Reference for the exchange: the HiGHS LP, then the same LP on its
    residual, keeping the better grid error."""
    a = _linprog_minimax(fvals, V)
    refined = a + _linprog_minimax(fvals - V @ a, V)
    return min(float(np.max(np.abs(fvals - V @ b))) for b in (a, refined))


def test_best_linear_of_x_squared():
    res = best_uniform(monomial(2), 1)
    assert abs(res.error - 0.125) <= 1e-3
    assert res.equioscillations >= 3


def test_polynomial_approximates_itself():
    f = PolyFunction(Polynomial.monomial([1, -2, Fraction(1, 3), 5]))
    res = best_uniform(f, 3)
    assert res.error <= 1e-10
    res_c = best_qmonotone(monomial(3), 3, 5)
    assert res_c.error <= 1e-10


@pytest.mark.parametrize("solve", [
    lambda f: best_uniform(f, 19, N=10),
    lambda f: best_qmonotone(f, 3, 19, N=10),
])
def test_too_few_sample_nodes_rejected(solve):
    # 20 unknowns are not determined by 10 sample nodes, constrained or not
    with pytest.raises(ValueError, match="sample nodes"):
        solve(catalog("truncpow:0.5:3"))


@pytest.mark.parametrize("solve", [
    lambda f: best_uniform(f, 3),
    lambda f: best_qmonotone(f, 1, 3),
])
def test_non_finite_samples_rejected(solve):
    # a NaN or inf sample makes every grid error NaN or inf, so the exchange
    # kept no iterate; the first such node is named instead
    with pytest.raises(RegimeError, match=r"finite at the sample nodes: f\(0\.5061\d*\) = nan"):
        solve(lambda x: np.where(x > 0.5, np.nan, x))
    with np.errstate(divide="ignore"):
        with pytest.raises(RegimeError, match=r"f\(0\.0\) = inf"):
            solve(lambda x: 1.0 / x)


def test_equioscillation_count_smooth():
    for n in (2, 4, 6):
        res = best_uniform(ExpFunction(), n)
        assert res.equioscillations >= n + 2


def test_equioscillation_count_is_the_loop_count():
    # the vectorized count against the loop it replaced, on seeded residuals
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(200):
        error = float(rng.uniform(0.1, 2.0))
        r = rng.uniform(-error, error, int(rng.integers(1, 60)))
        # entries exactly at the level, of either sign, and exact zeros
        at = rng.random(len(r)) < 0.2
        r[at] = 0.99 * error * rng.choice([-1.0, 1.0], int(at.sum()))
        r[rng.random(len(r)) < 0.05] = 0.0
        cases.append((r, error))
        # runs of one sign: the same entries sorted, and all positive
        cases += [(np.sort(r), error), (np.abs(r), error)]
    error = 0.5
    one = np.zeros(41)
    one[17] = -0.999 * error  # a single near-extremum
    cases += [(one, error), (np.full(9, 0.98 * error), error),  # all below the level
              (np.array([0.99 * error]), error), (np.array([-0.99 * error]), error),
              (np.array([]), error), (np.array([1.0, -1.0]), 0.0), (np.array([1.0, -1.0]), -1.0)]
    for r, err in cases:
        assert equioscillation_count(r, err) == oracles.equioscillation_count(r, err), (r, err)
    assert equioscillation_count(one, error) == 1
    assert equioscillation_count(np.full(9, 0.98 * error), error) == 0
    assert equioscillation_count(np.array([1.0, -1.0]), 0.0) == 0


def test_best_monotone_constant_for_x():
    # best nondecreasing constant approximation of x is 1/2
    res = best_qmonotone(monomial(1), 1, 0)
    assert abs(res.error - 0.5) <= 1e-9


def test_constrained_dominates_unconstrained():
    f = TruncatedPowerFunction(Fraction(1, 2), 3)
    for n in (6, 10):
        eu = best_uniform(f, n).error
        ec = best_qmonotone(f, 4, n).error
        assert ec >= eu - 1e-10


def test_error_nonincreasing_in_n():
    f = ExpFunction()
    errs = [best_qmonotone(f, 2, n).error for n in (2, 3, 4, 6)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-9


def test_constraint_validation_flag():
    res = best_qmonotone(TruncatedPowerFunction(Fraction(1, 2), 3), 4, 12)
    assert res.constraint_validated
    from shapeapprox import check_k_monotone_poly

    assert check_k_monotone_poly(res.poly, 4).passed


def test_constrained_result_is_certified():
    # the shape rows are the Bernstein coefficients of p^(q) at degree
    # constraint_size - 1; their exact values must be nonnegative up to
    # 1e-10 of their max, so p^(3) >= 0 holds on all of [0,1]
    res = best_qmonotone(catalog("truncpow:0.5:3"), 3, 19, N=129, M=129)
    assert res.constraint_size > 0
    assert res.constraint_validated
    coeffs = bernstein_coeffs(npoly.polyder(fractions(res.poly.coeffs), 3), res.constraint_size - 1)
    scale = max(abs(c) for c in coeffs)
    assert min(coeffs) >= -1e-10 * scale


def test_constrained_error_nonincreasing_in_n():
    # degree-n q-monotone polynomials are degree-(n+1) ones too, so the
    # feasible sets are nested and the constrained optimum cannot rise
    f = catalog("truncpow:0.5:3")
    errs = [best_qmonotone(f, 4, n, N=129, M=129).error for n in range(4, 23)]
    for n, (a, b) in enumerate(zip(errs, errs[1:]), start=5):
        assert b <= a * (1 + 1e-9), (n, a, b)


def test_pass_within_tolerance_does_not_skip_the_solve():
    # the unconstrained optima pass their checks only within tolerance; their
    # p^(q) dip below 0, and the constrained optimum lies far above them
    res = best_qmonotone(catalog("xeps:0.5"), 2, 60)
    assert res.constraint_size > 0 and res.error >= 0.1035
    res = best_qmonotone(catalog("truncpow:0.5:3"), 4, 40, N=164, M=129)
    assert res.constraint_size > 0 and res.error >= 4e-5


def test_infeasibility_is_decided_on_a_fresh_inverse():
    # an entering row with no positive w on a rank-one-updated inverse is
    # no proof of infeasibility: here it is an artefact of the drifted
    # inverse, and p = 0 is feasible and optimal, at the error max|f| = ln(1e4)
    res = best_qmonotone(catalog("logeps:1e-4"), 0, 38, N=156, M=129)
    assert res.constraint_size > 0
    assert res.error == 9.210340371976182


def test_jackson_ratio_linear_is_zero():
    assert jackson_ratio(linear(2, 5), 2, 8) == 0.0


def test_jackson_ratio_positive_for_kink():
    r = jackson_ratio(TruncatedPowerFunction(Fraction(1, 2), 3), 4, 15)
    assert 0 < r < 10


def test_shifted_chebyshev_recurrence_matches_composition():
    T = _chebyshev_ints(40)
    # formed once per degree and shared, so no caller may write to it
    assert _chebyshev_ints(40) is T and not T.flags.writeable
    for j in range(41):
        assert list(T[:, j]) == list(compose(chebyshev_T(j).coeffs, [-1, 2])) + [0] * (40 - j)
        assert all(type(c) is int for c in T[:, j])


def test_reconstruct_matches_fraction_sum():
    # integer sum over one power-of-two denominator against a Fraction sum
    # of the exact float values times T_j(2x-1)
    rng = np.random.default_rng(5)
    for n in (0, 1, 4, 12, 19, 30):
        for _ in range(3):
            a = rng.standard_normal(n + 1) * 2.0 ** rng.integers(-60, 20, n + 1)
            a[rng.random(n + 1) < 0.2] = 0.0
            want = fractions([0])
            for j, aj in enumerate(a):
                term = compose(chebyshev_T(j).coeffs, [-1, 2]) * Fraction(float(aj))
                want = npoly.polyadd(want, term)
            assert list(_reconstruct(a).coeffs) == list(want)


@pytest.mark.parametrize("name", ORACLE_FUNCTIONS)
def test_exchange_matches_lp_oracle(name):
    # the exchange solves the discrete problem exactly: its error is the LP
    # optimum's up to a few ulps of max|f|, or below it at roundoff level
    f = catalog(name)
    cases = [(n, None) for n in range(26)] + [(n, 4 * (n + 1)) for n in (0, 1, 3, 10, 25)]
    for n, N in cases:
        res = best_uniform(f, n, N=N)
        _, fvals, V = _sample(f, n, N)
        scale = float(np.max(np.abs(fvals)))
        assert res.error <= _lp_minimax(fvals, V) + 4 * EPS * scale, (n, N)
        if res.error > 1e-13 * scale:
            assert res.equioscillations >= n + 2, (n, N, res.equioscillations)


@pytest.mark.parametrize("name", BINDING_FUNCTIONS)
def test_constrained_solve_on_binding_panel(name):
    # every (q, n) whose unconstrained optimum is not q-monotone, n = 6..19,
    # on N = max(129, 4(n+1)) nodes and m = 512; logeps at q = 0, n = 22, 25
    # and 30, and n = 19 on the default grids (N = 257, m = 1024), which are
    # degenerate (ln(x + eps) < 0 on most of [0,1], so the optimum is
    # attained at x = 0 and most multipliers vanish); truncpow at (q, n) =
    # (3, 40) and (2, 39), at the panel's largest n; and on the default
    # grids, through dozens of fresh basis inverses, truncpow at (3, 40) and
    # xeps:0.5 at (2, 60), solved although the shape check passes its
    # unconstrained optimum: the dual bound closes the gap to rounding, the
    # shape rows hold to 1e-14 of their unit max, and up to n = 19 the error
    # is the HiGHS LP's.  best_qmonotone reports simplex steps exactly where
    # the shape check fails
    f = catalog(name)
    cases = [(q, n, max(129, 4 * (n + 1)), 512) for q in range(5) for n in range(6, 20)]
    if name == "logeps:1e-4":
        cases += [(0, n, 129, 512) for n in (22, 25, 30)] + [(0, 19, 257, 1024)]
    if name == "truncpow:0.5:3":
        cases += [(q, n, 4 * (n + 1), 512) for q, n in ((3, 40), (2, 39))] + [(3, 40, 257, 1024)]
    forced = [(2, 60, 257, 1024)] if name == "xeps:0.5" else []
    solved = 0
    for q, n, N, m in cases + forced:
        N, fvals, V = _sample(f, n, N)
        _, _, _, ref = exchange(fvals, V)
        if (q, n, N, m) not in forced:
            res = best_qmonotone(f, q, n, N=N, M=m // 4 + 1)
            if not res.constraint_size:
                assert res.simplex_steps == 0 and res.iterations == ref.steps, (q, n)
                continue
        R = _shape_rows(n, q, m)
        a, err, bound, steps = dual_simplex(fvals, V, R, ref)
        assert steps > 0, (q, n)
        if (q, n, N, m) not in forced:
            assert res.simplex_steps == steps, (q, n)
        scale = float(np.max(np.abs(fvals)))
        assert err >= bound >= err * (1 - 1e-12) - 4 * EPS * scale, (q, n, err, bound)
        assert float(np.min(R @ a)) >= -1e-14, (q, n)
        if n <= 19:
            b = _linprog_minimax(fvals, V, R)
            oracle = float(np.max(np.abs(fvals - V @ b)))
            assert abs(err - oracle) <= 1e-9 * oracle, (q, n, err, oracle)
        solved += 1
    assert solved > 0


@pytest.mark.parametrize("grid", ["default", "129"])
def test_exchange_steps_are_few(grid):
    # the multi-point exchange moves the whole reference to the residual's
    # sign-run peaks, so away from the roundoff floor it needs at most 12
    # steps (10 measured); the one-point exchange took up to 67 here
    for name in ("exp", "truncpow:0.5:3", "xeps:0.5", "xeps:0.25", "logeps:1e-4"):
        f = catalog(name)
        for n in range(41):
            N, fvals, V = _sample(f, n, None if grid == "default" else max(129, 4 * (n + 1)))
            _, err, _, ref = exchange(fvals, V)
            if err > 1e-13 * float(np.max(np.abs(fvals))):
                assert ref.steps <= 12, (name, n, N, ref.steps)


def test_dual_simplex_is_pinned_bit_for_bit():
    # the 20 binding problems of the benchmark's minimax panel (n = 4, 12,
    # 19, q <= 4, N = 129, m = 512), each continued from the exchange's
    # reference: a SHA-256 over (a, error, bound, steps) pins every pivot
    # and the final solve (float64 on x86-64 with OpenBLAS)
    digest, solved = hashlib.sha256(), 0
    for name in ("exp", "truncpow:0.5:3", "xeps:0.5", "logeps:1e-4"):
        f = catalog(name)
        for q in sorted(q for q in f.known_monotone_orders if q <= 4):
            for n in (4, 12, 19):
                _, fvals, V = _sample(f, n, 129)
                a, _, _, ref = exchange(fvals, V)
                if check_k_monotone_poly(_reconstruct(a), q).passed:
                    continue
                a, err, bound, steps = dual_simplex(fvals, V, _shape_rows(n, q, 512), ref)
                digest.update(np.ascontiguousarray(a).tobytes())
                digest.update(np.array([err, bound]).tobytes())
                digest.update(str(steps).encode())
                solved += 1
    assert solved == 20
    assert digest.hexdigest() == "3186a024d03c2202784d0796a2feb65833c183c0ddab92762c5ee03ded79c532"


def test_exchange_is_pinned_bit_for_bit():
    # the 12 (f, n) problems of the benchmark's minimax panel (n = 4, 12, 19,
    # N = 129), and the default grids (N = 257) at n = 19, 40 and 60 for two
    # endpoint-singular functions: a SHA-256 over (a, error, bound, reference
    # rows, signs, steps) pins every exchange step (float64 on x86-64 with
    # OpenBLAS)
    cases = [(name, n, 129) for name in ("exp", "truncpow:0.5:3", "xeps:0.5", "logeps:1e-4")
             for n in (4, 12, 19)]
    cases += [(name, n, None) for name in ("truncpow:0.5:3", "xeps:0.5") for n in (19, 40, 60)]
    digest = hashlib.sha256()
    for name, n, N in cases:
        _, fvals, V = _sample(catalog(name), n, N)
        a, err, bound, ref = exchange(fvals, V)
        digest.update(np.ascontiguousarray(a).tobytes())
        digest.update(np.array([err, bound]).tobytes())
        digest.update(np.asarray(ref.rows, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(ref.signs, dtype=float).tobytes())
        digest.update(str(ref.steps).encode())
    assert digest.hexdigest() == "e2d948143136f4266cbe072e17f90d5e9f01e640bdebda403010c5369ff8c215"


def test_shape_rows_are_pinned_bit_for_bit():
    # the rows of the benchmark's binding minimax problems (n = 4, 12, 19,
    # q <= 4, m = 512): every bit, and C-contiguous (float64 on x86-64)
    digest = hashlib.sha256()
    for n, q in [(4, q) for q in range(4)] + [(n, q) for n in (12, 19) for q in range(5)]:
        R = _shape_rows(n, q, 512)
        digest.update(R.tobytes())
        digest.update(bytes([R.flags.c_contiguous]))
    assert digest.hexdigest() == "f64ab85244cacb54c7a82e5f953f3d7d2352533265b9bc4044d0e6a781a60029"


def test_exchange_peaks_match_a_loop_reference():
    # the multi-point exchange's new reference against one loop over the
    # residual, on seeded residuals with tied peaks, zeros and long runs
    rng = np.random.default_rng(13)
    for trial in range(3000):
        n = int(rng.integers(1, 80))
        if trial % 3 == 0:  # few distinct values: ties within and across runs
            r = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], n)
        elif trial % 3 == 1:  # long runs of one sign
            signs = np.repeat(rng.choice([-1.0, 1.0], n), rng.integers(1, 6, n))
            r = signs * rng.random(len(signs))
        else:
            r = rng.standard_normal(n)
        j, size = int(np.argmax(np.abs(r))), int(rng.integers(1, 15))
        peaks = _peaks(r, np.abs(r), j, size)
        want = oracles.exchange_peaks(r, j, size)
        assert (peaks is None) == (want is None), (r, size)
        if want is not None:
            assert peaks.tolist() == want, (r, size)


def test_exchange_degenerate_inputs():
    res = best_uniform(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 4)
    assert res.error == 0.0 and res.poly.coeffs == (0,)
    p = Polynomial.monomial([Fraction(1, 3), -2, 0, 5, Fraction(-7, 2)])
    for n in (4, 6):
        assert best_uniform(PolyFunction(p), n).error <= 1e-13 * 5
    # n = 0: the best constant is the grid's midrange
    res = best_uniform(ExpFunction(), 0)
    assert res.error == pytest.approx((np.e - 1) / 2, rel=4 * EPS)
    assert float(res.poly.coeffs[0]) == pytest.approx((np.e + 1) / 2, rel=4 * EPS)
    assert res.equioscillations == 2


def test_exchange_is_deterministic():
    f = catalog("truncpow:0.5:3")
    a, b = best_uniform(f, 17), best_uniform(f, 17)
    assert a.error == b.error and a.iterations == b.iterations
    assert a.poly.coeffs == b.poly.coeffs
    assert a.simplex_steps == b.simplex_steps == 0
    # a binding constrained solve, twice
    a, b = (best_qmonotone(f, 3, 12, N=129, M=129) for _ in range(2))
    assert a.constraint_size > 0
    assert (a.error, a.iterations, a.simplex_steps) == (b.error, b.iterations, b.simplex_steps)
    assert a.poly.coeffs == b.poly.coeffs
    assert 0 < a.simplex_steps < a.iterations


def test_qmonotone_runs_the_exchange_once(monkeypatch):
    # a binding case runs one exchange, then the dual simplex from its
    # reference; the result is the two stages' own, bit for bit
    f, q, n, N, M = catalog("truncpow:0.5:3"), 3, 12, 129, 129
    calls = []

    def counted(*args):
        calls.append(1)
        return exchange(*args)

    monkeypatch.setattr(best_approx, "exchange", counted)
    res = best_qmonotone(f, q, n, N=N, M=M)
    assert len(calls) == 1
    _, fvals, V = _sample(f, n, N)
    _, _, _, ref = exchange(fvals, V)
    a, err, bound, steps = dual_simplex(fvals, V, _shape_rows(n, q, 4 * (M - 1)), ref)
    assert res.constraint_size == 4 * (M - 1) + 1
    assert (res.error, res.error_dual) == (err, bound)
    assert res.poly.coeffs == _reconstruct(a).coeffs
    assert (res.iterations, res.simplex_steps) == (ref.steps + steps, steps)


def test_best_uniform_loads_no_scipy():
    # with scipy blocked (any import of it raises), the unconstrained and a
    # binding constrained solve and the Gauss-Jacobi read of D_n^<alpha> run
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.modules['scipy'] = None; "
            "import numpy as np; "
            "from shapeapprox import ExpFunction, best_qmonotone, best_uniform, catalog, "
            "durrmeyer_lupas_image; best_uniform(ExpFunction(), 8); "
            "res = best_qmonotone(catalog('truncpow:0.5:3'), 3, 12, N=129, M=129); "
            "assert res.constraint_size > 0 and res.constraint_validated; "
            "durrmeyer_lupas_image(12, 0.5, np.sqrt)")
    subprocess.run([sys.executable, "-c", code, src], check=True)


@pytest.mark.parametrize("d, m", [(0, 3), (1, 1), (3, 10), (12, 40), (19, 512)])
def test_elevate_matches_fraction_elevation(d, m):
    # one product with the float elevation matrix against Fraction
    # elevation; the matrix is nonnegative, with rows summing to 1
    E = bernstein_elevation(d, m)
    assert E.min() >= 0.0
    assert np.abs(E.sum(axis=1) - 1.0).max() <= 4 * EPS
    C = np.random.default_rng(d).standard_normal((d + 1, 2))
    exact = [[sum(Fraction(comb(i, k) * comb(m - i, d - k), comb(m, d)) * Fraction(C[k, j])
                  for k in range(d + 1)) for j in range(2)] for i in range(m + 1)]
    err = np.abs(E @ C - np.array(exact, dtype=float)).max()
    assert err <= (d + 2) * EPS * np.abs(C).max()


@pytest.mark.parametrize("n, q", [(19, 0), (19, 4), (30, 1), (35, 4), (40, 2)])
def test_shape_rows_match_exact_rows(n, q):
    # the rows' entries cancel (T_j^(q) has large alternating Bernstein
    # coefficients); their error must stay below 1e-11 of a row's max
    m = 512
    R = _shape_rows(n, q, m)
    # exact rows: sum_k C(i,k) a_k / C(m,k) for the monomial coefficients a
    # of T_j^(q), as integers over L = lcm_k C(m,k)
    L = lcm(*(comb(m, k) for k in range(n - q + 1)))
    cols = []
    for j in range(n + 1):
        a = npoly.polyder(compose(chebyshev_T(j).coeffs, [-1, 2]), q) if j >= q else []
        w = [int(ak) * (L // comb(m, k)) for k, ak in enumerate(a)]
        cols.append([sum(comb(i, k) * wk for k, wk in enumerate(w[:i + 1])) for i in range(m + 1)])
    for i in range(m + 1):
        row = [c[i] for c in cols]
        top = max(abs(x) for x in row)
        err = max(abs(Fraction(R[i, j]) - Fraction(x, top)) for j, x in enumerate(row))
        assert err <= 1e-11, (i, float(err))
