"""Experiment tables: reproducible CSV serialization and basic assertions."""
import ast
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import shapeapprox.experiments
from shapeapprox import (ExpFunction, LogShiftFunction, PowerFunction, RegimeError, build_generator,
                         omega_dt)
from shapeapprox.experiments import (
    run_bernstein_xeps,
    run_generator_report,
    run_lambda2_counterexample,
    run_mn_error_study,
)


def test_bernstein_xeps_small():
    table = run_bernstein_xeps(0.5, [64, 256, 1024])
    assert table.assertions["midpoint_envelope_stable"]
    assert table.assertions["endpoint_envelope_stable"]
    csv = table.to_csv()
    assert "# sha256:" in csv and "err_mid" in csv
    # reruns are bit-identical
    assert csv == run_bernstein_xeps(0.5, [64, 256, 1024]).to_csv()


def test_bernstein_xeps_midpoint_error_is_the_exact_sum():
    # err_mid against the same float64 data summed exactly with the exact
    # weights C(n,k)/2^n
    f = PowerFunction(0.5)
    table = run_bernstein_xeps(0.5, [256, 1024])
    for n, err_mid in ((row[0], row[1]) for row in table.rows):
        fk = np.asarray(f(np.arange(n + 1) / n), dtype=float)
        exact = Fraction(float(f(0.5))) - sum(
            Fraction(math.comb(n, k), 2**n) * Fraction(v) for k, v in enumerate(fk))
        assert abs(Fraction(err_mid) - abs(exact)) <= Fraction(2e-16)


def test_mn_error_study_small():
    table = run_mn_error_study(1, 0.0, ExpFunction(), [32, 64])
    assert table.ok, table.assertions
    errs = [row[2] for row in table.rows]
    assert errs[1] < errs[0]  # error shrinks with n


@pytest.mark.parametrize("lam", [3.0, -1.0, float("nan")])
def test_mn_error_study_rejects_a_lambda_outside_0_2(lam):
    with pytest.raises(RegimeError, match=r"lambda must lie in \[0,2\]"):
        run_mn_error_study(1, lam, ExpFunction(), [32])


def test_mn_error_study_uses_the_boundary_aligned_modulus():
    # x^0.5 at lambda = 1 peaks where the leftmost node of the difference
    # touches 0; a sweep of the Chebyshev grid alone understated omega there
    # and reported ratios of 5.409003 and 5.937328, and the prefix maxima of
    # a 256-step sweep with the aligned points, below each argument, 4.794651
    # and 4.862898.  x^0.5 is concave, so omega is read on the signed route
    table = run_mn_error_study(1, 1.0, PowerFunction(0.5), [32, 64])
    assert table.config["route"] == "signed"
    ratios = [row[3] for row in table.rows]
    assert ratios == pytest.approx([4.708091, 4.846780], abs=1e-6)


def test_bounded_ratio_compares_against_one_of_the_values():
    # against the mean of two values, max <= 10 median held for any pair
    assert not shapeapprox.experiments._bounded_ratio([2.1, 1.25e25])
    assert shapeapprox.experiments._bounded_ratio([1.0, 2.0])


def test_experiments_import_no_private_library_names():
    # the experiments reuse the library's computations instead of copying them
    tree = ast.parse(inspect.getsource(shapeapprox.experiments))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] in ("moduli", "generator")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_lambda2_counterexample():
    table = run_lambda2_counterexample([1e-2, 1e-4, 1e-6])
    assert table.assertions["error_strictly_increasing"]
    assert table.assertions["error_ratio_gt_3"]
    # at t=1 the lambda=2 modulus genuinely grows ~ |ln eps|/2: its closed
    # form is -ln(1 - rho^2), rho = (sqrt(1+eps) - sqrt(eps))^2 -> 1, which is
    # why the experiment evaluates it at t < 1.  The grid value approaches
    # the closed form from below (2.5e-9 relative low at eps = 1e-6 on the
    # signed route; the sweep read 1.3e-4 low).
    oms = []
    for eps in (1e-2, 1e-4, 1e-6):
        om = omega_dt(LogShiftFunction(eps), 2, 2.0, 1.0).value
        rho = (math.sqrt(1 + eps) - math.sqrt(eps)) ** 2
        exact = -math.log1p(-rho * rho)
        assert om <= exact
        assert abs(om - exact) <= 1e-3 * exact
        oms.append(om)
    assert all(b > a for a, b in zip(oms, oms[1:]))
    errs = [row[2] for row in table.rows]
    assert errs[-1] / errs[0] > 3


def test_generator_report():
    table = run_generator_report(1, [32, 64, 128])
    assert table.ok, table.assertions
    slopes = table.config["delta2_slope"]
    assert -2.4 <= slopes <= -1.6


def test_generator_report_residual_is_exact():
    # the column is the exact integral of the stored coefficients minus 1,
    # rounded once; an mpf sum at a fixed working precision was off by 6% here
    table = run_generator_report(1, [32])
    P = build_generator(32, 1).P
    assert P.basis == "monomial"
    integral = sum(c / (k + 1) for k, c in enumerate(P.coeffs))
    assert table.rows[0][7] == abs(float(integral - 1))


def test_csv_assertion_lines():
    table = run_generator_report(2, [32, 64])
    text = table.to_csv()
    for key in table.assertions:
        assert f"# assert {key}:" in text
