"""k-monotonicity checks for functions and polynomials."""
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from shapeapprox import (
    ExpFunction,
    Polynomial,
    best_qmonotone,
    best_uniform,
    catalog,
    check_k_monotone_fn,
    check_k_monotone_poly,
    mn_image,
    q_monotone_catalog,
    shape,
)
from shapeapprox.functions import TruncatedPowerFunction
from shapeapprox.polynomial import nonnegative_by_halving
from shapeapprox.shape import HALVINGS

from oracles import fractions, sampled_shape_verdict


def test_exp_is_k_monotone_all_orders():
    f = ExpFunction()
    for k in range(5):
        rep = check_k_monotone_fn(f, k)
        assert rep.passed, (k, rep)


def test_decreasing_function_fails_monotone_check():
    rep = check_k_monotone_fn(lambda x: 1.0 - np.asarray(x), 1)
    assert not rep.passed
    assert rep.witness_value < 0


def test_concave_poly_fails_convexity_check():
    p = Polynomial.monomial([0, 1, -1])  # x(1-x)
    rep = check_k_monotone_poly(p, 2)
    assert not rep.passed
    assert rep.witness_value is not None and rep.witness_value < 0


def test_negative_end_coefficient_decides_without_sampling():
    # p'' = -2 for x(1-x): its one Bernstein coefficient is an exact value
    rep = check_k_monotone_poly(Polynomial.monomial([0, 1, -1]), 2)
    assert not rep.passed and rep.x_grid_size == 0
    assert (rep.witness_x, rep.witness_value) == (0.0, -2.0)


def test_tiny_negative_end_coefficient_passes_within_tolerance():
    # p(0) = -1e-12 lies above -threshold (1e-9 max|b|): p + threshold has
    # nonnegative Bernstein coefficients, so p >= -threshold, with no
    # certificate of p >= 0
    rep = check_k_monotone_poly(Polynomial.bernstein([-1e-12, 1, 1]), 0)
    assert rep.passed and rep.x_grid_size == 0
    assert not rep.bernstein_certificate and not rep.subdivision_certificate


def test_poly_certificate_path():
    # x^3 has nonnegative Bernstein coefficients for every derivative order
    p = Polynomial.e(3)
    for k in range(4):
        rep = check_k_monotone_poly(p, k)
        assert rep.passed
        assert rep.bernstein_certificate


def test_indefinite_bernstein_form_is_decided_exactly():
    # (x - 1/4)^2 is convex and nonnegative but its linear Bernstein
    # representation of the first derivative has mixed signs at low degree
    p = Polynomial.monomial([Fraction(1, 16), Fraction(-1, 2), 1])
    reports = [check_k_monotone_poly(p, k) for k in range(3)]
    assert [rep.passed for rep in reports] == [True, False, True]
    assert reports[0].subdivision_certificate and reports[2].bernstein_certificate
    assert all(rep.x_grid_size == 0 for rep in reports)


def test_dip_between_sample_points_fails():
    # p = (x - 2001/8190)^2 - 1e-8 dips below -threshold on an interval of
    # width 2e-4 around 0.2443, between two of 4096 equispaced points
    dip = fractions([Fraction(2001, 8190) ** 2 - Fraction(1, 10 ** 8), Fraction(-2001, 4095), 1])
    p = Polynomial.monomial(npoly.polymul(dip, npoly.polypow(fractions([1, Fraction(1, 1024)]),
                                                             46, 46)))
    rep = check_k_monotone_poly(p, 0)
    assert sampled_shape_verdict(p, 0, rep.tol)
    assert not rep.passed and rep.x_grid_size == 0
    assert rep.witness_x == 0.244384765625
    assert rep.witness_value < -10 * rep.tol


def test_undecided_verdict_fails_without_witness(monkeypatch):
    # xeps:0.5's unconstrained optimum at n = 5 is nondecreasing, proved by
    # subdivision, so the constrained solve is skipped
    f = catalog("xeps:0.5")
    assert check_k_monotone_poly(best_uniform(f, 5).poly, 1).subdivision_certificate
    assert best_qmonotone(f, 1, 5).constraint_size == 0
    # with no halvings allowed, both runs give up: a fail with no witness,
    # after which the constrained solve runs
    monkeypatch.setattr(shape, "HALVINGS", 0)
    rep = check_k_monotone_poly(Polynomial.monomial([Fraction(1, 16), Fraction(-1, 2), 1]), 0)
    assert not rep.passed and rep.witness_x is None and rep.witness_value is None
    assert best_qmonotone(f, 1, 5).constraint_size > 0


def test_zero_polynomial_every_order():
    z = Polynomial.monomial([0])
    for k in range(4):
        assert check_k_monotone_poly(z, k).passed


def test_catalog_functions_declared_orders():
    for q in (1, 2, 3, 4):
        for f in q_monotone_catalog(q):
            rep = check_k_monotone_fn(f, q)
            assert rep.passed, (q, f.name, rep)
    # every declared order: a k-th difference sums 2^k roundings of size
    # eps max|f|, which from k = 23 on passes 1e-9 max|f|, and exp (witnesses
    # from -1.5e-9 at k = 24 to -1.8e-7 at k = 31) and x^3 failed there
    for name in ("exp", "monomial:3", "monomial:0", "xeps:0.5", "xeps:1e-13",
                 "truncpow:0.5:3", "truncpow:0.3:1", "logeps:1e-4"):
        f = catalog(name)
        for k in sorted(f.known_monotone_orders):
            rep = check_k_monotone_fn(f, k)
            assert rep.passed, (name, k, rep)
    # the orders just beyond them still fail, with a witness
    for name, k in (("truncpow:0.5:3", 5), ("logeps:1e-4", 2)):
        rep = check_k_monotone_fn(catalog(name), k)
        assert not rep.passed and rep.witness_value < -rep.tol, (name, k, rep)


def test_float_backend_polynomial():
    p = Polynomial.monomial([0, 0, 1.0])  # x^2, read exactly from a float
    assert check_k_monotone_poly(p, 2).passed
    assert check_k_monotone_poly(p, 1).passed


def test_mn_image_proved_by_subdivision():
    # M_n preserves convexity; the native coefficients of p'' are not all >= 0
    p = mn_image(2, 47, TruncatedPowerFunction(Fraction(3, 10), 1)).poly
    rep = check_k_monotone_poly(p, 2)
    assert rep.passed and rep.subdivision_certificate
    assert not rep.bernstein_certificate
    assert rep.x_grid_size == 0


def test_subdivision_proof_agrees_with_sampling():
    images = [(mn_image(q, n, f).poly, q) for q in (1, 2, 3, 4)
              for n in (21, 47, 73) for f in q_monotone_catalog(q)]
    reports = [check_k_monotone_poly(p, q) for p, q in images]
    assert any(rep.subdivision_certificate for rep in reports)
    # unconstrained optima, most of which fail at an exact counterexample
    optima = [(best_uniform(f, n).poly, q)
              for f in map(catalog, ("truncpow:0.5:3", "xeps:0.5", "logeps:1e-4"))
              for n in (4, 12, 19) for q in sorted(f.known_monotone_orders) if q <= 4]
    verdicts = [check_k_monotone_poly(p, q) for p, q in optima]
    assert any(not rep.passed and rep.x_grid_size == 0 for rep in verdicts)
    # the sample, against the same threshold, agrees with every verdict
    for rep, (p, q) in zip(reports + verdicts, images + optima):
        assert rep.x_grid_size == 0
        assert rep.passed == sampled_shape_verdict(p, q, rep.tol)


def test_interior_double_root_exhausts_budget_then_passes_within_tolerance():
    # (x - 1/3)^2 (1 + x)^33 >= 0, but its zero at 1/3 lies inside a piece
    # at every depth, so no halving proves it; p + threshold is proved
    d = 35
    square = fractions([Fraction(1, 9), Fraction(-2, 3), 1])
    p = Polynomial.monomial(npoly.polymul(square, npoly.polypow(fractions([1, 1]), d - 2, d)))
    c, _ = p.integer_form.derivative(0)
    assert nonnegative_by_halving(c, HALVINGS) == (False, HALVINGS, None)
    rep = check_k_monotone_poly(p, 0)
    assert rep.passed and rep.x_grid_size == 0
    assert not rep.bernstein_certificate and not rep.subdivision_certificate
