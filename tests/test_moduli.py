"""Weighted moduli of smoothness."""
import hashlib
import math

import numpy as np
import pytest

from shapeapprox import (
    ExpFunction,
    PowerFunction,
    RegimeError,
    catalog,
    linear,
    modulus_sweep,
    omega,
    omega_dt,
    step_weight,
)
from shapeapprox.moduli import (
    _boundary_aligned_points,
    _sym_diff_grid,
    default_h_grid,
    default_x_grid,
)

import oracles


def test_step_weight_values():
    assert step_weight(0.5, 2.0) == pytest.approx(0.25)
    assert step_weight(0.5, 0.0) == pytest.approx(1.0)
    assert step_weight(0.0, 1.0) == pytest.approx(0.0)


def _sym_diff(f, k, delta, x):
    return _sym_diff_grid(f, k, np.array([delta]), np.array([x]))[0]


def test_sym_diff_polynomial_annihilation():
    # second difference of a linear function vanishes; of x^2 equals delta^2
    f = lambda x: 2.0 * np.asarray(x) + 1.0
    assert _sym_diff(f, 2, 0.1, 0.5) == pytest.approx(0.0, abs=1e-14)
    g = lambda x: np.asarray(x) ** 2
    # f(x-d) - 2 f(x) + f(x+d) = d^2 f'' = 2 d^2 for x^2
    assert _sym_diff(g, 2, 0.1, 0.5) == pytest.approx(0.02)


def test_sym_diff_outside_domain_is_zero():
    g = lambda x: np.asarray(x) ** 2
    assert _sym_diff(g, 2, 0.3, 0.1) == 0.0
    assert _sym_diff(g, 2, 0.3, 0.9) == 0.0


def test_omega_linear_function_vanishes():
    est = omega(linear(1, 3), 2, 0.5)
    assert est.value <= 1e-13


def test_omega_monotone_in_t():
    f = ExpFunction()
    v1 = omega_dt(f, 2, 1.0, 0.1).value
    v2 = omega_dt(f, 2, 1.0, 0.3).value
    assert v2 >= v1 > 0


@pytest.mark.parametrize("name", ["exp", "xeps:0.5"])
def test_omega_is_nondecreasing_past_the_largest_admissible_step(name):
    # no step above h* = 2^lam/k admits a difference (x = 1/2 is the most
    # interior point for lam <= 2), so omega(t) = omega(h*) for t >= h*; a
    # sweep of (0, t] read only steps below h* on its coarser grid
    f = catalog(name)
    for k, lam in ((1, 0.5), (2, 0.0), (2, 1.0), (3, 1.5), (4, 1.0)):
        ts = (0.5, 1.0, 2.0, 10.0, 1e300)
        values = [omega_dt(f, k, lam, t).value for t in ts]
        assert values == sorted(values), (k, lam, values)
        top = omega_dt(f, k, lam, 2.0**lam / k)
        for t in ts[2:]:
            est = omega_dt(f, k, lam, t)
            assert est.t == t
            assert (est.value, est.argmax_h, est.argmax_x) == (top.value, top.argmax_h, top.argmax_x)


@pytest.mark.parametrize("t", [float("inf"), float("nan"), -float("inf")])
def test_omega_of_a_t_that_is_not_finite_raises(t):
    with pytest.raises(RegimeError, match="t must be finite"):
        omega_dt(ExpFunction(), 2, 1.0, t)


@pytest.mark.parametrize("k, lam", [(-1, 1.0), (2, 3.0), (2, -1.0), (2, float("nan"))])
def test_modulus_sweep_checks_k_and_lambda(k, lam):
    # the sweep checks them as omega_dt does, so the mn-study ratios, which
    # sweep without omega_dt, check them too
    message = "k must be >= 0" if k < 0 else r"lambda must lie in \[0,2\]"
    with pytest.raises(RegimeError, match=message):
        modulus_sweep(ExpFunction(), k, lam, [0.1])
    with pytest.raises(RegimeError, match=message):
        omega_dt(ExpFunction(), k, lam, 0.1)


def test_omega_exp_second_order():
    # omega_2(f, t) ~ t^2 max|f''| for smooth f as t -> 0
    f = ExpFunction()
    t = 0.01
    est = omega(f, 2, t)
    assert est.value <= t * t * math.e * 1.05
    assert est.value >= t * t * 0.5


def test_omega_dt_is_the_first_maximum_of_the_sweep():
    # x^0.5 as a plain callable, which declares no derivative sign
    root = PowerFunction(0.5)
    f = lambda x: root(x)
    for k, lam, t in ((1, 0.0, 0.1), (2, 1.0, 0.05), (3, 1.5, 0.5)):
        hs = default_h_grid(t)
        values, args = modulus_sweep(f, k, lam, hs)
        est = omega_dt(f, k, lam, t)
        j = int(np.argmax(values))
        assert (est.value, est.argmax_h, est.argmax_x) == (values[j], hs[j], args[j])
        assert (est.route, est.h_grid_size) == ("sweep", len(hs))


def test_sweep_reaches_the_boundary_aligned_points():
    # x^0.5 at lambda = 1 peaks where the leftmost node of the second
    # difference sits at 0, which no Chebyshev grid point does
    f = PowerFunction(0.5)
    hs = np.geomspace(1e-4, 0.1, 8)
    values, args = modulus_sweep(f, 2, 1.0, hs)
    xs = default_x_grid()
    for h, value, x in zip(hs, values, args):
        on_grid = np.max(np.abs(_sym_diff_grid(f, 2, h * step_weight(xs, 1.0), xs)))
        assert value > on_grid
        points, _ = _boundary_aligned_points(2, 1.0, h)
        assert x in points


def _reference_sweep(f, k, lam, hs):
    """modulus_sweep one h at a time, at the same aligned points."""
    xs = default_x_grid()
    points, steps = _boundary_aligned_points(k, lam, hs)
    signs = [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
    values, args = [], []
    for h, xa, da in zip(hs, points, steps):
        keep = ~np.isnan(xa)
        x = np.concatenate([xs, xa[keep]])
        d = np.concatenate([h * step_weight(xs, lam), da[keep]])
        diff = sum(s * f(np.clip(x + (i - k / 2) * d, 0.0, 1.0)) for i, s in enumerate(signs))
        diff[(d <= 0) | (x - k / 2 * d < -1e-15) | (x + k / 2 * d > 1 + 1e-15)] = 0.0
        j = int(np.argmax(np.abs(diff)))
        values.append(abs(diff[j]))
        args.append(x[j])
    return np.array(values), np.array(args)


@pytest.mark.parametrize("name", ["exp", "truncpow:0.5:3", "truncpow:0.3:1",
                                  "xeps:0.5", "xeps:0.25", "logeps:1e-4"])
def test_sweep_matches_a_per_h_reference(name):
    # the block kernel (steps in blocks of 8, aligned points in one extra
    # call) against one h at a time
    f = catalog(name)
    scale = float(np.max(np.abs(f(default_x_grid()))))
    for k, lam in ((1, 0.5), (2, 0.0), (2, 1.0), (2, 2.0), (3, 1.5), (4, 1.0)):
        for t in (1.0, 1.0 / 19):
            hs = default_h_grid(t)
            values, args = modulus_sweep(f, k, lam, hs)
            ref_values, ref_args = _reference_sweep(f, k, lam, hs)
            assert np.max(np.abs(values - ref_values)) <= 1e-14 * scale, (k, lam, t)
            assert np.array_equal(args, ref_args), (k, lam, t)
    # odd grids: 13 step bounds end in a part block, one grid descends, one
    # is unsorted, one starts at subnormal steps, whose products with the
    # weight round to 0 at some interior points, and one has 256 steps like
    # mn-study's
    grids = [np.geomspace(1e-4, 0.5, 13), np.geomspace(0.6, 1e-3, 19),
             np.array([0.3, 1e-5, 0.01, 2e-3]), np.r_[5e-324, 1e-310, np.geomspace(1e-300, 0.2, 10)],
             np.geomspace(2.0**-8 * 1e-8, 0.3, 256)]
    for k in range(5):
        for lam in (0.0, 1.0, 2.0):
            for g, hs in enumerate(grids):
                values, args = modulus_sweep(f, k, lam, hs)
                ref_values, ref_args = _reference_sweep(f, k, lam, hs)
                assert np.max(np.abs(values - ref_values)) <= 1e-14 * scale, (k, lam, g)
                assert np.array_equal(args, ref_args), (k, lam, g)


@pytest.mark.parametrize("name", ["exp", "truncpow:0.5:3", "truncpow:0.3:1",
                                  "xeps:0.5", "xeps:0.25", "logeps:1e-4"])
def test_sweep_in_place_is_bit_identical_to_the_plain_sweep(name):
    # the sweep as it is (all k+1 node rows, the centre one too, sent to f in
    # one call, the sum started from its first term, no buffers) changes no
    # bit of any value or argmax against the plain sweep of the oracles (a
    # fresh sum from zeros, for even k the centre values f(x) passed in),
    # which the earlier in-place sweep also matched bit for bit.  The grids:
    # 13 step bounds end in a part block, one grid descends, one is
    # unsorted, one starts at subnormal steps, whose products with the
    # weight round to 0 at some interior points, and one has 256 steps like
    # mn-study's
    f = catalog(name)
    grids = [default_h_grid(t) for t in (0.5, 0.1, 1.0 / 19, 0.25, 1.0 / 12, 1.0)]
    grids += [np.geomspace(1e-4, 0.5, 13), np.geomspace(0.6, 1e-3, 19),
              np.array([0.3, 1e-5, 0.01, 2e-3]), np.r_[5e-324, 1e-310, np.geomspace(1e-300, 0.2, 10)],
              np.geomspace(2.0**-8 * 1e-8, 0.3, 256)]
    for k in range(5):
        for lam in (0.0, 0.5, 1.0, 1.5, 2.0):
            for g, hs in enumerate(grids):
                values, args = modulus_sweep(f, k, lam, hs)
                ref_values, ref_args = oracles.modulus_sweep(f, k, lam, hs)
                assert np.array_equal(values, ref_values), (k, lam, g)
                assert np.array_equal(args, ref_args), (k, lam, g)


def test_omega_dt_is_pinned_on_the_minimax_panel():
    # omega_2^phi(f, 1/n) of the benchmark's minimax panel: every bit of the
    # value and of both arguments (float64 on x86-64)
    digest = hashlib.sha256()
    for name in ("exp", "truncpow:0.5:3", "xeps:0.5", "logeps:1e-4"):
        for n in (4, 12, 19):
            est = omega_dt(catalog(name), 2, 1.0, 1.0 / n)
            digest.update(np.array([est.value, est.argmax_h, est.argmax_x]).tobytes())
    assert digest.hexdigest() == "be53def2f8f6b7300aae0271a0c5236f4fde9a716934992df064dc5d10650702"


_SIGNED_CASES = ["exp", "truncpow:0.5:3", "xeps:0.5", "xeps:0.25",
                 "logeps:1e-2", "logeps:1e-4", "logeps:1e-6", "logeps:1e-8"]


@pytest.mark.parametrize("name", _SIGNED_CASES)
def test_signed_route_reads_at_least_the_sweep(name):
    # f'' has one sign, so |Delta^2_delta f(x)| is nondecreasing in delta and
    # the 1-D sup at the largest admissible step delta(x) bounds every step
    # of every step bound the sweep reads, its aligned points included
    f = catalog(name)
    for lam in (0.0, 0.5, 1.0, 1.5, 1.9):
        for t in (1 / 4, 1 / 19, 1 / 160, 1 / 1026):
            est = omega_dt(f, 2, lam, t)
            assert (est.route, est.h_grid_size) == ("signed", 0)
            sweep = modulus_sweep(f, 2, lam, default_h_grid(min(t, 2.0**lam / 2)))[0].max()
            assert est.value >= sweep * (1 - 1e-12), (lam, t, est.value, sweep)
            # argmax_h is the step bound delta(x)/phi^lam(x) of the argument
            x = est.argmax_x
            delta = min(t * step_weight(x, lam), x, 1 - x)
            assert est.argmax_h == pytest.approx(delta / step_weight(x, lam), rel=1e-12)


def test_signed_route_reaches_the_peaks_next_to_the_endpoint():
    # the sweep's smallest interior point is 2.35e-6, and it read 0.025574
    # for the first, whose peak is at x = 3.0e-8 (0.135658 at 50 digits);
    # the second is the Jackson quotient's own modulus
    first = omega_dt(catalog("logeps:1e-8"), 2, 1.5, 1 / 160)
    assert first.value >= 0.13565
    assert 2.9e-8 <= first.argmax_x <= 3.1e-8
    assert omega_dt(catalog("logeps:1e-4"), 2, 1.0, 1 / 160).value >= 0.10274


def test_signed_route_reads_the_aligned_point_with_its_own_step():
    # x^eps peaks where the outer node sits on 0; a step recomputed from the
    # min formula at the rounded root can miss 0 and read low
    for eps in (0.5, 0.25):
        f = PowerFunction(eps)
        for lam, t in ((1.0, 0.05), (1.5, 1 / 160)):
            est = omega_dt(f, 2, lam, t)
            points, steps = _boundary_aligned_points(2, lam, t)
            assert est.argmax_x == points[0, 0]
            assert est.value == abs(_sym_diff(f, 2, steps[0, 0], points[0, 0]))


def test_signed_route_meets_the_lambda2_closed_form():
    # Delta^2_delta ln(x+eps) with delta = t x(1-x) peaks at rho(eps) =
    # (sqrt(1+eps) - sqrt(eps))^2: omega_2^{phi^2}(t) = -ln(1 - t^2 rho^2)
    t = 0.5
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        rho = (math.sqrt(1 + eps) - math.sqrt(eps)) ** 2
        exact = -math.log1p(-((t * rho) ** 2))
        est = omega_dt(catalog(f"logeps:{eps}"), 2, 2.0, t)
        assert est.route == "signed"
        assert abs(est.value - exact) <= 1e-9 * exact, eps


def test_a_handle_without_a_sign_at_k_keeps_the_sweep():
    # x^0.5 declares no sign for k = 3, a linear function none at all
    for f, k in ((PowerFunction(0.5), 3), (linear(1, 3), 2), (ExpFunction(), 0)):
        est = omega_dt(f, k, 1.0, 0.1)
        assert (est.route, est.h_grid_size) == ("sweep", 64)


@pytest.mark.parametrize("k, lam", [(2, 1.0), (2, 1.5), (3, 1.5)])
def test_aligned_points_put_the_outer_node_on_the_endpoint(k, lam):
    # h = 0.5897 and 0.8386 are where a 40-step fixed point stopped short of
    # x = (k h/2) phi^lam(x), near x = 1/2
    for hs in (default_h_grid(1.0), default_h_grid(0.5), default_h_grid(1.0 / 19),
               np.array([0.5897, 0.8386])):
        points, steps = _boundary_aligned_points(k, lam, hs)
        has = ~np.isnan(points[:, 0])
        # a root in (0, 1/2) exists iff k h/2 < phi^-lam(1/2)/2 = 2^(lam-1)
        assert np.array_equal(has, k * hs / 2 < 2.0 ** (lam - 1))
        x, step = points[has, 0], steps[has, 0]
        assert np.all((0 < x) & (x < 0.5))
        assert np.array_equal(points[has, 1], 1.0 - x)
        residual = np.abs(x - k / 2 * hs[has] * step_weight(x, lam))
        assert np.all(residual <= 4e-15 * x)
        # the differences read f with the outer node exactly on the endpoint
        nodes = []
        _sym_diff_grid(lambda v: nodes.append(v.copy()) or np.zeros_like(v),
                       k, steps[has], points[has])
        nodes = nodes[0].reshape(k + 1, -1, 2)
        assert np.all(nodes[0, :, 0] == 0.0) and np.all(nodes[-1, :, 1] == 1.0)


def test_fitted_exponent_classical_smooth():
    # omega_2(x^0.5, t) ~ t^0.5 classically
    slope = oracles.fit_modulus_exponent(PowerFunction(0.5), 2, 0.0, [2.0**-k for k in range(4, 9)])
    assert abs(slope - 0.5) <= 0.05


def test_fitted_exponent_weighted():
    # with lambda = 1 the x^eps exponent becomes eps/(1 - lambda/2) = 2 eps
    slope = oracles.fit_modulus_exponent(PowerFunction(0.7), 2, 1.0, [2.0**-k for k in range(4, 9)])
    assert abs(slope - 1.4) <= 0.05
