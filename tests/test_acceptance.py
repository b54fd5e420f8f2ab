"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible with ``pytest -s`` and in failure output), and asserts the verdict.
Oracles are computed in-test, independently of the library code paths they
exercise.
"""
import math
import random
import time
from fractions import Fraction
from math import comb, factorial

import numpy as np
from scipy.stats import binom as _scipy_binom

from shapeapprox import (
    ExpFunction,
    PolyFunction,
    Polynomial,
    best_uniform,
    build_generator,
    catalog,
    check_k_monotone_poly,
    deficiency_slope,
    derivative_bridge_residual,
    durrmeyer_lupas_image,
    gavrea_image,
    genuine_durrmeyer_image,
    genuine_durrmeyer_moment,
    lupas_derivative_identity_check,
    lupas_endpoint_moment,
    lupas_product_identity_check,
    mn_image,
    phi_bernstein_expansion,
    phi_leading_coefficient,
    pochhammer,
    q_monotone_catalog,
    ultraspherical_phi,
)
from shapeapprox.experiments import run_lambda2_counterexample
from shapeapprox.functions import PowerFunction
from shapeapprox.polynomial import bernstein_derivative

from oracles import fit_modulus_exponent, integral_01, jackson_ratio, moment_profile


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ----------------------------------------------------------------------
# 1. genuine-Durrmeyer moment identities, exact backend
def _moment_oracle(n: int, i: int) -> list:
    """Monomial coefficients of U_n(e_i) from the hypergeometric closed form."""
    if i == 0:
        return [Fraction(1)]
    coeffs = [Fraction(0)] * (i + 1)
    pref = Fraction(factorial(n - 1) * factorial(i), factorial(n + i - 1))
    for j in range(max(0, i - n), i):
        coeffs[i - j] += pref * comb(i - 1, j) * comb(n, i - j)
    return coeffs


def test_criterion_01_moment_identities():
    t0 = time.time()
    ok = True
    detail = ""
    for n in range(2, 31):
        for i in range(5):
            want = _moment_oracle(n, i)
            for route in (
                genuine_durrmeyer_moment(n, i),
                genuine_durrmeyer_image(n, PolyFunction(Polynomial.e(i))),
            ):
                got = list(route.to_monomial().coeffs)
                got += [Fraction(0)] * (len(want) - len(got))
                if [Fraction(c) for c in got] != want + [Fraction(0)] * (len(got) - len(want)):
                    ok, detail = False, f"mismatch at n={n}, i={i}"
        # low-moment specializations: e_0 -> 1, e_1 -> x,
        # e_2 -> x^2 + 2x(1-x)/(n+1)
        e2 = list(genuine_durrmeyer_moment(n, 2).to_monomial().coeffs)
        spec = [Fraction(0), Fraction(2, n + 1), 1 - Fraction(2, n + 1)]
        if (
            list(genuine_durrmeyer_moment(n, 0).to_monomial().coeffs) != [Fraction(1)]
            or list(genuine_durrmeyer_moment(n, 1).to_monomial().coeffs) != [Fraction(0), Fraction(1)]
            or [Fraction(c) for c in e2] != spec
        ):
            ok, detail = False, f"specialization mismatch at n={n}"
    _verdict(1, "moment-identities", ok, detail or f"{time.time() - t0:.1f}s, exact")


# ----------------------------------------------------------------------
# 2. weighted-Durrmeyer closed forms
def test_criterion_02_weighted_durrmeyer_closed_forms():
    t0 = time.time()
    ok = True
    detail = ""
    xs = np.linspace(0.0, 1.0, 41)
    worst = 0.0
    for alpha in (Fraction(-2, 5), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        af = float(alpha)
        for n in range(1, 21):
            imgs = [durrmeyer_lupas_image(n, alpha, PolyFunction(Polynomial.e(i)))
                    for i in range(3)]
            oracle = [
                np.ones_like(xs),
                (n * xs + af + 1) / (n + 2 * af + 2),
                (n * (n - 1) * xs**2 + 2 * n * (af + 2) * xs + (af + 1) * (af + 2))
                / ((n + 2 * af + 2) * (n + 2 * af + 3)),
            ]
            for i in range(3):
                got = np.array([float(imgs[i](x)) for x in xs])
                worst = max(worst, float(np.max(np.abs(got - oracle[i]))))
            for i in range(3):
                want = Fraction(pochhammer(alpha + 1, i),
                                pochhammer(n + 2 * alpha + 2, i))
                if Fraction(lupas_endpoint_moment(n, alpha, i)) != want:
                    ok, detail = False, f"endpoint moment n={n}, alpha={af}, i={i}"
    if worst > 1e-10:
        ok, detail = False, f"closed-form residual {worst:.2e} > 1e-10"
    _verdict(2, "weighted-durrmeyer-closed-forms", ok,
             detail or f"residual {worst:.1e}, {time.time() - t0:.1f}s")


# ----------------------------------------------------------------------
# 3. identity suite
def test_criterion_03_identity_suite():
    t0 = time.time()
    rnd = random.Random(17)
    worst_der = 0.0
    for n in range(2, 11):
        for nu in range(1, min(3, n) + 1):
            deg = rnd.randint(0, 8)
            p = Polynomial.monomial(
                [Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(deg + 1)])
            for alpha in (Fraction(-2, 5), Fraction(0), Fraction(1)):
                worst_der = max(worst_der, float(
                    lupas_derivative_identity_check(n, alpha, nu, PolyFunction(p))))
    worst_phi = 0.0
    for n in range(1, 13):
        for alpha in (Fraction(-2, 5), Fraction(0), Fraction(1, 2), Fraction(1)):
            a = ultraspherical_phi(n, alpha)
            b = phi_bernstein_expansion(n, alpha)
            lead = phi_leading_coefficient(n, alpha)
            if Fraction(b.to_monomial().coeffs[-1]) != Fraction(lead):
                worst_phi = max(worst_phi, 1.0)
            x = Fraction(3, 8)
            worst_phi = max(worst_phi, abs(float(a(x) - b(x) / b(1))))
    worst_prod = 0.0
    for _ in range(20):
        x = Fraction(rnd.randint(1, 99), 100)
        t = Fraction(rnd.randint(1, 99), 100)
        for n in (3, 6):
            for alpha in (Fraction(-2, 5), Fraction(1, 2)):
                worst_prod = max(worst_prod, abs(float(
                    lupas_product_identity_check(n, alpha, x, t))))
    worst_bridge = 0.0
    for n in (3, 5, 8):
        deg = rnd.randint(0, 6)
        p = Polynomial.monomial([Fraction(rnd.randint(-5, 5)) for _ in range(deg + 1)])
        worst_bridge = max(worst_bridge, float(derivative_bridge_residual(n, PolyFunction(p))))
    ok = worst_der <= 1e-9 and worst_phi <= 1e-9 and worst_prod <= 1e-10 and worst_bridge <= 1e-9
    _verdict(3, "identity-suite", ok,
             f"derivative {worst_der:.1e}, expansion {worst_phi:.1e}, "
             f"product {worst_prod:.1e}, bridge {worst_bridge:.1e}, "
             f"{time.time() - t0:.1f}s")


# ----------------------------------------------------------------------
# 4. generating polynomial certification
def _native_grid_min(P, nu):
    """min of P^(nu) on a uniform 2048-point grid of [0,1] over its largest
    Bernstein coefficient, evaluated at its own degree in float64."""
    c, den = bernstein_derivative(*P.bernstein_read(), nu)
    coeffs = np.array([x / den for x in c])
    d = len(coeffs) - 1
    xs = np.linspace(0.0, 1.0, 2048)
    vals = _scipy_binom.pmf(np.arange(d + 1)[None, :], d, xs[:, None]) @ coeffs
    return float(vals.min()) / max(1e-300, float(np.max(np.abs(coeffs))))


def test_criterion_04_generator():
    t0 = time.time()
    ok = True
    details = []
    for r in (1, 2, 3):
        ns = [n for n in (32, 64, 128, 256, 512) if n > 8 * r]
        scaled = []
        for n in ns:
            gen = build_generator(n, r)
            resid = abs(float(integral_01(gen.P.coeffs) - 1))
            min_rel = min(_native_grid_min(gen.P, nu) for nu in range(r + 1))
            scaled.append(n * n * float(gen.moment_deficiency[2]))
            if resid > 1e-20:
                ok = False
                details.append(f"r={r}, n={n}: unit integral off by {resid:.1e}")
            if min_rel < -1e-15:
                ok = False
                details.append(f"r={r}, n={n}: derivative dips to {min_rel:.1e}")
        slope = deficiency_slope(r, ns)
        factor = max(scaled) / min(scaled)
        if not -2.4 <= slope <= -1.6:
            ok = False
            details.append(f"r={r}: slope {slope:.2f} outside [-2.4,-1.6]")
        if factor > 4.0:
            ok = False
            details.append(f"r={r}: n^2*delta_2 spread {factor:.2f} > 4")
        details.append(f"r={r}: slope {slope:.2f}, spread {factor:.2f}")
    _verdict(4, "generator", ok, "; ".join(details) + f", {time.time() - t0:.0f}s")


# ----------------------------------------------------------------------
# 5. shape preservation of the composite operator
def test_criterion_05_shape_preservation():
    t0 = time.time()
    ok = True
    detail = ""
    for q in (1, 2, 3, 4):
        for n in (30, 60, 120):
            for f in q_monotone_catalog(q):
                res = mn_image(q, n, f)
                for k in range(1, q + 1):
                    rep = check_k_monotone_poly(res.poly, k)
                    if not rep.passed:
                        ok = False
                        detail = (f"q={q}, n={n}, {f.name}, k={k}: "
                                  f"witness {rep.witness_value:.2e}")
    # positivity and contraction on random nonnegative inputs
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 1.0, 401)
    for trial in range(50):
        deg = int(rng.integers(1, 6))
        bern = rng.random(deg + 1)
        f = PolyFunction(Polynomial.bernstein(list(bern)))
        img = mn_image(1, 40, f).poly
        vals = np.array([float(img(x)) for x in xs])
        fmax = float(bern.max())  # sup of f is at most the max Bernstein coeff
        if vals.min() < -1e-9 * fmax:
            ok, detail = False, f"trial {trial}: positivity, min {vals.min():.2e}"
        if vals.max() > fmax * (1 + 1e-9):
            ok, detail = False, f"trial {trial}: contraction, max {vals.max():.2e}"
    _verdict(5, "shape-preservation", ok, detail or f"{time.time() - t0:.0f}s")


# ----------------------------------------------------------------------
# 6. combination-operator moments
def test_criterion_06_combination_moments():
    t0 = time.time()
    ok = True
    detail = ""
    rnd = random.Random(11)
    for _ in range(10):
        deg = rnd.randint(0, 5)
        a = [Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(deg + 1)]
        P = Polynomial.monomial([c / integral_01(a) for c in a])  # unit integral, exact
        imgs = [gavrea_image(P, PolyFunction(Polynomial.e(i))).to_monomial().coeffs
                for i in range(3)]
        m2 = sum(ck * Fraction(1, k + 3) for k, ck in enumerate(P.coeffs))
        want_e2 = [Fraction(0), 1 - m2, m2]  # x^2 + x(1-x)(1 - m2)
        got_e2 = [Fraction(c) for c in imgs[2]] + [Fraction(0)] * 3
        if list(imgs[0]) != [Fraction(1)]:
            ok, detail = False, "e0 image not constant 1"
        if list(imgs[1]) != [Fraction(0), Fraction(1)]:
            ok, detail = False, "e1 image not x"
        if any(abs(float(a - b)) > 1e-10 for a, b in zip(got_e2[:3], want_e2)):
            ok, detail = False, "e2 gap factor mismatch"
    for n, r in ((40, 1), (80, 2)):
        gen = build_generator(n, r)
        prof = moment_profile("gavrea", gen=gen)
        if not prof.conforming or prof.residual > 1e-10:
            ok, detail = False, f"built generator n={n}, r={r}: residual {prof.residual:.1e}"
        elif abs(float(prof.alpha_n) - float(gen.moment_deficiency[2])) > 1e-10:
            ok, detail = False, f"built generator n={n}, r={r}: gap factor mismatch"
    _verdict(6, "combination-moments", ok, detail or f"{time.time() - t0:.1f}s")


# ----------------------------------------------------------------------
# 7. weighted-modulus decay exponents
def test_criterion_07_modulus_exponents():
    t0 = time.time()
    ok = True
    details = []
    t_list = [2.0 ** -k for k in range(5, 11)]
    for eps in (0.3, 0.5, 0.7):
        for lam in (0.0, 1.0, 1.5):
            fitted = fit_modulus_exponent(PowerFunction(eps), 2, lam, t_list)
            target = min(2.0, eps / (1 - lam / 2))
            if abs(fitted - target) > 0.05:
                ok = False
                details.append(f"eps={eps}, lam={lam}: {fitted:.3f} vs {target:.3f}")
    _verdict(7, "modulus-exponents", ok,
             "; ".join(details) or f"all 9 within 0.05, {time.time() - t0:.0f}s")


# ----------------------------------------------------------------------
# 8. midpoint first-order asymptotics for sqrt(x)
def test_criterion_08_midpoint_asymptotics():
    n = 2 ** 14
    k = np.arange(n + 1)
    weights = _scipy_binom.pmf(k, n, 0.5)  # direct midpoint summation
    prod = n * (math.sqrt(0.5) - float(weights @ np.sqrt(k / n)))
    target = math.sqrt(2) / 16
    rel = abs(prod - target) / target
    _verdict(8, "midpoint-asymptotics", rel <= 0.05,
             f"n*(f-B_n f)(1/2) = {prod:.6f}, limit {target:.6f}, rel {rel:.2%}")


# ----------------------------------------------------------------------
# 9. constrained-approximation constant stability
def test_criterion_09_constant_stability():
    t0 = time.time()
    ok = True
    details = []
    ns = [10, 15, 20, 25, 30, 35, 40]
    for f, label in ((ExpFunction(), "exp"), (catalog("truncpow:0.5:3"), "kink")):
        ratios = [jackson_ratio(f, 4, n) for n in ns]
        if any(not math.isfinite(r) for r in ratios):
            ok = False
            details.append(f"{label}: non-finite ratio")
            continue
        med = float(np.median(ratios))
        spread = max(ratios) / med if med > 0 else math.inf
        if spread > 10.0:
            ok = False
        details.append(f"{label}: max/median {spread:.1f}")
    _verdict(9, "constant-stability", ok,
             "; ".join(details) + f", {time.time() - t0:.0f}s")


# ----------------------------------------------------------------------
# 10. lambda=2 modulus vs unconstrained error for ln(x+eps)
def test_criterion_10_lambda2_failure():
    t0 = time.time()
    table = run_lambda2_counterexample([1e-2, 1e-4, 1e-6, 1e-8], n=5)
    oms = [row[1] for row in table.rows]
    errs = [row[2] for row in table.rows]
    modulus_bounded = max(oms) <= 2.0 * min(oms)
    err_increasing = all(b > a for a, b in zip(errs, errs[1:]))
    err_ratio_ok = errs[-1] / errs[0] > 3.0
    # closed form: with delta = h x(1-x), Delta^2 ln(x+eps) =
    # ln(1 - (h x(1-x)/(x+eps))^2), and x(1-x)/(x+eps) peaks at
    # rho = (sqrt(1+eps) - sqrt(eps))^2, so omega(t) = -ln(1 - t^2 rho^2)
    # for t <= 1, below -ln(1 - t^2) for every eps
    t = table.config["t"]
    bound = -math.log1p(-t * t)
    under_bound = all(om <= bound * (1 + 1e-12) for om in oms)
    rel_gaps = []
    for eps, om, _ in table.rows:
        rho = (math.sqrt(1 + eps) - math.sqrt(eps)) ** 2
        exact = -math.log1p(-((t * rho) ** 2))
        rel_gaps.append(abs(om - exact) / exact)
    closed_form_ok = max(rel_gaps) <= 1e-4
    ok = (modulus_bounded and err_increasing and err_ratio_ok
          and under_bound and closed_form_ok)
    _verdict(10, "lambda2-failure", ok,
             f"t={t:g}, modulus spread {max(oms) / min(oms):.2f}x (need <=2x), "
             f"max modulus {max(oms):.4f} vs bound {bound:.4f}, "
             f"closed-form rel gap {max(rel_gaps):.1e} (need <=1e-4), "
             f"errors {'increasing' if err_increasing else 'not increasing'}, "
             f"error ratio {errs[-1] / errs[0]:.1f} (need >3), "
             f"{time.time() - t0:.0f}s")


# ----------------------------------------------------------------------
# 11. unconstrained minimax oracle
def test_criterion_11_unconstrained_oracle():
    t0 = time.time()
    ok = True
    details = []
    res = best_uniform(PolyFunction(Polynomial.e(2)), 1, N=257)
    if abs(res.error - 0.125) > 1e-3:
        ok = False
    details.append(f"E_1(e_2) = {res.error:.6f}")
    for f, nmax in ((ExpFunction(), 5), (PolyFunction(Polynomial.e(2)), 1)):
        for n in range(1, nmax + 1):
            r = best_uniform(f, n, N=257)
            if r.equioscillations < n + 2:
                ok = False
                details.append(f"n={n}: only {r.equioscillations} alternations")
    _verdict(11, "unconstrained-oracle", ok,
             "; ".join(details) + f", {time.time() - t0:.1f}s")
