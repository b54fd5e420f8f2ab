"""Operator images: Bernstein, genuine Durrmeyer, Lupas-weighted Durrmeyer,
the weighted combination driven by a generating polynomial, and the composite
shape-preserving construction."""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_rational, round_nearest, to_rational
from numpy.polynomial import polynomial as npoly

from shapeapprox import (
    ExpFunction,
    PolyFunction,
    Polynomial,
    bernstein_image,
    build_generator,
    catalog,
    check_k_monotone_poly,
    derivative_bridge_residual,
    durrmeyer_image,
    durrmeyer_lupas_image,
    gavrea_image,
    genuine_durrmeyer_image,
    genuine_durrmeyer_moment,
    genuine_durrmeyer_moment_recurrence,
    lupas_derivative_identity_check,
    lupas_endpoint_moment,
    lupas_moment_closed_form,
    mn_image,
    monomial,
    pochhammer,
    q_monotone_catalog,
)
from shapeapprox import functions
from shapeapprox.functions import TruncatedPowerFunction
from shapeapprox.operators import (_as_handle, _bernstein, _eigen_store, _eigenvalues,
                                   _gauss_jacobi, _read_out)
from shapeapprox.special import shifted_jacobi

from oracles import (
    MpfLogShift,
    bernstein_coeffs,
    durrmeyer_reference,
    fractions,
    gavrea_reference,
    genuine_durrmeyer_reference,
    moment_profile,
)


def test_bernstein_preserves_linear_and_e2():
    for n in (1, 4, 9):
        assert bernstein_image(n, monomial(0)).to_monomial().coeffs == (1,)
        assert bernstein_image(n, monomial(1)).to_monomial().coeffs == (0, 1)
    # B_n(e_2) = x^2 + x(1-x)/n
    for n in (2, 5):
        img = bernstein_image(n, monomial(2)).to_monomial()
        assert img.coeffs == (0, Fraction(1, n), 1 - Fraction(1, n))


def test_genuine_durrmeyer_moments_exact():
    # coefficients of U_n(e_i) in the Bernstein basis are (k)_i / (n)_i
    for n in (3, 7, 12):
        for i in range(5):
            img = bernstein_coeffs(genuine_durrmeyer_moment(n, i).coeffs, n)
            for k, c in enumerate(img):
                assert c == Fraction(pochhammer(k, i), pochhammer(n, i))


def test_genuine_durrmeyer_recurrence_matches_closed_form():
    for n in (4, 9):
        for i in range(5):
            a = genuine_durrmeyer_moment(n, i).to_monomial()
            b = genuine_durrmeyer_moment_recurrence(n, i).to_monomial()
            assert a.coeffs == b.coeffs


def test_genuine_durrmeyer_preserves_linear_interpolates_endpoints():
    f = PolyFunction(Polynomial.monomial([Fraction(1, 3), Fraction(2, 5)]))
    for n in (2, 6):
        img = genuine_durrmeyer_image(n, f).to_monomial()
        assert img.coeffs == (Fraction(1, 3), Fraction(2, 5))
    g = PolyFunction(Polynomial.monomial([1, -2, 0, 3]))
    img = genuine_durrmeyer_image(5, g)
    assert img(0) == g.poly(0)
    assert img(1) == g.poly(1)


def test_lupas_moment_closed_forms():
    for n in (3, 8):
        for alpha in (0, Fraction(1, 2), 2):
            for i in (0, 1, 2):
                img = durrmeyer_lupas_image(n, alpha, monomial(i)).to_monomial()
                ref = lupas_moment_closed_form(n, alpha, i).to_monomial()
                for a, b in zip(img.coeffs, ref.coeffs):
                    assert a == b
                # value at 0 equals the stated endpoint moment
                assert img(0) == lupas_endpoint_moment(n, alpha, i)


def test_lupas_bernstein_coefficients():
    # coefficients of D_n(e_i) in the Bernstein basis: (alpha+k+1)_i/(n+2alpha+2)_i
    n, alpha = 6, Fraction(1, 2)
    for i in range(4):
        img = durrmeyer_lupas_image(n, alpha, monomial(i)).to_monomial()
        for k, c in enumerate(bernstein_coeffs(img.coeffs, n)):
            assert c == pochhammer(alpha + k + 1, i) / pochhammer(n + 2 * alpha + 2, i)
    # an exact alpha maps every polynomial exactly, float coefficients too
    f = Polynomial.bernstein([0.25, -1.5, 0.75, 2.0, 0.1])
    mono = f.to_monomial().coeffs
    for n, alpha in ((6, Fraction(1, 2)), (9, Fraction(-2, 5))):
        img = durrmeyer_lupas_image(n, alpha, PolyFunction(f))
        assert list(img.coeffs) == [
            sum(c * pochhammer(alpha + k + 1, i) / pochhammer(n + 2 * alpha + 2, i)
                for i, c in enumerate(mono)) for k in range(n + 1)]


def test_lupas_image_reads_a_float_alpha_exactly():
    # degree 200 is beyond the exactness of a Gauss-Jacobi rule of order 64
    f = PolyFunction(Polynomial.e(200))
    assert durrmeyer_lupas_image(5, 0.5, f) == durrmeyer_lupas_image(5, Fraction(1, 2), f)


@pytest.mark.parametrize("alpha", [-0.9, 0.5])
def test_gauss_jacobi_moments(alpha):
    # the rule is exact for u^(2j), j < order: against the moments
    # B(j+1/2, alpha+1) of (1-u^2)^alpha, over the total mass B(1/2, alpha+1)
    order = 514
    u, w = _gauss_jacobi(order, alpha)
    mass = mpmath.beta(0.5, alpha + 1)
    for j in range(order):
        exact = float(mpmath.beta(j + 0.5, alpha + 1) / mass)
        assert abs(w @ u ** (2 * j) / exact - 1) <= 1e-10, j


def test_lupas_derivative_identity():
    p = PolyFunction(Polynomial.monomial([1, Fraction(-1, 2), 3, Fraction(2, 7), 1]))
    for n in (5, 8):
        for alpha in (0, 1, 0.5, -0.3):  # a float alpha is read as its exact value
            for nu in (1, 2, 3):
                assert lupas_derivative_identity_check(n, alpha, nu, p) <= 1e-9


def test_derivative_bridge():
    p = PolyFunction(Polynomial.monomial([0, 1, -3, 2, Fraction(1, 5)]))
    for n in (4, 9):
        assert derivative_bridge_residual(n, p) <= 1e-9


def test_genuine_durrmeyer_eigenpolynomials():
    # U_n(p_j) = lambda_{n,j} p_j for p_0 = 1-x, p_1 = x and
    # p_j = x(1-x) P^(1,1)_{j-2}(2x-1), with
    # lambda_{n,j} = n!(n-1)!/((n+j-1)!(n-j)!), and 0 for j > n
    fact = math.factorial
    for n in range(2, 9):
        for j in range(n + 2):
            if j < 2:
                p = fractions([1 - j, 2 * j - 1])
            else:
                p = npoly.polymul(fractions([0, 1, -1]), fractions(shifted_jacobi(j - 2, 1, 1)))
            lam = Fraction(fact(n) * fact(n - 1), fact(n + j - 1) * fact(n - j)) if j <= n else 0
            image = genuine_durrmeyer_image(n, PolyFunction(Polynomial.monomial(list(p))))
            assert image.to_monomial().coeffs == Polynomial.monomial(list(p * lam)).coeffs, (n, j)


def _rounded_once(values) -> list:
    """Each Fraction rounded once to PRECISION_BITS (256) bits, to nearest
    with ties to even."""
    return [Fraction(*to_rational(from_rational(v.numerator, v.denominator, 256, round_nearest)))
            for v in values]


def test_gavrea_moments_with_unit_generator():
    # generating polynomial 1: the combination reduces to U_2
    one = Polynomial.monomial([1])
    h0 = gavrea_image(one, monomial(0)).to_monomial()
    h1 = gavrea_image(one, monomial(1)).to_monomial()
    assert h0.coeffs == (1,)
    assert h1.coeffs == (0, 1)
    # H(e_2) = e_2 + factor x(1-x), factor = 1 - int t^2 P(t) dt = 1 - 1/3,
    # each Bernstein coefficient rounded once
    h2 = gavrea_image(one, monomial(2))
    factor = 1 - Fraction(1, 3)
    assert list(h2.coeffs) == _rounded_once(bernstein_coeffs([0, factor, 1 - factor]))


def test_gavrea_moments_with_built_generator():
    gen = build_generator(32, 1)
    prof = moment_profile("gavrea", gen=gen)
    assert prof.conforming
    assert prof.residual <= 1e-10


def test_moment_profiles_conforming():
    assert moment_profile("bernstein", n=8).conforming
    assert moment_profile("genuine_durrmeyer", n=8).conforming
    # neither plain Durrmeyer nor the Lupas variant preserves e_1
    assert moment_profile("lupas", n=8, alpha=Fraction(1, 2)).conforming is False
    assert moment_profile("durrmeyer", n=8).conforming is False


def test_mn_image_shares_the_cached_generator():
    # M_n of degree 66 is driven by the degree-64 generator, built once
    build_generator.cache_clear()
    build_generator(64, 1)
    mn_image(1, 66, ExpFunction())
    assert build_generator.cache_info().misses == 1


def test_mn_image_preserves_shape():
    res = mn_image(2, 64, ExpFunction())
    assert res.q == 2 and res.n == 64
    for k in range(3):
        assert check_k_monotone_poly(res.poly, k).passed


def test_mn_fallback_for_small_n():
    res = mn_image(3, 10, ExpFunction())
    assert res.used_fallback
    for k in range(4):
        assert check_k_monotone_poly(res.poly, k).passed
    # f(0) and f(1) from the one read of f, each rounded once at 256 bits:
    # exp's f(1) is e to 256 bits, not its float64
    num, den = ExpFunction().moment_read(0, 256)
    assert list(res.poly.coeffs) == _rounded_once([Fraction(num[0], den), Fraction(num[-1], den)])
    with mpmath.workprec(256):
        assert res.poly.coeffs == (1, Fraction(*to_rational(mpmath.e._mpf_)))
    # a polynomial's ends are exact
    f = PolyFunction(Polynomial.monomial([Fraction(1, 3), 0, Fraction(2, 7)]))
    assert mn_image(3, 10, f).poly.coeffs == (Fraction(1, 3), Fraction(1, 3) + Fraction(2, 7))


def test_mn_fallback_samples_a_callable_at_its_ends(monkeypatch):
    # a handle without moments of its own gives the fallback the float64
    # f(0) and f(1) that its base read would, and no interpolant is formed
    fns = (lambda x: np.exp(x), lambda x: np.sqrt(x) - 0.3, lambda x: np.cos(3 * x) / 7)
    want = []
    for fn in fns:
        (v0, _, v1), den, exact = _read_out(_as_handle(fn), 0)
        want.append(_bernstein([v0, v1], den, exact))

    def no_interpolant(*args, **kwargs):
        raise AssertionError("interpolant formed")

    monkeypatch.setattr(functions, "chebinterpolate", no_interpolant)
    for fn, w in zip(fns, want):
        res = mn_image(4, 22, fn)
        assert res.used_fallback and res.poly == w
        assert res.poly.coeffs == tuple(Fraction(float(v)) for v in fn(np.array([0.0, 1.0])))
    # exp's own moments still give its ends to 256 bits
    assert mn_image(4, 22, ExpFunction()).poly.coeffs[1] != Fraction(math.e)


def test_gavrea_image_matches_its_definition():
    # sum_k a_k/(k+1) U_{k+2}(f), term by term, in exact arithmetic
    P = Polynomial.monomial([Fraction(3, 2), -4, Fraction(7, 3), 5, Fraction(-1, 4), 2])
    inputs = (TruncatedPowerFunction(Fraction(3, 10), 2),
              PolyFunction(Polynomial.monomial([1, -2, 0, Fraction(1, 3), 0, 0, 1])))
    for f in inputs:
        want = fractions([0])
        for k, ak in enumerate(P.coeffs):
            image = genuine_durrmeyer_image(k + 2, f).to_monomial()
            want = npoly.polyadd(want, fractions(image.coeffs) * (ak / (k + 1)))
        got = gavrea_image(P, f)  # each Bernstein coefficient rounded once
        assert list(got.coeffs) == _rounded_once(bernstein_coeffs(want, got.degree))


def test_gavrea_image_of_the_zero_generator():
    # P = 0 has no content to divide by; its image is 0 for exact moments,
    # exp's moments and a callable's read alike
    zero = Polynomial.monomial([0])
    for f in (monomial(2), ExpFunction(), lambda x: np.exp(x)):
        assert gavrea_image(zero, f).to_monomial().coeffs == (0,)
    img = gavrea_image(Polynomial.monomial([-2]), monomial(2))
    assert list(img.coeffs) == _rounded_once(bernstein_coeffs([0, Fraction(-4, 3), Fraction(-2, 3)]))


@pytest.mark.parametrize("n, r", [(21, 1), (45, 1), (71, 1), (45, 2), (71, 3), (128, 1)])
def test_gavrea_image_matches_the_bernstein_form_reference(n, r):
    # the eigenbasis sum on f's moments gives the image of the b-form
    # read-out and the sum over k of U_{k+2} bit for bit
    P = build_generator(n, r).P
    rng = np.random.default_rng(n + r)
    inputs = [f for q in range(1, 5) for f in q_monotone_catalog(q)]
    inputs += [catalog("xeps:0.5"), catalog("logeps:1e-4"), lambda x: np.exp(x),
               PolyFunction(Polynomial.bernstein(list(rng.random(6))))]
    # a constant, degree d + 5, which H takes to degree d + 2, and degree
    # d - 1, which it keeps
    inputs += [PolyFunction(Polynomial.monomial([Fraction(2, 3)])),
               PolyFunction(Polynomial.bernstein(list(rng.random(P.degree + 6)))),
               PolyFunction(Polynomial.bernstein(list(rng.random(P.degree))))]
    for f in inputs:
        assert gavrea_image(P, f) == gavrea_reference(P, f)


def test_gavrea_image_keeps_the_degree_of_a_polynomial_above_half_of_p():
    # d = 37: a degree-25 f (2e > d + 2) has an image of exact degree 25,
    # rounded at that degree, not at 39, so p^(26) is exactly 0
    rng = np.random.default_rng(25)
    f = PolyFunction(Polynomial.bernstein(list(rng.random(26))))
    res = mn_image(1, 80, f)
    assert res.generator.P.degree == 37
    assert res.poly.degree == res.poly.to_monomial().degree == 25
    rep = check_k_monotone_poly(res.poly, 26)
    assert rep.passed and rep.x_grid_size == 0


@pytest.mark.parametrize("n", [2, 10, 40, 100])
def test_durrmeyer_images_match_the_bernstein_form_reference(n):
    # U_n and D_n take b from the moments; n = 2 reads U_n at degree 0
    inputs = (ExpFunction(), catalog("xeps:0.5"), catalog("truncpow:0.5:3"),
              catalog("logeps:1e-4"), lambda x: np.sin(3 * x) + x)
    pairs = ((genuine_durrmeyer_image, genuine_durrmeyer_reference),
             (durrmeyer_image, durrmeyer_reference))
    for image, reference in pairs:
        for f in inputs:
            assert image(n, f) == reference(n, f)


def test_callable_read_out_is_repeatable():
    # a plain callable is sampled again on every read, and two reads at one
    # degree give the same image, bit for bit, also through H's weights
    f = lambda x: np.log(x + 1e-4)  # a plain callable: no moments
    first, second = (genuine_durrmeyer_image(40, f) for _ in range(2))
    assert first == second
    assert mn_image(1, 200, f).poly == mn_image(1, 200, f).poly


def _distance(p: Polynomial, q: Polynomial, points: int = 257) -> float:
    """max |p - q| over the points k/(points - 1), from exact values."""
    xs = [Fraction(k, points - 1) for k in range(points)]
    return float(max(abs(p(x) - q(x)) for x in xs))


def test_durrmeyer_images_of_exp_moments():
    # n = 100: turning exp's moments into Bernstein moments amplifies
    # their rounding by up to 3^98, which the read-out's 2d extra bits absorb
    for image in (genuine_durrmeyer_image, durrmeyer_image):
        by_moments = image(100, ExpFunction()).coeffs
        by_callable = image(100, lambda x: np.exp(x)).coeffs
        assert max(abs(float(a - b)) for a, b in zip(by_moments, by_callable)) <= 1e-11


@pytest.mark.parametrize("n", [64, 128, 256, 402])
def test_mn_image_of_logeps_is_the_image_of_its_mpmath_moments(n):
    # the fixed-point moments of ln(x + 1e-4) give the image of moments
    # read in mpmath (the Gauss-Legendre read was 9e-4 off at n = 64)
    f = catalog("logeps:1e-4")
    res = mn_image(1, n, f)
    want = gavrea_image(res.generator.P, MpfLogShift(f.eps))
    assert res.poly.degree == want.degree == res.generator.P.degree + 2
    assert max(abs(a - b) for a, b in zip(res.poly.coeffs, want.coeffs)) <= Fraction(1, 10**12)


def test_h_weights_are_formed_once_per_generator():
    # a batch of non-polynomial inputs on one P forms H's P-dependent
    # integers, its eigenvalues, once: one store, and one list in it, which
    # each forming replaces.  The images are those of fresh forms
    P = build_generator(70, 1).P
    batch = (ExpFunction(), catalog("truncpow:0.3:1"), catalog("xeps:0.5"), catalog("logeps:1e-4"))
    _eigen_store.cache_clear()
    images, formed = [], []
    for f in batch:
        images.append(gavrea_image(P, f))
        formed.append(_eigenvalues(P.to_monomial(), 0).num)
    info = _eigen_store.cache_info()  # each image and each read takes the store
    assert (info.misses, info.hits) == (1, 2 * len(batch) - 1)
    assert len({id(lam) for lam in formed}) == 1 and len(formed[0]) == P.degree + 3
    assert [image.degree for image in images] == [P.degree + 2] * len(batch)
    for f, image in zip(batch, images):
        _eigen_store.cache_clear()
        assert gavrea_image(P, f) == image == gavrea_reference(P, f)


def test_eigenbasis_forms_the_moments_of_p_once_per_generator():
    # a batch of polynomial inputs on one P that starts with its largest
    # degree forms H's eigenvalues once; a batch that starts low forms them
    # once more for each larger degree, the same rationals over a larger
    # denominator, and gives the same images.  The images are those of the
    # reference
    _eigen_store.cache_clear()
    rng = np.random.default_rng(3)
    for n, r in ((45, 1), (71, 2), (128, 1)):
        P = build_generator(n, r).P
        D = P.degree + 2
        batch = [PolyFunction(Polynomial.bernstein(list(rng.random(e + 1))))
                 for e in (D + 5, 6, 0, 4, 1, D - 1, 3)]
        formed, images = [], []
        for f in batch:
            images.append(gavrea_image(P, f))
            formed.append(_eigenvalues(P.to_monomial(), 0).num)
        assert len({id(lam) for lam in formed}) == 1 and len(formed[0]) == D + 1, (n, r)
        assert [image.degree for image in images] == [D, 6, 0, 4, 1, D - 1, 3]
        for f, image in zip(batch, images):
            assert image == gavrea_reference(P, f)
        _eigen_store.cache_clear()
        formed = []
        for f, image in zip(batch[1:6], images[1:6]):  # degrees 6, 0, 4, 1, D - 1
            assert gavrea_image(P, f) == image
            lam = _eigenvalues(P.to_monomial(), 0)
            formed.append((lam.num, lam.den))
        assert [len(num) for num, den in formed] == [7, 7, 7, 7, D], (n, r)
        assert formed[0][0] is formed[3][0] and formed[3][0] is not formed[4][0]
        (small, s), (large, t) = formed[0], formed[4]
        assert [Fraction(x, s) for x in small] == [Fraction(x, t) for x in large[:7]]
    _eigen_store.cache_clear()


@pytest.mark.parametrize("n, r", [(19, 1), (21, 2), (45, 3), (71, 3), (128, 1), (400, 1)])
def test_eigenvalues_are_bounded_by_the_integral_of_p(n, r):
    # H is positive and H1 = Lambda_0 = int P, so every eigenvalue lies in
    # [-Lambda_0, Lambda_0]: checked in integers over their one denominator
    form = build_generator(n, r).P.to_monomial()
    lam = _eigenvalues(form, form.degree + 3)
    assert lam.num[0] == lam.num[1] > 0 and lam.den > 0
    assert len(lam.num) == form.degree + 3
    assert all(abs(x) <= lam.num[0] for x in lam.num)
    # Lambda_j = sum_k a_k/(k+1) lambda_{k+2,j}, with
    # lambda_{n,j} = n!(n-1)!/((n+j-1)!(n-j)!)
    f = math.factorial
    for j in (2, 3, form.degree + 2):
        want = sum(Fraction(a * f(k + 2) * f(k + 1), form.den * (k + 1) * f(k + j + 1) * f(k + 2 - j))
                   for k, a in enumerate(form.num) if k + 2 >= j)
        assert Fraction(lam.num[j], lam.den) == want


@pytest.mark.parametrize("n", [124, 256, 402, 514])
def test_mn_image_of_an_exp_callable_is_the_image_of_exp(n):
    # H's weights sum to about 2^39 at n = 124 and 2^125 at n = 256; a
    # callable is read through the exact moments of its Chebyshev
    # interpolant, so they amplify no float rounding of the read (a
    # Gauss-Legendre read was 6.8e-9, 0.29 and 1.2e6 off from n = 256 on)
    by_callable = mn_image(1, n, lambda x: np.exp(x)).poly
    assert _distance(by_callable, mn_image(1, n, ExpFunction()).poly) <= 1e-12


def test_mn_image_of_a_sqrt_callable_at_n_402():
    # M_n is positive, so the image lies within about max|f - p| of the
    # exact x^(1/2) image, for p the interpolant read (a Gauss-Legendre
    # read was 0.16 off)
    by_callable = mn_image(1, 402, lambda x: np.sqrt(x)).poly
    assert _distance(by_callable, mn_image(1, 402, catalog("xeps:0.5")).poly) <= 1e-6


def test_genuine_durrmeyer_image_of_a_sqrt_callable():
    # U_40 reads the interpolant of degree 64 (a Gauss-Legendre read of
    # order 64 was 5.6e-6 off)
    by_callable = genuine_durrmeyer_image(40, lambda x: np.sqrt(x))
    assert _distance(by_callable, genuine_durrmeyer_image(40, catalog("xeps:0.5"))) <= 1e-5


def test_gavrea_image_is_rounded_once():
    # a built generator and an exact cubic: the image is the exact image of
    # P's values, each Bernstein coefficient rounded once at PRECISION_BITS
    # (256), whatever the ambient precision
    P = build_generator(40, 1).P
    f = PolyFunction(Polynomial.monomial([Fraction(1, 3), -2, Fraction(5, 7), 1]))
    exact = gavrea_reference(P, f, exact=True).coeffs
    for prec in (53, 256):
        with mpmath.workprec(prec):
            got = gavrea_image(P, f).coeffs
        assert len(got) == len(exact) == 4
        assert list(got) == _rounded_once(exact)


def test_mn_image_at_large_n_is_the_exact_image_rounded_once():
    # at n = 402 the H image of x^0.5 has Bernstein coefficients up to 1e13
    # and monomial ones up to 1e99; its Bernstein coefficients, each rounded
    # once, keep the stored image close to the exact image of the stored P
    xs = [Fraction(j, 64) for j in range(65)]
    for n in (402, 514):
        for f in (catalog("xeps:0.5"), catalog("truncpow:0.3:1")):
            res = mn_image(1, n, f)
            got = res.poly
            exact = gavrea_reference(res.generator.P, f, exact=True)
            assert max(abs(got(x) - exact(x)) for x in xs) <= Fraction(1, 10**50), (n, f)


def test_images_do_not_depend_on_the_ambient_precision():
    # each image is rounded once at PRECISION_BITS whether the caller works
    # at the default 53 bits or at more
    P = build_generator(40, 1).P
    images = (lambda: genuine_durrmeyer_image(60, ExpFunction()),
              lambda: durrmeyer_image(60, ExpFunction()),
              lambda: gavrea_image(P, ExpFunction()))
    for image in images:
        at_default = image()
        with mpmath.workprec(400):
            assert image() == at_default
