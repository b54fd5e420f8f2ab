"""Generating polynomials: unit integral, nonnegative derivatives, and
second-moment deficiency decay."""
import hashlib
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath.libmp import from_rational, round_nearest, to_rational
from numpy.polynomial import polynomial as npoly

from shapeapprox import (
    PolyFunction,
    Polynomial,
    PrecisionError,
    RegimeError,
    build_generator,
    catalog,
    check_k_monotone_poly,
    deficiency_slope,
    generator,
    mn_image,
    polynomial,
)
from shapeapprox.polynomial import bernstein_derivative
from shapeapprox.special import tau

from oracles import bernstein_coeffs, fractions, generator_scales_reference, integral_01

XS = np.linspace(0.0, 1.0, 2048)


def native_relative(poly, nu):
    """poly^(nu) on a 2048-point grid from its own native-degree Bernstein
    form, divided by its largest coefficient."""
    c, den = bernstein_derivative(*poly.bernstein_read(), nu)
    coeffs = np.array([x / den for x in c])
    scale = max(1e-300, float(np.max(np.abs(coeffs))))
    return polynomial.bernstein_basis(len(coeffs) - 1, XS) @ coeffs / scale


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("n", [32, 64])
def test_generator_basic_properties(n, r):
    gen = build_generator(n, r)
    assert gen.n == n and gen.r == r
    assert gen.m == math.ceil(n / (8 * r))
    assert gen.P.degree <= n
    assert abs(integral_01(gen.P.coeffs) - 1) <= Fraction(1, 10**20)
    for nu in range(r + 1):
        assert native_relative(gen.P, nu).min() >= -1e-15


def test_generator_moment_deficiencies_positive_and_ordered():
    gen = build_generator(64, 2)
    d = gen.moment_deficiency
    assert all(float(d[mu]) > 0 for mu in (1, 2, 3, 4))
    # delta_mu = 1 - int x^mu P increases with mu since x^mu decreases on [0,1]
    assert float(d[1]) < float(d[2]) < float(d[3]) < float(d[4])


def _moment(P: Polynomial, mu: int) -> Fraction:
    """int_0^1 x^mu P, exactly, from the exact monomial coefficients."""
    return integral_01([0] * mu + list(fractions(P.coeffs)))


def test_moment_of_unit_mass():
    gen = build_generator(48, 1)
    m0 = _moment(gen.P, 0)
    assert abs(m0 - 1) <= Fraction(1, 10**20)
    m2 = _moment(gen.P, 2)
    assert abs((1 - m2) - gen.moment_deficiency[2]) <= Fraction(1, 10**25)


def test_moment_is_rounded_once():
    # each deficiency is 1 minus the exact integral of the stored P, rounded
    # once at precision_bits, to nearest as mpmath rounds
    gen = build_generator(64, 1)
    exact = _moment(gen.P, 2)
    delta = 1 - exact
    rounded = from_rational(delta.numerator, delta.denominator, gen.precision_bits, round_nearest)
    assert gen.moment_deficiency[2] == Fraction(*to_rational(rounded))


@pytest.mark.parametrize("n, r", [(64, 1), (128, 3)])
def test_build_records_its_certificate(n, r):
    gen = build_generator(n, r)
    assert gen.unit_integral_residual == abs(float(integral_01(gen.P.coeffs) - 1))


def test_delta2_decays_like_inverse_square():
    slope = deficiency_slope(1, [32, 64, 128, 256])
    assert -2.4 <= slope <= -1.6


@pytest.mark.parametrize("ns", [[32], []])
def test_deficiency_slope_needs_two_n(ns):
    # a slope needs two points; fewer is a regime error, not a degenerate fit
    with pytest.raises(RegimeError, match="at least two n"):
        deficiency_slope(1, ns)


def test_n2_delta2_bounded():
    vals = []
    for n in (32, 64, 128):
        gen = build_generator(n, 2)
        vals.append(n * n * float(gen.moment_deficiency[2]))
    assert max(vals) <= 4 * min(vals)


def test_build_makes_one_attempt(monkeypatch):
    # a stored P that is not the construction fails the identity gate, which
    # raises at the requested precision; there is no retry at a higher one
    calls = []

    def counted(*args):
        calls.append(args[2])
        return power(*args)

    def perturbed(basis, num, den=1):  # one unit more in every nonzero numerator
        return from_integers(basis, [x + (x != 0) for x in num], den)

    power, from_integers = generator._power, Polynomial.from_integers
    monkeypatch.setattr(generator, "_power", counted)
    monkeypatch.setattr(Polynomial, "from_integers", staticmethod(perturbed))
    with pytest.raises(PrecisionError, match="positive multiple"):
        build_generator.__wrapped__(64, 1)
    assert calls == [2]


def test_build_reads_generator_once(monkeypatch):
    # P is built as its integers, after tau's, which are formed as integers
    # too: no coefficient is read or converted, and no basis matrix is
    # formed; a shape check forms the Bernstein integers once
    calls = {"read": 0, "coefficient": 0, "basis": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polynomial, "bernstein_integers",
                        counted("read", polynomial.bernstein_integers))
    monkeypatch.setattr(polynomial, "_rational", counted("coefficient", polynomial._rational))
    basis = counted("basis", polynomial.bernstein_basis)
    for name, module in list(sys.modules.items()):
        if name.startswith("shapeapprox") and hasattr(module, "bernstein_basis"):
            monkeypatch.setattr(module, "bernstein_basis", basis)

    gen = build_generator.__wrapped__(128, 3)
    assert gen.precision_bits == 376
    assert calls["read"] == 0 and calls["basis"] == 0
    assert calls["coefficient"] == 0

    assert check_k_monotone_poly(Polynomial.monomial([0, 1, 0, 1]), 2).passed
    assert calls["read"] == 1


def test_build_forms_no_bernstein_integers(monkeypatch):
    # the build and its exact gate read P's monomial integers only; P's
    # Bernstein integers are formed by each read of them, and kept by none
    calls = []
    real = polynomial.bernstein_integers

    def counted(num):
        calls.append(len(num))
        return real(num)

    monkeypatch.setattr(polynomial, "bernstein_integers", counted)
    gen = build_generator.__wrapped__(128, 3)
    assert calls == []
    want = real(gen.P.to_monomial().num)
    for _ in range(2):
        assert gen.P.bernstein_read() == (want, gen.P.den)
    assert calls == [gen.P.degree + 1] * 2


def _dyadic_key(c: Fraction):
    """The _mpf_ key of the mpf with the dyadic value c: its sign, odd
    mantissa, exponent and mantissa width."""
    if not c:
        return (0, 0, 0, 0)
    man, exp = abs(c.numerator), 1 - c.denominator.bit_length()
    t = (man & -man).bit_length() - 1
    return (int(c < 0), man >> t, exp + t, (man >> t).bit_length())


# the builds of the seed-1 gen_build benchmark list, and those M_n makes on
# the mn_batch clusters (n - 2 for n = 21..73, every r it admits)
SEED_1_BUILDS = [(9, 1), (14, 1), (22, 1), (34, 1), (52, 1), (78, 1), (119, 1), (180, 1),
                 (273, 1), (417, 1), (19, 2), (28, 2), (39, 2), (55, 2), (75, 2), (108, 2),
                 (152, 2), (216, 2), (303, 2), (430, 2), (28, 3), (38, 3), (51, 3), (69, 3),
                 (94, 3), (130, 3), (175, 3), (239, 3), (323, 3), (439, 3)]
MN_BATCH_BUILDS = [(n - 2, r) for n in range(21, 74) for r in (1, 2, 3) if n - 2 > 8 * r]


def test_scales_from_q_moments_match_those_from_p_moments():
    # lambda_n from Q's moments, and int P and the deficiencies through the
    # gated identity P = (u/(v den)) I^r Q, equal the earlier route: kappa on
    # the factorial weights of Q and the moments of the stored P
    for n, r in SEED_1_BUILDS + MN_BATCH_BUILDS:
        gen = build_generator.__wrapped__(n, r)
        lam, resid, deficiency = generator_scales_reference(gen)
        assert gen.lambda_n == lam, (n, r)
        assert gen.unit_integral_residual == resid, (n, r)
        assert gen.moment_deficiency == deficiency, (n, r)


def test_build_output_is_pinned_bit_for_bit():
    # a SHA-256 over every GeneratorPoly field of 15 builds: P's exact read,
    # each stored coefficient, lambda_n, each deficiency, the residual and
    # precision_bits. A change to how the build computes must not move a bit;
    # a change of its precision re-pins the digest, and
    # test_generator_is_accurate_to_a_wide_guard is then the guarantee. The
    # keys of the dyadic values are those of the mpfs the build once stored
    builds = [(n, r) for r in (1, 2, 3) for n in (8 * r + 1, 64, 130, 257, 439)]
    assert _builds_digest(builds) == "632ef0166c8ac19d3c71d2847f84aec948f61a07918a1591ee907c21d2770eee"


def test_largest_benchmark_builds_are_pinned_bit_for_bit():
    # n = 512, the largest n the benchmark builds, with the largest products
    # at each r (tau has m = 64 coefficients at r = 1), by the same record
    builds = [(512, r) for r in (1, 2, 3)]
    assert _builds_digest(builds) == "eb1de51e0138323367bf8df50ebf302c57914b25c0d7e62477f5133563f63f9f"


def test_mn_images_are_pinned_bit_for_bit():
    # the exact Bernstein integers of M_n images of the catalog's fixed-point
    # reads, a callable read through its Chebyshev interpolant, and
    # polynomials of degree D - 1 and D/4 (D = deg P + 2) on r = 1, 2, 3;
    # a read at fewer bits (a dropped gain) moves them, where the CSV
    # digests, at 17 digits, need not move
    digest = hashlib.sha256()
    for q in (1, 3, 4):
        for n in (46, 72, 130, 402):
            D = build_generator(n - 2, max(q - 1, 1)).P.degree + 2
            rng = np.random.default_rng(n)
            inputs = [catalog("exp"), catalog("logeps:1e-4"), catalog("xeps:0.5"),
                      catalog("truncpow:0.3:2"), lambda x: np.exp(x),
                      PolyFunction(Polynomial.bernstein(list(rng.random(D)))),
                      PolyFunction(Polynomial.bernstein(list(rng.random(D // 4 + 1))))]
            for k, f in enumerate(inputs):
                res = mn_image(q, n, f)
                assert not res.used_fallback
                p = res.poly
                digest.update(repr((q, n, k, p.basis, p.num, p.den)).encode())
    assert digest.hexdigest() == "837b0d5c23beab7064ee0a1f18ec04c6bb67f70f83f29c7e399e7f1e55133bef"


def _builds_digest(builds) -> str:
    """SHA-256 over every GeneratorPoly field of each (n, r) build: P's exact
    read, each stored coefficient, lambda_n, each deficiency, the residual
    and precision_bits."""
    digest = hashlib.sha256()
    for n, r in builds:
        gen = build_generator.__wrapped__(n, r)
        form = gen.P.to_monomial()
        record = (n, r, form.num, form.den, [_dyadic_key(c) for c in gen.P.coeffs],
                  _dyadic_key(gen.lambda_n),
                  [(mu, _dyadic_key(v)) for mu, v in sorted(gen.moment_deficiency.items())],
                  gen.unit_integral_residual.hex(), gen.precision_bits)
        digest.update(repr(record).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", ["8r+1", 64, 130, 257, 512, 1026])
def test_generator_is_accurate_to_a_wide_guard(monkeypatch, n, r):
    # P's values at dyadic points and its deficiencies lie within
    # 2^-(PRECISION_BITS + 32), relative, of the build with the guard
    # 4 deg Q + 256, far beyond tau's growth
    n = 8 * r + 1 if n == "8r+1" else n
    gen = build_generator.__wrapped__(n, r)
    monkeypatch.setattr(generator, "_guard_bits", lambda m, r: 4 * 4 * r * (m - 1) + 256)
    wide = build_generator.__wrapped__(n, r)
    assert wide.precision_bits > gen.precision_bits
    tol = Fraction(1, 2 ** (generator.PRECISION_BITS + 32))
    for x in [Fraction(1, 1024), *(Fraction(k, 16) for k in range(1, 17))]:
        want = wide.P(x)
        assert abs(gen.P(x) - want) <= tol * abs(want)
    for mu in (1, 2, 3, 4):
        want = wide.moment_deficiency[mu]
        assert abs(gen.moment_deficiency[mu] - want) <= tol * want


def test_guard_covers_tau_growth():
    # in integers, for every m <= 300: 2r log2(||tau||_1 / tau(1)) is at most
    # ceil(2rm log2(1 + sqrt 2)), and that at most the guard less its 64
    # spare bits. (1 + sqrt 2)^(2k) = (3 + 2 sqrt 2)^k = a_k + b_k sqrt 2 lies
    # in (2 a_k - 1, 2 a_k), as a_k - b_k sqrt 2 = (3 - 2 sqrt 2)^k is in (0,1),
    # so its ceiling log2 is the bit length of 2 a_k - 1
    a, b = [1], [0]
    for _ in range(3 * 300):
        a, b = a + [3 * a[-1] + 4 * b[-1]], b + [2 * a[-1] + 3 * b[-1]]
    for m in range(2, 301):
        # at 256 bits tau(1) loses every bit from m = 212 on: read tau at the
        # build's precision
        bits = generator.PRECISION_BITS + generator._guard_bits(m, 1)
        num = tau(m, prec_bits=bits).poly.to_monomial().num
        norm, value = sum(map(abs, num)), sum(num)
        for r in (1, 2, 3):
            allowance = (2 * a[r * m] - 1).bit_length()
            assert norm ** (2 * r) <= value ** (2 * r) << allowance
            assert allowance + 64 <= generator._guard_bits(m, r)


@pytest.mark.parametrize("n, r, bits", [(128, 3, 376), (512, 1, 498)])
def test_precision_bits_is_the_stored_precision(n, r, bits):
    # the rounded quantities (the products of tau's power and kappa =
    # lambda/L) are kept at the working precision plus guard bits for tau's
    # growth, precision_bits reports those bits, and P is stored exactly: its
    # mantissas, read as stored, are wider than that, and its exact read has
    # one power-of-two denominator
    gen = build_generator(n, r)
    assert gen.precision_bits == bits
    kappa = gen.lambda_n / lcm_of_b(gen)
    assert kappa.numerator.bit_length() <= bits
    assert kappa.denominator & (kappa.denominator - 1) == 0
    assert max(_dyadic_key(c)[3] for c in gen.P.coeffs) > bits
    den = gen.P.to_monomial().den
    assert den & (den - 1) == 0


@pytest.mark.parametrize("n, r", [(69, 1), (430, 2), (439, 3)])
def test_generator_has_one_narrow_denominator(n, r):
    # P's coefficients are exact dyadic rationals, so its exact read needs one
    # power-of-two denominator and no wider one
    gen = build_generator(n, r)
    den = gen.P.to_monomial().den
    assert den & (den - 1) == 0


def exact_generator(n, r):
    """P from the library's own tau in exact arithmetic: tau^(4r), its r-fold
    antiderivative and lambda, with nothing rounded."""
    gen = build_generator(n, r)
    t = tau(gen.m, prec_bits=gen.precision_bits)
    Q = npoly.polypow(fractions(t.poly.coeffs), 4 * r)
    lam = r / integral_01(npoly.polymul(Q, npoly.polypow(fractions([1, -1]), r)))
    return npoly.polyint(Q, r) * (lam * math.factorial(r - 1))


def library_square(gen):
    """Q = S^2 from the library's tau, with S = tau^(2r) rounded after each
    product as the build rounds it, and the square taken by schoolbook
    multiplication, exactly."""
    t = tau(gen.m, prec_bits=gen.precision_bits)
    form = t.poly.to_monomial()
    s, es = generator._power(form.num, 1 - form.den.bit_length(), 2 * gen.r, gen.precision_bits)
    return [x * Fraction(2) ** (2 * es) for x in schoolbook(s, s)]


def lcm_of_b(gen):
    """L = lcm_j r C(j+r, r) over the coefficients of Q."""
    r = gen.r
    return math.lcm(*(r * math.comb(j + r, r) for j in range(gen.P.degree - r + 1)))


@pytest.mark.parametrize("n, r", [(64, 1), (128, 3), (430, 2)])
def test_generator_is_certified_by_construction(n, r):
    # P^(r) = lambda_n (r-1)! Q exactly with lambda_n > 0, and P has no
    # coefficient below x^r, so every P^(nu), nu <= r, is >= 0 on [0,1]
    gen = build_generator(n, r)
    P = fractions(gen.P.coeffs)
    assert all(c == 0 for c in P[:r])
    c = gen.lambda_n * math.factorial(r - 1)
    assert c > 0
    assert list(npoly.polyder(P, r)) == [c * x for x in library_square(gen)]


@pytest.mark.parametrize("n, r", [(64, 1), (128, 3)])
def test_generator_matches_exact_construction(n, r):
    # every Bernstein coefficient of P - exact P is below 2^-PRECISION_BITS of
    # P's largest Bernstein coefficient
    P = fractions(build_generator(n, r).P.coeffs)
    d = len(P) - 1
    want = exact_generator(n, r)
    assert len(want) - 1 == d
    err = max(map(abs, bernstein_coeffs(npoly.polysub(P, want), d)))
    scale = max(map(abs, bernstein_coeffs(P, d)))
    assert err <= Fraction(1, 2**generator.PRECISION_BITS) * scale


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_kronecker_product_matches_schoolbook():
    rng = random.Random(11)
    # product lengths 1 to 3, odd and even factor lengths, and a zero factor,
    # whose product bound is 0 but whose other factor must still fit its slots
    cases = [([5], [-7]), ([0], [3, -1]), ([-1, 0, 0, -2**300], [0, 0, 1]),
             ([2**64 - 1] * 3, [-(2**64 - 1)] * 5), ([1, -1], [1, -1]), ([2, -3], [7]),
             ([1, 2, 3, 4], [5, 6, 7]), ([0], [300]), ([300], [0]), ([0, 0], [2**70, 5])]
    # a product coefficient of `bits` bits, with the two spare bits filling the
    # 2N-bit slots exactly (bits = 14, 30, 126) or one bit past them, which
    # takes one more byte for each half slot N
    for bits in (14, 15, 30, 31, 126, 127):
        top = math.isqrt((2**bits - 1) // 4)
        assert (4 * top * top).bit_length() == bits
        cases += [([top] * 4, [top] * 4), ([-top] * 4, [top] * 4), ([top, -top] * 2, [-top, top] * 2)]
    # then up to 130 coefficients of up to 1,000 bits
    for count, width, sizes in ((200, 40, [1, 8, 63, 64, 65, 300]), (40, 130, [500, 1000])):
        for _ in range(count):
            la, lb = rng.randint(1, width), rng.randint(1, width)
            bits = rng.choice(sizes)
            a = [rng.randint(-2**bits, 2**bits) * rng.randint(0, 1) for _ in range(la)]
            b = [rng.randint(-2**bits, 2**bits) for _ in range(lb)]
            a[-1] = -abs(a[-1]) or -1  # negative leading coefficient
            cases.append((a, b))
    # unequal lengths: tau^2 tau^4 at m = 19, the last product of S = tau^6
    form = tau(19, prec_bits=500).poly.to_monomial()
    s2, s4 = (generator._power(form.num, 0, k, 500)[0] for k in (2, 4))
    assert (len(s2), len(s4)) == (37, 73)
    cases.append((s2, s4))
    for a, b in cases:
        assert generator._kronecker_mul(a, b) == schoolbook(a, b)
        assert generator._square(a) == schoolbook(a, a)
        # a square passed as one list, and as an equal copy
        assert generator._kronecker_mul(a, a) == generator._kronecker_mul(a, list(a)) == schoolbook(a, a)
    # a constant term far below the rest, as in tau for odd m: the others
    # share hundreds of trailing zeros, which the square shifts out
    for m in (7, 53):
        num = tau(m, prec_bits=500).poly.to_monomial().num
        assert (num[0] & -num[0]).bit_length() < 8
        assert all(x % 2**400 == 0 for x in num[1:])
        assert generator._square(num) == schoolbook(num, num)
