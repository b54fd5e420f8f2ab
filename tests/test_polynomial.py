"""Polynomial evaluation, basis conversion, the exact Bernstein and
Chebyshev read-outs, and serialization."""
import hashlib
import json
import math
import random
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_man_exp, from_rational, round_nearest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.chebyshev import chebval

from shapeapprox import (BasisError, DomainError, PolyFunction, Polynomial, build_generator,
                         check_k_monotone_poly)
from shapeapprox import polynomial
from shapeapprox.polynomial import (_halve, _round_div, _round_to_bits, _round_value,
                                    bernstein_basis, bernstein_derivative, bernstein_elevation,
                                    bernstein_integers, nonnegative_by_halving)

from oracles import bernstein_coeffs, compose, exact, fractions, integral_01, monomial_coeffs


def test_monomial_eval_horner_exact():
    p = Polynomial.monomial([Fraction(1), Fraction(-2), Fraction(3)])
    assert p(Fraction(1, 2)) == Fraction(1) - 1 + Fraction(3, 4)
    assert p(0) == 1
    assert p(1) == 2


def test_bernstein_de_casteljau_matches_monomial():
    p = Polynomial.monomial([1, 2, -1, Fraction(1, 3)])
    b = Polynomial.bernstein(bernstein_coeffs(p.coeffs))
    for x in [Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(9, 10), Fraction(1)]:
        assert b(x) == p(x)


def test_bernstein_eval_outside_domain_raises():
    b = Polynomial.bernstein([0, 1])  # x
    with pytest.raises(DomainError):
        b(Fraction(3, 2))
    with pytest.raises(DomainError):
        b(Fraction(-1, 10))


def test_eval_at_non_finite_x_raises_domain_error():
    # in either basis, naming x; NaN and the infinities have no exact value
    for p in (Polynomial.monomial([1, 2]), Polynomial.bernstein([1, 2])):
        for x in (math.inf, -math.inf, math.nan, np.float64("nan")):
            with pytest.raises(DomainError, match=f"x={x}"):
                p(x)


def test_roundtrip_monomial_bernstein():
    p = Polynomial.monomial([Fraction(2), 0, Fraction(-5), Fraction(7, 3), Fraction(1)])
    assert Polynomial.bernstein(bernstein_coeffs(p.coeffs)).to_monomial().coeffs == p.coeffs


def test_degree_elevation():
    b = Polynomial.bernstein(bernstein_coeffs([1, 1], 5))  # 1 + x at degree 5
    assert b.degree == 5
    assert b.to_monomial().coeffs == (1, 1)
    for x in [Fraction(0), Fraction(1, 3), Fraction(1)]:
        assert b(x) == 1 + x


def test_json_roundtrip_exact():
    p = Polynomial.monomial([Fraction(1, 3), Fraction(-7, 5)])
    s = p.to_json()
    q = Polynomial.from_json(s)
    assert q.coeffs == p.coeffs and q.basis == p.basis


def test_json_roundtrip_float_keeps_every_bit():
    P = build_generator(256, 1).P
    q = Polynomial.from_json(P.to_json())
    assert q == P and q.to_monomial() == P.to_monomial()


def test_json_writes_exact_strings_and_reads_decimals_exactly():
    # "a" or "a/b" per coefficient; a decimal string is the decimal it spells
    p = Polynomial.bernstein([2, Fraction(-7, 8), 0.1])
    assert json.loads(p.to_json()) == {"basis": "bernstein", "n": 2,
                                       "coeffs": ["2", "-7/8", "3602879701896397/36028797018963968"]}
    q = Polynomial.from_json('{"basis": "bernstein", "n": 1, "coeffs": ["0.1", " 0.7 "]}')
    assert q.coeffs == (Fraction(1, 10), Fraction(7, 10)) and q(0.5) == Fraction(2, 5)
    assert Polynomial.from_json('{"basis": "monomial", "coeffs": ["1e-3", "-2"]}').num == (1, -2000)
    for bad in ("nan", "inf", "-inf", "1/0x"):
        with pytest.raises(ValueError):
            Polynomial.from_json(f'{{"basis": "monomial", "coeffs": ["1", "{bad}"]}}')
    with pytest.raises(TypeError):  # a JSON number has no exact spelling to read
        Polynomial.from_json('{"basis": "monomial", "coeffs": ["1", 0.1]}')


def test_json_n_must_be_the_degree_of_the_coefficients():
    # "n" is checked, not ignored: a file whose n is not len(coeffs) - 1
    # (or is no int; a bool is none here) is not read as another degree
    for n in (3, 0, -1, "1", 1.0, True, None):
        with pytest.raises(ValueError, match="the degree of the coefficients"):
            Polynomial.from_json(json.dumps({"basis": "bernstein", "n": n, "coeffs": ["1", "2"]}))
    for text in ('{"basis": "bernstein", "n": 1, "coeffs": ["1", "2"]}',
                 '{"basis": "bernstein", "coeffs": ["1", "2"]}'):
        assert Polynomial.from_json(text) == Polynomial.bernstein([1, 2])
    P = Polynomial.monomial([0])
    assert Polynomial.from_json(P.to_json()) == P


def test_round_to_bits_matches_from_rational():
    # one value rounds to from_rational(v, den, bits, round_nearest) bit for
    # bit, exact ties (odd mantissas one bit too wide) to even included
    rng = random.Random(5)
    cases = [(0, 7, 256), (1, 3, 1), (-5, 2, 2), (7, 2, 2), (2**300 - 1, 1, 256)]
    for _ in range(2000):
        v = rng.randint(-2**rng.randint(0, 900), 2**rng.randint(0, 900))
        den = rng.choice([rng.randint(1, 2**rng.randint(1, 900)), 1 << rng.randint(0, 900)])
        cases.append((v, den, rng.choice([1, 53, 256])))
    for _ in range(500):
        bits, k = rng.choice([1, 5, 256]), rng.choice([1, 3])
        man = rng.getrandbits(bits) | (1 << bits) | 1  # bits + 1 bits, odd
        cases.append((rng.choice([-1, 1]) * man * k, k << rng.randint(0, 40), bits))
    for v, den, bits in cases:
        (c,), e = _round_to_bits([v], den, bits)
        assert from_man_exp(c, e) == from_rational(v, den, bits, round_nearest)


def test_round_value_is_round_to_bits_of_one_value():
    # the per-value helper against the list path, which divides v again at
    # the helper's e, and against from_rational: exact ties to even, both
    # signs, zero, and values that round up to 2^bits
    rng = random.Random(41)
    cases = [(0, 7, 256), (0, 1, 1), (1, 2, 1), (-1, 2, 1)]
    for bits in (1, 5, 53, 256):
        cases += [(s * ((1 << (bits + 1)) - 1), 2, bits) for s in (1, -1)]  # 2^bits - 1/2
        cases += [(s * ((3 << bits) - 1), 3, bits) for s in (1, -1)]  # 2^bits - 1/3
    for _ in range(1000):
        bits, k = rng.choice([1, 5, 53, 256]), rng.choice([1, 3, 7])
        man = rng.getrandbits(bits) | (1 << bits) | 1  # bits + 1 bits, odd: a tie
        cases.append((rng.choice([-1, 1]) * man * k, k << rng.randint(0, 40), bits))
        v = rng.randint(-2**rng.randint(0, 600), 2**rng.randint(0, 600))
        cases.append((v, rng.randint(1, 2**rng.randint(1, 600)), bits))
    for v, den, bits in cases:
        c, e = _round_value(v, den, bits)
        assert ([c], e) == _round_to_bits([v], den, bits)
        assert ([c, 0], e) == _round_to_bits([v, 0], den, bits)
        assert from_man_exp(c, e) == from_rational(v, den, bits, round_nearest)
        assert (c >= 0) == (v >= 0)
    for bits in (1, 5, 53, 256):  # 2^bits - 1/3 rounds up to 2^bits = 2^(bits-1) 2^1
        assert _round_value((3 << bits) - 1, 3, bits) == (1 << (bits - 1), 1)
        assert _round_value(1 - (3 << bits), 3, bits) == (-(1 << (bits - 1)), 1)


def test_bernstein_integers_of_one_column_match_the_object_array():
    # a sequence of ints is summed on Python lists; the same integers as the
    # object-array path on that one column
    rng = random.Random(43)
    for d in (0, 1, 2, 7, 35, 90):
        for _ in range(3):
            num = [rng.randint(-2**300, 2**300) for _ in range(d + 1)]
            want = bernstein_integers(np.array(num, dtype=object)[:, None])[:, 0]
            got = bernstein_integers(num)
            assert isinstance(got, list) and got == list(want), d
            assert bernstein_integers(tuple(num)) == got


def test_round_div_by_shifts_matches_divmod():
    # den = 1 rounds by shifts; it must agree with the divmod form for either
    # sign and on exact ties, which go to even
    def by_divmod(x, e):
        q, rem = divmod(x, 1 << e)
        return q + (2 * rem > 1 << e or (2 * rem == 1 << e and q & 1))

    assert [_round_div(x, 1, 1) for x in (3, 5, -3, -5, 1, -1)] == [2, 2, -2, -2, 0, 0]
    rng = random.Random(23)
    cases = [(x, e) for x in range(-9, 10) for e in (1, 2, 3)]
    for _ in range(2000):
        e = rng.randint(1, 700)
        cases.append((rng.randint(-2**(e + 300), 2**(e + 300)), e))
        cases.append(((rng.randint(-2**300, 2**300) << e) + (1 << (e - 1)), e))  # a tie
    for x, e in cases:
        assert _round_div(x, 1, e) == by_divmod(x, e)


def test_read_integers_by_shifts_matches_the_general_read():
    # dyadic coefficients (floats, or Fractions over powers of two) are
    # scaled by shifts; the integers must be those of the lcm read a (den // q)
    def general(coeffs):
        parts = [polynomial._rational(c) for c in coeffs]
        den = math.lcm(*(q for _, q in parts))
        return tuple(a * (den // q) for a, q in parts), den

    def dyadic(rng):
        man = rng.choice([0, rng.randint(-2**200, 2**200), rng.choice([-1, 1])])
        return exact(mpmath.mp.make_mpf(from_man_exp(man, rng.randint(-400, 400))))

    rng = random.Random(29)
    cases = [[Fraction(0)], [-3.0], [Fraction(-5, 8)], [0, 0, Fraction(1, 2)],
             [0.0, 0.75, -2.0**70],
             [Fraction(1, 3), Fraction(-5, 8), 7],  # not dyadic: the general read
             [np.int64(3), Fraction(1, 1 << 70)]]  # a numpy integer, shifted as a Python int
    for _ in range(300):
        k = rng.randint(1, 12)
        cases.append([dyadic(rng) for _ in range(k)])
        cases.append([Fraction(rng.randint(-10**40, 10**40) * rng.randint(0, 1),
                               1 << rng.randint(0, 300)) for _ in range(k)])
    for coeffs in cases:
        p = Polynomial.monomial(coeffs)
        assert (p.num, p.den) == general(p.coeffs) and p.to_monomial() is p
        # integers handed over are put in lowest terms, trailing zeros dropped
        k = rng.choice([1, 3, 1 << rng.randint(1, 90)])
        assert Polynomial.from_integers("monomial", [x * k for x in p.num] + [0], p.den * k) == p
    assert Polynomial.monomial(cases[5]).den == 24
    assert Polynomial.from_integers("bernstein", [0, 30, 0], 45).num == (0, 2, 0)


def _bernstein_cases(rng, n):
    """Degree-n Bernstein coefficients: Fractions over arbitrary and over
    power-of-two denominators, the values of mpfs at 53 to 256 bits, and
    Fractions of a polynomial of lower exact degree."""
    cases = [[Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(n + 1)],
             [Fraction(rng.randint(-999, 999), 1 << rng.randint(0, 80)) for _ in range(n + 1)],
             bernstein_coeffs([Fraction(rng.randint(-9, 9), 7) for _ in range(n // 2 + 1)], n)]
    with mpmath.workprec(rng.choice([53, 80, 256])):
        cases.append([exact(mpmath.mpf(rng.uniform(-1, 1))) for _ in range(n + 1)])
    return cases


def test_bernstein_integer_form_matches_fraction_oracle():
    # C(n,j) Delta^j b_0 over the coefficients' one denominator, trimmed to
    # the exact degree, against the Fraction sum of b_k C(n,k) x^k (1-x)^(n-k)
    rng = random.Random(27)
    for n in range(41):
        for b in _bernstein_cases(rng, n) + [[0] * (n + 1)]:
            p = Polynomial.bernstein(b)
            form = p.to_monomial()
            assert [Fraction(a, form.den) for a in form.num] == monomial_coeffs(b), (n, b)
            assert p.to_monomial() is form and form.coeffs == tuple(monomial_coeffs(b))


def test_bernstein_read_never_takes_a_fraction_copy(monkeypatch):
    # the exact read, the monomial form and exact values run on the stored
    # integers; no Fraction coefficient is formed
    def coeffs(self):
        raise AssertionError("Polynomial.coeffs read")

    for b in ([Fraction(1, 3), 2, -5], [0.1, 0.7, 2.0]):
        p = Polynomial.bernstein(b)
        with monkeypatch.context() as m:
            m.setattr(Polynomial, "coeffs", property(coeffs))
            mono = p.to_monomial()
            value = p(Fraction(1, 2))
            cheb, moments = p.chebyshev(), p.moments(3)
            sample = PolyFunction(p)(0.5)
        assert mono.coeffs[0] == b[0] and value == (Fraction(b[0]) + 2 * Fraction(b[1]) + Fraction(b[2])) / 4
        assert (cheb, moments) == (mono.chebyshev(), mono.moments(3))
        assert sample == pytest.approx(float(value), abs=1e-14)


def test_integer_form_moments_match_fraction_oracle():
    # T_mu/(den L) = int_0^1 x^mu p for mu < count, on one L = lcm(1..d+count)
    rng = random.Random(33)
    polys = _integer_form_cases() + [Polynomial.bernstein(b) for b in _bernstein_cases(rng, 17)]
    for p in polys:
        form = p.to_monomial()
        mono = list(fractions(p.coeffs)) if p.basis == "monomial" else monomial_coeffs(p.coeffs)
        for count in (0, 1, 7):
            T, den = form.moments(count)
            assert den == form.den * math.lcm(*range(1, form.degree + count + 1))
            assert [Fraction(t, den) for t in T] == \
                [integral_01([0] * mu + mono) for mu in range(count)], (p, count)


def test_integer_form_derivative_matches_fraction_oracle_on_generators():
    # at generator sizes, each quotient of the Bernstein integers of P^(nu)
    # is the correctly rounded coefficient, and their signs are exact
    for n, r in ((256, 2), (512, 3)):
        P = build_generator(n, r).P
        for nu in range(r + 1):
            exact = bernstein_coeffs(npoly.polyder(fractions(P.coeffs), nu))
            c, den = bernstein_derivative(*P.bernstein_read(), nu)
            assert [x / den for x in c] == [float(x) for x in exact]
            assert all(x >= 0 for x in c) == all(x >= 0 for x in exact)


def _integer_form_cases():
    """Polynomials of degree 0, 1, 5 and 12 with small Fractions and with the
    values of mpfs, a Bernstein one, the zero polynomial and a generator."""
    rng = random.Random(3)
    polys = [Polynomial.monomial([Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                                  for _ in range(d + 1)]) for d in (0, 1, 5, 12)]
    polys.append(Polynomial.bernstein([Fraction(rng.randint(-9, 9), 7) for _ in range(9)]))
    polys.append(Polynomial.monomial([exact(mpmath.mpf(1) / 3), exact(mpmath.mpf(-2) ** -70),
                                      exact(+mpmath.pi)]))
    polys.append(build_generator(64, 2).P)
    with mpmath.workprec(80):
        polys += [Polynomial.monomial([exact(mpmath.mpf(rng.uniform(-1, 1)) / rng.randint(1, 9))
                                       for _ in range(d + 1)]) for d in (0, 1, 12)]
    polys.append(Polynomial.monomial([0]))
    return polys


def test_integer_form_value_matches_fraction_evaluation():
    # integer Horner over den b^d against Fraction Horner (monomial) and
    # de Casteljau (Bernstein) on the exact coefficients
    polys = _integer_form_cases()
    xs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(-5, 3),
          Fraction(0.1), Fraction(99, 100)]
    for p in polys:
        mono = fractions(p.coeffs) if p.basis == "monomial" else monomial_coeffs(p.coeffs)
        for x in xs:
            assert p.to_monomial()(x) == npoly.polyval(x, mono), (p, x)
            if p.basis == "monomial" or 0 <= x <= 1:
                assert p(x) == p.to_monomial()(x)
    assert polys[0](0.25) == polys[0](Fraction(1, 4))


def test_integer_form_bern_matches_fraction_oracle():
    # bernstein_read gives b[k] = den d! c_k for the Bernstein coefficients c
    # of p at its exact degree d, and bernstein_derivative of it the same for
    # p^(nu) at degree d - nu, over den (d - nu)!; past the degree p^(nu) is 0
    for p in _integer_form_cases():
        form = p.to_monomial()
        d = form.degree
        mono = fractions(form.coeffs)
        oracle = bernstein_coeffs(mono, d)
        bern, bern_den = p.bernstein_read()
        assert bern_den == form.den
        assert list(bern) == [c * form.den * factorial(d) for c in oracle], p
        for nu in range(d + 3):
            c, den = bernstein_derivative(bern, bern_den, nu)
            if nu > d:
                assert (c, den) == ([0], 1)
                continue
            assert den == form.den * factorial(d - nu)
            oracle = bernstein_coeffs(npoly.polyder(mono, nu), d - nu)
            assert c == [x * den for x in oracle], (p, nu)


def test_bernstein_read_matches_the_monomial_form(monkeypatch):
    # a Bernstein polynomial of full exact degree n reads its Bernstein
    # integers as its stored numerators times n!, and forms no monomial
    # integers, over its den; an elevated one of lower exact degree forms
    # them from its monomial form at that degree, over that form's den.
    # Either way their values are those of bernstein_integers of the
    # monomial form, and the read caches nothing
    rng = random.Random(37)
    formed = []
    real = polynomial.bernstein_integers

    def counted(num):
        formed.append(len(num))
        return real(num)

    monkeypatch.setattr(polynomial, "bernstein_integers", counted)
    for n in (0, 1, 4, 17, 40):
        for b in _bernstein_cases(rng, n):
            p = Polynomial.bernstein(b)
            formed.clear()
            bern, den = p.bernstein_read()
            stored = "_monomial" not in vars(p)
            form = p.to_monomial()
            assert stored == (form.degree == n and any(b)), (n, b)
            assert formed == ([] if stored else [form.degree + 1]), (n, b)
            want = real(np.array(form.num, dtype=object)[:, None])[:, 0]
            assert [Fraction(x, den) for x in bern] == [Fraction(x, form.den) for x in want], (n, b)
            assert den == (p.den if stored else form.den), (n, b)
            if stored:
                assert bern == [x * factorial(n) for x in p.num]
            assert p.bernstein_read() == (bern, den)
            assert vars(p).keys() == {"basis", "num", "den", "_monomial"}
            assert vars(form).keys() == {"basis", "num", "den"}
    elevated = Polynomial.bernstein(bernstein_coeffs([1, -3, 2], 9))
    bern, den = elevated.bernstein_read()
    assert elevated.to_monomial().degree == 2 and len(bern) == 3
    # over the monomial form's den, in lowest terms: 1, where the stored one is 18
    assert bern == real(elevated.to_monomial().num) and (den, elevated.den) == (1, 18)


def test_bernstein_form_reads_through_one_cached_monomial_form():
    # a Bernstein form is converted to the monomial basis once: to_monomial
    # gives the same object on every call, and the form's values, shifted
    # Chebyshev integers, moments and Bernstein read are those of a
    # monomial polynomial built afresh from its coefficients
    rng = random.Random(41)
    xs = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(99, 100), Fraction(1), 0.1]
    cases = [b for n in (0, 1, 5, 17) for b in _bernstein_cases(rng, n)]
    for b in cases + [bernstein_coeffs([1, -3, 2], 9), [0, 0, 0]]:
        p = Polynomial.bernstein(b)
        mono = p.to_monomial()
        assert p.to_monomial() is mono and mono.basis == "monomial"
        fresh = Polynomial.monomial(mono.coeffs)
        assert [p(x) for x in xs] == [fresh(x) for x in xs], b
        assert p.chebyshev() == fresh.chebyshev(), b
        assert p.moments(4) == fresh.moments(4), b
        (bern, den), (want, want_den) = p.bernstein_read(), fresh.bernstein_read()
        assert [Fraction(x, den) for x in bern] == [Fraction(x, want_den) for x in want], b
        assert p.to_monomial() is mono


def test_integer_form_chebyshev_matches_exact_values():
    # sum_j c_j T_j(2x - 1) by Clenshaw on the exact quotients, against the
    # integer Horner value, at points inside and outside [0,1]
    xs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(-5, 3)]
    for p in _integer_form_cases():
        form = p.to_monomial()
        c, den = p.chebyshev()
        assert len(c) == form.degree + 1
        assert den == form.den << 2 * form.degree
        exact = np.array([Fraction(x, den) for x in c], dtype=object)
        for x in xs:
            assert chebval(2 * x - 1, exact) == form(x), (p, x)


def test_poly_function_samples_ignore_ambient_precision():
    P = build_generator(256, 2).P
    xs = np.linspace(0.0, 1.0, 1025)
    with mpmath.workprec(53):
        low = PolyFunction(P)(xs)
    with mpmath.workprec(1000):
        high = PolyFunction(P)(xs)
    assert np.array_equal(low, high)


@pytest.mark.parametrize("tiny", [Fraction(-1, 2**1100), Fraction(-1, 3 * 2**1100)])
def test_tiny_negative_bernstein_coefficient_is_no_certificate(tiny):
    # -2^-1100 and -2^-1100/3 round to -0.0 in float64; the sign must come
    # from the exact value
    p = Polynomial.bernstein([1, tiny, 1])
    c, den = bernstein_derivative(*p.bernstein_read(), 0)
    assert c[1] / den == 0.0 and c[1] < 0
    report = check_k_monotone_poly(p, 0)
    assert report.passed and not report.bernstein_certificate


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_poly_function_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        PolyFunction(Polynomial.monomial([1, float(bad)]))(0.5)


def test_basis_constructor_validation():
    with pytest.raises(BasisError):
        Polynomial("chebyshev", [1, 2])


# Points of the evaluator tests: 257 equispaced, a tiny x and
# the largest double below 1.
_BASIS_XS = np.concatenate([np.linspace(0.0, 1.0, 257), [1e-17, 1 - 2**-53]])


def _row_relative(a, b):
    return np.max(np.abs(a - b), axis=1) / np.max(np.abs(b), axis=1)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 100, 1030, 4096, 16384])
def test_bernstein_basis_matches_binom_pmf(n):
    # binom.pmf is the oracle; it is itself a few 1e-15 off the 300-bit
    # values of the next test, hence the looser bound
    from scipy.stats import binom

    got = bernstein_basis(n, _BASIS_XS)
    ref = binom.pmf(np.arange(n + 1)[None, :], n, _BASIS_XS[:, None])
    assert got.shape == (len(_BASIS_XS), n + 1)
    assert np.max(_row_relative(got, ref)) <= 5e-14


def _basis_row_300_bits(n, x):
    """p_{n,k}(x), k = 0..n, at 300 bits by the ratio recurrence from k = 0,
    rounded once to float64."""
    with mpmath.workprec(300):
        x = mpmath.mpf(x)
        p = (1 - x) ** n
        row = [p]
        for k in range(1, n + 1):
            p = p * (n - k + 1) / k * x / (1 - x)
            row.append(p)
        return np.array([float(v) for v in row])


@pytest.mark.parametrize("n", [64, 513, 2048])
def test_bernstein_basis_matches_300_bit_values(n):
    xs = np.concatenate([[1e-300, 1e-17, 1e-3, 0.5, 1 - 2**-53],
                         np.random.default_rng(n).random(11)])
    ref = np.array([_basis_row_300_bits(n, x) for x in xs])
    assert np.max(_row_relative(bernstein_basis(n, xs), ref)) <= 4e-15


@pytest.mark.parametrize("n", [0, 1, 7, 64, 1030, 4096])
def test_bernstein_basis_rows_are_probability_vectors(n):
    basis = bernstein_basis(n, _BASIS_XS)
    assert np.all(basis >= 0)
    assert np.max(np.abs(basis.sum(axis=1) - 1)) <= 1e-15
    unit = np.zeros(n + 1)
    unit[0] = 1
    assert np.array_equal(basis[0], unit)  # x = 0
    assert np.array_equal(basis[256], unit[::-1])  # x = 1


def _kernel_digest(arrays) -> str:
    """SHA-256 over each array's shape, float64 bytes and C-contiguity."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(repr(a.shape).encode())
        digest.update(np.asarray(a, dtype=np.float64).tobytes())
        digest.update(bytes([a.flags.c_contiguous]))
    return digest.hexdigest()[:16]


_BASIS_DIGESTS = {
    0: "782a128ea96bb52c", 1: "8d0f29fb2daa9684", 5: "d7312cf9d258933f",
    18: "91d3eb2426d231a6", 40: "858b765331ccea50", 513: "a381439336393f2d",
}
_ELEVATION_DIGESTS = {
    (0, 3): "64b678c7e9e675f0", (5, 20): "a408396fdb0f34f8", (18, 512): "efb144c12198e58c",
    (38, 512): "fd2d3761ba022440", (30, 1024): "598b0f5c6e115943",
}


@pytest.mark.parametrize("n", sorted(_BASIS_DIGESTS))
def test_bernstein_basis_is_pinned_bit_for_bit(n):
    # the shape check's 4096-point grid, random points and both ends: every
    # bit of every entry, and a C-contiguous result (float64 on x86-64)
    grids = [np.linspace(0.0, 1.0, 4096), np.random.default_rng(n).random(1000),
             np.array([0.0, 1.0])]
    assert _kernel_digest([bernstein_basis(n, xs) for xs in grids]) == _BASIS_DIGESTS[n]


@pytest.mark.parametrize("d, m", sorted(_ELEVATION_DIGESTS))
def test_bernstein_elevation_is_pinned_bit_for_bit(d, m):
    assert _kernel_digest([bernstein_elevation(d, m)]) == _ELEVATION_DIGESTS[d, m]


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), -float("inf")])
def test_bernstein_basis_outside_domain_raises(bad):
    with pytest.raises(DomainError):
        bernstein_basis(8, [0.5, bad])
    f = PolyFunction(Polynomial.monomial([1, -2, 3]))
    for x in (bad, [0.5, bad]):
        with pytest.raises(DomainError):
            f(x)


def test_halving_matches_exact_restriction():
    # 2^m times the Bernstein coefficients of p(x/2) and p((1+x)/2)
    c = [3, -7, 0, 5, -2, 11]
    m = len(c) - 1
    mono = Polynomial.bernstein(c).to_monomial().coeffs
    left, right = _halve(c)
    for half, inner in ((left, [0, Fraction(1, 2)]), (right, [Fraction(1, 2), Fraction(1, 2)])):
        exact = bernstein_coeffs(compose(mono, inner), m)
        assert half == [x * 2 ** m for x in exact]


def test_halving_proof_and_give_up():
    assert nonnegative_by_halving([0, 2, 1], 0) == (True, 0, None)
    # (x - 1/2)^2 = (1, -1, 1)/4: one halving puts the zero on the pieces' ends
    assert nonnegative_by_halving([1, -1, 1], 5) == (True, 1, None)
    assert nonnegative_by_halving([1, -1, 1], 0) == (False, 0, None)
    # a negative end coefficient is a negative value: no halving is tried
    assert nonnegative_by_halving([-1, 5, 5], 5) == (False, 0, (0, -1))
