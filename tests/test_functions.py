"""Function handles and the named catalog."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import mpmath
import numpy as np
import pytest

from shapeapprox import (
    ExpFunction,
    LogShiftFunction,
    PolyFunction,
    Polynomial,
    PowerFunction,
    TruncatedPowerFunction,
    build_generator,
    catalog,
    linear,
    mn_image,
    monomial,
    q_monotone_catalog,
)
from shapeapprox import durrmeyer_image, functions, genuine_durrmeyer_image
from shapeapprox.generator import PRECISION_BITS
from shapeapprox.polynomial import bernstein_basis

from oracles import MpfExp, exact, exp_moments_reference, fractions, logeps_moments_reference


def _moments(f, d: int, bits: int = 0) -> list:
    """m_0..m_d of f's ``moment_read`` at ``bits``, as Fractions."""
    num, den = f.moment_read(d, bits)
    return [Fraction(x, den) for x in num[1:-1]]


def test_exp_moments_downward_recurrence():
    moments = _moments(ExpFunction(), 3, 53)
    # int_0^1 x^i e^x dx: i=0 -> e-1, i=1 -> 1, i=2 -> e-2, i=3 -> 6-2e
    e = math.e
    expect = [e - 1, 1.0, e - 2, 6 - 2 * e]
    for a, b in zip(moments, expect):
        assert float(a) == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("d, gain", [(3, 0), (19, 0), (70, 12), (512, 40)])
def test_exp_integer_moments_are_within_the_bits_asked_for(d, gain):
    # the integer recurrence and e = sum 2^w // k! stay within 2^-bits of
    # the mpf recurrence and of exp(1) rounded at bits, which stood there
    bits = PRECISION_BITS + 2 * d + gain
    num, den = ExpFunction().moment_read(d, bits)
    want = [1, *exp_moments_reference(d, bits)]
    with mpmath.workprec(bits):
        want.append(exact(mpmath.exp(1)))
    assert len(num) == len(want) == d + 3 and num[0] == den
    assert max(abs(Fraction(x, den) - y) for x, y in zip(num, want)) <= Fraction(1, 2**bits)
    assert ExpFunction.exact_moments is False


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_exp_images_match_the_mpf_read_bit_for_bit(q):
    # on the (q, n) panel of the mn_batch benchmark, and for U_n and D_n, the
    # integer read gives the images the mpf read gave: each coefficient is
    # rounded once at PRECISION_BITS, far above both reads' errors
    for n in (21, 23, 45, 47, 71, 73):
        assert mn_image(q, n, ExpFunction()).poly == mn_image(q, n, MpfExp()).poly, n
    for image in (genuine_durrmeyer_image, durrmeyer_image):
        n = 20 * q + 40 * (q == 4)
        assert image(n, ExpFunction()) == image(n, MpfExp()), (image, n)


def test_exp_moments_reach_the_read_out_precision():
    # at n = 460 the image reads 458 moments at over 1000 bits; a recurrence
    # started a fixed 60 steps above them left errors that blew the image up
    xs = np.linspace(0.0, 1.0, 1025)
    c, den = mn_image(1, 460, ExpFunction()).poly.integer_form.derivative(0)
    values = bernstein_basis(len(c) - 1, xs) @ np.array([x / den for x in c])
    assert np.max(np.abs(values - np.exp(xs))) <= 1e-3


def _truncated_power_moments_by_binomial_sums(a, p, imax):
    """int_a^1 t^i (t-a)^p dt from t^i = ((t-a)+a)^i, term by term."""
    return [
        sum(comb(i, j) * a ** (i - j) * (1 - a) ** (p + j + 1) / Fraction(p + j + 1)
            for j in range(i + 1))
        for i in range(imax + 1)
    ]


def test_truncated_power_moments_recurrence_matches_binomial_sums():
    for a in (Fraction(3, 10), Fraction(3, 5), Fraction(1, 2), Fraction(7, 9)):
        for p in (1, 2, 3, 5):
            got = _moments(TruncatedPowerFunction(a, p), 40)
            assert got == _truncated_power_moments_by_binomial_sums(a, p, 40)


def test_power_function_exact_moments():
    # int x^i x^eps = 1/(i + eps + 1), exactly
    for eps in (Fraction(1, 2), Fraction(2, 3), Fraction(1, 10**13)):
        assert _moments(PowerFunction(eps), 40) == [1 / (i + eps + 1) for i in range(41)]
    moments = _moments(PowerFunction(Fraction(1, 2)), 2)
    assert float(moments[0]) == pytest.approx(2 / 3)
    assert float(moments[2]) == pytest.approx(2 / 7)


def test_truncated_power_values():
    f = TruncatedPowerFunction(Fraction(1, 2), 3)
    assert float(f(0.25)) == 0.0
    assert float(f(0.75)) == pytest.approx(0.25**3)


def test_truncated_power_masks_the_power_bit_for_bit():
    # the power is taken only where d = x - a > 0; elsewhere the value is 0
    edges = [0.3, 0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1)]
    xs = np.concatenate([np.linspace(0, 1, 1001), edges])
    for a, p in ((Fraction(1, 2), 3), (Fraction(3, 10), 1), (Fraction(1, 4), 2)):
        f = TruncatedPowerFunction(a, p)
        d = xs - float(a)
        assert np.any(d < 0) and np.any(d == 0) and np.any(d > 0)
        ref = np.where(d > 0, d, 0.0) ** p
        assert np.array_equal(f(xs).view(np.int64), ref.view(np.int64)), (a, p)
        for x in (0.1, float(a), 0.9):
            value = f(x)
            assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
            assert value == np.where(x - float(a) > 0, x - float(a), 0.0) ** p


_SAMPLE_SCRIPT = """
import sys
import numpy as np
from shapeapprox import PolyFunction, build_generator
f = PolyFunction(build_generator(int(sys.argv[1]), 1).P)
xs = np.linspace(0.0, 1.0, 1001)
runs = [f(xs), np.array([f(x) for x in xs]),
        np.concatenate([f(xs[s:s + 64]) for s in range(0, len(xs), 64)])]
sys.stdout.write(" ".join(v.tobytes().hex() for v in runs))
"""


def test_poly_function_samples_do_not_depend_on_batch_or_threads():
    # one call, one point at a time and 64-point pieces give the same bits,
    # under one and two BLAS threads
    src = str(Path(functions.__file__).parents[1])
    for n in (64, 256, 512):
        out = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=src)
            out[threads] = subprocess.run(
                [sys.executable, "-c", _SAMPLE_SCRIPT, str(n)], env=env, check=True,
                capture_output=True, text=True).stdout.split()
            assert len(set(out[threads])) == 1, (n, threads)
        assert out["1"] == out["2"], n
    f = PolyFunction(Polynomial.monomial([1, -2, 3]))
    assert f(np.linspace(0, 1, 12).reshape(3, 4)).shape == (3, 4)
    value = f(0.5)
    assert np.ndim(value) == 0 and not isinstance(value, np.ndarray) and value == 0.75


def test_log_shift():
    f = LogShiftFunction(1e-2)
    assert float(f(0.0)) == pytest.approx(np.log(1e-2))
    # eps is kept exact and sampled as its float
    g = catalog("logeps:1e-4")
    xs = np.linspace(0, 1, 9)
    assert g.eps == Fraction(1, 10**4) and LogShiftFunction(1e-4).eps == Fraction(1e-4)
    assert np.array_equal(g(xs), np.log(xs + 1e-4))
    assert g(Fraction(1, 3)) == float(np.log(1 / 3 + 1e-4))


@pytest.mark.parametrize("eps", [Fraction(1, 10**4), Fraction(1, 3), Fraction(1), Fraction(3)])
@pytest.mark.parametrize("d, gain", [(0, 0), (22, 0), (200, 40), (1024, 0)])
def test_log_shift_integer_moments_are_within_the_bits_asked_for(eps, d, gain):
    # the fixed-point recurrence stays within 2^-bits of mpmath's at more
    # bits, also for eps > 1, where the recurrence loses eps^i
    bits = PRECISION_BITS + 2 * d + gain
    num, den = LogShiftFunction(eps).moment_read(d, bits)
    want = logeps_moments_reference(eps, d, bits)
    assert len(num) == len(want) == d + 3
    assert max(abs(Fraction(x, den) - y) for x, y in zip(num, want)) <= Fraction(1, 2**bits)
    assert LogShiftFunction.exact_moments is False


def test_log_shift_moments_are_the_integrals():
    # the reference's recurrence against its closed form and quadrature
    for eps in (Fraction(1, 10**4), Fraction(1, 3), Fraction(3)):
        ln0, *moments, ln1 = logeps_moments_reference(eps, 6, 200)
        with mpmath.workprec(200):
            e = mpmath.mpf(eps.numerator) / eps.denominator
            assert abs(ln0 - exact(mpmath.log(e))) < Fraction(1, 2**190)
            assert abs(ln1 - exact(mpmath.log(1 + e))) < Fraction(1, 2**190)
            m0 = (1 + e) * mpmath.log(1 + e) - e * mpmath.log(e) - 1
            assert abs(moments[0] - exact(m0)) < Fraction(1, 2**190)
        with mpmath.workdps(40):
            for i in (1, 2, 6):
                quad = mpmath.quad(lambda t: t**i * mpmath.log(t + e), [0, e, 1])
                assert abs(moments[i] - exact(quad)) < Fraction(1, 10**30), (eps, i)


def test_truncpow_and_xeps_integer_reads_are_the_exact_moments():
    # the integer recurrences give f(0), the exact moments (binomial sums for
    # the truncated power, 1/(i + eps + 1) for x^eps) and f(1), in lowest
    # terms over one denominator
    for f in (catalog("truncpow:0.3:1"), catalog("truncpow:0.6:2"),
              TruncatedPowerFunction(Fraction(7, 9), 5), catalog("xeps:0.5"),
              catalog("xeps:1e-13"), PowerFunction(Fraction(2, 3))):
        for d in (0, 1, 40):
            num, den = f.moment_read(d, 0)
            if isinstance(f, TruncatedPowerFunction):
                want = [0, *_truncated_power_moments_by_binomial_sums(f.a, f.p, d), (1 - f.a) ** f.p]
            else:
                want = [0, *(1 / (i + f.eps + 1) for i in range(d + 1)), 1]
            assert [Fraction(x, den) for x in num] == want, (f, d)
            assert math.gcd(den, *num) == 1


def test_catalog_reads_decimal_parameters_exactly():
    # a decimal is the rational it spells, whatever a float would round it
    # to, so parameters next to the ends of (0,1) are accepted
    assert catalog("xeps:1e-13").eps == catalog("xeps:1/10000000000000").eps == Fraction(1, 10**13)
    assert catalog("xeps:0.9999999999999").eps == 1 - Fraction(1, 10**13)
    assert catalog("truncpow:1e-10:2").a == Fraction(1, 10**10)
    assert catalog("xeps:0.3").eps == Fraction(3, 10)
    assert catalog("logeps:1e-4").eps == Fraction(1, 10**4)
    for text in ("nan", "inf", "-inf", "1e400"):
        with pytest.raises(ValueError, match="is not finite"):
            catalog(f"logeps:{text}")


def test_import_loads_no_mpmath():
    # with mpmath blocked (any import of it raises), the CLI imports, and a
    # generator, exp's image and the float-alpha identities run
    src = str(Path(functions.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.modules['mpmath'] = None; "
            "import shapeapprox.cli; "
            "from shapeapprox import ExpFunction, catalog, lupas_product_identity_check, mn_image; "
            "assert not mn_image(1, 60, ExpFunction()).used_fallback; "
            "assert lupas_product_identity_check(3, 0.5, 0.9, 0.35) == 0")
    subprocess.run([sys.executable, "-c", code, src], check=True)


def test_catalog_names():
    assert catalog("exp").name == ExpFunction().name
    g = catalog("xeps:0.5")
    assert float(g(0.25)) == pytest.approx(0.5)
    t = catalog("truncpow:0.5:3")
    assert float(t(0.75)) == pytest.approx(0.25**3)
    m = catalog("monomial:3")
    assert float(m(0.5)) == pytest.approx(0.125)
    ln = catalog("linear:1:2")
    assert float(ln(0.5)) == pytest.approx(2.0)
    with pytest.raises(Exception):
        catalog("does-not-exist")
    # parameters come from the name alone; a keyword is no parameter
    with pytest.raises(TypeError):
        catalog("xeps:0.5", eps=0.3)


def test_q_monotone_catalog_sizes():
    for q in (1, 2, 3, 4):
        fns = q_monotone_catalog(q)
        assert len(fns) == 5
        for f in fns:
            assert q in f.known_monotone_orders


def test_vectorized_calls():
    xs = np.linspace(0, 1, 11)
    for f in (ExpFunction(), PowerFunction(0.5), TruncatedPowerFunction(0.3, 2),
              monomial(2), linear(0, 1)):
        vals = np.asarray(f(xs), dtype=float)
        assert vals.shape == xs.shape


def test_poly_function_samples_the_generator_by_its_bernstein_coefficients():
    # P's monomial coefficients alternate up to about 1e22 at n = 256, so
    # float Horner loses every digit, and its Bernstein coefficients reach
    # 1.4e10 there and 3.8e24 at n = 512; its shifted Chebyshev coefficients
    # stay below 2 max|P|, and Clenshaw on them stays within 1e-12 of max|P|
    for n, points in ((256, 65), (512, 257)):
        P = build_generator(n, 1).P
        xs = np.linspace(0, 1, points)  # dyadic points, read exactly as Fractions
        exact = np.array([float(P.integer_form.value(Fraction(x))) for x in xs])
        assert np.max(np.abs(PolyFunction(P)(xs) - exact)) <= 1e-12 * np.max(np.abs(exact)), n
        assert P(Fraction(1, 3)) == P.integer_form.value(Fraction(1, 3))


def test_poly_function_moments_of_float_bernstein_input_are_exact():
    # the polynomial is kept as given: no rounding to monomial form first
    p = Polynomial.bernstein([0.1, 0.7, 0.3, 0.9])
    b = fractions(p.coeffs)
    # int_0^1 x^i p_{3,k} = C(3,k) (i+k)! (3-k)!/(i+4)!
    oracle = [sum(b[k] * comb(3, k) * Fraction(factorial(i + k) * factorial(3 - k), factorial(i + 4))
                  for k in range(4)) for i in range(6)]
    num, den = PolyFunction(p).moment_read(5, 0)
    assert [Fraction(x, den) for x in num] == [b[0], *oracle, b[-1]]
