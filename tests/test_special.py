"""Chebyshev polynomials, the clipped factor tau_m, and ultraspherical
polynomials."""
import math
from fractions import Fraction
from math import comb

import mpmath
import pytest
from numpy.polynomial import polynomial as npoly

from shapeapprox import (
    PrecisionError,
    chebyshev_T,
    lupas_product_identity_check,
    phi_bernstein_expansion,
    phi_leading_coefficient,
    pochhammer,
    tau,
    ultraspherical_phi,
)

from shapeapprox.generator import PRECISION_BITS, _guard_bits
from shapeapprox.special import _log_fixed, shifted_jacobi

from oracles import chebyshev_T_reference, compose, exact, fractions, tau_reference


def test_pochhammer_values():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_chebyshev_T_known_coefficients():
    assert chebyshev_T(0).coeffs == (1,)
    assert chebyshev_T(1).coeffs == (0, 1)
    assert chebyshev_T(2).coeffs == (-1, 0, 2)
    assert chebyshev_T(3).coeffs == (0, -3, 0, 4)
    assert chebyshev_T(4).coeffs == (1, 0, -8, 0, 8)


def test_chebyshev_T_closed_form_matches_the_recurrence():
    # the O(m) closed form gives the three-term recurrence's integers
    for m in range(301):
        assert chebyshev_T(m).num == chebyshev_T_reference(m), m


def test_chebyshev_T_cos_identity():
    with mpmath.workprec(80):
        for m in (5, 9):
            theta = mpmath.mpf(3) / 7
            lhs = chebyshev_T(m)(exact(mpmath.cos(theta)))  # exact at the 80-bit cosine
            assert abs(mpmath.mpmathify(lhs) - mpmath.cos(m * theta)) < mpmath.mpf(2) ** -60


def test_tau_division_and_scaling():
    for m in (2, 5, 12):
        t = tau(m, 256)
        with mpmath.workprec(256):
            assert abs(mpmath.cos(mpmath.pi / (2 * m)) - t.x_tilde) < mpmath.mpf(2) ** -200
            assert abs(2 * mpmath.sin(mpmath.pi / (2 * m)) ** 2 - t.len_I1) < mpmath.mpf(2) ** -200
        # tau(x) * (x - x_tilde) == |I_1| * T_m(x) at a test point
        x = Fraction(1, 3)
        lhs = t.poly(x) * (x - t.x_tilde)
        rhs = t.len_I1 * chebyshev_T(m)(x)
        assert abs(lhs - rhs) < Fraction(1, 2**180)
        assert t.poly.degree == m - 1


def test_tau_matches_the_mpf_reference_bit_for_bit():
    # every (m, bits) that build_generator asks for at r = 1..3 and n <= 2050,
    # with the guard bits of tau's growth, those of the earlier guard
    # 8r(m-1) + 64, and 256 bits at small m: the integer tau rounds as the
    # mpmath one did
    pairs = {(m, 256) for m in (2, 5, 12)}
    for r in (1, 2, 3):
        for n in range(8 * r + 1, 2051):
            m = math.ceil(n / (8 * r))
            pairs.add((m, PRECISION_BITS + _guard_bits(m, r)))
            pairs.add((m, PRECISION_BITS + 2 * 4 * r * (m - 1) + 64))
    assert len(pairs) == 938
    for m, bits in sorted(pairs):
        assert tau(m, bits) == tau_reference(m, bits), (m, bits)


def test_tau_requires_m_at_least_2():
    with pytest.raises(ValueError):
        tau(1, 256)


def test_tau_raises_when_rounding_loses_tau_at_one():
    # T_m(1) = 1 gives tau(1) (1 - x_tilde) = |I_1| (1 - remainder); at 256
    # bits the division's rounding, amplified by up to (1 + sqrt 2)^m, moves
    # tau(1) by 7.3e-5 relative at m = 200 and 2.2 (its sign flips) at
    # m = 212, while the remainder stays within its tolerance
    for m in (200, 212):
        with pytest.raises(PrecisionError, match=f"tau\\({m}\\): tau\\(1\\) off"):
            tau(m, 256)
    t = tau(212, PRECISION_BITS + _guard_bits(212, 1))
    gap = Fraction(sum(t.poly.num), t.poly.den) * (1 - t.x_tilde) / t.len_I1 - 1
    assert abs(gap) < Fraction(1, 10**90)


def test_ultraspherical_phi_normalization_and_symmetry():
    for n in range(6):
        for alpha in (0, Fraction(1, 2), 2):
            p = ultraspherical_phi(n, alpha)
            assert p(1) == 1
            # reflection parity about x = 1/2
            x = Fraction(2, 7)
            assert p(1 - x) == (-1) ** n * p(x)


def test_ultraspherical_alpha_half_negative_is_shifted_chebyshev():
    for n in range(1, 8):
        shifted = compose(chebyshev_T(n).coeffs, [-1, 2])
        assert list(ultraspherical_phi(n, Fraction(-1, 2)).coeffs) == list(shifted)


def test_shifted_jacobi_matches_the_explicit_sum():
    # P_m^(a,b)(2x-1) = sum_s C(m+a, m-s) C(m+b, s) (x-1)^s x^(m-s), and the
    # (1,1) family is (m+1) phi_m^(1)
    for a, b in ((1, 1), (0, 2), (2, 0), (3, 1)):
        for m in range(13):
            want = fractions([0])
            for s in range(m + 1):
                term = npoly.polymul(npoly.polypow(fractions([-1, 1]), s), fractions([0] * (m - s) + [1]))
                want = npoly.polyadd(want, term * (comb(m + a, m - s) * comb(m + b, s)))
            assert shifted_jacobi(m, a, b) == list(want), (a, b, m)
            if (a, b) == (1, 1):
                assert shifted_jacobi(m, 1, 1) == [(m + 1) * c for c in ultraspherical_phi(m, 1).coeffs]


def test_phi_bernstein_expansion_matches_recurrence():
    for n in range(1, 7):
        for alpha in (0, Fraction(1, 2), 1):
            a = ultraspherical_phi(n, alpha)
            b = phi_bernstein_expansion(n, alpha)
            lead = phi_leading_coefficient(n, alpha)
            mono = b.to_monomial()
            assert mono.coeffs[-1] == lead
            # values agree after normalizing the expansion at x = 1
            x = Fraction(3, 8)
            assert a(x) == b(x) / b(1)


def test_lupas_product_identity_exact():
    for n in (1, 3, 5):
        res = lupas_product_identity_check(n, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
        assert res == 0 or abs(res) < Fraction(1, 10**25)


def test_lupas_product_identity_float_alpha():
    # a float alpha, and float points, are read as their exact values, so
    # the identity holds exactly
    for n in (1, 3, 6):
        for alpha in (0.5, -0.3):
            for x, t in ((Fraction(1, 3), Fraction(1, 4)), (0.9, 0.35), (Fraction(7, 10), 0.05)):
                assert lupas_product_identity_check(n, alpha, x, t) == 0


@pytest.mark.parametrize("w", [64, 300, 2400])
def test_log_fixed_point_is_within_its_bound(w):
    # ln v 2^w within (|t| + 1)(w + 8) units, t the bit-length gap of v
    for v in (Fraction(1, 10**4), Fraction(10001, 10**4), Fraction(1, 3), Fraction(4, 3),
              Fraction(1), Fraction(3), Fraction(2**80 + 1, 7), Fraction(1, 10**13)):
        t = abs(v.numerator.bit_length() - v.denominator.bit_length())
        with mpmath.workprec(w + 64):
            want = mpmath.log(mpmath.mpf(v.numerator) / v.denominator) * mpmath.mpf(2) ** w
            assert abs(_log_fixed(v, w) - want) <= (t + 1) * (w + 8), v

