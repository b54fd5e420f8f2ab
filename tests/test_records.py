"""Result records: immutable NamedTuples with their documented fields, the
immutable ``Polynomial`` value type, and a package import that needs no
``dataclasses``."""
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shapeapprox.best_approx import ApproxResult
from shapeapprox.generator import GeneratorPoly
from shapeapprox.moduli import ModulusEstimate
from shapeapprox.operators import MnResult
from shapeapprox.polynomial import BERNSTEIN, MONOMIAL, Polynomial
from shapeapprox.shape import ShapeReport
from shapeapprox.special import TauPoly

RECORDS = {
    ApproxResult: ("n", "q", "poly", "error", "error_dual", "sample_size", "constraint_size",
                   "iterations", "simplex_steps", "equioscillations", "constraint_validated"),
    ModulusEstimate: ("k", "lam", "t", "value", "h_grid_size", "x_grid_size", "argmax_h",
                      "argmax_x", "route"),
    ShapeReport: ("k", "passed", "witness_x", "witness_delta", "witness_value", "x_grid_size",
                  "delta_grid_size", "tol", "certificate"),
    MnResult: ("poly", "q", "n", "r", "used_fallback", "alpha_n", "generator"),
    GeneratorPoly: ("n", "r", "m", "lambda_n", "P", "moment_deficiency", "precision_bits",
                    "unit_integral_residual"),
    TauPoly: ("m", "poly", "x_tilde", "len_I1", "division_remainder"),
}


def test_package_imports_without_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import shapeapprox.cli; "
            "assert 'dataclasses' not in sys.modules, 'dataclasses imported'")
    subprocess.run([sys.executable, "-c", code, src], check=True)


def test_polynomials_equal_across_constructors():
    pairs = [
        (Polynomial.monomial([Fraction(1, 2), 3, 0]), Polynomial.from_integers(MONOMIAL, [2, 12], 4)),
        (Polynomial.e(2), Polynomial(MONOMIAL, [0.0, 0, 1])),
        (Polynomial.bernstein([0.25, 1]), Polynomial.from_dyadics(BERNSTEIN, [(1, -2), (1, 0)])),
    ]
    for p, q in pairs:
        assert p == q and not p != q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1


def test_polynomial_bases_never_equal():
    p, b = Polynomial.monomial([1, 2]), Polynomial.bernstein([1, 2])
    assert p.num == b.num and p.den == b.den
    assert p != b
    # the same function in two bases is two values too
    x = Polynomial.monomial([0, 1])
    assert Polynomial.bernstein([0, 1]).to_monomial() == x != Polynomial.bernstein([0, 1])
    assert x != (MONOMIAL, (0, 1), 1)


def test_polynomial_rejects_assignment_and_deletion():
    p = Polynomial.bernstein([1, Fraction(1, 3)])
    for name in ("num", "den", "basis"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.basis, p.num, p.den) == (BERNSTEIN, (3, 1), 3)
    assert p.to_monomial() is p.to_monomial()  # the monomial form is still cached


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
def test_records_are_immutable_with_documented_fields(record):
    assert record._fields == RECORDS[record]
    rec = record(*range(len(record._fields)))
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_shape_report_default_and_certificate_property():
    assert ShapeReport._field_defaults == {"certificate": "sample"}
    report = ShapeReport(1, True, None, None, None, 0, 0, 1e-9)
    assert report.certificate == "sample" and not report.bernstein_certificate
    assert report._replace(certificate="native").bernstein_certificate
