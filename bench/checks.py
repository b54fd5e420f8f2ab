"""Independent output checks, run outside the timed spans.

The checks use no certificate from the library: coefficients are turned into
exact rationals and every sign or size test is made in integer arithmetic at
dyadic grid points x = j / 2^g. A check returns the failures of outputs it
finds wrong, the failures the library reported itself (a constrained result
marked ``constraint_validated=False`` that is indeed not q-monotone), both
lists empty when the output passes, and the task's output error for
``err_gmean``.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from shapeapprox import best_approx, functions, moduli, operators

UNIT_INTEGRAL_TOL = Fraction(1, 10**20)
SIGN_REL_TOL = 1e-15  # generator derivative signs, relative to the grid maximum
SHAPE_REL_TOL = 1e-9  # dense-sample fallback for polynomial shape checks
LINEAR_TOL = 1e-12
ERR_FLOOR_REL = 1e-13  # error floor for err_gmean, relative to max|f|
EQUIOSC_FLOOR_REL = 1e-9  # equioscillation is only counted above roundoff
EQUIOSC_SLACK = 0.01
CONSTRAINED_REL_TOL = 1e-9
COARSE_GRID_BITS = 7  # 129 points
DENSE_GRID_BITS = 10  # 1025 points


def to_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, mpmath.mpf):
        p, q = mpmath.libmp.to_rational(c._mpf_)
        return Fraction(p, q)
    return Fraction(float(c))


class ExactPoly:
    """p(x) = sum_k ints[k] x^k / denom with integer ints, from any
    Polynomial through its monomial coefficients."""

    def __init__(self, ints: list[int], denom: int):
        self.ints = ints or [0]
        self.denom = denom

    @classmethod
    def from_poly(cls, poly) -> "ExactPoly":
        fr = [to_fraction(c) for c in poly.to_monomial().coeffs]
        denom = math.lcm(*(c.denominator for c in fr))
        return cls([int(c * denom) for c in fr], denom)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def derivative(self, k: int) -> "ExactPoly":
        d = self.ints
        out = [d[j] * math.perm(j, k) for j in range(k, len(d))]
        return ExactPoly(out, self.denom)

    def scaled_value(self, j: int, g: int) -> int:
        """p(j / 2^g) * 2^(g*deg) * denom, exactly."""
        acc = 0
        for k, c in enumerate(reversed(self.ints)):
            acc = acc * j + (c << (g * k))
        return acc

    def moment(self, mu: int) -> Fraction:
        """int_0^1 x^mu p(x) dx, exactly."""
        lcm = math.lcm(*range(mu + 1, mu + len(self.ints) + 1))
        total = sum(c * (lcm // (k + mu + 1)) for k, c in enumerate(self.ints))
        return Fraction(total, lcm * self.denom)

    def value(self, x: float) -> float:
        """p(x) at a float x, exact until the final rounding."""
        j, den = x.as_integer_ratio()
        g = den.bit_length() - 1
        return self.scaled_value(j, g) / (self.denom << (g * self.degree))

    def grid(self, g: int) -> list[float]:
        """Values at x = j / 2^g, j = 0..2^g, rounded once to float."""
        scale = self.denom << (g * self.degree)
        return [self.scaled_value(j, g) / scale for j in range((1 << g) + 1)]

    def bernstein(self) -> list[float]:
        """Bernstein coefficients of degree = self.degree, exact until the
        final rounding, so their signs are exact."""
        d = self.degree
        w = [math.factorial(j) * math.factorial(d - j) for j in range(d + 1)]
        scale = self.denom * math.factorial(d)
        out = []
        for i in range(d + 1):
            acc = sum(self.ints[j] * math.comb(i, j) * w[j] for j in range(i + 1))
            out.append(acc / scale if acc else 0.0)
        return out


def grid_points(g: int) -> np.ndarray:
    return np.arange((1 << g) + 1) / float(1 << g)


def nonnegative_derivative(p: ExactPoly, k: int, p_scale: float) -> str | None:
    """Bernstein-coefficient certificate for p^(k) >= 0, then a dense-sample
    fallback with a tolerance relative to the coefficient scale."""
    der = p.derivative(k) if k else p
    bern = der.bernstein()
    if min(bern) >= 0:
        return None
    scale = max(p_scale, max(abs(c) for c in bern))
    worst = min(der.grid(DENSE_GRID_BITS))
    if worst < -SHAPE_REL_TOL * scale:
        return f"p^({k}) reaches {worst:.3e} (scale {scale:.3e})"
    return None


# ----------------------------------------------------------------------
def check_gen_build(task, inputs, gen):
    """Unit integral to 1e-20, delta_2 > 0 and P^(nu) >= 0 for nu <= r, all
    from P's coefficients in exact arithmetic."""
    fails = []
    p = ExactPoly.from_poly(gen.P)
    total = p.moment(0)
    if abs(total - 1) > UNIT_INTEGRAL_TOL:
        fails.append(f"unit integral off by {float(abs(total - 1)):.3e}")
    delta2 = 1 - p.moment(2)
    if delta2 <= 0:
        fails.append(f"delta_2 = {float(delta2):.3e} <= 0")
    for nu in range(task["r"] + 1):
        vals = p.derivative(nu).grid(COARSE_GRID_BITS)
        top = max(abs(v) for v in vals)
        if min(vals) < -SIGN_REL_TOL * top:
            fails.append(f"P^({nu}) reaches {min(vals):.3e} on the grid")
    return fails, [], [float(delta2)]


def check_mn_batch(task, inputs, outputs):
    """Linear reproduction, positivity and contraction on the random
    Bernstein inputs, and shape preservation on the inputs with known
    monotone orders."""
    q, n = task["q"], task["n"]
    fails = []
    errors = []
    xs = grid_points(COARSE_GRID_BITS)
    a, b = task["linear"]
    lin = operators.mn_image(q, n, functions.linear(Fraction(a), Fraction(b))).poly
    resid = np.abs(np.array(ExactPoly.from_poly(lin).grid(COARSE_GRID_BITS)) - (a + b * xs))
    if resid.max() > LINEAR_TOL * max(1.0, abs(a) + abs(b)):
        fails.append(f"M_n(a+bx) off by {resid.max():.3e}")
    for name, f, res, _report in outputs:
        p = ExactPoly.from_poly(res.poly)
        pv = np.array(p.grid(COARSE_GRID_BITS))
        fv = np.asarray(f(xs), dtype=float)
        if name.startswith("random"):
            top = max(ExactPoly.from_poly(f.poly).bernstein())
            if pv.min() < -LINEAR_TOL * top:
                fails.append(f"{name}: positivity, min {pv.min():.3e}")
            if pv.max() > top * (1 + LINEAR_TOL):
                fails.append(f"{name}: contraction, max {pv.max():.6g} > {top:.6g}")
            continue
        # err_gmean leaves out the random inputs: a degree-1 draw is
        # reproduced exactly, and the count of such draws would set the mean
        fmax = float(np.max(np.abs(fv)))
        errors.append(max(float(np.max(np.abs(pv - fv))), ERR_FLOOR_REL * fmax))
        p_scale = max(abs(c) for c in p.bernstein())
        for k in sorted(f.known_monotone_orders):
            if k > q:
                continue
            msg = nonnegative_derivative(p, k, p_scale)
            if msg:
                fails.append(f"{name}: {msg}")
    return fails, [], errors


# the library validates its own results with best_approx.equioscillation_count;
# a counter of our own keeps the check independent of that certificate
def _alternations(resid: np.ndarray, level: float) -> int:
    count, last = 0, 0
    for r in resid:
        if abs(r) >= level:
            s = 1 if r > 0 else -1
            if s != last:
                count, last = count + 1, s
    return count


def check_minimax(task, f, output):
    """The reported error is the returned polynomial's error on the sample
    grid; n+2 equioscillations (unconstrained, above roundoff); constrained
    error >= unconstrained error; q-monotone constrained output, whether or
    not the library validated it. A violation on a result the library marked
    unvalidated is a failure it reported, not a wrong output."""
    res, modulus = output
    q, n, N = task["q"], task["n"], task["N"]
    fails, reported = [], []
    xs = moduli.default_x_grid(N)  # the problem's sample grid
    fv = np.asarray(f(xs), dtype=float)
    fmax = float(np.max(np.abs(fv)))
    p = ExactPoly.from_poly(res.poly)
    resid = fv - np.array([p.value(float(x)) for x in xs])
    err = float(np.max(np.abs(resid)))
    if abs(err - res.error) > 1e-6 * err + ERR_FLOOR_REL * fmax:
        fails.append(f"reported error {res.error:.6e}, grid error {err:.6e}")
    if q is None:
        if err > EQUIOSC_FLOOR_REL * fmax:
            count = _alternations(resid, (1 - EQUIOSC_SLACK) * err)
            if count < n + 2:
                fails.append(f"{count} equioscillations < n+2 = {n + 2}")
    else:
        free = best_approx.best_uniform(f, n, N=N)
        if res.error < free.error * (1 - CONSTRAINED_REL_TOL) - ERR_FLOOR_REL * fmax:
            fails.append(f"constrained {res.error:.6e} < unconstrained {free.error:.6e}")
        if q <= p.degree:
            p_scale = max(abs(v) for v in p.bernstein())
            msg = nonnegative_derivative(p, q, p_scale)
            if msg and res.constraint_validated:
                fails.append(f"validated output not {q}-monotone: {msg}")
            elif msg:
                reported.append(f"unvalidated output not {q}-monotone: {msg}")
    if not (math.isfinite(modulus.value) and modulus.value > 0):
        fails.append(f"omega_dt = {modulus.value}")
    return fails, reported, [max(res.error, ERR_FLOOR_REL * fmax)]


CHECK = {"gen_build": check_gen_build, "mn_batch": check_mn_batch, "minimax": check_minimax}
