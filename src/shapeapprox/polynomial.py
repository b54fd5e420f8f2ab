"""Polynomials on [0,1] as exact immutable values in the monomial or Bernstein basis.

A ``Polynomial`` holds its coefficients as integers over one denominator, in
lowest terms. It reads int, Fraction and float coefficients exactly (a float
is a dyadic rational, scaled by shifts); code that has the integers already
hands them over (``Polynomial.from_integers``). It is
evaluated exactly, converted to the monomial basis and serialized as exact
strings; it has no arithmetic. Code that combines coefficient vectors uses
``numpy.polynomial.polynomial`` on object arrays, which is exact on
``Fraction`` entries.

Bernstein coefficients refer to the basis p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k).
``Polynomial.to_monomial`` is the one exact read of a polynomial in the
monomial basis, and the one place where a polynomial is converted to it, in
integers: a monomial polynomial is its own, a Bernstein one's is converted
once per instance; its values, shifted Chebyshev integers and moments are
formed from it on request. ``Polynomial.bernstein_read`` is the one read of
the Bernstein integers at the exact degree, which the shape verdicts take
and ``bernstein_derivative`` differences: a Bernstein form stored at its
exact degree n gives its stored numerators times n!, with no monomial round
trip; any other form, ``bernstein_integers`` of ``to_monomial``. The way back,
float shifted Chebyshev coefficients to an exact monomial polynomial, is
``_reconstruct`` on the integer table ``_chebyshev_ints``, formed once per
degree. ``nonnegative_by_halving`` proves Bernstein integers nonnegative
on [0,1] by integer de Casteljau halving (or finds an exact negative value
at a dyadic point), ``bernstein_basis`` evaluates that basis on a grid and
``bernstein_elevation`` raises its degree, both in float64 numpy by ratios
taken outward from each row's mode (no scipy), in one kernel,
``_from_mode``, that holds the ratios column-major and takes one product
per column.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb
from operator import add, mul, sub
from typing import Sequence

import numpy as np

from .errors import BasisError, DomainError

MONOMIAL = "monomial"
BERNSTEIN = "bernstein"


def _rational(v) -> tuple[int, int]:
    """Numerator and denominator of an int, Fraction or float, in lowest
    terms; ValueError for a value with none (NaN, an infinity)."""
    try:
        v = Fraction(v)
    except OverflowError:  # an infinite float
        raise ValueError(f"coefficient {v} has no exact value") from None
    return int(v.numerator), int(v.denominator)  # Python ints for numpy integers too


def _lowest(num: Sequence[int], den: int) -> tuple[list, int]:
    """num[k]/den, den > 0, in lowest terms: divided by gcd(den, *num), which
    trailing zeros give when den is a power of two."""
    if den & (den - 1):
        g = math.gcd(den, *num)
        return [x // g for x in num], den // g
    t = min([(x & -x).bit_length() for x in num if x] + [den.bit_length()]) - 1
    return [x >> t for x in num], den >> t


def _round_div(x: int, den: int, e: int) -> int:
    """The integer nearest x / (den 2^e), for den > 0, ties to even (as
    mpmath's round_nearest); by shifts when den = 1 and e > 0."""
    if den == 1 and e > 0:  # floor by shift, remainder in the low e bits
        q, rem, half = x >> e, x & ((1 << e) - 1), 1 << (e - 1)
        return q + (rem > half or (rem == half and q & 1))
    if e >= 0:
        den <<= e
    else:
        x <<= -e
    q, rem = divmod(x, den)
    return q + (2 * rem > den or (2 * rem == den and q & 1))


def _round_value(v: int, den: int, bits: int) -> tuple[int, int]:
    """v/den, den > 0, rounded to nearest, ties to even, with `bits` bits:
    the integer c ~ v/den 2^-e and e, c 2^e being from_rational(v, den,
    bits, round_nearest) bit for bit. e comes from the bit lengths and one
    comparison, so v is divided once, or twice when it rounds up to 2^bits.
    Ties go to even either side of 0, so -v gives -c."""
    top = abs(v)
    shift = top.bit_length() - den.bit_length()  # top/den lies in [2^(shift-1), 2^(shift+1))
    high = (top >= den << shift) if shift >= 0 else (top << -shift >= den)
    e = shift - bits + high
    c = _round_div(top, den, e)
    if not high and c.bit_length() > bits:  # rounded up to 2^bits
        e += 1
        c = _round_div(top, den, e)
    return (c if v >= 0 else -c), e


def _round_to_bits(num: list, den: int, bits: int) -> tuple[list, int]:
    """The values num[j]/den, den > 0, rounded to the nearest multiples of the
    one power of two 2^e that keeps `bits` bits of the largest: the
    integers c[j] ~ num[j]/den 2^-e and e, with the largest's e from
    ``_round_value``."""
    _, e = _round_value(max(num, key=abs), den, bits)
    return [_round_div(x, den, e) for x in num], e


def _dyadic(c: int, e: int) -> Fraction:
    """c 2^e, exactly."""
    return Fraction(c << e) if e >= 0 else Fraction(c, 1 << -e)


def bernstein_integers(num):
    """d! times the degree-d Bernstein coefficients of sum_j num[j] x^j: c_k =
    sum_j C(k,j) num_j / C(d,j), so d! c_k = sum_j C(k,j) e_j with integers
    e_j = num_j j! (d-j)!, formed by additions.  For one column, a sequence
    of ints, they come back as a list: e_j = Delta^j (d! c)_0, so each row
    of the difference table of d! c is the running sums of the row below,
    started at its e_j.  For the integer columns of a (d+1)-row object
    array, an object array, by Pascal's rule on whole rows."""
    d = len(num) - 1
    fact = [1]
    for i in range(1, d + 1):
        fact.append(fact[-1] * i)
    if not isinstance(num, np.ndarray):
        row = []
        for j in range(d, -1, -1):
            row = list(accumulate(row, initial=num[j] * fact[j] * fact[d - j]))
        return row
    e = num * np.array([[fact[j] * fact[d - j]] for j in range(d + 1)], dtype=object)
    for r in range(1, d + 1):
        e[r:] = e[r:] + e[r - 1:-1]
    return e


def bernstein_derivative(bern: Sequence[int], den: int, nu: int) -> tuple[list, int]:
    """Bernstein coefficients of p^(nu) at degree d - nu, as integers and
    their common denominator, for p = sum_k bern[k]/(den d!) p_{d,k} of
    degree d = len(bern) - 1.  p^(nu) = d!/(d-nu)! sum_k (Delta^nu c)_k
    p_{d-nu,k} for Bernstein coefficients c of p, so they are the nu-th
    forward differences of bern over den (d-nu)!."""
    if nu < 0:
        raise ValueError("nu must be >= 0")
    d = len(bern) - 1
    if nu > d:
        return [0], 1
    c = list(bern)
    for _ in range(nu):
        c = list(map(sub, c[1:], c))
    return c, den * math.factorial(d - nu)


def _leading(b: Sequence[int]) -> int:
    """The x^n coefficient of sum_k b_k p_{n,k}, n = len(b) - 1:
    Delta^n b_0 = sum_k (-1)^(n-k) C(n,k) b_k, in O(n) products."""
    n, acc, binom = len(b) - 1, 0, 1
    for k, x in enumerate(b):  # acc = sum_{j <= k} (-1)^(k-j) C(n,j) b_j
        acc = binom * x - acc
        binom = binom * (n - k) // (k + 1)
    return acc


@lru_cache(maxsize=16)
def _chebyshev_ints(n: int) -> np.ndarray:
    """The monomial coefficients of T_j(2x-1), j = 0..n, as Python integers
    in column j of an (n+1)-square object array, by the recurrence
    T*_{j+1} = (4x-2) T*_j - T*_{j-1} on the j + 1 coefficients of T*_j
    (the rest of column j is 0); formed once per n and read-only."""
    cols = [[1], [-1, 2]][:n + 1]
    for j in range(1, n):
        a, b = cols[j], cols[j - 1] + [0, 0]
        cols.append([-2 * a[0] - b[0]] + [4 * x - 2 * y - z for x, y, z in zip(a, a[1:] + [0], b[1:])])
    T = np.zeros((n + 1, n + 1), dtype=object)
    for j, col in enumerate(cols):
        T[:j + 1, j] = col
    T.flags.writeable = False
    return T


def _reconstruct(coeffs: np.ndarray) -> Polynomial:
    """Exact monomial polynomial from float Chebyshev-basis coefficients, the
    inverse of ``Polynomial.chebyshev``.
    Each float is a dyadic rational, so the sum is one integer product with
    ``_chebyshev_ints`` over the largest power-of-two denominator."""
    parts = [float(aj).as_integer_ratio() for aj in coeffs]
    den = max(q for _, q in parts)
    w = np.array([p * (den // q) for p, q in parts], dtype=object)
    return Polynomial.from_integers(MONOMIAL, list(_chebyshev_ints(len(parts) - 1) @ w), den)


def _halve(b: list) -> tuple[list, list]:
    """Integer de Casteljau at 1/2: the Bernstein coefficients of the two
    halves of sum_k b_k p_{m,k}, each scaled by 2^m so that they stay
    integers. Row r of the pairwise sums holds sum_t C(r,t) b_{i+t}; the left
    half's k-th coefficient is its first entry over 2^k, the right half's
    (m-k)-th its last."""
    m = len(b) - 1
    left, right = [b[0] << m], [b[-1] << m]
    for r in range(1, m + 1):
        b = list(map(add, b, b[1:]))
        left.append(b[0] << (m - r))
        right.append(b[-1] << (m - r))
    right.reverse()
    return left, right


def nonnegative_by_halving(c: Sequence[int], budget: int
                           ) -> tuple[bool, int, tuple[Fraction, Fraction] | None]:
    """Whether sum_k c_k p_{m,k} >= 0 on [0,1] is proved by halving its
    integer Bernstein coefficients c, the number of halvings made (0 when
    every c_k >= 0 already), and a counterexample (x, p(x)) or None.

    A piece whose coefficients are all >= 0 is nonnegative on its interval
    and is dropped; any other piece is halved. The proof gives up (False) at
    the first piece with a negative end coefficient, an exact negative value
    at a dyadic point, or when a further halving would exceed the budget.
    Only the first gives a counterexample: the piece's end x = j/2^depth with
    the smaller coefficient b (the left one on a tie), and p(x) = b/2^(m
    depth), since each halving scales the pieces by 2^m. The control polygon
    converges to the polynomial like O(4^-depth) (Lane & Riesenfeld, 1980),
    so a p >= 0 whose zeros are all at dyadic points or off [0,1] is proved
    at a finite depth; a zero elsewhere is never."""
    m = len(c) - 1
    pieces, halvings = [(list(c), 0, 0)], 0  # coefficients, j, depth
    while pieces:
        b, j, depth = pieces.pop()
        if min(b) >= 0:
            continue
        if b[0] < 0 or b[-1] < 0:
            value, end = min((b[0], 0), (b[-1], 1))  # the left end on a tie
            return False, halvings, (Fraction(j + end, 1 << depth),
                                     Fraction(value, 1 << (m * depth)))
        if halvings == budget:
            return False, halvings, None
        halvings += 1
        left, right = _halve(b)
        pieces += [(left, 2 * j, depth + 1), (right, 2 * j + 1, depth + 1)]
    return True, halvings, None


def _from_mode(up: np.ndarray, down: np.ndarray, k: np.ndarray, mode: np.ndarray) -> np.ndarray:
    """Rows of a unimodal kernel from the ratios of neighbouring entries,
    given column-major: up[k] = e_k/e_{k-1} for k above each row's mode,
    down[k] = e_k/e_{k+1} for k below it, both of shape (columns, rows) and
    C-contiguous, with k of shape (columns, 1).  Products of ratios are
    taken outward from the mode, where every ratio is at most 1, so nothing
    overflows and only negligible tails underflow, one column at a time.
    The products are then copied row by row into down's memory, where each
    row is divided by its sum, so the row sums keep numpy's order for
    C-contiguous rows.  Returns that C-contiguous (rows, columns) array;
    overwrites up and down."""
    up[k <= mode] = 1.0
    down[k >= mode] = 1.0
    for j in range(1, len(up)):  # e_k/e_mode above the mode
        np.multiply(up[j - 1], up[j], out=up[j])
    for j in range(len(down) - 2, -1, -1):  # e_k/e_mode below it
        np.multiply(down[j + 1], down[j], out=down[j])
    up *= down
    rows = down.reshape(-1).reshape(up.shape[::-1])
    np.copyto(rows, up.T)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def bernstein_basis(n: int, xs) -> np.ndarray:
    """float64 values p_{n,k}(x_i), shape (len(xs), n+1); DomainError for x
    outside [0,1] or NaN.

    Each row is built outward from its mode m = min(floor((n+1)x), n) by the
    ratios p_k/p_{k-1} = (n-k+1)/k t above it and p_k/p_{k+1} = (k+1)/(n-k)/t
    below it, t = x/(1-x) (``_from_mode``); x = 0 and x = 1 give exact unit
    rows. Every entry is nonnegative, so products with coefficient vectors
    are stable."""
    x = np.asarray(xs, dtype=float).reshape(-1)
    inside = (x >= 0) & (x <= 1)  # False for NaN
    if not inside.all():
        raise DomainError(f"Bernstein basis evaluated at x={x[~inside][0]} outside [0,1]")
    k = np.arange(n + 1)[:, None]
    m = np.minimum(np.floor((n + 1) * x), n)
    with np.errstate(divide="ignore"):  # t = inf at x = 1, 1/t = inf at x = 0
        t = x / (1 - x)
        up = (n - k + 1) / np.maximum(k, 1) * t
        down = (k + 1) / np.maximum(n - k, 1) / t
    return _from_mode(up, down, k, m)


def bernstein_elevation(d: int, m: int) -> np.ndarray:
    """The float64 matrix E, shape (m+1, d+1), that raises Bernstein
    coefficients from degree d to m >= d: E[i,k] = C(i,k) C(m-i,d-k) /
    C(m,d), the hypergeometric probability of k marked items among d drawn
    from m, i of them marked.

    Each row is built outward from its mode floor((d+1)(i+1)/(m+2)) by the
    ratios E[i,k]/E[i,k-1] = (i-k+1)(d-k+1)/(k(m-i-d+k)) above it and
    E[i,k]/E[i,k+1] = (k+1)(m-i-d+k+1)/((i-k)(d-k)) below it, each one
    rounding of a quotient of integers (``_from_mode``), formed in float64,
    which holds them exactly: none exceeds (m+1)(d+1), the size of E.  The
    clipped numerators vanish where a row's support ends.  Every entry is
    nonnegative and every row sums to 1, so E c is a convex combination of
    the c_k, with an absolute error near the rounding level of max|c|."""
    i = np.arange(m + 1.0)
    k = np.arange(d + 1.0)[:, None]
    mode = (d + 1) * (np.arange(m + 1) + 1) // (m + 2)
    up = np.maximum((i - k + 1) * (d - k + 1), 0) / np.maximum(k * (m - d - i + k), 1)
    down = np.maximum((k + 1) * (m - d + 1 - i + k), 0) / np.maximum((i - k) * (d - k), 1)
    return _from_mode(up, down, k, mode)


@dataclass(frozen=True)
class Polynomial:
    """Immutable exact polynomial: num[k]/den multiplies x^k (monomial) or
    p_{n,k} (bernstein, n = len(num) - 1). The integers are in lowest terms,
    so den > 0 is the lcm of the reduced coefficients' denominators; a
    monomial form drops trailing zeros, a Bernstein form keeps its length,
    which encodes n."""

    basis: str
    num: tuple
    den: int

    def __init__(self, basis: str, coeffs: Sequence):
        """Read int, Fraction and float coefficients exactly."""
        parts = [_rational(v) for v in coeffs] or [(0, 1)]
        if all(q & (q - 1) == 0 for _, q in parts):  # dyadic: scaled by shifts
            top = max(q for _, q in parts).bit_length()
            num, den = [a << (top - q.bit_length()) for a, q in parts], 1 << (top - 1)
        else:
            den = math.lcm(*(q for _, q in parts))
            num = [a * (den // q) for a, q in parts]
        self._store(basis, num, den)

    def _store(self, basis: str, num: list, den: int) -> None:
        if basis not in (MONOMIAL, BERNSTEIN):
            raise BasisError(f"unknown basis {basis!r}")
        if basis == MONOMIAL:
            while len(num) > 1 and num[-1] == 0:
                num.pop()
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    # ------------------------------------------------------------------
    # constructors
    @staticmethod
    def monomial(coeffs: Sequence) -> "Polynomial":
        return Polynomial(MONOMIAL, coeffs)

    @staticmethod
    def bernstein(coeffs: Sequence) -> "Polynomial":
        return Polynomial(BERNSTEIN, coeffs)

    @staticmethod
    def from_integers(basis: str, num: Sequence[int], den: int = 1) -> "Polynomial":
        """The polynomial with coefficients num[k]/den, den > 0, put in
        lowest terms."""
        p = object.__new__(Polynomial)
        p._store(basis, *_lowest(num, den))
        return p

    @staticmethod
    def from_dyadics(basis: str, parts: Sequence[tuple[int, int]]) -> "Polynomial":
        """The polynomial with coefficients c 2^e, for (c, e) in parts."""
        low = min([e for c, e in parts if c] + [0])
        return Polynomial.from_integers(basis, [c << (e - low) if c else 0 for c, e in parts],
                                        1 << -low)

    @staticmethod
    def e(i: int) -> "Polynomial":
        """The monomial x^i, i >= 0."""
        if i < 0:
            raise ValueError(f"monomial degree must be >= 0, not {i}")
        return Polynomial.from_integers(MONOMIAL, [0] * i + [1])

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Monomial degree bound, or the formal degree n of the Bernstein form."""
        return len(self.num) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, formed on each access."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def __call__(self, x) -> Fraction:
        """p(x), exactly, at a rational scalar x (int, Fraction or float); a
        Bernstein form is defined on [0,1] only. DomainError for an x outside
        it, or a float x with no exact value (NaN, an infinity). At x = a/b,
        sum_k num[k] a^k b^(d-k) of the monomial form by integer Horner, over
        den b^d, with one Fraction at the end."""
        if self.basis == BERNSTEIN and not 0 <= x <= 1:
            raise DomainError(f"Bernstein form evaluated at x={x} outside [0,1]")
        if isinstance(x, float) and not math.isfinite(x):
            raise DomainError(f"polynomial evaluated at x={x}, which is not finite")
        m = self.to_monomial()
        a, b = _rational(x)
        acc, bk = 0, 1
        for c in reversed(m.num):
            acc = acc * a + c * bk
            bk *= b
        return Fraction(acc, m.den * b ** m.degree)

    # ------------------------------------------------------------------
    # the exact read and what is formed from it
    def to_monomial(self) -> "Polynomial":
        """The monomial form, the one exact read of p in that basis: p
        itself, or a Bernstein form converted once per instance."""
        return self if self.basis == MONOMIAL else self._monomial

    @cached_property
    def _monomial(self) -> "Polynomial":
        """The x^j coefficient of sum_k b_k p_{n,k} is C(n,j) Delta^j b_0
        (Farouki, CAGD 29, 2012): O(n^2) integer subtractions on the
        numerators, over den."""
        n, diff, num = self.degree, list(self.num), []
        for j in range(n + 1):
            num.append(comb(n, j) * diff[0])
            diff = list(map(sub, diff[1:], diff))
        return Polynomial.from_integers(MONOMIAL, num, self.den)

    def chebyshev(self) -> tuple[list, int]:
        """p = sum_j c_j T_j(2x - 1) (|c_j| <= 2 max|p| on [0,1], Trefethen,
        ATAP ch. 3): the c_j as integers over den 4^d of the monomial form, by
        Horner's rule in x = (1 + t)/2 over the T_j(t), with 4x T_j = 2 T_j +
        T_{j-1} + T_{j+1} (T_{-1} = T_1): O(d^2) integer additions."""
        m = self.to_monomial()
        c = np.zeros(m.degree + 1, dtype=object)
        for k, a in enumerate(reversed(m.num)):
            c, prev = 2 * c, c
            c[1:] += prev[:-1]
            c[:-1] += prev[1:]
            c[1:2] += prev[:1]  # T_{-1} = T_1
            c[0] += a << 2 * k
        return list(c), m.den << 2 * m.degree

    def moments(self, count: int) -> tuple[list, int]:
        """int_0^1 x^mu p(x) dx for mu < count, exactly: the integers T_mu =
        sum_k num[k] L/(k+mu+1) of the monomial form over den L, on the
        weights L/i of one L = lcm(1..d+count)."""
        m = self.to_monomial()
        top = m.degree + count
        L = math.lcm(*range(1, top + 1))
        w = [L // i for i in range(1, top + 1)]
        return [sum(map(mul, m.num, w[mu:])) for mu in range(count)], m.den * L

    def bernstein_read(self) -> tuple[list, int]:
        """p's Bernstein integers b at its exact degree d = len(b) - 1, and
        den: p = sum_k b_k/(den d!) p_{d,k}. A Bernstein form whose leading
        monomial coefficient (``_leading``) is not 0 is at its exact degree
        n, and b is its stored numerators times n!: O(n) products, with no
        monomial round trip. A monomial form, or a Bernstein form stored
        above its exact degree, gives ``bernstein_integers`` of the monomial
        form and its den, formed on each read."""
        if self.basis == BERNSTEIN and _leading(self.num):
            scale = math.factorial(self.degree)
            return [x * scale for x in self.num], self.den
        m = self.to_monomial()
        return bernstein_integers(m.num), m.den

    # ------------------------------------------------------------------
    # serialization: {"basis": ..., "n": int, "coeffs": [strings]}
    def to_json(self) -> str:
        """Each coefficient as its exact "a" or "a/b" string."""
        return json.dumps({"basis": self.basis, "n": self.degree,
                           "coeffs": [str(c) for c in self.coeffs]})

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        """Each coefficient string read as the rational it spells, exactly:
        "a", "a/b" or a decimal such as "0.1"; ValueError naming the first
        one that spells none, such as "nan" or "1/0", or for an "n" that is
        not the int len(coeffs) - 1, and TypeError for a coefficient that
        is not a string. "n" may be left out."""
        obj = json.loads(text)
        if not all(isinstance(s, str) for s in obj["coeffs"]):
            raise TypeError("polynomial coefficients must be strings")
        d = len(obj["coeffs"]) - 1
        if "n" in obj and (type(obj["n"]) is not int or obj["n"] != d):
            raise ValueError(f"n = {obj['n']!r} is not {d}, the degree of the coefficients")
        coeffs = []
        for i, s in enumerate(obj["coeffs"]):
            try:
                coeffs.append(Fraction(s))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"coefficient {i} = {s!r} is not a finite number") from None
        return Polynomial(obj["basis"], coeffs)

    def __repr__(self):
        return f"Polynomial({self.basis}, deg<={self.degree})"
