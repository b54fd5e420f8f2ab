"""Classical and weighted moduli of smoothness on [0,1].

The step weight is phi(x)^lambda with phi(x) = sqrt(x(1-x)); lambda = 0
recovers the classical modulus.  Suprema are approximated over finite grids
(64 geometric h-points; 1025 Chebyshev-distributed x-points plus, for each h,
the points where a node of the difference meets an endpoint), so every
estimate is a lower bound of the true supremum; the grid sizes are recorded
in the result.  ``modulus_sweep`` is the one sweep behind every estimate.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import RegimeError

DEFAULT_H_POINTS = 64
DEFAULT_X_POINTS = 1025
_H_SPAN = 2.0**-16  # smallest h is t * _H_SPAN


def step_weight(x, lam: float):
    """phi^lambda(x) = (x(1-x))^(lambda/2)."""
    x = np.asarray(x, dtype=float)
    return (x * (1.0 - x)) ** (lam / 2.0)


def sym_diff(f, k: int, delta: float, x: float) -> float:
    """k-th symmetric difference with step delta at x; 0 by convention when
    any node x +- k delta/2 leaves [0,1]."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if k < 0:
        raise ValueError("k must be >= 0")
    return float(_sym_diff_grid(f, k, np.array([float(delta)]), np.array([float(x)]))[0])


@dataclass(frozen=True)
class ModulusEstimate:
    k: int
    lam: float
    t: float
    value: float
    h_grid_size: int
    x_grid_size: int
    argmax_h: float
    argmax_x: float


def default_h_grid(t: float) -> np.ndarray:
    """Geometric grid of step bounds in (0, t], largest point exactly t."""
    if t <= 0:
        raise ValueError("t must be positive")
    return t * np.geomspace(_H_SPAN, 1.0, DEFAULT_H_POINTS)


def default_x_grid(size: int = DEFAULT_X_POINTS) -> np.ndarray:
    """Chebyshev-distributed points on [0,1] (clustered at the endpoints)."""
    j = np.arange(size)
    return (1.0 - np.cos(np.pi * j / (size - 1))) / 2.0


def _boundary_aligned_points(k: int, lam: float, h: float) -> np.ndarray:
    """Solutions of x = (k h/2) phi^lam(x) (and the mirror image), where the
    leftmost node of the k-th difference sits exactly at the endpoint."""
    if k == 0 or lam >= 2:
        return np.array([])
    c = k * h / 2.0
    expo = 1.0 / (1.0 - lam / 2.0)
    x = min(0.5, c**expo)  # exact for lam = 0; first-order guess otherwise
    for _ in range(40):
        nxt = (c * (1.0 - x) ** (lam / 2.0)) ** expo
        if not np.isfinite(nxt) or nxt >= 0.5:
            return np.array([])
        if abs(nxt - x) <= 1e-16 * max(x, 1e-300):
            x = nxt
            break
        x = nxt
    if not 0 < x < 0.5:
        return np.array([])
    return np.array([x, 1.0 - x])


def _sym_diff_grid(f, k: int, deltas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Delta^k_{delta(x)}(f, x) for per-point steps; invalid points give 0."""
    lo = xs - k * deltas / 2.0
    hi = xs + k * deltas / 2.0
    valid = (deltas > 0) & (lo >= -1e-15) & (hi <= 1.0 + 1e-15)
    offsets = np.arange(k + 1)
    nodes = lo[:, None] + deltas[:, None] * offsets[None, :]
    nodes = np.clip(nodes, 0.0, 1.0)
    signs = np.array([comb(k, i) * (-1) ** (k - i) for i in range(k + 1)], dtype=float)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    out = vals @ signs
    out[~valid] = 0.0
    return out


def modulus_sweep(f, k: int, lam: float, hs) -> tuple[np.ndarray, np.ndarray]:
    """For each step bound h in hs, max_x |Delta^k_{h phi^lam(x)}(f, x)| over
    default_x_grid() and the boundary-aligned points, and the first x that
    attains it."""
    xs = default_x_grid()
    w = step_weight(xs, lam)
    values, args = [], []
    for h in hs:
        # endpoint-singular functions peak exactly where the leftmost node of
        # the difference touches 0 (mirrored: 1); include those x explicitly
        xa = _boundary_aligned_points(k, lam, h)
        x_all = np.concatenate([xs, xa])
        vals = np.abs(_sym_diff_grid(f, k, h * np.concatenate([w, step_weight(xa, lam)]), x_all))
        j = int(np.argmax(vals))
        values.append(float(vals[j]))
        args.append(float(x_all[j]))
    return np.array(values), np.array(args)


def omega_dt(f, k: int, lam: float, t: float) -> ModulusEstimate:
    """Weighted modulus sup_{0<h<=t} max_x |Delta^k_{h phi^lam(x)}(f, x)|,
    the first maximum of modulus_sweep over default_h_grid(t)."""
    if not 0 <= lam <= 2:
        raise ValueError("lambda must lie in [0,2]")
    hs = default_h_grid(t)  # raises for t <= 0
    values, args = modulus_sweep(f, k, lam, hs)
    j = int(np.argmax(values))
    return ModulusEstimate(
        k=k,
        lam=float(lam),
        t=float(t),
        value=float(values[j]),
        h_grid_size=len(hs),
        x_grid_size=DEFAULT_X_POINTS,
        argmax_h=float(hs[j]),
        argmax_x=float(args[j]),
    )


def omega(f, k: int, t: float) -> ModulusEstimate:
    """Classical modulus of smoothness (lambda = 0)."""
    return omega_dt(f, k, 0.0, t)


def fit_modulus_exponent(f, k: int, lam: float, t_list) -> float:
    """Least-squares slope of log omega_dt(f,k,lam,t) against log t."""
    ts = np.asarray(list(t_list), dtype=float)
    if len(ts) < 2:
        raise ValueError("need at least two step bounds")
    vals = np.array([omega_dt(f, k, lam, t).value for t in ts])
    if np.any(vals <= 0):
        raise ValueError("modulus vanished on the grid; cannot fit an exponent")
    slope, _ = np.polyfit(np.log(ts), np.log(vals), 1)
    return float(slope)


ENVELOPE_KINDS = ("pointwise", "modulus_arg", "delta_n_lambda", "bernstein_gamma")


def bound_envelope(kind: str, n: int, lam: float, x: float, h: float | None = None) -> float:
    """Right-hand-side envelope quantities of the main error bounds, without
    their unknown multiplicative constants."""
    if kind not in ENVELOPE_KINDS:
        raise ValueError(f"unknown envelope {kind!r}")
    if not 0 <= lam < 2:
        raise RegimeError("envelopes require 0 <= lambda < 2")
    if n < 1 or not 0 <= x <= 1:
        raise ValueError("need n >= 1 and x in [0,1]")
    phi = float(np.sqrt(x * (1.0 - x)))
    if kind == "pointwise":
        if h is None or h <= 0:
            raise ValueError("pointwise envelope requires h > 0")
        return 1.0 + phi ** (2.0 - lam) / (h * h * n * n * (phi + 1.0 / n) ** lam)
    if kind == "modulus_arg":
        return phi ** (1.0 - lam / 2.0) * (phi + 1.0 / n) ** (-lam / 2.0) / n
    if kind == "delta_n_lambda":
        if x <= 1.0 / n**2 or x >= 1.0 - 1.0 / n**2:
            return (phi / n) ** (1.0 - lam / 2.0)
        return phi ** (1.0 - lam) / n
    # bernstein_gamma
    rn = n**-0.5
    return rn * phi ** (1.0 - lam / 2.0) * (phi + rn) ** (-lam / 2.0)
