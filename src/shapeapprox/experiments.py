"""Scripted experiments reproducing the worked comparisons: Bernstein error
asymptotics for x^eps, error/modulus ratios for the composite operator M_n,
the lambda=2 counterexample family ln(x+eps), and generating-polynomial
moment reports.  Each experiment returns a table that serializes to CSV with
its full configuration and a content hash embedded, so reruns are
reproducible and diffable."""
from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .best_approx import best_uniform
from .errors import RegimeError
from .functions import FunctionHandle, LogShiftFunction, PolyFunction, PowerFunction
from .generator import PRECISION_BITS, build_generator, deficiency_slope
from .moduli import check_order, default_x_grid, modulus_sweep, omega_dt
from .operators import _as_handle, mn_image
from .polynomial import bernstein_basis


@dataclass
class ExperimentTable:
    name: str
    config: dict
    columns: list
    rows: list = field(default_factory=list)
    assertions: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.assertions.values())

    def to_csv(self) -> str:
        body_lines = [",".join(self.columns)]
        for row in self.rows:
            body_lines.append(",".join(_fmt(v) for v in row))
        body = "\n".join(body_lines)
        digest = hashlib.sha256(
            (json.dumps(self.config, sort_keys=True) + body).encode()
        ).hexdigest()
        head = [
            f"# experiment: {self.name}",
            f"# config: {json.dumps(self.config, sort_keys=True)}",
            f"# sha256: {digest}",
        ]
        head += [f"# assert {k}: {'pass' if v else 'FAIL'}" for k, v in self.assertions.items()]
        return "\n".join(head) + "\n" + body + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    try:
        return format(float(v), ".17g")
    except (TypeError, ValueError):
        return str(v)


def _bounded_ratio(values, factor=10.0) -> bool:
    """Whether every value is finite and at most factor times their lower
    median, which is one of them (the mean of two values is at least half
    the larger, so against it any pair would pass)."""
    vals = [v for v in values if np.isfinite(v)]
    if len(vals) != len(list(values)) or not vals:
        return False
    med = float(statistics.median_low(vals))
    return med > 0 and max(vals) <= factor * med


# ----------------------------------------------------------------------
def run_bernstein_xeps(eps, n_list) -> ExperimentTable:
    """Midpoint Bernstein errors for x^eps: the Voronovskaya product
    n*(f - B_n f)(1/2), the interior envelope n^-1 phi^(2 eps - 2)(1/2), and
    the near-endpoint error at x = 1/n^2 against (n^-1/2 phi(x))^eps. An
    exact eps (a Fraction) is checked and read exactly, and enters the
    envelopes as its float. RegimeError for n < 2, whose 1/n^2 is the
    endpoint 1, where the envelope is 0."""
    if not 0 < eps < 1:
        raise RegimeError("eps must be in (0,1)")
    f = PowerFunction(eps)
    eps = float(eps)
    ns = [int(n) for n in n_list]
    if any(n < 2 for n in ns):
        raise RegimeError("n must be >= 2")
    table = ExperimentTable(
        name="bernstein-xeps",
        config={"eps": eps, "n_list": ns},
        columns=[
            "n", "err_mid", "voron_product", "envelope_mid", "ratio_mid",
            "x_small", "err_small", "envelope_small", "ratio_small",
        ],
    )
    phi_mid = 0.5
    voron_limit = eps * (1 - eps) / 2 * 0.5 ** (eps - 2) * phi_mid**2
    for n in ns:
        xs = 1.0 / n**2
        # B_n(f, x) by direct summation of the binomial kernel
        fk = np.asarray(f(np.arange(n + 1) / n), dtype=float)
        mid, small = bernstein_basis(n, [0.5, xs])
        err_mid = abs(float(f(0.5)) - float(mid @ fk))
        voron = n * err_mid
        env_mid = phi_mid ** (2 * eps - 2) / n
        err_small = abs(float(f(xs)) - float(small @ fk))
        env_small = (math.sqrt(xs * (1 - xs)) / math.sqrt(n)) ** eps
        table.rows.append(
            [n, err_mid, voron, env_mid, err_mid / env_mid,
             xs, err_small, env_small, err_small / env_small]
        )
    ratios_mid = [r[4] for r in table.rows]
    ratios_small = [r[8] for r in table.rows]
    table.assertions["midpoint_envelope_stable"] = _bounded_ratio(ratios_mid)
    table.assertions["endpoint_envelope_stable"] = _bounded_ratio(ratios_small)
    if max(ns) >= 2**14:
        final = table.rows[ns.index(max(ns))][2]
        table.assertions["voronovskaya_limit_5pct"] = (
            abs(final - voron_limit) <= 0.05 * voron_limit
        )
    return table


# ----------------------------------------------------------------------
def run_mn_error_study(q: int, lam: float, f: FunctionHandle, n_list) -> ExperimentTable:
    """Pointwise |f - M_n f| against the weighted modulus at the matching
    argument, with the empirical max ratio per n; lambda and n >= 1 are
    checked (RegimeError) before any argument is formed."""
    check_order(2, lam)
    f = _as_handle(f)
    ns = [int(n) for n in n_list]
    if any(n < 1 for n in ns):
        raise RegimeError("n must be >= 1")
    x_points = 129
    table = ExperimentTable(
        name="mn-error-study",
        config={"q": q, "lambda": lam, "f": f.name, "n_list": ns,
                "prec_bits": PRECISION_BITS, "x_points": x_points},
        columns=["n", "used_fallback", "max_err", "max_ratio"],
    )
    xs = default_x_grid(x_points)[1:-1]  # both sides interpolate the endpoints
    phi = np.sqrt(xs * (1 - xs))
    ratios_all = []
    for n in ns:
        args = phi ** (1 - lam / 2) * (phi + 1.0 / n) ** (-lam / 2) / n
        # omega_dt's sweep, once per n: per-h maxima, then prefix maxima give
        # omega(t) for every needed t
        hs = np.geomspace(max(args.min(), 1e-8) * 2.0**-8, args.max(), 256)
        prefix = np.maximum.accumulate(modulus_sweep(f, 2, lam, hs)[0])
        om = prefix[np.searchsorted(hs, args, side="right") - 1]
        res = mn_image(q, n, f)
        vals = PolyFunction(res.poly)(xs)
        errs = np.abs(np.asarray(f(xs), dtype=float) - vals)
        mask = om > 1e-13
        ratio = float(np.max(errs[mask] / om[mask])) if mask.any() else 0.0
        small_ok = bool(np.all(errs[~mask] <= 1e-10))
        ratios_all.append(ratio)
        table.rows.append([n, res.used_fallback, float(errs.max()), ratio])
        table.assertions.setdefault("small_modulus_implies_small_error", True)
        table.assertions["small_modulus_implies_small_error"] &= small_ok
    if any(r > 0 for r in ratios_all):
        table.assertions["ratio_stable"] = _bounded_ratio(
            [r for r in ratios_all if r > 0]
        )
    else:
        table.assertions["all_errors_negligible"] = all(
            row[2] <= 1e-12 for row in table.rows
        )
    return table


# ----------------------------------------------------------------------
def run_lambda2_counterexample(eps_list, n: int = 5) -> ExperimentTable:
    """ln(x+eps): the lambda=2 modulus at t=1/2 stays bounded while E_n grows
    without bound as eps decreases.

    With delta = h x(1-x) the second difference has the closed form
    Delta^2_delta ln(x+eps) = ln(1 - (h x(1-x)/(x+eps))^2).  The ratio
    x(1-x)/(x+eps) peaks at rho(eps) = (sqrt(1+eps) - sqrt(eps))^2, at
    x = sqrt(eps^2+eps) - eps, so for 0 < t <= 1

        omega_2^{phi^2}(ln(x+eps), t) = -ln(1 - t^2 rho(eps)^2).

    At t = 1 this grows like |ln eps|/2, so the family is no counterexample
    there; for every t < 1 it stays below -ln(1 - t^2).  The table uses
    t = 1/2 (bound ln(4/3)), the lambda=2 argument 1/(n phi(x) + 1) where
    n phi(x) = 1.
    """
    eps_list = list(eps_list)
    if any(eps <= 0 for eps in eps_list):
        raise RegimeError("eps must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise RegimeError("eps_list must be strictly decreasing")
    t = 0.5
    table = ExperimentTable(
        name="lambda2-counterexample",
        config={"eps_list": eps_list, "n": n, "t": t},
        columns=["eps", "omega2_phi2_t", "best_error"],
    )
    for eps in eps_list:
        g = LogShiftFunction(eps)
        om = omega_dt(g, 2, 2.0, t).value
        err = best_uniform(g, n).error
        table.rows.append([eps, om, err])
    oms = [r[1] for r in table.rows]
    errs = [r[2] for r in table.rows]
    table.assertions["modulus_bounded_2x"] = max(oms) <= 2 * min(oms)
    table.assertions["error_strictly_increasing"] = all(
        b > a for a, b in zip(errs, errs[1:])
    )
    table.assertions["error_ratio_gt_3"] = errs[-1] / errs[0] > 3
    return table


# ----------------------------------------------------------------------
def run_generator_report(r: int, n_list) -> ExperimentTable:
    """Moment-deficiency table, unit-integral residuals, build precisions,
    and the log-log decay slope of delta_2."""
    ns = [int(n) for n in n_list]
    table = ExperimentTable(
        name="generator-report",
        config={"r": r, "n_list": ns, "prec_bits": PRECISION_BITS},
        columns=[
            "n", "m", "delta_1", "delta_2", "delta_3", "delta_4",
            "n2_delta_2", "unit_integral_residual", "precision_bits",
        ],
    )
    for n in ns:
        gen = build_generator(n, r)
        d = {mu: float(gen.moment_deficiency[mu]) for mu in (1, 2, 3, 4)}
        table.rows.append(
            [n, gen.m, d[1], d[2], d[3], d[4], n * n * d[2], gen.unit_integral_residual,
             gen.precision_bits]
        )
    table.assertions["unit_integral_1e20"] = all(row[7] <= 1e-20 for row in table.rows)
    n2d2 = [row[6] for row in table.rows]
    table.assertions["n2_delta2_within_factor_4"] = max(n2d2) <= 4 * min(n2d2)
    if len(ns) >= 3:
        slope = deficiency_slope(r, ns)
        table.config["delta2_slope"] = slope
        table.assertions["slope_in_range"] = -2.4 <= slope <= -1.6
    return table
