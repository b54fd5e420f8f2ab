"""Seeded task lists for the three benchmark workloads, and the code that runs
one task through the library's public entry points.

Every library call goes through a module attribute (``generator.build_generator``,
``operators.mn_image``, ...) so that the tracer in ``tracing.py`` can wrap the
call at its binding site without touching the library source.

The size of each task list scales with ``seconds``; at the nominal 20 s one
pass over a task list takes 8-15 s on a 2-vCPU x86-64 box with the
pure-Python mpmath backend, and run.py makes two passes (four over
the short tasks).
"""
from __future__ import annotations

import hashlib
import json
import math
import random

import shapeapprox.cli  # noqa: F401  (set-up covers the whole package, as the CLI does)
from shapeapprox import best_approx, functions, generator, moduli, operators, shape
from shapeapprox.polynomial import Polynomial

NOMINAL_SECONDS = 20.0

# gen_build: n log-uniform in (8r, 512], r in {1, 2, 3}
GEN_N_MAX = 512
GEN_STRATA = 10  # strata per r at the nominal run length

# mn_batch: a fixed (q, n) panel in three clusters of n; the batch inputs are
# drawn from the seed. A median or tail over tasks whose costs differ tenfold
# is the time of one or two tasks, which varied by 25% between runs here; a
# cluster of like tasks around each of them averages that out. With a
# log-spaced panel over n = 17..92 the quartile spread of task_p50_s over ten
# seeds was 0.25.
MN_CLUSTERS = (22, 46, 72)  # centres; q=4 falls back at 22
MN_PER_Q = 2  # n values per (cluster, q) at the nominal run length
MN_RANDOM_INPUTS = 1
MN_LOG_EPS = "logeps:1e-4"

# minimax: n in 4..22 (kink q=4, n=25 alone takes ~49 s at the library grids).
# The nominal panel tops out at 19: kink q=4 at n=21 or 22 takes 3.4-3.8 s,
# a third of a pass; n=19 keeps the kink q=3 case the library cannot validate
MM_FUNCTIONS = ("exp", "truncpow:0.5:3", "xeps:0.5", "logeps:1e-4")
MM_N_MIN, MM_N_TOP = 4, 19
MM_Q_MAX = 4
MM_N_VALUES = 3  # n values per (f, q) at the nominal run length
MM_SAMPLE_POINTS = 129  # N, raised to 4(n+1) where the library requires it
MM_CONSTRAINT_POINTS = 129  # M


def _unused(n: int, lo: int, hi: int, used: set) -> int:
    """The nearest integer to n in [lo, hi] that is not in used."""
    for step in range(hi - lo + 1):
        for cand in (n + step, n - step):
            if lo <= cand <= hi and cand not in used:
                return cand
    raise ValueError(f"no unused n left in [{lo}, {hi}]")


def _draw_gen_build(rng: random.Random, scale: float) -> list[dict]:
    """n log-uniform in (8r, 512] by strata: one n per stratum, at the
    stratum's log-midpoint moved by the seed by one step at most. The build
    cost grows like n^2.2: with free draws within each stratum the quartile
    spread of task_p50_s over five seeds was 0.29."""
    strata = max(1, round(GEN_STRATA * scale))
    tasks = []
    for r in (1, 2, 3):
        lo = 8 * r
        used: set = set()
        for i in range(strata):
            n = round(lo * (GEN_N_MAX / lo) ** ((i + 0.5) / strata)) + rng.choice((-1, 0, 1))
            n = _unused(min(GEN_N_MAX, max(lo + 1, n)), lo + 1, GEN_N_MAX, used)
            used.add(n)
            tasks.append({"n": n, "r": r})
    return tasks


def _random_bernstein(rng: random.Random) -> list[float]:
    degree = rng.randint(1, 5)
    return [rng.random() for _ in range(degree + 1)]


def _draw_mn_batch(rng: random.Random, scale: float) -> list[dict]:
    """Every q in 1..4 at small, middle and large n (clusters around
    MN_CLUSTERS); the per-task batch holds the q-monotone catalog, a seeded
    random Bernstein input and, for q=1, one quadrature-only input."""
    k = max(1, round(MN_PER_Q * scale))
    tasks = []
    for centre in MN_CLUSTERS:
        for q in range(1, 5):
            for j in range(k):
                tasks.append({
                    "q": q,
                    "n": centre + 2 * j - (k - 1),
                    "random_inputs": [_random_bernstein(rng) for _ in range(MN_RANDOM_INPUTS)],
                    "linear": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
                })
    return tasks


def _n_panel(k: int) -> list[int]:
    span = MM_N_TOP - MM_N_MIN
    return sorted({MM_N_MIN + round(i * span / (k - 1)) for i in range(k)})


def _draw_minimax(rng: random.Random, scale: float) -> list[dict]:
    """Every (f, q) pair on one n panel; the seed only sets the order. The
    LP cost and the minimax error are rough in n (kink q=4: 1.4 s at n=14,
    0.2 s at n=15): with seeded n the quartile spread over five seeds was
    0.09 for tasks_per_s and 0.35 for err_gmean."""
    tasks = []
    for fs in MM_FUNCTIONS:
        orders = sorted(q for q in functions.catalog(fs).known_monotone_orders if q <= MM_Q_MAX)
        for q in [None] + orders:
            for n in _n_panel(max(2, round(MM_N_VALUES * scale))):
                tasks.append({"f": fs, "q": q, "n": n,
                              "N": max(MM_SAMPLE_POINTS, 4 * (n + 1)),
                              "M": MM_CONSTRAINT_POINTS})
    return tasks


_DRAW = {"gen_build": _draw_gen_build, "mn_batch": _draw_mn_batch, "minimax": _draw_minimax}


def draw(workload: str, seed: int, seconds: float) -> list[dict]:
    """The run's task list: a pure function of (workload, seed, seconds),
    in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = _DRAW[workload](rng, seconds / NOMINAL_SECONDS)
    rng.shuffle(tasks)
    for i, task in enumerate(tasks):
        task["id"] = i
    return tasks


def task_list_hash(tasks: list[dict]) -> str:
    blob = json.dumps(tasks, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def make_inputs(workload: str, task: dict):
    """The library objects a task runs on (built during set-up)."""
    if workload == "gen_build":
        return None
    if workload == "mn_batch":
        q = task["q"]
        batch = [(f.name, f) for f in functions.q_monotone_catalog(q)]
        for j, coeffs in enumerate(task["random_inputs"]):
            batch.append((f"random{j}", functions.PolyFunction(Polynomial.bernstein(coeffs))))
        if q == 1:
            batch.append((MN_LOG_EPS, functions.catalog(MN_LOG_EPS)))
        return batch
    return functions.catalog(task["f"])


# ----------------------------------------------------------------------
# one task each; these are the timed bodies
def run_gen_build(task, inputs):
    return generator.build_generator(task["n"], task["r"])


def run_mn_batch(task, inputs):
    out = []
    for name, f in inputs:
        res = operators.mn_image(task["q"], task["n"], f)
        report = shape.check_k_monotone_poly(res.poly, task["q"])
        out.append((name, f, res, report))
    return out


def run_minimax(task, f):
    q, n = task["q"], task["n"]
    if q is None:
        res = best_approx.best_uniform(f, n, N=task["N"])
    else:
        res = best_approx.best_qmonotone(f, q, n, N=task["N"], M=task["M"])
    modulus = moduli.omega_dt(f, 2, 1.0, 1.0 / n)
    return res, modulus


RUN = {"gen_build": run_gen_build, "mn_batch": run_mn_batch, "minimax": run_minimax}
