"""Benchmark of the shapeapprox library: one seeded workload per run.

    python3 bench/run.py --workload gen_build --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): ``gen_build`` (generator construction),
``mn_batch`` (the composite operator M_n on input batches) and ``minimax``
(unconstrained and q-monotone best approximation). With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` every task runs twice, untraced and traced, and the metrics are
the per-layer numbers and the tracing overhead. Full records (provenance,
per-task times and check results, spans) go to ``.bench_out/``.
"""
import os
import sys

# single-threaded process: pin BLAS before numpy is imported anywhere
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402  (bench/ is this file's directory)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 3
IMPORT_PROBED = "scipy.stats"  # most of the set-up time
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # task_tail_s: highest percentile with this many tasks beyond it
# a task's time is the median of its executions, made in passes over the
# task list, each pass starting at another point: the speed of a shared
# machine drifts in phases of seconds (see also reference.py). Tasks under
# SHORT_TASK_S get SHORT_PASSES executions, the rest PASSES.
PASSES = 2
SHORT_PASSES = 4
SHORT_TASK_S = 0.5
EXCLUSIONS = [
    "minimax: n > 22 (best_qmonotone(truncpow:0.5:3, q=4, n=25) alone takes ~49 s)",
    "minimax: n = 20..22 at the nominal size (kink q=4 takes 3.4-3.8 s per execution)",
    "mn_batch: n > 73 (one task at n = 112 takes 3-3.6 s)",
]

# per-layer metric -> (source, key, unit); "self" = summed span self time
LAYER_METRICS = {
    "generator.build_s": ("self", "generator.build_generator", "s"),
    "generator.builds": ("count", "generator.builds", "count"),
    "generator.escalations": ("count", "generator.escalations", "count"),
    "special.tau_s": ("self", "special.tau", "s"),
    "polynomial.to_bernstein_s": ("self", "polynomial.to_bernstein", "s"),
    "polynomial.to_bernstein_calls": ("count", "polynomial.to_bernstein.calls", "count"),
    "polynomial.mul_s": ("self", "polynomial.mul", "s"),
    "polynomial.mul_calls": ("count", "polynomial.mul.calls", "count"),
    "operators.mn_image_s": ("self", "operators.mn_image", "s"),
    "operators.gavrea_s": ("self", "operators.gavrea_image", "s"),
    "operators.u_images": ("count", "operators.u_images", "count"),
    "operators.fallbacks": ("count", "operators.fallbacks", "count"),
    "shape.check_poly_s": ("self", "shape.check_k_monotone_poly", "s"),
    "shape.checks": ("count", "shape.check_k_monotone_poly.calls", "count"),
    "simplex.solve_s": ("self", "simplex.solve_lp", "s"),
    "simplex.lp_calls": ("count", "simplex.solve_lp.calls", "count"),
    "simplex.iterations": ("count", "simplex.iterations", "count"),
    "simplex.rows_solved": ("count", "simplex.rows_solved", "count"),
    "best_approx.unvalidated": ("count", "best_approx.unvalidated", "count"),
    "moduli.omega_dt_s": ("self", "moduli.omega_dt", "s"),
    "moduli.calls": ("count", "moduli.omega_dt.calls", "count"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("gen_build", "mn_batch", "minimax"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_library():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import shapeapprox

    where = os.path.realpath(os.path.dirname(shapeapprox.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"shapeapprox imported from {where}, not from {SRC}")


def probe_setup(workload, seed, seconds, importtime):
    """One fresh-interpreter set-up: (set-up seconds, cumulative import
    seconds of scipy.stats, 0 unless importtime), both at the nominal speed
    of the probe's own reference readings."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "probe.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    speed = reference.scale([probe["reference_s"]])
    imported = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == IMPORT_PROBED:
            imported = int(parts[1]) / 1e6 * speed
    return probe["setup_s"] * speed, imported


def cache_clearers():
    """cache_clear of every functools cache in the package, so each task
    starts from the caches a fresh CLI process would have."""
    seen, out = set(), []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("shapeapprox"):
            continue
        values = list(vars(mod).values())
        values += [v for cls in values if isinstance(cls, type) and cls.__module__ == name
                   for v in vars(cls).values()]
        for v in values:
            clear = getattr(v, "cache_clear", None)
            if callable(clear) and id(v) not in seen:
                seen.add(id(v))
                out.append(clear)
    return out


def run_once(workload, task, inputs, clearers, readings, tracer=None):
    """(output, seconds, seconds at the nominal speed, error) of one timed
    execution of a task. The nominal time is scaled by reference readings
    taken just before and just after the execution; both are appended to
    readings."""
    import workloads

    for clear in clearers:
        clear()
    gc.collect()
    before = reference.reading()
    span = None
    if tracer is not None:
        tracer.install()
        tracer.task = task["id"]
        span = tracer.open("task")
    out, error = None, None
    start = time.perf_counter()
    try:
        out = workloads.RUN[workload](task, inputs)
    except Exception as exc:  # a raised error is a failed task; keep going
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
        tracer.uninstall()
    after = reference.reading()
    readings += (before, after)
    return out, elapsed, elapsed * reference.scale([before, after]), error


def rotated_passes(order, passes):
    """passes passes over order, pass p starting p/passes of the way along."""
    size = len(order)
    return [order[(j + p * size // passes) % size] for p in range(passes) for j in range(size)]


def tail_percentile(count):
    return max(0, math.floor(100 * (count - TAIL_BEYOND) / count))


def percentile(values, pct):
    if pct <= 0 or len(values) < 2:
        return min(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def provenance(args, tasks, task_hash, probes, speed):
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "tasks": len(tasks),
        "task_list_sha256": task_hash,
        "passes": {"traced": 1} if args.trace else {
            "passes": PASSES, "short_passes": SHORT_PASSES, "short_task_s": SHORT_TASK_S},
        "tail_percentile": tail_percentile(len(tasks)),
        "time_scale": speed,
        "reference_nominal_s": reference.NOMINAL_S,
        "setup_probes": probes,
        "exclusions": EXCLUSIONS,
    }


def layer_metrics(tracer, probes, speed, times, traced_times):
    """Per-layer spans and counts; span times are taken to the nominal speed
    by the run's median reference reading, task times already are."""
    selfs = tracer.self_times()
    metrics = {}
    for name, (source, key, unit) in LAYER_METRICS.items():
        value = selfs.get(key, 0.0) * speed if source == "self" else tracer.counts.get(key, 0)
        metrics[name] = {"value": value, "unit": unit}
    checked = tracer.counts.get("shape.check_k_monotone_poly.calls", 0)
    certified = tracer.counts.get("shape.certificates", 0)
    metrics["shape.certificate_ratio"] = {
        "value": certified / checked if checked else 0.0, "unit": "ratio"}
    approx = selfs.get("best_approx.best_uniform", 0.0) + selfs.get("best_approx.best_qmonotone", 0.0)
    metrics["best_approx.self_s"] = {"value": approx * speed, "unit": "s"}
    metrics["setup.import_scipy_stats_s"] = {
        "value": statistics.median(p[1] for p in probes), "unit": "s"}
    # tracing overhead, over the tasks with an untraced and a traced time
    both = [(a[0], b[0]) for a, b in zip(times, traced_times) if a and b]
    plain_rate = len(both) / sum(a for a, _ in both)
    traced_rate = len(both) / sum(b for _, b in both)
    metrics["trace.tasks_per_s_diff"] = {"value": plain_rate - traced_rate, "unit": "1/s"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    try:
        load_library()
        import checks
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot load the library from {SRC}: {exc}", file=sys.stderr)
        return 2

    probes = [probe_setup(args.workload, args.seed, args.seconds, bool(args.trace))
              for _ in range(SETUP_PROBES)]
    tasks = workloads.draw(args.workload, args.seed, args.seconds)
    task_hash = workloads.task_list_hash(tasks)
    inputs = [workloads.make_inputs(args.workload, t) for t in tasks]
    clearers = cache_clearers()
    tracer = tracing.Tracer() if args.trace else None
    gc.freeze()  # keep the per-execution collections small

    count = len(tasks)
    # nominal times of the executions that did not raise; any raised error
    # fails the task
    times = [[] for _ in tasks]
    traced_times = [[] for _ in tasks]
    raw_times = [[] for _ in tasks]
    outputs = [None] * count
    raised = [[] for _ in tasks]
    readings: list[float] = []

    def execute(plan):
        for i, traced in plan:
            out, raw, nominal, error = run_once(
                args.workload, tasks[i], inputs[i], clearers, readings, tracer if traced else None)
            if error is not None:
                raised[i].append(error)
            elif traced:
                traced_times[i].append(nominal)
            else:
                if not times[i]:
                    outputs[i] = out
                times[i].append(nominal)
                raw_times[i].append(raw)

    if tracer:  # untraced and traced back to back, alternating which goes first
        execute([(i, traced) for i in range(count)
                 for traced in ((False, True) if i % 2 == 0 else (True, False))])
    else:
        execute([(i, False) for i in rotated_passes(range(count), PASSES)])
        short = [i for i in range(count) if times[i] and statistics.median(times[i]) < SHORT_TASK_S]
        execute([(i, False) for i in rotated_passes(short, SHORT_PASSES - PASSES)])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = reference.scale(readings)

    # a task fails if an execution raised, a check found its output wrong,
    # or the library reported that its output misses the specification; the
    # run is correct unless a task failed in one of the first two ways
    records, task_times, errors = [], [], []
    failed = wrong = 0
    check = checks.CHECK[args.workload]
    for i, task in enumerate(tasks):
        fails, reported = list(raised[i]), []
        if times[i]:
            try:
                check_fails, reported, errs = check(task, inputs[i], outputs[i])
                fails += check_fails
                errors += errs
            except Exception:  # a check that cannot run fails the task
                fails.append("check raised: " + traceback.format_exc(limit=3))
        outputs[i] = None
        wrong += bool(fails)
        failed += bool(fails or reported)
        if times[i]:
            task_times.append(statistics.median(times[i]))
        records.append({"task": task, "times_s": times[i], "raw_s": raw_times[i],
                        "traced_s": traced_times[i], "fails": fails, "reported": reported})

    if not task_times or (tracer and not any(a and b for a, b in zip(times, traced_times))):
        first = next(r[0] for r in raised if r)
        print(f"no task ran without raising an error; first error: {first}", file=sys.stderr)
        return 1
    if tracer:
        metrics = layer_metrics(tracer, probes, speed, times, traced_times)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p[0] for p in probes), "unit": "s"},
            "tasks_per_s": {"value": len(task_times) / sum(task_times), "unit": "1/s"},
            "task_p50_s": {"value": statistics.median(task_times), "unit": "s"},
            "task_tail_s": {"value": percentile(task_times, tail_percentile(len(task_times))),
                            "unit": "s"},
            "pass_ratio": {"value": (count - failed) / count, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "err_gmean": {
                "value": math.exp(statistics.fmean(math.log(e) for e in errors)) if errors else 0.0,
                "unit": "abs"},
        }

    prov = provenance(args, tasks, task_hash, probes, speed)
    result = {"correct": wrong == 0, "attempted": count, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": prov, "result": result, "tasks": records}, fh, indent=1, default=str)
    if tracer:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task"], "spans": tracer.spans}, fh)
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
