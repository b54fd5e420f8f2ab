"""Command-line entry point.

    shapeapprox <subcommand> [options]

Subcommands: gen-poly, apply, moduli, shape, jackson, bern-xeps, mn-study,
lambda2, gen-report.  Tabular results are CSV with the full configuration and
a content hash embedded as comment lines; the exit code is 0 exactly when all
in-run assertions pass.  A library error (``ShapeApproxError``) ends the run
with one ``shapeapprox: error: ...`` line on stderr and exit code 2.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .best_approx import best_qmonotone, jackson_quotient
from .errors import RegimeError, ShapeApproxError
from .experiments import ExperimentTable
from .functions import PolyFunction, catalog, parameter
from .generator import PRECISION_BITS, build_generator
from .moduli import omega_dt
from .operators import (
    bernstein_image,
    durrmeyer_lupas_image,
    genuine_durrmeyer_image,
    mn_image,
)
from .polynomial import Polynomial
from .shape import check_k_monotone_fn, check_k_monotone_poly


def _number_list(text: str, option: str, kind=float) -> list:
    """The comma-separated values of an option, each read by ``kind``;
    RegimeError naming the option if there are none, or if one is not a
    number of that kind."""
    values = []
    for v in filter(None, text.split(",")):
        try:
            values.append(kind(v))
        except ValueError:
            raise RegimeError(f"{option}: {v!r} is not "
                              + ("an integer" if kind is int else "a number")) from None
    if not values:
        raise RegimeError(f"{option} names no value")
    return values


def _load_function(spec: str):
    """Catalog name, or a path to a polynomial JSON file (a polynomial, or
    the output of ``gen-poly``, which holds it under ``P``), read as a
    ``PolyFunction``; a file that cannot be read so is a ShapeApproxError
    that names it."""
    if spec.endswith(".json"):
        try:
            with open(spec) as fh:
                obj = json.load(fh)
            return PolyFunction(Polynomial.from_json(json.dumps(obj.get("P", obj))))
        except OSError as exc:
            reason = exc.strerror
        except KeyError as exc:
            reason = f"no key {exc}"
        except (ValueError, AttributeError, TypeError) as exc:
            reason = exc  # not JSON, not an object, or a coefficient that does not parse
        raise ShapeApproxError(f"cannot read a polynomial from {spec}: {reason}")
    try:
        return catalog(spec)
    except ValueError as exc:  # an unknown name, or parameters that do not parse
        raise ShapeApproxError(exc) from None


def _write(text: str, out: str | None, end: str = "\n") -> bool:
    """Write text to the file `out` and say so, or print it, followed by
    `end`, when there is none; whether it went to a file."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        print(text, end=end)
    return bool(out)


def _emit(table: ExperimentTable, out: str | None) -> int:
    if _write(table.to_csv(), out, end=""):
        for k, v in table.assertions.items():
            print(f"assert {k}: {'pass' if v else 'FAIL'}")
    return 0 if table.ok else 1


def _cmd_gen_poly(args) -> int:
    gen = build_generator(args.n, args.r)
    payload = {
        "n": gen.n,
        "r": gen.r,
        "m": gen.m,
        "precision_bits": gen.precision_bits,
        "moment_deficiency": {
            str(mu): format(float(d), ".17g") for mu, d in gen.moment_deficiency.items()
        },
        "P": json.loads(gen.P.to_json()),
    }
    _write(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_apply(args) -> int:
    f = _load_function(args.f)
    if args.op == "bernstein":
        poly = bernstein_image(args.n, f)
    elif args.op == "genuine-durrmeyer":
        poly = genuine_durrmeyer_image(args.n, f)
    elif args.op == "durrmeyer":
        poly = durrmeyer_lupas_image(args.n, 0, f)
    elif args.op == "lupas":
        poly = durrmeyer_lupas_image(args.n, args.alpha, f)
    else:  # mn; argparse admits no other --op
        poly = mn_image(args.q, args.n, f).poly
    xs = _number_list(args.x, "--x") if args.x else [i / 16 for i in range(17)]
    table = ExperimentTable(
        name="apply",
        config={"op": args.op, "n": args.n, "q": args.q, "alpha": args.alpha,
                "f": args.f, "precision_bits": PRECISION_BITS},
        columns=["x", "value"],
    )
    for x in xs:  # a float is a dyadic rational: evaluate exactly, round once
        table.rows.append([x, float(poly(x))])
    return _emit(table, args.out)


def _cmd_moduli(args) -> int:
    f = _load_function(args.f)
    table = ExperimentTable(
        name="moduli",
        config={"f": args.f, "k": args.k, "lambda": args.lam,
                "t_grid": args.t_grid},
        columns=["t", "value", "argmax_h", "argmax_x"],
    )
    prev = 0.0
    monotone = True
    for t in _number_list(args.t_grid, "--t-grid"):
        est = omega_dt(f, args.k, args.lam, t)
        monotone &= est.value >= prev - 1e-15
        prev = est.value
        table.rows.append([t, est.value, est.argmax_h, est.argmax_x])
    table.config["route"] = est.route  # one route for every t: it follows f and k
    table.assertions["nondecreasing_in_t"] = monotone
    return _emit(table, args.out)


def _cmd_shape(args) -> int:
    f = _load_function(args.f)
    if isinstance(f, PolyFunction):
        report = check_k_monotone_poly(f.poly, args.k)
    else:
        report = check_k_monotone_fn(f, args.k)
    payload = report._asdict()
    payload["f"] = args.f
    _write(json.dumps(payload, indent=2, default=float), args.out)
    return 0 if report.passed else 1


def _cmd_jackson(args) -> int:
    f = _load_function(args.f)
    table = ExperimentTable(
        name="jackson",
        config={"f": args.f, "q": args.q, "n_list": args.n_list},
        columns=["n", "constrained_error", "omega2_phi", "ratio"],
    )
    ns = _number_list(args.n_list, "--n-list", int)
    if any(n < 1 for n in ns):
        raise RegimeError("jackson needs every n >= 1")
    ratios = []
    for n in ns:
        res = best_qmonotone(f, args.q, n)
        om = omega_dt(f, 2, 1.0, 1.0 / n).value
        ratio = jackson_quotient(res.error, om)
        ratios.append(ratio)
        table.rows.append([n, res.error, om, ratio])
        table.diagnostics.append(" ".join(f"{k}={getattr(res, k)}" for k in (
            "n", "sample_size", "constraint_size", "iterations", "simplex_steps",
            "error_dual", "constraint_validated")))
    table.assertions["ratios_finite"] = all(r == r and r != float("inf") for r in ratios)
    return _emit(table, args.out)


def _cmd_bern_xeps(args) -> int:
    try:
        eps = parameter(args.eps)  # exactly, as a catalog parameter
    except ValueError as exc:
        raise ShapeApproxError(f"--eps: {exc}") from None
    if eps is None:
        raise ShapeApproxError(f"--eps: {args.eps!r} is not a number")
    table = experiments.run_bernstein_xeps(eps, _number_list(args.n_list, "--n-list", int))
    return _emit(table, args.out)


def _cmd_mn_study(args) -> int:
    f = _load_function(args.f)
    ns = _number_list(args.n_list, "--n-list", int)
    table = experiments.run_mn_error_study(args.q, args.lam, f, ns)
    return _emit(table, args.out)


def _cmd_lambda2(args) -> int:
    eps_list = _number_list(args.eps_list, "--eps-list")
    table = experiments.run_lambda2_counterexample(eps_list, args.n)
    return _emit(table, args.out)


def _cmd_gen_report(args) -> int:
    table = experiments.run_generator_report(args.r, _number_list(args.n_list, "--n-list", int))
    return _emit(table, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeapprox",
        description="Shape-preserving polynomial operators, moduli of "
        "smoothness, and constrained best approximation on [0,1].",
    )
    parser.add_argument("--config", help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output file (CSV/JSON); stdout if omitted")

    p = sub.add_parser("gen-poly", help="build a generating polynomial")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_gen_poly)

    p = sub.add_parser("apply", help="apply an operator to a function")
    common(p)
    p.add_argument("--op", required=True,
                   choices=["bernstein", "genuine-durrmeyer", "durrmeyer",
                            "lupas", "mn"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--f", required=True)
    p.add_argument("--x", help="comma-separated evaluation points")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("moduli", help="weighted modulus of smoothness")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--lambda", type=float, default=0.0, dest="lam")
    p.add_argument("--t-grid", required=True, dest="t_grid")
    p.set_defaults(fn=_cmd_moduli)

    p = sub.add_parser("shape", help="k-monotonicity verdict")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_shape)

    p = sub.add_parser("jackson", help="constrained-error / modulus ratios")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-list", required=True, dest="n_list")
    p.set_defaults(fn=_cmd_jackson)

    p = sub.add_parser("bern-xeps", help="Bernstein errors for x^eps")
    common(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--n-list", required=True, dest="n_list")
    p.set_defaults(fn=_cmd_bern_xeps)

    p = sub.add_parser("mn-study", help="composite-operator error study")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lambda", type=float, default=0.0, dest="lam")
    p.add_argument("--f", required=True)
    p.add_argument("--n-list", required=True, dest="n_list")
    p.set_defaults(fn=_cmd_mn_study)

    p = sub.add_parser("lambda2", help="lambda=2 counterexample family")
    common(p)
    p.add_argument("--eps-list", required=True, dest="eps_list")
    p.add_argument("--n", type=int, default=5)
    p.set_defaults(fn=_cmd_lambda2)

    p = sub.add_parser("gen-report", help="generating-polynomial moment report")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-list", required=True, dest="n_list")
    p.set_defaults(fn=_cmd_gen_report)

    return parser


def _read_config(path: str, command: str, subparser) -> dict:
    """The option values of the --config file: a JSON object whose keys
    are option names of the subcommand (``lam`` for --lambda), each value of
    that option's kind; a ShapeApproxError that names the file otherwise."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # no such file, not UTF-8 or not JSON
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ShapeApproxError(f"cannot read --config {path}: {reason}") from None
    if not isinstance(config, dict):
        raise ShapeApproxError(f"--config {path} holds no JSON object")
    options = {a.dest: a for a in subparser._actions if a.dest != "help"}
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ShapeApproxError(f"config keys not taken by {command}: {', '.join(unknown)}")
    for key, value in config.items():
        kind, choices = options[key].type or str, options[key].choices
        # a float option takes a JSON integer too, read as the flag reads it;
        # OverflowError: an integer past any float
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise TypeError
            config[key] = kind(value)
        except (TypeError, OverflowError):
            need = {int: "an integer", float: "a float"}.get(kind, "a string")
            raise ShapeApproxError(f"config key {key}: {json.dumps(value)} is not {need}") from None
        if choices and value not in choices:
            raise ShapeApproxError(f"config key {key}: {json.dumps(value)} is not one of "
                                   + ", ".join(choices))
    return config


def _apply_config(parser: argparse.ArgumentParser, argv) -> None:
    """Before the full parse, read the --config file named ahead of the
    subcommand: its values become the subcommand's defaults, and the options
    it gives are no longer required; explicit flags still win.  A command
    line this first look cannot read is left to the full parse to report."""
    first = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    first.add_argument("--config")
    first.add_argument("command", nargs="?")
    first.add_argument("rest", nargs=argparse.REMAINDER)  # no --config read from these
    try:
        known, _ = first.parse_known_args(argv)
    except argparse.ArgumentError:
        return
    subparser = next(a for a in parser._actions if a.dest == "command").choices.get(known.command)
    if not known.config or subparser is None:
        return
    config = _read_config(known.config, known.command, subparser)
    subparser.set_defaults(**config)
    for action in subparser._actions:
        if action.dest in config:
            action.required = False


def main(argv=None) -> int:
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except ShapeApproxError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
