"""Command-line interface: exit codes, CSV output with embedded config and
hash, and JSON polynomial round-trips."""
import argparse
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shapeapprox import functions, operators
from shapeapprox.cli import build_parser, main
from shapeapprox.functions import PolyFunction
from shapeapprox.moduli import omega_dt
from shapeapprox.polynomial import Polynomial


def _read(path):
    with open(path) as fh:
        return fh.read()


def _rows(text):
    return [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]


def _readme_commands():
    """The argument lists of the README's block of CLI commands."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("shapeapprox ")]
    assert commands, "no CLI commands found in README.md"
    return commands


def test_gen_poly(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["gen-poly", "--n", "32", "--r", "1", "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    assert payload["n"] == 32 and payload["r"] == 1
    P = Polynomial.from_json(json.dumps(payload["P"]))
    assert P.degree <= 32


def test_apply_bernstein(tmp_path):
    out = tmp_path / "apply.csv"
    code = main(["apply", "--op", "bernstein", "--n", "8", "--f", "monomial:1",
                 "--x", "0,0.5,1", "--out", str(out)])
    assert code == 0
    text = _read(out)
    assert "# sha256:" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)


def test_moduli_cli(tmp_path):
    out = tmp_path / "mod.csv"
    code = main(["moduli", "--f", "exp", "--k", "2", "--t-grid", "0.1,0.2,0.4",
                 "--out", str(out)])
    assert code == 0
    assert "assert nondecreasing_in_t: pass" in _read(out)
    # t past the largest admissible step 2^lambda/k = 1 keeps omega(1)
    assert main(["moduli", "--f", "exp", "--k", "2", "--lambda", "1", "--t-grid", "1,10",
                 "--out", str(out)]) == 0
    assert "assert nondecreasing_in_t: pass" in _read(out)


def test_moduli_and_mn_study_name_their_route(tmp_path):
    # the signed route for a declared sign of f^(k), the sweep otherwise
    out = tmp_path / "mod.csv"
    for argv, route in ((["moduli", "--f", "logeps:1e-8", "--lambda", "1.5"], "signed"),
                        (["moduli", "--f", "xeps:0.5", "--k", "3"], "sweep"),
                        (["mn-study", "--q", "1", "--f", "exp", "--n-list", "8"], "signed")):
        if argv[0] == "moduli":
            argv = argv + ["--t-grid", "0.00625"]
        assert main(argv + ["--out", str(out)]) == 0
        line = next(l for l in _read(out).splitlines() if l.startswith("# config: "))
        assert json.loads(line[len("# config: "):])["route"] == route, argv


def test_shape_cli_pass_and_fail(tmp_path):
    assert main(["shape", "--f", "exp", "--k", "2",
                 "--out", str(tmp_path / "s1.json")]) == 0
    # a decreasing polynomial fails the monotone check
    pfile = tmp_path / "dec.json"
    pfile.write_text(Polynomial.monomial([1, -1]).to_json())
    assert main(["shape", "--f", str(pfile), "--k", "1",
                 "--out", str(tmp_path / "s2.json")]) == 1
    # each verdict names how it was reached, under one key
    for name, certificate in (("s1.json", "sample"), ("s2.json", "counterexample")):
        payload = json.loads((tmp_path / name).read_text())
        assert payload["certificate"] == certificate
        assert not any(key.endswith("_certificate") for key in payload)


def test_jackson_cli(tmp_path):
    out = tmp_path / "j.csv"
    code = main(["jackson", "--f", "exp", "--q", "2", "--n-list", "4,6",
                 "--out", str(out)])
    assert code == 0
    assert "assert ratios_finite: pass" in _read(out)


def test_lambda2_cli(tmp_path):
    out = tmp_path / "l2.csv"
    code = main(["lambda2", "--eps-list", "1e-2,1e-4", "--n", "5",
                 "--out", str(out)])
    assert code == 0
    # with only two eps values the monotonicity assertions still apply
    text = _read(out)
    assert "error_strictly_increasing" in text
    assert "assert modulus_bounded_2x: pass" in text


def test_lambda2_cli_with_zero_error_fails_its_ratio(tmp_path):
    # ln(x + 1e300) is constant in float64, so E_5 = 0: the ratio assertion
    # fails, without dividing by that 0
    out = tmp_path / "l2.csv"
    assert main(["lambda2", "--eps-list", "1e300", "--out", str(out)]) == 1
    text = _read(out)
    assert "assert error_ratio_gt_3: FAIL" in text
    assert text.rstrip().endswith("1.0000000000000001e+300,0,0")


def test_gen_report_cli(tmp_path):
    out = tmp_path / "gr.csv"
    code = main(["gen-report", "--r", "1", "--n-list", "32,64,128",
                 "--out", str(out)])
    assert code == 0
    text = _read(out)
    assert "assert unit_integral_1e20: pass" in text
    assert "assert slope_in_range: pass" in text


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 16}))
    out = tmp_path / "g.json"
    assert main(["--config", str(cfg), "gen-poly", "--n", "32", "--r", "1",
                 "--out", str(out)]) == 0
    # explicit flag wins over the config default
    assert json.loads(_read(out))["n"] == 32


def test_config_file_reaches_subcommand_defaults(tmp_path):
    # options with their own default (--k, --lambda) take the config value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1, "lam": 1.0}))
    out = tmp_path / "mod.csv"
    assert main(["--config", str(cfg), "moduli", "--f", "exp", "--t-grid", "0.1",
                 "--out", str(out)]) == 0
    line = next(l for l in _read(out).splitlines() if l.startswith("# config: "))
    config = json.loads(line[len("# config: "):])
    assert config["k"] == 1 and config["lambda"] == 1.0


@pytest.mark.parametrize("key", ["lamda", "fn"])
def test_config_file_rejects_unknown_keys(key, tmp_path, capsys):
    # a misspelled key, or a parser-internal name, is an error, not a
    # silently kept or silently applied default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1.0}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "moduli", "--f", "exp", "--t-grid", "0.1",
              "--out", str(tmp_path / "mod.csv")])
    assert exc.value.code == 2
    assert key in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_library_error_is_one_line_and_exit_2(tmp_path, capsys):
    # RegimeError: the generator needs n > 8r
    with pytest.raises(SystemExit) as exc:
        main(["gen-poly", "--n", "9", "--r", "2", "--out", str(tmp_path / "gen.json")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "shapeapprox: error: construction requires n > 8r (n=9, r=2)\n"
    assert captured.out == ""
    assert not (tmp_path / "gen.json").exists()
    # input errors: an unknown catalog name or one missing its parameters,
    # arguments out of range or not finite, and polynomial files that cannot
    # be read, such as one with a coefficient that is not a number
    missing, nokey, notjson, notobj, nan, inf, zero, degree = (
        str(tmp_path / name)
        for name in ("missing.json", "n.json", "t.json", "l.json", "nan.json", "inf.json", "z.json",
                     "d.json"))
    (tmp_path / "n.json").write_text('{"n": 1}')
    (tmp_path / "t.json").write_text("hello")
    (tmp_path / "l.json").write_text("[1, 2]")
    (tmp_path / "nan.json").write_text('{"basis": "monomial", "n": 1, "coeffs": ["1", "nan"]}')
    (tmp_path / "inf.json").write_text('{"basis": "bernstein", "n": 1, "coeffs": ["inf", "1"]}')
    (tmp_path / "z.json").write_text('{"basis": "monomial", "n": 2, "coeffs": ["1", "2", "1/0"]}')
    (tmp_path / "d.json").write_text('{"basis": "bernstein", "n": 3, "coeffs": ["1", "2"]}')
    big = "1" + "0" * 400 + "/1"  # an a/b too large for a float
    # --config files that cannot be read, hold no JSON object, or hold a
    # value that is not of its option's kind
    configs = {"bad": "not json", "list": "[[1]]", "str": '"abc"', "k": '{"k": 2.5}',
               "true": '{"k": true}', "grid": '{"t_grid": 0.1}', "lam": '{"lam": "1"}',
               "big": '{"lam": 1%s}' % ("0" * 400), "op": '{"op": "nope"}'}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    cfg = {name: ["--config", str(tmp_path / f"{name}.cfg")] for name in configs}
    cfg["missing"] = ["--config", missing]
    for argv, message in [
        (["moduli", "--f", "nope", "--t-grid", "0.1"], "unknown catalog function 'nope'"),
        (["moduli", "--f", "truncpow:0.5", "--t-grid", "0.1"],
         "catalog function 'truncpow:0.5' is not of the form truncpow:<a>:<p>"),
        (["moduli", "--f", "xeps", "--t-grid", "0.1"],
         "catalog function 'xeps' is not of the form xeps:<eps>"),
        (["moduli", "--f", "exp", "--t-grid", "-1"], "t must be positive"),
        (["moduli", "--f", "exp", "--t-grid", "inf"], "t must be finite, not inf"),
        (["moduli", "--f", "exp", "--t-grid", "nan"], "t must be finite, not nan"),
        (["moduli", "--f", "exp", "--t-grid", "0.1", "--lambda", "3"], "lambda must lie in [0,2]"),
        (["moduli", "--f", "exp", "--k", "-1", "--t-grid", "0.1"], "k must be >= 0"),
        (["mn-study", "--q", "1", "--lambda", "3", "--f", "exp", "--n-list", "32"],
         "lambda must lie in [0,2]"),
        (["mn-study", "--q", "1", "--lambda", "-1", "--f", "exp", "--n-list", "32"],
         "lambda must lie in [0,2]"),
        (["mn-study", "--q", "1", "--lambda", "nan", "--f", "exp", "--n-list", "32"],
         "lambda must lie in [0,2]"),
        (["mn-study", "--q", "1", "--lambda", "inf", "--f", "exp", "--n-list", "32"],
         "lambda must lie in [0,2]"),
        (["mn-study", "--q", "1", "--f", "exp", "--n-list", "0"], "n must be >= 1"),
        (["mn-study", "--q", "1", "--f", "exp", "--n-list", "-3"], "n must be >= 1"),
        (["apply", "--op", "bernstein", "--n", "0", "--f", "exp"], "n must be >= 1"),
        (["apply", "--op", "mn", "--q", "-1", "--n", "20", "--f", "exp"], "need q >= 0, n >= 1"),
        # an image is evaluated on [0,1] only
        (["apply", "--op", "mn", "--n", "20", "--f", "exp", "--x", "2"],
         "Bernstein form evaluated at x=2.0 outside [0,1]"),
        (["apply", "--op", "mn", "--n", "20", "--f", "exp", "--x", "nan"],
         "Bernstein form evaluated at x=nan outside [0,1]"),
        (["apply", "--op", "lupas", "--alpha", "-2", "--n", "5", "--f", "exp"],
         "alpha must be > -1"),
        (["apply", "--op", "lupas", "--alpha", "nan", "--n", "5", "--f", "exp"],
         "alpha must be finite, not nan"),
        (["apply", "--op", "lupas", "--alpha", "inf", "--n", "5", "--f", "exp"],
         "alpha must be finite, not inf"),
        # an alpha whose Gauss-Jacobi rule overflows float64
        (["apply", "--op", "lupas", "--alpha", "1e300", "--n", "3", "--f", "exp"],
         "no Gauss-Jacobi rule of order 64 in float64 at alpha = 1e+300"),
        (["shape", "--f", "logeps:nan", "--k", "1"], "catalog parameter 'nan' is not finite"),
        (["shape", "--f", "logeps:inf", "--k", "1"], "catalog parameter 'inf' is not finite"),
        (["jackson", "--f", "logeps:nan", "--q", "0", "--n-list", "5"],
         "catalog parameter 'nan' is not finite"),
        (["shape", "--f", "xeps:inf", "--k", "1"], "catalog parameter 'inf' is not finite"),
        (["shape", "--f", "truncpow:inf:2", "--k", "1"], "catalog parameter 'inf' is not finite"),
        (["shape", "--f", "xeps:1e400", "--k", "1"], "catalog parameter '1e400' is not finite"),
        (["shape", "--f", f"xeps:{big}", "--k", "1"], f"catalog parameter '{big}' is not finite"),
        (["shape", "--f", f"xeps:-{big}", "--k", "1"], f"catalog parameter '-{big}' is not finite"),
        (["shape", "--f", f"logeps:{big}", "--k", "1"], f"catalog parameter '{big}' is not finite"),
        (["shape", "--f", "xeps:1/0", "--k", "1"], "catalog parameter '1/0' divides by zero"),
        (["shape", "--f", "linear:1:2/0", "--k", "1"], "catalog parameter '2/0' divides by zero"),
        # parameters that spell no number name the function and the parameter
        (["shape", "--f", "xeps:abc", "--k", "1"],
         "catalog function 'xeps:abc': eps = 'abc' is not a number"),
        (["shape", "--f", "truncpow:0.5:x", "--k", "1"],
         "catalog function 'truncpow:0.5:x': p = 'x' is not an integer"),
        (["shape", "--f", "monomial:x", "--k", "1"],
         "catalog function 'monomial:x': k = 'x' is not an integer"),
        (["gen-poly", "--n", "20", "--r", "0"], "r must be >= 1"),
        (["jackson", "--f", "exp", "--q", "-1", "--n-list", "8"], "need q >= 0 and n >= 0"),
        (["jackson", "--f", "exp", "--q", "1", "--n-list", "0"], "jackson needs every n >= 1"),
        (["shape", "--f", "exp", "--k", "-1"], "k must be >= 0"),
        (["bern-xeps", "--eps", "2", "--n-list", "8"], "eps must be in (0,1)"),
        (["bern-xeps", "--eps", "0", "--n-list", "8"], "eps must be in (0,1)"),
        (["bern-xeps", "--eps", "1", "--n-list", "8"], "eps must be in (0,1)"),
        (["bern-xeps", "--eps", "nan", "--n-list", "8"],
         "--eps: catalog parameter 'nan' is not finite"),
        (["bern-xeps", "--eps", "abc", "--n-list", "64"], "--eps: 'abc' is not a number"),
        (["bern-xeps", "--eps", "0.5", "--n-list", "0"], "n must be >= 2"),
        (["bern-xeps", "--eps", "0.5", "--n-list", "1"], "n must be >= 2"),
        (["lambda2", "--eps-list", "1e-2,1e-1"], "eps_list must be strictly decreasing"),
        (["shape", "--f", "monomial:-2", "--k", "1"], "monomial degree must be >= 0, not -2"),
        (["shape", "--f", missing, "--k", "1"],
         f"cannot read a polynomial from {missing}: No such file or directory"),
        (["shape", "--f", nokey, "--k", "1"], f"cannot read a polynomial from {nokey}: no key 'coeffs'"),
        (["shape", "--f", notjson, "--k", "1"],
         f"cannot read a polynomial from {notjson}: Expecting value: line 1 column 1 (char 0)"),
        (["shape", "--f", notobj, "--k", "1"],
         f"cannot read a polynomial from {notobj}: 'list' object has no attribute 'get'"),
        (["shape", "--f", nan, "--k", "1"],
         f"cannot read a polynomial from {nan}: coefficient 1 = 'nan' is not a finite number"),
        (["moduli", "--f", nan, "--t-grid", "0.1"],
         f"cannot read a polynomial from {nan}: coefficient 1 = 'nan' is not a finite number"),
        (["apply", "--op", "mn", "--n", "20", "--f", inf],
         f"cannot read a polynomial from {inf}: coefficient 0 = 'inf' is not a finite number"),
        (["shape", "--f", zero, "--k", "1"],
         f"cannot read a polynomial from {zero}: coefficient 2 = '1/0' is not a finite number"),
        (["apply", "--op", "bernstein", "--n", "2", "--f", degree, "--x", "0.5"],
         f"cannot read a polynomial from {degree}: n = 3 is not 1, the degree of the coefficients"),
        # list options: an eps that ln(x + eps) does not admit, lists with
        # no value
        (["lambda2", "--eps-list", "-1"], "eps must be positive"),
        (["lambda2", "--eps-list", "nan"], "eps must be finite and positive"),
        (["lambda2", "--eps-list", "inf"], "eps must be finite and positive"),
        (["lambda2", "--eps-list", "1e400"], "eps must be finite and positive"),
        # a catalog eps whose float, where ln(x + eps) is sampled, is 0
        (["jackson", "--f", "logeps:1e-400", "--q", "0", "--n-list", "5"],
         "eps must have a finite positive float (ln(x + eps) is sampled at float(eps)), not 0"),
        (["moduli", "--f", "logeps:1e-400", "--t-grid", "0.1"],
         "eps must have a finite positive float (ln(x + eps) is sampled at float(eps)), not 0"),
        (["lambda2", "--eps-list", ","], "--eps-list names no value"),
        (["gen-report", "--r", "1", "--n-list", ","], "--n-list names no value"),
        (["bern-xeps", "--eps", "0.5", "--n-list", ","], "--n-list names no value"),
        (["mn-study", "--q", "1", "--f", "exp", "--n-list", ","], "--n-list names no value"),
        (["jackson", "--f", "exp", "--q", "1", "--n-list", ","], "--n-list names no value"),
        (["moduli", "--f", "exp", "--t-grid", ","], "--t-grid names no value"),
        (["apply", "--op", "bernstein", "--n", "4", "--f", "exp", "--x", ","], "--x names no value"),
        # and list entries that are no number of the option's kind
        (["moduli", "--f", "exp", "--t-grid", "abc"], "--t-grid: 'abc' is not a number"),
        (["jackson", "--f", "exp", "--q", "1", "--n-list", "1.5"],
         "--n-list: '1.5' is not an integer"),
        (["apply", "--op", "mn", "--n", "20", "--f", "exp", "--x", "abc"],
         "--x: 'abc' is not a number"),
        (["gen-report", "--r", "1", "--n-list", "x"], "--n-list: 'x' is not an integer"),
        (cfg["missing"] + ["moduli", "--f", "exp", "--t-grid", "0.1"],
         f"cannot read --config {missing}: No such file or directory"),
        (cfg["bad"] + ["moduli", "--f", "exp", "--t-grid", "0.1"],
         f"cannot read --config {cfg['bad'][1]}: Expecting value: line 1 column 1 (char 0)"),
        (cfg["list"] + ["moduli", "--f", "exp", "--t-grid", "0.1"],
         f"--config {cfg['list'][1]} holds no JSON object"),
        (cfg["str"] + ["moduli", "--f", "exp", "--t-grid", "0.1"],
         f"--config {cfg['str'][1]} holds no JSON object"),
        (cfg["k"] + ["moduli", "--f", "exp", "--t-grid", "0.1"], "config key k: 2.5 is not an integer"),
        (cfg["true"] + ["moduli", "--f", "exp", "--t-grid", "0.1"],
         "config key k: true is not an integer"),
        (cfg["grid"] + ["moduli", "--f", "exp", "--t-grid", "0.1"],
         "config key t_grid: 0.1 is not a string"),
        (cfg["lam"] + ["moduli", "--f", "exp", "--t-grid", "0.1"], 'config key lam: "1" is not a float'),
        (cfg["big"] + ["moduli", "--f", "exp", "--t-grid", "0.1"],
         "config key lam: 1%s is not a float" % ("0" * 400)),
        (cfg["op"] + ["apply", "--op", "mn", "--n", "3", "--f", "exp"],
         'config key op: "nope" is not one of bernstein, genuine-durrmeyer, durrmeyer, lupas, mn'),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"shapeapprox: error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", ["xeps:1e-13", "xeps:0.9999999999999", "truncpow:1e-10:2"])
def test_catalog_decimals_near_the_ends_are_read_exactly(spec, tmp_path):
    # each decimal lies in (0,1); snapped through a float's nearest fraction
    # with a bounded denominator it read as 0 or 1 and exited 2
    out = tmp_path / "shape.json"
    assert main(["shape", "--f", spec, "--k", "1", "--out", str(out)]) == 0
    assert json.loads(_read(out))["passed"]


@pytest.mark.parametrize("eps", ["1e-13", "0.9999999999999"])
def test_bern_xeps_reads_eps_exactly(eps, tmp_path, capsys):
    # snapped through a float's nearest fraction with a bounded denominator,
    # eps read as 0 or 1 and ended in a ValueError traceback
    out = tmp_path / "xeps.csv"
    assert main(["bern-xeps", "--eps", eps, "--n-list", "64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    line = next(l for l in _read(out).splitlines() if l.startswith("# config: "))
    assert json.loads(line[len("# config: "):])["eps"] == float(eps)


def test_readme_cli_catalog_inputs_take_no_callable_read(monkeypatch, tmp_path):
    # every catalog function has moments, so the README's commands, the CI
    # commands that read f and the logeps images never reach the default
    # read of a plain callable
    def no_callable_read(handle, d, bits):
        raise AssertionError(f"callable read at degree {d}")

    monkeypatch.setattr(functions.FunctionHandle, "moment_read", no_callable_read)
    commands = _readme_commands() + [
        ["apply", "--op", "genuine-durrmeyer", "--n", "40", "--f", "logeps:1e-4"],
        ["apply", "--op", "mn", "--q", "1", "--n", "200", "--f", "xeps:0.5"],
        ["apply", "--op", "genuine-durrmeyer", "--n", "300", "--f", "xeps:0.5"],
        ["mn-study", "--q", "1", "--f", "xeps:0.5", "--n-list", "128,400", "--out", "mn400.csv"],
        ["apply", "--op", "durrmeyer", "--n", "40", "--f", "logeps:1e-4"],
        ["mn-study", "--q", "1", "--f", "logeps:1e-4", "--n-list", "64,124"],
        ["mn-study", "--q", "2", "--f", "truncpow:0.5:3", "--n-list", "40"],
        ["apply", "--op", "mn", "--q", "1", "--n", "200", "--f", "logeps:1e-4", "--out", "mnlog.csv"],
        ["apply", "--op", "durrmeyer", "--n", "40", "--f", "exp", "--out", "dexp.csv"],
    ]
    for argv in commands:
        argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
        assert main(argv) == 0, argv
    with pytest.raises(AssertionError, match="callable read"):
        operators.genuine_durrmeyer_image(40, lambda x: x)


def test_mn_study_logeps_large_n(tmp_path):
    # n = 124: the generator's weights reach 2^39 against logeps's
    # fixed-point moments
    out = tmp_path / "study.csv"
    assert main(["mn-study", "--q", "1", "--f", "logeps:1e-4", "--n-list", "64,124",
                 "--out", str(out)]) == 0
    rows = _rows(_read(out))
    assert [int(r[0]) for r in rows] == [64, 124]
    assert all(float(r[2]) < 10 for r in rows)


def test_mn_study_xeps_past_n_400(tmp_path):
    # n = 400: the image's monomial coefficients reach 1e99 while its
    # Bernstein ones stay near 1e13, so it is stored in Bernstein form
    out = tmp_path / "study.csv"
    assert main(["mn-study", "--q", "1", "--f", "xeps:0.5", "--n-list", "128,400",
                 "--out", str(out)]) == 0
    text = _read(out)
    assert "# assert ratio_stable: pass" in text
    assert [int(r[0]) for r in _rows(text)] == [128, 400]
    assert all(float(r[2]) < 0.05 for r in _rows(text))


def _readme_ids(commands):
    """Each command's subcommand; a repeated one adds its --out file name."""
    ids, seen = [], set()
    for argv in commands:
        repeated = argv[0] in seen
        seen.add(argv[0])
        ids.append(f"{argv[0]}-{argv[argv.index('--out') + 1]}" if repeated else argv[0])
    return ids


@pytest.mark.parametrize("argv", _readme_commands(), ids=_readme_ids(_readme_commands()))
def test_readme_cli_command(argv, tmp_path):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0


def test_readme_cli_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    # every subcommand runs at least once; moduli runs twice (lambda = 0 and 1)
    assert sorted({argv[0] for argv in _readme_commands()}) == sorted(sub.choices)


def test_apply_reads_gen_poly_output(tmp_path):
    gen = tmp_path / "gen.json"
    assert main(["gen-poly", "--n", "64", "--r", "2", "--out", str(gen)]) == 0
    poly = tmp_path / "P.json"
    poly.write_text(json.dumps(json.loads(_read(gen))["P"]))
    outs = []
    for name, source in [("from_gen", gen), ("from_P", poly)]:
        out = tmp_path / f"{name}.csv"
        assert main(["apply", "--op", "bernstein", "--n", "70", "--f", str(source),
                     "--out", str(out)]) == 0
        outs.append(_rows(_read(out)))
    assert outs[0] == outs[1] and len(outs[0]) == 17


def test_moduli_reads_gen_poly_output_as_a_poly_function(tmp_path):
    gen = tmp_path / "gen.json"
    assert main(["gen-poly", "--n", "64", "--r", "2", "--out", str(gen)]) == 0
    out = tmp_path / "moduli.csv"
    assert main(["moduli", "--f", str(gen), "--t-grid", "0.1,0.3", "--out", str(out)]) == 0
    P = Polynomial.from_json(json.dumps(json.loads(_read(gen))["P"]))
    want = [omega_dt(PolyFunction(P), 2, 0.0, t) for t in (0.1, 0.3)]
    assert [[float(v) for v in row] for row in _rows(_read(out))] == [
        [t, e.value, e.argmax_h, e.argmax_x] for t, e in zip((0.1, 0.3), want)]


def test_moduli_of_the_n512_generator_stays_within_its_range(tmp_path):
    # omega_2(P, t) <= 4 max|P|; sampled through P's float64 Bernstein
    # coefficients, which reach 3.8e24 at n = 512, it read 9.4e8
    gen = tmp_path / "gen512.json"
    assert main(["gen-poly", "--n", "512", "--r", "1", "--out", str(gen)]) == 0
    out = tmp_path / "moduli.csv"
    assert main(["moduli", "--f", str(gen), "--t-grid", "0.1", "--out", str(out)]) == 0
    P = Polynomial.from_json(json.dumps(json.loads(_read(gen))["P"]))
    top = max(abs(P(Fraction(j, 256))) for j in range(257))
    (row,) = _rows(_read(out))
    assert 0 < float(row[1]) <= 4 * top


def test_shape_reads_gen_poly_output(tmp_path):
    # the P of a gen-poly file has P^(r) >= 0, so the r-monotone check passes
    gen = tmp_path / "gen.json"
    assert main(["gen-poly", "--n", "64", "--r", "2", "--out", str(gen)]) == 0
    out = tmp_path / "shape.json"
    assert main(["shape", "--f", str(gen), "--k", "2", "--out", str(out)]) == 0
    assert json.loads(_read(out))["passed"]


def test_import_loads_no_scipy():
    # with scipy blocked (any import of it raises), the CLI imports, and a
    # binding constrained solve and a Gauss-Jacobi read run
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.modules['scipy'] = None; "
            "import numpy as np; import shapeapprox.cli; "
            "from shapeapprox import best_qmonotone, catalog, durrmeyer_lupas_image; "
            "res = best_qmonotone(catalog('truncpow:0.5:3'), 3, 12, N=129, M=129); "
            "assert res.constraint_size > 0 and res.constraint_validated; "
            "durrmeyer_lupas_image(12, 0.5, np.sqrt)")
    subprocess.run([sys.executable, "-c", code, src], check=True)
