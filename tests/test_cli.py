"""Command-line interface: JSON shape, determinism, round trips, errors."""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import pytest

import germres
from germres import Jet, cli, jet_from_json, jet_to_json, normal_form
from germres.cli import MAX_JET_ORDER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_process(argv):
    """``python -m germres.cli *argv`` in a fresh interpreter, 10 s at most."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(germres.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "germres.cli", *argv], capture_output=True, text=True, env=env, timeout=10
    )


def test_residue_command(capsys):
    code, out = run_cli(capsys, "residue", "--jet", '{"order":3,"coeffs":["1","-1","0"]}')
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["report"]["resit"] == "1"
    assert doc["result"]["report"]["expanding"] is False
    assert "paper_refs" in doc


def test_residue_from_catalog(capsys):
    code, out = run_cli(capsys, "residue", "--catalog", "moebius", "--order", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["report"]["resit"] == "0"
    assert doc["result"]["report"]["res"] == "1"


def test_normal_form_trace(capsys):
    code, out = run_cli(
        capsys, "normal-form", "--jet", '{"order":5,"coeffs":["1","0","1","1","1"]}'
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["report"]["resit"] == "3/2"
    steps = doc["result"]["trace"]["steps"]
    assert steps == [[2, "1"]]
    reduced = doc["result"]["trace"]["reduced"]
    assert reduced["coeffs"][3] == "0"  # x^4 killed


def test_flow_and_power_agree(capsys):
    jet = '{"order":3,"coeffs":["1","1","0"]}'
    _, out_flow = run_cli(capsys, "flow", "--jet", jet, "--time", "3")
    _, out_pow = run_cli(capsys, "power", "--jet", jet, "--n", "3")
    flow_jet = json.loads(out_flow)["result"]["jet"]
    pow_jet = json.loads(out_pow)["result"]["jet"]
    assert flow_jet == pow_jet


def test_field_and_exp_round_trip(capsys):
    jet = '{"order":3,"coeffs":["1","-1","0"]}'
    _, out = run_cli(capsys, "field", "--jet", jet)
    field_doc = json.loads(out)["result"]["field"]
    assert field_doc["coeffs"] == ["-1", "-1"]
    _, out2 = run_cli(capsys, "exp", "--field", json.dumps(field_doc), "--time", "1")
    assert json.loads(out2)["result"]["jet"]["coeffs"] == ["1", "-1", "0"]


def test_szekeres_command(capsys):
    code, out = run_cli(
        capsys, "szekeres", "--catalog", "moebius", "--x0", "0.3", "--n", "100000", "--tol", "0"
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["result"]["value"] + 0.09) < 1e-6


def test_estimate_resit_command(capsys):
    code, out = run_cli(
        capsys, "estimate-resit", "--catalog", "moebius", "--x0", "0.5", "--n", "1000000"
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["result"]["extrapolated"]) <= 0.2
    ns = [n for n, _v in doc["result"]["samples"]]
    assert ns == [1000, 10000, 100000, 1000000]


# stdout of the two commands at the commit before the orbit loop inlined
# generated increments; the loop must keep every bit
ORBIT_GOLDEN = [
    (
        ["estimate-resit", "--catalog", "quadratic", "--x0", "0.35", "--n", "1000000"],
        '{"inputs": {"catalog": "quadratic", "n": 1000000, "x0": 0.35}, "paper_refs": ["orbit-deviation-estimator"], "result": {"converged": true, "extrapolated": 1.0006396424073727, "samples": [[1000, 1.2867521875845245], [10000, 1.2215444836002456], [100000, 1.178094394415952], [1000000, 1.1485186024145222]]}}\n',
    ),
    (
        ["estimate-resit", "--expr", "x - x^2 + 1/2*x^3", "--x0", "0.25", "--n", "100000"],
        '{"inputs": {"expr": "x - x^2 + 1/2*x^3", "n": 100000, "x0": 0.25}, "paper_refs": ["orbit-deviation-estimator"], "result": {"converged": false, "extrapolated": 0.5022034821651657, "samples": [[1000, 0.9715206862341693], [10000, 0.8575629401804612], [100000, 0.7864910485774022]]}}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", ORBIT_GOLDEN)
def test_estimate_resit_output_is_unchanged_bit_for_bit(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected)


@pytest.mark.parametrize(
    "text", ["x - x^2 + 3/4*x^3", "x/(1+x) - x^3", "x - x^2 + x^3*log(x)"]  # polynomial, rational, log
)
def test_expr_increment_is_the_value_minus_x_bit_for_bit(text):
    germ = cli._load_germ_spec(argparse.Namespace(expr=text, catalog=None, ell=None, a=None))
    assert germ.increment.__name__ == "increment" and hasattr(germ.increment, "_germres_body")
    for k in range(1, 1001):
        x = germ.x_max * k / 1000
        assert repr(germ.increment(x)) == repr(germ.func(x) - x), (text, x)


def test_estimate_resit_csv(capsys):
    code, out = run_cli(
        capsys,
        "estimate-resit", "--catalog", "moebius", "--x0", "0.5", "--n", "10000",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,estimate"
    assert len(lines) == 3  # schedule 1000, 10000


def test_contour_command(capsys):
    code, out = run_cli(capsys, "contour", "--poly", "1,1,0.7", "--radius", "0.3")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["result"]["value"]["re"] - 0.7) < 1e-8
    assert abs(doc["result"]["value"]["im"]) < 1e-12


def test_conjugate_command(capsys):
    code, out = run_cli(
        capsys,
        "conjugate", "--X", "neg_x2", "--Y", "neg_2x2", "--x0", "0.3",
        "--grid", "0.1,0.2,0.3",
    )
    doc = json.loads(out)
    assert code == 0
    x, h, dh = doc["result"]["samples"][1]
    assert abs(h - 0.2 * 0.3 / (2 * 0.3 - 0.2)) < 1e-9


def test_diagnose_command(capsys):
    code, out = run_cli(
        capsys,
        "diagnose", "--X", "poly:-1,-1", "--Y", "poly:-1", "--grid", "1e-2,1e-3,1e-4,1e-5",
    )
    doc = json.loads(out)
    assert code == 0
    assert 0.7 <= doc["result"]["slope"] <= 1.3


JET3 = '{"order":3,"coeffs":["1","-1","0"]}'
FIELD3 = '{"kind":"field","order":3,"coeffs":["-1","-1"]}'

# (argv, inputs echoed, paper_refs): the echo holds every option given, as
# parsed, plus the verb's defaults; the paper_refs are frozen as first written
VERB_ECHOES = [
    (
        ["residue", "--catalog", "moebius", "--order", "5"],
        {"catalog": "moebius", "order": 5},
        ["additive-residue", "iterative-residue"],
    ),
    (
        ["normal-form", "--jet", JET3],
        {"jet": JET3},
        ["germ-normal-form-reduction"],
    ),
    (
        ["flow", "--catalog", "moebius", "--order", "5", "--time", "1"],
        {"catalog": "moebius", "order": 5, "time": "1"},
        ["truncated-group-flow"],
    ),
    (
        ["power", "--expr", "x - x^2", "--order", "4", "--n", "3"],
        {"expr": "x - x^2", "order": 4, "n": 3},
        ["composition-group"],
    ),
    (
        ["field", "--expr", "x - x^2", "--order", "6"],
        {"expr": "x - x^2", "order": 6},
        ["germ-field-correspondence"],
    ),
    (
        ["exp", "--field", FIELD3, "--time", "1/2"],
        {"field": FIELD3, "time": "1/2"},
        ["field-time-t-map"],
    ),
    (
        ["szekeres", "--catalog", "moebius", "--x0", "0.1"],
        {"catalog": "moebius", "x0": 0.1, "n": 100_000, "tol": 1e-12},
        ["szekeres-iterative-field"],
    ),
    (
        ["estimate-resit", "--catalog", "quadratic", "--x0", "0.5", "--schedule", "1000,10000", "--ell", "1", "--a", "1"],
        {"catalog": "quadratic", "x0": 0.5, "n": 1_000_000, "schedule": "1000,10000", "ell": 1, "a": 1.0},
        ["orbit-deviation-estimator"],
    ),
    (
        ["conjugate", "--X", "neg_x2_x3", "--Y", "neg_x2", "--x0", "0.1", "--grid", "0.01,0.001"],
        {"X": "neg_x2_x3", "Y": "neg_x2", "x0": 0.1, "grid": "0.01,0.001"},
        ["time-map-conjugacy"],
    ),
    (
        ["contour", "--poly", "1,1,0.7", "--radius", "0.3"],
        {"poly": "1,1,0.7", "radius": 0.3, "points": 256},
        ["fixed-point-contour-residue"],
    ),
    (
        ["diagnose", "--X", "poly:-1,-1", "--Y", "poly:-1", "--grid", "1e-2,1e-3,1e-4", "--x0", "0.1"],
        {"X": "poly:-1,-1", "Y": "poly:-1", "grid": "1e-2,1e-3,1e-4", "x0": 0.1},
        ["conjugacy-divergence-diagnostic"],
    ),
]


def test_verb_echoes_cover_every_verb():
    subparsers = cli.build_parser()._subparsers._group_actions[0]
    assert [argv[0] for argv, _inputs, _refs in VERB_ECHOES] == list(subparsers.choices)


@pytest.mark.parametrize("argv, inputs, paper_refs", VERB_ECHOES, ids=[case[0][0] for case in VERB_ECHOES])
def test_inputs_echo_every_option_as_parsed(capsys, argv, inputs, paper_refs):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, out
    doc = json.loads(out)
    assert set(doc) == {"inputs", "result", "paper_refs"}
    assert doc["inputs"] == inputs
    assert [type(v) for v in doc["inputs"].values()] == [type(inputs[k]) for k in doc["inputs"]]
    assert doc["paper_refs"] == paper_refs


def test_jet_round_trip_through_serialization():
    jet = Jet.of(1, "-1/2", "3/4")
    assert jet_from_json(jet_to_json(jet)) == jet


def test_determinism(capsys):
    argv = ["residue", "--expr", "x - x^2", "--order", "6"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    _, third = run_cli(capsys, "diagnose", "--X", "neg_x2", "--Y", "neg_x2",
                       "--grid", "1e-2,1e-3,1e-4")
    _, fourth = run_cli(capsys, "diagnose", "--X", "neg_x2", "--Y", "neg_x2",
                        "--grid", "1e-2,1e-3,1e-4")
    assert third == fourth


def test_error_is_structured(capsys):
    code, out = run_cli(capsys, "residue", "--jet", '{"order":2,"coeffs":["1","1","1"]}')
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "OrderError"

    code, out = run_cli(capsys, "residue", "--expr", "x + log(x)")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "NotASeries"

    code, out = run_cli(capsys, "szekeres", "--catalog", "nope", "--x0", "0.3")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "KeyError"


def strict_json(out):
    """Parse a strict-JSON document (no NaN/Infinity)."""

    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(out, parse_constant=refuse)


def strict_error_code(out):
    """The error code of a strict-JSON error document."""
    doc = strict_json(out)
    assert set(doc) == {"error"}
    return doc["error"]["code"]


def test_contour_non_finite_is_an_error(capsys):
    code, out = run_cli(capsys, "contour", "--poly", "1,1", "--radius", "1e308")
    assert code == 1
    assert strict_error_code(out) == "ContourError"


def test_contour_errors_print_nothing_to_stderr():
    # overflow on the circle is a ContourError, not a warning or a traceback;
    # at radius 1.4e154, |z - f(z)| passes the float range while both of its
    # parts are finite, so abs() raises OverflowError
    cases = [("1,1,0.7", "nan", "DomainError"), ("1,1,0.7", "inf", "DomainError"), ("1,1,0.7", "1e308", "ContourError")]
    cases.append(("1,1", "1.4e154", "ContourError"))
    for poly, radius, expected in cases:
        proc = run_cli_process(["contour", "--poly", poly, "--radius", radius])
        assert proc.returncode == 1, radius
        assert strict_error_code(proc.stdout) == expected, radius
        assert proc.stderr == "", radius


def test_integer_carrier_residue_names_the_residue_report(capsys):
    jet = '{"order":3,"coeffs":["1","1","0"],"carrier":"integer"}'
    for verb in ("residue", "normal-form"):
        code, out = run_cli(capsys, verb, "--jet", jet)
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "CarrierMismatch",
            "message": "residue_report needs the rational carrier",
        }


def test_extended_orbit_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-resit", "--catalog", "quadratic", "--x0", "0.3", "--n", "1000", "--extended"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_jet_json_gives_strict_error(capsys):
    cases = [
        (("exp", "--field", "[1]", "--time", "1"), "CoefficientError"),
        (("exp", "--field", '{"order":"x","coeffs":[]}', "--time", "1"), "OrderError"),
        (("exp", "--field", '{"coeffs":["1"]}', "--time", "1"), "CoefficientError"),
        (("residue", "--jet", '{"order":2,"coeffs":5}'), "CoefficientError"),
        (("residue", "--jet", '{"order":2,"coeffs":["1","1/2"],"carrier":"integer"}'), "CoefficientError"),
        # text that is not JSON is a malformed document, not json's JSONDecodeError
        (("residue", "--jet", "abc"), "CoefficientError"),
        (("exp", "--field", "abc", "--time", "1"), "CoefficientError"),
        (("contour", "--jet", "abc", "--radius", "0.1"), "CoefficientError"),
        (("residue", "--expr", "{abc"), "CoefficientError"),  # a formula starting with "{" is a jet document
        (("residue", "--jet", "[" * 100_000), "CoefficientError"),
    ]
    for argv, expected in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 1, argv[:2]
        assert strict_error_code(out) == expected, argv[:2]


def test_out_of_range_sizes_are_refused(capsys):
    cases = [
        (("residue", "--expr", "x-x^2", "--order", "-3"), "OrderError"),
        (("residue", "--expr", "x-x^2", "--order", "0"), "OrderError"),
        (("residue", "--catalog", "moebius", "--order", "0"), "OrderError"),
        # refused before any array is built
        (("contour", "--poly", "1,1", "--radius", "0.1", "--points", "100000000000"), "DomainError"),
    ]
    for argv, expected in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert strict_error_code(out) == expected


def test_non_finite_numbers_are_never_printed(capsys):
    cases = [
        (("szekeres", "--catalog", "quadratic", "--x0", "0.1", "--tol", "nan", "--n", "10"), "DomainError"),
        (("szekeres", "--catalog", "quadratic", "--x0", "0.1", "--tol", "inf", "--n", "10"), "DomainError"),
        (("contour", "--poly", "1,1", "--radius", "nan"), "DomainError"),
        (("contour", "--poly", "1,1", "--radius", "inf"), "DomainError"),
        (("estimate-resit", "--catalog", "quadratic", "--x0", "0.1", "--a", "nan", "--schedule", "10,100"), "DomainError"),
        (("estimate-resit", "--catalog", "quadratic", "--x0", "0.1", "--a", "inf", "--schedule", "10,100"), "DomainError"),
        (("estimate-resit", "--catalog", "quadratic", "--x0", "0.1", "--ell", "0", "--schedule", "10,100"), "DomainError"),
    ]
    for argv, expected in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert strict_error_code(out) == expected


def test_deep_nesting_is_a_parse_error(capsys):
    for text in ("(" * 2000 + "x" + ")" * 2000, "-" * 2000 + "x"):
        code, out = run_cli(capsys, "residue", f"--expr={text}", "--order", "3")
        assert code == 1
        assert strict_error_code(out) == "ParseError"


def test_conjugate_self_near_zero_is_identity(capsys):
    # tau ~ 1/x^2 ~ 1e7 at x = 3e-4, so rounding alone exceeds an absolute
    # 1e-10 bound on the time-map residual
    code, out = run_cli(
        capsys, "conjugate", "--X", "poly:0,-1/2", "--Y", "poly:0,-1/2", "--x0", "0.1", "--grid", "3e-4"
    )
    assert code == 0
    ((x, h, dh),) = json.loads(out)["result"]["samples"]
    assert x == 3e-4
    assert math.isclose(h, x, rel_tol=1e-12)
    assert math.isclose(dh, 1.0, rel_tol=1e-9)


def test_long_flat_sum_gives_strict_json(capsys):
    for text in ("+".join(["x"] * 3000), "x" + "*(1-x)" * 3000):
        code, out = run_cli(capsys, "residue", "--expr", text, "--order", "3")
        assert code in (0, 1)
        assert set(strict_json(out)) & {"result", "error"}


def test_power_large_exponent_finishes():
    # square-and-multiply needs ~27 squarings; f^n is the closed-form flow
    # x - n x^2 + (n^2 - n) x^3 of x - x^2 at t = n
    n = 10**8
    argv = ["power", "--expr", "x - x^2", "--order", "3", "--n", str(n)]
    proc = run_cli_process(argv)
    assert proc.returncode == 0
    jet = json.loads(proc.stdout)["result"]["jet"]
    assert jet["coeffs"] == ["1", str(-n), str(n * n - n)]


def test_huge_constant_power_is_refused_quickly():
    # 3^100000000 has ~48 million digits; squaring it exactly would run for
    # minutes, and no integer past the int-to-str limit can be printed
    argv = ["residue", "--expr", "x + 3^100000000*x^2", "--order", "3"]
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert strict_error_code(proc.stdout) == "CoefficientError"


NINES = "9" * 4200  # a legal literal whose square cannot be printed


@pytest.mark.parametrize(
    "argv",
    [
        ["exp", "--field", json.dumps({"kind": "field", "order": 49, "coeffs": ["-1"] + ["0"] * 47}), "--time", NINES],
        ["flow", "--expr", "x - x^2", "--order", "3", "--time", NINES],
        ["field", "--jet", json.dumps({"order": 3, "coeffs": ["1", NINES, "0"]})],
        ["residue", "--jet", json.dumps({"order": 3, "coeffs": ["1", NINES, "1"]})],  # resit holds a_2^2
    ],
    ids=["exp", "flow", "field", "residue"],
)
def test_an_unprintable_exact_result_is_a_coefficient_error(capsys, argv):
    # the exact answer exists but passes the int-to-str digit limit; the verbs
    # refuse it as power does, not with the interpreter's own ValueError
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert strict_error_code(out) == "CoefficientError"
    assert json.loads(out)["error"]["message"].endswith("digits, the most an integer may print")


def test_conjugate_across_a_zero_of_the_field_is_refused(capsys):
    # -4/7 x^2 + 9 x^3 vanishes at 4/63 < x0
    argv = ("conjugate", "--X", "poly:0,-4/7,9", "--Y", "poly:0,-1", "--x0", "0.15", "--grid", "0.003")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert strict_error_code(out) == "DomainError"
    # below the zero the same field conjugates
    code, out = run_cli(capsys, *argv[:6], "0.05", "--grid", "0.003")
    assert code == 0
    assert strict_json(out)["result"]["samples"][0][0] == 0.003


def test_oversized_poly_fields_are_refused_quickly():
    # the Sturm search for a field's first zero grows steeply with degree and
    # coefficient size; 64 terms of 30-digit rationals ran for minutes
    many = "poly:-1," + ",".join(["1/3"] * 63)
    digits = [f"{(-1) ** (k + 1) * (10**29 + 7 * k + 3)}/{10**29 + 11 * k + 1}" for k in range(64)]
    for X in (many, "poly:" + ",".join(digits[:16]), "poly:" + ",".join(digits)):
        argv = ["conjugate", "--X", X, "--Y", "poly:-1", "--x0", "0.1", "--grid", "0.05"]
        proc = run_cli_process(argv)
        assert proc.returncode == 1
        assert strict_error_code(proc.stdout) == "DomainError"


def test_csv_unavailable_elsewhere(capsys):
    code, out = run_cli(
        capsys, "residue", "--expr", "x - x^2", "--format", "csv"
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "ValueError"


def test_residue_runs_no_kill_step(capsys, monkeypatch):
    # the residue verb reads res from the fixed-point index, so it must not
    # need the conjugations of the normal-form staircase (ell = 2 here)
    jet = '{"order":7,"coeffs":["1","0","-2","1","3","-1/2","5"]}'
    code, before = run_cli(capsys, "residue", "--jet", jet)
    _, nf = run_cli(capsys, "normal-form", "--jet", jet)

    def no_kill_step(h, f):
        raise AssertionError("kill step")

    monkeypatch.setattr(normal_form, "conjugate", no_kill_step)
    with pytest.raises(AssertionError):
        main(["normal-form", "--jet", jet])
    capsys.readouterr()
    code_after, after = run_cli(capsys, "residue", "--jet", jet)
    assert code == code_after == 0
    assert after == before
    assert json.loads(after)["result"]["report"] == json.loads(nf)["result"]["report"]
    assert json.loads(after)["result"]["report"]["ell"] == 2


def assert_quick_strict_error(argv, expected):
    start = time.perf_counter()
    proc = run_cli_process(argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, argv
    assert strict_error_code(proc.stdout) == expected, argv
    assert elapsed < 2.0, (argv, elapsed)


def test_huge_rational_literals_are_refused_quickly():
    # Fraction("1e10000000") builds its power of ten before any size check;
    # each literal below is refused before its integer is built
    cases = [
        ["conjugate", "--X", "poly:-1,1e10000000", "--Y", "poly:-1", "--x0", "0.1", "--grid", "0.05"],
        ["residue", "--jet", '{"order":3,"coeffs":["1","1e1000000","0"]}'],
        ["flow", "--expr", "x - x^2", "--order", "3", "--time", "1e100000000"],
        ["exp", "--field", '{"kind":"field","order":3,"coeffs":["-1","0"]}', "--time", "1e-100000000"],
        ["contour", "--poly", "1,1e10000000", "--radius", "0.1"],
    ]
    for argv in cases:
        assert_quick_strict_error(argv, "CoefficientError")


def test_contour_coefficient_past_the_float_range_is_an_error():
    assert_quick_strict_error(["contour", "--poly", "1,1e400", "--radius", "0.1"], "CoefficientError")
    assert_quick_strict_error(
        ["contour", "--jet", '{"order":2,"coeffs":["1","1e400"]}', "--radius", "0.1"], "CoefficientError"
    )


def test_orbit_loops_past_the_step_cap_are_refused_quickly():
    for argv in (
        ["estimate-resit", "--catalog", "quadratic", "--x0", "0.1", "--n", "1000000000000"],
        ["szekeres", "--catalog", "quadratic", "--x0", "0.1", "--n", "1000000000000", "--tol", "0"],
    ):
        assert_quick_strict_error(argv, "DomainError")


def test_szekeres_iteration_cap_below_one_is_refused(capsys):
    for n in ("0", "-5"):
        code, out = run_cli(capsys, "szekeres", "--catalog", "quadratic", "--x0", "0.1", f"--n={n}")
        assert code == 1
        assert strict_error_code(out) == "DomainError"
    code, out = run_cli(capsys, "szekeres", "--catalog", "quadratic", "--x0", "0.1", "--n", "1", "--tol", "0")
    assert code == 0
    assert json.loads(out)["result"]["iterations"] == 1


def test_jet_orders_past_the_bound_are_refused_quickly():
    # the dense exact verbs cost ~K^4: power at order 200 ran for minutes
    K = MAX_JET_ORDER + 1
    jet = json.dumps({"order": K, "coeffs": ["1"] + ["-1"] * (K - 1)})
    field = json.dumps({"kind": "field", "order": K, "coeffs": ["-1"] * (K - 1)})
    cases = [
        ["power", "--catalog", "moebius", "--order", "200", "--n", "100000000"],
        ["power", "--jet", jet, "--n", "2"],
        ["normal-form", "--expr", "x - x^2", "--order", str(K)],
        ["flow", "--catalog", "moebius", "--order", str(K), "--time", "1/2"],
        ["field", "--jet", jet],
        ["residue", "--expr", jet],  # a jet document given as a formula
        ["exp", "--field", field, "--time", "1"],
    ]
    for argv in cases:
        assert_quick_strict_error(argv, "OrderError")


def test_jet_orders_at_the_bound_are_served(capsys):
    K = str(MAX_JET_ORDER)
    field = json.dumps({"kind": "field", "order": MAX_JET_ORDER, "coeffs": ["-1"] * (MAX_JET_ORDER - 1)})
    for argv in (
        ["power", "--catalog", "moebius", "--order", K, "--n", "2"],
        ["normal-form", "--expr", "x - x^2", "--order", K],
        ["flow", "--catalog", "moebius", "--order", K, "--time", "1/2"],
        ["field", "--catalog", "moebius", "--order", K],
        ["residue", "--catalog", "moebius", "--order", K],
        ["exp", "--field", field, "--time", "1"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert "result" in json.loads(out)


def test_literal_past_the_float_range(capsys):
    # the exact verbs read the series only; the numeric verbs need float
    # evaluators, which a literal of 10^400 cannot have
    text = "x - 1" + "0" * 400 + "*x^2"
    code, out = run_cli(capsys, "residue", "--expr", text, "--order", "3")
    assert code == 0
    report = json.loads(out)["result"]["report"]
    assert report["leading"] == "-1" + "0" * 400 and report["resit"] == "1"
    for argv in (
        ["szekeres", "--expr", text, "--x0", "0.1", "--n", "10"],
        ["estimate-resit", "--expr", text, "--x0", "0.1", "--n", "1000"],
        ["szekeres", "--expr", "x - x^2*(1+1" + "0" * 300 + "*x)^5", "--x0", "0.1", "--n", "10"],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 1, argv
        assert strict_error_code(out) == "CoefficientError", argv


def test_non_finite_estimate_is_a_domain_error(capsys):
    code, out = run_cli(
        capsys, "estimate-resit", "--catalog", "quadratic", "--x0", "0.3", "--n", "10000", "--a", "1e308"
    )
    assert code == 1
    assert strict_error_code(out) == "DomainError"
    assert "n=1000 is not finite" in json.loads(out)["error"]["message"]


def test_an_empty_value_is_read_not_reported_missing(capsys):
    # an empty flag value goes to its own reader, not to "need one of ..."
    cases = [
        (["residue", "--expr="], "ParseError", None),
        (["residue", "--jet="], "CoefficientError", None),
        (["residue", "--catalog="], "KeyError", "unknown catalog germ ''"),
        (["szekeres", "--expr=", "--x0", "0.1"], "ParseError", None),
        (["szekeres", "--catalog=", "--x0", "0.1"], "KeyError", "unknown catalog germ ''"),
        (["estimate-resit", "--expr=", "--x0", "0.1"], "ParseError", None),
        (["estimate-resit", "--catalog=", "--x0", "0.1"], "KeyError", "unknown catalog germ ''"),
        (["contour", "--poly=", "--radius", "0.1"], "CoefficientError", None),
        (["contour", "--jet=", "--radius", "0.1"], "CoefficientError", None),
    ]
    for argv, expected, message in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 1, argv
        assert strict_error_code(out) == expected, argv
        if message is not None:
            assert json.loads(out)["error"]["message"] == message, argv
    # with no value at all the flag is still reported missing
    code, out = run_cli(capsys, "residue")
    assert code == 1
    assert json.loads(out)["error"] == {"code": "ValueError", "message": "need one of --jet / --expr / --catalog"}


# one process, one parser: each call must answer as a fresh process does,
# whatever the calls before it set
PARSER_REUSE_SEQUENCE = [
    ["estimate-resit", "--catalog", "quadratic", "--x0", "0.3", "--n", "10000", "--ell", "2"],
    ["estimate-resit", "--catalog", "quadratic", "--x0", "0.3", "--n", "10000"],
    ["estimate-resit", "--catalog", "moebius", "--x0", "0.3", "--n", "10000", "--format", "csv"],
    ["estimate-resit", "--catalog", "moebius", "--x0", "0.3", "--n", "10000"],
    ["power", "--expr", "x - x^2", "--order", "5", "--n", "3"],
    ["residue", "--expr", "x - x^2", "--no-such-flag", "1"],
    ["szekeres", "--catalog", "quadratic", "--x0", "0.1", "--n", "100"],
    ["estimate-resit", "--catalog", "quadratic", "--x0", "0.3", "--n", "1000"],
    ["power", "--expr", "x - x^2", "--order", "5", "--n", "-2"],
    ["residue", "--expr", "x - x^2", "--order", "5"],
    ["--help"],
    ["szekeres", "--catalog", "quadratic", "--x0", "0.1"],
]


def test_reused_parser_answers_as_fresh_processes(capsys, monkeypatch):
    from germres import cli

    # help and usage wrap at the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    in_process = []
    for argv in PARSER_REUSE_SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0]
    for argv, answer in zip(PARSER_REUSE_SEQUENCE, in_process):
        proc = run_cli_process(argv)
        assert answer == (proc.returncode, proc.stdout, proc.stderr), argv
