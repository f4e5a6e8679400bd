"""Command-line interface tests (invoked in-process through main)."""

import json
import re
import runpy
import sys
import warnings

import numpy as np
import pytest

from kahlerstar import jets
from kahlerstar.cli import main
from kahlerstar.presets import preset_potential
from kahlerstar.verify import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_flat(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--preset", "flat", "--n", "1", "--point", "0", "--f", "zb1", "--g", "z1"
    )
    assert code == 0
    assert "c0=0+0i" in out and "c1=1+0i" in out and "c3=0+0i" in out


def test_eval_fubini_study_modified_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--preset",
        "fubini-study",
        "--point",
        "0",
        "--f",
        "zb1",
        "--g",
        "z1",
        "--variant",
        "modified",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    star = payload["values"]["star"]
    assert star[1] == pytest.approx([1.0, 0.0])
    assert star[3][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    for key in ("config", "checks", "values", "seed", "jet_order"):
        assert key in payload
    for key in ("star", "C1", "C2", "C3", "C3tilde", "P", "Q", "R", "S"):
        assert key in payload["values"]
    assert payload["values"]["R"][0] == pytest.approx(4.0, abs=1e-12)


def test_eval_syntax_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--potential", "log(1+z1*zb1", "--n", "1", "--f", "zb1", "--g", "z1"
    )
    assert code == 2
    assert "error" in err


def test_eval_singular_metric_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--potential", "z1*zb2", "--n", "2", "--point", "0", "0",
        "--f", "zb1", "--g", "z1",
    )
    assert code == 3


def test_eval_pole_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--potential", "z1*zb1+1/(z1*zb1)", "--n", "1", "--point", "0",
        "--f", "zb1", "--g", "z1",
    )
    assert code == 3


def test_eval_poincare_outside_disk_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--preset", "poincare-disk", "--point", "2", "--f", "zb1", "--g", "z1"
    )
    assert code == 3


def test_eval_non_finite_point_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--preset", "fubini-study", "--point", "9" * 401, "--f", "zb1", "--g", "z1"
    )
    assert code == 2
    assert "is not finite" in err and "RuntimeWarning" not in err


def test_eval_overflowing_point_prints_the_refusal_alone(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "eval", "--preset", "fubini-study", "--point", "9" * 200 + "*" + "9" * 200,
            "--f", "zb1", "--g", "z1",
        )
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and "is not finite" in err


def test_preset_dimension_conflict(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--preset", "fubini-study", "--n", "2",
        "--point", "0", "0", "--f", "zb1", "--g", "z1",
    )
    assert code == 2


def test_preset_potential_refuses_a_dimension_or_a_name():
    with pytest.raises(ValueError, match="is one-dimensional"):
        preset_potential("poincare-disk", 2)
    with pytest.raises(ValueError, match="unknown preset"):
        preset_potential("sphere", 1)


def test_verify_presets_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "0")
    assert code == 0
    assert "summary:" in out
    assert "FAIL" not in out


def test_verify_json_deterministic(capsys):
    # the second random chart has n=2, so byte-identity covers its einsum paths too
    code1, out1, _ = run_cli(capsys, "verify", "--trials", "2", "--seed", "3", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "--trials", "2", "--seed", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["checks"], "verify must report checks"
    for check in payload["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "pass", "context"}


def test_verify_json_does_not_depend_on_reading_the_inverse_metric_early(capsys, monkeypatch):
    # the chart tensors are built on first read: reading the public g_up right after
    # each chart is built must not change a single byte of the report
    from kahlerstar import geometry
    from tests.test_operators import _patch_everywhere

    code, lazy, _ = run_cli(capsys, "verify", "--trials", "4", "--json")
    original = geometry.build_chart

    def eager(*args, **kwargs):
        ctx = original(*args, **kwargs)
        ctx.g_up
        return ctx

    _patch_everywhere(monkeypatch, "build_chart", eager)
    assert run_cli(capsys, "verify", "--trials", "4", "--json")[:2] == (code, lazy)
    assert code == 0


def test_verify_json_with_random_n2_chart(capsys):
    # the second random chart has n=2; its Jacobi residual once came out as a
    # numpy scalar, which the JSON encoder rejects
    code, out, _ = run_cli(capsys, "verify", "--trials", "2", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert any("n=2" in c["context"] and c["name"] == "jacobi_identity" for c in payload["checks"])


def test_flat_dimension_beyond_jet_tables_fails_cleanly(capsys):
    # a chart reads its potential to degree 4, whose monomial codes in 2n = 28
    # variables, base 5, no longer fit an int64
    code, out, err = run_cli(
        capsys, "eval", "--preset", "flat", "--n", "14", "--point", *["0"] * 14,
        "--f", "zb1", "--g", "z1",
    )
    assert code == 2
    assert out == ""
    assert "jets of dimension 14 and order 4 overflow the monomial codes" in err


def test_verify_impossible_tolerance_fails_honestly(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "0", "--tol", "1e-15")
    assert code == 1
    assert "FAIL" in out


def test_compare_flat(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "flat", "--point", "0.4",
        "--f", "zb1^2+zb1", "--g", "z1^2",
    )
    assert code == 0
    assert "within tolerance" in out


def test_compare_poincare_seeded(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "poincare-disk", "--point", "0.2", "--seed", "7", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(check["pass"] for check in payload["checks"])
    assert "C3_covariant" in payload["values"]


def test_compare_low_jet_order_rejected(capsys):
    # below the least chart order
    code, out, err = run_cli(
        capsys, "compare", "--preset", "flat", "--point", "0", "--jet-order", "5"
    )
    assert code == 2
    assert out == "" and "at least 6" in err


@pytest.mark.parametrize(
    "chart",
    [
        ["--preset", "fubini-study", "--point", "0.3"],
        ["--potential", "z1*zb1+z2*zb2+0.2*z1^2*zb1*zb2+0.1*z1*z2*zb2^2+0.1*z2*zb1*zb2^2",
         "--n", "2", "--point", "0.1-0.05i", "0.12+0.08i"],
        ["--preset", "flat", "--n", "4", "--point", "0.1-0.05i", "0.12+0.08i", "-0.1", "0.2i"],
    ],
    ids=["fubini-study", "n2-potential", "flat-n4"],
)
def test_compare_values_do_not_depend_on_jet_order(capsys, chart):
    requests = [["compare", *chart, "--seed", "7"]] + [
        ["eval", *chart, "--f", "zb1^2*z1+zb1", "--g", "z1^3+z1*zb1", "--variant", variant]
        for variant in ("standard", "modified")
    ]
    for request in requests:
        values = set()
        for order in ("6", "8", "12"):
            code, out, _ = run_cli(capsys, *request, "--jet-order", order, "--json")
            assert code == 0
            values.add(json.dumps(json.loads(out)["values"], sort_keys=True))
        assert len(values) == 1, request


def test_verify_rows_do_not_depend_on_jet_order(capsys):
    rows = set()
    for order in ("6", "7", "10", "12"):
        code, out, _ = run_cli(capsys, "verify", "--trials", "4", "--jet-order", order, "--json")
        assert code == 0
        checks = json.loads(out)["checks"]
        for check in checks:
            check["context"] = re.sub(r" J=\d+", "", check["context"])
        rows.add(json.dumps(checks, sort_keys=True))
    assert len(rows) == 1


def test_no_chart_builds_a_jet_past_degree_4(capsys, monkeypatch):
    # the potential is read to degree 4 whatever the jet order, so no suite check
    # or command needs product tables of a higher order
    monkeypatch.setattr(jets, "_TABLES", {})
    run_suite(trials=2)
    charts = [["--preset", "fubini-study", "--point", "0.3"],
              ["--preset", "poincare-disk", "--point", "0.2"],
              ["--preset", "flat", "--n", "4", "--point", "0.1", "0", "0.2i", "0"]]
    for chart in charts:
        for request in (["eval", "--f", "zb1^2*z1+zb1", "--g", "z1^3"], ["compare"]):
            code, _, _ = run_cli(capsys, *request, *chart, "--jet-order", "14")
            assert code == 0, (request, chart)
    assert jets._TABLES and all(t.order <= 4 for t in jets._TABLES.values())


def test_verify_least_jet_order(capsys):
    # the suite needs no more than a chart does
    assert run_cli(capsys, "verify", "--trials", "2", "--jet-order", "6")[0] == 0
    code, out, err = run_cli(capsys, "verify", "--trials", "2", "--jet-order", "5")
    assert code == 2
    assert out == "" and "at least 6" in err


def test_usage_error(capsys):
    assert main(["eval"]) == 2  # neither preset nor potential
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["eval", "--preset", "flat", "--n", "1", "--point", "0", "--f", "zb1", "--g", "z1"], 0),
        (["eval", "--preset", "flat", "--n", "1", "--point", "0", "--f", "z1 +* 2", "--g", "z1"], 2),
    ],
    ids=["ok", "syntax-error"],
)
def test_python_m_kahlerstar(monkeypatch, capsys, argv, expected):
    monkeypatch.setattr(sys, "argv", ["kahlerstar", *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("kahlerstar", run_name="__main__")
    assert exit_info.value.code == expected
    out = capsys.readouterr().out
    assert ("C1=1+0i" in out) == (expected == 0)


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("chart", [["--potential", "1"], ["--preset", "flat"]], ids=["potential", "flat"])
def test_chart_dimension_below_one_is_refused(capsys, chart, n):
    code, out, err = run_cli(capsys, "eval", *chart, "--n", n, "--f", "1", "--g", "1")
    assert code == 2
    assert out == ""
    assert "chart dimension must be at least 1" in err


def test_overflowing_metric_is_a_numerical_failure(capsys):
    # the jet of this potential overflows to inf and NaN; that is a failed
    # numerical precondition (exit 3), not an SVD error reported as usage
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(
            capsys, "eval", "--potential", "(1000000*z1*zb1+1000000*z1+1000000*zb1)^60",
            "--point", "0.5", "--f", "zb1", "--g", "z1",
        )
    assert code == 3
    assert out == ""
    assert "metric at the base point is not finite" in err


def test_large_negative_definite_metric_is_refused_at_a_real_point(capsys):
    # at this size (|g_dn| about 1.2e10) roundoff breaks the metric's Hermitian
    # symmetry by 1.5e-8, which must not make the real point a formal one
    potential = "-10000000000*(z1*zb1+z2*zb2+0.3*z1^2*zb1^2+0.2*z1*z2^2*zb1*zb2^2+0.1*z1^3*zb2^3+0.1*z2^3*zb1^3)"
    code, out, err = run_cli(
        capsys, "eval", f"--potential={potential}", "--n", "2", "--point", "0.29+0.28i",
        "0.21-0.2i", "--f", "zb1", "--g", "z1",
    )
    assert code == 3
    assert out == ""
    assert "not positive definite" in err


def test_nonfinite_function_jet_is_a_numerical_failure(capsys):
    # the jet of f overflows to inf and NaN in its power; the operators would
    # otherwise print NaN with exit 0
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(
            capsys, "eval", "--preset", "flat", "--point", "0.5",
            "--f", "(1000000*z1*zb1+1000000*z1+1000000*zb1)^60", "--g", "z1",
        )
    assert code == 3
    assert out == ""
    assert "error:" in err and "is not finite at the base point" in err


def test_long_sum_potential_evaluates(capsys):
    potential = "+".join(["0.001*z1*zb1"] * 1200)
    code, out, _ = run_cli(
        capsys, "eval", "--potential", potential, "--point", "0.1", "--f", "zb1", "--g", "z1"
    )
    assert code == 0
    assert "c0=" in out


def test_long_sum_function_evaluates(capsys):
    # parsing --f and hashing its tree for the chart's jet memo must not recurse
    # through the 1 200 terms
    f = "+".join(["0.001*z1*zb1"] * 1200)
    code, out, _ = run_cli(capsys, "eval", "--preset", "flat", "--point", "0.1", "--g", "z1", "--f", f)
    assert code == 0
    assert "C1=0.12" in out


@pytest.mark.parametrize(
    "f",
    ["*".join(["z1"] * 1200), "(" * 300 + "z1" + ")" * 300, "-" * 1200 + "zb1"],
    ids=["long-product", "nested-parentheses", "leading-minus-signs"],
)
def test_input_nested_too_deeply_is_a_usage_error(capsys, f):
    # the parser and eval_jet recurse on nesting (a product chain, parentheses, unary
    # minus): past the recursion limit the request is refused, with no traceback
    code, out, err = run_cli(capsys, "eval", "--preset", "flat", f"--f={f}", "--g", "z1")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: expression nested too deeply")


def test_a_pole_behind_a_long_sum_is_a_numerical_failure(capsys):
    # the error message prints the 1 200-term quotient: printing walks without recursion
    f = "(" + "+".join(["z1"] * 1200) + ")/(z1-z1)"
    code, out, err = run_cli(capsys, "eval", "--preset", "flat", "--f", f, "--g", "z1")
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1
    assert "reciprocal of a jet with zero constant term" in err


@pytest.mark.parametrize("point", ["1/0", "log(0)"])
def test_a_point_constant_that_cannot_be_evaluated_is_a_usage_error(capsys, point):
    # it is refused as text, as an overflowing constant is, before any chart is built
    code, out, err = run_cli(capsys, "eval", "--preset", "flat", "--point", point, "--f", "z1",
                             "--g", "z1")
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1
    assert f"the constant {point!r} cannot be evaluated" in err


#: the report's ``config``: every setting that is not None, the point as [re, im] pairs
CONFIGS = {
    "eval": {
        "command": "eval", "degree": 3, "epsilon": 0.1, "f": "zb1", "g": "z1", "jet_order": 10,
        "json_output": True, "n": 1, "point": [[0.0, 0.0]], "preset": "flat", "seed": 0,
        "trials": 20, "variant": "standard",
    },
    "verify": {
        "command": "verify", "degree": 3, "epsilon": 0.1, "jet_order": 10, "json_output": True,
        "n": 1, "point": [], "seed": 0, "trials": 0, "variant": "standard",
    },
    "compare": {
        "command": "compare", "degree": 3, "epsilon": 0.1, "jet_order": 10, "json_output": True,
        "n": 1, "point": [[0.0, 0.0]], "preset": "flat", "seed": 0, "trials": 20,
        "variant": "standard",
    },
}


@pytest.mark.parametrize(
    "argv",
    [["eval", "--preset", "flat", "--f", "zb1", "--g", "z1"], ["verify", "--trials", "0"],
     ["compare", "--preset", "flat"]],
    ids=lambda argv: argv[0],
)
def test_the_report_config_keeps_its_keys_and_defaults(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["config"] == CONFIGS[argv[0]]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--trials", "-3"], "verify requires --trials of at least 0"),
        (["--epsilon", "nan"], "verify requires a finite --epsilon"),
        (["--epsilon", "inf"], "verify requires a finite --epsilon"),
        (["--degree", "-1"], "verify requires --degree of at least 1"),
        (["--degree", "0"], "verify requires --degree of at least 1"),
        (["--tol", "inf"], "verify requires a finite --tol of at least 0"),
        (["--tol", "nan"], "verify requires a finite --tol of at least 0"),
        (["--tol", "-1"], "verify requires a finite --tol of at least 0"),
    ],
    ids=[
        "negative-trials", "nan-epsilon", "inf-epsilon", "negative-degree", "zero-degree",
        "inf-tol", "nan-tol", "negative-tol",
    ],
)
def test_verify_refuses_invalid_suite_settings(capsys, flags, message):
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_compare_refuses_invalid_tolerance(capsys):
    # under --tol inf a residual that is not finite would pass; --tol 0 stays valid
    code, out, err = run_cli(capsys, "compare", "--preset", "flat", "--tol", "inf")
    assert code == 2
    assert out == ""
    assert "compare requires a finite --tol of at least 0" in err
    assert run_cli(capsys, "compare", "--preset", "flat", "--tol", "0")[0] != 2


@pytest.mark.parametrize(
    "argv",
    [["eval", "--variant", "standard"], ["eval", "--variant", "modified"], ["compare"]],
    ids=["eval-standard", "eval-modified", "compare"],
)
def test_functions_are_parsed_once_by_the_cli(capsys, monkeypatch, argv):
    # the operators and the oracle get the parsed --f and --g, never their source text
    from kahlerstar import geometry

    chart = ["--preset", "fubini-study", "--point", "0.3+0.1i", "--json"]
    functions = ["--f", "zb1^2+z1*zb1", "--g", "z1^2+2*zb1"]
    code, out, _ = run_cli(capsys, *argv, *chart, *functions)

    def refuse(src, n):
        raise AssertionError(f"{src!r} was parsed below the CLI")

    monkeypatch.setattr(geometry, "parse", refuse)
    assert run_cli(capsys, *argv, *chart, *functions)[:2] == (code, out)
    assert code == 0


def test_usage_errors_come_before_evaluation(capsys):
    # --f and --g are both parsed before either is evaluated, so the syntax error in
    # --g (exit 2) is reported, not the branch cut of log(z1) at 0 (exit 3)
    code, out, err = run_cli(
        capsys, "eval", "--preset", "fubini-study", "--point", "0", "--f", "log(z1)", "--g", "z1 $"
    )
    assert code == 2
    assert out == ""
    assert "unexpected character '$'" in err


EVAL_FS = ["eval", "--preset", "fubini-study", "--point", "0.3+0.1i", "--f", "zb1^2+z1*zb1",
           "--g", "z1^2+2*zb1", "--json"]


@pytest.mark.parametrize("variant,own_key", [("standard", "C3"), ("modified", "C3tilde")])
def test_eval_reads_its_own_order3_value_from_the_product(capsys, monkeypatch, variant, own_key):
    from kahlerstar import operators

    calls = []
    original = operators._triple

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "_triple", counted)
    code, out, _ = run_cli(capsys, *EVAL_FS, "--variant", variant)
    assert code == 0
    # C3 is built once, in the product; C3 and C3~ read it from the chart's memo
    assert len(calls) == 1
    values = json.loads(out)["values"]
    assert values[own_key] == values["star"][3]
    assert values["C3"] != values["C3tilde"]


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    import argparse

    def refuse(*args, **kwargs):
        raise AssertionError("an argument parser was built by a request")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run_cli(capsys, *EVAL_FS)[0] == 0
    assert run_cli(capsys, "compare", "--preset", "flat", "--seed", "2")[0] == 0
    assert run_cli(capsys, "verify", "--trials", "0")[0] == 0


@pytest.mark.parametrize(
    "bad",
    [["eval", "--preset", "flat", "--variant", "other"], ["eval", "--bogus", "1"],
     ["compare", "--n", "two"], ["verify", "--trials"]],
    ids=["bad-choice", "unknown-flag", "bad-int", "missing-value"],
)
def test_a_usage_error_leaves_nothing_for_the_next_request(capsys, bad):
    alone = run_cli(capsys, *EVAL_FS)
    assert run_cli(capsys, *bad)[0] == 2
    assert run_cli(capsys, *EVAL_FS) == alone


@pytest.mark.parametrize(
    "option, value, code",
    [("--point", "-0.2+0.1i", 0), ("--potential", "-log(1-z1*zb1)", 0),
     ("--potential", "-(z1*zb1)", 3), ("--f", "-zb1^2", 0), ("--g", "-z1", 0)],
    ids=["point", "potential", "negative-definite-potential", "f", "g"],
)
def test_a_value_may_start_with_a_minus(capsys, option, value, code):
    # argparse alone reads such a token as an unknown option (exit 2); only the '=' form
    # worked, although the --point help text itself writes -0.5+0.2i.  -(z1*zb1) is
    # negative definite: refused as a metric (exit 3), not as a usage
    flags = {"--preset": "fubini-study", "--point": "0.3", "--f": "zb1", "--g": "z1"}
    if option == "--potential":
        del flags["--preset"]
    flags.pop(option, None)
    rest = [token for flag in flags.items() for token in flag]
    for command in ("eval", "compare"):
        got = run_cli(capsys, command, *rest, option, value, "--json")
        assert got == run_cli(capsys, command, *rest, f"{option}={value}", "--json")
        assert got[0] == code


def test_a_point_coordinate_after_the_first_may_start_with_a_minus_too(capsys):
    chart = ["--potential", "z1*zb1+z2*zb2+0.1*z1^2*zb1^2", "--n", "2"]
    functions = ["--f", "zb1*zb2", "--g", "z1^2*z2", "--json"]
    got = run_cli(capsys, "eval", *chart, "--point", "-0.2+0.1i", "0.3", *functions)
    assert got == run_cli(capsys, "eval", *chart, "--point", "(-0.2+0.1i)", "0.3", *functions)
    assert got[0] == 0
    assert json.loads(got[1])["config"]["point"] == [[-0.2, -0.1], [0.3, 0.0]]
    swapped = run_cli(capsys, "eval", *chart, "--point", "0.3", "-0.2+0.1i", *functions)
    assert json.loads(swapped[1])["config"]["point"] == [[0.3, 0.0], [-0.2, -0.1]]


def test_help_and_unknown_options_are_still_options(capsys):
    code, out, _ = run_cli(capsys, "eval", "--point", "0.3", "-h")
    assert code == 0 and out.startswith("usage: kahlerstar eval")
    for unknown in ("--bogus", "-x"):
        code, out, err = run_cli(capsys, "eval", "--preset", "flat", unknown)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {unknown}" in err


def test_argument_coefficients_above_degree_3_are_never_read(capsys):
    # the jet of g past degree 3 overflows (1e40^k), but no operator reads it
    chart = ["--preset", "flat", "--point", "0.5", "--f", "zb1^3",
             "--g", "1/(1-10000000000000000000000000000000000000000*(z1-0.5))", "--json"]
    code, out, _ = run_cli(capsys, "eval", *chart)
    assert code == 0
    values = json.loads(out)["values"]
    for key, expected in (("C1", 7.5e39), ("C2", 3e80), ("C3", 6e120)):
        assert values[key] == pytest.approx([expected, 0.0], rel=1e-12)
    code, out, _ = run_cli(capsys, "compare", *chart)
    assert code == 0
    assert [check["residual"] for check in json.loads(out)["checks"]] == [0.0, 0.0, 0.0]
