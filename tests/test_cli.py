"""CLI: schemas, exit codes, determinism, formats."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regsing
from regsing import cli
from regsing import cone as cone_mod
from regsing.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main
from regsing.eigenfunction import SecularEvaluator

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def _entry(re, im=0.0):
    return {"re": re, "im": im}


def kernel_doc():
    # nu = 1/2 regular-branch rows with f'(1) = f(1): determinant 2/3
    return {
        "R": 1.0,
        "lambdas": [0.0],
        "q0": 0,
        "A": [[_entry(0.0)]],
        "B": [[_entry(1.0)]],
        "regular_bc": {"type": "robin", "alpha": -1.0},
    }


def bessel_doc():
    # nu = 0 regular-branch rows with f'(1) = f(1)/2: F = mu J_1(mu)
    return {
        "R": 1.0,
        "lambdas": [-0.25],
        "q0": 1,
        "A": [[_entry(0.0)]],
        "B": [[_entry(1.0)]],
        "regular_bc": {"type": "robin", "alpha": -0.5},
    }


def large_r_doc():
    # nu = 0.3 regular-branch rows on (0, 200]: rows grow like exp(200 |Im mu|)
    return {
        "R": 200.0,
        "lambdas": [-0.16],
        "q0": 0,
        "A": [[_entry(0.0)]],
        "B": [[_entry(1.0)]],
        "regular_bc": {"type": "robin", "alpha": 0.5},
    }


def circle_doc():
    return {
        "m": 2,
        "ccl_spectra": {"0": [[0.0, 1], [1.0, 2], [4.0, 2]], "1": [[0.0, 1], [4.5, 1]]},
        "harmonic_dims": {"0": 1, "1": 1},
    }


@pytest.fixture()
def write_doc(tmp_path):
    def _write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# every command that takes an operator document, with the flags it needs
OPERATOR_COMMANDS = [
    ["eval-f", "--mu", "1.5+0.5j"],
    ["f-at-zero"],
    ["spectrum", "--mu-max", "12"],
    ["det"],
    ["zeta", "--s", "2", "--mu-max", "40"],
    ["verify-asymptotics"],
    ["verify-contour", "--s", "2", "--a-list", "8.2"],
]


class TestDet:
    def test_kernel_case(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "det", write_doc(kernel_doc()))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["command"] == "det"
        assert payload["report"]["method"] == "regularized"
        assert payload["report"]["k0"] == 1
        assert abs(payload["report"]["value"] - 2.0 / 3.0) < 1e-9

    def test_kernel_case_at_r_4(self, write_doc, capsys):
        # the kernel-order circle scales with 1/R: det = 4^2 * 2/3 at R = 4
        doc = dict(kernel_doc(), R=4.0, regular_bc={"type": "robin", "alpha": -0.25})
        code, out, _ = run_cli(capsys, "det", write_doc(doc))
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["k0"] == 1
        assert report["value"] == pytest.approx(16.0 * 2.0 / 3.0, rel=1e-14, abs=0.0)

    def test_envelope_fields(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "det", write_doc(kernel_doc()))
        payload = json.loads(out)
        assert payload["tool"] == "regsing"
        assert len(payload["input_sha256"]) == 64
        assert payload["deterministic"] is True
        assert payload["version"]

    def test_default_contour_radius_scales_with_length(self, write_doc, capsys):
        # R = 200: the first root sits near 0.01, inside a fixed radius 0.1
        code, out, _ = run_cli(capsys, "det", write_doc(large_r_doc()))
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["diagnostics"]["finite_t_value"] == pytest.approx(report["value"], rel=1e-12)
        assert report["diagnostics"]["finite_t_gap"] <= 1e-12

    def test_payloads_count_passes_and_nodes(self, write_doc, capsys):
        # det (kernel and kernel-free), spectrum and zeta report the kernel
        # passes and quadrature nodes they spent; a det request is one pass, the
        # probes riding with the finite-t arc's first round, which only the
        # kernel-free request reads; zeta at an integer s is the spectrum search
        # alone, its contour a power sum of the Taylor circle
        path = write_doc(large_r_doc())
        for doc, want in ((kernel_doc(), (1, 0)), (large_r_doc(), (1, 48))):
            _, out, _ = run_cli(capsys, "det", write_doc(doc))
            diag = json.loads(out)["report"]["diagnostics"]
            assert (diag["passes"], diag["nodes"]) == want
        _, out, _ = run_cli(capsys, "spectrum", path, "--mu-max", "1")
        spectrum = json.loads(out)["report"]["passes"]
        _, out, _ = run_cli(capsys, "zeta", path, "--mu-max", "1", "--s", "2")
        rep = json.loads(out)["report"]
        assert 2 <= spectrum == rep["passes"] and rep["nodes"] == 0

    def test_contour_radius_flag_is_gone(self, write_doc):
        # the radius is 0.1 / R, certified by the Taylor circle
        for command in ("det", "zeta"):
            with pytest.raises(SystemExit) as exc:
                main([command, write_doc(large_r_doc()), "--t", "0.05"])
            assert exc.value.code == EXIT_SCHEMA

    def test_theta_flag_is_gone(self, write_doc):
        # verify-contour's contour angle is pi / 4, the one value ever passed
        argv = ["verify-contour", write_doc(bessel_doc()), "--s", "2", "--a-list", "8.2"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--theta", "0.5"])
        assert exc.value.code == EXIT_SCHEMA

    def test_reports_carry_the_contour_certificate(self, write_doc, capsys):
        path = write_doc(large_r_doc())
        _, out, _ = run_cli(capsys, "det", path)
        diag = json.loads(out)["report"]["diagnostics"]
        assert diag["finite_t_radius"] == 0.1 / 200.0 and diag["zero_free_margin"] > 1.0
        _, out, _ = run_cli(capsys, "zeta", path, "--mu-max", "1", "--s", "2")
        assert json.loads(out)["report"]["t"] == 0.1 / 200.0

    def test_kernel_tolerance_flag_is_gone(self, write_doc):
        with pytest.raises(SystemExit) as exc:
            main(["det", write_doc(kernel_doc()), "--tol", "1e-3"])
        assert exc.value.code == EXIT_SCHEMA

    def test_byte_identical_reruns(self, write_doc, capsys):
        path = write_doc(bessel_doc())
        _, out1, _ = run_cli(capsys, "det", path)
        _, out2, _ = run_cli(capsys, "det", path)
        assert out1 == out2


class TestSpectrum:
    def test_csv_first_root(self, write_doc, capsys, j1_zeros_oracle):
        code, out, _ = run_cli(
            capsys, "spectrum", write_doc(bessel_doc()), "--mu-max", "10", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[1] == "index,axis,root,eigenvalue"
        first = lines[2].split(",")
        assert first[1] == "real"
        assert abs(float(first[2]) - j1_zeros_oracle[0]) < 1e-8

    def test_json_report(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "spectrum", write_doc(kernel_doc()), "--mu-max", "8")
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert rep["certified"] is True
        assert abs(rep["positive"][0] - 4.4934094579) < 1e-6

    def test_large_interval(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "spectrum", write_doc(large_r_doc()), "--mu-max", "1")
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert rep["certified"] is True and len(rep["positive"]) == 64

    @pytest.mark.parametrize("r, alpha, mu_max", [(0.01, -200.0, "3000"), (1e4, 5e-5, "0.002")])
    def test_extreme_lengths(self, write_doc, capsys, r, alpha, mu_max):
        # alpha R = -2 has one negative eigenvalue, x R = 2.015359; alpha R = 0.5
        # none.  The search scales with 1/R, so both give the R = 1 root counts
        doc = dict(large_r_doc(), R=r, regular_bc={"type": "robin", "alpha": alpha})
        code, out, _ = run_cli(capsys, "spectrum", write_doc(doc), "--mu-max", mu_max)
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert len(rep["positive"]) == (9 if alpha < 0.0 else 6)
        if alpha < 0.0:
            assert rep["negative"] == [pytest.approx(201.5359, abs=1e-4)]
        else:
            assert rep["negative"] == []


class TestValidateAndSchema:
    def test_rank_violation_exits_2(self, write_doc, capsys):
        doc = bessel_doc()
        doc["B"] = [[_entry(0.0)]]
        code, out, _ = run_cli(capsys, "validate", write_doc(doc))
        assert code == EXIT_SCHEMA
        rep = json.loads(out)["report"]
        assert rep["ok"] is False
        assert rep["violations"][0]["name"] == "rank"

    def test_document_read_closes_its_file(self, write_doc, capsys):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "validate", write_doc(bessel_doc()))
        assert code == EXIT_OK
        assert err == ""
        assert [w for w in seen if issubclass(w.category, ResourceWarning)] == []

    def test_valid_document_exits_0(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "validate", write_doc(bessel_doc()))
        assert code == EXIT_OK
        assert json.loads(out)["report"]["ok"] is True

    def test_missing_key_is_schema_error(self, write_doc, capsys):
        doc = kernel_doc()
        del doc["lambdas"]
        code, _, err = run_cli(capsys, "det", write_doc(doc))
        assert code == EXIT_SCHEMA
        assert "lambdas" in err

    def test_bad_matrix_entry_is_schema_error(self, write_doc, capsys):
        doc = kernel_doc()
        doc["A"] = [[1.0]]
        code, _, _ = run_cli(capsys, "det", write_doc(doc))
        assert code == EXIT_SCHEMA

    def test_unreadable_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{", encoding="utf-8")
        code, _, _ = run_cli(capsys, "det", str(path))
        assert code == EXIT_SCHEMA

    def test_numerical_failure_exits_3(self, write_doc, capsys):
        # finite-t style pre-check failure: zeta at s <= 1/2
        code, _, err = run_cli(capsys, "zeta", write_doc(bessel_doc()), "--s", "0.4")
        assert code == EXIT_NUMERICAL

    def test_small_s_is_refused_before_the_spectrum_scan(self, write_doc, capsys, monkeypatch):
        # the s > 1/2 rule of zeta_eval is checked before find_spectrum runs
        scans = []
        monkeypatch.setattr(cli, "find_spectrum", lambda *args: scans.append(args))
        code, out, err = run_cli(capsys, "zeta", write_doc(bessel_doc()), "--s", "0.4")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "regsing: numerical failure: zeta_eval needs s > 1/2\n"
        assert scans == []

    def test_infinite_s_exits_3(self, write_doc, capsys):
        code, out, err = run_cli(capsys, "zeta", write_doc(bessel_doc()), "--s", "inf")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "regsing: numerical failure: zeta_eval needs a finite s\n"

    @pytest.mark.parametrize(
        "flags", [("--s=-inf", "--a-list", "8.2"), ("--s", "inf", "--a-list", "8.2"),
                  ("--s", "nan", "--a-list", "8.2")]
    )
    def test_non_finite_contour_input_exits_3_before_any_pass(
        self, write_doc, capsys, monkeypatch, flags
    ):
        # verify-contour needs 1/2 < s < inf and 0 < a < inf: a quiet refusal,
        # one line of stderr, before any kernel pass
        monkeypatch.setattr(SecularEvaluator, "_pass", lambda *a, **k: pytest.fail("kernel pass"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify-contour", write_doc(bessel_doc()), *flags)
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("regsing: numerical failure: ") and err.count("\n") == 1

    def test_contour_without_a_digit_exits_3(self, write_doc, capsys):
        doc = dict(kernel_doc(), regular_bc={"type": "dirichlet"})  # F = -sin(mu) / mu
        code, out, err = run_cli(capsys, "zeta", write_doc(doc), "--s", "6.5")
        assert code == EXIT_NUMERICAL
        assert out == "" and "carries no digit" in err

    @pytest.mark.parametrize("argv", OPERATOR_COMMANDS, ids=lambda argv: argv[0])
    def test_rank_deficient_operator_exits_2(self, write_doc, capsys, argv):
        # the evaluator's validation is the only one, and it is an input error
        doc = bessel_doc()
        doc["B"] = [[_entry(0.0)]]
        code, out, err = run_cli(capsys, argv[0], write_doc(doc), *argv[1:])
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err == "regsing: input error: operator failed validation: rank\n"

    @pytest.mark.parametrize(
        "flags", [("--mu-max", "0"), ("--mu-max", "nan"), ("--mu", "1+"), ("--mu-max", "inf")]
    )
    def test_bad_flag_value_exits_2(self, write_doc, flags):
        with pytest.raises(SystemExit) as exc:
            main(["eval-f", write_doc(bessel_doc()), "--mu", "1"] + list(flags))
        assert exc.value.code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval-f", "--mu", "nan"),
            ("eval-f", "--mu", "inf"),
            ("eval-f", "--mu", "1+nanj"),
            ("verify-asymptotics", "--a-list", "nan"),
            ("verify-asymptotics", "--a-list", "inf"),
            ("verify-contour", "--s", "2", "--a-list", "8.2,nan"),
        ],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )
    def test_non_finite_mu_or_abscissa_exits_2(self, write_doc, argv):
        # a usage error, as for --mu-max inf
        with pytest.raises(SystemExit) as exc:
            main([argv[0], write_doc(bessel_doc()), *argv[1:]])
        assert exc.value.code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval-f", "--mu", "1e300"),
            ("eval-f", "--mu", "1e300j"),
            ("verify-asymptotics", "--a-list", "1e300"),
        ],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )
    def test_traces_past_the_float_range_exit_3_quietly(self, capsys, argv):
        # finite, but the traces of F there leave the float range: a typed error in
        # one line of stderr, with every warning an error
        path = str(FIXTURES / "readme_two_channel.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == EXIT_NUMERICAL and out == ""
        assert err.startswith("regsing: numerical failure: ") and err.count("\n") == 1

    def test_log_scale_past_the_float_range_is_a_short_line(self, capsys):
        # at mu = 1e200 i the traces are finite but F's log-scale, 2e200, is not:
        # the line quotes it in four digits, not in its 201 of fixed point
        path = str(FIXTURES / "readme_two_channel.json")
        code, out, err = run_cli(capsys, "eval-f", path, "--mu", "1e200j")
        assert code == EXIT_NUMERICAL and out == ""
        assert "(log-scale 2e+200)" in err and err.count("\n") == 1 and len(err) < 120

    def test_spectrum_past_the_kernel_range_exits_3_quietly(self, write_doc, capsys):
        # a coupled q = 3 tip with a nu = 0.001 channel: the imaginary axis is cut
        # out to |mu| = 4.3e307, where the traces leave the float range; the
        # growth of the log-scale there overflows too, which must stay quiet
        a = [[0.0256, -0.03, 0.0184], [-0.03, 0.0018, 0.0069], [0.0184, 0.0069, -0.0096]]
        doc = {
            "R": 6.25,
            "lambdas": [-0.249999, 0.154, 0.154],
            "q0": 0,
            "A": [[_entry(v) for v in row] for row in a],
            "B": [[_entry(float(i == j)) for j in range(3)] for i in range(3)],
            "regular_bc": {"type": "dirichlet"},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "spectrum", write_doc(doc), "--mu-max", "5")
        assert code == EXIT_NUMERICAL and out == "" and err.count("\n") == 1
        assert "F is not finite at |mu| = 4.31" in err


_TIP_ENTRY = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])


@st.composite
def operator_documents(draw):
    """Operator documents with q <= 2, valid or not in every field the CLI reads."""
    q = draw(st.integers(1, 2))
    lambdas = sorted(
        draw(
            st.lists(
                st.one_of(st.sampled_from([-0.25, -0.16, 0.0, 0.11]), st.floats(-0.25, 0.7)),
                min_size=q,
                max_size=q,
            )
        )
    )
    if draw(st.booleans()):  # diagonal tip rows: self-adjoint, rank-deficient where a row is 0
        a = [[draw(_TIP_ENTRY) if i == j else 0.0 for j in range(q)] for i in range(q)]
        b = [[draw(_TIP_ENTRY) if i == j else 0.0 for j in range(q)] for i in range(q)]
    else:
        a = [[draw(_TIP_ENTRY) for _ in range(q)] for _ in range(q)]
        b = [[draw(_TIP_ENTRY) for _ in range(q)] for _ in range(q)]
    kind = draw(st.sampled_from(["robin", "robin", "dirichlet", "bad"]))
    if kind == "robin":
        regular_bc = {"type": "robin", "alpha": draw(st.floats(-3.0, 3.0))}
    elif kind == "dirichlet":
        regular_bc = {"type": "dirichlet"}
    else:
        regular_bc = draw(
            st.sampled_from(
                [{"type": "neumann"}, {"type": "robin"}, {"type": "robin", "alpha": "x"}, {}, "robin"]
            )
        )
    return {
        "R": draw(st.floats(-1.0, 3.0)),
        "lambdas": lambdas,
        "q0": lambdas.count(-0.25),
        "A": [[_entry(v) for v in row] for row in a],
        "B": [[_entry(v) for v in row] for row in b],
        "regular_bc": regular_bc,
    }


# pytest captures numpy warnings before they reach the redirected stderr: make them fail
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(doc=operator_documents())
def test_exit_code_contract(doc):
    # every operator command: exit 0, 2 or 3, at most one line on stderr,
    # and no exception out of main
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in OPERATOR_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], path] + argv[1:])
            assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_NUMERICAL), argv
            assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
            assert (code == EXIT_OK) == (err.getvalue() == ""), (argv, err.getvalue())


class TestCone:
    def test_circle_degrees(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "cone", write_doc(circle_doc(), "cone.json"))
        assert code == EXIT_OK
        degrees = json.loads(out)["report"]["degrees"]
        assert abs(degrees["0"]["value"] - math.sqrt(2 * math.pi)) < 1e-12
        assert abs(degrees["1"]["value"] - math.pi**2 / 4.0) < 1e-12
        assert abs(degrees["2"]["value"] - math.sqrt(math.pi / 2.0)) < 1e-12

    def test_single_degree(self, write_doc, capsys):
        code, out, _ = run_cli(
            capsys, "cone", write_doc(circle_doc(), "cone.json"), "--degree", "1"
        )
        assert code == EXIT_OK
        degrees = json.loads(out)["report"]["degrees"]
        assert list(degrees) == ["1"]

    @pytest.mark.parametrize("fixture", ["circle_cone.json", "sphere_cone.json"])
    def test_no_warning_escapes(self, capsys, fixture):
        # the window notes are part of the payload, and the document is closed
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "cone", str(FIXTURES / fixture))
        assert code == EXIT_OK
        assert err == ""
        assert [str(w.message) for w in seen] == []
        notes = [n for d in json.loads(out)["report"]["degrees"].values() for n in d["warnings"]]
        assert len(notes) == (3 if fixture == "circle_cone.json" else 0)

    def test_windows_are_worked_out_once_per_degree_and_route(self, capsys, monkeypatch):
        # the payload reads P_k, the factors and the window notes from one
        # contribution_sets call per degree, and cone_determinant makes the
        # other: 8 for the four degrees of the sphere cone, with the payload the
        # public functions give degree by degree, to the byte
        path = str(FIXTURES / "sphere_cone.json")
        cone = cli.parse_cone_document(json.loads(Path(path).read_text(encoding="utf-8")))
        want = {}
        for k in range(cone.m + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                contrib = cone_mod.contribution_sets(cone, k)
                factors = cone_mod.component_report(cone, k)
                value = cone_mod.cone_determinant(cone, k)
            want[str(k)] = {
                "value": value,
                "window_active": contrib.window_active,
                "p_factor": contrib.p_factor,
                "factors": [
                    {"source": f.source, "nu": f.nu, "multiplicity": f.multiplicity, "value": f.value}
                    for f in factors
                ],
                "warnings": list(contrib.warnings),
            }
        calls = []
        sets = cone_mod.contribution_sets
        counted = lambda cone, k: calls.append(k) or sets(cone, k)  # noqa: E731
        monkeypatch.setattr(cone_mod, "contribution_sets", counted)
        monkeypatch.setattr(cli, "contribution_sets", counted)
        code, out, _ = run_cli(capsys, "cone", path)
        assert code == EXIT_OK
        assert len(calls) <= 8
        assert cli.serialize(json.loads(out)["report"]) == cli.serialize({"degrees": want})

    def test_incomplete_spectrum_is_numerical(self, write_doc, capsys):
        doc = circle_doc()
        doc["ccl_spectra"]["0"] = [[0.0, 1], [1.0, 2]]
        code, _, err = run_cli(capsys, "cone", write_doc(doc, "cone.json"))
        assert code == EXIT_NUMERICAL
        assert "complete" in err


class TestOtherCommands:
    def test_eval_f(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "eval-f", write_doc(kernel_doc()), "--mu", "3.141592653589793")
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert abs(rep["value"]["re"] - 1.0) < 1e-12

    def test_f_at_zero(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "f-at-zero", write_doc(bessel_doc()))
        assert code == EXIT_OK
        assert abs(json.loads(out)["report"]["f_zero"]) < 1e-12

    def test_eval_f_prints_every_finite_value(self, capsys):
        # F(348i) is finite although its log-scale passes 700; F(352i) is not.
        # mpmath at 40 digits gives 4.1731650189928669e302: the pinned value, the
        # product of the two channels' factors, is 6.9e-14 from it, within one
        # ulp (1.1e-13 relative) of its log-scale 705.66
        path = str(FIXTURES / "readme_two_channel.json")
        code, out, _ = run_cli(capsys, "eval-f", path, "--mu", "348j")
        assert code == EXIT_OK
        assert json.loads(out)["report"]["value"]["re"] == 4.173165018993154e302
        code, out, err = run_cli(capsys, "eval-f", path, "--mu", "352j")
        assert code == EXIT_NUMERICAL
        assert out == "" and "exceeds the float range" in err

    def test_eval_f_takes_one_kernel_pass(self, capsys, monkeypatch):
        # the value and the mantissa come from the same scaled result
        passes = []
        traces = SecularEvaluator._traces
        monkeypatch.setattr(
            SecularEvaluator, "_traces", lambda self, *a, **k: passes.append(a) or traces(self, *a, **k)
        )
        path = str(FIXTURES / "readme_two_channel.json")
        for mu, want in (("348j", EXIT_OK), ("352j", EXIT_NUMERICAL)):
            passes.clear()
            assert run_cli(capsys, "eval-f", path, "--mu", mu)[0] == want
            assert len(passes) == 1

    def test_eval_f_complex_argument(self, write_doc, capsys):
        # F(ix) = x sinh(x) for the nu=1/2 singular-branch fixture
        doc = {
            "R": 1.0,
            "lambdas": [0.0],
            "q0": 0,
            "A": [[_entry(1.0)]],
            "B": [[_entry(0.0)]],
            "regular_bc": {"type": "robin", "alpha": 0.0},
        }
        code, out, _ = run_cli(capsys, "eval-f", write_doc(doc), "--mu", "2j")
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert abs(rep["value"]["re"] - 2.0 * math.sinh(2.0)) < 1e-10

    def test_zeta(self, write_doc, capsys):
        code, out, _ = run_cli(
            capsys, "zeta", write_doc(bessel_doc()), "--s", "2", "--mu-max", "60"
        )
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert abs(rep["direct"] - rep["contour"]) < 1e-4 * abs(rep["contour"])

    def test_verify_asymptotics(self, write_doc, capsys):
        code, out, _ = run_cli(capsys, "verify-asymptotics", write_doc(bessel_doc()))
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert rep["strictly_decreasing"] is True
        assert len(rep["points"]) == 3

    def test_verify_asymptotics_heights_scale_with_length(self, write_doc, capsys):
        doc = dict(bessel_doc(), R=0.5, regular_bc={"type": "robin", "alpha": -1.0})
        code, out, _ = run_cli(capsys, "verify-asymptotics", write_doc(doc))
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert [p["x"] for p in rep["points"]] == [40.0, 80.0, 160.0]
        assert rep["strictly_decreasing"] is True

    def test_verify_contour(self, write_doc, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-contour",
            write_doc(bessel_doc()),
            "--s",
            "2",
            "--a-list",
            "8.2,14.4832",
        )
        assert code == EXIT_OK
        rep = json.loads(out)["report"]
        assert rep["strictly_decreasing"] is True and rep["theta"] == math.pi / 4.0

    def test_17_digit_serialization(self, write_doc, capsys):
        _, out, _ = run_cli(capsys, "f-at-zero", write_doc(kernel_doc()))
        # value 0 for this fixture; check a float field from det instead
        _, out, _ = run_cli(capsys, "det", write_doc(kernel_doc()))
        assert "0.66666666666" in out


def _scipy_after(code: str) -> set[str]:
    """The scipy modules in sys.modules after a fresh process runs ``code``."""
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(regsing.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def _scipy_after_command(*argv: str) -> set[str]:
    """The scipy modules a fresh ``regsing`` process leaves loaded after ``argv``."""
    call = f"main({list(argv)!r})"
    return _scipy_after(
        "import contextlib, io\nfrom regsing.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert {call} == 0"
    )


def test_cli_import_loads_no_scipy():
    # scipy.special (about 0.2 s of import) loads only on the first Bessel
    # evaluation off both axes in the annulus 1 < |w| <= 20 or a scalar Bessel
    # call, and the Gauss-Legendre table is written out, so scipy.linalg never
    # loads
    assert _scipy_after("import regsing.cli") == set()


def test_cli_import_does_not_load_scipy_integrate():
    # quadrature is Gauss-Legendre on a written-out table; scipy.integrate costs ~0.5 s of import
    assert "scipy.integrate" not in _scipy_after("import regsing.cli")


def test_cli_import_does_not_load_scipy_optimize():
    # roots are refined by the batched Newton iteration; scipy.optimize costs ~0.15 s of import
    assert "scipy.optimize" not in _scipy_after("import regsing.cli")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", str(FIXTURES / "readme_two_channel.json")),
        ("cone", str(FIXTURES / "circle_cone.json")),
        ("cone", str(FIXTURES / "sphere_cone.json")),
        ("det", str(FIXTURES / "readme_two_channel.json")),
        ("eval-f", str(FIXTURES / "readme_two_channel.json"), "--mu", "15j"),
    ],
    ids=["validate", "cone circle", "cone sphere", "det", "eval-f imaginary"],
)
def test_commands_without_bessel_functions_load_no_scipy(argv):
    # validation and the closed-form cone factors need numpy only; so does a
    # det at R = 1, whose kernel-order circle and finite-t arc lie inside the
    # series disk |mu R| <= 1, and F at mu = 15i, on the imaginary segment
    # |mu R| <= 20 that the series also sums
    assert _scipy_after_command(*argv) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", str(FIXTURES / "readme_two_channel.json")),
        ("zeta", str(FIXTURES / "readme_two_channel.json"), "--s", "2", "--mu-max", "300"),
    ],
    ids=["spectrum", "zeta"],
)
def test_spectrum_and_zeta_load_no_scipy(argv):
    # the real axis is a trapezoid sum of Hankel's integral up to |mu R| = 20
    # and Hankel's expansion beyond, and the direct zeta estimator's Hurwitz
    # zeta is written out: neither command loads any scipy module
    assert _scipy_after_command(*argv) == set()
