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
from regsing.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA, main

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

    @pytest.mark.parametrize("argv", OPERATOR_COMMANDS, ids=lambda argv: argv[0])
    def test_rank_deficient_operator_exits_2(self, write_doc, capsys, argv):
        # the evaluator's validation is the only one, and it is an input error
        doc = bessel_doc()
        doc["B"] = [[_entry(0.0)]]
        code, out, err = run_cli(capsys, argv[0], write_doc(doc), *argv[1:])
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err == "regsing: input error: operator failed validation: rank\n"

    @pytest.mark.parametrize("flags", [("--mu-max", "0"), ("--mu-max", "nan"), ("--mu", "1+")])
    def test_bad_flag_value_exits_2(self, write_doc, flags):
        with pytest.raises(SystemExit) as exc:
            main(["eval-f", write_doc(bessel_doc()), "--mu", "1"] + list(flags))
        assert exc.value.code == EXIT_SCHEMA


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
        # F(348i) is finite although its log-scale passes 700; F(352i) is not
        path = str(FIXTURES / "readme_two_channel.json")
        code, out, _ = run_cli(capsys, "eval-f", path, "--mu", "348j")
        assert code == EXIT_OK
        assert json.loads(out)["report"]["value"]["re"] == 4.173165018992681e302
        code, out, err = run_cli(capsys, "eval-f", path, "--mu", "352j")
        assert code == EXIT_NUMERICAL
        assert out == "" and "exceeds the float range" in err

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
        assert rep["strictly_decreasing"] is True

    def test_17_digit_serialization(self, write_doc, capsys):
        _, out, _ = run_cli(capsys, "f-at-zero", write_doc(kernel_doc()))
        # value 0 for this fixture; check a float field from det instead
        _, out, _ = run_cli(capsys, "det", write_doc(kernel_doc()))
        assert "0.66666666666" in out


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh ``import regsing.cli`` puts the module in sys.modules."""
    code = f"import regsing.cli, sys; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(regsing.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy_integrate():
    # quadrature is Gauss-Legendre on scipy.special nodes; scipy.integrate costs ~0.5 s of import
    assert not _loaded_by_cli_import("scipy.integrate")


def test_cli_import_does_not_load_scipy_optimize():
    # roots are refined by the batched Newton iteration; scipy.optimize costs ~0.15 s of import
    assert not _loaded_by_cli_import("scipy.optimize")
