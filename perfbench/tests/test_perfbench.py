"""Tests of the benchmark itself (not of regsing).

    PYTHONPATH=src python -m pytest -q perfbench/tests

Run from the repository root.  The tiny runs use ``--pool`` to cut the
generated inputs down to a few requests.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["det", "spectrum"])
def test_tiny_timed_run_prints_every_end_to_end_metric(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", "0", "--pool", "4"))
    _assert_metrics(res, SPEC["end_to_end"])


def test_tiny_traced_run_prints_every_layer_metric():
    res = _result(_run("--workload", "det", "--seed", "3", "--seconds", "0.1",
                       "--trace", "1", "--pool", "6"))
    _assert_metrics(res, SPEC["per_layer"])  # correct also means traced == untraced


def test_cli_timed_run_prints_every_end_to_end_metric():
    res = _result(_run("--workload", "cli", "--seed", "1", "--seconds", "0.1", "--trace", "0"))
    _assert_metrics(res, SPEC["end_to_end"])
    assert res["failed"] == 0


def test_benchmark_json_names_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["det", "spectrum", "cli"]
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "latency_ms_p50", "latency_ms_p90", "throughput_rps", "peak_rss_mb",
    }


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "det", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("make", [inputs.det_cases, inputs.spectrum_cases])
def test_one_seed_regenerates_identical_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_pool_composition_is_the_same_for_every_seed():
    def kinds(cases):
        return sorted((c.q, c.kernel, c.robin, c.r == 1.0) for c in cases)

    assert kinds(inputs.det_cases(1)) == kinds(inputs.det_cases(2))


@pytest.mark.parametrize("make", [inputs.det_cases, inputs.spectrum_cases])
def test_timed_operators_have_no_eigenvalue_at_or_below_zero_but_kernels(make):
    for seed in (1, 2, 3):
        for case in make(seed):
            w = [case.beta + ch.order + 0.5 for ch in case.channels] if case.robin else []
            if case.kernel:
                assert case.q == 1 and abs(w[0]) < 1e-12 and case.r <= inputs.KERNEL_R_MAX
            else:
                assert all(x >= inputs.W_MIN - 1e-12 for x in w)


def test_spectrum_operators_keep_their_first_root_outside_the_zeta_contour():
    for case in inputs.spectrum_cases(1):
        first = min(oracle.first_root(ch.order, case.robin, case.beta) for ch in case.channels)
        assert first / case.r >= inputs.SPECTRUM_MU_MIN * (1 - 1e-12)


def test_edge_pool_holds_the_known_failures():
    """Negative eigenvalues and kernels of diagonal operators stay measured."""
    cases = inputs.edge_cases("det", 1)
    assert any(c.robin and c.beta < -ch.order - 0.5 for c in cases for ch in c.channels)
    assert any(c.kernel and c.q > 1 for c in cases)
    assert max(c.r for c in cases) > 20


def test_cli_cycle_is_seeded():
    assert inputs.cli_cycle(4) == inputs.cli_cycle(4)
    assert sorted(map(str, inputs.cli_cycle(4))) == sorted(map(str, inputs.CLI_CYCLE))


def test_oracles_accept_the_acceptance_fixtures():
    """Criteria 01, 02 and 04 through the program and the oracles."""
    assert oracle.acceptance_gate() == []


def test_kernel_oracle_gives_the_quoted_constants():
    for nu, tip, alpha, want in oracle.KERNEL_CONSTANTS:
        case = inputs.Case(1.0, True, alpha, (inputs.Channel(nu, tip),), True)
        value, k0 = oracle.det_expected(case)
        assert k0 == 1 and abs(value - want) <= 1e-12


def test_oracle_rejects_a_wrong_determinant():
    case = inputs.Case(2.0, True, 0.4, (inputs.Channel(0.3, "regular"),), False)
    want, _ = oracle.det_expected(case)
    assert oracle.check_det(case, (want, "closed_form", 0, want)) is None
    assert oracle.check_det(case, (want * (1 + 1e-9), "closed_form", 0, want)) is not None
    assert oracle.check_det(case, (want, "closed_form", 0, want * (1 + 1e-5))) is not None


def test_meter_scales_each_request_by_the_slices_around_it():
    meter = calib.Meter()
    meter.samples = [calib.NOMINAL_MS] * 5 + [2 * calib.NOMINAL_MS] * 5
    scales = meter.scales()
    assert len(scales) == 10
    assert scales[:3] == [1.0] * 3
    assert scales[-3:] == [0.5] * 3


def test_tracer_uninstall_restores_the_program():
    from regsing import determinant, eigenfunction

    before = (eigenfunction.SecularEvaluator.scaled, determinant.det_zeta_auto)
    tracer = spans.Tracer()
    tracer.install()
    assert eigenfunction.SecularEvaluator.scaled is not before[0]
    tracer.uninstall()
    assert (eigenfunction.SecularEvaluator.scaled, determinant.det_zeta_auto) == before
    assert tracer.missing == []
