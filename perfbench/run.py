#!/usr/bin/env python3
"""The regsing benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload det|spectrum|cli --seed N --seconds S --trace 0|1

Run it from the repository root; the program is imported from ``./src``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; lines before it start with ``#``.  See README.md in this
directory for the workloads and the metrics.
"""

import os

# one BLAS / OpenMP thread, fixed before numpy loads; children inherit it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("det", "spectrum", "cli")
SETUP_PROBES = 9
IMPORT_PROBES = 3
WARMUP_REQUESTS = 3


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing program, broken probe)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--pool", type=int, default=None,
                   help="use only the first N generated inputs (quick checks)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "warnings": "timed runs ignore all warnings; CLI children use Python's default filter",
    }


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int, n: int, meter=None) -> tuple[list[float], list[float]]:
    """Spawn n fresh probe processes, one at a time, with ``meter``'s
    reference slices before each; return (seconds to ready, import ms)."""
    import workloads

    ready, imports = [], []
    for _ in range(n):
        if meter is not None:
            meter.tick()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, env=workloads.child_env(ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        with workloads.watchdog(proc):
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise BenchmarkError(f"set-up probe failed: {err.strip()[-500:]}")
        ready.append(t1 - t0)
        imports.append(float(line.split()[1]))
    return ready, imports


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def latencies(outcomes) -> list[float]:
    """Wall time of every successful request of the run, in ms."""
    return [o.seconds * 1e3 for o in outcomes if o.failure is None]


def end_to_end(outcomes, scales, setup: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics, with each request's time multiplied by its
    entry of ``scales`` (calib.Meter.scales); ``setup`` is already scaled."""
    import workloads

    ms = [o.seconds * 1e3 * f for o, f in zip(outcomes, scales) if o.failure is None] or [math.nan]
    return {
        "setup_s": statistics.median(setup),
        "latency_ms_p50": workloads.percentile(ms, 50),
        "latency_ms_p90": workloads.percentile(ms, 90),
        "throughput_rps": 1e3 * len(ms) / sum(ms),
        "peak_rss_mb": peak_rss_mb,
    }


def _crosscheck_missing(det_outputs) -> float:
    """Share of det reports whose finite-t cross-check is a string."""
    fts = [out[3] for out in det_outputs if out is not None and out[3] is not None]
    return sum(isinstance(ft, str) for ft in fts) / len(fts) if fts else 0.0


CLI_COMMANDS = ("validate", "det", "cone", "spectrum", "zeta")


def _cli_extras(untraced, import_ms: float) -> dict:
    out = {"cli.import_ms": import_ms}
    for cmd in CLI_COMMANDS:
        times = [o.seconds * 1e3 for o in untraced
                 if o.extra.get("command") == cmd and o.failure is None]
        out[f"cli.run_ms.{cmd}"] = statistics.median(times) - import_ms if times else 0.0
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _library_inputs(args):
    """The run's inputs, after a few untimed warm-up requests."""
    import workloads

    cases, specs = workloads.library_inputs(args.workload, args.seed, args.pool)
    for k in range(min(WARMUP_REQUESTS, len(cases))):
        workloads.library_request(args.workload, k, cases[k], specs[k])
    return cases, specs


def timed_library(args, run_dir):
    import calib
    import workloads

    cases, specs = _library_inputs(args)
    meter = calib.Meter()
    t0 = time.perf_counter()
    outcomes = workloads.run_library(args.workload, cases, specs, args.seconds, meter)
    loop_seconds = time.perf_counter() - t0
    deterministic = workloads.check_library(args.workload, cases, outcomes)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcomes, loop_seconds, meter, deterministic, peak


def timed_cli(args, run_dir):
    import calib
    import workloads

    meter = calib.Meter()
    t0 = time.perf_counter()
    outcomes = workloads.run_cli(ROOT, run_dir, args.seed, args.seconds, meter)
    loop_seconds = time.perf_counter() - t0
    deterministic = workloads.check_cli(outcomes)
    peak = max(o.extra["maxrss_kb"] for o in outcomes) / 1024.0
    return outcomes, loop_seconds, meter, deterministic, peak


def _overhead_ms(untraced, traced) -> float:
    """Median over successful inputs of traced minus untraced wall time."""
    diffs = [(b.seconds - a.seconds) * 1e3 for a, b in zip(untraced, traced) if a.failure is None]
    return statistics.median(diffs) if diffs else 0.0


def traced_library(args, run_dir):
    """One pass in which each input runs untraced, then traced, back to back."""
    import spans
    import workloads

    cases, specs = _library_inputs(args)
    tracer = spans.Tracer()
    untraced, traced = [], []
    for k, (case, spec) in enumerate(zip(cases, specs)):
        untraced.append(workloads.library_request(args.workload, k, case, spec))
        tracer.install()
        tracer.begin_request(k)
        try:
            traced.append(workloads.library_request(args.workload, k, case, spec))
        finally:
            tracer.uninstall()
    tracer.save(OUT / f"spans-{args.workload}.npz")  # latest traced run only
    identical = all(
        workloads.canonical(a.output) == workloads.canonical(b.output) and a.error == b.error
        for a, b in zip(untraced, traced)
    )
    deterministic = workloads.check_library(args.workload, cases, untraced)
    metrics = spans.layer_metrics(tracer.table(), len(traced), {k: c.q for k, c in enumerate(cases)})
    det_outputs = [o.output for o in untraced] if args.workload == "det" else []
    metrics["determinant.crosscheck_missing_share"] = _crosscheck_missing(det_outputs)
    _, imports = probe_setup(args.workload, args.seed, IMPORT_PROBES)
    metrics.update(_cli_extras([], statistics.median(imports)))
    metrics["trace.overhead_ms"] = _overhead_ms(untraced, traced)
    metrics["edge.fail_ratio"] = workloads.edge_fail_ratio(args.workload, args.seed)
    return untraced, identical and deterministic, metrics, tracer.missing


def traced_cli(args, run_dir):
    """One cycle in which each CLI request runs untraced, then traced."""
    import inputs
    import spans
    import workloads

    untraced, traced = [], []
    for k, item in enumerate(inputs.cli_cycle(args.seed)):
        untraced.append(workloads.cli_request(ROOT, run_dir, k, item, f"cli-u-{k}"))
        traced.append(workloads.cli_request(ROOT, run_dir, k, item, f"cli-t-{k}", trace_id=k))
    identical = all(a.output == b.output and a.error == b.error for a, b in zip(untraced, traced))
    deterministic = workloads.check_cli(untraced)
    loaded = []
    for o in traced:
        path = run_dir / f"{o.extra['tag']}.trace.npz"
        if path.exists():
            loaded.append(spans.load(path))
    metrics = spans.layer_metrics(spans.SpanTable(loaded), len(traced), {k: 2 for k in range(len(traced))})
    dets = []
    for o in untraced:
        if o.extra["command"] == "det" and o.error is None:
            ft = json.loads(o.output)["report"]["diagnostics"].get("finite_t_value")
            dets.append((None, None, None, ft))
    metrics["determinant.crosscheck_missing_share"] = _crosscheck_missing(dets)
    imports = [meta["extra"]["import_ms"] for _, meta in loaded]
    metrics.update(_cli_extras(untraced, statistics.median(imports) if imports else 0.0))
    metrics["trace.overhead_ms"] = _overhead_ms(untraced, traced)
    edge = [workloads.cli_request(ROOT, run_dir, k, item, f"cli-e-{k}")
            for k, item in enumerate(inputs.CLI_EDGE)]
    workloads.check_cli(edge)
    metrics["edge.fail_ratio"] = sum(o.failure is not None for o in edge) / len(edge)
    missing = sorted({m for _, meta in loaded for m in meta["missing"]})
    return untraced, identical and deterministic, metrics, missing


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _failure_classes(outcomes, top: int = 8) -> list[str]:
    classes = Counter((o.failure or "").split(":")[0][:60] for o in outcomes if o.failure)
    return [f"{n} x {name}" for name, n in classes.most_common(top)]


def run(args) -> dict:
    if not (ROOT / "src" / "regsing" / "__init__.py").is_file():
        raise BenchmarkError(f"no regsing sources under {ROOT / 'src'}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = OUT / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    import calib
    import oracle

    env = environment(args)
    env["cpu_affinity"] = pin_to_one_cpu()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    warnings.simplefilter("ignore")
    if args.trace:
        runner = traced_cli if args.workload == "cli" else traced_library
        outcomes, correct, metrics, missing = runner(args, run_dir)
        samples = {"traced_requests": len(outcomes), "missing_wrappers": missing}
    else:
        setup_meter = calib.Meter()
        setup, _ = probe_setup(args.workload, args.seed, SETUP_PROBES, setup_meter)
        setup_scaled = [t * f for t, f in zip(setup, setup_meter.scales())]
        runner = timed_cli if args.workload == "cli" else timed_library
        outcomes, loop_seconds, meter, correct, peak = runner(args, run_dir)
        metrics = end_to_end(outcomes, meter.scales(), setup_scaled, peak)
        unscaled = end_to_end(outcomes, [1.0] * len(outcomes), setup, peak)
        samples = {
            "setup_probes": len(setup),
            "latency_samples": len(latencies(outcomes)),
            "passes": len(outcomes) // max(1, len({o.key for o in outcomes})),
            "loop_seconds": loop_seconds,
            "reference_median_ms": meter.median_ms(),
            "unscaled": {k: unscaled[k] for k in ("setup_s", "latency_ms_p50", "latency_ms_p90", "throughput_rps")},
        }
        (run_dir / "requests.json").write_text(json.dumps({
            "ms": [o.seconds * 1e3 for o in outcomes],
            "ok": [o.failure is None for o in outcomes],
            "reference_ms": meter.samples,
            "setup_s": setup,
            "setup_reference_ms": setup_meter.samples,
        }))
    gate = oracle.acceptance_gate()
    failed = sum(o.failure is not None for o in outcomes)
    record = {
        "env": env,
        "samples": samples,
        "acceptance_gate": gate or "pass",
        "failure_classes": _failure_classes(outcomes),
        "result": {
            "correct": bool(correct and not gate and failed < len(outcomes)),
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2))
    return record


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU; return it.

    The reference slices (calib.py) then measure the CPU the requests,
    set-up probes and CLI children run on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"# env {json.dumps(record['env'])}")
    print(f"# samples {json.dumps(record['samples'])}")
    print(f"# acceptance gate: {record['acceptance_gate']}")
    for line in record["failure_classes"]:
        print(f"# failures: {line}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
