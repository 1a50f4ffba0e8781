"""Requests of each workload, the closed loop that times them, and checking.

A request goes through module attributes looked up at call time
(``determinant.det_zeta_auto``), so the traced run's wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle

EXIT_OK = 0
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """One request as the loop saw it."""

    key: int  # index of the input in its pool / cycle
    seconds: float
    output: object = None
    error: str | None = None
    failure: str | None = None  # filled in by checking
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# library requests
# ---------------------------------------------------------------------------

def det_request(spec, case):
    from regsing import determinant

    rep = determinant.det_zeta_auto(spec)
    ft = rep.diagnostics.get("finite_t_value")
    return (rep.value, rep.method, rep.kernel_dim_proxy, ft)


def spectrum_request(spec, case):
    from regsing import determinant, eigenfunction

    sp = eigenfunction.find_spectrum(spec, case.mu_max)
    z = determinant.zeta_eval(spec, inputs.ZETA_S, spectrum=sp)
    return (sp.positive, sp.negative, z.direct, z.contour)


LIBRARY = {
    "det": (det_request, oracle.check_det),
    "spectrum": (spectrum_request, oracle.check_spectrum_request),
}


def library_inputs(workload: str, seed: int, pool: int | None = None):
    """The seeded cases and their regsing operators, in request order."""
    cases = inputs.CASES[workload](seed)[:pool]
    return cases, [inputs.build_spec(c) for c in cases]


MIN_PASSES = 2


def _more(cycle: int, started: float, seconds: float) -> bool:
    """Whether to start another pass: at least MIN_PASSES, then while one
    more pass of the mean length so far ends within ``seconds``."""
    if cycle < MIN_PASSES:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / cycle <= seconds


def library_request(workload: str, k: int, case, spec) -> Outcome:
    """Run one request on input k and time it."""
    request, _ = LIBRARY[workload]
    t0 = time.perf_counter()
    try:
        out, err = request(spec, case), None
    except Exception as exc:  # every failure is counted, the loop goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    return Outcome(k, time.perf_counter() - t0, out, err)


def run_library(workload: str, cases, specs, seconds: float, meter):
    """Closed loop, one client: whole passes over the pool for about
    ``seconds`` (at least two), with ``meter``'s reference slices between
    requests."""
    outcomes = []
    started = time.perf_counter()
    c = 0
    while _more(c, started, seconds):
        for k, (case, spec) in enumerate(zip(cases, specs)):
            meter.tick()
            outcomes.append(library_request(workload, k, case, spec))
        c += 1
    return outcomes


def edge_fail_ratio(workload: str, seed: int) -> float:
    """Share of failed requests in one untimed pass over the edge pool."""
    cases = inputs.edge_cases(workload, seed)
    outcomes = [library_request(workload, k, c, inputs.build_spec(c)) for k, c in enumerate(cases)]
    check_library(workload, cases, outcomes)
    return sum(o.failure is not None for o in outcomes) / len(outcomes)


def check_library(workload: str, cases, outcomes) -> bool:
    """Fill in each outcome's failure; return False if outputs were not deterministic.

    A pool input that repeats must give a bit-identical output, so each
    distinct input is checked against its oracle once.
    """
    _, check = LIBRARY[workload]
    first: dict[int, Outcome] = {}
    deterministic = True
    for o in outcomes:
        seen = first.get(o.key)
        if seen is None:
            first[o.key] = o
            if o.error is None:
                try:
                    o.failure = check(cases[o.key], o.output)
                except (ValueError, ArithmeticError) as exc:
                    o.failure = f"output cannot be checked: {exc}"
            else:
                o.failure = o.error
            continue
        if canonical(o.output) != canonical(seen.output) or o.error != seen.error:
            deterministic = False
        o.failure = seen.failure
    return deterministic


def canonical(value):
    """A representation equal only for bit-identical outputs."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return repr(value)


# ---------------------------------------------------------------------------
# CLI requests: cold processes, one at a time
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONWARNINGS", None)  # children run with Python's default filter
    return env


def spawn(argv, root: Path, out_dir: Path, tag: str):
    """Run one child to completion; return (seconds, exit code, stdout, stderr, rusage)."""
    out_path = out_dir / f"{tag}.out"
    err_path = out_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=out, stderr=err)
        with watchdog(proc):
            _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage


class watchdog:
    """Kill ``proc`` if it is still running after CHILD_TIMEOUT_S."""

    def __init__(self, proc):
        self._timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)

    def __enter__(self):
        self._timer.start()
        return self

    def __exit__(self, *exc):
        self._timer.cancel()
        self._timer.join()


def cli_argv(command: str, doc: Path, flags, traced: bool) -> list[str]:
    if traced:
        head = [sys.executable, str(Path(__file__).resolve().parent / "clichild.py")]
    else:
        head = [sys.executable, "-m", "regsing.cli"]
    return head + [command, str(doc)] + list(flags)


def cli_request(root: Path, out_dir: Path, k: int, item, tag: str, trace_id=None) -> Outcome:
    """One cold CLI process for plan item k; traced when ``trace_id`` is given."""
    command, doc, flags = item
    argv = cli_argv(command, doc, flags, trace_id is not None)
    if trace_id is not None:
        argv += ["--trace-out", str(out_dir / f"{tag}.trace.npz"), "--request-id", str(trace_id)]
    elapsed, code, out, err, usage = spawn(argv, root, out_dir, tag)
    o = Outcome(k, elapsed, out, None if code == EXIT_OK else f"exit {code}: {err[-300:]!r}")
    o.extra = {"command": command, "doc": doc.name, "flags": flags,
               "maxrss_kb": usage.ru_maxrss, "tag": tag}
    return o


def run_cli(root: Path, out_dir: Path, seed: int, seconds: float, meter):
    """Whole cycles of the CLI requests for about ``seconds`` (at least two),
    with ``meter``'s reference slices between requests."""
    plan = inputs.cli_cycle(seed)
    outcomes = []
    started = time.perf_counter()
    c = 0
    while _more(c, started, seconds):
        for k, item in enumerate(plan):
            meter.tick()
            outcomes.append(cli_request(root, out_dir, k, item, f"cli-{c}-{k}"))
        c += 1
    return outcomes


def check_cli(outcomes) -> bool:
    """Fill in failures of CLI outcomes; return False if reruns were not byte-identical."""
    first: dict[int, bytes] = {}
    deterministic = True
    for o in outcomes:
        if o.key in first and first[o.key] != o.output:
            deterministic = False
        first.setdefault(o.key, o.output)
        if o.error is not None:
            o.failure = o.error
            continue
        try:
            envelope = json.loads(o.output)
            flags = o.extra["flags"]
            mu_max = float(flags[flags.index("--mu-max") + 1]) if "--mu-max" in flags else 100.0
            case = None if o.extra["command"] == "cone" else inputs.doc_case(
                inputs.FIXTURES / o.extra["doc"])
            o.failure = oracle.check_cli(
                o.extra["command"], o.extra["doc"], envelope["report"], case, mu_max
            )
        except (ValueError, KeyError, TypeError) as exc:
            o.failure = f"unreadable report: {exc}"
    return deterministic


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
