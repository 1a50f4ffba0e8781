"""Layer benchmarks of a spectrum request (pytest-benchmark).

Outside tier-1's ``testpaths``; run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_spectrum.py --benchmark-json=bench/BENCH_<date>.json

The committed files add ``--benchmark-min-rounds=200 --benchmark-max-time=2``, as
for ``bench/test_prepare.py``.

Each benchmark times one layer of ``find_spectrum`` on a fixed operator: a
one-channel and a four-channel diagonal tip, like those of the perfbench
spectrum pool, and a coupled two-channel tip, each with ``mu_max`` for 30
roots per channel.  The layers are the whole search (``find_spectrum``, the
evaluator's build included); the scan (``_scan``: the kernel passes that count
and bracket every root, and the Taylor step inside it); the Taylor step alone
(``_taylor``: each real bracket's root from its factor's Taylor polynomial,
from the kernel rows the scan sampled; a coupled tip has none); and the
refinement (``_refine``: the Newton rounds, each a kernel pass, over every
bracket from its Hermite start, as if no Taylor root stood).  Each but the
first is timed on a prepared evaluator whose kernel tables are built.
``extra_info`` records the kernel passes one call makes and how many roots
the Taylor polynomials and the Newton rounds gave.
"""

import math
from unittest import mock

import numpy as np
import pytest

from regsing import eigenfunction
from regsing.operators import BoundaryMatrices, OperatorSpec, Robin, diagonal_spec, scalar_spec

OPERATORS = {
    1: scalar_spec(0.3, Robin(0.5)),
    4: diagonal_spec(
        [
            scalar_spec(nu, Robin(0.4), tip=tip, r=2.5)
            for nu, tip in ((0.0, "regular"), (0.2, "singular"), (0.55, "regular"), (0.9, "regular"))
        ]
    ),
    "2-coupled": OperatorSpec(
        r=1.0,
        lambdas=(0.2**2 - 0.25, 0.7**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices(np.array([[-0.5, 0.2], [0.2, -0.1]]), np.eye(2)),
        regular_bc=Robin(1.0),
    ),
}


def _prepared(spec):
    """An evaluator that has scanned once, ``mu_max``, the arguments of its Taylor step
    (None on a coupled tip) and every bracket with its Hermite start."""
    ev = eigenfunction.SecularEvaluator(spec)
    mu_max = 30.0 * math.pi / (ev.width * spec.r)
    taylor, seen = eigenfunction._taylor, {}

    def recorded(*args):
        seen["args"] = args
        return taylor(*args)[0], np.zeros(len(args[1]), dtype=bool)

    with mock.patch.object(eigenfunction, "_taylor", recorded):
        brackets, _, _ = eigenfunction._scan(ev, mu_max)
    return ev, mu_max, seen.get("args"), brackets


def _layer(layer, spec):
    """The layer's callable and its arguments, and its counts from one call's value
    and the evaluator's passes in that call."""
    ev, mu_max, taylor_args, brackets = _prepared(spec)
    if layer == "find_spectrum":
        return (eigenfunction.find_spectrum, spec, mu_max), ev, lambda out, _: {
            "passes": out.passes, "taylor_roots": out.taylor_roots, "refined_roots": out.refined_roots
        }
    if layer == "scan":
        return (eigenfunction._scan, ev, mu_max), ev, lambda out, passes: {
            "passes": passes, "taylor_roots": out[2], "refined_roots": len(out[0])
        }
    if layer == "taylor":
        return (eigenfunction._taylor, *taylor_args), ev, lambda out, passes: {
            "passes": passes, "taylor_roots": int(np.count_nonzero(out[1])), "refined_roots": 0
        }
    return (eigenfunction._refine, ev, brackets), ev, lambda out, passes: {
        "passes": passes, "taylor_roots": 0, "refined_roots": len(out)
    }


@pytest.mark.parametrize(
    "layer, q",
    [(layer, q) for layer in ("find_spectrum", "scan", "taylor", "refine") for q in OPERATORS
     if (layer, q) != ("taylor", "2-coupled")],  # a coupled tip takes no Taylor step
)
def test_spectrum(benchmark, layer, q):
    (function, *args), ev, counts = _layer(layer, OPERATORS[q])
    before = ev.counts["passes"]
    out = function(*args)  # the counts of one call
    info = counts(out, ev.counts["passes"] - before)
    benchmark.group = layer
    benchmark(function, *args)
    benchmark.extra_info.update(q=q, **info)
