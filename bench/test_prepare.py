"""Layer benchmarks of a determinant request and its preparation (pytest-benchmark).

Outside tier-1's ``testpaths``; run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_prepare.py --benchmark-json=bench/BENCH_<date>.json

The committed files add ``--benchmark-min-rounds=200 --benchmark-max-time=2``: on a
shared machine the minimum of many rounds is the figure that repeats.

Each benchmark times one call on a fixed diagonal operator of q = 1, 2 or 4
channels, like those of the perfbench det pool: the tip validation, the map
from kernel rows to boundary rows, the kernel table, the characteristic values
of the boundary polynomial, the evaluator build (validation, map and table
together) and the whole ``det_zeta_auto`` request.  ``extra_info`` records
the kernel passes and quadrature nodes the call spent, since wall time alone
hides algorithmic waste.
"""

import pytest

from regsing import determinant, eigenfunction, operators, special
from regsing.operators import Dirichlet, Robin, diagonal_spec, scalar_spec

OPERATORS = {
    1: scalar_spec(0.3, Robin(0.5)),
    2: diagonal_spec(
        [scalar_spec(0.0, Dirichlet(), r=2.0), scalar_spec(0.45, Dirichlet(), tip="singular", r=2.0)]
    ),
    4: diagonal_spec(
        [
            scalar_spec(nu, Robin(0.4), tip=tip, r=2.5)
            for nu, tip in ((0.0, "regular"), (0.2, "singular"), (0.55, "regular"), (0.9, "regular"))
        ]
    ),
}


def _calls(spec):
    """Each layer's callable and its one argument."""
    orders, _ = eigenfunction._boundary_map(spec)
    return {
        "validate": (operators.validate, spec),
        "boundary_map": (eigenfunction._boundary_map, spec),
        "kernel_table": (special.KernelTable, orders),
        "characteristic_values": (operators.characteristic_values, spec),
        "evaluator": (eigenfunction.SecularEvaluator, spec),
        "det_zeta_auto": (determinant.det_zeta_auto, spec),
    }


@pytest.mark.parametrize("q", sorted(OPERATORS))
@pytest.mark.parametrize("layer", list(_calls(OPERATORS[1])))
def test_prepare(benchmark, layer, q):
    function, arg = _calls(OPERATORS[q])[layer]
    benchmark.group = layer
    out = benchmark(function, arg)
    counts = {"passes": 0, "nodes": 0}  # no layer but the request makes a kernel pass
    if isinstance(out, determinant.DeterminantReport):
        counts = {key: out.diagnostics[key] for key in counts}
    benchmark.extra_info.update(q=q, **counts)
