"""Layer benchmarks of a determinant request and its preparation (pytest-benchmark).

Outside tier-1's ``testpaths``; run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_prepare.py --benchmark-json=bench/BENCH_<date>.json

The committed files add ``--benchmark-min-rounds=200 --benchmark-max-time=2``: on a
shared machine the minimum of many rounds is the figure that repeats.

Each benchmark times one call on a fixed operator: diagonal ones of q = 1, 2
and 4 channels, like those of the perfbench det pool, and coupled ones of
q = 2 and 4, so that both sides of the diagonal selection are timed (a
diagonal tip is prepared channel by channel, with no LAPACK call; a coupled
one takes an SVD and a stacked determinant).  The layers are the tip
validation, the request's channels (Gamma at each kernel order), the map from
kernel rows to boundary rows, the kernel table, the characteristic values of
the boundary polynomial, the evaluator build (all of these together), the
Taylor circle from the request's probe values through its power sums (the
DFT, the kernel order and Newton's identities), the finite-t arc from the
values of its first round, which the request's one kernel pass gives, and
the whole ``det_zeta_auto`` request.  ``extra_info``
records the kernel passes and quadrature nodes the call spent, since wall
time alone hides algorithmic waste.
"""

import numpy as np
import pytest

from regsing import determinant, eigenfunction, operators, special
from regsing.circle import TaylorCircle
from regsing.operators import (
    BoundaryMatrices,
    Dirichlet,
    OperatorSpec,
    Robin,
    diagonal_spec,
    scalar_spec,
)


def _coupled(nus, a_mat, bc):
    """The tip (A, I) with the symmetric A: self-adjoint, every channel coupled."""
    return OperatorSpec(
        r=1.0,
        lambdas=tuple(nu * nu - 0.25 for nu in nus),
        q0=0,
        boundary=BoundaryMatrices(np.array(a_mat), np.eye(len(nus))),
        regular_bc=bc,
    )


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
    "2-coupled": _coupled((0.2, 0.7), [[-0.5, 0.2], [0.2, -0.1]], Robin(1.0)),
    "4-coupled": _coupled(
        (0.1, 0.3, 0.55, 0.8),
        [[-0.5, 0.2, 0.0, 0.1], [0.2, -0.1, 0.05, 0.0], [0.0, 0.05, 0.3, 0.1], [0.1, 0.0, 0.1, 0.2]],
        Robin(1.0),
    ),
}


def _circle_sums(values, r, q):
    """A Taylor circle built from F at its points, and its power sums."""
    return TaylorCircle(values, r, q).power_sums


def _calls(spec):
    """Each layer's callable and its arguments."""
    diagonal = operators.diagonal_tip(spec.boundary)
    ch = operators.channels(spec, diagonal)
    ev = eigenfunction.SecularEvaluator(spec)
    t = determinant._CONTOUR_TR / spec.r
    first = determinant._arc_pass(ev, t)
    return {
        "validate": (operators.validate, spec, diagonal),
        "channels": (operators.channels, spec, diagonal),
        "boundary_map": (eigenfunction._boundary_map, spec, ch),
        "kernel_table": (special.KernelTable, list(ch.gamma), ch.gamma),
        "characteristic_values": (operators.characteristic_values, spec, ch),
        "evaluator": (eigenfunction.SecularEvaluator, spec),
        "taylor_circle": (_circle_sums, ev.circle.values, spec.r, spec.q),
        "finite_t_arc": (determinant._finite_t, ev, t, first, ev.circle.zero_free_margin(t)),
        "det_zeta_auto": (determinant.det_zeta_auto, spec),
    }


@pytest.mark.parametrize("q", list(OPERATORS))
@pytest.mark.parametrize("layer", list(_calls(OPERATORS[1])))
def test_prepare(benchmark, layer, q):
    function, *args = _calls(OPERATORS[q])[layer]
    benchmark.group = layer
    out = benchmark(function, *args)
    counts = {"passes": 0, "nodes": 0}  # no layer but the request makes a kernel pass
    if isinstance(out, determinant.DeterminantReport):
        counts = {key: out.diagnostics[key] for key in counts}
    benchmark.extra_info.update(q=q, **counts)
