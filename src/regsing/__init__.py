"""Spectra and zeta determinants of regular-singular Sturm-Liouville operators."""

from .cone import ConeSpec, component_report, cone_determinant, contribution_sets
from .determinant import (
    DeterminantReport,
    det_wronskian_scalar,
    det_zeta_auto,
    det_zeta_closed_form,
    det_zeta_finite_t,
    det_zeta_regularized,
    zeta_eval,
)
from .eigenfunction import (
    AsymptoticModel,
    SecularEvaluator,
    Spectrum,
    eval_F,
    eval_F_at_zero,
    find_spectrum,
    verify_contour_decay,
)
from .operators import (
    BoundaryMatrices,
    Dirichlet,
    OperatorSpec,
    Robin,
    characteristic_values,
    diagonal_spec,
    scalar_spec,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticModel",
    "BoundaryMatrices",
    "ConeSpec",
    "DeterminantReport",
    "Dirichlet",
    "OperatorSpec",
    "Robin",
    "SecularEvaluator",
    "Spectrum",
    "characteristic_values",
    "component_report",
    "cone_determinant",
    "contribution_sets",
    "det_wronskian_scalar",
    "det_zeta_auto",
    "det_zeta_closed_form",
    "det_zeta_finite_t",
    "det_zeta_regularized",
    "diagonal_spec",
    "eval_F",
    "eval_F_at_zero",
    "find_spectrum",
    "scalar_spec",
    "validate",
    "verify_contour_decay",
    "zeta_eval",
]
