"""Zeta-regularized determinants and zeta-function estimators.

Three independent routes to det_zeta:

* `det_zeta_closed_form`: kernel-free operators, from F(0), the
  boundary-polynomial triple (alpha0, j0, a0) and the normalization
  constants.
* `det_zeta_finite_t`: the finite-t identity
      Q = -log(F(it) / (C (-1)^(q0-j0))) + (j0-q0)(gamma + log 2)
          - (1/ pi i) * int_{gamma_t} log(mu) F'/F dmu,
  det = exp(-Q), with gamma_t the right-half-plane semicircle of radius
  t from it to -it.  The value is t-independent for t below the first
  zero of F; used as a cross-check.
* `det_zeta_regularized`: nonzero kernel of order k0, via
  F~(mu) = F(mu)/mu^(2 k0), det = F~(0) / ((-1)^k0 C).

`log mu` and `mu^(-2s)` on gamma_t use the principal branch, which is
continuous on the right-half-plane arc; that choice is forced by exact
t-independence of Q (a branch jumping by 2 pi i across the positive
real axis would add a t-dependent defect).

`det_wronskian_scalar` is the independent scalar oracle
sqrt(2 pi) W / (2^nu Gamma(1+nu)) with W = alpha + nu + 1/2 (Robin,
normalized solutions x^(nu+1/2) and psi(1)=1) or W = 1 (Dirichlet); it
is valid for every nu >= 0, beyond the matrix core's nu < 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import exp1
from scipy.special import zeta as hurwitz_zeta

from ._numutil import NumericalError, gauss_legendre, neville_at_zero
from .eigenfunction import _KERNEL_PROBES, _REAL_RESIDUE_TOL, SecularEvaluator, Spectrum
from .operators import Dirichlet, OperatorSpec, RegularBC
from .special import EULER_GAMMA, gamma_fn


class KernelPresentError(NumericalError):
    """Closed form requested but ker L is nontrivial; use the regularized route."""


class RootInsideContourError(NumericalError):
    pass


class NegativeSpectrumError(NumericalError):
    """The operator has negative eigenvalues, which the route cannot take."""


@dataclass(frozen=True)
class DeterminantReport:
    value: float
    method: str  # closed_form | finite_t | wronskian | regularized
    kernel_dim_proxy: int
    log_singular: bool
    diagnostics: dict = field(default_factory=dict)


def _real(value: complex, what: str) -> float:
    """The real part of value, which must be real up to rounding."""
    if abs(value.imag) > _REAL_RESIDUE_TOL * (1.0 + abs(value)):
        raise NumericalError(f"{what} has a non-real residue: {value!r}")
    return value.real


def _as_positive_real(value: complex, what: str) -> float:
    v = _real(value, what)
    if not (v > 0.0) or not math.isfinite(v):
        raise NumericalError(f"{what} is not a positive real number: {v!r}")
    return v


def scalar_closed_form_value(nu: float, regular_bc: RegularBC) -> float:
    """Determinant of the scalar regular-branch extension on (0, 1], any nu >= 0.

    Robin: sqrt(2 pi) (alpha + nu + 1/2) / (Gamma(1+nu) 2^nu), requires
    alpha != -nu - 1/2 (kernel otherwise).  Dirichlet: the same with the
    Wronskian factor equal to 1.
    """
    if nu < 0.0:
        raise ValueError("nu must be >= 0")
    base = math.sqrt(2.0 * math.pi) / (gamma_fn(1.0 + nu) * 2.0**nu)
    if isinstance(regular_bc, Dirichlet):
        return base
    w = regular_bc.alpha + nu + 0.5
    if w == 0.0:
        raise KernelPresentError("alpha = -nu - 1/2 has a kernel; no closed-form value")
    return base * w


def det_wronskian_scalar(
    nu: float, regular_bc: RegularBC, r: float = 1.0
) -> float:
    """Scalar oracle sqrt(2 pi) W / (2^nu Gamma(1+nu)).

    W is the Wronskian of the tip-normalized solution phi(x) = x^(nu+1/2)
    against the end-normalized solution psi: W = alpha + nu + 1/2 for the
    Robin condition (psi(1) = 1, psi'(1) = -alpha), W = 1 under the
    Dirichlet normalization convention.  Unit interval only.
    """
    if r != 1.0:
        raise ValueError("the Wronskian normalization is quoted for R = 1")
    return scalar_closed_form_value(nu, regular_bc)


def det_zeta_closed_form(spec: OperatorSpec) -> DeterminantReport:
    """det_zeta from F(0) and the boundary-polynomial data (kernel-free)."""
    return _closed_form(SecularEvaluator(spec))


def _closed_form(ev: SecularEvaluator) -> DeterminantReport:
    spec, cv = ev.spec, ev.cv
    if ev.k0 != 0:
        raise KernelPresentError(
            f"kernel order {ev.k0} > 0; use det_zeta_regularized for this operator"
        )
    f0 = ev.f0
    raw = f0 * (-2.0 * math.exp(EULER_GAMMA)) ** (spec.q0 - cv.j0) / ev.model.c
    signed = _real(raw, "closed-form determinant")
    log_singular = cv.j0 != spec.q0
    diagnostics = {"f_zero": f0.real, "alpha0": cv.alpha0, "j0": cv.j0}
    if log_singular:
        # the defect-subtracted object carries the sign (-2 e^gamma)^(q0-j0);
        # the reported value is its modulus, the signed number goes to the
        # diagnostics
        diagnostics["defect_subtracted_signed"] = signed
        value = abs(signed)
        if not (value > 0.0 and math.isfinite(value)):
            raise NumericalError(f"closed-form determinant is degenerate: {raw!r}")
    else:
        if signed < 0.0:
            raise NegativeSpectrumError(
                f"closed-form determinant F(0)/C = {signed!r} is negative: "
                "the operator has an odd number of negative eigenvalues"
            )
        value = _as_positive_real(raw, "closed-form determinant")
    return DeterminantReport(
        value=value,
        method="closed_form",
        kernel_dim_proxy=0,
        log_singular=log_singular,
        diagnostics=diagnostics,
    )


def _scan_below(ev: SecularEvaluator, t: float) -> tuple[complex, float]:
    """Raise RootInsideContourError where F changes sign below |mu| = t on
    either axis; return the scaled F(it), the last sample of the same call."""
    x = np.linspace(t / 24.0, t, 24)
    if ev.f0_is_sample:
        x = np.concatenate(([0.0], x))
    mants, logs = ev.scaled(np.stack([x, 1j * x]))  # sign of F = sign of the mantissa
    for axis, signs in zip(("real", "imag"), mants.real):
        if np.any(signs[:-1] * signs[1:] < 0.0):
            raise RootInsideContourError(f"F has a zero below |mu| = {t} on the {axis} axis")
    return complex(mants[1, -1]), float(logs[1, -1])


def _gamma_t_integral(ev: SecularEvaluator, t: float, weight, k0: int = 0) -> complex:
    """Integral over the semicircle from it to -it (through +t) of weight(mu) * dlog F~."""

    def integrand(phi: np.ndarray) -> np.ndarray:
        mu = t * np.exp(1j * phi)
        dl = ev.dlog(mu)
        if k0:
            dl = dl - 2.0 * k0 / mu
        return weight(mu) * dl * 1j * mu

    # orientation: phi runs pi/2 -> -pi/2
    val, _ = gauss_legendre(integrand, (-0.5 * math.pi, 0.5 * math.pi))
    return -val


def det_zeta_finite_t(spec: OperatorSpec, t_abs: float) -> DeterminantReport:
    """Finite-t cross-check of the determinant (kernel-free operators).

    Exactly t-independent in exact arithmetic for any t below the first
    zero of F on either axis; with the analytic log-derivative on
    Gauss-Legendre panels the value matches the closed form to about
    1e-13 relative.
    """
    return _finite_t(SecularEvaluator(spec), t_abs)


def _finite_t(ev: SecularEvaluator, t_abs: float) -> DeterminantReport:
    if t_abs <= 0.0:
        raise ValueError("t_abs must be positive")
    if ev.k0 != 0:
        raise KernelPresentError("finite-t route needs a trivial kernel")
    # F(it) / (C sgn) = ratio * exp(log_scale), kept apart so that large t R cannot overflow
    mant, log_scale = _scan_below(ev, t_abs)
    spec, cv = ev.spec, ev.cv
    sgn = (-1.0) ** (spec.q0 - cv.j0)
    ratio = mant / (ev.model.c * sgn)
    if cv.j0 != spec.q0:
        # log-singular case: track the modulus, as in the closed form
        ratio = abs(_real(ratio, "F(it)/C ratio"))
        if ratio == 0.0:
            raise RootInsideContourError("F(it) vanished on the contour")
    else:
        ratio = _as_positive_real(ratio, "F(it) / (C (-1)^(q0-j0))")
    arc_term = _real(_gamma_t_integral(ev, t_abs, np.log) / (1j * math.pi), "gamma_t integral")
    log_ratio = math.log(ratio) + log_scale
    q_val = -log_ratio + (cv.j0 - spec.q0) * (EULER_GAMMA + math.log(2.0)) - arc_term
    value = math.exp(-q_val)
    try:
        f_it = mant.real * math.exp(log_scale)
    except OverflowError:  # F(it) is beyond the float range; the determinant above is not
        f_it = math.copysign(math.inf, mant.real)
    return DeterminantReport(
        value=value,
        method="finite_t",
        kernel_dim_proxy=0,
        log_singular=(cv.j0 != spec.q0),
        diagnostics={"t_abs": t_abs, "arc_term": arc_term, "f_it": f_it},
    )


# The gap between the last two extrapolation levels is a second-order
# quantity ~ (c2/c0) h1 h2 ~ 1e-8 for generic series, so the gate below
# is an instability guard, not the accuracy of the final value (which is
# third order, ~1e-12).
_RICHARDSON_RTOL = 1e-6


def det_zeta_regularized(spec: OperatorSpec) -> DeterminantReport:
    """det_zeta over the nonzero spectrum when ker L has order k0 >= 1.

    F~(mu) = F(mu)/mu^(2 k0) is extrapolated to 0 (order-2 Richardson in
    mu^2) from F at the last three probes of the kernel-order fit; with
    C~ = (-1)^k0 C, det = F~(0)/C~.  Only the j0 = q0 case is supported
    (no s log s defect interacting with the kernel).
    """
    return _regularized(SecularEvaluator(spec))


def _regularized(ev: SecularEvaluator) -> DeterminantReport:
    k0 = ev.k0
    if k0 == 0:
        raise NumericalError("kernel is trivial; use det_zeta_closed_form")
    if ev.cv.j0 != ev.spec.q0:
        raise NumericalError(
            "nonzero kernel with j0 != q0 is outside the supported regime"
        )
    mus = np.array(_KERNEL_PROBES)
    vs = ev._probes[-3:] / mus ** (2 * k0)
    f_tilde = [_real(v, f"F~({mu})") for mu, v in zip(_KERNEL_PROBES, vs.tolist())]
    f_tilde_0, prev = neville_at_zero((mus * mus).tolist(), f_tilde)
    if abs(f_tilde_0 - prev) > _RICHARDSON_RTOL * max(abs(f_tilde_0), 1e-300):
        raise NumericalError(
            f"Richardson extrapolation unstable: {f_tilde_0!r} vs {prev!r}"
        )
    c_tilde = (-1.0) ** k0 * ev.model.c
    value = _as_positive_real(f_tilde_0 / c_tilde, "F~(0)/C~")
    return DeterminantReport(
        value=value,
        method="regularized",
        kernel_dim_proxy=k0,
        log_singular=False,
        diagnostics={
            "f_tilde_zero": f_tilde_0,
            "c_tilde": c_tilde.real,
            "richardson_gap": abs(f_tilde_0 - prev),
        },
    )


def _default_t(spec: OperatorSpec, t_abs: float | None) -> float:
    """The contour radius: t_abs if given, else 0.1 / max(1, R)."""
    return 0.1 / max(1.0, spec.r) if t_abs is None else t_abs


def det_zeta_auto(spec: OperatorSpec, t_abs: float | None = None) -> DeterminantReport:
    """Closed form when the kernel is trivial, regularized otherwise.

    Cheap cross-checks (finite-t value at radius ``t_abs``, by default
    0.1 / max(1, R), and the scalar Wronskian oracle) are attached to
    the diagnostics when available; the Wronskian oracle is normalized
    for R = 1 and attached only there.
    """
    ev = SecularEvaluator(spec)
    if ev.k0:
        return _regularized(ev)
    report = _closed_form(ev)
    diag = report.diagnostics  # a fresh dict, owned by this report
    try:
        diag["finite_t_value"] = _finite_t(ev, _default_t(spec, t_abs)).value
    except NumericalError as exc:
        diag["finite_t_value"] = f"unavailable: {exc}"
    if (
        spec.q == 1
        and spec.r == 1.0
        and spec.boundary.b_mat[0, 0] != 0
        and spec.boundary.a_mat[0, 0] == 0
    ):
        diag["wronskian_value"] = det_wronskian_scalar(spec.nus[0], spec.regular_bc)
    return report


# ---------------------------------------------------------------------------
# Zeta function estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaReport:
    s: float
    direct: float | None
    direct_error: float | None
    contour: float
    contour_error: float


def _zeta_direct(s: float, spectrum: Spectrum) -> tuple[float, float]:
    roots = np.asarray(spectrum.positive)
    n = len(roots)
    if n < 10:
        raise NumericalError("direct zeta estimator needs at least 10 roots")
    if s <= 1.0 and n < 100:
        raise NumericalError("direct zeta estimator needs >= 100 roots for s <= 1")
    if spectrum.negative:
        raise NegativeSpectrumError(
            f"the spectrum has negative eigenvalues ({len(spectrum.negative)} found); "
            "the direct zeta estimator takes purely positive spectra"
        )
    head = float(np.sum(roots ** (-2.0 * s)))
    # asymptotically the counting function is linear in mu; fit the last 20%
    m = max(10, int(0.2 * n))
    idx = np.arange(n - m + 1, n + 1, dtype=float)
    mus = roots[-m:]
    dens, intercept = np.polyfit(mus, idx, 1)
    if dens <= 0.0:
        raise NumericalError("root density fit failed")
    a0 = n + 1 - intercept
    if a0 <= 0.0:
        raise NumericalError("tail start index is not positive")
    tail = dens ** (2.0 * s) * float(hurwitz_zeta(2.0 * s, a0))
    resid = idx - (dens * mus + intercept)
    sigma = float(np.sqrt(np.mean(resid**2))) / dens  # rms mu-deviation
    err = (
        2.0 * s * sigma * dens ** (2.0 * s + 1.0) * float(hurwitz_zeta(2.0 * s + 1.0, a0))
        + 1e-14 * abs(head)
    )
    return head + tail, err


def _zeta_contour(ev: SecularEvaluator, s: float, t_abs: float) -> tuple[float, float]:
    k0, cv, model = ev.k0, ev.cv, ev.model
    x_cut = 40.0  # the ray is integrated up to here, the model beyond
    _scan_below(ev, t_abs)

    def ray_integrand(x: np.ndarray) -> np.ndarray:
        # x^(-2s) d/dx log F~(ix), with d/dx log F(ix) = Re(i dlog F(ix))
        g = (1j * ev.dlog(1j * x)).real
        if k0:
            g = g - 2.0 * k0 / x
        return x ** (-2.0 * s) * g

    sin_fac = math.sin(math.pi * s) / math.pi
    log_pow = cv.j0 - ev.spec.q0
    ray = ray_err = 0.0
    tail = 0.0
    if abs(sin_fac) > 1e-15:
        # the integrand varies on the scale x: geometric panels, about one per doubling
        panels = max(1, math.ceil(math.log2(x_cut / t_abs)))
        ray, ray_err = gauss_legendre(ray_integrand, np.geomspace(t_abs, x_cut, panels + 1))

        exponent = model.exponent - 2.0 * k0
        tail = model.growth_rate * x_cut ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
        tail += exponent * x_cut ** (-2.0 * s) / (2.0 * s)
        if log_pow:
            tail += log_pow * (
                -math.exp(-2.0 * s * model.gamma_tilde)
                * float(exp1(2.0 * s * (math.log(x_cut) - model.gamma_tilde)))
            )

    arc = _gamma_t_integral(
        ev, t_abs, lambda mu: np.exp(-2.0 * s * np.log(mu)), k0=k0
    ) / (2.0j * math.pi)
    value = sin_fac * (ray + tail) + _real(arc, "arc term of the zeta contour")
    # the model remainder decays like 1/x (1/log x when q0 != j0)
    rem_scale = 1.0 / x_cut if log_pow == 0 else 1.0 / math.log(x_cut)
    err = abs(sin_fac) * (ray_err + abs(tail) * rem_scale) + 1e-12 * (1.0 + abs(value))
    if k0:
        # rounding: each kernel column of N cancels O(1) terms to O((mu R)^2), an error
        # that dlog F ~ 2 k0 / mu keeps while dlog F~ drops to O(mu): k0 eps t^(-2s)
        # (t R)^-2 over the arc, and at most as much again over the ray
        cancel = max(1.0, (t_abs * ev.r) ** -2)
        err += 2.0 * k0 * sys.float_info.epsilon * t_abs ** (-2.0 * s) * cancel
    return value, err


def check_zeta_s(s: float) -> None:
    """Raise ValueError unless s > 1/2, where the zeta sum and its contour converge."""
    if s <= 0.5:
        raise ValueError("zeta_eval needs s > 1/2")


def zeta_eval(
    spec: OperatorSpec,
    s: float,
    spectrum: Spectrum | None = None,
    t_abs: float | None = None,
) -> ZetaReport:
    """Spectral zeta function at s > 1/2 by two estimators.

    The direct estimator (eigenvalue sum plus a fitted Hurwitz tail)
    runs first and only on a given Spectrum, so a spectrum with negative
    eigenvalues raises :class:`NegativeSpectrumError` before the contour
    sees them.  The contour estimator is always computed: the arc of
    radius ``t_abs`` (by default 0.1 / max(1, R)), the imaginary ray up
    to x = 40 and the asymptotic model beyond.  Operators with nonzero
    kernel are handled through F/mu^(2 k0), i.e. the zeta function of
    the nonzero spectrum.  A spectrum found for this same ``spec``
    object lends its prepared operator.
    """
    check_zeta_s(s)
    direct = direct_err = None
    if spectrum is not None:
        direct, direct_err = _zeta_direct(s, spectrum)
    ev = spectrum.evaluator if spectrum is not None else None
    if ev is None or ev.spec is not spec:
        ev = SecularEvaluator(spec)
    contour, contour_err = _zeta_contour(ev, s, _default_t(spec, t_abs))
    return ZetaReport(
        s=float(s),
        direct=direct,
        direct_error=direct_err,
        contour=contour,
        contour_error=contour_err,
    )
