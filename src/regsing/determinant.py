"""Zeta-regularized determinants and zeta-function estimators.

Two independent routes to det_zeta:

* `det_zeta_closed_form` and `det_zeta_regularized`: one body,
  det = F~(0) (-2 e^gamma)^(q0-j0) / ((-1)^k0 C) of
  F~(mu) = F(mu)/mu^(2 k0), k0 the kernel order.  At k0 = 0 it is the
  closed form, F(0) with the boundary-polynomial triple (alpha0, j0, a0)
  and the normalization constants; above, F~(0) comes from the Taylor
  circle of the kernel order.  Each entry point refuses the other's
  kernel case.
* `det_zeta_finite_t`: the finite-t identity
      Q = -log(F(it) / (C (-1)^(q0-j0))) + (j0-q0)(gamma + log 2)
          - (1/ pi i) * int_{gamma_t} log(mu) F'/F dmu,
  det = exp(-Q), with gamma_t the right-half-plane semicircle of radius
  t from it to -it.  The value is t-independent for t below the first
  zero of F, which the Taylor circle of the kernel order certifies
  before a value of the contour is read; used as a cross-check.

q0 - j0 is read from `AsymptoticModel.log_power` throughout.

`log mu` on gamma_t uses the principal branch, continuous on the arc, as
exact t-independence of Q forces (a branch jumping by 2 pi i across the
positive real axis would add a t-dependent defect).  The zeta contour's
arc is a series in the Taylor circle's power sums instead (`zeta_eval`).

`det_wronskian_scalar` is the independent scalar oracle
sqrt(2 pi) W / (2^nu Gamma(1+nu)) with W = alpha + nu + 1/2 (Robin,
normalized solutions x^(nu+1/2) and psi(1)=1) or W = 1 (Dirichlet); it
is valid for every nu >= 0, beyond the matrix core's nu < 1.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._numutil import FirstRound, NumericalError, gauss_legendre
from .eigenfunction import (
    _REAL_RESIDUE_TOL,
    GAMMA_TILDE,
    SecularEvaluator,
    Spectrum,
    off_zeros,
)
from .operators import Dirichlet, OperatorSpec, RegularBC
from .special import EULER_GAMMA, exp1, gamma_fn, hurwitz_zeta


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
    """The real value, which must be positive and finite; a negative one
    means an odd number of negative eigenvalues."""
    v = _real(value, what)
    if v < 0.0:
        raise NegativeSpectrumError(
            f"{what} = {v!r} is negative: the operator has an odd number of negative eigenvalues"
        )
    if not (v > 0.0) or not math.isfinite(v):
        raise NumericalError(f"{what} is not a positive real number: {v!r}")
    return v


def det_wronskian_scalar(nu: float, regular_bc: RegularBC) -> float:
    """Scalar oracle sqrt(2 pi) W / (2^nu Gamma(1+nu)) on (0, 1], any nu >= 0.

    W is the Wronskian of the tip-normalized solution phi(x) = x^(nu+1/2)
    against the end-normalized solution psi: W = alpha + nu + 1/2 for the
    Robin condition (psi(1) = 1, psi'(1) = -alpha), which has a kernel
    (:class:`KernelPresentError`) where W = 0, and W = 1 under the
    Dirichlet normalization convention.
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


def det_zeta_closed_form(spec: OperatorSpec) -> DeterminantReport:
    """det_zeta from F(0) and the boundary-polynomial data (kernel-free):
    :func:`_from_circle` at k0 = 0, with :class:`KernelPresentError` where k0 > 0."""
    ev = SecularEvaluator(spec)
    if ev.k0 != 0:
        raise KernelPresentError(
            f"kernel order {ev.k0} > 0; use det_zeta_regularized for this operator"
        )
    return _counted(ev, _from_circle(ev))


def _counted(ev: SecularEvaluator, report: DeterminantReport) -> DeterminantReport:
    """The report, its diagnostics given the kernel passes and nodes spent on ``ev``."""
    report.diagnostics.update(passes=ev.counts["passes"], nodes=ev.counts["nodes"])
    return report


def _from_circle(ev: SecularEvaluator) -> DeterminantReport:
    """det = F~(0) (-2 e^gamma)^(q0-j0) / ((-1)^k0 C) of F~ = F / mu^(2 k0), at every
    kernel order k0.  F~(0) is :attr:`SecularEvaluator.f0` at k0 = 0, the closed form,
    and the circle's :attr:`SecularEvaluator.f_tilde0` above, the regularized
    determinant, which only j0 = q0 reaches.  Where j0 != q0 (log-singular) the
    value is the modulus and the signed number goes to the diagnostics."""
    k0, model = ev.k0, ev.model
    if k0 == 0:
        f, c, cv = ev.f0, model.c, ev.cv
        diagnostics = dict(f_zero=f.real, alpha0=cv.alpha0, j0=cv.j0, floor_margin=ev.floor_margin)
        method, what = "closed_form", "closed-form determinant F(0)/C"
    elif model.log_power:
        raise NumericalError("nonzero kernel with j0 != q0 is outside the supported regime")
    else:
        f, c = _real(ev.f_tilde0, "F~(0)"), (-1.0) ** k0 * model.c
        diagnostics = {
            "f_tilde_zero": f,
            "c_tilde": c.real,
            "circle_radius": ev.circle_radius,
            "floor_margin": ev.floor_margin,
        }
        method, what = "regularized", "regularized determinant F~(0)/C~"
    raw = f * (-2.0 * math.exp(EULER_GAMMA)) ** model.log_power / c
    if model.log_power:
        signed = _real(raw, "closed-form determinant")
        diagnostics["defect_subtracted_signed"] = signed
        value = abs(signed)
        if not (value > 0.0 and math.isfinite(value)):
            raise NumericalError(f"closed-form determinant is degenerate: {raw!r}")
    else:
        value = _as_positive_real(raw, what)
    return DeterminantReport(
        value=value,
        method=method,
        kernel_dim_proxy=k0,
        log_singular=bool(model.log_power),
        diagnostics=diagnostics,
    )


_ARC = (-0.5 * math.pi, 0.5 * math.pi)  # gamma_t by its angle phi, mu = t e^(i phi)
# the arc's first Gauss-Legendre round, a fixed rule, and its 48 points mu / t = e^(i phi)
_ARC_ROUND = FirstRound(_ARC)
_ARC_UNIT = np.exp(1j * _ARC_ROUND.nodes)
# t R of the default contours: fixed, so that neither the Taylor circle's
# certificate nor the arc's cancellation depends on R
_CONTOUR_TR = 0.1
# x R where the zeta ray ends and the asymptotic model of F(ix) takes over,
# so that the model's remainder, O(1/(x R)), and the ray's panel count do
# not depend on R
_RAY_CUT_XR = 40.0


def _certify(t: float, margin: float) -> None:
    """Raise RootInsideContourError unless ``margin``, the Taylor circle's
    :meth:`SecularEvaluator.zero_free_margin` at t, certifies F~ free of zeros on
    |mu| < t (above 1, as :meth:`SecularEvaluator.zero_free`)."""
    if not margin > 1.0:
        raise RootInsideContourError(
            f"F may have a zero below |mu| = {t}: the Taylor circle certifies no such "
            f"disk (margin {margin:.3g})"
        )


def det_zeta_finite_t(spec: OperatorSpec, t_abs: float) -> DeterminantReport:
    """Finite-t cross-check of the determinant (kernel-free operators).

    Exactly t-independent in exact arithmetic for any t below the first
    zero of F; with the analytic log-derivative on Gauss-Legendre panels
    the value matches the closed form to about 1e-13 relative.  Raises
    :class:`RootInsideContourError` unless the Taylor circle certifies
    the disk |mu| < t_abs free of zeros (:meth:`SecularEvaluator.zero_free`),
    which it can only for t_abs below its radius sqrt(0.8) / R, and
    ValueError before any kernel pass unless 0 < t_abs < inf.  The
    probes of the kernel order ride in the pass of the arc's first round
    (:func:`_arc_pass`).
    """
    ev = SecularEvaluator(spec)
    first = _arc_pass(ev, t_abs)
    value, arc_term = _finite_t(ev, t_abs, first, ev.zero_free_margin(t_abs))
    mant, log_scale = float(first[0][0].real), float(first[1][0])
    try:
        f_it = mant * math.exp(log_scale)
    except OverflowError:  # F(it) is beyond the float range; the determinant is not
        f_it = math.copysign(math.inf, mant)
    report = DeterminantReport(
        value=value,
        method="finite_t",
        kernel_dim_proxy=0,
        log_singular=bool(ev.model.log_power),
        diagnostics={"t_abs": t_abs, "arc_term": arc_term, "f_it": f_it},
    )
    return _counted(ev, report)


def _arc_pass(ev: SecularEvaluator, t_abs: float) -> tuple[np.ndarray, ...] | None:
    """:meth:`SecularEvaluator._scaled_dlog` at F(it) and the first Gauss-Legendre
    round of the arc of radius t_abs: one kernel pass, which takes the probes of
    the kernel order along while they are not yet known.  None from no pass
    where t_abs is not inside the Taylor circle, whose certificate then cannot
    hold, so that no value of the arc would be read."""
    if not 0.0 < t_abs < math.inf:  # NaN too
        raise ValueError("t_abs must be positive and finite")
    if not t_abs < ev.circle_radius:
        return None
    return ev._scaled_dlog(np.concatenate(([1j * t_abs], t_abs * _ARC_UNIT)))


def _finite_t(
    ev: SecularEvaluator, t_abs: float, first: tuple | None, margin: float
) -> tuple[float, float]:
    """The finite-t determinant at radius t_abs and its arc term, from ``first``, the
    :func:`_arc_pass` there, and ``margin``, the caller's
    :meth:`SecularEvaluator.zero_free_margin` at t_abs.  No value of the pass is read
    before the kernel order is checked and the margin certifies the disk
    (:func:`_certify`); later arc rounds take one kernel pass each."""
    if ev.k0 != 0:
        raise KernelPresentError("finite-t route needs a trivial kernel")
    _certify(t_abs, margin)
    mants, logs, dlog = first
    # F(it) / (C (-1)^(q0-j0)) = ratio * exp(log_scale), apart so that large t R cannot overflow
    mant, log_scale = complex(mants[0]), float(logs[0])
    log_pow = ev.model.log_power  # q0 - j0
    ratio = mant / (ev.model.c * (-1.0) ** log_pow)
    if log_pow:
        # log-singular case: track the modulus, as in the closed form
        ratio = abs(_real(ratio, "F(it)/C ratio"))
        if ratio == 0.0:
            raise RootInsideContourError("F(it) vanished on the contour")
    else:
        ratio = _as_positive_real(ratio, "F(it) / (C (-1)^(q0-j0))")

    def values(mu: np.ndarray, dl: np.ndarray) -> np.ndarray:
        return np.log(mu) * dl * 1j * mu

    def integrand(phi: np.ndarray) -> np.ndarray:  # phi runs pi/2 -> -pi/2
        mu = t_abs * np.exp(1j * phi)
        return values(mu, ev.dlog(mu))

    first = values(t_abs * _ARC_UNIT, off_zeros(dlog[1:], mants[1:]))
    arc, _ = gauss_legendre(integrand, _ARC_ROUND, first=first, counts=ev.counts)
    arc_term = _real(-arc / (1j * math.pi), "gamma_t integral")
    log_ratio = math.log(ratio) + log_scale
    q_val = -log_ratio - log_pow * (EULER_GAMMA + math.log(2.0)) - arc_term
    return math.exp(-q_val), arc_term


def det_zeta_regularized(spec: OperatorSpec) -> DeterminantReport:
    """det_zeta over the nonzero spectrum when ker L has order k0 >= 1.

    F~(0) of F~(mu) = F(mu)/mu^(2 k0) is the Taylor coefficient of
    (mu^2)^k0 on the circle of the kernel order (`SecularEvaluator.f_tilde0`);
    with C~ = (-1)^k0 C, det = F~(0)/C~ (:func:`_from_circle`), and a negative
    one (an odd number of negative eigenvalues) raises
    :class:`NegativeSpectrumError`.  Only the j0 = q0 case is supported (no
    s log s defect interacting with the kernel).  The report gives the
    circle's |mu| and floor margin.
    """
    ev = SecularEvaluator(spec)
    if ev.k0 == 0:
        raise NumericalError("kernel is trivial; use det_zeta_closed_form")
    return _counted(ev, _from_circle(ev))


def det_zeta_auto(spec: OperatorSpec) -> DeterminantReport:
    """det_zeta at every kernel order (:func:`_from_circle`): the closed form when
    the kernel is trivial, the regularized determinant otherwise.

    Cheap cross-checks (finite-t value at radius ``finite_t_radius`` =
    0.1 / R, and the scalar Wronskian oracle, normalized for R = 1 and
    attached only there) go to the diagnostics: ``finite_t_value`` with
    its relative gap ``finite_t_gap`` to the closed form, or the reason
    the route failed in ``finite_t_error``, and the certificate of the
    disk below the radius, ``zero_free_margin`` (above 1 certifies).
    ``zeta_1`` is zeta(1) from the circle, :attr:`SecularEvaluator.zeta_1`.
    The request's first kernel pass (:func:`_arc_pass`) takes the probes
    of the kernel order, F(it) and the arc's first Gauss-Legendre round;
    the arc's values are read only once the kernel order is 0 and the
    circle certifies the disk, so a kernel request makes that one pass
    and reads none of them.  Later arc rounds take one pass each.
    ``passes`` and ``nodes`` count the kernel passes and quadrature nodes
    of the request.
    """
    ev = SecularEvaluator(spec)
    t = _CONTOUR_TR / ev.r
    first = _arc_pass(ev, t)
    report = _from_circle(ev)
    diag = report.diagnostics  # a fresh dict, owned by this report
    diag["zeta_1"] = ev.zeta_1
    if ev.k0:
        return _counted(ev, report)
    diag["finite_t_radius"] = t
    diag["zero_free_margin"] = margin = ev.zero_free_margin(t)
    try:
        finite_t = _finite_t(ev, t, first, margin)[0]
    except NumericalError as exc:
        diag["finite_t_error"] = str(exc)
    else:
        diag["finite_t_value"] = finite_t
        diag["finite_t_gap"] = abs(finite_t - report.value) / report.value
    tip = spec.boundary
    if spec.q == 1 and spec.r == 1.0 and tip.b_mat[0, 0] != 0 and tip.a_mat[0, 0] == 0:
        diag["wronskian_value"] = det_wronskian_scalar(spec.nus[0], spec.regular_bc)
    return _counted(ev, report)


# ---------------------------------------------------------------------------
# Zeta function estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaReport:
    """The two zeta estimates at s; `t` is the arc's radius (0.1 / R, halved at most twice
    at a non-integer s), `passes` and `nodes` the contour's kernel passes and quadrature nodes."""

    s: float
    direct: float | None
    direct_error: float | None
    contour: float
    contour_error: float
    t: float
    passes: int = 0
    nodes: int = 0


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
    centred = mus - mus.mean()  # the least-squares line, in closed form
    dens = float(centred @ idx) / float(centred @ centred)
    intercept = float(idx.mean()) - dens * float(mus.mean())
    if dens <= 0.0:
        raise NumericalError("root density fit failed")
    a0 = n + 1 - intercept
    if a0 <= 0.0:
        raise NumericalError("tail start index is not positive")
    tail = dens ** (2.0 * s) * hurwitz_zeta(2.0 * s, a0)
    resid = idx - (dens * mus + intercept)
    sigma = float(np.sqrt(np.mean(resid**2))) / dens  # rms mu-deviation
    # The line leaves out the O(1/mu) term of the counting function
    # (McMahon's expansion of the roots), whose bias outgrows the scatter.
    # Refit with it, N(mu) = d mu + b + c/mu, whose roots beyond the window
    # are (k - b)/d - c/(k - b) to first order in c.  The tail's change
    # estimates that bias to within 3 % on the Dirichlet Rayleigh sums;
    # twice the change bounds it.
    basis = np.column_stack([mus, np.ones(m), 1.0 / mus])
    (d, b, c), *_ = np.linalg.lstsq(basis, idx, rcond=None)
    a = n + 1 - b
    bias = tail
    if d > 0.0 and a > 0.0:
        bias -= d ** (2.0 * s) * (
            hurwitz_zeta(2.0 * s, a) + 2.0 * s * c * d * hurwitz_zeta(2.0 * s + 2.0, a)
        )
    err = (
        2.0 * s * sigma * dens ** (2.0 * s + 1.0) * hurwitz_zeta(2.0 * s + 1.0, a0)
        + 2.0 * abs(bias)
        + 1e-14 * abs(head)
    )
    return head + tail, err


def _with_digit(value: float, err: float, t: float) -> tuple[float, float, float]:
    """(value, err, t); raises NumericalError where err leaves value without a digit."""
    if not err < abs(value):  # NaN too
        raise NumericalError(f"the zeta contour {value:.3g} +- {err:.3g} carries no digit")
    return value, err, t


def _zeta_contour(ev: SecularEvaluator, s: float, t: float) -> tuple[float, float, float]:
    """The contour of :func:`zeta_eval` at s: zeta(s), its error and the arc's radius."""
    _certify(t, ev.zero_free_margin(t))
    p, dp = ev.power_sums
    m = round(s)
    if s == m:  # the arc alone, zeta(m) = p_m / rho^m
        if m > p.size:
            raise NumericalError(f"zeta({m}) needs p_{m}, past the circle's {p.size} power sums")
        value = ev.over_rho(float(p[m - 1]), m)
        if not math.isfinite(value):
            raise NumericalError(f"zeta({m}) = {value} is beyond the float range")
        return _with_digit(value, ev.over_rho(float(dp[m - 1]), m) + 1e-12 * abs(value), t)
    while not ev.zero_free(4.0 * t):  # at most twice: the disk below t is certified
        t *= 0.5
    zeros = ev.imag_zeros_beyond(t)
    if zeros:
        raise RootInsideContourError(
            f"F(ix) has zeros beyond x = {t:.6g} ({zeros} by the count): negative eigenvalues"
        )
    k0, model = ev.k0, ev.model
    x_cut = _RAY_CUT_XR / ev.r  # the ray is integrated up to here, the model beyond
    if model.log_power and math.log(x_cut) <= GAMMA_TILDE:  # the tail's exp1 needs x > e^gamma~
        raise RootInsideContourError(f"the model of F(ix) vanishes beyond the ray end {x_cut}")

    def ray_integrand(x: np.ndarray) -> np.ndarray:
        # x^(-2s) d/dx log F~(ix), with d/dx log F(ix) = Re(i dlog F(ix))
        return x ** (-2.0 * s) * ((1j * ev.dlog(1j * x)).real - 2.0 * k0 / x)

    # the integrand varies on the scale x: geometric panels, about one per doubling
    edges = np.geomspace(t, x_cut, max(1, math.ceil(math.log2(x_cut / t))) + 1)
    ray, ray_err = gauss_legendre(ray_integrand, edges, counts=ev.counts)

    exponent = model.exponent - 2.0 * k0
    tail = model.growth_rate * x_cut ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
    tail += exponent * x_cut ** (-2.0 * s) / (2.0 * s)
    if model.log_power:
        tail += model.log_power * (
            math.exp(-2.0 * s * GAMMA_TILDE)
            * exp1(2.0 * s * (math.log(x_cut) - GAMMA_TILDE))
        )

    # sin(pi s) / pi from s - m, exact, so that s near an integer keeps its digits; the arc,
    # sum zeta(n) t^(2(n-s)) sin(pi(n-s)) / (pi(n-s)), is sin_fac sum p_n w_n
    sin_fac = (-1.0) ** m * math.sin(math.pi * (s - m)) / math.pi
    n = np.arange(1, p.size + 1)
    z, t2s = (t / ev.circle_radius) ** 2, t ** (-2.0 * s)
    w = (-1.0) ** (n + 1) * z**n * t2s / (n - s)
    value = sin_fac * (ray + tail + p @ w)
    # the model remainder decays like 1/x (1/log x when q0 != j0)
    rem_scale = 1.0 / math.log(_RAY_CUT_XR) if model.log_power else 1.0 / _RAY_CUT_XR
    err = abs(sin_fac) * (ray_err + abs(tail) * rem_scale + dp @ abs(w))
    # each term n > p.size is below |p_2| z^2 16^(2-n) t^(-2s): no zero below 4 t
    err += (abs(p[1]) + dp[1]) * z**2 * 16.0 ** (2 - p.size) / 15.0 * t2s + 1e-12 * abs(value)
    # a kernel column of N cancels O(1) terms to O((mu R)^2), a rounding error that
    # dlog F ~ 2 k0 / mu keeps and dlog F~ does not: k0 eps t^(-2s) (t R)^-2 over the ray
    err += k0 * sys.float_info.epsilon * t2s / (t * ev.r) ** 2
    return _with_digit(value, err, t)


def check_zeta_s(s: float) -> None:
    """Raise ValueError unless 1/2 < s < inf, where the zeta sum and its contour converge."""
    if not 0.5 < s < math.inf:  # NaN too
        raise ValueError("zeta_eval needs s > 1/2" if s <= 0.5 else "zeta_eval needs a finite s")


def zeta_eval(spec: OperatorSpec, s: float, spectrum: Spectrum | None = None) -> ZetaReport:
    """Spectral zeta function at s > 1/2 by two estimators.

    The direct estimator (eigenvalue sum plus a fitted Hurwitz tail)
    runs first and only on a given Spectrum, so a spectrum with negative
    eigenvalues raises :class:`NegativeSpectrumError` before the contour
    sees them.  The contour estimator is always computed; it raises
    :class:`RootInsideContourError` unless the Taylor circle certifies the
    disk below t = 0.1 / R free of zeros of F~ (:meth:`SecularEvaluator.zero_free`).
    Its arc is sum_n zeta(n) t^(2(n-s)) sin(pi(n-s)) / (pi(n-s)) over the
    circle's :attr:`SecularEvaluator.power_sums`: zeta(s) itself at an
    integer s <= 15 - k0.  At other s, t is halved, at most twice, until the
    circle certifies the disk below 4 t (``ZetaReport.t``), and the ray from
    t to x R = 40, one pass per Gauss-Legendre round, and the model beyond
    are added.  A zero of F(ix) beyond t (a negative eigenvalue), which
    :meth:`SecularEvaluator.imag_zeros_beyond` counts out to x = inf before
    the ray is sampled, or a ray end where a log channel's model vanishes,
    raises :class:`RootInsideContourError` too, and an error as large as
    the value raises :class:`NumericalError`.
    Operators with nonzero kernel are handled through F/mu^(2 k0), the
    zeta function of the nonzero spectrum.
    A spectrum found for this same ``spec`` object lends its prepared
    operator.  The report counts the kernel passes and quadrature nodes
    the contour estimate spent.
    """
    check_zeta_s(s)
    direct = direct_err = None
    if spectrum is not None:
        direct, direct_err = _zeta_direct(s, spectrum)
    ev = spectrum.evaluator if spectrum is not None else None
    if ev is None or ev.spec is not spec:
        ev = SecularEvaluator(spec)
    before = Counter(ev.counts)
    contour, contour_err, t = _zeta_contour(ev, s, _CONTOUR_TR / ev.r)
    used = ev.counts - before
    return ZetaReport(
        s=float(s),
        direct=direct,
        direct_error=direct_err,
        contour=contour,
        contour_error=contour_err,
        t=t,
        passes=used["passes"],
        nodes=used["nodes"],
    )
