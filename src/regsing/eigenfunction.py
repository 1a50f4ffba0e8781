"""The secular determinant F(mu), its zeros, and its asymptotic model.

``F(mu)`` is the determinant of the 2q x 2q block matrix

    [ a_mat           b_mat        ]
    [ diag(jp_l(mu))  diag(jm_l(mu)) ]

whose kernel vectors are the asymptotic coefficient vectors of actual
eigenfunctions: mu^2 is an eigenvalue of the operator iff F(mu) = 0.
The diagonal entries are boundary traces at x = R of the two normalized
scalar solutions of -f'' + (lambda/x^2 - mu^2) f = 0:

* nu > 0 branch pair:  sqrt(x) * Gamma(1 +- nu) x^(+-nu) phi_{+-nu}(mu x)
* nu = 0 pair:         sqrt(x) * J_0(mu x) and the logarithmic companion

written through the entire even functions phi_nu(w) = (w/2)^(-nu) J_nu(w),
so every matrix entry is an even entire function of mu and F is analytic
in mu^2 (the log mu pieces of the companion solution cancel identically).

Robin rows evaluate kappa * T(R) + sqrt(R) * dT/dx(R) with
kappa = 1/(2 sqrt(R)) + alpha sqrt(R); Dirichlet rows evaluate the
solution trace sqrt(R) * T(R).  The lower rows carry the factor
exp(-|Im mu R|) of the exponentially scaled Bessel kernel, so entries
stay finite on contours where F grows like exp(q |Im mu| R); `scaled`
returns a mantissa and a real log-scale with F = mantissa *
exp(log_scale), the log-scale adding q |Im mu R| back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from ._numutil import NumericalError, quad_complex
from .operators import (
    CharacteristicValues,
    Dirichlet,
    OperatorSpec,
    characteristic_values,
    validate,
)
from .special import (
    EULER_GAMMA,
    NormalizedBessel,
    bessel_jm0_series,
    bessel_jm0_series_dx,
    gamma_fn,
)

GAMMA_TILDE = math.log(2.0) - EULER_GAMMA

_REAL_RESIDUE_TOL = 1e-8
_ROOT_RESIDUAL_TOL = 1e-10


class SpectrumCertificationError(NumericalError):
    pass


class KernelOrderError(NumericalError):
    pass


class ContourError(NumericalError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Zeros of F: `positive` on the real axis (eigenvalues mu^2),
    `negative` on the imaginary axis as x with F(ix)=0 (eigenvalues -x^2)."""

    positive: tuple[float, ...]
    negative: tuple[float, ...]
    mu_max: float
    certified: bool


class SecularEvaluator:
    """Precomputes the per-operator tables and evaluates F.

    Construction validates the tip condition.  All methods are pure.
    """

    def __init__(self, spec: OperatorSpec):
        bad = validate(spec)
        if bad:
            raise NumericalError(
                "operator failed validation: " + "; ".join(v.name for v in bad)
            )
        self.spec = spec
        self.r = spec.r
        self.sqrt_r = math.sqrt(spec.r)
        self.q = spec.q
        self.q0 = spec.q0
        self.dirichlet = isinstance(spec.regular_bc, Dirichlet)
        self.kappa = None if self.dirichlet else spec.kappa
        self._nus = spec.nus[spec.q0 :]
        self._phi_plus = [NormalizedBessel(nu) for nu in self._nus]
        self._phi_minus = [NormalizedBessel(-nu) for nu in self._nus]
        self._gamma_plus = [gamma_fn(1.0 + nu) for nu in self._nus]
        self._gamma_minus = [gamma_fn(1.0 - nu) for nu in self._nus]
        self._phi0 = NormalizedBessel(0.0)
        self._phi1 = NormalizedBessel(1.0)
        self._top = np.hstack([spec.boundary.a_mat, spec.boundary.b_mat])

    # -- row entries --------------------------------------------------------

    def _traces(self, mu: complex) -> tuple[list[complex], list[complex]]:
        """Diagonal entries (jp, jm) of the lower blocks at argument mu."""
        r, sr = self.r, self.sqrt_r
        w = mu * r
        jp: list[complex] = []
        jm: list[complex] = []
        if self.q0:
            t_plus = self._phi0.value(w)
            dt_plus = -mu * (w / 2.0) * self._phi1.value(w)
            t_minus = bessel_jm0_series(mu, r)
            dt_minus = bessel_jm0_series_dx(mu, r)
            if self.dirichlet:
                ep, em = sr * t_plus, sr * t_minus
            else:
                ep = self.kappa * t_plus + sr * dt_plus
                em = self.kappa * t_minus + sr * dt_minus
            jp.extend([ep] * self.q0)
            jm.extend([em] * self.q0)
        for nu, php, phm, gp, gm in zip(
            self._nus, self._phi_plus, self._phi_minus, self._gamma_plus, self._gamma_minus
        ):
            vp = php.value(w)
            vm = phm.value(w)
            t_plus = r**nu * gp * vp
            t_minus = r ** (-nu) * gm * vm
            dt_plus = gp * (nu * r ** (nu - 1.0) * vp + r**nu * mu * php.deriv(w))
            dt_minus = gm * (-nu * r ** (-nu - 1.0) * vm + r ** (-nu) * mu * phm.deriv(w))
            if self.dirichlet:
                jp.append(sr * t_plus)
                jm.append(sr * t_minus)
            else:
                jp.append(self.kappa * t_plus + sr * dt_plus)
                jm.append(self.kappa * t_minus + sr * dt_minus)
        return jp, jm

    def matrix(self, mu: complex) -> np.ndarray:
        """The 2q x 2q matrix, lower rows times exp(-|Im mu R|) (exact for real mu)."""
        mu = complex(mu)
        if mu.real < 0.0:
            mu = -mu  # F is even; keep arguments in the right half-plane
        jp, jm = self._traces(mu)
        q = self.q
        m = np.zeros((2 * q, 2 * q), dtype=complex)
        m[:q, :] = self._top
        for l in range(q):
            m[q + l, l] = jp[l]
            m[q + l, q + l] = jm[l]
        return m

    def value(self, mu: complex) -> complex:
        mant, logs = self.scaled(mu)
        return mant * cmath.exp(logs)

    def scaled(self, mu: complex) -> tuple[complex, float]:
        """F(mu) = mantissa * exp(log_scale), log_scale real."""
        mu = complex(mu)
        growth = self.q * abs(mu.imag) * self.r  # each lower row carries exp(-|Im mu R|)
        if self.q == 1:
            if mu.real < 0.0:
                mu = -mu
            jp, jm = self._traces(mu)
            a = complex(self._top[0, 0])
            b = complex(self._top[0, 1])
            s_top = max(abs(a), abs(b))
            s_bot = max(abs(jp[0]), abs(jm[0]))
            if s_top == 0.0 or s_bot == 0.0:
                return 0.0 + 0j, 0.0
            mant = (a / s_top) * (jm[0] / s_bot) - (b / s_top) * (jp[0] / s_bot)
            return mant, math.log(s_top) + math.log(s_bot) + growth
        m = self.matrix(mu)
        scales = np.max(np.abs(m), axis=1)
        if np.any(scales == 0.0):
            return 0.0 + 0j, 0.0
        mant = complex(np.linalg.det(m / scales[:, None]))
        return mant, float(np.sum(np.log(scales))) + growth

    def value_at_zero(self) -> complex:
        return self.value(0.0)

    # -- log-derivative -----------------------------------------------------

    def dlog(self, z: complex, h_scale: float = 1e-4) -> complex:
        """(d/dz) log F by centered differences on the scaled form."""
        h = h_scale * max(1.0, abs(z))
        mp, lp = self.scaled(z + h)
        mm, lm = self.scaled(z - h)
        m0, l0 = self.scaled(z)
        if m0 == 0:
            raise ContourError(f"log-derivative requested at a zero of F (mu={z})")
        num = mp * cmath.exp(lp - l0) - mm * cmath.exp(lm - l0)
        return num / (2.0 * h * m0)

    def log_value(self, mu: complex) -> complex:
        mant, logs = self.scaled(mu)
        if mant == 0:
            raise NumericalError(f"log of F at a zero (mu={mu})")
        if abs(mant.imag) <= _REAL_RESIDUE_TOL * abs(mant):
            # essentially-real mantissa: pin the phase to the principal
            # log of the exact real value (a residue just below the axis
            # must not flip +i pi to -i pi)
            mant = complex(mant.real, 0.0)
        return cmath.log(mant) + logs


def eval_F(spec: OperatorSpec, mu: complex) -> complex:
    """Secular determinant at mu (entire and even in mu; F(0) is the limit)."""
    return SecularEvaluator(spec).value(mu)


def eval_F_at_zero(spec: OperatorSpec) -> float | complex:
    """F(0); for real tip matrices this is real and matches the closed matrix limit."""
    val = SecularEvaluator(spec).value_at_zero()
    if abs(val.imag) > _REAL_RESIDUE_TOL * (1.0 + abs(val)):
        return val  # complex tip matrices: hand back the full value
    return val.real


# ---------------------------------------------------------------------------
# Kernel order at mu = 0
# ---------------------------------------------------------------------------

_KERNEL_PROBES = (1e-1, 10.0**-1.5, 1e-2)


def kernel_order(
    spec: OperatorSpec, tol: float = 1e-8, evaluator: SecularEvaluator | None = None
) -> int:
    """Order k0 of the zero of F at mu=0 in the variable mu^2.

    F is analytic in mu^2, so |F| ~ c mu^(2 k0); k0 is read off a
    log-log fit through the probe points and cross-checked on both
    probe pairs.
    """
    ev = evaluator if evaluator is not None else SecularEvaluator(spec)
    f0 = abs(ev.value(0.0))
    scale = max(abs(ev.value(m)) for m in (0.3, 0.7, 1.1))
    scale = max(scale, f0)
    if scale == 0.0:
        raise KernelOrderError("secular determinant vanishes at all probe points")
    if f0 > tol * scale:
        return 0
    mags = [abs(ev.value(m)) for m in _KERNEL_PROBES]
    if min(mags) == 0.0:
        raise KernelOrderError("probe point landed on a zero of F")
    logs = [math.log(m) for m in mags]
    lmu = [math.log(m) for m in _KERNEL_PROBES]
    s12 = (logs[0] - logs[1]) / (lmu[0] - lmu[1])
    s23 = (logs[1] - logs[2]) / (lmu[1] - lmu[2])
    k = round(s23 / 2.0)
    if k < 1 or k > spec.q or abs(s23 - 2.0 * k) > 0.1 or abs(s12 - 2.0 * k) > 0.5:
        raise KernelOrderError(
            f"order fit ambiguous: slopes {s12:.3f}, {s23:.3f} fit no k <= q={spec.q}"
        )
    return int(k)


# ---------------------------------------------------------------------------
# Asymptotic model of F on the imaginary axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticModel:
    """Leading model log F(ix) ~ log c + exponent log x + growth x + log_power log(gamma_tilde - log x).

    `exponent` is |nu| + q/2 - 2 alpha0 for Robin rows and
    |nu| - q/2 - 2 alpha0 for Dirichlet rows (trace rows lose one power
    of x each against the Robin derivative term).
    """

    rho: float
    gamma_tilde: float
    abs_nu: float
    c: complex
    exponent: float
    log_power: int
    growth_rate: float

    @classmethod
    def from_spec(
        cls, spec: OperatorSpec, cv: CharacteristicValues | None = None
    ) -> "AsymptoticModel":
        if cv is None:
            cv = characteristic_values(spec)
        nus = spec.nus[spec.q0 :]
        rho = 1.0
        for nu in nus:
            rho *= 2.0 ** (-nu) * gamma_fn(1.0 - nu)
        abs_nu = sum(nus)
        c = cv.a0 * rho * (2.0 * math.pi) ** (-spec.q / 2.0)
        half_q = spec.q / 2.0
        if isinstance(spec.regular_bc, Dirichlet):
            exponent = abs_nu - half_q - 2.0 * cv.alpha0
        else:
            exponent = abs_nu + half_q - 2.0 * cv.alpha0
        return cls(
            rho=rho,
            gamma_tilde=GAMMA_TILDE,
            abs_nu=abs_nu,
            c=complex(c),
            exponent=float(exponent),
            log_power=spec.q0 - cv.j0,
            growth_rate=spec.q * spec.r,
        )

    def log_value(self, x: float) -> complex:
        out = cmath.log(self.c) + self.exponent * math.log(x) + self.growth_rate * x
        if self.log_power:
            out += self.log_power * cmath.log(complex(self.gamma_tilde - math.log(x)))
        return out

    def dlog_value(self, x: float) -> float:
        out = self.growth_rate + self.exponent / x
        if self.log_power:
            out += self.log_power * (-1.0 / (x * (self.gamma_tilde - math.log(x))))
        return out


def asymptotic_log_F_imag(spec: OperatorSpec, x: float) -> complex:
    """Model value of log F(ix); diagnostics only, never inside determinants."""
    if x < 10.0:
        raise ValueError("asymptotic model is quoted for x >= 10")
    return AsymptoticModel.from_spec(spec).log_value(float(x))


def log_F_imag(spec: OperatorSpec, x: float) -> complex:
    """Actual log F(ix) from the scaled determinant (principal branch)."""
    return SecularEvaluator(spec).log_value(1j * float(x))


# ---------------------------------------------------------------------------
# Spectrum search
# ---------------------------------------------------------------------------

def _real_samples(
    ev: SecularEvaluator, points: np.ndarray, axis: str
) -> tuple[np.ndarray, np.ndarray]:
    """Real parts of the mantissas of F at the points, and their log-scales."""
    mants = np.empty(len(points))
    logs = np.empty(len(points))
    worst = 0.0
    for i, p in enumerate(points):
        mant, logs[i] = ev.scaled(1j * p if axis == "imag" else p)
        mag = abs(mant)
        if mag > 0.0:
            worst = max(worst, abs(mant.imag) / mag)
        mants[i] = mant.real
    if worst > _REAL_RESIDUE_TOL:
        raise NumericalError(
            f"secular values on the {axis} axis are not real "
            f"(residue {worst:.2e}); complex tip matrices are not supported here"
        )
    return mants, logs


def _bracket_roots(
    ev: SecularEvaluator, lo: float, hi: float, res: float, axis: str
) -> list[float]:
    n = max(2, int(math.ceil((hi - lo) / res)) + 1)
    grid = np.linspace(lo, hi, n)
    mants, logs = _real_samples(ev, grid, axis)

    roots: list[float] = []
    for i in range(n - 1):
        a, b = grid[i], grid[i + 1]
        log_a = logs[i]

        def f(t: float) -> float:
            # F(t) exp(-log_scale(a)): a positive multiple of F, finite on [a, b]
            mant, log_scale = ev.scaled(1j * t if axis == "imag" else t)
            return mant.real * math.exp(log_scale - log_a)

        fa = mants[i]
        fb = mants[i + 1] * math.exp(logs[i + 1] - log_a)
        if fa == 0.0:
            fa = f(a + 1e-12 * max(1.0, a))
        if fa * fb < 0.0:
            root = brentq(f, a, b, xtol=1e-13, rtol=4.0 * np.finfo(float).eps, maxiter=200)
            local = max(abs(fa), abs(fb))
            if abs(f(root)) > _ROOT_RESIDUAL_TOL * local:
                raise SpectrumCertificationError(
                    f"refined root at {root} has residual above tolerance"
                )
            roots.append(float(root))
    return roots


def _roots_match(a: list[float], b: list[float], tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def _imag_scan_bound(ev: SecularEvaluator, model: AsymptoticModel) -> float:
    """Height beyond which the model provably dominates and F(ix) has no zeros.

    The remainder of the model decays like 1/log x, far too slowly for a
    literal fixed-ratio criterion, so the certificate is model dominance:
    at three increasing heights the measured log F(ix) stays within log 2
    of the model and |F| grows.  Finitely many imaginary zeros exist, so
    the doubling search terminates.
    """
    x_hi = 12.0
    while x_hi <= 220.0:
        checks = [0.8 * x_hi, 0.9 * x_hi, x_hi]
        logs = [ev.log_value(1j * x).real for x in checks]
        models = [model.log_value(x).real for x in checks]
        close = all(abs(lv - mv) < math.log(2.0) for lv, mv in zip(logs, models))
        growing = logs[0] < logs[1] < logs[2]
        if close and growing:
            return x_hi
        x_hi *= 1.6
    raise SpectrumCertificationError(
        "could not certify an upper bound for imaginary-axis zeros below x=220"
    )


def find_spectrum(
    spec: OperatorSpec,
    mu_max: float,
    resolution: float | None = None,
) -> Spectrum:
    """All zeros of F on (0, mu_max] and on the positive imaginary axis.

    Real-axis brackets are certified by rescanning at half resolution
    (with up to three halvings); simple zeros are assumed, a persistent
    mismatch raises :class:`SpectrumCertificationError`.
    """
    if mu_max <= 0.0:
        raise ValueError("mu_max must be positive")
    ev = SecularEvaluator(spec)
    base_res = math.pi / (2.0 * spec.q * spec.r)
    res = min(resolution, base_res) if resolution else 0.5 * base_res

    lo = min(res, 0.05) * 0.5
    roots = _bracket_roots(ev, lo, mu_max, res, "real")
    certified = False
    attempt = res
    for _ in range(3):
        attempt *= 0.5
        again = _bracket_roots(ev, lo, mu_max, attempt, "real")
        if _roots_match(roots, again, 1e-9 * max(1.0, mu_max)):
            certified = True
            break
        roots = again
    if not certified:
        raise SpectrumCertificationError(
            "real-axis root set kept changing under bracket halving; "
            "a double root or missed bracket is likely"
        )

    model = AsymptoticModel.from_spec(spec)
    x_hi = _imag_scan_bound(ev, model)
    imag_res = min(res, 0.1)
    neg = _bracket_roots(ev, imag_res * 0.5, x_hi, imag_res, "imag")
    neg_again = _bracket_roots(ev, imag_res * 0.5, x_hi, imag_res * 0.5, "imag")
    if not _roots_match(neg, neg_again, 1e-9 * max(1.0, x_hi)):
        raise SpectrumCertificationError("imaginary-axis root set unstable under halving")

    return Spectrum(
        positive=tuple(roots), negative=tuple(neg), mu_max=float(mu_max), certified=True
    )


# ---------------------------------------------------------------------------
# Contour decay verification
# ---------------------------------------------------------------------------

def verify_contour_decay(
    spec: OperatorSpec,
    s: float,
    a_list: list[float],
    theta: float = math.pi / 4.0,
    parts: bool = False,
) -> list[float] | list[tuple[float, float, float]]:
    """|closed contour integral of z^(-2s) dlog F| over gamma(a) per abscissa.

    gamma(a) is the vertical segment Re z = a clipped to |arg z| <= theta
    joined to the two arcs |z| = a/cos(theta) reaching the imaginary
    axis, oriented counterclockwise.  z^(-2s) uses the principal branch,
    which is continuous on the whole contour.  Abscissae straddling a
    zero of F are nudged by multiples of 0.1 before giving up.

    With ``parts=True`` each entry is (total, arc_magnitude,
    segment_magnitude); the arc piece alone must also decay for
    s > 1/2.
    """
    if not (0.0 < theta < 0.5 * math.pi):
        raise ValueError("theta must lie in (0, pi/2)")
    if s <= 0.5:
        raise ValueError("need s > 1/2 for the boundary integrals to converge")
    if any(a <= 0 for a in a_list):
        raise ValueError("abscissae must be positive")
    if max(a_list) > 200.0:
        raise ValueError("abscissae above 200 exceed the validated evaluation range")
    ev = SecularEvaluator(spec)
    out = []
    for a in a_list:
        total, arc_mag, seg_mag = _contour_integral(ev, s, float(a), theta)
        out.append((total, arc_mag, seg_mag) if parts else total)
    return out


def _f_nonzero_on_segment(ev: SecularEvaluator, a: float, theta: float) -> bool:
    tan_t = math.tan(theta)
    for t in np.linspace(-a * tan_t, a * tan_t, 17):
        mant, _ = ev.scaled(a + 1j * t)
        if abs(mant) < 1e-8:
            return False
    return True


def _contour_integral(ev: SecularEvaluator, s: float, a: float, theta: float) -> float:
    shift = 0.0
    for _ in range(8):
        if _f_nonzero_on_segment(ev, a + shift, theta):
            break
        shift = -shift + 0.1 if shift <= 0 else -shift
    else:
        raise ContourError(f"could not shift a={a} off the zeros of F")
    a = a + shift
    radius = a / math.cos(theta)
    tan_t = math.tan(theta)

    def power(z: complex) -> complex:
        return cmath.exp(-2.0 * s * cmath.log(z))

    def seg(t: float) -> complex:
        z = a + 1j * t
        return power(z) * ev.dlog(z) * 1j

    def arc(phi: float) -> complex:
        z = radius * cmath.exp(1j * phi)
        return power(z) * ev.dlog(z) * 1j * z

    lower, _ = quad_complex(arc, -0.5 * math.pi, -theta, epsabs=1e-11, epsrel=1e-8)
    middle, _ = quad_complex(seg, -a * tan_t, a * tan_t, epsabs=1e-11, epsrel=1e-8)
    upper, _ = quad_complex(arc, theta, 0.5 * math.pi, epsabs=1e-11, epsrel=1e-8)
    total = lower + middle + upper
    return abs(total), abs(lower + upper), abs(middle)
