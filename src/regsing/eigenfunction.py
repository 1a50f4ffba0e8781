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
exp(log_scale), the log-scale adding q |Im mu R| back.  `scaled` takes
a scalar or an ndarray of mu; `dlog` evaluates F'/F over arrays by
Jacobi's formula from the analytic mu-derivatives of the rows.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from ._numutil import NumericalError, gauss_legendre
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
    bessel_jm0_rows,
    bessel_jm0_series,
    bessel_jm0_series_dx,
    gamma_fn,
    phi_rows,
    series_table,
)

GAMMA_TILDE = math.log(2.0) - EULER_GAMMA

_REAL_RESIDUE_TOL = 1e-8
_KERNEL_TOL = 1e-8  # |F(0)| below this share of max |F| at mu = 0.3, 0.7, 1.1 is a kernel
_KERNEL_PROBES = (1e-1, 10.0**-1.5, 1e-2)
_LOG_MAX = math.log(sys.float_info.max)
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


def _trace(s, g, phi, dphi, mu, r: float):
    """T and T_x at x = r of the branch T = g x^s phi_s(mu x), g = Gamma(1 + s) R^s,
    from the scaled phi_s(w) and phi_s'(w); scalars or broadcasting arrays."""
    return g * phi, g * (s / r * phi + mu * dphi)


def _right_half(mu):
    """mu as complex (scalar or ndarray) reflected into Re mu >= 0, and the reflection mask."""
    if isinstance(mu, np.ndarray):
        mu = mu.astype(complex)
        flip = mu.real < 0.0
        return np.where(flip, -mu, mu), flip
    mu = complex(mu)
    flip = mu.real < 0.0
    return (-mu if flip else mu), flip


class SecularEvaluator:
    """The prepared operator: per-operator tables, F and dlog F.

    Construction validates the tip condition.  The characteristic
    values `cv`, the asymptotic model `model` and the kernel order `k0`
    are worked out on first use and kept, so every route of one request
    reads the same decision.  :meth:`scaled` and :meth:`value` take a
    scalar mu (and return Python scalars) or an ndarray (and keep its
    shape); :meth:`dlog` is computed over arrays.
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
        # every branch but the companions: the +nu branch of each channel
        # (s = 0 on the nu = 0 channels), then the -nu branch of each other
        # channel; each distinct order has one kernel, 0 first when q0 > 0
        branch_s = list(spec.nus) + [-nu for nu in spec.nus[spec.q0 :]]
        orders = list(dict.fromkeys(branch_s))
        self._kernels = [NormalizedBessel(s) for s in orders]
        self._orders = np.array(orders)
        self._table = series_table(self._kernels)
        # per branch: its kernel row, s and Gamma(1 + s) R^s (Python floats for the scalar path)
        self._branches = [
            (orders.index(s), s, gamma_fn(1.0 + s) * spec.r**s) for s in branch_s
        ]
        self._branch_rows = np.array([b[0] for b in self._branches], dtype=int)
        self._branch_s = np.array([b[1] for b in self._branches])
        self._branch_g = np.array([b[2] for b in self._branches])
        self._top = np.hstack([spec.boundary.a_mat, spec.boundary.b_mat])
        if self.q == 1:  # the top row, normalized (validation makes it nonzero)
            a, b = complex(self._top[0, 0]), complex(self._top[0, 1])
            s_top = max(abs(a), abs(b))
            self._ab = (a / s_top, b / s_top)
            self._log_top = math.log(s_top)

    @cached_property
    def cv(self) -> CharacteristicValues:
        return characteristic_values(self.spec)

    @cached_property
    def model(self) -> AsymptoticModel:
        return AsymptoticModel.from_spec(self.spec, self.cv)

    @cached_property
    def k0(self) -> int:
        """Order of the zero of F at mu=0 in the variable mu^2.

        F is analytic in mu^2, so |F| ~ c mu^(2 k0); k0 is read off a
        log-log fit through the probe points and cross-checked on both
        probe pairs.
        """
        probes = np.array((0.0, 0.3, 0.7, 1.1) + _KERNEL_PROBES)
        f0, *mags = np.abs(self.value(probes)).tolist()
        scale = max(mags[:3] + [f0])
        if scale == 0.0:
            raise KernelOrderError("secular determinant vanishes at all probe points")
        if f0 > _KERNEL_TOL * scale:
            return 0
        mags = mags[3:]
        if min(mags) == 0.0:
            raise KernelOrderError("probe point landed on a zero of F")
        logs = [math.log(m) for m in mags]
        lmu = [math.log(m) for m in _KERNEL_PROBES]
        s12 = (logs[0] - logs[1]) / (lmu[0] - lmu[1])
        s23 = (logs[1] - logs[2]) / (lmu[1] - lmu[2])
        k = round(s23 / 2.0)
        if k < 1 or k > self.q or abs(s23 - 2.0 * k) > 0.1 or abs(s12 - 2.0 * k) > 0.5:
            raise KernelOrderError(
                f"order fit ambiguous: slopes {s12:.3f}, {s23:.3f} fit no k <= q={self.q}"
            )
        return int(k)

    # -- row entries --------------------------------------------------------

    def _row(self, t, t_x):
        """Boundary row at x = R from a solution trace t and its x-derivative t_x."""
        if self.dirichlet:
            return self.sqrt_r * t
        return self.kappa * t + self.sqrt_r * t_x

    def _traces(self, mu, deriv: bool = False) -> tuple:
        """Diagonal entries (jp, jm) of the lower blocks, Re mu >= 0.

        mu is a scalar (lists of q entries come back) or an ndarray
        (arrays of shape (q,) + mu.shape).  With ``deriv`` (ndarray mu
        only) their mu-derivatives (djp, djm) follow.  Each branch
        carries its trace T, T_x and the mu-derivatives T_mu, T_xmu; for
        phi_s(w) = (w/2)^(-s) J_s(w) with w phi'' + (2s + 1) phi' + w phi = 0,
        T = g R^s phi_s(w) gives T_mu = g R^(s+1) phi_s'(w) and
        T_xmu = -g R^s (s phi_s'(w) + w phi_s(w)).  The companion C has
        C_xmu = -mu R C + J_1(w), and J_1(w) = -phi_0'(w).
        """
        if isinstance(mu, np.ndarray):
            return self._stacked_traces(mu, deriv)
        r, q = self.r, self.q
        w = mu * r
        kernels = [(nb.value(w), nb.deriv(w)) for nb in self._kernels]
        rows = [self._row(*_trace(s, g, *kernels[k], mu, r)) for k, s, g in self._branches]
        jm = rows[q:]
        if self.q0:  # the companion rows come first in jm
            jm = [self._row(bessel_jm0_series(mu, r), bessel_jm0_series_dx(mu, r))] * self.q0 + jm
        return rows[:q], jm

    def _stacked_traces(self, mu: np.ndarray, deriv: bool) -> tuple[np.ndarray, ...]:
        """:meth:`_traces` over an ndarray mu: every branch from one :func:`phi_rows` pass."""
        r, q = self.r, self.q
        w = mu * r
        val, der = phi_rows(self._orders, self._table, w)
        phi, dphi = val[self._branch_rows], der[self._branch_rows]
        lift = (slice(None),) + (None,) * mu.ndim  # branch constants broadcast over mu
        s, g = self._branch_s[lift], self._branch_g[lift]
        rows = self._row(*_trace(s, g, phi, dphi, mu, r))
        jp, jm = rows[:q], rows[q:]
        if deriv:
            drows = self._row(g * r * dphi, -g * (s * dphi + w * phi))
            djp, djm = drows[:q], drows[q:]
        if self.q0:  # the companion rows come first in jm (and djm)
            c, c_x, c_mu = bessel_jm0_rows(mu, r, val[0], der[0])
            n = (self.q0,) + mu.shape
            jm = np.concatenate([np.broadcast_to(self._row(c, c_x), n), jm])
            if deriv:
                lead = self._row(c_mu, -mu * r * c - der[0])
                djm = np.concatenate([np.broadcast_to(lead, n), djm])
        return (jp, jm, djp, djm) if deriv else (jp, jm)

    def _stack(self, jp, jm, top) -> np.ndarray:
        """The 2q x 2q matrices (stacked over the shape of mu) with the given top rows."""
        q = self.q
        shape = np.shape(jp[0])
        m = np.zeros(shape + (2 * q, 2 * q), dtype=complex)
        m[..., :q, :] = top
        for l in range(q):
            m[..., q + l, l] = jp[l]
            m[..., q + l, q + l] = jm[l]
        return m

    def matrix(self, mu: complex) -> np.ndarray:
        """The 2q x 2q matrix, lower rows times exp(-|Im mu R|) (exact for real mu)."""
        mu, _ = _right_half(mu)  # F is even; keep arguments in the right half-plane
        jp, jm = self._traces(mu)
        return self._stack(jp, jm, self._top)

    def value(self, mu):
        """F(mu); raises NumericalError where |F| leaves the float range."""
        mant, logs = self.scaled(mu)
        if np.max(logs) > _LOG_MAX:
            raise NumericalError(
                f"|F(mu)| exceeds the float range (log-scale {np.max(logs):.1f}); "
                "use the scaled form"
            )
        if isinstance(mant, np.ndarray):
            return mant * np.exp(logs)
        return mant * math.exp(logs)

    def scaled(self, mu):
        """F(mu) = mantissa * exp(log_scale), log_scale real.

        mu is a scalar (Python scalars come back) or an ndarray (arrays
        of its shape come back).
        """
        mu, _ = _right_half(mu)
        growth = self.q * self.r * abs(mu.imag)  # each lower row carries exp(-|Im mu R|)
        jp, jm = self._traces(mu)
        if self.q == 1:
            a, b = self._ab
            num = a * jm[0] - b * jp[0]
            if not isinstance(mu, np.ndarray):  # Python arithmetic: the root-refinement path
                scale = max(abs(jp[0]), abs(jm[0])) or 1.0
                return num / scale, math.log(scale) + self._log_top + growth
            scale = np.maximum(abs(jp[0]), abs(jm[0]))
            scale[scale == 0.0] = 1.0  # a vanishing row: the mantissa is exactly 0
            return num / scale, np.log(scale) + self._log_top + growth
        m = self._stack(jp, jm, self._top)
        scales = np.max(np.abs(m), axis=-1)
        scales[scales == 0.0] = 1.0  # a vanishing row: the determinant is exactly 0
        mant = np.linalg.det(m / scales[..., None])
        logs = np.sum(np.log(scales), axis=-1) + growth
        if isinstance(mu, np.ndarray):
            return mant, logs
        return complex(mant), float(logs)

    # -- log-derivative -----------------------------------------------------

    def dlog(self, mu):
        """(d/dmu) log F by Jacobi's formula dlog F = tr(M^-1 M').

        The derivative rows carry the same exp(-|Im mu R|) factor as the
        value rows, so it cancels.  q = 1 is the closed 2 x 2 quotient.
        A scalar mu is evaluated as a one-element array.
        """
        if not isinstance(mu, np.ndarray):
            return complex(self.dlog(np.array([mu], dtype=complex))[0])
        mu, flip = _right_half(mu)
        jp, jm, djp, djm = self._traces(mu, deriv=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.q == 1:
                a, b = self._ab
                out = (a * djm[0] - b * djp[0]) / (a * jm[0] - b * jp[0])
            else:
                m = self._stack(jp, jm, self._top)
                dm = self._stack(djp, djm, 0.0)
                scales = np.max(np.abs(m), axis=-1, keepdims=True)
                try:
                    sol = np.linalg.solve(m / scales, dm / scales)
                except np.linalg.LinAlgError:
                    sol = np.full(m.shape, np.nan, dtype=complex)
                out = np.trace(sol, axis1=-2, axis2=-1)
        if not np.all(np.isfinite(out)):
            raise ContourError("log-derivative requested at a zero of F")
        return np.where(flip, -out, out)  # F is even, dlog F odd

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
    val = SecularEvaluator(spec).value(0.0)
    if abs(val.imag) > _REAL_RESIDUE_TOL * (1.0 + abs(val)):
        return val  # complex tip matrices: hand back the full value
    return val.real


# ---------------------------------------------------------------------------
# Kernel order at mu = 0
# ---------------------------------------------------------------------------

def kernel_order(spec: OperatorSpec) -> int:
    """Order k0 of the zero of F at mu=0 in the variable mu^2 (see SecularEvaluator.k0)."""
    return SecularEvaluator(spec).k0


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

    gamma_tilde: float
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
            gamma_tilde=GAMMA_TILDE,
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
    mants, logs = ev.scaled(1j * points if axis == "imag" else points.astype(complex))
    mags = np.abs(mants)
    live = mags > 0.0
    worst = float(np.max(np.abs(mants.imag[live]) / mags[live], initial=0.0))
    if worst > _REAL_RESIDUE_TOL:
        raise NumericalError(
            f"secular values on the {axis} axis are not real "
            f"(residue {worst:.2e}); complex tip matrices are not supported here"
        )
    return mants.real, logs


def _objective(ev: SecularEvaluator, axis: str, log_a: float):
    """t -> F(t) exp(-log_a) on the axis: a positive multiple of F, finite near the scale log_a."""

    def f(t: float) -> float:
        mant, log_scale = ev.scaled(1j * t if axis == "imag" else t)
        return mant.real * math.exp(log_scale - log_a)

    return f


def _brackets(
    ev: SecularEvaluator, lo: float, hi: float, res: float, axis: str, origin: bool
) -> list[tuple[float, float, float, float]]:
    """Sign changes of F on a grid of spacing <= res over [lo, hi], from one batched scan.

    With ``origin`` the grid starts at mu = 0 before lo.  Each bracket
    is (a, b, log_a, local): the :func:`_objective` scaled at a changes
    sign on [a, b], and local is the larger of its end values.
    """
    n = max(2, int(math.ceil((hi - lo) / res)) + 1)
    grid = np.linspace(lo, hi, n)
    if origin:
        grid = np.concatenate(([0.0], grid))
    mants, logs = _real_samples(ev, grid, axis)
    out = []
    for i in np.flatnonzero(mants[:-1] * mants[1:] <= 0.0):
        a, log_a = grid[i], logs[i]
        fa = mants[i] or _objective(ev, axis, log_a)(a + 1e-12 * max(1.0, a))
        fb = mants[i + 1] * math.exp(logs[i + 1] - log_a)
        if fa * fb < 0.0:
            out.append((a, grid[i + 1], log_a, max(abs(fa), abs(fb))))
    return out


def _same_brackets(coarse: list[tuple], fine: list[tuple]) -> bool:
    """Equal counts, and each fine bracket overlaps its coarse partner."""
    return len(coarse) == len(fine) and all(
        f[0] <= c[1] and c[0] <= f[1] for c, f in zip(coarse, fine)
    )


def _refine(ev: SecularEvaluator, brackets: list[tuple], axis: str) -> list[float]:
    """One brentq root per bracket, with a residual check."""
    roots = []
    for a, b, log_a, local in brackets:
        f = _objective(ev, axis, log_a)
        root = brentq(f, a, b, xtol=1e-13, rtol=4.0 * np.finfo(float).eps, maxiter=200)
        if abs(f(root)) > _ROOT_RESIDUAL_TOL * local:
            raise SpectrumCertificationError(
                f"refined root at {root} has residual above tolerance"
            )
        roots.append(float(root))
    return roots


def _imag_scan_bound(ev: SecularEvaluator) -> float:
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
        models = [ev.model.log_value(x).real for x in checks]
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

    The scans start at mu = 0 when F(0) != 0 (no kernel).  The sign
    changes of a grid scan are certified when a rescan at half
    the spacing finds as many, each overlapping its partner (up to three
    halvings on the real axis, one on the imaginary axis); the brackets
    of the coarser grid of that pair are then refined once each.  Simple
    zeros are assumed; a persistent mismatch raises
    :class:`SpectrumCertificationError`.
    """
    if mu_max <= 0.0:
        raise ValueError("mu_max must be positive")
    ev = SecularEvaluator(spec)
    base_res = math.pi / (2.0 * spec.q * spec.r)
    res = min(resolution, base_res) if resolution else 0.5 * base_res

    try:
        # F(0) != 0 is a sign sample on both axes, so a root below the first
        # grid point shows; with a kernel F(0) = 0 and its computed sign is noise
        origin = ev.k0 == 0
    except KernelOrderError:  # raised only where F(0) is below the kernel threshold
        origin = False
    lo = min(res, 0.05) * 0.5
    real = _brackets(ev, lo, mu_max, res, "real", origin)
    attempt = res
    for _ in range(3):
        attempt *= 0.5
        again = _brackets(ev, lo, mu_max, attempt, "real", origin)
        if _same_brackets(real, again):
            break
        real = again
    else:
        raise SpectrumCertificationError(
            "real-axis sign changes kept changing under bracket halving; "
            "a double root or missed bracket is likely"
        )

    x_hi = _imag_scan_bound(ev)
    imag_res = min(res, 0.1)
    imag = _brackets(ev, imag_res * 0.5, x_hi, imag_res, "imag", origin)
    rescan = _brackets(ev, imag_res * 0.5, x_hi, imag_res * 0.5, "imag", origin)
    if not _same_brackets(imag, rescan):
        raise SpectrumCertificationError("imaginary-axis sign changes unstable under halving")

    return Spectrum(
        positive=tuple(_refine(ev, real, "real")),
        negative=tuple(_refine(ev, imag, "imag")),
        mu_max=float(mu_max),
        certified=True,
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
    mants, _ = ev.scaled(a + 1j * np.linspace(-a * tan_t, a * tan_t, 17))
    return bool(np.all(np.abs(mants) >= 1e-8))


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

    def power(z: np.ndarray) -> np.ndarray:
        return np.exp(-2.0 * s * np.log(z))

    def seg(t: np.ndarray) -> np.ndarray:
        z = a + 1j * t
        return power(z) * ev.dlog(z) * 1j

    def arc(phi: np.ndarray) -> np.ndarray:
        z = radius * np.exp(1j * phi)
        return power(z) * ev.dlog(z) * 1j * z

    lower, _ = gauss_legendre(arc, (-0.5 * math.pi, -theta))
    middle, _ = gauss_legendre(seg, (-a * tan_t, a * tan_t))
    upper, _ = gauss_legendre(arc, (theta, 0.5 * math.pi))
    total = lower + middle + upper
    return abs(total), abs(lower + upper), abs(middle)
