"""The secular determinant F(mu), its zeros, and its asymptotic model.

mu^2 is an eigenvalue iff the boundary system [[a_mat, b_mat],
[diag(jp(mu)), diag(jm(mu))]] is singular; its kernel vectors are the
asymptotic coefficient vectors of eigenfunctions.  Its diagonal lower
blocks commute, so its determinant is the q x q determinant

    F(mu) = det N(mu),    N = a_mat diag(jm) - b_mat diag(jp),

and a kernel vector c of N gives the coefficient vector (diag(jm) c,
-diag(jp) c).  The traces jp_l, jm_l are boundary values at x = R of
the two normalized scalar solutions of -f'' + (lambda/x^2 - mu^2) f = 0:

* nu > 0 branch pair:  sqrt(x) * Gamma(1 +- nu) x^(+-nu) phi_{+-nu}(mu x)
* nu = 0 pair:         sqrt(x) * J_0(mu x) and the logarithmic companion

written through the entire even functions phi_nu(w) = (w/2)^(-nu) J_nu(w),
so every trace is an even entire function of mu and F is analytic
in mu^2 (the log mu pieces of the companion solution cancel identically).

Robin rows evaluate kappa * T(R) + sqrt(R) * dT/dx(R) with
kappa = 1/(2 sqrt(R)) + alpha sqrt(R); Dirichlet rows evaluate the
solution trace sqrt(R) * T(R).  The traces carry the factor
exp(-|Im mu R|) of the exponentially scaled Bessel kernel, so entries
stay finite on contours where F grows like exp(q |Im mu| R); `scaled`
returns a mantissa and a real log-scale with F = mantissa *
exp(log_scale), the log-scale adding q |Im mu R| back.  `scaled` and
`dlog` are evaluated over ndarrays of mu (a scalar mu is a one-element
array); `dlog` gives F'/F by Jacobi's formula tr(N^-1 N') from the
analytic mu-derivatives of the traces.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    KernelTable,
    bessel_jm0_rows,
    gamma_fn,
    phi_rows,
)

GAMMA_TILDE = math.log(2.0) - EULER_GAMMA

_REAL_RESIDUE_TOL = 1e-8  # |Im z| above this share of |z| (or of 1 + |z|) is not rounding
_KERNEL_TOL = 1e-8  # |F(0)| below this share of max |F| at mu = 0.3, 0.7, 1.1 is a kernel
# near-zero probes: the kernel-order fit and the Richardson extrapolation of F/mu^(2 k0)
_KERNEL_PROBES = (1e-1, 10.0**-1.5, 1e-2)
_LOG_MAX = math.log(sys.float_info.max)
_ROOT_RESIDUAL_TOL = 1e-10
_ROOT_XTOL, _ROOT_RTOL = 1e-13, 4.0 * sys.float_info.epsilon
_MAX_ROUNDS = 100  # accepted Newton steps halve every two rounds: about 80 suffice


class InvalidOperatorError(NumericalError):
    """The tip condition fails :func:`~regsing.operators.validate`."""


class SpectrumCertificationError(NumericalError):
    pass


class KernelOrderError(NumericalError):
    pass


class ContourError(NumericalError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Zeros of F: `positive` on the real axis (eigenvalues mu^2),
    `negative` on the imaginary axis as x with F(ix)=0 (eigenvalues -x^2).

    `evaluator` is the prepared operator that found them, kept so that a
    zeta request on the same spec does not prepare it again.
    """

    positive: tuple[float, ...]
    negative: tuple[float, ...]
    mu_max: float
    certified: bool
    evaluator: SecularEvaluator | None = field(default=None, compare=False, repr=False)


def _trace(s, g, phi, dphi, mu, r: float):
    """T and T_x at x = r of the branch T = g x^s phi_s(mu x), g = Gamma(1 + s) R^s,
    from the scaled phi_s(w) and phi_s'(w) (broadcasting arrays)."""
    return g * phi, g * (s / r * phi + mu * dphi)


def _right_half(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu as complex, reflected into Re mu >= 0, and the reflection mask."""
    mu = mu.astype(complex)
    flip = mu.real < 0.0
    return np.where(flip, -mu, mu), flip


class SecularEvaluator:
    """The prepared operator: per-operator tables, F and dlog F.

    Construction validates the tip condition and raises
    :class:`InvalidOperatorError` where it fails.  The characteristic
    values `cv`, the asymptotic model `model` and the kernel order `k0`
    are worked out on first use and kept, so every route of one request
    reads the same decision; F(0), the first probe of `k0`, is kept as
    `f0`.  :meth:`scaled`, :meth:`value` and :meth:`dlog` are computed
    over an ndarray mu and keep its shape; a scalar mu is evaluated as a
    one-element array and comes back as Python scalars.
    """

    def __init__(self, spec: OperatorSpec):
        bad = validate(spec)
        if bad:
            raise InvalidOperatorError(
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
        self._kernel = KernelTable(orders)
        # per branch: its kernel row, s and Gamma(1 + s) R^s
        self._branch_rows = np.array([orders.index(s) for s in branch_s], dtype=int)
        self._branch_s = np.array(branch_s)
        # at an R so small or large that R^s, the trace, its x-derivative or
        # the row of a unit kernel value (phi = phi' = mu = 1), or the 1/R of
        # the companion rows, overflow, F overflows at every mu
        try:
            g = [gamma_fn(1.0 + s) * spec.r**s for s in branch_s]
        except OverflowError:
            g = [math.inf]
        traces = [_trace(s, gs, 1.0, 1.0, 1.0, spec.r) for s, gs in zip(branch_s, g)]
        unit = [1.0 / spec.r] + [v for t in traces for v in (*t, self._row(*t))]
        if not all(map(math.isfinite, unit)):
            raise NumericalError(f"the boundary rows leave the float range at R = {spec.r:.6g}")
        self._branch_g = np.array(g)
        # the tip rows [A | B], each over its largest entry (validation makes it nonzero)
        top = np.hstack([spec.boundary.a_mat, spec.boundary.b_mat]).tolist()
        tops = [max(map(abs, row)) for row in top]
        top = np.array([[v / t for v in row] for row, t in zip(top, tops)])
        self._at, self._bt = top[:, : self.q].T, top[:, self.q :].T
        self._log_top = sum(map(math.log, tops))

    @cached_property
    def cv(self) -> CharacteristicValues:
        return characteristic_values(self.spec)

    @cached_property
    def model(self) -> AsymptoticModel:
        return AsymptoticModel.from_spec(self.spec, self.cv)

    @cached_property
    def _probes(self) -> np.ndarray:
        """F at 0, at the scale points 0.3, 0.7, 1.1 and at the kernel probes: one array call.

        The last three entries, F at ``_KERNEL_PROBES``, are also the
        samples of the regularized determinant.
        """
        return self.value(np.array((0.0, 0.3, 0.7, 1.1) + _KERNEL_PROBES))

    @cached_property
    def f0(self) -> complex:
        """F(0), the first probe of :attr:`k0`."""
        return complex(self._probes[0])

    @property
    def f0_is_sample(self) -> bool:
        """Whether F(0) is a sign sample for the root scans.

        F(0) != 0 (no kernel) is one on both axes, so a root below the
        first grid point shows; with a kernel F(0) = 0 and its computed
        sign is noise.
        """
        try:
            return self.k0 == 0
        except KernelOrderError:  # raised only where F(0) is below the kernel threshold
            return False

    @cached_property
    def k0(self) -> int:
        """Order of the zero of F at mu=0 in the variable mu^2.

        F is analytic in mu^2, so |F| ~ c mu^(2 k0); k0 is read off a
        log-log fit through the probe points and cross-checked on both
        probe pairs.
        """
        f0, *mags = np.abs(self._probes).tolist()
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

    def _traces(self, mu: np.ndarray, deriv: bool = False) -> tuple[np.ndarray, ...]:
        """Diagonal entries (jp, jm) of the lower blocks, Re mu >= 0, shaped (q,) + mu.shape.

        Every branch comes from one :func:`phi_rows` pass.  With ``deriv``
        their mu-derivatives (djp, djm) follow.  Each branch carries its
        trace T, T_x and the mu-derivatives T_mu, T_xmu; for
        phi_s(w) = (w/2)^(-s) J_s(w) with w phi'' + (2s + 1) phi' + w phi = 0,
        T = g R^s phi_s(w) gives T_mu = g R^(s+1) phi_s'(w) and
        T_xmu = -g R^s (s phi_s'(w) + w phi_s(w)).  The companion C has
        C_xmu = -mu R C + J_1(w), and J_1(w) = -phi_0'(w).
        """
        r, q = self.r, self.q
        w = mu * r
        val, der, y = phi_rows(self._kernel, w)
        phi, dphi = val[self._branch_rows], der[self._branch_rows]
        lift = (slice(None),) + (None,) * mu.ndim  # branch constants broadcast over mu
        s, g = self._branch_s[lift], self._branch_g[lift]
        rows = self._row(*_trace(s, g, phi, dphi, mu, r))
        jp, jm = rows[:q], rows[q:]
        if deriv:
            drows = self._row(g * r * dphi, -g * (s * dphi + w * phi))
            djp, djm = drows[:q], drows[q:]
        if self.q0:  # the companion rows come first in jm (and djm)
            c, c_x, c_mu = bessel_jm0_rows(mu, r, val[0], der[0], y)
            n = (self.q0,) + mu.shape
            jm = np.concatenate([np.broadcast_to(self._row(c, c_x), n), jm])
            if deriv:
                lead = self._row(c_mu, -mu * r * c - der[0])
                djm = np.concatenate([np.broadcast_to(lead, n), djm])
        return (jp, jm, djp, djm) if deriv else (jp, jm)

    def _system(self, jp, jm) -> np.ndarray:
        """N^T, N = A diag(jm) - B diag(jp) with the normalized tip rows A, B, from traces
        shaped (q,) + mu.shape: a stack in np.linalg's layout over mu.shape reversed."""
        return jm.T[..., None] * self._at - jp.T[..., None] * self._bt

    def matrix(self, mu: complex) -> np.ndarray:
        """The q x q system N at mu (normalized tip rows, traces times exp(-|Im mu R|)),
        whose kernel vectors c give the coefficient vectors (diag(jm) c, -diag(jp) c)."""
        mu, _ = _right_half(np.array([mu]))  # F is even; keep arguments in the right half-plane
        return self._system(*self._traces(mu))[0].T

    def value(self, mu):
        """F(mu); raises NumericalError where |F| leaves the float range."""
        if not isinstance(mu, np.ndarray):
            return complex(self.value(np.array([mu]))[0])
        mant, logs = self.scaled(mu)
        if np.max(logs) > _LOG_MAX:
            raise NumericalError(
                f"|F(mu)| exceeds the float range (log-scale {np.max(logs):.1f}); "
                "use the scaled form"
            )
        return mant * np.exp(logs)

    def scaled(self, mu):
        """F(mu) = mantissa * exp(log_scale), log_scale real, over an ndarray mu.

        A scalar mu comes back as a Python complex and float.
        """
        if not isinstance(mu, np.ndarray):
            mant, logs = self.scaled(np.array([mu]))
            return complex(mant[0]), float(logs[0])
        mu, _ = _right_half(mu)
        jp, jm = self._traces(mu)
        return self._mantissa(mu, jp, jm, self._system(jp, jm))

    def _mantissa(self, mu: np.ndarray, jp, jm, nt) -> tuple[np.ndarray, np.ndarray]:
        """The mantissa det(N / column scales) and the log-scale of F at mu (Re mu >= 0)
        from the traces and :meth:`_system` there; column l is scaled by max(|jp_l|, |jm_l|)."""
        growth = self.q * self.r * abs(mu.imag)  # each column of N carries exp(-|Im mu R|)
        scale = np.maximum(abs(jp.T), abs(jm.T))
        scale[scale == 0.0] = 1.0  # a vanishing column: det N is exactly 0
        nt = nt / scale[..., None]  # row l of N^T is column l of N
        if self.q == 1:
            mant, logs = nt[..., 0, 0], np.log(scale[..., 0])
        else:
            mant, logs = np.linalg.det(nt), np.log(scale).sum(axis=-1)
        return mant.T, logs.T + self._log_top + growth

    # -- log-derivative -----------------------------------------------------

    def dlog(self, mu):
        """(d/dmu) log F by Jacobi's formula dlog F = tr(N^-1 N').

        N' is N with the traces replaced by their mu-derivatives, which
        carry the same exp(-|Im mu R|) factor, so it cancels.  A scalar
        mu is evaluated as a one-element array; mu at a zero of F raises
        ContourError.
        """
        if not isinstance(mu, np.ndarray):
            return complex(self.dlog(np.array([mu]))[0])
        out = self._dlog(mu)
        if not np.all(np.isfinite(out)):
            raise ContourError("log-derivative requested at a zero of F")
        return out

    def _dlog(self, mu: np.ndarray) -> np.ndarray:
        """:meth:`dlog` over an ndarray mu, left non-finite at the zeros of F."""
        mu, flip = _right_half(mu)
        jp, jm, djp, djm = self._traces(mu, deriv=True)
        return self._jacobi(flip, self._system(jp, jm), self._system(djp, djm))

    def _scaled_dlog(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`scaled` and :meth:`_dlog` over an ndarray mu from one kernel pass."""
        mu, flip = _right_half(mu)
        jp, jm, djp, djm = self._traces(mu, deriv=True)
        nt = self._system(jp, jm)
        return (*self._mantissa(mu, jp, jm, nt), self._jacobi(flip, nt, self._system(djp, djm)))

    def _jacobi(self, flip, nt, dnt) -> np.ndarray:
        """dlog F = tr(N^-1 N') from :meth:`_system` of the traces and of their
        mu-derivatives, negated where mu was reflected."""
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.q == 1:
                out = dnt[..., 0, 0] / nt[..., 0, 0]
            else:  # tr(N^-T N'^T) = tr(N^-1 N'), both over the column maxima of N
                scale = np.max(abs(nt), axis=-1, keepdims=True)
                nt, dnt = nt / scale, dnt / scale
                try:
                    sol = np.linalg.solve(nt, dnt)
                except np.linalg.LinAlgError:  # mu on a zero of F: only that matrix is singular
                    singular = np.linalg.det(nt) == 0.0
                    nt[singular] = np.eye(self.q)
                    sol = np.linalg.solve(nt, dnt)
                    sol[singular] = np.nan
                out = np.trace(sol, axis1=-2, axis2=-1)
        return np.where(flip, -out.T, out.T)  # F is even, dlog F odd

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
    val = SecularEvaluator(spec).f0
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

    def quoted_log_value(self, x: float) -> complex:
        """:meth:`log_value` where the model is quoted as a diagnostic, x >= 10."""
        if x < 10.0:
            raise ValueError("asymptotic model is quoted for x >= 10")
        return self.log_value(float(x))


def asymptotic_log_F_imag(spec: OperatorSpec, x: float) -> complex:
    """Model value of log F(ix); diagnostics only, never inside determinants."""
    return AsymptoticModel.from_spec(spec).quoted_log_value(x)


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


def _scan(
    ev: SecularEvaluator, lo: float, hi: float, res: float, axis: str, origin: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A grid of spacing <= res over [lo, hi], with mu = 0 in front when
    ``origin``, and the samples (mantissa real parts, log-scales) of F on it."""
    grid = np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / res)) + 1))
    if origin:
        grid = np.concatenate(([0.0], grid))
    return (grid, *_real_samples(ev, grid, axis))


def _halve(
    ev: SecularEvaluator, scan: tuple[np.ndarray, ...], axis: str, origin: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`_scan` at half the spacing, sampling only the new midpoints.

    Over [lo, hi] the n points become the 2n - 1 of
    ``np.linspace(lo, hi, 2n - 1)``, whose even points are bit-identical
    to the old ones (the step is halved exactly), so the old samples are
    kept and interleaved with those of the n - 1 midpoints.  The origin
    sample stays in front.
    """
    k = int(origin)
    grid = scan[0]
    mid = np.linspace(grid[k], grid[-1], 2 * (grid.size - k) - 1)[1::2]
    out = []
    for old, new in zip(scan, (mid, *_real_samples(ev, mid, axis))):
        both = np.empty(2 * old.size - k - 1)
        both[:k], both[k::2], both[k + 1 :: 2] = old[:k], old[k:], new
        out.append(both)
    return tuple(out)


def _brackets(
    ev: SecularEvaluator, grid: np.ndarray, mants: np.ndarray, logs: np.ndarray, axis: str
) -> list[tuple[float, float, float, float, float]]:
    """Sign changes of F between neighbouring samples of a :func:`_scan`.

    Each bracket is (a, b, log_a, fa, fb): F exp(-log_a) on the axis, a
    positive multiple of F that is finite near the scale log_a, takes
    the values fa and fb of opposite signs at a and b.  A sample that is
    exactly 0 is replaced by one just above it; those samples are one
    more call.
    """
    idx = np.flatnonzero(mants[:-1] * mants[1:] <= 0.0)
    fa, log_a = mants[idx], logs[idx]
    zero = fa == 0.0
    if zero.any():
        a = grid[idx[zero]]
        m, l = _real_samples(ev, a + 1e-12 * np.maximum(1.0, a), axis)
        fa[zero] = m * np.exp(l - log_a[zero])
    fb = mants[idx + 1] * np.exp(logs[idx + 1] - log_a)
    keep = fa * fb < 0.0
    return list(zip(*(v[keep].tolist() for v in (grid[idx], grid[idx + 1], log_a, fa, fb))))


def _same_brackets(coarse: list[tuple], fine: list[tuple]) -> bool:
    """Equal counts, and each fine bracket overlaps its coarse partner."""
    return len(coarse) == len(fine) and all(
        f[0] <= c[1] and c[0] <= f[1] for c, f in zip(coarse, fine)
    )


def _refine(ev: SecularEvaluator, brackets: list[tuple], axis: str) -> list[float]:
    """The root in each bracket of :func:`_brackets`, all refined together.

    Safeguarded Newton (``rtsafe``) over the array of roots still
    active: each round is one kernel pass
    (:meth:`~SecularEvaluator._scaled_dlog`) giving F, whose mantissa
    signs shrink every bracket, and dlog F, for the Newton steps of the
    real function Re F(unit x), unit = 1 on the real axis and i on the
    imaginary one.  With m the mantissa, the step is
    Re m / Re(unit m dlog F).  That is 1/Re(unit dlog F) where F is
    real, and it stays accurate next to a root, where the rounding
    residue Im m outweighs Re m and dlog F is mostly imaginary.  A step
    that leaves its bracket, that is not at most half the step two
    rounds before, or that is not finite becomes a bisection.  A root
    stops when its step or its bracket width is at most
    1e-13 + 4 eps |x|, or when F is exactly 0 there.  Each root must
    then leave a residual |F exp(-log_a)| of at most
    ``_ROOT_RESIDUAL_TOL`` times the larger end value of its bracket,
    checked by one more F call.
    """
    if not brackets:
        return []
    unit = 1j if axis == "imag" else 1.0
    lo, hi, log_a, fa, fb = (np.array(v) for v in zip(*brackets))
    sign_lo = np.sign(fa)
    x = lo - fa * (hi - lo) / (fb - fa)  # false position: inside the bracket
    step = hi - lo  # |step| of the last round and of the round before
    before = step.copy()
    active = np.ones(len(x), dtype=bool)
    for _ in range(_MAX_ROUNDS):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        xa = x[act]
        mant, _, dlog = ev._scaled_dlog(unit * xa)
        f = mant.real
        above = f * sign_lo[act] > 0.0  # the sign of the lower end: the root lies above
        lo[act[above]] = xa[above]
        hi[act[~above]] = xa[~above]
        live = f != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (unit * mant * dlog).real
            newton = np.where(live & np.isfinite(slope), f / slope, np.nan)
        lo_a, hi_a = lo[act], hi[act]
        x_new = xa - newton
        ok = (lo_a <= x_new) & (x_new <= hi_a) & (2.0 * np.abs(newton) <= before[act])
        x_next = np.where(ok, x_new, 0.5 * (lo_a + hi_a))
        dx = np.where(ok, np.abs(newton), 0.5 * (hi_a - lo_a))
        before[act], step[act] = step[act], dx
        tol = _ROOT_XTOL + _ROOT_RTOL * np.abs(x_next)
        x[act] = np.where(live, x_next, xa)
        active[act] = live & (dx > tol) & (hi_a - lo_a > tol)
    if active.any():
        raise SpectrumCertificationError(
            f"root refinement did not converge in {_MAX_ROUNDS} rounds"
        )
    mants, logs = ev.scaled(unit * x)
    residual = np.abs(mants.real * np.exp(logs - log_a))
    bad = residual > _ROOT_RESIDUAL_TOL * np.maximum(np.abs(fa), np.abs(fb))
    if bad.any():
        raise SpectrumCertificationError(
            f"refined root at {x[bad][0]} has residual above tolerance"
        )
    return x.tolist()


def _imag_scan_bound(ev: SecularEvaluator) -> float:
    """Height beyond which the model provably dominates and F(ix) has no zeros.

    The remainder of the model decays like 1/log x, far too slowly for a
    literal fixed-ratio criterion, so the certificate is model dominance:
    at three increasing heights the measured log F(ix) stays within log 2
    of the model and |F| grows.  Finitely many imaginary zeros exist, so
    the doubling search terminates.  Each step is one array call.
    """
    x_hi = 12.0
    while x_hi <= 220.0:
        checks = np.array([0.8, 0.9, 1.0]) * x_hi
        mants, logs = ev.scaled(1j * checks)
        with np.errstate(divide="ignore"):  # a zero of F reads -inf and fails the test
            measured = np.log(np.abs(mants)) + logs
        models = [ev.model.log_value(x).real for x in checks.tolist()]
        close = all(abs(lv - mv) < math.log(2.0) for lv, mv in zip(measured, models))
        growing = measured[0] < measured[1] < measured[2]
        if close and growing:
            return x_hi
        x_hi *= 1.6
    raise SpectrumCertificationError(
        "could not certify an upper bound for imaginary-axis zeros below x=220"
    )


def find_spectrum(spec: OperatorSpec, mu_max: float) -> Spectrum:
    """All zeros of F on (0, mu_max] and on the positive imaginary axis.

    The real-axis grid has the spacing pi / (4 q R), the imaginary-axis
    grid the smaller of that and 0.1; both start at mu = 0 when F(0) is
    a sign sample (:attr:`SecularEvaluator.f0_is_sample`).  The sign
    changes of a grid scan are certified when a rescan at half the
    spacing finds as many, each overlapping its partner (up to three
    halvings on the real axis, one on the imaginary axis).  Each rescan
    keeps the samples it already has and evaluates F only at the new
    midpoints (:func:`_halve`).  The brackets of the coarser grid of
    the certifying pair are then refined together, one axis at a time,
    by the batched safeguarded Newton iteration of :func:`_refine`: each
    round is one kernel pass giving F and dlog F over the roots still
    active, a root stops when its step or bracket is below
    1e-13 + 4 eps |x|, and every root must pass a residual check.
    Simple zeros are assumed; a persistent mismatch raises
    :class:`SpectrumCertificationError`.  The returned
    :class:`Spectrum` carries the evaluator, which
    :func:`~regsing.determinant.zeta_eval` reuses for the same spec.
    """
    if mu_max <= 0.0:
        raise ValueError("mu_max must be positive")
    ev = SecularEvaluator(spec)
    res = math.pi / (4.0 * spec.q * spec.r)
    origin = ev.f0_is_sample
    scan = _scan(ev, min(res, 0.05) * 0.5, mu_max, res, "real", origin)
    real = _brackets(ev, *scan, "real")
    for _ in range(3):
        scan = _halve(ev, scan, "real", origin)
        again = _brackets(ev, *scan, "real")
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
    scan = _scan(ev, imag_res * 0.5, x_hi, imag_res, "imag", origin)
    imag = _brackets(ev, *scan, "imag")
    rescan = _brackets(ev, *_halve(ev, scan, "imag", origin), "imag")
    if not _same_brackets(imag, rescan):
        raise SpectrumCertificationError("imaginary-axis sign changes unstable under halving")

    return Spectrum(
        positive=tuple(_refine(ev, real, "real")),
        negative=tuple(_refine(ev, imag, "imag")),
        mu_max=float(mu_max),
        certified=True,
        evaluator=ev,
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
