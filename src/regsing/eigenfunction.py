"""The secular determinant F(mu), its zeros, and its asymptotic model.

mu^2 is an eigenvalue iff the boundary system [[a_mat, b_mat],
[diag(jp(mu)), diag(jm(mu))]] is singular; its kernel vectors are the
asymptotic coefficient vectors of eigenfunctions.  Its diagonal lower
blocks commute, so its determinant is the q x q determinant

    F(mu) = det N(mu),    N = a_mat diag(jm) - b_mat diag(jp),

and a kernel vector c of N gives the coefficient vector (diag(jm) c,
-diag(jp) c).  Where the tip rows (A, B) are diagonal, as on every
diagonal_spec and every cone degree, the operator separates into q
scalar channels and F = prod_l N_ll, N_ll = a_ll jm_l - b_ll jp_l
(Kirsten, Loya & Park, Manuscripta Math. 125, 2008): each channel is a
factor of F, read off the diagonal with no matrix routine, and the
spectrum search counts, brackets and refines each factor on its own.
A coupled tip is the one factor det N.  The traces jp_l, jm_l are
boundary values at x = R of the two normalized scalar solutions of -f'' + (lambda/x^2 - mu^2) f = 0:

* nu > 0 branch pair:  sqrt(x) * Gamma(1 +- nu) x^(+-nu) phi_{+-nu}(mu x)
* nu = 0 pair:         sqrt(x) * J_0(mu x) and the logarithmic companion

written through the entire even functions phi_nu(w) = (w/2)^(-nu) J_nu(w),
so every trace is an even entire function of mu and F is analytic
in mu^2 (the log mu pieces of the companion solution cancel identically).

A row is wt T(R) + wx dT/dx(R): (kappa, sqrt(R)) at a Robin end
f' + alpha f = 0, kappa = 1/(2 sqrt(R)) + alpha sqrt(R), and (sqrt(R), 0)
at a Dirichlet one.  Every row and its w-derivative, w = mu R, is a fixed
linear combination of the kernel rows (:func:`_boundary_map`), so the end
condition enters only as weights.  The traces carry the factor
exp(-|Im mu R|) of the exponentially scaled Bessel kernel, so entries
stay finite on contours where F grows like exp(q |Im mu| R); `scaled`
returns a mantissa and a real log-scale with F = mantissa *
exp(log_scale), the log-scale adding q |Im mu R| back.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from ._numutil import NumericalError, gauss_legendre
from .circle import TaylorCircle, probes
from .operators import (
    Channels,
    CharacteristicValues,
    Dirichlet,
    OperatorSpec,
    channels,
    characteristic_values,
    diagonal_tip,
    validate,
)
from .special import EULER_GAMMA, KernelTable, phi_rows

GAMMA_TILDE = math.log(2.0) - EULER_GAMMA

_REAL_RESIDUE_TOL = 1e-8  # |Im z| above this share of |z| (or of 1 + |z|) is not rounding
VERIFY_CONTOUR_THETA = math.pi / 4.0  # verify_contour_decay: the half-angle of the segment
_LOG_MAX = math.log(sys.float_info.max)
_IMAG_GRID_XR = 12.0  # x R where the imaginary grid that cuts (0, inf] ends
_ANGLE_SLACK = 1e-9  # an angle this close to 0 may lie on either side of it by rounding
_ROOT_XTOL, _ROOT_RTOL = 1e-13, 4.0 * sys.float_info.epsilon
_MAX_ROUNDS = 100  # accepted Newton steps halve every two rounds: about 80 suffice
_SLOPE_FLOOR = 64.0 * sys.float_info.epsilon  # a Newton slope's rounding, per unit of growth
_TAYLOR_TERMS = 14  # of a factor's Taylor polynomial; with 12, 6 of 1,343 pool roots miss the bound
_TAYLOR_STEPS = 4  # Newton steps on it from the Hermite start


class InvalidOperatorError(NumericalError):
    """The tip condition fails :func:`~regsing.operators.validate`."""


class SpectrumCertificationError(NumericalError):
    pass


class ContourError(NumericalError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """Zeros of F: `positive` on the real axis up to `mu_max` (eigenvalues
    mu^2), `negative` on the whole imaginary axis as x with F(ix)=0
    (eigenvalues -x^2), each in ascending order and listed as often as its
    multiplicity.  Both rest on the zero count of every cell, the imaginary
    axis's out to x = inf, which is what `certified` states.

    `evaluator` is the prepared operator that found them, kept so that a
    zeta request on the same spec does not prepare it again; `passes`
    counts the kernel passes the search made, `scan_passes` those of the
    scan, the rest being Newton rounds.  `taylor_roots` were read off their
    factor's Taylor polynomial and `refined_roots` took Newton rounds; any
    other root is a multiple one that the scan settled.
    """

    positive: tuple[float, ...]
    negative: tuple[float, ...]
    mu_max: float
    certified: bool
    evaluator: SecularEvaluator | None = field(default=None, compare=False, repr=False)
    passes: int = field(default=0, compare=False)
    scan_passes: int = field(default=0, compare=False)
    taylor_roots: int = field(default=0, compare=False)
    refined_roots: int = field(default=0, compare=False)


def _boundary_map(spec: OperatorSpec, ch: Channels) -> np.ndarray:
    """The map (a, b, c, e), shaped (4, 2q, m'), from the kernel rows V (:func:`phi_rows`
    at the kernel orders of ``ch``, the keys of its Gamma table; psi last on a log
    channel) and their w-derivatives D to the rows (jp, jm) = a V + w b D and their
    w-derivatives c D + w e V, w = mu R (d/dmu = R d/dw).

    A row is wt T(R) + wx T_x(R), (wt, wx) = (kappa, sqrt(R)) at a Robin end and
    (sqrt(R), 0) at a Dirichlet one.  A branch T = g x^s phi_s(mu x), g = Gamma(1 + s) R^s,
    has T_x = g (s phi_s / R + mu phi_s'), T_mu = g R phi_s' and, as w phi_s'' +
    (2s + 1) phi_s' + w phi_s = 0, T_xmu = -g (s phi_s' + w phi_s); the companion
    C = log(R) phi_0 - psi has C_x = phi_0 / R + mu E, C_mu = R E with
    E = log(R) phi_0' - psi', and C_xmu = -w C - phi_0'.  In w, not in mu, no entry
    carries a spare power of R (in mu the Robin -sqrt(R) g R of mu phi_s underflowed at
    R = 5.3e-280, and the derivative rows, R times those in w, took F' past the float
    range where F' / F is not, from R = 1e140), and each takes the weights' powers of R
    before g.  Where R^s, T or T_x at unit kernel values and mu = 1, their row or 1/R
    overflow, F overflows at every mu: a NumericalError."""
    r, q, q0, nus = spec.r, spec.q, spec.q0, ch.nus
    sqrt_r = math.sqrt(r)
    wt, wx = (sqrt_r, 0.0) if isinstance(spec.regular_bc, Dirichlet) else (spec.kappa, sqrt_r)
    # the +nu branch of each channel (s = 0 on a log channel): the rows of jp; the -nu
    # branch of each other channel: the rows of jm after the q0 companions
    branch_s = list(nus) + [-nu for nu in nus[q0:]]
    orders = list(ch.gamma)
    try:
        g = [ch.gamma[s] * r**s for s in branch_s]
    except OverflowError:
        g = [math.inf]
    t_x = [gs * (s / r + 1.0) for s, gs in zip(branch_s, g)]
    unit = [1.0 / r, *g, *t_x, *(wt * gs + wx * t for gs, t in zip(g, t_x))]
    if not all(map(math.isfinite, unit)):
        raise NumericalError(f"the boundary rows leave the float range at R = {r:.6g}")
    # (row, kernel row, a, b, c, e) of each nonzero entry
    entries = [
        (row, orders.index(s), wt * gs + wx * s / r * gs, wx / r * gs,
         wt * gs - wx * s / r * gs, -wx / r * gs)
        for row, s, gs in zip([*range(q), *range(q + q0, 2 * q)], branch_s, g)
    ]
    if q0:  # the companions, on phi_0 (the first kernel row) and psi (the last)
        log_r = math.log(r)
        phi0 = (0, wt * log_r + wx / r, wx * log_r / r, wt * log_r - wx / r, -wx * log_r / r)
        psi = (-1, -wt, -wx / r, -wt, wx / r)
        entries += [(row, *v) for row in range(q, q + q0) for v in (phi0, psi)]
    row, column, *coeffs = zip(*entries)
    maps = np.zeros((4, 2 * q, len(orders) + (q0 > 0)))
    maps[:, row, column] = coeffs
    return maps


def _unscaled(mant: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """F = mant * exp(logs); raises NumericalError where |F| leaves the float range."""
    if np.max(logs) > _LOG_MAX:
        raise NumericalError(
            f"|F(mu)| exceeds the float range (log-scale {np.max(logs):.4g}); "
            "use the scaled form"
        )
    return mant * np.exp(logs)


def _scales(jp, jm) -> np.ndarray:
    """The column scales max(|jp_l|, |jm_l|) of N from traces shaped (q,) + mu.shape,
    shaped mu.shape reversed + (q,); 1 for a vanishing column, whose factor is exactly 0."""
    scale = np.maximum(abs(jp.T), abs(jm.T))
    scale[scale == 0.0] = 1.0
    return scale


def _product(mant: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F's mantissa and log-scale from its factors' along the leading axis: their
    product and their sum (a one-factor F is its factor, with no arithmetic)."""
    return reduce(operator.mul, mant), reduce(operator.add, logs)


def off_zeros(dlog: np.ndarray, mant: np.ndarray) -> np.ndarray:
    """dlog F values, which must be finite, and F's mantissas there: raises ContourError
    at a zero of F (a mantissa of 0), and NumericalError where dlog F leaves the float
    range although F is not 0 (its mu-derivative overflows)."""
    bad = ~np.isfinite(dlog)
    if bad.any():
        if np.any(mant[bad] == 0.0):
            raise ContourError("log-derivative requested at a zero of F")
        raise NumericalError(
            "the log-derivative of F overflows where F is not 0: F' leaves the float range"
        )
    return dlog


def _right_half(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu as complex, reflected into Re mu >= 0, and the reflection mask."""
    mu = mu.astype(complex)
    flip = mu.real < 0.0
    return np.where(flip, -mu, mu), flip


class SecularEvaluator:
    """The prepared operator: per-operator tables, F and dlog F.

    Construction decides once whether the tip rows are diagonal
    (:func:`~regsing.operators.diagonal_tip`), as `diagonal`, validates the tip condition
    on that decision (:func:`~regsing.operators.validate`: row norms in place of an SVD on
    a diagonal tip) and raises :class:`InvalidOperatorError` where it fails.  It then works
    out the request's `channels` (:func:`~regsing.operators.channels`): the orders nu_l,
    the decision and one Gamma(1 + s) per kernel order s, which the map from kernel rows
    to boundary rows (:func:`_boundary_map`), the kernel table, `cv` and `model` all read,
    so a diagonal request makes no LAPACK call and evaluates Gamma once per order.  The
    characteristic values `cv`, the asymptotic model `model` and the Taylor `circle` with
    the kernel order are worked out on first use and kept, so every route of one request
    reads the same decision.  :meth:`scaled`, :meth:`value` and :meth:`dlog` are computed
    over an ndarray mu and keep its shape; a scalar mu is evaluated as a one-element array
    and comes back as Python scalars.  On a diagonal tip each channel is a factor of F,
    and `width` is the number of channels of a factor (1 there, q on a coupled tip).
    Every evaluation is one :meth:`_pass`, the kernel pass that gives each factor's
    mantissa and log-scale, with ``deriv`` their log-derivatives, and the traces they come
    from.  The first pass on the operator takes the probes of the circle along, whichever
    route makes it (:meth:`_probed`).  `counts` holds the kernel passes made
    (``"passes"``) and the quadrature nodes spent (``"nodes"``) on this operator.
    """

    def __init__(self, spec: OperatorSpec):
        # diagonal rows make q scalar channels, F = prod_l N_ll: each channel is
        # a factor of F; a coupled tip is the one factor det N of `width` q
        self.diagonal = diagonal_tip(spec.boundary)
        bad = validate(spec, self.diagonal)
        if bad:
            raise InvalidOperatorError(
                "operator failed validation: " + "; ".join(v.name for v in bad)
            )
        self.spec = spec
        self.r = spec.r
        self.q = spec.q
        self.q0 = spec.q0
        self.counts = Counter()
        self.channels = channels(spec, self.diagonal)
        self._map = _boundary_map(spec, self.channels)
        self._kernel = KernelTable(list(self.channels.gamma), self.channels.gamma)
        # the tip rows [A | B], each over its largest entry (validation makes it
        # nonzero): its modulus by hypot and each part over it, as Python's complex
        # abs and division by a float would give them
        top = np.concatenate((spec.boundary.a_mat, spec.boundary.b_mat), axis=1)
        tops = np.hypot(top.real, top.imag).max(axis=1)
        top = (top.view(float) / tops[:, None]).view(complex)
        self._at, self._bt = top[:, : self.q].T, top[:, self.q :].T
        self._ad, self._bd = self._at.diagonal(), self._bt.diagonal()
        self.width = 1 if self.diagonal else self.q
        log_top = [math.log(t) for t in tops.tolist()]
        self._log_top = np.array(log_top if self.diagonal else [sum(log_top)])  # per factor
        self._probe_mu = probes(spec.r)  # F(0), then F on the Taylor circle

    @cached_property
    def cv(self) -> CharacteristicValues:
        return characteristic_values(self.spec, self.channels)

    @cached_property
    def model(self) -> AsymptoticModel:
        return AsymptoticModel.from_spec(self.spec, self.cv, self.channels)

    def _probed(self, mu: np.ndarray, deriv: bool = False) -> list[np.ndarray]:
        """:meth:`_pass` over a 1-d mu with the probes in front until a pass takes them for
        :attr:`f0` and :attr:`circle`; every output comes back over mu alone (its last axis)."""
        n = 0 if "circle" in self.__dict__ else self._probe_mu.size
        out = self._pass(np.concatenate((self._probe_mu[:n], mu)), deriv)
        if n:
            f = _unscaled(*_product(out[0][:, :n], out[1][:, :n]))
            self.f0, self.circle = complex(f[0]), TaylorCircle(f[1:], self.r, self.q)
        return [v[..., n:] for v in out]

    @cached_property
    def circle(self) -> TaylorCircle:
        """The Taylor circle of F at mu = 0 (:class:`~regsing.circle.TaylorCircle`) of the probes."""
        self._probed(np.empty(0))
        return self.circle

    @cached_property
    def f0(self) -> complex:
        """F(0), the probe in front of the :attr:`circle`'s."""
        self._probed(np.empty(0))
        return self.f0

    def sample(self, mu: np.ndarray) -> tuple[np.ndarray, ...]:
        """:meth:`_probed` with the log-derivatives and :meth:`_angles` over a 1-d mu: each
        factor's mantissa, log-scale and log-derivative, then the angles and the kernel
        rows V, D."""
        mant, logs, dlog, jp, jm, val, der = self._probed(mu, deriv=True)
        return mant, logs, dlog, *self._angles(jp, jm), val, der

    def imag_zeros_beyond(self, x: float) -> int:
        """The zeros of F(ix') on x' > x: :func:`_zero_count` of each factor's cell
        (x, inf] from the angles of one pass at x and their limit :attr:`_limit_turn`."""
        gam, theta = self.sample(np.array([1j * x]))[3:5]
        gam, theta = (v.reshape(-1, self.width) for v in (gam, theta))
        return int(_zero_count(1.0, gam, 0.0, _turns(theta, 1.0), self._limit_turn).sum())

    # -- row entries --------------------------------------------------------

    def _traces(self, mu: np.ndarray, deriv: bool = False) -> tuple[np.ndarray, ...]:
        """Diagonal entries (jp, jm) of the lower blocks, Re mu >= 0, shaped (q,) + mu.shape,
        with ``deriv`` their w-derivatives (djp, djm), then the kernel rows V and D over
        mu.ravel(): one :func:`phi_rows` pass at w = mu R and the map of
        :func:`_boundary_map`, no branch on the end condition or on q0."""
        self.counts["passes"] += 1
        w = mu.ravel() * self.r
        kernel = phi_rows(self._kernel, w)
        # the real and imaginary part of every entry side by side: a real matrix
        # product, whose columns do not depend on how many points it takes
        val, der = (v.view(float) for v in kernel)
        a, b, c, e = self._map
        rows = [(a @ val).view(complex) + w * (b @ der).view(complex)]
        if deriv:
            rows.append((c @ der).view(complex) + w * (e @ val).view(complex))
        return (*(v for r in rows for v in r.reshape((2, self.q) + mu.shape)), *kernel)

    @cached_property
    def _tip_turn(self) -> tuple[np.ndarray, np.ndarray]:
        """s_l (-1 on the log channels, +1 elsewhere) and W_tip* of the tip plane's
        Souriau unitary W_tip = (X + iY)(X - iY)^-1 on its frame X = B*, Y = -(A diag(s))*;
        on a diagonal tip, the diagonal of W_tip*."""
        s = np.where(np.arange(self.q) < self.q0, -1.0, 1.0)
        if self.diagonal:
            x, y = self._bd.conj(), -s * self._ad.conj()
            return s, ((x + 1j * y) / (x - 1j * y)).conj()
        x, y = self._bt.conj(), -s[:, None] * self._at.conj()  # _at, _bt are A^T, B^T
        return s, ((x + 1j * y) @ np.linalg.inv(x - 1j * y)).conj().T

    @cached_property
    def _limit_turn(self) -> np.ndarray:
        """Each factor's :func:`_turns` at x = inf on the imaginary axis, where every gamma_l
        is 0 and U is W_tip*: its eigen-angles, approached from below, so one within 1e-9
        of 0 reads 2 pi."""
        turn, w = 2.0 * math.pi, self._tip_turn[1]
        theta = np.mod(np.angle(w if self.diagonal else np.linalg.eigvals(w)), turn)
        theta = np.where(np.minimum(theta, turn - theta) > _ANGLE_SLACK, theta, turn)
        return theta.reshape(-1, self.width).sum(-1)

    def _angles(self, jp, jm) -> tuple[np.ndarray, np.ndarray]:
        """From traces shaped (q, n): the channel angles gamma_l = arg z_l,
        z_l = s_l jm_l - i jp_l, and the eigen-angles theta_k of U = diag(z / conj z) W_tip*,
        each shaped (n, q), a factor's after those of the factors before it.  F = 0 exactly
        where some theta_k is 0.  On a diagonal tip U is diagonal: theta_l is its entry's."""
        s, w = self._tip_turn
        z = s * jm.real.T - 1j * jp.real.T
        if self.diagonal:
            return np.angle(z), np.angle(z / z.conj() * w)
        return np.angle(z), np.angle(np.linalg.eigvals((z / z.conj())[..., None] * w))

    def _system(self, jp, jm) -> np.ndarray:
        """N^T, N = A diag(jm) - B diag(jp) with the normalized tip rows A, B, from traces
        shaped (q,) + mu.shape: a stack in np.linalg's layout over mu.shape reversed.  On a
        diagonal tip, only the diagonal N_ll, shaped mu.shape reversed + (q,)."""
        if self.diagonal:
            return jm.T * self._ad - jp.T * self._bd
        return jm.T[..., None] * self._at - jp.T[..., None] * self._bt

    def value(self, mu):
        """F(mu); raises NumericalError where |F| leaves the float range."""
        if not isinstance(mu, np.ndarray):
            return complex(self.value(np.array([mu]))[0])
        return _unscaled(*self.scaled(mu))

    def scaled(self, mu):
        """F(mu) = mantissa * exp(log_scale), log_scale real, over an ndarray mu.

        A scalar mu comes back as a Python complex and float.
        """
        if not isinstance(mu, np.ndarray):
            mant, logs = self.scaled(np.array([mu]))
            return complex(mant[0]), float(logs[0])
        return _product(*self._pass(mu)[:2])

    def _pass(self, mu: np.ndarray, deriv: bool = False) -> tuple[np.ndarray, ...]:
        """One kernel pass over an ndarray mu: the mantissas and log-scales of F's
        factors, shaped (f,) + mu.shape, with ``deriv`` their log-derivatives
        (:meth:`_jacobi`), then the traces jp, jm at mu reflected into Re mu >= 0 and
        the kernel rows V, D of :meth:`_traces`.
        A factor is N_ll over its scale on a diagonal tip, else det(N / column
        scales), the scales being :func:`_scales` of the traces.  A trace that is
        not finite (past the float range or the kernel's) is a quiet NumericalError."""
        mu, flip = _right_half(mu)
        with np.errstate(over="ignore", invalid="ignore"):
            jp, jm, *djs, val, der = self._traces(mu, deriv)
            n, scale = self._system(jp, jm), _scales(jp, jm)
            dn = self._system(*djs) if deriv else None  # N' in w, not finite past the float range
            growth = self.width * self.r * abs(mu.imag)  # each column of N carries exp(-|Im mu R|)
        if not np.isfinite(scale).all():  # the largest trace of a column, or NaN
            at = np.min(np.abs(mu.T[~np.isfinite(scale).all(-1)]))
            raise NumericalError(f"F is not finite at |mu| = {at:.6g}, past the kernel's range")
        if self.diagonal:
            mant, logs = n / scale, np.log(scale)
        else:  # row l of N^T is column l of N
            mant = np.linalg.det(n / scale[..., None])[..., None]
            logs = np.log(scale).sum(axis=-1, keepdims=True)
        out = (mant.T, (logs + self._log_top).T + growth)
        if deriv:
            out += (self._jacobi(flip, n, dn, scale),)
        return (*out, jp, jm, val, der)

    # -- log-derivative -----------------------------------------------------

    def dlog(self, mu):
        """(d/dmu) log F, the sum of its factors' log-derivatives: N'_ll / N_ll on a
        diagonal tip, else Jacobi's formula dlog det N = tr(N^-1 N').

        N' is N with the traces replaced by their w-derivatives, which
        carry the same exp(-|Im mu R|) factor, so it cancels, and the
        ratio times R is the mu-derivative.  A scalar
        mu is evaluated as a one-element array; mu at a zero of F raises
        ContourError, and mu where dlog F leaves the float range although F
        is not 0 (N' overflows) NumericalError (:func:`off_zeros`).
        """
        if not isinstance(mu, np.ndarray):
            return complex(self.dlog(np.array([mu]))[0])
        mant, _, dlog, *_ = self._pass(mu, deriv=True)
        return off_zeros(reduce(operator.add, dlog), reduce(operator.mul, mant))

    def _scaled_dlog(self, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`scaled` and dlog F over a 1-d mu from one :meth:`_probed` pass; dlog F is
        left non-finite at the zeros of F (:func:`off_zeros`)."""
        mant, logs, dlog, *_ = self._probed(mu, deriv=True)
        return (*_product(mant, logs), reduce(operator.add, dlog))

    def _jacobi(self, flip, n, dn, scale) -> np.ndarray:
        """The log-derivatives of F's factors, shaped (f,) + mu.shape, from :meth:`_system`
        of the traces and of their w-derivatives and the column scales of :meth:`_pass`:
        R N'_ll / N_ll on a diagonal tip, else R tr(N^-1 N'), w = mu R, so that N' leaves
        the float range only where F' / F does; negated where mu was reflected."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.diagonal:
                out = dn / n
            else:  # tr(N^-T N'^T) = tr(N^-1 N'), both over the column scales of the
                # mantissa, so that N is singular here exactly where that is 0
                n, dn = n / scale[..., None], dn / scale[..., None]
                try:
                    sol = np.linalg.solve(n, dn)
                except np.linalg.LinAlgError:  # mu on a zero of F: only that matrix is singular
                    singular = np.linalg.det(n) == 0.0
                    n[singular] = np.eye(self.q)
                    sol = np.linalg.solve(n, dn)
                    sol[singular] = np.nan
                out = np.trace(sol, axis1=-2, axis2=-1)[..., None]
            out = out * self.r  # d/dmu = R d/dw
        return np.where(flip, -out.T, out.T)  # F is even, dlog F odd

    def quoted_model(self, x: float) -> complex:
        """The model's log F(ix) (:attr:`model`), quoted where it is asymptotic: x R >= 10."""
        if x * self.r < 10.0:
            raise ValueError("asymptotic model is quoted for x R >= 10")
        return self.model.log_value(float(x))

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
# Asymptotic model of F on the imaginary axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticModel:
    """Leading model log F(ix) ~ log c + exponent log x + growth x + log_power log(GAMMA_TILDE - log x).

    `exponent` is |nu| + q/2 - 2 alpha0 for Robin rows and
    |nu| - q/2 - 2 alpha0 for Dirichlet rows (trace rows lose one power
    of x each against the Robin derivative term).  `log_power` is
    q0 - j0, nonzero on a log-singular operator: the one place it is
    worked out, which every route reads.
    """

    c: complex
    exponent: float
    log_power: int
    growth_rate: float

    @classmethod
    def from_spec(
        cls, spec: OperatorSpec, cv: CharacteristicValues, ch: Channels
    ) -> "AsymptoticModel":
        nus = ch.nus[spec.q0 :]
        rho = 1.0
        for nu in nus:
            rho *= 2.0 ** (-nu) * ch.gamma[-nu]
        abs_nu = sum(nus)
        c = cv.a0 * rho * (2.0 * math.pi) ** (-spec.q / 2.0)
        half_q = spec.q / 2.0
        if isinstance(spec.regular_bc, Dirichlet):
            exponent = abs_nu - half_q - 2.0 * cv.alpha0
        else:
            exponent = abs_nu + half_q - 2.0 * cv.alpha0
        return cls(
            c=complex(c),
            exponent=float(exponent),
            log_power=spec.q0 - cv.j0,
            growth_rate=spec.q * spec.r,
        )

    def log_value(self, x: float) -> complex:
        out = cmath.log(self.c) + self.exponent * math.log(x) + self.growth_rate * x
        if self.log_power:
            out += self.log_power * cmath.log(complex(GAMMA_TILDE - math.log(x)))
        return out


def asymptotic_log_F_imag(spec: OperatorSpec, x: float) -> complex:
    """Model value of log F(ix); diagnostics only, never inside determinants."""
    return SecularEvaluator(spec).quoted_model(x)


def log_F_imag(spec: OperatorSpec, x: float) -> complex:
    """Actual log F(ix) from the scaled determinant (principal branch)."""
    return SecularEvaluator(spec).log_value(1j * float(x))


# ---------------------------------------------------------------------------
# Spectrum search
# ---------------------------------------------------------------------------

def _grid(lo: float, hi: float, res: float) -> np.ndarray:
    """Equally spaced points over [lo, hi], both ends included, spacing <= res."""
    return np.linspace(lo, hi, max(2, int(math.ceil((hi - lo) / res)) + 1))


def _turns(theta: np.ndarray, sigma) -> np.ndarray:
    """sum_k mod(sigma theta_k, 2 pi) over the last axis of the eigen-angles theta."""
    return np.mod(sigma * theta, 2.0 * math.pi).sum(-1)


def _zero_count(sigma, gam_a, gam_b, turn_a, turn_b) -> np.ndarray:
    """The zeros of a factor of F in cells (a, b] from its channel angles gamma_l at
    their ends, shaped (..., q_f), and the :func:`_turns` of its eigen-angles there
    (Atkinson, 1964).

    As mu^2 grows, the gamma_l and the eigen-angles theta_k of U all turn
    down, the factor is 0 exactly where one of its theta_k crosses 0, and
    its sum_k theta_k is 2 sum_l gamma_l up to a constant.  With sigma = -1
    on the real axis and +1 on the imaginary one, where mu^2 = -x^2 falls
    as x grows, the count is

        n = [2 sum_l mod(sigma Delta gamma_l, 2 pi) - Delta sum_k mod(sigma theta_k, 2 pi)] / 2 pi.

    It assumes that no theta_k turns a full turn per cell.  A channel
    increment is taken in (-1e-9, 2 pi - 1e-9], since a channel that
    stands still can step back by rounding.
    """
    step = np.mod(sigma * (gam_b - gam_a) + _ANGLE_SLACK, 2.0 * math.pi) - _ANGLE_SLACK
    return np.rint((2.0 * step.sum(-1) - turn_b + turn_a) / (2.0 * math.pi))


def _points(x, sigma, mants, logs, dlogs, gam, theta, val, der) -> list[np.ndarray]:
    """Rows of the table of :func:`_scan` from the samples at the points x on the axes
    of sigma, both shaped (P,): x, sigma, and per point and factor of F, shaped (P, f),
    the factor's real mantissa (0 where one of its theta_k lies within 1e-9 of 0: its
    sign is rounding), its x-derivative in the mantissa's scale, Re(unit mant dlog)
    with unit = 1 on the real axis and i on the imaginary one, its log-scale, its
    gamma_l (shaped (P, f, q_f)) and its :func:`_turns`; then the kernel rows V, D,
    shaped (P, m').  Raises NumericalError where the mantissas are not real."""
    mags = np.abs(mants)
    live = mags > 0.0
    worst = float(np.max(np.abs(mants.imag[live]) / mags[live], initial=0.0))
    if worst > _REAL_RESIDUE_TOL:
        raise NumericalError(
            f"secular values on the axes are not real (residue {worst:.2e}); "
            "complex tip matrices are not supported here"
        )
    gam, theta = (v.reshape(x.size, mants.shape[0], -1) for v in (gam, theta))
    f = np.where(np.min(np.abs(theta), axis=-1) > _ANGLE_SLACK, mants.real.T, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # dlog is not finite at a zero
        df = (np.where(sigma > 0.0, 1j, 1.0) * mants * dlogs).real.T
    return [x, sigma, f, df, logs.T, gam, _turns(theta, sigma[:, None, None]), val.T, der.T]


def _cut(a: float, b: float, res: float, r: float) -> np.ndarray:
    """The points that cut the cell (a, b]: its midpoint where b is finite; on the
    imaginary axis, the grid of spacing res over [res/2, 12 / R] for (0, inf], and
    2a for (a, inf] (a SpectrumCertificationError where 2a leaves the float range)."""
    if b < math.inf:
        return np.array([0.5 * a + 0.5 * b])
    if a == 0.0:
        return _grid(0.5 * res, _IMAG_GRID_XR / r, res)
    if not 2.0 * a < math.inf:
        raise SpectrumCertificationError(f"the imaginary axis counts zeros beyond x = {a}")
    return np.array([2.0 * a])


def _scan(ev: SecularEvaluator, mu_max: float) -> tuple[list, list, int]:
    """The brackets (sigma, k, a, b, fa, x0) of both axes left to :func:`_refine`, k
    the factor of F whose zero the bracket holds, fa that factor at a and x0 the first
    iterate in [a, b]; the roots (sigma, x) the scan settled, multiple roots and then
    Taylor roots; and the number of Taylor roots.

    F is a product of factors: each channel's N_ll on a diagonal tip
    (:attr:`SecularEvaluator.diagonal`), else the one factor det N; a
    factor has q_f channels, 1 or q (:attr:`SecularEvaluator.width`).  One
    table holds the samples of both axes, a row per point with a column
    per factor and the pass's kernel rows (:func:`_points`): the real grid
    from mu = 0, then mu = 0
    read on the imaginary axis and the limit x = inf there.  A cell is a
    span (lo, hi] of rows on one axis, with a mask of the factors that
    still count in it; every pass samples all factors, so they share the
    spans.  The first pass samples the grid, taking the probes of
    :attr:`SecularEvaluator.circle` along, so the imaginary axis starts as
    the single span (0, inf].  At mu = 0 the k0 eigen-angles nearest 0,
    the kernel, are set to 0.  At x = inf every gamma_l is 0 and U is
    W_tip* (:attr:`SecularEvaluator._limit_turn`).  :func:`_zero_count`
    counts the zeros of each factor in each span.  On the real axis the
    spacing pi / (4 q_f R) keeps 2 sum_l Delta gamma_l over a factor's
    channels, each turning about pi / (4 q_f) a cell, below a full turn,
    so no eigen-angle of the factor makes one; on the imaginary axis no
    cell needs a bound, since z_l crosses the real axis only where
    jp_l(ix) = 0, a negative eigenvalue of the channel's Friedrichs
    problem, which has at most one.  A factor that counts 1 in a finite
    span whose ends differ in sign has a bracket there.  Once the spans
    are done, every bracket's start x0 is worked out at once by
    :func:`_start` from a positive multiple of the factor, finite near
    the scale of a, and its x-derivative, both at the two ends, read from
    the table.  A real bracket of a diagonal tip takes its root from its
    channel's Taylor polynomial at the end nearer x0 (:func:`_taylor`),
    built from the kernel rows the table holds there, where that root
    meets its bound; every other bracket is left to :func:`_refine`.  A
    span where some factor counts otherwise is cut by
    :func:`_cut`, all such spans in one pass, and each part keeps only
    those factors, until each counts at most 1 in each part.  A finite
    span where a factor still counts m at the root tolerance of
    :func:`_refine` holds a root of multiplicity m, listed m times.
    """
    res = math.pi / (4.0 * ev.width * ev.r)
    first = 0.5 * min(res, 0.05 / ev.r, mu_max)  # at a tiny R, 0.025 / R may pass mu_max
    x = np.concatenate(([0.0], _grid(first, mu_max, res)))
    mants, logs, dlogs, gam, theta, val, der = ev.sample(x.astype(complex))
    theta[0, np.argsort(np.abs(theta[0]))[: ev.circle.k0]] = 0.0
    nf = mants.shape[0]
    real = _points(x, np.full(x.size, -1.0), mants, logs, dlogs, gam, theta, val, der)
    at_zero = _points(x[:1], np.ones(1), *(v[:, :1] for v in (mants, logs, dlogs)), gam[:1],
                      theta[:1], val[:, :1], der[:, :1])
    nan = np.full((1, nf), math.nan)  # f, df and the log-scale
    angles = [np.zeros((1, nf, ev.width)), ev._limit_turn[None]]
    rows = np.full((2, 1, len(val)), math.nan)  # the kernel rows
    limit = [np.array([math.inf]), np.ones(1), nan, nan, nan, *angles, *rows]
    data = [np.concatenate(v) for v in zip(real, at_zero, limit)]
    # the spans (lo, lo + 1]: the real grid's cells, then (0, inf], each for every factor
    lo = np.append(np.arange(x.size - 1), x.size)
    hi = lo + 1
    active = np.ones((lo.size, nf), dtype=bool)
    imag_res = min(res, 0.1 / ev.r)
    found, roots = [], []  # the rows and factor of each bracket; the multiple roots
    while lo.size:
        x, sigma, f, _, _, gam, turn, *_ = data
        n = _zero_count(sigma[lo, None, None], gam[lo], gam[hi], turn[lo], turn[hi])
        n = np.where(active, n, 0.0)  # a factor done in the parent span (bracketed or 0) stays done
        if not np.all(n >= 0.0):
            raise SpectrumCertificationError("zero count is negative or not finite")
        one = (n == 1.0) & (f[lo] * f[hi] < 0.0)
        c, k = np.nonzero(one)
        found.append((lo[c], hi[c], k))
        cut = (n > 0.0) & ~one
        width = x[hi] - x[lo]
        fine = ((width <= _ROOT_XTOL / ev.r + _ROOT_RTOL * x[hi]) & (width < math.inf))[:, None]
        centre = 0.5 * x[lo] + 0.5 * x[hi]  # halves first: no overflow near the float range
        c, k = np.nonzero(cut & fine)
        for s, at, m in zip(sigma[lo[c]].tolist(), centre[c].tolist(), n[c, k].astype(int)):
            roots += [(s, at)] * m
        active = cut & ~fine
        keep = active.any(axis=1)
        lo, hi, active = lo[keep], hi[keep], active[keep]
        if lo.size:
            parts = [_cut(u, v, imag_res, ev.r) for u, v in zip(x[lo].tolist(), x[hi].tolist())]
            pts = np.concatenate(parts)
            sizes = np.array([p.size for p in parts])
            axis = np.repeat(sigma[lo], sizes)
            new = _points(pts, axis, *ev.sample(np.where(axis > 0.0, 1j * pts, pts)))
            # each span (lo, hi] with new rows p_0 < ... < p_m becomes (lo, p_0], ..., (p_m, hi]
            rows, start = np.arange(x.size, x.size + pts.size), np.cumsum(sizes) - sizes
            lo, hi = np.insert(rows, start, lo), np.insert(rows, start + sizes, hi)
            active = np.repeat(active, sizes + 1, axis=0)
            data = [np.concatenate(v) for v in zip(data, new)]
    x, sigma, f, df, logs, _, _, val, der = data
    a, b, k = (np.concatenate(v) for v in zip(*found))
    # b's scale over a's, capped inside the float range: the start is the midpoint there
    scale = np.exp(np.minimum(logs[b, k] - logs[a, k], 0.5 * _LOG_MAX))
    start = _start(x[a], x[b], f[a, k], f[b, k] * scale, df[a, k], df[b, k] * scale)
    taylor = (sigma[a] < 0.0) & ev.diagonal
    if taylor.any():  # the real brackets of a diagonal tip, about the end nearer the start
        e = np.where(start - x[a] <= x[b] - start, a, b)
        root, ok = _taylor(ev, start, x[e], val[e].real, der[e].real, k, x[a], x[b])
        taylor &= ok
        roots += [(-1.0, v) for v in root[taylor].tolist()]
    rest = [v[~taylor].tolist() for v in (sigma[a], k, x[a], x[b], f[a, k], start)]
    return list(zip(*rest)), roots, int(np.count_nonzero(taylor))


def _start(a, b, fa, fb, da, db) -> np.ndarray:
    """The first iterate in each bracket [a, b] from a factor's values fa, fb and
    x-derivatives da, db at its ends, all in one scale: the root of their cubic
    Hermite interpolant, by two Newton steps on it from the false-position point,
    or that point where the result is not finite or not strictly inside (a, b), or
    where neither is (a far scale capped inside the float range) the midpoint, the
    first step of :func:`_refine`'s bisection, so that no round samples an end.

    In t = (x - a) / h, h = b - a, the cubic is fa + t (h da + t (c2 + t c3)),
    c2 = 3 (fb - fa) - h (2 da + db) and c3 = 2 (fa - fb) + h (da + db).
    """
    h = b - a
    false_position = a - fa * h / (fb - fa)
    c1 = h * da
    c2 = 3.0 * (fb - fa) - h * (2.0 * da + db)
    c3 = 2.0 * (fa - fb) + h * (da + db)
    t = fa / (fa - fb)
    with np.errstate(all="ignore"):  # a slope that is not finite reads NaN: false position
        for _ in range(2):
            t = t - (fa + t * (c1 + t * (c2 + t * c3))) / (c1 + t * (2.0 * c2 + t * (3.0 * c3)))
        x = a + h * t
        x = np.where((x > a) & (x < b), x, false_position)
        return np.where((x > a) & (x < b), x, 0.5 * a + 0.5 * b)


def _row_series(table: KernelTable, w0, val, der) -> np.ndarray:
    """The Taylor coefficients e_0, ..., e_{m+2} (the m = 14 terms of :func:`_taylor`'s
    polynomial and two beyond) in u = w / w0 - 1 of every kernel row of ``table``
    (:func:`phi_rows`, psi last) about each w0, from the rows V and their w-derivatives
    D there, each shaped (nb, m'); shaped (m + 3, m', nb).

    phi_s solves w phi'' + (2s + 1) phi' + w phi = 0 (DLMF 10.2) and psi the s = 0
    equation with 2 phi_0' on the right, so V and D fix every coefficient: with
    e_j = c_j w0^j, c_j those in w - w0, e_0 = V, e_1 = w0 D and
    e_{j+2} = -(j + 2s + 1) e_{j+1} / (j + 2) - w0^2 (e_j + e_{j-1}) / ((j + 1)(j + 2)),
    psi's plus 2 e_{j+1} / (j + 2) of phi_0.  The recurrence's parasitic solution grows
    like |u|^j.  Rounding past the float range reads inf or NaN, quietly."""
    m, nb = _TAYLOR_TERMS, w0.size
    s = np.append(table.orders, [0.0] * table.companion)[:, None]  # phi_0 first on a log channel
    j = np.arange(1.0, m + 2.0)[:, None, None]
    # the factors of each step, shaped (m + 1, m' nb): every row of every w0 side by side
    grow, fall = np.empty((2, m + 1, s.size, nb))
    grow[...], fall[...] = -(j + 2.0 * s) / (j + 1.0), -(w0 * w0) / (j * (j + 1.0))
    e = [np.zeros(s.size * nb), val.T.ravel(), (der.T * w0).ravel()]  # e_{-1} = 0, e_0, e_1
    with np.errstate(all="ignore"):
        for i, (g, f) in enumerate(zip(grow.reshape(m + 1, -1), fall.reshape(m + 1, -1))):
            e.append(g * e[-1] + f * (e[-2] + e[-3]))
            if table.companion:
                e[-1][-nb:] += 2.0 / (i + 2.0) * e[-2][:nb]
    return np.reshape(e[1:], (m + 3, s.size, nb))


def _taylor(ev: SecularEvaluator, x0, xe, val, der, k, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The root of each bracket (lo, hi) of the real axis that the Taylor polynomial
    of its channel k's factor N_kk gives about the bracket end xe, from the kernel rows
    V, D that the scan sampled there, by Newton steps from x0; and whether it stands.

    The factor is alpha V + w beta D, (alpha, beta) the channel's rows of
    :func:`_boundary_map`'s (a, b) under the tip weights, so its coefficients in
    u = x / xe - 1 are (alpha + j beta) e_j + (j + 1) beta e_{j+1}, e_j those of the
    rows (:func:`_row_series`); the polynomial keeps 14 of them.  The root stands
    where |u| <= 1/2, it lies strictly inside the bracket, and the last Newton step
    plus the first two omitted terms over the slope are at most a quarter of
    :func:`_refine`'s tolerance."""
    m, nb = _TAYLOR_TERMS, xe.size
    e = _row_series(ev._kernel, xe * ev.r, val, der)
    q, ab = ev.q, ev._map[:2]
    ab = (ev._ad[:, None] * ab[:, q:] - ev._bd[:, None] * ab[:, :q]).real[:, k]  # (2, nb, m')
    j = np.arange(m + 2.0)
    with np.errstate(all="ignore"):  # past the float range a root does not stand
        fv, fd = np.matmul(e.transpose(2, 0, 1), ab.transpose(1, 2, 0)).T  # (m + 3, nb) each
        p = (fv[:-1] + j[:, None] * fd[:-1] + (j[:, None] + 1.0) * fd[1:]).T  # (nb, m + 2)
        terms = np.zeros((nb, 2, m))  # the polynomial and its derivative
        terms[:, 0], terms[:, 1, :-1] = p[:, :m], p[:, 1:m] * j[1:m]
        u = x0 / xe - 1.0
        for _ in range(_TAYLOR_STEPS):
            value, slope = np.matmul(terms, np.vander(u, m, increasing=True)[:, :, None])[:, :, 0].T
            step = value / slope
            u = u - step
        x, um = xe + xe * u, u**m
        omitted = np.abs(p[:, m] * um) + np.abs(p[:, m + 1] * um * u)
        error = xe * (np.abs(step) + omitted / np.abs(slope))
        tol = _ROOT_XTOL / ev.r + _ROOT_RTOL * np.abs(x)
        return x, (np.abs(u) <= 0.5) & (x > lo) & (x < hi) & (error <= 0.25 * tol)


def _refine(ev: SecularEvaluator, brackets: list[tuple]) -> list[float]:
    """The roots in the brackets (sigma, k, a, b, fa, x0) that :func:`_scan` leaves (those
    of the imaginary axis and of a coupled tip, and those whose Taylor root does not
    stand), on the real axis (sigma = -1) and the imaginary one (sigma = 1), all refined
    together, each on its factor k of F from its first iterate x0, in their order.

    Safeguarded Newton (``rtsafe``) over the array of roots still
    active, on both axes at once: each round is one kernel pass
    (:meth:`~SecularEvaluator._pass` with ``deriv``) giving each root's factor
    f_k, whose mantissa signs shrink its bracket, and dlog f_k (on a
    diagonal tip N'_ll / N_ll), for the Newton steps of the real function
    Re f_k(unit x) e^(-c x), unit = 1 and c = 0 on the real axis, unit = i
    and c = q_f R, the growth of f_k's log-scale, on the imaginary one.
    With m the mantissa, the step is Re m / (Re(unit m dlog f_k) - c Re m).
    That is 1/(Re(unit dlog f_k) - c) where f_k is real, and it stays
    accurate next to a root, where the rounding residue Im m outweighs
    Re m and dlog f_k is mostly imaginary.  Far up the imaginary axis,
    where unit dlog f_k is c to rounding, the step of f_k itself would be
    1/c, below the root tolerance past x R of about 1e14; without the
    growth the slope is below its rounding, 64 eps c, and the root is
    bisected.  A step that leaves its bracket, that is not at most half
    the step two rounds before, or that is not finite becomes a
    bisection.  A root stops when its step or its bracket width is at
    most 1e-13 / R + 4 eps |x|, when f_k is exactly 0 there, when its
    Newton target lies outside the bracket by at most that tolerance (the
    root is then the bracket's end), or after a Newton step dx that
    follows a Newton step dx' where the next step of a quadratic
    convergence, dx^3 / dx'^2, is at most 4 eps |x|: that root takes no
    round only to confirm it.  No residual is checked: the count of
    :func:`_scan` puts exactly one zero of f_k in each bracket.
    """
    if not brackets:
        return []
    sigma, k, lo, hi, fa, x = (np.array(v) for v in zip(*brackets))
    unit = np.where(sigma > 0.0, 1j, 1.0)
    growth = ev.width * ev.r * unit.imag  # c, the x-derivative of the log-scale's q_f R |Im mu|
    shift, floor = 1j * growth, _SLOPE_FLOOR * growth  # unit (dlog + i c) = unit dlog - c
    sign_lo = np.sign(fa)
    step = hi - lo  # |step| of the last round and of the round before
    before = step.copy()
    last = np.full(len(x), np.nan)  # the last round's Newton step, NaN after a bisection
    active = np.ones(len(x), dtype=bool)
    for _ in range(_MAX_ROUNDS):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        xa = x[act]
        mant, _, dlog, *_ = ev._pass(unit[act] * xa, deriv=True)
        if len(mant) > 1:  # each root's own factor
            mant, dlog = (v[k[act], np.arange(act.size)] for v in (mant, dlog))
        else:
            mant, dlog = mant[0], dlog[0]
        f = mant.real
        above = f * sign_lo[act] > 0.0  # the sign of the lower end: the root lies above
        lo[act[above]] = xa[above]
        hi[act[~above]] = xa[~above]
        live = f != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (unit[act] * mant * (dlog + shift[act])).real
            # below 64 eps c the slope is the rounding left where the growth is taken out
            newton = np.where(live & (np.abs(slope) > floor[act]), f / slope, np.nan)
        lo_a, hi_a = lo[act], hi[act]
        x_new = xa - newton
        x_end = np.minimum(np.maximum(x_new, lo_a), hi_a)  # x_new, or the bracket end past it
        tol = _ROOT_XTOL / ev.r + _ROOT_RTOL * np.abs(xa)
        ok = (x_end == x_new) & (2.0 * np.abs(newton) <= before[act])
        ended = (x_end != x_new) & (np.abs(x_end - x_new) <= tol)  # the root is the bracket's end
        x_next = np.where(ok | ended, x_end, 0.5 * lo_a + 0.5 * hi_a)
        dx = np.where(ok, np.abs(newton), 0.5 * hi_a - 0.5 * lo_a)
        with np.errstate(over="ignore"):  # an overflow reads inf: no stop
            # the next step of a quadratic convergence, dx^3 / dx_last^2, is below the rounding
            settled = ok & (dx * (dx / last[act]) ** 2 <= _ROOT_RTOL * np.abs(xa))
        before[act], step[act], last[act] = step[act], dx, np.where(ok, dx, np.nan)
        x[act] = np.where(live, x_next, xa)
        active[act] = live & ~ended & ~settled & (dx > tol) & (hi_a - lo_a > tol)
    if active.any():
        raise SpectrumCertificationError(
            f"root refinement did not converge in {_MAX_ROUNDS} rounds"
        )
    return x.tolist()


def find_spectrum(spec: OperatorSpec, mu_max: float) -> Spectrum:
    """All zeros of F on (0, mu_max] and on the positive imaginary axis.

    F is searched factor by factor: on a diagonal tip (every
    :func:`~regsing.operators.diagonal_spec`, every cone degree) F is the
    product of the q scalar channels' N_ll (Kirsten, Loya & Park, 2008),
    and each channel is counted, bracketed and refined on its own; a
    coupled tip is the one factor det N of q channels.  Every length of
    the search is a multiple of 1/R, so the zeros for (0, R] are those
    for (0, 1] over R.  The real-axis grid has the spacing
    pi / (4 q_f R), q_f the channels of a factor (1 on a diagonal tip,
    q on a coupled one), and its first point past mu = 0 is half the
    smallest of that, 0.05 / R and mu_max.  The imaginary axis is one
    span (0, inf] that the count certifies as it stands where no factor
    has a zero there; else it is cut at the grid of the smaller of that
    spacing and 0.1 / R up to x R = 12, and the spans beyond at their
    doubled lower ends.  :func:`_scan` counts each factor's zeros in
    every span of both axes from the samples' angles and cuts the spans
    where a factor counts more than one, or one without a sign change,
    one kernel pass for all spans, the first taking the probes of
    :attr:`SecularEvaluator.circle` along; each pass gives the factors'
    log-derivatives too, from which each bracket starts at the root of
    the cubic Hermite interpolant of its factor (:func:`_start`), and
    the kernel rows.  On a diagonal tip each real bracket takes its root
    from the Taylor polynomial of its channel at the end nearer that
    start, which the recurrence of the Bessel equation builds from the
    kernel rows there, with no further pass (:func:`_taylor`), where the
    root meets its bound.  One call of :func:`_refine` then refines the
    brackets left, of both axes together, each by the Newton step of its
    own factor, and the roots are split by axis once; a root of
    multiplicity m is listed m times (a root that m channels share is m
    brackets).  The returned :class:`Spectrum` carries the evaluator,
    which :func:`~regsing.determinant.zeta_eval` reuses for the same
    spec, the number of kernel passes made, those of the scan among
    them, and how many roots the Taylor polynomials and the Newton
    rounds gave.  Raises ValueError unless 0 < mu_max < inf.
    """
    if not 0.0 < mu_max < math.inf:
        raise ValueError(f"mu_max must be positive and finite, got {mu_max}")
    ev = SecularEvaluator(spec)
    brackets, roots, taylor = _scan(ev, mu_max)
    scan_passes = ev.counts["passes"]
    roots += zip([v[0] for v in brackets], _refine(ev, brackets))
    positive, negative = (sorted(x for s, x in roots if s == sigma) for sigma in (-1.0, 1.0))
    return Spectrum(
        positive=tuple(positive),
        negative=tuple(negative),
        mu_max=float(mu_max),
        certified=True,
        evaluator=ev,
        passes=ev.counts["passes"],
        scan_passes=scan_passes,
        taylor_roots=taylor,
        refined_roots=len(brackets),
    )


# ---------------------------------------------------------------------------
# Contour decay verification
# ---------------------------------------------------------------------------

def verify_contour_decay(
    spec: OperatorSpec,
    s: float,
    a_list: list[float],
    theta: float = VERIFY_CONTOUR_THETA,
) -> list[float]:
    """|closed contour integral of z^(-2s) dlog F| over gamma(a) per abscissa.

    gamma(a) is the vertical segment Re z = a clipped to |arg z| <= theta
    joined to the two arcs |z| = a/cos(theta) reaching the imaginary
    axis, oriented counterclockwise.  z^(-2s) uses the principal branch,
    which is continuous on the whole contour.  Abscissae straddling a
    zero of F are nudged by multiples of 0.1 / R before giving up.
    Raises ValueError before any kernel pass unless 1/2 < s < inf and
    0 < a < inf with a R <= 200, the validated range, for every abscissa.
    """
    if not (0.0 < theta < 0.5 * math.pi):
        raise ValueError("theta must lie in (0, pi/2)")
    if not 0.5 < s < math.inf:  # NaN too
        raise ValueError("need a finite s > 1/2 for the boundary integrals to converge")
    if not all(0.0 < a < math.inf for a in a_list):
        raise ValueError("abscissae must be positive and finite")
    if max(a_list) * spec.r > 200.0:
        raise ValueError("abscissae above a R = 200 exceed the validated evaluation range")
    ev = SecularEvaluator(spec)
    return [_contour_integral(ev, s, float(a), theta)[0] for a in a_list]


def _f_nonzero_on_segment(ev: SecularEvaluator, a: float, theta: float) -> bool:
    tan_t = math.tan(theta)
    mants, _ = ev.scaled(a + 1j * np.linspace(-a * tan_t, a * tan_t, 17))
    return bool(np.all(np.abs(mants) >= 1e-8))


def _contour_integral(
    ev: SecularEvaluator, s: float, a: float, theta: float
) -> tuple[float, float]:
    """|the integral over gamma(a)| of :func:`verify_contour_decay`, and |its two arcs' part|."""
    shift = 0.0
    for _ in range(8):
        if _f_nonzero_on_segment(ev, a + shift, theta):
            break
        shift = -shift + 0.1 / ev.r if shift <= 0 else -shift
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
    return abs(lower + middle + upper), abs(lower + upper)
