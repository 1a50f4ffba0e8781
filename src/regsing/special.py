"""Special-function kernel: Bessel functions and Gamma.

Everything here is pure and reentrant.  The row building blocks are
stacked ndarray entry points (:func:`phi_rows`, :func:`bessel_jm0_rows`)
that evaluate every order of an operator over a whole array of
arguments in one pass; the per-order constants they need are worked out
once per operator in a :class:`KernelTable`.  The other public
functions are scalar.  The engine needs

* ``J_nu(z)`` for real order ``nu`` and complex argument ``z`` (secular
  determinants are evaluated on contours in the right half-plane and on
  the imaginary axis),
* ``Y_nu`` for real positive argument,
* the logarithmic companion of ``J_0`` (``bessel_jm0``) whose
  ``log(mu)`` part is split off so that boundary rows stay entire in
  ``mu**2``,
* ``Gamma`` for the normalization constants.

Evaluation strategy (argument ``w``; the orders of a row are ``s`` and
``s + 1`` with ``s = 0``, ``nu`` or ``-nu``, ``0 < nu < 1``):

* ``|w| <= 1``: a short float64 power series for the entire forms
  ``(w/2)^(-nu) J_nu(w)`` and the log-free part of the companion.  There
  the prefactor meets ``0 * inf`` at ``w = 0`` and the ``log`` terms of
  the companion cancel; the terms fall fast enough that the series is
  accurate to a few units in the last place.
* The real axis ``w = x > 1``, where the spectrum scans and root
  refinement sample: one ``hankel1e`` call at the base orders ``nu`` and
  ``nu + 1`` (Amos's routines, D. E. Amos, ACM TOMS 12, 1986, Algorithm
  644).  ``J`` and ``Y`` are the real and imaginary parts of ``H1``, and
  the negative orders follow from ``H1_{-nu} = e^(i nu pi) H1_nu`` and
  the recurrence, so no ``J_{-nu}`` is evaluated by reflection.
* The imaginary axis ``w = +-ix, 1 < x <= 20``, where the
  negative-eigenvalue scans, the zero count and the zeta ray
  sample: the same power series with 40 terms.  There every term
  is of one sign (DLMF 10.25.2), so nothing cancels and one matrix
  product gives every value and derivative row.  The companion's
  ``Y_0``, ``Y_1`` rows come from the series of ``psi(ix)``, also of one
  sign, through ``K_0`` and ``K_1`` (DLMF 10.31.2); no scipy routine is
  called.
* The imaginary axis ``w = +-ix, x > 20``: real-argument ``iv`` and
  ``kve`` at the base orders, through the connection formulas of
  DLMF 10.27 (``I_{-nu} = I_nu + (2/pi) sin(nu pi) K_nu``).  ``iv``
  (Temme's method) is used rather than ``ive``, whose Miller recurrence
  is good to only 7e-14 below ``x = 22``; ``ive`` takes over where
  ``e^(-x)`` leaves the normal floats.
* Every other ``w``: ``jve`` at every order and order plus one, and
  ``yve`` for the companion.

The axis zones agree with mpmath to about 2e-15 relative for
``|w| <= 1000``, the imaginary series segment to about 1.2e-15; the
``jve`` zone is accurate to about 7e-14 for the negative orders (scipy
reflects through ``J_nu`` and ``Y_nu``).

The row building blocks (:func:`phi_rows`, :func:`bessel_jm0_rows` and
their scalar forms :func:`bessel_jm0_series`, :func:`bessel_jm0_series_dx`)
are exponentially scaled: they return their value times ``exp(-|Im w|)``,
so the ``exp(|Im w|)`` growth on the imaginary axis never overflows.
For real arguments the factor is 1.  ``bessel_j``, ``bessel_y`` and
their derivatives are unscaled.

All complex powers and logarithms use the principal branch; callers keep
``Re w >= 0``, where the branch cuts of ``(w/2)^(-nu)`` and ``J_nu``
cancel.

The scipy routines are read through one lazy handle, ``sc``: importing
this module loads numpy only, and ``scipy.special`` is imported the
first time a zone off the series disk and the imaginary segment
``|w| <= 20``, a scalar Bessel function or (through ``determinant.py``)
``exp1`` or the Hurwitz zeta is evaluated.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import cached_property

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024

_SERIES_RADIUS = 1.0

# Terms of the power series kept inside the unit disk, where u = (w/2)^2
# has |u| <= 1/4 and the k-th term is of order 4^-k / (k!)^2 (below
# 1e-18 from k = 10 on).
_SERIES_TERMS = 14

# The imaginary-axis segment 1 < |w| <= 20 is summed by the same series
# with more terms: there u = (w/2)^2 = -(x/2)^2 and every term of phi_s
# and of psi is of one sign (DLMF 10.25.2), so nothing cancels.  At
# |w| = 20 (u = -100) the first omitted term, k = 40, is below 1e-20 of
# the sum for every order in (-1, 1), for the derivative rows too.
_AXIS_SERIES_RADIUS = 20.0
_AXIS_SERIES_TERMS = 40

# Beyond this x the imaginary zone takes e^(-x) I_nu(x) from its large-argument
# form (DLMF 10.40.1), four terms: scipy's ive returns NaN past x of about
# 1.07e9, and for the base orders nu < 2 the first omitted term, a_4(nu) / x^4,
# is below 1e-32 of the sum here.
_LARGE_X = 1e8
_LARGE_TERMS = 4


class SpecialFunctionDomainError(ValueError):
    """Argument outside the supported domain (cut, pole, sign)."""


class _ScipySpecial:
    """``scipy.special``, imported on the first read of one of its names.

    Each name read is then cached on the instance, so later reads are
    plain attribute lookups.  A process that never evaluates a Bessel
    function (validation, cone assembly) never imports scipy.
    """

    def __getattr__(self, name):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


# The one handle on scipy.special, for this module and determinant.py.
sc = _ScipySpecial()


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, poles at non-positive integers."""
    x = float(x)
    if not math.isfinite(x):
        raise SpecialFunctionDomainError(f"gamma_fn: non-finite argument {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise SpecialFunctionDomainError(f"gamma_fn: pole at non-positive integer {x}")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# Public Bessel API
# ---------------------------------------------------------------------------

def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise SpecialFunctionDomainError(f"bessel order must be finite and >= 0, got {nu!r}")
    return nu


def _check_off_cut(z: complex | float, name: str) -> complex:
    zc = complex(z)
    if zc.imag == 0.0 and zc.real < 0.0:
        raise SpecialFunctionDomainError(f"{name}: negative real argument is on the cut")
    return zc


def bessel_j(nu: float, z: complex | float) -> complex | float:
    """Bessel function of the first kind, real order nu >= 0, complex z.

    Real input returns a float.  Negative real z lies on the branch cut
    and is rejected.
    """
    nu = _check_order(nu)
    zc = _check_off_cut(z, "bessel_j")
    if isinstance(z, complex):
        return complex(sc.jv(nu, zc))
    return float(sc.jv(nu, zc.real))


def bessel_j_deriv(nu: float, z: complex | float) -> complex | float:
    """d/dz J_nu(z); real input returns a float."""
    nu = _check_order(nu)
    zc = _check_off_cut(z, "bessel_j_deriv")
    if zc == 0 and nu < 1.0 and nu != 0.0:
        raise SpecialFunctionDomainError("bessel_j_deriv: singular at z=0 for 0 < nu < 1")
    if isinstance(z, complex):
        return complex(sc.jvp(nu, zc))
    return float(sc.jvp(nu, zc.real))


def _check_positive(x: float, name: str) -> float:
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise SpecialFunctionDomainError(f"{name}: need real x > 0")
    return x


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, real order nu >= 0, real x > 0."""
    nu = _check_order(nu)
    return float(sc.yv(nu, _check_positive(x, "bessel_y")))


def bessel_y_deriv(nu: float, x: float) -> float:
    """d/dx Y_nu(x) for real x > 0."""
    nu = _check_order(nu)
    return float(sc.yvp(nu, _check_positive(x, "bessel_y_deriv")))


# ---------------------------------------------------------------------------
# Scaled row building blocks
#
# phi_nu(w)  := (w/2)^(-nu) J_nu(w)               (entire, even)
# psi(w)     := sum_{k>=1} H_k (-w^2/4)^k/(k!)^2  (entire, even)
#
# Inside the unit disk both are summed as polynomials in u = (w/2)^2.
# ---------------------------------------------------------------------------

def _phi_coeffs(order: float) -> tuple[float, ...]:
    # c_k = (-1)^k / (k! Gamma(order + k + 1)), by the ratio recurrence
    c = [1.0 / gamma_fn(order + 1.0)]
    for k in range(1, _SERIES_TERMS):
        c.append(-c[-1] / (k * (order + k)))
    return tuple(c)


def _deriv_coeffs(c: tuple[float, ...]) -> tuple[float, ...]:
    # d/dw sum c_k (w/2)^{2k} = (w/2) * sum_{k>=1} k c_k u^{k-1}
    return tuple(k * ck for k, ck in enumerate(c))[1:]


def _power_table(rows: list[tuple[float, ...]]) -> np.ndarray:
    """Series coefficients as table rows, highest power first (the column
    order of ``np.vander``), zero-padded to _SERIES_TERMS."""
    return np.array([(0.0,) * (_SERIES_TERMS - len(c)) + c[::-1] for c in rows])


class KernelTable:
    """The per-order constants of :func:`phi_rows` for the m orders s,
    worked out once per operator.

    ``series`` is the (2m, 14) series table: the series of each phi_s,
    then those of each phi_s'(w) / (w/2).  Off the series disk every row
    is reached from its base order nu = |s| and from nu + 1: ``pair``
    lists each base order once and then each base order plus one, and
    ``rows`` picks from it the nu entry of every row, then the nu + 1
    entry of every row.  A row s = -nu < 0 takes ``rotation``
    e^(i nu pi), ``sine`` (2/pi) sin(nu pi) and ``shift`` -2 nu; a row
    s >= 0 takes 1, 0 and 0.  ``rotation`` and ``sine`` are negated on
    the nu + 1 half, where the zones form -H1_{s+1} and I_{s+1}.
    ``companion`` says whether 0 is one of the orders, which asks for the
    Y_0, Y_1 rows of the nu = 0 companion (``y_rows`` picks them from
    ``pair``, ``zero`` is the row of order 0).  ``axis_series`` holds
    the longer series of the imaginary segment, built on first use.
    """

    def __init__(self, orders):
        s = [float(v) for v in orders]
        vals = [_phi_coeffs(v) for v in s]
        self.orders = np.array(s)
        self.series = _power_table(vals + [_deriv_coeffs(c) for c in vals])
        base = list(dict.fromkeys(abs(v) for v in s))
        n = len(base)
        self.pair = np.array(base + [nu + 1.0 for nu in base])[:, None]
        value_rows = [base.index(abs(v)) for v in s]
        self.rows = np.array(value_rows + [b + n for b in value_rows])
        self.companion = 0.0 in base
        self.y_rows = np.array([base.index(0.0), base.index(0.0) + n]) if self.companion else None
        self.zero = s.index(0.0) if self.companion else None
        self.column = self.orders[:, None]
        self.exponent = -self.column
        reflected = [max(-v, 0.0) for v in s]  # nu on the rows s = -nu, else 0
        rotation = [cmath.exp(1j * math.pi * nu) for nu in reflected]
        sine = [2.0 / math.pi * math.sin(math.pi * nu) for nu in reflected]
        self.rotation = np.array(rotation + [-v for v in rotation])[:, None]
        self.sine = np.array(sine + [-v for v in sine])[:, None]
        self.shift = np.array([-2.0 * nu for nu in reflected])[:, None]

    @cached_property
    def axis_series(self) -> np.ndarray:
        """The 40-term table of the imaginary segment, highest power first:
        the series of each phi_s and, with the companion, of psi; then
        those of their derivatives over w/2, in the same order."""
        k = np.arange(1.0, _AXIS_SERIES_TERMS)
        m = len(self.orders)
        rows = m + self.companion
        c = np.empty((2 * rows, _AXIS_SERIES_TERMS))  # lowest power first
        c[:m, 0] = self.series[:m, -1]  # 1 / Gamma(s + 1)
        c[:m, 1:] = -1.0 / (k * (self.column + k))  # c_k / c_{k-1}
        np.cumprod(c[:m], axis=1, out=c[:m])
        if self.companion:  # psi: (-1)^k H_k / (k!)^2
            c[m, 0] = 0.0
            c[m, 1:] = np.cumsum(1.0 / k) * np.cumprod(-1.0 / (k * k))
        c[rows:, :-1] = k * c[:rows, 1:]  # d/dw sum c_k (w/2)^(2k) = (w/2) sum k c_k u^(k-1)
        c[rows:, -1] = 0.0
        return c[:, ::-1].copy()


def _power_sums(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Every series of the table at every entry of a 1-d u: one
    ``np.vander`` and one matrix product.  The smallest terms are summed
    first, as in Horner's scheme."""
    return table @ np.vander(u, table.shape[1]).T


def _series(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp(-|Im w|) times every series of the table at u = (w/2)^2, for
    every entry of a 1-d w."""
    return _power_sums(table, (0.5 * w) ** 2) * np.exp(-np.abs(w.imag))


# The zones of phi_rows.  Each takes the KernelTable and a 1-d w, and
# returns the scaled phi_s(w) and phi_s'(w) rows, shaped (m, n), and the
# scaled Y_0(w), Y_1(w) rows, shaped (2, n), where 0 is one of the orders
# (else None).

def _series_zone(k: KernelTable, w: np.ndarray):
    sums = _series(k.series, w)
    m = len(k.orders)
    y = np.full((2, w.size), np.nan) if k.companion else None  # the companion sums its own series
    return sums[:m], 0.5 * w * sums[m:], y


def _real_zone(k: KernelTable, w: np.ndarray):
    # J = Re H1 and Y = Im H1, with H1_{-nu} = e^(i nu pi) H1_nu and
    # H1_{1-nu} = e^(i nu pi) H1_{nu+1} - (2 nu / x) H1_{-nu}
    m = len(k.orders)
    x = w.real
    h = sc.hankel1e(k.pair, x) * np.exp(1j * x)
    hr = k.rotation * h[k.rows]  # H1_s, then -H1_{s+1} before the shift term
    hr[m:] -= k.shift / x * hr[:m]
    rows = (0.5 * x) ** k.exponent * hr.real.reshape(2, m, -1)
    return rows[0], rows[1], h[k.y_rows].imag if k.companion else None


def _imag_series_zone(k: KernelTable, w: np.ndarray):
    # w = +-ix with 1 < x <= 20: the series of axis_series at u = -(x/2)^2,
    # scaled by e^(-x); phi_s'(+-ix) = +-i (x/2) times the derivative row.
    # The companion takes I_0 = phi_0(ix) and P = psi(ix), their x-derivatives
    # I_1 and P' as -(x/2) times their derivative rows, and (DLMF 10.31.2)
    # K_0 = P - (ln(x/2) + gamma) I_0, K_1 = I_0 / x + (ln(x/2) + gamma) I_1 - P'
    m = len(k.orders)
    sign = np.sign(w.imag)
    x = sign * w.imag
    half = 0.5 * x
    value, deriv = (_power_sums(k.axis_series, -half * half) * np.exp(-x)).reshape(2, -1, x.size)
    y = None
    if k.companion:  # Y_0(+-ix) = +-i I_0 - (2/pi) K_0, Y_1(+-ix) = -I_1 +- (2i/pi) K_1
        i0, i1 = value[k.zero], -half * deriv[k.zero]
        p, dp = value[m], -half * deriv[m]
        log_term = np.log(half) + EULER_GAMMA
        k_0 = p - log_term * i0
        k_1 = i0 / x + log_term * i1 - dp
        y = np.array([1j * sign * i0 - (2.0 / math.pi) * k_0, (2j / math.pi) * sign * k_1 - i1])
    return value[:m], (1j * sign * half) * deriv[:m], y


def _large_ive(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^(-x) I_nu(x) at x >= _LARGE_X, shaped (len(nu), x.size), from the sum
    (2 pi x)^(-1/2) sum_k (-1)^k a_k(nu) / x^k over k < 4,
    a_k(nu) = (4 nu^2 - 1)(4 nu^2 - 9) ... (4 nu^2 - (2k - 1)^2) / (k! 8^k) (DLMF 10.40.1)."""
    term = np.ones((nu.size, x.size))
    total = term.copy()
    for n in range(1, _LARGE_TERMS):
        term = term * ((4.0 * nu * nu - (2 * n - 1) ** 2) / (-8.0 * n)) / x
        total += term
    return total / (math.sqrt(2.0 * math.pi) * np.sqrt(x))


def _imag_zone(k: KernelTable, w: np.ndarray):
    # w = +-ix with x > 20:
    # phi_s(+-ix) = (x/2)^(-s) I_s(x), phi_s'(+-ix) = -+i (x/2)^(-s) I_{s+1}(x),
    # with I_{-nu} = I_nu + (2/pi) sin(nu pi) K_nu and
    # I_{1-nu} = I_{nu+1} - (2/pi) sin(nu pi) K_{nu+1} + (2 nu / x) I_{-nu},
    # all scaled by e^(-x).  I comes from the real-argument iv (Temme's
    # method, about 2e-15 relative), not from ive, whose Miller recurrence
    # loses up to 7e-14 below x = 22; ive serves only past x = 708, where
    # e^(-x) leaves the normal floats and iv soon overflows, and _large_ive
    # past x = 1e8, where ive fails.  There e^(-x) K_nu = e^x K_nu e^(-2x) is
    # 0, below the smallest float (kve, which fails too, is not called).
    m = len(k.orders)
    sign = np.sign(w.imag)
    x = sign * w.imag
    scale = np.exp(-x)
    far = scale < sys.float_info.min
    if np.count_nonzero(far):
        i = np.empty((len(k.pair), x.size))
        kx = np.zeros((len(k.pair), x.size))
        near, large = ~far, x >= _LARGE_X
        i[:, near] = sc.iv(k.pair, x[near]) * scale[near]
        kx[:, near] = sc.kve(k.pair, x[near]) * scale[near] ** 2
        i[:, far & ~large] = sc.ive(k.pair, x[far & ~large])
        i[:, large] = _large_ive(k.pair, x[large])
    else:
        i = sc.iv(k.pair, x) * scale
        kx = sc.kve(k.pair, x) * scale**2
    ir = i[k.rows] + k.sine * kx[k.rows]  # I_s, then I_{s+1} before the shift term
    ir[m:] -= k.shift / x * ir[:m]
    rows = (0.5 * x) ** k.exponent * ir.reshape(2, m, -1)
    y = None
    if k.companion:  # Y_0(+-ix) = +-i I_0 - (2/pi) K_0, Y_1(+-ix) = -I_1 +- (2i/pi) K_1
        (i0, i1), (k0, k1) = i[k.y_rows], kx[k.y_rows]
        y = np.array([1j * sign * i0 - (2.0 / math.pi) * k0, (2j / math.pi) * sign * k1 - i1])
    return rows[0], (-1j * sign) * rows[1], y


def _general_zone(k: KernelTable, w: np.ndarray):
    power = (0.5 * w) ** k.exponent
    val = power * sc.jve(k.column, w)
    der = -power * sc.jve(k.column + 1.0, w)
    return val, der, sc.yve(_Y_ORDERS, w) if k.companion else None


_Y_ORDERS = np.array([[0.0], [1.0]])


def phi_rows(k: KernelTable, w: np.ndarray):
    """exp(-|Im w|) phi_s(w), phi_s(w) = (w/2)^(-s) J_s(w), and its
    w-derivative, for every order s of ``k`` at every entry of an
    ndarray w, shaped (m,) + w.shape; and, where 0 is one of the orders,
    exp(-|Im w|) Y_0(w) and Y_1(w), shaped (2,) + w.shape and NaN inside
    the series disk |w| <= 1, for :func:`bessel_jm0_rows` (else None).

    phi_s is entire in w, even, with real coefficients, and
    phi_s'(w) = -(w/2)^(-s) J_{s+1}(w).  Each entry is evaluated by its
    zone (callers keep Re w >= 0), so its value does not depend on the
    other entries:

    * |w| <= 1: one matrix product sums every series;
    * the real axis: one ``hankel1e`` call over the base orders nu = |s|
      and nu + 1 gives J and Y as the real and imaginary parts of H1;
    * the imaginary axis up to |w| = 20: one matrix product sums the
      40-term series of ``KernelTable.axis_series``, whose terms are of
      one sign there, and the Y rows follow from the psi series;
    * the imaginary axis beyond: one ``iv`` and one ``kve`` call over the
      base orders, through the connection formulas (DLMF 10.27);
    * elsewhere: one ``jve`` call per order shift, and one ``yve`` call.
    """
    flat = w.ravel()
    m, n = len(k.orders), flat.size
    radius = np.abs(flat)
    outside = radius > _SERIES_RADIUS
    zones = [(~outside, _series_zone)]
    if np.count_nonzero(outside):
        re, im = flat.real, flat.imag
        real = outside & (im == 0.0) & (re > 0.0)
        imag = outside & (re == 0.0)
        near = imag & (radius <= _AXIS_SERIES_RADIUS)
        zones += [
            (real, _real_zone),
            (near, _imag_series_zone),
            (imag & ~near, _imag_zone),
            (outside & ~(real | imag), _general_zone),
        ]
        zones = [(mask, zone) for mask, zone in zones if np.count_nonzero(mask)]
    if len(zones) == 1:  # every entry in one zone: no gather or scatter
        val, der, y = zones[0][1](k, flat)
    else:
        val = np.empty((m, n), dtype=complex)
        der = np.empty((m, n), dtype=complex)
        y = np.empty((2, n), dtype=complex) if k.companion else None
        for mask, zone in zones:
            val[:, mask], der[:, mask], y_zone = zone(k, flat[mask])
            if k.companion:
                y[:, mask] = y_zone
    if k.companion:
        y = y.astype(complex, copy=False).reshape((2,) + w.shape)
    val = val.astype(complex, copy=False).reshape((m,) + w.shape)
    der = der.astype(complex, copy=False).reshape((m,) + w.shape)
    return val, der, y


def _psi_coeffs() -> tuple[float, ...]:
    c = [0.0]
    harmonic = 0.0
    fact = 1.0
    for k in range(1, _SERIES_TERMS):
        harmonic += 1.0 / k
        fact *= k
        c.append((-1.0) ** k * harmonic / (fact * fact))
    return tuple(c)


_PSI = _psi_coeffs()
_PSI_TABLE = _power_table([_PSI, _deriv_coeffs(_PSI)])  # psi and psi'/(w/2) for _series
_PHI0_TABLE = KernelTable([0.0])


def bessel_jm0(mu: float, x: float) -> float:
    """Logarithmic companion row entry: (pi/2) Y0(mu x) - (log mu - log 2 + gamma) J0(mu x).

    Real arguments only; the complex-capable entire form is
    :func:`bessel_jm0_series`.
    """
    mu = float(mu)
    x = float(x)
    if not (mu > 0.0 and x > 0.0):
        raise SpecialFunctionDomainError("bessel_jm0: need mu > 0 and x > 0")
    w = mu * x
    return (
        0.5 * math.pi * bessel_y(0.0, w)
        - (math.log(mu) - math.log(2.0) + EULER_GAMMA) * bessel_j(0.0, w)
    )


def _companion(mu: complex, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bessel_jm0_rows` at one mu, as one-element arrays."""
    mu = complex(mu)
    mu = np.array([-mu if mu.real < 0.0 else mu])  # even in mu; keep Amos's cut off arg w = pi
    val, der, y = phi_rows(_PHI0_TABLE, mu * x)
    return bessel_jm0_rows(mu, x, val[0], der[0], y)


def bessel_jm0_series(mu: complex, x: float) -> complex:
    """exp(-|Im mu x|) times the entire form log(x) J0(mu x) - psi(mu x).

    Agrees with :func:`bessel_jm0` for real mu > 0 (where the scale
    factor is 1) and extends to complex mu as an even function of mu
    (the log mu dependence of the unscaled form cancels identically).
    """
    return complex(_companion(mu, x)[0][0])


def bessel_jm0_series_dx(mu: complex, x: float) -> complex:
    """d/dx of the entire form of :func:`bessel_jm0_series`, scaled by exp(-|Im mu x|)."""
    return complex(_companion(mu, x)[1][0])


def bessel_jm0_rows(
    mu: np.ndarray, x: float, phi0: np.ndarray, dphi0: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bessel_jm0_series`, :func:`bessel_jm0_series_dx` and the
    mu-derivative of the former, at every entry of an ndarray mu with
    Re mu >= 0.

    phi0, dphi0 and y are the order-0 rows of :func:`phi_rows` at
    w = mu x: the scaled J_0(w) and -J_1(w), and the scaled Y_0(w),
    Y_1(w), so no Bessel function is evaluated here.  All three results
    carry the factor
    exp(-|Im mu x|).  Outside the series disk the mu-derivative is
    (x C_x - J0(mu x)) / mu; inside, where that difference cancels to
    O((mu x)^2), it is x (log(x) phi_0'(w) - psi'(w)).
    """
    x = float(x)
    if not (x > 0.0):
        raise SpecialFunctionDomainError("bessel_jm0_rows: need x > 0")
    w = mu * x
    c = np.empty(w.shape, dtype=complex)
    c_x = np.empty(w.shape, dtype=complex)
    c_mu = np.empty(w.shape, dtype=complex)
    inside = np.abs(w) <= _SERIES_RADIUS
    if inside.any():
        mi, wi, j0 = mu[inside], w[inside], phi0[inside]
        psi, psi_d = _series(_PSI_TABLE, wi)
        log_x = math.log(x)
        # e: the w-derivative of log(x) phi_0(w) - psi(w); then C_x = phi_0 / x + mu e and C_mu = x e
        e = log_x * dphi0[inside] - 0.5 * wi * psi_d
        c[inside] = log_x * j0 - psi
        c_x[inside] = j0 / x + mi * e
        c_mu[inside] = x * e
    if not inside.all():
        outside = ~inside
        mo, j0 = mu[outside], phi0[outside]
        shift = np.log(mo) - math.log(2.0) + EULER_GAMMA
        c[outside] = 0.5 * math.pi * y[0][outside] - shift * j0
        c_x[outside] = -mo * (0.5 * math.pi * y[1][outside] + shift * dphi0[outside])
        c_mu[outside] = (x * c_x[outside] - j0) / mo
    return c, c_x, c_mu
