"""Special-function kernel: Bessel functions and Gamma.

Everything here is pure and reentrant.  The row building blocks are
stacked ndarray entry points (:func:`phi_rows`, :func:`bessel_jm0_rows`)
that evaluate every order of an operator over a whole array of
arguments in one pass: one matrix product for all the series and one
``jve`` call per order shift.  The other public functions are scalar.
The engine needs

* ``J_nu(z)`` for real order ``nu`` and complex argument ``z`` (secular
  determinants are evaluated on contours in the right half-plane and on
  the imaginary axis),
* ``Y_nu`` for real positive argument,
* the logarithmic companion of ``J_0`` (``bessel_jm0``) whose
  ``log(mu)`` part is split off so that boundary rows stay entire in
  ``mu**2``,
* ``Gamma`` for the normalization constants.

Evaluation strategy (argument ``w``):

* ``|w| > 1``: ``scipy.special``, which wraps Amos's complex Bessel
  routines (D. E. Amos, ACM TOMS 12, 1986, Algorithm 644).
* ``|w| <= 1``: a short float64 power series for the entire forms
  ``(w/2)^(-nu) J_nu(w)`` and the log-free part of the companion.  There
  the prefactor meets ``0 * inf`` at ``w = 0`` and the ``log`` terms of
  the companion cancel; the terms fall fast enough that the series is
  accurate to a few units in the last place.

The row building blocks (:func:`phi_rows`, :func:`bessel_jm0_rows` and
their scalar forms :func:`bessel_jm0_series`, :func:`bessel_jm0_series_dx`)
are exponentially scaled: they return their value times ``exp(-|Im w|)``
(``jve``/``yve`` outside the disk), so the ``exp(|Im w|)`` growth on the
imaginary axis never overflows.  For real arguments the factor is 1.
``bessel_j``, ``bessel_y`` and their derivatives are unscaled.

All complex powers and logarithms use the principal branch; callers keep
``Re w >= 0``, where the branch cuts of ``(w/2)^(-nu)`` and ``J_nu``
cancel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

EULER_GAMMA = 0.5772156649015328606065120900824024

_SERIES_RADIUS = 1.0

# Terms of the power series kept inside the unit disk, where u = (w/2)^2
# has |u| <= 1/4 and the k-th term is of order 4^-k / (k!)^2 (below
# 1e-18 from k = 10 on).
_SERIES_TERMS = 14


class SpecialFunctionDomainError(ValueError):
    """Argument outside the supported domain (cut, pole, sign)."""


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


def series_table(orders) -> np.ndarray:
    """The (2m, 14) series table of m orders for :func:`phi_rows`: the
    series of each phi_s, then those of each phi_s'(w) / (w/2)."""
    vals = [_phi_coeffs(float(s)) for s in orders]
    return _power_table(vals + [_deriv_coeffs(c) for c in vals])


def _series(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp(-|Im w|) times every series of the table at u = (w/2)^2, for
    every entry of a 1-d w: one ``np.vander`` and one matrix product.
    The smallest terms are summed first, as in Horner's scheme."""
    powers = np.vander((0.5 * w) ** 2, _SERIES_TERMS)
    return (table @ powers.T) * np.exp(-np.abs(w.imag))


def phi_rows(s: np.ndarray, table: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-|Im w|) phi_s(w), phi_s(w) = (w/2)^(-s) J_s(w), and its
    w-derivative, for every order s[i] at every entry of an ndarray w,
    shaped (m,) + w.shape.

    phi_s is entire in w, even, with real coefficients, and
    phi_s'(w) = -(w/2)^(-s) J_{s+1}(w).  ``table`` is :func:`series_table`
    of the orders s.  Inside the unit disk one matrix product sums every
    series; outside, one ``jve`` call per order shift takes all orders
    at once (callers keep Re w >= 0).
    """
    m = len(s)
    val = np.empty((m,) + w.shape, dtype=complex)
    der = np.empty((m,) + w.shape, dtype=complex)
    inside = np.abs(w) <= _SERIES_RADIUS
    if inside.any():
        wi = w[inside]
        sums = _series(table, wi)
        val[:, inside] = sums[:m]
        der[:, inside] = 0.5 * wi * sums[m:]
    if not inside.all():
        outside = ~inside
        wo = w[outside]
        orders = s[:, None]
        power = (0.5 * wo) ** (-orders)
        val[:, outside] = power * sc.jve(orders, wo)
        der[:, outside] = -power * sc.jve(orders + 1.0, wo)
    return val, der


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
_ORDER0 = np.zeros(1)
_PHI0_TABLE = series_table(_ORDER0)


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
    val, der = phi_rows(_ORDER0, _PHI0_TABLE, mu * x)
    return bessel_jm0_rows(mu, x, val[0], der[0])


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
    mu: np.ndarray, x: float, phi0: np.ndarray, dphi0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bessel_jm0_series`, :func:`bessel_jm0_series_dx` and the
    mu-derivative of the former, at every entry of an ndarray mu with
    Re mu >= 0.

    phi0 and dphi0 are the order-0 rows of :func:`phi_rows` at w = mu x:
    the scaled J_0(w) and -J_1(w).  All three results carry the factor
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
        mo, wo, j0 = mu[outside], w[outside], phi0[outside]
        shift = np.log(mo) - math.log(2.0) + EULER_GAMMA
        c[outside] = 0.5 * math.pi * sc.yve(0.0, wo) - shift * j0
        c_x[outside] = -mo * (0.5 * math.pi * sc.yve(1.0, wo) + shift * dphi0[outside])
        c_mu[outside] = (x * c_x[outside] - j0) / mo
    return c, c_x, c_mu
