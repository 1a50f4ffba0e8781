"""Special-function kernel: Bessel functions and Gamma.

Everything here is pure and reentrant.  The row building block is
one stacked ndarray entry point, :func:`phi_rows`, that evaluates the
kernel rows of an operator over a whole array of arguments in one
pass: ``phi_s`` at every order ``s`` and, where ``0`` is one of them,
``psi``, the part of the logarithmic companion that is not a multiple
of ``J_0``; the per-order constants it needs are worked out once per
operator in a :class:`KernelTable`, each zone's when a point first falls
in that zone.  The boundary rows are a fixed
linear map of these rows (``eigenfunction._boundary_map``).  The other
public functions are scalar.  The engine needs

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

* The series zone: float64 power series in ``(w/2)^2`` for the entire
  forms ``(w/2)^(-nu) J_nu(w)`` and, for the companion,
  ``psi(w) = sum_{k>=1} H_k (-w^2/4)^k / (k!)^2``, from one 40-term
  table per operator.  Inside ``|w| <= 1`` its 14 lowest-order terms,
  a table of their own, are summed; there the prefactor meets
  ``0 * inf`` at ``w = 0`` and the ``log`` terms of the companion cancel.  On the imaginary segment
  ``w = +-ix, 1 < x <= 20``, where the negative-eigenvalue scans, the
  zero count and the zeta ray sample, all 40 are, in real arithmetic:
  ``(w/2)^2`` is real there and every term is of one sign (DLMF
  10.25.2), so nothing cancels.  No scipy routine is called.
* The real axis ``w = x > 1``, where the spectrum scans and root
  refinement sample: ``H1`` at the base orders ``nu`` and ``nu + 1``,
  for ``x <= 20`` from the trapezoidal rule on Hankel's integral along
  its steepest-descent path (DLMF 10.9.18; Trefethen & Weideman, SIAM
  Review 56, 2014), 109 nodes whose x factors and order factors are
  separate tables, and beyond from Hankel's expansion of ``H1`` alone.
  ``J`` and ``Y`` are the real and imaginary parts of ``H1``, and the
  negative orders follow from ``H1_{-nu} = e^(i nu pi) H1_nu`` and the
  recurrence, so no ``J_{-nu}`` is evaluated by reflection.  No scipy
  routine is called.
* Every other ``|w| > 20``, the imaginary axis among them: Hankel's
  expansion of ``H1`` and ``H2`` (DLMF 10.17.3-4), a 40-term table in
  ``1/w`` summed like the series zone's, with ``J = (H1 + H2)/2``,
  ``Y = (H1 - H2)/(2i)`` and ``H2_{-nu} = e^(-i nu pi) H2_nu``.  No
  scipy routine is called, out to the float range.
* The annulus ``1 < |w| <= 20`` off both axes: ``jve`` at every order
  and order plus one, and ``yve`` at orders 0 and 1 for the companion.

These three zones turn their ``Y_0``, ``Y_1`` rows into ``psi``
rows through ``psi = (log(w/2) + gamma) J_0 - (pi/2) Y_0`` (DLMF 10.8.2).
Every table is summed entry by entry (a stacked matrix product), so an
entry of an array is bit-identical to its one-point call.

Against mpmath, relative to the envelope ``(2/(pi |w|))^(1/2)``, the
Hankel zone is good to about 5e-16 (``psi`` to 3e-16 of ``|log(w/2)|``
times it), the real axis to 1.5e-15 up to ``x = 20`` (the trapezoid's
rounding; Amos's ``hankel1e`` reached 2e-15) and to 5e-16 beyond, out
to ``x = 1e5``, the imaginary series segment to 1.2e-15, and the ``jve``
annulus to only 5e-14 for the negative orders (scipy reflects through
``J_nu`` and ``Y_nu``).

The row building blocks (:func:`phi_rows` and the scalar companion
:func:`bessel_jm0_series`) are exponentially scaled:
they return their value times ``exp(-|Im w|)``, so the ``exp(|Im w|)``
growth on the imaginary axis never overflows.  For real arguments the
factor is 1.  ``bessel_j``, ``bessel_y`` and their derivatives are
unscaled.

All complex powers and logarithms use the principal branch; callers keep
``Re w >= 0``, where the branch cuts of ``(w/2)^(-nu)`` and ``J_nu``
cancel.

The scalar functions :func:`hurwitz_zeta` and :func:`exp1` serve the
zeta estimators of ``determinant.py``; both are written out here.

The scipy routines are read through one lazy handle, ``sc``: importing
this module loads numpy only, and ``scipy.special`` is imported the
first time the ``jve`` annulus or a scalar Bessel function
(:func:`bessel_j`, :func:`bessel_y`, their derivatives, :func:`bessel_jm0`)
is evaluated.  No spectrum, zeta or determinant route reaches either.
"""

from __future__ import annotations

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
# the sum for every order in (-1, 1), for the derivative rows too.  Beyond,
# Hankel's expansion omits a_40(nu) / w^40, below 6e-19 for every nu < 2.
_AXIS_SERIES_RADIUS = 20.0
_AXIS_SERIES_TERMS = 40
_K = np.arange(1.0, _AXIS_SERIES_TERMS)  # k = 1, 2, ...
_PSI_SERIES = np.cumsum(1.0 / _K) * np.cumprod(-1.0 / (_K * _K))  # (-1)^k H_k / (k!)^2
_HANKEL_POWERS = np.arange(1.0 - _AXIS_SERIES_TERMS, 1.0)  # -k, highest power first
_HANKEL_ODD_SQUARES = (2.0 * _K - 1.0) ** 2  # (2k - 1)^2
_HANKEL_STEP = 1j / (8.0 * _K)  # i / (8k)

# Hankel's integral H1_nu(x) = (1/(pi i)) int e^(x sinh w - nu w) dw from
# -inf to inf + pi i (DLMF 10.9.18), on the steepest-descent path
# w(t) = t + i(pi/2 + gd t) of x > 0, gd the Gudermannian, where
# sinh w = i - sinh t tanh t:
#   H1_nu(x) e^(-ix) = (1/(pi i)) int e^(-x sinh t tanh t) e^(-nu w(t)) w'(t) dt,
# w'(t) = 1 + i sech t.  The integrand is analytic in a strip about the real
# t-axis and falls doubly exponentially, so the trapezoidal rule converges
# exponentially (Trefethen & Weideman, SIAM Review 56, 2014).  With the step
# h = 0.085 on t in [-4.8, 4.38], 109 nodes, it meets mpmath within 1.5e-15
# of the envelope (2/(pi x))^(1/2) for 1 < x <= 20 and orders 0 <= nu < 2:
# rounding, not the rule, sets that bar.  The first factor depends on x
# alone, the second on the order alone (KernelTable.real_axis).
_TRAPEZOID_STEP = 0.085
_t = -4.8 + _TRAPEZOID_STEP * np.arange(109)
_TRAPEZOID_EXPONENT = -np.sinh(_t) * np.tanh(_t)  # the x factor's exponent over x
# w(t_j) and log(w'(t_j) h / (pi i)) as columns, so that the order factors of
# the orders nu, a row, are one complex exp of a (nodes, orders) array
_t = _t[:, None]
_TRAPEZOID_PATH = _t + 1j * (0.5 * math.pi + 2.0 * np.arctan(np.tanh(0.5 * _t)))
_TRAPEZOID_LOG_WEIGHT = np.log((1.0 + 1j / np.cosh(_t)) * (_TRAPEZOID_STEP / (math.pi * 1j)))
del _t


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


# The one handle on scipy.special.
sc = _ScipySpecial()


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, poles at non-positive integers."""
    x = float(x)
    if not math.isfinite(x):
        raise SpecialFunctionDomainError(f"gamma_fn: non-finite argument {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise SpecialFunctionDomainError(f"gamma_fn: pole at non-positive integer {x}")
    return math.gamma(x)


# B_2j / (2j)!, j = 1 .. 12, the Euler-Maclaurin coefficients of hurwitz_zeta
_EULER_MACLAURIN = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
)


def _shifted(a: float, k: int) -> tuple[float, float]:
    """b = a + k as rounded, and drop with a + k = b (1 + drop) (Knuth's two-sum)."""
    b = a + k
    v = b - a
    return b, ((a - (b - v)) + (k - v)) / b


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k>=0} (a + k)^(-s) for real s > 1 and a > 0.

    The terms below b = a + n >= s + 10 are summed as they are, and the rest
    by Euler-Maclaurin (DLMF 25.11.5 at b): b^(1-s)/(s-1) + b^(-s)/2 +
    sum_j B_2j/(2j)! (s)_(2j-1) b^(1-s-2j), whose terms then fall by at least
    ((s + 2j)/(2 pi b))^2 each, so at most 12 of them reach the last bit.
    a + k rounds, and s times its relative error would show in (a + k)^(-s):
    each power is corrected by the part the sum drops (Knuth's two-sum).
    Within 6e-16 relative of mpmath; inf where a term leaves the float range.
    """
    eps = sys.float_info.epsilon
    head, n = 0.0, max(0, math.ceil(s + 10.0 - a))
    try:
        for k in range(n):
            b, drop = _shifted(a, k)
            term = b**-s * (1.0 - s * drop)
            head += term
            if term <= eps * head:  # the rest adds below one ulp
                return head
        b, drop = _shifted(a, n)
        lead = b**-s
    except OverflowError:
        return math.inf
    term, series = s * lead / b, 0.0  # (s)_(2j-1) b^(1-s-2j) at j = 1
    for j, coeff in enumerate(_EULER_MACLAURIN):
        added = coeff * term
        series += added
        if abs(added) <= 0.25 * eps * lead:
            break
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) / (b * b)
    tail = b * lead / (s - 1.0) + (0.5 * lead + series)
    return head + tail * (1.0 - (s - 1.0) * drop)  # the tail goes as b^(1-s)


def exp1(x: float) -> float:
    """The exponential integral E1(x) = int_x^inf e^(-t) / t dt for real x > 0.

    Up to x = 1 the series E1(x) = -gamma - log x - sum_{k>=1} (-x)^k / (k k!)
    (DLMF 6.6.2), summed exactly rounded; above, the continued fraction
    E1(x) = e^(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...))) (DLMF 6.9.1 in its
    even form), 6 + 100/x levels deep from the bottom.  Within 4e-16
    relative of mpmath.
    """
    if not x > 0.0:
        raise SpecialFunctionDomainError(f"exp1: need real x > 0, got {x!r}")
    if x <= 1.0:
        terms, term, k = [-EULER_GAMMA, -math.log(x)], 1.0, 0
        while abs(term) > 1e-3 * sys.float_info.epsilon * k:  # term = (-x)^k / k!
            k += 1
            term *= -x / k
            terms.append(-term / k)
        return math.fsum(terms)
    n = int(6.0 + 100.0 / x)
    f = x + (2 * n + 1)
    for k in range(n, 0, -1):
        f = x + (2 * k - 1) - k * k / f
    return math.exp(-x) / f


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
#             = (log(w/2) + gamma) J_0(w) - (pi/2) Y_0(w)  (DLMF 10.8.2)
#
# Inside the unit disk and on the imaginary segment both are summed as
# polynomials in u = (w/2)^2.
# ---------------------------------------------------------------------------

def _series_table(
    orders: np.ndarray, rgamma: np.ndarray | list[float], companion: bool, terms: int
) -> np.ndarray:
    """The first ``terms`` coefficients, lowest power of u = (w/2)^2 first, of the
    series of phi_s at every order s, whose first is ``rgamma``'s 1 / Gamma(1 + s),
    and, with the companion, of psi; then those of their derivatives over w/2, in
    the same order, the last one left 0."""
    m, k = orders.size, _K[: terms - 1]
    rows = m + companion
    c = np.zeros((2 * rows, terms))
    c[:m, 0] = rgamma
    c[:m, 1:] = -1.0 / (k * (orders[:, None] + k))  # c_k / c_{k-1}
    np.cumprod(c[:m], axis=1, out=c[:m])
    if companion:  # psi
        c[m, 1:] = _PSI_SERIES[: terms - 1]
    c[rows:, :-1] = k * c[:rows, 1:]  # d/dw sum c_k (w/2)^(2k) = (w/2) sum k c_k u^(k-1)
    return c


class KernelTable:
    """The per-order constants of :func:`phi_rows` for the m orders s,
    worked out once per operator, each table when a zone first reads it.

    ``gamma``, where given, maps each order s to Gamma(1 + s), so that a
    caller that has the values already (a request's
    :class:`~regsing.operators.Channels`) spares evaluating them again.
    Construction builds ``orders``, ``companion`` (whether 0 is one of
    them, so that psi is a row) and ``disk``, the 14 lowest-order terms
    of the series table, highest power first: the series of each phi_s
    and, with the companion, of psi; then those of their derivatives over
    w/2, in the same order.  Every row inside |w| <= 1 reads only
    ``disk``, so a request that stays there, as a determinant request
    does, builds nothing else.  The rest is built on first use.
    ``series`` is the same table with all 40 terms, which the imaginary
    segment 1 < |w| <= 20 sums; it takes its 1 / Gamma(1 + s) from
    ``disk``.  Off the series zone every row is reached from its base
    order nu = |s| and from nu + 1: ``pair`` lists each base order once
    and then each base order plus one, and ``rows`` picks from it the nu
    entry of every row, then the nu + 1 entry of every row.  A
    row s = -nu < 0 takes ``rotation`` e^(i nu pi) and ``shift`` -2 nu; a
    row s >= 0 takes 1 and 0.  ``rotation`` is negated on the nu + 1 half,
    where the zones form -H1_{s+1}.  With the companion, ``zero`` is the
    row of order 0 and ``y_rows`` picks the orders 0 and 1 from ``pair``.
    ``hankel`` is the table of Hankel's expansion of every row,
    ``real_axis`` those of H1 at the orders of ``pair``.
    """

    def __init__(self, orders, gamma=None):
        s = [float(v) for v in orders]
        self.orders = np.array(s)
        self.companion = 0.0 in s
        rgamma = [1.0 / (gamma_fn(1.0 + v) if gamma is None else gamma[v]) for v in s]
        # 15 terms, whose last gives the 14th term of the derivative rows
        table = _series_table(self.orders, rgamma, self.companion, _SERIES_TERMS + 1)
        self.disk = table[:, _SERIES_TERMS - 1 :: -1].copy()

    @cached_property
    def series(self) -> np.ndarray:
        rgamma = self.disk[: self.orders.size, -1]  # the disk's 1 / Gamma(1 + s)
        table = _series_table(self.orders, rgamma, self.companion, _AXIS_SERIES_TERMS)
        return table[:, ::-1].copy()

    @cached_property
    def exponent(self) -> np.ndarray:
        """-s as a column: (w/2)^(-s) is the prefactor of every row."""
        return -self.orders[:, None]

    @cached_property
    def pair(self) -> np.ndarray:
        nu = np.abs(self.orders)
        base = nu[np.sort(np.unique(nu, return_index=True)[1])]  # in order of first appearance
        return np.concatenate([base, base + 1.0])[:, None]

    @cached_property
    def rows(self) -> np.ndarray:
        n = len(self.pair) // 2
        at = np.argmax(np.abs(self.orders)[:, None] == self.pair[:n].T, axis=1)
        return np.concatenate([at, at + n])

    @cached_property
    def _reflected(self) -> np.ndarray:
        """nu on the rows s = -nu < 0, else 0, as a column."""
        return np.maximum(self.exponent, 0.0)

    @cached_property
    def rotation(self) -> np.ndarray:
        rotation = np.exp(1j * math.pi * self._reflected)
        return np.concatenate([rotation, -rotation])

    @cached_property
    def shift(self) -> np.ndarray:
        return -2.0 * self._reflected

    @cached_property
    def zero(self) -> int:
        return int(np.flatnonzero(self.orders == 0.0)[0])

    @cached_property
    def y_rows(self) -> np.ndarray:
        return self.rows[[self.zero, len(self.orders) + self.zero]]

    @cached_property
    def hankel_pair(self) -> np.ndarray:
        """Built on first use, lowest power of 1/w first: c_nu i^k a_k(nu) at every
        order nu of ``pair``, c_nu = e^(-i(nu pi/2 + pi/4)) and
        a_k(nu) = (4 nu^2 - 1)(4 nu^2 - 9) ... (4 nu^2 - (2k - 1)^2) / (k! 8^k)
        (DLMF 10.17.1): (2/(pi w))^(-1/2) e^(-iw) H1_nu(w) = sum_k c_nu i^k a_k(nu) / w^k."""
        nu = self.pair
        a = np.empty((len(nu), _AXIS_SERIES_TERMS), dtype=complex)
        a[:, :1] = np.exp(-1j * math.pi * (0.5 * nu + 0.25))
        a[:, 1:] = (4.0 * nu * nu - _HANKEL_ODD_SQUARES) * _HANKEL_STEP  # i a_k / a_{k-1}
        return np.cumprod(a, axis=1, out=a)

    @cached_property
    def hankel(self) -> np.ndarray:
        """Built on first use, highest power of 1/w first: rotation_r times the
        :attr:`hankel_pair` series of every row r at its order of ``pair``; then their
        complex conjugates, the coefficients of H2."""
        a = self.rotation * self.hankel_pair[self.rows]
        return np.concatenate([a, a.conj()])[:, ::-1].copy()

    @cached_property
    def real_axis(self) -> tuple[np.ndarray, np.ndarray]:
        """Built on first use, the two tables of H1_nu(x) e^(-ix) at the orders nu of
        ``pair`` on the real axis, each with the real and imaginary part of every entry
        side by side (a float view of a complex array): the trapezoid's order factors
        e^(-nu w(t_j)) w'(t_j) h / (pi i), node by node, and the :attr:`hankel_pair`
        series, highest power of 1/x first."""
        trapezoid = np.exp(_TRAPEZOID_LOG_WEIGHT - _TRAPEZOID_PATH * self.pair.T)
        series = np.multiply(self.hankel_pair.T[::-1], math.sqrt(2.0 / math.pi), order="C")
        return trapezoid.view(float), series.view(float)


# The zones of phi_rows.  Each takes the KernelTable and a 1-d w (the
# series zone also the table to sum), and returns the scaled values and
# w-derivatives of its rows, each shaped (m', n): phi_s(w) at the m orders,
# then psi(w) where 0 is one of them (m' = m + 1).

def _series_zone(k: KernelTable, w: np.ndarray, table: np.ndarray, axis: bool = False):
    # the disk |w| <= 1 with k.disk, the imaginary segment 1 < |w| <= 20
    # with k.series and axis: every series of the table at u = (w/2)^2 from
    # one np.vander and a stacked matrix product, one (1, terms) @ (terms,
    # rows) product per entry, which sums the smallest terms first, as in
    # Horner's scheme; on the axis u = -(|w|/2)^2 is real, and so is every
    # sum.  The derivative rows are w/2 times their sums
    rows = len(table) // 2
    half = 0.5 * w
    u = half * half
    powers = np.vander(u.real if axis else u, table.shape[1])[:, None]
    sums = np.matmul(powers, table.T)[:, 0].T * np.exp(-np.abs(w.imag))
    sums = sums.astype(complex, copy=False)
    sums[rows:] *= half
    return sums[:rows], sums[rows:]


def _with_psi(w: np.ndarray, rows: np.ndarray, j, y) -> np.ndarray:
    """The phi_s and phi_s' rows, shaped (2, m, n), with psi and psi' after them
    from the rows (J_0, J_1) and (Y_0, Y_1) at w: psi = (log(w/2) + gamma) J_0 -
    (pi/2) Y_0 and psi' = J_0 / w - (log(w/2) + gamma) J_1 + (pi/2) Y_1."""
    log_term = np.log(0.5 * w) + EULER_GAMMA
    psi = log_term * j[0] - 0.5 * math.pi * y[0]
    dpsi = j[0] / w - log_term * j[1] + 0.5 * math.pi * y[1]
    return np.concatenate([rows, np.array([psi, dpsi])[:, None]], axis=1)


def _hankel1e(k: KernelTable, x: np.ndarray) -> np.ndarray:
    """H1_nu(x) e^(-ix) at every order nu of ``k.pair`` and every real x > 1,
    shaped (len(pair), n): the trapezoid sum of Hankel's integral up to
    x = 20, Hankel's expansion beyond.  Each entry is one (1, nodes) @ (nodes,
    columns) product of a stacked np.matmul, so its value does not depend on
    the other entries (one matrix product sums one row in another order than
    many)."""
    trapezoid, series = k.real_axis

    def near_sums(x):
        # each exponent is kept above -100, where a node adds below 1e-40 to the
        # sum: an exp that underflows costs up to 50 times one that does not
        exponent = x[:, None] * _TRAPEZOID_EXPONENT
        np.maximum(exponent, -100.0, out=exponent)
        return np.matmul(np.exp(exponent, out=exponent)[:, None], trapezoid)

    def far_sums(x):
        # x^-k as exp(-k log x), whose rounding k |log x| eps only reaches the
        # terms k >= 1, below a_1 / x < 0.02 of the sum; (2/pi)^(1/2) is in the table
        powers = np.exp(np.multiply.outer(np.log(x), _HANKEL_POWERS))
        return np.matmul(powers[:, None], series) / np.sqrt(x)[:, None, None]

    far = x > _AXIS_SERIES_RADIUS
    split = x.size - np.count_nonzero(far)
    if split == x.size:
        sums = near_sums(x)
    elif split == 0:
        sums = far_sums(x)
    elif not far[:split].any():  # the far entries last, as on an ascending x: no scatter
        sums = np.concatenate([near_sums(x[:split]), far_sums(x[split:])])
    else:
        sums = np.empty((x.size, 1, trapezoid.shape[1]))
        near = ~far
        sums[near], sums[far] = near_sums(x[near]), far_sums(x[far])
    return sums.reshape(x.size, -1).view(complex).T


def _real_zone(k: KernelTable, w: np.ndarray):
    # J = Re H1 and Y = Im H1, with H1_{-nu} = e^(i nu pi) H1_nu and
    # H1_{1-nu} = e^(i nu pi) H1_{nu+1} - (2 nu / x) H1_{-nu}
    m = len(k.orders)
    x = w.real
    h = _hankel1e(k, x) * np.exp(1j * x)
    hr = k.rotation * h[k.rows]  # H1_s, then -H1_{s+1} before the shift term
    hr[m:] -= k.shift / x * hr[:m]
    rows = (0.5 * x) ** k.exponent * hr.real.reshape(2, m, -1)
    if k.companion:
        rows = _with_psi(x, rows, h[k.y_rows].real, h[k.y_rows].imag)
    return rows[0], rows[1]


def _hankel_zone(k: KernelTable, w: np.ndarray):
    # |w| > 20 off the real axis: (2/(pi w))^(-1/2) H1_nu(w) = e^(iw) c_nu sum_k
    # i^k a_k(nu) / w^k and H2 with -i (DLMF 10.17.3-4), the recurrence as in
    # _real_zone, the constants in the table.  e^(+-iw) e^(-|Im w|) is e^(+-i Re w)
    # times a real scale, so that no phase carries eps |w|, and (w/2)^(-s)
    # (2/(pi w))^(1/2) is split into modulus and phase, so that no power carries
    # eps log|w|.  Each entry is one row of a stacked matrix product.
    m = len(k.orders)
    powers = np.vander(1.0 / w, _AXIS_SERIES_TERMS)[:, None]
    h = np.matmul(powers, k.hankel.T)[:, 0].T.reshape(2, 2 * m, -1)
    up = w.imag > 0.0
    scale = np.exp(-np.abs(w.imag))
    scale *= scale  # e^(-2 |Im w|), quietly 0 far off the real axis
    turn = np.exp(1j * w.real)
    h[0] *= turn * np.where(up, scale, 1.0)  # H1 over its prefactor, scaled
    h[1] *= turn.conj() * np.where(up, 1.0, scale)  # and H2
    jr = h[0] + h[1]  # 2 J_s, then -2 J_{s+1} before the shift term
    jr[m:] -= k.shift / w * jr[:m]
    radius, angle = np.abs(w), np.angle(w)
    half = 1.0 / (math.sqrt(2.0 * math.pi) * np.sqrt(radius))  # |(2/(pi w))^(1/2)| / 2
    power = (0.5 * radius) ** k.exponent * np.exp(1j * (k.exponent - 0.5) * angle) * half
    rows = jr.reshape(2, m, -1) * power
    if k.companion:  # Y_0, Y_1 from H1_0 - H2_0 and -(H1_1 - H2_1)
        y = (h[0] - h[1])[[k.zero, m + k.zero]] * (1j * np.exp(-0.5j * angle) * half)
        rows = _with_psi(w, rows, (rows[0][k.zero], -rows[1][k.zero]), (-y[0], y[1]))
    # on the imaginary axis values are real and derivatives imaginary: no residue
    axis = w.real == 0.0
    rows[0].imag[..., axis] = 0.0
    rows[1].real[..., axis] = 0.0
    return rows[0], rows[1]


def _general_zone(k: KernelTable, w: np.ndarray):
    power, s = (0.5 * w) ** k.exponent, -k.exponent
    rows = np.array([power * sc.jve(s, w), -power * sc.jve(s + 1.0, w)])
    if k.companion:
        rows = _with_psi(w, rows, (rows[0][k.zero], -rows[1][k.zero]), sc.yve(_Y_ORDERS, w))
    return rows[0], rows[1]


_Y_ORDERS = np.array([[0.0], [1.0]])


def phi_rows(k: KernelTable, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-|Im w|) times the kernel rows and their w-derivatives at every
    entry of an ndarray w, each shaped (m',) + w.shape: phi_s(w) =
    (w/2)^(-s) J_s(w) for every order s of ``k``, then, where 0 is one of
    the orders, psi(w) (m' = m + 1).

    phi_s is entire in w, even, with real coefficients, and
    phi_s'(w) = -(w/2)^(-s) J_{s+1}(w); so is psi.  Each entry is
    evaluated by its zone (callers keep Re w >= 0): the series zone
    (|w| <= 1 with the 14-term ``KernelTable.disk``, the imaginary axis
    up to |w| = 20 with the 40-term ``KernelTable.series``) sums every
    row, psi among them, from one table; the real axis
    (``KernelTable.real_axis``: the trapezoid up to x = 20, Hankel's
    expansion beyond), every other |w| > 20 (``KernelTable.hankel``) and
    the annulus 1 < |w| <= 20 off both axes (``jve`` and ``yve``) take
    psi from their Y_0, Y_1 rows (DLMF 10.8.2).  The tables are summed
    by stacked matrix products, one product per entry, so every entry
    is bit-identical to its one-point call: a plain matrix product would
    sum one point (BLAS gemv) in another order than many (gemm).
    """
    flat = w.ravel()
    rows, n = len(k.orders) + k.companion, flat.size
    radius = np.abs(flat)
    outside = radius > _SERIES_RADIUS
    zones = [(~outside, _series_zone, k.disk)]
    if np.count_nonzero(outside):
        re, im = flat.real, flat.imag
        real = outside & (im == 0.0) & (re > 0.0)
        imag = outside & (re == 0.0)
        far = outside & ~real & (radius > _AXIS_SERIES_RADIUS)
        zones += [
            (real, _real_zone),
            (imag & ~far, _series_zone, k.series, True),
            (far, _hankel_zone),
            (outside & ~(real | imag | far), _general_zone),
        ]
        zones = [zone for zone in zones if np.count_nonzero(zone[0])]
    if len(zones) == 1:  # every entry in one zone: no gather or scatter
        _, zone, *table = zones[0]
        val, der = zone(k, flat, *table)
    else:
        val = np.empty((rows, n), dtype=complex)
        der = np.empty((rows, n), dtype=complex)
        for mask, zone, *table in zones:
            val[:, mask], der[:, mask] = zone(k, flat[mask], *table)
    val = np.ascontiguousarray(val, dtype=complex).reshape((rows,) + w.shape)
    der = np.ascontiguousarray(der, dtype=complex).reshape((rows,) + w.shape)
    return val, der


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


def bessel_jm0_series(mu: complex, x: float) -> complex:
    """exp(-|Im mu x|) times the entire form log(x) J0(mu x) - psi(mu x).

    Agrees with :func:`bessel_jm0` for real mu > 0 (where the scale
    factor is 1) and extends to complex mu as an even function of mu
    (the log mu dependence of the unscaled form cancels identically).
    Both rows come from one :func:`phi_rows` call: phi_0 = J_0 first,
    psi last.
    """
    x = float(x)
    if not x > 0.0:
        raise SpecialFunctionDomainError("bessel_jm0_series: need x > 0")
    mu = complex(mu)
    w = (-mu if mu.real < 0.0 else mu) * x  # even in mu; keep the cut off arg w = pi
    val, _ = phi_rows(_PHI0_TABLE, np.array([w]))
    return complex(math.log(x) * val[0, 0] - val[1, 0])
