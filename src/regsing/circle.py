"""The Taylor circle of F at mu = 0.

F is entire in lambda = mu^2.  The trapezoidal rule on m points lambda_j =
rho e^(2 pi i j/m), mu_j = radius e^(i pi j/m) on a half circle in mu, gives its
Taylor coefficients times rho^n, c_n (Trefethen & Weideman, SIAM Rev. 56, 2014).
From them come the kernel order k0, F~(0) of F~ = F / mu^(2 k0), Rouche's
certificate of the disks free of zeros of F~, and by Newton's identities the
power sums of its zeros: zeta at the integers and the zeta contour's arc series.
"""

from __future__ import annotations

import math
import sys
from functools import cache, cached_property

import numpy as np

from ._numutil import NumericalError

_CIRCLE_POINTS = 16  # m of an operator's circle
_CIRCLE_RHO = 0.8  # rho R^2: every point lies inside the series disk |mu R| <= 1
_CIRCLE_FLOOR = 64.0 * sys.float_info.epsilon  # c_n below this share of max |F_j| is rounding
# mu = 0, then the circle's mu_j over |mu_j|: the probes of the kernel order
_PROBES = np.concatenate(([0.0], np.exp(1j * math.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS)))
# the arc series is summed at a t whose disk of radius 4 t the circle certifies, so each
# zero of F~ has |t^2 / lambda_k| <= 1/16: the 16 of its truncation bound is this squared
_ARC_CLEARANCE = 4.0


class KernelOrderError(NumericalError):
    pass


class RootInsideContourError(NumericalError):
    pass


@cache
def _dft(m: int) -> np.ndarray:
    """The trapezoidal rule as one matrix, c_n = sum_j F_j e^(-2 pi i jn/m) / m, m a
    multiple of 4, read-only: the roots of unity from the cosines of a quarter turn,
    exactly 0 at its end, and turns by -i, which are exact, so that the sums are as
    accurate as an FFT's (with the rounded e^(-2 pi i k/m), zeta(1) of a four-channel
    edge operator lost 1.8e-14 of itself)."""
    c = np.cos(2.0 * math.pi / m * np.arange(m // 4 + 1))
    c[-1] = 0.0
    roots = np.concatenate([(c[:-1] - 1j * c[:0:-1]) * (-1j) ** t for t in range(4)])
    n = np.arange(m)
    dft = roots[np.outer(n, n) % m] / m
    dft.setflags(write=False)
    return dft


def circle_radius(r: float) -> float:
    """|mu_j| on the circle of an operator on (0, R]."""
    return math.sqrt(_CIRCLE_RHO) / r


def probes(r: float) -> np.ndarray:
    """The probes of the kernel order of an operator on (0, R]: 0, then the circle's mu_j."""
    return circle_radius(r) * _PROBES


class TaylorCircle:
    """The circle of an operator on (0, R] from ``values``, F at its m points; ``q`` bounds k0."""

    def __init__(self, values: np.ndarray, r: float, q: int):
        self.values, self.m, self.r, self.q = values, values.size, r, q
        self.radius = circle_radius(r)

    @cached_property
    def _taylor(self) -> tuple[np.ndarray, float]:
        """The c_n over the largest |F_j|, and that largest |F_j|: one product of the DFT
        matrix with the F_j over it, so that no sum leaves the float range."""
        f = self.values
        big = float(np.max(np.abs(f))) or 1.0  # F = 0 on the whole circle: every c_n is 0
        return _dft(self.m) @ (f / big), big

    @cached_property
    def k0(self) -> int:
        """Order of the zero of F at mu = 0 in lambda = mu^2: the first c_n above the
        rounding floor; :class:`KernelOrderError` where none is or the order exceeds q."""
        above = np.flatnonzero(np.abs(self._taylor[0]) > _CIRCLE_FLOOR)
        if above.size == 0:
            raise KernelOrderError("F is at its rounding floor on the whole Taylor circle")
        if above[0] > self.q:
            raise KernelOrderError(f"zero of order {above[0]} at mu = 0 exceeds q = {self.q}")
        return int(above[0])

    def over_rho(self, value, n: int):
        """A Python float or complex over rho^n, rho = radius^2, one factor R / sqrt(rho R^2)
        at a time: R^2 alone leaves the float range at extreme R, and a product that does
        is inf, not an OverflowError or a numpy warning."""
        scale = self.r / math.sqrt(_CIRCLE_RHO)
        for _ in range(2 * n):
            value *= scale
        return value

    @property
    def f_tilde0(self) -> complex:
        """F~(0) of F~ = F / mu^(2 k0), the Taylor coefficient of lambda^k0: c_k0 / rho^k0."""
        c, big = self._taylor
        return self.over_rho(complex(c[self.k0]) * big, self.k0)

    @property
    def floor_margin(self) -> float:
        """|c_k0| over the rounding floor: how far the kernel decision is from the floor."""
        return float(abs(self._taylor[0][self.k0]) / _CIRCLE_FLOOR)

    def zero_free_margin(self, t: float) -> float:
        """Rouche's margin for F~ = F / mu^(2 k0) on |mu| < t: |c_k0| over the floor plus
        sum_{n > k0} |c_n| z^(n - k0), z = (t / radius)^2, or 0 where z >= 1.  Above 1 the
        term of c_k0 outweighs all others together on |mu| = t, so F has no zero inside but
        its k0 at the origin."""
        z = min(t / self.radius, 1.0) ** 2  # no OverflowError at a huge t
        if not z < 1.0:
            return 0.0
        c = self._taylor[0]
        rest = np.abs(c[self.k0 + 1 :]) @ z ** np.arange(1, c.size - self.k0)
        return float(abs(c[self.k0]) / (_CIRCLE_FLOOR + rest))

    def certify(self, t: float, margin: float | None = None, raises: bool = True) -> bool:
        """Whether :meth:`zero_free_margin` at t (``margin`` where the caller has it) is above 1,
        certifying F~ free of zeros on |mu| < t; if not, RootInsideContourError if ``raises``."""
        margin = self.zero_free_margin(t) if margin is None else margin
        if margin > 1.0 or not raises:
            return margin > 1.0
        raise RootInsideContourError(
            f"F may have a zero below |mu| = {t}: the Taylor circle certifies no such "
            f"disk (margin {margin:.3g})"
        )

    @cached_property
    def power_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """p_n = sum_k (rho / lambda_k)^n over the zeros lambda_k of F~ in lambda = mu^2
        (zeta(n) = p_n / rho^n), n < m - k0, and their rounding bounds, by Newton's identities
        n b_n + sum_{i=1}^{n} b_{n-i} p_i = 0 on b_j = c_{k0+j} / c_k0, b_0 = 1: forward
        substitution in the lower-triangular Toeplitz system.  The top three c_n of the
        entire F are rounding: m times the largest bounds every c_n's, db_j, and dp_n =
        n db_n + sum_{i<n} (db_{n-i} |p_i| + |b_{n-i}| dp_i).  At 15 unknowns plain floats
        are faster than a numpy solve, whose call overhead is the larger."""
        c = self._taylor[0] / self._taylor[0][self.k0]
        noise, b = self.m * float(np.max(np.abs(c[-3:]))), c[self.k0 :].real.tolist()
        db, ab = [noise * (1.0 + abs(v)) for v in b], [abs(v) for v in b]
        p, dp, ap = [0.0] * len(b), [0.0] * len(b), [0.0] * len(b)
        for n in range(1, len(b)):
            value = bound = 0.0
            for i in range(1, n):
                value += b[n - i] * p[i]
                bound += db[n - i] * ap[i] + ab[n - i] * dp[i]
            p[n] = -n * b[n] - value
            ap[n], dp[n] = abs(p[n]), n * db[n] + bound
        return np.array(p[1:]), np.array(dp[1:])

    @property
    def zeta_1(self) -> float:
        """zeta(1) = p_1 / rho = -b_1 / rho, the first of :attr:`power_sums` alone: one division."""
        c = self._taylor[0]
        return self.over_rho(-float((c[self.k0 + 1] / c[self.k0]).real), 1)

    def zeta(self, n: int) -> tuple[float, float]:
        """zeta(n) = p_n / rho^n at an integer n >= 1, and its error dp_n / rho^n plus 1e-12 of it."""
        p, dp = self.power_sums
        if n > p.size:
            raise NumericalError(f"zeta({n}) needs p_{n}, past the circle's {p.size} power sums")
        value = self.over_rho(float(p[n - 1]), n)
        if not math.isfinite(value):
            raise NumericalError(f"zeta({n}) = {value} is beyond the float range")
        return value, self.over_rho(float(dp[n - 1]), n) + 1e-12 * abs(value)

    def arc_radius(self, t: float) -> float:
        """t, whose disk is certified, halved until the disk below 4 t is too (at most twice)."""
        while not self.certify(_ARC_CLEARANCE * t, raises=False):
            t *= 0.5
        return t

    def arc(self, s: float, t: float) -> tuple[float, float, float]:
        """At a non-integer s and a t of :meth:`arc_radius`: sum_n p_n w_n, w_n = (-1)^(n+1)
        z^n t^(-2s) / (n - s), z = (t / radius)^2, its rounding bound sum_n dp_n |w_n|, and
        that of the terms n past the power sums, each below |p_2| z^2 16^(2-n) t^(-2s)."""
        p, dp = self.power_sums
        n = np.arange(1, p.size + 1)
        z, t2s = (t / self.radius) ** 2, t ** (-2.0 * s)
        w = (-1.0) ** (n + 1) * z**n * t2s / (n - s)
        ratio = _ARC_CLEARANCE**2
        cut = (abs(p[1]) + dp[1]) * z**2 * ratio ** (2 - p.size) / (ratio - 1.0) * t2s
        return p @ w, dp @ abs(w), cut
