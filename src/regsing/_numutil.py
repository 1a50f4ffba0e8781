"""Shared numerics: Gauss-Legendre panel quadrature, extrapolation."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.special import roots_legendre


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its contract."""


class QuadratureError(NumericalError):
    pass


# Nodes per panel.  The contour integrands are analytic on their paths,
# so an n-point panel converges like rho^(-2n) with rho set by the
# distance to the nearest zero of F (Trefethen & Weideman, SIAM Rev. 56,
# 2014); panels near such a zero are halved until they converge too.
_GL_NODES, _GL_WEIGHTS = roots_legendre(16)
# A panel is accepted when it agrees with the sum of its two halves to
# this fraction of the integral of |f| over the whole path: a few
# hundred times the rounding floor of the summed magnitudes, so that
# rounding alone never keeps a panel from converging.
_GL_RTOL = 1e-13
_GL_MAX_ROUNDS = 40


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], edges
) -> tuple[complex | float, float]:
    """Integral of f over [edges[0], edges[-1]] by adaptive Gauss-Legendre panels.

    ``f`` maps a 1-d array of nodes to the real or complex integrand
    values there.  The panels start as the intervals between consecutive
    ``edges``.  Each round calls ``f`` once, on the nodes of both halves
    of every unconverged panel (and, in the first round, of the panels
    themselves); a panel whose estimate agrees with the sum of its
    halves to ``_GL_RTOL`` times the integral of |f| is accepted with the
    halves' sum, the others are replaced by their halves.  Returns the
    integral and the summed |panel - halves| differences of the accepted
    panels; raises :class:`QuadratureError` when the integrand is not
    finite or the panels do not converge.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    whole = None
    total, error, abs_done = 0.0, 0.0, 0.0
    for _ in range(_GL_MAX_ROUNDS):
        mid = 0.5 * (lo + hi)
        a = np.concatenate([lo, mid] if whole is not None else [lo, mid, lo])
        b = np.concatenate([mid, hi] if whole is not None else [mid, hi, hi])
        half = 0.5 * (b - a)[:, None]
        nodes = half * _GL_NODES + 0.5 * (a + b)[:, None]
        vals = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is not finite on the integration path")
        est = (half * vals) @ _GL_WEIGHTS
        mags = np.abs(half * vals) @ _GL_WEIGHTS
        p = len(lo)
        left, right = est[:p], est[p : 2 * p]
        if whole is None:
            whole = est[2 * p :]
        finer = left + right
        diff = np.abs(whole - finer)
        ok = diff <= _GL_RTOL * (abs_done + mags[: 2 * p].sum())
        total += finer[ok].sum()
        error += diff[ok].sum()
        abs_done += mags[:p][ok].sum() + mags[p : 2 * p][ok].sum()
        if ok.all():
            return total.item(), float(error)
        keep = ~ok
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([left[keep], right[keep]])
    raise QuadratureError(
        f"Gauss-Legendre panels did not converge in {_GL_MAX_ROUNDS} halvings"
    )


def neville_at_zero(hs: list[float], vs: list[float]) -> tuple[float, float]:
    """Polynomial extrapolation of (h_i, v_i) to h = 0.

    Returns the full-order value and the previous-order value so the
    caller can check convergence between the last two levels.
    """
    n = len(hs)
    tab = [list(vs)]
    for j in range(1, n):
        row = []
        for i in range(n - j):
            num = hs[i] * tab[j - 1][i + 1] - hs[i + j] * tab[j - 1][i]
            row.append(num / (hs[i] - hs[i + j]))
        tab.append(row)
    return tab[-1][0], tab[-2][0]
