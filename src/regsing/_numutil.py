"""Shared numerics: Gauss-Legendre panel quadrature and the numerical error types."""

from __future__ import annotations

import sys
from collections.abc import Callable

import numpy as np


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its contract."""


class QuadratureError(NumericalError):
    pass


# Nodes per panel.  The contour integrands are analytic on their paths,
# so an n-point panel converges like rho^(-2n) with rho set by the
# distance to the nearest zero of F (Trefethen & Weideman, SIAM Rev. 56,
# 2014); panels near such a zero are halved until they converge too.
# The rule is symmetric; its positive half is scipy's roots_legendre(16)
# (scipy 1.17) to the last bit, written out so that importing regsing
# loads no scipy module.
_GL_HALF_NODES = np.array([
    0.09501250983763745, 0.2816035507792589, 0.4580167776572274, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_HALF_WEIGHTS = np.array([
    0.1894506104550681, 0.18260341504492328, 0.16915651939500212, 0.14959598881657638,
    0.12462897125553363, 0.09515851168249231, 0.06225352393864763, 0.027152459411756466,
])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
# A panel is accepted when it agrees with the sum of its two halves to
# this fraction of the integral of |f| over the whole path: a few
# hundred times the rounding floor of the summed magnitudes, so that
# rounding alone never keeps a panel from converging.
_GL_RTOL = 1e-13
# Nodes one integral may use.  A path whose panels keep halving (an
# integrand that cancels below _GL_RTOL, as dlog F - 2 k0/mu does at
# small R) doubles its nodes every round; the largest converging path
# met so far takes about 1.2e5.
_GL_MAX_NODES = 1 << 18
# The error estimate adds this share of the integral of |f| for the rounding of
# the integrand values, unseen by the panel differences
_GL_ROUNDING = 32.0 * sys.float_info.epsilon


def _round_nodes(lo: np.ndarray, hi: np.ndarray, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths (a column) and nodes (one row per sub-panel) of one round:
    both halves of every panel and, in the first round, the panels themselves."""
    mid = 0.5 * (lo + hi)
    a = np.concatenate([lo, mid] + [lo] * first)
    b = np.concatenate([mid, hi] + [hi] * first)
    half = 0.5 * (b - a)[:, None]
    return half, half * _GL_NODES + 0.5 * (a + b)[:, None]


def first_nodes(edges) -> np.ndarray:
    """The nodes of the first round of :func:`gauss_legendre` over ``edges``,
    flat and in the order in which it takes their values."""
    edges = np.asarray(edges, dtype=float)
    return _round_nodes(edges[:-1], edges[1:], True)[1].ravel()


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], edges, first=None, counts=None
) -> tuple[complex | float, float]:
    """Integral of f over [edges[0], edges[-1]] by adaptive Gauss-Legendre panels.

    ``f`` maps a 1-d array of nodes to the real or complex integrand
    values there.  The panels start as the intervals between consecutive
    ``edges``.  Each round takes the values on the nodes of both halves
    of every unconverged panel (and, in the first round, of the panels
    themselves) from one call of ``f``; a caller that has the first
    round's values already, at :func:`first_nodes`, passes them as
    ``first`` and ``f`` is called from the second round on.  A panel
    whose estimate agrees with the sum of its halves to ``_GL_RTOL``
    times the integral of |f| is accepted with the halves' sum, the
    others are replaced by their halves.  Every round's nodes, the first
    round's included, are added to ``counts["nodes"]`` when ``counts``
    is given.  Returns the integral and its error estimate, the summed
    |panel - halves| differences of the accepted panels plus
    ``_GL_ROUNDING`` times the integral of |f|; raises :class:`QuadratureError`
    when the integrand is not finite or when converging would take more
    than ``_GL_MAX_NODES`` nodes.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    whole = None
    total, error, abs_done = 0.0, 0.0, 0.0
    used = 0
    while True:
        half, nodes = _round_nodes(lo, hi, whole is None)
        used += nodes.size
        if used > _GL_MAX_NODES:
            raise QuadratureError(
                f"Gauss-Legendre panels did not converge within {_GL_MAX_NODES} nodes"
            )
        if counts is not None:
            counts["nodes"] += nodes.size
        if whole is None and first is not None:
            vals = np.asarray(first).reshape(nodes.shape)
        else:
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
            return total.item(), float(error + _GL_ROUNDING * abs_done)
        keep = ~ok
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([left[keep], right[keep]])

