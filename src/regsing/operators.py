"""Operator instances, boundary data, and the boundary polynomial.

An operator instance is ``-d^2/dx^2 + A/x^2`` on ``(0, R]`` with a
symmetric tangential matrix ``A`` whose spectrum lies in ``[-1/4, 3/4)``
(the limit-circle window at the tip, nu = sqrt(lambda + 1/4) < 1).  The
tip condition is a pair of q x q matrices ``(a_mat, b_mat)`` acting on
the 2q leading asymptotic coefficients; the regular end ``x = R``
carries either a Dirichlet or a Robin condition ``f'(R) + alpha f(R) = 0``.

The boundary polynomial ``p(x, y) = det(a_mat - b_mat D(x, y))`` with
``D = diag(x, ..., x, tau_l y^(2 nu_l), ...)`` encodes the large-|mu|
behaviour of the secular determinant along the imaginary axis; its
extremal exponents and leading coefficient are extracted by
:func:`characteristic_values`.

The y-exponent bookkeeping stores alpha = (y-exponent)/2, i.e. subset
sums of the nu_l themselves, so that the secular asymptotics carries
``x**(-2*alpha0)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .special import gamma_fn

LAMBDA_MIN = -0.25
LAMBDA_SUP = 0.75

_RANK_RTOL = 1e-10
_HERM_TOL = 1e-10
_EXPONENT_MERGE_TOL = 1e-9
_COEFF_DROP_TOL = 1e-13


class OperatorSpecError(ValueError):
    """Malformed operator description."""


@dataclass(frozen=True)
class Dirichlet:
    """Dirichlet condition f(R) = 0 at the regular end."""

    kind: str = field(default="dirichlet", init=False)


@dataclass(frozen=True)
class Robin:
    """Robin condition f'(R) + alpha f(R) = 0 at the regular end."""

    alpha: float
    kind: str = field(default="robin", init=False)


RegularBC = Dirichlet | Robin


@dataclass(frozen=True)
class BoundaryMatrices:
    """The tip-condition pair; stored as immutable complex arrays."""

    a_mat: np.ndarray
    b_mat: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_mat, dtype=complex))
        b = np.atleast_2d(np.asarray(self.b_mat, dtype=complex))
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise OperatorSpecError(
                f"boundary matrices must be square and equally sized, got {a.shape} / {b.shape}"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "b_mat", b)

    @property
    def q(self) -> int:
        return self.a_mat.shape[0]


@dataclass(frozen=True)
class OperatorSpec:
    """One regular-singular operator with both boundary conditions.

    ``lambdas`` is sorted ascending with multiplicities written out; the
    first ``q0`` entries must be exactly -1/4.  ``kappa`` is always
    recomputed from ``(r, alpha)``.
    """

    r: float
    lambdas: tuple[float, ...]
    q0: int
    boundary: BoundaryMatrices
    regular_bc: RegularBC

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise OperatorSpecError(f"interval length must be positive, got {self.r!r}")
        lams = tuple(float(l) for l in self.lambdas)
        if list(lams) != sorted(lams):
            raise OperatorSpecError("lambdas must be sorted ascending")
        for l in lams:
            if not (LAMBDA_MIN <= l < LAMBDA_SUP):
                raise OperatorSpecError(
                    f"tangential eigenvalue {l} outside the limit-circle window "
                    f"[{LAMBDA_MIN}, {LAMBDA_SUP})"
                )
        n_min = sum(1 for l in lams if l == LAMBDA_MIN)
        if self.q0 != n_min:
            raise OperatorSpecError(
                f"q0={self.q0} must equal the count of eigenvalues at -1/4 (found {n_min})"
            )
        if self.boundary.q != len(lams):
            raise OperatorSpecError(
                f"boundary matrices are {self.boundary.q}x{self.boundary.q} "
                f"but {len(lams)} tangential eigenvalues were given"
            )
        object.__setattr__(self, "lambdas", lams)

    @property
    def q(self) -> int:
        return len(self.lambdas)

    @property
    def nus(self) -> tuple[float, ...]:
        return tuple(math.sqrt(l + 0.25) for l in self.lambdas)

    @property
    def kappa(self) -> float:
        if isinstance(self.regular_bc, Dirichlet):
            raise OperatorSpecError("kappa is defined for Robin conditions only")
        return 1.0 / (2.0 * math.sqrt(self.r)) + self.regular_bc.alpha * math.sqrt(self.r)


@dataclass(frozen=True)
class Violation:
    name: str
    detail: str


def diagonal_tip(boundary: BoundaryMatrices) -> bool:
    """Whether the tip rows (a|b) are diagonal: every entry off the diagonals of a and
    b is 0, so the operator is q scalar channels."""
    a, b = boundary.a_mat, boundary.b_mat
    on_diagonal = np.count_nonzero(a.diagonal()) + np.count_nonzero(b.diagonal())
    return np.count_nonzero(a) + np.count_nonzero(b) == on_diagonal


def validate(spec: OperatorSpec, diagonal: bool | None = None) -> list[Violation]:
    """Check the tip-condition invariants; empty list means ok.

    A non-finite entry of a or b is the one violation ``finite``, before any arithmetic.
    Rank of the q x 2q block (a|b) is tested against a singular-value
    threshold, self-adjointness of a' b* (a' = a with the first q0
    columns negated) against the max-entry deviation from Hermiticity.
    ``diagonal`` is :func:`diagonal_tip` of the spec, worked out here when
    not given.  On a diagonal tip the rows of (a|b) are orthogonal, so its
    singular values are the row norms hypot(|a_ll|, |b_ll|), and a' b* is
    the diagonal a'_ll conj(b_ll): no LAPACK call.  A coupled tip takes
    the singular values from an SVD.
    """
    a, b = spec.boundary.a_mat, spec.boundary.b_mat
    if not all(map(cmath.isfinite, a.ravel().tolist() + b.ravel().tolist())):
        return [Violation("finite", "(a|b) block has an entry that is not finite")]
    if diagonal is None:
        diagonal = diagonal_tip(spec.boundary)
    out: list[Violation] = []
    if diagonal:
        a, b = a.diagonal(), b.diagonal()
        norms = np.hypot(np.abs(a), np.abs(b))
        top, low = float(norms.max()), float(norms.min())
    else:
        top, low = np.linalg.svd(np.concatenate((a, b), axis=1), compute_uv=False)[[0, -1]].tolist()
    if not low > _RANK_RTOL * top:  # a zero block fails too
        out.append(
            Violation(
                "rank",
                f"(a|b) block has numerical rank < q={spec.q} "
                f"(smallest/largest singular value = {low:.3e}/{top:.3e})",
            )
        )
    if spec.q0:  # a' = a with the first q0 columns negated
        a = a.copy()
        a[..., : spec.q0] *= -1.0
    m = a * b.conj() if diagonal else a @ b.conj().T
    scale = max(1.0, np.abs(m).max())
    dev = np.abs(m - m.conj().T).max()
    if dev > _HERM_TOL * scale:
        out.append(
            Violation(
                "self-adjointness",
                f"a' b* deviates from Hermitian by {dev:.3e} (max entry)",
            )
        )
    return out


@dataclass(frozen=True)
class CharacteristicValues:
    """Nonzero monomials of p(x, y) and the extremal triple.

    ``coefficients`` maps (j, alpha) to the complex coefficient of
    x^j y^(2 alpha); ``alpha0`` is the smallest alpha present, ``j0``
    the smallest j at alpha0, ``a0`` the corresponding coefficient.
    """

    coefficients: tuple[tuple[int, float, complex], ...]
    alpha0: float
    j0: int
    a0: complex


def tau_factor(nu: float) -> float:
    """tau = Gamma(1+nu)/Gamma(1-nu) * 2^(2 nu), the branch-ratio constant."""
    return gamma_fn(1.0 + nu) / gamma_fn(1.0 - nu) * 2.0 ** (2.0 * nu)


@dataclass(frozen=True)
class Channels:
    """What every step that prepares one request reads of its operator's channels,
    worked out once by :func:`channels`: the orders ``nus``, whether the tip is
    :func:`diagonal_tip`, and ``gamma``, Gamma(1 + s) at each kernel order s, one
    evaluation per distinct order: nu_l for every channel, then -nu_l for l >= q0,
    keyed and listed in that order."""

    nus: tuple[float, ...]
    diagonal: bool
    gamma: dict[float, float]


def channels(spec: OperatorSpec, diagonal: bool) -> Channels:
    """The :class:`Channels` of spec, whose tip is diagonal or not as ``diagonal`` says."""
    nus = spec.nus
    orders = dict.fromkeys([*nus, *(-nu for nu in nus[spec.q0 :])])
    return Channels(nus, diagonal, {s: gamma_fn(1.0 + s) for s in orders})


@cache
def _subsets(q: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """The 2^q subsets S of the q columns, by size and then lexicographically: a
    (2^q, q) mask of the columns in S, (-1)^|S|, and, for n = 0 .. q, how many of
    the first n columns each S holds.  Read-only: every call with q shares them."""
    subsets = [sub for size in range(q + 1) for sub in combinations(range(q), size)]
    picks = np.array([[l in sub for l in range(q)] for sub in subsets])
    counts = np.zeros((q + 1, len(subsets)), dtype=int)
    np.cumsum(picks.T, axis=0, out=counts[1:])
    sign = (-1.0) ** counts[-1]
    picks.setflags(write=False)
    sign.setflags(write=False)
    return picks, sign, tuple(map(tuple, counts.tolist()))


def characteristic_values(spec: OperatorSpec, ch: Channels | None = None) -> CharacteristicValues:
    """Expand p(x, y) = det(a - b D(x, y)) into monomials x^j y^(2 alpha).

    Column-multilinear expansion over the 2^q subsets S of columns that
    take the -b D contribution; a subset contributes the monomial
    x^(#(S <= q0)) * prod_{l in S, l > q0} tau_l y^(2 nu_l) weighted by
    the determinant of the mixed column matrix.  On a diagonal tip that
    determinant is the product of the chosen diagonal entries, b_ll for l
    in S and a_ll elsewhere, with no LAPACK call; on a coupled tip one
    stacked determinant gives every weight.  ``ch`` is the request's
    :class:`Channels` (worked out here when not given), whose Gamma table
    gives each tau_l.  The weights take their tau_l in column order, one
    masked product per column, and the exponents of all subsets are array
    sums over the columns.
    Cells (j, alpha) whose exponents lie within 1e-9 of each other are
    merged (subset sums of irrational nu_l can collide): one sort by
    (j, alpha) puts the subsets of a cell side by side, and a cell keeps
    the alpha of its first.
    """
    if ch is None:
        ch = channels(spec, diagonal_tip(spec.boundary))
    a, b = spec.boundary.a_mat, spec.boundary.b_mat
    q0, nus, gamma = spec.q0, ch.nus, ch.gamma
    picks, sign, counts = _subsets(spec.q)
    # column l from b when l is in S: the weight of S is the determinant of that matrix
    if ch.diagonal:
        weight = np.where(picks, b.diagonal(), a.diagonal()).prod(axis=1)
    else:
        weight = np.linalg.det(np.where(picks[:, None, :], b, a))
    coeff = weight * sign
    for l in range(q0, spec.q):  # times tau_l where l is in S
        tau = gamma[nus[l]] / gamma[-nus[l]] * 2.0 ** (2.0 * nus[l])
        np.multiply(coeff, tau, out=coeff, where=picks[:, l])
    alpha = np.cumsum(picks * np.array(nus), axis=1)[:, -1].tolist()  # nu_l = 0 for l < q0
    j = counts[q0]

    # each subset's cell, named by its smallest alpha, from runs of the sorted (j, alpha)
    cell, start = [None] * len(j), None
    for j_, a_, i in sorted(zip(j, alpha, range(len(j)))):
        if start is None or j_ != start[0] or a_ - start[1] > _EXPONENT_MERGE_TOL:
            start = (j_, a_)
        cell[i] = start
    merged: dict[tuple, list] = {}  # in subset order: a cell keeps the alpha of its first
    for c, j_, a_, v in zip(cell, j, alpha, coeff.tolist()):
        if c in merged:
            merged[c][2] += v
        else:
            merged[c] = [j_, a_, v]

    scale = max(abs(c) for _, _, c in merged.values())
    cut = _COEFF_DROP_TOL * max(scale, 1.0)
    kept = [(j_, a_, c) for j_, a_, c in merged.values() if abs(c) > cut]
    if not kept:
        raise OperatorSpecError(
            "boundary polynomial vanishes identically (degenerate tip condition)"
        )
    kept.sort(key=lambda item: (item[1], item[0]))
    alpha0 = kept[0][1]
    j0, _, a0 = min((item for item in kept if item[1] - alpha0 <= _EXPONENT_MERGE_TOL),
                    key=lambda item: item[0])
    return CharacteristicValues(coefficients=tuple(kept), alpha0=alpha0, j0=j0, a0=a0)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def scalar_spec(
    nu: float,
    regular_bc: RegularBC,
    tip: str = "regular",
    r: float = 1.0,
) -> OperatorSpec:
    """A q=1 instance for -d2/dx2 + (nu^2 - 1/4)/x^2 with 0 <= nu < 1.

    ``tip="regular"`` pins the singular branch coefficient (rows (0, 1),
    keeping the x^(nu+1/2)-type solution); ``tip="singular"`` pins the
    regular branch (rows (1, 0)).

    The stored datum is lambda = nu^2 - 1/4, so nu itself round-trips
    only to ~sqrt(eps)/nu absolute accuracy; below nu ~ 1e-6 the
    lambda representation cannot distinguish the order from zero.
    """
    if not (0.0 <= nu < 1.0):
        raise OperatorSpecError("scalar_spec needs 0 <= nu < 1 for the matrix core")
    lam = nu * nu - 0.25
    if tip == "regular":
        a_mat, b_mat = [[0.0]], [[1.0]]
    elif tip == "singular":
        a_mat, b_mat = [[1.0]], [[0.0]]
    else:
        raise OperatorSpecError(f"unknown tip branch selector {tip!r}")
    q0 = 1 if lam == LAMBDA_MIN else 0
    return OperatorSpec(
        r=float(r),
        lambdas=(lam,),
        q0=q0,
        boundary=BoundaryMatrices(np.array(a_mat), np.array(b_mat)),
        regular_bc=regular_bc,
    )


def diagonal_spec(
    scalars: list[OperatorSpec],
) -> OperatorSpec:
    """Stack q=1 instances with a shared regular end into one diagonal instance."""
    if not scalars:
        raise OperatorSpecError("need at least one scalar instance")
    r = scalars[0].r
    bc = scalars[0].regular_bc
    for s in scalars:
        if s.r != r or s.regular_bc != bc:
            raise OperatorSpecError("scalar instances must share R and the regular-end condition")
    order = sorted(range(len(scalars)), key=lambda i: scalars[i].lambdas[0])
    lams = tuple(scalars[i].lambdas[0] for i in order)
    q = len(lams)
    a = np.zeros((q, q), dtype=complex)
    b = np.zeros((q, q), dtype=complex)
    for slot, i in enumerate(order):
        a[slot, slot] = scalars[i].boundary.a_mat[0, 0]
        b[slot, slot] = scalars[i].boundary.b_mat[0, 0]
    q0 = sum(1 for l in lams if l == LAMBDA_MIN)
    return OperatorSpec(
        r=r, lambdas=lams, q0=q0, boundary=BoundaryMatrices(a, b), regular_bc=bc
    )
