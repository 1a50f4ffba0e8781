"""de Rham Laplacian with relative boundary conditions on a bounded cone.

The cone is (0, 1] x N with metric dx^2 + x^2 g_N over a closed
n-manifold N, m = n + 1.  The degree-k Laplacian splits off a finite
regular-singular block (present only for |k - m/2| < 2); its
determinant is assembled from the coclosed spectra of N.

Inputs are explicit finite lists: for each degree j the coclosed
eigenvalues of the cross-section Laplacian with multiplicities,
complete below lambda = 4.  Supplying any entry >= 4 certifies that the
scan went far enough; such entries sit outside every contribution
window and never enter a product.

Contribution windows (strict inequalities; nu always >= 0):

    A_k  = { nu = sqrt(lam + (k+1-m/2)^2) : 0 <= lam < 1 - (k+1-m/2)^2 }   from degree k
    A~_k = same with 0 < lam                                               from degree k
    B_k  = { nu = sqrt(lam + (k-m/2)^2)   : 0 < lam < 4 - (k-m/2)^2 }      from degree k-1

and the determinant in degree k is

    k in (m/2-2, m/2):   prod_{A_k} S(nu) * prod_{B_k} P5(nu, k)
    k in (m/2, m/2+2):   prod_{A~_{k-2}} S(nu) (nu + m/2 + 1 - k) * prod_{B_k} P5(nu, k) * P_k
    k = m/2 (m even):    prod_{B_k} P5(nu, k)

with S(nu) = sqrt(2 pi) / (2^nu Gamma(1+nu)), the paired factor
P5(nu, k) = 2 pi (nu - k + m/2) / (2^(2 nu) Gamma(1+nu)^2), and P_k the
harmonic (k-1)-form factor (pi/2)^(d/2), 2^d or (2/3)^d depending on
parity and degree, d = dim H^(k-1)(N).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from ._numutil import NumericalError
from .determinant import det_wronskian_scalar
from .operators import Dirichlet, Robin
from .special import gamma_fn

_WINDOW_EDGE_TOL = 1e-12


class ConeSpecError(ValueError):
    pass


class IncompleteSpectrumError(NumericalError):
    """A consulted cross-section degree was not supplied up to lambda = 4."""


@dataclass(frozen=True)
class ConeSpec:
    """Cross-section spectral data of N; r is pinned to 1 for assembly."""

    m: int
    ccl_spectra: dict[int, tuple[tuple[float, int], ...]]
    harmonic_dims: dict[int, int]
    r: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise ConeSpecError("need dim M = m >= 2")
        if self.r != 1.0:
            raise ConeSpecError(
                "determinant assembly is established for R = 1 only; rescale the cone"
            )
        n = self.m - 1
        spectra: dict[int, tuple[tuple[float, int], ...]] = {}
        for j, entries in self.ccl_spectra.items():
            j = int(j)
            if not (0 <= j <= n):
                raise ConeSpecError(f"cross-section degree {j} outside 0..{n}")
            norm = tuple((float(lam), int(mult)) for lam, mult in entries)
            for lam, mult in norm:
                if lam < 0.0 or mult < 1:
                    raise ConeSpecError(f"bad spectral entry ({lam}, {mult}) in degree {j}")
            if [e[0] for e in norm] != sorted(e[0] for e in norm):
                raise ConeSpecError(f"degree {j} spectrum must be sorted ascending")
            spectra[j] = norm
        dims = {int(j): int(d) for j, d in self.harmonic_dims.items()}
        for j, d in dims.items():
            if d < 0:
                raise ConeSpecError("harmonic dimensions must be >= 0")
            zero_mult = sum(mult for lam, mult in spectra.get(j, ()) if lam == 0.0)
            if zero_mult != d:
                raise ConeSpecError(
                    f"degree {j}: multiplicity of lambda=0 is {zero_mult}, "
                    f"but dim H^{j} = {d}"
                )
        object.__setattr__(self, "ccl_spectra", spectra)
        object.__setattr__(self, "harmonic_dims", dims)

    @property
    def n(self) -> int:
        return self.m - 1

    def degree_entries(self, j: int) -> tuple[tuple[float, int], ...]:
        if j < 0 or j > self.n:
            return ()
        return self.ccl_spectra.get(j, ())

    def harmonic_dim(self, j: int) -> int:
        if j < 0 or j > self.n:
            return 0
        return self.harmonic_dims.get(j, 0)


@dataclass(frozen=True)
class ComponentFactor:
    """One itemized factor with its origin."""

    source: str  # harmonic-k | harmonic-km1 | coclosed | exact | paired
    nu: float | None
    multiplicity: int
    value: float


@dataclass(frozen=True)
class DegreeContribution:
    k: int
    window_active: bool
    a_set: tuple[tuple[float, int], ...]
    a_tilde_km2: tuple[tuple[float, int], ...]
    b_set: tuple[tuple[float, int], ...]
    p_factor: float
    warnings: tuple[str, ...] = ()
    factors: tuple[ComponentFactor, ...] = ()  # of the determinant, see component_report


def _require_complete(cone: ConeSpec, j: int, bound: float, k: int) -> None:
    """A consulted degree must have been scanned past lambda = 4."""
    if bound <= 0.0 or j < 0 or j > cone.n:
        return
    entries = cone.degree_entries(j)
    top = max((lam for lam, _ in entries), default=-1.0)
    if top < 4.0:
        raise IncompleteSpectrumError(
            f"degree-{k} assembly consults Spec(degree {j}) up to lambda < 4, but the "
            f"largest supplied eigenvalue is {top}; pad with any entry >= 4 to certify "
            "completeness"
        )


def _filter_window(
    entries: tuple[tuple[float, int], ...],
    shift_sq: float,
    upper: float,
    include_zero: bool,
    notes: list[str],
) -> tuple[tuple[float, int], ...]:
    out = []
    for lam, mult in entries:
        if lam == 0.0 and not include_zero:
            continue
        if abs(lam - upper) <= _WINDOW_EDGE_TOL * max(1.0, upper):
            notes.append(
                f"eigenvalue {lam} sits on the window boundary {upper}; excluded "
                "(strict inequality; the boundary case is limit-point)"
            )
            continue
        if lam < upper:
            out.append((math.sqrt(lam + shift_sq), mult))
    return tuple(out)


def _p_base(cone: ConeSpec, k: int) -> float:
    """Per-harmonic-form factor of the degree-(k-1) cohomology block."""
    m, n = cone.m, cone.n
    if m % 2 == 0 and k == m // 2 + 1:
        return math.sqrt(math.pi / 2.0)
    if m % 2 == 1 and k == n // 2 + 1:
        return 2.0
    if m % 2 == 1 and k == n // 2 + 2:
        return 2.0 / 3.0
    return 1.0


def contribution_sets(cone: ConeSpec, k: int) -> DegreeContribution:
    """The nu-multisets A_k, A~_{k-2}, B_k, the harmonic factor P_k and the
    factors of the degree-k determinant that they give (:func:`component_report`),
    each window's set and its factors in one pass.

    A_k gives Dirichlet factors S(nu), its harmonic part (lambda = 0) marked
    apart from the coclosed eigenvalues; A~_{k-2} gives Robin factors
    S(nu) (nu + m/2 + 1 - k) after the harmonic factor P_k, and B_k the
    paired factors P5(nu, k).  Degrees outside 0..m carry no forms and come
    back inactive, like any degree with |k - m/2| >= 2.
    """
    m, half = cone.m, cone.m / 2.0
    if not (abs(k - half) < 2.0 and 0 <= k <= m):
        return DegreeContribution(k, False, (), (), (), 1.0)
    notes: list[str] = []
    factors: list[ComponentFactor] = []

    a_set: tuple[tuple[float, int], ...] = ()
    if half - 2.0 < k < half:
        shift = (k + 1.0 - half) ** 2
        bound = 1.0 - shift
        _require_complete(cone, k, bound, k)
        a_set = _filter_window(cone.degree_entries(k), shift, bound, True, notes)
        nu_h = abs(k + 1.0 - half)  # the harmonic forms' nu, lambda = 0
        for nu, mult in a_set:
            harmonic = abs(nu - nu_h) <= 1e-12 and cone.harmonic_dim(k) == mult
            src = "harmonic-k" if harmonic else "coclosed"
            factors.append(ComponentFactor(src, nu, mult, det_wronskian_scalar(nu, Dirichlet())))

    a_tilde: tuple[tuple[float, int], ...] = ()
    d = cone.harmonic_dim(k - 1)
    if half < k < half + 2.0:
        shift = (k - 1.0 - half) ** 2
        bound = 1.0 - shift
        _require_complete(cone, k - 2, bound, k)
        a_tilde = _filter_window(cone.degree_entries(k - 2), shift, bound, False, notes)
        if d > 0:
            factors.append(ComponentFactor("harmonic-km1", None, d, _p_base(cone, k)))
        for nu, mult in a_tilde:
            value = det_wronskian_scalar(nu, Robin(half + 1.0 - k))
            factors.append(ComponentFactor("exact", nu, mult, value))

    shift_b = (k - half) ** 2
    bound_b = 4.0 - shift_b
    _require_complete(cone, k - 1, bound_b, k)
    b_set = _filter_window(cone.degree_entries(k - 1), shift_b, bound_b, False, notes)
    for nu, mult in b_set:
        factors.append(ComponentFactor("paired", nu, mult, _paired_factor(nu, k, m)))

    for msg in notes:
        warnings.warn(msg, stacklevel=2)
    return DegreeContribution(
        k=k,
        window_active=True,
        a_set=a_set,
        a_tilde_km2=a_tilde,
        b_set=b_set,
        p_factor=_p_base(cone, k) ** d,
        warnings=tuple(notes),
        factors=tuple(factors),
    )


def _paired_factor(nu: float, k: int, m: int) -> float:
    return 2.0 * math.pi * (nu - k + m / 2.0) / (2.0 ** (2.0 * nu) * gamma_fn(1.0 + nu) ** 2)


def cone_determinant(cone: ConeSpec, k: int) -> float:
    """det_zeta of the regular-singular block in degree k (1 when absent):
    the product of the factors of :func:`component_report`."""
    value = 1.0
    for f in component_report(cone, k):
        value *= f.value**f.multiplicity
    return value


def component_report(cone: ConeSpec, k: int) -> list[ComponentFactor]:
    """The factors of the degree-k determinant, each to the power of its multiplicity
    (:func:`contribution_sets`); k = m/2 (m even) has B_k only."""
    return list(contribution_sets(cone, k).factors)
