"""Independent oracles for every result the benchmark checks.

Nothing here imports ``regsing`` except :func:`acceptance_gate`, which
feeds the program's outputs on the acceptance fixtures to the oracles.
The oracles use ``math`` and ``scipy.special`` only.

Determinants.  A diagonal operator's determinant is the product of its
channels'.  Per channel of order s (s = nu on the regular tip branch,
s = -nu on the singular one) on (0, R] with Robin(beta / R):

    kernel-free:  sqrt(2 pi) W / (2^s Gamma(1+s)) * R^(s - 1/2),  W = beta + s + 1/2
    Dirichlet:    sqrt(2 pi)   / (2^s Gamma(1+s)) * R^(s + 1/2)
    kernel W = 0: sqrt(2 pi) / (2^(s+1) Gamma(s+2)) * R^(s + 3/2)   (nonzero spectrum)

At R = 1 these are the Wronskian closed forms; the R powers are
R^(-2 zeta(0)), the scaling of a zeta determinant under x -> x / R.
The kernel form gives 2/3, 2 and sqrt(pi/2) on the acceptance fixtures.

Spectra.  Real roots mu solve, with w = mu R,

    Dirichlet:  J_s(w) = 0
    Robin:      (1/2 + beta) J_s(w) + w J_s'(w) = 0

and a Robin channel with beta < -s - 1/2 has one imaginary root mu = i v / R,
(1/2 + beta) I_s(v) + v I_s'(v) = 0.  Both are solved with scipy's
``jv``/``jvp``/``ive``/``ivp`` and ``brentq``, one channel at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ive, ivp, jn_zeros, jv, jvp

SQRT_2PI = math.sqrt(2.0 * math.pi)

# tolerances quoted by the acceptance criteria
CLOSED_FORM_RTOL = 1e-12  # criterion 01
KERNEL_TOL = 1e-9  # criterion 02
CONCORDANCE_RTOL = 1e-6  # criterion 03
ROOT_ATOL = 1e-8  # criterion 04
ZETA_RTOL = 1e-4  # criterion 05

_KERNEL_W = 1e-12
_SCAN_STEP = 0.02
_SCAN_START = 1e-3


def _channel_det(s: float, r: float, robin: bool, beta: float) -> tuple[float, bool]:
    """(determinant factor, channel is on its kernel)."""
    if not robin:
        return SQRT_2PI / (2.0**s * math.gamma(1.0 + s)) * r ** (s + 0.5), False
    w = beta + s + 0.5
    if abs(w) <= _KERNEL_W:
        return SQRT_2PI / (2.0 ** (s + 1.0) * math.gamma(s + 2.0)) * r ** (s + 1.5), True
    return SQRT_2PI * w / (2.0**s * math.gamma(1.0 + s)) * r ** (s - 0.5), False


def det_expected(case) -> tuple[float, int]:
    """Signed determinant over the nonzero spectrum and the kernel dimension."""
    value, k0 = 1.0, 0
    for ch in case.channels:
        v, on_kernel = _channel_det(ch.order, case.r, case.robin, case.beta)
        value *= v
        k0 += on_kernel
    return value, k0


def check_det(case, out) -> str | None:
    """None if a ``det`` output passes, else the reason it fails.

    ``out`` is (value, method, k0, finite_t_value) as the request returns it.
    """
    value, method, k0, finite_t = out
    want, want_k0 = det_expected(case)
    if not math.isfinite(value):
        return f"non-finite determinant {value!r}"
    if k0 != want_k0:
        return f"kernel order {k0}, expected {want_k0}"
    tol = KERNEL_TOL if want_k0 else CLOSED_FORM_RTOL
    if abs(value - want) > tol * abs(want):
        return f"determinant {value!r} vs oracle {want!r}"
    if isinstance(finite_t, float) and abs(finite_t - value) > CONCORDANCE_RTOL * abs(value):
        return f"finite-t {finite_t!r} disagrees with closed form {value!r}"
    return None


def _real_roots(s: float, r: float, robin: bool, beta: float, mu_max: float) -> list[float]:
    if robin:
        def g(w):
            return (0.5 + beta) * jv(s, w) + w * jvp(s, w)
    else:
        def g(w):
            return jv(s, w)

    w_max = mu_max * r
    grid = np.arange(_SCAN_START, w_max + _SCAN_STEP, _SCAN_STEP)
    vals = g(grid)
    out = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        w = brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
        if w <= w_max:
            out.append(w / r)
    return out


def first_root(s: float, robin: bool, beta: float) -> float:
    """The smallest positive real root w = mu R of one channel (orders |s| < 1)."""
    return _real_roots(s, 1.0, robin, beta, 6.0)[0]


def _imag_root(s: float, r: float, beta: float) -> float | None:
    """x with F(i x) = 0 for a Robin channel below its kernel, else None."""
    if beta >= -s - 0.5:
        return None

    def h(v):
        # v I_s'(v) / I_s(v) rises from s to infinity
        return v * ivp(s, v) / (ive(s, v) * math.exp(v)) + 0.5 + beta

    lo, hi = 1e-8, 1.0
    while h(hi) < 0.0:
        hi *= 2.0
    return brentq(h, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps) / r


def spectrum_expected(case, mu_max: float) -> tuple[list[float], list[float]]:
    """Real roots in (0, mu_max] and imaginary roots, merged over channels."""
    pos, neg = [], []
    for ch in case.channels:
        pos += _real_roots(ch.order, case.r, case.robin, case.beta, mu_max)
        if case.robin:
            x = _imag_root(ch.order, case.r, case.beta)
            if x is not None:
                neg.append(x)
    return sorted(pos), sorted(neg)


def _match(got, want, mu_max: float, what: str) -> str | None:
    # a root within 1e-7 of the scan limit may land on either side of it
    edge = 1e-7 * max(1.0, mu_max)
    got = [x for x in got if x < mu_max - edge]
    want = [x for x in want if x < mu_max - edge]
    if len(got) != len(want):
        return f"{len(got)} {what} roots, oracle has {len(want)}"
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if worst > ROOT_ATOL:
        return f"{what} roots off by {worst:.3e}"
    return None


def check_spectrum(case, mu_max: float, positive, negative) -> str | None:
    want_pos, want_neg = spectrum_expected(case, mu_max)
    return _match(positive, want_pos, mu_max, "real") or _match(
        negative, want_neg, math.inf, "imaginary"
    )


def check_zeta(direct: float | None, contour: float) -> str | None:
    if direct is None or not (math.isfinite(direct) and math.isfinite(contour)):
        return f"zeta estimators not finite: {direct!r}, {contour!r}"
    if abs(direct - contour) > ZETA_RTOL * abs(contour):
        return f"direct zeta {direct!r} vs contour {contour!r}"
    return None


def check_spectrum_request(case, out) -> str | None:
    """``out`` is (positive, negative, direct, contour) from a spectrum request."""
    positive, negative, direct, contour = out
    return check_spectrum(case, case.mu_max, positive, negative) or check_zeta(direct, contour)


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

CIRCLE_CONE = {"0": SQRT_2PI, "1": math.pi**2 / 4.0, "2": math.sqrt(math.pi / 2.0)}
# sphere: 2^d, paired (8/9)^3 and (4/9)^3, (2/3)^d with d = 1
SPHERE_CONE = {"0": 2.0, "1": (8.0 / 9.0) ** 3, "2": (4.0 / 9.0) ** 3, "3": 2.0 / 3.0}


def check_cli(command: str, doc_name: str, report: dict, case, mu_max: float) -> str | None:
    """Check the ``report`` payload of one CLI envelope (``mu_max`` as passed)."""
    if command == "validate":
        return None if report["ok"] and not report["violations"] else "validation failed"
    if command == "det":
        ft = report["diagnostics"].get("finite_t_value")
        out = (report["value"], report["method"], report["k0"], ft)
        return check_det(case, out)
    if command == "cone":
        want = CIRCLE_CONE if doc_name.startswith("circle") else SPHERE_CONE
        degrees = report["degrees"]
        if sorted(degrees) != sorted(want):
            return f"cone degrees {sorted(degrees)}"
        for k, v in want.items():
            got = degrees[k]["value"]
            prod = math.prod(f["value"] ** f["multiplicity"] for f in degrees[k]["factors"])
            if abs(got - v) > CLOSED_FORM_RTOL * v or abs(prod - got) > CLOSED_FORM_RTOL * got:
                return f"cone degree {k}: {got!r} vs {v!r}"
        return None
    if command == "spectrum":
        return check_spectrum(case, report["mu_max"], report["positive"], report["negative"])
    if command == "zeta":
        want, _ = spectrum_expected(case, mu_max)
        if abs(report["n_roots"] - len(want)) > 1:
            return f"zeta used {report['n_roots']} roots, oracle has {len(want)}"
        return check_zeta(report["direct"], report["contour"])
    return f"no oracle for command {command!r}"


# ---------------------------------------------------------------------------
# Acceptance fixtures (criteria 01, 02 and 04) through program and oracles
# ---------------------------------------------------------------------------

KERNEL_CONSTANTS = (
    (0.5, "regular", -1.0, 2.0 / 3.0),
    (0.5, "singular", 0.0, 2.0),
    (0.0, "regular", -0.5, math.sqrt(math.pi / 2.0)),
)


def acceptance_cases():
    """(criterion, case, expected) triples; expected is a number or a root list."""
    from inputs import Case, Channel

    def scalar(nu, tip, robin, beta, mu_max=None):
        return Case(1.0, robin, beta, (Channel(nu, tip),), False, mu_max)

    out = []
    for nu in (0.0, 0.3, 0.5, 0.9):
        for alpha in (0.0, 1.0, -0.2):
            want = SQRT_2PI * (alpha + nu + 0.5) / (math.gamma(1.0 + nu) * 2.0**nu)
            out.append(("01", scalar(nu, "regular", True, alpha), want))
        out.append(("01", scalar(nu, "regular", False, 0.0), SQRT_2PI / (math.gamma(1.0 + nu) * 2.0**nu)))
    for nu, tip, alpha, want in KERNEL_CONSTANTS:
        out.append(("02", scalar(nu, tip, True, alpha), want))
    sin_roots = [k * math.pi for k in range(1, 11)]
    out.append(("04", scalar(0.5, "regular", False, 0.0, 10.5 * math.pi), sin_roots))
    out.append(("04", scalar(0.0, "regular", True, -0.5, 18.0), list(jn_zeros(1, 5))))
    return out


def acceptance_gate() -> list[str]:
    """Run the criterion 01/02/04 fixtures; return the failures (empty if none).

    Each fixture must pass both against its literal constant and against
    the oracle above, which ties the oracles to the acceptance suite.
    """
    from inputs import build_spec
    from regsing.determinant import det_zeta_closed_form, det_zeta_regularized
    from regsing.eigenfunction import find_spectrum

    failures = []
    for crit, case, want in acceptance_cases():
        try:
            got, ok = _gate_one(crit, case, want, build_spec(case),
                                det_zeta_closed_form, det_zeta_regularized, find_spectrum)
        except Exception as exc:  # a broken program fails the gate, not the run
            got, ok = f"{type(exc).__name__}: {exc}", False
        if not ok:
            failures.append(f"criterion {crit}: {got!r} vs {want!r}")
    return failures


def _gate_one(crit, case, want, spec, closed_form, regularized, find_spectrum):
    if crit == "01":
        got = closed_form(spec).value
        expected, _ = det_expected(case)
        return got, max(abs(got - want), abs(expected - want)) <= CLOSED_FORM_RTOL * want
    if crit == "02":
        got = regularized(spec).value
        expected, k0 = det_expected(case)
        return got, k0 == 1 and max(abs(got - want), abs(expected - want)) <= KERNEL_TOL
    got = list(find_spectrum(spec, case.mu_max).positive[: len(want)])
    expected, _ = spectrum_expected(case, case.mu_max)
    ok = len(got) == len(want) == len(expected) and all(
        max(abs(a - w), abs(e - w)) <= ROOT_ATOL for a, e, w in zip(got, expected, want)
    )
    return got, ok
