"""Secular determinant: closed forms, zeros, kernel order, asymptotics."""

import cmath
import json
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import iv, ivp, jv, jvp

from regsing import eigenfunction
from regsing._numutil import NumericalError, gauss_legendre
from regsing.cli import parse_operator_document
from regsing.eigenfunction import (
    SecularEvaluator,
    asymptotic_log_F_imag,
    eval_F,
    eval_F_at_zero,
    find_spectrum,
    log_F_imag,
    verify_contour_decay,
)
from regsing.operators import (
    BoundaryMatrices,
    Dirichlet,
    OperatorSpec,
    Robin,
    diagonal_spec,
    scalar_spec,
)
from regsing.special import KernelTable, phi_rows
from tests.conftest import bisect_root, robin_regular

EPS = sys.float_info.epsilon
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


class TestClosedForms:
    """Fixtures whose F reduces to elementary functions."""

    def test_sin_over_mu_minus_cos(self, kernel_fixture_third):
        for mu in [0.3, 1.0, 2.5, math.pi]:
            want = math.sin(mu) / mu - math.cos(mu)
            assert eval_F(kernel_fixture_third, mu).real == pytest.approx(want, abs=1e-13)
        assert eval_F(kernel_fixture_third, math.pi).real == pytest.approx(1.0, abs=1e-14)

    def test_minus_mu_sin(self, kernel_fixture_two):
        for mu in [0.4, math.pi / 2.0, 2.0]:
            want = -mu * math.sin(mu)
            assert eval_F(kernel_fixture_two, mu).real == pytest.approx(want, abs=1e-13)
        assert eval_F(kernel_fixture_two, math.pi / 2.0).real == pytest.approx(-math.pi / 2.0)

    def test_mu_j1(self, kernel_fixture_bessel, j1_zeros_oracle):
        assert abs(eval_F(kernel_fixture_bessel, j1_zeros_oracle[0])) < 1e-8

    def test_dirichlet_sin(self, dirichlet_half):
        for mu in [0.5, 2.0, 9.0]:
            want = -math.sin(mu) / mu
            assert eval_F(dirichlet_half, mu).real == pytest.approx(want, abs=1e-13)


class TestValueAtZero:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2])
    def test_robin_family(self, nu, alpha):
        got = eval_F_at_zero(robin_regular(nu, alpha))
        assert got == pytest.approx(-0.5 - alpha - nu, abs=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.4])
    def test_general_interval_length(self, nu):
        # explicit 2x2 limit matrix at R != 1; regular-branch rows pick
        # the second column of the lower block
        r, alpha = 2.0, 0.3
        spec = scalar_spec(nu, Robin(alpha), tip="regular", r=r)
        kappa = 1.0 / (2.0 * math.sqrt(r)) + alpha * math.sqrt(r)
        if nu == 0.0:
            want = -(kappa)  # det [[0,1],[kappa, kappa log R + 1/sqrt(R)]]
        else:
            want = -(kappa * r**nu + nu * r ** (nu - 0.5))
        assert eval_F_at_zero(spec) == pytest.approx(want, rel=1e-13, abs=0.0)
        # and the logarithmic column itself, through singular-branch rows
        if nu == 0.0:
            spec2 = scalar_spec(nu, Robin(alpha), tip="singular", r=r)
            want2 = kappa * math.log(r) + 1.0 / math.sqrt(r)
            assert eval_F_at_zero(spec2) == pytest.approx(want2, rel=1e-13, abs=0.0)

    def test_kernel_cases_vanish(self, kernel_fixture_two, kernel_fixture_bessel):
        assert abs(eval_F_at_zero(kernel_fixture_two)) < 1e-14
        assert abs(eval_F_at_zero(kernel_fixture_bessel)) < 1e-14

    def test_matches_small_mu_limit_when_invertible(self):
        # |F(1e-3) - F(0)| <= 1e-5 (1 + |F(0)|)
        for spec in [robin_regular(0.3, 0.4), robin_regular(0.0, 1.0),
                     scalar_spec(0.7, Dirichlet(), tip="regular")]:
            f0 = eval_F_at_zero(spec)
            assert abs(eval_F(spec, 1e-3).real - f0) <= 1e-5 * (1.0 + abs(f0))


class TestKernelOrder:
    def test_known_orders(self, kernel_fixture_third, kernel_fixture_two, kernel_fixture_bessel):
        assert SecularEvaluator(kernel_fixture_third).circle.k0 == 1
        assert SecularEvaluator(kernel_fixture_two).circle.k0 == 1
        assert SecularEvaluator(kernel_fixture_bessel).circle.k0 == 1

    def test_invertible_family(self):
        for nu in [0.0, 0.3, 0.9]:
            for alpha in [0.0, 1.0, -0.2]:
                assert SecularEvaluator(robin_regular(nu, alpha)).circle.k0 == 0

    def test_q2_product_kernel(self):
        spec = diagonal_spec(
            [scalar_spec(0.5, Robin(-1.0), tip="regular"),
             scalar_spec(0.5, Robin(-1.0), tip="singular")]
        )
        # second block: singular rows with alpha=-1 -> F2(0) = 1/2 - ... != 0
        k = SecularEvaluator(spec).circle.k0
        assert k == 1


class TestRealityAndFactorization:
    def test_f_real_on_imaginary_axis(self, diagonal_pair):
        for spec in [robin_regular(0.3, 0.0), diagonal_pair]:
            ev = SecularEvaluator(spec)
            for x in [0.5, 2.0, 7.0, 15.0]:
                v = ev.value(1j * x)
                assert abs(v.imag) <= 1e-10 * abs(v)

    def test_diagonal_factorization(self):
        s1 = scalar_spec(0.3, Robin(0.2), tip="regular")
        s2 = scalar_spec(0.6, Robin(0.2), tip="singular")
        joint = diagonal_spec([s1, s2])
        for mu in [0.7, 2.3, 3j, 2.0 + 1.0j, 11.0]:
            lhs = eval_F(joint, mu)
            rhs = eval_F(s1, mu) * eval_F(s2, mu)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_scaled_representation_consistent(self, diagonal_pair):
        ev = SecularEvaluator(diagonal_pair)
        for mu in [0.5, 1j * 3.0, 4.0 + 2.0j]:
            mant, logs = ev.scaled(mu)
            assert mant * np.exp(logs) == pytest.approx(ev.value(mu), rel=1e-12)

    def test_large_imaginary_argument_no_overflow(self, diagonal_pair):
        ev = SecularEvaluator(diagonal_pair)
        mant, logs = ev.scaled(1j * 150.0)
        assert math.isfinite(logs) and logs > 200.0
        assert 1e-8 < abs(mant) < 1e4

    @pytest.mark.parametrize("q", [1, 2])
    def test_scaled_finite_beyond_float_range(self, q):
        # x R up to 10^4, far past exp overflow at 710; the log-scale tracks the model
        parts = [scalar_spec(0.3, Robin(0.5), r=200.0), scalar_spec(0.6, Robin(0.5), r=200.0)]
        spec = parts[0] if q == 1 else diagonal_spec(parts)
        ev = SecularEvaluator(spec)
        model = ev.model
        for x in [4.0, 12.0, 50.0]:
            mant, logs = ev.scaled(1j * x)
            assert math.isfinite(logs) and 0.0 < abs(mant) < 1e4
            gap = ev.log_value(1j * x).real - model.log_value(x).real
            assert abs(gap) < math.log(2.0)


def test_value_beyond_float_range_is_typed():
    # |F(5i)| ~ exp(1000) at R = 200: the scaled form is finite, the value is not
    spec = scalar_spec(0.3, Robin(0.5), r=200.0)
    with pytest.raises(NumericalError):
        eval_F(spec, 5j)
    mant, logs = SecularEvaluator(spec).scaled(5j)
    assert math.isfinite(logs) and 0.0 < abs(mant) < 10.0


@pytest.mark.parametrize(
    "spec",
    [
        scalar_spec(0.3, Robin(0.0), tip="singular", r=5.3e-280),
        scalar_spec(0.0, Dirichlet(), r=5e-324),
        scalar_spec(0.975, Robin(0.0), tip="singular", r=5e-324),
    ],
    ids=["R^-nu / R", "1 / R", "R^-nu"],
)
def test_rows_beyond_float_range_are_refused_on_construction(spec):
    # at such R every row overflows whatever mu is: a typed error, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="float range"):
            SecularEvaluator(spec)


ARRAY_SPECS = {
    "q1 regular": scalar_spec(0.3, Robin(0.5), tip="regular"),
    "q1 singular": scalar_spec(0.3, Robin(0.5), tip="singular"),
    "q1 dirichlet": scalar_spec(0.7, Dirichlet(), tip="singular", r=2.0),
    "nu0 singular": scalar_spec(0.0, Robin(0.2), tip="singular", r=1.7),
    "q2": diagonal_spec(
        [scalar_spec(0.0, Robin(0.5)), scalar_spec(0.6, Robin(0.5), tip="singular")]
    ),
    # a nu = 0 channel, a repeated nu (one shared kernel order) and a singular tip
    "q4": diagonal_spec(
        [
            scalar_spec(0.0, Robin(0.3), r=1.3),
            scalar_spec(0.4, Robin(0.3), r=1.3),
            scalar_spec(0.4, Robin(0.3), tip="singular", r=1.3),
            scalar_spec(0.7, Robin(0.3), r=1.3),
        ]
    ),
    # self-adjoint tip conditions that couple the two channels
    "q2 coupled": OperatorSpec(
        r=1.2,
        lambdas=(0.3**2 - 0.25, 0.6**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices(np.eye(2), [[1.0, 0.5], [0.5, 2.0]]),
        regular_bc=Robin(0.4),
    ),
    "q2 coupled nu0 dirichlet": OperatorSpec(
        r=0.8,
        lambdas=(-0.25, 0.11),
        q0=1,
        boundary=BoundaryMatrices(np.diag([-1.0, 1.0]), [[1.0, 0.7], [0.7, -0.5]]),
        regular_bc=Dirichlet(),
    ),
    # two log channels, whose companion rows share one kernel row: separate,
    # one of them on a singular tip, and coupled
    "q2 two nu0": diagonal_spec(
        [scalar_spec(0.0, Robin(0.4), r=1.3), scalar_spec(0.0, Robin(0.4), tip="singular", r=1.3)]
    ),
    "q2 coupled two nu0": OperatorSpec(
        r=0.9,
        lambdas=(-0.25, -0.25),
        q0=2,
        boundary=BoundaryMatrices(np.eye(2), [[1.0, 0.5], [0.5, 2.0]]),
        regular_bc=Robin(0.3),
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_SPECS))
def test_scaled_array_matches_scalar_calls(name):
    # real and imaginary axes, a vertical segment and a small arc, inside and outside |w| = 1
    ev = SecularEvaluator(ARRAY_SPECS[name])
    mu = np.concatenate([
        np.linspace(0.01, 15.0, 120),
        1j * np.linspace(0.01, 40.0, 60),
        3.0 + 1j * np.linspace(-3.0, 3.0, 20),
        0.5 * np.exp(1j * np.linspace(-1.5, 1.5, 20)),
    ])
    mants, logs = ev.scaled(mu.reshape(11, 20))
    assert mants.shape == logs.shape == (11, 20)
    for m, l, z in zip(mants.ravel(), logs.ravel(), mu):
        m1, l1 = ev.scaled(complex(z))
        assert type(m1) is complex and type(l1) is float
        # mantissas are normalized to unit row scale, so compare them absolutely
        assert abs(l - l1) <= 1e-15 * max(1.0, abs(l1))
        assert abs(m - m1) <= 1e-15


def _mp_secular(spec, mu):
    """F(mu) in mpmath from the Bessel rows (d/dx + alpha)(sqrt(x) T(x)) at x = R."""
    r = mp.mpf(spec.r)
    w = mu * r

    def row(t, t_x):
        if isinstance(spec.regular_bc, Dirichlet):
            return mp.sqrt(r) * t
        kappa = 1 / (2 * mp.sqrt(r)) + spec.regular_bc.alpha * mp.sqrt(r)
        return kappa * t + mp.sqrt(r) * t_x

    def branch(s):
        # Gamma(1 + s) x^s (mu x / 2)^(-s) J_s(mu x)
        g = mp.gamma(1 + s) * (mu / 2) ** (-s)
        return row(g * mp.besselj(s, w), g * mu * mp.besselj(s, w, derivative=1))

    def companion():
        # (pi/2) Y_0(mu x) - (log mu - log 2 + gamma) J_0(mu x)
        c = mp.log(mu) - mp.log(2) + mp.euler
        y, j = mp.bessely(0, w), mp.besselj(0, w)
        y_d, j_d = mp.bessely(0, w, derivative=1), mp.besselj(0, w, derivative=1)
        return row(mp.pi / 2 * y - c * j, mu * (mp.pi / 2 * y_d - c * j_d))

    q = spec.q
    m = mp.zeros(2 * q, 2 * q)
    for i in range(q):
        for j in range(q):
            m[i, j] = complex(spec.boundary.a_mat[i, j])
            m[i, q + j] = complex(spec.boundary.b_mat[i, j])
    scale = 1
    for l, nu in enumerate(spec.nus):
        jp, jm = branch(mp.mpf(nu)), companion() if l < spec.q0 else branch(-mp.mpf(nu))
        # each row over its largest entry: mp.det reads a pivot far below the
        # largest entry of the matrix as singular
        big = max(abs(jp), abs(jm))
        m[q + l, l], m[q + l, q + l] = jp / big, jm / big
        scale *= big
    return mp.det(m) * scale


@pytest.mark.parametrize("name", sorted(ARRAY_SPECS))
def test_dlog_matches_mpmath(name):
    spec = ARRAY_SPECS[name]
    # |w| < 1, the imaginary axis below and above |w| = 1, |w| > 1, and two arcs;
    # then the real axis past |w| = 1 and the imaginary axis past |w| = 20
    mus = [0.3 + 0.2j, 0.05j, 3.0j, 5.0 + 2.0j, 0.1 * cmath.exp(-1.2j), 12.0 * cmath.exp(0.9j)]
    mus += [4.0, 17.0, 30.0j, 150.0j]
    got = SecularEvaluator(spec).dlog(np.array(mus))
    with mp.workdps(40):
        for g, mu in zip(got, mus):
            z = mp.mpc(mu)
            want = complex(mp.diff(lambda x: _mp_secular(spec, x), z) / _mp_secular(spec, z))
            assert abs(g - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("name", sorted(ARRAY_SPECS))
def test_value_matches_mpmath(name):
    spec = ARRAY_SPECS[name]
    # the points of test_dlog_matches_mpmath and two on the real axis beyond |w| = 1
    mus = [0.3 + 0.2j, 0.05j, 3.0j, 5.0 + 2.0j, 0.1 * cmath.exp(-1.2j), 12.0 * cmath.exp(0.9j)]
    mus += [4.0, 17.0]
    got = SecularEvaluator(spec).value(np.array(mus))
    with mp.workdps(40):
        for g, mu in zip(got, mus):
            want = complex(_mp_secular(spec, mp.mpc(mu)))
            assert abs(g - want) <= 1e-12 * abs(want)


def test_dlog_is_odd_and_takes_scalars(diagonal_pair):
    ev = SecularEvaluator(diagonal_pair)
    mu = np.array([2.0 + 1.0j, 0.4j])
    assert np.array_equal(ev.dlog(-mu), -ev.dlog(mu))
    assert ev.dlog(complex(mu[0])) == ev.dlog(mu)[0]


def test_dlog_tells_an_overflow_from_a_zero_of_f():
    # at nu = 0, R = 1e300, F'/F = 1/(mu - mu_1) + O(R) next to the first zero
    # mu_1 = j_{0,1} / R = 2.4048255576957727e-300 leaves the float range within
    # 2e-9 of mu_1: 1e-12 of it away, F is finite and nonzero, and dlog F is an
    # overflow, not a zero of F.  A kernel operator (nu = 1/2, Robin(-1)) at
    # mu = 0 is a true zero
    far = SecularEvaluator(scalar_spec(0.0, Dirichlet(), r=1e300))
    mu = 2.4048255576957727e-300 * (1.0 + 1e-12)
    assert far.scaled(mu)[0] != 0.0
    with pytest.raises(NumericalError, match="overflows where F is not 0") as exc:
        far.dlog(mu)
    assert not isinstance(exc.value, eigenfunction.ContourError)
    kernel = SecularEvaluator(scalar_spec(0.5, Robin(-1.0)))
    assert kernel.scaled(0.0)[0] == 0.0
    with pytest.raises(eigenfunction.ContourError, match="at a zero of F"):
        kernel.dlog(np.array([0.0, 0.5]))


def _count_calls(monkeypatch) -> Counter:
    """Count the kernel passes of SecularEvaluator from now on: each gives F (key
    "scaled"), and one with ``deriv`` gives dlog F as well (key "_dlog")."""
    calls = Counter()
    kernel_pass = SecularEvaluator._pass

    def counted(self, mu, deriv=False):
        calls.update(("scaled", "_dlog") if deriv else ("scaled",))
        return kernel_pass(self, mu, deriv)

    monkeypatch.setattr(SecularEvaluator, "_pass", counted)
    return calls


def _channel_roots(nu: float, bc, tip: str, r: float, mu_max: float, axis: str) -> list[float]:
    """Zeros of one channel's boundary condition at x = r on sqrt(x) J_{+-nu}(mu x)
    (or I_{+-nu}(t x) on the imaginary axis), from scipy and brentq."""
    s = nu if tip == "regular" else -nu
    bessel, deriv = (jv, jvp) if axis == "real" else (iv, ivp)

    def cond(m):
        if isinstance(bc, Dirichlet):
            return bessel(s, m * r)
        return (0.5 / r + bc.alpha) * bessel(s, m * r) + m * deriv(s, m * r)

    grid = np.linspace(1e-3, mu_max, 40001)
    vals = cond(grid)
    return [
        brentq(cond, grid[i], grid[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    ]


ORACLE_CHANNELS = {  # channels (nu, tip), end condition, R, mu_max
    "q1": ([(0.3, "regular")], Robin(0.5), 1.0, 40.0),
    "q2 negative": ([(0.5, "regular"), (0.2, "singular")], Robin(-2.0), 1.0, 30.0),
    # two negative eigenvalues 0.049 apart
    "q2 negative pair": ([(0.3, "regular"), (0.6, "singular")], Robin(-3.0), 1.0, 30.0),
    "q4 dirichlet": (
        [(0.0, "regular"), (0.4, "regular"), (0.4, "singular"), (0.7, "regular")],
        Dirichlet(),
        1.0,
        100.0,
    ),
    # an iterate lands within rounding of the root at 3.3421, where the
    # mantissa's imaginary residue outweighs its real part
    "q4 robin": (
        [(0.875, "singular"), (0.6964285714285714, "regular"),
         (0.5178571428571429, "regular"), (0.3392857142857143, "singular")],
        Robin(1.5892857142857144 / 1.7696126940446328),
        1.7696126940446328,
        13.31474676985402,
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CHANNELS))
def test_spectrum_matches_per_channel_oracle(name, monkeypatch):
    channels, bc, r, mu_max = ORACLE_CHANNELS[name]
    spec = diagonal_spec([scalar_spec(nu, bc, tip=tip, r=r) for nu, tip in channels])
    calls = _count_calls(monkeypatch)
    sp = find_spectrum(spec, mu_max)
    assert calls["_dlog"] <= 12  # refinement rounds, both axes together
    for got, axis, top in ((sp.positive, "real", mu_max), (sp.negative, "imag", 30.0)):
        want = sorted(x for nu, tip in channels for x in _channel_roots(nu, bc, tip, r, top, axis))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w
    if name.startswith("q2 negative"):
        assert len(sp.negative) == 2


DILATION_SPECS = {  # the operator on (0, R], its Robin alpha scaled by 1/R
    "positive": lambda r: scalar_spec(0.3, Robin(0.5 / r), r=r),
    "kernel": lambda r: scalar_spec(0.5, Robin(-1.0 / r), r=r),
    "singular dirichlet": lambda r: scalar_spec(0.4, Dirichlet(), tip="singular", r=r),
    "one negative": lambda r: scalar_spec(0.5, Robin(-3.0 / r), r=r),
    "negative pair": lambda r: diagonal_spec(
        [scalar_spec(0.3, Robin(-3.0 / r), r=r),
         scalar_spec(0.6, Robin(-3.0 / r), tip="singular", r=r)]
    ),
    "q2 mixed": lambda r: diagonal_spec(
        [scalar_spec(0.0, Robin(0.5 / r), r=r), scalar_spec(0.6, Robin(0.5 / r), r=r)]
    ),
}


@pytest.mark.parametrize("name", sorted(DILATION_SPECS))
def test_spectrum_dilation_law(name):
    # the zeros of F on (0, R] are those on (0, 1] over R: every length of the
    # search (grid spacings and starts, the imaginary grid's end and the cuts
    # beyond it, root tolerance) is a multiple of 1/R, so the searches agree to
    # rounding
    make = DILATION_SPECS[name]
    unit = find_spectrum(make(1.0), 30.0)
    for r in (0.005, 0.01, 0.1, 0.5, 2.0, 10.0, 100.0, 1e3, 1e4):
        sp = find_spectrum(make(r), 30.0 / r)
        assert sp.certified
        for got, want in ((sp.positive, unit.positive), (sp.negative, unit.negative)):
            assert len(got) == len(want), r
            if want:
                assert np.max(np.abs(r * np.array(got) / want - 1.0)) <= 1e-14, r


def _rotated(spec: OperatorSpec, i: int, j: int, angle: float = 0.6) -> OperatorSpec:
    """The spec on the tip (A Q, B Q), Q the rotation by `angle` in the plane of its
    channels i and j: where the two repeat, Q commutes with diag(jp) and diag(jm), so
    F is the same, but the tip couples them."""
    rot = np.eye(spec.q)
    c, s = math.cos(angle), math.sin(angle)
    rot[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
    tip = BoundaryMatrices(spec.boundary.a_mat @ rot, spec.boundary.b_mat @ rot)
    return OperatorSpec(r=spec.r, lambdas=spec.lambdas, q0=spec.q0, boundary=tip, regular_bc=spec.regular_bc)


_CHANNEL = st.tuples(
    st.just(0.0) | st.floats(min_value=0.05, max_value=0.9), st.sampled_from(["regular", "singular"])
)


@st.composite
def _repeated_channels(draw):
    """2 to 4 channels (nu, tip), the second a copy of the first and each later one
    new or a copy of an earlier one: exact, or with nu shifted by 1e-9, 1e-6 or 1e-4
    (a nu = 0 channel only exactly)."""
    channels = [draw(_CHANNEL)]
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        if k and draw(st.booleans()):
            channels.append(draw(_CHANNEL))
            continue
        nu, tip = draw(st.sampled_from(channels))
        shift = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-4])) if nu else 0.0
        channels.append((nu + shift, tip))
    return channels


@settings(max_examples=20, deadline=None)
@example(  # a triple root at mu_max and its shifted copy 1.6e-9 below it
    channels=[(0.5, "singular")] * 3 + [(0.500000001, "singular")], alpha_r=None, r=1.0
)
@example(channels=[(0.3, "regular"), (0.3, "regular")], alpha_r=-2.0, r=1.5)  # a double negative root
@given(
    channels=_repeated_channels(),
    alpha_r=st.none() | st.floats(min_value=-2.5, max_value=2.0, exclude_max=True),
    r=st.floats(min_value=0.5, max_value=4.0),
)
def test_spectrum_of_repeated_channels(channels, alpha_r, r):
    # a repeated channel is a double zero of F, a near-repeated one a close
    # pair; each channel of the diagonal tip is searched on its own, and the
    # rotated copy of an exactly repeated pair, a coupled tip with the same F,
    # lists each double zero twice by the count.  nu > 0 channels are held
    # against scipy, nu = 0 ones against the scalar operator's search
    bc = Dirichlet() if alpha_r is None else Robin(alpha_r / r)
    for nu, tip in channels:  # F(0) of a channel near, not at, 0 puts a root below the oracle's grid
        f0 = 0.0 if alpha_r is None or nu == 0.0 else 0.5 + (nu if tip == "regular" else -nu) + alpha_r
        assume(f0 == 0.0 or abs(f0) > 0.02)
    mu_max = 30.0 * math.pi / (len(channels) * r)
    want = {"real": [], "imag": []}
    for nu, tip in channels:
        if nu == 0.0:
            alone = find_spectrum(scalar_spec(0.0, bc, tip=tip, r=r), mu_max)
            want["real"] += alone.positive
            want["imag"] += alone.negative
            continue
        nu = math.sqrt(nu * nu - 0.25 + 0.25)  # the order the operator stores
        want["real"] += _channel_roots(nu, bc, tip, r, mu_max, "real")
        want["imag"] += _channel_roots(nu, bc, tip, r, 30.0 / r, "imag")
    spec = diagonal_spec([scalar_spec(nu, bc, tip=tip, r=r) for nu, tip in channels])
    specs = [spec]
    channel = list(zip(spec.lambdas, np.diag(spec.boundary.a_mat), np.diag(spec.boundary.b_mat)))
    pairs = [(i, j) for i in range(spec.q) for j in range(i + 1, spec.q) if channel[i] == channel[j]]
    if pairs:  # the first exactly repeated pair, rotated
        specs.append(_rotated(spec, *pairs[0]))
        assert not SecularEvaluator(specs[-1]).diagonal
    # a root at mu_max itself (nu = 1/2 puts one there) is in or out by rounding
    inside = lambda roots: [x for x in roots if abs(x - mu_max) > 1e-12 * mu_max]  # noqa: E731
    for spec in specs:
        sp = find_spectrum(spec, mu_max)
        assert sp.certified
        for got, axis in ((inside(sp.positive), "real"), (sp.negative, "imag")):
            want_axis = np.sort(inside(want[axis]))
            assert len(got) == len(want_axis), axis
            assert np.all(np.abs(np.array(got) - want_axis) <= 1e-12 * want_axis + 1e-13 / r), axis


def _box_count(ev: SecularEvaluator, lo: complex, hi: complex) -> complex:
    """Zeros of F in the rectangle of corners lo and hi: the argument principle,
    (1 / 2 pi i) times the integral of dlog F over its four sides."""
    corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag), lo]
    total = 0.0
    for z0, z1 in zip(corners, corners[1:]):
        side = lambda t, z0=z0, d=z1 - z0: ev.dlog(z0 + d * t) * d  # noqa: E731
        total += gauss_legendre(side, (0.0, 1.0))[0]
    return total / (2j * math.pi)


def test_coupled_counts_match_the_argument_principle():
    # self-adjoint tips (a', b) = (H, I) or (I, H), a' = a diag(s) with s = -1 on
    # the log channels, H random symmetric: the search certifies every one, and
    # the roots it finds in a box about each axis are as many as F has zeros there
    rng = np.random.default_rng(18)
    for k in range(20):
        q, q0 = (2, 0) if k < 10 else (3, 1) if k < 15 else (2, 1)
        nus = np.sort(rng.uniform(0.1, 0.9, q))
        nus[:q0] = 0.0
        h = rng.normal(size=(q, q))
        h = h + h.T
        a_prime, b = (h, np.eye(q)) if k % 2 else (np.eye(q), h)
        s = np.where(np.arange(q) < q0, -1.0, 1.0)
        r = float(rng.uniform(0.5, 2.0))
        bc = Dirichlet() if k % 3 == 0 else Robin(float(rng.uniform(-2.0, 1.0)) / r)
        spec = OperatorSpec(
            r=r, lambdas=tuple(nus**2 - 0.25), q0=q0, boundary=BoundaryMatrices(a_prime * s, b), regular_bc=bc
        )
        sp = find_spectrum(spec, 20.0 / (q * r))
        assert sp.certified
        ev, low, top = sp.evaluator, 0.01 / r, 30.0 / r
        for roots, box in (
            (sp.positive, (complex(low, -1.0 / r), complex(sp.mu_max, 1.0 / r))),
            (sp.negative, (complex(-1.0 / r, low), complex(1.0 / r, top))),
        ):
            count = _box_count(ev, *box)
            assert abs(count - round(count.real)) < 1e-6, (k, count)
            assert round(count.real) == sum(low < x <= top for x in roots), k


# one negative eigenvalue each, far above x R = 12: the spec and mpmath's start
FAR_NEGATIVE = {
    "A": (
        OperatorSpec(
            r=2.1168,
            lambdas=(0.3513**2 - 0.25,),
            q0=0,
            boundary=BoundaryMatrices([[1.0]], [[5.3661]]),
            regular_bc=Robin(0.1315),
        ),
        11.6,
    ),
    "B": (
        OperatorSpec(
            r=1.2016,
            lambdas=(-0.25,),
            q0=1,
            boundary=BoundaryMatrices([[-1.0]], [[8.1662]]),
            regular_bc=Dirichlet(),
        ),
        3950.0,
    ),
}


@pytest.mark.parametrize("name", sorted(FAR_NEGATIVE))
def test_far_negative_eigenvalue_matches_mpmath(name):
    # the count of (0, inf] sees the zero of F(ix) at x R = 24.6 (A) and 4749 (B);
    # the mpmath zero of F(ix) e^(-x R) (q = 1) starts from the nearby guess
    spec, guess = FAR_NEGATIVE[name]
    sp = find_spectrum(spec, 10.0)
    with mp.workdps(40):
        f = lambda x: mp.re(_mp_secular(spec, mp.mpc(0, x))) * mp.exp(-x * spec.r)  # noqa: E731
        want = float(mp.findroot(f, guess))
    assert sp.certified and len(sp.negative) == 1
    assert abs(sp.negative[0] - want) <= 1e-12 * want


COUPLED_TIPS = {  # spec, mu_max and the negative roots to 1e-3
    "q3 root at x R = 25": (
        OperatorSpec(
            r=1.667,
            lambdas=tuple(np.array([0.1159, 0.3119, 0.331]) ** 2 - 0.25),
            q0=0,
            boundary=BoundaryMatrices(
                np.eye(3), [[-1.33, 0.763, 0.42], [0.763, 0.79, 3.553], [0.42, 3.553, 2.533]]
            ),
            regular_bc=Robin(0.4733),
        ),
        4.0,
        [15.088],
    ),
    # F(ix) decays towards its limit for a long way and never vanishes
    "q2 no root": (
        OperatorSpec(
            r=2.0,
            lambdas=(0.3**2 - 0.25, 0.6**2 - 0.25),
            q0=0,
            boundary=BoundaryMatrices([[-0.5, 0.2], [0.2, -0.1]], np.eye(2)),
            regular_bc=Robin(1.0),
        ),
        15.0 * math.pi,
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(COUPLED_TIPS))
def test_coupled_tip_negative_roots_match_the_argument_principle(name):
    # the search certifies the imaginary axis by its count out to x = inf; the
    # argument principle over a box about it up to x R = 100 finds as many zeros
    spec, mu_max, want = COUPLED_TIPS[name]
    sp = find_spectrum(spec, mu_max)
    assert sp.certified and len(sp.negative) == len(want)
    assert np.all(np.abs(np.array(sp.negative) - want) < 1e-3)
    count = _box_count(sp.evaluator, complex(-1.0, 0.01) / spec.r, complex(1.0, 100.0) / spec.r)
    assert abs(count - len(want)) < 1e-6


def _random_tip(rng) -> tuple[OperatorSpec, float]:
    """A self-adjoint tip that couples q = 1 to 3 channels, a log channel (nu = 0)
    first half the time, (a', b) = (H, I) or (I, H) with H random symmetric and
    a' = a diag(s), s = -1 on the log channel; Dirichlet or Robin ends, R in
    [0.3, 3]; and mu_max = 10 / (q R)."""
    q, q0 = int(rng.integers(1, 4)), int(rng.integers(0, 2))
    nus = np.sort(rng.uniform(0.1, 0.9, q))
    nus[:q0] = 0.0
    h = rng.normal(size=(q, q))
    h = h + h.T
    a_prime, b = (h, np.eye(q)) if rng.integers(2) else (np.eye(q), h)
    s = np.where(np.arange(q) < q0, -1.0, 1.0)
    r = float(rng.uniform(0.3, 3.0))
    bc = Dirichlet() if rng.integers(2) else Robin(float(rng.uniform(-2.0, 1.0)) / r)
    tip = BoundaryMatrices(a_prime * s, b)
    return OperatorSpec(r=r, lambdas=tuple(nus**2 - 0.25), q0=q0, boundary=tip, regular_bc=bc), 10.0 / (q * r)


def test_random_coupled_tips_match_dense_sign_changes():
    # each negative eigenvalue lies in its own cell of a dense grid on the imaginary
    # axis, spacing 0.002 / R up to x R = 20 and then ratio 1.0054 up to x R = 1e6,
    # across which F(ix) changes sign, and every such cell holds one
    rng = np.random.default_rng(5)
    grid = np.concatenate((np.arange(1, 10000) * 0.002, 20.0 * np.geomspace(1.0, 5e4, 2000)))
    for k in range(60):
        spec, mu_max = _random_tip(rng)
        sp = find_spectrum(spec, mu_max)
        x = grid / spec.r
        f = sp.evaluator.scaled(1j * x)[0].real
        flips = np.flatnonzero(f[:-1] * f[1:] < 0.0)
        got = np.array(sp.negative)
        assert got.size == flips.size, (k, got, x[flips])
        assert np.all((x[flips] <= got) & (got <= x[flips + 1])), k


def _log_channel(a: float) -> OperatorSpec:
    """A log channel (nu = 0, q0 = 1) with tip row (a, 1) and a Dirichlet end at R = 1."""
    tip = BoundaryMatrices([[a]], [[1.0]])
    return OperatorSpec(r=1.0, lambdas=(-0.25,), q0=1, boundary=tip, regular_bc=Dirichlet())


def test_zero_past_the_scipy_kernel_range_matches_mpmath():
    # a' = -0.01: F(ix) vanishes where log x is about 100, x = 3.0e43, far past the
    # x = 1.07e9 where scipy's ive and kve give NaN; Hankel's expansion reaches
    # it, the count of (x, inf] stays 1 as x doubles until it brackets the zero,
    # and the refinement bisects it, since there dlog F is its growth to rounding.
    # The zero moves log x by 1e-14 per ulp of the mantissa (slope 0.01), so it is
    # held at 2e-14 against mpmath's zero of F(ix) e^(-x) at 40 digits
    spec = _log_channel(-0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = find_spectrum(spec, 10.0)
    with mp.workdps(40):
        f = lambda t: mp.re(_mp_secular(spec, mp.mpc(0, mp.exp(t))) * mp.exp(-mp.exp(t)))  # noqa: E731
        want = float(mp.exp(mp.findroot(f, mp.mpf(100.0))))
    assert sp.certified and len(sp.negative) == 1
    assert abs(sp.negative[0] - want) <= 2e-14 * want


def test_zero_past_the_float_range_is_refused():
    # a' = -0.001: F(ix) vanishes where log x is about 1000, past the float range;
    # the count of (x, inf] stays 1 as x doubles, until 2x leaves the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eigenfunction.SpectrumCertificationError, match="counts zeros beyond"):
            find_spectrum(_log_channel(-0.001), 10.0)


class _Stub:
    """Stand-in evaluator for a real function f on the real axis; records each
    refinement round (each kernel pass)."""

    r = 1.0  # the length R, which scales the root tolerance
    width = 1  # the channels of its one factor

    def __init__(self, f, df, bad_dlog_at=None):
        self.f, self.df, self.bad_dlog_at = f, df, bad_dlog_at
        self.rounds = []  # the points of each round

    def _pass(self, mu, deriv):  # F is its one factor; no traces
        x = mu.real
        self.rounds.append(x.tolist())
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.df(x) / self.f(x)
        dlog = np.where(x == self.bad_dlog_at, np.nan, out).astype(complex)
        return self.f(x).astype(complex)[None], np.zeros((1,) + x.shape), dlog[None], None, None


def _cubic(x):
    return (x - 1.5) * (x - 4.0) * (x + 0.7)


def _cubic_d(x):
    return (x - 4.0) * (x + 0.7) + (x - 1.5) * (x + 0.7) + (x - 1.5) * (x - 4.0)


def _false_position(a, b, fa, fb):
    return a - fa * (b - a) / (fb - fa)


def _bracket(f, a, b):
    """A bracket of f on the real axis that starts at false position."""
    fa, fb = float(f(a)), float(f(b))
    return (-1.0, 0, a, b, fa, _false_position(a, b, fa, fb))


def test_refine_iterate_exactly_on_a_zero():
    # false position puts the first iterate of [1, 2] exactly on 1.5, where F = 0
    # (and dlog F is not finite); that root stops after its first round, the
    # other one goes on
    ev = _Stub(_cubic, _cubic_d)
    start = _false_position(1.0, 2.0, -1.0, 1.0)
    roots = eigenfunction._refine(ev, [(-1.0, 0, 1.0, 2.0, -1.0, start), _bracket(_cubic, 3.0, 5.0)])
    assert roots[0] == 1.5
    assert abs(roots[1] - 4.0) <= 1e-13
    assert 1.5 in ev.rounds[0]
    assert len(ev.rounds) > 1 and all(1.5 not in xs for xs in ev.rounds[1:])


def test_refine_bisects_where_dlog_is_not_finite():
    first = _bracket(_cubic, 3.0, 5.0)[-1]  # the false-position start
    ev = _Stub(_cubic, _cubic_d, bad_dlog_at=first)
    (root,) = eigenfunction._refine(ev, [_bracket(_cubic, 3.0, 5.0)])
    assert abs(root - 4.0) <= 1e-13
    assert ev.rounds[0] == [first] and ev.rounds[1][0] in (0.5 * (3.0 + first), 0.5 * (first + 5.0))


def test_refine_bisects_steps_that_leave_the_bracket():
    # a dlog F of the wrong sign sends every step away from the root and out of
    # the bracket: the refinement is plain bisection and still converges
    ev = _Stub(_cubic, lambda x: -_cubic_d(x))
    (root,) = eigenfunction._refine(ev, [_bracket(_cubic, 3.0, 5.0)])
    assert abs(root - 4.0) <= 1e-13
    assert 40 <= len(ev.rounds) <= 50


def test_refine_bisects_steps_that_do_not_halve():
    # near a flat root plain Newton shrinks the step by only 4/5 a round
    # (13 rounds here); bisecting a step that does not halve in two takes 7
    f = lambda x: (x - 4.0) ** 5 + 1e-4 * (x - 4.0)  # noqa: E731
    ev = _Stub(f, lambda x: 5.0 * (x - 4.0) ** 4 + 1e-4)
    (root,) = eigenfunction._refine(ev, [_bracket(f, 3.0, 5.5)])
    assert abs(root - 4.0) <= 1e-13
    assert len(ev.rounds) <= 8


def _square(x):
    return x * x - 2.0


def test_refine_ends_a_quadratic_root_without_a_confirming_round():
    # Newton on x^2 - 2 from false position's 4/3 moves 0.083, 2.5e-3, 2.1e-6 and
    # 1.6e-12: each step is about the square of the one before over 2 sqrt(2).  The
    # last one is above the root tolerance, 1e-13 + 4 eps sqrt(2), so the step rule
    # alone would take a fifth round at the root to confirm it; the next step it
    # predicts, dx^3 / dx_last^2 = 9e-25, is below 4 eps |x|, so the root ends there
    ev = _Stub(_square, lambda x: 2.0 * x)
    (root,) = eigenfunction._refine(ev, [_bracket(_square, 1.0, 2.0)])
    assert root == math.sqrt(2.0)
    assert len(ev.rounds) == 4 and abs(ev.rounds[-1][0] - root) > 1e-13


def test_refine_ends_a_root_whose_newton_target_passes_its_bracket_end():
    # the bracket's upper end is sqrt(2) to rounding, and x^2 - 2 is convex, so every
    # Newton target from below lands past it: each round is bisected, and no Newton
    # step is accepted for the quadratic stop to read.  Once the overshoot,
    # about e^2 / (2 sqrt(2)) from a distance e below, is within the root tolerance
    # the root ends at that end (20 rounds), about 20 rounds before the bracket's
    # width would
    ev = _Stub(_square, lambda x: 2.0 * x)
    start = _false_position(1.0, math.sqrt(2.0), -1.0, 1.0)
    (root,) = eigenfunction._refine(ev, [(-1.0, 0, 1.0, math.sqrt(2.0), -1.0, start)])
    assert root == math.sqrt(2.0)
    assert all(xs[0] < root for xs in ev.rounds) and 18 <= len(ev.rounds) <= 22


def _hermite_start(f, df, a, b):
    ends = [np.array([v]) for v in (a, b)]
    return eigenfunction._start(*ends, *(g(v) for g in (f, df) for v in ends))[0]


@pytest.mark.parametrize("a, b", [(1.4, 1.6), (1.3, 1.65), (3.98, 4.03), (3.99, 4.0001)])
def test_start_recovers_the_root_of_a_cubic(a, b):
    # the Hermite interpolant of a cubic's values and slopes at two points is the
    # cubic, so two Newton steps on it from false position, here 2e-3 from the
    # root or nearer, reach that root to rounding
    root = next(r for r in (1.5, 4.0) if a < r < b)
    got = _hermite_start(_cubic, _cubic_d, a, b)
    assert abs(got - root) <= 8.0 * EPS * root
    fp = _bracket(_cubic, a, b)[-1]
    assert abs(got - root) < 1e-3 * abs(fp - root)


def test_start_lies_strictly_inside_its_bracket():
    # values and slopes that do not come from one function, slopes of the wrong
    # sign and of every size among them: a Newton step that leaves the bracket,
    # or lands on an end, gives way to false position, which lies inside
    rng = np.random.default_rng(3)
    n = 4000
    a = rng.uniform(-5.0, 5.0, n)
    b = a + 10.0 ** rng.uniform(-8.0, 1.0, n)
    sign = rng.choice([-1.0, 1.0], n)
    fa, fb = sign * [[1.0], [-1.0]] * 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
    da, db = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-6.0, 9.0, (2, n))
    got = eigenfunction._start(a, b, fa, fb, da, db)
    assert np.all((a < got) & (got < b))
    fp = _false_position(a, b, fa, fb)
    assert 0 < np.count_nonzero(got == fp) < n  # both branches are taken


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_start_falls_back_to_false_position_on_a_slope_that_is_not_finite(bad):
    # dlog F is not finite at a zero of F, e.g. mu = 0 on a kernel
    a, b = np.array([3.0, 3.0]), np.array([5.0, 5.0])
    fa, fb, da, db = _cubic(a), _cubic(b), _cubic_d(a), _cubic_d(b)
    da[0], db[1] = bad, bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eigenfunction._start(a, b, fa, fb, da, db)
    assert got.tolist() == [_bracket(_cubic, 3.0, 5.0)[-1]] * 2


def _row_series_oracle(orders, w0, terms):
    """mpmath's Taylor coefficients e_j = c_j w0^j in u = w / w0 - 1 of phi_s at every
    order and of psi about w0, from their power series sum_n a_n w^(2n):
    e_j = sum_n a_n C(2n, j) w0^(2n), at 60 digits."""
    with mp.workdps(60):
        w = mp.mpf(w0)
        series = [
            [(-1) ** n / (mp.factorial(n) * mp.gamma(n + mp.mpf(s) + 1) * 4**n) for n in range(150)]
            for s in orders
        ]
        series.append([mp.harmonic(n) * (-1) ** n / (mp.factorial(n) ** 2 * 4**n) for n in range(150)])
        coeff = lambda row, j: mp.fsum(a * mp.binomial(2 * n, j) * w ** (2 * n) for n, a in enumerate(row))  # noqa: E731
        return np.array([[float(coeff(row, j)) for j in range(terms)] for row in series])


@pytest.mark.parametrize("w0", [0.6, 3.0, 40.0])
def test_row_series_matches_mpmath(w0):
    # the recurrence of the Bessel equations, fed the rows V and D at w0, gives the
    # Taylor coefficients of phi_s (s = 0, +-0.3, 0.9) and of psi there; they are
    # held on |u| <= 1/2, where a root of the Taylor step may lie: each e_j / 2^j
    # within 1e-14 of the sum of the |e_j| / 2^j
    orders = [0.0, 0.3, -0.3, 0.9]
    terms = eigenfunction._TAYLOR_TERMS + 3
    want = _row_series_oracle(orders, w0, terms)
    got = eigenfunction._row_series(
        KernelTable(orders), np.array([w0]), want[None, :, 0], want[None, :, 1] / w0
    )
    assert got.shape == (terms, len(orders) + 1, 1)
    half = 0.5 ** np.arange(terms)
    err = np.abs(got[:, :, 0].T - want) * half
    assert np.all(err.max(axis=1) <= 1e-14 * (np.abs(want) * half).sum(axis=1))


TAYLOR_SPECS = {  # q = 1 operators, mu_max R = 30 pi: the first root's mu R, the roots refined
    "log channel, Robin, R = 1": (
        OperatorSpec(
            r=1.0, lambdas=(-0.25,), q0=1, boundary=BoundaryMatrices([[0.3]], [[1.0]]), regular_bc=Robin(0.5)
        ),
        0.93,
        0,
    ),
    "singular tip, Dirichlet, R = 4": (scalar_spec(0.6, Dirichlet(), tip="singular", r=4.0), 1.38, 0),
    # the first root lies in the cell (0.025, 0.81] of w, 0.45 from its nearer end, past w0 / 2
    "regular tip, Robin, R = 0.5": (scalar_spec(0.3, Robin(-1.5), r=0.5), 0.36, 1),
}


@pytest.mark.parametrize("name", sorted(TAYLOR_SPECS))
def test_taylor_roots_match_mpmath(name):
    # every root within the refinement's tolerance of mpmath's root of F at 20
    # digits, from mu R below 1 up to 94, every one but a first-cell root read
    # off its channel's Taylor polynomial at a bracket end
    spec, first, refined = TAYLOR_SPECS[name]
    sp = find_spectrum(spec, 30.0 * math.pi / spec.r)
    mu_r = np.array(sp.positive) * spec.r
    assert len(mu_r) == 30 and mu_r[0] == pytest.approx(first, abs=0.01) and mu_r[-1] > 90.0
    assert sp.negative == () and (sp.taylor_roots, sp.refined_roots) == (30 - refined, refined)
    with mp.workdps(20):
        for x in sp.positive:
            want = float(mp.findroot(lambda m: mp.re(_mp_secular(spec, m)), mp.mpf(x)))
            assert abs(x - want) <= eigenfunction._ROOT_XTOL / spec.r + eigenfunction._ROOT_RTOL * x


def test_taylor_roots_keep_the_dilation_law_at_a_huge_r():
    # at R = 2.34e298 the factor's mantissa reads +-1 but within about R^(-2 nu) of
    # each root, where the Newton rounds had stopped 1.1e-11 relative short of the
    # second root; the Taylor roots are those for R = 1 over R, within tolerance
    r, nu = 2.341424833012944e298, 0.019096035315604654
    sp = find_spectrum(scalar_spec(nu, Dirichlet(), r=r), 20.0 * math.pi / r)
    unit = find_spectrum(scalar_spec(nu, Dirichlet()), 20.0 * math.pi)
    assert sp.taylor_roots == len(sp.positive) == len(unit.positive) == 20
    want = np.array(unit.positive) / r
    assert np.all(np.abs(np.array(sp.positive) - want) <= eigenfunction._ROOT_XTOL / r + 4.0 * EPS * want)


def test_taylor_root_stands_only_within_half_its_end():
    # the root mu R = 0.3586 from the rows at w0 = mu R / 0.45 and mu R / 0.55, u =
    # -0.55 and -0.45: the omitted terms are about 1e-16 at both, but only the
    # nearer end keeps the recurrence's parasitic solution below 2^-j
    spec = TAYLOR_SPECS["regular tip, Robin, R = 0.5"][0]
    ev, root = SecularEvaluator(spec), find_spectrum(spec, 1.0).positive[0]
    xe = root / np.array([0.45, 0.55])
    val, der = (v.real.T for v in phi_rows(ev._kernel, xe * spec.r))
    x, ok = eigenfunction._taylor(ev, np.full(2, root), xe, val, der, np.zeros(2, int), np.zeros(2), xe)
    assert ok.tolist() == [False, True]
    assert abs(x[1] - root) <= eigenfunction._ROOT_XTOL / spec.r + eigenfunction._ROOT_RTOL * root


def test_brackets_that_fail_the_bound_are_refined_as_before(monkeypatch):
    # with 8 terms only the root nearest its bracket end meets the bound; every
    # other one is the root that the Newton rounds give from the Hermite start,
    # bit for bit, as when no Taylor root stands, and within tolerance of the
    # 14-term Taylor roots
    spec, mu_max = scalar_spec(0.3, Robin(0.5)), 30.0 * math.pi
    full = find_spectrum(spec, mu_max)
    taylor, stood = eigenfunction._taylor, []

    def recorded(*args):
        x, ok = taylor(*args)
        stood.extend(x[ok].tolist())
        return x, ok

    monkeypatch.setattr(eigenfunction, "_taylor", recorded)
    monkeypatch.setattr(eigenfunction, "_TAYLOR_TERMS", 8)
    short = find_spectrum(spec, mu_max)
    monkeypatch.setattr(eigenfunction, "_taylor", lambda *args: (taylor(*args)[0], np.zeros(len(args[1]), bool)))
    refined = find_spectrum(spec, mu_max)
    assert (short.taylor_roots, short.refined_roots) == (len(stood), 29) and len(stood) == 1
    assert (refined.taylor_roots, refined.refined_roots) == (0, 30) and refined.passes == 3
    i = short.positive.index(stood[0])
    assert short.positive[:i] + short.positive[i + 1 :] == refined.positive[:i] + refined.positive[i + 1 :]
    tol = eigenfunction._ROOT_XTOL + eigenfunction._ROOT_RTOL * np.array(full.positive)
    assert np.all(np.abs(np.array(short.positive) - full.positive) <= tol)


def test_far_imaginary_bracket_starts_at_its_midpoint(monkeypatch):
    # the a' = -0.01 log channel's zero lies in the cell (1.67e43, 3.35e43] of the
    # doubled cuts, where the far end's scale is capped inside the float range: the
    # Hermite and false-position starts land on the lower end, which the scan
    # sampled.  The start is the midpoint, so no Newton round samples a scanned
    # point: the rounds are those that followed a first round on that end, so the
    # search takes 187 passes, not 188, to the same zero
    scanned, rounds = [], []
    sample, kernel_pass, refine = SecularEvaluator.sample, SecularEvaluator._pass, eigenfunction._refine
    monkeypatch.setattr(SecularEvaluator, "sample", lambda ev, mu: scanned.append(mu) or sample(ev, mu))

    def recorded_pass(ev, mu, deriv=False):
        rounds.append(mu)
        return kernel_pass(ev, mu, deriv)

    def recorded_refine(ev, brackets):
        with monkeypatch.context() as m:
            m.setattr(SecularEvaluator, "_pass", recorded_pass)
            return refine(ev, brackets)

    monkeypatch.setattr(eigenfunction, "_refine", recorded_refine)
    sp = find_spectrum(_log_channel(-0.01), 10.0)
    assert sp.passes <= 188 and len(rounds) == sp.passes - sp.scan_passes
    assert not set(np.concatenate(scanned).tolist()) & set(np.concatenate(rounds).tolist())
    (x,) = sp.negative
    assert abs(x - 3.018537724422777e43) <= eigenfunction._ROOT_XTOL + eigenfunction._ROOT_RTOL * x


def test_spectrum_reports_its_scan_and_its_rounds():
    # the scan's passes and the Newton rounds, and the roots read off a Taylor
    # polynomial and those refined, add up; a multiple root is neither
    channels, bc, r, mu_max = ORACLE_CHANNELS["q2 negative"]
    spec = diagonal_spec([scalar_spec(nu, bc, tip=t, r=r) for nu, t in channels])
    sp = find_spectrum(spec, mu_max)
    assert sp.scan_passes >= 1 and sp.passes > sp.scan_passes
    assert (sp.taylor_roots, sp.refined_roots) == (len(sp.positive), len(sp.negative))
    robin = scalar_spec(0.3, Robin(0.5))
    doubled = find_spectrum(_rotated(diagonal_spec([robin, robin]), 0, 1), 10.0)
    assert doubled.taylor_roots == 0 and doubled.refined_roots == 0 and doubled.passes == doubled.scan_passes


def test_jacobi_marks_only_the_singular_matrix_of_a_stack():
    # np.linalg.solve refuses a stack that holds one exactly singular N (mu on a
    # zero of F): that point reads NaN, every other one tr(N^-1 N')
    ev = SecularEvaluator(_rotated(diagonal_spec([scalar_spec(0.3, Robin(0.5))] * 2), 0, 1))
    assert not ev.diagonal
    rng = np.random.default_rng(7)
    n = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    n[1] = [[1.0, 2.0], [2.0, 4.0]]
    dn = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(n, dn)
    got = ev._jacobi(np.zeros(3, dtype=bool), n, dn, np.ones((3, 2)))
    assert got.shape == (1, 3) and np.isnan(got[0, 1])
    for i in (0, 2):
        assert got[0, i] == pytest.approx(np.trace(np.linalg.solve(n[i], dn[i])), rel=1e-14)


def test_coupled_root_on_a_bracket_end_takes_few_passes():
    # Newton reaches the root 21.8779732 in round 4, where F's mantissa is 6.8e-18;
    # N over the column maxima was singular in floating point there, so dlog F was
    # NaN, and the search bisected past the root for 45 more rounds (50 passes).
    # dlog F now takes N over the mantissa's own column scales.  Roots held against
    # mpmath's zeros of F at 30 digits
    spec = OperatorSpec(
        r=1.0,
        lambdas=(0.2**2 - 0.25, 0.7**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices([[-0.5, 0.2], [0.2, -0.1]], np.eye(2)),
        regular_bc=Robin(1.0),
    )
    sp = find_spectrum(spec, 15.0 * math.pi)
    assert sp.passes <= 8 and len(sp.positive) == 31 and sp.negative == ()
    assert abs(sp.positive[14] - 21.8779732) < 1e-7
    with mp.workdps(30):
        for x in (sp.positive[0], sp.positive[13], sp.positive[14], sp.positive[15]):
            want = float(mp.findroot(lambda m: mp.re(_mp_secular(spec, m)), mp.mpf(x)))
            assert abs(x - want) <= 1e-13 * want


class TestSpectrum:
    def test_large_r_fixture_matches_scipy(self):
        # R = 200, nu = 0.3, Robin(0.5): at mu R ~ 2600 the refined residual is
        # F's rounding floor, above 1e-10 of the end values of its bracket.  The
        # roots are w / R for the zeros w of 100.5 J_nu(w) + w J_nu'(w)
        doc = json.loads((FIXTURES / "large_r.json").read_text())
        spec = parse_operator_document(doc)
        sp = find_spectrum(spec, 100.0)
        nu, r = math.sqrt(spec.lambdas[0] + 0.25), spec.r

        def g(w):
            return (0.5 + spec.regular_bc.alpha * r) * jv(nu, w) + w * jvp(nu, w)

        w = np.linspace(1e-3, 100.0 * r, 200001)
        v = g(w)
        idx = np.flatnonzero(v[:-1] * v[1:] < 0.0)
        want = [brentq(g, w[i], w[i + 1], xtol=1e-300, rtol=4.0 * EPS) / r for i in idx]
        assert len(sp.positive) == len(want) == 6366 and sp.negative == ()
        assert np.max(np.abs(np.array(sp.positive) / want - 1.0)) <= 8.0 * EPS

    def test_dirichlet_roots_are_multiples_of_pi(self, dirichlet_half):
        sp = find_spectrum(dirichlet_half, 10.5 * math.pi)
        assert sp.certified and len(sp.positive) == 10
        for k, root in enumerate(sp.positive, start=1):
            assert abs(root - k * math.pi) < 1e-8
        assert sp.negative == ()

    def test_bessel_roots(self, kernel_fixture_bessel, j1_zeros_oracle):
        sp = find_spectrum(kernel_fixture_bessel, 18.0)
        assert len(sp.positive) == len(j1_zeros_oracle)
        for got, want in zip(sp.positive, j1_zeros_oracle):
            assert abs(got - want) < 1e-8

    def test_tan_fixed_points(self, kernel_fixture_third):
        sp = find_spectrum(kernel_fixture_third, 8.0)
        oracle = bisect_root(lambda t: math.sin(t) / t - math.cos(t), 3.5, 4.6)
        assert abs(sp.positive[0] - 4.4934) < 1e-3
        assert abs(sp.positive[0] - oracle) < 1e-9

    def test_negative_eigenvalue_found(self):
        spec = scalar_spec(0.5, Robin(-3.0), tip="regular")
        sp = find_spectrum(spec, 6.0)
        oracle = bisect_root(lambda x: x / math.tanh(x) - 3.0, 1.0, 5.0)
        assert len(sp.negative) == 1
        assert abs(sp.negative[0] - oracle) < 1e-9

    @pytest.mark.parametrize("r", [30.0, 1000.0])
    def test_log_channel_negative_eigenvalue_does_not_scale(self, r):
        # a nu = 0 singular-tip channel carries the log of x itself, not of x / R:
        # as R grows its F(ix) vanishes at x -> 2 e^(-gamma), the zero of its
        # model, whatever R is, far beyond the imaginary grid's end x R = 12; the
        # count of (0, inf] sees it, and the cuts at doubled x R reach it
        sp = find_spectrum(scalar_spec(0.0, Dirichlet(), tip="singular", r=r), 30.0 / r)
        assert sp.negative == (pytest.approx(2.0 * math.exp(-np.euler_gamma), rel=1e-14),)

    def test_interval_length_scales_roots(self):
        # Dirichlet ends on (0, 2] push the sine roots to k pi / R
        spec = scalar_spec(0.5, Dirichlet(), tip="regular", r=2.0)
        sp = find_spectrum(spec, 7.0)
        for k, root in enumerate(sp.positive, start=1):
            assert abs(root - k * math.pi / 2.0) < 1e-10

    def test_large_interval_matches_scipy_oracle(self):
        # R = 200: rows grow like exp(|Im mu| R) on the imaginary scan
        nu, alpha, r = 0.3, 0.5, 200.0
        sp = find_spectrum(scalar_spec(nu, Robin(alpha), r=r), 1.0)

        def oracle(mu):
            # Robin condition on sqrt(x) J_nu(mu x), divided by sqrt(R)
            return (0.5 / r + alpha) * jv(nu, mu * r) + mu * jvp(nu, mu * r)

        grid = np.linspace(1e-4, 1.0, 20001)
        vals = oracle(grid)
        want = [
            bisect_root(oracle, grid[i], grid[i + 1])
            for i in range(len(grid) - 1)
            if vals[i] * vals[i + 1] < 0.0
        ]
        assert len(sp.positive) == len(want) == 64
        assert max(abs(a - b) for a, b in zip(sp.positive, want)) < 1e-8
        assert sp.negative == ()

    @pytest.mark.parametrize("shift, axis", [(1e-6, "positive"), (-1e-6, "negative")])
    def test_root_below_the_first_grid_point(self, shift, axis):
        # Robin(-0.8 +- 1e-6) puts F(0) = -+1e-6 and a root near 1.6e-3, below
        # the first grid point; F(0) != 0 is the sample that shows it
        nu, alpha = 0.3, -0.8 + shift
        sp = find_spectrum(scalar_spec(nu, Robin(alpha)), 2.0)
        if axis == "positive":  # Robin condition on sqrt(x) J_nu(mu x)
            oracle = bisect_root(lambda m: (0.5 + alpha) * jv(nu, m) + m * jvp(nu, m), 1e-4, 1e-2)
        else:  # and on sqrt(x) I_nu(t x), the solution at mu = i t
            oracle = bisect_root(lambda t: (0.5 + alpha) * iv(nu, t) + t * ivp(nu, t), 1e-4, 1e-2)
        assert sp.certified
        got, other = (sp.positive, sp.negative) if axis == "positive" else (sp.negative, sp.positive)
        assert len(got) == 1 and other == ()
        assert abs(got[0] - oracle) < 1e-9 * oracle

    def test_refinement_rounds_do_not_grow_with_the_roots(self, monkeypatch, diagonal_pair):
        # every root of an axis is refined in the same array rounds, so about
        # four times as many roots (13, then 51) take no more F and dlog F calls
        calls = _count_calls(monkeypatch)
        found = []
        for mu_max in (20.0, 80.0):
            calls.clear()
            sp = find_spectrum(diagonal_pair, mu_max)
            found.append(len(sp.positive) + len(sp.negative))
            assert calls["_dlog"] <= 12 and calls["scaled"] <= 40, dict(calls)
        assert found[1] >= 3 * found[0] > 10

    def test_each_axis_samples_its_points_once(self, monkeypatch, diagonal_pair, kernel_fixture_third):
        # the first pass samples the real grid from mu = 0, whose angles start the
        # imaginary axis too: without negative eigenvalues no imaginary point but
        # mu = 0 is sampled.  Every later pass samples only the points that cut
        # the cells that count (the rotated doubled operator's three double roots;
        # the imaginary grid for the one negative eigenvalue), none of them twice.
        # The diagonal doubled operator brackets each channel's roots on its own;
        # on the negative pair both channels cut the one span (0, inf], which is
        # sampled once for the two
        passes = []
        sample = SecularEvaluator.sample

        def recorded(self, mu):
            passes.append(mu)
            return sample(self, mu)

        monkeypatch.setattr(SecularEvaluator, "sample", recorded)
        robin = scalar_spec(0.3, Robin(0.5))
        doubled = diagonal_spec([robin, robin])
        rotated = _rotated(doubled, 0, 1)
        channels, bc, r, _ = ORACLE_CHANNELS["q2 negative pair"]
        pair = diagonal_spec([scalar_spec(nu, bc, tip=tip, r=r) for nu, tip in channels])
        specs = (diagonal_pair, scalar_spec(0.5, Robin(-3.0)), kernel_fixture_third, doubled, rotated, pair)
        for spec in specs:
            passes.clear()
            sp = find_spectrum(spec, 10.0)
            assert (len(passes) > 1) == (spec is rotated or bool(sp.negative))
            assert np.all(passes[0].imag == 0.0) and np.any(passes[0].real > 0.0)
            mu = np.concatenate(passes)
            assert np.count_nonzero(mu == 0.0) == 1
            real, imag = mu.real[mu.imag == 0.0], mu.imag[mu.real == 0.0]
            assert np.any(imag > 0.0) == bool(sp.negative)
            for pts in (real[real > 0.0], imag[imag > 0.0]):
                assert np.unique(pts).size == pts.size

    @pytest.mark.parametrize("mu_max", [0.0, -1.0, math.inf, math.nan])
    def test_mu_max_must_be_positive_and_finite(self, diagonal_pair, mu_max):
        # an infinite end has no grid, and NaN none either
        with pytest.raises(ValueError, match="positive and finite"):
            find_spectrum(diagonal_pair, mu_max)

    def test_one_kernel_pass_per_refinement_round(self, monkeypatch):
        # both axes are refined together; every Newton round takes F and dlog F
        # from one pass, and the residuals are read from those rounds.  The real
        # roots of a coupled tip are refined with its negative one; those of a
        # diagonal tip come from their Taylor polynomials, so that only its
        # imaginary axis is refined
        seen = []
        kernel_pass, refine = SecularEvaluator._pass, eigenfunction._refine

        def counted_pass(self, mu, deriv=False):
            if seen:
                seen[-1]["rounds"] += 1
            return kernel_pass(self, mu, deriv)

        def counted_refine(ev, brackets):
            seen.append({"rounds": 0})
            before = ev.counts["passes"]
            roots = refine(ev, brackets)
            seen[-1].update(axes={b[0] for b in brackets}, passes=ev.counts["passes"] - before)
            return roots

        monkeypatch.setattr(SecularEvaluator, "_pass", counted_pass)
        monkeypatch.setattr(eigenfunction, "_refine", counted_refine)
        coupled, coupled_max, _ = COUPLED_TIPS["q3 root at x R = 25"]
        channels, bc, r, mu_max = ORACLE_CHANNELS["q2 negative"]
        diagonal = diagonal_spec([scalar_spec(nu, bc, tip=t, r=r) for nu, t in channels])
        for spec, top, axes in ((coupled, coupled_max, {-1.0, 1.0}), (diagonal, mu_max, {1.0})):
            seen.clear()
            sp = find_spectrum(spec, top)
            (call,) = seen
            assert sp.positive and sp.negative
            assert call["axes"] == axes
            assert 1 <= call["rounds"] == call["passes"] == sp.passes - sp.scan_passes

    def test_roots_annihilate_boundary_system(self, diagonal_pair):
        # on the diagonal tip each factor is N_ll over its column scale: at a root
        # the factor whose root it is vanishes to rounding
        ev = SecularEvaluator(diagonal_pair)
        sp = find_spectrum(diagonal_pair, 9.0)
        for root in sp.positive[:4]:
            mant = ev._pass(np.array([root]))[0][:, 0]
            assert np.min(np.abs(mant)) < 1e-8


class TestAsymptoticModel:
    def test_exponent_arithmetic(self, kernel_fixture_two):
        m = SecularEvaluator(kernel_fixture_two).model
        # singular-branch rows: alpha0 = 0, exponent = 1/2 + 1/2
        assert m.exponent == pytest.approx(1.0)
        assert m.log_power == 0
        assert m.c == pytest.approx(0.5)

    def test_dirichlet_exponent_arithmetic(self, dirichlet_half):
        m = SecularEvaluator(dirichlet_half).model
        # trace rows lose a power of x each: 1/2 - 1/2 - 2*(1/2)
        assert m.exponent == pytest.approx(-1.0)
        assert m.c == pytest.approx(-0.5)

    def test_log_power_vanishes_when_j0_equals_q0(self, kernel_fixture_bessel):
        assert SecularEvaluator(kernel_fixture_bessel).model.log_power == 0

    def test_model_error_shrinks(self):
        for spec in [robin_regular(0.3, 0.0), robin_regular(0.0, 1.0)]:
            e20 = abs(asymptotic_log_F_imag(spec, 20.0) - log_F_imag(spec, 20.0)) / abs(
                log_F_imag(spec, 20.0)
            )
            e40 = abs(asymptotic_log_F_imag(spec, 40.0) - log_F_imag(spec, 40.0)) / abs(
                log_F_imag(spec, 40.0)
            )
            assert e40 < e20

    def test_domain_guard(self, dirichlet_half):
        with pytest.raises(ValueError):
            asymptotic_log_F_imag(dirichlet_half, 5.0)
        # the model is asymptotic in x R
        spec = scalar_spec(0.5, Dirichlet(), r=0.1)
        with pytest.raises(ValueError, match="x R >= 10"):
            asymptotic_log_F_imag(spec, 50.0)
        assert math.isfinite(asymptotic_log_F_imag(spec, 100.0).real)


class TestContourDecay:
    def test_magnitudes_shrink(self, kernel_fixture_bessel):
        mags = verify_contour_decay(kernel_fixture_bessel, s=2.0, a_list=[8.2, 8.2 + 2 * math.pi])
        assert mags[1] < mags[0]

    def test_doubling_the_abscissa_shrinks(self, kernel_fixture_bessel):
        mags = verify_contour_decay(kernel_fixture_bessel, s=2.0, a_list=[8.2, 16.4])
        assert mags[1] < mags[0]

    def test_arc_piece_decays_alone(self, kernel_fixture_bessel):
        ev, theta = SecularEvaluator(kernel_fixture_bessel), math.pi / 4.0
        arcs = [eigenfunction._contour_integral(ev, 1.0, a, theta)[1] for a in (8.2, 8.2 + 2 * math.pi)]
        assert arcs[1] < arcs[0]

    @pytest.mark.parametrize("r", [0.01, 0.1, 10.0, 100.0])
    def test_dilation_law(self, r):
        # z = w / R turns z^(-2) dlog F dz on (0, R] into R^2 w^(-2) dlog F dw on
        # (0, 1]: the abscissae, their validated range and the shifts off the
        # zeros of F all scale with 1/R
        a_unit = [8.2, 8.2 + 2.0 * math.pi, 30.0]
        want = verify_contour_decay(scalar_spec(0.5, Robin(0.7)), 1.0, a_unit)
        spec = scalar_spec(0.5, Robin(0.7 / r), r=r)
        got = verify_contour_decay(spec, 1.0, [a / r for a in a_unit])
        assert np.max(np.abs(np.array(got) / (r * r * np.array(want)) - 1.0)) <= 1e-14

    def test_rejects_bad_parameters(self, kernel_fixture_bessel):
        with pytest.raises(ValueError):
            verify_contour_decay(kernel_fixture_bessel, s=0.4, a_list=[8.0])
        with pytest.raises(ValueError):
            verify_contour_decay(kernel_fixture_bessel, s=1.0, a_list=[8.0], theta=2.0)

    @pytest.mark.parametrize(
        "s, a_list", [(math.nan, [8.0]), (math.inf, [8.0]), (2.0, [math.nan]), (2.0, [8.0, math.nan])]
    )
    def test_rejects_non_finite_input_before_any_pass(self, kernel_fixture_bessel, monkeypatch, s, a_list):
        monkeypatch.setattr(SecularEvaluator, "_pass", lambda *a, **k: pytest.fail("kernel pass"))
        with pytest.raises(ValueError):
            verify_contour_decay(kernel_fixture_bessel, s, a_list)


@settings(max_examples=20, deadline=None)
@given(
    nu=st.floats(min_value=0.0, max_value=0.95),
    alpha=st.floats(min_value=-0.4, max_value=2.0),
    x=st.floats(min_value=0.2, max_value=10.0),
)
def test_f_is_even_property(nu, alpha, x):
    spec = robin_regular(nu, alpha)
    ev = SecularEvaluator(spec)
    assert ev.value(x) == ev.value(-x)
