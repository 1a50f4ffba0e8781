"""Secular determinant: closed forms, zeros, kernel order, asymptotics."""

import cmath
import math
import warnings
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import iv, ivp, jv, jvp

from regsing import eigenfunction
from regsing._numutil import NumericalError
from regsing.eigenfunction import (
    AsymptoticModel,
    SecularEvaluator,
    _same_brackets,
    asymptotic_log_F_imag,
    eval_F,
    eval_F_at_zero,
    find_spectrum,
    kernel_order,
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
from tests.conftest import bisect_root, robin_regular


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
        assert eval_F_at_zero(spec) == pytest.approx(want, rel=1e-13)
        # and the logarithmic column itself, through singular-branch rows
        if nu == 0.0:
            spec2 = scalar_spec(nu, Robin(alpha), tip="singular", r=r)
            want2 = kappa * math.log(r) + 1.0 / math.sqrt(r)
            assert eval_F_at_zero(spec2) == pytest.approx(want2, rel=1e-13)

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
        assert kernel_order(kernel_fixture_third) == 1
        assert kernel_order(kernel_fixture_two) == 1
        assert kernel_order(kernel_fixture_bessel) == 1

    def test_invertible_family(self):
        for nu in [0.0, 0.3, 0.9]:
            for alpha in [0.0, 1.0, -0.2]:
                assert kernel_order(robin_regular(nu, alpha)) == 0

    def test_q2_product_kernel(self):
        spec = diagonal_spec(
            [scalar_spec(0.5, Robin(-1.0), tip="regular"),
             scalar_spec(0.5, Robin(-1.0), tip="singular")]
        )
        # second block: singular rows with alpha=-1 -> F2(0) = 1/2 - ... != 0
        k = kernel_order(spec)
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
        model = AsymptoticModel.from_spec(spec)
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
    for l, nu in enumerate(spec.nus):
        m[q + l, l] = branch(mp.mpf(nu))
        m[q + l, q + l] = companion() if l < spec.q0 else branch(-mp.mpf(nu))
    return mp.det(m)


@pytest.mark.parametrize("name", sorted(ARRAY_SPECS))
def test_dlog_matches_mpmath(name):
    spec = ARRAY_SPECS[name]
    # |w| < 1, the imaginary axis below and above |w| = 1, |w| > 1, and two arcs
    mus = [0.3 + 0.2j, 0.05j, 3.0j, 5.0 + 2.0j, 0.1 * cmath.exp(-1.2j), 12.0 * cmath.exp(0.9j)]
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


def _count_calls(monkeypatch) -> Counter:
    """Count F calls (key "scaled") and dlog F calls (key "_dlog") of
    SecularEvaluator from now on; one fused _scaled_dlog call is one of each."""
    calls = Counter()
    counts = {"scaled": ("scaled",), "_dlog": ("_dlog",), "_scaled_dlog": ("scaled", "_dlog")}
    for name, keys in counts.items():
        method = getattr(SecularEvaluator, name)

        def counted(self, *args, _method=method, _keys=keys, **kwargs):
            calls.update(_keys)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(SecularEvaluator, name, counted)
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
    if name == "q2 negative":
        assert len(sp.negative) == 2


class _Stub:
    """Stand-in evaluator for a real function f on the real axis; records each
    refinement round (each F and dlog F call)."""

    def __init__(self, f, df, bad_dlog_at=None):
        self.f, self.df, self.bad_dlog_at = f, df, bad_dlog_at
        self.rounds = []  # the points of each round

    def scaled(self, mu):
        return self.f(mu.real).astype(complex), np.zeros(mu.shape)

    def _scaled_dlog(self, mu):
        x = mu.real
        self.rounds.append(x.tolist())
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.df(x) / self.f(x)
        dlog = np.where(x == self.bad_dlog_at, np.nan, out).astype(complex)
        return (*self.scaled(mu), dlog)


def _cubic(x):
    return (x - 1.5) * (x - 4.0) * (x + 0.7)


def _cubic_d(x):
    return (x - 4.0) * (x + 0.7) + (x - 1.5) * (x + 0.7) + (x - 1.5) * (x - 4.0)


def _bracket(f, a, b):
    return (a, b, 0.0, float(f(a)), float(f(b)))


def test_refine_iterate_exactly_on_a_zero():
    # false position puts the first iterate of [1, 2] exactly on 1.5, where F = 0
    # (and dlog F is not finite); that root stops after its first round, the
    # other one goes on
    ev = _Stub(_cubic, _cubic_d)
    roots = eigenfunction._refine(ev, [(1.0, 2.0, 0.0, -1.0, 1.0), _bracket(_cubic, 3.0, 5.0)], "real")
    assert roots[0] == 1.5
    assert abs(roots[1] - 4.0) <= 1e-13
    assert 1.5 in ev.rounds[0]
    assert len(ev.rounds) > 1 and all(1.5 not in xs for xs in ev.rounds[1:])


def test_refine_bisects_where_dlog_is_not_finite():
    first = 3.0 - _cubic(3.0) * 2.0 / (_cubic(5.0) - _cubic(3.0))  # the false-position start
    ev = _Stub(_cubic, _cubic_d, bad_dlog_at=first)
    (root,) = eigenfunction._refine(ev, [_bracket(_cubic, 3.0, 5.0)], "real")
    assert abs(root - 4.0) <= 1e-13
    assert ev.rounds[0] == [first] and ev.rounds[1][0] in (0.5 * (3.0 + first), 0.5 * (first + 5.0))


def test_refine_bisects_steps_that_leave_the_bracket():
    # a dlog F of the wrong sign sends every step away from the root and out of
    # the bracket: the refinement is plain bisection and still converges
    ev = _Stub(_cubic, lambda x: -_cubic_d(x))
    (root,) = eigenfunction._refine(ev, [_bracket(_cubic, 3.0, 5.0)], "real")
    assert abs(root - 4.0) <= 1e-13
    assert 40 <= len(ev.rounds) <= 50


def test_refine_bisects_steps_that_do_not_halve():
    # near a flat root plain Newton shrinks the step by only 4/5 a round
    # (13 rounds here); bisecting a step that does not halve in two takes 7
    f = lambda x: (x - 4.0) ** 5 + 1e-4 * (x - 4.0)  # noqa: E731
    ev = _Stub(f, lambda x: 5.0 * (x - 4.0) ** 4 + 1e-4)
    (root,) = eigenfunction._refine(ev, [_bracket(f, 3.0, 5.5)], "real")
    assert abs(root - 4.0) <= 1e-13
    assert len(ev.rounds) <= 8


class TestSpectrum:
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

    def test_rescans_sample_only_new_points(self, monkeypatch, diagonal_pair, kernel_fixture_third):
        # each halving rescan keeps the samples it has and evaluates only the
        # midpoints, so the samples of an axis are each taken once and together
        # form one grid (after mu = 0 when F(0) != 0)
        sampled = {"real": [], "imag": []}
        samples = eigenfunction._real_samples

        def recorded(ev, points, axis):
            sampled[axis].append(points)
            return samples(ev, points, axis)

        monkeypatch.setattr(eigenfunction, "_real_samples", recorded)
        negative = scalar_spec(0.5, Robin(-3.0))
        for spec, origin in ((diagonal_pair, 1), (negative, 1), (kernel_fixture_third, 0)):
            for points in sampled.values():
                points.clear()
            find_spectrum(spec, 20.0)
            for axis, points in sampled.items():
                assert len(points) >= 2  # the scan and at least one rescan
                pts = np.sort(np.concatenate(points))
                assert np.unique(pts).size == pts.size, axis
                assert (pts[0] == 0.0) == origin
                grid = pts[origin:]
                assert np.array_equal(grid, np.linspace(grid[0], grid[-1], grid.size)), axis

    def test_one_kernel_pass_per_refinement_round(self, monkeypatch):
        # every Newton round takes F and dlog F from one phi_rows pass; the
        # residual check is one more
        calls, seen = Counter(), []
        phi_rows, traces, refine = eigenfunction.phi_rows, SecularEvaluator._traces, eigenfunction._refine

        def counted_phi_rows(*args):
            calls["phi_rows"] += 1
            return phi_rows(*args)

        def counted_traces(self, mu, deriv=False):
            calls["rounds"] += deriv  # one derivative pass per round
            return traces(self, mu, deriv=deriv)

        def counted_refine(ev, brackets, axis):
            calls.clear()
            roots = refine(ev, brackets, axis)
            seen.append((len(roots), calls["rounds"], calls["phi_rows"]))
            return roots

        monkeypatch.setattr(eigenfunction, "phi_rows", counted_phi_rows)
        monkeypatch.setattr(SecularEvaluator, "_traces", counted_traces)
        monkeypatch.setattr(eigenfunction, "_refine", counted_refine)
        channels, bc, r, mu_max = ORACLE_CHANNELS["q2 negative"]
        find_spectrum(diagonal_spec([scalar_spec(nu, bc, tip=t, r=r) for nu, t in channels]), mu_max)
        assert len(seen) == 2 and min(n for n, _, _ in seen) > 0  # roots on both axes
        for _, rounds, passes in seen:
            assert 1 <= rounds and passes <= rounds + 1

    def test_bracket_certificate(self):
        coarse = [(1.0, 1.4, 0.0, 1.0), (3.0, 3.4, 0.0, 1.0)]
        assert _same_brackets(coarse, [(1.2, 1.4, 0.0, 1.0), (3.0, 3.2, 0.0, 1.0)])
        assert not _same_brackets(coarse, coarse[:1])  # a sign change lost
        assert not _same_brackets(coarse, [(1.2, 1.4, 0.0, 1.0), (3.5, 3.7, 0.0, 1.0)])

    def test_roots_annihilate_boundary_system(self, diagonal_pair):
        ev = SecularEvaluator(diagonal_pair)
        sp = find_spectrum(diagonal_pair, 9.0)
        for root in sp.positive[:4]:
            m = ev.matrix(root)
            sv = np.linalg.svd(m, compute_uv=False)
            assert sv[-1] / sv[0] < 1e-8


class TestAsymptoticModel:
    def test_exponent_arithmetic(self, kernel_fixture_two):
        from regsing.eigenfunction import AsymptoticModel

        m = AsymptoticModel.from_spec(kernel_fixture_two)
        # singular-branch rows: alpha0 = 0, exponent = 1/2 + 1/2
        assert m.exponent == pytest.approx(1.0)
        assert m.log_power == 0
        assert m.c == pytest.approx(0.5)

    def test_dirichlet_exponent_arithmetic(self, dirichlet_half):
        from regsing.eigenfunction import AsymptoticModel

        m = AsymptoticModel.from_spec(dirichlet_half)
        # trace rows lose a power of x each: 1/2 - 1/2 - 2*(1/2)
        assert m.exponent == pytest.approx(-1.0)
        assert m.c == pytest.approx(-0.5)

    def test_log_power_vanishes_when_j0_equals_q0(self, kernel_fixture_bessel):
        from regsing.eigenfunction import AsymptoticModel

        assert AsymptoticModel.from_spec(kernel_fixture_bessel).log_power == 0

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


class TestContourDecay:
    def test_magnitudes_shrink(self, kernel_fixture_bessel):
        mags = verify_contour_decay(kernel_fixture_bessel, s=2.0, a_list=[8.2, 8.2 + 2 * math.pi])
        assert mags[1] < mags[0]

    def test_doubling_the_abscissa_shrinks(self, kernel_fixture_bessel):
        mags = verify_contour_decay(kernel_fixture_bessel, s=2.0, a_list=[8.2, 16.4])
        assert mags[1] < mags[0]

    def test_arc_piece_decays_alone(self, kernel_fixture_bessel):
        rows = verify_contour_decay(
            kernel_fixture_bessel, s=1.0, a_list=[8.2, 8.2 + 2 * math.pi], parts=True
        )
        arcs = [row[1] for row in rows]
        assert arcs[1] < arcs[0]

    def test_rejects_bad_parameters(self, kernel_fixture_bessel):
        with pytest.raises(ValueError):
            verify_contour_decay(kernel_fixture_bessel, s=0.4, a_list=[8.0])
        with pytest.raises(ValueError):
            verify_contour_decay(kernel_fixture_bessel, s=1.0, a_list=[8.0], theta=2.0)


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
