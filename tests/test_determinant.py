"""Determinant routes: closed form, finite-t, regularized, Wronskian, zeta."""

import functools
import json
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jv

from regsing import _numutil, cli, determinant, eigenfunction, operators, special
from regsing._numutil import FirstRound, NumericalError, QuadratureError, gauss_legendre
from regsing.circle import _CIRCLE_POINTS, KernelOrderError, TaylorCircle
from regsing.cli import EXIT_NUMERICAL, EXIT_OK, main
from regsing.determinant import (
    DeterminantReport,
    KernelPresentError,
    NegativeSpectrumError,
    RootInsideContourError,
    _zeta_direct,
    det_wronskian_scalar,
    det_zeta_auto,
    det_zeta_closed_form,
    det_zeta_finite_t,
    det_zeta_regularized,
    zeta_eval,
)
from regsing.eigenfunction import find_spectrum
from regsing.operators import (
    BoundaryMatrices,
    Dirichlet,
    OperatorSpec,
    Robin,
    diagonal_spec,
    scalar_spec,
)
from tests.conftest import robin_regular

SQRT_2PI = math.sqrt(2.0 * math.pi)
EPS = sys.float_info.epsilon
# orders of the kernel grid: scalar_spec(nu, Robin(a), tip, r=R) with k0 = 1 at every R
KERNEL_NUS = (0.0, 0.1, 0.25, 0.3088, 0.5, 0.75, 0.9)


def cor_robin_formula(nu: float, alpha: float) -> float:
    return SQRT_2PI * (alpha + nu + 0.5) / (math.gamma(1.0 + nu) * 2.0**nu)


def cor_dirichlet_formula(nu: float) -> float:
    return SQRT_2PI / (math.gamma(1.0 + nu) * 2.0**nu)


class TestClosedForm:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2])
    def test_robin_family(self, nu, alpha):
        got = det_zeta_closed_form(robin_regular(nu, alpha))
        assert got.method == "closed_form" and got.kernel_dim_proxy == 0
        assert got.value == pytest.approx(cor_robin_formula(nu, alpha), rel=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.9])
    def test_dirichlet_family(self, nu):
        spec = scalar_spec(nu, Dirichlet(), tip="regular")
        got = det_zeta_closed_form(spec)
        assert got.value == pytest.approx(cor_dirichlet_formula(nu), rel=1e-12)

    def test_dirichlet_half_is_two(self):
        # the classical value for -d2/dx2 on (0,1) with Dirichlet ends
        spec = scalar_spec(0.5, Dirichlet(), tip="regular")
        assert det_zeta_closed_form(spec).value == pytest.approx(2.0, rel=1e-13, abs=0.0)

    def test_kernel_redirects(self, kernel_fixture_third):
        with pytest.raises(KernelPresentError):
            det_zeta_closed_form(kernel_fixture_third)

    def test_log_singular_flagged(self):
        # singular-branch rows at nu=0: p(x,y)=1, j0=0 != q0=1; the
        # defect-subtracted number carries the sign of (-2 e^gamma)
        spec = scalar_spec(0.0, Robin(0.3), tip="singular")
        got = det_zeta_closed_form(spec)
        assert got.log_singular is True
        assert got.value > 0.0
        assert got.diagnostics["defect_subtracted_signed"] < 0.0


class TestRegularized:
    def test_third(self, kernel_fixture_third):
        got = det_zeta_regularized(kernel_fixture_third)
        assert got.method == "regularized" and got.kernel_dim_proxy == 1
        assert abs(got.value - 2.0 / 3.0) < 1e-9

    def test_two(self, kernel_fixture_two):
        assert abs(det_zeta_regularized(kernel_fixture_two).value - 2.0) < 1e-9

    def test_sqrt_pi_over_two(self, kernel_fixture_bessel):
        got = det_zeta_regularized(kernel_fixture_bessel)
        assert abs(got.value - math.sqrt(math.pi / 2.0)) < 1e-9

    def test_trivial_kernel_redirects(self):
        with pytest.raises(NumericalError):
            det_zeta_regularized(robin_regular(0.3, 0.0))

    @pytest.mark.parametrize(
        "fixture, want",
        [
            ("kernel_fixture_third", 2.0 / 3.0),
            ("kernel_fixture_two", 2.0),
            ("kernel_fixture_bessel", math.sqrt(math.pi / 2.0)),
        ],
        ids=["two thirds", "two", "sqrt pi/2"],
    )
    def test_unit_length_fixtures_to_rounding(self, request, fixture, want):
        got = det_zeta_regularized(request.getfixturevalue(fixture))
        assert got.value == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "tip, nu",
        [("regular", nu) for nu in KERNEL_NUS] + [("singular", nu) for nu in KERNEL_NUS[1:]],
    )
    def test_dilation_law(self, tip, nu):
        # a = (-nu - 1/2)/R (regular tip) or (nu - 1/2)/R (singular tip) has
        # k0 = 1 at every R, and det_R = R^(2 (k0 - zeta(0))) det_1 with
        # 2 (k0 - zeta(0)) = 3/2 + nu or 3/2 - nu
        def report(r):
            a = ((-nu - 0.5) if tip == "regular" else (nu - 0.5)) / r
            return det_zeta_auto(scalar_spec(nu, Robin(a), tip, r=r))

        unit = report(1.0).value
        power = 1.5 + nu if tip == "regular" else 1.5 - nu
        for r in (0.05, 0.1, 0.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 50.0):
            got = report(r)
            assert (got.method, got.kernel_dim_proxy) == ("regularized", 1)
            assert got.value == pytest.approx(unit * r**power, rel=1e-12, abs=0.0)

    def test_doubled_kernel(self):
        # two equal kernel channels at R = 3: k0 = 2, and det is the square of
        # the scalar one (6 = 3^2 * 2/3)
        scalar = scalar_spec(0.5, Robin(-1.0 / 3.0), r=3.0)
        got = det_zeta_auto(diagonal_spec([scalar, scalar]))
        assert (got.method, got.kernel_dim_proxy) == ("regularized", 2)
        one = det_zeta_auto(scalar).value
        assert one == pytest.approx(6.0, rel=1e-14, abs=0.0)
        assert got.value == pytest.approx(one**2, rel=1e-14, abs=0.0)

    def test_health_numbers(self, kernel_fixture_third):
        got = det_zeta_regularized(kernel_fixture_third)
        assert got.diagnostics["circle_radius"] == math.sqrt(0.8)
        assert got.diagnostics["floor_margin"] > 1e10
        assert "richardson_gap" not in got.diagnostics
        closed = det_zeta_closed_form(scalar_spec(0.3, Robin(-0.8 + 1e-9)))
        assert 1.0 < closed.diagnostics["floor_margin"] < 1e7  # next to the kernel decision

    def test_negative_eigenvalue_beside_a_kernel(self):
        # the nu = 0.2 channel has one negative eigenvalue: F~(0)/C~ < 0
        spec = diagonal_spec([scalar_spec(0.5, Robin(-1.0)), scalar_spec(0.2, Robin(-1.0))])
        for route in (det_zeta_auto, det_zeta_regularized):
            with pytest.raises(NegativeSpectrumError, match="odd number of negative eigenvalues"):
                route(spec)


class TestKernelDecision:
    """k0 and F~(0) from the Taylor coefficients on one trapezoidal circle."""

    def test_near_kernel_continuity(self):
        # det(alpha) = mu_1(alpha)^2 times the determinant over the rest of the
        # spectrum, which tends to the regularized value at alpha = -0.8; mu_1
        # solves e J_nu(mu) = mu J_{nu+1}(mu), e = alpha + nu + 1/2
        nu = 0.3
        limit = det_zeta_auto(scalar_spec(nu, Robin(-0.8))).value
        for e in (1e-3, 1e-5, 1e-7, 1e-9):
            alpha = e - 0.8
            e = alpha + 0.8  # exact: the e the operator sees

            def g(mu):
                return e * jv(nu, mu) - mu * jv(nu + 1.0, mu)

            guess = math.sqrt(2.0 * (nu + 1.0) * e)
            mu1 = brentq(g, 0.5 * guess, 2.0 * guess, xtol=1e-300, rtol=1e-15)
            got = det_zeta_auto(scalar_spec(nu, Robin(alpha)))
            assert got.method == "closed_form"
            # first order in e, plus the rounding of F(0) ~ e
            assert abs(got.value / mu1**2 / limit - 1.0) <= 0.25 * e + 4.0 * EPS / e

    @pytest.mark.parametrize(
        "spec",
        [
            robin_regular(0.3, 0.0),
            scalar_spec(0.3, Robin(-0.8)),
            scalar_spec(0.0, Dirichlet(), r=1e-3),
            diagonal_spec([scalar_spec(nu, Robin(0.2), r=3.0) for nu in (0.0, 0.4, 0.4, 0.7)]),
        ],
        ids=["q1", "kernel", "log channel", "q4"],
    )
    def test_circle_coefficients_match_an_fft(self, spec):
        # the DFT matrix times the circle's values over their largest is the FFT
        # of the values to a few rounding units of the largest
        taylor = eigenfunction.SecularEvaluator(spec).circle
        c, big = taylor._taylor
        f = taylor.values
        assert big == np.max(np.abs(f))
        assert np.max(np.abs(c * big - np.fft.fft(f) / f.size)) <= 4.0 * EPS * big

    def test_no_coefficient_above_the_floor(self):
        circle = TaylorCircle(np.zeros(16, dtype=complex), 1.0, 1)
        with pytest.raises(KernelOrderError, match="rounding floor"):
            circle.k0

    def test_order_above_q(self):
        # F = lambda^2 on the circle of a q = 1 operator
        ev = eigenfunction.SecularEvaluator(robin_regular(0.3, 0.0))
        lam = ev._probe_mu[1:] ** 2
        with pytest.raises(KernelOrderError, match="exceeds q = 1"):
            TaylorCircle(lam**2, ev.r, ev.q).k0


class TestFiniteT:
    def test_cross_check_is_a_number_and_a_gap(self):
        got = det_zeta_auto(robin_regular(0.3, 0.0))
        diag = got.diagnostics
        assert "finite_t_error" not in diag
        assert isinstance(diag["finite_t_value"], float) and isinstance(diag["finite_t_gap"], float)
        assert diag["finite_t_gap"] == abs(diag["finite_t_value"] - got.value) / got.value <= 1e-12

    def test_matches_closed_form_small_t(self):
        spec = robin_regular(0.0, 0.0)
        closed = det_zeta_closed_form(spec).value
        assert closed == pytest.approx(SQRT_2PI / 2.0, rel=1e-13, abs=0.0)
        for t in (0.1, 0.3):
            got = det_zeta_finite_t(spec, t).value
            assert abs(got - closed) <= 1e-6 * closed
        v1 = det_zeta_finite_t(spec, 0.1).value
        v2 = det_zeta_finite_t(spec, 0.3).value
        assert abs(v1 - v2) <= 1e-6 * closed

    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_rejects_t_outside_the_open_half_line_before_any_pass(self, monkeypatch, t):
        spec = robin_regular(0.0, 0.0)
        no_pass = lambda *args, **kwargs: pytest.fail("kernel pass")  # noqa: E731
        monkeypatch.setattr(eigenfunction.SecularEvaluator, "_pass", no_pass)
        with pytest.raises(ValueError, match="t_abs must be positive and finite"):
            det_zeta_finite_t(spec, t)

    def test_t_independence_spread(self):
        spec = robin_regular(0.3, 1.0)
        closed = det_zeta_closed_form(spec).value
        values = [det_zeta_finite_t(spec, t).value for t in (0.05, 0.1, 0.2, 0.4)]
        assert (max(values) - min(values)) / closed <= 1e-6

    def test_small_t_converges_to_closed_form(self):
        spec = robin_regular(0.0, 0.0)
        closed = det_zeta_closed_form(spec).value
        near = abs(det_zeta_finite_t(spec, 0.05).value - closed)
        far = abs(det_zeta_finite_t(spec, 0.4).value - closed)
        assert near < far + 1e-8

    def test_one_pass_then_one_per_further_arc_round(self, monkeypatch):
        # the probes of the kernel order ride with F(it) and the arc's first
        # Gauss-Legendre round, so the route makes one pass per arc round.  The
        # certificate can hold only inside the Taylor circle, t R < sqrt(0.8),
        # where the arc stays in the series disk |mu R| <= 1.  At t R = 1.5 the
        # arc would leave the disk and mix kernel zones, but no value of it could
        # be read: no arc point is sampled, the one pass takes the probes for the
        # kernel order's check alone, and the route is refused with margin 0, as
        # it is at a t so large that its square leaves the float range.  The first
        # round is the fixed rule determinant._ARC_ROUND; each further round lays
        # out its nodes once
        spec = robin_regular(0.3, 1.0)
        closed = det_zeta_closed_form(spec).value
        round_nodes = _numutil._round_nodes
        rounds = []

        def counted(*args):
            rounds.append(1)
            return round_nodes(*args)

        monkeypatch.setattr(_numutil, "_round_nodes", counted)
        for t, want in ((0.1, 1), (0.5, 2), (0.85, 2)):
            rounds.clear()
            got = det_zeta_finite_t(spec, t)
            assert abs(got.value - closed) <= 1e-12 * closed
            assert got.diagnostics["passes"] == 1 + len(rounds) == want
        for t in (1.5, 1e300):
            ev = eigenfunction.SecularEvaluator(spec)
            with pytest.raises(RootInsideContourError, match=r"certifies no such disk \(margin 0\)"):
                determinant._finite_t(ev, t, determinant._arc_pass(ev, t), ev.circle.zero_free_margin(t))
            assert ev.counts == {"passes": 1}

    def test_matches_closed_form_at_r_10(self):
        # at the default radius 0.1 / R; t = 0.1 reaches past the Taylor
        # circle |mu| = sqrt(0.8) / R, which then certifies nothing
        spec = scalar_spec(0.3, Robin(0.5), r=10.0)
        closed = det_zeta_closed_form(spec).value
        assert abs(det_zeta_finite_t(spec, 0.01).value - closed) <= 1e-12 * closed
        with pytest.raises(RootInsideContourError, match="margin 0"):
            det_zeta_finite_t(spec, 0.1)

    @pytest.mark.parametrize(
        "r, beta, channels",
        [
            (
                8.3405,
                11.0 / 6.0,
                [(11 / 24, "regular"), (19 / 72, "singular"), (5 / 72, "regular"), (7 / 8, "regular")],
            ),
            (math.sqrt(250.0), 1.25, [(17 / 24, "regular"), (5 / 8, "regular")]),
        ],
    )
    def test_matches_closed_form_on_multichannel_operators(self, r, beta, channels):
        spec = diagonal_spec(
            [scalar_spec(nu, Robin(beta / r), tip=tip, r=r) for nu, tip in channels]
        )
        closed = det_zeta_closed_form(spec).value
        assert abs(det_zeta_finite_t(spec, 0.1 / r).value - closed) <= 1e-10 * closed
        # t = 0.1 at R >= 8.3 is beyond what the Taylor circle certifies
        with pytest.raises(RootInsideContourError):
            det_zeta_finite_t(spec, 0.1)

    def test_root_inside_contour_detected(self):
        # first eigenvalue of the Dirichlet fixture sits at pi
        spec = scalar_spec(0.5, Dirichlet(), tip="regular")
        with pytest.raises(RootInsideContourError):
            det_zeta_finite_t(spec, 4.0)

    def test_root_below_the_first_sample_detected(self):
        # F(0) = -1e-6 and F changes sign near mu = 1.6e-3, deep inside t = 0.1
        spec = scalar_spec(0.3, Robin(-0.8 + 1e-6))
        with pytest.raises(RootInsideContourError):
            det_zeta_finite_t(spec, 0.1)
        got = det_zeta_auto(spec)
        assert "finite_t_value" not in got.diagnostics
        assert got.diagnostics["finite_t_error"].startswith("F may have a zero below")
        assert got.diagnostics["zero_free_margin"] < 1.0
        assert got.value == pytest.approx(got.diagnostics["wronskian_value"], rel=1e-9)

    @pytest.mark.parametrize("second", [0.3, 0.3000001], ids=["doubled", "near pair"])
    def test_double_root_inside_contour_detected(self, second):
        # two channels each with a root near mu = 1.6e-3: F keeps one sign on
        # both axes, so no sign test sees them, and at the parent the finite-t
        # route returned 0.76 against a determinant of 5e-12
        spec = diagonal_spec(
            [scalar_spec(0.3, Robin(-0.8 + 1e-6)), scalar_spec(second, Robin(-0.8 + 1e-6))]
        )
        for t in (0.05, 0.1):
            with pytest.raises(RootInsideContourError, match="may have a zero below"):
                det_zeta_finite_t(spec, t)
        with pytest.raises(RootInsideContourError):
            zeta_eval(spec, 2.0)
        got = det_zeta_auto(spec)
        assert got.method == "closed_form" and got.value < 1e-11
        assert "finite_t_value" not in got.diagnostics
        assert got.diagnostics["zero_free_margin"] < 1e-6

    def test_certificate_in_the_report(self):
        # the radius 0.1 / R and the Rouche margin of the disk below it
        for r in (0.25, 1.0, 40.0):
            got = det_zeta_auto(scalar_spec(0.3, Robin(0.5 / r), r=r))
            diag = got.diagnostics
            assert diag["finite_t_radius"] == 0.1 / r
            assert diag["zero_free_margin"] > 1.0
            assert diag["finite_t_gap"] <= 1e-12


class TestWronskian:
    def test_examples(self):
        assert det_wronskian_scalar(0.5, Robin(0.0)) == pytest.approx(2.0, rel=1e-14, abs=0.0)
        assert det_wronskian_scalar(0.0, Robin(0.0)) == pytest.approx(SQRT_2PI / 2.0, rel=1e-14, abs=0.0)
        assert det_wronskian_scalar(2.0, Dirichlet()) == pytest.approx(
            SQRT_2PI / (4.0 * math.gamma(3.0)), rel=1e-14, abs=0.0
        )

    def test_kernel_guard(self):
        with pytest.raises(KernelPresentError):
            det_wronskian_scalar(0.5, Robin(-1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        # below nu ~ 1e-4 the lambda = nu^2 - 1/4 representation floors the
        # recoverable order accuracy; stay above it
        nu=st.floats(min_value=1e-4, max_value=0.95),
        alpha=st.floats(min_value=-0.3, max_value=2.0),
    )
    def test_matches_closed_form_inside_core(self, nu, alpha):
        spec = robin_regular(nu, alpha)
        closed = det_zeta_closed_form(spec).value
        oracle = det_wronskian_scalar(nu, Robin(alpha))
        assert abs(closed - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("nu", [1.5, 2.0])
    def test_extends_beyond_matrix_core(self, nu):
        # the formula stays valid where the 2q x 2q system does not apply
        assert det_wronskian_scalar(nu, Robin(0.3)) == pytest.approx(
            cor_robin_formula(nu, 0.3), rel=1e-13, abs=0.0
        )
        assert det_wronskian_scalar(nu, Dirichlet()) == pytest.approx(
            cor_dirichlet_formula(nu), rel=1e-13, abs=0.0
        )


class TestFactorization:
    def test_diagonal_determinant_factorizes(self):
        parts = [
            scalar_spec(0.0, Robin(0.5), tip="regular"),
            scalar_spec(0.6, Robin(0.5), tip="regular"),
        ]
        joint = diagonal_spec(parts)
        lhs = det_zeta_closed_form(joint).value
        rhs = det_zeta_closed_form(parts[0]).value * det_zeta_closed_form(parts[1]).value
        assert abs(lhs - rhs) <= 1e-8 * rhs

    def test_double_log_block(self):
        # q0 = 2: two lambda = -1/4 blocks, both with logarithmic companions
        parts = [
            scalar_spec(0.0, Robin(0.2), tip="regular"),
            scalar_spec(0.0, Robin(0.2), tip="regular"),
        ]
        joint = diagonal_spec(parts)
        assert joint.q0 == 2
        lhs = det_zeta_closed_form(joint).value
        rhs = det_zeta_closed_form(parts[0]).value ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs


class TestAuto:
    def test_auto_selects_regularized(self, kernel_fixture_third):
        got = det_zeta_auto(kernel_fixture_third)
        assert got.method == "regularized" and abs(got.value - 2.0 / 3.0) < 1e-9

    def test_auto_attaches_cross_checks(self):
        got = det_zeta_auto(robin_regular(0.3, 0.0))
        assert got.method == "closed_form"
        assert got.diagnostics["finite_t_value"] == pytest.approx(got.value, rel=1e-6)
        assert got.diagnostics["wronskian_value"] == pytest.approx(got.value, rel=1e-10)

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.7])
    def test_zeta_1_from_the_circle(self, nu, r):
        # zeta(1) of j_{nu,k} / R is R^2 / (4 (nu + 1)), twice that when doubled
        one = scalar_spec(nu, Dirichlet(), r=r)
        want = r * r / (4.0 * (nu + 1.0))
        for spec, k in ((one, 1.0), (diagonal_spec([one, one]), 2.0)):
            got = det_zeta_auto(spec).diagnostics["zeta_1"]
            assert abs(got - k * want) <= 1e-14 * k * want

    @pytest.mark.parametrize(
        "spec",
        [
            scalar_spec(0.3, Robin(0.5)),
            scalar_spec(0.0, Dirichlet(), r=8.0),
            scalar_spec(0.3, Robin(-0.8)),
            diagonal_spec(
                [
                    scalar_spec(nu, Robin(0.4), tip=tip, r=2.5)
                    for nu, tip in (
                        (0.0, "regular"), (0.2, "singular"), (0.55, "regular"), (0.9, "regular")
                    )
                ]
            ),
        ],
        ids=["q1", "log channel", "kernel", "q4"],
    )
    def test_a_request_builds_only_the_disk_table(self, spec, monkeypatch):
        # the probes, F(it) and the arc all lie in the series disk |mu R| <= 1:
        # of the kernel table, a determinant request builds the 14-term disk alone
        tables = []

        class Recorded(eigenfunction.KernelTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(eigenfunction, "KernelTable", Recorded)
        det_zeta_auto(spec)
        assert [sorted(vars(table)) for table in tables] == [["companion", "disk", "orders"]]
        assert tables[0].disk.shape[1] == 14

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.9])
    def test_dilation_law_where_zeta_1_leaves_the_float_range(self, nu):
        # det_R = R^(nu + 1/2) det_1 for the zeros j_{nu,k} / R; at R = 1e200
        # zeta(1) = R^2 / (4 (nu + 1)) is past the float range: inf in the
        # diagnostics, with no numpy warning, and the determinant keeps the law.
        # At R = 1e220 and nu = 0.9 F is near the float range on the whole Taylor
        # circle, whose coefficients must not overflow
        unit = det_zeta_auto(scalar_spec(nu, Dirichlet())).value
        for r in (1e200, 1e220):
            got = det_zeta_auto(scalar_spec(nu, Dirichlet(), r=r))
            assert got.diagnostics["zeta_1"] == math.inf
            assert math.isfinite(got.diagnostics["floor_margin"])
            assert got.value == pytest.approx(unit * r ** (nu + 0.5), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu, r", [(0.9, 1e140), (0.3, 1e180), (0.0, 1e220)])
    def test_finite_t_cross_check_at_huge_length(self, nu, r):
        # a mu-derivative map carries a spare factor R, which took F' past the
        # float range from these R on and lost the cross-check; the map is in
        # w = mu R, and dlog F takes its R after the ratio.  Quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = det_zeta_auto(scalar_spec(nu, Dirichlet(), r=r)).diagnostics
        assert "finite_t_error" not in got
        assert got["finite_t_gap"] < 1e-12

    def test_wronskian_oracle_only_at_unit_length(self):
        # the oracle is normalized on (0, 1]; at R = 2 it would quote another operator
        got = det_zeta_auto(scalar_spec(0.3, Robin(0.5), r=2.0))
        assert "wronskian_value" not in got.diagnostics
        assert got.diagnostics["finite_t_value"] == pytest.approx(got.value, rel=1e-6)

    def test_finite_t_radius_scales_with_length(self):
        # the first root (about 0.05) lies inside a fixed radius 0.1 at R = 50
        spec = scalar_spec(0.3, Robin(0.5), r=50.0)
        with pytest.raises(RootInsideContourError):
            det_zeta_finite_t(spec, 0.1)
        got = det_zeta_auto(spec)
        assert got.diagnostics["finite_t_value"] == pytest.approx(got.value, rel=1e-12)

    def test_near_kernel_decided_once(self):
        # F(0) is e = 1e-6 or 1e-9 of its scale, far above the rounding floor of
        # the kernel-order circle: kernel-free, one decision for every route
        for e in (1e-6, 1e-9):
            got = det_zeta_auto(scalar_spec(0.3, Robin(-0.8 + e)))
            assert got.method == "closed_form"
            assert got.value == pytest.approx(cor_robin_formula(0.3, -0.8 + e), rel=1e-15 / e)


def _count_preparation(monkeypatch) -> Counter:
    """Count evaluator builds, validate and characteristic_values calls and
    kernel-order fits from now on."""
    calls = Counter()
    cls = eigenfunction.SecularEvaluator
    init, fit = cls.__init__, TaylorCircle.__dict__["k0"].func
    charvals = eigenfunction.characteristic_values
    validate = eigenfunction.validate

    def counted_init(self, spec):
        calls["builds"] += 1
        init(self, spec)

    def counted_fit(self):
        calls["fits"] += 1
        return fit(self)

    def counted_charvals(spec, *args):
        calls["charvals"] += 1
        return charvals(spec, *args)

    def counted_validate(spec, *args):
        calls["validate"] += 1
        return validate(spec, *args)

    k0 = functools.cached_property(counted_fit)
    k0.__set_name__(TaylorCircle, "k0")
    monkeypatch.setattr(cls, "__init__", counted_init)
    monkeypatch.setattr(TaylorCircle, "k0", k0)
    monkeypatch.setattr(eigenfunction, "characteristic_values", counted_charvals)
    monkeypatch.setattr(eigenfunction, "validate", counted_validate)
    monkeypatch.setattr(cli, "validate", counted_validate)
    return calls


def _write_scalar_doc(tmp_path, nu: float, alpha: float) -> Path:
    """CLI document of scalar_spec(nu, Robin(alpha)) (regular-branch rows, R = 1)."""
    doc = {
        "R": 1.0,
        "lambdas": [nu * nu - 0.25],
        "q0": 0,
        "A": [[{"re": 0.0, "im": 0.0}]],
        "B": [[{"re": 1.0, "im": 0.0}]],
        "regular_bc": {"type": "robin", "alpha": alpha},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


NEGATIVE_SPECS = {  # one negative eigenvalue each: F(0)/C < 0
    "near kernel": scalar_spec(0.3, Robin(-0.8 - 1e-6)),
    "nu 0.367": scalar_spec(0.367, Robin(-0.9)),
}


class TestNegativeSpectrum:
    @pytest.mark.parametrize("name", sorted(NEGATIVE_SPECS))
    def test_closed_form_names_the_negative_spectrum(self, name):
        for route in (det_zeta_auto, det_zeta_closed_form):
            with pytest.raises(NegativeSpectrumError, match="odd number of negative eigenvalues"):
                route(NEGATIVE_SPECS[name])

    @pytest.mark.parametrize("name", sorted(NEGATIVE_SPECS))
    def test_direct_zeta_names_the_negative_spectrum(self, name):
        sp = find_spectrum(NEGATIVE_SPECS[name], 40.0)
        assert len(sp.negative) == 1 and len(sp.positive) >= 10
        with pytest.raises(NegativeSpectrumError, match="negative eigenvalues"):
            _zeta_direct(2.0, sp)

    def test_zeta_eval_raises_it(self):
        spec = NEGATIVE_SPECS["nu 0.367"]
        with pytest.raises(NegativeSpectrumError):
            zeta_eval(spec, 2.0, spectrum=find_spectrum(spec, 40.0))

    def test_zeta_eval_reads_the_spectrum_before_the_contour(self):
        # the near-kernel operator's negative root (x = 0.0016) lies inside the
        # contour radius 0.1; the spectrum given already names it
        spec = NEGATIVE_SPECS["near kernel"]
        sp = find_spectrum(spec, 40.0)
        with pytest.raises(NegativeSpectrumError):
            zeta_eval(spec, 2.0, spectrum=sp)
        with pytest.raises(RootInsideContourError):
            zeta_eval(spec, 2.0)

    @pytest.mark.parametrize("r", [1.0, 3.0, 10.0, 30.0, 45.0])
    def test_zeta_ray_through_a_negative_eigenvalue(self, r):
        # F(ix) of this log channel vanishes near x = 1.1 at every R, beyond the
        # certified disk: the count of (t, inf] finds it, below the ray's end
        # up to R = 30 and beyond it at R = 45, before the ray is integrated
        spec = scalar_spec(0.0, Robin(0.5), tip="singular", r=r)
        with pytest.raises(RootInsideContourError, match="has zeros beyond"):
            zeta_eval(spec, 1.7)

    def test_zeta_ray_counts_zeros_beyond_its_end(self):
        # a log channel whose F(ix) vanishes at x R = 4749, far beyond the ray's
        # end at x R = 40, where the asymptotic model takes over
        tip = BoundaryMatrices([[-1.0]], [[8.1662]])
        spec = OperatorSpec(r=1.2016, lambdas=(-0.25,), q0=1, boundary=tip, regular_bc=Dirichlet())
        with pytest.raises(RootInsideContourError, match="has zeros beyond"):
            zeta_eval(spec, 1.7)

    def test_cli_exit_code(self, tmp_path, capsys):
        path = _write_scalar_doc(tmp_path, 0.367, -0.9)  # NEGATIVE_SPECS["nu 0.367"]
        assert main(["det", str(path)]) == EXIT_NUMERICAL
        assert "odd number of negative eigenvalues" in capsys.readouterr().err


# diagonal tips of q = 1, 2 and 4 channels, and a coupled q = 2 tip
PREPARED_TIPS = {
    "q1": scalar_spec(0.3, Robin(0.5)),
    "q2": diagonal_spec(
        [scalar_spec(0.0, Dirichlet(), r=2.0), scalar_spec(0.45, Dirichlet(), tip="singular", r=2.0)]
    ),
    "q4": diagonal_spec(
        [
            scalar_spec(nu, Robin(0.4), tip=tip, r=2.5)
            for nu, tip in ((0.0, "regular"), (0.2, "singular"), (0.55, "regular"), (0.9, "regular"))
        ]
    ),
    "coupled": OperatorSpec(
        r=1.0,
        lambdas=(0.2**2 - 0.25, 0.7**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices(np.array([[-0.5, 0.2], [0.2, -0.1]]), np.eye(2)),
        regular_bc=Robin(1.0),
    ),
}


class TestDiagonalPreparation:
    @pytest.mark.parametrize("name", list(PREPARED_TIPS))
    def test_a_diagonal_request_makes_no_lapack_call(self, name, monkeypatch):
        # a diagonal tip is q scalar channels: its rank test reads the row norms
        # and its subset weights are products of diagonal entries, so the whole
        # request calls no np.linalg routine; a coupled tip keeps the SVD and
        # the stacked determinant
        calls = Counter()
        for routine in ("svd", "det", "slogdet", "solve", "inv", "eig", "eigvals", "lstsq"):
            def counted(*args, _routine=routine, _real=getattr(np.linalg, routine), **kwargs):
                calls[_routine] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, routine, counted)
        got = det_zeta_auto(PREPARED_TIPS[name])
        assert got.method == "closed_form" and "finite_t_value" in got.diagnostics
        if name == "coupled":
            assert calls["svd"] == 1 and calls["det"] >= 1
        else:
            assert calls == {}

    def test_gamma_once_per_kernel_order(self, monkeypatch):
        # every step that prepares a request reads one table of Gamma(1 + s) at
        # the kernel orders s = nu_l and -nu_l (l >= q0): the boundary map, the
        # kernel table, the tau_l of the boundary polynomial and the model's rho
        spec = PREPARED_TIPS["q4"]
        args = []
        for module in (operators, special, eigenfunction, determinant):
            if hasattr(module, "gamma_fn"):
                def counted(x, _real=module.gamma_fn):
                    args.append(x)
                    return _real(x)

                monkeypatch.setattr(module, "gamma_fn", counted)
        det_zeta_auto(spec)
        orders = {*spec.nus, *(-nu for nu in spec.nus[spec.q0 :])}
        assert len(orders) == 7
        assert sorted(args) == sorted(1.0 + s for s in orders)


class TestPreparedOperator:
    @pytest.mark.parametrize("kernel", [False, True])
    def test_one_build_per_request(self, monkeypatch, kernel, kernel_fixture_third):
        # one evaluator, one characteristic_values call, one kernel-order fit
        calls = _count_preparation(monkeypatch)
        spec = kernel_fixture_third if kernel else robin_regular(0.3, 0.0)
        got = det_zeta_auto(spec)
        assert got.method == ("regularized" if kernel else "closed_form")
        assert kernel or isinstance(got.diagnostics["finite_t_value"], float)
        assert calls == {"builds": 1, "validate": 1, "charvals": 1, "fits": 1}

    @pytest.mark.parametrize("kernel", [False, True])
    def test_one_build_per_spectrum_and_zeta(self, monkeypatch, kernel, kernel_fixture_third):
        # zeta_eval reuses the evaluator that found the spectrum of the same spec;
        # neither the zero count nor the contour at an integer s reads the
        # characteristic values, so they are never worked out
        calls = _count_preparation(monkeypatch)
        spec = kernel_fixture_third if kernel else robin_regular(0.3, 0.0)
        sp = find_spectrum(spec, 40.0)
        rep = zeta_eval(spec, 2.0, spectrum=sp)
        assert abs(rep.direct - rep.contour) <= 1e-4 * abs(rep.contour)
        assert calls == {"builds": 1, "validate": 1, "fits": 1}
        # a spectrum of another spec object lends nothing
        zeta_eval(robin_regular(0.3, 0.0), 2.0, spectrum=sp)
        assert calls["builds"] == 2

    def test_cli_zeta_builds_once(self, monkeypatch, tmp_path, capsys):
        path = _write_scalar_doc(tmp_path, 0.3, 0.0)
        calls = _count_preparation(monkeypatch)
        assert main(["zeta", str(path), "--s", "2", "--mu-max", "40"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["report"]["direct"] > 0.0
        assert calls["builds"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval-f", "--mu", "2.5"],
            ["f-at-zero"],
            ["spectrum", "--mu-max", "20"],
            ["det"],
            ["zeta", "--s", "2", "--mu-max", "40"],
            ["verify-asymptotics"],
            ["verify-contour", "--s", "2", "--a-list", "8.2,14.4832"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cli_validates_once(self, monkeypatch, tmp_path, capsys, argv):
        # the evaluator validates the operator; the CLI does not check it again
        path = _write_scalar_doc(tmp_path, 0.3, 0.0)
        calls = _count_preparation(monkeypatch)
        assert main([argv[0], str(path)] + argv[1:]) == EXIT_OK
        assert (calls["validate"], calls["builds"]) == (1, 1)
        # verify-asymptotics reads every model value from the one evaluator
        assert calls["charvals"] <= 1

    @pytest.mark.parametrize("kernel", [False, True])
    def test_kernel_order_fit_is_one_call(self, monkeypatch, kernel, kernel_fixture_third):
        # the probe points of the circle go through one batched kernel pass
        calls = Counter()
        cls = eigenfunction.SecularEvaluator
        kernel_pass = cls._pass

        def counted_pass(self, mu, deriv=False):
            calls["_pass"] += 1
            return kernel_pass(self, mu, deriv)

        monkeypatch.setattr(cls, "_pass", counted_pass)
        spec = kernel_fixture_third if kernel else robin_regular(0.3, 0.0)
        ev = cls(spec)
        assert ev.circle.k0 == (1 if kernel else 0)
        assert calls == {"_pass": 1}

    def test_regularized_reads_the_kernel_probes(self, monkeypatch):
        # a kernel request is one kernel pass: F(0) and the 16 points of the
        # kernel-order circle, whose Taylor coefficient gives F~(0), with F(it)
        # and the arc's 48 first-round nodes riding along, since the pass comes
        # before the kernel order is known; the kernel then keeps the finite-t
        # route from reading any of them, and no node is counted
        points, reads = [], []
        cls = eigenfunction.SecularEvaluator
        traces = cls._traces

        def counted_traces(self, mu, deriv=False):
            points.append(np.size(mu))
            return traces(self, mu, deriv)

        monkeypatch.setattr(cls, "_traces", counted_traces)
        monkeypatch.setattr(determinant, "_finite_t", lambda *args: reads.append(args))
        got = det_zeta_auto(scalar_spec(0.3, Robin(-0.8)))
        assert got.method == "regularized"
        assert points == [1 + _CIRCLE_POINTS + 1 + determinant._ARC_ROUND.nodes.size] == [66]
        assert (got.diagnostics["passes"], got.diagnostics["nodes"]) == (1, 0)
        assert reads == [] and not any(k.startswith("finite_t") for k in got.diagnostics)

    @pytest.mark.parametrize(
        "spec",
        [
            scalar_spec(0.3, Robin(-0.8)),
            scalar_spec(0.5, Robin(-1.0)),
            scalar_spec(0.0, Robin(-0.5)),
            diagonal_spec([scalar_spec(0.5, Robin(-1.0)), scalar_spec(0.3, Robin(-1.0))]),
        ],
        ids=["nu 0.3", "nu 0.5", "nu 0", "q 2"],
    )
    def test_kernel_probes_match_a_separate_call(self, spec):
        # F on the kernel-order circle is the same to the bit when the circle
        # rides along in a pass with other points as in a call of its own
        ev = eigenfunction.SecularEvaluator(spec)
        alone = ev.value(ev._probe_mu)
        ev.sample(np.linspace(0.05, 3.0, 40))
        assert ev.circle.k0 >= 1
        assert [ev.f0, *ev.circle.values.tolist()] == alone.tolist()


def _rayleigh(nu: float, s: float) -> float:
    """sum over the zeros j of J_nu of j^(-2s), s = 1, 2, 3."""
    return {
        1.0: 1.0 / (4.0 * (nu + 1.0)),
        2.0: 1.0 / (16.0 * (nu + 1.0) ** 2 * (nu + 2.0)),
        3.0: 1.0 / (32.0 * (nu + 1.0) ** 3 * (nu + 2.0) * (nu + 3.0)),
    }[s]


COUPLED_SPECS = [  # q = 2, self-adjoint tip conditions that couple the channels
    OperatorSpec(
        r=1.2,
        lambdas=(0.3**2 - 0.25, 0.6**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices(np.eye(2), [[-1.0, 0.5], [0.5, -2.0]]),
        regular_bc=Robin(0.4),
    ),
    OperatorSpec(
        r=1.0,
        lambdas=(0.2**2 - 0.25, 0.7**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices([[0.0, 1.0], [1.0, 0.0]], np.eye(2)),
        regular_bc=Dirichlet(),
    ),
    OperatorSpec(
        r=1.5,
        lambdas=(0.3**2 - 0.25, 0.6**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices([[-0.5, 0.2], [0.2, -0.1]], np.eye(2)),
        regular_bc=Robin(1.0),
    ),
]


class TestZeta:
    def test_dirichlet_half_zeta2_series_oracle(self, dirichlet_half):
        # eigenvalues (k pi)^2; oracle sum computed right here
        oracle = float(np.sum((np.arange(1, 4000) * math.pi) ** -4.0))
        sp = find_spectrum(dirichlet_half, 120.0)
        rep = zeta_eval(dirichlet_half, 2.0, spectrum=sp)
        assert abs(rep.direct - oracle) <= 1e-6 * oracle
        assert abs(rep.contour - oracle) <= 1e-4 * oracle

    def test_cross_estimators_s2(self, kernel_fixture_bessel):
        sp = find_spectrum(kernel_fixture_bessel, 120.0)
        rep = zeta_eval(kernel_fixture_bessel, 2.0, spectrum=sp)
        assert abs(rep.direct - rep.contour) <= 1e-4 * abs(rep.contour)

    def test_cross_estimators_s1_reduced(self, kernel_fixture_third):
        # the acceptance suite runs the full 2000-root version
        sp = find_spectrum(kernel_fixture_third, 400.0)
        rep = zeta_eval(kernel_fixture_third, 1.0, spectrum=sp)
        assert abs(rep.direct - rep.contour) <= 1e-3 * abs(rep.contour)

    @pytest.mark.parametrize(
        "fixture, s, want, rtol",
        [
            # sum over k of (k pi)^-4
            ("dirichlet_half", 2.0, 1.0 / 90.0, 1e-10),
            # Rayleigh sums over the zeros j of J_{3/2}: sum j^-2 = 1/10, sum j^-4 = 1/350
            ("kernel_fixture_third", 1.0, 1.0 / 10.0, 1e-10),
            ("kernel_fixture_third", 2.0, 1.0 / 350.0, 1e-7),
        ],
    )
    def test_contour_matches_closed_sums(self, request, fixture, s, want, rtol):
        rep = zeta_eval(request.getfixturevalue(fixture), s)
        assert abs(rep.contour - want) <= rtol * want

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.25, 0.3088, 0.5, 0.75, 0.9])
    def test_kernel_contour_error_covers_rayleigh_sums(self, nu, s):
        # alpha R = -nu - 1/2: a kernel (k0 = 1), and the nonzero spectrum is
        # j_{nu+1,k} / R, whose zeta at s = 1, 2, 3 is a Rayleigh sum.  At R = 0.1
        # and 0.25 a fixed radius 0.1 left the arc cancelling below the panel
        # tolerance (QuadratureError at the node budget); the arc's quadrature
        # missed zeta(3) by up to 1.1e-5
        for r in [0.1, 0.25, 0.5, 1.0, 1.5, 3.0, 6.0]:
            rep = zeta_eval(scalar_spec(nu, Robin((-nu - 0.5) / r), r=r), s)
            want = _rayleigh(nu + 1.0, s) * r ** (2.0 * s)
            assert abs(rep.contour - want) <= rep.contour_error, r
            assert abs(rep.contour - want) <= (1e-10 if s == 3.0 else 1e-12) * want, r

    @pytest.mark.parametrize("s", [1.5, 2.5])
    @pytest.mark.parametrize("bc", [Robin(2.0), Dirichlet()], ids=["robin", "dirichlet"])
    def test_log_channel_tail_matches_the_direct_sum(self, bc, s):
        # a log channel (q0 - j0 = 1) at R = 0.3: beyond the ray end x R = 40 the
        # model's log(gamma~ - log x) factor gives the tail its exp1 term
        spec = scalar_spec(0.0, bc, tip="singular", r=0.3)
        assert eigenfunction.SecularEvaluator(spec).model.log_power == 1
        rep = zeta_eval(spec, s, spectrum=find_spectrum(spec, 400.0 / 0.3))
        assert abs(rep.direct - rep.contour) <= rep.direct_error + rep.contour_error

    def test_log_channel_ray_end_short_of_the_model_is_refused(self):
        # at R = 40 the ray ends at x = 1, short of x = e^gamma~ = 1.12 where the
        # model's factor gamma~ - log x vanishes, so no exp1 tail can follow; an
        # integer s needs no ray
        tip = BoundaryMatrices([[0.1]], [[1.0]])
        spec = OperatorSpec(r=40.0, lambdas=(-0.25,), q0=1, boundary=tip, regular_bc=Dirichlet())
        with pytest.raises(RootInsideContourError, match="vanishes beyond the ray end"):
            zeta_eval(spec, 1.5)
        rep = zeta_eval(spec, 2.0)
        assert math.isfinite(rep.contour) and rep.contour_error < abs(rep.contour)

    @pytest.mark.parametrize("s", [1.5, 2.5])
    @pytest.mark.parametrize("w", [0.02, 0.01, 0.006, 0.0052, 0.00505])
    @pytest.mark.parametrize("nu", [0.0, 0.3])
    def test_roots_just_outside_the_radius(self, nu, w, s):
        # alpha = w - nu - 1/2 puts the first root just outside t = 0.1; the arc's
        # series at that t would converge like (t / mu_1)^(2n), so t is halved
        # until the circle certifies the disk below 4 t
        spec = scalar_spec(nu, Robin(w - nu - 0.5))
        rep = zeta_eval(spec, s, spectrum=find_spectrum(spec, 30.0 * math.pi))
        assert rep.t < 0.1
        assert abs(rep.direct - rep.contour) <= rep.direct_error + rep.contour_error
        assert rep.contour_error <= 1e-7 * abs(rep.contour)

    def test_doubled_operator_doubles_zeta(self):
        one = scalar_spec(0.3, Robin(0.5))
        two = diagonal_spec([one, one])
        for s in (1.0, 2.0, 3.0):
            want = 2.0 * zeta_eval(one, s).contour
            assert abs(zeta_eval(two, s).contour - want) <= 1e-14 * want, s

    @pytest.mark.parametrize("spec", COUPLED_SPECS, ids=["robin", "dirichlet", "robin r=1.5"])
    def test_direct_meets_the_circle_on_coupled_channels(self, spec):
        # tip conditions that couple the channels: no closed form; at s = 2 the
        # circle's power sum is the oracle of the direct estimator
        sp = find_spectrum(spec, 30.0 * math.pi / spec.r)
        rep = zeta_eval(spec, 2.0, spectrum=sp)
        assert abs(rep.direct - rep.contour) <= rep.direct_error + rep.contour_error

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.7])
    def test_contour_error_covers_integer_s(self, nu):
        # Dirichlet: the spectrum is j_{nu,k} / R.  At an integer s the contour
        # is the power sum p_s of the Taylor circle, with no pass and no
        # quadrature node beyond the probes; it misses the Rayleigh sum by at
        # most 4e-13, and its error, the rounding of the circle's top
        # coefficients through Newton's identities, stays below 3e-11
        for r in [0.1, 1.0, 10.0]:
            for s in [1.0, 2.0, 3.0]:
                rep = zeta_eval(scalar_spec(nu, Dirichlet(), r=r), s)
                want = _rayleigh(nu, s) * r ** (2.0 * s)
                miss = abs(rep.contour - want)
                assert miss <= 1e-12 * want, (r, s)
                assert miss <= rep.contour_error <= 1e-10 * want, (r, s)
                assert (rep.passes, rep.nodes) == (1, 0), (r, s)

    @pytest.mark.parametrize(
        "spec, mu_max, n, want",
        [
            pytest.param(
                scalar_spec(nu, Dirichlet()),
                (n + nu / 2.0 + 0.25) * math.pi,
                n,
                1.0 / (16.0 * (nu + 1.0) ** 2 * (nu + 2.0)),
                id=f"{nu}-{n}",
            )
            for nu in (0.0, 0.3, 0.7)
            for n in (10, 30, 100)
        ]
        + [
            pytest.param(
                scalar_spec(0.5, Robin(-10.0), r=0.1),
                400.0,
                12,
                0.1**4 / (16.0 * 2.5**2 * 3.5),
                id="kernel R=0.1",
            )
        ],
    )
    def test_direct_error_covers_rayleigh_sums(self, spec, mu_max, n, want):
        # Dirichlet: the spectrum is j_{nu,k}, whose zeta at s = 2 is the
        # Rayleigh sum 1/(16 (nu+1)^2 (nu+2)); mu_max falls between the n-th
        # and the (n+1)-th zero.  The kernel operator (alpha R = -nu - 1/2)
        # has the nonzero spectrum j_{nu+1,k} / R and the Rayleigh sum
        # R^4 / (16 (nu+2)^2 (nu+3)); the estimate from its 12 roots misses it
        # by 3.9e-13.  The fit's bias from the O(1/mu) term of the roots
        # dominates the error; the estimate must cover it, not by more than a
        # small factor
        sp = find_spectrum(spec, mu_max)
        assert len(sp.positive) == n
        direct, direct_error = _zeta_direct(2.0, sp)
        err = abs(direct - want)
        assert err <= direct_error <= 10.0 * err + 1e-15

    def test_direct_error_covers_the_contour_gap(self):
        # at 30 roots |direct - contour| is 8.1e-12, nearly all of it the direct
        # fit's bias, which the scatter alone put at 3.7e-13
        spec = scalar_spec(0.3, Robin(0.5))
        rep = zeta_eval(spec, 2.0, spectrum=find_spectrum(spec, 30.0 * math.pi))
        assert abs(rep.direct - rep.contour) <= rep.direct_error + rep.contour_error

    def test_contour_radius_scales_with_length(self):
        # at R = 40 the first root (about 0.02) lies inside a fixed radius 0.1
        spec = scalar_spec(0.25, Robin(0.25 / 40.0), tip="singular", r=40.0)
        sp = find_spectrum(spec, 30.0 * math.pi / 40.0)
        rep = zeta_eval(spec, 2.0, spectrum=sp)
        assert rep.t == 0.1 / 40.0
        assert abs(rep.contour - rep.direct) <= 1e-10 * rep.direct

    @pytest.mark.parametrize("s", [1.7, 2.5])
    @pytest.mark.parametrize(
        "make",
        [
            lambda r: scalar_spec(0.3, Dirichlet(), r=r),
            lambda r: scalar_spec(0.3, Robin(0.5 / r), r=r),
            lambda r: scalar_spec(0.3, Robin(0.5 / r), tip="singular", r=r),
        ],
        ids=["dirichlet", "robin regular", "robin singular"],
    )
    def test_contour_dilation_law(self, make, s):
        # the eigenvalues on (0, R] are those on (0, 1] over R^2, so
        # zeta_R(s) = R^(2s) zeta_1(s).  A ray cut at a fixed x = 40 left the
        # model where x R is small: at R = 0.01 the contour missed the law
        # by a factor of 50 and turned negative
        unit = zeta_eval(make(1.0), s)
        for r in (0.01, 0.02, 0.1, 0.5, 2.0, 10.0):
            got = zeta_eval(make(r), s)
            scale = r ** (2.0 * s)
            assert abs(got.contour - scale * unit.contour) <= (
                got.contour_error + scale * unit.contour_error
            ), r

    def test_direct_requires_enough_roots(self, dirichlet_half):
        sp = find_spectrum(dirichlet_half, 40.0)
        with pytest.raises(NumericalError):
            zeta_eval(dirichlet_half, 0.8, spectrum=sp)

    def test_s_domain(self, dirichlet_half):
        with pytest.raises(ValueError):
            zeta_eval(dirichlet_half, 0.5)
        for s in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                zeta_eval(dirichlet_half, s)
        # zeta(2) = 0.016 R^4 is past the float range: a typed error, not OverflowError
        with pytest.raises(NumericalError, match="float range"):
            zeta_eval(scalar_spec(0.3, Dirichlet(), r=1e150), 2.0)
        # the circle's power sums reach n = 15 - k0; from n = 13 on this
        # operator's carry no digit (zeta(15) = 1.2e-15, p_15 gives 8.5e-15 +- 5e-13)
        assert zeta_eval(dirichlet_half, 12.0).contour > 0.0
        with pytest.raises(NumericalError, match="carries no digit"):
            zeta_eval(dirichlet_half, 15.0)
        with pytest.raises(NumericalError, match="needs p_16"):
            zeta_eval(dirichlet_half, 16.0)

    @pytest.mark.parametrize(
        "spec, s",
        [
            (scalar_spec(0.5, Dirichlet()), 6.5),
            (scalar_spec(0.5, Dirichlet()), 15.5),
            (scalar_spec(0.5, Robin(-1.0)), 5.5),  # the kernel operator
        ],
        ids=["dirichlet 6.5", "dirichlet 15.5", "kernel 5.5"],
    )
    def test_contour_without_a_digit_is_refused(self, spec, s):
        # zeta(s) ~ mu_1^(-2s) falls faster with s than the ray's rounding and
        # model remainder: where the error reaches the value, a typed error
        with pytest.raises(NumericalError, match="carries no digit"):
            zeta_eval(spec, s)

    def test_noninteger_s_against_series(self, dirichlet_half):
        s = 1.25
        oracle = float(np.sum((np.arange(1, 200000) * math.pi) ** (-2.0 * s)))
        sp = find_spectrum(dirichlet_half, 120.0)
        rep = zeta_eval(dirichlet_half, s, spectrum=sp)
        assert abs(rep.direct - oracle) <= 2e-6 * oracle
        assert abs(rep.contour - oracle) <= 1e-4 * oracle


class TestQuadratureBudget:
    def test_small_r_kernel_arc_converges(self):
        # R = 0.1 kernel operator: at a fixed radius 0.1, dlog F - 2 k0/mu cancelled
        # below the panel tolerance and the panels halved up to the node budget;
        # at t = 0.1 / R the arc converges in a few rounds
        rep = zeta_eval(scalar_spec(0.5, Robin(-10.0), r=0.1), 2.0)
        assert abs(rep.contour - 0.1**4 / (16.0 * 2.5**2 * 3.5)) <= rep.contour_error <= 2e-12
        assert rep.nodes < _numutil._GL_MAX_NODES // 32

    def test_budget_counts_every_round(self):
        # an integrand that never converges: each round's nodes count, the first
        # round's too when the caller passes its values
        noise = np.random.default_rng(0)

        def f(x):
            return noise.standard_normal(x.size)

        for first in (None, f(FirstRound((0.0, 1.0)).nodes)):
            counts = Counter()
            with pytest.raises(QuadratureError):
                gauss_legendre(f, (0.0, 1.0), first=first, counts=counts)
            assert counts["nodes"] <= _numutil._GL_MAX_NODES < 2 * counts["nodes"]

    def test_first_round_from_the_caller(self):
        # first-round values at FirstRound.nodes stand in for that round's call,
        # bit for bit, and count as its nodes
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(3.0 * x) / (0.01 + (x - 1.0) ** 2)

        edges = (0.0, 0.5, 2.0)
        alone = gauss_legendre(f, edges)
        rounds = calls[:]
        first = f(FirstRound(edges).nodes)
        calls.clear()
        counts = Counter()
        assert gauss_legendre(f, edges, first=first, counts=counts) == alone
        assert len(rounds) >= 2 and rounds[0] == first.size == 96
        assert calls == rounds[1:] and counts["nodes"] == sum(rounds)

    def test_panel_rule_is_scipys_16_point_rule(self):
        # the written-out table is roots_legendre(16) to 1 ulp, and it
        # integrates x^k over [-1, 1] exactly up to k = 2 * 16 - 1, to the
        # accuracy of scipy's weights (their moments are off by up to 3.75e-15)
        from scipy.special import roots_legendre

        nodes, weights = roots_legendre(16)
        for got, want in [(_numutil._GL_NODES, nodes), (_numutil._GL_WEIGHTS, weights)]:
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
        for k in range(32):
            moment = _numutil._GL_WEIGHTS @ _numutil._GL_NODES**k
            assert abs(moment - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 4e-15, k


def _diagonal(nus, bc, r=1.0):
    return diagonal_spec([scalar_spec(nu, bc, r=r) for nu in nus])


PASS_SPECS = {  # one spec per q, kernel-free and with a kernel (k0 = 1)
    "q1": scalar_spec(0.3, Robin(0.5)),
    "q1 kernel": scalar_spec(0.3, Robin(-0.8)),
    "q2": _diagonal((0.3, 0.6), Robin(0.5)),
    "q2 kernel": _diagonal((0.1, 0.9), Robin(-1.2), r=0.5),
    "q4": _diagonal((0.1, 0.3, 0.5, 0.7), Dirichlet()),
    "q4 kernel": _diagonal((0.1, 0.3, 0.5, 0.7), Robin(-2.4), r=0.25),
}


PROBE_SPECS = {  # PASS_SPECS, a log channel (nu = 0, j0 != q0) and a coupled tip
    **PASS_SPECS,
    "log channel": OperatorSpec(
        r=1.0,
        lambdas=(-0.25,),
        q0=1,
        boundary=BoundaryMatrices([[-0.01]], [[1.0]]),
        regular_bc=Dirichlet(),
    ),
    "coupled": OperatorSpec(
        r=1.0,
        lambdas=(0.2**2 - 0.25, 0.7**2 - 0.25),
        q0=0,
        boundary=BoundaryMatrices([[-0.5, 0.2], [0.2, -0.1]], np.eye(2)),
        regular_bc=Robin(1.0),
    ),
}


# the four-channel operators of the benchmark's seed-1 spectrum pool: R, the Robin
# end's alpha R (None for Dirichlet) and the channels (nu, tip); mu_max = 30 pi / (4 R)
POOL_Q4 = [
    (0.5800646930800815, 0.625,
     [(0.017857142857142856, "singular"), (0.8392857142857143, "regular"),
      (0.6607142857142857, "regular"), (0.48214285714285715, "singular")]),
    (1.0, None, [(0.0, "regular"), (0.9821428571428571, "regular"), (0.8035714285714286, "singular"), (0.625, "regular")]),
    (1.0, 2.017857142857143,
     [(0.7321428571428571, "singular"), (0.5535714285714286, "regular"), (0.0, "regular"),
      (0.19642857142857142, "singular")]),
    (0.7807091821557101, 2.267857142857143,
     [(0.5892857142857143, "regular"), (0.4107142857142857, "singular"),
      (0.23214285714285715, "regular"), (0.05357142857142857, "regular")]),
    (1.7696126940446328, 1.5892857142857144,
     [(0.875, "singular"), (0.6964285714285714, "regular"), (0.5178571428571429, "regular"),
      (0.3392857142857143, "singular")]),
    (1.0, None, [(0.30357142857142855, "regular"), (0.125, "regular"), (0.0, "regular"), (0.7678571428571429, "regular")]),
    (3.447891284987911, 0.6964285714285714,
     [(0.44642857142857145, "regular"), (0.26785714285714285, "singular"),
      (0.08928571428571429, "regular"), (0.9107142857142857, "regular")]),
]


class TestPassBudgets:
    """Kernel passes per stage, read from the evaluator's counter."""

    @pytest.mark.parametrize("name", sorted(PASS_SPECS))
    def test_spectrum_and_zeta(self, name, monkeypatch):
        # the scan's first pass takes the probes and the real grid from mu = 0,
        # whose angles with their limit at x = inf count both axes, and every
        # root comes from the Taylor polynomial of its factor at a bracket end,
        # from the kernel rows of that pass: one pass in all; the zeta contour at
        # s = 2 is the power sum p_2 of the Taylor circle the scan sampled, no
        # pass and no quadrature round
        spec = PASS_SPECS[name]
        sp = find_spectrum(spec, 30.0 * math.pi / (spec.q * spec.r))
        assert len(sp.positive) >= 28 and sp.negative == ()
        assert sp.passes == sp.scan_passes == 1 and sp.taylor_roots == len(sp.positive)
        rounds = []
        round_nodes = _numutil._round_nodes

        def counted(*args):
            rounds.append(1)
            return round_nodes(*args)

        monkeypatch.setattr(_numutil, "_round_nodes", counted)
        rep = zeta_eval(spec, 2.0, spectrum=sp)
        assert abs(rep.direct - rep.contour) <= 1e-4 * rep.contour
        assert (rep.passes, rep.nodes) == (0, 0) and rounds == []

    @pytest.mark.parametrize("name", sorted(PASS_SPECS))
    def test_det(self, name):
        # every request is one pass: the probes of the kernel order ride with F(it)
        # and the arc's first round, and a kernel-free request's arc converges
        # in that round; a kernel request reads no arc value and counts no node
        got = det_zeta_auto(PASS_SPECS[name])
        want = (1, 0) if "kernel" in name else (1, 48)
        assert (got.diagnostics["passes"], got.diagnostics["nodes"]) == want

    @pytest.mark.parametrize("name", sorted(PROBE_SPECS))
    def test_det_value_is_that_of_the_probe_pass(self, name):
        # the probes that ride with the arc in the one pass of det_zeta_auto give
        # the value, to the bit, that the closed form or the regularized route
        # gives from a pass of the probes alone
        spec = PROBE_SPECS[name]
        got = det_zeta_auto(spec)
        alone = (det_zeta_regularized if got.kernel_dim_proxy else det_zeta_closed_form)(spec)
        assert got.method == alone.method and got.value == alone.value
        assert (alone.diagnostics["passes"], alone.diagnostics["nodes"]) == (1, 0)

    def test_uncertified_det_reads_no_arc_value(self):
        # F(0) = -1e-4 and a zero near mu = 0.016: the circle certifies no disk below
        # t = 0.1 (margin 0.026), so the finite-t route is refused from the one pass,
        # with no arc round and no node
        got = det_zeta_auto(scalar_spec(0.3, Robin(-0.7999)))
        diag = got.diagnostics
        assert got.method == "closed_form" and "finite_t_value" not in diag
        assert diag["finite_t_error"].endswith("certifies no such disk (margin 0.026)")
        assert (diag["passes"], diag["nodes"]) == (1, 0)

    @pytest.mark.parametrize("case", range(len(POOL_Q4)))
    def test_four_channel_spectrum_samples_and_rounds(self, case, monkeypatch):
        # a diagonal tip's channels are counted on the grid of spacing pi / (4 R)
        # that one channel needs, not pi / (16 R), so the first pass samples mu = 0
        # and about 4 mu_max R / pi grid points, and nothing more on the real axis;
        # each root comes from its own channel's Taylor polynomial, with no
        # Newton round
        r, beta, channels = POOL_Q4[case]
        bc = Dirichlet() if beta is None else Robin(beta / r)
        spec = diagonal_spec([scalar_spec(nu, bc, tip=tip, r=r) for nu, tip in channels])
        mu_max = 30.0 * math.pi / (4.0 * r)
        passes, rounds = [], []
        sample, refine = eigenfunction.SecularEvaluator.sample, eigenfunction._refine
        monkeypatch.setattr(
            eigenfunction.SecularEvaluator, "sample", lambda ev, mu: passes.append(mu) or sample(ev, mu)
        )

        def counted(ev, brackets):
            before = ev.counts["passes"]
            roots = refine(ev, brackets)
            rounds.append(ev.counts["passes"] - before)  # one kernel pass a Newton round
            return roots

        monkeypatch.setattr(eigenfunction, "_refine", counted)
        sp = find_spectrum(spec, mu_max)
        assert len(sp.positive) >= 28 and sp.negative == ()
        mu = np.concatenate(passes)
        assert np.count_nonzero(mu.imag == 0.0) <= math.ceil(4.0 * mu_max * r / math.pi) + 3
        assert sum(rounds) == 0 and sp.taylor_roots == len(sp.positive)

    @pytest.mark.parametrize(
        "spec",
        [
            scalar_spec(0.5, Robin(-3.0)),
            diagonal_spec([scalar_spec(0.5, Robin(-2.0)), scalar_spec(0.2, Robin(-2.0), tip="singular")]),
        ],
        ids=["q1", "q2"],
    )
    def test_negative_eigenvalues_refine_with_the_positive_ones(self, spec):
        # the real roots come from their channels' Taylor polynomials and the
        # imaginary-axis roots take the Newton rounds
        sp = find_spectrum(spec, 30.0)
        assert sp.negative and sp.positive
        assert sp.passes <= 5
        assert (sp.taylor_roots, sp.refined_roots) == (len(sp.positive), len(sp.negative))


def test_report_is_frozen_dataclass():
    rep = DeterminantReport(1.0, "closed_form", 0, False, {})
    with pytest.raises(AttributeError):
        rep.value = 2.0
