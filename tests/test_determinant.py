"""Determinant routes: closed form, finite-t, regularized, Wronskian, zeta."""

import functools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing import cli, eigenfunction
from regsing._numutil import NumericalError
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
from regsing.operators import Dirichlet, Robin, diagonal_spec, scalar_spec
from tests.conftest import robin_regular

SQRT_2PI = math.sqrt(2.0 * math.pi)


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
        assert det_zeta_closed_form(spec).value == pytest.approx(2.0, rel=1e-13)

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


class TestFiniteT:
    def test_matches_closed_form_small_t(self):
        spec = robin_regular(0.0, 0.0)
        closed = det_zeta_closed_form(spec).value
        assert closed == pytest.approx(SQRT_2PI / 2.0, rel=1e-13)
        for t in (0.1, 0.3):
            got = det_zeta_finite_t(spec, t).value
            assert abs(got - closed) <= 1e-6 * closed
        v1 = det_zeta_finite_t(spec, 0.1).value
        v2 = det_zeta_finite_t(spec, 0.3).value
        assert abs(v1 - v2) <= 1e-6 * closed

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

    def test_matches_closed_form_at_r_10(self):
        spec = scalar_spec(0.3, Robin(0.5), r=10.0)
        closed = det_zeta_closed_form(spec).value
        assert abs(det_zeta_finite_t(spec, 0.1).value - closed) <= 1e-12 * closed

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
        assert abs(det_zeta_finite_t(spec, 0.1).value - closed) <= 1e-10 * closed

    def test_root_inside_contour_detected(self):
        # first eigenvalue of the Dirichlet fixture sits at pi
        spec = scalar_spec(0.5, Dirichlet(), tip="regular")
        with pytest.raises(RootInsideContourError):
            det_zeta_finite_t(spec, 4.0)

    def test_root_below_the_first_sample_detected(self):
        # F(0) = -1e-6 and F changes sign near mu = 1.6e-3, below t / 24
        spec = scalar_spec(0.3, Robin(-0.8 + 1e-6))
        with pytest.raises(RootInsideContourError):
            det_zeta_finite_t(spec, 0.1)
        got = det_zeta_auto(spec)
        assert got.diagnostics["finite_t_value"].startswith("unavailable: F has a zero below")
        assert got.value == pytest.approx(got.diagnostics["wronskian_value"], rel=1e-9)


class TestWronskian:
    def test_examples(self):
        assert det_wronskian_scalar(0.5, Robin(0.0)) == pytest.approx(2.0, rel=1e-14)
        assert det_wronskian_scalar(0.0, Robin(0.0)) == pytest.approx(SQRT_2PI / 2.0, rel=1e-14)
        assert det_wronskian_scalar(2.0, Dirichlet()) == pytest.approx(
            SQRT_2PI / (4.0 * math.gamma(3.0)), rel=1e-14
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
            cor_robin_formula(nu, 0.3), rel=1e-13
        )
        assert det_wronskian_scalar(nu, Dirichlet()) == pytest.approx(
            cor_dirichlet_formula(nu), rel=1e-13
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
        # F(0) is 1e-6 of its scale: kernel-free, one decision for every route
        spec = scalar_spec(0.3, Robin(-0.8 + 1e-6))
        got = det_zeta_auto(spec)
        assert got.method == "closed_form"
        assert got.value == pytest.approx(cor_robin_formula(0.3, -0.8 + 1e-6), rel=1e-9)


def _count_preparation(monkeypatch) -> Counter:
    """Count evaluator builds, validate and characteristic_values calls and
    kernel-order fits from now on."""
    calls = Counter()
    cls = eigenfunction.SecularEvaluator
    init, fit = cls.__init__, cls.__dict__["k0"].func
    charvals = eigenfunction.characteristic_values
    validate = eigenfunction.validate

    def counted_init(self, spec):
        calls["builds"] += 1
        init(self, spec)

    def counted_fit(self):
        calls["fits"] += 1
        return fit(self)

    def counted_charvals(spec):
        calls["charvals"] += 1
        return charvals(spec)

    def counted_validate(spec):
        calls["validate"] += 1
        return validate(spec)

    k0 = functools.cached_property(counted_fit)
    k0.__set_name__(cls, "k0")
    monkeypatch.setattr(cls, "__init__", counted_init)
    monkeypatch.setattr(cls, "k0", k0)
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

    def test_cli_exit_code(self, tmp_path, capsys):
        path = _write_scalar_doc(tmp_path, 0.367, -0.9)  # NEGATIVE_SPECS["nu 0.367"]
        assert main(["det", str(path)]) == EXIT_NUMERICAL
        assert "odd number of negative eigenvalues" in capsys.readouterr().err


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
        # zeta_eval reuses the evaluator that found the spectrum of the same spec
        calls = _count_preparation(monkeypatch)
        spec = kernel_fixture_third if kernel else robin_regular(0.3, 0.0)
        sp = find_spectrum(spec, 40.0)
        rep = zeta_eval(spec, 2.0, spectrum=sp)
        assert abs(rep.direct - rep.contour) <= 1e-4 * abs(rep.contour)
        assert calls == {"builds": 1, "validate": 1, "charvals": 1, "fits": 1}
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
        # the seven probe points of the fit go through one batched scaled call
        calls = Counter()
        cls = eigenfunction.SecularEvaluator
        scaled = cls.scaled

        def counted_scaled(self, mu):
            calls["scaled"] += 1
            return scaled(self, mu)

        monkeypatch.setattr(cls, "scaled", counted_scaled)
        spec = kernel_fixture_third if kernel else robin_regular(0.3, 0.0)
        ev = cls(spec)
        assert ev.k0 == (1 if kernel else 0)
        assert calls == {"scaled": 1}

    def test_regularized_reads_the_kernel_probes(self, monkeypatch):
        # one scaled call over 7 points: the Richardson samples are the
        # last three probes of the kernel-order fit
        points = []
        cls = eigenfunction.SecularEvaluator
        scaled = cls.scaled

        def counted_scaled(self, mu):
            points.append(np.size(mu))
            return scaled(self, mu)

        monkeypatch.setattr(cls, "scaled", counted_scaled)
        got = det_zeta_auto(scalar_spec(0.3, Robin(-0.8)))
        assert got.method == "regularized"
        assert points == [7]

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
        # F at the three probes is the same to the bit in the 7-point call
        # as in a call of its own
        ev = eigenfunction.SecularEvaluator(spec)
        assert ev.k0 >= 1
        alone = ev.value(np.array(eigenfunction._KERNEL_PROBES))
        assert ev._probes[-3:].tolist() == alone.tolist()


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

    @pytest.mark.parametrize("s", [2.0, 3.0])
    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.25, 0.3088, 0.5, 0.75, 0.9])
    def test_kernel_contour_error_covers_rayleigh_sums(self, nu, s):
        # alpha R = -nu - 1/2: a kernel (k0 = 1), and the nonzero spectrum is
        # j_{nu+1,k} / R, whose zeta at s = 2, 3 is a Rayleigh sum
        for r in [0.5, 1.0, 1.5, 3.0, 6.0]:
            rep = zeta_eval(scalar_spec(nu, Robin((-nu - 0.5) / r), r=r), s)
            if s == 2.0:
                want = r**4 / (16.0 * (nu + 2.0) ** 2 * (nu + 3.0))
            else:
                want = r**6 / (32.0 * (nu + 2.0) ** 3 * (nu + 3.0) * (nu + 4.0))
            assert abs(rep.contour - want) <= rep.contour_error, r

    def test_contour_radius_scales_with_length(self):
        # at R = 40 the first root (about 0.02) lies inside a fixed radius 0.1
        spec = scalar_spec(0.25, Robin(0.25 / 40.0), tip="singular", r=40.0)
        with pytest.raises(RootInsideContourError):
            zeta_eval(spec, 2.0, t_abs=0.1)
        sp = find_spectrum(spec, 30.0 * math.pi / 40.0)
        rep = zeta_eval(spec, 2.0, spectrum=sp)
        assert abs(rep.contour - rep.direct) <= 1e-10 * rep.direct

    def test_direct_requires_enough_roots(self, dirichlet_half):
        sp = find_spectrum(dirichlet_half, 40.0)
        with pytest.raises(NumericalError):
            zeta_eval(dirichlet_half, 0.8, spectrum=sp)

    def test_s_domain(self, dirichlet_half):
        with pytest.raises(ValueError):
            zeta_eval(dirichlet_half, 0.5)

    def test_noninteger_s_against_series(self, dirichlet_half):
        s = 1.25
        oracle = float(np.sum((np.arange(1, 200000) * math.pi) ** (-2.0 * s)))
        sp = find_spectrum(dirichlet_half, 120.0)
        rep = zeta_eval(dirichlet_half, s, spectrum=sp)
        assert abs(rep.direct - oracle) <= 2e-6 * oracle
        assert abs(rep.contour - oracle) <= 1e-4 * oracle


def test_report_is_frozen_dataclass():
    rep = DeterminantReport(1.0, "closed_form", 0, False, {})
    with pytest.raises(AttributeError):
        rep.value = 2.0
