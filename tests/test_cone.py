"""Cone assembly: contribution windows, determinants, factor reports."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing.cone import (
    ConeSpec,
    ConeSpecError,
    IncompleteSpectrumError,
    component_report,
    cone_determinant,
    contribution_sets,
)
from regsing.determinant import det_wronskian_scalar
from regsing.operators import Dirichlet, Robin
from regsing.special import gamma_fn

SQRT_2PI = math.sqrt(2.0 * math.pi)


@pytest.fixture(scope="module")
def circle_cone():
    """Unit disk as a cone over S^1: coclosed function spectrum {0, 1, 1, 4, 4},
    coclosed 1-form spectrum {0} (padded past 4 to certify completeness)."""
    return ConeSpec(
        m=2,
        ccl_spectra={0: ((0.0, 1), (1.0, 2), (4.0, 2)), 1: ((0.0, 1), (4.5, 1))},
        harmonic_dims={0: 1, 1: 1},
    )


@pytest.fixture(scope="module")
def sphere_cone():
    """Cone over S^2 (m = 3): coclosed spectra l(l+1) with multiplicities."""
    return ConeSpec(
        m=3,
        ccl_spectra={
            0: ((0.0, 1), (2.0, 3), (6.0, 5)),
            1: ((2.0, 3), (6.0, 5)),
            2: ((0.0, 1), (4.5, 1)),
        },
        harmonic_dims={0: 1, 1: 0, 2: 1},
    )


def _product(factors):
    out = 1.0
    for f in factors:
        out *= f.value**f.multiplicity
    return out


class TestCircle:
    def test_contribution_sets(self, circle_cone):
        c0 = contribution_sets(circle_cone, 0)
        assert c0.a_set == ((0.0, 1),) and c0.b_set == ()
        c1 = contribution_sets(circle_cone, 1)
        assert c1.a_set == () and c1.a_tilde_km2 == ()
        assert c1.b_set == ((1.0, 2),)
        c2 = contribution_sets(circle_cone, 2)
        assert c2.a_tilde_km2 == () and c2.b_set == ()
        assert c2.p_factor == pytest.approx(math.sqrt(math.pi / 2.0))

    def test_determinant_triple(self, circle_cone):
        # independently derived: sqrt(2 pi), (2 pi /4)^2, sqrt(pi/2)
        assert abs(cone_determinant(circle_cone, 0) - SQRT_2PI) <= 1e-12 * SQRT_2PI
        want1 = (2.0 * math.pi * 1.0 / (4.0 * 1.0)) ** 2
        assert want1 == pytest.approx(math.pi**2 / 4.0)
        assert abs(cone_determinant(circle_cone, 1) - want1) <= 1e-12 * want1
        want2 = math.sqrt(math.pi / 2.0)
        assert abs(cone_determinant(circle_cone, 2) - want2) <= 1e-12 * want2

    def test_component_product_identity(self, circle_cone):
        for k in (0, 1, 2):
            det = cone_determinant(circle_cone, k)
            assert abs(det - _product(component_report(circle_cone, k))) <= 1e-12 * det

    def test_factor_origins(self, circle_cone):
        facs1 = component_report(circle_cone, 1)
        assert [f.source for f in facs1] == ["paired"]
        assert facs1[0].value == pytest.approx(math.pi / 2.0)
        facs0 = component_report(circle_cone, 0)
        assert [f.source for f in facs0] == ["harmonic-k"]
        assert facs0[0].value == pytest.approx(SQRT_2PI)

    def test_inactive_degrees_are_one(self, circle_cone):
        assert cone_determinant(circle_cone, 3) == 1.0
        assert cone_determinant(circle_cone, -1) == 1.0
        assert component_report(circle_cone, 3) == []


class TestSphere:
    def test_degree0_is_two(self, sphere_cone):
        # A_0 = {nu = 1/2 from the harmonic function}, Dirichlet factor = 2
        assert cone_determinant(sphere_cone, 0) == pytest.approx(2.0, rel=1e-13, abs=0.0)

    def test_degree3_is_two_thirds(self, sphere_cone):
        # only P_3 = (2/3)^(dim H^2) survives
        assert cone_determinant(sphere_cone, 3) == pytest.approx(2.0 / 3.0, rel=1e-13, abs=0.0)

    def test_component_identity(self, sphere_cone):
        for k in range(4):
            det = cone_determinant(sphere_cone, k)
            assert abs(det - _product(component_report(sphere_cone, k))) <= 1e-12 * det

    def test_paired_factor_values(self, sphere_cone):
        facs = component_report(sphere_cone, 1)
        want = 2.0 * math.pi * 2.0 / (8.0 * gamma_fn(2.5) ** 2)
        assert [f.source for f in facs] == ["paired"]
        assert facs[0].value == pytest.approx(want, rel=1e-13, abs=0.0)
        assert facs[0].multiplicity == 3


class TestCrossModuleIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(min_value=0.01, max_value=3.0),
        k=st.integers(min_value=0, max_value=4),
        m=st.integers(min_value=2, max_value=5),
    )
    def test_paired_equals_product_of_scalar_determinants(self, lam, k, m):
        # paired factor == Dirichlet factor x Robin factor at alpha = -(k - n/2)
        shift = (k - m / 2.0) ** 2
        if not (abs(k - m / 2.0) < 2.0 and lam < 4.0 - shift):
            return
        nu = math.sqrt(lam + shift)
        n = m - 1
        paired = 2.0 * math.pi * (nu - k + m / 2.0) / (2.0 ** (2.0 * nu) * gamma_fn(1.0 + nu) ** 2)
        product = det_wronskian_scalar(nu, Dirichlet()) * det_wronskian_scalar(
            nu, Robin(-(k - n / 2.0))
        )
        assert abs(paired - product) <= 1e-12 * abs(product)


class TestWindows:
    def test_boundary_eigenvalue_excluded_with_warning(self):
        cone = ConeSpec(
            m=2,
            ccl_spectra={0: ((0.0, 1), (4.0, 1)), 1: ((0.0, 1), (4.5, 1))},
            harmonic_dims={0: 1, 1: 1},
        )
        with pytest.warns(UserWarning, match="window boundary"):
            contrib = contribution_sets(cone, 1)
        assert contrib.b_set == ()

    def test_exact_factor_of_a_tilde(self):
        # degree k = m/2 + 1 reads A~_{k-2} from degree 0: the harmonic factor
        # P_k = sqrt(pi/2) first, then the Robin factor of lambda = 1/2,
        # S(nu) (nu + m/2 + 1 - k) at nu = sqrt(1/2)
        cone = ConeSpec(
            m=2,
            ccl_spectra={0: ((0.0, 1), (0.5, 1), (4.0, 1)), 1: ((0.0, 1), (4.5, 1))},
            harmonic_dims={0: 1, 1: 1},
        )
        harmonic, exact = contribution_sets(cone, 2).factors[:2]
        assert (harmonic.source, harmonic.nu) == ("harmonic-km1", None)
        assert harmonic.value == math.sqrt(math.pi / 2.0)
        assert (exact.source, exact.nu, exact.multiplicity) == ("exact", math.sqrt(0.5), 1)
        assert exact.value == pytest.approx(2.036721618933504, rel=1e-15, abs=0.0)

    def test_incomplete_spectrum_raises(self):
        cone = ConeSpec(
            m=2,
            ccl_spectra={0: ((0.0, 1), (1.0, 2)), 1: ((0.0, 1), (4.5, 1))},
            harmonic_dims={0: 1, 1: 1},
        )
        with pytest.raises(IncompleteSpectrumError):
            cone_determinant(cone, 1)

    def test_r_not_one_refused(self):
        with pytest.raises(ConeSpecError):
            ConeSpec(m=2, ccl_spectra={}, harmonic_dims={}, r=2.0)

    def test_harmonic_dim_consistency_enforced(self):
        with pytest.raises(ConeSpecError):
            ConeSpec(
                m=2,
                ccl_spectra={0: ((0.0, 2), (4.5, 1))},
                harmonic_dims={0: 1},
            )
