"""Boundary data validation, scalar classification, boundary polynomial."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing.operators import (
    BoundaryMatrices,
    Dirichlet,
    OperatorSpec,
    OperatorSpecError,
    Robin,
    characteristic_values,
    diagonal_spec,
    scalar_spec,
    tau_factor,
    validate,
)


def _spec(a, b, lambdas, q0, bc=Robin(0.0), r=1.0):
    return OperatorSpec(
        r=r,
        lambdas=tuple(lambdas),
        q0=q0,
        boundary=BoundaryMatrices(np.array(a), np.array(b)),
        regular_bc=bc,
    )


class TestValidate:
    def test_scalar_regular_rows_ok(self):
        assert validate(_spec([[0.0]], [[1.0]], [0.0], 0)) == []

    def test_zero_block_fails_rank(self):
        out = validate(_spec([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [-0.25, 0.0], 1))
        assert [v.name for v in out] == ["rank"]

    def test_nonhermitian_product_fails(self):
        # q=2, q0=1, a=I, b=diag(i, 0): a'b* = diag(i, 0), not Hermitian
        out = validate(
            _spec([[1.0, 0.0], [0.0, 1.0]], [[1j, 0.0], [0.0, 0.0]], [-0.25, 0.0], 1)
        )
        assert "self-adjointness" in [v.name for v in out]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(OperatorSpecError):
            _spec([[0.0]], [[1.0]], [-0.25, 0.0], 1)


class TestCharacteristicValues:
    def test_scalar_regular_nu0(self):
        cv = characteristic_values(scalar_spec(0.0, Robin(0.0), tip="regular"))
        assert cv.alpha0 == 0.0 and cv.j0 == 1
        assert cv.a0 == pytest.approx(-1.0)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.9])
    def test_scalar_regular_nu_positive(self, nu):
        cv = characteristic_values(scalar_spec(nu, Robin(0.0), tip="regular"))
        assert cv.alpha0 == pytest.approx(nu, abs=1e-12) and cv.j0 == 0
        assert cv.a0 == pytest.approx(-tau_factor(nu), rel=1e-13, abs=0.0)

    def test_scalar_singular_rows(self):
        cv = characteristic_values(scalar_spec(0.5, Robin(0.0), tip="singular"))
        assert cv.alpha0 == 0.0 and cv.j0 == 0 and cv.a0 == pytest.approx(1.0)

    def test_degenerate_rows_rejected(self):
        spec = _spec([[0.0]], [[0.0]], [0.0], 0)
        with pytest.raises(OperatorSpecError):
            characteristic_values(spec)

    def test_subset_sum_property(self):
        spec = diagonal_spec(
            [
                scalar_spec(0.31, Robin(0.2), tip="regular"),
                scalar_spec(0.62, Robin(0.2), tip="regular"),
            ]
        )
        cv = characteristic_values(spec)
        nus = spec.nus
        sums = {0.0, nus[0], nus[1], nus[0] + nus[1]}
        for _, alpha, _ in cv.coefficients:
            assert any(abs(alpha - s) <= 1e-12 for s in sums)

    @settings(max_examples=25, deadline=None)
    @given(
        nu1=st.floats(min_value=0.05, max_value=0.95),
        nu2=st.floats(min_value=0.05, max_value=0.95),
        tip1=st.sampled_from(["regular", "singular"]),
        tip2=st.sampled_from(["regular", "singular"]),
    )
    def test_diagonal_multiplicativity(self, nu1, nu2, tip1, tip2):
        s1 = scalar_spec(nu1, Robin(0.1), tip=tip1)
        s2 = scalar_spec(nu2, Robin(0.1), tip=tip2)
        joint = characteristic_values(diagonal_spec([s1, s2]))
        c1 = characteristic_values(s1)
        c2 = characteristic_values(s2)
        assert joint.alpha0 == pytest.approx(c1.alpha0 + c2.alpha0, abs=1e-9)
        assert joint.j0 == c1.j0 + c2.j0
        assert joint.a0 == pytest.approx(c1.a0 * c2.a0, rel=1e-10)

    def test_expansion_matches_the_polynomial_on_coupled_rows(self):
        # full (non-diagonal) tip matrices: the monomials must sum to
        # p(x, y) = det(a - b D), D = diag(x, tau_1 y^(2 nu_1), tau_2 y^(2 nu_2))
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        nus = (0.0, 0.3, 0.7)
        spec = _spec(a, b, [nu * nu - 0.25 for nu in nus], q0=1)
        cv = characteristic_values(spec)
        assert len(cv.coefficients) == 8
        for x, y in ((0.7, 1.3), (-1.1, 0.4), (2.0, 2.5)):
            d = np.diag([x] + [tau_factor(nu) * y ** (2.0 * nu) for nu in nus[1:]])
            want = np.linalg.det(a - b @ d)
            got = sum(c * x**j * y ** (2.0 * alpha) for j, alpha, c in cv.coefficients)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_mixed_q0_block(self):
        spec = diagonal_spec(
            [
                scalar_spec(0.0, Robin(0.0), tip="regular"),
                scalar_spec(0.4, Robin(0.0), tip="regular"),
            ]
        )
        cv = characteristic_values(spec)
        # p(x, y) = (-x)(-tau y^(2*0.4)) => alpha0 = 0.4 at j0 = 1
        assert cv.alpha0 == pytest.approx(0.4, abs=1e-12)
        assert cv.j0 == 1
        assert cv.a0 == pytest.approx(tau_factor(0.4), rel=1e-13, abs=0.0)


class TestSpecInvariants:
    def test_kappa_recomputed(self):
        s = scalar_spec(0.3, Robin(0.25), tip="regular", r=4.0)
        assert s.kappa == pytest.approx(1.0 / (2.0 * 2.0) + 0.25 * 2.0)

    def test_kappa_requires_robin(self):
        s = scalar_spec(0.3, Dirichlet(), tip="regular")
        with pytest.raises(OperatorSpecError):
            _ = s.kappa

    def test_lambda_window_enforced(self):
        with pytest.raises(OperatorSpecError):
            _spec([[0.0]], [[1.0]], [0.75], 0)
        with pytest.raises(OperatorSpecError):
            _spec([[0.0]], [[1.0]], [-0.3], 0)

    def test_q0_must_count_bottom_eigenvalues(self):
        with pytest.raises(OperatorSpecError):
            _spec([[0.0]], [[1.0]], [-0.25], 0)

    def test_unsorted_rejected(self):
        with pytest.raises(OperatorSpecError):
            _spec(np.zeros((2, 2)), np.eye(2), [0.5, 0.0], 0)
