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
    diagonal_tip,
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


def _subset_loop(spec):
    """characteristic_values as a loop over the subsets S of columns, each monomial
    merged into the first earlier cell of its j within 1e-9 in alpha: the reference."""
    from itertools import combinations

    from regsing.operators import CharacteristicValues

    q, q0, nus = spec.q, spec.q0, spec.nus
    cells = []
    for size in range(q + 1):
        for subset in combinations(range(q), size):
            mixed = np.where(np.isin(np.arange(q), subset), spec.boundary.b_mat, spec.boundary.a_mat)
            coeff = complex(np.linalg.det(mixed)) * (-1.0) ** size
            j, alpha = 0, 0.0
            for l in subset:
                if l < q0:
                    j += 1
                else:
                    alpha += nus[l]
                    coeff *= tau_factor(nus[l])
            for cell in cells:
                if cell[0] == j and abs(cell[1] - alpha) <= 1e-9:
                    cell[2] += coeff
                    break
            else:
                cells.append([j, alpha, coeff])
    scale = max(abs(c) for _, _, c in cells)
    kept = sorted(
        ((j, a, c) for j, a, c in cells if abs(c) > 1e-13 * max(scale, 1.0)),
        key=lambda cell: (cell[1], cell[0]),
    )
    j0, _, a0 = min((cell for cell in kept if cell[1] - kept[0][1] <= 1e-9), key=lambda c: c[0])
    return CharacteristicValues(coefficients=tuple(kept), alpha0=kept[0][1], j0=j0, a0=a0)


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

    @pytest.mark.parametrize("ratio, names", [(1e-11, ["rank"]), (1e-9, [])])
    def test_diagonal_rank_test_agrees_with_the_svd(self, ratio, names):
        # the rows of a diagonal (a|b) are orthogonal, so its singular values are
        # the row norms hypot(|a_ll|, |b_ll|), here 1, 2 and 2 ratio, read with no
        # SVD; the same tip rotated into a coupled one, (a Q, b Q), has the same
        # singular values and the same a' b*, and takes the SVD
        a = np.diag([1.0, 0.0, 1.2 * ratio])
        b = np.diag([0.0, 2.0, 1.6 * ratio])
        c, s = np.cos(0.7), np.sin(0.7)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
            [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
        )
        lambdas = [0.0, 0.1, 0.2]
        diagonal, coupled = _spec(a, b, lambdas, 0), _spec(a @ rot, b @ rot, lambdas, 0)
        assert diagonal_tip(diagonal.boundary) and not diagonal_tip(coupled.boundary)
        for spec in (diagonal, coupled):
            assert [v.name for v in validate(spec)] == names

    def test_diagonal_rank_test_fails_a_nan_entry(self):
        # the SVD of a coupled tip refuses a NaN entry (LinAlgError); the row
        # norms of a diagonal one are NaN, which fails the rank test
        out = validate(_spec([[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]], [0.0, 0.1], 0))
        assert [v.name for v in out] == ["rank"]

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

    # (q, q0, nus of the other channels): repeated nu and subset sums within
    # rounding of another nu (0.1 + 0.2 against 0.3) make cells of several subsets
    SEEDED_TIPS = [
        (1, 0, (0.3,)),
        (1, 1, ()),
        (2, 0, (0.3, 0.3)),
        (2, 1, (0.45,)),
        (3, 0, (0.1, 0.2, 0.3)),
        (3, 1, (0.25, 0.25)),
        (4, 0, (0.1, 0.2, 0.3, 0.3)),
        (4, 2, (0.35, 0.7)),
    ]

    @pytest.mark.parametrize("kind", ["diagonal", "coupled"])
    @pytest.mark.parametrize("q, q0, nus", SEEDED_TIPS)
    def test_monomials_reproduce_the_polynomial_on_seeded_tips(self, q, q0, nus, kind):
        # the cells sum to p(x, y) = det(a - b D) at random (x, y), so none is
        # lost, and no two of them share j with exponents within 1e-9, so none is
        # split; log channels (q0 > 0) take the powers of x
        rng = np.random.default_rng(1000 * q + 10 * q0 + (kind == "coupled"))
        if kind == "diagonal":
            a, b = np.diag(rng.normal(size=q)), np.diag(rng.normal(size=q))
        else:
            a = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            b = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        all_nus = (0.0,) * q0 + nus
        cv = characteristic_values(_spec(a, b, [nu * nu - 0.25 for nu in all_nus], q0))
        for (j1, a1, _), (j2, a2, _) in zip(cv.coefficients, cv.coefficients[1:]):
            assert (a1, j1) < (a2, j2)  # ascending in (alpha, j)
        cells = [(j, alpha) for j, alpha, _ in cv.coefficients]
        for i, (j1, a1) in enumerate(cells):
            assert all(j1 != j2 or abs(a1 - a2) > 1e-9 for j2, a2 in cells[i + 1 :])
        taus = [tau_factor(nu) for nu in nus]
        for x, y in rng.uniform(0.3, 2.5, size=(5, 2)):
            d = np.diag([x] * q0 + [t * y ** (2.0 * nu) for t, nu in zip(taus, nus)])
            want = np.linalg.det(a - b @ d)
            got = sum(c * x**j * y ** (2.0 * alpha) for j, alpha, c in cv.coefficients)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", ["diagonal", "coupled"])
    @pytest.mark.parametrize("q, q0, nus", SEEDED_TIPS)
    def test_same_cells_as_the_subset_loop(self, q, q0, nus, kind):
        # the array expansion and the one-sort merge against a loop over the
        # subsets with a pairwise merge: the same cells, to the last bit and the
        # sign of every zero
        rng = np.random.default_rng(2000 * q + 10 * q0 + (kind == "coupled"))
        if kind == "diagonal":
            pick = rng.integers(0, 2, size=q)
            a, b = np.diag(1.0 - pick), np.diag(pick * 1.0)
        else:
            a = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            b = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        spec = _spec(a, b, [nu * nu - 0.25 for nu in (0.0,) * q0 + nus], q0)
        assert repr(characteristic_values(spec)) == repr(_subset_loop(spec))

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
