"""The Taylor circle from sampled values of known polynomials in lambda = mu^2."""

import numpy as np
import pytest

from regsing.circle import KernelOrderError, TaylorCircle, circle_radius


def _sampled(poly, r: float, m: int) -> np.ndarray:
    """poly(lambda) at the circle's m points lambda_j = (radius e^(i pi j/m))^2."""
    mu = circle_radius(r) * np.exp(1j * np.pi * np.arange(m) / m)
    return poly(mu**2)


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("r", [1.0, 2.5])
def test_power_sums_of_a_known_polynomial(m, r):
    # F = prod_k (1 - lambda / lambda_k), zeros beyond the circle on both sides of
    # 0: p_n = sum_k (rho / lambda_k)^n for every n the circle gives, m - 1 of them
    zeros = np.array([2.0, 3.5, -4.0, 6.0]) / r**2
    circle = TaylorCircle(_sampled(lambda lam: np.prod(1.0 - lam[:, None] / zeros, axis=1), r, m), r, 1)
    p, dp = circle.power_sums
    rho = circle.radius**2
    want = [np.sum((rho / zeros) ** n) for n in range(1, m)]
    assert circle.k0 == 0 and p.size == m - 1
    assert np.max(np.abs(p - want)) <= 1e-14
    assert np.all(np.abs(p - want) <= dp + 1e-16)


@pytest.mark.parametrize("m", [16, 64])
def test_double_zero_gives_kernel_order_two(m):
    # F = 3 lambda^2 (1 - lambda / 2): k0 = 2, F~(0) = 3, and the one zero of F~
    circle = TaylorCircle(_sampled(lambda lam: 3.0 * lam**2 * (1.0 - lam / 2.0), 1.0, m), 1.0, 2)
    assert circle.k0 == 2
    assert abs(circle.f_tilde0 - 3.0) <= 1e-14 * 3.0
    p, _ = circle.power_sums
    rho = circle.radius**2
    assert p.size == m - 3
    assert np.max(np.abs(p - (rho / 2.0) ** np.arange(1, p.size + 1))) <= 1e-14
    assert abs(circle.zeta_1 - 0.5) <= 1e-14
    with pytest.raises(KernelOrderError, match="exceeds q = 1"):
        TaylorCircle(circle.values, 1.0, 1).k0
