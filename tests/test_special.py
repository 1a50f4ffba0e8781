"""Special-function kernel: frozen references, identities, domains.

Reference values were computed with mpmath at 30 significant digits and
frozen here; the other oracles call mpmath directly.  The scaled row
kernel is checked across its series seam at |w| = 1, on both axes
against mpmath (densely on the imaginary series segment up to |w| = 20),
off the real axis beyond |w| = 20 against mpmath, across each axis
against the zone just off it, and for the scipy routines each zone
calls.
"""

import collections
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing import special
from regsing.special import (
    EULER_GAMMA,
    KernelTable,
    SpecialFunctionDomainError,
    bessel_j,
    bessel_j_deriv,
    bessel_jm0,
    bessel_jm0_rows,
    bessel_jm0_series,
    bessel_y,
    bessel_y_deriv,
    gamma_fn,
    phi_rows,
)

ENVELOPE = lambda x: math.sqrt(2.0 / (math.pi * x))  # noqa: E731

# (nu, x, reference) from mpmath besselj, 30 dps
J_REFS = [
    (0.0, 1.0, 0.76519768655796655145),
    (0.3, 0.7, 0.73859182062021894229),
    (0.5, 12.0, -0.12358853595594194375),
    (0.9, 15.0, 0.19957071328422591596),
    (0.3, 48.0, -0.10685360333568169985),
]

Y_REFS = [
    (0.0, 1.0, 0.088256964215676957983),
    (0.3, 0.7, -0.54790720456686490827),
    (1.0, 2.5, 0.14591813796678579888),
    (0.9, 30.0, 0.065218687054581209761),
]

GAMMA_REFS = [
    (3.7, 4.1706517837966031654),
    (7.25, 1155.3810139199896872),
    (0.9, 1.0686287021193193549),
    (9.99, 354802.01701983092735),
    (-1.3, 3.3283470067886097069),
]


def test_j_trivial_values():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_j_first_zero_of_j1(j1_zeros_oracle):
    root = j1_zeros_oracle[0]
    assert abs(root - 3.8317059702) < 1e-9
    assert abs(bessel_j(1.0, root)) < 1e-9


@pytest.mark.parametrize("nu,x,ref", J_REFS)
def test_j_frozen_references(nu, x, ref):
    assert abs(bessel_j(nu, x) - ref) < 1e-12 * max(abs(ref), ENVELOPE(x))


def test_j_complex_references():
    val = bessel_j(0.9, 2.0 - 5.0j)
    ref = 22.119104976848233489 + 9.8701461271904399834j
    assert abs(val - ref) / abs(ref) < 1e-12
    val = bessel_j(0.5, 3.0 + 4.0j)
    ref = -3.0813244033972604473 - 9.2374868886291193456j
    assert abs(val - ref) / abs(ref) < 1e-12


@pytest.mark.parametrize("nu,x,ref", Y_REFS)
def test_y_frozen_references(nu, x, ref):
    assert abs(bessel_y(nu, x) - ref) < 1e-12 * max(abs(ref), ENVELOPE(x))


WRONSKIAN_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.5, 26.0, 33.0, 41.0, 50.0]


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.9])
def test_wronskian_identity(nu):
    # J Y' - J' Y = 2/(pi x)
    for x in WRONSKIAN_GRID:
        w = bessel_j(nu, x) * bessel_y_deriv(nu, x) - bessel_j_deriv(nu, x) * bessel_y(nu, x)
        assert abs(w - 2.0 / (math.pi * x)) <= 1e-12


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.9])
def test_derivative_identity(nu):
    # J'_nu = J_{nu-1} - (nu/x) J_nu, with J_{nu-1} from mpmath
    for x in WRONSKIAN_GRID:
        lhs = bessel_j_deriv(nu, x)
        rhs = float(mpmath.besselj(nu - 1.0, x)) - (nu / x) * bessel_j(nu, x)
        assert abs(lhs - rhs) <= 1e-11


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.9])
def test_turnover_identity(nu):
    # (iz)^(-nu) J_nu(iz) = z^(-nu) I_nu(z)
    for z in [0.1, 0.7, 2.0, 6.0, 12.0, 19.0, 24.0, 30.0]:
        lhs = (1j * z) ** (-nu) * bessel_j(nu, 1j * z)
        rhs = z ** (-nu) * float(mpmath.besseli(nu, z))
        assert abs(lhs - rhs) / abs(rhs) <= 1e-11


# -- logarithmic companion of J_0 -------------------------------------------

def test_jm0_at_unit_arguments():
    # at mu = x = 1 the definition reduces to (pi/2) Y0(1) - (gamma - log 2) J0(1),
    # which equals the series form -sum_{k>=1} H_k (-1/4)^k / (k!)^2
    want = 0.5 * math.pi * bessel_y(0.0, 1.0) - (EULER_GAMMA - math.log(2.0)) * bessel_j(0.0, 1.0)
    assert abs(bessel_jm0(1.0, 1.0) - want) == 0.0
    series = -mpmath.nsum(
        lambda k: mpmath.harmonic(k) * (-0.25) ** k / mpmath.factorial(k) ** 2, [1, mpmath.inf]
    )
    assert abs(want - float(series)) < 1e-14


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x", [0.3, 1.0])
def test_jm0_dual_representation_grid(mu, x):
    assert abs(bessel_jm0(mu, x) - bessel_jm0_series(mu, x).real) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(min_value=0.05, max_value=6.0),
    x=st.floats(min_value=0.05, max_value=2.5),
)
def test_jm0_dual_representation_property(mu, x):
    assert abs(bessel_jm0(mu, x) - bessel_jm0_series(mu, x).real) <= 1e-10


def test_jm0_small_mu_limit_is_log_x():
    for x in [0.3, 1.0, 2.0]:
        assert abs(bessel_jm0(1e-7, x) - math.log(x)) < 1e-11


def test_jm0_series_even_in_mu():
    for mu in [0.7 + 0.4j, 2.0 - 1.0j]:
        a = bessel_jm0_series(mu, 1.3)
        b = bessel_jm0_series(-mu, 1.3)
        assert a == b


def test_jm0_domain_errors():
    with pytest.raises(SpecialFunctionDomainError):
        bessel_jm0(-1.0, 1.0)
    with pytest.raises(SpecialFunctionDomainError):
        bessel_jm0(1.0, 0.0)


# -- gamma --------------------------------------------------------------------

def test_gamma_exact_points():
    assert abs(gamma_fn(1.0) - 1.0) < 1e-15
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
    assert abs(gamma_fn(1.5) - math.sqrt(math.pi) / 2.0) < 1e-15
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x,ref", GAMMA_REFS)
def test_gamma_frozen_references(x, ref):
    assert abs(gamma_fn(x) - ref) / abs(ref) < 1e-13


@settings(max_examples=80, deadline=None)
@given(x=st.floats(min_value=0.5, max_value=9.0))
def test_gamma_recurrence(x):
    assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-13 * abs(gamma_fn(x + 1.0))


def test_gamma_poles():
    for x in (0.0, -1.0, -5.0):
        with pytest.raises(SpecialFunctionDomainError):
            gamma_fn(x)


# -- domains --------------------------------------------------------------------

def test_negative_real_axis_is_rejected():
    with pytest.raises(SpecialFunctionDomainError):
        bessel_j(0.5, -3.0)
    with pytest.raises(SpecialFunctionDomainError):
        bessel_y(0.0, -1.0)


def test_negative_order_is_rejected():
    with pytest.raises(SpecialFunctionDomainError):
        bessel_j(-0.3, 1.0)


# -- large arguments and the scaled row kernel ---------------------------------

@pytest.mark.parametrize("radius", [600.0, 5000.0])
@pytest.mark.parametrize("imag", [0.0, 40.0, 600.0])
def test_large_arguments_match_mpmath(radius, imag):
    # errors relative to the envelope sqrt(2/(pi |z|)) exp(|Im z|); no warning on the way
    z = complex(math.sqrt(radius * radius - imag * imag), imag)
    envelope = ENVELOPE(radius)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (0.0, 0.3, 0.9):
            with mpmath.workdps(40):
                ref = complex(mpmath.besselj(nu, z) * mpmath.exp(-imag))
            assert abs(bessel_j(nu, z) * math.exp(-imag) - ref) <= 1e-13 * envelope
        for x in (0.5, 2.0):
            mu = z / x
            with mpmath.workdps(40):
                ref = (
                    0.5 * mpmath.pi * mpmath.bessely(0, z)
                    - (mpmath.log(mu) - mpmath.log(2) + mpmath.euler) * mpmath.besselj(0, z)
                )
                ref = complex(ref * mpmath.exp(-imag))
            scale = max(1.0, abs(math.log(abs(mu))))  # the log(mu) J_0 term
            assert abs(bessel_jm0_series(mu, x) - ref) <= 1e-13 * envelope * scale


@pytest.mark.parametrize("order", [0.0, 0.3, -0.3, 0.9, -0.9])
def test_normalized_bessel_continuous_across_series_seam(order):
    # at order 0 also the companion: the psi rows, and C, C_x, C_mu built on them
    s = np.array([order])
    for angle in (0.0, 0.4, 1.1, 0.5 * math.pi):
        unit = complex(math.cos(angle), math.sin(angle))
        inside, outside = (1.0 - 1e-15) * unit, (1.0 + 1e-15) * unit
        assert abs(inside) <= 1.0 < abs(outside)
        w = np.array([inside, outside])
        val, der, psi = phi_rows(KernelTable(s), w)
        rows = [val[0], der[0]]
        if order == 0.0:
            rows += [*psi, *bessel_jm0_rows(w / 1.7, 1.7, val[0], der[0], psi)]
        for row in rows:
            assert abs(row[0] - row[1]) <= 1e-14


@pytest.mark.parametrize("order", [0.3, -0.3, 0.9, -0.9])
def test_normalized_bessel_at_zero(order):
    s = np.array([order])
    val, der, _ = phi_rows(KernelTable(s), np.zeros(1))
    assert val[0, 0] == 1.0 / gamma_fn(1.0 + order)
    assert der[0, 0] == 0.0


@pytest.mark.parametrize("where", ["inside", "outside", "both"])
def test_stacked_rows_match_scalar_kernels(where):
    # every order of phi_rows over a 2 x 4 array, and the companion rows built
    # on its order-0 row, against one-point calls and against mpmath; one side
    # of the seam may be empty
    radius = {"inside": [0.2, 0.9], "outside": [1.5, 30.0], "both": [0.6, 4.0]}[where]
    w = np.array([r * np.exp(1j * a) for r in radius for a in (-1.4, -0.3, 0.0, 0.8)])
    w = w.reshape(2, 4)
    orders = np.array((0.0, 0.3, -0.3, 0.9, -0.9))
    table = KernelTable(orders)
    val, der, y = phi_rows(table, w)
    assert val.shape == der.shape == (5, 2, 4)
    for i in np.ndindex(w.shape):
        z = complex(w[i])
        one_val, one_der, _ = phi_rows(table, np.array([z]))
        for k, s in enumerate(orders.tolist()):
            assert abs(val[k][i] - one_val[k, 0]) <= 1e-15 * max(1.0, abs(one_val[k, 0]))
            assert abs(der[k][i] - one_der[k, 0]) <= 1e-15 * max(1.0, abs(one_der[k, 0]))
            with mpmath.workdps(30):
                zm = mpmath.mpc(z)
                scale = mpmath.exp(-abs(zm.imag)) * (zm / 2) ** (-s)
                want_val = complex(scale * mpmath.besselj(s, zm))
                want_der = complex(-scale * mpmath.besselj(s + 1, zm))
            assert abs(val[k][i] - want_val) <= 1e-14 * max(1.0, abs(want_val))
            assert abs(der[k][i] - want_der) <= 1e-14 * max(1.0, abs(want_der))
    x = 1.7
    c = bessel_jm0_rows(w / x, x, val[0], der[0], y)[0]
    for i in np.ndindex(w.shape):
        want = bessel_jm0_series(complex(w[i]) / x, x)
        assert abs(c[i] - want) <= 1e-14 * max(1.0, abs(want))


# the axis zones of phi_rows: orders of every row kind (0, +-nu with nu near
# 0, 1/2 and 1) and radii from just outside the series disk to |w| = 1000,
# on both sides of the imaginary axis's seam at |w| = 20
AXIS_ORDERS = (0.0, 0.05, -0.05, 0.5, -0.5, 0.9, -0.9, 0.999, -0.999)
AXIS_RADII = (
    1.0 + 1e-15, 1.01, 1.7, 3.0, 9.9, 20.0 * (1.0 - 1e-15), 20.0, 20.0 * (1.0 + 1e-15),
    40.0, 123.4, 500.0, 1e3,
)
AXES = {"real": 1.0 + 0.0j, "+imag": 1.0j, "-imag": -1.0j}


def _axis_rows_against_mpmath(w):
    """(got, want) for every row of phi_rows over AXIS_ORDERS at every entry
    of w: values, derivatives and the companion's psi, psi', at 30 digits,
    with psi = (log(w/2) + gamma) J_0 - (pi/2) Y_0 and
    psi' = J_0 / w - (log(w/2) + gamma) J_1 + (pi/2) Y_1."""
    val, der, psi = phi_rows(KernelTable(AXIS_ORDERS), w)
    pairs = []
    for j, z in enumerate(w.tolist()):
        with mpmath.workdps(30):
            zm = mpmath.mpc(z)
            scale = mpmath.exp(-abs(zm.imag))
            log_term = mpmath.log(zm / 2) + mpmath.euler
            j0, j1 = mpmath.besselj(0, zm), mpmath.besselj(1, zm)
            y0, y1 = mpmath.bessely(0, zm), mpmath.bessely(1, zm)
            want = [
                (psi[0, j], scale * (log_term * j0 - mpmath.pi / 2 * y0)),
                (psi[1, j], scale * (j0 / zm - log_term * j1 + mpmath.pi / 2 * y1)),
            ]
            for k, s in enumerate(AXIS_ORDERS):
                power = scale * (zm / 2) ** (-s)
                want.append((val[k, j], power * mpmath.besselj(s, zm)))
                want.append((der[k, j], -power * mpmath.besselj(s + 1, zm)))
        pairs += [(got, complex(ref)) for got, ref in want]
    return pairs


@pytest.mark.parametrize("axis", AXES)
def test_axis_rows_match_mpmath(axis):
    # the hankel1e (real axis) and series and Hankel-expansion (imaginary axis) zones
    for got, want in _axis_rows_against_mpmath(AXES[axis] * np.array(AXIS_RADII)):
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_imaginary_rows_past_the_scipy_range_match_mpmath(sign):
    # far past x = 1.07e9, where scipy's ive and kve give NaN, Hankel's expansion
    # serves the imaginary axis as everywhere beyond |w| = 20: the rows
    # phi_s(+-ix) = (x/2)^(-s) I_s(x), phi_s'(+-ix) = -+i (x/2)^(-s) I_{s+1}(x)
    # and the companion's psi(+-ix) = (log(x/2) + gamma) I_0 + K_0,
    # psi'(+-ix) = -+i (I_0 / x + (log(x/2) + gamma) I_1 - K_1),
    # all times e^(-x), quietly, from x = 1e8 up to 1e20; each value exactly
    # real and each derivative exactly imaginary, as their series are
    orders = (0.3, -0.3, 0.0, 0.7, -0.7)
    x = np.array([1e8, 1e9, 1e12, 1e20])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, der, psi = phi_rows(KernelTable(orders), sign * 1j * x)
    assert not (val.imag.any() or der.real.any() or psi[0].imag.any() or psi[1].real.any())
    for j, xj in enumerate(x.tolist()):
        with mpmath.workdps(30):
            xm = mpmath.mpf(xj)
            scale, i_ = mpmath.exp(-xm), 1j * sign
            log_term = mpmath.log(xm / 2) + mpmath.euler
            i0, i1 = mpmath.besseli(0, xm), mpmath.besseli(1, xm)
            k0, k1 = mpmath.besselk(0, xm), mpmath.besselk(1, xm)
            want = [
                (psi[0, j], scale * (log_term * i0 + k0)),
                (psi[1, j], -i_ * scale * (i0 / xm + log_term * i1 - k1)),
            ]
            for k, s in enumerate(orders):
                power = scale * (xm / 2) ** (-s)
                want.append((val[k, j], power * mpmath.besseli(s, xm)))
                want.append((der[k, j], -i_ * power * mpmath.besseli(s + 1, xm)))
        for got, ref in want:
            ref = complex(ref)
            assert abs(got - ref) <= 1e-15 * abs(ref), (xj, got, ref)


@pytest.mark.parametrize("axis", ["+imag", "-imag"])
def test_imaginary_series_segment_matches_mpmath(axis):
    # the 40-term series on 1 < |w| <= 20, where its terms are of one sign,
    # and the psi rows from the same series: within 3e-15 relative on a dense
    # grid (scipy's iv and kve reached 2.2e-15 there)
    pairs = _axis_rows_against_mpmath(AXES[axis] * np.geomspace(1.0 + 1e-12, 20.0, 120))
    assert max(abs(got - want) / abs(want) for got, want in pairs) <= 3e-15


# the real zone's seams: the series disk below x = 1, the trapezoid sum of
# Hankel's integral up to x = 20, Hankel's expansion beyond
REAL_ORDERS = (0.0, 1e-3, -1e-3, 0.5, -0.5, 0.999, -0.999)
REAL_RADII = (
    1.0 - 1e-16, 1.0 + 2e-16, 1.0001, 1.3, 2.0, 4.7, 9.9, 15.0,
    20.0 * (1.0 - 1e-15), 20.0, 20.0 * (1.0 + 1e-15), 20.001, 31.0, 123.4, 1e3, 1e4, 1e5,
)


def test_real_zone_matches_mpmath_across_its_seams():
    # every row and its companion psi rows, on both sides of x = 1 and x = 20
    # and out to 1e5, within 2e-15 of the envelope (2/(pi x))^(1/2) times the
    # row's power (x/2)^(-s) (psi: times 1 + |log(x/2) + gamma|, its Y_0 weight)
    x = np.array(REAL_RADII)
    val, der, psi = phi_rows(KernelTable(REAL_ORDERS), x + 0j)
    worst = 0.0
    for j, xj in enumerate(x.tolist()):
        with mpmath.workdps(30):
            xm = mpmath.mpf(xj)
            envelope = mpmath.sqrt(2 / (mpmath.pi * xm))
            log_term = mpmath.log(xm / 2) + mpmath.euler
            j0, j1 = mpmath.besselj(0, xm), mpmath.besselj(1, xm)
            y0, y1 = mpmath.bessely(0, xm), mpmath.bessely(1, xm)
            scale = envelope * (1 + abs(log_term))
            want = [
                (psi[0, j], log_term * j0 - mpmath.pi / 2 * y0, scale),
                (psi[1, j], j0 / xm - log_term * j1 + mpmath.pi / 2 * y1, scale),
            ]
            for k, s in enumerate(REAL_ORDERS):
                power = (xm / 2) ** (-s)
                want.append((val[k, j], power * mpmath.besselj(s, xm), power * envelope))
                want.append((der[k, j], -power * mpmath.besselj(s + 1, xm), power * envelope))
        for got, ref, bar in want:
            assert got.imag == 0.0
            worst = max(worst, abs(got.real - float(ref)) / float(bar))
    assert worst <= 2e-15, worst


def test_real_axis_array_is_bit_identical_to_its_one_point_calls():
    # each entry of a real-axis array past x = 1, on both sides of x = 20, is
    # one (1, nodes) @ (nodes, columns) product of a stacked matmul: no
    # entry's value depends on the others, to the last bit.  The disk entries
    # of the same array are one plain matrix product, good to an ulp or two
    table = KernelTable((0.0, 0.3, -0.3, 0.999, -0.999))
    w = np.concatenate([np.linspace(0.5, 60.0, 61), [1.0, 1.0 + 2e-16, 20.0, 20.0 * (1.0 + 1e-15)]])
    rows = phi_rows(table, w + 0j)
    for j, wj in enumerate(w.tolist()):
        one = phi_rows(table, np.array([wj + 0j]))
        for many, single in zip(rows, one):
            if wj > 1.0:
                assert np.array_equal(many[:, j], single[:, 0]), wj
            else:
                assert np.all(np.abs(many[:, j] - single[:, 0]) <= 4e-16 * np.abs(single[:, 0]) + 1e-300)


def _mp_hurwitz_zeta(s: float, a: float):
    """zeta(s, a) at 50 digits: 60 terms, then Euler-Maclaurin with 30
    Bernoulli terms.  mpmath.zeta(s, a) itself loses digits at large a and s
    (2.3e-12 relative at s = 30, a = 131.2, even at 60 digits)."""
    with mpmath.workdps(50):
        s, a = mpmath.mpf(s), mpmath.mpf(a)
        b = a + 60
        tail = b ** (1 - s) / (s - 1) + b ** (-s) / 2
        for j in range(1, 31):
            coeff = mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
            tail += coeff * mpmath.rf(s, 2 * j - 1) * b ** (1 - s - 2 * j)
        return mpmath.fsum((a + k) ** (-s) for k in range(60)) + tail


@pytest.mark.parametrize("s", [1.001, 1.5, 2.0, 3.0, 4.0, 5.0, 7.3, 10.0, 30.0])
def test_hurwitz_zeta_matches_mpmath(s):
    # the direct zeta estimator's tail, at its arguments 2s, 2s + 1 and 2s + 2,
    # for tail starts a below and above the Euler-Maclaurin start s + 10 and
    # for a non-integer a, whose a + k round: within 1e-15 relative
    for a in (0.3, 1.0, 2.7, 9.99, 10.0, 11.3, 31.7, 131.2, 1000.5, 1e4):
        want = _mp_hurwitz_zeta(s, a)
        assert abs(special.hurwitz_zeta(s, a) - want) <= 1e-15 * want, (s, a)


def test_exp1_matches_mpmath():
    # the series up to x = 1, the continued fraction above, where the log
    # channel's ray tail takes E1 at 2 s (log x_cut - gamma~) > 0: within 1e-15
    # relative, and quietly
    x = np.concatenate([np.geomspace(1e-300, 1.0, 80), [1.0 + 2e-16], np.geomspace(1.0, 700.0, 120)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [special.exp1(v) for v in x.tolist()]
    for v, g in zip(x.tolist(), got):
        want = mpmath.e1(v)
        assert abs(g - want) <= 1e-15 * want, v
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(SpecialFunctionDomainError):
            special.exp1(bad)


@pytest.mark.parametrize("angle", [1e-12, -1e-12, 0.4, -0.4, 1.2])
def test_rows_off_the_real_axis_beyond_radius_20_match_mpmath(angle):
    # Hankel's expansion, from just outside |w| = 20 to 1e5, close to the real
    # axis and away from it; jve of negative order missed by about 3e-12 of
    # the envelope at |w| = 1e5
    w = np.array([20.0 * (1.0 + 1e-15), 40.0, 123.4, 1e3, 1e5]) * np.exp(1j * angle)
    for got, want in _axis_rows_against_mpmath(w):
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize(
    "axis,turn", [("real", 1e-12), ("real", -1e-12), ("+imag", -1e-12), ("-imag", 1e-12)]
)
def test_axis_rows_continuous_with_general_path(axis, turn):
    # w0 on the axis, w1 = w0 e^(i turn) just off it in the right half-plane:
    # the off-axis rows at w1 against the axis rows at w0 carried to w1 to first
    # order, with phi_s'' = -((2s + 1) phi_s' / w + phi_s) and
    # psi'' = -psi' / w - psi + 2 phi_0' / w (the second-order term is below
    # 1e-18 here).  Up to |w| = 20 the bound leaves room for the jve of negative
    # order, which is accurate to about 5e-14 near |w| = 20; beyond, both sides
    # of the imaginary axis are Hankel's expansion, and just off the real axis
    # it meets hankel1e within 9e-16.
    k = KernelTable(AXIS_ORDERS)
    w0 = AXES[axis] * np.array(AXIS_RADII)
    w1 = w0 * np.exp(1j * turn)
    assert np.all(np.abs(w1) > 1.0) and np.all(w1.real > 0.0) and np.all(w1.imag != 0.0)
    (v0, d0, p0), (v1, d1, p1) = phi_rows(k, w0), phi_rows(k, w1)
    dw = w1 - w0
    ratio = np.exp(np.abs(w0.imag) - np.abs(w1.imag))  # the change of exp(-|Im w|)
    s = np.array(AXIS_ORDERS)[:, None]
    want = [
        (v1, ratio * (v0 + d0 * dw)),
        (d1, ratio * (d0 - ((2.0 * s + 1.0) / w0 * d0 + v0) * dw)),
        (p1[0], ratio * (p0[0] + p0[1] * dw)),
        (p1[1], ratio * (p0[1] + (2.0 * d0[0] / w0 - p0[1] / w0 - p0[0]) * dw)),
    ]
    bound = np.where(np.abs(w0) > 20.0, 2e-15, 1e-13)
    for got, near in want:
        assert np.all(np.abs(got - near) <= bound * np.maximum(1.0, np.abs(near)))


class _CountingScipy:
    """``scipy.special`` with every call counted by routine name."""

    def __init__(self, calls: collections.Counter):
        self._calls = calls

    def __getattr__(self, name):
        routine = getattr(scipy.special, name)

        def counted(*args):
            self._calls[name] += 1
            return routine(*args)

        return counted


@pytest.mark.parametrize("axis", ["real", "+imag", "-imag", "off"])
def test_axis_rows_make_no_jve_call(monkeypatch, axis):
    # an array on either axis takes no scipy call at any radius, and the
    # companion rows built on it take none at all.  An array off the axes
    # takes jve and yve for its part in the annulus 1 < |w| <= 20 and none
    # beyond.
    calls = collections.Counter()
    monkeypatch.setattr(special, "sc", _CountingScipy(calls))
    unit = AXES.get(axis, np.exp(0.4j))
    table = KernelTable((0.0, 0.3, -0.3, 0.7, -0.7))
    w = unit * np.linspace(0.5, 300.0, 64)
    val, der, y = phi_rows(table, w)
    want = {"off": {"jve": 2, "yve": 1}}.get(axis, {})
    assert calls == want
    calls.clear()
    bessel_jm0_rows(w / 2.0, 2.0, val[0], der[0], y)
    phi_rows(table, unit * np.array([20.0 * (1.0 + 1e-15), 1e5, 1e300]))
    assert not calls
