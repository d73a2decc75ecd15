"""Tests for the radial multiplier profiles."""

import numpy as np
import pytest

from repeller_lab.profiles import (
    PhiProfile,
    ProfileError,
    build_phi,
    circle_radius,
    profile_3d,
    vertical_ramp,
)

SQRT10 = float(np.sqrt(10.0))


def default_profile(mu, **kw):
    return build_phi(mu, SQRT10, **kw)


# ------------------------------------------------------------- conditions

@pytest.mark.parametrize("mu", [0.0, 0.05, 0.2])
def test_value_at_zero(mu):
    phi = default_profile(mu)
    assert phi.value(0.0) == pytest.approx(1 - mu, abs=1e-14)


@pytest.mark.parametrize("mu", [0.0, 0.05, 0.2])
def test_saturation_past_delta0(mu):
    phi = default_profile(mu)
    w = np.linspace(phi.delta0, 10 * phi.delta0, 100)
    assert np.all(phi.value(w) == SQRT10)


def test_global_floor():
    phi = default_profile(0.1)
    w = np.linspace(0, 0.1, 5000)
    assert phi.value(w).min() >= 1 - 0.1 - 1e-12


def test_derivative_positive_and_bounded_inside():
    phi = default_profile(0.05)
    w = np.linspace(0, phi.delta0 * (1 - 1e-9), 5000)
    d = phi.derivative(w)
    assert d.min() > 0
    assert d.max() <= phi.c0 / phi.delta0 + 1e-9


def test_derivative_minimum_at_zero_on_inner_zone():
    phi = default_profile(0.05, quad=500.0)
    w = np.linspace(0, phi.delta1, 2000)
    d = phi.derivative(w)
    assert d.min() == pytest.approx(phi.derivative(0.0), abs=1e-12)


def test_value_above_sigma1_past_delta1():
    phi = default_profile(0.2)
    w = np.linspace(phi.delta1, 2 * phi.delta0, 2000)
    assert phi.value(w).min() > phi.sigma1


def test_c1_continuity_at_joints():
    phi = default_profile(0.1)
    h = 1e-9
    for joint in (phi.delta1, phi.delta0):
        left = phi.value(joint - h)
        right = phi.value(joint + h)
        assert right - left == pytest.approx(0.0, abs=1e-6)
        dl = (phi.value(joint) - phi.value(joint - h)) / h
        dr = (phi.value(joint + h) - phi.value(joint)) / h
        assert dl == pytest.approx(dr, abs=1e-3 * max(1.0, abs(dl)))


def test_derivative_matches_finite_differences():
    phi = default_profile(0.1)
    w = np.linspace(1e-4, 1.4 * phi.delta0, 301)
    h = 1e-8
    fd = (phi.value(w + h) - phi.value(w - h)) / (2 * h)
    # skip the two joints where the kink of the piecewise definition sits
    keep = (np.abs(w - phi.delta1) > 1e-4) & (np.abs(w - phi.delta0) > 1e-4)
    assert np.allclose(phi.derivative(w)[keep], fd[keep], rtol=1e-5, atol=1e-4)


# ------------------------------------------------- infeasible combinations

def test_rejects_bad_orderings():
    with pytest.raises(ProfileError, match="saturation"):
        build_phi(0.1, SQRT10, delta0=0.01, delta1=0.02)
    with pytest.raises(ProfileError, match="inner_growth"):
        build_phi(0.1, SQRT10, sigma1=5.0)
    with pytest.raises(ProfileError, match="floor_at_zero"):
        build_phi(1.5, SQRT10)


def test_rejects_slope_too_shallow_for_sigma1():
    # value at delta1 = 1 - mu + slope*delta1 must clear sigma1
    with pytest.raises(ProfileError, match="inner_growth"):
        build_phi(0.1, SQRT10, slope=10.0)


def test_rejects_nonmonotone_blend():
    # huge entry slope at delta1 cannot blend monotonically to flat sigma
    with pytest.raises(ProfileError, match="derivative_bounds"):
        build_phi(0.1, SQRT10, slope=200.0)


def test_rejects_negative_curvature():
    with pytest.raises(ProfileError, match="inner_growth"):
        build_phi(0.1, SQRT10, quad=-100.0)


def test_error_carries_condition_name():
    try:
        build_phi(0.1, SQRT10, slope=200.0)
    except ProfileError as err:
        assert str(err).startswith("profile condition 'derivative_bounds' violated")
    else:
        pytest.fail("expected ProfileError")


# ------------------------------------------------------------ circle root

def test_circle_radius_closed_form_for_pure_linear_slope():
    # with quad = 0 the root of (1-mu) + slope*w = 1 is w = mu/slope
    for mu in (0.01, 0.05, 0.1):
        phi = default_profile(mu)
        assert circle_radius(phi) == pytest.approx(np.sqrt(mu / 60.0), abs=1e-11)


def test_circle_radius_zero_at_and_before_dip():
    assert circle_radius(default_profile(0.0)) == 0.0
    assert circle_radius(default_profile(-0.1)) == 0.0


def test_circle_radius_with_curvature_against_quadratic_formula():
    phi = default_profile(0.05, quad=200.0)
    rho = circle_radius(phi)
    # q w^2 + c w - mu = 0, positive root
    w = (-60 + np.sqrt(60.0 ** 2 + 4 * 200.0 * 0.05)) / (2 * 200.0)
    assert rho == pytest.approx(np.sqrt(w), abs=1e-10)


def _array_path_radius(profile):
    """``circle_radius`` as it was: bisection through ``value``'s array path."""
    if profile.value(0.0) >= 1.0:
        return 0.0
    lo, hi = 0.0, np.sqrt(profile.delta0)
    if profile.value(hi * hi) <= 1.0:
        raise ValueError("profile never re-crosses 1: invalid saturation value")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if profile.value(mid * mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_K_GRID = tuple(np.geomspace(1e-4, 0.1, 17))  # HopfModel2D's grid for K
_SIGMA_3D = 3.163855254227258  # HopfModel3D's expanding modulus


@pytest.mark.parametrize("shape", [{}, {"slope": 40.0}, {"quad": 500.0},
                                   {"slope": 40.0, "quad": 500.0}])
def test_circle_radius_matches_the_array_path_bit_for_bit(shape):
    for sigma in (SQRT10, _SIGMA_3D):
        for mu in (*_K_GRID, 0.005, 0.01, 0.02, 0.05, 0.1, 0.0, -0.05):
            phi = build_phi(float(mu), sigma, **shape)
            got, want = circle_radius(phi), _array_path_radius(phi)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert (got == 0.0) == (mu <= 0)


def test_scalar_value_matches_value_bit_for_bit():
    # every zone: quadratic, Hermite blend, saturated
    for shape in ({}, {"slope": 40.0, "quad": 500.0}):
        phi = default_profile(0.05, **shape)
        ws = np.linspace(0.0, 1.5 * phi.delta0, 4001)
        ws = np.concatenate([ws, [phi.delta1, phi.delta0, np.nextafter(phi.delta1, 0.0)]])
        want = phi.value(ws)
        got = np.array([phi._value_at(float(w)) for w in ws])
        assert got.tobytes() == want.tobytes()


def test_circle_radius_rejects_a_profile_that_never_recrosses_one():
    phi = default_profile(0.1)
    object.__setattr__(phi, "sigma", 0.95)  # no longer a conformant profile
    for radius in (circle_radius, _array_path_radius):
        with pytest.raises(ValueError, match="never re-crosses 1"):
            radius(phi)


# ---------------------------------------------------------- stretch bound

def test_stretch_bound_dominates_samples():
    phi = default_profile(0.1)
    rng = np.random.default_rng(2)
    lo = rng.uniform(0, phi.delta0, 300)
    hi = lo + rng.uniform(0, phi.delta0, 300)
    bound = phi.stretch_bound(lo, hi)
    for a, b, m in zip(lo, hi, bound):
        w = np.linspace(a, b, 64)
        assert phi.stretch(w).max() <= m + 1e-9


def test_stretch_exact_on_quadratic_zone():
    phi = default_profile(0.1)
    w = np.array([0.004])
    assert phi.stretch_bound(0.0, 0.004)[()] == pytest.approx(float(phi.stretch(w)[0]), rel=1e-12)


# ------------------------------------------------------------ 3D blending

def test_vertical_ramp_support():
    d0 = 0.02
    z = np.array([0.0, 0.011, 0.012, 0.016, 0.02, 0.05])
    ramp = vertical_ramp(z, d0)
    assert ramp[0] == 0.0 and ramp[1] == 0.0  # below 0.6*delta0
    assert 0 < ramp[3] < 1
    assert ramp[4] == 1.0 and ramp[5] == 1.0


def test_profile3d_matches_base_on_midplane_and_saturates():
    phi = default_profile(0.1)
    w = np.linspace(0, 0.05, 50)
    assert np.allclose(profile_3d(phi, w, np.zeros(50)), phi.value(w))
    assert np.allclose(profile_3d(phi, w, np.full(50, phi.delta0)), phi.sigma)
