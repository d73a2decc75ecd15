"""Radial multiplier profiles for the deformed torus endomorphisms.

A profile Phi(w) rescales the expansion factor of a linear map as a
function of the squared radius w, interpolating between the neutral value
1 - mu at the origin and the linear factor sigma outside the deformation
region.  Every constructed profile satisfies four structural conditions,
verified both in closed form and on a dense grid:

  floor_at_zero     Phi(0) = 1 - mu and Phi >= 1 - mu everywhere
  saturation        Phi(w) = sigma for w >= delta0
  derivative_bounds 0 < Phi'(w) <= C0/delta0 on [0, delta0)
  inner_growth      Phi > sigma1 for w >= delta1, and Phi'(w) >= Phi'(0)
                    on [0, delta1]

The concrete shape is a convex quadratic (1 - mu) + c w + q w^2 on
[0, delta1] followed by a monotone C^1 cubic Hermite blend up to the
constant sigma on [delta1, delta0].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

class ProfileError(ValueError):
    """Profile construction failure, carrying the violated condition name."""

    def __init__(self, condition: str, detail: str):
        self.condition = condition
        super().__init__(f"profile condition '{condition}' violated: {detail}")


@dataclass(frozen=True)
class PhiProfile:
    """Radial multiplier w ↦ Phi(w) with its derivative and bounds.

    ``c0`` is the derivative calibration constant delta0 * max Phi', so
    the derivative bound reads Phi' <= c0/delta0 with equality attained.
    ``sv_blend_max`` bounds the radial stretch Phi + 2 w Phi' over the
    blend segment [delta1, delta0] (used by ball-transport estimates).
    """

    mu: float
    sigma: float
    delta0: float
    delta1: float
    sigma1: float
    slope: float
    quad: float
    c0: float = field(init=False)
    sv_blend_max: float = field(init=False)
    _y0: float = field(init=False, repr=False)
    _m0: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 < self.delta1 < self.delta0):
            raise ProfileError("saturation", "need 0 < delta1 < delta0")
        if not (1 < self.sigma1 < self.sigma):
            raise ProfileError("inner_growth", "need 1 < sigma1 < sigma")
        if abs(self.mu) >= 1:
            raise ProfileError("floor_at_zero", "need |mu| < 1")
        if self.slope <= 0:
            raise ProfileError("derivative_bounds", "quadratic slope must be positive")
        if self.quad < 0:
            raise ProfileError("inner_growth",
                               "negative curvature puts the derivative minimum off zero")

        y0 = (1 - self.mu) + self.slope * self.delta1 + self.quad * self.delta1 ** 2
        m0 = self.slope + 2 * self.quad * self.delta1
        object.__setattr__(self, "_y0", y0)
        object.__setattr__(self, "_m0", m0)

        if y0 <= self.sigma1:
            raise ProfileError("inner_growth",
                               f"value {y0:.6g} at delta1 does not clear sigma1={self.sigma1}")
        if y0 >= self.sigma:
            raise ProfileError("saturation",
                               f"value {y0:.6g} at delta1 already exceeds sigma={self.sigma}")
        # Monotone C^1 Hermite blend from (y0, m0) to (sigma, 0) exists
        # iff the entry slope stays below three times the secant slope.
        secant = (self.sigma - y0) / (self.delta0 - self.delta1)
        if m0 > 3 * secant:
            raise ProfileError(
                "derivative_bounds",
                f"blend cannot stay monotone: slope {m0:.6g} exceeds 3x secant {3 * secant:.6g}")

        object.__setattr__(self, "c0", self.delta0 * self._max_derivative())
        grid = np.linspace(self.delta1, self.delta0, 2049)
        sv = self.value(grid) + 2 * grid * self.derivative(grid)
        object.__setattr__(self, "sv_blend_max", float(sv.max()) * 1.02)
        self.verify_conditions()

    # ------------------------------------------------------------ evaluate

    def value(self, w):
        w = np.asarray(w, dtype=float)
        out = np.full(w.shape, self.sigma)
        quad_zone = w < self.delta1
        out[quad_zone] = ((1 - self.mu) + self.slope * w[quad_zone]
                          + self.quad * w[quad_zone] ** 2)
        blend_zone = (w >= self.delta1) & (w < self.delta0)
        if blend_zone.any():
            width = self.delta0 - self.delta1
            t = (w[blend_zone] - self.delta1) / width
            h00 = (1 + 2 * t) * (1 - t) ** 2
            h10 = t * (1 - t) ** 2
            h01 = t * t * (3 - 2 * t)
            out[blend_zone] = (h00 * self._y0 + h10 * width * self._m0
                               + h01 * self.sigma)
        return out if out.ndim else float(out)

    def derivative(self, w):
        w = np.asarray(w, dtype=float)
        out = np.zeros(w.shape)
        quad_zone = w < self.delta1
        out[quad_zone] = self.slope + 2 * self.quad * w[quad_zone]
        blend_zone = (w >= self.delta1) & (w < self.delta0)
        if blend_zone.any():
            width = self.delta0 - self.delta1
            t = (w[blend_zone] - self.delta1) / width
            secant = (self.sigma - self._y0) / width
            out[blend_zone] = (6 * t - 6 * t * t) * secant + (3 * t * t - 4 * t + 1) * self._m0
        return out if out.ndim else float(out)

    def stretch(self, w):
        """Radial stretch factor Phi(w) + 2 w Phi'(w) (largest singular value)."""
        w = np.asarray(w, dtype=float)
        return self.value(w) + 2 * w * self.derivative(w)

    def stretch_bound(self, w_lo, w_hi):
        """Upper bound for the stretch over [w_lo, w_hi], elementwise.

        Exact on the quadratic zone (the stretch is increasing there);
        conservative (precomputed grid maximum) on the blend zone.
        """
        w_lo = np.maximum(np.asarray(w_lo, dtype=float), 0.0)
        w_hi = np.asarray(w_hi, dtype=float)
        cap = np.minimum(w_hi, self.delta1 * (1 - 1e-12))
        quad_val = np.where(
            w_lo < self.delta1,
            (1 - self.mu) + 3 * self.slope * cap + 5 * self.quad * cap ** 2,
            -np.inf)
        blend_val = np.where((w_hi >= self.delta1) & (w_lo < self.delta0),
                             self.sv_blend_max, -np.inf)
        outer_val = np.where(w_hi >= self.delta0, self.sigma, -np.inf)
        return np.maximum(np.maximum(quad_val, blend_val), outer_val)

    # ------------------------------------------------------- verification

    def _max_derivative(self) -> float:
        quad_max = self.slope + 2 * self.quad * self.delta1
        width = self.delta0 - self.delta1
        secant = (self.sigma - self._y0) / width
        # blend derivative is the quadratic A t^2 + B t + C in t of [0,1]
        A = 3 * self._m0 - 6 * secant
        B = 6 * secant - 4 * self._m0
        C = self._m0
        blend_max = max(C, 0.0)
        if A < 0:
            t_star = -B / (2 * A)
            if 0 < t_star < 1:
                blend_max = max(blend_max, A * t_star ** 2 + B * t_star + C)
        return max(quad_max, blend_max)

    def verify_conditions(self, points: int = 2048) -> dict:
        """Dense-grid check of all four conditions; raises on violation."""
        tol = 1e-10
        w = np.linspace(0.0, 1.5 * self.delta0, points)
        vals = self.value(w)
        derivs = self.derivative(w)
        report = {}

        floor = 1 - self.mu
        ok = abs(self.value(0.0) - floor) <= tol and vals.min() >= floor - tol
        report["floor_at_zero"] = ok
        if not ok:
            raise ProfileError("floor_at_zero",
                               f"min value {vals.min():.6g} below 1-mu={floor:.6g}")

        outer = w >= self.delta0
        ok = bool(np.all(np.abs(vals[outer] - self.sigma) <= tol))
        report["saturation"] = ok
        if not ok:
            raise ProfileError("saturation", "profile not constant past delta0")

        inner = w < self.delta0
        dmax = self.c0 / self.delta0
        ok = bool(np.all(derivs[inner] > 0) and np.all(derivs[inner] <= dmax + tol))
        report["derivative_bounds"] = ok
        if not ok:
            raise ProfileError("derivative_bounds",
                               f"derivative range [{derivs[inner].min():.6g}, "
                               f"{derivs[inner].max():.6g}] outside (0, {dmax:.6g}]")

        past_d1 = (w >= self.delta1)
        grow = w <= self.delta1
        ok = (bool(np.all(vals[past_d1] > self.sigma1))
              and bool(np.all(self.derivative(w[grow]) >= self.derivative(0.0) - tol)))
        report["inner_growth"] = ok
        if not ok:
            raise ProfileError("inner_growth",
                               "value dips below sigma1 past delta1, or derivative "
                               "dips below its value at zero before delta1")
        return report


def build_phi(mu: float, sigma: float, delta0: float = 0.02, delta1: float = 0.01,
              sigma1: float = 1.2, *, slope: float = 60.0, quad: float = 0.0) -> PhiProfile:
    """Construct and fully verify a radial multiplier profile.

    Infeasible parameter combinations raise ``ProfileError`` naming the
    violated condition.  The dense-grid verification runs once, in
    ``PhiProfile.__post_init__``, so a returned profile is always conformant.
    """
    return PhiProfile(mu=mu, sigma=sigma, delta0=delta0, delta1=delta1,
                      sigma1=sigma1, slope=slope, quad=quad)


def circle_radius(profile: PhiProfile) -> float:
    """Radius rho solving Phi(rho^2) = 1: the radially neutral circle.

    Returns 0 when the profile has no sub-unit dip (mu <= 0).  For mu > 0
    the root is unique because Phi is strictly increasing, and bisection
    brackets it to within 1e-12 in rho.
    """
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


def vertical_ramp(zabs, delta0: float):
    """Smooth 0→1 ramp in |z| supported on [0.6 delta0, delta0].

    Returns (ramp, d ramp/d|z|).  The ramp vanishes identically below
    0.6 delta0 so that vertical dynamics inside the trapping slab are
    unaffected by the blending.
    """
    zabs = np.asarray(zabs, dtype=float)
    lo = 0.6 * delta0
    width = 0.4 * delta0
    s = np.clip((zabs - lo) / width, 0.0, 1.0)
    ramp = s * s * (3 - 2 * s)
    dramp = np.where((zabs > lo) & (zabs < delta0), 6 * s * (1 - s) / width, 0.0)
    return ramp, dramp


def profile_3d(profile: PhiProfile, w, z):
    """Vertically blended multiplier Phi3(w, z) with both partials.

    Phi3 = Phi(w) + ramp(|z|) (sigma - Phi(w)): equal to Phi near the
    z = 0 plane and saturating to sigma for |z| >= delta0, keeping the
    deformation compactly supported in the vertical direction too.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    ramp, dramp = vertical_ramp(np.abs(z), profile.delta0)
    base = profile.value(w)
    dbase = profile.derivative(w)
    val = base + ramp * (profile.sigma - base)
    dw = (1 - ramp) * dbase
    dz = dramp * (profile.sigma - base) * np.sign(z)
    return val, dw, dz
