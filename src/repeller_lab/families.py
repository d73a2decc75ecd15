"""Concrete map families: torus endomorphism models and 1D toys.

The planar model deforms the conformal integer matrix [[3,-1],[1,3]]
(expansion sqrt(10), rotation atan2(1,3)) by a radial multiplier profile
supported in a small disk about the origin.  For mu > 0 the origin turns
into an attracting fixed point whose basin — the open disk bounded by the
radially neutral circle — is the hole; outside the disk the map is the
plain linear action, so the ten inverse branches and their symbolic
coding are those of the linear endomorphism.

The spatial model does the same on T^3 with the companion matrix of
x^3 + 10x - 1 (determinant one, a real eigenvalue ~0.0999 and a complex
expanding pair of modulus ~3.1639): the deformation acts on the expanding
plane in eigencoordinates and is blended away in the contracting
direction.  It exposes the step and the trap only, with no symbolic
coding and no derivative, so only escape-time drivers apply to it.

The one-dimensional families are the tripling map with the middle-thirds
hole, and a degree-two circle covering with a hole segment shrinking like
sqrt(t) whose derivative stays above 1 + sqrt(t) away from the hole.
Both are circle maps coded by two closed arcs (``_ArcMap``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Region, centered, grid_centers, wrap
from .holes import MapWithHoles, first_entry
from .profiles import PhiProfile, build_phi, circle_radius, profile_3d

SQRT10 = float(np.sqrt(10.0))
HALF_LOG10 = 0.5 * float(np.log(10.0))  # log SQRT10, the conformal branch floor


def _bisect(fn, target, lo, hi):
    """Solve fn(x) = target for an increasing fn on [lo, hi], elementwise.

    Sixty halvings, so the bracket shrinks to (hi - lo) 2^-60; returns
    the midpoint of the final bracket, shaped like ``target``.
    """
    target = np.asarray(target, dtype=float)
    lo, hi = np.full_like(target, lo), np.full_like(target, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        low = fn(mid) < target
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return 0.5 * (lo + hi)


def _product(p, matrix) -> np.ndarray:
    """``p @ matrix.T``, with the same bits for a row alone or in a batch.

    OpenBLAS rounds a one-row product in another order than the rows of
    a larger batch, so a lone row goes through as a batch of two copies
    of itself and keeps the first.  Every point-row product of the models
    goes through here, which makes their methods row-wise.
    """
    if len(p) == 1:
        return (np.concatenate([p, p]) @ matrix.T)[:1]
    return p @ matrix.T


# =====================================================================
# ten-branch torus coding shared by the linear toy and the planar model
# =====================================================================

_A2 = np.array([[3.0, -1.0], [1.0, 3.0]])
_A2_INV = np.linalg.inv(_A2)
_COSETS = np.array([[j, 0.0] for j in range(10)])


def _near_offsets():
    """Lattice offsets v with |v|_inf <= 2, grouped by their coset.

    The coset of v is (3 v0 + v1) mod 10.  Returned with shape
    (2, 4, 10): component, column, coset.  Cosets with fewer than four
    offsets repeat their first one, which leaves a minimum unchanged.
    """
    near = {o: [] for o in range(10)}
    for v0 in range(-2, 3):
        for v1 in range(-2, 3):
            near[(3 * v0 + v1) % 10].append((float(v0), float(v1)))
    return np.array([(v * 4)[:4] for v in near.values()]).T


_NEAR0, _NEAR1 = _near_offsets()


class _TenBranchTorus(MapWithHoles):
    """Symbol machinery of the degree-10 toral endomorphism y = A x."""

    d = 2
    n_branches = 10

    def _linear_symbols(self, points) -> np.ndarray:
        y = _product(centered(points), _A2)
        m = np.floor(y + 0.5).astype(np.int64)
        return (3 * m[:, 0] + m[:, 1]) % 10

    def symbol_of(self, points):
        pts = np.atleast_2d(points)
        sym = self._linear_symbols(pts)
        sym[self.in_hole(pts)] = -1
        return sym

    def _linear_margin(self, symbol: int, points) -> np.ndarray:
        """Signed L2 clearance to the torus cell of ``symbol``.

        Computed in the image coordinates y = A x, where the cells are
        the unit boxes around the integer points r with (3 r0 + r1) mod 10
        equal to ``symbol``; the conformal factor sqrt(10) converts the
        L-infinity clearance back to a valid Euclidean clearance for x.

        Closed form for the nearest such r: with m = floor(y + 1/2) and
        u = y - m (exact), r = m + v where v ranges over the coset
        o = (symbol - 3 m0 - m1) mod 10 of the lattice A Z^2, and
        |y - r|_inf = |u - v|_inf.  The table holds, per coset, the
        offsets with |v|_inf <= 2, which meet all ten cosets (3 v0 + v1
        covers -8..8).  Covering: for u in [-1/2, 1/2]^2 a tabled v lies
        within |u|_inf + |v|_inf <= 1/2 + 2 = 5/2, while any offset with
        |v|_inf >= 3 is at least 3 - 1/2 = 5/2 away, so nothing outside
        the table is nearer.  The 5/2 comes from coset 5, the only one
        whose offsets +-(1, 2), +-(2, -1) all have norm 2; the exact worst
        case over the box is smaller (2, for coset 5 at u = 0), which also
        absorbs the one-ulp excess of |u| over 1/2 when y + 1/2 rounds up.
        As u - v and y - r are the same real number they round to the
        same float, so the margin equals a brute-force search over all
        representatives bit for bit.
        """
        y = _product(centered(points), _A2)
        m = np.floor(y + 0.5)
        u0, u1 = y[:, 0] - m[:, 0], y[:, 1] - m[:, 1]
        coset = (symbol - (3 * m[:, 0] + m[:, 1]).astype(np.int64)) % 10
        dist = np.full(len(y), np.inf)
        for near0, near1 in zip(_NEAR0, _NEAR1):
            d = np.maximum(np.abs(u0 - near0.take(coset)), np.abs(u1 - near1.take(coset)))
            np.minimum(dist, d, out=dist)
        return (0.5 - dist) / SQRT10

    def cell_margin(self, symbol, points):
        return self._linear_margin(symbol, np.atleast_2d(points))

    def _linear_preimages(self, points) -> np.ndarray:
        """The ten candidate linear preimages, centered, shape (N, 10, 2)."""
        y = centered(points)
        cand = (y[:, None, :] + _COSETS[None, :, :]) @ _A2_INV.T
        return centered(cand)


def _radius2(p) -> np.ndarray:
    """Squared length of the first two components of each row, p0^2 + p1^2."""
    return p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1]


def _select_matching_preimage(system, symbol, candidates):
    """Pick, per point, the candidate preimage carrying the wanted symbol."""
    n, k, d = candidates.shape
    flat = wrap(candidates.reshape(n * k, d))
    match = (system.symbol_of(flat) == symbol).reshape(n, k)
    out = np.full((n, d), np.nan)
    rows, cols = np.nonzero(match)
    out[rows] = flat.reshape(n, k, d)[rows, cols]
    return out


class LinearToy2D(_TenBranchTorus):
    """The undeformed conformal endomorphism, full shift on ten symbols."""

    mu_f = 0.0
    S = 1.0 / SQRT10
    hole = None
    delta_mu = 0.0
    label = "linear-toy-2d"

    def step(self, points):
        return wrap(_product(centered(points), _A2))

    def deriv_inverse_norm(self, points):
        return np.full(len(np.atleast_2d(points)), 1.0 / SQRT10)

    def jacobian_matrices(self, points):
        return np.broadcast_to(_A2, (len(np.atleast_2d(points)), 2, 2)).copy()

    def lambda_min(self, symbol):
        return HALF_LOG10

    def lip_bound(self, points, rad):
        return np.full(len(np.atleast_2d(points)), SQRT10)

    def inverse_branch(self, symbol, points):
        return _select_matching_preimage(
            self, symbol, self._linear_preimages(np.atleast_2d(points)))


class HopfModel2D(_TenBranchTorus):
    """Planar hole model: linear action outside a disk, radial dip inside.

    Inside the deformation disk of squared radius delta0 the map is, in
    polar coordinates, (rho, theta) -> (Phi(rho^2) rho, theta + alpha)
    with alpha the rotation angle of the linear action.  For mu > 0 the
    profile dips below 1 at the origin, making it attracting; the hole is
    the open disk bounded by the radially neutral circle rho_inv.

    Derived constants: mu_f = pi rho_inv^2 (exact disk area); family
    constant K = inf mu / mu_f over a positive mu grid; threshold
    coefficient c0 = K / 256; delta_mu = K mu_f is the effective argument
    of the depth-volume bound for this family.
    """

    label = "hopf-2d"

    def __init__(self, mu: float, *, delta0: float = 0.02, delta1: float = 0.01,
                 sigma1: float = 1.2, slope: float = 60.0, quad: float = 0.0):
        self.mu = float(mu)
        self.sigma = SQRT10
        self.alpha = float(np.arctan2(1.0, 3.0))
        self.profile = build_phi(self.mu, SQRT10, delta0, delta1, sigma1,
                                 slope=slope, quad=quad)
        self.delta0 = delta0
        self.rho_inv = circle_radius(self.profile)
        self.w_star = self.rho_inv ** 2
        self.mu_f = float(np.pi) * self.rho_inv ** 2

        grid = np.geomspace(1e-4, 0.1, 17)
        self.K = min(m / (np.pi * invariant_circle_radius(self, m) ** 2) for m in grid)
        self.c0 = self.K / 256.0
        self.delta_mu = self.K * self.mu_f
        self.S = 1.0 / float(self.profile.value(self.w_star))

        if self.mu > 0:
            rho = self.rho_inv
            self.hole = Region(
                contains=lambda p: _radius2(centered(p)) < rho * rho,
                bounding_box=np.array([[0.0, 1.0], [0.0, 1.0]]),
                volume=self.mu_f, label="attracting-basin-disk")
        else:
            self.hole = None

    # ------------------------------------------------------------- local

    def _w(self, points):
        p = centered(np.atleast_2d(points))
        return p, _radius2(p)

    def step(self, points):
        p, w = self._w(points)
        inside = np.flatnonzero(w < self.delta0)
        scale = self.profile.value(w[inside]) / self.sigma
        p[inside] = p.take(inside, axis=0) * scale[:, None]
        return wrap(_product(p, _A2))

    def deriv_inverse_norm(self, points):
        _, w = self._w(points)
        return 1.0 / self.profile.value(np.minimum(w, self.delta0))

    def log_least_stretch(self, points):
        _, w = self._w(points)
        return np.log(self.profile.value(np.minimum(w, self.delta0)))

    def jacobian_matrices(self, points):
        p, w = self._w(points)
        val = self.profile.value(np.minimum(w, self.delta0))
        dval = np.where(w < self.delta0, self.profile.derivative(w), 0.0)
        eye = np.broadcast_to(np.eye(2), (len(p), 2, 2))
        dh = (val / self.sigma)[:, None, None] * eye \
            + (2 * dval / self.sigma)[:, None, None] * (p[:, :, None] * p[:, None, :])
        return _A2 @ dh

    def lambda_min(self, symbol):
        if symbol == 0:
            # infimum of log Phi over the cell minus the hole: attained on
            # the neutral circle (mu > 0) or at the origin (mu <= 0)
            return 0.0 if self.mu > 0 else float(np.log(1 - self.mu))
        return HALF_LOG10

    def lip_bound(self, points, rad):
        p, w = self._w(points)
        dist = np.sqrt(w)
        lo = np.maximum(dist - rad, 0.0) ** 2
        hi = (dist + rad) ** 2
        return self.profile.stretch_bound(lo, hi)

    def cell_margin(self, symbol, points):
        pts = np.atleast_2d(points)
        margin = self._linear_margin(symbol, pts)
        if symbol == 0 and self.mu > 0:
            _, w = self._w(pts)
            margin = np.minimum(margin, np.sqrt(w) - self.rho_inv)
        return margin

    def inverse_branch(self, symbol, points):
        cand = self._linear_preimages(np.atleast_2d(points))
        n, k, _ = cand.shape
        flat = cand.reshape(n * k, 2)
        dist = np.sqrt(_radius2(flat))
        need = np.flatnonzero(dist < np.sqrt(self.delta0))
        if len(need):
            flat[need] = self._radial_preimage(flat.take(need, axis=0), dist[need])
        return _select_matching_preimage(self, symbol, flat.reshape(n, k, 2))

    def _radial_preimage(self, p, dist):
        """Invert rho -> Phi(rho^2) rho / sigma on the deformation disk."""
        rho = _bisect(lambda r: self.profile.value(r * r) * r / self.sigma,
                      dist, 0.0, np.sqrt(self.delta0))
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(dist[:, None] > 0, p / dist[:, None], 0.0)
        return unit * rho[:, None]

    # ----------------------------------------------------------- escapes

    def default_trap(self) -> "TrapRegion":
        return disk_trap(self.rho_inv / 2.0)


# =====================================================================
# spatial model
# =====================================================================

_A3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -10.0, 0.0]])


def _eigensplit(matrix):
    """(lam, sigma, alpha, P): real contracting eigenvalue, expanding
    modulus and rotation, and the real change of basis with
    A P = P blockdiag(sigma R_alpha, lam)."""
    vals, vecs = np.linalg.eig(matrix)
    real_idx = int(np.argmin(np.abs(vals.imag)))
    lam = float(vals[real_idx].real)
    pair_idx = [i for i in range(3) if i != real_idx]
    cplx = vals[pair_idx[0]]
    if cplx.imag < 0:
        cplx = np.conj(cplx)
        u = np.conj(vecs[:, pair_idx[0]])
    else:
        u = vecs[:, pair_idx[0]]
    sigma = float(np.abs(cplx))
    alpha = float(np.angle(cplx))
    v = vecs[:, real_idx].real
    v = v / np.linalg.norm(v)
    P = np.column_stack([u.real, -u.imag, v])
    return lam, sigma, alpha, P


class HopfModel3D:
    """Deformation of a volume-preserving toral automorphism on T^3.

    The linear part has one contracting real eigenvalue and an expanding
    complex pair; the radial profile dips the expanding plane's factor
    near the origin exactly as in the planar model, with the deformation
    blended away in the contracting direction so it stays compactly
    supported.  Exposes the step and the trapping region only: no
    symbolic coding and no derivative (escape-time box counting only).
    """

    d = 3
    label = "hopf-3d"

    def __init__(self, mu: float, *, delta0: float = 0.02, delta1: float = 0.01,
                 sigma1: float = 1.2, slope: float = 60.0, quad: float = 0.0):
        self.mu = float(mu)
        self.lam, self.sigma, self.alpha, self.P = _eigensplit(_A3)
        self._certify_spectrum()
        self.P_inv = np.linalg.inv(self.P)
        rot = np.array([[np.cos(self.alpha), -np.sin(self.alpha), 0.0],
                        [np.sin(self.alpha), np.cos(self.alpha), 0.0],
                        [0.0, 0.0, 1.0]])
        self.M = rot * np.array([self.sigma, self.sigma, self.lam])[None, :]
        if not np.allclose(_A3 @ self.P, self.P @ self.M, atol=1e-10):
            raise RuntimeError("eigenbasis does not block-diagonalize the matrix")
        self.PM = self.P @ self.M

        self.profile = build_phi(self.mu, self.sigma, delta0, delta1, sigma1,
                                 slope=slope, quad=quad)
        self.delta0 = delta0
        self.rho_inv = circle_radius(self.profile)

    def _certify_spectrum(self):
        det = float(np.linalg.det(_A3))
        if abs(abs(det) - 1.0) > 1e-10:
            raise RuntimeError(f"determinant {det} is not unimodular")
        if abs(self.lam * self.sigma ** 2 - 1.0) > 1e-10:
            raise RuntimeError("eigenvalue product certificate failed")
        if not (0 < self.lam < 1.0 / 9.0 and self.sigma > 3.0):
            raise RuntimeError("spectrum outside the required windows")
        for k in range(1, 5):
            if min(abs(k * self.alpha % (2 * np.pi)),
                   2 * np.pi - (k * self.alpha % (2 * np.pi))) < 1e-2:
                raise RuntimeError(f"resonant rotation angle at order {k}")

    def _coords(self, points):
        p = centered(np.atleast_2d(points))
        c = _product(p, self.P_inv)
        return c, _radius2(c), c[:, 2]

    def step(self, points):
        c, w, z = self._coords(points)
        inside = np.flatnonzero((w < self.delta0) & (np.abs(z) < self.delta0))
        if len(inside):
            val = profile_3d(self.profile, w[inside], z[inside])
            c[inside, :2] = c.take(inside, axis=0)[:, :2] * (val / self.sigma)[:, None]
        return wrap(_product(c, self.PM))

    def default_trap(self) -> "TrapRegion":
        return cylinder_trap(self)


# =====================================================================
# trapping regions and escape times
# =====================================================================

@dataclass(frozen=True)
class TrapRegion:
    """A region around the attracting fixed point used for escape detection."""

    contains: callable
    boundary_sample: callable
    empty: bool
    label: str = "trap"


def disk_trap(radius: float) -> TrapRegion:
    def contains(points):
        return _radius2(centered(np.atleast_2d(points))) <= radius * radius

    def boundary_sample(count):
        theta = np.linspace(0, 2 * np.pi, count, endpoint=False)
        return wrap(radius * np.stack([np.cos(theta), np.sin(theta)], axis=1))

    return TrapRegion(contains=contains, boundary_sample=boundary_sample,
                      empty=radius <= 0, label=f"disk-trap r={radius:.6g}")


def cylinder_trap(model: HopfModel3D) -> TrapRegion:
    """Solid cylinder {rho <= rho_inv/2, |z| <= delta0/2} in eigencoordinates."""
    r = model.rho_inv / 2.0
    zmax = model.delta0 / 2.0

    def contains(points):
        _, w, z = model._coords(points)
        return (w <= r * r) & (np.abs(z) <= zmax)

    def boundary_sample(count):
        rng = np.random.default_rng(np.random.SeedSequence(0))
        n_side = count // 2
        n_cap = count - n_side
        theta = rng.uniform(0, 2 * np.pi, n_side)
        zs = rng.uniform(-zmax, zmax, n_side)
        side = np.stack([r * np.cos(theta), r * np.sin(theta), zs], axis=1)
        theta = rng.uniform(0, 2 * np.pi, n_cap)
        rr = r * np.sqrt(rng.uniform(0, 1, n_cap))
        caps = np.stack([rr * np.cos(theta), rr * np.sin(theta),
                         np.where(rng.random(n_cap) < 0.5, zmax, -zmax)], axis=1)
        return wrap(_product(np.concatenate([side, caps]), model.P))

    return TrapRegion(contains=contains, boundary_sample=boundary_sample,
                      empty=r <= 0, label=f"cylinder-trap r={r:.6g} z={zmax:.6g}")


def verify_trap(model, trap: TrapRegion) -> bool:
    """Forward-invariance of the trap, sampled at 10 000 boundary points."""
    if trap.empty:
        return True
    pts = trap.boundary_sample(10_000)
    return bool(trap.contains(model.step(pts)).all())


def escape_time(model, points, horizon: int):
    """Iterate points and detect entry into the model's default trap.

    Returns ``(survives, steps)``: a boolean per point that never entered
    the trap within ``horizon`` iterations, and the entry step (or the
    horizon for survivors).  Every call verifies the trap's forward
    invariance by boundary sampling; a failed verification downgrades
    the run (``model.trap_advisory`` set), it does not raise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    trap = model.default_trap()
    model.trap_advisory = not verify_trap(model, trap)
    if trap.empty:
        return np.ones(len(pts), dtype=bool), np.full(len(pts), horizon, dtype=np.int64)
    return first_entry(model.step, pts, horizon, trap.contains)


def survivor_grid(model, grid_n: int, horizon: int):
    """Grid points whose orbits avoid the trap for ``horizon`` steps."""
    pts = grid_centers(model.d, grid_n)
    return pts.take(np.flatnonzero(escape_time(model, pts, horizon)[0]), axis=0)


# =====================================================================
# 1D families
# =====================================================================

def _interval_margin(x, a, b):
    """Signed circle-distance clearance to the arc [a, b] of T^1."""
    inside = (x >= a) & (x <= b)
    d_in = np.minimum(x - a, b - x)
    da = np.minimum(np.abs(x - a), 1 - np.abs(x - a))
    db = np.minimum(np.abs(x - b), 1 - np.abs(x - b))
    return np.where(inside, d_in, -np.minimum(da, db))


class _ArcMap(MapWithHoles):
    """Two-branch circle map x -> lift(x) mod 1 coded by closed arcs.

    A subclass provides ``lift``, its ``derivative``, the derivative
    minimum ``c1`` over the branch domains, and ``cells``: the closed arcs
    [a, b] of symbols 0 and 1, inside [0, 1].  A point on both arcs (their
    shared end) gets symbol 0; a point on neither gets -1.
    """

    d = 1
    n_branches = 2

    def step(self, points):
        return wrap(self.lift(np.atleast_2d(points)))

    def symbol_of(self, points):
        x = np.atleast_2d(points)[:, 0]
        sym = np.full(len(x), -1, dtype=np.int64)
        for s in (1, 0):
            a, b = self.cells[s]
            sym[(x >= a) & (x <= b)] = s
        return sym

    def deriv_inverse_norm(self, points):
        return 1.0 / self.derivative(np.atleast_2d(points)[:, 0])

    def jacobian_matrices(self, points):
        return self.derivative(np.atleast_2d(points)[:, 0])[:, None, None]

    def cell_margin(self, symbol, points):
        return _interval_margin(np.atleast_2d(points)[:, 0], *self.cells[symbol])

    def lambda_min(self, symbol):
        return float(np.log(self.c1))

    def cell_bbox(self, symbol):
        return np.array([list(self.cells[symbol])])


class TriplingToy(_ArcMap):
    """x -> 3x mod 1 with the middle-thirds interval as hole."""

    mu_f = 1.0 / 3.0
    S = 1.0 / 3.0
    delta_mu = 1.0 / 3.0
    c1 = 3.0
    label = "tripling-with-hole"

    cells = ((0.0, 1.0 / 3.0), (2.0 / 3.0, 1.0))

    def __init__(self):
        self.hole = Region(
            contains=lambda p: (p[:, 0] > 1.0 / 3.0) & (p[:, 0] < 2.0 / 3.0),
            bounding_box=np.array([[1.0 / 3.0, 2.0 / 3.0]]),
            volume=1.0 / 3.0, label="middle-third")

    def lift(self, u):
        return u * 3.0

    def derivative(self, u):
        return np.full(np.shape(u), 3.0)

    def lip_bound(self, points, rad):
        return np.full(len(np.atleast_2d(points)), 3.0)

    def inverse_branch(self, symbol, points):
        y = np.atleast_2d(points)
        return (y + 2.0 * symbol) / 3.0


class DiazVianaFamily(_ArcMap):
    """Degree-two circle covering with a hole segment of length sqrt(t).

    The hole is the arc of length 2r = sqrt(t) centered at 0; on the
    complementary arc [r, 1-r] the map lifts to

        F(u) = r + c1 (u - r) + c2 [(u - r) - (L/2pi) sin(2pi (u - r)/L)]

    with L = 1 - 2r, c1 = 1 + sqrt(t) and c2 fixed by degree two.  The
    derivative c1 + c2 (1 - cos(...)) attains its minimum c1 > 1 exactly
    at the hole-adjacent endpoints, so the expansion margin over the whole
    domain is sqrt(t) and log c1 is each branch's floor.  The second
    branch maps onto the domain arc exactly: hole points have no preimage
    through it.  The slow-set threshold scale is c0 = 1/4.
    """

    label = "diaz-viana-1d"
    c0 = 0.25

    def __init__(self, t: float):
        if not (0 < t < 1):
            raise ValueError("parameter t must lie in (0, 1): "
                             "at t = 1 the hole covers the whole circle")
        self.t = float(t)
        self.r = 0.5 * np.sqrt(self.t)
        self.L = 1.0 - 2.0 * self.r
        self.c1 = 1.0 + np.sqrt(self.t)
        self.c2 = (2.0 - 2.0 * self.r) / self.L - self.c1
        if self.c2 <= 0:
            raise ValueError("degree-two closure failed (c2 <= 0)")
        self.mu_f = 2.0 * self.r
        self.delta_mu = self.mu_f
        self.S = 1.0 / self.c1
        r = self.r
        self.hole = Region(
            contains=lambda p: np.abs(centered(p)[:, 0]) < r,
            bounding_box=np.array([[0.0, 1.0]]), volume=2 * r, label="hole-arc")
        self.u_mid = float(_bisect(self.lift, 1.0 + r, r, 1.0 - r))
        self.cells = ((r, self.u_mid), (self.u_mid, 1.0 - r))

    def lift(self, u):
        s = np.asarray(u, dtype=float) - self.r
        return (self.r + self.c1 * s
                + self.c2 * (s - self.L / (2 * np.pi) * np.sin(2 * np.pi * s / self.L)))

    def derivative(self, u):
        s = np.asarray(u, dtype=float) - self.r
        return self.c1 + self.c2 * (1.0 - np.cos(2 * np.pi * s / self.L))

    def lip_bound(self, points, rad):
        u = np.atleast_2d(points)[:, 0]
        rad = np.broadcast_to(np.asarray(rad, dtype=float), u.shape)
        lo, hi = u - rad, u + rad
        peak = self.r + self.L / 2.0
        cand = np.maximum(self.derivative(lo), self.derivative(hi))
        has_peak = (lo <= peak) & (peak <= hi)
        cand[has_peak] = self.c1 + 2 * self.c2
        return cand

    def inverse_branch(self, symbol, points):
        y = np.atleast_2d(points)[:, 0]
        if symbol == 0:
            target = np.where(y >= self.r, y, y + 1.0)
            return _bisect(self.lift, target, self.r, self.u_mid)[:, None]
        out = np.full(len(y), np.nan)
        dom = (y >= self.r) & (y <= 1.0 - self.r)
        if dom.any():
            out[dom] = _bisect(self.lift, y[dom] + 1.0, self.u_mid, 1.0 - self.r)
        return out[:, None]


# =====================================================================
# family-level checks
# =====================================================================

def invariant_circle_radius(model, mu: float | None = None) -> float:
    """Radius of the radially neutral circle of a planar/spatial model.

    With no explicit ``mu`` the model's own radius is returned; otherwise
    the profile is rebuilt at ``mu`` with the model's shape parameters and
    the root of Phi(rho^2) = 1 is re-solved (0 for mu <= 0).
    """
    if mu is None:
        return model.rho_inv
    prof = model.profile
    rebuilt = build_phi(mu, prof.sigma, prof.delta0, prof.delta1, prof.sigma1,
                        slope=prof.slope, quad=prof.quad)
    return circle_radius(rebuilt)
