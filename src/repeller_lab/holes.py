"""Piecewise expanding maps with holes, cylinders, and expansion profiles.

A map with holes is a piecewise smooth expanding map whose inverse
branches are indexed by symbols 0..m; orbits falling into the hole leave
the system.  ``MapWithHoles`` is the abstract interface consumed by the
cylinder machinery below; concrete families live in ``families``.
``propagate`` is the one active-set orbit loop: escape times, survivor
grids, itineraries, the slow-set Monte Carlo and the induced map all
iterate their orbits through it.

Cylinders C(a_1,...,a_n) — the sets of points sharing a branch itinerary —
are realized two-sidedly:

  * an outer cover of grid boxes, certified by transporting a bounding
    ball of each box forward and pruning boxes whose image ball provably
    leaves the required branch domain (or provably enters the hole);
  * inner witnesses, produced by pulling a sample of the final branch
    domain back through the inverse branches and verifying the forward
    itinerary.

The expansion profile of a word collects the running means phi_j of the
per-step least log-stretch terms, with a certified lower bound from
per-branch infima and an upper bound from the witness minima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Region, box_indices, scale_to_base, wrap


def propagate(step, points, steps: int, visit) -> np.ndarray:
    """Iterate ``step`` on the orbits of ``points`` until ``visit`` retires them.

    ``visit(t, rows, pos)`` sees the original row indices of the orbits
    still active and their positions after t steps, for t = 0..steps, and
    returns a boolean mask over ``rows`` of the orbits to retire.  Only
    active orbits are stepped, the loop stops once none is left, and no
    step follows the last visit.  Returns each row's position at its last
    visit (where it was retired, or after ``steps`` steps).
    """
    out = np.array(points, dtype=float, ndmin=2)
    rows, pos = np.arange(len(out)), out
    for t in range(steps + 1):
        done = visit(t, rows, pos)
        if done.any():
            out[rows[done]] = pos[done]
            rows, pos = rows[~done], pos[~done]
        if t == steps or len(rows) == 0:
            break
        pos = step(pos)
    out[rows] = pos
    return out


def first_entry(step, points, steps: int, absorbed):
    """``(survives, entry)`` of each orbit against an absorbing set.

    ``survives`` flags the orbits that stay out of ``absorbed`` (a
    membership test) for ``steps`` steps; ``entry`` is the step at which
    an orbit is first found inside, or ``steps`` for survivors.
    """
    survives = np.ones(len(points), dtype=bool)
    entry = np.full(len(points), steps, dtype=np.int64)

    def visit(t, rows, pos):
        hit = absorbed(pos)
        survives[rows[hit]] = False
        entry[rows[hit]] = t
        return hit

    propagate(step, points, steps, visit)
    return survives, entry


class MapWithHoles:
    """Interface for branch-indexed expanding maps with holes.

    Concrete subclasses must set the attributes below and implement the
    evaluator methods.  All point-valued methods are vectorized over an
    (N, d) array of torus points in [0,1)^d and must be pure.

    Attributes
    ----------
    d : ambient dimension.
    n_branches : number of inverse branches (m + 1 in the usual indexing).
    mu_f : total hole volume (0 when there is no hole).
    S : supremum of the derivative-inverse norm over the domain.
    eta : bound on the number of branch domains any branch image meets.
    adjacency : dict symbol -> allowed successor symbols, or None for a
        full shift.
    hole : Region for the hole, or None.
    delta_mu : effective parameter at which the depth-volume bound
        delta(n, .) for this family is evaluated (the hole volume rescaled
        by the family's K factor; equal to mu_f for the toys).
    domain_bbox : (d, 2) bounding box of the branch domains.
    """

    d: int
    n_branches: int
    mu_f: float
    S: float
    eta: int
    adjacency: dict | None = None
    hole: Region | None = None
    delta_mu: float = 0.0
    label: str = "map-with-holes"

    @property
    def m(self) -> int:
        return self.n_branches - 1

    @property
    def domain_bbox(self) -> np.ndarray:
        return np.array([[0.0, 1.0]] * self.d)

    # -- evaluators a subclass must provide ------------------------------

    def step(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def symbol_of(self, points: np.ndarray) -> np.ndarray:
        """Branch symbol per point; -1 for points in the hole."""
        raise NotImplementedError

    def deriv_inverse_norm(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian_matrices(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cell_margin(self, symbol: int, points: np.ndarray) -> np.ndarray:
        """Signed Euclidean clearance to the branch domain of ``symbol``.

        Positive value r certifies the ball B(x, r) lies inside the branch
        domain (outside the hole); value below -r certifies B(x, r) misses
        the domain entirely.
        """
        raise NotImplementedError

    def lambda_min(self, symbol: int) -> float:
        """Certified infimum of log (least stretch of Df) over the branch domain."""
        raise NotImplementedError

    def lip_bound(self, points: np.ndarray, rad) -> np.ndarray:
        """Per-point expansion bound valid on the ball of radius ``rad``."""
        raise NotImplementedError

    def inverse_branch(self, symbol: int, points: np.ndarray) -> np.ndarray:
        """Branch preimages; rows are NaN where the branch has no preimage."""
        raise NotImplementedError

    # -- defaults ---------------------------------------------------------

    def in_hole(self, points: np.ndarray) -> np.ndarray:
        if self.hole is None:
            return np.zeros(len(np.atleast_2d(points)), dtype=bool)
        return self.hole.contains_points(points)

    def log_least_stretch(self, points: np.ndarray) -> np.ndarray:
        """log of the least singular value of Df, i.e. -log ||Df^{-1}||."""
        return -np.log(self.deriv_inverse_norm(points))

    def allowed_after(self, symbol: int) -> tuple:
        if self.adjacency is None:
            return tuple(range(self.n_branches))
        return tuple(self.adjacency[symbol])

    def cell_bbox(self, symbol: int) -> np.ndarray:
        return self.domain_bbox

    def sample_cell(self, symbol: int, count: int, seed: int = 0) -> np.ndarray:
        """Points of the branch domain, by rejection from its bounding box."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        bbox = np.asarray(self.cell_bbox(symbol), dtype=float)
        out = []
        have = 0
        for _ in range(64):
            draw = bbox[:, 0] + rng.random((4 * count, self.d)) * (bbox[:, 1] - bbox[:, 0])
            draw = wrap(draw)
            good = draw[self.cell_margin(symbol, draw) > 0]
            if len(good):
                out.append(good)
                have += len(good)
            if have >= count:
                break
        if not out:
            return np.empty((0, self.d))
        return np.concatenate(out)[:count]

    def itinerary(self, points: np.ndarray, n: int) -> np.ndarray:
        """(N, n) symbol matrix of the first n steps; -1 once in the hole.

        After a hole entry the remaining symbols of that row stay -1 (the
        orbit has left the system).
        """
        symbols = np.full((len(np.atleast_2d(points)), n), -1, dtype=np.int64)

        def visit(t, rows, pos):
            symbols[rows, t] = self.symbol_of(pos)
            return symbols[rows, t] < 0

        propagate(self.step, points, n - 1, visit)
        return symbols


# ---------------------------------------------------------------- words

@dataclass(frozen=True)
class CylinderWord:
    """A branch itinerary (a_1, ..., a_n)."""

    symbols: tuple

    def __post_init__(self):
        syms = tuple(int(s) for s in self.symbols)
        if not syms:
            raise ValueError("cylinder word must be nonempty")
        if any(s < 0 for s in syms):
            raise ValueError("cylinder word symbols must be nonnegative")
        object.__setattr__(self, "symbols", syms)

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]


def as_word(word) -> CylinderWord:
    if isinstance(word, CylinderWord):
        return word
    return CylinderWord(tuple(word))


def check_word(system: MapWithHoles, word: CylinderWord) -> bool:
    """True when symbols are in range and transitions respect adjacency."""
    if any(s >= system.n_branches for s in word):
        raise ValueError(f"symbol out of range for {system.n_branches} branches")
    return all(b in system.allowed_after(a)
               for a, b in zip(word.symbols, word.symbols[1:]))


# ------------------------------------------------------------- geometry

@dataclass(frozen=True)
class CylinderGeometry:
    """Two-sided realization of a cylinder at one grid resolution.

    ``boxes`` holds integer grid indices of the outer-cover boxes at
    resolution base**-k; ``certified`` flags boxes whose bounding ball was
    verified to stay inside every required branch domain (their total
    volume is the lower estimate).  ``witnesses`` are verified interior
    points.  ``empty`` marks a cylinder with neither cover nor witnesses.
    """

    word: CylinderWord
    base: int
    k: int
    boxes: np.ndarray
    certified: np.ndarray
    witnesses: np.ndarray
    vol_lo: float
    vol_hi: float
    empty: bool

    @property
    def epsilon(self) -> float:
        return self.base ** -self.k

    def covers(self, points: np.ndarray) -> np.ndarray:
        """True per point when the point lies in one of the cover boxes."""
        pts = np.atleast_2d(points)
        if len(self.boxes) == 0:
            return np.zeros(len(pts), dtype=bool)
        idx = box_indices(pts, self.k, self.base)
        have = set(map(tuple, self.boxes))
        return np.array([tuple(row) in have for row in idx])


def _empty_geometry(word: CylinderWord, base: int, k: int, d: int) -> CylinderGeometry:
    return CylinderGeometry(word=word, base=base, k=k,
                            boxes=np.empty((0, d), dtype=np.int64),
                            certified=np.empty(0, dtype=bool),
                            witnesses=np.empty((0, d)),
                            vol_lo=0.0, vol_hi=0.0, empty=True)


def _candidate_centers(system: MapWithHoles, symbol: int, base: int, k: int):
    """Grid-box centers over the branch domain's bounding box."""
    n = base ** k
    bbox = np.asarray(system.cell_bbox(symbol), dtype=float)
    axes = []
    for lo, hi in bbox:
        i0 = max(0, int(np.floor(lo * n)))
        i1 = min(n, int(np.ceil(hi * n)))
        axes.append(np.arange(i0, i1, dtype=np.int64))
    mesh = np.meshgrid(*axes, indexing="ij")
    idx = np.stack([m.ravel() for m in mesh], axis=-1)
    centers = (idx + 0.5) / n
    return idx, centers


def pullback_witnesses(system: MapWithHoles, word, *, targets: int = 12,
                       seed: int = 0) -> np.ndarray:
    """Verified interior points of a cylinder via inverse-branch pullback.

    Seeds the pullback with samples of the final branch domain, applies
    the inverse branches right to left (dropping orbits that lose their
    preimage or land in the hole), and keeps only points whose forward
    itinerary reproduces the word exactly.
    """
    word = as_word(word)
    if not check_word(system, word):
        return np.empty((0, system.d))
    pts = system.sample_cell(word[-1], targets, seed)
    pts = pts[~system.in_hole(pts)] if len(pts) else pts
    for symbol in word.symbols[-2::-1]:
        if len(pts) == 0:
            break
        pts = system.inverse_branch(symbol, pts)
        pts = pts[~np.isnan(pts).any(axis=1)]
        if len(pts):
            pts = pts[~system.in_hole(pts)]
    if len(pts) == 0:
        return np.empty((0, system.d))
    itin = system.itinerary(pts, len(word))
    good = np.all(itin == np.array(word.symbols), axis=1)
    return pts[good]


def refine_cylinder(system: MapWithHoles, word, resolution: float,
                    *, witness_targets: int = 12, seed: int = 0) -> CylinderGeometry:
    """Outer cover and inner witnesses of C(a_1,...,a_n) at one resolution.

    The cover starts from all grid boxes meeting the first branch domain's
    bounding box.  Each box is represented by the ball around its center
    containing it; the ball is transported forward step by step with the
    radius inflated by a local expansion bound, and the box is pruned as
    soon as the transported ball provably misses the branch domain
    required at that step.  Boxes whose ball provably stays inside every
    required domain count toward the certified lower volume.

    A geometrically empty cylinder (adjacency-violating word, or cover and
    witness search both coming up empty) is returned as an explicit empty
    marker, not an error.
    """
    word = as_word(word)
    base, k = scale_to_base(resolution)
    eps = base ** -k
    if not check_word(system, word):
        return _empty_geometry(word, base, k, system.d)

    r0 = 0.5 * eps * np.sqrt(system.d)
    idx, centers = _candidate_centers(system, word[0], base, k)
    margins = system.cell_margin(word[0], centers)
    # balls are closed: prune only when the transported ball provably
    # misses the cell (margin strictly below -radius), so an exactly
    # touching measure-zero cylinder is never declared empty
    keep = margins >= -r0
    idx, pos = idx[keep], centers[keep]
    inside = margins[keep] >= r0
    rad = np.full(len(pos), r0)

    for symbol in word.symbols[1:]:
        if len(pos) == 0:
            break
        rad = rad * system.lip_bound(pos, rad)
        pos = system.step(pos)
        margins = system.cell_margin(symbol, pos)
        keep = margins >= -rad
        idx, pos, rad, margins = idx[keep], pos[keep], rad[keep], margins[keep]
        inside = inside[keep] & (margins >= rad)

    witnesses = pullback_witnesses(system, word, targets=witness_targets, seed=seed)
    if len(idx) == 0 and len(witnesses) == 0:
        return _empty_geometry(word, base, k, system.d)

    geometry = CylinderGeometry(word=word, base=base, k=k, boxes=idx,
                                certified=inside, witnesses=witnesses,
                                vol_lo=float(inside.sum()) * eps ** system.d,
                                vol_hi=float(len(idx)) * eps ** system.d,
                                empty=False)
    if len(witnesses) and not geometry.covers(witnesses).all():
        raise RuntimeError("outer cover does not contain a verified witness: "
                           "certification bookkeeping is inconsistent")
    return geometry


# -------------------------------------------------------------- profiles

@dataclass(frozen=True)
class ExpansionProfile:
    """Running means phi_1..phi_n of per-step least log-stretch terms.

    ``values`` uses the witness minima for the per-step infima (an upper
    bound for the true infimum over the cylinder); ``lower`` replaces each
    per-step term with the certified per-branch infimum, giving a lower
    bound.  ``product_ok`` records the derivative-product consistency
    check at the witnesses: least stretch of Df^n >= e^{n phi_n}.
    """

    word: CylinderWord
    values: tuple
    lower: tuple
    step_infima: tuple
    step_floors: tuple
    n_witnesses: int
    product_ok: bool
    empty: bool = False

    def __len__(self):
        return len(self.values)


def _empty_profile(word: CylinderWord) -> ExpansionProfile:
    return ExpansionProfile(word=word, values=(), lower=(), step_infima=(),
                            step_floors=(), n_witnesses=0, product_ok=True,
                            empty=True)


def phi_profile(system: MapWithHoles, word, *, witnesses: np.ndarray | None = None,
                witness_targets: int = 24, seed: int = 0) -> ExpansionProfile:
    """Expansion profile of a cylinder word from inner witnesses.

    Propagates an empty marker when the cylinder has no verified witness
    (so no profile can be measured).
    """
    word = as_word(word)
    if witnesses is None:
        witnesses = pullback_witnesses(system, word, targets=witness_targets, seed=seed)
    if len(witnesses) == 0:
        return _empty_profile(word)

    n = len(word)
    pos = np.atleast_2d(np.asarray(witnesses, dtype=float)).copy()
    prod = np.broadcast_to(np.eye(system.d), (len(pos), system.d, system.d)).copy()
    infima, floors = [], []
    for j in range(n):
        vals = system.log_least_stretch(pos)
        infima.append(float(vals.min()))
        floors.append(system.lambda_min(word[j]))
        prod = system.jacobian_matrices(pos) @ prod
        pos = system.step(pos)

    steps = np.arange(1, n + 1)
    values = tuple(np.cumsum(infima) / steps)
    lower = tuple(np.cumsum(floors) / steps)

    least = np.linalg.svd(prod, compute_uv=False)[:, -1]
    product_ok = bool(np.all(np.log(least) >= n * values[-1] - 1e-9))
    return ExpansionProfile(word=word, values=values, lower=lower,
                            step_infima=tuple(infima), step_floors=tuple(floors),
                            n_witnesses=len(witnesses), product_ok=product_ok)
