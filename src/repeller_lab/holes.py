"""Piecewise expanding maps with holes and their cylinders.

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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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
    adjacency : dict symbol -> allowed successor symbols, or None for a
        full shift.
    hole : Region for the hole, or None.
    delta_mu : effective parameter at which the depth-volume bound
        delta(n, .) for this family is evaluated (the hole volume rescaled
        by the family's K factor; equal to mu_f for the toys).
    """

    d: int
    n_branches: int
    mu_f: float
    S: float
    adjacency: dict | None = None
    hole: Region | None = None
    delta_mu: float = 0.0
    label: str = "map-with-holes"

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
        """(d, 2) bounding box of the branch domain; the whole torus by default."""
        return np.array([[0.0, 1.0]] * self.d)

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

def check_word(system: MapWithHoles, word) -> bool:
    """True when a word's transitions respect the adjacency.

    A word is a sequence of branch symbols (a_1, ..., a_n); the package
    keeps words as tuples of ints.  Raises TypeError for a symbol that is
    not an integer, and ValueError for an empty word or a symbol outside
    0..n_branches-1.
    """
    word = tuple(map(operator.index, word))
    if not word:
        raise ValueError("word must be nonempty")
    if min(word) < 0 or max(word) >= system.n_branches:
        raise ValueError(f"word symbol out of range for {system.n_branches} branches")
    return all(b in system.allowed_after(a) for a, b in zip(word, word[1:]))


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

    word: tuple
    base: int
    k: int
    boxes: np.ndarray
    certified: np.ndarray
    witnesses: np.ndarray
    vol_lo: float
    vol_hi: float
    empty: bool

    def covers(self, points: np.ndarray) -> np.ndarray:
        """True per point when the point lies in one of the cover boxes."""
        pts = np.atleast_2d(points)
        if len(self.boxes) == 0:
            return np.zeros(len(pts), dtype=bool)
        idx = box_indices(pts, self.k, self.base)
        have = set(map(tuple, self.boxes))
        return np.array([tuple(row) in have for row in idx])


def _empty_geometry(word: tuple, base: int, k: int, d: int) -> CylinderGeometry:
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


def pullback_witness_batch(system: MapWithHoles, words, *, targets: int = 12,
                           seeds) -> list:
    """Verified interior points of many cylinders via inverse-branch pullback.

    Word i is seeded with ``sample_cell(word[-1], targets, seeds[i])``
    minus the hole.  All words are then pulled back together, right to
    left: at each step the live rows are grouped by the symbol they need,
    one ``inverse_branch`` call per symbol, and rows that lose their
    preimage or land in the hole are dropped.  One itinerary run to the
    longest word length then keeps the rows whose prefix reproduces their
    own word.  Every row's arithmetic is elementwise, so each word gets
    the same points, bit for bit, as if it were pulled back alone.
    Returns one (N_i, d) array per word, in input order; a word that
    violates the adjacency gets none.
    """
    words = [tuple(map(operator.index, w)) for w in words]
    batches, owners = [np.empty((0, system.d))], [np.empty(0, dtype=np.int64)]
    for i, (word, seed) in enumerate(zip(words, seeds)):
        if not check_word(system, word):
            continue
        pts = system.sample_cell(word[-1], targets, seed)
        batches.append(pts[~system.in_hole(pts)] if len(pts) else pts)
        owners.append(np.full(len(batches[-1]), i, dtype=np.int64))
    pts, owner = np.concatenate(batches), np.concatenate(owners)

    lengths = np.array([len(w) for w in words], dtype=np.int64)
    longest = int(lengths.max(initial=0))
    table = np.zeros((len(words), longest), dtype=np.int64)
    for i, word in enumerate(words):
        table[i, :len(word)] = word

    for step in range(longest - 1):
        at = lengths[owner] - 2 - step  # word position this step pulls back through
        live = np.flatnonzero(at >= 0)
        if len(live) == 0:
            break
        need = table[owner[live], at[live]]
        for symbol in np.flatnonzero(np.bincount(need)):  # np.unique imports numpy.ma: +1 MB RSS
            rows = live[need == symbol]
            pts[rows] = system.inverse_branch(int(symbol), pts[rows])
        keep = np.ones(len(pts), dtype=bool)
        keep[live] = ~np.isnan(pts[live]).any(axis=1)
        landed = live[keep[live]]
        if len(landed):
            keep[landed] = ~system.in_hole(pts[landed])
        pts, owner = pts[keep], owner[keep]

    if len(pts):
        itin = system.itinerary(pts, longest)
        cols = np.arange(longest)
        match = (itin == table[owner]) | (cols >= lengths[owner][:, None])
        good = match.all(axis=1)
        pts, owner = pts[good], owner[good]
    cuts = np.searchsorted(owner, np.arange(len(words) + 1))
    return [pts[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def pullback_witnesses(system: MapWithHoles, word, *, targets: int = 12,
                       seed: int = 0) -> np.ndarray:
    """Verified interior points of one cylinder; see ``pullback_witness_batch``."""
    return pullback_witness_batch(system, [word], targets=targets, seeds=[seed])[0]


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
    marker, not an error.  The word is any sequence of integer symbols
    (TypeError otherwise); ``check_word`` rejects it if empty or out of
    range.
    """
    word = tuple(map(operator.index, word))
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

    for symbol in word[1:]:
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
