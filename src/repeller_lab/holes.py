"""Piecewise expanding maps with holes and their cylinders.

A map with holes is a piecewise smooth expanding map whose inverse
branches are indexed by symbols 0..m; orbits falling into the hole leave
the system.  ``MapWithHoles`` is the abstract interface consumed by the
cylinder machinery below; concrete families live in ``families``.
``propagate`` is the one active-set orbit loop: escape times, survivor
grids, itineraries, cylinder refinement, the slow-set Monte Carlo and
the induced map all iterate their orbits through it.  ``first_entry``,
under the escape times and survivor grids, steps one orbit for each
group of orbits that meet bit for bit (dyadic grid centres do, often):
exact because ``step`` and the absorber are row-wise, checked at t = 1,
2, 4, 8, ... and no more after a check that finds no two orbits met.

Cylinders C(a_1,...,a_n) — the sets of points sharing a branch itinerary —
are realized two-sidedly:

  * ``refine_cylinder``: an outer cover of grid boxes with a volume
    bracket, by transporting a bounding ball of each box forward and
    pruning boxes whose image ball provably leaves the required branch
    domain (or provably enters the hole);
  * ``pullback_witnesses``: inner witnesses, by pulling a sample of the
    final branch domain back through the inverse branches and verifying
    the forward itinerary.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .geometry import Region, box_indices, scale_to_base, wrap


def propagate(step, points, steps: int, visit) -> None:
    """Iterate ``step`` on the orbits of ``points`` until ``visit`` retires them.

    ``visit(t, rows, pos)`` sees the original row indices of the orbits
    still active and their positions after t steps, for t = 0..steps, and
    returns a boolean mask over ``rows`` of the orbits to retire.  Only
    active orbits are stepped, the loop stops once none is left, and no
    step follows the last visit.  The visits are all a caller sees: one
    that wants positions records them there.  ``points`` is read, not
    copied, so neither ``visit`` nor ``step`` may write to ``pos``.
    """
    pos = np.atleast_2d(np.asarray(points, dtype=float))
    rows = np.arange(len(pos))
    for t in range(steps + 1):
        done = visit(t, rows, pos)
        if done.any():
            # a row gather: a boolean mask on an (N, d) array copies ten times slower
            live = np.flatnonzero(~done)
            rows, pos = rows[live], pos.take(live, axis=0)
        if t == steps or len(rows) == 0:
            break
        pos = step(pos)


def first_entry(step, points, steps: int, absorbed):
    """``(survives, entry)`` of each orbit against an absorbing set.

    ``survives`` flags the orbits that stay out of ``absorbed`` (a
    membership test) for ``steps`` steps; ``entry`` is the step at which
    an orbit is first found inside, or ``steps`` for survivors.

    Orbits that meet bit for bit are merged.  At t = 1, 2, 4, 8, ... the
    visit finds the active rows whose positions have the same bit pattern
    (``_bitwise_duplicates``), keeps one of each group and retires the
    others, each pointing at a row it coincides with; after the loop every
    row takes the (survives, entry) at the end of its pointer chain.  The
    first pass that merges nothing ends the passes, so inputs whose orbits
    do not meet pay for one.  This is exact, not approximate, because
    ``step`` and ``absorbed`` are row-wise (``MapWithHoles``): an output
    row depends only on its input row, so equal rows have equal futures.
    """
    survives = np.ones(len(points), dtype=bool)
    entry = np.full(len(points), steps, dtype=np.int64)
    rep = None  # row -> a row it merged into; allocated at the first merge
    next_pass = 1

    def visit(t, rows, pos):
        nonlocal rep, next_pass
        hit = absorbed(pos)
        gone = rows[hit]
        survives[gone] = False
        entry[gone] = t
        if t == next_pass and t < steps:
            dup, onto = _bitwise_duplicates(pos)
            keep = np.flatnonzero(~hit[dup])  # a hit row's twins are hit too
            dup, onto = dup[keep], onto[keep]
            next_pass = 2 * t if len(dup) else -1
            if len(dup):
                if rep is None:
                    rep = np.arange(len(points))
                rep[rows[dup]] = rows[onto]
                hit[dup] = True
        return hit

    propagate(step, points, steps, visit)
    if rep is None:
        return survives, entry
    rep = _chain_ends(rep)
    return survives[rep], entry[rep]


def _chain_ends(rep):
    """The last row of each row's pointer chain, by pointer jumping."""
    while True:
        jumped = rep[rep]
        if np.array_equal(jumped, rep):
            return rep
        rep = jumped


# odd multipliers for _bitwise_duplicates' row key, one per column
_KEY_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                             0x165667B19E3779F9, 0xD6E8FEB86659FD93], dtype=np.uint64)


def _bitwise_duplicates(pos):
    """``(dup, onto)``: rows of ``pos`` equal bit for bit to row ``onto``.

    Each row's bits hash to one uint64 key (column j times the j-th odd
    multiplier, XORed over the columns); rows with equal adjacent keys in
    key order are confirmed by comparing all their bits.  Each ``dup``
    row points at its predecessor in key order, which may itself be a
    ``dup``.  Comparing bits rather than floats keeps 0.0 and -0.0 (equal
    as floats, not as bits) apart; a hash collision can only hide a merge.
    """
    bits = np.ascontiguousarray(pos).view(np.uint64)
    key = bits[:, 0] * _KEY_MULTIPLIERS[0]
    for j in range(1, bits.shape[1]):
        key ^= bits[:, j] * _KEY_MULTIPLIERS[j % len(_KEY_MULTIPLIERS)]
    order = np.argsort(key)
    key = key[order]
    cand = np.flatnonzero(key[1:] == key[:-1]) + 1
    dup, onto = order[cand], order[cand - 1]
    same = (bits.take(dup, axis=0) == bits.take(onto, axis=0)).all(axis=1)
    return dup[same], onto[same]


class MapWithHoles:
    """Interface for branch-indexed expanding maps with holes.

    Every branch is full (it maps its domain onto the whole space), so
    any word of symbols 0..n_branches-1 is admissible.  Concrete
    subclasses must set the attributes below and implement the evaluator
    methods (``log_least_stretch`` is the stretch evaluator).  All
    point-valued methods are vectorized over an (N, d) array of torus
    points in [0,1)^d, and must be pure and row-wise on every batch size,
    one row included: an output row has the same bits whatever other rows
    share its batch.

    Attributes
    ----------
    d : ambient dimension.
    n_branches : number of inverse branches (m + 1 in the usual indexing).
    mu_f : total hole volume (0 when there is no hole).
    S : supremum of the derivative-inverse norm over the domain.
    hole : Region for the hole, or None.
    delta_mu : effective parameter at which the depth-volume bound
        delta(n, .) for this family is evaluated (the hole volume rescaled
        by the family's K factor; equal to mu_f for the toys).
    """

    d: int
    n_branches: int
    mu_f: float
    S: float
    hole: Region | None = None
    delta_mu: float = 0.0
    label: str = "map-with-holes"

    # -- evaluators a subclass must provide ------------------------------

    def step(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def symbol_of(self, points: np.ndarray) -> np.ndarray:
        """Branch symbol per point; -1 for points in the hole."""
        raise NotImplementedError

    def jacobian_matrices(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cell_margin(self, symbol: int, points: np.ndarray) -> np.ndarray:
        """Signed Euclidean clearance to the branch domain of ``symbol``.

        Positive value r certifies the ball B(x, r) lies inside the branch
        domain (outside the hole); value below -r certifies B(x, r) misses
        the domain entirely.  The margin must be 1-Lipschitz in the torus
        metric d_T, up to rounding: |m(p) - m(q)| <= d_T(p, q) (1 + 1e-12)
        + 1e-15 for any two points, computed in one batch or apart.
        ``refine_cylinder``'s block screen rests on this.
        """
        raise NotImplementedError

    def log_least_stretch(self, points: np.ndarray) -> np.ndarray:
        """log of the least singular value of Df, i.e. -log ||Df^{-1}||."""
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

def check_word(system: MapWithHoles, word) -> tuple:
    """A word validated and returned as the tuple of ints the package keeps.

    A word is any sequence of branch symbols (a_1, ..., a_n).  Raises
    TypeError for a symbol that is not an integer, and ValueError for an
    empty word or a symbol outside 0..n_branches-1.
    """
    word = tuple(map(operator.index, word))
    if not word:
        raise ValueError("word must be nonempty")
    if min(word) < 0 or max(word) >= system.n_branches:
        raise ValueError(f"word symbol out of range for {system.n_branches} branches")
    return word


# ------------------------------------------------------------- geometry

@dataclass(frozen=True)
class CylinderGeometry:
    """Two-sided realization of a cylinder at one grid resolution.

    ``boxes`` holds integer grid indices of the outer-cover boxes at
    resolution base**-k, in lexicographic order (``covers`` relies on
    it).  ``vol_lo`` is the total volume of the boxes whose bounding ball
    was verified to stay inside every required branch domain, ``vol_hi``
    that of all the boxes.  A geometrically empty cylinder has no boxes;
    inner witnesses come from ``pullback_witnesses``.
    """

    base: int
    k: int
    boxes: np.ndarray
    vol_lo: float
    vol_hi: float

    def covers(self, points: np.ndarray) -> np.ndarray:
        """True per point when the point lies in one of the cover boxes.

        Looks the points' boxes up by binary search over the boxes'
        C-order linear indices; raises ValueError where those overflow
        int64.
        """
        pts = np.atleast_2d(points)
        if len(self.boxes) == 0:
            return np.zeros(len(pts), dtype=bool)
        n, d = self.base ** self.k, self.boxes.shape[1]
        if n ** d > np.iinfo(np.int64).max:
            raise ValueError(f"({self.base}**{self.k})**{d} boxes: linear indices overflow int64")
        shape = (n,) * d
        have = np.ravel_multi_index(self.boxes.T, shape)
        want = np.ravel_multi_index(box_indices(pts, self.k, self.base).T, shape)
        at = np.searchsorted(have, want).clip(max=len(have) - 1)
        return have[at] == want


# refine_cylinder's block screen drops a block whose center margin is
# below -(R (1 + _SCREEN_REL) + _SCREEN_ABS), R the block's half-diagonal;
# refine_cylinder derives that this covers the rounding.
_SCREEN_REL, _SCREEN_ABS = 2.0 ** -30, 2.0 ** -40


def _candidate_centers(system: MapWithHoles, symbol: int, base: int, k: int):
    """``(idx, centers)``: the grid boxes of side base**-k over the
    branch domain's bounding box that the block screen keeps, and their
    centers.

    Blocks have base**(k // 2) boxes a side; ``idx`` lists the boxes of
    the blocks kept, in lexicographic order.
    """
    n, side = base ** k, base ** (k // 2)
    bbox = np.asarray(system.cell_bbox(symbol), dtype=float)
    lo = np.array([max(0, int(np.floor(a * n))) for a in bbox[:, 0]])
    hi = np.array([min(n, int(np.ceil(b * n))) for b in bbox[:, 1]])
    first, last = lo // side, -(-hi // side)  # the blocks meeting [lo, hi)
    blocks = np.indices(last - first).reshape(system.d, -1).T + first
    half_diag = 0.5 * np.sqrt(system.d) * side / n
    margins = system.cell_margin(symbol, (blocks + 0.5) / (n // side))
    mask = (margins >= -(half_diag * (1 + _SCREEN_REL) + _SCREEN_ABS)).reshape(last - first)
    for axis in range(system.d):
        mask = mask.repeat(side, axis=axis)
    mask = mask[tuple(slice(a, b) for a, b in zip(lo - first * side, hi - first * side))]
    idx = np.stack(np.unravel_index(np.flatnonzero(mask), mask.shape), axis=-1) + lo
    return idx, (idx + 0.5) / n


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
    Returns one (N_i, d) array per word, in input order.  Each word goes
    through ``check_word`` first.
    """
    words = [check_word(system, w) for w in words]
    batches, owners = [np.empty((0, system.d))], [np.empty(0, dtype=np.int64)]
    for i, (word, seed) in enumerate(zip(words, seeds)):
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
        keep = np.flatnonzero(keep)
        pts, owner = pts.take(keep, axis=0), owner[keep]

    if len(pts):
        itin = system.itinerary(pts, longest)
        cols = np.arange(longest)
        match = (itin == table[owner]) | (cols >= lengths[owner][:, None])
        good = np.flatnonzero(match.all(axis=1))
        pts, owner = pts.take(good, axis=0), owner[good]
    cuts = np.searchsorted(owner, np.arange(len(words) + 1))
    return [pts[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def pullback_witnesses(system: MapWithHoles, word, *, targets: int = 12,
                       seed: int = 0) -> np.ndarray:
    """Verified interior points of one cylinder; see ``pullback_witness_batch``."""
    return pullback_witness_batch(system, [word], targets=targets, seeds=[seed])[0]


def refine_cylinder(system: MapWithHoles, word, resolution: float,
                    *, witness_targets: int = 12, seed: int = 0) -> CylinderGeometry:
    """Outer cover and volume bracket of C(a_1,...,a_n) at one resolution.

    Each grid box is represented by the ball around its center
    containing it; the ball is transported forward on ``propagate``, with
    the radius inflated by a local expansion bound at each step, and the
    box is pruned as soon as the transported ball provably misses the
    branch domain required at that step.  Boxes whose ball provably stays
    inside every required domain count toward the certified lower volume.

    The cover starts from the grid boxes meeting the first branch
    domain's bounding box, screened by blocks of base**(k // 2) boxes a
    side.  A box survives the first step only when its center's margin is
    at least -r0, r0 = eps sqrt(d) / 2 its half-diagonal.  Its center lies
    within R - r0 of its block's center, R the block's half-diagonal, so
    by the margin's Lipschitz contract (``MapWithHoles.cell_margin``) a
    block whose center margin is below -R holds no surviving box, and its
    boxes are never evaluated.  The float slack, with u = 2^-53: each
    center coordinate (i + 1/2) / n is within u of its real value, which
    adds at most 2u sqrt(d) < 4e-16 to a distance; r0 and R, a few
    operations from base**-k, are within 4u of theirs, relative; the
    contract adds 1e-12 relative and 1e-15 absolute.  So a surviving
    box's block center has a margin of at least -R (1 + 1e-12 + 8u)
    - 1.4e-15, and the screen drops a block only below -(R (1 + 2^-30)
    + 2^-40), which is 900 and 600 times further out.  The boxes of the
    kept blocks are then evaluated as one batch in the full grid's
    lexicographic order, so the screen changes no box, flag, witness or
    volume, bit for bit.

    A geometrically empty cylinder comes back with no boxes, not as an
    error; a ``pullback_witnesses`` witness outside the cover raises
    RuntimeError.  The word goes through ``check_word``: any sequence of
    integer symbols in range, nonempty.
    """
    word = check_word(system, word)
    base, k = scale_to_base(resolution)
    eps = base ** -k
    idx, centers = _candidate_centers(system, word[0], base, k)
    rad = np.full(len(idx), 0.5 * eps * np.sqrt(system.d))
    kept, inside = np.ones((2, len(idx)), dtype=bool)

    def visit(t, rows, pos):
        margins, r = system.cell_margin(word[t], pos), rad[rows]
        # balls are closed: prune only when the transported ball provably
        # misses the cell (margin strictly below -radius, or NaN), so an
        # exactly touching measure-zero cylinder is never declared empty
        drop = ~(margins >= -r)
        kept[rows[drop]] = False
        inside[rows] &= margins >= r
        if t + 1 < len(word):
            live = np.flatnonzero(~drop)
            rad[rows[live]] = r[live] * system.lip_bound(pos.take(live, axis=0), r[live])
        return drop

    propagate(system.step, centers, len(word) - 1, visit)
    keep = np.flatnonzero(kept)
    witnesses = pullback_witnesses(system, word, targets=witness_targets, seed=seed)
    geometry = CylinderGeometry(base=base, k=k, boxes=idx.take(keep, axis=0),
                                vol_lo=float(inside[keep].sum()) * eps ** system.d,
                                vol_hi=float(len(keep)) * eps ** system.d)
    if len(witnesses) and not geometry.covers(witnesses).all():
        raise RuntimeError("outer cover does not contain a verified witness: "
                           "certification bookkeeping is inconsistent")
    return geometry
