"""Tests for cylinder covers, witnesses, and expansion profiles."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeller_lab.families import (
    DiazVianaFamily,
    HopfModel2D,
    LinearToy2D,
    TriplingToy,
    _interval_margin,
)
from repeller_lab.holes import (
    MapWithHoles,
    check_word,
    first_entry,
    propagate,
    pullback_witness_batch,
    pullback_witnesses,
    refine_cylinder,
)
from repeller_lab.geometry import box_indices, scale_to_base, wrap
from repeller_lab.induced import InducedExpander, build_induced, verify_expansion


class GappedQuadrupling(MapWithHoles):
    """Circle toy whose branch images miss the other branch's domain.

    The map is the smooth quadrupling x -> 4x, but only two thin arcs
    survive as branch domains; everything else is a hole.  The image of
    branch 0 is [0, 1/2], a distance 0.05 short of branch 1's domain, and
    the image of branch 1 is [0.2, 0.7], a distance 0.075 short of branch
    0's - so mixed words are geometrically empty, although every word is
    admissible.
    """

    d = 1
    n_branches = 2
    mu_f = 0.75
    S = 0.25
    delta_mu = 0.0
    label = "gapped-quadrupling"
    CELLS = ((0.0, 0.125), (0.55, 0.675))

    def step(self, points):
        return (np.atleast_2d(points) * 4.0) % 1.0

    def symbol_of(self, points):
        x = np.atleast_2d(points)[:, 0]
        sym = np.full(len(x), -1, dtype=np.int64)
        for s, (a, b) in enumerate(self.CELLS):
            sym[(x >= a) & (x <= b)] = s
        return sym

    def in_hole(self, points):
        return self.symbol_of(points) == -1

    def log_least_stretch(self, points):
        return np.full(len(np.atleast_2d(points)), np.log(4.0))

    def jacobian_matrices(self, points):
        return np.full((len(np.atleast_2d(points)), 1, 1), 4.0)

    def cell_margin(self, symbol, points):
        return _interval_margin(np.atleast_2d(points)[:, 0], *self.CELLS[symbol])

    def lambda_min(self, symbol):
        return float(np.log(4.0))

    def lip_bound(self, points, rad):
        return np.full(len(np.atleast_2d(points)), 4.0)

    def inverse_branch(self, symbol, points):
        y = np.atleast_2d(points)[:, 0]
        if symbol == 0:
            x = np.where(y <= 0.5, y / 4.0, np.nan)
        else:
            x = np.where((y >= 0.2) & (y <= 0.7), (y + 2.0) / 4.0, np.nan)
        return x[:, None]


class LyingMarginTripling(TriplingToy):
    """Deliberately inconsistent system: the margin oracle disowns a strip
    of branch 0 that genuinely belongs to it."""

    def cell_margin(self, symbol, points):
        margin = super().cell_margin(symbol, points)
        if symbol == 0:
            x = np.atleast_2d(points)[:, 0]
            margin = np.where((x >= 0.02) & (x <= 0.04), -1.0, margin)
        return margin


# ------------------------------------------------------------ orbit engine

class CountingShift:
    """Fake model: one step adds 1 to every coordinate and is logged, so a
    position of 10 r + t means row r has taken exactly t steps."""

    def __init__(self):
        self.stepped = []  # rows of each step call, read back from positions

    def step(self, pos):
        self.stepped.append((pos[:, 0] // 10).astype(int).tolist())
        return pos + 1.0


def test_propagate_steps_only_active_orbits():
    model, seen, last = CountingShift(), {}, {}
    pts = np.array([[0.0], [10.0], [20.0]])

    def visit(t, rows, pos):
        seen[t] = rows.tolist()
        assert np.all(pos[:, 0] == 10 * rows + t)
        last.update(zip(rows.tolist(), pos[:, 0].tolist()))
        return (rows == 0) | ((rows == 1) & (t == 2))

    assert propagate(model.step, pts, 4, visit) is None
    assert seen == {0: [0, 1, 2], 1: [1, 2], 2: [1, 2], 3: [2], 4: [2]}
    # row 0 retired at t = 0 is never stepped; no step follows the last visit
    assert model.stepped == [[1, 2], [1, 2], [2], [2]]
    # each row's last visit sees it where it was retired, or after all four steps
    assert last == {0: 0.0, 1: 12.0, 2: 24.0}
    assert pts[:, 0].tolist() == [0.0, 10.0, 20.0]


def test_propagate_stops_once_no_orbit_is_active():
    model, visits, last = CountingShift(), [], []

    def visit(t, rows, pos):
        visits.append(t)
        last.append(pos.copy())
        return np.full(len(rows), t == 2)

    pts = np.zeros((3, 2))
    propagate(model.step, pts, 100, visit)
    assert visits == [0, 1, 2] and len(model.stepped) == 2
    assert np.all(last[-1] == 2.0) and np.all(pts == 0.0)
    model, last = CountingShift(), []
    propagate(model.step, np.ones((2, 1)), 0, visit)
    assert len(last) == 1 and np.all(last[0] == 1.0)
    assert model.stepped == []


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _loop_step_calls(tree):
    """Lines of the ``step(...)`` / ``x.step(...)`` calls inside a loop or
    comprehension, outside ``propagate``."""
    lines = []

    def walk(node, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "propagate":
            return
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if in_loop and name == "step":
                lines.append(node.lineno)
        in_loop = in_loop or isinstance(node, _LOOPS)
        for child in ast.iter_child_nodes(node):
            walk(child, in_loop)

    walk(tree, False)
    return lines


def test_propagate_is_the_only_loop_that_steps_orbits():
    src = Path(__file__).resolve().parents[1] / "src" / "repeller_lab"
    found = {p.name: _loop_step_calls(ast.parse(p.read_text()))
             for p in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the walk does see a stepping loop, and a lone step outside any loop passes
    assert _loop_step_calls(ast.parse("for s in w:\n    pos = system.step(pos)")) == [2]
    assert _loop_step_calls(ast.parse("ys = [step(x) for x in xs]")) == [1]
    assert _loop_step_calls(ast.parse("ok = trap.contains(model.step(pts))")) == []


def _unmerged_first_entry(step, points, steps, absorbed):
    survives = np.ones(len(points), dtype=bool)
    entry = np.full(len(points), steps, dtype=np.int64)

    def visit(t, rows, pos):
        hit = absorbed(pos)
        survives[rows[hit]], entry[rows[hit]] = False, t
        return hit

    propagate(step, points, steps, visit)
    return survives, entry


def test_first_entry_resolves_merge_chains_across_passes():
    # x -> floor(x / 2) on 0..1023 merges the rows pairwise at every step,
    # so rows retired at t = 1 point at rows retired at t = 2, 4, 8, ...
    sizes = []

    def step(pos):
        sizes.append(len(pos))
        return np.floor(pos / 2.0)

    def absorbed(pos):
        return (pos[:, 0] == 3.0) | (pos[:, 0] == 10.0)

    pts = np.arange(1024.0)[:, None]
    survives, entry = first_entry(step, pts, 12, absorbed)
    want_survives, want_entry = _unmerged_first_entry(lambda q: np.floor(q / 2.0),
                                                      pts, 12, absorbed)
    assert np.array_equal(survives, want_survives)
    assert np.array_equal(entry, want_entry)
    assert 0 < survives.sum() < len(pts) and len(set(entry[~survives])) > 2
    # after the passes at t = 1, 2, 4 and 8 fewer rows are stepped than
    # the unmerged loop steps (the rows with entry > t)
    for t in (1, 2, 4, 8):
        assert sizes[t] < (want_entry > t).sum()


def test_first_entry_keeps_signed_zeros_apart():
    # at t = 1 the rows sit at (1, 0.0) and (1, -0.0): equal as floats,
    # not as bits, and the next step sends them to +inf and -inf
    def step(pos):
        with np.errstate(divide="ignore"):
            return np.stack([pos[:, 0] + 1.0, 1.0 / pos[:, 1]], axis=1)

    def absorbed(pos):
        return (pos[:, 0] == 2.0) & (pos[:, 1] < 0)

    pts = np.array([[0.0, np.inf], [0.0, -np.inf], [0.0, -np.inf]])
    survives, entry = first_entry(step, pts, 3, absorbed)
    assert survives.tolist() == [True, False, False]
    assert entry.tolist() == [3, 2, 2]


# ------------------------------------------------------------------ words

def test_word_validation():
    toy = TriplingToy()
    for bad in [(), [], np.array([], dtype=np.int64), (0, -1), (-1,), (0, 2), (2,),
                np.array([0, 5])]:
        with pytest.raises(ValueError):
            check_word(toy, bad)
    with pytest.raises(ValueError):
        refine_cylinder(toy, (0, -1), 1.0 / 27.0)
    with pytest.raises(ValueError):
        pullback_witness_batch(toy, [(0, 1), (1, 2)], seeds=[0, 0])
    # a float symbol is not truncated to a branch index
    with pytest.raises(TypeError):
        refine_cylinder(toy, (0.7, 1.9), 1.0 / 27.0)
    with pytest.raises(TypeError):
        pullback_witness_batch(toy, [(0, 1), (0.0, 1)], seeds=[0, 0])


def test_check_word_range_and_adjacency():
    # every branch is full, so check_word only validates and normalises:
    # list, tuple and numpy words come back as the same tuple of ints
    toy = TriplingToy()
    for word in [(0, 1, 0, 1), [0, 1, 0, 1], np.array([0, 1, 0, 1]),
                 tuple(np.array([0, 1, 0, 1]))]:
        got = check_word(toy, word)
        assert got == (0, 1, 0, 1) and type(got) is tuple
        assert all(type(s) is int for s in got)
    # a float symbol is an error, not a truncated or compared branch index
    for bad in [(0.7, 1.9), (0.0, 1.0)]:
        with pytest.raises(TypeError):
            check_word(toy, bad)


def test_list_and_numpy_words_refine_like_the_tuple_word():
    model = HopfModel2D(0.1)
    want = refine_cylinder(model, (0, 3, 7), 2.0 ** -6, seed=2)
    wits = pullback_witnesses(model, (0, 3, 7), seed=2)
    assert len(want.boxes) > 0 and len(wits) > 0
    for word in ([0, 3, 7], np.array([0, 3, 7]), tuple(np.arange(10)[[0, 3, 7]])):
        got = refine_cylinder(model, word, 2.0 ** -6, seed=2)
        assert got.boxes.tobytes() == want.boxes.tobytes()
        assert (got.vol_lo, got.vol_hi) == (want.vol_lo, want.vol_hi)
        assert pullback_witnesses(model, word, seed=2).tobytes() == wits.tobytes()


# ------------------------------------------------------------------ covers

def test_tripling_two_letter_cylinder_exact_interval():
    # C(0,1) = [2/9, 1/3], an interval of length 1/9
    toy = TriplingToy()
    geo = refine_cylinder(toy, (0, 1), 3.0 ** -5)
    assert len(geo.boxes) > 0
    assert geo.vol_lo <= 1.0 / 9.0 <= geo.vol_hi
    assert geo.vol_hi - geo.vol_lo < 0.06
    wits = pullback_witnesses(toy, (0, 1))
    assert len(wits) > 0
    assert np.all(wits[:, 0] >= 2.0 / 9.0 - 1e-12)
    assert np.all(wits[:, 0] <= 1.0 / 3.0 + 1e-12)
    assert geo.covers(wits).all()


def test_single_letter_cylinder_is_branch_domain():
    toy = TriplingToy()
    geo = refine_cylinder(toy, (1,), 3.0 ** -4)
    assert geo.vol_lo <= 1.0 / 3.0 <= geo.vol_hi
    assert geo.vol_hi - geo.vol_lo < 0.1


def test_extension_cover_nested_in_prefix_cover():
    toy = TriplingToy()
    outer = refine_cylinder(toy, (0, 1), 3.0 ** -5)
    inner = refine_cylinder(toy, (0, 1, 0), 3.0 ** -5)
    prefix_boxes = set(map(tuple, outer.boxes))
    assert all(tuple(b) in prefix_boxes for b in inner.boxes)
    assert inner.vol_hi <= outer.vol_hi + 1e-12


def test_cover_catches_every_member_point():
    # outer-cover soundness: any point whose itinerary matches the word
    # must land in a cover box
    model = HopfModel2D(0.1)
    geo = refine_cylinder(model, (0, 0), 2.0 ** -7)
    rng = np.random.default_rng(11)
    pts = rng.random((20_000, 2))
    itin = model.itinerary(pts, 2)
    members = np.all(itin == np.array([0, 0]), axis=1)
    assert members.any()
    assert geo.covers(pts[members]).all()
    measured = members.mean()
    assert geo.vol_lo - 0.01 <= measured <= geo.vol_hi + 0.01


def test_geometrically_empty_word_returns_marker():
    toy = GappedQuadrupling()
    for word in ((0, 0), (1, 1)):
        alive = refine_cylinder(toy, word, 2.0 ** -8)
        assert len(alive.boxes) > 0
        assert len(pullback_witnesses(toy, word)) > 0
    for word in ((0, 1), (1, 0)):
        dead = refine_cylinder(toy, word, 2.0 ** -8)
        assert dead.vol_lo == 0.0 and dead.vol_hi == 0.0
        assert len(dead.boxes) == 0 and len(pullback_witnesses(toy, word)) == 0
        assert len(pullback_witnesses(toy, word, targets=64)) == 0


class TouchingQuadrupling(GappedQuadrupling):
    """Variant whose branch-0 image ends exactly where branch 1 begins, so
    C(0,1) is the single point 1/8: no volume, no interior witnesses."""

    CELLS = ((0.0, 0.125), (0.5, 0.625))

    def inverse_branch(self, symbol, points):
        y = np.atleast_2d(points)[:, 0]
        if symbol == 0:
            x = np.where(y <= 0.5, y / 4.0, np.nan)
        else:
            x = np.where(y <= 0.5, (y + 2.0) / 4.0, np.nan)
        return x[:, None]


def test_degenerate_cylinder_stays_inconclusive():
    # a measure-zero cylinder cannot be certified empty, but the bounds
    # stay honest: a sliver of cover boxes, zero certified volume, and no
    # interior witnesses
    geo = refine_cylinder(TouchingQuadrupling(), (0, 1), 2.0 ** -8)
    assert len(geo.boxes) > 0
    assert geo.vol_lo == 0.0
    assert 0 < geo.vol_hi <= 3 * 2.0 ** -8
    assert len(pullback_witnesses(TouchingQuadrupling(), (0, 1))) == 0
    assert geo.covers(np.array([[0.125]])).any()


def test_inconsistent_margin_oracle_is_caught():
    with pytest.raises(RuntimeError):
        refine_cylinder(LyingMarginTripling(), (0, 0), 3.0 ** -5,
                        witness_targets=64)


def test_covers_with_no_boxes_is_false():
    dead = refine_cylinder(GappedQuadrupling(), (0, 1), 2.0 ** -8)
    assert not dead.covers(np.array([[0.2]])).any()


# ------------------------------------------------------------ block screen

def _full_grid_refinement(system, word, resolution, *, witness_targets=12, seed=0):
    """``refine_cylinder`` as it was before the block screen: the first
    step evaluates the margin at every box over the bounding box."""
    word = tuple(word)
    base, k = scale_to_base(resolution)
    n, eps = base ** k, base ** -k
    axes = [np.arange(max(0, int(np.floor(lo * n))), min(n, int(np.ceil(hi * n))),
                      dtype=np.int64)
            for lo, hi in np.asarray(system.cell_bbox(word[0]), dtype=float)]
    idx = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    pos = (idx + 0.5) / n
    r0 = 0.5 * eps * np.sqrt(system.d)
    margins = system.cell_margin(word[0], pos)
    keep = np.flatnonzero(margins >= -r0)
    idx, pos = idx.take(keep, axis=0), pos.take(keep, axis=0)
    inside = margins[keep] >= r0
    rad = np.full(len(pos), r0)
    for symbol in word[1:]:
        if len(pos) == 0:
            break
        rad = rad * system.lip_bound(pos, rad)
        pos = system.step(pos)
        margins = system.cell_margin(symbol, pos)
        keep = np.flatnonzero(margins >= -rad)
        idx, pos = idx.take(keep, axis=0), pos.take(keep, axis=0)
        rad, margins = rad[keep], margins[keep]
        inside = inside[keep] & (margins >= rad)
    witnesses = pullback_witnesses(system, word, targets=witness_targets, seed=seed)
    return (idx, inside, witnesses, float(inside.sum()) * eps ** system.d,
            float(len(idx)) * eps ** system.d)


def _assert_refines_like_the_full_grid(system, word, resolution, **kw):
    got = refine_cylinder(system, word, resolution, **kw)
    want = _full_grid_refinement(system, word, resolution, **kw)
    a, b = got.boxes, want[0]
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.vol_lo, got.vol_hi) == want[3:]
    return got


_RESOLUTIONS = [2.0 ** -k for k in range(5, 10)] + [3.0 ** -k for k in range(4, 7)]


@pytest.mark.parametrize("make", [
    lambda: HopfModel2D(0.005), lambda: HopfModel2D(0.1), LinearToy2D,
    lambda: DiazVianaFamily(0.25), TriplingToy,
], ids=["hopf2d-0.005", "hopf2d-0.1", "linear2d", "diaz-viana", "tripling"])
def test_block_screen_refines_like_the_full_grid(make):
    # words of length 1-6 at every resolution; every other word starts
    # with symbol 0, whose hopf2d margin carries the disk term
    system, rng = make(), np.random.default_rng(7)
    kept = 0
    for length in range(1, 7):
        for i, resolution in enumerate(_RESOLUTIONS):
            word = rng.integers(0, system.n_branches, length)
            if i % 2 == 0:
                word[0] = 0
            geo = _assert_refines_like_the_full_grid(system, word, resolution,
                                                     witness_targets=4, seed=i)
            kept += len(geo.boxes)
    assert kept > 0


def test_block_screen_evaluates_a_fraction_of_the_grid():
    # one margin per block of 16^2 boxes, then the boxes of the blocks
    # near the cell (a tenth of the torus); the full grid has 512^2
    system, sizes = HopfModel2D(0.1), []
    margin = system.cell_margin
    system.cell_margin = lambda symbol, points: sizes.append(len(points)) or margin(symbol, points)
    geo = refine_cylinder(system, (3,), 2.0 ** -9, witness_targets=0)
    assert sizes[0] == 32 ** 2 and sum(sizes) < 512 ** 2 / 4
    assert 512 ** 2 / 20 < len(geo.boxes) < sizes[1]


_SHIPPED = {"hopf2d-0.005": HopfModel2D(0.005), "hopf2d-0.1": HopfModel2D(0.1),
            "hopf2d-0": HopfModel2D(0.0), "linear2d": LinearToy2D(),
            "tripling": TriplingToy(), "diaz-viana-0.25": DiazVianaFamily(0.25),
            "diaz-viana-0.04": DiazVianaFamily(0.04)}
_A2 = np.array([[3.0, -1.0], [1.0, 3.0]])


def _anchors(system, symbol, kind):
    """``(point, normal)`` pairs on the ``kind`` of line: the edges of
    ``symbol``'s cells, the torus seams (of [0, 1) and of [-1/2, 1/2)) or
    the neutral circle, with the unit normal along which the margin moves
    at slope one."""
    if system.d == 1:
        points = system.cells[symbol] if kind == "edge" else (0.0, 0.5, 1.0)
        return [([x], [1.0]) for x in points]
    if kind == "seam":
        return [([x, y], [1.0, 0.0]) for x, y in ((0.0, 0.3), (0.5, 0.7), (1.0, 0.5))] \
            + [([x, y], [0.0, 1.0]) for x, y in ((0.2, 0.0), (0.5, 0.5), (0.8, 1.0))]
    if kind == "circle":
        radial = [np.array([np.cos(t), np.sin(t)]) for t in (0.0, 1.0, 2.5, 4.0)]
        return [(wrap(system.rho_inv * u), u) for u in radial]
    # the cells are the unit boxes around the integer points r of y = A x
    # with (3 r0 + r1) mod 10 = symbol, and A / sqrt(10) is a rotation
    out = []
    for r0 in (-1, 0, 1):
        r = np.array([r0, (symbol - 3 * r0) % 10 - 5])
        for axis in (0, 1):
            for side in (-0.5, 0.5):
                for t in (-0.3, 0.1, 0.45):
                    y = r + np.array([side, t])[[axis, 1 - axis]]
                    out.append((wrap(np.linalg.solve(_A2, y)), _A2[axis] / np.sqrt(10.0)))
    return out


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, system in _SHIPPED.items() for kind in ("edge", "seam", "circle")
    if kind != "circle" or getattr(system, "mu", 0.0) > 0])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cell_margin_is_one_lipschitz_in_the_torus_metric(name, kind, data):
    # pairs across a line, straight along its normal or in any direction;
    # on the neutral circle only symbol 0's margin carries the disk term
    system = _SHIPPED[name]
    symbol = 0 if kind == "circle" else data.draw(st.integers(0, system.n_branches - 1))
    anchor, normal = data.draw(st.sampled_from(_anchors(system, symbol, kind)))
    scale = data.draw(st.sampled_from([1e-15, 1e-9, 1e-4, 0.02]), label="scale")
    skew = data.draw(st.sampled_from([0.0, 1e-3, 1.0]), label="skew")
    unit = st.floats(-1.0, 1.0)
    pair = [np.asarray(anchor) + scale * (data.draw(unit) * np.asarray(normal)
                                          + skew * np.array([data.draw(unit) for _ in anchor]))
            for _ in range(2)]
    p, q = wrap(np.array(pair))
    together = system.cell_margin(symbol, np.stack([p, q]))
    apart = [system.cell_margin(symbol, x[None, :])[0] for x in (p, q)]
    gap = p - q
    gap -= np.round(gap)
    bound = np.sqrt((gap * gap).sum()) * (1 + 1e-12) + 1e-15
    for mp in (together[0], apart[0]):
        for mq in (together[1], apart[1]):
            assert abs(mp - mq) <= bound


# ------------------------------------------------------------ cover lookup

def test_covers_matches_a_lookup_in_the_box_set():
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(3)
    for word, resolution in (((0, 2), 2.0 ** -7), ((5,), 3.0 ** -5)):
        geo = refine_cylinder(model, word, resolution)
        pts = np.concatenate([rng.random((4000, 2)), pullback_witnesses(model, word),
                              (geo.boxes + 0.5) * resolution])
        have = set(map(tuple, geo.boxes))
        want = [tuple(row) in have for row in box_indices(pts, geo.k, geo.base)]
        got = geo.covers(pts)
        assert got.tolist() == want and 0 < got.sum() < len(pts)
    for toy, word in ((TriplingToy(), (0, 1)), (DiazVianaFamily(0.25), (1, 0))):
        geo = refine_cylinder(toy, word, 3.0 ** -6)
        pts = np.linspace(0.0, 1.0, 3001)[:, None]
        have = set(map(tuple, geo.boxes))
        assert geo.covers(pts).tolist() == [
            tuple(row) in have for row in box_indices(pts, geo.k, geo.base)]


def test_covers_refuses_linear_indices_past_int64():
    geo = refine_cylinder(LinearToy2D(), (1,), 2.0 ** -4)
    huge = dataclasses.replace(geo, k=32)
    with pytest.raises(ValueError, match="overflow int64"):
        huge.covers(np.array([[0.1, 0.2]]))
    assert dataclasses.replace(geo, k=31).covers(np.array([[0.1, 0.2]])).shape == (1,)


# --------------------------------------------------------------- witnesses

def test_witnesses_reproduce_the_word():
    model = HopfModel2D(0.1)
    word = (0, 3, 7)
    wits = pullback_witnesses(model, word, targets=16, seed=3)
    assert len(wits) > 0
    itin = model.itinerary(wits, 3)
    assert np.all(itin == np.array(word))


def test_witnesses_for_diaz_viana():
    fam = DiazVianaFamily(0.25)
    wits = pullback_witnesses(fam, (0, 1, 0), targets=16, seed=1)
    assert len(wits) > 0
    assert np.all(fam.itinerary(wits, 3) == np.array([0, 1, 0]))


# ------------------------------------------------------- batched pullback

def _pullback_reference(system, word, *, targets=12, seed=0):
    """The per-word pullback loop that ``pullback_witness_batch`` replaced."""
    pts = system.sample_cell(word[-1], targets, seed)
    pts = pts[~system.in_hole(pts)] if len(pts) else pts
    for symbol in word[-2::-1]:
        if len(pts) == 0:
            break
        pts = system.inverse_branch(symbol, pts)
        pts = pts[~np.isnan(pts).any(axis=1)]
        if len(pts):
            pts = pts[~system.in_hole(pts)]
    if len(pts) == 0:
        return np.empty((0, system.d))
    itin = system.itinerary(pts, len(word))
    good = np.all(itin == np.array(word), axis=1)
    return pts[good]


def _verify_reference(expander, *, samples, seed, witness_depth_limit=12):
    """``verify_expansion`` as it was on the per-word pullback loop."""
    system = expander.system
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    batches, words_checked = [rng.random((samples, system.d))], 0
    for k, group in enumerate(expander.partition.groups[:witness_depth_limit]):
        for word in group:
            wits = _pullback_reference(system, word, targets=2, seed=seed + k)
            if len(wits):
                batches.append(wits)
                words_checked += 1
    pts = np.concatenate(batches, axis=0)
    prod = np.broadcast_to(np.eye(system.d), (len(pts), system.d, system.d)).copy()

    def multiply(rows, pos):
        prod[rows] = system.jacobian_matrices(pos) @ prod[rows]

    tau, ok = expander.apply(pts, on_step=multiply)
    ret = np.flatnonzero(ok)
    ret = ret[np.argsort(tau[ret], kind="stable")]  # in the order they return
    margins = (np.log(np.linalg.svd(prod[ret], compute_uv=False)[:, -1])
               - expander.threshold * tau[ret])
    return len(ret), words_checked, float(margins[int(np.argmin(margins))])


class LeakyQuadrupling(GappedQuadrupling):
    """Variant whose inverse branches never give NaN: each returns the plain
    quadrupling preimage, which for a mixed word lies in the hole, so only
    the pullback's own hole filter stops those rows."""

    def inverse_branch(self, symbol, points):
        y = np.atleast_2d(points)[:, 0]
        return ((y + (0.0, 2.0)[symbol]) / 4.0)[:, None]


def _counting_inverse(system):
    """Make ``system.inverse_branch`` add its row count to the returned list."""
    fed, inner = [0], system.inverse_branch

    def counted(symbol, points):
        fed[0] += len(points)
        return inner(symbol, points)

    system.inverse_branch = counted
    return fed


def _mixed_words(n, rng):
    """Words of lengths 1..7 with seeds in {0, 1}: random ones, pairs that
    share their (last symbol, seed) start, and the mixed words that the
    quadrupling toys leave without witnesses."""
    words, seeds = [], []
    for length in range(1, 8):
        for _ in range(3):
            words.append(tuple(int(s) for s in rng.integers(0, n, length)))
            seeds.append(int(rng.integers(0, 2)))
    for word in list(words[3::4]):
        words.append(tuple(int(s) for s in rng.integers(0, n, 2)) + word[-1:])
        seeds.append(seeds[words.index(word)])
    words += [(1, 0), (0, 1, 0, n - 1), (n - 1, 1, 0), (0, 1), (0, 0, 1, 1), (0, 1, 1)]
    seeds += [0, 1, 0, 1, 0, 1]
    return words, seeds


@pytest.mark.parametrize("make", [
    lambda: HopfModel2D(0.02), lambda: HopfModel2D(0.1), LinearToy2D, TriplingToy,
    lambda: DiazVianaFamily(0.25), GappedQuadrupling, LeakyQuadrupling,
], ids=["hopf2d-0.02", "hopf2d-0.1", "linear2d", "tripling", "diaz-viana",
        "gapped", "leaky"])
def test_batched_pullback_matches_per_word_loop_bitwise(make):
    system = make()
    n = system.n_branches
    words, seeds = _mixed_words(n, np.random.default_rng(n))
    fed = _counting_inverse(system)

    want = [_pullback_reference(system, w, targets=3, seed=s) for w, s in zip(words, seeds)]
    fed_by_loop, fed[0] = fed[0], 0
    got = pullback_witness_batch(system, words, targets=3, seeds=seeds)
    assert len(got) == len(words)
    for word, a, b in zip(words, want, got):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), word
    # the batch pulls back exactly the rows the per-word loop does
    assert fed[0] == fed_by_loop
    assert any(len(a) for a in want)
    if make in (GappedQuadrupling, LeakyQuadrupling):
        assert any(len(a) == 0 for a in want)


def test_single_word_pullback_is_the_batch_of_one():
    model = HopfModel2D(0.1)
    one = pullback_witnesses(model, (0, 3, 7), targets=16, seed=3)
    batch = pullback_witness_batch(model, [(5, 0, 3, 7), (0, 3, 7)],
                                   targets=16, seeds=[3, 3])
    assert one.tobytes() == batch[1].tobytes()
    assert pullback_witness_batch(model, [], seeds=[]) == []


@pytest.mark.parametrize("make, n, threshold", [
    (lambda: HopfModel2D(0.1), 532, None), (lambda: HopfModel2D(0.02), 40, None),
    (LinearToy2D, 6, 0.5), (lambda: DiazVianaFamily(0.25), 6, None),
], ids=["hopf2d-0.1", "hopf2d-0.02", "linear2d", "diaz-viana"])
def test_verify_expansion_matches_per_word_reference(make, n, threshold, monkeypatch):
    expander = build_induced(make(), n, threshold)
    fed, apply = [], InducedExpander.apply

    def recording(self, points, on_step=None):
        fed.append(np.array(points))
        return apply(self, points, on_step)

    monkeypatch.setattr(InducedExpander, "apply", recording)
    got = verify_expansion(expander, samples=3000, seed=4)
    checked, words_checked, min_margin = _verify_reference(
        expander, samples=3000, seed=4)
    # the same samples and witnesses, in the same order, reach the check
    assert fed[0].tobytes() == fed[1].tobytes()
    assert got.checked == checked
    assert got.words_checked == words_checked > 0
    assert got.min_margin == min_margin


# ------------------------------------------------------ expansion profiles

def _stretch_profile(model, word, seed):
    """Per-step least log-stretch along verified witnesses of ``word``, as
    a (len(word), N) array, and log sigma_min of each derivative product."""
    pos = pullback_witnesses(model, word, targets=24, seed=seed)
    assert len(pos) > 0
    prod = np.broadcast_to(np.eye(model.d), (len(pos), model.d, model.d)).copy()
    rows = []
    for _ in word:
        rows.append(model.log_least_stretch(pos))
        prod = model.jacobian_matrices(pos) @ prod
        pos = model.step(pos)
    least = np.linalg.svd(prod, compute_uv=False)[:, -1]
    return np.array(rows), np.log(least)


def test_profile_constant_for_tripling():
    stretch, total = _stretch_profile(TriplingToy(), (0, 1, 0, 0), seed=0)
    assert np.allclose(stretch, np.log(3.0), atol=1e-12)
    assert np.allclose(total, 4 * np.log(3.0), atol=1e-9)


def test_profile_constant_for_conformal_toy():
    stretch, total = _stretch_profile(LinearToy2D(), (4, 9, 0), seed=0)
    assert np.allclose(stretch, 0.5 * np.log(10.0), atol=1e-12)
    assert np.allclose(total, 1.5 * np.log(10.0), atol=1e-9)


def test_witness_stretch_at_or_above_branch_floors():
    # the certified per-branch floors bound every witness's per-step
    # stretch from below, and least singular values are submultiplicative
    model = HopfModel2D(0.1)
    word = (0, 3, 7)
    stretch, total = _stretch_profile(model, word, seed=5)
    floors = np.array([model.lambda_min(s) for s in word])
    assert np.all(stretch >= floors[:, None] - 1e-12)
    assert np.all(total >= stretch.sum(axis=0) - 1e-9)


def test_profile_near_neutral_circle_is_small_but_positive():
    # a word looping through the branch holding the neutral circle expands,
    # but far below the conformal rate - and the certified floor there is 0
    model = HopfModel2D(0.05)
    stretch, total = _stretch_profile(model, (0,) * 5, seed=0)
    assert 0.0 < stretch.min(axis=1).mean() < 0.5 * np.log(10.0)
    assert model.lambda_min(0) == 0.0
    assert np.all(total >= stretch.sum(axis=0) - 1e-9)
