"""Tests for cylinder covers, witnesses, and expansion profiles."""

import numpy as np
import pytest

from repeller_lab.families import (
    DiazVianaFamily,
    HopfModel2D,
    LinearToy2D,
    TriplingToy,
    _interval_margin,
)
from repeller_lab.holes import (
    CylinderWord,
    MapWithHoles,
    as_word,
    check_word,
    phi_profile,
    propagate,
    pullback_witnesses,
    refine_cylinder,
)


class GappedQuadrupling(MapWithHoles):
    """Circle toy whose branch images miss the other branch's domain.

    The map is the smooth quadrupling x -> 4x, but only two thin arcs
    survive as branch domains; everything else is a hole.  The image of
    branch 0 is [0, 1/2], a distance 0.05 short of branch 1's domain, and
    the image of branch 1 is [0.2, 0.7], a distance 0.075 short of branch
    0's - so mixed words are geometrically empty even though nothing in
    the declared adjacency (a full shift) says so.
    """

    d = 1
    n_branches = 2
    mu_f = 0.75
    S = 0.25
    eta = 2
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

    def deriv_inverse_norm(self, points):
        return np.full(len(np.atleast_2d(points)), 0.25)

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


class MarkovTripling(TriplingToy):
    """Tripling toy with the transition 0 -> 1 forbidden."""

    def __init__(self):
        super().__init__()
        self.adjacency = {0: (0,), 1: (0, 1)}


class LyingMarginTripling(TriplingToy):
    """Deliberately inconsistent system: the margin oracle disowns a strip
    of branch 0 that genuinely belongs to it."""

    def cell_margin(self, symbol, points):
        margin = super().cell_margin(symbol, points)
        if symbol == 0:
            x = np.atleast_2d(points)[:, 0]
            margin = np.where((x >= 0.02) & (x <= 0.04), -1.0, margin)
        return margin


# ------------------------------------------------------------------ words

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
    model, seen = CountingShift(), {}
    pts = np.array([[0.0], [10.0], [20.0]])

    def visit(t, rows, pos):
        seen[t] = rows.tolist()
        assert np.all(pos[:, 0] == 10 * rows + t)
        return (rows == 0) | ((rows == 1) & (t == 2))

    out = propagate(model.step, pts, 4, visit)
    assert seen == {0: [0, 1, 2], 1: [1, 2], 2: [1, 2], 3: [2], 4: [2]}
    # row 0 retired at t = 0 is never stepped; no step follows the last visit
    assert model.stepped == [[1, 2], [1, 2], [2], [2]]
    # each row comes back where it was retired, or after all four steps
    assert out[:, 0].tolist() == [0.0, 12.0, 24.0]
    assert pts[:, 0].tolist() == [0.0, 10.0, 20.0]


def test_propagate_stops_once_no_orbit_is_active():
    model, visits = CountingShift(), []

    def visit(t, rows, pos):
        visits.append(t)
        return np.full(len(rows), t == 2)

    out = propagate(model.step, np.zeros((3, 2)), 100, visit)
    assert visits == [0, 1, 2] and len(model.stepped) == 2
    assert np.all(out == 2.0)
    model = CountingShift()
    assert np.all(propagate(model.step, np.ones((2, 1)), 0, visit) == 1.0)
    assert model.stepped == []


def test_word_validation():
    with pytest.raises(ValueError):
        CylinderWord(())
    with pytest.raises(ValueError):
        CylinderWord((0, -1))
    w = as_word([0, 1, 0])
    assert len(w) == 3 and w[1] == 1 and list(w) == [0, 1, 0]
    assert as_word(w) is w


def test_check_word_range_and_adjacency():
    toy = TriplingToy()
    with pytest.raises(ValueError):
        check_word(toy, as_word((0, 5)))
    assert check_word(toy, as_word((0, 1, 0, 1)))
    markov = MarkovTripling()
    assert not check_word(markov, as_word((0, 1)))
    assert check_word(markov, as_word((1, 0, 0)))
    assert check_word(markov, as_word((1, 1)))


# ------------------------------------------------------------------ covers

def test_tripling_two_letter_cylinder_exact_interval():
    # C(0,1) = [2/9, 1/3], an interval of length 1/9
    toy = TriplingToy()
    geo = refine_cylinder(toy, (0, 1), 3.0 ** -5)
    assert not geo.empty
    assert geo.vol_lo <= 1.0 / 9.0 <= geo.vol_hi
    assert geo.vol_hi - geo.vol_lo < 0.06
    assert len(geo.witnesses) > 0
    assert np.all(geo.witnesses[:, 0] >= 2.0 / 9.0 - 1e-12)
    assert np.all(geo.witnesses[:, 0] <= 1.0 / 3.0 + 1e-12)
    assert geo.covers(geo.witnesses).all()
    assert geo.epsilon == pytest.approx(3.0 ** -5)


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
        assert not alive.empty
        assert len(alive.witnesses) > 0
    for word in ((0, 1), (1, 0)):
        dead = refine_cylinder(toy, word, 2.0 ** -8)
        assert dead.empty
        assert dead.vol_lo == 0.0 and dead.vol_hi == 0.0
        assert len(dead.boxes) == 0 and len(dead.witnesses) == 0
    prof = phi_profile(toy, (0, 1))
    assert prof.empty


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
    assert not geo.empty
    assert geo.vol_lo == 0.0
    assert 0 < geo.vol_hi <= 3 * 2.0 ** -8
    assert len(geo.witnesses) == 0
    assert geo.covers(np.array([[0.125]])).any()


def test_adjacency_violating_word_returns_marker():
    markov = MarkovTripling()
    geo = refine_cylinder(markov, (0, 1), 3.0 ** -4)
    assert geo.empty
    assert len(pullback_witnesses(markov, (0, 1))) == 0
    prof = phi_profile(markov, (0, 1))
    assert prof.empty and len(prof) == 0


def test_inconsistent_margin_oracle_is_caught():
    with pytest.raises(RuntimeError):
        refine_cylinder(LyingMarginTripling(), (0, 0), 3.0 ** -5,
                        witness_targets=64)


def test_covers_with_no_boxes_is_false():
    dead = refine_cylinder(GappedQuadrupling(), (0, 1), 2.0 ** -8)
    assert not dead.covers(np.array([[0.2]])).any()


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


# ---------------------------------------------------------------- profiles

def test_profile_constant_for_tripling():
    prof = phi_profile(TriplingToy(), (0, 1, 0, 0))
    assert np.allclose(prof.values, np.log(3.0), atol=1e-12)
    assert np.allclose(prof.lower, np.log(3.0), atol=1e-12)
    assert prof.product_ok and not prof.empty


def test_profile_constant_for_conformal_toy():
    prof = phi_profile(LinearToy2D(), (4, 9, 0))
    assert np.allclose(prof.values, 0.5 * np.log(10.0), atol=1e-12)
    assert prof.product_ok


def test_profile_running_mean_identity():
    prof = phi_profile(HopfModel2D(0.1), (0, 3, 7), seed=5)
    for j in range(len(prof)):
        assert prof.values[j] == pytest.approx(np.mean(prof.step_infima[:j + 1]))
        assert prof.lower[j] == pytest.approx(np.mean(prof.step_floors[:j + 1]))
    assert all(v >= l - 1e-12 for v, l in zip(prof.values, prof.lower))


def test_profile_near_neutral_circle_is_small_but_positive():
    # a word looping through the branch holding the neutral circle expands,
    # but far below the conformal rate - and the certified floor there is 0
    model = HopfModel2D(0.05)
    prof = phi_profile(model, (0,) * 5, seed=0)
    assert prof.n_witnesses > 0
    assert 0.0 < prof.values[-1] < 0.5 * np.log(10.0)
    assert prof.lower == tuple([0.0] * 5)
    assert prof.product_ok


def test_profile_accepts_explicit_witnesses():
    toy = TriplingToy()
    prof = phi_profile(toy, (0, 0), witnesses=np.array([[0.02], [0.1]]))
    assert prof.n_witnesses == 2
    assert prof.values[-1] == pytest.approx(np.log(3.0))
