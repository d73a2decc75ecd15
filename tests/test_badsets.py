"""Tests for slow-set enumeration, measurement, and envelope comparison."""

import itertools

import numpy as np
import pytest

from repeller_lab.badsets import (
    _walk,
    a2_report,
    enumerate_slow_words,
    measure_slow_fractions,
    sn_partition,
)
from repeller_lab.bounds import delta_bound, depth_threshold
from repeller_lab.families import DiazVianaFamily, HopfModel2D, LinearToy2D, TriplingToy
from repeller_lab.geometry import wrap
from repeller_lab.holes import MapWithHoles


class FlatSystem(MapWithHoles):
    """Single-branch identity system with a declared (fake) hole volume.

    Nothing ever escapes and nothing expands, so the slow set is the whole
    torus at every depth; used to exercise the failure flags of the
    envelope comparison, which no honest family here can trigger.
    """

    d = 1
    n_branches = 1
    mu_f = 0.3
    S = 1.0
    label = "flat-system"

    def __init__(self, delta_mu):
        self.delta_mu = float(delta_mu)

    def step(self, points):
        return wrap(np.atleast_2d(points))

    def symbol_of(self, points):
        return np.zeros(len(np.atleast_2d(points)), dtype=np.int64)

    def log_least_stretch(self, points):
        return np.zeros(len(np.atleast_2d(points)))

    def jacobian_matrices(self, points):
        return np.ones((len(np.atleast_2d(points)), 1, 1))

    def cell_margin(self, symbol, points):
        return np.full(len(np.atleast_2d(points)), 0.25)

    def lambda_min(self, symbol):
        return 0.0

    def lip_bound(self, points, rad):
        return np.ones(len(np.atleast_2d(points)))

    def inverse_branch(self, symbol, points):
        return np.atleast_2d(points).copy()


# ------------------------------------------------------------- word census

def test_tripling_prunes_everything_at_depth_one():
    # both branch floors are log 3, far above the threshold
    census = enumerate_slow_words(TriplingToy(), 5, 0.25 / 3.0)
    assert len(census.kept) == 0
    assert census.pruned == 2
    assert census.visited == 2  # both roots, no internal node
    assert not census.capped


def test_diaz_viana_slow_set_is_empty_in_words():
    fam = DiazVianaFamily(0.04)
    assert fam.lambda_min(0) > fam.c0 * fam.mu_f  # floor beats threshold
    for n in (5, 17, 30):
        census = enumerate_slow_words(fam, n)
        assert len(census.kept) == 0
        assert census.pruned == 2


def test_hopf_census_keeps_only_the_slow_branch_loop():
    model = HopfModel2D(0.1)
    census = enumerate_slow_words(model, 10)
    assert list(census.kept) == [(0,) * 10]
    assert census.pruned == 90  # nine fast symbols at each of ten depths
    assert census.visited == 1 + 90 + 9  # the internal nodes are (0,) * j, j < 10


def test_census_counts_match_prefix_enumeration():
    # every prefix of length j <= n is visited unless a shorter prefix was
    # cut; a visited prefix is cut, kept (j = n) or expanded
    model, n, threshold = HopfModel2D(0.1), 5, 0.5
    floors = [model.lambda_min(s) for s in range(10)]
    best = min(floors)
    cut = lambda word: sum(floors[s] for s in word) + (n - len(word)) * best > n * threshold
    pruned = kept = expanded = 0
    for j in range(1, n + 1):
        for word in itertools.product(range(10), repeat=j):
            if any(cut(word[:i]) for i in range(1, j)):
                continue
            if cut(word):
                pruned += 1
            elif j == n:
                kept += 1
            else:
                expanded += 1
    walk = _walk(model, n, lambda j, total: total + (n - j) * best - n * threshold,
                 100_000, file_cut=False)
    assert (walk[2], len(walk[3]), walk[4]) == (pruned, kept, expanded)
    census = enumerate_slow_words(model, n, threshold)
    assert (census.pruned, len(census.kept)) == (pruned, kept)
    assert census.visited == pruned + kept + expanded
    assert len(census.kept) == 1 + 9 * n + 81 * n * (n - 1) // 2  # at most two fast letters


def test_walk_words_are_int_tuples():
    model = HopfModel2D(0.1)
    part = sn_partition(model, 4, 0.5)
    kept = enumerate_slow_words(model, 4, 0.5).kept
    assert kept and part.remainder and part.groups[0] and part.groups[-1]
    words = list(kept) + list(part.remainder) + [w for g in part.groups for w in g]
    assert all(type(w) is tuple and all(type(s) is int for s in w) for w in words)


def test_census_cap_marks_inconclusive():
    model = HopfModel2D(0.1)
    census = enumerate_slow_words(model, 6, threshold=2.0, max_words=500)
    assert census.capped
    assert len(census.kept) > 500


def test_census_validation():
    with pytest.raises(ValueError):
        enumerate_slow_words(TriplingToy(), 0, 0.1)
    with pytest.raises(TypeError):
        enumerate_slow_words(TriplingToy(), 5)  # toy has no default scale


# ------------------------------------------------------------ measurement

def test_measured_slow_fraction_zero_for_tripling():
    fracs = measure_slow_fractions(TriplingToy(), [3, 5], 0.25 / 3.0,
                                   samples=5000, seed=0)
    assert fracs[3][0] == 0.0 and fracs[5][0] == 0.0


def test_measurement_validation():
    with pytest.raises(ValueError):
        measure_slow_fractions(TriplingToy(), [], 0.1)
    with pytest.raises(ValueError):
        measure_slow_fractions(TriplingToy(), [3], 0.1, samples=10)


def test_volume_bracket_contains_measurement():
    # the measured slow set lives inside the kept cylinders, so the Monte
    # Carlo value must sit below the certified outer volume
    model = HopfModel2D(0.1)
    [row] = a2_report(model, [8], samples=50_000, seed=3, witness_targets=8)
    assert row.flag != "inconclusive"
    assert row.kept == 1  # the slow branch loop (0,) * 8
    assert row.vol_lo <= row.vol_hi
    assert row.vol_mc <= row.vol_hi + row.mc_halfwidth


def test_capped_volume_bracket_degenerates():
    model = HopfModel2D(0.1)
    [row] = a2_report(model, [6], threshold=2.0, max_words=100,
                      samples=2000, seed=0, witness_targets=8)
    assert row.flag == "inconclusive"
    assert np.isnan(row.vol_hi)
    assert row.vol_lo == 0.0


# ------------------------------------------------- first-crossing partition

def test_partition_structure_for_hopf():
    model = HopfModel2D(0.1)
    part = sn_partition(model, 6)
    assert [len(g) for g in part.groups] == [9] * 6
    assert list(part.remainder) == [(0,) * 6]
    for k, group in enumerate(part.groups):
        for w in group:
            assert len(w) == k + 1
            assert w[:-1] == (0,) * k  # slow prefix
            assert w[-1] != 0          # fast letter triggers crossing


def test_partition_is_a_prefix_code_with_full_mass():
    model = HopfModel2D(0.1)
    part = sn_partition(model, 6)
    words = [w for g in part.groups for w in g]
    words += part.remainder
    for a in words:
        for b in words:
            if a is not b:
                assert a != b[:len(a)]  # no word is a prefix of another
    # under the uniform branch measure a complete prefix code has mass one
    mass = sum((1.0 / 10.0) ** len(w) for w in words)
    assert mass == pytest.approx(1.0, abs=1e-12)


def bfs_partition(system, n, threshold):
    """Reference first-crossing partition by a breadth-first walk, uncapped:
    (words cut at each depth, depth-n words that never cross)."""
    floors = [system.lambda_min(s) for s in range(system.n_branches)]
    groups = [[] for _ in range(n)]
    frontier = [((), 0.0)]
    for depth in range(1, n + 1):
        new_frontier = []
        for word, acc in frontier:
            for s in range(system.n_branches):
                acc2 = acc + floors[s]
                if acc2 > depth * threshold:
                    groups[depth - 1].append(word + (s,))
                else:
                    new_frontier.append((word + (s,), acc2))
        frontier = new_frontier
    return groups, [w for w, _ in frontier]


@pytest.mark.parametrize("system, threshold", [
    (HopfModel2D(0.02), None), (HopfModel2D(0.1), None), (HopfModel2D(0.1), 0.3),
    (HopfModel2D(0.1), 0.7), (TriplingToy(), 0.25 / 3.0), (TriplingToy(), 2.0),
    (DiazVianaFamily(0.25), None), (LinearToy2D(), 1.0)],
    ids=["hopf2d-0.02", "hopf2d-0.1", "hopf2d-0.1-t0.3", "hopf2d-0.1-t0.7",
         "tripling-fast", "tripling-slow", "diaz-viana-0.25", "linear2d"])
def test_partition_matches_breadth_first_reference(system, threshold):
    for n in range(1, 7):
        part = sn_partition(system, n, threshold)
        groups, remainder = bfs_partition(system, n, part.threshold)
        assert not part.capped
        assert [set(g) for g in part.groups] == [set(g) for g in groups]
        assert [len(g) for g in part.groups] == [len(g) for g in groups]
        assert set(part.remainder) == set(remainder)
        assert len(part.remainder) == len(remainder)


def test_partition_cap_counts_words_reaching_depth_n():
    # max_words bounds the depth-n words, as in the census: the 9 * 8 cut
    # words do not count, the one slow loop reaching depth 8 does
    model = HopfModel2D(0.1)
    part = sn_partition(model, 8, max_words=1)
    assert not part.capped
    assert sum(map(len, part.groups)) == 72 and len(part.remainder) == 1
    assert sn_partition(model, 4, threshold=2.0, max_words=50).capped


def test_partition_for_uniformly_fast_families():
    part = sn_partition(TriplingToy(), 4, 0.25 / 3.0)
    assert list(part.groups[0]) == [(0,), (1,)]
    assert all(len(g) == 0 for g in part.groups[1:])
    assert part.remainder == ()


# ------------------------------------------------------------- depth sweep

def test_depth_sweep_passes_for_hopf():
    model = HopfModel2D(0.05)
    rows = a2_report(model, [4, 8, 12], samples=50_000, seed=0)
    assert [r.n for r in rows] == [4, 8, 12]
    for row in rows:
        assert row.flag == "ok" and row.passed
        assert row.kept == 1
        assert row.vol_mc <= row.delta
        assert row.delta == pytest.approx(delta_bound(row.n, model.delta_mu))


def test_depth_sweep_no_hole_flag():
    rows = a2_report(HopfModel2D(-0.05), [4, 6], samples=2000, seed=0)
    assert [r.flag for r in rows] == ["no-hole", "no-hole"]
    assert all(r.passed for r in rows)
    assert all(np.isnan(r.delta) for r in rows)


def test_depth_sweep_inconclusive_flag():
    model = HopfModel2D(0.1)
    rows = a2_report(model, [6], threshold=2.0, max_words=100,
                     samples=2000, seed=0)
    assert rows[0].flag == "inconclusive"
    assert np.isnan(rows[0].vol_hi)


def test_depth_sweep_failure_flags():
    # past the conclusive depth a violation is a genuine failure
    deep = FlatSystem(delta_mu=0.5)
    n0 = depth_threshold(deep.mu_f, deep.delta_mu)
    row = a2_report(deep, [n0], threshold=0.1, samples=2000, seed=0)[0]
    assert row.vol_mc == 1.0
    assert not row.passed and row.flag == "fail"
    # before it, the envelope makes no promise yet
    shallow = FlatSystem(delta_mu=1e-3)
    row = a2_report(shallow, [4], threshold=0.1, samples=2000, seed=0)[0]
    assert not row.passed and row.flag == "out-of-contract"


# -------------------------------------------------- preimage volume scaling

def test_hole_preimage_volume_needs_branch_count():
    # exact for the tripling toy: the hole (1/3, 2/3) pulls back to one
    # interval of length 1/9 under each of the two branches
    toy = TriplingToy()
    lo = toy.inverse_branch(0, np.array([[1.0 / 3.0], [2.0 / 3.0]]))
    assert np.allclose(lo[:, 0], [1.0 / 9.0, 2.0 / 9.0])
    preimage_volume = 2.0 / 9.0
    per_branch_bound = toy.n_branches * toy.S * toy.mu_f
    assert preimage_volume <= per_branch_bound + 1e-12


@pytest.mark.xfail(strict=True, reason="a single contraction factor cannot "
                   "absorb the branch count; the tripling preimage is 2/9")
def test_hole_preimage_without_branch_count_is_wrong():
    toy = TriplingToy()
    assert 2.0 / 9.0 <= toy.S * toy.mu_f + 1e-12


def test_hole_preimage_monte_carlo_for_hopf():
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(2)
    pts = rng.random((200_000, 2))
    frac = model.in_hole(model.step(pts)).mean()
    bound = model.n_branches * model.S ** 2 * model.mu_f
    assert frac <= bound + 3e-3
    assert frac > 0
