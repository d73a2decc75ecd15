"""Tests for the first-crossing induced expander."""

import numpy as np
import pytest

from repeller_lab.badsets import sn_partition
from repeller_lab.bounds import delta_bound
from repeller_lab.families import DiazVianaFamily, HopfModel2D, TriplingToy
from repeller_lab.geometry import wrap
from repeller_lab.induced import (build_induced, induced_hole_volume,
                                  verify_expansion)


# ---------------------------------------------------------------- structure

def test_tripling_induced_is_the_original_map():
    # both branch floors are log 3 > 0.5, so every point crosses in one step
    trip = TriplingToy()
    ind = build_induced(trip, 1, 0.5)
    assert ind.return_times == (1, 1)
    assert sorted(ind.words) == [(0,), (1,)]
    assert len(ind.partition.remainder) == 0

    rng = np.random.default_rng(5)
    pts = rng.random((400, 1))
    out, tau, ok = ind.apply(pts)
    sym = trip.symbol_of(pts)
    assert np.array_equal(ok, sym >= 0)
    assert np.all(tau[ok] == 1)
    np.testing.assert_allclose(out[ok], trip.step(pts[ok]))


def test_diaz_viana_crosses_in_one_step():
    dv = DiazVianaFamily(0.25)
    ind = build_induced(dv, 4)
    assert set(ind.return_times) == {1}
    assert all(ind.floor_margin(w) > 0 for w in ind.words)


def test_hopf_mixed_return_times():
    ind = build_induced(HopfModel2D(0.1), 6)
    assert sorted(set(ind.return_times)) == [1, 2, 3, 4, 5, 6]
    # nine fast continuations of each slow prefix, one all-slow remainder
    assert [len(g) for g in ind.partition.groups] == [9] * 6
    assert len(ind.partition.remainder) == 1
    assert min(ind.floor_margin(w) for w in ind.words) > 0


def test_partition_matches_badsets_decomposition():
    hopf = HopfModel2D(0.05)
    ind = build_induced(hopf, 5)
    direct = sn_partition(hopf, 5, ind.threshold)
    assert ind.partition.groups == direct.groups
    assert ind.partition.remainder == direct.remainder


def test_applied_return_times_match_crossing_words():
    # every returned point's itinerary prefix must be a crossing word
    hopf = HopfModel2D(0.1)
    ind = build_induced(hopf, 6)
    words = set(ind.words)
    rng = np.random.default_rng(11)
    pts = rng.random((500, 2))
    out, tau, ok = ind.apply(pts)
    for i in np.flatnonzero(ok)[:100]:
        x = pts[i:i + 1].copy()
        seen = []
        for _ in range(int(tau[i])):
            seen.append(int(hopf.symbol_of(x)[0]))
            x = hopf.step(x)
        assert tuple(seen) in words
        np.testing.assert_allclose(out[i], x[0], atol=1e-12)


@pytest.mark.parametrize("system, n, threshold", [
    (HopfModel2D(0.1), 6, None), (TriplingToy(), 3, 0.5),
], ids=["hopf2d-0.1", "tripling"])
def test_apply_images_are_the_map_iterated_tau_times(system, n, threshold):
    # rows that return, that enter the hole and (hopf2d: orbits just
    # outside the neutral circle stay slow) that are capped at n
    ind = build_induced(system, n, threshold)
    hopf = isinstance(system, HopfModel2D)
    pts = np.random.default_rng(3).random((500, system.d))
    if hopf:
        angle = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        ring = 1.01 * system.rho_inv * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        pts = np.concatenate([pts, wrap(ring)])
    image, tau, ok = ind.apply(pts)
    entered, capped = ~ok & (tau < n), ~ok & (tau == n)
    assert ok.any() and entered.any() and system.in_hole(image[entered]).all()
    assert capped.any() == hopf
    for i in range(len(pts)):
        x = pts[i:i + 1]
        for _ in range(tau[i]):
            x = system.step(x)
        assert image[i].tobytes() == x[0].tobytes()


def test_points_in_hole_rejected_immediately():
    hopf = HopfModel2D(0.1)
    ind = build_induced(hopf, 6)
    inside = np.array([[0.0, 0.0], [0.001, -0.001]])
    _, tau, ok = ind.apply(inside)
    assert not ok.any()
    assert np.all(tau == 0)


def test_return_time_monotone_in_threshold():
    # raising the threshold only delays the first crossing, pointwise
    hopf = HopfModel2D(0.1)
    lo = build_induced(hopf, 20, 0.05)
    hi = build_induced(hopf, 20, 0.30)
    rng = np.random.default_rng(2)
    pts = rng.random((2000, 2))
    _, tau_lo, ok_lo = lo.apply(pts)
    _, tau_hi, ok_hi = hi.apply(pts)
    both = ok_lo & ok_hi
    assert both.sum() > 1000
    assert np.all(tau_hi[both] >= tau_lo[both])


def test_degenerate_threshold_warns_with_empty_domain():
    trip = TriplingToy()
    with pytest.warns(RuntimeWarning, match="induced domain"):
        ind = build_induced(trip, 3, 5.0)
    assert ind.words == ()
    assert len(ind.partition.remainder) == 2 ** 3
    chk = verify_expansion(ind, samples=500, seed=0)
    assert chk.passed and chk.checked == 0
    hole = induced_hole_volume(ind, samples=2000, seed=0)
    assert hole.measured == 1.0


# ------------------------------------------------------------- verification

def test_tripling_expansion_margin_is_log3_minus_threshold():
    ind = build_induced(TriplingToy(), 1, 0.5)
    chk = verify_expansion(ind, samples=2000, seed=1)
    assert chk.passed
    np.testing.assert_allclose(chk.min_margin, np.log(3.0) - 0.5, atol=1e-9)


def test_hopf_sampled_margins_positive():
    ind = build_induced(HopfModel2D(0.1), 6)
    chk = verify_expansion(ind, samples=10_000, seed=0)
    assert chk.passed
    assert chk.checked >= 9000
    # witnesses cover all 54 slow-prefix pieces uniform sampling misses
    assert chk.words_checked == 54
    assert chk.min_margin > 1.0


def test_verification_is_deterministic():
    ind = build_induced(HopfModel2D(0.05), 5)
    a = verify_expansion(ind, samples=3000, seed=7)
    b = verify_expansion(ind, samples=3000, seed=7)
    assert a.min_margin == b.min_margin and a.checked == b.checked


def test_sampled_margin_dominated_by_certified_floor():
    # the sampled least singular value can only beat the floor product
    ind = build_induced(HopfModel2D(0.1), 6)
    chk = verify_expansion(ind, samples=5000, seed=3)
    assert chk.min_margin >= min(ind.floor_margin(w) for w in ind.words) - 1e-9


def test_deep_budget_floor_margin():
    # at the depth where the envelope dips below the hole volume, the
    # longest piece still clears the threshold with room to spare
    ind = build_induced(HopfModel2D(0.1), 532)
    margins = [ind.floor_margin(w) for w in ind.words]
    assert len(ind.words) == 9 * 532
    m = min(margins)
    np.testing.assert_allclose(
        m, 0.5 * np.log(10.0) - ind.threshold * 532, atol=1e-12)
    assert m > 0.9
    chk = verify_expansion(ind, samples=10_000, seed=0)
    assert chk.passed and chk.min_margin > 1.0


@pytest.mark.parametrize("make, n, threshold", [
    (lambda: HopfModel2D(0.1), 532, None), (lambda: HopfModel2D(0.05), 40, None),
    (lambda: DiazVianaFamily(0.25), 6, None), (TriplingToy, 4, 0.5),
], ids=["hopf2d-0.1", "hopf2d-0.05", "diaz-viana", "tripling"])
def test_partition_min_margin_is_the_least_floor_margin(make, n, threshold):
    # the walk sums floors left to right as floor_margin does, so the
    # minimum it keeps while filing equals the re-summed one bit for bit
    ind = build_induced(make(), n, threshold)
    want = min(ind.floor_margin(w) for w in ind.words)
    assert ind.partition.min_margin.hex() == want.hex()


def test_partition_min_margin_is_none_for_an_empty_domain():
    assert sn_partition(TriplingToy(), 4, 2.0).min_margin is None


# ------------------------------------------------------------ induced hole

def test_tripling_induced_hole_is_the_original_hole():
    ind = build_induced(TriplingToy(), 1, 0.5)
    hole = induced_hole_volume(ind, samples=50_000, seed=3)
    np.testing.assert_allclose(hole.measured, 1.0 / 3.0, atol=0.01)
    assert hole.bound >= 1.0 / 3.0
    assert not hole.trivially_true
    assert hole.passed
    # bound = hole + envelope + mu_f * (branches * S)
    expect = (1 / 3 + delta_bound(1, ind.system.delta_mu)
              + (1 / 3) * 2 * ind.system.S)
    np.testing.assert_allclose(hole.bound, expect, rtol=1e-12)


def test_hopf_induced_hole_bound_astronomic():
    ind = build_induced(HopfModel2D(0.1), 532)
    hole = induced_hole_volume(ind, samples=50_000, seed=0)
    assert hole.measured < 0.01
    assert np.isinf(hole.bound)
    assert 525 < hole.bound_log10 < 535
    assert hole.trivially_true and hole.passed


def test_induced_hole_exceeds_original_hole():
    # pre-crossing hole entries enlarge the induced hole a little
    hopf = HopfModel2D(0.1)
    ind = build_induced(hopf, 6)
    hole = induced_hole_volume(ind, samples=100_000, seed=1)
    assert hole.measured > hopf.mu_f - hole.mc_halfwidth
    assert hole.measured < 3 * hopf.mu_f


def test_negative_mu_has_no_induced_hole():
    # without a hole even the slow branch clears a small threshold, so
    # every orbit crosses in one step and nothing is ever excluded
    hopf = HopfModel2D(-0.02)
    ind = build_induced(hopf, 6, 0.01)
    hole = induced_hole_volume(ind, samples=20_000, seed=2)
    assert hole.measured == 0.0
    assert hole.bound == 0.0
    assert np.isneginf(hole.bound_log10)
    assert hole.passed and not hole.trivially_true


def test_expander_is_frozen():
    ind = build_induced(TriplingToy(), 1, 0.5)
    with pytest.raises(AttributeError):
        ind.threshold = 1.0


def test_witness_pullback_batches_inverse_branch_calls():
    # verify_expansion pulls all witness words back together: at most one
    # inverse_branch call per (pullback step, symbol needed at that step),
    # where a loop over the 108 words made 594 calls
    model = HopfModel2D(0.1)
    ind = build_induced(model, 532)
    words = [w for g in ind.partition.groups[:12] for w in g]
    assert len(words) == 108
    pairs = {(j, w[-2 - j]) for w in words for j in range(len(w) - 1)}
    calls, inner = [], model.inverse_branch
    model.inverse_branch = lambda symbol, points: calls.append(symbol) or inner(symbol, points)
    chk = verify_expansion(ind, samples=10_000, seed=0)
    assert chk.words_checked == 108
    assert 0 < len(calls) <= len(pairs) < 594


def test_floor_margin_reads_one_floor_table():
    # the per-branch floors are read once per expander and summed in word
    # order, so every margin equals the per-symbol sum bit for bit
    model = HopfModel2D(0.1)
    ind = build_induced(model, 40)
    calls, inner = [], model.lambda_min
    model.lambda_min = lambda symbol: calls.append(symbol) or inner(symbol)
    got = [ind.floor_margin(w) for w in ind.words]
    assert len(calls) == model.n_branches
    want = [sum(inner(s) for s in w) - ind.threshold * len(w) for w in ind.words]
    assert got == want
