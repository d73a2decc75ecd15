"""Tests for grids, counting, regression, and measure estimation.

The middle-thirds Cantor set is the workhorse oracle here: its grid-cover
counts at scale 3**-k are exactly 2**k, computed below by explicit
interval subdivision so the closed form never has to be trusted.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtrit

from repeller_lab.geometry import (
    _T975,
    SNAP,
    DimensionEstimate,
    Region,
    box_dimension,
    box_indices,
    centered,
    counts_from_survivors,
    grid_centers,
    lebesgue_estimate,
    scale_to_base,
    wrap,
)


# ---------------------------------------------------------------- oracles

def cantor_intervals(k):
    """Closed intervals of the k-th middle-thirds construction step."""
    intervals = [(0.0, 1.0)]
    for _ in range(k):
        intervals = [piece
                     for (a, b) in intervals
                     for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return intervals


def cantor_boxes_by_enumeration(k):
    """Number of 3**-k boxes meeting the Cantor set, by interval overlap."""
    n = 3 ** k
    hit = set()
    for (a, b) in cantor_intervals(k):
        lo = int(np.floor(a * n + SNAP))
        hi = int(np.ceil(b * n - SNAP))
        hit.update(range(lo, hi))
    return len(hit)


def cantor_centers(k):
    """One interior point per surviving level-k interval (exact floats)."""
    return np.array([[(a + b) / 2] for (a, b) in cantor_intervals(k)])


# ------------------------------------------------------------ coordinates

def test_wrap_and_centered():
    p = np.array([[1.25, -0.25], [0.5, 0.999]])
    assert np.allclose(wrap(p), [[0.25, 0.75], [0.5, 0.999]])
    assert np.allclose(centered(p), [[0.25, -0.25], [-0.5, -0.001]])


def torus_kernel_inputs():
    """Values where a floor-based reduction could differ from ``% 1.0``:
    grid centres, random points, box edges of bases 2 and 3 and their
    +-1 ulp neighbours, signed zeros, tiny negatives, half-integers, and
    magnitudes up to 1e6."""
    rng = np.random.default_rng(23)
    centres = (np.arange(1024) + 0.5) / 1024
    edges = np.concatenate([np.arange(-64, 65) / 2.0 ** 5, np.arange(-81, 82) / 3.0 ** 4])
    halves = np.arange(-1000, 1001) + 0.5
    tiny = np.array([0.0, -0.0, -1e-17, -1e-300, -5e-324, 5e-324, 1e-17,
                     -2.0 ** -54, -0.5 - 2.0 ** -53, 1.0 - 2.0 ** -53])
    big = np.concatenate([rng.uniform(-1e6, 1e6, 20_000), np.arange(-10, 11) * 1e5])
    base = np.concatenate([centres, edges, halves, tiny, big, rng.random(20_000),
                           rng.uniform(-3, 3, 20_000)])
    return np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_wrap_and_centered_equal_modulo_forms_bitwise():
    x = torus_kernel_inputs()
    for pts in (x, x.reshape(-1, 2), x.reshape(-1, 3)):
        assert same_bits(wrap(pts), pts % 1.0)
        assert same_bits(centered(pts), (pts + 0.5) % 1.0 - 0.5)


def test_wrap_can_return_one_and_box_indices_clip_it():
    # 1 - 1e-17 rounds to 1: the floor and modulo forms agree on it
    tiny = np.array([-1e-17])
    assert wrap(tiny)[0] == 1.0 and (tiny % 1.0)[0] == 1.0
    # x + 1/2 is never a negative float closer to 0 than 2**-53, so
    # centered cannot round up the same way
    assert centered(torus_kernel_inputs()).max() < 0.5
    for base in (2, 3):
        for k in (1, 4):
            assert box_indices(np.array([[-1e-17, 0.25]]), k, base)[0, 0] == base ** k - 1


def test_scale_recognition():
    assert scale_to_base(0.125) == (2, 3)
    assert scale_to_base(1 / 3 ** 5) == (3, 5)
    with pytest.raises(ValueError):
        scale_to_base(0.1)
    with pytest.raises(ValueError):
        scale_to_base(-0.5)


def test_box_indices_stop_at_grid_side_two_to_the_62():
    pts = grid_centers(2, 16)
    with pytest.raises(ValueError, match="overflow int64"):
        box_indices(pts, 63)
    with pytest.raises(ValueError, match="overflow int64"):
        box_indices(pts, 40, base=3)
    idx = box_indices(np.array([[0.0, 1.0 - 2.0 ** -53]]), 62)
    assert idx.tolist() == [[0, 2 ** 62 - 2 ** 9]]  # (1 - 2**-53) 2**62, exactly
    # the longest base-2 ladder counts every level as a per-level pass does
    ladder = counts_from_survivors(pts, 2, range(3, 63))
    assert ladder == [(2.0 ** -k, len(np.unique(box_indices(pts, k), axis=0)))
                      for k in range(3, 63)]
    assert ladder[0] == (0.125, 64)


def test_box_indices_snap_right_at_edges():
    # points a hair below a box boundary land in the box to the right
    pts = np.array([[1 / 3 - 1e-12], [1 / 3 + 1e-12], [0.999999999999]])
    idx = box_indices(pts, 1, base=3)
    assert idx[:, 0].tolist() == [1, 1, 2]


# ------------------------------------------------------------ box counts

def test_unit_square_counts():
    rng = np.random.default_rng(7)
    pts = rng.random((40000, 2))
    assert counts_from_survivors(pts, 2, [1, 2]) == [(0.5, 4), (0.25, 16)]


def test_single_point_counts_one_box_at_every_scale():
    pt = np.array([[0.37, 0.81]])
    ladder = counts_from_survivors(pt, 2, range(1, 8))
    assert [count for _, count in ladder] == [1] * 7


def test_cantor_counts_match_interval_enumeration():
    for k in range(1, 9):
        enumerated = cantor_boxes_by_enumeration(k)
        assert enumerated == 2 ** k  # closed form, proven by enumeration
        [(_, counted)] = counts_from_survivors(cantor_centers(k), 3, [k])
        assert counted == enumerated


def test_cantor_ladder_from_fine_centers():
    pts = cantor_centers(8)
    ladder = counts_from_survivors(pts, 3, range(1, 9))
    for (eps, count), k in zip(ladder, range(1, 9)):
        assert eps == pytest.approx(3.0 ** -k)
        assert count == 2 ** k


def test_box_count_monotone_under_refinement():
    rng = np.random.default_rng(12)
    pts = rng.random((3000, 2)) * [[0.4, 0.9]]
    counts = [count for _, count in counts_from_survivors(pts, 2, range(1, 7))]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def unique_rows_ladder(points, base, k_values):
    """Reference box counter: one np.unique over the index rows per level."""
    k_max = max(k_values)
    idx = box_indices(points, k_max, base)
    return [(base ** -k, len(np.unique(idx // base ** (k_max - k), axis=0)))
            for k in sorted(set(k_values))]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("base", [2, 3])
def test_box_counter_matches_unique_rows(d, base):
    rng = np.random.default_rng(100 * d + base)
    k_values = range(1, 7 if base == 2 else 5)
    n = base ** max(k_values)
    on_edges = rng.integers(0, n, size=(3000, d)) / n
    clustered = 0.3 + 0.01 * rng.random((3000, d))
    point_sets = [rng.random((5000, d)), on_edges, np.nextafter(on_edges, 2.0),
                  np.nextafter(on_edges, -1.0), clustered, rng.random((1, d)),
                  np.empty((0, d)), np.repeat(on_edges[:5], 40, axis=0)]
    for pts in point_sets:
        assert counts_from_survivors(pts, base, k_values) == unique_rows_ladder(pts, base, k_values)


# ------------------------------------------------------ dimension fitting

def linregress_estimate(pairs):
    """Reference fit: scipy.stats.linregress and the t quantile from
    stats.t.ppf, on a ladder already sorted by decreasing eps."""
    x = np.array([-np.log(e) for e, _ in pairs])
    y = np.array([np.log(c) for _, c in pairs])
    fit = stats.linregress(x, y)
    resid = float(np.sqrt(np.mean((y - (fit.intercept + fit.slope * x)) ** 2)))
    ci = float(stats.t.ppf(0.975, len(pairs) - 2)) * float(fit.stderr)
    return float(fit.slope), resid, ci


def test_fit_matches_linregress_bitwise():
    rng = np.random.default_rng(29)
    for trial in range(300):
        base = (2, 3)[trial % 2]
        m = int(rng.integers(3, 13))
        ks = np.sort(rng.choice(np.arange(16), size=m, replace=False))
        if base ** int(ks[-1] - ks[0]) < 8:
            ks[-1] = ks[0] + 3
        growth = rng.choice([0.3, 1.0, 2.0, 3.5])  # 3.5 exceeds the ambient 3
        raw = np.round(base ** (growth * ks) * rng.uniform(0.5, 2.0, m))
        counts = np.maximum.accumulate(np.clip(raw, 1, 1e15)).astype(np.int64)
        if len(set(counts)) == 1:
            counts[-1] += 1
        ladder = [(float(base) ** -int(k), int(c)) for k, c in zip(ks, counts)]
        est = box_dimension(ladder, ambient_dim=3)
        slope_raw, resid, ci = linregress_estimate(sorted(ladder, reverse=True))
        got = np.array([est.slope_raw, est.residual, est.ci, est.slope])
        want = np.array([slope_raw, resid, ci, min(max(slope_raw, 0.0), 3.0)])
        assert same_bits(got, want), (trial, ladder)


def test_interval_slope_is_one():
    ladder = [(2.0 ** -k, 2 ** k) for k in range(3, 11)]
    est = box_dimension(ladder, ambient_dim=2)
    assert est.slope == pytest.approx(1.0, abs=1e-12)
    assert est.residual == pytest.approx(0.0, abs=1e-12)
    assert est.ci == pytest.approx(0.0, abs=1e-10)
    assert est.warnings == ()


def test_cantor_slope_matches_log2_over_log3():
    ladder = [(3.0 ** -k, 2 ** k) for k in range(1, 9)]
    est = box_dimension(ladder, ambient_dim=1)
    assert est.slope == pytest.approx(np.log(2) / np.log(3), abs=1e-12)


def test_point_ladder_reports_flat_slope():
    ladder = [(2.0 ** -k, 1) for k in range(3, 9)]
    est = box_dimension(ladder, ambient_dim=2)
    assert est.slope == 0.0
    assert "flat-slope" in est.warnings


def test_slope_clamped_to_ambient_dimension():
    # counts growing like 8**k in the plane: raw slope 3, clamped to 2
    ladder = [(2.0 ** -k, 8 ** k) for k in range(3, 9)]
    est = box_dimension(ladder, ambient_dim=2)
    assert est.slope == 2.0
    assert est.slope_raw == pytest.approx(3.0, abs=1e-12)
    assert "clamped" in est.warnings


def test_noisy_ladder_has_honest_ci():
    rng = np.random.default_rng(3)
    ladder = [(2.0 ** -k, max(1, int(round(2 ** k * rng.uniform(0.8, 1.25)))))
              for k in range(3, 11)]
    est = box_dimension(ladder, ambient_dim=2)
    assert est.ci > 0
    assert abs(est.slope - 1.0) < 3 * est.ci + 0.2


def test_ladder_validation():
    with pytest.raises(ValueError, match="3 scales"):
        box_dimension([(0.5, 2), (0.25, 4)], 1)
    with pytest.raises(ValueError, match="factor of 8"):
        box_dimension([(0.5, 2), (0.25, 4), (0.2, 5)], 1)
    with pytest.raises(ValueError, match="nonincreasing"):
        box_dimension([(0.5, 4), (0.25, 2), (0.0625, 8)], 1)
    with pytest.raises(ValueError, match="positive"):
        box_dimension([(0.5, 0), (0.25, 4), (0.0625, 16)], 1)
    longest = [(2.0 ** -k, k + 1) for k in range(63)]
    assert box_dimension(longest, 1).ci > 0
    with pytest.raises(ValueError, match="at most 63 scales"):
        box_dimension(longest + [(2.0 ** -63, 64)], 1)


def test_t_table_matches_stdtrit_bitwise():
    want = np.array([float(stdtrit(df, 0.975)) for df in range(1, 62)])
    assert len(_T975) == 61
    assert np.array_equal(np.array(_T975).view(np.int64), want.view(np.int64))


# ------------------------------------------------------------- grid cover

def test_grid_cover_epsilon_and_count():
    pts = np.array([[0.1], [0.6], [0.61]])
    assert counts_from_survivors(pts, 2, [1]) == [(0.5, 2)]


def test_grid_centers_are_box_midpoints_in_c_order():
    pts = grid_centers(2, 4)
    assert pts[:2].tolist() == [[0.125, 0.125], [0.125, 0.375]]
    assert counts_from_survivors(pts, 2, [2]) == [(0.25, 16)]


# -------------------------------------------------------- measure estimate

def disk_region(cx, cy, r):
    def contains(p):
        return (p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2 < r * r
    bbox = np.array([[cx - r, cx + r], [cy - r, cy + r]])
    return Region(contains=contains, bounding_box=bbox)


def test_disk_measure_within_ci():
    region = disk_region(0.5, 0.5, 0.1)
    measure, half = lebesgue_estimate(region, budget=200_000, seed=11)
    assert abs(measure - np.pi * 0.01) < half
    assert half < 2e-4


def empty_region(d):
    return Region(contains=lambda p: np.zeros(len(p), dtype=bool),
                  bounding_box=np.array([[0.0, 1.0]] * d))


def test_empty_region_gets_rule_of_three_width():
    region = empty_region(2)
    measure, half = lebesgue_estimate(region, budget=5000, seed=1)
    assert measure == 0.0
    assert half == pytest.approx(5.3 / 5000)


def test_rectangle_measure_coverage_across_seeds():
    def contains(p):
        return (p[:, 0] < 0.3) & (p[:, 1] < 0.5)
    region = Region(contains=contains,
                    bounding_box=np.array([[0.0, 1.0], [0.0, 1.0]]))
    hits = 0
    for seed in range(50):
        measure, half = lebesgue_estimate(region, budget=20_000, seed=seed)
        if abs(measure - 0.15) < half:
            hits += 1
    assert hits >= 48  # 99% interval should rarely miss


def test_lebesgue_estimate_validates_budget():
    with pytest.raises(ValueError, match="at least 1000"):
        lebesgue_estimate(empty_region(1), budget=10)


def test_region_membership_shape_checked():
    bad = Region(contains=lambda p: np.zeros((len(p), 2), dtype=bool),
                 bounding_box=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="one bool per point"):
        bad.contains_points(np.array([[0.5]]))
