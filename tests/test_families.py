"""Tests for the concrete map families."""

import hashlib

import numpy as np
import pytest

from repeller_lab.geometry import centered, grid_centers, lebesgue_estimate, wrap
from repeller_lab.families import (
    DiazVianaFamily,
    HopfModel2D,
    HopfModel3D,
    LinearToy2D,
    TriplingToy,
    _select_matching_preimage,
    disk_trap,
    escape_time,
    invariant_circle_radius,
    survivor_grid,
    verify_trap,
)
from repeller_lab.holes import first_entry
from repeller_lab.profiles import profile_3d

A2 = np.array([[3.0, -1.0], [1.0, 3.0]])
A3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -10.0, 0.0]])


def torus_gap(a, b):
    return np.abs((a - b + 0.5) % 1.0 - 0.5).max()


# ------------------------------------------------------------ planar model

def test_neutral_circle_radius_closed_form():
    # with the default pure-slope profile, Phi(w) = 1 - mu + 60 w
    for mu in (0.01, 0.05, 0.1):
        model = HopfModel2D(mu)
        assert model.rho_inv == pytest.approx(np.sqrt(mu / 60.0), abs=1e-10)
        assert invariant_circle_radius(model) == model.rho_inv
    assert invariant_circle_radius(HopfModel2D(0.1), mu=0.0) == 0.0
    assert invariant_circle_radius(HopfModel2D(0.1), mu=0.025) == pytest.approx(
        np.sqrt(0.025 / 60.0), abs=1e-10)


def test_radius_first_order_against_derived_slope():
    model = HopfModel2D(0.01)
    assert model.rho_inv == pytest.approx(np.sqrt(0.01 / model.profile.derivative(0.0)), rel=1e-6)


def test_radius_scaling_slope_one_half():
    model = HopfModel2D(0.01)
    mus = np.geomspace(1e-4, 1e-2, 9)
    rhos = [invariant_circle_radius(model, mu=m) for m in mus]
    slope = np.polyfit(np.log(mus), np.log(rhos), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_derived_constants():
    model = HopfModel2D(0.1)
    assert model.mu_f == pytest.approx(np.pi * model.rho_inv ** 2, rel=1e-12)
    assert model.K == pytest.approx(60.0 / np.pi, rel=1e-6)
    assert model.c0 == pytest.approx(model.K / 256.0, rel=1e-12)
    assert model.delta_mu == pytest.approx(0.1, rel=1e-6)
    assert model.S == pytest.approx(1.0, abs=1e-9)
    assert model.mu / model.mu_f == pytest.approx(model.K, rel=1e-9)


def test_hole_volume_against_monte_carlo():
    model = HopfModel2D(0.01)
    measured, half = lebesgue_estimate(model.hole, budget=200_000, seed=4)
    assert abs(measured - np.pi * model.rho_inv ** 2) < half


def test_step_matches_linear_action_far_from_origin():
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(5)
    pts = rng.random((5000, 2))
    far = np.sum(centered(pts) ** 2, axis=1) > 2 * model.delta0
    expect = wrap(centered(pts[far]) @ A2.T)
    assert torus_gap(model.step(pts[far]), expect) < 1e-10


def test_neutral_circle_is_invariant_and_rotates():
    model = HopfModel2D(0.1)
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = wrap(model.rho_inv * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    img = centered(model.step(pts))
    assert np.sqrt(np.sum(img ** 2, axis=1)) == pytest.approx(model.rho_inv, abs=1e-12)
    angles = np.arctan2(img[:, 1], img[:, 0])
    gap = (angles - theta - model.alpha + np.pi) % (2 * np.pi) - np.pi
    assert np.abs(gap).max() < 1e-9


def test_symbols_partition_evenly_and_hole_is_masked():
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(0)
    pts = rng.random((100_000, 2))
    syms = model.symbol_of(pts)
    frac_hole = (syms == -1).mean()
    assert frac_hole == pytest.approx(model.mu_f, abs=0.002)
    counts = np.bincount(syms[syms >= 0], minlength=10) / (syms >= 0).sum()
    assert np.abs(counts - 0.1).max() < 0.01


def test_hole_sits_inside_branch_zero():
    model = HopfModel2D(0.1)
    theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    rim = wrap(0.999 * model.rho_inv
               * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    assert np.all(model._linear_symbols(rim) == 0)
    assert np.all(model.symbol_of(rim) == -1)


def _brute_force_linear_margin(symbol, points):
    """Reference margin: search every representative of the symbol in
    {-5..5}^2, which holds the nearest one for any |y|_inf <= 2."""
    reps = np.array([(m0, m1) for m0 in range(-5, 6) for m1 in range(-5, 6)
                     if (3 * m0 + m1) % 10 == symbol], dtype=float)
    y = centered(points) @ A2.T
    diffs = np.abs(y[:, None, :] - reps[None, :, :]).max(axis=2)
    return (0.5 - diffs.min(axis=1)) / np.sqrt(10.0)


def _box_edge_points(rng, n):
    """Points whose image y = A x lies exactly on a unit-box edge.

    Dyadic x with 20 fractional bits keeps A x exact, so choosing
    x1 = 3 x0 - (j + 1/2) puts y0 on an edge and x0 = (j + 1/2) - 3 x1
    puts y1 on one.
    """
    free = rng.integers(-2 ** 19, 2 ** 19, size=n) / 2.0 ** 20
    half = rng.integers(-2, 2, size=n) + 0.5
    on_y0 = np.stack([free, 3 * free - half], axis=1)
    on_y1 = np.stack([half - 3 * free, free], axis=1)
    return wrap(np.concatenate([on_y0, on_y1]))


def test_cell_margin_matches_brute_force_bitwise():
    n = 512
    g = (np.arange(n) + 0.5) / n
    centres = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(17)
    edges = _box_edge_points(rng, 20_000)
    y = centered(edges) @ A2.T
    assert np.all((np.abs(y - np.floor(y)) == 0.5).any(axis=1))
    nudged = np.concatenate([edges, np.nextafter(edges, 2.0),
                             np.nextafter(edges, -1.0)])
    point_sets = {"grid centres": centres, "random": rng.random((200_000, 2)),
                  "box edges +-1 ulp": nudged}
    toy, hopf = LinearToy2D(), HopfModel2D(0.05)
    for name, pts in point_sets.items():
        _, w = hopf._w(pts)
        for symbol in range(10):
            want = _brute_force_linear_margin(symbol, pts)
            got = toy.cell_margin(symbol, pts)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, symbol)
            if symbol == 0:
                want = np.minimum(want, np.sqrt(w) - hopf.rho_inv)
            got = hopf.cell_margin(symbol, pts)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, symbol)


def _radius_inputs():
    """Planar points: grid centres, random points, cell edges +-1 ulp,
    signed zeros, tiny negatives and coordinates up to 1e6."""
    rng = np.random.default_rng(31)
    g = (np.arange(256) + 0.5) / 256
    centres = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    edges = _box_edge_points(rng, 5_000)
    odd = np.array([[0.0, -0.0], [-0.0, -0.0], [-1e-17, 0.5], [-5e-324, -1e-300],
                    [0.5, -0.5], [1e6, -1e6]])
    pts = np.concatenate([centres, edges, odd, rng.random((20_000, 2)),
                          rng.uniform(-1e6, 1e6, (5_000, 2)),
                          0.1 * rng.standard_normal((5_000, 2))])
    return np.concatenate([pts, np.nextafter(pts, 2.0), np.nextafter(pts, -1.0)])


def test_squared_radius_matches_sum_form_bitwise():
    pts = _radius_inputs()
    p = centered(pts)
    want = np.sum(p * p, axis=1)
    model = HopfModel2D(0.05)
    assert np.array_equal(model._w(pts)[1].view(np.int64), want.view(np.int64))
    rho2 = model.rho_inv ** 2
    theta = np.arange(4000.0)
    on_rim = wrap(model.rho_inv * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    rim = np.concatenate([on_rim, np.nextafter(on_rim, 2.0), np.nextafter(on_rim, -1.0)])
    for q in (pts, rim):
        c = centered(q)
        assert np.array_equal(model.hole.contains(q), np.sum(c ** 2, axis=1) < rho2)
        assert np.array_equal(disk_trap(model.rho_inv).contains(q),
                              np.sum(c * c, axis=1) <= rho2)
    spatial = HopfModel3D(0.05)
    pts3 = np.concatenate([pts, pts[::-1, :1]], axis=1)
    c = centered(pts3) @ spatial.P_inv.T
    got = spatial._coords(pts3)[1]
    assert np.array_equal(got.view(np.int64), (c[:, 0] ** 2 + c[:, 1] ** 2).view(np.int64))


def test_planar_step_matches_modulo_and_sum_forms_bitwise():
    # the step written with the kernels' reference forms: % 1.0 for the
    # torus reductions and np.sum for the squared radius
    def reference_step(model, points):
        p = (points + 0.5) % 1.0 - 0.5
        w = np.sum(p * p, axis=1)
        scale = np.ones(len(p))
        inside = w < model.delta0
        scale[inside] = model.profile.value(w[inside]) / model.sigma
        return ((p * scale[:, None]) @ A2.T) % 1.0

    pts = _radius_inputs()
    for mu in (0.01, 0.1):
        model = HopfModel2D(mu)
        near = wrap(0.2 * np.random.default_rng(5).standard_normal((20_000, 2)))
        for q in (pts, near):
            got, want = model.step(q), reference_step(model, q)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _mask_step(model, points):
    """The planar step written with boolean masks on the (N, 2) rows."""
    p, w = model._w(points)
    inside = w < model.delta0
    p[inside] *= (model.profile.value(w[inside]) / model.sigma)[:, None]
    return wrap(p @ A2.T)


def _disk_edge_points(model):
    """Points whose squared radius is delta0 or one ulp either side of it."""
    theta = np.linspace(0.0, 2 * np.pi, 4000, endpoint=False)
    rim = np.sqrt(model.delta0) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    nudged = [rim + np.array([j * 2.0 ** -56, 0.0]) for j in range(-40, 41)]
    pts = wrap(np.concatenate(nudged))
    w = model._w(pts)[1]
    d0 = model.delta0
    edges = [w == d0, w == np.nextafter(d0, 0.0), w == np.nextafter(d0, 1.0)]
    assert all(e.any() for e in edges)
    return pts[edges[0] | edges[1] | edges[2]]


def test_planar_step_matches_boolean_mask_form_bitwise():
    rng = np.random.default_rng(41)
    for mu in (0.01, 0.1):
        model = HopfModel2D(mu)
        for q in (grid_centers(2, 512), rng.random((200_000, 2)), _disk_edge_points(model)):
            got, want = model.step(q), _mask_step(model, q)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _mask_first_entry(step, points, steps, absorbed):
    """The orbit loop written with boolean masks, and no merging."""
    survives = np.ones(len(points), dtype=bool)
    entry = np.full(len(points), steps, dtype=np.int64)
    rows, pos = np.arange(len(points)), points
    for t in range(steps + 1):
        hit = absorbed(pos)
        survives[rows[hit]] = False
        entry[rows[hit]] = t
        rows, pos = rows[~hit], pos[~hit]
        if t == steps or len(rows) == 0:
            break
        pos = step(pos)
    return survives, entry


def _first_entry_cases(n, horizon, step_of):
    """(label, model, step, points, steps, absorbed) of the hopf2d grid
    n^2 by trap and by hole; ``step_of(model)`` is the reference step."""
    for mu in (0.005, 0.01, 0.05, 0.1, 0.0, -0.05):
        model = HopfModel2D(mu)
        pts, trap = grid_centers(2, n), model.default_trap()
        if not trap.empty:
            yield f"hopf2d mu={mu} trap", model, step_of(model), pts, horizon, trap.contains
        yield f"hopf2d mu={mu} hole", model, step_of(model), pts, horizon, model.in_hole


def _check_first_entry(label, model, step, pts, horizon, absorbed):
    survives, entry = first_entry(model.step, pts, horizon, absorbed)
    if getattr(model, "hole", 0) is None:
        # nothing is ever absorbed, whatever the orbits do
        want_survives, want_entry = np.ones(len(pts), bool), np.full(len(pts), horizon)
    else:
        want_survives, want_entry = _mask_first_entry(step, pts, horizon, absorbed)
    assert np.array_equal(survives, want_survives), label
    assert np.array_equal(entry, want_entry), label
    return survives


def test_first_entry_matches_boolean_mask_loop_on_the_dim_grid():
    # the dim benchmark's grid (256^2 centres, 100 steps) by trap and by
    # hole, 3-D, 1-D and random points: orbits merged bit for bit must
    # give the unmerged loop's (survives, entry) exactly
    mask_step = lambda model: (lambda q: _mask_step(model, q))
    for case in _first_entry_cases(256, 100, mask_step):
        survives = _check_first_entry(*case)
        if case[0] in ("hopf2d mu=0.1 trap", "hopf2d mu=0.01 trap"):
            # the dim benchmark's two rows: some orbits survive, some escape
            assert 0 < survives.sum() < len(survives)
    model = HopfModel3D(0.1)
    _check_first_entry("hopf3d 32^3 trap", model, model.step, grid_centers(3, 32), 100,
                       model.default_trap().contains)
    for model in (TriplingToy(), DiazVianaFamily(0.25)):
        survives = _check_first_entry(model.label, model, model.step, grid_centers(1, 4096),
                                      12, model.in_hole)
        assert 0 < survives.sum() < len(survives)
    model = HopfModel2D(0.1)
    _check_first_entry("hopf2d random", model, model.step,
                       np.random.default_rng(41).random((50_000, 2)), 300, model.in_hole)


def test_first_entry_matches_unmerged_loop_on_a_deep_grid():
    # 512^2 centres over 300 steps: long merge chains over eight passes
    for case in _first_entry_cases(512, 300, lambda model: model.step):
        _check_first_entry(*case)


def test_first_entry_steps_merged_twins_as_the_unmerged_batch():
    # two equal random points merge at t = 1, and the unmerged loop steps
    # them as a batch of two; OpenBLAS rounds a lone row's product in
    # another order, which moves the entry step of these points (from 177
    # to 185 for the first) if the merged row is stepped alone
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(5)
    for _ in range(10):
        twins = np.repeat(rng.random((1, 2)), 2, axis=0)
        want = _mask_first_entry(model.step, twins, 300, model.in_hole)
        got = first_entry(model.step, twins, 300, model.in_hole)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class _CountingStep:
    """Wraps a step and counts the points it is given."""

    def __init__(self, step):
        self.step, self.points = step, 0

    def __call__(self, pos):
        self.points += len(pos)
        return self.step(pos)


def test_merging_steps_a_fifth_of_the_dim_grid_orbits():
    # every row is stepped once per visit it survives, so the unmerged
    # loop steps entry.sum() points; dyadic grid orbits meet bit for bit
    model = HopfModel2D(0.1)
    step = _CountingStep(model.step)
    _, entry = first_entry(step, grid_centers(2, 256), 100, model.default_trap().contains)
    assert step.points <= 0.3 * entry.sum()


def test_merging_costs_no_step_where_orbits_never_meet():
    model = HopfModel3D(0.1)
    step = _CountingStep(model.step)
    _, entry = first_entry(step, grid_centers(3, 32), 100, model.default_trap().contains)
    assert step.points == entry.sum()


def _row_wise_maps(model):
    """Every point-valued method of the model that the orbit code calls."""
    yield "step", model.step
    if hasattr(model, "default_trap"):
        yield "trap", model.default_trap().contains
    if not hasattr(model, "symbol_of"):
        return
    yield "hole", model.in_hole
    yield "symbol", model.symbol_of
    for symbol in sorted({0, min(3, model.n_branches - 1)}):
        yield f"margin {symbol}", lambda p, s=symbol: model.cell_margin(s, p)
        yield f"inverse {symbol}", lambda p, s=symbol: model.inverse_branch(s, p)
    yield "lip", lambda p: model.lip_bound(p, 1e-3)
    yield "jacobian", model.jacobian_matrices
    yield "itinerary", lambda p: model.itinerary(p, 60)


@pytest.mark.parametrize("make", [lambda: HopfModel2D(0.1), lambda: HopfModel3D(0.1),
                                  LinearToy2D, TriplingToy, lambda: DiazVianaFamily(0.25)])
def test_methods_are_row_wise_on_batches_of_one_or_more(make):
    # first_entry merges orbits that meet bit for bit, and propagate drops
    # retired rows from the batch; both are exact only if a row's result
    # does not depend on the other rows of its batch, the BLAS products
    # included.  A lone row is the case OpenBLAS rounds in another order.
    # Random subsets of 1, 2 and more rows, from points that include the
    # trap's boundary and images of the grid.
    model = make()
    rng = np.random.default_rng(43)
    pts = np.concatenate([rng.random((1500, model.d)), grid_centers(model.d, 8)])
    pts = np.concatenate([pts, model.step(model.step(pts))])
    if hasattr(model, "default_trap"):
        pts = np.concatenate([pts, model.default_trap().boundary_sample(1000)])
    for label, fn in _row_wise_maps(model):
        full = fn(pts)
        for size in [1] * 100 + [2] * 50 + list(rng.integers(3, len(pts), 150)):
            rows = np.sort(rng.choice(len(pts), size, replace=False))
            got, want = fn(pts.take(rows, axis=0)), full[rows]
            assert got.dtype == want.dtype and got.shape == want.shape, label
            assert got.tobytes() == want.tobytes(), (label, rows[:3])


def test_spatial_step_matches_modulo_form_bitwise():
    def reference_step(model, points):
        c = ((points + 0.5) % 1.0 - 0.5) @ model.P_inv.T
        w, z = c[:, 0] ** 2 + c[:, 1] ** 2, c[:, 2]
        inside = (w < model.delta0) & (np.abs(z) < model.delta0)
        scale = np.ones(len(c))
        scale[inside] = profile_3d(model.profile, w[inside], z[inside]) / model.sigma
        return (c * np.stack([scale, scale, np.ones(len(c))], axis=1) @ model.PM.T) % 1.0

    rng = np.random.default_rng(37)
    flat = _radius_inputs()
    pts = np.concatenate([np.concatenate([flat, flat[::-1, :1]], axis=1),
                          wrap(0.1 * rng.standard_normal((30_000, 3)))])
    model = HopfModel3D(0.1)
    got, want = model.step(pts), reference_step(model, pts)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_every_point_lies_in_the_cell_of_its_symbol():
    # symbol_of and cell_margin must round a cell edge the same way; the
    # first point has y = A x = (0.5 - 1e-13, 0.2), just below an edge
    below_edge = wrap(np.array([[0.5 - 1e-13, 0.2]]) @ np.linalg.inv(A2).T)
    edges = _box_edge_points(np.random.default_rng(17), 20_000)
    pts = np.concatenate([below_edge, edges, np.nextafter(edges, 2.0),
                          np.nextafter(edges, -1.0)])
    for model in (LinearToy2D(), HopfModel2D(0.05)):
        sym = model.symbol_of(pts)
        margin = np.full(len(pts), np.inf)
        for s in range(10):
            margin[sym == s] = model.cell_margin(s, pts[sym == s])
        assert np.all(margin[sym >= 0] >= 0), model.label


def test_inverse_branches_roundtrip_and_hole_has_no_branch_zero_preimage():
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(1)
    pts = rng.random((300, 2))
    defined = 0
    for s in range(10):
        inv = model.inverse_branch(s, pts)
        ok = ~np.isnan(inv).any(axis=1)
        defined += ok.sum()
        assert torus_gap(model.step(inv[ok]), pts[ok]) < 1e-12
        assert np.all(model.symbol_of(inv[ok]) == s)
    # exactly one preimage per branch except where it falls into the hole
    assert 10 * len(pts) - defined == pytest.approx(
        10 * len(pts) * model.mu_f, abs=0.03 * 10 * len(pts))


def test_inverse_branches_match_boolean_mask_form_bitwise():
    def mask_inverse_branch(model, symbol, points):
        cand = model._linear_preimages(np.atleast_2d(points))
        n, k, _ = cand.shape
        flat = cand.reshape(n * k, 2)
        dist = np.sqrt(np.sum(flat * flat, axis=1))
        need = dist < np.sqrt(model.delta0)
        flat[need] = model._radial_preimage(flat[need], dist[need])
        return _select_matching_preimage(model, symbol, flat.reshape(n, k, 2))

    model = HopfModel2D(0.1)
    pts = np.concatenate([np.random.default_rng(43).random((2000, 2)),
                          wrap(0.05 * np.random.default_rng(44).standard_normal((2000, 2)))])
    for s in range(10):
        got, want = model.inverse_branch(s, pts), mask_inverse_branch(model, s, pts)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def finite_difference_jacobian(model, p, h=1e-7):
    d = len(p)
    fd = np.empty((d, d))
    for j in range(d):
        dp = np.zeros(d)
        dp[j] = h
        diff = model.step((p + dp)[None, :]) - model.step((p - dp)[None, :])
        diff = (diff + 0.5) % 1.0 - 0.5  # unwrap before dividing
        fd[:, j] = diff[0] / (2 * h)
    return fd


def test_jacobian_matrices_match_finite_differences():
    model = HopfModel2D(0.1)
    pts = np.array([[0.03, 0.02], [0.09, 0.05], [0.3, 0.7], [0.11, 0.02]])
    J = model.jacobian_matrices(pts)
    for k, p in enumerate(pts):
        assert np.allclose(J[k], finite_difference_jacobian(model, p),
                           rtol=1e-4, atol=1e-5)


def test_singular_values_match_svd():
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(2)
    pts = rng.random((200, 2)) * 0.25  # bias toward the deformation disk
    # radially Phi + 2 w Phi' (the stretch), tangentially Phi, at w = rho^2
    w = np.minimum(np.sum(centered(pts) ** 2, axis=1), model.delta0)
    lo, hi = model.profile.value(w), model.profile.stretch(w)
    sv = np.linalg.svd(model.jacobian_matrices(pts), compute_uv=False)
    assert np.allclose(sv[:, -1], lo, rtol=1e-10)
    assert np.allclose(sv[:, 0], hi, rtol=1e-10)
    assert np.allclose(model.deriv_inverse_norm(pts), 1 / lo, rtol=1e-12)


def test_branch_expansion_floors():
    model = HopfModel2D(0.1)
    assert model.lambda_min(0) == 0.0
    assert model.lambda_min(3) == pytest.approx(0.5 * np.log(10))
    # least stretch over branch 0 approaches but never undercuts the floor
    rng = np.random.default_rng(3)
    pts = rng.random((50_000, 2))
    sel = model.symbol_of(pts) == 0
    assert model.log_least_stretch(pts[sel]).min() >= -1e-12
    model0 = HopfModel2D(-0.05)
    assert model0.lambda_min(0) == pytest.approx(np.log(1.05))


def test_lip_bound_dominates_observed_stretch():
    model = HopfModel2D(0.1)
    rng = np.random.default_rng(7)
    base = rng.random((200, 2)) * 0.3
    rad = 0.01
    bound = model.lip_bound(base, rad)
    for k, p in enumerate(base):
        probe = p + rng.normal(size=(64, 2)) * rad / 3
        probe = probe[np.sqrt(np.sum((probe - p) ** 2, axis=1)) <= rad]
        d1 = np.linalg.norm(centered(model.step(probe) - model.step(p[None, :])), axis=1)
        d0 = np.sqrt(np.sum((probe - p) ** 2, axis=1))
        good = d0 > 1e-12
        assert np.all(d1[good] <= bound[k] * d0[good] * (1 + 1e-6))


# -------------------------------------------------------------- Jacobian

def test_jacobian_inside_hole_is_contracting_at_fixed_point():
    model = HopfModel2D(0.1)
    det = np.linalg.det(model.jacobian_matrices(np.array([[0.0, 0.0]])))
    at_zero = np.log(np.abs(det))
    assert at_zero[0] == pytest.approx(2 * np.log(1 - 0.1), abs=1e-12)
    assert at_zero[0] < 0


# ------------------------------------------------------------- escapes

def test_escape_inside_circle_is_fast():
    model = HopfModel2D(0.1)
    pts = np.array([[0.01, 0.0], [0.02, 0.015], [0.005, 0.005]])
    survives, steps = escape_time(model, pts, horizon=200)
    assert not survives.any()
    assert steps.max() < 10 / 0.1  # contraction rate ~ (1 - mu) per step


def test_on_circle_point_survives():
    # the neutral circle is radially repelling, so float rounding drifts an
    # on-circle orbit off it at rate (1+2mu)^k; 100 steps keeps the drift
    # around 1e-8, far from the trap at rho_inv/2
    model = HopfModel2D(0.1)
    pts = np.array([[model.rho_inv, 0.0]])
    survives, steps = escape_time(model, pts, horizon=100)
    assert survives[0] and steps[0] == 100


def test_no_attractor_before_bifurcation():
    model = HopfModel2D(-0.02)
    rng = np.random.default_rng(0)
    survives, steps = escape_time(model, rng.random((1000, 2)), horizon=200)
    assert survives.all()
    assert not model.trap_advisory


def test_trap_invariance_both_models():
    m2 = HopfModel2D(0.1)
    assert verify_trap(m2, m2.default_trap())
    m3 = HopfModel3D(0.1)
    assert verify_trap(m3, m3.default_trap())


def test_escape_time_verifies_the_trap_it_runs_against():
    # a disk past the neutral circle is not forward invariant, and each
    # call judges the trap in use, whatever an earlier call was handed
    model = HopfModel2D(0.1)
    pts = np.array([[0.3, 0.3]])
    assert not verify_trap(model, disk_trap(1.5 * model.rho_inv))
    escape_time(model, pts, horizon=5)
    assert not model.trap_advisory
    model.default_trap = lambda: disk_trap(1.5 * model.rho_inv)
    escape_time(model, pts, horizon=5)
    assert model.trap_advisory
    del model.default_trap
    escape_time(model, pts, horizon=5)
    assert not model.trap_advisory


def test_survivor_grid_drops_hole_interior():
    model = HopfModel2D(0.1)
    surv = survivor_grid(model, 128, horizon=50)
    assert 0 < len(surv) < 128 * 128
    inside = np.sum(centered(surv) ** 2, axis=1) < (model.rho_inv / 2) ** 2
    assert not inside.any()


# ------------------------------------------------------------ spatial model

def test_spectrum_certificate():
    model = HopfModel3D(0.1)
    assert abs(np.linalg.det(A3)) == pytest.approx(1.0, abs=1e-12)
    assert model.lam * model.sigma ** 2 == pytest.approx(1.0, abs=1e-10)
    assert model.sigma > 3.0
    assert model.lam < 1.0 / 9.0
    assert np.allclose(A3 @ model.P, model.P @ model.M, atol=1e-10)


def test_spatial_step_matches_linear_action_far_out():
    model = HopfModel3D(0.1)
    rng = np.random.default_rng(6)
    pts = rng.random((5000, 3))
    _, w, z = model._coords(pts)
    far = (w > 2 * model.delta0)
    expect = wrap(centered(pts[far]) @ A3.T)
    assert torus_gap(model.step(pts[far]), expect) < 1e-10


def test_spatial_origin_block_structure_at_bifurcation():
    # the step's Jacobian at the origin: the terms carrying the profile's
    # partials vanish there, leaving diag(s, s, 1) in eigencoordinates
    model = HopfModel3D(0.0)
    s = profile_3d(model.profile, 0.0, 0.0) / model.sigma
    J = model.PM @ np.diag([s, s, 1.0]) @ model.P_inv
    local = model.P_inv @ J @ model.P
    rot = local[:2, :2]
    # radial block is a pure rotation (neutral factor Phi(0) = 1)
    assert np.allclose(rot @ rot.T, np.eye(2), atol=1e-10)
    assert np.linalg.norm(rot[:, 0]) == pytest.approx(1.0, abs=1e-10)
    assert local[2, 2] == pytest.approx(model.lam, abs=1e-10)
    assert np.allclose(local[2, :2], 0.0, atol=1e-12)


def test_spatial_step_and_survivors_are_pinned_bitwise():
    # hopf3d has no benchmark digest, so this pins its step and survivor
    # grid.  1123 of the 2000 points drawn near the origin lie where
    # profile_3d deforms the step, 449 of them on the vertical ramp, so
    # reordering profile_3d's arithmetic changes the digest.
    rng = np.random.default_rng(2026)
    near = rng.uniform(-1.0, 1.0, (2000, 3)) * np.array([0.15, 0.15, 0.025])
    pts = np.concatenate([rng.random((2000, 3)), wrap(near @ HopfModel3D(0.1).P.T)])
    digest = hashlib.sha256()
    for mu in (0.1, 0.01, -0.05):
        model = HopfModel3D(mu)
        digest.update(model.step(pts).tobytes())
        digest.update(survivor_grid(model, 32, 30).tobytes())
    assert digest.hexdigest() == \
        "def8282a0166c324077ef6f8d47a2d0fe7b91d56e9c4126c494df956f20949a0"


def test_spatial_survivors_without_attractor():
    model = HopfModel3D(-0.01)
    surv = survivor_grid(model, 16, horizon=20)
    assert len(surv) == 16 ** 3


# ------------------------------------------------------------ 1D families

def test_tripling_basics():
    toy = TriplingToy()
    x = np.array([[0.1], [0.8], [0.5]])
    assert np.allclose(toy.step(x)[:, 0], [0.3, 0.4, 0.5])
    assert toy.symbol_of(x).tolist() == [0, 1, -1]
    assert toy.lambda_min(0) == pytest.approx(np.log(3))
    inv0 = toy.inverse_branch(0, np.array([[0.6]]))
    inv1 = toy.inverse_branch(1, np.array([[0.6]]))
    assert inv0[0, 0] == pytest.approx(0.2)
    assert inv1[0, 0] == pytest.approx(2.6 / 3)


def _arc_ends_and_neighbours(cells):
    """Every arc end and its two float neighbours, inside [0, 1]."""
    ends = np.array([x for arc in cells for x in arc])
    pts = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    return pts[(pts >= 0.0) & (pts <= 1.0)]


def test_tripling_symbols_at_arc_ends():
    toy = TriplingToy()
    x = _arc_ends_and_neighbours(toy.cells)
    want = np.where(x <= 1.0 / 3.0, 0, np.where(x >= 2.0 / 3.0, 1, -1))
    assert toy.symbol_of(x[:, None]).tolist() == want.tolist()


@pytest.mark.parametrize("t", [0.01, 0.25, 0.81])
def test_diaz_viana_symbols_at_arc_ends(t):
    # the shared end u_mid belongs to branch 0; the hole arc to neither
    fam = DiazVianaFamily(t)
    x = _arc_ends_and_neighbours(fam.cells)
    assert len(x) == 12
    want = np.where((x >= fam.r) & (x <= fam.u_mid), 0,
                    np.where((x > fam.u_mid) & (x <= 1.0 - fam.r), 1, -1))
    assert fam.symbol_of(x[:, None]).tolist() == want.tolist()


def test_diaz_viana_construction_grid():
    for t in (0.04, 0.1, 0.25, 0.5, 0.9):
        fam = DiazVianaFamily(t)
        assert fam.c2 > 0
        assert fam.mu_f == pytest.approx(np.sqrt(t))
        # degree two: the lift gains exactly 2 - 2r over the domain
        assert fam.lift(1 - fam.r) == pytest.approx(2 - fam.r, abs=1e-12)
        # expansion margin: derivative >= 1 + sqrt(t) everywhere off the hole
        u = np.linspace(fam.r, 1 - fam.r, 4001)
        assert fam.derivative(u).min() >= fam.c1 - 1e-12
        assert fam.derivative(np.array([fam.r, 1 - fam.r])) == pytest.approx(fam.c1)
        assert fam.lambda_min(0) > 0 and fam.lambda_min(1) > 0
        assert fam.S == pytest.approx(1 / fam.c1)


def test_diaz_viana_rejects_bad_parameters():
    for t in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            DiazVianaFamily(t)


def test_diaz_viana_branch_structure():
    fam = DiazVianaFamily(0.25)
    assert fam.lift(fam.u_mid) == pytest.approx(1 + fam.r, abs=1e-12)
    y = np.linspace(0, 1, 101)[:, None]
    inv0 = fam.inverse_branch(0, y)
    assert not np.isnan(inv0).any()  # first branch covers the whole circle
    assert torus_gap(fam.step(inv0), wrap(y)) < 1e-9
    inv1 = fam.inverse_branch(1, y)
    in_hole = fam.in_hole(y)
    assert np.isnan(inv1[in_hole, 0]).all()  # hole points: no second preimage
    ok = ~np.isnan(inv1[:, 0])
    assert torus_gap(fam.step(inv1[ok]), wrap(y[ok])) < 1e-9


def test_diaz_viana_hole_shrinks_with_t():
    lengths = [DiazVianaFamily(t).mu_f for t in (0.5, 0.1, 0.01, 0.001)]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_linear_toy_is_conformal_full_shift():
    toy = LinearToy2D()
    rng = np.random.default_rng(0)
    pts = rng.random((1000, 2))
    assert np.all(toy.symbol_of(pts) >= 0)
    assert toy.lambda_min(4) == pytest.approx(0.5 * np.log(10))
    assert np.allclose(toy.deriv_inverse_norm(pts), 1 / np.sqrt(10))
    for s in (0, 7):
        inv = toy.inverse_branch(s, pts[:100])
        assert not np.isnan(inv).any()
        assert torus_gap(toy.step(inv), pts[:100]) < 1e-12
