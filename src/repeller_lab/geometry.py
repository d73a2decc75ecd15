"""Grids, box counting, and Monte Carlo measure estimation on the unit torus.

Points live on the unit torus and are represented as numpy arrays (one
row per point).  The canonical representative of a torus point is its
coordinate vector wrapped into [0,1], with 1.0 only where a tiny negative
coordinate rounds up (see ``wrap``); ``centered`` gives the representative
in [-1/2, 1/2) used by maps that are defined relative to the origin.  Both
reduce with ``x - floor(x)``, which rounds the same exact value once as
``x % 1.0`` does and so equals it bit for bit, at a fraction of the cost.

All estimators are deterministic given an explicit seed.  Box counting is
grid aligned (boxes of side base**-k anchored at 0), dimension estimates
are ordinary least squares of log count against |log eps| with a t-based
confidence half-width, and Lebesgue measures are stratified Monte Carlo
with a binomial confidence half-width at the 99% level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Boundary snap: points within one part in 1e9 of a box edge are assigned
# to the box on the right.  Without this, exact-arithmetic sets (triadic
# endpoints, dyadic grid orbits) spill into neighbouring boxes through
# float rounding and corrupt otherwise exact counts.
SNAP = 1e-9

# Largest grid side n = base**k: n times any coordinate in [0, 1] (wrap
# can return 1.0) fits int64 before box_indices clips it; base 2 reaches
# it at k = 62.
MAX_GRID_SIDE = 2 ** 62

# _T975[df - 1] is the 0.975 quantile of Student's t with df degrees of
# freedom, df = 1..61, as the reprs of stdtrit(df, 0.975) (the tests
# check them bit for bit): the confidence factor of a fit over 3..63
# scales, which covers every ladder box_indices accepts (base 2, k = 0..62).
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939,
)


def wrap(points: np.ndarray) -> np.ndarray:
    """Canonical torus representative in [0,1]^d.

    The exact value x - floor(x) lies in [0, 1), but its rounding is 1.0
    for the tiny negatives in [-2**-54, 0): 1 - 1e-17 rounds to 1, so
    wrap(-1e-17) is 1.0.  ``box_indices`` clips such a point into the
    last box.
    """
    x = np.asarray(points, dtype=float)
    out = np.floor(x)
    return np.subtract(x, out, out=out)


def centered(points: np.ndarray) -> np.ndarray:
    """Torus representative in [-1/2, 1/2)^d (displacement from the origin).

    Unlike ``wrap`` it cannot round up: x + 1/2 is never a negative float
    closer to 0 than 2**-53, and only those give a fraction of 1.0.
    """
    y = np.asarray(points, dtype=float) + 0.5
    y -= np.floor(y)
    y -= 0.5
    return y


@dataclass(frozen=True)
class Region:
    """A measurable subset of the torus described by a membership test.

    ``contains`` maps an (N, d) array to a boolean array of length N; it
    must be deterministic.  ``bounding_box`` is a (d, 2) array of
    [low, high) coordinate bounds that contains every member point.
    ``volume`` may carry the exact Lebesgue measure when it is known.
    """

    contains: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    volume: float | None = None
    label: str = ""

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.contains(pts), dtype=bool)
        if out.shape != (pts.shape[0],):
            raise ValueError("region membership must return one bool per point")
        return out


def scale_to_base(eps: float) -> tuple[int, int]:
    """Recognize eps as base**-k for base in {2, 3}; return (base, k)."""
    if eps <= 0:
        raise ValueError(f"scale must be positive, got {eps}")
    for base in (2, 3):
        k = round(-np.log(eps) / np.log(base))
        if k >= 0 and abs(base ** -k - eps) <= 1e-9 * eps:
            return base, int(k)
    raise ValueError(f"scale {eps} is not 2**-k or 3**-k")


def box_indices(points: np.ndarray, k: int, base: int = 2) -> np.ndarray:
    """Integer grid coordinates of each point at resolution base**-k.

    Raises ValueError when base**k exceeds ``MAX_GRID_SIDE``, where the
    int64 indices would overflow.
    """
    n = base ** k
    if n > MAX_GRID_SIDE:
        raise ValueError(f"grid side {base}**{k} exceeds 2**62: box indices overflow int64")
    pts = np.atleast_2d(wrap(points))
    idx = np.floor(pts * n + SNAP).astype(np.int64)
    return np.clip(idx, 0, n - 1)


def grid_centers(d: int, n: int) -> np.ndarray:
    """Centres (i + 1/2) / n of the n**d boxes of the regular grid, C-ordered."""
    axes = [(np.arange(n) + 0.5) / n] * d
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@dataclass(frozen=True)
class DimensionEstimate:
    """Box-counting dimension from a ladder of (eps, count) pairs.

    ``slope`` is the least-squares slope of log count vs |log eps|
    (natural logs), clamped to [0, ambient_dim]; ``slope_raw`` keeps the
    unclamped value.  ``ci`` is the 95% t-based half-width on the slope
    and ``residual`` the root-mean-square regression residual.
    """

    pairs: tuple
    ambient_dim: int
    slope: float
    slope_raw: float
    residual: float
    ci: float
    warnings: tuple = field(default=())


def box_dimension(pairs: Sequence[tuple], ambient_dim: int) -> DimensionEstimate:
    """Least-squares dimension estimate from (eps, count) pairs.

    Requires 3 to 63 scales (the extent of the t-quantile table) spanning
    a factor of 8 in eps, with counts nonincreasing in eps.  A degenerate
    ladder (all counts equal) is reported with a ``flat-slope`` warning
    rather than silently returning zero; a slope falling outside
    [0, ambient_dim] is clamped and flagged.
    """
    pts = sorted(((float(e), int(c)) for e, c in pairs), key=lambda p: -p[0])
    if len(pts) < 3:
        raise ValueError("need at least 3 scales")
    if len(pts) > len(_T975) + 2:
        raise ValueError(f"at most {len(_T975) + 2} scales, got {len(pts)}")
    if pts[0][0] / pts[-1][0] < 8 * (1 - 1e-9):
        raise ValueError("scales must span at least a factor of 8")
    counts = [c for _, c in pts]
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive")
    if any(b < a for a, b in zip(counts, counts[1:])):
        raise ValueError("counts must be nonincreasing in eps")

    warnings = []
    if len(set(counts)) == 1:
        warnings.append("flat-slope")
        slope_raw, resid, ci = 0.0, 0.0, 0.0
    else:
        # linregress's formulas for slope, r and standard error
        x = np.array([-np.log(e) for e, _ in pts])
        y = np.array([np.log(c) for _, c in pts])
        df = len(pts) - 2
        ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
        slope_raw = float(ssxym / ssxm)
        intercept = np.mean(y) - slope_raw * np.mean(x)
        resid = float(np.sqrt(np.mean((y - (intercept + slope_raw * x)) ** 2)))
        ci = _T975[df - 1] * float(np.sqrt((1 - r ** 2) * ssym / ssxm / df))
    slope = min(max(slope_raw, 0.0), float(ambient_dim))
    if slope != slope_raw:
        warnings.append("clamped")
    return DimensionEstimate(pairs=tuple(pts), ambient_dim=ambient_dim,
                             slope=slope, slope_raw=slope_raw,
                             residual=resid, ci=ci, warnings=tuple(warnings))


def counts_from_survivors(points: np.ndarray, base: int, k_values: Sequence[int]) -> list[tuple]:
    """(eps, count) ladder for one point set, exact under grid nesting.

    Boxes at level k are unions of boxes at any finer level of the same
    base, so computing indices once at the finest level and integer-
    dividing down gives exactly the counts a per-level pass would.  The
    distinct boxes of a level are counted by sorting its index rows and
    counting the rows that differ from their predecessor.
    """
    ks = sorted(set(int(k) for k in k_values))
    k_max = ks[-1]
    idx = box_indices(points, k_max, base)
    out = []
    for k in ks:
        coarse = idx // base ** (k_max - k)
        rows = coarse[np.lexsort(coarse.T)]
        steps = np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1))
        out.append((base ** -k, min(len(rows), 1) + int(steps)))
    return out


def lebesgue_estimate(region: Region, budget: int, seed: int = 0) -> tuple[float, float]:
    """Stratified Monte Carlo Lebesgue measure of a region.

    Splits the bounding box into a jittered grid of strata (one sample
    each, repeated until the budget is used).  Returns ``(measure, half)``
    where ``half`` is a 99% confidence half-width: the normal binomial
    approximation when hits and misses both exceed 30, and the 99%
    rule-of-three style bound 5.3/budget otherwise (the maximum of the
    two is always taken, so the reported width never undercuts either).
    """
    if budget < 1000:
        raise ValueError("budget must be at least 1000")
    bbox = np.asarray(region.bounding_box, dtype=float)
    d = bbox.shape[0]
    widths = bbox[:, 1] - bbox[:, 0]
    vol = float(np.prod(widths))
    if vol <= 0:
        raise ValueError("bounding box must have positive volume")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = max(1, int(np.floor(budget ** (1.0 / d))))
    cells = np.stack(np.meshgrid(*[np.arange(g)] * d, indexing="ij"),
                     axis=-1).reshape(-1, d)
    rounds = budget // (g ** d)
    hits = 0
    drawn = 0
    for _ in range(rounds):
        u = (cells + rng.random((g ** d, d))) / g
        pts = bbox[:, 0] + u * widths
        hits += int(region.contains_points(pts).sum())
        drawn += g ** d
    rest = budget - drawn
    if rest > 0:
        pts = bbox[:, 0] + rng.random((rest, d)) * widths
        hits += int(region.contains_points(pts).sum())
        drawn += rest

    p = hits / drawn
    measure = p * vol
    half_three = 5.3 / drawn * vol
    if hits >= 30 and (drawn - hits) >= 30:
        half = max(2.576 * np.sqrt(p * (1 - p) / drawn) * vol, half_three)
    else:
        half = half_three
    return measure, float(half)
