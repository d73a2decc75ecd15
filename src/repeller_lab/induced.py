"""Induced uniformly expanding map over first-crossing return times.

Points are iterated until the running sum of certified per-branch
expansion floors first clears ``threshold`` per step; the induced map
applies the original map that many times.  By submultiplicativity of
least singular values, the induced derivative then satisfies
||DF^{-1}|| <= exp(-threshold * tau) on every piece with return time tau,
so the induced system is uniformly expanding with a rate that does not
degenerate as the hole shrinks.

Orbits that fall into the hole before crossing, or that fail to cross
within the depth budget n, make up the induced hole; its volume is
compared against the hole volume plus the depth envelope plus a crude
preimage series (which is astronomically large for multibranch maps and
reported in log10 when it overflows).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .badsets import CrossingPartition, sn_partition, _binomial_halfwidth, _resolve_threshold
from .bounds import delta_bound
from .holes import MapWithHoles, propagate, pullback_witness_batch
from .holes import pullback_witnesses  # noqa: F401  (perfbench/spans.py patches it here by name)


@dataclass(frozen=True)
class InducedExpander:
    """First-crossing induced map data.

    ``partition.groups[k]`` holds the domain pieces with return time k+1;
    ``partition.remainder`` holds the depth-n cylinders that never cross
    (part of the induced hole, controlled by the depth envelope).
    """

    system: MapWithHoles
    n: int
    threshold: float
    partition: CrossingPartition

    @property
    def words(self) -> tuple:
        return tuple(w for g in self.partition.groups for w in g)

    @property
    def return_times(self) -> tuple:
        return tuple(len(w) for w in self.words)

    @cached_property
    def floors(self) -> tuple:
        """Certified per-branch expansion floors ``lambda_min``, by symbol."""
        return tuple(self.system.lambda_min(s) for s in range(self.system.n_branches))

    def floor_margin(self, word) -> float:
        """Certified log-expansion surplus of a domain piece."""
        total = sum(map(self.floors.__getitem__, word))
        return total - self.threshold * len(word)

    def apply(self, points: np.ndarray, on_step=None):
        """Induced images, return times, and domain membership per point.

        Points in the induced hole (orbit enters the hole or fails to
        cross within n steps) come back with ok=False; their image row is
        where the orbit was retired, by t = n, and their time the steps taken.
        ``on_step(rows, pos)``, when given, sees the rows about to take
        one more step and their positions.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        floors = np.array(self.floors)
        acc = np.zeros(len(pts))
        tau = np.zeros(len(pts), dtype=np.int64)
        ok = np.zeros(len(pts), dtype=bool)
        image = np.empty_like(pts)

        def visit(t, rows, pos):
            done = acc[rows] > self.threshold * t
            ok[rows[done]] = True
            if t == self.n:
                done[:] = True
            else:
                live = np.flatnonzero(~done)
                sym = self.system.symbol_of(pos.take(live, axis=0))
                done[live[sym < 0]] = True
                acc[rows[~done]] += floors[sym[sym >= 0]]
                if on_step is not None:
                    go = np.flatnonzero(~done)
                    on_step(rows[go], pos.take(go, axis=0))
            gone = np.flatnonzero(done)
            tau[rows[gone]] = t
            image[rows[gone]] = pos.take(gone, axis=0)
            return done

        propagate(self.system.step, pts, self.n, visit)
        return image, tau, ok


def build_induced(system: MapWithHoles, n: int, threshold=None, *,
                  max_words: int = 100_000) -> InducedExpander:
    """Assemble the induced expander at depth budget n.

    Warns (but still returns a valid object) when the threshold exceeds
    every branch floor, since then nothing ever crosses and the induced
    domain is empty.
    """
    threshold = _resolve_threshold(system, threshold)
    part = sn_partition(system, n, threshold, max_words=max_words)
    if all(len(g) == 0 for g in part.groups):
        warnings.warn("threshold clears no branch floor: the induced domain "
                      "is empty (degenerate but valid)", RuntimeWarning)
    return InducedExpander(system=system, n=n, threshold=threshold,
                           partition=part)


# ------------------------------------------------------------ verification

@dataclass(frozen=True)
class ExpansionCheck:
    """Sampled verification that induced derivatives beat the target rate.

    ``min_margin`` is the smallest observed log sigma_min(Df^tau) minus
    threshold*tau over all checked returns; nonnegative (up to float
    noise) when the induced map expands as certified.
    """

    samples: int
    checked: int
    words_checked: int
    min_margin: float
    passed: bool


def verify_expansion(expander: InducedExpander, *, samples: int = 10_000,
                     seed: int = 0) -> ExpansionCheck:
    """Check ||DF^{-1}|| <= exp(-threshold tau) at sampled return points.

    Uniform samples cover the short return times; cylinder witnesses of
    the long slow-prefix pieces (return times up to 12) cover the returns
    uniform sampling essentially never reaches.
    """
    system = expander.system
    thr = expander.threshold
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = rng.random((samples, system.d))

    groups = expander.partition.groups[:12]
    found = pullback_witness_batch(
        system, [w for g in groups for w in g], targets=2,
        seeds=[seed + k for k, g in enumerate(groups) for _ in g])
    found = [wits for wits in found if len(wits)]
    words_checked = len(found)
    pts = np.concatenate([pts, *found], axis=0)

    prod = np.broadcast_to(np.eye(system.d), (len(pts), system.d, system.d)).copy()

    def multiply(rows, pos):
        prod[rows] = system.jacobian_matrices(pos) @ prod[rows]

    _, tau, ok = expander.apply(pts, on_step=multiply)
    ret = np.flatnonzero(ok)
    checked = len(ret)
    if checked == 0:  # empty domain: nothing to violate
        return ExpansionCheck(samples=samples, checked=0, words_checked=words_checked,
                              min_margin=float("nan"), passed=True)
    least = np.linalg.svd(prod[ret], compute_uv=False)[:, -1]
    margins = np.log(least) - thr * tau[ret]
    min_margin = float(margins.min())
    return ExpansionCheck(samples=samples, checked=checked,
                          words_checked=words_checked, min_margin=min_margin,
                          passed=min_margin >= -1e-9)


# ----------------------------------------------------------- induced hole

@dataclass(frozen=True)
class InducedHole:
    """Measured induced-hole volume against its series bound.

    ``bound`` is hole volume + depth envelope + the preimage series
    mu_f * sum_j (branches * S)^j; for multibranch maps the series is
    astronomically large, so ``bound_log10`` carries its size and the
    comparison is trivially true.
    """

    n: int
    threshold: float
    samples: int
    measured: float
    mc_halfwidth: float
    bound: float
    bound_log10: float
    trivially_true: bool

    @property
    def passed(self) -> bool:
        return bool(self.measured <= min(self.bound, 1.0) + self.mc_halfwidth)


def induced_hole_volume(expander: InducedExpander, *, samples: int = 100_000,
                        seed: int = 0) -> InducedHole:
    """Monte Carlo volume of the induced hole with its series bound."""
    system = expander.system
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = rng.random((samples, system.d))
    _, _, ok = expander.apply(pts)
    measured = float(1.0 - ok.mean())
    half = _binomial_halfwidth(measured, samples)

    mu_f = max(float(system.mu_f), 0.0)  # no hole -> zero bound
    delta = delta_bound(expander.n, system.delta_mu) if mu_f > 0 else 0.0
    ratio = system.n_branches * system.S
    js = np.arange(1, expander.n + 1, dtype=float)
    log10_terms = np.log10(mu_f) + js * np.log10(ratio) if mu_f > 0 else np.array([-np.inf])
    top = log10_terms.max()
    series_log10 = top + np.log10(np.sum(10.0 ** (log10_terms - top))) if np.isfinite(top) else -np.inf
    series = 10.0 ** series_log10 if series_log10 < 300 else float("inf")
    bound = mu_f + delta + series
    if np.isfinite(bound):
        bound_log10 = float(np.log10(bound)) if bound > 0 else float("-inf")
    else:
        bound_log10 = float(series_log10)
    return InducedHole(n=expander.n, threshold=expander.threshold,
                       samples=samples, measured=measured, mc_halfwidth=half,
                       bound=bound, bound_log10=bound_log10,
                       trivially_true=bound >= 1.0)
