"""Slow-orbit sets at fixed depth: enumeration, measurement, envelope checks.

The slow set at depth n and threshold c collects the points that survive n
steps while their running mean of per-step least log-stretch stays at or
below c.  Three views of it are computed and cross-checked:

  * a word census: depth-n itineraries that cannot be ruled out by the
    certified per-branch expansion floors (a superset of the itineraries
    the slow set can use);
  * certified volume brackets, by refining each surviving word's cylinder
    into an outer box cover and inner witnesses;
  * a direct Monte Carlo measurement over the torus.

The measured volume is compared against the depth-volume envelope
``delta_bound`` evaluated at the family's effective parameter.  The word
census and the first-crossing partition behind the induced map are two
cut rules on one depth-first walk of the floor-based prefix tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import delta_bound, depth_threshold
from .holes import MapWithHoles, propagate, refine_cylinder
from .geometry import SNAP


def _resolve_threshold(system: MapWithHoles, threshold):
    if threshold is not None:
        return float(threshold)
    c0 = getattr(system, "c0", None)
    if c0 is None:
        raise TypeError(f"{system.label} has no default threshold scale c0; "
                        "pass threshold explicitly")
    return float(c0) * float(system.mu_f)


# --------------------------------------------------------------- word walk

def _walk(system: MapWithHoles, n: int, excess, max_words: int, *, file_cut: bool):
    """Depth-first walk of the floor-based prefix tree down to depth n.

    A prefix of length j whose floor sum ``total`` has a positive
    ``excess(j, total)`` is cut and not extended; with ``file_cut`` it is
    also filed under ``cut_words[j - 1]``, else only counted, as there
    are far more cut words than leaves.  Uncut prefixes reaching depth n
    are the leaves; the rest are expanded by every symbol, as every branch
    is full.  The walk stops (capped) once more than ``max_words`` leaves
    exist.
    Returns ``(cut_words, least, pruned, leaves, expanded, capped)`` with
    every word a tuple of ints, ``cut_words`` None unless filed, and
    ``least`` the smallest excess of a filed word (None if none is filed).
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    floors = [system.lambda_min(s) for s in range(system.n_branches)]
    cut_words = [[] for _ in range(n)] if file_cut else None
    least, pruned, leaves, expanded, capped = math.inf, 0, [], 0, False
    # entries are (parent, last letter, floor sum); a word is built only
    # when popped, and the floor sum runs left to right along it
    stack = [((), s, floors[s]) for s in range(system.n_branches)][::-1]
    while stack:
        parent, last, total = stack.pop()
        word = parent + (last,)
        j = len(word)
        surplus = excess(j, total)
        if surplus > 0:
            pruned += 1
            if file_cut:
                cut_words[j - 1].append(word)
                least = min(least, surplus)
        elif j == n:
            leaves.append(word)
            if len(leaves) > max_words:
                capped = True
                break
        else:
            expanded += 1
            for s, floor in enumerate(floors):
                stack.append((word, s, total + floor))
    least = least if least < math.inf else None
    return cut_words, least, pruned, leaves, expanded, capped


# ------------------------------------------------------------- word census

@dataclass(frozen=True)
class WordCensus:
    """Outcome counts of the depth-n word enumeration.

    ``kept`` holds the words the expansion floors could not rule out.
    ``pruned`` counts subtrees cut with a certificate (their best possible
    depth-n mean already exceeds the threshold).  ``visited`` counts every
    node of the walk: a kept word, a pruned subtree's root or an internal
    node.
    """

    n: int
    threshold: float
    kept: tuple
    pruned: int
    visited: int
    capped: bool


def enumerate_slow_words(system: MapWithHoles, n: int, threshold=None, *,
                         max_words: int = 100_000) -> WordCensus:
    """Depth-n words not excluded by the certified expansion floors.

    A prefix is cut as soon as even an all-slowest completion would push
    the depth-n mean of per-branch floors above the threshold; since the
    floors bound the true per-step terms from below, every point of a cut
    prefix's cylinder has mean expansion above the threshold at depth n.
    The enumeration stops (capped) once more than ``max_words`` words
    reach depth n - the result is then a partial, inconclusive list.
    """
    threshold = _resolve_threshold(system, threshold)
    best_rest = min(system.lambda_min(s) for s in range(system.n_branches))
    budget = n * threshold
    _, _, pruned, kept, expanded, capped = _walk(
        system, n, lambda j, total: total + (n - j) * best_rest - budget, max_words,
        file_cut=False)
    return WordCensus(n=n, threshold=threshold, kept=tuple(kept), pruned=pruned,
                      visited=pruned + len(kept) + expanded,
                      capped=capped)


# ------------------------------------------------------------ measurement

def _binomial_halfwidth(p, samples: int) -> float:
    """99% half-width of a Monte Carlo fraction p over ``samples`` draws:
    the normal binomial approximation, floored at 5.3/N."""
    return float(max(2.576 * np.sqrt(p * (1 - p) / samples), 5.3 / samples))


def measure_slow_fractions(system: MapWithHoles, n_values, threshold=None, *,
                           samples: int = 100_000, seed: int = 0) -> dict:
    """Monte Carlo volume of the slow set at each requested depth.

    One orbit sweep serves every depth: per-step least log-stretch values
    are accumulated along surviving orbits and compared against the
    threshold at each depth in ``n_values``.  Returns
    {n: (fraction, halfwidth)} with the same confidence convention as
    ``lebesgue_estimate`` (99% normal, floored at 5.3/N).
    """
    threshold = _resolve_threshold(system, threshold)
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values or n_values[0] < 1:
        raise ValueError("need at least one depth >= 1")
    if samples < 1000:
        raise ValueError("too few samples for a meaningful estimate")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    acc = np.zeros(samples)
    slow = np.zeros(n_values[-1] + 1, dtype=np.int64)

    def visit(t, rows, pos):
        hole = system.in_hole(pos)
        stay = np.flatnonzero(~hole)
        live = rows[stay]
        acc[live] += system.log_least_stretch(pos.take(stay, axis=0))
        slow[t + 1] = np.count_nonzero(acc[live] <= (t + 1) * threshold + SNAP)
        return hole

    propagate(system.step, rng.random((samples, system.d)), n_values[-1] - 1, visit)
    out = {}
    for n in n_values:
        p = slow[n] / samples
        out[n] = (float(p), _binomial_halfwidth(p, samples))
    return out


# -------------------------------------------------- first-crossing partition

@dataclass(frozen=True)
class CrossingPartition:
    """Words grouped by the first depth at which the certified mean
    expansion clears the threshold.

    ``groups[k]`` holds words of length k+1 whose running mean of floors
    first exceeds the threshold at their last letter; ``remainder`` holds
    the depth-n words that never cross (the candidates for the slow set).
    Cylinders across all groups and the remainder are pairwise disjoint.
    ``min_margin`` is the smallest floor sum minus threshold times length
    over the grouped words, None when no word crosses.  A ``capped``
    partition (more than ``max_words`` words in the remainder) is partial.
    """

    n: int
    threshold: float
    groups: tuple
    remainder: tuple
    min_margin: float | None
    capped: bool


def sn_partition(system: MapWithHoles, n: int, threshold=None, *,
                 max_words: int = 100_000) -> CrossingPartition:
    """Partition itineraries by first certified crossing of the threshold."""
    threshold = _resolve_threshold(system, threshold)
    cut, least, _, remainder, _, capped = _walk(
        system, n, lambda j, total: total - j * threshold, max_words, file_cut=True)
    return CrossingPartition(n=n, threshold=threshold, groups=tuple(map(tuple, cut)),
                             remainder=tuple(remainder), min_margin=least, capped=capped)


# ------------------------------------------------------------- depth sweep

@dataclass(frozen=True)
class DepthRow:
    """One depth of the slow-set-versus-envelope comparison."""

    n: int
    mu: float
    mu_f: float
    threshold: float
    kept: int
    pruned: int
    vol_lo: float
    vol_hi: float
    vol_mc: float
    mc_halfwidth: float
    delta: float
    passed: bool
    flag: str


def a2_report(system: MapWithHoles, n_values, *, threshold=None,
              samples: int = 200_000, seed: int = 0, max_words: int = 100_000,
              witness_targets: int = 4) -> list:
    """Measured slow-set volume against the depth envelope, per depth.

    Each kept word's cylinder is refined on the dyadic grid of side 2^-9.

    Flags: ``ok`` (measured under the envelope), ``fail`` (over it at a
    depth the envelope is meant to control, i.e. past the depth where it
    dips under the hole volume), ``out-of-contract`` (over it at a
    shallower depth), ``inconclusive`` (word census capped), ``no-hole``
    (the family has no hole, so there is nothing to bound).
    """
    n_values = sorted(set(int(n) for n in n_values))
    rows = []
    if getattr(system, "mu_f", 0.0) <= 0.0:
        mu = float(getattr(system, "mu", float("nan")))
        for n in n_values:
            rows.append(DepthRow(n=n, mu=mu, mu_f=0.0, threshold=0.0, kept=0,
                                 pruned=0, vol_lo=0.0, vol_hi=0.0, vol_mc=0.0,
                                 mc_halfwidth=0.0, delta=float("nan"),
                                 passed=True, flag="no-hole"))
        return rows

    threshold = _resolve_threshold(system, threshold)
    measured = measure_slow_fractions(system, n_values, threshold,
                                      samples=samples, seed=seed)
    n0 = depth_threshold(system.mu_f, system.delta_mu)
    mu = float(getattr(system, "mu", system.mu_f))
    for n in n_values:
        census = enumerate_slow_words(system, n, threshold, max_words=max_words)
        vol_lo, vol_hi = 0.0, 0.0
        if census.capped:
            vol_hi = float("nan")
        else:
            for word in census.kept:
                geo = refine_cylinder(system, word, 2.0 ** -9,
                                      witness_targets=witness_targets, seed=seed)
                vol_lo += geo.vol_lo
                vol_hi += geo.vol_hi
        frac, half = measured[n]
        delta = delta_bound(n, system.delta_mu)
        passed = frac <= delta
        if census.capped:
            flag = "inconclusive"
        elif passed:
            flag = "ok"
        elif n0 is not None and n < n0:
            flag = "out-of-contract"
        else:
            flag = "fail"
        rows.append(DepthRow(n=n, mu=mu, mu_f=float(system.mu_f),
                             threshold=threshold, kept=len(census.kept),
                             pruned=census.pruned, vol_lo=vol_lo, vol_hi=vol_hi,
                             vol_mc=frac, mc_halfwidth=half, delta=delta,
                             passed=passed, flag=flag))
    return rows
