"""Exact combinatorial counts and decay bounds for deep survivor words.

Words that spend most of their time in the slow branch but make a few
excursions are counted by block patterns: l letters of the slow symbol in
t maximal blocks, alternating with t blocks of fast symbols.  Everything
here is checked at integer or rational precision where possible; floating
point only enters through logarithms of exact integers.

The headline object is ``delta_bound``, the depth-volume envelope

    delta(n, mu) = mu / (-4 log mu) * n^2 * exp(-mu n / 4),

which rises to a peak near n = 8/mu and then decays exponentially; the
measured volume of the slow set at depth n is compared against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, log

import numpy as np

__all__ = [
    "BoundCheck",
    "count_patterns",
    "delta_bound",
    "delta_peak",
    "depth_threshold",
    "entropy_bound",
    "lemma_cell_bound",
    "lt_constraints",
    "prefactor_bound",
    "stirling_binomial_bound",
]


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: lhs <= rhs (or == for identities)."""

    name: str
    lhs: float
    rhs: float
    ok: bool
    params: dict

    def __str__(self):
        verdict = "ok" if self.ok else "VIOLATED"
        return f"{self.name}{self.params}: {self.lhs:.6g} <= {self.rhs:.6g} [{verdict}]"


# ----------------------------------------------------------- block patterns

def count_patterns(n: int, l: int, t: int, m: int) -> BoundCheck:
    """Count words I_1 O_1 ... I_t O_t of length n: l slow letters in t
    blocks alternating with t nonempty fast blocks over m fast symbols.

    The exact count is C(l-1,t-1) * C(n-l-1,t-1) * m^(n-l) (compositions
    of l and of n-l into t positive parts, free fast letters); it is
    checked against the cruder C(l,t-1) * C(n-l,t-1) * (m+1)^(n-l).
    """
    if not (1 <= t <= l and t <= n - l):
        raise ValueError("need 1 <= t <= l and t <= n - l")
    if l >= n:
        raise ValueError("alternation needs at least one fast letter (l < n)")
    if m < 1:
        raise ValueError("need at least one fast symbol")
    exact = comb(l - 1, t - 1) * comb(n - l - 1, t - 1) * m ** (n - l)
    bound = comb(l, t - 1) * comb(n - l, t - 1) * (m + 1) ** (n - l)
    return BoundCheck(name="block-pattern-count", lhs=exact, rhs=bound,
                      ok=exact <= bound, params={"n": n, "l": l, "t": t, "m": m})


def stirling_binomial_bound(l: int, t: int) -> BoundCheck:
    """Entropy-form binomial bound C(l,t) <= l^l / (t^t (l-t)^(l-t)).

    Verified exactly by cross-multiplying in integer arithmetic; the
    reported lhs/rhs are logarithms for readability.  Restricted to
    1 <= t < l/2, the regime used by the block-pattern counts.
    """
    if not (1 <= t and 2 * t < l):
        raise ValueError("comparison is stated for 1 <= t < l/2")
    lhs_int = comb(l, t) * t ** t * (l - t) ** (l - t)
    rhs_int = l ** l
    return BoundCheck(name="stirling-binomial", lhs=log(comb(l, t)),
                      rhs=l * log(l) - t * log(t) - (l - t) * log(l - t),
                      ok=lhs_int <= rhs_int, params={"l": l, "t": t})


def entropy_bound(l: int, t: int, tau: float, *, enforce: bool = True) -> BoundCheck:
    """log C(l,t) <= l (1+tau) kappa log(1/kappa) for kappa = t/l small.

    The comparison uses log C(l,t) <= t log(e l / t), which fits under the
    stated right side exactly when kappa <= kappa0(tau) = e^(-1/tau).
    ``enforce=False`` skips the kappa gate so the sharpness of kappa0 can
    be probed; expect failures beyond it.
    """
    if not (0 <= t <= l and l >= 1):
        raise ValueError("need 0 <= t <= l")
    if tau <= 0:
        raise ValueError("tau must be positive")
    kappa = t / l
    kappa0 = exp(-1.0 / tau)
    if enforce and kappa > kappa0:
        raise ValueError(f"kappa = {kappa:.6g} exceeds kappa0(tau) = {kappa0:.6g}")
    lhs = log(comb(l, t)) if t else 0.0
    rhs = l * (1 + tau) * kappa * log(1 / kappa) if t else 0.0
    return BoundCheck(name="binomial-entropy", lhs=lhs, rhs=rhs, ok=lhs <= rhs,
                      params={"l": l, "t": t, "tau": tau})


def prefactor_bound(l: int, t: int) -> BoundCheck:
    """Exact rational check ((4l+1)/(4l))^2 / ... <= t * pi, in the form
    (4l+1)^2 / (16 l^2) <= t * pi using the rational lower bound
    pi > 314159/100000."""
    if l < 1 or t < 1:
        raise ValueError("need l >= 1 and t >= 1")
    lhs = Fraction((4 * l + 1) ** 2, 16 * l ** 2)
    rhs = t * Fraction(314159, 100000)
    return BoundCheck(name="pattern-prefactor", lhs=float(lhs), rhs=float(rhs),
                      ok=lhs <= rhs, params={"l": l, "t": t})


# -------------------------------------------------- depth/parameter caps

def lt_constraints(n: int, l: int, t: int, mu: float, sigma: float) -> tuple:
    """Admissibility caps tying excursions to the parameter.

    Returns two checks: the fast-letter fraction (n-l)/l <= mu/(8 log sigma)
    and the block fraction t/l <= mu/(-4 log mu).
    """
    if not (1 <= l < n and t >= 1):
        raise ValueError("need 1 <= l < n and t >= 1")
    if not (0 < mu < 1 and sigma > 1):
        raise ValueError("need 0 < mu < 1 and sigma > 1")
    cap_outside = mu / (8.0 * log(sigma))
    cap_blocks = mu / (-4.0 * log(mu))
    outside = BoundCheck(name="fast-letter-fraction", lhs=(n - l) / l,
                         rhs=cap_outside, ok=(n - l) / l <= cap_outside,
                         params={"n": n, "l": l, "mu": mu, "sigma": sigma})
    blocks = BoundCheck(name="block-fraction", lhs=t / l, rhs=cap_blocks,
                        ok=t / l <= cap_blocks,
                        params={"l": l, "t": t, "mu": mu})
    return outside, blocks


def delta_bound(n: int, mu: float) -> float:
    """Depth-volume envelope mu/(-4 log mu) * n^2 * exp(-mu n/4)."""
    if not 0 < mu < 1:
        raise ValueError("envelope needs 0 < mu < 1")
    if n < 1:
        raise ValueError("depth must be at least 1")
    return mu / (-4.0 * log(mu)) * n * n * exp(-mu * n / 4.0)


def delta_peak(mu: float) -> float:
    """Depth of the envelope's maximum, n = 8/mu."""
    if not 0 < mu < 1:
        raise ValueError("envelope needs 0 < mu < 1")
    return 8.0 / mu


def depth_threshold(mu_f: float, mu: float, n_max: int = 200_000) -> int | None:
    """Smallest depth past the envelope peak with delta(n, mu) < mu_f.

    None when no depth up to n_max qualifies.  This is the depth at which
    the envelope certifies the slow set is smaller than the hole.
    """
    if mu_f <= 0:
        raise ValueError("hole volume must be positive")
    start = max(1, int(np.ceil(delta_peak(mu))))
    for n in range(start, n_max + 1):
        if delta_bound(n, mu) < mu_f:
            return n
    return None


def lemma_cell_bound(l: int, t: int, mu: float) -> BoundCheck:
    """Claimed per-cell count bound log C(l, t-1) <= (13/32) mu l.

    Checked as stated.  This inequality genuinely fails for moderate mu
    once l is large enough that the block cap admits t with
    log C(l, t-1) > (13/32) mu l; callers should treat a False result as
    information, not as a computation error.
    """
    if not (1 <= t <= l):
        raise ValueError("need 1 <= t <= l")
    if not 0 < mu < 1:
        raise ValueError("need 0 < mu < 1")
    lhs = log(comb(l, t - 1)) if t > 1 else 0.0
    rhs = (13.0 / 32.0) * mu * l
    return BoundCheck(name="cell-count-vs-volume", lhs=lhs, rhs=rhs,
                      ok=lhs <= rhs, params={"l": l, "t": t, "mu": mu})
