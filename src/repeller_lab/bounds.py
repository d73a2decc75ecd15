"""Exact combinatorial counts and decay bounds for deep survivor words.

Words that spend most of their time in the slow branch but make a few
excursions are counted by block patterns: l letters of the slow symbol in
t maximal blocks, alternating with t blocks of fast symbols.  Everything
here is checked in exact integer arithmetic where possible; floating point
enters through logarithms of exact integers, and as a screen only where its
error bound is stated and certified (``stirling_binomial_bound``).

The headline object is ``delta_bound``, the depth-volume envelope

    delta(n, mu) = mu / (-4 log mu) * n^2 * exp(-mu n / 4),

which rises to a peak near n = 8/mu and then decays exponentially; the
measured volume of the slow set at depth n is compared against it.

The Stirling, prefactor, entropy and lemma bounds each compute a cell in
one kernel, which takes the cell's exact binomial and its row's constants.
The scalar functions validate one cell, call ``comb`` and wrap the
kernel's result in a ``BoundCheck``; the row walks (``stirling_row`` and
its kin) validate a whole row once and step the binomial along it as
C(l, k+1) = C(l, k) (l-k) // (k+1).  That division is exact, so each
step gives the very integer ``comb`` gives, ``log`` of it the same float,
and every float the kernel derives from it and from the row's constants
(computed by the same expressions, in the same order) the same bits: a
row walk and the scalar function agree bit for bit on every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import ceil, comb, exp, log

__all__ = [
    "BoundCheck",
    "block_cap",
    "count_patterns",
    "delta_bound",
    "delta_peak",
    "depth_threshold",
    "entropy_bound",
    "entropy_row",
    "fast_letter_cap",
    "lemma_cell_bound",
    "lemma_row",
    "lt_constraints",
    "prefactor_bound",
    "prefactor_row",
    "stirling_binomial_bound",
    "stirling_row",
]


@dataclass(slots=True)
class BoundCheck:
    """One verified inequality: lhs <= rhs (or == for identities).

    lhs and rhs are exact ints for integer counts (``count_patterns``) and
    floats otherwise; the ints may lie far beyond float range.  Slotted
    and not frozen, because the bound suite makes one per cell and a
    frozen dataclass's __init__ is about three times slower; nothing assigns
    to a check once it is made.
    """

    name: str
    lhs: int | float
    rhs: int | float
    ok: bool
    params: dict

    def __str__(self):
        verdict = "ok" if self.ok else "VIOLATED"
        return f"{self.name}{self.params}: {_g6(self.lhs)} <= {_g6(self.rhs)} [{verdict}]"


def _g6(x) -> str:
    """``x`` to six significant digits; an int past float range is rounded
    exactly (half to even) by Decimal instead of through a float."""
    try:
        return f"{x:.6g}"
    except OverflowError:
        with localcontext() as ctx:
            ctx.prec = 6
            return f"{(+Decimal(x)).normalize():g}"


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


# Relative error allowance of the Stirling float screen; see
# stirling_binomial_bound for the bound it covers.
_LOG_SCREEN = 2.0 ** -40


def stirling_binomial_bound(l: int, t: int) -> BoundCheck:
    """Entropy-form binomial bound C(l,t) <= l^l / (t^t (l-t)^(l-t)).

    The reported lhs/rhs are the logarithms L = log C(l,t) and
    R = A - B - C with A = l log l, B = t log t, C = (l-t) log(l-t), all
    in double precision.  The verdict is exact: a cell is accepted from
    these floats only when R - L > 2^-40 (A + L + 1), and every other cell
    is decided by cross-multiplying in integer arithmetic.

    The screen is certified as follows, with u = 2^-53 and math.log
    within one ulp (2u relative) of the true logarithm:

    * L: rounding C(l,t) to a float moves its logarithm by at most u,
      and the log adds 2u|L|.  Past float range CPython takes
      log(m) + e log 2 from C(l,t) = m 2^e, which stays within
      4u|L| + 5u.  So L is within 4u|L| + 5u.
    * R: each product k * log(k) is within 3u of its value relative to
      it, and the two subtractions add u|A - B| + u|R|.  Since B + C <= A
      and 0 <= R <= A, the total is at most 3u(A + B + C) + 2uA <= 8uA.

    So |(R - L) - (true R - true L)| <= 8uA + 4uL + 5u + u|R - L|
    <= 16u (A + L + 1), which is 512 times smaller than the screen's
    margin; the margin also absorbs a libm that is off by hundreds of
    ulps.  The true gap R - L grows like (1/2) log t; for l <= 3000 it is
    never below 2 log(3/2) = 0.81 (l = 3, t = 1), so the screen decides
    every such cell.  Restricted to 1 <= t < l/2, the regime used by the
    block-pattern counts.
    """
    if not (1 <= t and 2 * t < l):
        raise ValueError("comparison is stated for 1 <= t < l/2")
    lhs, rhs, ok = _stirling(l, t, comb(l, t), l * log(l))
    return BoundCheck(name="stirling-binomial", lhs=lhs, rhs=rhs, ok=ok,
                      params={"l": l, "t": t})


def _stirling(l: int, t: int, c: int, a: float) -> tuple:
    """(lhs, rhs, ok) of stirling_binomial_bound from c = C(l,t) and a = l log l."""
    lhs = log(c)
    rhs = a - t * log(t) - (l - t) * log(l - t)
    return lhs, rhs, (rhs - lhs > _LOG_SCREEN * (a + lhs + 1)
                      or c * t ** t * (l - t) ** (l - t) <= l ** l)


def stirling_row(l: int, t_max: int):
    """stirling_binomial_bound(l, t) for t = 1, ..., t_max as (lhs, rhs, ok)."""
    if not (0 <= t_max and 2 * t_max < l):
        raise ValueError("comparison is stated for 1 <= t < l/2")
    a, c = l * log(l), l
    for t in range(1, t_max + 1):
        yield _stirling(l, t, c, a)
        c = c * (l - t) // (t + 1)


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
    if enforce:
        _check_kappa(l, t, tau)
    lhs, rhs, ok = _entropy(l, t, comb(l, t), l * (1 + tau))
    return BoundCheck(name="binomial-entropy", lhs=lhs, rhs=rhs, ok=ok,
                      params={"l": l, "t": t, "tau": tau})


def _check_kappa(l: int, t: int, tau: float):
    kappa, kappa0 = t / l, exp(-1.0 / tau)
    if kappa > kappa0:
        raise ValueError(f"kappa = {kappa:.6g} exceeds kappa0(tau) = {kappa0:.6g}")


def _entropy(l: int, t: int, c: int, scale: float) -> tuple:
    """(lhs, rhs, ok) of entropy_bound from c = C(l,t) and scale = l (1+tau)."""
    if not t:
        return 0.0, 0.0, True
    kappa = t / l
    lhs = log(c)
    rhs = scale * kappa * log(1 / kappa)
    return lhs, rhs, lhs <= rhs


def entropy_row(l: int, t_max: int, tau: float):
    """entropy_bound(l, t, tau) for t = 0, ..., t_max as (lhs, rhs, ok); the
    kappa gate is checked at t_max, the row's largest kappa."""
    if not (0 <= t_max <= l and l >= 1):
        raise ValueError("need 0 <= t <= l")
    if tau <= 0:
        raise ValueError("tau must be positive")
    _check_kappa(l, t_max, tau)
    scale, c = l * (1 + tau), 1
    for t in range(t_max + 1):
        yield _entropy(l, t, c, scale)
        c = c * (l - t) // (t + 1)


def prefactor_bound(l: int, t: int) -> BoundCheck:
    """Exact check (4l+1)^2 / (16 l^2) <= t * pi, using the rational lower
    bound pi > 314159/100000, as the integer comparison
    (4l+1)^2 * 100000 <= 16 l^2 * t * 314159.

    The reported lhs/rhs are the two ratios as correctly rounded int/int
    divisions, so they equal the floats of the reduced fractions.
    """
    if l < 1 or t < 1:
        raise ValueError("need l >= 1 and t >= 1")
    lhs, rhs, ok = _prefactor((4 * l + 1) ** 2, 16 * l * l, t)
    return BoundCheck(name="pattern-prefactor", lhs=lhs, rhs=rhs, ok=ok,
                      params={"l": l, "t": t})


def _prefactor(num: int, den: int, t: int) -> tuple:
    """(lhs, rhs, ok) of prefactor_bound from num = (4l+1)^2 and den = 16 l^2."""
    return num / den, t * 314159 / 100000, num * 100000 <= den * t * 314159


def prefactor_row(l: int, t_max: int):
    """prefactor_bound(l, t) for t = 1, ..., t_max as (lhs, rhs, ok); lhs
    depends on l alone and rhs on t alone."""
    if l < 1:
        raise ValueError("need l >= 1 and t >= 1")
    num, den = (4 * l + 1) ** 2, 16 * l * l
    for t in range(1, t_max + 1):
        yield _prefactor(num, den, t)


# -------------------------------------------------- depth/parameter caps

def block_cap(mu: float) -> float:
    """Largest admissible block fraction t/l at parameter mu: mu/(-4 log mu)."""
    return mu / (-4.0 * log(mu))


def fast_letter_cap(mu: float, sigma: float) -> float:
    """Largest admissible fast-letter fraction (n-l)/l: mu/(8 log sigma)."""
    return mu / (8.0 * log(sigma))


def lt_constraints(n: int, l: int, t: int, mu: float, sigma: float) -> tuple:
    """Admissibility caps tying excursions to the parameter.

    Returns two checks: the fast-letter fraction (n-l)/l <= mu/(8 log sigma)
    and the block fraction t/l <= mu/(-4 log mu).
    """
    if not (1 <= l < n and t >= 1):
        raise ValueError("need 1 <= l < n and t >= 1")
    if not (0 < mu < 1 and sigma > 1):
        raise ValueError("need 0 < mu < 1 and sigma > 1")
    cap_outside = fast_letter_cap(mu, sigma)
    cap_blocks = block_cap(mu)
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
    return block_cap(mu) * n * n * exp(-mu * n / 4.0)


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
    start = max(1, ceil(delta_peak(mu)))
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
    lhs, rhs, ok = _lemma(t, comb(l, t - 1), (13.0 / 32.0) * mu * l)
    return BoundCheck(name="cell-count-vs-volume", lhs=lhs, rhs=rhs,
                      ok=ok, params={"l": l, "t": t, "mu": mu})


def _lemma(t: int, c: int, rhs: float) -> tuple:
    """(lhs, rhs, ok) of lemma_cell_bound from c = C(l,t-1) and rhs = (13/32) mu l."""
    lhs = log(c) if t > 1 else 0.0
    return lhs, rhs, lhs <= rhs


def lemma_row(l: int, t_max: int, mu: float):
    """lemma_cell_bound(l, t, mu) for t = 1, ..., t_max as (lhs, rhs, ok);
    rhs depends on l and mu alone."""
    if not (0 <= t_max <= l):
        raise ValueError("need 1 <= t <= l")
    if not 0 < mu < 1:
        raise ValueError("need 0 < mu < 1")
    rhs, c = (13.0 / 32.0) * mu * l, 1
    for t in range(1, t_max + 1):
        yield _lemma(t, c, rhs)
        c = c * (l - t + 1) // t
