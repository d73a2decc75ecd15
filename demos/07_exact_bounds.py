"""
The exact-arithmetic bound suite
================================

Counting slow itineraries reduces to a chain of combinatorial
inequalities, and every link is checked here with exact integers --
floats appear only after an inequality already holds, or as a screen
whose error bound is certified.  The
suite reports honestly: one entropy probe is *meant* to fail (it marks
where the estimate stops being valid), and one lemma-style cell bound
genuinely fails at deep cells, which the package reports rather than
papers over.
"""

import argparse

from repeller_lab import (
    count_patterns,
    delta_bound,
    entropy_bound,
    lemma_cell_bound,
    lt_constraints,
    prefactor_bound,
    stirling_binomial_bound,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--mu", type=float, default=0.1)
    args = ap.parse_args()

    # 1. Pattern counting: the bound dominates a brute-force enumeration.
    print("pattern-count bound vs exact enumeration (m = 9 letters):")
    for (n, l, t) in [(8, 6, 2), (12, 9, 3), (16, 12, 2)]:
        chk = count_patterns(n, l, t, 9)
        print(f"  n={n:2d} l={l:2d} t={t}: exact {chk.lhs:>10} <= "
              f"bound {chk.rhs:>14}   ok={chk.ok}")

    # 2. Stirling-flavoured binomial bound: a certified float screen,
    # exact big integers wherever the screen cannot decide.
    print("\nbinomial C(l,t) * t^t * (l-t)^(l-t) <= l^l (big-int exact):")
    for (l, t) in [(50, 7), (500, 60), (4000, 123)]:
        chk = stirling_binomial_bound(l, t)
        print(f"  l={l:4d} t={t:3d}: ok={chk.ok}")

    # 3. Entropy-style bound with its honest failure probe.
    ok = entropy_bound(400, 40, 1.0)
    probe = entropy_bound(400, 80, 0.5, enforce=False)
    print(f"\nentropy bound ln C(l,t) <= l(1+tau) kappa ln(1/kappa):")
    print(f"  valid cell  (l=400, t=40, tau=1.0): ok={ok.ok}")
    print(f"  sharp probe (l=400, t=80, tau=0.5): ok={probe.ok}   "
          f"lhs={probe.lhs:.3f} rhs={probe.rhs:.3f}  <- fails by design")

    # 4. Prefactor comparison as one exact integer inequality.
    chk = prefactor_bound(100, 3)
    print(f"\nprefactor (4l+1)^2/(16 l^2) <= t*pi at l=100, t=3: ok={chk.ok}")

    # 5. The lemma-style per-cell bound: true on shallow grids, and
    # *genuinely false* at deep admissible cells.  Honesty over tidiness.
    good = lemma_cell_bound(2000, 1, 0.01)
    bad = lemma_cell_bound(369, 4, args.mu)
    print(f"\nper-cell bound ln C(l, t-1) <= (13/32) mu l:")
    print(f"  mu=0.01, l=2000, t=1: ok={good.ok}  (at mu=0.01 only t=1 is "
          f"admissible for l<=2000,\n   and there lhs = ln C(l,0) = 0: the "
          f"shallow grid passes trivially)")
    print(f"  mu={args.mu}, l=369, t=4: ok={bad.ok}   "
          f"lhs={bad.lhs:.3f} rhs={bad.rhs:.3f}")
    caps = lt_constraints(373, 369, 4, args.mu, 10.0 ** 0.5)
    print(f"  admissible at mu={args.mu}? {all(c.ok for c in caps)}  "
          "-> the failure is inside the admissible range: "
          "a real counterexample.")

    # 6. The depth envelope: rises to a peak near 8/mu, then dies fast.
    peak = int(8 / args.mu)
    tail = next(n for n in range(peak, 100 * peak)
                if delta_bound(n, args.mu) < 1e-6)
    print(f"\ndepth envelope delta(n) at mu={args.mu}: "
          f"peak near n={peak} (delta={delta_bound(peak, args.mu):.3e}), "
          f"drops below 1e-6 by n={tail}")


if __name__ == "__main__":
    main()
