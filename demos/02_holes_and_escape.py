"""
Holes, traps, and escape times
==============================

An open system is a map plus a region that swallows orbits.  This script
looks at the planar bifurcation family near its onset: the hole is a
disk around the origin whose radius grows like sqrt(mu), and the trap is
a smaller concentric disk used to flag orbits that head for the
attracting circle rather than escaping.

We measure three things as the horizon grows:

* the fraction of a uniform grid still alive (survivors),
* the distribution of escape times (how long typical points last),
* a Monte Carlo estimate of the hole's area against the exact formula.
"""

import argparse

import numpy as np

from repeller_lab import HopfModel2D, escape_time, lebesgue_estimate, survivor_grid


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--mu", type=float, default=0.1, help="bifurcation parameter")
    ap.add_argument("--grid", type=int, default=512, help="grid cells per axis")
    ap.add_argument("--budget", type=int, default=200_000,
                    help="Monte Carlo samples for the hole area")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = HopfModel2D(args.mu)
    print(f"family: {model.label}   mu = {model.mu}")
    print(f"invariant-circle radius rho_inv = {model.rho_inv:.6f}")
    print(f"hole area mu_f = {model.mu_f:.6f} (exact pi * rho_inv**2)")

    # Monte Carlo check of the hole area.  The estimate should bracket the
    # exact value within its reported half-width.
    vol, half = lebesgue_estimate(model.hole, args.budget, seed=args.seed)
    print(f"Monte Carlo hole area: {vol:.6f} +/- {half:.6f}   "
          f"(exact inside the interval: {abs(vol - model.mu_f) <= half})")

    # Survivor fraction versus horizon: a crude escape-rate curve.  The trap
    # (default: half the circle radius) removes orbits that converge inward.
    print("\n horizon   survivors   fraction")
    for horizon in (5, 20, 80, 320):
        pts = survivor_grid(model, args.grid, horizon)
        frac = pts.shape[0] / float(args.grid ** model.d)
        print(f"  {horizon:6d}   {pts.shape[0]:9d}   {frac:.6f}")

    # Trap-entry times over a uniform cloud: most of the square falls into
    # the trap quickly -- the repeller separating escapers from survivors
    # is thin, so long-lived points are rare.
    rng = np.random.default_rng(args.seed)
    cloud = rng.uniform(0.0, 1.0, size=(50_000, model.d))
    survives, steps = escape_time(model, cloud, 64)
    caught = steps[~survives]
    print("\ntrap-entry times over a 50k cloud, horizon 64:")
    print(f"  entered the trap: {caught.size}   survived: {np.count_nonzero(survives)}")
    if caught.size:
        qs = np.percentile(caught, [50, 90, 99])
        print(f"  median {qs[0]:.0f}   90th {qs[1]:.0f}   99th {qs[2]:.0f}")


if __name__ == "__main__":
    main()
