"""
A tour of the map families
==========================

Four families live in this package, all sharing one protocol (step and
hole membership; jacobian data and symbolic itineraries where available):

* ``tripling``   -- the middle-thirds toy, everything exact;
* ``hopf2d``     -- a planar map losing an invariant circle at mu = 0;
* ``hopf3d``     -- the same core with a contracting vertical direction;
* ``diaz-viana`` -- a skew-product whose slow set is provably empty.

This script prints the quantities a sweep needs for each: hole size,
per-symbol expansion floors, and the default crossing threshold, across
a few parameter values including the degenerate side mu <= 0 where the
hole vanishes and every orbit survives.
"""

import argparse

from repeller_lab import DiazVianaFamily, HopfModel2D, TriplingToy, make_family


def describe(model) -> None:
    knob = f" (mu = {model.mu})" if hasattr(model, "mu") else ""
    print(f"\n--- {model.label}{knob} ---")
    print(f"  ambient dim d = {model.d}   branches = {model.n_branches}")
    print(f"  hole volume mu_f = {model.mu_f:.8f}")
    if hasattr(model, "rho_inv"):
        print(f"  rho_inv = {model.rho_inv:.8f}   sigma = {float(model.sigma):.6f}")
    if hasattr(model, "lambda_min"):
        floors = [model.lambda_min(j) for j in range(model.n_branches)]
        head = ", ".join(f"{v:.4f}" for v in floors[:4])
        tail = "" if model.n_branches <= 4 else f", ... ({model.n_branches} symbols)"
        print(f"  expansion floors lambda_min: {head}{tail}")
        if hasattr(model, "c0"):
            print(f"  default crossing threshold c0 * mu_f = "
                  f"{model.c0 * model.mu_f:.8f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--mu", type=float, nargs="*", default=[0.1, 0.01, 0.0, -0.05],
                    help="parameter values for the planar family")
    args = ap.parse_args()

    describe(TriplingToy())

    for mu in args.mu:
        model = HopfModel2D(mu)
        describe(model)
        if mu <= 0:
            # No invariant circle yet: the hole is empty, nothing escapes,
            # and the box dimension of the survivor set is exactly d.
            print("  (mu <= 0: hole radius 0, survivor set = whole square)")

    describe(DiazVianaFamily(0.5))

    # The factory used by sweeps accepts the same knobs as the constructors.
    custom = make_family("hopf2d", 0.05, {"slope": 80.0})
    print(f"\nfactory check: make_family('hopf2d', 0.05, slope=80) "
          f"-> mu_f = {custom.mu_f:.8f}")


if __name__ == "__main__":
    main()
