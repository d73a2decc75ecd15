"""Numerical laboratory for expanding maps with holes.

Box-counting dimension estimation, certified cylinder geometry, slow-set
volume envelopes, induced uniformly expanding maps, and exact
combinatorial bounds, over a small zoo of torus families built around a
neutral invariant circle born at an instability.
"""

from .badsets import (CrossingPartition, DepthRow, WordCensus, a2_report,
                      enumerate_slow_words, measure_slow_fractions, sn_partition)
from .bounds import (BoundCheck, count_patterns, delta_bound, delta_peak,
                     depth_threshold, entropy_bound, lemma_cell_bound,
                     lt_constraints, prefactor_bound, stirling_binomial_bound)
from .config import ConfigError, SweepConfig, config_hash, parse_config
from .families import (DiazVianaFamily, HopfModel2D, HopfModel3D, LinearToy2D,
                       TrapRegion, TriplingToy, cylinder_trap, disk_trap,
                       escape_time, survivor_grid, verify_trap)
from .geometry import (DimensionEstimate, Region, box_dimension, box_indices,
                       counts_from_survivors, lebesgue_estimate, wrap)
from .holes import (CylinderGeometry, MapWithHoles, check_word, pullback_witnesses,
                    refine_cylinder)
from .induced import (ExpansionCheck, InducedExpander, InducedHole,
                      build_induced, induced_hole_volume, verify_expansion)
from .profiles import (PhiProfile, ProfileError, build_phi, circle_radius, profile_3d,
                       vertical_ramp)
from .sweeps import cmd_a2, cmd_bounds, cmd_dim, cmd_induced, hole_survivors, make_family, sweep_all

__version__ = "0.1.0"

__all__ = [
    "CrossingPartition", "DepthRow", "WordCensus", "a2_report",
    "enumerate_slow_words", "measure_slow_fractions", "sn_partition",
    "BoundCheck", "count_patterns", "delta_bound", "delta_peak",
    "depth_threshold", "entropy_bound", "lemma_cell_bound", "lt_constraints",
    "prefactor_bound", "stirling_binomial_bound",
    "ConfigError", "SweepConfig", "config_hash", "parse_config",
    "DiazVianaFamily", "HopfModel2D", "HopfModel3D", "LinearToy2D",
    "TrapRegion", "TriplingToy", "cylinder_trap", "disk_trap", "escape_time",
    "survivor_grid", "verify_trap",
    "DimensionEstimate", "Region", "box_dimension", "box_indices",
    "counts_from_survivors", "lebesgue_estimate", "wrap",
    "CylinderGeometry", "MapWithHoles", "check_word",
    "pullback_witnesses", "refine_cylinder",
    "ExpansionCheck", "InducedExpander", "InducedHole", "build_induced",
    "induced_hole_volume", "verify_expansion",
    "PhiProfile", "ProfileError", "build_phi",
    "circle_radius", "profile_3d", "vertical_ramp",
    "cmd_a2", "cmd_bounds", "cmd_dim", "cmd_induced", "hole_survivors", "make_family",
    "sweep_all",
]
