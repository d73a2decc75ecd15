"""Per-layer trace of one driver run, taken from outside the program.

``Tracer.install`` wraps the public functions and model methods of each
``repeller_lab`` module by patching the name at its call site (for example
``repeller_lab.badsets.refine_cylinder`` or ``HopfModel2D.step``).  The
patches live only in the process that installs them and are undone by
``Tracer.uninstall``; nothing under ``src/`` changes.

Each wrapped call records a span (name, start, end, parent) in memory and
may add to named counters.  A span's self time is its duration minus the
time its child spans cover.  The root span is the ``cli.main`` call; its
self time is ``sweeps.self_s``, the driver time no layer span covers
(config parsing, row assembly, CSV/JSON/SVG formatting and writes).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import Counter
from pathlib import Path

ROOT_SPAN = "sweeps.self"

# Layer spans; each reports "<name>_s", its self time in seconds.
SPANS = (
    "families.step", "families.trap_contains", "families.escape_time",
    "families.cell_margin", "families.lip_bound", "families.symbol_of",
    "families.inverse_branch", "families.jacobian", "families.model_init",
    "geometry.box_count", "geometry.fit",
    "holes.refine", "holes.pullback", "holes.itinerary",
    "badsets.census", "badsets.mc", "badsets.partition",
    "induced.build", "induced.floor_margin", "induced.verify", "induced.hole_mc",
    "bounds.count_patterns", "bounds.stirling", "bounds.prefactor",
    "bounds.entropy", "bounds.lemma", "bounds.chain",
    ROOT_SPAN,
)

# Counters: (name, unit, better).  Counts of work repeat exactly between
# runs of one config and seed.
COUNTS = (
    ("families.step_calls", "count", "lower"),
    ("families.step_points", "count", "lower"),
    ("families.step_mb_computed", "MB", "lower"),
    ("families.cell_margin_points", "count", "lower"),
    ("families.inverse_branch_points", "count", "lower"),
    ("families.model_inits", "count", "lower"),
    ("geometry.survivors", "count", "lower"),
    ("geometry.box_count_points", "count", "lower"),
    ("holes.refine_calls", "count", "lower"),
    ("holes.refine_boxes_kept_ratio", "ratio", "higher"),
    ("holes.witness_yield", "ratio", "higher"),
    ("profiles.build_phi_calls", "count", "lower"),
    ("badsets.census_visited", "count", "lower"),
    ("badsets.census_kept", "count", "lower"),
    ("badsets.census_pruned", "count", "higher"),
    ("badsets.mc_samples", "count", "lower"),
    ("badsets.partition_words", "count", "lower"),
    ("induced.domain_pieces", "count", "lower"),
    ("induced.returns_checked", "count", "higher"),
    *((f"bounds.{suite}_cells", "count", "lower") for suite in
      ("count_patterns", "stirling", "prefactor", "entropy", "lemma", "chain")),
    ("bounds.cells_failed", "count", "lower"),
    ("sweeps.out_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics() -> list[dict]:
    """The per-layer metric declarations, in report order."""
    timed = [{"name": f"{s}_s", "unit": "s", "better": "lower"} for s in SPANS]
    return timed + [{"name": n, "unit": u, "better": b} for n, u, b in COUNTS]


class Tracer:
    """In-memory spans and counters for one traced driver run."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn`` inside a span.  Threads without an open span (the
        dim driver's row pool) hang their spans under the root span."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        if parent is None:
            self._root = index
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index][1:3] = start, end

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def write(self, path: Path) -> None:
        """All spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")

    # --------------------------------------------------------- patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr`` in a span; ``count(counts, args, kwargs,
        result)`` runs after each call, outside the span."""
        fn = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, count) -> None:
        """Wrap ``owner.attr`` for counting only, with no span of its own,
        so its time stays in the caller's self time."""
        fn = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Patch every layer boundary of the imported repeller_lab package."""
        from repeller_lab import badsets, families, holes, induced, sweeps

        def calls(name):
            def count(c, args, kwargs, result):
                c[name] += 1
            return count

        def points(name, index):
            def count(c, args, kwargs, result):
                c[name] += len(args[index])
            return count

        def step(c, args, kwargs, result):
            c["families.step_calls"] += 1
            c["families.step_points"] += len(args[1])
            c["families.step_mb_computed"] += (getattr(args[1], "nbytes", 0) + result.nbytes) / 1e6

        methods = (("step", "families.step", step),
                   ("cell_margin", "families.cell_margin", points("families.cell_margin_points", 2)),
                   ("lip_bound", "families.lip_bound", None),
                   ("symbol_of", "families.symbol_of", None),
                   ("inverse_branch", "families.inverse_branch",
                    points("families.inverse_branch_points", 2)),
                   ("jacobian_matrices", "families.jacobian", None),
                   ("__init__", "families.model_init", calls("families.model_inits")))
        for cls in (families._TenBranchTorus, families.LinearToy2D, families.HopfModel2D,
                    families.HopfModel3D, families.TriplingToy, families.DiazVianaFamily):
            for attr, name, count in methods:
                if attr in vars(cls):
                    self.span(cls, attr, name, count)

        def traced_trap(factory):
            def wrapper(*args, **kwargs):
                trap = factory(*args, **kwargs)
                contains = trap.contains
                return dataclasses.replace(trap, contains=lambda pts: self.call(
                    "families.trap_contains", contains, (pts,)))
            return wrapper

        for attr in ("disk_trap", "cylinder_trap"):
            self._patch(families, attr, traced_trap(getattr(families, attr)))
        self.span(families, "escape_time", "families.escape_time")
        self.counter(families, "build_phi", calls("profiles.build_phi_calls"))

        def survivors(c, args, kwargs, result):
            c["geometry.survivors"] += len(result)

        def box_points(c, args, kwargs, result):
            c["geometry.box_count_points"] += len(args[0]) * len(result)

        for attr in ("survivor_grid", "hole_survivors"):
            self.counter(sweeps, attr, survivors)
        self.span(sweeps, "counts_from_survivors", "geometry.box_count", box_points)
        self.span(sweeps, "box_dimension", "geometry.fit")

        def refine(c, args, kwargs, result):
            c["holes.refine_calls"] += 1
            c["holes.refine_boxes_kept"] += len(result.boxes)

        def candidates(c, args, kwargs, result):
            c["holes.refine_boxes_candidate"] += len(result[0])

        def witnesses(c, args, kwargs, result):
            c["holes.witnesses"] += len(result)
            c["holes.witness_targets"] += kwargs.get("targets", 12)

        self.span(badsets, "refine_cylinder", "holes.refine", refine)
        self.counter(holes, "_candidate_centers", candidates)
        for module in (holes, induced):
            self.span(module, "pullback_witnesses", "holes.pullback", witnesses)
        self.span(holes.MapWithHoles, "itinerary", "holes.itinerary")

        def census(c, args, kwargs, result):
            c["badsets.census_visited"] += result.visited
            c["badsets.census_kept"] += len(result.kept)
            c["badsets.census_pruned"] += result.pruned

        def mc(c, args, kwargs, result):
            c["badsets.mc_samples"] += kwargs.get("samples", 100_000)

        def partition(c, args, kwargs, result):
            c["badsets.partition_words"] += sum(map(len, result.groups)) + len(result.remainder)

        self.span(badsets, "enumerate_slow_words", "badsets.census", census)
        self.span(badsets, "measure_slow_fractions", "badsets.mc", mc)
        self.span(induced, "sn_partition", "badsets.partition", partition)

        def domain(c, args, kwargs, result):
            c["induced.domain_pieces"] += len(result.words)

        def returns(c, args, kwargs, result):
            c["induced.returns_checked"] += result.checked

        self.span(sweeps, "build_induced", "induced.build", domain)
        self.span(induced.InducedExpander, "floor_margin", "induced.floor_margin")
        self.span(sweeps, "verify_expansion", "induced.verify", returns)
        self.span(sweeps, "induced_hole_volume", "induced.hole_mc")

        def cells(suite):
            def count(c, args, kwargs, result):
                checks = result if isinstance(result, tuple) else (result,)
                c[f"bounds.{suite}_cells"] += len(checks)
                if kwargs.get("enforce", True):
                    c["bounds.cells_failed"] += sum(not getattr(bc, "ok", True) for bc in checks)
            return count

        for attr, suite in (("count_patterns", "count_patterns"),
                            ("stirling_binomial_bound", "stirling"),
                            ("prefactor_bound", "prefactor"), ("entropy_bound", "entropy"),
                            ("lemma_cell_bound", "lemma"), ("lt_constraints", "chain"),
                            ("delta_bound", "chain")):
            self.span(sweeps, attr, f"bounds.{suite}", cells(suite))

    # ----------------------------------------------------------- report

    def metrics(self, out_bytes: int, overhead_frac: float) -> dict:
        """Every per-layer metric; a layer the driver never reached reads 0."""
        selfs = self.self_times()
        c = self.counts
        derived = {
            "holes.refine_boxes_kept_ratio":
                c["holes.refine_boxes_kept"] / c["holes.refine_boxes_candidate"]
                if c["holes.refine_boxes_candidate"] else 0.0,
            "holes.witness_yield":
                c["holes.witnesses"] / c["holes.witness_targets"] if c["holes.witness_targets"] else 0.0,
            "sweeps.out_bytes": out_bytes,
            "trace.overhead_frac": overhead_frac,
        }
        out = {f"{s}_s": {"value": selfs[s], "unit": "s"} for s in SPANS}
        for name, unit, _ in COUNTS:
            out[name] = {"value": derived.get(name, c[name]), "unit": unit}
        return out
