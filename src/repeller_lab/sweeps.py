"""Sweep drivers: dimension runs, bound suites, slow-set reports, induced maps.

Each driver reads its config mapping into a validated view (config.py)
before it creates the output directory, writes CSV/JSON/SVG files there,
and returns a process exit code (0 = pass or advisory, 1 = a mathematical
bound was violated; a malformed config raises ConfigError, which the
command-line wrapper maps to 2).  Outputs embed the resolved config and
its hash; wall-clock timings go to a .log sidecar so the data files are
byte-identical across reruns.  Dim rows are independent and run on a
bounded thread pool; all writing happens on the calling thread after a
deterministic sort.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .badsets import a2_report
# The per-cell bound functions are imported beside their row walks because
# perfbench/spans.py traces them by name at this call site; the driver
# itself calls only entropy_bound, for the sharpness probe.
from .bounds import (block_cap, count_patterns, delta_bound, depth_threshold,
                     entropy_bound, entropy_row, fast_letter_cap, lemma_cell_bound,
                     lemma_row, lt_constraints, prefactor_bound, prefactor_row,
                     stirling_binomial_bound, stirling_row)
from .config import (KNOWN_FAMILIES, A2Config, BoundsConfig, ConfigError,
                     InducedConfig, SweepConfig, config_hash, config_header,
                     make_family, read_family)
from .families import survivor_grid, verify_trap
from .geometry import box_dimension, counts_from_survivors, grid_centers
from .holes import first_entry
from .induced import build_induced, induced_hole_volume, verify_expansion
from .svgplot import SvgPlot


# ----------------------------------------------------------------- plumbing

def _fmt_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value).replace(",", ";")


def _csv_line(row: dict, columns) -> str:
    """One CSV data line (newline included) of ``row``'s ``columns``,
    each cell formatted by _fmt_cell."""
    return ",".join(map(_fmt_cell, map(row.get, columns))) + "\n"


def _write_csv(path: Path, header_lines, columns, lines):
    """Write the commented header, the column line and then each data line
    of the iterable ``lines`` as it arrives."""
    with path.open("w") as fh:
        for ln in header_lines:
            fh.write(f"# {ln}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def _mu_tag(mu: float) -> str:
    return f"{mu:g}".replace("-", "m")


class _Run:
    """One driver run: makes the output directory ``dir`` and keeps its timing
    sidecar ``<name>.log``, the only output allowed to differ between runs."""

    def __init__(self, out: str, name: str):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / f"{name}.log"
        self.lines = [f"started {time.strftime('%Y-%m-%dT%H:%M:%S')}"]
        self._t0 = time.time()

    def note(self, message: str):
        self.lines.append(f"[{time.time() - self._t0:8.2f}s] {message}")

    def flush(self):
        self.lines.append(f"finished in {time.time() - self._t0:.2f}s")
        self.path.write_text("\n".join(self.lines) + "\n")


def cache_dir(out: Path, enabled: bool) -> Path | None:
    if not enabled:
        return None
    env = os.environ.get("REPELLER_LAB_CACHE")
    return Path(env) if env else out / ".cache"


def _checksum(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def cache_get(cdir: Path | None, key: str):
    """Cached payload, or None on miss/corruption (checksum verified)."""
    if cdir is None:
        return None
    try:
        blob = json.loads((cdir / f"{key}.json").read_text())
        return blob["payload"] if _checksum(blob["payload"]) == blob["checksum"] else None
    except (ValueError, KeyError, TypeError, OSError):  # TypeError: JSON that is not an object
        return None


def cache_put(cdir: Path | None, key: str, payload):
    if cdir is None:
        return
    cdir.mkdir(parents=True, exist_ok=True)
    blob = {"payload": payload, "checksum": _checksum(payload)}
    (cdir / f"{key}.json").write_text(json.dumps(blob, sort_keys=True))


# ------------------------------------------------------------- dim sweeps

# Part of every dim cache key: raise it whenever a dim row's computation
# changes, so a shared REPELLER_LAB_CACHE never serves rows of older code.
DIM_CACHE_VERSION = 4

_DIM_COLUMNS = ("mu", "mu_f", "rho_inv", "dimension", "ci", "slope_raw",
                "residual", "survivors", "badset_ref", "flags", "config_hash")


def hole_survivors(model, grid_n: int, horizon: int) -> np.ndarray:
    """Grid points whose orbit stays out of the hole for ``horizon`` steps."""
    pts = grid_centers(model.d, grid_n)
    survives = first_entry(model.step, pts, horizon, model.in_hole)[0]
    return pts.take(np.flatnonzero(survives), axis=0)


def _dim_row(sc: SweepConfig, mu: float, chash: str) -> dict:
    row = dict.fromkeys(_DIM_COLUMNS[1:7], float("nan"))
    row.update(mu=mu, survivors=0, badset_ref="", flags="", config_hash=chash)
    try:
        model = make_family(sc.family, mu, sc.knobs)
    except (ValueError, RuntimeError) as exc:
        row["flags"] = f"error:{exc}"
        return row
    flags = []
    mu_f = float(getattr(model, "mu_f", float("nan")))  # HopfModel3D has no hole volume
    rho = float(getattr(model, "rho_inv", float("nan")))
    trap = model.default_trap() if hasattr(model, "default_trap") else None
    # the orbits' absorber is the trap where the model has one, else the hole
    if model.hole is None if trap is None else trap.empty:
        flags.append("no-hole")
    if KNOWN_FAMILIES[sc.family].c0 and mu_f > 0:  # the families a2 reports on
        row["badset_ref"] = "a2.csv"
    if model.d == 3:
        flags.append("coarse")
    if trap is not None:
        # a trap that fails its forward-invariance check downgrades the
        # row to an advisory; its survivors are still counted against it
        if not verify_trap(model, trap):
            flags.append("trap-advisory")
        pts = survivor_grid(model, sc.grid_n, sc.horizon)
    else:
        pts = hole_survivors(model, sc.grid_n, sc.horizon)
    row.update(mu_f=mu_f, rho_inv=rho, survivors=len(pts))
    if len(pts) == 0:
        row["flags"] = "|".join(flags + ["error:empty survivor set"])
        return row
    pairs = counts_from_survivors(pts, sc.eps_base, sc.k_values)
    est = box_dimension(pairs, model.d)
    flags.extend(est.warnings)
    row.update(dimension=est.slope, ci=est.ci, slope_raw=est.slope_raw,
               residual=est.residual, flags="|".join(flags))
    return row


def cmd_dim(cfg: dict, *, jobs: int = 1, cache: bool = True) -> int:
    """Dimension-vs-parameter sweep: survivor grids, regressions, CSV/SVG."""
    sc = SweepConfig(cfg)
    resolved = sc.stamped("family", "mu_values", "eps_base", "k_values",
                          "grid_n", "horizon", "samples", "seed", "out")
    chash = config_hash(resolved)
    header = config_header("dim", resolved)
    probe = sc.model(0.05)  # knobs the family rejects at every mu are a config error
    if sc.family == "hopf2d":
        header += [f"derived: {name} = {float(getattr(probe, name))!r}"
                   for name in ("sigma", "alpha", "K", "c0")]
    run = _Run(sc.out, "dim")
    cdir = cache_dir(run.dir, cache)

    mus = sorted(sc.mu_values)
    keys = [f"dim-v{DIM_CACHE_VERSION}-{chash}-mu{_mu_tag(mu)}" for mu in mus]
    rows = [cache_get(cdir, key) for key in keys]
    for mu, key, row in zip(mus, keys, rows):
        if row is not None:
            run.note(f"mu={mu:g}: cache hit ({key})")

    def work(i):
        t0 = time.time()
        return _dim_row(sc, mus[i], chash), time.time() - t0

    pending = [i for i, row in enumerate(rows) if row is None]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for i, (row, dt) in zip(pending, pool.map(work, pending)):
            rows[i] = row
            cache_put(cdir, keys[i], row)
            run.note(f"mu={mus[i]:g}: computed in {dt:.2f}s")

    _write_csv(run.dir / "dim.csv", header, _DIM_COLUMNS,
               (_csv_line(row, _DIM_COLUMNS) for row in rows))

    plot = SvgPlot(title=f"box dimension vs mu ({sc.family})",
                   xlabel="mu", ylabel="box dimension")
    good = [r for r in rows if r and math.isfinite(r.get("dimension", float("nan")))]
    if good:
        xs = [r["mu"] for r in good]
        plot.errorbars(xs, [r["dimension"] for r in good],
                       [r["ci"] for r in good], label="BD estimate")
        plot.line(xs, [r["dimension"] for r in good])
    (run.dir / "dim.svg").write_text(plot.render())
    run.note(f"wrote {len(rows)} rows")
    run.flush()
    return 0


# ------------------------------------------------------------ bound suites

_BOUND_COLUMNS = ("check", "n", "l", "t", "mu", "exact", "bound", "pass")


class _BoundTally:
    """What bounds.json keeps of the cells that go past: their count, the
    number of failures, the first 100 failures and every expected failure
    (a sharpness probe that fails by design), as row dicts."""

    def __init__(self):
        self.cells = self.failures = 0
        self.failed: list[dict] = []
        self.expected: list[dict] = []

    def flag(self, verdict: str, *cells) -> str:
        """Keep a non-passing row (its _BOUND_COLUMNS before ``pass``) and
        return its verdict."""
        if verdict == "FAIL":
            self.failures += 1
            if len(self.failed) == 100:
                return verdict
        row = dict(zip(_BOUND_COLUMNS, (*cells, verdict)))
        (self.failed if verdict == "FAIL" else self.expected).append(row)
        return verdict


def _bound_lines(suite: BoundsConfig, run: _Run, tally: _BoundTally):
    """bounds.csv's data lines in order, each made as its cell is checked.

    Every cell has fixed types (check str; n, l, t int or None; mu float
    or None; exact, bound int or float), so one f-string per line gives
    what _csv_line gives: repr of each number and "" for None.  The
    Stirling, prefactor, entropy and lemma grids are checked a row at a
    time (bounds.stirling_row and its kin), and a number that is the same
    for a whole row, or for every row at one t, is formatted once.  Cells
    that do not pass go to ``tally``; each sub-suite leaves a note with
    its cells and its wall and CPU seconds in ``run``'s log.
    """
    t0, c0, cells = time.time(), time.process_time(), 0

    def note(label: str):
        nonlocal t0, c0, cells
        tally.cells += cells
        run.note(f"{label}: {cells} cells in {time.time() - t0:.2f}s wall, "
                 f"{time.process_time() - c0:.2f}s cpu")
        t0, c0, cells = time.time(), time.process_time(), 0

    cp_n, m = suite.grids["cp_n_max"], suite.alphabet_m
    for n in range(4, cp_n + 1):
        for l in range(1, n):
            for t in range(1, min(l, n - l) + 1):
                bc = count_patterns(n, l, t, m)
                verdict = "pass" if bc.ok else tally.flag(
                    "FAIL", "count_patterns", n, l, t, None, bc.lhs, bc.rhs)
                cells += 1
                yield f"count_patterns,{n},{l},{t},,{bc.lhs!r},{bc.rhs!r},{verdict}\n"
    note(f"count_patterns grid n<={cp_n}")

    st_l, pi_t = suite.grids["st_l_max"], [""]  # pi_t[t]: the prefactor's rhs, formatted
    for l in range(2, st_l + 1):
        t_max, ratio = (l - 1) // 2, ""  # ratio: the prefactor's lhs, formatted
        for t, (lhs, rhs, ok), (p_lhs, p_rhs, p_ok) in zip(
                range(1, t_max + 1), stirling_row(l, t_max), prefactor_row(l, t_max)):
            verdict = "pass" if ok else tally.flag(
                "FAIL", "stirling", None, l, t, None, lhs, rhs)
            yield f"stirling,,{l},{t},,{lhs!r},{rhs!r},{verdict}\n"
            ratio = ratio or repr(p_lhs)
            if t == len(pi_t):
                pi_t.append(repr(p_rhs))
            verdict = "pass" if p_ok else tally.flag(
                "FAIL", "prefactor", None, l, t, None, p_lhs, p_rhs)
            yield f"prefactor,,{l},{t},,{ratio},{pi_t[t]},{verdict}\n"
        cells += 2 * t_max
    note(f"stirling+prefactor grid l<={st_l}")

    en_l, tau = suite.grids["en_l_max"], suite.tau
    kappa0 = math.exp(-1.0 / tau)
    for l in range(1, en_l + 1):
        t_max = int(l * kappa0)
        for t, (lhs, rhs, ok) in enumerate(entropy_row(l, t_max, tau)):
            verdict = "pass" if ok else tally.flag(
                "FAIL", "entropy", None, l, t, None, lhs, rhs)
            yield f"entropy,,{l},{t},,{lhs!r},{rhs!r},{verdict}\n"
        cells += t_max + 1
    # sharpness probe: with a smaller slack factor the inequality genuinely
    # breaks above the admissible density, so this cell is expected to fail
    bc = entropy_bound(400, 80, 0.5, enforce=False)
    verdict = tally.flag("FAIL" if bc.ok else "xfail",
                         "entropy-probe", None, 400, 80, None, bc.lhs, bc.rhs)
    cells += 1
    yield f"entropy-probe,,400,80,,{bc.lhs!r},{bc.rhs!r},{verdict}\n"
    note(f"entropy grid l<={en_l} and its probe")

    lemma_l = suite.grids["lemma_l_max"]
    for mu in suite.lemma_mu_values:
        cap, mu_s = block_cap(mu), repr(mu)
        for l in range(1, lemma_l + 1):
            t_max, rhs_s = int(cap * l), ""  # rhs_s: (13/32) mu l, formatted
            for t, (lhs, rhs, ok) in enumerate(lemma_row(l, t_max, mu), 1):
                verdict = "pass" if ok else tally.flag(
                    "FAIL", "lemma-cell", None, l, t, mu, lhs, rhs)
                rhs_s = rhs_s or repr(rhs)
                yield f"lemma-cell,,{l},{t},{mu_s},{lhs!r},{rhs_s},{verdict}\n"
            cells += t_max
    note(f"lemma grid l<={lemma_l}")

    for mu in (0.02, 0.05, 0.1):
        # largest admissible cell at l = 1000 under both letter caps
        l = 1000
        n = l + max(1, int(fast_letter_cap(mu, suite.sigma) * l))
        t = max(1, int(block_cap(mu) * l))
        for check, bc in zip(("lt-outside", "lt-blocks"),
                             lt_constraints(n, l, t, mu, suite.sigma)):
            verdict = "pass" if bc.ok else tally.flag(
                "FAIL", check, n, l, t, mu, bc.lhs, bc.rhs)
            cells += 1
            yield f"{check},{n},{l},{t},{mu!r},{bc.lhs!r},{bc.rhs!r},{verdict}\n"
        peak = int(math.ceil(8.0 / mu))
        for n in range(peak, peak + 10 * peak, peak):
            a, b = delta_bound(n + 1, mu), delta_bound(n, mu)
            verdict = "pass" if a <= b else tally.flag(
                "FAIL", "delta-decay", n, None, None, mu, a, b)
            cells += 1
            yield f"delta-decay,{n},,,{mu!r},{a!r},{b!r},{verdict}\n"
    note("lt-constraint and delta-decay chain")


def cmd_bounds(cfg: dict) -> int:
    """Exact combinatorial bound suite over configurable grids.

    Emits the full verification matrix as CSV, written line by line as the
    cells are checked, a JSON summary with failure lists, and one
    PASS/FAIL line on stdout.  Expected-failure probes (sharpness checks
    run with enforcement off) do not affect the exit code; unexpected
    failures exit 1.
    """
    suite = BoundsConfig(cfg)
    run = _Run(suite.out, "bounds")
    resolved = {"out": suite.out, **suite.raw}  # the mapping as given
    tally = _BoundTally()
    _write_csv(run.dir / "bounds.csv", config_header("bounds", resolved), _BOUND_COLUMNS,
               _bound_lines(suite, run, tally))
    summary = {
        "config": {k: str(v) for k, v in sorted(resolved.items())},
        "config_hash": config_hash(resolved),
        "total_cells": tally.cells,
        "failed": tally.failed,
        "expected_failures": tally.expected,
        "skipped": suite.skipped,
        "passed": not tally.failures,
    }
    (run.dir / "bounds.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    verdict = "PASS" if not tally.failures else "FAIL"
    print(f"BOUNDS: {verdict} ({tally.cells} cells, {tally.failures} failures, "
          f"{len(tally.expected)} expected failures, {len(suite.skipped)} skipped grids)")
    run.flush()
    return 0 if not tally.failures else 1


# ------------------------------------------------------------- (A2) sweeps

_A2_COLUMNS = ("n", "mu", "mu_f", "threshold", "kept", "pruned", "vol_lo",
               "vol_hi", "delta", "pass", "flag", "vol_mc", "mc_ci")


def cmd_a2(cfg: dict) -> int:
    """Slow-set volume vs depth envelope, with per-parameter SVG plots."""
    a2 = A2Config(cfg)
    models = [(mu, a2.model(mu)) for mu in sorted(a2.mu_values)]
    run = _Run(a2.out, "a2")
    resolved = a2.stamped("family", "n_values", "mu_values", "samples",
                          "max_words", out=str(run.dir))
    rows = []
    for mu, model in models:
        t0 = time.time()
        report = a2_report(model, a2.n_values, threshold=a2.threshold, samples=a2.samples,
                           seed=a2.seed, max_words=a2.max_words)
        run.note(f"mu={mu:g}: {len(report)} depths in {time.time() - t0:.2f}s")
        for r in report:
            rows.append({**asdict(r), "mu": mu, "pass": bool(r.passed),
                         "mc_ci": r.mc_halfwidth})

        plot = SvgPlot(title=f"slow-set volume vs depth (mu={mu:g})",
                       xlabel="depth n", ylabel="volume",
                       ylog=all(r.delta > 0 for r in report if math.isfinite(r.delta))
                       and all(r.vol_mc + r.mc_halfwidth > 0 for r in report))
        if any(math.isfinite(r.delta) for r in report):
            plot.line([r.n for r in report], [r.delta for r in report],
                      label="depth envelope", dashed=True, color="#d62728")
        conclusive = [r for r in report if r.flag != "inconclusive"]
        stuck = [r for r in report if r.flag == "inconclusive"]
        if conclusive:
            plot.scatter([r.n for r in conclusive],
                         [r.vol_mc + r.mc_halfwidth for r in conclusive],
                         label="measured + CI", color="#1f77b4")
            plot.scatter([r.n for r in conclusive], [r.vol_hi for r in conclusive],
                         label="cylinder cover", color="#2ca02c", open_marker=True)
        if stuck:
            plot.scatter([r.n for r in stuck],
                         [r.vol_mc + r.mc_halfwidth for r in stuck],
                         label="inconclusive (cap)", color="#8c564b",
                         open_marker=True)
        (run.dir / f"a2-mu{_mu_tag(mu)}.svg").write_text(plot.render())

    _write_csv(run.dir / "a2.csv", config_header("a2", resolved), _A2_COLUMNS,
               (_csv_line(row, _A2_COLUMNS) for row in rows))
    run.flush()
    return 1 if any(r["flag"] == "fail" for r in rows) else 0


# ---------------------------------------------------------- induced reports

def cmd_induced(cfg: dict) -> int:
    """Build the induced expander, verify it, and emit a JSON report."""
    ic = InducedConfig(cfg)
    model, n0 = ic.model(ic.mu), ic.n0
    if n0 is None:
        mu_f = float(getattr(model, "mu_f", 0.0))
        n0 = depth_threshold(mu_f, model.delta_mu) if mu_f > 0 else 6
        if n0 is None:
            raise ConfigError("depth envelope never undercuts the hole volume; "
                              "set n0 explicitly")
    with warnings.catch_warnings():
        # an empty induced domain is reported as degenerate_domain below
        warnings.filterwarnings("ignore", "threshold clears no branch floor",
                                RuntimeWarning)
        expander = build_induced(model, n0, ic.threshold, max_words=ic.max_words)
    if expander.partition.capped:
        raise ConfigError(f"max_words = {ic.max_words} is exceeded by the words reaching "
                          f"depth n0 = {n0}: the partition is incomplete; raise max_words")
    run = _Run(ic.out, "induced")
    t0 = time.time()
    check = verify_expansion(expander, samples=ic.samples, seed=ic.seed)
    hole = induced_hole_volume(expander, samples=max(ic.samples, 20_000), seed=ic.seed)
    run.note(f"verified in {time.time() - t0:.2f}s")

    hist = Counter(expander.return_times)
    resolved = ic.stamped("family", "mu", "samples", n0=n0, out=str(run.dir))
    report = {
        "config": {k: str(v) for k, v in sorted(resolved.items())},
        "config_hash": config_hash(resolved),
        "family": ic.family, "mu": ic.mu, "n0": n0,
        "threshold": float(expander.threshold),
        "degenerate_domain": not any(expander.partition.groups),
        "domain_pieces": len(expander.words),
        "return_time_histogram": {str(k): hist[k] for k in sorted(hist)},
        "floor_margin_min": expander.partition.min_margin,
        "sampled": {"samples": check.samples, "checked": int(check.checked),
                    "words_checked": check.words_checked,
                    "min_margin": None if math.isnan(check.min_margin)
                    else float(check.min_margin),
                    "passed": bool(check.passed)},
        "hole": {"measured": hole.measured, "mc_halfwidth": hole.mc_halfwidth,
                 "bound": None if math.isinf(hole.bound) else float(hole.bound),
                 "bound_log10": None if math.isinf(hole.bound_log10)
                 else float(hole.bound_log10),
                 "trivially_true": bool(hole.trivially_true),
                 "passed": bool(hole.passed)},
        "passed": bool(check.passed and hole.passed),
    }
    (run.dir / "induced.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    run.flush()
    return 0 if report["passed"] else 1


def sweep_all(cfg: dict, *, jobs: int = 1, cache: bool = True) -> int:
    """Run every driver that applies to the configured family (the slow-set
    drivers need its threshold scale c0), once every one of them accepts
    the config."""
    slow_sets = read_family(cfg)[1].c0
    for view in (SweepConfig, BoundsConfig) + ((A2Config, InducedConfig) if slow_sets else ()):
        view(cfg)
    code = max(cmd_dim(cfg, jobs=jobs, cache=cache), cmd_bounds(cfg))
    if slow_sets:
        code = max(code, cmd_a2(cfg), cmd_induced(cfg))
    return code
