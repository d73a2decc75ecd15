"""Sweep drivers: dimension runs, bound suites, slow-set reports, induced maps.

Each driver takes a resolved config mapping, writes CSV/JSON/SVG files
into the output directory, and returns a process exit code (0 = pass or
advisory, 1 = a mathematical bound was violated; malformed configs raise
ConfigError, which the command-line wrapper maps to 2).  Outputs embed
the fully resolved config and its hash; wall-clock timings go to a .log
sidecar so the data files are byte-identical across reruns.  Sweep rows
are independent and run on a bounded thread pool; all writing happens on
the calling thread after a deterministic sort.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .badsets import a2_report
from .bounds import (count_patterns, delta_bound, depth_threshold,
                     entropy_bound, lemma_cell_bound, lt_constraints,
                     prefactor_bound, stirling_binomial_bound)
from .config import ConfigError, SweepConfig, config_hash, config_lines
from .families import (DiazVianaFamily, HopfModel2D, HopfModel3D, LinearToy2D,
                       TriplingToy, survivor_grid)
from .geometry import box_dimension, counts_from_survivors, grid_centers
from .holes import first_entry
from .induced import build_induced, induced_hole_volume, verify_expansion
from .svgplot import SvgPlot


def make_family(name: str, mu: float, cfg: dict | None = None):
    """Instantiate a registered family at one parameter value."""
    cfg = cfg or {}
    kw = {k: float(cfg[k]) for k in ("delta0", "delta1", "sigma1") if k in cfg}
    if "slope" in cfg:
        kw["slope"] = float(cfg["slope"])
    if "quad" in cfg:
        kw["quad"] = float(cfg["quad"])
    if name == "hopf2d":
        return HopfModel2D(mu, **kw)
    if name == "hopf3d":
        return HopfModel3D(mu, **kw)
    if name == "tripling":
        return TriplingToy()
    if name == "diaz-viana":
        return DiazVianaFamily(mu)
    if name == "linear2d":
        return LinearToy2D()
    raise ConfigError(f"unknown family {name!r}")


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


def _write_csv(path: Path, header_lines, columns, rows):
    lines = [f"# {ln}" for ln in header_lines]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def _header(command: str, cfg: dict) -> list[str]:
    return [f"repeller-lab {command}", f"config_hash = {config_hash(cfg)}",
            *config_lines(cfg)]


def _mu_tag(mu: float) -> str:
    return f"{mu:g}".replace("-", "m")


class _RunLog:
    """Timing/cache sidecar; the only output allowed to differ between runs."""

    def __init__(self, path: Path):
        self.path = path
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


def cache_get(cdir: Path | None, key: str):
    """Cached payload, or None on miss/corruption (checksum verified)."""
    if cdir is None:
        return None
    path = cdir / f"{key}.json"
    if not path.exists():
        return None
    try:
        blob = json.loads(path.read_text())
        body = json.dumps(blob["payload"], sort_keys=True)
        if hashlib.sha256(body.encode()).hexdigest() != blob["checksum"]:
            return None
        return blob["payload"]
    except (ValueError, KeyError, OSError):
        return None


def cache_put(cdir: Path | None, key: str, payload):
    if cdir is None:
        return
    cdir.mkdir(parents=True, exist_ok=True)
    body = json.dumps(payload, sort_keys=True)
    blob = {"payload": payload,
            "checksum": hashlib.sha256(body.encode()).hexdigest()}
    (cdir / f"{key}.json").write_text(json.dumps(blob, sort_keys=True))


# ------------------------------------------------------------- dim sweeps

_DIM_COLUMNS = ("mu", "mu_f", "rho_inv", "dimension", "ci", "slope_raw",
                "residual", "survivors", "badset_ref", "flags", "config_hash")


def hole_survivors(model, grid_n: int, horizon: int) -> np.ndarray:
    """Grid points whose orbit stays out of the hole for ``horizon`` steps."""
    pts = grid_centers(model.d, grid_n)
    return pts[first_entry(model.step, pts, horizon, model.in_hole)[0]]


def _dim_row(sc: SweepConfig, mu: float, chash: str) -> dict:
    row = {"mu": mu, "badset_ref": "", "flags": "", "config_hash": chash}
    try:
        model = make_family(sc.family, mu, sc.raw)
    except (ValueError, RuntimeError) as exc:
        row.update(mu_f=float("nan"), rho_inv=float("nan"),
                   dimension=float("nan"), ci=float("nan"),
                   slope_raw=float("nan"), residual=float("nan"), survivors=0,
                   flags=f"error:{exc}")
        return row
    flags = []
    mu_f = float(getattr(model, "mu_f", 0.0))
    rho = float(getattr(model, "rho_inv", float("nan")))
    if mu_f <= 0:
        flags.append("no-hole")
    else:
        row["badset_ref"] = "a2.csv"
    if model.d == 3:
        flags.append("coarse")
    if hasattr(model, "default_trap"):
        pts = survivor_grid(model, sc.grid_n, sc.horizon)
        if getattr(model, "trap_advisory", False):
            flags.append("trap-advisory")
    else:
        pts = hole_survivors(model, sc.grid_n, sc.horizon)
    row.update(mu_f=mu_f, rho_inv=rho, survivors=len(pts))
    if len(pts) == 0:
        row.update(dimension=float("nan"), ci=float("nan"),
                   slope_raw=float("nan"), residual=float("nan"),
                   flags="|".join(flags + ["error:empty survivor set"]))
        return row
    pairs = counts_from_survivors(pts, sc.eps_base, sc.k_values)
    est = box_dimension(pairs, model.d)
    flags.extend(est.warnings)
    row.update(dimension=est.slope, ci=est.ci, slope_raw=est.slope_raw,
               residual=est.residual, flags="|".join(flags))
    return row


def cmd_dim(cfg: dict, *, jobs: int = 1, cache: bool = True) -> int:
    """Dimension-vs-parameter sweep: survivor grids, regressions, CSV/SVG."""
    sc = SweepConfig.from_mapping(cfg)
    out = Path(sc.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = sc.resolved()
    chash = config_hash(resolved)
    log = _RunLog(out / "dim.log")
    cdir = cache_dir(out, cache)

    mus = sorted(sc.mu_values)
    rows: list = [None] * len(mus)
    pending = []
    for i, mu in enumerate(mus):
        key = f"dim-{chash}-mu{_mu_tag(mu)}"
        hit = cache_get(cdir, key)
        if hit is not None:
            rows[i] = hit
            log.note(f"mu={mu:g}: cache hit ({key})")
        else:
            pending.append((i, mu, key))

    def work(item):
        i, mu, key = item
        t0 = time.time()
        row = _dim_row(sc, mu, chash)
        return i, key, row, time.time() - t0

    if pending:
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            for i, key, row, dt in pool.map(work, pending):
                rows[i] = row
                cache_put(cdir, key, row)
                log.note(f"mu={mus[i]:g}: computed in {dt:.2f}s")

    header = _header("dim", resolved)
    if sc.family == "hopf2d":
        probe = make_family("hopf2d", 0.05, sc.raw)
        header += [f"derived: sigma = {float(probe.sigma)!r}",
                   f"derived: alpha = {float(probe.alpha)!r}",
                   f"derived: K = {float(probe.K)!r}",
                   f"derived: c0 = {float(probe.c0)!r}"]
    _write_csv(out / "dim.csv", header, _DIM_COLUMNS, rows)

    plot = SvgPlot(title=f"box dimension vs mu ({sc.family})",
                   xlabel="mu", ylabel="box dimension")
    good = [r for r in rows if r and math.isfinite(r.get("dimension", float("nan")))]
    if good:
        xs = [r["mu"] for r in good]
        plot.errorbars(xs, [r["dimension"] for r in good],
                       [r["ci"] for r in good], label="BD estimate")
        plot.line(xs, [r["dimension"] for r in good])
    (out / "dim.svg").write_text(plot.render())
    log.note(f"wrote {len(rows)} rows")
    log.flush()
    return 0


# ------------------------------------------------------------ bound suites

_BOUND_COLUMNS = ("check", "n", "l", "t", "mu", "exact", "bound", "pass")

_CAPS = {"cp_n_max": 200, "st_l_max": 5000, "en_l_max": 5000,
         "lemma_l_max": 100_000}


def _bound_row(check, bc, cls, n=None, l=None, t=None, mu=None) -> dict:
    return {"check": check, "n": n, "l": l, "t": t, "mu": mu,
            "exact": bc.lhs if bc is not None else None,
            "bound": bc.rhs if bc is not None else None, "pass": cls}


def cmd_bounds(cfg: dict, *, jobs: int = 1, cache: bool = True) -> int:
    """Exact combinatorial bound suite over configurable grids.

    Emits the full verification matrix as CSV, a JSON summary with
    failure lists, and one PASS/FAIL line on stdout.  Expected-failure
    probes (sharpness checks run with enforcement off) do not affect the
    exit code; unexpected failures exit 1.
    """
    out = Path(str(cfg.get("out", "out")))
    out.mkdir(parents=True, exist_ok=True)
    log = _RunLog(out / "bounds.log")
    rows: list[dict] = []
    skipped: list[str] = []

    def clip(key, default):
        want = int(cfg.get(key, default))
        if want > _CAPS.get(key, want):
            skipped.append(f"{key}={want} exceeds exactness cap {_CAPS[key]}")
            return _CAPS[key]
        return want

    cp_n = clip("cp_n_max", 20)
    m = int(cfg.get("alphabet_m", 9))
    for n in range(4, cp_n + 1):
        for l in range(1, n):
            for t in range(1, min(l, n - l) + 1):
                bc = count_patterns(n, l, t, m)
                rows.append(_bound_row("count_patterns", bc,
                                       "pass" if bc.ok else "FAIL", n=n, l=l, t=t))
    log.note(f"count_patterns grid n<={cp_n}: {len(rows)} cells")

    st_l = clip("st_l_max", 1000)
    before = len(rows)
    for l in range(2, st_l + 1):
        for t in range(1, (l + 1) // 2):
            bc = stirling_binomial_bound(l, t)
            rows.append(_bound_row("stirling", bc,
                                   "pass" if bc.ok else "FAIL", l=l, t=t))
            pf = prefactor_bound(l, t)
            rows.append(_bound_row("prefactor", pf,
                                   "pass" if pf.ok else "FAIL", l=l, t=t))
    log.note(f"stirling+prefactor grid l<={st_l}: {len(rows) - before} cells")

    en_l = clip("en_l_max", 1000)
    tau = float(cfg.get("tau", 1.0))
    before = len(rows)
    kappa0 = math.exp(-1.0 / tau)
    for l in range(1, en_l + 1):
        for t in range(0, int(l * kappa0) + 1):
            bc = entropy_bound(l, t, tau)
            rows.append(_bound_row("entropy", bc,
                                   "pass" if bc.ok else "FAIL", l=l, t=t))
    log.note(f"entropy grid l<={en_l}: {len(rows) - before} cells")

    # sharpness probe: with a smaller slack factor the inequality genuinely
    # breaks above the admissible density, so this cell is expected to fail
    bc = entropy_bound(400, 80, 0.5, enforce=False)
    rows.append(_bound_row("entropy-probe", bc,
                           "xfail" if not bc.ok else "FAIL", l=400, t=80))

    lemma_l = clip("lemma_l_max", 2000)
    lemma_mus = cfg.get("lemma_mu_values", (0.01, 0.02))
    if not isinstance(lemma_mus, tuple):
        lemma_mus = (lemma_mus,)
    before = len(rows)
    for mu in lemma_mus:
        mu = float(mu)
        cap = mu / (-4.0 * math.log(mu))
        for l in range(1, lemma_l + 1):
            for t in range(1, int(cap * l) + 1):
                bc = lemma_cell_bound(l, t, mu)
                rows.append(_bound_row("lemma-cell", bc,
                                       "pass" if bc.ok else "FAIL",
                                       l=l, t=t, mu=mu))
    log.note(f"lemma grid l<={lemma_l}: {len(rows) - before} cells")

    sigma = float(cfg.get("sigma", math.sqrt(10.0)))
    for mu in (0.02, 0.05, 0.1):
        # largest admissible cell at l = 1000 under both letter caps
        l = 1000
        n = l + max(1, int(mu / (8.0 * math.log(sigma)) * l))
        t = max(1, int(mu / (-4.0 * math.log(mu)) * l))
        outside, blocks = lt_constraints(n, l, t, mu, sigma)
        rows.append(_bound_row("lt-outside", outside,
                               "pass" if outside.ok else "FAIL",
                               n=n, l=l, t=t, mu=mu))
        rows.append(_bound_row("lt-blocks", blocks,
                               "pass" if blocks.ok else "FAIL",
                               n=n, l=l, t=t, mu=mu))
        peak = int(math.ceil(8.0 / mu))
        for n in range(peak, peak + 10 * peak, peak):
            a, b = delta_bound(n + 1, mu), delta_bound(n, mu)
            rows.append({"check": "delta-decay", "n": n, "l": None, "t": None,
                         "mu": mu, "exact": a, "bound": b,
                         "pass": "pass" if a <= b else "FAIL"})

    failures = [r for r in rows if r["pass"] == "FAIL"]
    expected = [r for r in rows if r["pass"] == "xfail"]
    resolved = dict(cfg)
    resolved.setdefault("out", str(out))
    header = _header("bounds", resolved)
    _write_csv(out / "bounds.csv", header, _BOUND_COLUMNS, rows)
    summary = {
        "config": {k: str(v) for k, v in sorted(resolved.items())},
        "config_hash": config_hash(resolved),
        "total_cells": len(rows),
        "failed": [{k: r[k] for k in _BOUND_COLUMNS} for r in failures[:100]],
        "expected_failures": [{k: r[k] for k in _BOUND_COLUMNS} for r in expected],
        "skipped": skipped,
        "passed": not failures,
    }
    (out / "bounds.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    verdict = "PASS" if not failures else "FAIL"
    print(f"BOUNDS: {verdict} ({len(rows)} cells, {len(failures)} failures, "
          f"{len(expected)} expected failures, {len(skipped)} skipped grids)")
    log.flush()
    return 0 if not failures else 1


# ------------------------------------------------------------- (A2) sweeps

_A2_COLUMNS = ("n", "mu", "mu_f", "threshold", "kept", "pruned", "vol_lo",
               "vol_hi", "delta", "pass", "flag", "vol_mc", "mc_ci")


def cmd_a2(cfg: dict, *, jobs: int = 1, cache: bool = True) -> int:
    """Slow-set volume vs depth envelope, with per-parameter SVG plots."""
    family = str(cfg.get("family", "hopf2d"))
    if family not in ("hopf2d", "diaz-viana"):
        raise ConfigError("slow-set reports need a symbol-coded family: "
                          "hopf2d or diaz-viana")
    if "seed" not in cfg:
        raise ConfigError("seed must be set explicitly (config key or --seed)")
    seed = int(cfg["seed"])
    out = Path(str(cfg.get("out", "out")))
    out.mkdir(parents=True, exist_ok=True)
    log = _RunLog(out / "a2.log")

    n_values = cfg.get("n_values", tuple(range(4, 13)))
    if not isinstance(n_values, tuple):
        n_values = (n_values,)
    n_values = tuple(int(n) for n in n_values)
    if "mu_values" in cfg:
        mus = cfg["mu_values"]
        mus = mus if isinstance(mus, tuple) else (mus,)
    else:
        mus = (0.02, 0.05, 0.1) if family == "hopf2d" else (0.1, 0.25, 0.5)
    samples = int(cfg.get("samples", 200_000))
    max_words = int(cfg.get("max_words", 1_000_000))
    threshold = float(cfg["threshold"]) if "threshold" in cfg else None

    resolved = dict(cfg)
    resolved.update(family=family, n_values=n_values,
                    mu_values=tuple(float(m) for m in mus), samples=samples,
                    max_words=max_words, out=str(out))
    rows, failed = [], False
    for mu in sorted(float(m) for m in mus):
        t0 = time.time()
        model = make_family(family, mu, cfg)
        report = a2_report(model, n_values, threshold=threshold,
                           samples=samples, seed=seed, max_words=max_words)
        log.note(f"mu={mu:g}: {len(report)} depths in {time.time() - t0:.2f}s")
        for r in report:
            rows.append({"n": r.n, "mu": mu, "mu_f": r.mu_f,
                         "threshold": r.threshold, "kept": r.kept,
                         "pruned": r.pruned, "vol_lo": r.vol_lo,
                         "vol_hi": r.vol_hi, "delta": r.delta,
                         "pass": bool(r.passed), "flag": r.flag,
                         "vol_mc": r.vol_mc, "mc_ci": r.mc_halfwidth})
            failed = failed or r.flag == "fail"

        plot = SvgPlot(title=f"slow-set volume vs depth (mu={mu:g})",
                       xlabel="depth n", ylabel="volume",
                       ylog=all(r.delta > 0 for r in report if math.isfinite(r.delta))
                       and all(r.vol_mc + r.mc_halfwidth > 0 for r in report))
        ns = [r.n for r in report]
        if any(math.isfinite(r.delta) for r in report):
            plot.line(ns, [r.delta for r in report], label="depth envelope",
                      dashed=True, color="#d62728")
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
        (out / f"a2-mu{_mu_tag(mu)}.svg").write_text(plot.render())

    _write_csv(out / "a2.csv", _header("a2", resolved), _A2_COLUMNS, rows)
    log.flush()
    return 1 if failed else 0


# ---------------------------------------------------------- induced reports

def cmd_induced(cfg: dict, *, jobs: int = 1, cache: bool = True) -> int:
    """Build the induced expander, verify it, and emit a JSON report."""
    family = str(cfg.get("family", "hopf2d"))
    if "seed" not in cfg:
        raise ConfigError("seed must be set explicitly (config key or --seed)")
    seed = int(cfg["seed"])
    out = Path(str(cfg.get("out", "out")))
    out.mkdir(parents=True, exist_ok=True)
    log = _RunLog(out / "induced.log")

    if "mu" in cfg:
        mu = float(cfg["mu"])
    elif "mu_values" in cfg:
        vals = cfg["mu_values"]
        mu = float(vals[0] if isinstance(vals, tuple) else vals)
    else:
        mu = 0.1
    model = make_family(family, mu, cfg)
    if not hasattr(model, "lambda_min"):
        raise ConfigError("induced map needs a symbol-coded family")
    threshold = float(cfg["threshold"]) if "threshold" in cfg else None
    if "n0" in cfg:
        n0 = int(cfg["n0"])
    else:
        mu_f = float(getattr(model, "mu_f", 0.0))
        n0 = depth_threshold(mu_f, model.delta_mu) if mu_f > 0 else 6
        if n0 is None:
            raise ConfigError("depth envelope never undercuts the hole volume; "
                              "set n0 explicitly")
    samples = int(cfg.get("samples", 10_000))
    max_words = int(cfg.get("max_words", 1_000_000))

    degenerate = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expander = build_induced(model, n0, threshold, max_words=max_words)
        degenerate = any("induced domain" in str(w.message) for w in caught)
    t0 = time.time()
    check = verify_expansion(expander, samples=samples, seed=seed)
    hole = induced_hole_volume(expander, samples=max(samples, 20_000), seed=seed)
    log.note(f"verified in {time.time() - t0:.2f}s")

    hist: dict[int, int] = {}
    for tau in expander.return_times:
        hist[tau] = hist.get(tau, 0) + 1
    margins = [expander.floor_margin(w) for w in expander.words]
    resolved = dict(cfg)
    resolved.update(family=family, mu=mu, n0=n0, samples=samples, out=str(out))
    report = {
        "config": {k: str(v) for k, v in sorted(resolved.items())},
        "config_hash": config_hash(resolved),
        "family": family, "mu": mu, "n0": n0,
        "threshold": float(expander.threshold),
        "degenerate_domain": degenerate,
        "domain_pieces": len(expander.words),
        "return_time_histogram": {str(k): hist[k] for k in sorted(hist)},
        "floor_margin_min": float(min(margins)) if margins else None,
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
    (out / "induced.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    log.flush()
    return 0 if report["passed"] else 1


def sweep_all(cfg: dict, *, jobs: int = 1, cache: bool = True) -> int:
    """Run every driver that applies to the configured family."""
    family = str(cfg.get("family", "hopf2d"))
    code = cmd_dim(cfg, jobs=jobs, cache=cache)
    code = max(code, cmd_bounds(cfg, jobs=jobs, cache=cache))
    if family in ("hopf2d", "diaz-viana"):
        code = max(code, cmd_a2(cfg, jobs=jobs, cache=cache))
        code = max(code, cmd_induced(cfg, jobs=jobs, cache=cache))
    return code
