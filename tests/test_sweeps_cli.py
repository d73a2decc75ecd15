"""Tests for config parsing, SVG rendering, sweep drivers, and the CLI."""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repeller_lab
from repeller_lab.cli import main
from repeller_lab import sweeps
from repeller_lab.config import (KNOWN_FAMILIES, BoundsConfig, ConfigError, SweepConfig,
                                 config_hash, parse_config, read)
from repeller_lab.families import HopfModel2D
from repeller_lab.svgplot import SvgPlot
from repeller_lab.sweeps import (_BOUND_COLUMNS, DIM_CACHE_VERSION, _csv_line,
                                 _fmt_cell, _write_csv, cache_dir, cache_get,
                                 cache_put, cmd_a2, cmd_bounds, cmd_dim,
                                 cmd_induced, make_family, sweep_all)


# ------------------------------------------------------------------ config

def test_parse_config_coercion(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# comment line
family = hopf2d
mu_values = 0.1, 0.05   # trailing comment
grid_n = 256
cache = on
label = fine run
ratio = 2.5
""")
    got = parse_config(cfg)
    assert got["family"] == "hopf2d"
    assert got["mu_values"] == (0.1, 0.05)
    assert got["grid_n"] == 256 and isinstance(got["grid_n"], int)
    assert got["cache"] is True
    assert got["label"] == "fine run"
    assert got["ratio"] == 2.5


def test_parse_config_include_overrides(tmp_path):
    (tmp_path / "base.cfg").write_text("grid_n = 64\nseed = 1\n")
    child = tmp_path / "child.cfg"
    child.write_text("include base.cfg\ngrid_n = 128\n")
    got = parse_config(child)
    assert got == {"grid_n": 128, "seed": 1}


def test_cli_rejects_include_cycles(tmp_path, capsys):
    self_cfg = tmp_path / "self.cfg"
    self_cfg.write_text("seed = 1\ninclude self.cfg\n")
    assert main(["dim", "--config", str(self_cfg)]) == 2
    assert "include cycle: self.cfg -> self.cfg" in capsys.readouterr().err
    (tmp_path / "a.cfg").write_text("include b.cfg\nseed = 1\n")
    (tmp_path / "b.cfg").write_text("include a.cfg\n")
    assert main(["dim", "--config", str(tmp_path / "a.cfg")]) == 2
    assert "include cycle: a.cfg -> b.cfg -> a.cfg" in capsys.readouterr().err


def test_parse_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a setting\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(bad)
    bad.write_text(" = 3\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


def test_config_hash_sensitivity():
    base = {"family": "hopf2d", "seed": 1, "mu_values": (0.1,)}
    h = config_hash(base)
    assert len(h) == 12 and h == config_hash(dict(base))
    assert config_hash({**base, "seed": 2}) != h
    assert config_hash({**base, "mu_values": (0.1, 0.05)}) != h


def test_read_checks_type_and_range_naming_the_key():
    cfg = {"n": 1e5, "k": 2.5, "flag": True, "x": float("nan"), "word": "abc",
           "one": 3, "many": (1, 2.0), "none": (), "mu": 1.0}
    assert read(cfg, "n", int) == 100_000 and isinstance(read(cfg, "n", int), int)
    assert read(cfg, "one", (float,)) == (3.0,)  # a scalar is a list of one
    assert read(cfg, "many", (int,), lo=1) == (1, 2)
    assert read(cfg, "absent", int, 7) == 7 and read(cfg, "absent", float) is None
    assert read(cfg, "mu", float, lo=0, hi=1) == 1.0
    for key, kind in (("k", int), ("flag", int), ("x", float), ("word", float),
                      ("many", float)):
        with pytest.raises(ConfigError, match=f"^{key}: expected"):
            read(cfg, key, kind)
    with pytest.raises(ConfigError, match="^none is an empty list"):
        read(cfg, "none", (float,))
    with pytest.raises(ConfigError, match=r"^mu must be in \(0, 1\), got 1.0"):
        read(cfg, "mu", float, lo=0, hi=1, strict=True)
    with pytest.raises(ConfigError, match="^one must be >= 4, got 3"):
        read(cfg, "one", int, lo=4)
    with pytest.raises(ConfigError, match="^unknown word 'abc'; expected one of a, b"):
        read(cfg, "word", str, choices=("a", "b"))


def test_sweep_config_defaults_and_caps():
    sc = SweepConfig({"family": "hopf2d", "seed": 3})
    assert sc.eps_base == 2 and sc.k_values == tuple(range(3, 11))
    assert sc.grid_n == 1024 and sc.horizon == 500
    assert sc.mu_values == (0.1, 0.05, 0.02, 0.01, 0.005)

    sc3 = SweepConfig({"family": "hopf3d", "seed": 0,
                       "grid_n": 4096, "horizon": 900})
    assert sc3.grid_n == 128 and sc3.horizon == 100  # coarse budget caps

    trip = SweepConfig({"family": "tripling", "seed": 0})
    assert trip.eps_base == 3 and trip.k_values == tuple(range(1, 9))
    short = SweepConfig({"family": "tripling", "seed": 0, "k_max": 3})
    assert short.k_values == (1, 2, 3)  # 3 ** 2 = 9 spans a factor of 8
    for family in KNOWN_FAMILIES:  # every default box ladder is valid
        SweepConfig({"family": family, "seed": 0})


def test_sweep_config_validation():
    with pytest.raises(ConfigError, match="unknown family"):
        SweepConfig({"family": "lorenz", "seed": 0})
    with pytest.raises(ConfigError, match="seed"):
        SweepConfig({"family": "hopf2d"})
    with pytest.raises(ConfigError, match="k_max"):
        SweepConfig({"family": "hopf2d", "seed": 0, "k_min": 6, "k_max": 3})
    with pytest.raises(ConfigError, match="mu_count"):
        SweepConfig({"family": "hopf2d", "seed": 0, "mu_count": -2})
    with pytest.raises(ConfigError, match="mu_spacing"):
        SweepConfig({"family": "hopf2d", "seed": 0,
                     "mu_count": 3, "mu_spacing": "cubic"})


def test_mu_grid_construction():
    lin = SweepConfig({"family": "hopf2d", "seed": 0, "mu_count": 3,
                       "mu_start": 0.01, "mu_stop": 0.03})
    np.testing.assert_allclose(lin.mu_values, (0.01, 0.02, 0.03))
    logg = SweepConfig({"family": "hopf2d", "seed": 0, "mu_count": 3,
                        "mu_start": 0.01, "mu_stop": 0.04, "mu_spacing": "log"})
    np.testing.assert_allclose(logg.mu_values, (0.01, 0.02, 0.04), rtol=1e-12)
    empty = SweepConfig({"family": "hopf2d", "seed": 0, "mu_count": 0})
    assert empty.mu_values == ()


def test_make_family_forwards_profile_knobs():
    model = make_family("hopf2d", 0.05, {"delta0": 0.04, "delta1": 0.02})
    assert model.delta0 == 0.04 and model.profile.delta1 == 0.02
    with pytest.raises(ConfigError):
        make_family("unknown", 0.1)


# --------------------------------------------------------------------- svg

def test_svg_render_deterministic():
    def build():
        plot = SvgPlot(title="demo", xlabel="x", ylabel="y")
        plot.line([0, 1, 2], [1.0, 2.0, 1.5], label="series")
        plot.scatter([0.5, 1.5], [1.2, 1.8], label="points", open_marker=True)
        plot.errorbars([1.0], [1.5], [0.2], label="bars")
        return plot.render()

    a, b = build(), build()
    assert a == b
    assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")
    assert "<polyline" in a and "<circle" in a and "demo" in a


def test_svg_log_axis_ticks():
    plot = SvgPlot(ylog=True)
    plot.scatter([1, 2, 3], [1e-4, 1e-2, 1.0])
    text = plot.render()
    assert "1e-2" in text or "1e-3" in text


def test_svg_empty_plot_renders():
    assert "</svg>" in SvgPlot().render()


# ----------------------------------------------------------------- cmd_dim

def _dim_cfg(tmp_path, **over):
    cfg = {"family": "hopf2d", "mu_values": (0.1,), "grid_n": 96,
           "horizon": 40, "k_min": 3, "k_max": 6, "seed": 3,
           "out": str(tmp_path / "out")}
    cfg.update(over)
    return cfg


def _data_files(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.rglob("*"))
            if p.is_file() and p.suffix != ".log" and ".cache" not in p.parts}


def test_dim_empty_grid_header_only(tmp_path):
    cfg = _dim_cfg(tmp_path, mu_values=None, mu_count=0)
    del cfg["mu_values"]
    assert cmd_dim(cfg, cache=False) == 0
    lines = (tmp_path / "out" / "dim.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data == ["mu,mu_f,rho_inv,dimension,ci,slope_raw,residual,"
                    "survivors,badset_ref,flags,config_hash"]


def test_dim_header_derives_constants_from_family_knobs(tmp_path):
    cfg = _dim_cfg(tmp_path, mu_count=0, slope=40)
    del cfg["mu_values"]
    assert cmd_dim(cfg, cache=False) == 0
    lines = (tmp_path / "out" / "dim.csv").read_text().splitlines()
    want = HopfModel2D(0.05, slope=40).K
    assert want != HopfModel2D(0.05).K
    assert f"# derived: K = {float(want)!r}" in lines


def test_dim_negative_mu_flagged_no_hole(tmp_path):
    cfg = _dim_cfg(tmp_path, mu_values=(-0.02,))
    assert cmd_dim(cfg, cache=False) == 0
    row = (tmp_path / "out" / "dim.csv").read_text().splitlines()[-1]
    cells = row.split(",")
    assert cells[0] == "-0.02"
    assert "no-hole" in cells[9]
    assert abs(float(cells[3]) - 2.0) < 0.03  # full torus survives


@pytest.mark.parametrize("mu, no_hole", [(0.1, False), (0.0, True)])
def test_dim_hopf3d_flags_no_hole_only_without_a_trap(tmp_path, mu, no_hole):
    # the 3-D model has no mu_f; its absorber is the cylinder trap
    cfg = _dim_cfg(tmp_path, family="hopf3d", mu_values=(mu,), grid_n=32,
                   horizon=20, k_min=2, k_max=5)
    assert cmd_dim(cfg, cache=False) == 0
    row = (tmp_path / "out" / "dim.csv").read_text().splitlines()[-1].split(",")
    flags = row[9].split("|")
    assert "coarse" in flags
    assert ("no-hole" in flags) is no_hole
    assert row[1] == "nan" and row[8] == ""  # no hole volume, no slow-set report


@pytest.mark.parametrize("family, mu, ref", [("hopf2d", 0.1, "a2.csv"),
                                             ("diaz-viana", 0.25, "a2.csv"),
                                             ("tripling", 0.0, ""),
                                             ("hopf2d", -0.02, "")])
def test_dim_badset_ref_only_where_a2_reports(tmp_path, family, mu, ref):
    ladder = {"k_min": 1, "k_max": 4} if family == "tripling" else {}
    cfg = _dim_cfg(tmp_path, family=family, mu_values=(mu,), grid_n=64, horizon=10,
                   **ladder)
    assert cmd_dim(cfg, cache=False) == 0
    row = (tmp_path / "out" / "dim.csv").read_text().splitlines()[-1].split(",")
    assert row[8] == ref


def test_dim_rejected_mu_is_an_error_row(tmp_path):
    # the family builds at the probe mu = 0.05, so only the bad row fails
    cfg = _dim_cfg(tmp_path, mu_values=(0.1, 1.5))
    assert cmd_dim(cfg, cache=False) == 0
    rows = [ln.split(",") for ln in (tmp_path / "out" / "dim.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert [r[0] for r in rows] == ["0.1", "1.5"]
    assert "error:" not in rows[0][9]
    assert rows[1][9].startswith("error:profile condition 'floor_at_zero'")


def test_dim_rows_sorted_and_hash_consistent(tmp_path):
    cfg = _dim_cfg(tmp_path, mu_values=(0.1, 0.05))
    assert cmd_dim(cfg, cache=False, jobs=2) == 0
    lines = (tmp_path / "out" / "dim.csv").read_text().splitlines()
    header_hash = [ln for ln in lines if ln.startswith("# config_hash")][0].split()[-1]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert [float(r[0]) for r in rows] == [0.05, 0.1]
    assert all(r[-1] == header_hash for r in rows)


def test_dim_byte_identical_reruns(tmp_path):
    cfg = _dim_cfg(tmp_path)
    assert cmd_dim(cfg, cache=False) == 0
    first = _data_files(tmp_path / "out")
    assert cmd_dim(cfg, cache=False) == 0
    assert _data_files(tmp_path / "out") == first


def test_dim_cache_hit_and_corruption_recovery(tmp_path):
    cfg = _dim_cfg(tmp_path)
    assert cmd_dim(cfg, cache=True) == 0
    first = _data_files(tmp_path / "out")
    log = (tmp_path / "out" / "dim.log").read_text()
    assert "computed" in log and "cache hit" not in log

    assert cmd_dim(cfg, cache=True) == 0
    log = (tmp_path / "out" / "dim.log").read_text()
    assert "cache hit" in log
    assert _data_files(tmp_path / "out") == first

    # a tampered entry must fail its checksum and be recomputed
    cache = tmp_path / "out" / ".cache"
    victim = next(cache.glob("dim-*.json"))
    blob = json.loads(victim.read_text())
    blob["payload"]["dimension"] = 0.123
    victim.write_text(json.dumps(blob, sort_keys=True))
    assert cmd_dim(cfg, cache=True) == 0
    assert _data_files(tmp_path / "out") == first
    log = (tmp_path / "out" / "dim.log").read_text()
    assert "computed" in log


def test_dim_cache_ignores_unversioned_keys(tmp_path, monkeypatch):
    # a shared cache may hold valid rows that older code filed under
    # "dim-<hash>-mu<mu>"; the versioned key never reads them
    shared = tmp_path / "shared"
    monkeypatch.setenv("REPELLER_LAB_CACHE", str(shared))
    cfg = _dim_cfg(tmp_path)
    assert cmd_dim(cfg, cache=True) == 0
    first = _data_files(tmp_path / "out")
    (fresh,) = shared.glob("dim-*.json")
    assert fresh.name.startswith(f"dim-v{DIM_CACHE_VERSION}-")
    stale = json.loads(fresh.read_text())["payload"]
    stale["dimension"] = 0.123
    old_key = fresh.stem.replace(f"dim-v{DIM_CACHE_VERSION}-", "dim-")
    fresh.unlink()
    cache_put(shared, old_key, stale)
    assert cache_get(shared, old_key) == stale

    assert cmd_dim(cfg, cache=True) == 0
    log = (tmp_path / "out" / "dim.log").read_text()
    assert "computed" in log and "cache hit" not in log
    assert _data_files(tmp_path / "out") == first


def test_cache_env_override(tmp_path, monkeypatch):
    alt = tmp_path / "elsewhere"
    monkeypatch.setenv("REPELLER_LAB_CACHE", str(alt))
    cfg = _dim_cfg(tmp_path)
    assert cmd_dim(cfg, cache=True) == 0
    assert list(alt.glob("dim-*.json"))
    assert not (tmp_path / "out" / ".cache").exists()


def test_cache_roundtrip_helpers(tmp_path):
    cdir = cache_dir(tmp_path, True)
    assert cache_get(cdir, "absent") is None
    cache_put(cdir, "k", {"a": 1.5})
    assert cache_get(cdir, "k") == {"a": 1.5}
    assert cache_dir(tmp_path, False) is None


def test_cache_get_misses_on_json_that_is_not_an_object(tmp_path):
    cdir = cache_dir(tmp_path, True)
    cdir.mkdir(parents=True)
    for text in ("[]", "null"):
        (cdir / "k.json").write_text(text)
        assert cache_get(cdir, "k") is None


def test_dim_tripling_matches_cantor_slope(tmp_path):
    # horizon must stay below the grid exponent: every center hits the
    # midpoint 1/2 (inside the hole) after exactly grid-exponent steps
    cfg = {"family": "tripling", "mu_values": (0.0,), "grid_n": 2187,
           "horizon": 6, "k_max": 6, "seed": 0, "out": str(tmp_path / "out")}
    assert cmd_dim(cfg, cache=False) == 0
    row = (tmp_path / "out" / "dim.csv").read_text().splitlines()[-1].split(",")
    assert abs(float(row[3]) - np.log(2) / np.log(3)) < 0.02


# -------------------------------------------------------------- cmd_bounds

_SMALL_BOUNDS = {"cp_n_max": 8, "st_l_max": 60, "en_l_max": 60,
                 "lemma_l_max": 200, "lemma_mu_values": 0.1}


def test_bounds_small_grid_passes(tmp_path, capsys):
    cfg = {**_SMALL_BOUNDS, "out": str(tmp_path / "b")}
    assert cmd_bounds(cfg) == 0
    assert "BOUNDS: PASS" in capsys.readouterr().out
    summary = json.loads((tmp_path / "b" / "bounds.json").read_text())
    assert summary["passed"] and not summary["failed"]
    # every sub-suite checks at least one cell
    checks = {line.split(",")[0] for line in
              (tmp_path / "b" / "bounds.csv").read_text().splitlines()}
    assert {"count_patterns", "stirling", "prefactor", "entropy",
            "lemma-cell"} <= checks
    # the sharpness probe fails by design without failing the suite
    assert len(summary["expected_failures"]) == 1
    assert summary["expected_failures"][0]["check"] == "entropy-probe"


def test_bounds_csv_schema(tmp_path):
    cfg = {**_SMALL_BOUNDS, "out": str(tmp_path / "b")}
    cmd_bounds(cfg)
    lines = (tmp_path / "b" / "bounds.csv").read_text().splitlines()
    cols = [ln for ln in lines if not ln.startswith("#")][0]
    assert cols == "check,n,l,t,mu,exact,bound,pass"
    assert any(",xfail" in ln for ln in lines)


def test_write_csv_formats_cells_as_fmt_cell(tmp_path):
    # the golden digests pin these bytes: every cell type a row may hold,
    # numpy scalars included, must format exactly as _fmt_cell does
    values = [True, False, None, 0.1, np.float64(0.1), np.int64(3), 9 ** 400, "a,b"]
    columns = tuple("abcdefgh")
    _write_csv(tmp_path / "x.csv", ["k = v"], columns,
               [_csv_line(dict(zip(columns, values)), columns)])
    expected = f"# k = v\na,b,c,d,e,f,g,h\ntrue,false,,0.1,0.1,3,{9 ** 400},a;b\n"
    assert expected.splitlines()[2] == ",".join(map(_fmt_cell, values))
    assert (tmp_path / "x.csv").read_bytes() == expected.encode()


# 4 195 cells, 158 of them failing lemma cells (l >= 369): more than the
# 100 failures bounds.json lists, and the probe row as well
_CAPPED_BOUNDS = {**_SMALL_BOUNDS, "lemma_l_max": 600}


def _listed_bounds(cfg: dict):
    """bounds.csv's rows and the bytes of bounds.csv and bounds.json, made the
    way cmd_bounds once made them: every row dict in one list, then each
    cell through _fmt_cell."""
    from repeller_lab import bounds as b
    from repeller_lab.config import BoundsConfig, config_header

    suite, rows = BoundsConfig(cfg), []

    def row(check, bc, n=None, l=None, t=None, mu=None, probe=False):
        verdict = "FAIL" if bc.ok == probe else ("xfail" if probe else "pass")
        rows.append(dict(zip(_BOUND_COLUMNS, (check, n, l, t, mu, bc.lhs, bc.rhs, verdict))))

    for n in range(4, suite.grids["cp_n_max"] + 1):
        for l in range(1, n):
            for t in range(1, min(l, n - l) + 1):
                row("count_patterns", b.count_patterns(n, l, t, suite.alphabet_m), n, l, t)
    for l in range(2, suite.grids["st_l_max"] + 1):
        for t in range(1, (l + 1) // 2):
            row("stirling", b.stirling_binomial_bound(l, t), l=l, t=t)
            row("prefactor", b.prefactor_bound(l, t), l=l, t=t)
    for l in range(1, suite.grids["en_l_max"] + 1):
        for t in range(0, int(l * np.exp(-1.0 / suite.tau)) + 1):
            row("entropy", b.entropy_bound(l, t, suite.tau), l=l, t=t)
    row("entropy-probe", b.entropy_bound(400, 80, 0.5, enforce=False), l=400, t=80,
        probe=True)
    for mu in suite.lemma_mu_values:
        for l in range(1, suite.grids["lemma_l_max"] + 1):
            for t in range(1, int(mu / (-4.0 * np.log(mu)) * l) + 1):
                row("lemma-cell", b.lemma_cell_bound(l, t, mu), l=l, t=t, mu=mu)
    for mu in (0.02, 0.05, 0.1):
        l = 1000
        n = l + max(1, int(mu / (8.0 * np.log(suite.sigma)) * l))
        t = max(1, int(mu / (-4.0 * np.log(mu)) * l))
        outside, blocks = b.lt_constraints(n, l, t, mu, suite.sigma)
        row("lt-outside", outside, n, l, t, mu)
        row("lt-blocks", blocks, n, l, t, mu)
        peak = int(np.ceil(8.0 / mu))
        for n in range(peak, peak + 10 * peak, peak):
            a, d = b.delta_bound(n + 1, mu), b.delta_bound(n, mu)
            rows.append(dict(zip(_BOUND_COLUMNS, ("delta-decay", n, None, None, mu, a, d,
                                                  "pass" if a <= d else "FAIL"))))

    resolved = {"out": suite.out, **suite.raw}
    csv = "".join(f"# {ln}\n" for ln in config_header("bounds", resolved))
    csv += ",".join(_BOUND_COLUMNS) + "\n"
    csv += "".join(",".join(_fmt_cell(r[k]) for k in _BOUND_COLUMNS) + "\n" for r in rows)
    failures = [r for r in rows if r["pass"] == "FAIL"]
    summary = {"config": {k: str(v) for k, v in sorted(resolved.items())},
               "config_hash": config_hash(resolved), "total_cells": len(rows),
               "failed": failures[:100],
               "expected_failures": [r for r in rows if r["pass"] == "xfail"],
               "skipped": suite.skipped, "passed": not failures}
    return rows, csv.encode(), json.dumps(summary, sort_keys=True, indent=1).encode()


def test_bounds_stream_matches_listed_rows(tmp_path, capsys):
    # the streamed files are byte for byte those of the list-then-format path
    cfg = {**_CAPPED_BOUNDS, "out": str(tmp_path / "b")}
    assert cmd_bounds(cfg) == 1
    assert "(4195 cells, 158 failures, 1 expected failures" in capsys.readouterr().out
    rows, csv, summary = _listed_bounds(cfg)
    assert len(rows) == 4195 and sum(r["pass"] == "FAIL" for r in rows) == 158
    assert (tmp_path / "b" / "bounds.csv").read_bytes() == csv
    assert (tmp_path / "b" / "bounds.json").read_bytes() == summary
    lines = (tmp_path / "b" / "bounds.csv").read_text().splitlines(keepends=True)
    assert lines[-len(rows):] == [_csv_line(r, _BOUND_COLUMNS) for r in rows]
    # one log note per sub-suite, with its cells and its wall and CPU seconds
    notes = re.findall(r": (\d+) cells in \d+\.\d\ds wall, \d+\.\d\ds cpu$",
                       (tmp_path / "b" / "bounds.log").read_text(), re.M)
    assert len(notes) == 5 and sum(map(int, notes)) == len(rows)


def test_default_bounds_output_is_pinned(tmp_path, monkeypatch, capsys):
    # the benchmark's golden digests cover only a cut-down grid; these were
    # recorded from the per-cell loop that the row walks replaced
    monkeypatch.chdir(tmp_path)
    assert cmd_bounds({"out": "out"}) == 0
    assert "BOUNDS: PASS (686185 cells, 0 failures" in capsys.readouterr().out
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in ("bounds.csv", "bounds.json")}
    assert digests == {
        "bounds.csv": "20fa66b7a01a742bdf8f2cbb0dc18b1a9a3e652ab389ae927b5e60f297f3e687",
        "bounds.json": "e32442363228219a2077ae867af226323fa1b93519856e12bf08f2a02fadccf4",
    }


def test_bounds_memory_stays_flat(tmp_path):
    # no row list: the traced peak is about 0.2 MB, while holding the
    # 4 195 row dicts before writing them peaks at about 1.6 MB
    import tracemalloc

    cfg = {**_CAPPED_BOUNDS, "out": str(tmp_path / "b")}
    tracemalloc.start()
    try:
        cmd_bounds(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


def test_bounds_known_false_cell_exits_nonzero(tmp_path, capsys):
    # the (13/32) cell inequality genuinely fails at admissible cells for
    # larger parameter values; pointing the grid there must exit 1
    cfg = {**_SMALL_BOUNDS, "lemma_l_max": 400, "lemma_mu_values": (0.1,),
           "out": str(tmp_path / "b")}
    assert cmd_bounds(cfg) == 1
    assert "BOUNDS: FAIL" in capsys.readouterr().out
    summary = json.loads((tmp_path / "b" / "bounds.json").read_text())
    assert any(r["check"] == "lemma-cell" and r["l"] == 369 and r["t"] == 4
               for r in summary["failed"])


def test_bounds_cap_violation_reported_as_skipped(tmp_path, monkeypatch, capsys):
    # each grid past its exactness cap is clipped to the cap and listed
    caps = {"cp_n_max": 200, "st_l_max": 5000, "en_l_max": 5000, "lemma_l_max": 100_000}
    suite = BoundsConfig({**_SMALL_BOUNDS, **{k: cap + 1 for k, cap in caps.items()}})
    assert suite.grids == caps
    assert suite.skipped == [f"{k}={cap + 1} exceeds exactness cap {cap}"
                             for k, cap in caps.items()]
    # cmd_bounds reports the view's skipped grids; a tiny grid carrying
    # them shows that without running the clipped grids in full
    small = BoundsConfig({**_SMALL_BOUNDS, "out": str(tmp_path / "b")})
    small.skipped = suite.skipped
    monkeypatch.setattr(sweeps, "BoundsConfig", lambda cfg: small)
    assert cmd_bounds({}) == 0
    summary = json.loads((tmp_path / "b" / "bounds.json").read_text())
    assert summary["skipped"] == suite.skipped
    assert "4 skipped grids" in capsys.readouterr().out


# ------------------------------------------------------------------ cmd_a2

def test_a2_hopf_rows_pass(tmp_path):
    cfg = {"family": "hopf2d", "mu_values": (0.1,), "n_values": (4, 6),
           "samples": 20_000, "seed": 1, "out": str(tmp_path / "a")}
    assert cmd_a2(cfg) == 0
    lines = (tmp_path / "a" / "a2.csv").read_text().splitlines()
    cols = [ln for ln in lines if not ln.startswith("#")][0].split(",")
    assert cols == ["n", "mu", "mu_f", "threshold", "kept", "pruned",
                    "vol_lo", "vol_hi", "delta", "pass", "flag", "vol_mc",
                    "mc_ci"]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert [r[0] for r in rows] == ["4", "6"]
    assert all(r[9] == "true" and r[10] == "ok" for r in rows)
    assert (tmp_path / "a" / "a2-mu0.1.svg").exists()


def test_a2_diaz_viana_measures_zero(tmp_path):
    cfg = {"family": "diaz-viana", "mu_values": (0.25,), "n_values": (4, 8),
           "samples": 10_000, "seed": 1, "out": str(tmp_path / "a")}
    assert cmd_a2(cfg) == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "a" / "a2.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert all(r[4] == "0" and r[11] == "0.0" for r in rows)  # kept, vol_mc


def test_a2_enumeration_cap_marks_inconclusive(tmp_path):
    # a threshold above every branch floor keeps all 10^n words, so a tiny
    # cap trips immediately and the row must come back inconclusive
    cfg = {"family": "hopf2d", "mu_values": (0.1,), "n_values": (6,),
           "samples": 5_000, "max_words": 5, "threshold": 2.0, "seed": 1,
           "out": str(tmp_path / "a")}
    assert cmd_a2(cfg) == 0  # advisory, not a violation
    rows = [ln.split(",") for ln in
            (tmp_path / "a" / "a2.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert rows[0][10] == "inconclusive"
    svg = (tmp_path / "a" / "a2-mu0.1.svg").read_text()
    assert "inconclusive (cap)" in svg


def test_a2_rejects_family_without_symbols(tmp_path):
    with pytest.raises(ConfigError, match="symbol-coded"):
        cmd_a2({"family": "hopf3d", "seed": 0, "out": str(tmp_path)})


# ------------------------------------------------------------- cmd_induced

def test_induced_report_passes(tmp_path):
    cfg = {"family": "hopf2d", "mu": 0.1, "n0": 8, "samples": 4000,
           "seed": 2, "out": str(tmp_path / "i")}
    assert cmd_induced(cfg) == 0
    report = json.loads((tmp_path / "i" / "induced.json").read_text())
    assert report["passed"] and not report["degenerate_domain"]
    assert report["domain_pieces"] == 9 * 8
    assert report["floor_margin_min"] > 0.9
    assert report["sampled"]["passed"] and report["hole"]["passed"]
    assert report["return_time_histogram"]["1"] == 9


def test_induced_counts_max_words_at_depth_n0(tmp_path):
    # max_words bounds the words reaching depth n0, not every word made:
    # 72 crossing words and one slow loop fit under a cap of 20
    cfg = {"family": "hopf2d", "mu": 0.1, "n0": 8, "samples": 4000,
           "max_words": 20, "seed": 2, "out": str(tmp_path / "i")}
    assert cmd_induced(cfg) == 0
    report = json.loads((tmp_path / "i" / "induced.json").read_text())
    assert report["domain_pieces"] == 9 * 8 and report["passed"]


def test_cli_induced_capped_partition_exits_two(tmp_path, capsys):
    # a threshold above every branch floor sends all 10^4 words to depth 4
    cfg = tmp_path / "capped.cfg"
    cfg.write_text("family = hopf2d\nmu = 0.1\nthreshold = 2.0\nn0 = 4\n"
                   "max_words = 50\nsamples = 1000\n")
    out = tmp_path / "out"
    assert main(["induced", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: max_words = 50 ")
    assert not out.exists()


def test_induced_degenerate_threshold_exit_zero(tmp_path):
    cfg = {"family": "tripling", "threshold": 5.0, "n0": 3, "samples": 1000,
           "seed": 1, "out": str(tmp_path / "i")}
    assert cmd_induced(cfg) == 0
    report = json.loads((tmp_path / "i" / "induced.json").read_text())
    assert report["degenerate_domain"] and report["domain_pieces"] == 0
    assert report["hole"]["measured"] == 1.0


def test_induced_needs_symbols(tmp_path):
    with pytest.raises(ConfigError, match="symbol-coded"):
        cmd_induced({"family": "hopf3d", "mu": 0.1, "seed": 0,
                     "out": str(tmp_path)})


# ----------------------------------------------------------------- the CLI

def test_cli_dim_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = hopf2d\nmu_values = 0.1\ngrid_n = 96\n"
                   "horizon = 40\nk_min = 3\nk_max = 6\n"
                   f"out = {tmp_path / 'out'}\n")
    assert main(["dim", "--config", str(cfg), "--seed", "3"]) == 0
    assert (tmp_path / "out" / "dim.csv").exists()


def test_cli_config_errors_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = lorenz\nseed = 0\n")
    assert main(["dim", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["dim", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["dim"]) == 2  # no seed anywhere


# (command, config text, key the error must name first); every value here
# once died with a traceback and exit 1, or exited 0 without checking
# anything: lemma_mu_values = 2 and the empty bound grids with a PASS,
# hopf3d with slope = -1 with an error row for every mu
_BAD_VALUES = [
    ("bounds", "cp_n_max = abc", "cp_n_max"),
    ("bounds", "lemma_mu_values = 1", "lemma_mu_values"),
    ("bounds", "lemma_mu_values = 2", "lemma_mu_values"),
    ("bounds", "cp_n_max = 3", "cp_n_max"),
    ("bounds", "st_l_max = 2", "st_l_max"),
    ("bounds", "en_l_max = 0", "en_l_max"),
    ("bounds", "lemma_l_max = 200", "lemma_l_max"),             # no cell at mu = 0.01
    ("bounds", "lemma_l_max = 92\nlemma_mu_values = 0.1", "lemma_l_max"),
    ("a2", "samples = many", "samples"),
    ("a2", "n_values = 0", "n_values"),
    ("induced", "mu = x", "mu"),
    ("induced", "n0 = 0", "n0"),
    ("induced", "family = tripling", "threshold"),
    ("induced", "family = linear2d", "threshold"),
    ("dim", "grid_n = big", "grid_n"),
    ("dim", "mu_values = a,b", "mu_values"),
    ("dim", "family = hopf3d\nslope = -1", "hopf3d"),            # rejected at every mu
    ("dim", "k_max = 63", "k_max"),                  # 2**63: box indices overflow int64
    ("dim", "k_max = 64", "k_max"),
    ("dim", "eps_base = 3\nk_max = 40", "k_max"),
    ("dim", "k_min = -1", "k_min"),
]


@pytest.mark.parametrize("command, text, key", _BAD_VALUES,
                         ids=[f"{c}: {t}" for c, t, _ in _BAD_VALUES])
def test_cli_bad_values_exit_two_naming_the_key(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} ") or err.startswith(f"config error: {key}:")
    assert not out.exists()


@pytest.mark.parametrize("command, text, key", [
    ("a2", "samples = 500", "samples"),             # dim accepts it, a2 does not
    ("dim", "slope = steep", "slope"),              # a family knob
    ("a2", "family = diaz-viana\nmu_values = 1.5", "diaz-viana at mu = 1.5"),
    ("sweep-all", "samples = 500", "samples"),      # checked before dim writes
])
def test_cli_checks_whole_config_before_writing(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["dim", "bounds", "a2", "induced", "sweep-all"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--seed", "1", "--out", str(out), "--jobs", "0"]) == 2
    assert "config error: --jobs 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bounds", "a2", "induced"])
def test_cli_rejects_jobs_where_no_dim_rows_run(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--seed", "1", "--out", str(out), "--jobs", "2"]) == 2
    assert f"config error: --jobs 2: {command} takes only --jobs 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cache", ["on", "off"])
def test_cli_bounds_accepts_jobs_one_and_either_cache(tmp_path, cache):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _SMALL_BOUNDS.items()))
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out),
                 "--jobs", "1", "--cache", cache]) == 0
    assert (out / "bounds.json").exists() and not (out / ".cache").exists()


@pytest.mark.parametrize("ladder", ["k_min = 3\nk_max = 4\n",    # two scales
                                    "k_min = 3\nk_max = 5\n"])   # factor 4 on base 2
def test_cli_rejects_short_box_ladders(tmp_path, capsys, ladder):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("family = hopf2d\nmu_values = 0.1\ngrid_n = 32\nhorizon = 5\n"
                   "seed = 0\n" + ladder)
    assert main(["dim", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: box ladder" in err
    assert "needs at least 3 scales spanning a factor of at least 8" in err
    assert not (tmp_path / "out").exists()


def test_cli_accepts_the_longest_box_ladder(tmp_path):
    # k_max = 62 is the last base-2 level whose box indices fit int64
    cfg = tmp_path / "long.cfg"
    cfg.write_text("family = hopf2d\nmu_values = 0.1\ngrid_n = 16\nhorizon = 5\n"
                   "k_min = 0\nk_max = 62\nseed = 0\n")
    assert main(["dim", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    row = (tmp_path / "out" / "dim.csv").read_text().splitlines()[-1].split(",")
    assert float(row[3]) > 0 and "error" not in row[9]


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = hopf2d\nmu_values = 0.1\ngrid_n = 96\n"
                   "horizon = 40\nk_min = 3\nk_max = 6\nseed = 1\n"
                   "out = ignored\n")
    out = tmp_path / "flagged"
    assert main(["dim", "--config", str(cfg), "--out", str(out),
                 "--cache", "off", "--jobs", "2"]) == 0
    assert (out / "dim.csv").exists()


def test_sweep_all_runs_everything(tmp_path):
    cfg = {"family": "hopf2d", "mu_values": (0.1,), "mu": 0.1, "n0": 6,
           "n_values": (4, 5), "grid_n": 96, "horizon": 40, "k_min": 3,
           "k_max": 6, "samples": 10_000, "seed": 4, **_SMALL_BOUNDS,
           "out": str(tmp_path / "all")}
    assert sweep_all(cfg) == 0
    names = {p.name for p in (tmp_path / "all").iterdir()}
    assert {"dim.csv", "dim.svg", "bounds.csv", "bounds.json", "a2.csv",
            "induced.json"} <= names


def test_scipy_stays_off_the_import_path(tmp_path):
    # no driver imports scipy: the dimension fit reads its t quantile from a
    # table; a fresh interpreter is the one place sys.modules starts clean
    script = textwrap.dedent("""
        import sys
        import repeller_lab, repeller_lab.cli

        def scipy_loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        assert not scipy_loaded(), scipy_loaded()
        out = sys.argv[1]
        for argv in (["bounds", "--config", out + "/bounds.cfg"],
                     ["a2", "--config", out + "/a2.cfg"],
                     ["induced", "--config", out + "/induced.cfg"],
                     ["dim", "--config", out + "/dim.cfg", "--cache", "off"]):
            assert repeller_lab.cli.main(argv + ["--out", out]) == 0, argv
            assert not scipy_loaded(), (argv, scipy_loaded())
        """)
    configs = {
        "bounds": "".join(f"{k} = {v}\n" for k, v in _SMALL_BOUNDS.items()),
        "a2": "family = hopf2d\nmu_values = 0.1\nn_values = 4\nsamples = 5000\nseed = 1\n",
        "induced": "family = hopf2d\nmu = 0.1\nn0 = 8\nsamples = 4000\nseed = 2\n",
        "dim": "family = hopf2d\nmu_values = 0.1\ngrid_n = 32\nhorizon = 5\n"
               "k_min = 2\nk_max = 5\nseed = 0\n",
    }
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    src = str(Path(repeller_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
