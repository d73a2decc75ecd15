"""Self-tests of the benchmark: tiny runs of each workload, trace counts
that repeat exactly, and verification that catches tampered data files.

    python3 -m pytest perfbench/tests -q

Each test runs real drivers from ``src/`` on shrunken configs, so the
module takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import Session, report  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402

TINY = {
    "dim": "family = hopf2d\nmu_values = 0.1\ngrid_n = 32\nhorizon = 20\nk_min = 2\nk_max = 5\n",
    "a2": "family = hopf2d\nmu_values = 0.1\nn_values = 4\nsamples = 2000\n",
    "induced": "family = hopf2d\nmu = 0.1\nn0 = 40\nsamples = 500\n",
    # bounds keeps its real config: the lemma grid must stay whole for the
    # 6124-failure check, and the suite takes under two seconds.
    "bounds": None,
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_session(tmp_path: Path, name: str, seed: int = 3) -> Session:
    workload = WORKLOADS[name]
    if TINY[name] is not None:
        config = tmp_path / f"{name}.cfg"
        config.write_text(TINY[name])
        workload = dataclasses.replace(workload, config=config)
    return Session(ROOT, workload, seed, None)


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, name):
    session = tiny_session(tmp_path, name)
    try:
        session.run_for(0, min_runs=2)
        result = report(session, trace=False)
    finally:
        session.close()
    assert result["correct"], [r["problems"] for r in session.runs]
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert session.env["nproc"] >= 1 and session.env["numpy"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    counts = []
    for _ in range(2):
        session = tiny_session(tmp_path, name)
        try:
            session.run_for(0, min_runs=1)
            session.run_traced()
            result = report(session, trace=True)
        finally:
            session.close()
        assert result["correct"], [r["problems"] for r in session.runs]
        assert units(result["metrics"]) == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] != "s" and k != "trace.overhead_frac"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def run_driver(rundir: Path, workload, seed: int = 3) -> Path:
    """One in-process driver run in ``rundir``; returns its output directory."""
    from repeller_lab import cli
    rundir.mkdir()
    shutil.copyfile(workload.config, rundir / "workload.cfg")
    cwd = os.getcwd()
    os.chdir(rundir)
    try:
        assert cli.main(workload.argv(seed)) == workload.expected_exit
    finally:
        os.chdir(cwd)
    return rundir / OUT


def test_digest_check_fails_on_tampered_artifact(tmp_path):
    session = tiny_session(tmp_path, "dim")
    out = run_driver(tmp_path / "run", session.wl)
    assert session.verify(out, 0)[1] == []  # first run becomes the reference
    assert session.verify(out, 0)[1] == []
    csv = out / "dim.csv"
    csv.write_bytes(csv.read_bytes().replace(b"hopf2d", b"hopf2D", 1))
    problems = session.verify(out, 0)[1]
    assert any(p.startswith("dim.csv: sha256") for p in problems)
    (out / "dim.svg").unlink()
    assert "missing data file dim.svg" in session.verify(out, 0)[1]


def test_bounds_checks_catch_a_hidden_counterexample(tmp_path):
    workload = WORKLOADS["bounds"]
    out = run_driver(tmp_path / "run", workload)
    assert workload.checks(out) == []
    csv = out / "bounds.csv"
    lines = csv.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("lemma-cell,,369,4,0.1,"))
    lines[at] = lines[at].replace(",FAIL", ",pass")
    csv.write_text("\n".join(lines) + "\n")
    problems = workload.checks(out)
    assert any("6123 FAIL rows" in p for p in problems)
    assert any("l=369, t=4, mu=0.1" in p for p in problems)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(Path(BENCH.name) / "run.py"), "--workload", "dim",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
