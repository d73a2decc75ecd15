"""repeller-lab benchmark: time one driver workload end to end, or trace it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dim --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): dim, a2, induced, bounds.

``--trace 0`` runs the driver again and again, each time in a fresh child
process (child.py) that calls ``repeller_lab.cli.main`` with the pinned
config and the seed, until ``--seconds`` is used up (at least three runs).
It reports the median over those runs of wall_s, setup_s, cpu_s,
peak_rss_mb and items_per_s.

``--trace 1`` spends half the time on untraced child runs, then makes one
traced run in this process (spans.py) and reports the per-layer metrics,
with trace.overhead_frac measured against the untraced median wall time.

Every run is checked: the exit code, the workload's own checks on its
data files, and the sha256 of every data file against golden.json (or,
for a seed without golden digests, against the first run of this
invocation).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
benchmark could not run at all (no ``src/repeller_lab`` to measure).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from env import git_commit
from workloads import (OUT, WORKLOADS, Workload, config_sha256, digest_problems, digests,
                       load_golden)

HERE = Path(__file__).resolve().parent
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("items_per_s", "1/s"))
MIN_RUNS = 3
MIN_RUNS_BEFORE_TRACE = 2
# One BLAS thread for every driver run, traced or not.  With the default
# (one OpenBLAS thread per core) the a2 workload's cpu_s did not repeat
# within a tenth between runs on a 2-core machine, so it is pinned; the
# env line records the thread count each run used.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# A run takes a few seconds.  These limits keep an invocation inside the
# 180 s it may take even when a driver hangs or the machine is slow.
CHILD_TIMEOUT_S = 60.0
HARD_STOP_S = 100.0


class Session:
    """The runs of one workload at one seed, and their verification."""

    def __init__(self, root: Path, workload: Workload, seed: int, golden: dict | None):
        """``golden`` is the workload's entry of golden.json, if any."""
        self.root = root
        self.wl = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
        self.runs: list[dict] = []
        self.env: dict = {}
        self.reference = None
        self.reference_source = "first run"
        self.stale_golden = False
        if golden:
            if golden["config_sha256"] != config_sha256(workload):
                self.stale_golden = True
            elif str(seed) in golden["seeds"]:
                self.reference = golden["seeds"][str(seed)]
                self.reference_source = "golden"

    def _rundir(self) -> Path:
        rundir = self.work / f"run{len(self.runs)}"
        rundir.mkdir(parents=True)
        shutil.copyfile(self.wl.config, rundir / "workload.cfg")
        return rundir

    def verify(self, out: Path, exit_code: int) -> tuple[int, list[str]]:
        """(items processed, problems) for one run's data files."""
        problems = []
        if exit_code != self.wl.expected_exit:
            problems.append(f"exit code {exit_code}, expected {self.wl.expected_exit}")
        if self.stale_golden:
            problems.append("golden.json was recorded for another config; run perfbench/golden.py")
        items = 0
        try:
            problems += self.wl.checks(out)
            items = self.wl.items(out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable data files: {exc!r}")
        got = digests(out)
        if self.reference is None:
            self.reference = got
        else:
            problems += digest_problems(got, self.reference)
        return items, problems

    def run_child(self) -> dict:
        """One untraced driver run in a fresh process."""
        rundir = self._rundir()
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        env.pop("REPELLER_LAB_CACHE", None)
        started = time.perf_counter()
        spawned = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), repr(spawned), *self.wl.argv(self.seed)],
                cwd=rundir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            run = {"problems": [f"driver did not finish within {CHILD_TIMEOUT_S:.0f} s"]}
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            run = {"problems": [f"driver crashed (exit {proc.returncode}): {tail[0]}"]}
        else:
            self.env = report.pop("env")
            items, problems = self.verify(rundir / OUT, report.pop("exit_code"))
            run = dict(report, items_per_s=items / report["wall_s"], problems=problems)
        run["elapsed_s"] = time.perf_counter() - started
        shutil.rmtree(rundir)
        self.runs.append(run)
        return run

    def run_traced(self) -> dict:
        """One driver run in this process with every layer boundary wrapped."""
        sys.path.insert(0, str(self.root / "src"))
        from repeller_lab import cli
        from spans import ROOT_SPAN, Tracer

        rundir = self._rundir()
        tracer = Tracer()
        tracer.install()
        cwd = os.getcwd()
        os.chdir(rundir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.call(ROOT_SPAN, cli.main, (self.wl.argv(self.seed),))
        finally:
            os.chdir(cwd)
            tracer.uninstall()
        _, start, end, _ = tracer.spans[0]
        _, problems = self.verify(rundir / OUT, code)
        out_bytes = sum(p.stat().st_size for p in (rundir / OUT).rglob("*")
                        if p.is_file() and p.suffix != ".log")
        tracer.write(self.root / ".perfbench_out" / f"{self.wl.name}.spans.jsonl")
        shutil.rmtree(rundir)
        run = {"traced": True, "wall_s": end - start, "problems": problems,
               "tracer": tracer, "out_bytes": out_bytes}
        self.runs.append(run)
        return run

    def run_for(self, seconds: float, min_runs: int) -> None:
        """Untraced runs until ``seconds`` is spent, judged by the median
        cost of a run so far, but at least ``min_runs`` of them."""
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            done = [r["elapsed_s"] for r in self.runs if "elapsed_s" in r]
            if elapsed > HARD_STOP_S or (len(done) >= min_runs
                                         and elapsed + statistics.median(done) > seconds):
                return
            self.run_child()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(session: Session, trace: bool) -> dict | None:
    """Print the human-readable summary; return the final JSON object, or
    None when no run produced timings."""
    wl, runs = session.wl, session.runs
    timed = [r for r in runs if "wall_s" in r and not r.get("traced")]
    failed = [r for r in runs if r["problems"]]
    if not timed:
        for r in runs:
            print("  " + "; ".join(r["problems"]), file=sys.stderr)
        return None
    print(f"workload {wl.name} seed {session.seed}: {len(runs)} runs"
          f"{' (last one traced)' if trace else ''}, {len(failed)} failed, "
          f"fail_ratio {len(failed) / len(runs):.3g}; digests checked against "
          f"{session.reference_source}")
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"  run {i} FAILED: {problem}")
    summary = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in timed]
        median = statistics.median(values)
        q1, q3 = _quartiles(values)
        summary[name] = {"value": median, "unit": unit}
        print(f"  {name:<12} median {median:10.4f} {unit:<4} q1 {q1:10.4f}  q3 {q3:10.4f}"
              f"  (n={len(values)})")
    print("env " + json.dumps(dict(session.env, git_commit=git_commit(session.root)),
                              sort_keys=True))
    metrics = summary
    if trace:
        traced = runs[-1]
        overhead = traced["wall_s"] / summary["wall_s"]["value"] - 1.0
        metrics = traced["tracer"].metrics(traced["out_bytes"], overhead)
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repeller_lab" / "cli.py").is_file():
        print(f"no src/repeller_lab under {root}: run from the root of a "
              "repeller-lab checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the finally blocks: subprocess.run kills
    # and reaps a running driver, and the working directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(PINNED_ENV)  # before numpy loads here or in a child
    session = Session(root, WORKLOADS[args.workload], args.seed,
                      load_golden().get(args.workload))
    try:
        if args.trace:
            session.run_for(args.seconds / 2, MIN_RUNS_BEFORE_TRACE)
            session.run_traced()
        else:
            session.run_for(args.seconds, MIN_RUNS)
        result = report(session, bool(args.trace))
    finally:
        session.close()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
