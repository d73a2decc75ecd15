"""The benchmark workloads: one repeller-lab driver each, on a pinned config.

The configs in ``configs/`` are scaled-down acceptance runs, because
acceptance runs are the only traffic the repository documents.  The four
drivers stress different layers:

* ``dim``     - escape loop (``families.step`` + trap membership) and box
  counting; no census, cylinder or exact-bound code runs.
* ``a2``      - cylinder refinement (``cell_margin`` over a 2^-9 box grid),
  the word census and the Monte Carlo slow-set volume.
* ``induced`` - the same ``families`` methods as ``a2`` but on tiny batches
  over hundreds of steps, so per-call overhead dominates.
* ``bounds``  - pure-Python big-integer work that bypasses every numpy
  kernel: the "no change" workload for kernel optimisations.

Each workload knows the exit code its driver must return, how many items
a run processes (read back from its data files) and the checks its data
files must pass on top of the digest comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden.json"

# Every run uses this --out string: it is embedded in each file header and
# in config_hash, so a different string changes every digest.
OUT = "out"

# The per-cell bound log C(l, t-1) <= (13/32) mu l is genuinely false on
# the acceptance lemma grid; the bounds workload must keep showing it.
LEMMA_FAILURES = 6124
FIRST_LEMMA_FAILURE = {"check": "lemma-cell", "l": "369", "t": "4", "mu": "0.1"}


def data_rows(path: Path) -> list[dict]:
    """Rows of a repeller-lab CSV file (``#`` header lines skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def header_value(path: Path, key: str) -> str:
    prefix = f"# {key} = "
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise KeyError(f"{path.name} has no header line for {key}")


def digests(out: Path) -> dict[str, str]:
    """sha256 of every data file under ``out``; the ``.log`` sidecars hold
    wall-clock times and are allowed to differ between runs."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.suffix != ".log"}


def digest_problems(got: dict[str, str], want: dict[str, str]) -> list[str]:
    problems = [f"missing data file {name}" for name in sorted(want.keys() - got.keys())]
    problems += [f"unexpected data file {name}" for name in sorted(got.keys() - want.keys())]
    problems += [f"{name}: sha256 {got[name][:12]} != {want[name][:12]}"
                 for name in sorted(got.keys() & want.keys()) if got[name] != want[name]]
    return problems


# ------------------------------------------------------------ per driver

def _dim_items(out: Path) -> int:
    csv = out / "dim.csv"
    return len(data_rows(csv)) * int(header_value(csv, "grid_n")) ** 2


def _dim_checks(out: Path) -> list[str]:
    rows = data_rows(out / "dim.csv")
    mus = header_value(out / "dim.csv", "mu_values").strip("()").split(",")
    problems = [] if len(rows) == len(mus) else [f"dim.csv has {len(rows)} rows for {len(mus)} mu values"]
    problems += [f"dim.csv mu={r['mu']}: no survivors or flags {r['flags']!r}"
                 for r in rows if int(r["survivors"]) <= 0 or "error" in r["flags"]]
    return problems


def _a2_items(out: Path) -> int:
    return len(data_rows(out / "a2.csv"))


def _a2_checks(out: Path) -> list[str]:
    return [f"a2.csv n={r['n']} mu={r['mu']}: flag {r['flag']}"
            for r in data_rows(out / "a2.csv") if r["flag"] != "ok"]


def _induced_report(out: Path) -> dict:
    return json.loads((out / "induced.json").read_text())


def _induced_items(out: Path) -> int:
    return int(_induced_report(out)["sampled"]["checked"])


def _induced_checks(out: Path) -> list[str]:
    report = _induced_report(out)
    return [] if report["passed"] else ["induced.json: passed is false"]


def _bounds_items(out: Path) -> int:
    return int(json.loads((out / "bounds.json").read_text())["total_cells"])


def _bounds_checks(out: Path) -> list[str]:
    failed = [r for r in data_rows(out / "bounds.csv") if r["pass"] == "FAIL"]
    problems = []
    if len(failed) != LEMMA_FAILURES:
        problems.append(f"bounds.csv has {len(failed)} FAIL rows, expected {LEMMA_FAILURES}")
    if any(r["check"] != "lemma-cell" for r in failed):
        problems.append("bounds.csv has FAIL rows outside the lemma-cell grid")
    if not any(all(r[k] == v for k, v in FIRST_LEMMA_FAILURE.items()) for r in failed):
        problems.append("bounds.csv: the l=369, t=4, mu=0.1 lemma cell does not read FAIL")
    return problems


@dataclass(frozen=True)
class Workload:
    """One driver on one pinned config; ``why`` says what it stresses."""

    name: str
    why: str
    expected_exit: int
    items: Callable[[Path], int]
    checks: Callable[[Path], list[str]]
    config: Path

    def argv(self, seed: int, config: str = "workload.cfg") -> list[str]:
        """Driver arguments, relative to the run's working directory."""
        return [self.name, "--config", config, "--seed", str(seed), "--out", OUT,
                "--cache", "off", "--jobs", "1"]


WORKLOADS = {w.name: w for w in (
    Workload("dim", "escape loop and box counting on a 256^2 grid, two hole sizes",
             0, _dim_items, _dim_checks, CONFIGS / "dim.cfg"),
    Workload("a2", "cylinder refinement, word census and Monte Carlo volume on large point batches",
             0, _a2_items, _a2_checks, CONFIGS / "a2.cfg"),
    Workload("induced", "same model methods as a2 on tiny batches over 532 steps: per-call overhead",
             0, _induced_items, _induced_checks, CONFIGS / "induced.cfg"),
    Workload("bounds", "pure-Python big-integer bound suite with its known-red lemma cells; no numpy kernels",
             1, _bounds_items, _bounds_checks, CONFIGS / "bounds.cfg"),
)}


def load_golden() -> dict:
    """{workload: {"config_sha256": ..., "seeds": {seed: {file: sha256}}}}."""
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def config_sha256(workload: Workload) -> str:
    return hashlib.sha256(workload.config.read_bytes()).hexdigest()
