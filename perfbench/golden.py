"""Record the golden data-file digests the benchmark checks every run against.

    python3 perfbench/golden.py [--seeds 0-15] [--workloads dim a2 ...]

Run from the root of a checkout.  Each (workload, seed) is run twice in
fresh processes; the two runs must pass the workload's checks and agree
byte for byte before their digests are written to ``golden.json``, keyed
by seed and stamped with the sha256 of the workload's config.  Re-record
only when a change to the program is meant to change its data files, and
say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import Session
from spread import seed_range
from workloads import GOLDEN, WORKLOADS, config_sha256, load_golden


def record(root: Path, workload: str, seed: int) -> dict[str, str]:
    session = Session(root, WORKLOADS[workload], seed, None)
    try:
        for _ in range(2):
            run = session.run_child()
            if run["problems"]:
                raise SystemExit(f"{workload} seed {seed}: " + "; ".join(run["problems"]))
    finally:
        session.close()
    return session.reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-15"))
    args = parser.parse_args()

    golden = load_golden()
    for name in args.workloads:
        entry = {"config_sha256": config_sha256(WORKLOADS[name]), "seeds": {}}
        for seed in args.seeds:
            entry["seeds"][str(seed)] = record(Path.cwd(), name, seed)
            print(f"{name} seed {seed}: {len(entry['seeds'][str(seed)])} data files", flush=True)
        golden[name] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
