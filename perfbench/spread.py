"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads dim a2 --seeds 1-10 --seconds 25 \
        [--trace 0] [--json results.json]

Runs ``run.py`` once per (workload, seed), from the current directory (the
root of a checkout), one at a time.  For every metric it prints the
median of the per-run values and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  With ``--json`` it also writes every run's result
line and environment there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    """Seeds from "1-10", "3" or a comma list of those ("1,1" repeats 1)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, environment) of one benchmark invocation."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=400, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarise(results: list[dict]) -> dict:
    """{metric: {median, q1, q3, spread, unit, n}} over per-run values."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else 0.0,
                     "unit": first["unit"], "n": len(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        results, env = [], {}
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds, args.trace)
            results.append(dict(result, seed=seed))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                           if not args.trace), flush=True)
        summary = summarise(results)
        for name, s in summary.items():
            print(f"  {workload:<8} {name:<36} median {s['median']:12.6g} {s['unit']:<6}"
                  f" spread {100 * s['spread']:6.2f}%  (n={s['n']})", flush=True)
        record["workloads"][workload] = {"env": env, "runs": results, "summary": summary}
    if args.json:
        args.json.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
