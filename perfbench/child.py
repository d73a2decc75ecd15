"""Run one repeller-lab driver in a fresh process and report what it cost.

Usage: python3 child.py <spawn-time> <driver argv...>

``spawn-time`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, the package import
(numpy, scipy.stats) and argument parsing.  ``wall_s`` and ``cpu_s``
cover the ``repeller_lab.cli.main`` call only; ``cpu_s`` is user + system
time of every thread, so BLAS oversubscription shows as cpu_s > wall_s.
The last line of standard output is one JSON object.
"""

import json
import resource
import sys
import time


def main() -> None:
    spawned, argv = float(sys.argv[1]), sys.argv[2:]
    from repeller_lab import cli
    cli.build_parser().parse_args(argv)
    setup_s = time.time() - spawned

    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)

    from env import environment
    print(json.dumps({
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "env": environment(),
    }))


if __name__ == "__main__":
    main()
