"""Command-line front end.

Subcommands: dim (dimension sweep), bounds (exact bound suite), a2
(slow-set volume report), induced (induced-expander verification), and
sweep-all (everything applicable to the family).  Exit codes: 0 when all
checks pass or are advisory, 1 when a mathematical bound is violated,
2 for configuration errors, including every malformed or out-of-range
value.  ``--jobs`` and ``--cache`` act on ``dim`` rows only (dim,
sweep-all); the other subcommands take ``--jobs 1`` alone.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .sweeps import cmd_a2, cmd_bounds, cmd_dim, cmd_induced, sweep_all

_COMMANDS = {  # name: (driver, runs dim rows, help)
    "dim": (cmd_dim, True, "box-dimension sweep over the parameter grid"),
    "bounds": (cmd_bounds, False, "exact combinatorial bound verification"),
    "a2": (cmd_a2, False, "slow-set volume vs depth envelope report"),
    "induced": (cmd_induced, False, "induced expander construction and checks"),
    "sweep-all": (sweep_all, True, "run every applicable driver"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeller-lab",
        description="numerical laboratory for expanding maps with holes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, _rows, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="key = value config file")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the config seed")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker threads for dim rows (dim, sweep-all)")
        p.add_argument("--cache", choices=("on", "off"), default="on",
                       help="reuse checksummed dim rows (dim, sweep-all)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out
        fn, dim_rows, _help = _COMMANDS[args.command]
        if args.jobs < 1 or (args.jobs > 1 and not dim_rows):
            raise ConfigError(f"--jobs {args.jobs}: {args.command} takes "
                              + ("at least 1" if dim_rows else "only --jobs 1"))
        pool = {"jobs": args.jobs, "cache": args.cache == "on"} if dim_rows else {}
        return fn(cfg, **pool)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
