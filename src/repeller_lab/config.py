"""Flat key = value run configuration with includes and content hashing.

The format is deliberately tiny: one ``key = value`` pair per line, ``#``
comments, blank lines ignored, and ``include other.cfg`` splicing another
file (relative to the includer) with later assignments winning.  Values
are coerced to int/float/bool when they look like one, and comma lists
become tuples.  A canonical sha256 prefix of the resolved mapping stamps
every output file so rows can be traced back to the exact settings that
produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Malformed configuration file or invalid option value."""


def _coerce(text: str):
    token = text.strip()
    low = token.lower()
    if low in ("true", "on", "yes"):
        return True
    if low in ("false", "off", "no"):
        return False
    if "," in token:
        return tuple(_coerce(part) for part in token.split(",") if part.strip())
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_config(path) -> dict:
    """Resolved key -> value mapping for a config file (with includes)."""
    return _parse_file(Path(path), ())


def _parse_file(path: Path, chain: tuple) -> dict:
    """Parse one file; ``chain`` holds the resolved paths including it."""
    here = path.resolve()
    if here in chain:
        names = [p.name for p in chain[chain.index(here):]] + [here.name]
        raise ConfigError("include cycle: " + " -> ".join(names))
    chain += (here,)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("include ") or line.startswith("include\t"):
            target = line.split(None, 1)[1].strip()
            out.update(_parse_file(path.parent / target, chain))
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = _coerce(value)
    return out


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    return str(value)


def config_hash(cfg: dict) -> str:
    """Short content hash of a resolved configuration mapping."""
    lines = "".join(f"{k}={_canonical(cfg[k])}\n" for k in sorted(cfg))
    return hashlib.sha256(lines.encode()).hexdigest()[:12]


def config_lines(cfg: dict) -> list[str]:
    """Sorted ``key = value`` lines for embedding in output headers."""
    return [f"{k} = {_canonical(cfg[k])}" for k in sorted(cfg)]


KNOWN_FAMILIES = ("hopf2d", "hopf3d", "tripling", "diaz-viana", "linear2d")


def _mu_grid(cfg: dict):
    if "mu_values" in cfg:
        vals = cfg["mu_values"]
        if not isinstance(vals, tuple):
            vals = (vals,)
        return tuple(float(v) for v in vals)
    if "mu_count" in cfg:
        count = int(cfg["mu_count"])
        if count < 0:
            raise ConfigError("mu_count must be nonnegative")
        if count == 0:
            return ()
        start = float(cfg.get("mu_start", 0.005))
        stop = float(cfg.get("mu_stop", 0.1))
        if count == 1:
            return (start,)
        spacing = str(cfg.get("mu_spacing", "linear"))
        if spacing == "linear":
            stepw = (stop - start) / (count - 1)
            return tuple(start + i * stepw for i in range(count))
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError("log spacing needs positive mu endpoints")
            import numpy as np
            return tuple(float(v) for v in np.geomspace(start, stop, count))
        raise ConfigError(f"unknown mu_spacing {spacing!r}")
    return (0.1, 0.05, 0.02, 0.01, 0.005)


@dataclass(frozen=True)
class SweepConfig:
    """Validated settings for a dimension sweep.

    ``k_values`` are grid depths: the box ladder is eps = base^-k.  The
    raw mapping travels along so outputs can embed every resolved key.
    """

    family: str
    mu_values: tuple
    eps_base: int
    k_values: tuple
    grid_n: int
    horizon: int
    samples: int
    seed: int
    out: str
    raw: dict = field(default_factory=dict, compare=False)

    def resolved(self) -> dict:
        cfg = dict(self.raw)
        cfg.update(family=self.family, mu_values=self.mu_values,
                   eps_base=self.eps_base, k_values=self.k_values,
                   grid_n=self.grid_n, horizon=self.horizon,
                   samples=self.samples, seed=self.seed, out=self.out)
        return cfg

    @classmethod
    def from_mapping(cls, cfg: dict) -> "SweepConfig":
        family = str(cfg.get("family", "hopf2d"))
        if family not in KNOWN_FAMILIES:
            raise ConfigError(f"unknown family {family!r}; expected one of "
                              f"{', '.join(KNOWN_FAMILIES)}")
        if "seed" not in cfg:
            raise ConfigError("seed must be set explicitly (config key or --seed)")
        dim3 = family == "hopf3d"
        base = int(cfg.get("eps_base", 3 if family == "tripling" else 2))
        if base < 2:
            raise ConfigError("eps_base must be at least 2")
        k_lo = int(cfg.get("k_min", 1 if family == "tripling" else 3))
        k_hi = int(cfg.get("k_max", 8 if family == "tripling" else (7 if dim3 else 10)))
        if k_hi - k_lo < 2 or base ** (k_hi - k_lo) < 8:
            raise ConfigError(f"box ladder k_min = {k_lo} .. k_max = {k_hi} (base {base}) "
                              "needs at least 3 scales spanning a factor of at least 8")
        grid_n = int(cfg.get("grid_n", 128 if dim3 else 1024))
        horizon = int(cfg.get("horizon", 100 if dim3 else 500))
        if dim3:  # budget caps: coarse by design
            grid_n, horizon = min(grid_n, 128), min(horizon, 100)
        if grid_n < 2 or horizon < 1:
            raise ConfigError("grid_n must be >= 2 and horizon >= 1")
        samples = int(cfg.get("samples", 100_000))
        if samples < 100:
            raise ConfigError("samples must be at least 100")
        return cls(family=family, mu_values=_mu_grid(cfg), eps_base=base,
                   k_values=tuple(range(k_lo, k_hi + 1)), grid_n=grid_n,
                   horizon=horizon, samples=samples, seed=int(cfg["seed"]),
                   out=str(cfg.get("out", "out")), raw=dict(cfg))
