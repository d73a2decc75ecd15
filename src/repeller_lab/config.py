"""Flat key = value run configuration, its schema, and content hashing.

The format is deliberately tiny: one ``key = value`` pair per line, ``#``
comments, blank lines ignored, and ``include other.cfg`` splicing another
file (relative to the includer) with later assignments winning.  Values
are coerced to int/float/bool when they look like one, and comma lists
become tuples.  A canonical sha256 prefix of the resolved mapping stamps
every output file so rows can be traced back to the exact settings that
produced them.

Every driver reads its keys through ``read``, the one typed reader, into
its view (``SweepConfig``, ``BoundsConfig``, ``A2Config``, ``InducedConfig``)
before it writes anything; a bad value raises ``ConfigError`` naming its
key.  Unused keys are left alone: ``sweep-all`` hands one mapping to all.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .bounds import block_cap
from .families import (DiazVianaFamily, HopfModel2D, HopfModel3D, LinearToy2D,
                       TriplingToy)
from .geometry import MAX_GRID_SIDE


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
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def parse_config(path, chain: tuple = ()) -> dict:
    """Resolved key -> value mapping for a config file (with includes);
    ``chain`` holds the resolved paths of the files including this one."""
    path = Path(path)
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
            out.update(parse_config(path.parent / target, chain))
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


def config_header(command: str, cfg: dict) -> list[str]:
    """Output header lines: the command, the hash, then sorted ``key = value``."""
    return [f"repeller-lab {command}", f"config_hash = {config_hash(cfg)}",
            *(f"{k} = {_canonical(cfg[k])}" for k in sorted(cfg))]


def read(cfg: dict, key: str, kind, default=None, lo=None, hi=None, *,
         strict: bool = False, choices=None):
    """``cfg[key]`` checked as ``kind``, or ``default`` when the key is absent.

    ``kind`` is str (one of ``choices``, when given), int or float, or
    ``(int,)``/``(float,)`` for a non-empty comma list, where one scalar
    counts as a list of one.  Numbers must be finite, ints integral
    (``1e5`` reads as 100000), and each must lie within ``lo``/``hi``, the
    bounds excluded when ``strict``.
    """
    if key not in cfg:
        return default
    value = cfg[key]
    if kind is str:
        if choices is not None and str(value) not in choices:
            raise ConfigError(f"unknown {key} {str(value)!r}; expected one of "
                              f"{', '.join(choices)}")
        return str(value)
    many = isinstance(kind, tuple)
    kind = kind[0] if many else kind
    items = value if many and isinstance(value, tuple) else (value,)
    if not items:
        raise ConfigError(f"{key} is an empty list")
    for item in items:
        try:
            valid = (not isinstance(item, (bool, str)) and math.isfinite(item)
                     and kind(item) == item)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            expected = "an integer" if kind is int else "a finite number"
            raise ConfigError(f"{key}: expected {expected}, got {item!r}")
        if not ((lo is None or (item > lo if strict else item >= lo))
                and (hi is None or (item < hi if strict else item <= hi))):
            span = (f"{'>' if strict else '>='} {lo}" if hi is None else
                    f"in ({lo}, {hi})" if strict else f"in [{lo}, {hi}]")
            raise ConfigError(f"{key} must be {span}, got {item!r}")
    numbers = tuple(kind(item) for item in items)
    return numbers if many else numbers[0]


def read_seed(cfg: dict) -> int:
    """The run seed, which must be set: there is no default for an RNG."""
    if "seed" not in cfg:
        raise ConfigError("seed must be set explicitly (config key or --seed)")
    return read(cfg, "seed", int, lo=0)


class Family(NamedTuple):
    """A registered family: its constructor and what the drivers may ask of it."""

    build: Callable   # (mu, knobs) -> model
    symbols: bool     # symbol-coded: branch expansion floors for the induced map
    c0: bool          # default threshold scale c0: the slow-set report applies


KNOWN_FAMILIES = {
    "hopf2d": Family(lambda mu, knobs: HopfModel2D(mu, **knobs), True, True),
    "hopf3d": Family(lambda mu, knobs: HopfModel3D(mu, **knobs), False, False),
    "tripling": Family(lambda mu, knobs: TriplingToy(), True, False),
    "diaz-viana": Family(lambda mu, knobs: DiazVianaFamily(mu), True, True),
    "linear2d": Family(lambda mu, knobs: LinearToy2D(), True, False),
}


def read_family(cfg: dict) -> tuple[str, Family]:
    """The ``family`` key and its entry in the family table."""
    name = read(cfg, "family", str, "hopf2d", choices=KNOWN_FAMILIES)
    return name, KNOWN_FAMILIES[name]


def read_knobs(cfg: dict) -> dict:
    """The profile shape knobs set in ``cfg``; only hopf2d and hopf3d use them."""
    return {k: read(cfg, k, float)
            for k in ("delta0", "delta1", "sigma1", "slope", "quad") if k in cfg}


def make_family(name: str, mu: float, cfg: dict | None = None):
    """Instantiate a registered family at one parameter value."""
    return read_family({"family": name})[1].build(mu, read_knobs(cfg or {}))


class View(SimpleNamespace):
    """One driver's validated settings, read from ``cfg`` by a subclass;
    every view also carries ``out`` and ``raw``, the mapping as given."""

    def __init__(self, cfg: dict, **values):
        super().__init__(out=read(cfg, "out", str, "out"), raw=dict(cfg), **values)

    def stamped(self, *keys, **values) -> dict:
        """``raw`` overwritten by validated ``keys`` and ``values``: what outputs stamp."""
        return {**self.raw, **{k: getattr(self, k) for k in keys}, **values}

    def model(self, mu: float):
        """The family at ``mu``; a model these parameters cannot build is a config error."""
        try:
            return make_family(self.family, mu, self.knobs)
        except ValueError as exc:
            raise ConfigError(f"{self.family} at mu = {mu!r}: {exc}") from exc


def _mu_grid(cfg: dict) -> tuple:
    if "mu_values" in cfg:
        return read(cfg, "mu_values", (float,))
    count = read(cfg, "mu_count", int, lo=0)
    if count is None:
        return (0.1, 0.05, 0.02, 0.01, 0.005)
    start = read(cfg, "mu_start", float, 0.005)
    stop = read(cfg, "mu_stop", float, 0.1)
    spacing = read(cfg, "mu_spacing", str, "linear", choices=("linear", "log"))
    if count <= 1:
        return (start,)[:count]
    if spacing == "linear":
        stepw = (stop - start) / (count - 1)
        return tuple(start + i * stepw for i in range(count))
    if start <= 0 or stop <= 0:
        raise ConfigError("log spacing needs positive mu endpoints")
    return tuple(float(v) for v in np.geomspace(start, stop, count))


class SweepConfig(View):
    """Settings of a dimension sweep (``dim``).

    ``k_values`` are grid depths: the box ladder is eps = base^-k.
    """

    def __init__(self, cfg: dict):
        family, _ = read_family(cfg)
        dim3, trip = family == "hopf3d", family == "tripling"
        base = read(cfg, "eps_base", int, 3 if trip else 2, lo=2)
        k_lo = read(cfg, "k_min", int, 1 if trip else 3, lo=0)
        k_hi = read(cfg, "k_max", int, 8 if trip else (7 if dim3 else 10))
        # k_hi > 62 exceeds the side at every base >= 2, without forming the power
        if k_hi > 62 or base ** k_hi > MAX_GRID_SIDE:
            raise ConfigError(f"k_max = {k_hi}: eps_base ** k_max = {base}**{k_hi} exceeds "
                              "2**62, past which box indices overflow int64")
        if k_hi - k_lo < 2 or base ** (k_hi - k_lo) < 8:
            raise ConfigError(f"box ladder k_min = {k_lo} .. k_max = {k_hi} (base {base}) "
                              "needs at least 3 scales spanning a factor of at least 8")
        grid_n = read(cfg, "grid_n", int, 128 if dim3 else 1024, lo=2)
        horizon = read(cfg, "horizon", int, 100 if dim3 else 500, lo=1)
        if dim3:  # budget caps: coarse by design
            grid_n, horizon = min(grid_n, 128), min(horizon, 100)
        super().__init__(cfg, family=family, seed=read_seed(cfg), knobs=read_knobs(cfg),
                         mu_values=_mu_grid(cfg), eps_base=base,
                         k_values=tuple(range(k_lo, k_hi + 1)), grid_n=grid_n, horizon=horizon,
                         samples=read(cfg, "samples", int, 100_000, lo=100))


class BoundsConfig(View):
    """Settings of the exact bound suite (``bounds``); ``grids`` are clipped.

    Each grid must reach its first cell: a sub-suite that checks nothing
    cannot pass.  The lemma grid has a cell at mu once l * block_cap(mu) >= 1.
    """

    def __init__(self, cfg: dict):
        grids, skipped = {}, []
        for key, default, lo, cap in (("cp_n_max", 20, 4, 200), ("st_l_max", 1000, 3, 5000),
                                      ("en_l_max", 1000, 1, 5000),
                                      ("lemma_l_max", 2000, None, 100_000)):
            want = read(cfg, key, int, default, lo=lo)  # clipped to its exactness cap
            grids[key] = min(want, cap)
            if want > cap:
                skipped.append(f"{key}={want} exceeds exactness cap {cap}")
        super().__init__(cfg, grids=grids, skipped=skipped,
                         alphabet_m=read(cfg, "alphabet_m", int, 9, lo=1),
                         tau=read(cfg, "tau", float, 1.0, lo=0, strict=True),
                         lemma_mu_values=read(cfg, "lemma_mu_values", (float,), (0.01, 0.02),
                                              lo=0, hi=1, strict=True),
                         sigma=read(cfg, "sigma", float, math.sqrt(10.0), lo=1, strict=True))
        for mu in self.lemma_mu_values:
            if int(block_cap(mu) * grids["lemma_l_max"]) < 1:
                raise ConfigError(f"lemma_l_max = {grids['lemma_l_max']} checks no lemma cell "
                                  f"at mu = {mu!r}; it needs at least "
                                  f"{math.ceil(-4.0 * math.log(mu) / mu)}")


class A2Config(View):
    """Settings of the slow-set report (``a2``)."""

    def __init__(self, cfg: dict):
        family, spec = read_family(cfg)
        if not spec.c0:
            raise ConfigError("slow-set reports need a symbol-coded family: " + " or ".join(
                name for name, f in KNOWN_FAMILIES.items() if f.c0))
        mus = (0.02, 0.05, 0.1) if family == "hopf2d" else (0.1, 0.25, 0.5)
        super().__init__(cfg, family=family, seed=read_seed(cfg), knobs=read_knobs(cfg),
                         n_values=read(cfg, "n_values", (int,), tuple(range(4, 13)), lo=1),
                         mu_values=read(cfg, "mu_values", (float,), mus),
                         samples=read(cfg, "samples", int, 200_000, lo=1000),
                         max_words=read(cfg, "max_words", int, 1_000_000),
                         threshold=read(cfg, "threshold", float))


class InducedConfig(View):
    """Settings of the induced-expander report (``induced``); ``n0`` None
    lets the depth envelope choose it, and ``mu`` falls back to the first
    of ``mu_values``, then 0.1."""

    def __init__(self, cfg: dict):
        family, spec = read_family(cfg)
        if not spec.symbols:
            raise ConfigError("induced map needs a symbol-coded family")
        threshold = read(cfg, "threshold", float)
        if threshold is None and not spec.c0:
            raise ConfigError(f"threshold must be set: {family} has no default "
                              "threshold scale c0")
        mu = (read(cfg, "mu", float) if "mu" in cfg
              else read(cfg, "mu_values", (float,), (0.1,))[0])
        super().__init__(cfg, family=family, seed=read_seed(cfg), knobs=read_knobs(cfg), mu=mu,
                         n0=read(cfg, "n0", int, lo=1), threshold=threshold,
                         samples=read(cfg, "samples", int, 10_000, lo=1),
                         max_words=read(cfg, "max_words", int, 1_000_000))
