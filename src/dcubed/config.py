"""Session configuration: JSON document plus command-line overrides.

A session is its mathematics: the structure map and the oracle's bounds.
A config file looks like::

    {
      "n": 2,
      "preset": "commutative",          // or "xi_entries": [[["x1","0"],...],...]
      "twist": "q",                     // scalar for the scalar-twist preset
      "bounds": {"word_bound": null, "size_cap": null}
    }

``xi_entries[i-1][j-1][k-1]`` is the expression for the coefficient on
d^a x^k in  x^i * d^a x^j = sum_k d^a x^k * coeff; entries are plain algebra
expressions (scalars, generators, + - *).  A config gives exactly one of
``preset`` and ``xi_entries``.  The output format and the sampling seed
belong to one call, so they are command-line flags only.

``n`` and the bounds are plain JSON integers (``true`` is not
one); ``word_bound`` is >= 0 and ``size_cap`` is >= 1.  A null or missing
bound keeps its default from :class:`dcubed.ideal.Bounds` (for
``word_bound``, None: a bound derived per query).  Only a map on the
oracle's bounded path reads ``word_bound``; a graded map, every preset
among them, ignores it.
``n`` is at most :data:`dcubed.bimodule.MAX_N` = 64, from a file or from
``-n``: its generator matrices hold n^3 entries, built before any work starts
(a preset's zeros are one shared object).  ``verify
--max-word-len`` is at most ``MAX_WORD_LEN`` = 6: the sampled checks take
every word up to that length, n^len of them.  Unknown keys,
``bounds.grade_bound``, ``format`` and ``seed`` among them, are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .bimodule import MAX_N, BimoduleMap, PRESETS, preset_map
from .ideal import Bounds
from .parsing import ParseError, parse_algebra


class ConfigError(Exception):
    pass


MAX_WORD_LEN = 6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class SessionConfig:
    n: int = 2
    preset: str | None = None
    twist: str = "q"
    xi_entries: list | None = None
    bounds: Bounds = field(default_factory=Bounds)

    def validate(self):
        """Raise ConfigError for any value the session cannot run with.
        Its one caller is :func:`build_map`, which every session passes
        through before it builds anything."""
        if not _is_int(self.n):
            raise ConfigError("n must be an integer")
        if not 1 <= self.n <= MAX_N:
            raise ConfigError(f"n must be between 1 and {MAX_N}")
        if not isinstance(self.twist, str):
            raise ConfigError("twist must be an expression string")
        if (self.preset is None) == (self.xi_entries is None):
            raise ConfigError("either a preset or xi_entries must be given, not both")
        if self.preset is not None and (not isinstance(self.preset, str)
                                        or self.preset not in PRESETS):
            raise ConfigError(
                f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        size_cap = self.bounds.size_cap
        if not _is_int(size_cap) or size_cap < 1:
            raise ConfigError("bounds.size_cap must be an integer >= 1")
        word_bound = self.bounds.word_bound
        if word_bound is not None and (not _is_int(word_bound) or word_bound < 0):
            raise ConfigError("bounds.word_bound must be null or an integer >= 0")


def _unknown(raw: dict, cls) -> list:
    return sorted(set(raw) - {f.name for f in fields(cls)})


def load_config(path: str) -> SessionConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except ValueError as err:  # not UTF-8, or an integer past the int/str digit limit
        raise ConfigError(f"cannot read config file: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = _unknown(raw, SessionConfig)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    bounds_raw = raw.pop("bounds", {})
    if not isinstance(bounds_raw, dict):
        raise ConfigError("bounds must be a JSON object")
    unknown = _unknown(bounds_raw, Bounds)
    if unknown:
        raise ConfigError(f"unknown bounds keys: {unknown}")
    bounds = Bounds(**{k: v for k, v in bounds_raw.items() if v is not None})
    return SessionConfig(**raw, bounds=bounds)


def build_map(cfg: SessionConfig) -> BimoduleMap:
    """Validate the configuration, then instantiate its structure map."""
    cfg.validate()
    n = cfg.n
    # checked whatever the preset, though only scalar-twist reads it
    try:
        twist = parse_algebra(cfg.twist, n).constant_value()
    except (ParseError, ValueError) as err:
        raise ConfigError(f"bad twist scalar {cfg.twist!r}: {err}") from err
    if cfg.preset is not None:
        return preset_map(cfg.preset, n, twist)

    entries = cfg.xi_entries
    if (not isinstance(entries, list) or len(entries) != n
            or any(not isinstance(block, list) or len(block) != n for block in entries)
            or any(not isinstance(row, list) or len(row) != n
                   for block in entries for row in block)):
        raise ConfigError(f"xi_entries must be an {n}x{n}x{n} nested list of strings")
    gen = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                src = entries[i][j][k]
                if not isinstance(src, str):
                    raise ConfigError(
                        f"xi_entries[{i}][{j}][{k}] must be an expression string")
                try:
                    value = parse_algebra(src, n)
                except ParseError as err:
                    raise ConfigError(
                        f"xi_entries[{i}][{j}][{k}] = {src!r}: {err}") from err
                # constructor convention: gen[i][row k][col j]
                gen[i][k][j] = value
    return BimoduleMap(n, gen)
