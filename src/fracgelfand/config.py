"""Flat key=value experiment configuration."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from pathlib import Path

from . import branchsolve, specfun


class ConfigError(ValueError):
    pass


DEFAULT_TOLERANCES = {"bracket_tol": branchsolve.BRACKET_REL_TOL}


@dataclass
class ExperimentConfig:
    n: int = 3
    s: float = 0.5
    f: str = "exp"  # exp | power:p
    modes: int = 256
    t_max: float = 12.0
    t_steps: int = 48
    bracket_tol: float = DEFAULT_TOLERANCES["bracket_tol"]
    out_dir: Path = Path(".")
    seed: int = 0

    def __post_init__(self):
        n_max = 2 * specfun.MAX_ORDER + 2  # the basis needs the zeros of J_(n/2 - 1)
        if not 2 <= self.n <= n_max:
            raise ConfigError(f"n must be an integer in [2, {n_max}]: the Bessel order "
                              f"n/2 - 1 of the basis is at most {specfun.MAX_ORDER}")
        if not (0 < self.s <= 1):
            raise ConfigError("s must lie in (0, 1]")
        if self.modes < 8:
            raise ConfigError("modes (K) must be >= 8")
        if self.t_steps < 2:
            raise ConfigError("t_steps must be >= 2")
        if not 0 < self.t_max < math.inf:
            raise ConfigError("t_max must be finite and > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # the lambda* bisection halves down to this width, and its lower
        # start lambda_fold (1 - 2 bracket_tol) must stay >= 0
        if not (0 < self.bracket_tol <= 0.5):
            raise ConfigError("bracket_tol must lie in (0, 0.5]")
        self.nonlinearity()  # validates f eagerly

    def nonlinearity(self):
        spec = self.f
        if spec == "exp":
            return branchsolve.exponential()
        if spec.startswith("power:"):
            try:
                return branchsolve.power(float(spec.split(":", 1)[1]))
            except ValueError as exc:
                raise ConfigError(f"bad f spec {spec!r}: {exc}") from exc
        raise ConfigError(f"unknown f spec {spec!r} (use exp or power:p)")


def parse_config(text, overrides=None):
    """Parse flat `key=value` lines ('#' comments) into an ExperimentConfig.

    The keys are ExperimentConfig's fields, each parsed by its type; an
    override that is not None beats the file.
    """
    parsers = typing.get_type_hints(ExperimentConfig)
    values = {}

    def put(key, val, where):
        if key not in parsers:
            raise ConfigError(f"{where}unknown key {key!r}")
        try:
            values[key] = parsers[key](val)
        except ValueError as exc:
            raise ConfigError(f"{where}bad value for {key}: {val!r}") from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        put(key.strip(), val.strip(), f"line {lineno}: ")
    for key, val in (overrides or {}).items():
        if val is not None:
            put(key, str(val), "")
    return ExperimentConfig(**values)
