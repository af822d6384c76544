"""Flat key=value experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import branchsolve


class ConfigError(ValueError):
    pass


DEFAULT_TOLERANCES = {"bracket_tol": 1e-3}


@dataclass
class ExperimentConfig:
    n: int = 3
    s: float = 0.5
    f_spec: str = "exp"
    modes: int = 256
    quad_order: int = 0          # 0 means 4 * modes
    t_max: float = 12.0
    t_steps: int = 48
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    out_dir: Path = Path(".")
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("n must be an integer >= 2")
        if not (0 < self.s <= 1):
            raise ConfigError("s must lie in (0, 1]")
        if self.modes < 8:
            raise ConfigError("modes (K) must be >= 8")
        if self.quad_order == 0:
            self.quad_order = 4 * self.modes
        if self.quad_order < 2 * self.modes:
            raise ConfigError("quad_order must be >= 2K")
        if self.t_steps < 2:
            raise ConfigError("t_steps must be >= 2")
        if self.t_max <= 0:
            raise ConfigError("t_max must be > 0")
        self.nonlinearity()  # validates f_spec eagerly

    def nonlinearity(self):
        spec = self.f_spec
        if spec == "exp":
            return branchsolve.exponential()
        if spec.startswith("power:"):
            try:
                p = float(spec.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad power exponent in f spec {spec!r}") from exc
            return branchsolve.power(p)
        if spec.startswith("table:"):
            path = Path(spec.split(":", 1)[1])
            if not path.exists():
                raise ConfigError(f"nonlinearity table not found: {path}")
            data = np.loadtxt(path, delimiter=",")
            return branchsolve.tabulated(data[:, 0], data[:, 1])
        raise ConfigError(f"unknown f spec {spec!r} (use exp, power:p or table:path)")


_FIELD_PARSERS = {
    "n": int,
    "s": float,
    "f": str,
    "modes": int,
    "quad_order": int,
    "t_max": float,
    "t_steps": int,
    "out_dir": Path,
    "seed": int,
}


def parse_config(text, overrides=None):
    """Parse flat `key=value` lines ('#' comments) into an ExperimentConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _FIELD_PARSERS:
            try:
                values[key] = _FIELD_PARSERS[key](val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
        elif key in DEFAULT_TOLERANCES:
            values.setdefault("tolerances", dict(DEFAULT_TOLERANCES))[key] = float(val)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key in _FIELD_PARSERS:
                values[key] = _FIELD_PARSERS[key](str(val))
            elif key in DEFAULT_TOLERANCES:
                values.setdefault("tolerances", dict(DEFAULT_TOLERANCES))[key] = float(val)
    if "f" in values:
        values["f_spec"] = values.pop("f")
    return ExperimentConfig(**values)
