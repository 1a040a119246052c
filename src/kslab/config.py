"""Experiment configuration: flat key=value text with dotted sections.

Example::

    grid.d=2
    grid.n_axis=128
    grid.box_len=40
    params.chi=1.0
    params.tau=1.0
    params.lambda=0.0
    params.mu=1.0
    init.preset=gaussian_bump
    init.amplitude=1.0
    init.width=2.5
    init.M=8.0
    init.seed=0
    run.dt=auto
    run.t_end=1.0
    run.monitor_every=10
    monitor.k=3
    monitor.R=2.0
    monitor.centers=max+lattice

Lines starting with '#' and blank lines are ignored.  'auto' lets the run
choose the step.  Products are always dealiased by the 2/3 rule, so there is
no switch for it.  The run derives its blow-up cap from the initial data, so
there is no key for that either.  ``monitor.centers`` has the one value
``max+lattice``, which selects nothing: every sup over centers is over
every grid point.  The key stays so that config files which set it still
load.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .fields import Grid, make_grid
from .monitors import validate_settings
from .presets import validate_initial
from .solver import Params, RunConfig

__all__ = ["ExperimentConfig", "SweepSpec", "ConfigError", "parse_kv_text"]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


def parse_kv_text(text: str) -> dict[str, str]:
    """The key=value pairs of a config text; a later key overrides an earlier one."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{raw}'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _to_float(val: str, key: str) -> float:
    try:
        out = float(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: '{val}'") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{key}: must be finite, got '{val}'")
    return out


def _to_int(val: str, key: str) -> int:
    try:
        return int(val)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: '{val}'") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: grid, coefficients, data, stepping, monitors."""

    d: int = 2
    n_axis: int = 128
    box_len: float = 40.0
    chi: float = 1.0
    tau: float = 1.0
    lam: float = 0.0
    mu: float = 1.0
    preset: str = "gaussian_bump"
    amplitude: float = 1.0
    width: float | None = None
    M: float | None = None
    seed: int = 0
    dt: float | None = None
    t_end: float = 1.0
    monitor_every: int = 10
    monitor_k: int = 3
    monitor_R: float = 2.0
    monitor_centers: str = "max+lattice"

    def grid(self) -> Grid:
        return make_grid(self.d, self.n_axis, self.box_len)

    def params(self) -> Params:
        return Params(chi=self.chi, tau=self.tau, lam=self.lam, mu=self.mu, d=self.d)

    def run_config(self) -> RunConfig:
        return RunConfig(t_end=self.t_end, dt=self.dt, monitor_every=self.monitor_every)

    def effective_width(self) -> float:
        return self.width if self.width is not None else self.box_len / 16.0

    def effective_M(self) -> float:
        if self.M is not None:
            return self.M
        # Largest truncation radius that still fits: just under box_len/4.
        return 0.24 * self.box_len

    def _initial_data(self) -> None:
        validate_initial(
            self.grid(), self.preset, self.amplitude, self.effective_width(), self.effective_M(), self.seed
        )

    def __post_init__(self):
        for section, check in (
            ("grid", self.grid),
            ("params", self.params),
            ("run", self.run_config),
            ("init", self._initial_data),
            ("monitor", lambda: validate_settings(self.grid(), self.monitor_k, self.monitor_R)),
        ):
            try:
                check()
            except ValueError as exc:
                raise ConfigError(f"{section}.{exc}") from exc
        field_bytes = 8 * self.n_axis**self.d  # one real field; a run holds several
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if field_bytes > memory:
            raise ConfigError(
                f"grid.n_axis={self.n_axis}: one field of {field_bytes} bytes exceeds "
                f"the machine's {memory} bytes of memory"
            )
        if self.monitor_centers != "max+lattice":
            raise ConfigError("monitor.centers must be 'max+lattice'")

    @staticmethod
    def from_mapping(kv: dict[str, str]) -> "ExperimentConfig":
        return ExperimentConfig(**dict(_apply(key, value) for key, value in kv.items()))

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the config file: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a text file") from exc
        return ExperimentConfig.from_mapping(parse_kv_text(text))


# Every configuration key: the field it sets and the converter of its text.
CONFIG_KEYS = {
    "grid.d": ("d", _to_int),
    "grid.n_axis": ("n_axis", _to_int),
    "grid.box_len": ("box_len", _to_float),
    "params.chi": ("chi", _to_float),
    "params.tau": ("tau", _to_float),
    "params.lambda": ("lam", _to_float),
    "params.mu": ("mu", _to_float),
    "init.preset": ("preset", lambda v, key: v),
    "init.amplitude": ("amplitude", _to_float),
    "init.width": ("width", _to_float),
    "init.M": ("M", _to_float),
    "init.seed": ("seed", _to_int),
    "run.dt": ("dt", lambda v, key: None if v == "auto" else _to_float(v, key)),
    "run.t_end": ("t_end", _to_float),
    "run.monitor_every": ("monitor_every", _to_int),
    "monitor.k": ("monitor_k", _to_int),
    "monitor.R": ("monitor_R", _to_float),
    "monitor.centers": ("monitor_centers", lambda v, key: v),
}

# Sweep rows are named after the parameter as given: ``--param mu`` writes ``mu_<v:g>/``.
SWEEP_ALIASES = {"mu": "params.mu", "chi": "params.chi"}


def _apply(key: str, value: str) -> tuple[str, object]:
    """The field one dotted key sets and its converted value; unknown keys are errors."""
    entry = CONFIG_KEYS.get(key)
    if entry is None:
        raise ConfigError(f"unknown configuration key '{key}'")
    attr, conv = entry
    return attr, conv(value, key)


@dataclass(frozen=True)
class SweepSpec:
    """One configuration key (or an alias of one) over a value list, sharing a base."""

    parameter: str
    values: tuple[float, ...]
    base: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        if SWEEP_ALIASES.get(self.parameter, self.parameter) not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key '{self.parameter}'")
        if not self.values:
            raise ConfigError("sweep value list must be nonempty")

    def configs(self) -> list[ExperimentConfig]:
        """One config per value; '.17g' text round-trips every float exactly."""
        key = SWEEP_ALIASES.get(self.parameter, self.parameter)
        return [replace(self.base, **dict([_apply(key, f"{v:.17g}")])) for v in self.values]
