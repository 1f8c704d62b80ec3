"""Command-line front end: config parsing, orchestration, CSV emission.

Two modes reproduce the paper-style experiments:
  sweep  - summary statistics per strategy over a distance grid
  cdf    - empirical spectral-efficiency CDF per strategy at one distance

Configuration comes from defaults, overridden by an optional
`key = value` file (# comments allowed), overridden by flags.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

from .montecarlo import SweepSpec, run_cdf, run_sweep
from .scenario import ScenarioConfig
from .strategies import ALL_STRATEGIES, StrategyKind

_MODES = ("sweep", "cdf")
_SCENARIO = ScenarioConfig()
# Largest sweep grid accepted, so that a mistyped lstep fails at once
# instead of building a huge grid.
MAX_SWEEP_POINTS = 100_000


class CliError(Exception):
    """Validation or I/O failure reported as a single-line diagnostic."""


def _parse_mode(text: str) -> str:
    if text not in _MODES:
        raise ValueError(f"{text!r} is not one of {', '.join(_MODES)}")
    return text


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_strategies(text: str) -> tuple[StrategyKind, ...]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise ValueError("empty strategy list")
    if len(set(names)) < len(names):
        raise ValueError(f"duplicate strategy in {text!r}")
    try:
        return tuple(StrategyKind(name) for name in names)
    except ValueError:
        valid = ", ".join(k.value for k in StrategyKind)
        raise ValueError(f"unknown strategy in {text!r}; valid: {valid}") \
            from None


def _setting(default, parse, flag=None, help=None):
    """A setting: its default, the parser for its file and flag text, and
    its command-line flag if it has one."""
    return field(default=default,
                 metadata={"parse": parse, "flag": flag, "help": help})


@dataclass(frozen=True)
class Settings:
    """Fully resolved run settings (scenario + experiment + output).

    The only declaration of each setting: config-file keys, flags and
    `--dump-config` are derived from these fields, in this order. Parsers
    reject text that names no value; `__post_init__` checks the values.
    """

    mode: str = _setting("sweep", _parse_mode, "--mode", "sweep or cdf")
    distance_m: float = _setting(
        _SCENARIO.distance_m, float, "--distance",
        "end-to-end distance in meters (cdf mode only)")
    lmin: float = _setting(10.0, float, "--lmin")
    lmax: float = _setting(100.0, float, "--lmax")
    lstep: float = _setting(10.0, float, "--lstep")
    trials: int = _setting(10_000, int, "--trials")
    seed: int = _setting(_SCENARIO.master_seed, int, "--seed")
    blocked_direct: bool = _setting(
        _SCENARIO.direct_blocked, _parse_bool, "--blocked-direct")
    strategies: tuple[StrategyKind, ...] = _setting(
        ALL_STRATEGIES, _parse_strategies, "--strategies",
        "comma-separated strategy names")
    tx_power_dbm: float = _setting(_SCENARIO.tx_power_dbm, float)
    interferer_power_dbm: float = _setting(
        _SCENARIO.interferer_power_dbm, float)
    antenna_gain_db: float = _setting(_SCENARIO.antenna_gain_db, float)
    noise_power_dbm: float = _setting(_SCENARIO.noise_power_dbm, float)
    path_loss_coeff_db_per_decade: float = _setting(
        _SCENARIO.path_loss_coeff_db_per_decade, float)
    interferer_min: int = _setting(_SCENARIO.interferer_count_range[0], int)
    interferer_max: int = _setting(_SCENARIO.interferer_count_range[1], int)
    workers: int = _setting(1, int, "--workers")
    out: str = _setting("", str, "--out", "output CSV path")

    def __post_init__(self):
        for name in ("trials", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lmin", "lmax"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.lstep > 0:
            raise ValueError("lstep must be positive")
        if self.lmin > self.lmax:
            raise ValueError("lmin must not exceed lmax")
        if not self._sweep_steps() < MAX_SWEEP_POINTS:
            raise ValueError(f"lstep {self.lstep!r} makes more than "
                             f"{MAX_SWEEP_POINTS} sweep points")
        self.scenario_config()  # surfaces scenario invariant violations

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(
            distance_m=self.distance_m,
            tx_power_dbm=self.tx_power_dbm,
            interferer_power_dbm=self.interferer_power_dbm,
            antenna_gain_db=self.antenna_gain_db,
            noise_power_dbm=self.noise_power_dbm,
            path_loss_coeff_db_per_decade=self.path_loss_coeff_db_per_decade,
            direct_blocked=self.blocked_direct,
            interferer_count_range=(self.interferer_min, self.interferer_max),
            master_seed=self.seed,
        )

    def _sweep_steps(self) -> float:
        """Steps of lstep from lmin to lmax (1e-9 m slack); inf when lstep
        is too small for the quotient to be finite."""
        return (self.lmax - self.lmin + 1e-9) / self.lstep

    def sweep_distances(self) -> tuple[float, ...]:
        """lmin, lmin + lstep, ... up to lmax; each point is computed from
        lmin, so rounding does not accumulate."""
        return tuple(round(self.lmin + k * self.lstep, 9)
                     for k in range(math.floor(self._sweep_steps()) + 1))


# Config-file key -> parser, derived from the settings table.
_PARSERS = {f.name: f.metadata["parse"] for f in fields(Settings)}


def _parse(key: str, text: str, where: str = ""):
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise CliError(f"{where}bad value for {key}: {exc}") from None


def parse_config_file(path: str) -> dict:
    """Parse a line-oriented `key = value` config file."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse(key, value.strip(), f"{path}:{lineno}: ")
    return values


def dump_config(settings: Settings) -> str:
    """Render settings in the config-file grammar; re-parses to equality."""
    lines = []
    for key in _PARSERS:
        value = getattr(settings, key)
        if key == "strategies":
            value = ",".join(k.value for k in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relaysim",
        description="Monte Carlo simulator for cooperative relaying "
                    "strategies in a smart-grid NAN.")
    for f in fields(Settings):
        if f.metadata["flag"]:
            # A switch stores "true", which still goes through the parser.
            switch = ({"action": "store_const", "const": "true"}
                      if f.metadata["parse"] is _parse_bool else {})
            p.add_argument(f.metadata["flag"], dest=f.name,
                           help=f.metadata["help"], **switch)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--dump-config", action="store_true")
    return p


def resolve_settings(argv: list[str]) -> tuple[Settings, bool]:
    """Merge defaults <- config file <- flags into validated Settings."""
    args = _build_parser().parse_args(argv)
    merged = parse_config_file(args.config) if args.config else {}
    for key in _PARSERS:
        text = getattr(args, key, None)
        if text is not None:
            merged[key] = _parse(key, text)
    try:
        settings = Settings(**merged)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.distance_m is not None and settings.mode == "sweep":
        raise CliError("--distance applies to cdf mode only")
    return settings, args.dump_config


def _atomic_write(path: str, text: str) -> None:
    """Write to a temp file in the target directory, rename on success."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def format_sweep_csv(results) -> str:
    lines = ["strategy,distance_m,mean_se,p10_se,p50_se,p90_se"]
    keys = sorted(results, key=lambda kd: (kd[0].value, kd[1]))
    for kind, distance in keys:
        s = results[(kind, distance)]
        lines.append(f"{kind.value},{distance:g},{s.mean:.6f},"
                     f"{s.p10:.6f},{s.p50:.6f},{s.p90:.6f}")
    return "\n".join(lines) + "\n"


def format_cdf_csv(cdfs) -> str:
    lines = ["strategy,spectral_efficiency,cdf"]
    for kind in sorted(cdfs, key=lambda k: k.value):
        cdf = cdfs[kind]
        for i, value in enumerate(cdf.sorted_samples, start=1):
            lines.append(f"{kind.value},{value:.6f},{i / cdf.n:.6f}")
    return "\n".join(lines) + "\n"


def run(settings: Settings) -> str:
    """Execute the configured experiment and return the CSV text."""
    if settings.mode == "sweep":
        spec = SweepSpec(
            base_config=settings.scenario_config(),
            distances_m=settings.sweep_distances(),
            strategies=settings.strategies,
            trials_per_point=settings.trials,
        )
        return format_sweep_csv(run_sweep(spec, workers=settings.workers))
    cdfs = run_cdf(settings.scenario_config(), settings.trials,
                   settings.strategies, workers=settings.workers)
    return format_cdf_csv(cdfs)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        settings, dump_only = resolve_settings(argv)
        if dump_only:
            sys.stdout.write(dump_config(settings))
            return 0
        out = settings.out or f"{settings.mode}.csv"
        _atomic_write(out, run(settings))
    except (CliError, ValueError) as exc:
        print(f"relaysim: error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
