"""Command-line front end: config parsing, orchestration, CSV emission.

Two modes reproduce the paper-style experiments:
  sweep  - summary statistics per strategy over a distance grid
  cdf    - empirical spectral-efficiency CDF per strategy at one distance

Configuration comes from defaults, overridden by an optional
`key = value` file (# comments allowed), overridden by flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, TextIO

import numpy as np

from .montecarlo import _sweep_stats, run_cdf
from .scenario import ScenarioConfig
from .strategies import ALL_STRATEGIES, StrategyKind

_MODES = ("sweep", "cdf")
# Largest sweep grid accepted, so that a mistyped lstep fails at once
# instead of building a huge grid.
MAX_SWEEP_POINTS = 100_000
# cdf rows formatted per write: large enough that the numpy calls of a
# write cost little per row, small enough that its buffers (a few hundred
# bytes a row, freed before the next write) stay a small part of the run.
CDF_ROWS_PER_WRITE = 2048


# A usage error is raised for main to report, not printed with exit 2.
class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


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


def _setting(default, flag=None, help=None, parse=None, mode=None):
    """A setting: its default, its command-line flag if it has one, the
    parser for its file and flag text if its default's type does not
    imply one, and the one mode its flag applies to, if not both."""
    return field(default=default, metadata={
        "parse": parse, "flag": flag, "help": help, "mode": mode})


@dataclass(frozen=True)
class Settings(ScenarioConfig):
    """Fully resolved run settings: a ScenarioConfig plus the experiment
    and its output.

    Each scenario setting is declared once, in ScenarioConfig; the three
    with a flag are re-declared here only to attach it. Config-file keys,
    flags and `--dump-config` are derived from the fields, in field order
    (the scenario's first). Parsers reject text that names no value;
    `__post_init__` checks all values but trials and workers, which the run
    checks. A flag of one mode is rejected in the other; its file key is not.
    """

    distance_m: float = _setting(
        ScenarioConfig.distance_m, "--distance",
        "end-to-end distance in meters (cdf mode only)", mode="cdf")
    blocked_direct: bool = _setting(
        ScenarioConfig.blocked_direct, "--blocked-direct")
    seed: int = _setting(ScenarioConfig.seed, "--seed")
    mode: str = _setting("sweep", "--mode", "sweep or cdf", _parse_mode)
    lmin: float = _setting(10.0, "--lmin", mode="sweep")
    lmax: float = _setting(100.0, "--lmax", mode="sweep")
    lstep: float = _setting(10.0, "--lstep", mode="sweep")
    trials: int = _setting(10_000, "--trials")
    strategies: tuple[StrategyKind, ...] = _setting(
        ALL_STRATEGIES, "--strategies", "comma-separated strategy names",
        _parse_strategies)
    workers: int = _setting(1, "--workers")
    out: str = _setting("", "--out", "output CSV path")

    def __post_init__(self):
        for name in ("lmin", "lmax"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.lmin > 0:
            raise ValueError("lmin must be positive")
        if not self.lstep > 0:
            raise ValueError("lstep must be positive")
        if self.lmin > self.lmax:
            raise ValueError("lmin must not exceed lmax")
        if not self._sweep_steps() < MAX_SWEEP_POINTS:
            raise ValueError(f"lstep {self.lstep!r} makes more than "
                             f"{MAX_SWEEP_POINTS} sweep points")
        # sweep_distances rounds points to 1e-9 m after an error of a few
        # float spacings at lmax; a finer step could merge two of them.
        if not self.lstep > 2e-9 + 3 * math.ulp(self.lmax):
            raise ValueError(f"lstep {self.lstep!r} is too fine for the "
                             "sweep grid, whose points are rounded to 1e-9 m")
        super().__post_init__()

    def _sweep_steps(self) -> float:
        """Steps of lstep from lmin to lmax (1e-9 m slack); inf when lstep
        is too small for the quotient to be finite."""
        return (self.lmax - self.lmin + 1e-9) / self.lstep

    def sweep_distances(self) -> tuple[float, ...]:
        """lmin, lmin + lstep, ... up to lmax; each point is computed from
        lmin, so rounding does not accumulate."""
        return tuple(round(self.lmin + k * self.lstep, 9)
                     for k in range(math.floor(self._sweep_steps()) + 1))


def _parser(f):
    """The parser of a setting: its own, else its default's type."""
    parse = f.metadata.get("parse") or type(f.default)
    return _parse_bool if parse is bool else parse


# From the settings table: key -> parser; key -> (flag, mode) of mode flags.
_PARSERS = {f.name: _parser(f) for f in fields(Settings)}
_MODE_FLAGS = {f.name: (f.metadata["flag"], f.metadata["mode"])
               for f in fields(Settings) if f.metadata.get("mode")}


def _parse(key: str, text: str, where: str = ""):
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise ValueError(f"{where}bad value for {key}: {exc}") from None


def parse_config_file(path: str) -> dict:
    """Parse a `key = value` config file; OSError if not readable as UTF-8."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
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
        value = str(value)
        if value.split("#")[0].strip() != value or set("\r\n") & set(value):
            raise ValueError(f"cannot dump {key} = {value!r}: a config value "
                             "holds no '#', line break or edge space")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The flag parser, built once per process, since building it costs
    more than the rest of resolving; parse_args keeps no state between
    calls."""
    p = _ArgumentParser(
        prog="relaysim",
        description="Monte Carlo simulator for cooperative relaying "
                    "strategies in a smart-grid NAN.")
    for f in fields(Settings):
        if f.metadata.get("flag"):
            # A switch stores "true", which still goes through the parser.
            switch = ({"action": "store_const", "const": "true"}
                      if _PARSERS[f.name] is _parse_bool else {})
            p.add_argument(f.metadata["flag"], dest=f.name,
                           help=f.metadata["help"], **switch)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--dump-config", action="store_true")
    return p


def resolve_settings(argv: list[str] | None) -> tuple[Settings, bool]:
    """Merge defaults <- config file <- flags; ValueError on bad input."""
    args = _build_parser().parse_args(argv)
    merged = parse_config_file(args.config) if args.config else {}
    for key in _PARSERS:
        text = getattr(args, key, None)
        if text is not None:
            merged[key] = _parse(key, text)
    settings = Settings(**merged)
    for key, (flag, mode) in _MODE_FLAGS.items():
        if mode != settings.mode and getattr(args, key):
            raise ValueError(f"{flag} applies to {mode} mode only")
    return settings, args.dump_config


def _atomic_write(path: str, write: Callable[[TextIO], object]) -> None:
    """Create a temp file in path's directory, call write(fh) on it and
    rename it to path; delete it on any failure. A failure to create it
    raises OSError `cannot write path`; write's own errors propagate."""
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@functools.cache
def _digit_words() -> tuple[np.ndarray, ...]:
    """Three tables of uint32 words, the four bytes of text of 0..999: as
    an integer part, its leading zeros but the last made 0 bytes, and a
    point; as three decimals and a 0 byte; as three decimals and a comma."""
    return tuple(np.frombuffer("".join(map(form.format, range(1000)))
                               .encode(), np.uint32)
                 for form in ("{:\0>3}.", "{:03}\0", "{:03},"))


def _cells(x: np.ndarray) -> np.ndarray | None:
    """The (..., 3) uint32 words of `%.6f` of each float of x and a comma:
    _digit_words of q = rint(x * 1e6), a q within 1e-6 of a tie read back
    from `%.6f`, as x * 1e6 may round across it. None if a value has none:
    NaN, inf, a negative or -0.0, or a q of 1e9 or more."""
    y = x * 1e6
    q = np.rint(y)
    if not q.max() < 1e9 or x.view(np.int64).min() < 0:
        return None
    np.abs(np.subtract(y, q, out=y), out=y)
    for i in np.flatnonzero(y > 0.5 - 1e-6):
        q.flat[i] = float(("%.6f" % x.flat[i]).replace(".", ""))
    high, low = np.divmod(q.astype(np.intp), 1000)
    whole, mid = np.divmod(high, 1000)
    point, digits, comma = _digit_words()
    return np.stack((point[whole], digits[mid], comma[low]), axis=-1)


def _words(texts: list[str]) -> np.ndarray:
    """Each ASCII text and a comma as uint32 words, 0-padded to one width."""
    width = max(map(len, texts)) // 4 + 1
    heads = "".join(f"{text},".ljust(4 * width, "\0") for text in texts)
    return np.frombuffer(heads.encode(), np.uint32).reshape(-1, width)


def _lines(shape: tuple[int, ...], *parts: np.ndarray) -> str:
    """The text of a `shape` of rows of uint32 words: the parts, broadcast
    to it, side by side, each row's last byte a line end, 0 bytes dropped."""
    words = np.empty((*shape, sum(p.shape[-1] for p in parts)), np.uint32)
    end = 0
    for part in parts:
        words[..., end:end + part.shape[-1]] = part
        end += part.shape[-1]
    words.view(np.uint8)[..., -1] = ord("\n")
    text = words.tobytes()
    del words
    return text.translate(None, b"\0").decode()


def format_sweep_csv(results) -> str:
    """The sweep CSV of _sweep_stats' triple, by strategy name, then
    distance: name and `%g` distance words, four _cells, else one `%` call."""
    distances, kinds, stats = results
    order = sorted(range(len(kinds)), key=lambda k: kinds[k].value)
    names = [kinds[k].value for k in order]
    points = ["%g" % d for d in distances]
    stats = stats[:, order].transpose(1, 0, 2)  # (kinds, points, 4)
    head = "strategy,distance_m,mean_se,p10_se,p50_se,p90_se\n"
    if (cells := _cells(stats)) is None:
        return head + "".join(f"{name},{point},%.6f,%.6f,%.6f,%.6f\n"
                              for name in names for point in points) \
            % tuple(stats.ravel().tolist())
    return head + _lines(stats.shape[:2], _words(names)[:, None],
                         _words(points), cells.reshape(*stats.shape[:2], 12))


def _cdf_rows(names: list[str], columns: list[np.ndarray],
              cdf: np.ndarray) -> str:
    """The rows `name,value,cdf` of each name's values and the cdf column:
    the name words and both _cells, or one `%` call if a value has none."""
    x = np.vstack((*columns, cdf))
    if (cells := _cells(x)) is None:
        return "".join((name + ",%.6f,%.6f\n") * len(cdf) for name in names) \
            % tuple(np.stack(np.broadcast_arrays(x[:-1], cdf), -1)
                    .ravel().tolist())
    return _lines(x[:-1].shape, _words(names)[:, None], cells[:-1], cells[-1])


def format_cdf_csv(cdfs, fh: TextIO) -> None:
    """Write the cdf CSV of run_cdf's sorted rows, which all hold the
    same number n of samples, to fh, at most CDF_ROWS_PER_WRITE rows at a
    time: as many strategies' n rows as fit in one write, else one
    strategy's rows a chunk at a time. Each write is one _cdf_rows call,
    whose i / n column numpy makes as Python does (n < 2**53)."""
    fh.write("strategy,spectral_efficiency,cdf\n")
    kinds = sorted(cdfs, key=attrgetter("value"))
    n = len(cdfs[kinds[0]])
    per = max(1, CDF_ROWS_PER_WRITE // max(n, 1))
    for group in (kinds[i:i + per] for i in range(0, len(kinds), per)):
        for first in range(0, n, CDF_ROWS_PER_WRITE):
            stop = min(first + CDF_ROWS_PER_WRITE, n)
            fh.write(_cdf_rows([kind.value for kind in group],
                               [cdfs[kind][first:stop] for kind in group],
                               np.arange(first + 1, stop + 1) / n))


def run(settings: Settings, fh: TextIO) -> None:
    """Execute the configured experiment and write its CSV to fh."""
    if settings.mode == "sweep":
        fh.write(format_sweep_csv(_sweep_stats(
            settings, settings.sweep_distances(), settings.trials,
            settings.strategies, settings.workers)))
    else:
        format_cdf_csv(run_cdf(settings, settings.trials,
                               settings.strategies, settings.workers), fh)


def main(argv: list[str] | None = None) -> int:
    try:
        settings, dump_only = resolve_settings(argv)
        if dump_only:
            sys.stdout.write(dump_config(settings))
            return 0
        out = settings.out or f"{settings.mode}.csv"
        _atomic_write(out, functools.partial(run, settings))
    except (OSError, ValueError, MemoryError) as exc:
        print(f"relaysim: error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0
