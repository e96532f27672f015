"""Command-line front end: run simulations, ramp analyses and strategy
comparisons from a JSON config file, and emit traces, histograms and
KPI reports.

Subcommands: ``simulate``, ``ramp-analyze``, ``compare``,
``forecast-check``.  ``--seed-fixtures DIR`` writes the bundled
synthetic corpus (profiles, forecasts and a ready-to-run config).
All outputs are deterministic: identical config and fixtures produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import json
import logging
import math
import os
import resource
import shutil
import sys
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import date as Date
from datetime import datetime, time, timedelta
from enum import EnumMeta
from pathlib import Path
from time import perf_counter
from typing import Iterator, Literal, Optional, Sequence

import numpy as np

from .battery import BatteryParams
from .ems import (MODES, EmsConfig, PrePass, StrategyKind, Trace, prepass,
                  simulate)
from .forecast import (ChargeDecisionPolicy, FixtureForecastSource,
                       ForecastError, LiveForecastSource, should_night_charge)
from .kpi import KPI_NAMES, KpiReport, accumulate, compute_kpis
from .ramp import RampConfig, ramp_histogram, samples_per_minute, window_sweep
from .timeseries import (PowerSeries, ProfileError, ResampleMethod, align,
                         load_power_csv, resample, write_grid_csv)

log = logging.getLogger(__name__)

ENDPOINT_ENV_VAR = "PVEMS_FORECAST_ENDPOINT"

TRACE_COLUMNS = ["timestamp", "p_pv", "p_load", "p_batt_cmd", "p_batt_actual",
                 "p_grid", "soc", "mode", "rr", "rr_violated"]


class CliError(RuntimeError):
    pass


class ConfigError(CliError):
    """A config value that one command refuses, or that fails only once
    the profiles are read; the CLI names the config file."""


@dataclass
class ForecastConfig:
    mode: Literal["fixture", "live"] = "fixture"
    fixture_path: Optional[Path] = None
    endpoint_base: Optional[str] = None
    region_id: int = 0
    charge_ids: frozenset[int] = ChargeDecisionPolicy.charge_ids
    unknown_behavior: str = ChargeDecisionPolicy.unknown_behavior
    retries: int = LiveForecastSource.retries
    timeout_s: float = LiveForecastSource.timeout_s

    def __post_init__(self) -> None:
        self.policy()  # checks the charge ids and unknown_behavior
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.mode == "fixture" and self.fixture_path is None:
            raise ValueError("forecast.mode is 'fixture' but no fixture_path given")

    def policy(self) -> ChargeDecisionPolicy:
        return ChargeDecisionPolicy(charge_ids=self.charge_ids,
                                    unknown_behavior=self.unknown_behavior)

    def source(self):
        if self.mode == "fixture":
            return FixtureForecastSource(self.fixture_path, self.region_id)
        endpoint = os.environ.get(ENDPOINT_ENV_VAR) or self.endpoint_base
        if not endpoint:
            raise CliError("forecast.mode is 'live' but no endpoint_base "
                           f"given (or {ENDPOINT_ENV_VAR} set)")
        return LiveForecastSource(endpoint, self.region_id, retries=self.retries,
                                  timeout_s=self.timeout_s)


@dataclass(frozen=True)
class OutputPaths:
    """The files ``simulate`` writes.  A config that does not name one
    gets its default file name in ``out/`` next to the config."""

    trace_csv: Path = Path("trace.csv")
    kpi_json: Path = Path("kpi.json")
    histogram_csv: Path = Path("histogram.csv")


@dataclass
class RunConfig:
    """A run config; ``load_config`` requires both profile paths.  The
    SOC target, night-charge power and initial SOC must fit the battery."""

    pv_path: Optional[Path] = None
    load_path: Optional[Path] = None
    pv_unit: Literal["W", "kW"] = "W"
    load_unit: Literal["W", "kW"] = "W"
    load_scale_w: float = 1.0
    load_resample: ResampleMethod = ResampleMethod.HOLD
    initial_soc: float = 0.35
    battery: BatteryParams = field(default_factory=BatteryParams)
    ems: EmsConfig = field(default_factory=EmsConfig)
    forecast: Optional[ForecastConfig] = None
    outputs: OutputPaths = field(default_factory=OutputPaths)

    def __post_init__(self) -> None:
        self.ems.validate_against(self.battery, self.initial_soc)


def _read_config_doc(path: Path) -> dict:
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also text that is not UTF-8, or an over-long integer
        raise CliError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError(f"{path}: a config must be a JSON object")
    return doc


@functools.cache
def _type_hints(cls: type) -> dict:
    """``typing.get_type_hints(cls)``.  A class of this module resolves its
    annotations against this module's globals: run by ``runpy`` (as in
    ``python -m cProfile -m pvems.cli``) they are not those of
    ``sys.modules["__main__"]``, where its ``__module__`` points."""
    return typing.get_type_hints(cls, globals() if cls.__module__ == __name__ else None)

# The JSON type of a field's value by its annotation; paths, clock
# times, enum members and literals are written as strings.
_JSON_TYPES = {bool: ("true or false", (bool,)), int: ("an integer", (int,)),
               float: ("a number", (int, float))}


def _build(cls: type, doc, where: str, base: Path, given: Optional[dict] = None):
    """``cls(**fields, **given)`` with ``fields`` the values of the JSON
    object ``doc`` (``null`` is empty) checked and converted by
    ``_convert``; fields that ``doc`` does not set keep their defaults.

    A key that is not a field of ``cls``, or one of ``given``, or a
    value that does not fit its field's annotation is a ``TypeError`` or
    ``ValueError`` naming ``<where><key>``; ``cls`` checks the values.
    """
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise TypeError(f"{where[:-1]} must be a JSON object, got {doc!r}")
    given = given or {}
    hints = _type_hints(cls)
    values = {}
    for key, value in doc.items():
        if key not in hints or key in given:
            shown = key if key.isprintable() else repr(key)
            raise TypeError(f"{where}{shown} is not a known key"
                            + (" (it is set at the top level)" if key in given else ""))
        values[key] = _convert(value, hints[key], where + key, base)
    return cls(**values, **given)


def _convert(value, hint, name: str, base: Path):
    """The field value the JSON ``value`` gives a field annotated ``hint``;
    relative paths resolve against ``base``."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[...]: null, "" and {} are None
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        converted = _convert(value, hint, name, base)  # checked even if empty
        return None if value in ("", {}) else converted
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, name + ".", base)
    if origin in (list, frozenset):
        if not isinstance(value, list):
            raise TypeError(f"{name} must be a list, got {value!r}")
        (item_hint,) = typing.get_args(hint)
        return origin(_convert(item, item_hint, f"{name}[{i}]", base)
                      for i, item in enumerate(value))
    expected, types = _JSON_TYPES.get(hint, ("a string", (str,)))
    if isinstance(value, bool) is not (hint is bool) or not isinstance(value, types):
        raise TypeError(f"{name} must be {expected}, got {value!r}")
    if hint is float:
        try:
            number = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        return number
    if hint is Path:
        return base / value
    if hint is time:
        try:
            hh, mm = value.split(":")
            return time(int(hh), int(mm))
        except ValueError:
            raise ValueError(f"{name} must be a clock time HH:MM, got {value!r}") from None
    if origin is typing.Literal:
        choices = typing.get_args(hint)
    elif isinstance(hint, EnumMeta):
        choices = [member.value for member in hint]
    else:
        return value
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(map(repr, choices))}, "
                         f"got {value!r}")
    return value if origin is typing.Literal else hint(value)


# EmsConfig fields that a config sets at its top level, not under "ems".
_TOP_LEVEL_EMS_FIELDS = ("strategy", "ramp")


def _run_config(path: Path, doc: dict) -> RunConfig:
    """Check and build the whole config ``doc`` read from ``path``; a
    ``TypeError`` or ``ValueError`` is a ``CliError`` naming the file."""
    doc, base = {"strategy": StrategyKind.SCM_RR_WF.value, **doc}, path.parent
    hints = _type_hints(EmsConfig)
    try:
        top = {key: _convert(doc.pop(key, None), hints[key], key, base)
               for key in _TOP_LEVEL_EMS_FIELDS}
        ems = _build(EmsConfig, doc.pop("ems", None), "ems.", base, top)
        return _build(RunConfig, doc, "", base, {"ems": ems})
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from None


def load_ramp_config(path: Path) -> RampConfig:
    """The ramp section of a JSON run config; the whole file is checked
    as in ``load_config``, so a misspelt key anywhere is refused."""
    path = Path(path)
    return _run_config(path, _read_config_doc(path)).ems.ramp


def load_config(path: Path, strategy_override: Optional[str] = None,
                out_dir: Optional[Path] = None) -> RunConfig:
    """Read a JSON run config; relative paths resolve against the file.

    A key that is not a config field, or a value of the wrong type or
    out of range, is a ``CliError`` naming the file, even where
    ``strategy_override`` or ``out_dir`` replaces it.
    """
    path = Path(path)
    doc = _read_config_doc(path)
    config = _run_config(path, doc)
    if config.pv_path is None or config.load_path is None:
        raise CliError(f"{path}: pv_path and load_path are required")
    if strategy_override:
        config.ems = replace(config.ems, strategy=StrategyKind(strategy_override))

    named = doc.get("outputs") or {}
    out = path.parent / "out" if out_dir is None else Path(out_dir)

    def output_path(name: str, p: Path) -> Path:
        if name not in named:
            return out / p
        return p if out_dir is None else out / p.name

    config.outputs = OutputPaths(**{name: output_path(name, p)
                                    for name, p in vars(config.outputs).items()})
    return config


def load_profiles(config: RunConfig) -> tuple[PowerSeries, PowerSeries]:
    """Ingest and scale the PV and load profiles and put both on the tick
    grid: the PV by hold when its step differs from the tick, the load by
    ``load_resample`` at the PV's ticks, whatever its own step.

    A scale that overflows a load power is a ``CliError`` naming the load
    profile, and profiles with no tick where both are a ``CliError``
    naming both.  A tick so much finer than the profiles' step that the
    grid cannot be allocated, counted in whole microseconds as the grid
    is, is a ``ConfigError``.
    """
    pv = load_power_csv(config.pv_path, expected_unit=config.pv_unit)
    load = load_power_csv(config.load_path, expected_unit=config.load_unit)
    if config.load_scale_w != 1.0:
        try:
            with np.errstate(over="ignore"):  # an inf is refused, naming the file
                load = load.scaled(config.load_scale_w)
        except ProfileError:
            raise CliError(f"{config.load_path}: load_scale_w {config.load_scale_w!r} "
                           "overflows a power in W") from None

    tick = config.ems.ramp.tick_s
    span, tick_step = pv.end - pv.start, timedelta(seconds=tick)
    try:  # a tick that rounds to 0 us, or past numpy's largest array, is too fine
        if tick_step and span // tick_step < sys.maxsize:
            if pv.step_s != tick:
                pv = resample(pv, tick)
            return align(pv, load, config.load_resample)
    except MemoryError:
        pass
    except ProfileError as exc:
        raise CliError(f"{config.pv_path}, {config.load_path}: {exc}") from None
    raise ConfigError(f"ramp.tick_s ({tick:g} s) is too fine for the profiles: "
                      f"{span.total_seconds():g} s of them take more ticks than can "
                      "be allocated")


@contextmanager
def _output_set(paths: Sequence[Path]) -> Iterator[list[Path]]:
    """Temporary paths to write ``paths`` to, moved into place together.

    Each output is written under its own name into a temporary directory
    made in its own directory, so ``os.replace`` moves it within one
    file system.  The moves happen only after the block ends without an
    error, and the temporary directories are removed either way: a run
    that fails leaves the outputs that were there before it, never a
    mix.  Paths that are directories are refused before the block.
    """
    tmp_dirs: dict[Path, Path] = {}
    try:
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if path.parent not in tmp_dirs:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp_dirs[path.parent] = Path(tempfile.mkdtemp(prefix=".pvems-",
                                                              dir=path.parent))
        staged = {path: tmp_dirs[path.parent] / path.name for path in paths}
        yield [staged[path] for path in paths]
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp_dir in tmp_dirs.values():
            shutil.rmtree(tmp_dir, ignore_errors=True)


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Log ``stage <name> <seconds> maxrss <MB>`` (INFO, shown with ``-v``)
    after the block: its wall time and the process's peak RSS so far."""
    t0 = perf_counter()
    yield
    log.info("stage %s %.6f maxrss %.1f", name, perf_counter() - t0, _maxrss_mb())


def _maxrss_mb() -> float:
    """The process's RSS high-water mark in MiB (``ru_maxrss`` counts KiB,
    or bytes on macOS)."""
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _prepass(pv: PowerSeries, config: RunConfig) -> PrePass:
    """``prepass`` of the PV profile; a window sum or a ramp rate that
    overflows is a ``CliError`` that names the profile."""
    try:
        return prepass(pv, config.ems)
    except OverflowError as exc:
        raise CliError(f"{config.pv_path}: {exc}") from None


_BALANCE_BLOCK = 16_384  # ticks whose power balance _kpis checks at a time


def _kpis(trace: Trace, config: RunConfig) -> KpiReport:
    """The KPI report of a trace.  An energy or a ratio that overflows, or a
    tick whose powers do not balance to 1e-6 W (powers so large that the
    battery's and the standby's watts are lost in rounding), is a
    ``CliError`` that names the profiles."""
    profiles = f"{config.pv_path}, {config.load_path}"
    try:
        report = compute_kpis(accumulate(trace, config.ems.ramp))
    except OverflowError as exc:
        raise CliError(f"{profiles}: {exc}") from None
    for lo in range(0, len(trace), _BALANCE_BLOCK):
        t = slice(lo, lo + _BALANCE_BLOCK)
        off = abs(trace.p_pv[t] + trace.p_grid[t]
                  - (trace.p_load[t] + trace.p_batt_actual[t] + config.battery.standby_power_w))
        if off.max() > 1e-6:
            raise CliError(f"{profiles}: powers too large to balance to 1e-6 W: tick "
                           f"{lo + int(off.argmax())} is off by {float(off.max())!r} W")
    return report


def _resolve_forecast(config: RunConfig, strategies: list[StrategyKind]):
    """Source + policy for a run of ``strategies``; warns when the section is unused."""
    if config.forecast is None:
        return None, None
    if not any(s.has_forecast_charging for s in strategies):
        log.warning("no strategy of %s uses forecasts; forecast section ignored",
                    ",".join(s.value for s in strategies))
        return None, None
    return config.forecast.source(), config.forecast.policy()


def write_trace_csv(trace: Trace, path: Path) -> None:
    """One grid-CSV row per tick (see ``timeseries.write_grid_csv``)."""
    columns = (trace.p_pv, trace.p_load, trace.p_batt_cmd, trace.p_batt_actual,
               trace.p_grid, trace.soc, trace.mode, trace.rr_pct_per_min,
               trace.rr_violated)
    write_grid_csv(path, trace.start, trace.step,
                   dict(zip(TRACE_COLUMNS[1:], columns)),
                   labels={"mode": [m.value for m in MODES],
                           "rr_violated": ("false", "true")})


def write_histogram_csv(series: PowerSeries, cfg: RampConfig, path: Path) -> None:
    hist = ramp_histogram(series, cfg)
    pct = hist.percentages()
    counts = {"<5": hist.below_5, ">=5": hist.ge_5, ">=10": hist.ge_10,
              ">10": hist.gt_10, ">=50": hist.ge_50}
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_pct_per_min", "minutes", "percent_of_total"])
        for bucket in ("<5", ">=5", ">=10", ">10", ">=50"):
            writer.writerow([bucket, counts[bucket], repr(pct[bucket])])
        writer.writerow(["total", hist.total_minutes, repr(100.0)])


def write_kpi_json(report: KpiReport, path: Path) -> None:
    path.write_text(report.to_json() + "\n", encoding="utf-8")


def write_window_sweep_csv(sweep: list[tuple[float, int]], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_s", "controlled_ramps"])
        for w, count in sweep:
            writer.writerow([repr(float(w)), count])


def write_compare_csv(reports: dict[str, KpiReport], names: list[str],
                      path: Path) -> None:
    """One row per KPI (percent, 4 places) and the ramp counts, one
    column per strategy name in ``names``."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kpi"] + names)
        for kpi in KPI_NAMES:
            row = [kpi.upper()]
            for name in names:
                value = reports[name].values_pct()[kpi]
                row.append("" if value is None else f"{value:.4f}")
            writer.writerow(row)
        writer.writerow(["ramps_original"] + [reports[n].totals.n_ramps_original for n in names])
        writer.writerow(["ramps_controlled"] + [reports[n].totals.n_ramps_controlled for n in names])


def print_kpi_summary(report: KpiReport, strategy: str) -> None:
    print(f"strategy: {strategy}")
    t = report.totals
    print(f"  energy (kWh): pv {t.e_pv_generated / 1e3:.2f}  load {t.e_load / 1e3:.2f}  "
          f"grid in {t.e_from_grid / 1e3:.2f} / out {t.e_to_grid / 1e3:.2f}  "
          f"batt in {t.e_to_battery / 1e3:.2f} / out {t.e_from_battery / 1e3:.2f}")
    print(f"  ramps: {t.n_ramps_controlled} controlled of {t.n_ramps_original} violating"
          + ("  (no violations occurred)" if report.crr_no_violations else ""))
    cells = []
    for name, value in report.values_pct().items():
        cells.append(f"{name.upper()} {'--' if value is None else f'{value:.1f}%'}")
    print("  " + "  ".join(cells))


def run_simulation(config: RunConfig) -> KpiReport:
    """Ingest, simulate, and write trace CSV, KPI JSON and ramp histogram.

    A tick that does not divide a minute, which the histogram needs, is
    refused first.  The outputs are staged next (see ``_output_set``), so
    an unwritable directory fails before any ingest or simulation work,
    and they are moved into place only after all three are written.  A
    PV shorter than the histogram's one minute is refused once aligned.
    """
    tick = config.ems.ramp.tick_s
    try:
        samples_per_minute(tick)
    except ValueError:
        raise ConfigError(f"ramp.tick_s ({tick:g} s) must divide 60 s for the "
                          "ramp histogram") from None
    paths = dataclasses.astuple(config.outputs)
    with _output_set(paths) as (trace_tmp, kpi_tmp, histogram_tmp):
        with _stage("ingest+align"):
            pv, load = load_profiles(config)
        if len(pv) <= samples_per_minute(tick):  # ramp_histogram's rule
            raise CliError(f"{config.pv_path}: series shorter than one minute")
        with _stage("prepass"):
            pre = _prepass(pv, config)
        strategy, ramp = config.ems.strategy, config.ems.ramp
        source, policy = _resolve_forecast(config, [strategy])
        with _stage(f"dispatch.{strategy.value}"):
            trace = simulate(pv, load, config.ems, config.battery,
                             forecast_source=source, policy=policy,
                             initial_soc=config.initial_soc, pre=pre)
        with _stage(f"accounting.{strategy.value}"):
            report = _kpis(trace, config)

        with _stage("write.trace_csv"):
            write_trace_csv(trace, trace_tmp)
        with _stage("write.kpi_json"):
            write_kpi_json(report, kpi_tmp)
        with _stage("write.histogram_csv"):
            write_histogram_csv(pv, ramp, histogram_tmp)
    print_kpi_summary(report, strategy.value)
    for path in paths:
        print(f"  wrote {path}")
    return report


def run_ramp_analysis(pv_path: Path, cfg: RampConfig, windows_s: list[float],
                      out_dir: Path, pv_unit: str = "W") -> None:
    """Write the ramp-bucket histogram and the window-sweep table; a PV
    they cannot be computed from is a ``CliError`` naming it."""
    if not windows_s:
        print(f"no windows given; defaulting to {{{cfg.window_s:g} s}}")
        windows_s = [cfg.window_s]
    pv = load_power_csv(pv_path, expected_unit=pv_unit)
    hist_path, sweep_path = out_dir / "histogram.csv", out_dir / "window_sweep.csv"
    with _output_set([hist_path, sweep_path]) as (hist_tmp, sweep_tmp):
        try:
            write_histogram_csv(pv, cfg, hist_tmp)
            sweep = window_sweep(pv, cfg, windows_s)
        except (ValueError, OverflowError) as exc:
            raise CliError(f"{pv_path}: {exc}") from None
        write_window_sweep_csv(sweep, sweep_tmp)

    for w, count in sweep:
        print(f"window {w:g} s: {count} controlled ramps")
    print(f"  wrote {hist_path}")
    print(f"  wrote {sweep_path}")


def compare_strategies(config: RunConfig, strategies: list[StrategyKind],
                       out_dir: Path) -> None:
    """Run each strategy on identical inputs; emit a side-by-side table.

    The SOC-independent pre-pass is computed once and shared by every
    strategy's ``simulate`` call; a strategy's trace is dropped once its
    KPIs are computed, so one trace is held at a time.  ``compare.csv``
    is staged first, as ``run_simulation``'s outputs are.
    """
    table_path = out_dir / "compare.csv"
    names = [s.value for s in strategies]
    with _output_set([table_path]) as (table_tmp,):
        with _stage("ingest+align"):
            pv, load = load_profiles(config)
        with _stage("prepass"):
            pre = _prepass(pv, config)
        source, policy = _resolve_forecast(config, strategies)
        reports: dict[str, KpiReport] = {}
        for strat in strategies:
            run_cfg = replace(config.ems, strategy=strat)
            with _stage(f"dispatch.{strat.value}"):
                trace = simulate(pv, load, run_cfg, config.battery,
                                 forecast_source=source if strat.has_forecast_charging else None,
                                 policy=policy, initial_soc=config.initial_soc, pre=pre)
            with _stage(f"accounting.{strat.value}"):
                reports[strat.value] = _kpis(trace, config)
            del trace  # before the next strategy's trace is built
        with _stage("write.compare_csv"):
            write_compare_csv(reports, names, table_tmp)

    header = "KPI (%)".ljust(18) + "".join(name.rjust(12) for name in names)
    print(header)
    for kpi in KPI_NAMES:
        row = kpi.upper().ljust(18)
        for name in names:
            value = reports[name].values_pct()[kpi]
            row += ("--" if value is None else f"{value:.2f}").rjust(12)
        print(row)
    print(f"  wrote {table_path}")


def forecast_check(config: RunConfig, for_date: Optional[Date]) -> None:
    """Print the night-charge decision for the given (default: next) day."""
    if config.forecast is None:
        raise CliError("config has no forecast section")
    source = config.forecast.source()
    policy = config.forecast.policy()
    target = for_date or (datetime.now().date() + timedelta(days=1))
    day = source.forecast_for(target)
    decision = should_night_charge(day, policy)
    print(f"{target}: weather type {day.weather_type_id} ({day.description}) "
          f"-> {'NIGHT CHARGE' if decision else 'no night charge'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvems",
        description="PV + battery dispatch simulator: self-consumption, "
                    "ramp smoothing and forecast-driven night charging.")
    parser.add_argument("--seed-fixtures", metavar="DIR",
                        help="write the bundled synthetic fixture corpus and exit")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser("simulate", help="run one strategy, write trace/KPI/histogram")
    p_sim.add_argument("--config", required=True, type=Path)
    p_sim.add_argument("--strategy", choices=[s.value for s in StrategyKind])
    p_sim.add_argument("--out-dir", type=Path)

    p_ramp = sub.add_parser("ramp-analyze", help="ramp histogram and window sweep of a PV profile")
    p_ramp.add_argument("--pv", required=True, type=Path)
    p_ramp.add_argument("--unit", choices=["W", "kW"], default="W")
    p_ramp.add_argument("--config", type=Path, help="optional config supplying the ramp section")
    p_ramp.add_argument("--windows", default="",
                        help="comma-separated window lengths in seconds")
    p_ramp.add_argument("--out-dir", type=Path, default=Path("out"))

    p_cmp = sub.add_parser("compare", help="run several strategies on identical inputs")
    p_cmp.add_argument("--config", required=True, type=Path)
    p_cmp.add_argument("--strategies", default="SCM,SCM_RR,SCM_RR_WF")
    p_cmp.add_argument("--out-dir", type=Path)

    p_fc = sub.add_parser("forecast-check", help="print the night-charge decision for a day")
    p_fc.add_argument("--config", required=True, type=Path)
    p_fc.add_argument("--date", help="YYYY-MM-DD (default: tomorrow)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.seed_fixtures:
            from . import fixtures  # no other command needs it

            paths = fixtures.write_fixture_corpus(args.seed_fixtures)
            for name in sorted(paths):
                print(f"wrote {paths[name]}")
            return 0
        if args.command is None:
            parser.print_help()
            return 2
        if args.command == "simulate":
            config = load_config(args.config, strategy_override=args.strategy,
                                 out_dir=args.out_dir)
            run_simulation(config)
        elif args.command == "ramp-analyze":
            cfg = load_ramp_config(args.config) if args.config else RampConfig()
            windows = [float(w) for w in args.windows.split(",") if w.strip()]
            run_ramp_analysis(args.pv, cfg, windows, args.out_dir, pv_unit=args.unit)
        elif args.command == "compare":
            config = load_config(args.config, out_dir=args.out_dir)
            strategies = [StrategyKind(s.strip())
                          for s in args.strategies.split(",") if s.strip()]
            if not strategies:
                raise CliError("no strategies requested")
            out_dir = args.out_dir or config.outputs.trace_csv.parent
            compare_strategies(config, strategies, out_dir)
        elif args.command == "forecast-check":
            config = load_config(args.config)
            for_date = Date.fromisoformat(args.date) if args.date else None
            forecast_check(config, for_date)
    except ConfigError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 1
    except (CliError, ProfileError, ForecastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
