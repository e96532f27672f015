"""Per-tick dispatch strategies for the PV + battery system.

Three strategies share one deterministic tick loop:

* self-consumption only: battery absorbs PV surplus, covers deficit;
* + ramp control: when the averaged PV signal ramps past the limit, the
  battery absorbs/injects the deviation from the moving average instead;
* + forecast charging: on nights before overcast days the battery is
  charged from the grid to a target SOC so the ramp control has
  headroom.

Priority per tick is night charge, then ramp control, then
self-consumption.  Every tick obeys the AC power balance
``pv + grid = load + battery + standby``.

``simulate`` runs in two phases.  A numpy pre-pass computes everything
that does not depend on the battery's SOC: the window average, the
ramp rate and its violations, the local day and clock, the "PV day
started" flag and each day's forecast decision.  The tick loop then
keeps only the SOC recurrence and the choice of command.  It advances
ticks in three ways, which give the same bits:

* runs: where no battery limit binds, a tick's SOC step does not depend
  on the SOC, so a run of such ticks is one ``np.add.accumulate`` on
  arrays (``battery.advance_run``);
* taper: an SCM tick in a derate band whose command is the whole
  tapered availability has a SOC step that depends only on the SOC; a
  plain float loop follows that recurrence and an array check keeps the
  prefix of ticks that really taper (``battery.advance_taper``);
* scalar: every other tick (a command the battery cuts, a night segment
  reaching its SOC target) goes through ``battery.advance`` one tick at
  a time.

The result is a columnar ``Trace``: one read-only numpy column per
per-tick quantity, which is the only way to read it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date as Date
from datetime import datetime, time, timedelta
from enum import Enum
from typing import Optional, Protocol

import numpy as np

from . import battery as bat
from .battery import BatteryParams
from .forecast import (ChargeDecisionPolicy, ForecastDay, ForecastError,
                       should_night_charge)
from .ramp import RampConfig, fsum_window_mean, ramp_rate, violations
from .timeseries import PowerSeries

__all__ = [
    "StrategyKind",
    "DispatchMode",
    "EmsConfig",
    "Trace",
    "PrePass",
    "prepass",
    "simulate",
]

log = logging.getLogger(__name__)


class StrategyKind(str, Enum):
    SCM = "SCM"
    SCM_RR = "SCM_RR"
    SCM_RR_WF = "SCM_RR_WF"

    @property
    def has_ramp_control(self) -> bool:
        return self is not StrategyKind.SCM

    @property
    def has_forecast_charging(self) -> bool:
        return self is StrategyKind.SCM_RR_WF


class DispatchMode(str, Enum):
    SCM = "scm"
    RAMP_CONTROL = "ramp_control"
    NIGHT_CHARGE = "night_charge"
    IDLE = "idle"


# A trace stores each tick's mode as its index in this tuple.
MODES: tuple[DispatchMode, ...] = tuple(DispatchMode)
_SCM = MODES.index(DispatchMode.SCM)
_RAMP = MODES.index(DispatchMode.RAMP_CONTROL)
_NIGHT = MODES.index(DispatchMode.NIGHT_CHARGE)
_IDLE = MODES.index(DispatchMode.IDLE)

# Block sizes of ``simulate``'s tick loop: a run guess and a taper guess
# each start at _FIRST_GUESS ticks and double up to _MAX_GUESS while whole
# guesses are accepted; after a run guess that accepts nothing, the
# scalar stretch doubles up to _MAX_STRETCH ticks.
_FIRST_GUESS, _MAX_GUESS, _MAX_STRETCH = 256, 65_536, 1_024

_US = timedelta(microseconds=1)
_DAY_US = 86_400 * 1_000_000
_PREPASS_BLOCK = 65_536  # ticks whose ramp rate and clock prepass builds at a time


@dataclass(frozen=True)
class EmsConfig:
    """Strategy selection plus the scheduling constants of the dispatcher.

    Local schedule points (the night-charge start) are mapped to the
    internal UTC clock through a fixed ``utc_offset_h``.  Night charging
    ends for the day once the averaged PV exceeds ``pv_day_threshold``
    of nameplate.
    """

    strategy: StrategyKind = StrategyKind.SCM
    ramp: RampConfig = RampConfig()
    night_charge_power_w: float = 2_700.0
    soc_target: float = 0.50
    charge_start_time: time = time(1, 30)
    utc_offset_h: float = 0.0
    pv_day_threshold: float = 0.01

    def __post_init__(self) -> None:
        if self.night_charge_power_w <= 0:
            raise ValueError("night_charge_power_w must be positive")
        if not 0.0 < self.soc_target < 1.0:
            raise ValueError(f"soc_target must be in (0, 1), got {self.soc_target}")
        if not 0.0 <= self.pv_day_threshold < 1.0:
            raise ValueError("pv_day_threshold must be a fraction of nameplate")
        if not -24.0 < self.utc_offset_h < 24.0:
            raise ValueError(f"utc_offset_h must be in (-24, 24), got {self.utc_offset_h}")

    def validate_against(self, params: BatteryParams, initial_soc: float) -> None:
        """Check the values that must fit the battery ``params``: the SOC
        target, the night-charge power and the run's ``initial_soc``."""
        if not params.soc_min < self.soc_target < params.soc_max:
            raise ValueError(f"soc_target {self.soc_target} outside the battery "
                             f"window [{params.soc_min}, {params.soc_max}]")
        if self.night_charge_power_w > params.power_nominal_w:
            raise ValueError(f"night_charge_power_w {self.night_charge_power_w} "
                             f"exceeds battery nominal {params.power_nominal_w}")
        if not params.soc_min <= initial_soc <= params.soc_max:
            raise ValueError(f"initial_soc {initial_soc} outside the battery "
                             f"window [{params.soc_min}, {params.soc_max}]")


class ForecastSource(Protocol):
    def forecast_for(self, date: Date) -> ForecastDay: ...


def _scm_command(params: BatteryParams, soc: float, surplus: float) -> float:
    """Battery command that stores ``surplus`` (or covers a deficit) within limits."""
    if surplus > 0:
        return min(surplus, bat.available(params, params.soc_max - soc))
    if surplus < 0:
        return -min(-surplus, bat.available(params, soc - params.soc_min))
    return 0.0


@dataclass(frozen=True, eq=False)
class Trace:
    """Columnar dispatch trace: one read-only numpy column per quantity.

    Entry ``i`` of each column is the tick at ``start + i * step``;
    ``len`` is the number of ticks.  Battery powers are charge-positive
    and grid power is import-positive.  ``p_batt_cmd`` is what the
    strategy asked for, ``p_batt_actual`` what the battery executed
    after its SOC and power limits.  ``mode`` holds indices into
    ``MODES``.  Two traces are equal when their start, step and every
    column are.
    """

    start: datetime
    step_s: float
    p_pv: np.ndarray
    p_load: np.ndarray
    p_batt_cmd: np.ndarray
    p_batt_actual: np.ndarray
    p_grid: np.ndarray
    soc: np.ndarray
    mode: np.ndarray
    rr_pct_per_min: np.ndarray
    rr_violated: np.ndarray

    FLOAT_COLUMNS = ("p_pv", "p_load", "p_batt_cmd", "p_batt_actual",
                     "p_grid", "soc", "rr_pct_per_min")
    COLUMN_DTYPES = {**dict.fromkeys(FLOAT_COLUMNS, float),
                     "mode": np.uint8, "rr_violated": bool}

    def __post_init__(self) -> None:
        n = len(self.p_pv)
        for name, dtype in self.COLUMN_DTYPES.items():
            col = np.asarray(getattr(self, name), dtype=dtype).view()
            if col.shape != (n,):
                raise ValueError(f"trace column {name} has shape {col.shape}, "
                                 f"expected ({n},)")
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @property
    def step(self) -> timedelta:
        return timedelta(seconds=self.step_s)

    def __len__(self) -> int:
        return len(self.p_pv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.start == other.start and self.step_s == other.step_s
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in self.COLUMN_DTYPES))


@dataclass(frozen=True)
class PrePass:
    """Per-tick quantities of one PV series that do not depend on SOC.

    ``window_mean`` is ``fsum(window) / n`` (NaN until the window is
    full); ``rr`` the ramp of consecutive window means in %/min (0.0
    where undefined) and ``violated`` its limit test, decided exactly.
    ``day`` numbers local days from ``first_date``; ``after_start``
    marks local times at or after ``charge_start_time``;
    ``day_started`` marks ticks at or after the first one of their
    local day whose window mean exceeded the PV-day threshold.
    """

    window_mean: np.ndarray
    rr: np.ndarray
    violated: np.ndarray
    day: np.ndarray
    after_start: np.ndarray
    day_started: np.ndarray
    first_date: Date
    pv: PowerSeries = field(repr=False)  # the series it was built for
    settings: tuple  # and the settings, see ``_prepass_settings``

    def check_built_for(self, pv: PowerSeries, cfg: EmsConfig) -> None:
        """Raise ``ValueError`` unless this pre-pass is ``prepass(pv, cfg)``'s."""
        if self.settings != _prepass_settings(cfg):
            raise ValueError("pre-pass was built for other ramp or clock settings "
                             f"{self.settings}, expected {_prepass_settings(cfg)}")
        same = self.pv is pv or (
            self.pv.start == pv.start and self.pv.step_s == pv.step_s
            and np.array_equal(self.pv.values, pv.values))
        if not same:
            raise ValueError(f"pre-pass was built for another series "
                             f"({len(self.pv)} samples from {self.pv.start}), "
                             f"not this one ({len(pv)} samples from {pv.start})")


def _prepass_settings(cfg: EmsConfig) -> tuple:
    """The parts of ``cfg`` that ``prepass`` reads (not the strategy)."""
    return (cfg.ramp, cfg.utc_offset_h, cfg.charge_start_time,
            cfg.pv_day_threshold)


def prepass(pv: PowerSeries, cfg: EmsConfig) -> PrePass:
    """Vectorised SOC-independent phase of ``simulate``.

    Every value equals what a per-tick loop computes with ``fsum``,
    ``ramp_rate`` and ``datetime`` arithmetic (the local clock is
    integer microseconds, as ``timedelta`` keeps it), except
    ``violated``: that is ``ramp.violations`` of the window, the limit
    test on the exact window means, so a tick whose exact ramp equals
    the limit is flagged even where its ``rr``, rounded, is just below
    it.  The strategy is not read, so one pre-pass serves every
    strategy run on the same series and settings.  Raises
    ``OverflowError`` when the sum of a window or a ramp rate overflows.
    """
    ramp = cfg.ramp
    n = len(pv)
    n_window = ramp.window_samples
    try:
        mean, resummed = fsum_window_mean(pv.values, n_window)
    except OverflowError as exc:
        raise OverflowError(f"the sum of a {ramp.window_s:g} s window of PV "
                            f"power overflows ({exc})") from None
    log.info("prepass windows %d resummed %d", max(n - n_window + 1, 0), resummed)
    violated = violations(pv.values, n_window, ramp, ramp.tick_s)

    # Every full-length column below is an output; the work runs in
    # blocks of ticks, or in local days, so nothing else is full length.
    rr = np.zeros(n)
    with np.errstate(over="ignore"):  # refused below
        for lo in range(n_window, n, _PREPASS_BLOCK):
            hi = min(lo + _PREPASS_BLOCK, n)
            rr[lo:hi] = ramp_rate(mean[lo:hi], mean[lo - 1:hi - 1], ramp,
                                  ramp.tick_minutes)
    if not np.isfinite(rr).all():
        raise OverflowError(f"the ramp rate of the {ramp.window_s:g} s window "
                            "mean of PV power overflows")

    local0 = pv.start.replace(tzinfo=None) + timedelta(hours=cfg.utc_offset_h)
    first_date = local0.date()
    t0_us = (local0 - datetime.combine(first_date, time())) // _US
    step_us = timedelta(seconds=ramp.tick_s) // _US
    start = cfg.charge_start_time
    start_us = (((start.hour * 60 + start.minute) * 60 + start.second)
                * 1_000_000 + start.microsecond)
    day = np.empty(n, dtype=np.int64)
    after_start = np.empty(n, dtype=bool)
    for lo in range(0, n, _PREPASS_BLOCK):
        hi = min(lo + _PREPASS_BLOCK, n)
        clock_us = np.arange(lo, hi, dtype=np.int64)
        clock_us *= step_us
        clock_us += t0_us
        np.divmod(clock_us, _DAY_US, out=(day[lo:hi], clock_us))
        np.greater_equal(clock_us, start_us, out=after_start[lo:hi])

    # Local days are runs of ticks: a tick's day has started once any
    # tick of the day so far had its window mean above the threshold.
    threshold = cfg.pv_day_threshold * ramp.nameplate_w
    day_started = np.empty(n, dtype=bool)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(day, day[lo], side="right"))
        np.logical_or.accumulate(mean[lo:hi] > threshold, out=day_started[lo:hi])
        lo = hi
    return PrePass(window_mean=mean, rr=rr, violated=violated, day=day,
                   after_start=after_start, day_started=day_started,
                   first_date=first_date, pv=pv, settings=_prepass_settings(cfg))


def simulate(pv: PowerSeries, load: PowerSeries, cfg: EmsConfig,
             params: BatteryParams,
             forecast_source: Optional[ForecastSource] = None,
             policy: Optional[ChargeDecisionPolicy] = None,
             initial_soc: float = 0.35,
             pre: Optional[PrePass] = None) -> Trace:
    """Run one strategy over aligned PV and load profiles.

    Inputs must share start, step and length, with the step equal to
    the control tick.  The run is single-threaded and replay
    deterministic; forecast decisions are resolved once per simulated
    day, in date order, for each day that reaches the charge start time
    (a missing or failing source defaults to no charge with a logged
    warning).  ``pre`` is ``prepass(pv, cfg)`` computed by the caller,
    so several strategies can share it; it is computed here when not
    given, and refused when it was built for another series or other
    ramp or clock settings.
    """
    if (pv.start != load.start or pv.step_s != load.step_s
            or len(pv) != len(load)):
        raise ValueError("pv and load profiles are not aligned "
                         f"(start {pv.start}/{load.start}, step {pv.step_s}/"
                         f"{load.step_s}, len {len(pv)}/{len(load)})")
    if abs(pv.step_s - cfg.ramp.tick_s) > 1e-9:
        raise ValueError(f"profiles sampled at {pv.step_s} s but the control "
                         f"tick is {cfg.ramp.tick_s} s")
    cfg.validate_against(params, initial_soc)
    if policy is None:
        policy = ChargeDecisionPolicy()

    if pre is None:
        pre = prepass(pv, cfg)
    else:
        pre.check_built_for(pv, cfg)
    n = len(pv)
    pv_values, load_values = pv.values, load.values
    with np.errstate(over="ignore"):  # an infinite surplus still commands nominal
        surplus = pv_values - load_values
    nominal = params.power_nominal_w

    # The command a tick gets when its day's night segment is closed:
    # the ramp command where the pre-pass flagged a violation, otherwise
    # the SCM command at full availability, which is the SCM command of
    # every tick that ``advance_run`` accepts.
    ramp = (pre.violated if cfg.strategy.has_ramp_control
            else np.zeros(n, dtype=bool))
    day_cmd = np.minimum(surplus, nominal)
    np.maximum(day_cmd, -nominal, out=day_cmd)
    day_cmd += 0.0  # the SCM command of a zero surplus of either sign is +0.0
    day_mode = np.full(n, _SCM, dtype=np.uint8)
    day_mode[day_cmd == 0.0] = _IDLE
    np.subtract(pv_values, pre.window_mean, out=day_cmd, where=ramp)
    day_mode[ramp] = _RAMP
    # Night charge candidates, until the SOC target ends the day's segment.
    if cfg.strategy.has_forecast_charging:
        decisions = _resolve_decisions(forecast_source, policy, pre)
        night = pre.after_start & decisions[pre.day] & ~pre.day_started
    else:
        night = np.zeros(n, dtype=bool)

    ticks = _Dispatch(params, cfg, surplus, ramp, day_cmd, day_mode, night,
                      pre.day)
    soc, done_day, pos = initial_soc, -1, 0
    guess, taper_guess, stretch = _FIRST_GUESS, _FIRST_GUESS, 1
    run_ticks = taper_ticks = 0
    while pos < n:
        accepted, soc = ticks.run(pos, min(pos + guess, n), soc, done_day)
        pos += accepted
        run_ticks += accepted
        if accepted == guess:
            guess = min(2 * guess, _MAX_GUESS)
            continue
        guess = _FIRST_GUESS
        if pos == n:
            break
        # A limit binds at ``pos``: most often the SOC is in a derate
        # band and the SCM command is the whole tapered availability.
        tapered, soc = ticks.taper(pos, min(pos + taper_guess, n), soc,
                                   done_day)
        pos += tapered
        taper_ticks += tapered
        taper_guess = (min(2 * taper_guess, _MAX_GUESS)
                       if tapered == taper_guess else _FIRST_GUESS)
        if tapered:
            continue
        # Otherwise advance ``pos``, and after a run guess that accepted
        # nothing a longer stretch, one tick at a time.
        stretch = min(2 * stretch, _MAX_STRETCH) if accepted == 0 else 1
        end = min(pos + stretch, n)
        soc, done_day = ticks.scalar(pos, end, soc, done_day)
        pos = end
    log.info("dispatch %s runs %d taper %d scalar %d", cfg.strategy.value,
             run_ticks, taper_ticks, n - run_ticks - taper_ticks)

    columns = dict(p_batt_cmd=ticks.cmd, p_batt_actual=ticks.actual,
                   soc=ticks.soc, mode=ticks.mode)
    del ticks, surplus, night  # before the grid column is built
    with np.errstate(over="ignore"):  # ``accumulate`` refuses an infinite grid
        grid = np.add(load_values, columns["p_batt_actual"])
        grid += params.standby_power_w
        grid -= pv_values
    return Trace(start=pv.start, step_s=cfg.ramp.tick_s, p_pv=pv_values,
                 p_load=load_values, p_grid=grid, rr_pct_per_min=pre.rr,
                 rr_violated=pre.violated, **columns)


class _Dispatch:
    """Output columns of one ``simulate`` call and the three ways to fill them.

    ``run`` advances ticks on arrays while no battery limit binds;
    ``taper`` advances SCM ticks that get the whole tapered availability
    of a derate band; ``scalar`` advances any tick, one
    ``battery.advance`` call at a time.  All read the SOC-independent
    per-tick inputs and carry the SOC and the local day whose night
    segment reached the SOC target.
    """

    def __init__(self, params: BatteryParams, cfg: EmsConfig,
                 surplus: np.ndarray, ramp: np.ndarray, day_cmd: np.ndarray,
                 day_mode: np.ndarray, night: np.ndarray, day: np.ndarray):
        self.params, self.cfg = params, cfg
        self.surplus, self.ramp, self.day_cmd = surplus, ramp, day_cmd
        self.day_mode, self.night, self.day = day_mode, night, day
        self.any_night = bool(night.any())
        # The command and mode columns are filled in place of the day's:
        # each path reads a tick's day command and mode before it writes
        # the tick, and never reads a tick it has written.
        self.cmd, self.mode = day_cmd, day_mode
        self.actual, self.soc = np.empty(len(surplus)), np.empty(len(surplus))

    def run(self, start: int, end: int, soc: float,
            done_day: int) -> tuple[int, float]:
        """Advance the longest prefix of ``[start, end)`` that binds no limit.

        Returns the number of ticks accepted and the SOC after them.
        """
        cmd, mode = self.day_cmd[start:end], self.day_mode[start:end]
        night = None
        if self.any_night:
            night = self.night[start:end] & (self.day[start:end] != done_day)
            if night.any():
                cmd = np.where(night, self.cfg.night_charge_power_w, cmd)
                mode = np.where(night, _NIGHT, mode)
            else:
                night = None
        path, actual, free = bat.advance_run(self.params, soc, cmd,
                                             self.cfg.ramp.tick_s)
        if night is not None:
            free &= ~night | (path[:-1] < self.cfg.soc_target)
        accepted = int(free.argmin()) if not free.all() else len(free)
        stop = start + accepted
        self.cmd[start:stop] = cmd[:accepted]
        self.actual[start:stop] = actual[:accepted]
        self.soc[start:stop] = path[1:accepted + 1]
        self.mode[start:stop] = mode[:accepted]
        return accepted, float(path[accepted])

    def taper(self, start: int, end: int, soc: float,
              done_day: int) -> tuple[int, float]:
        """Advance the longest prefix of ``[start, end)`` that tapers.

        A taper tick is an SCM tick (no ramp flag, no open night
        segment) in a derate band whose command is the whole tapered
        availability of its direction (``battery.advance_taper``).
        Returns the number of ticks accepted and the SOC after them.
        """
        if not self.params.derate_band > 0:
            return 0, soc
        surplus = self.surplus[start:end]
        charge = bool(surplus[0] > 0)
        regime = (surplus > 0 if charge else surplus < 0) & ~self.ramp[start:end]
        if self.any_night:
            regime &= ~self.night[start:end] | (self.day[start:end] == done_day)
        length = int(regime.argmin()) if not regime.all() else len(regime)
        if length == 0:
            return 0, soc
        path, actual, free = bat.advance_taper(self.params, soc, charge,
                                               np.abs(surplus[:length]),
                                               self.cfg.ramp.tick_s)
        accepted = int(free.argmin()) if not free.all() else length
        stop = start + accepted
        self.cmd[start:stop] = actual[:accepted]
        self.actual[start:stop] = actual[:accepted]
        self.soc[start:stop] = path[1:accepted + 1]
        self.mode[start:stop] = _SCM
        return accepted, float(path[accepted])

    def scalar(self, start: int, end: int, soc: float,
               done_day: int) -> tuple[float, int]:
        """Advance ``[start, end)`` tick by tick; returns the SOC and ``done_day``."""
        params, advance, scm_command = self.params, bat.advance, _scm_command
        tick_s = self.cfg.ramp.tick_s
        night_w, soc_target = self.cfg.night_charge_power_w, self.cfg.soc_target
        cmds, actuals, socs, modes = [], [], [], []
        for night, ramp, surplus, day_cmd, day in zip(
                self.night[start:end].tolist(), self.ramp[start:end].tolist(),
                self.surplus[start:end].tolist(),
                self.day_cmd[start:end].tolist(), self.day[start:end].tolist()):
            if night and day != done_day and soc >= soc_target:
                done_day = day  # target reached: one charge segment per night
            if night and day != done_day:
                cmd, mode = night_w, _NIGHT
            elif ramp:
                cmd, mode = day_cmd, _RAMP
            else:
                cmd = scm_command(params, soc, surplus)
                mode = _IDLE if cmd == 0.0 else _SCM
            soc, actual = advance(params, soc, cmd, tick_s)
            cmds.append(cmd)
            actuals.append(actual)
            socs.append(soc)
            modes.append(mode)
        self.cmd[start:end] = cmds
        self.actual[start:end] = actuals
        self.soc[start:end] = socs
        self.mode[start:end] = modes
        return soc, done_day


def _resolve_decisions(source: Optional[ForecastSource],
                       policy: ChargeDecisionPolicy, pre: PrePass) -> np.ndarray:
    """Night-charge decision per local day of the pre-pass.

    Each day that reaches the charge start time is looked up once, in
    date order.  No source, or a lookup that fails, means no charge,
    with a logged warning.
    """
    decisions = np.zeros(int(pre.day[-1]) + 1, dtype=bool)
    days = np.flatnonzero(np.bincount(pre.day[pre.after_start])).tolist()
    if source is None:
        if days:
            log.warning("no forecast source configured; defaulting to no "
                        "night charge")
        return decisions
    for day in days:
        date = pre.first_date + timedelta(days=day)
        try:
            forecast = source.forecast_for(date)
        except (ForecastError, OSError) as exc:
            log.warning("forecast for %s unavailable (%s); defaulting to no "
                        "night charge", date, exc)
            continue
        decisions[day] = should_night_charge(forecast, policy)
    return decisions
