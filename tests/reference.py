"""The dispatch rules stated once more, tick by tick, for differential tests.

``pvems.ems.simulate`` carries the three strategies out on arrays, in
runs, taper recurrences and scalar ticks.  This module states each rule
for one tick, in plain Python floats, ``fsum``, ``Fraction`` and
``datetime`` arithmetic:

* the battery: availability tapers linearly over the derate band; a
  command is clamped to the availability of its direction, then to the
  room left (charge) or the energy stored (discharge); conversion losses
  apply per direction (``step``);
* self-consumption: store the surplus, cover the deficit, within the
  availability (``scm_command``);
* the night segment: from the charge start time, on a day whose forecast
  asks for it, until the SOC target or the PV day (``night_command``);
* ramp control: where the window mean ramps by at least the limit,
  command the deviation of PV from the window mean (``ma_command``).

It calls nothing of ``pvems.battery`` or of ``pvems.ems``' dispatch
code, so a wrong edit there cannot pass a comparison with it.  ``step``
keeps the order of float operations of ``battery.advance``, so the
engine must match it bit for bit.  Records are plain rows
(``Record``); ``trace_of`` gives their columns as a ``Trace``.

It also states the stamps of the grid CSVs once more, one ``datetime``
at a time (``format_utc``, ``format_utc_grid``), for the block writer
and the block reader of ``pvems.timeseries``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone
from fractions import Fraction
from math import fsum
from typing import Optional

from pvems.ems import MODES, DispatchMode, Trace
from pvems.forecast import should_night_charge


@dataclass
class Record:
    """One tick: powers in W (battery charge-positive, grid import-positive)."""

    timestamp: datetime
    p_pv: float
    p_load: float
    p_batt_cmd: float
    p_batt_actual: float
    p_grid: float
    soc: float
    mode: DispatchMode
    rr_pct_per_min: float
    rr_violated: bool


def trace_of(records: list[Record], step_s: float) -> Trace:
    """The columns of ``records``; the trace starts at the first timestamp."""
    columns = {name: [getattr(r, name) for r in records]
               for name in Trace.FLOAT_COLUMNS + ("rr_violated",)}
    return Trace(start=records[0].timestamp, step_s=step_s,
                 mode=[MODES.index(r.mode) for r in records], **columns)


# ---------------------------------------------------------------- battery

def available(params, headroom: float) -> float:
    """AC watts the battery can move with ``headroom`` SOC before a limit."""
    if headroom <= 0:
        return 0.0
    if params.derate_band > 0 and headroom < params.derate_band:
        return params.power_nominal_w * headroom / params.derate_band
    return params.power_nominal_w


def step(params, soc: float, command_w: float,
         dt_s: float) -> tuple[float, float]:
    """One tick of the battery: (new SOC, executed AC power)."""
    if dt_s <= 0:
        raise ValueError(f"dt must be positive, got {dt_s}")
    hours = dt_s / 3600.0
    cap, eta = params.energy_capacity_wh, params.eta_acdc
    if command_w > 0:  # eta of the AC power is stored
        room = params.soc_max - soc
        executed = min(command_w, available(params, room))
        if executed > 0:
            stored_wh = executed * eta * hours
            if stored_wh > room * cap:
                stored_wh = room * cap
                executed = stored_wh / (eta * hours)
            soc += stored_wh / cap
    elif command_w < 0:  # 1 / eta of the AC power is drawn
        stored = soc - params.soc_min
        executed = max(command_w, -available(params, stored))
        if executed < 0:
            drawn_wh = (-executed / eta) * hours
            if drawn_wh > stored * cap:
                drawn_wh = stored * cap
                executed = -drawn_wh * eta / hours
            soc -= drawn_wh / cap
    else:
        executed = command_w
    return min(max(soc, params.soc_min), params.soc_max), executed


# ---------------------------------------------------------------- commands

def scm_command(params, soc: float, surplus: float) -> float:
    """Self-consumption: store the surplus or cover the deficit, within limits."""
    if surplus > 0:
        return min(surplus, available(params, params.soc_max - soc))
    if surplus < 0:
        return -min(-surplus, available(params, soc - params.soc_min))
    return 0.0


def night_command(local_time: time, soc: float, decision: bool, cfg,
                  pv_day_started: bool = False) -> Optional[float]:
    """Grid charge of the night segment, or ``None`` outside it."""
    if not decision or pv_day_started:
        return None
    if local_time < cfg.charge_start_time:
        return None
    if soc >= cfg.soc_target:
        return None
    return cfg.night_charge_power_w


def ma_command(pv_window, p_now_w: float, ramp) -> float:
    """Deviation of PV from its window mean; nothing while the window fills."""
    window = list(pv_window)
    if len(window) < ramp.window_samples:
        return 0.0
    if len(window) > ramp.window_samples:
        raise ValueError(f"window holds {len(window)} samples, expected "
                         f"{ramp.window_samples}")
    return p_now_w - fsum(window) / len(window)


def reaches_limit(change: Fraction, ramp, tick_s: float) -> bool:
    """Whether an exact change (W) over one tick ramps by at least the
    limit, in %/min of the nameplate."""
    rate = abs(change) / Fraction(ramp.nameplate_w) / (Fraction(tick_s) / 60) * 100
    return rate >= Fraction(ramp.limit_pct_per_min)


# ---------------------------------------------------------------- the loop

def prepass(pv, cfg) -> list[tuple]:
    """Per tick: (window mean, rr, violated, local date, after the charge
    start, PV day started).  The mean is ``fsum`` of the window over its
    length (``None`` until the window is full), ``rr`` the ramp of
    consecutive means in %/min, and ``violated`` the limit test on the
    exact means."""
    ramp = cfg.ramp
    n = ramp.window_samples
    window = deque(maxlen=n)
    tick = timedelta(seconds=ramp.tick_s)
    offset = timedelta(hours=cfg.utc_offset_h)
    level = cfg.pv_day_threshold * ramp.nameplate_w
    timestamp, s_prev, started, rows = pv.start, None, set(), []
    exact_sum, e_prev = Fraction(0), None
    for p in pv.values.tolist():
        local = timestamp + offset
        if len(window) == n:
            exact_sum -= Fraction(window[0])
        window.append(p)
        exact_sum += Fraction(p)
        s_now = fsum(window) / n if len(window) == n else None
        e_now = exact_sum / n if len(window) == n else None
        if s_now is not None and s_now > level:
            started.add(local.date())
        rr, violated = 0.0, False
        if s_now is not None and s_prev is not None:
            rr = (s_now - s_prev) / ramp.nameplate_w / ramp.tick_minutes * 100.0
            violated = reaches_limit(e_now - e_prev, ramp, ramp.tick_s)
        rows.append((s_now, rr, violated, local.date(),
                     local.time() >= cfg.charge_start_time,
                     local.date() in started))
        s_prev, e_prev = s_now, e_now
        timestamp += tick
    return rows


def simulate(pv, load, cfg, params, source, policy,
             initial_soc: float) -> list[Record]:
    """One record per tick.  Priority: the night segment, then ramp
    control, then self-consumption; each day's forecast is looked up once,
    at its first tick after the charge start, and a segment that reaches
    the SOC target ends that day's charging."""
    ramp = cfg.ramp
    pre = prepass(pv, cfg)
    window = deque(maxlen=ramp.window_samples)
    soc = initial_soc
    decisions, night_done, records = {}, set(), []
    timestamp, tick = pv.start, timedelta(seconds=ramp.tick_s)
    offset = timedelta(hours=cfg.utc_offset_h)
    for k, (p_pv, p_load) in enumerate(zip(pv.values.tolist(),
                                           load.values.tolist())):
        window.append(p_pv)
        _, rr, violated, date, after, started = pre[k]
        cmd, mode = None, DispatchMode.SCM
        if cfg.strategy.has_forecast_charging:
            if after and date not in decisions:
                decisions[date] = should_night_charge(
                    source.forecast_for(date), policy)
            decision = decisions.get(date, False) and date not in night_done
            night_cmd = night_command((timestamp + offset).time(), soc,
                                      decision, cfg, pv_day_started=started)
            if decision and after and soc >= cfg.soc_target:
                night_done.add(date)
            elif night_cmd is not None:
                cmd, mode = night_cmd, DispatchMode.NIGHT_CHARGE
        if cmd is None and cfg.strategy.has_ramp_control and violated:
            cmd, mode = ma_command(window, p_pv, ramp), DispatchMode.RAMP_CONTROL
        if cmd is None:
            cmd = scm_command(params, soc, p_pv - p_load)
            mode = DispatchMode.IDLE if cmd == 0.0 else DispatchMode.SCM
        soc, actual = step(params, soc, cmd, ramp.tick_s)
        grid = p_load + actual + params.standby_power_w - p_pv
        records.append(Record(timestamp, p_pv, p_load, cmd, actual, grid, soc,
                              mode, rr, violated))
        timestamp = timestamp + tick
    return records


def format_utc(dt: datetime) -> str:
    """ISO-8601 with a Z suffix, seconds resolution when possible."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def format_utc_grid(start: datetime, step: timedelta, lo: int, hi: int) -> list[str]:
    """``format_utc(start + k * step)`` for ``k`` in ``range(lo, hi)``."""
    return [format_utc(start + k * step) for k in range(lo, hi)]
