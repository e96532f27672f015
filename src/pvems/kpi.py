"""Energy accounting over a dispatch trace and the ten evaluation ratios.

Energies are rectangle-rule integrals of the per-tick powers, split by
direction.  Ramp events are maximal runs of consecutive violating
ticks; an event counts as controlled when the smoothing command was
executed in full on every tick (or the leaked remainder stayed under
the limit).  Ratios with a zero denominator are reported as explicit
undefined markers, never NaN; an energy or a ratio that overflows is
refused with ``OverflowError``, never reported as infinite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .ems import MODES, DispatchMode, Trace
from .ramp import RampConfig, events_of, violations

__all__ = [
    "EnergyTotals",
    "KpiReport",
    "accumulate",
    "compute_kpis",
]

KPI_NAMES = ("scr", "ssr", "grf", "bcr", "eg", "fgu", "tgu", "fbu", "tbu", "crr")

_FULL_EXECUTION_RTOL = 1e-9
_NOTES = ("bcr is charge energy over total battery throughput; the "
          "discharge share is its complement (1 - bcr).",)


@dataclass(frozen=True)
class EnergyTotals:
    """Directional energy sums (Wh) and ramp-event counts for one trace."""

    e_pv_generated: float
    e_pv_consumed: float
    e_load: float
    e_from_grid: float
    e_to_grid: float
    e_to_battery: float
    e_from_battery: float
    n_ramps_original: int
    n_ramps_controlled: int

    @property
    def e_grid_total(self) -> float:
        return self.e_from_grid + self.e_to_grid

    @property
    def e_battery_total(self) -> float:
        return self.e_to_battery + self.e_from_battery


# EnergyTotals' energies and throughputs, as its attribute names
_ENERGIES = ([f.name for f in fields(EnergyTotals) if f.name.startswith("e_")]
             + ["e_grid_total", "e_battery_total"])


@dataclass(frozen=True)
class KpiReport:
    """The ten ratios (fractions; ``None`` marks an undefined value)."""

    scr: Optional[float]
    ssr: Optional[float]
    grf: Optional[float]
    bcr: Optional[float]
    eg: Optional[float]
    fgu: Optional[float]
    tgu: Optional[float]
    fbu: Optional[float]
    tbu: Optional[float]
    crr: Optional[float]
    totals: EnergyTotals
    undefined_reasons: dict[str, str] = field(default_factory=dict)
    crr_no_violations: bool = False

    def values_pct(self) -> dict[str, Optional[float]]:
        """All ten indicators in percent (``None`` where undefined)."""
        out: dict[str, Optional[float]] = {}
        for name in KPI_NAMES:
            v = getattr(self, name)
            out[name] = None if v is None else 100.0 * v
        return out

    def to_json_dict(self) -> dict:
        t = self.totals
        return {
            "kpis_pct": self.values_pct(),
            "undefined_reasons": dict(self.undefined_reasons),
            "flags": {"crr_no_violations": self.crr_no_violations},
            "totals_wh": {name[2:]: getattr(t, name) for name in _ENERGIES},
            "ramps": {"original": t.n_ramps_original, "controlled": t.n_ramps_controlled},
            "notes": list(_NOTES),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def accumulate(trace: Trace, ramp_cfg: RampConfig) -> EnergyTotals:
    """Integrate a dispatch trace into directional energy totals.

    Each tick lasts ``trace.step_s``.  PV counts as consumed when it
    reaches the load directly or charges the battery; battery charging
    beyond the instantaneous PV surplus (night charging) is grid energy,
    not consumed PV.  ``ramp_cfg``'s limit judges the remainders that
    leaked to the grid (``_count_ramp_events``).  Raises
    ``OverflowError`` when an energy total, or the grid or battery
    throughput, overflows.
    """
    if len(trace) == 0:
        raise ValueError("cannot accumulate an empty trace")
    hours = trace.step_s / 3600.0
    n_orig, n_ctl = _count_ramp_events(trace, ramp_cfg)
    sums = _energy_sums(trace)
    totals = EnergyTotals(*((float(wh) + 0.0) * hours for wh in sums),
                          n_ramps_original=n_orig, n_ramps_controlled=n_ctl)
    overflowed = [name for name in _ENERGIES if not math.isfinite(getattr(totals, name))]
    if overflowed:
        raise OverflowError(f"energy totals overflow: {', '.join(overflowed)}")
    return totals


_SUM_BLOCK = 16_384  # ticks that accumulate sums at a time


def _energy_sums(trace: Trace) -> np.ndarray:
    """The power sums of ``EnergyTotals``' seven energies, in its order.

    Each is ``0.0 + x[0] + x[1] + ...`` over its ticks, evaluated left
    to right as a loop would: ``np.add.accumulate`` adds sequentially
    (``np.sum`` adds pairwise and rounds differently), one block of
    ticks at a time, each block's first term taking the sum so far.  A
    tick outside an energy's direction adds ``+0.0``, which changes no
    sum except the sign of a zero one.
    """
    pv, load, grid = trace.p_pv, trace.p_load, trace.p_grid
    batt = trace.p_batt_actual
    n = len(pv)
    terms = np.empty((7, min(n, _SUM_BLOCK)))
    sums = np.zeros(7)
    with np.errstate(over="ignore"):  # ``accumulate`` refuses an overflow
        for lo in range(0, n, _SUM_BLOCK):
            hi = min(lo + _SUM_BLOCK, n)
            p, ld, g, b = pv[lo:hi], load[lo:hi], grid[lo:hi], batt[lo:hi]
            block = terms[:, :hi - lo]
            gen, used, e_load, from_grid, to_grid, to_batt, from_batt = block
            # PV consumed: to the load directly, or into the battery
            np.maximum(p, 0.0, out=used)
            np.maximum(ld, 0.0, out=to_grid)
            np.minimum(used, to_grid, out=used)
            np.subtract(p, ld, out=to_grid)
            np.maximum(to_grid, 0.0, out=to_grid)
            np.maximum(b, 0.0, out=from_batt)
            np.minimum(from_batt, to_grid, out=to_grid)
            np.add(used, to_grid, out=used)
            gen[:] = block[2:] = 0.0  # the other energies: +0.0 outside their direction
            np.copyto(gen, p, where=p > 0)
            np.copyto(e_load, ld, where=ld > 0)
            np.copyto(from_grid, g, where=g >= 0)
            np.negative(g, out=to_grid, where=g < 0)
            np.copyto(to_batt, b, where=b >= 0)
            np.negative(b, out=from_batt, where=b < 0)
            block[:, 0] += sums
            np.add.accumulate(block, axis=1, out=block)
            sums = block[:, -1].copy()
    return sums


def _count_ramp_events(trace: Trace, ramp_cfg: RampConfig) -> tuple[int, int]:
    """Group violating ticks into events and classify each as controlled.

    An event is a maximal run of violating ticks.  A tick is
    neutralised when the ramp branch ran and either executed its command
    in full, or the remainder that leaked to the grid kept the
    compensated PV signal under the limit (``violations`` with ``n = 1``
    on the tick and the one before it; never for tick 0); an event is
    controlled when all its ticks are.  Only the violating ticks and
    their predecessors are read.
    """
    at = np.flatnonzero(trace.rr_violated)
    if at.size == 0:
        return 0, 0
    ramp_mode = MODES.index(DispatchMode.RAMP_CONTROL)
    ramp = trace.mode[at] == ramp_mode
    cmd, actual = trace.p_batt_cmd[at], trace.p_batt_actual[at]
    tol = _FULL_EXECUTION_RTOL * np.maximum(1.0, np.abs(cmd))
    ok = ramp & (np.abs(cmd - actual) <= tol)
    later = at > 0  # tick 0 has no tick before it
    pairs = np.empty((np.count_nonzero(later), 2))
    for col, ticks in enumerate((at[later] - 1, at[later])):
        compensated = pairs[:, col]  # the PV signal after the battery
        np.take(trace.p_pv, ticks, out=compensated)
        np.subtract(compensated, trace.p_batt_actual[ticks], out=compensated,
                    where=trace.mode[ticks] == ramp_mode)
    # the decision on each pair (tick i - 1, tick i) is the odd one
    leaked = violations(pairs.reshape(-1), 1, ramp_cfg, trace.step_s)[1::2]
    ok[later] |= ramp[later] & ~leaked

    event = events_of(at)
    n_orig = int(event[-1])
    n_failed = int(np.count_nonzero(np.bincount(event[~ok])))
    return n_orig, n_orig - n_failed


def compute_kpis(totals: EnergyTotals) -> KpiReport:
    """Evaluate the ten indicators from accumulated totals.

    Self-consumption (scr) shares generated PV; the grid and battery
    use ratios (grf, eg, fgu, tgu, fbu, tbu, ssr, bcr) share load or
    throughput; crr is the fraction of violating ramp events the
    control neutralised, vacuously 1 when nothing violated.
    """
    reasons: dict[str, str] = {}

    def ratio(name: str, num: float, den: float, why: str) -> Optional[float]:
        if den <= 0:
            reasons[name] = why
            return None
        value = num / den
        if not math.isfinite(100.0 * value):  # as reported, in percent
            raise OverflowError(f"{name} overflows: {num!r} Wh over {den!r} Wh")
        return value

    no_load = "no load energy in the trace"
    scr = ratio("scr", totals.e_pv_consumed, totals.e_pv_generated,
                "no PV energy generated")
    ssr = ratio("ssr", totals.e_pv_consumed, totals.e_load, no_load)
    grf = ratio("grf", totals.e_grid_total, totals.e_load, no_load)
    bcr = ratio("bcr", totals.e_to_battery, totals.e_battery_total,
                "battery never exchanged energy")
    eg = ratio("eg", totals.e_from_grid, totals.e_grid_total,
               "no energy exchanged with the grid")
    fgu = ratio("fgu", totals.e_from_grid, totals.e_load, no_load)
    tgu = ratio("tgu", totals.e_to_grid, totals.e_load, no_load)
    fbu = ratio("fbu", totals.e_from_battery, totals.e_load, no_load)
    tbu = ratio("tbu", totals.e_to_battery, totals.e_load, no_load)

    vacuous = totals.n_ramps_original == 0
    crr = 1.0 if vacuous else totals.n_ramps_controlled / totals.n_ramps_original

    return KpiReport(
        scr=scr, ssr=ssr, grf=grf, bcr=bcr, eg=eg, fgu=fgu, tgu=tgu,
        fbu=fbu, tbu=tbu, crr=crr, totals=totals,
        undefined_reasons=reasons, crr_no_violations=vacuous,
    )
