"""Energy accounting over a dispatch trace and the ten evaluation ratios.

Energies are rectangle-rule integrals of the per-tick powers, split by
direction.  Ramp events are maximal runs of consecutive violating
ticks; an event counts as controlled when the smoothing command was
executed in full on every tick (or the leaked remainder stayed under
the limit).  Ratios with a zero denominator are reported as explicit
undefined markers, never NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .ems import MODES, DispatchMode, DispatchRecord, Trace
from .ramp import RampConfig, ramp_rate, violates

__all__ = [
    "EnergyTotals",
    "KpiReport",
    "accumulate",
    "compute_kpis",
]

KPI_NAMES = ("scr", "ssr", "grf", "bcr", "eg", "fgu", "tgu", "fbu", "tbu", "crr")

_FULL_EXECUTION_RTOL = 1e-9


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
    notes: tuple[str, ...] = ()

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
            "totals_wh": {
                "pv_generated": t.e_pv_generated,
                "pv_consumed": t.e_pv_consumed,
                "load": t.e_load,
                "from_grid": t.e_from_grid,
                "to_grid": t.e_to_grid,
                "grid_total": t.e_grid_total,
                "to_battery": t.e_to_battery,
                "from_battery": t.e_from_battery,
                "battery_total": t.e_battery_total,
            },
            "ramps": {
                "original": t.n_ramps_original,
                "controlled": t.n_ramps_controlled,
            },
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def accumulate(trace: Union[Trace, Sequence[DispatchRecord]], tick_s: float,
               ramp_cfg: Optional[RampConfig] = None) -> EnergyTotals:
    """Integrate a dispatch trace into directional energy totals.

    PV counts as consumed when it reaches the load directly or charges
    the battery; battery charging beyond the instantaneous PV surplus
    (night charging) is grid energy, not consumed PV.  Ramp counts need
    ``ramp_cfg`` to judge leaked remainders; without it only fully
    executed commands count as controlled.  A plain record sequence is
    converted with ``Trace.from_records`` first.
    """
    if len(trace) == 0:
        raise ValueError("cannot accumulate an empty trace")
    if not isinstance(trace, Trace):
        trace = Trace.from_records(trace, tick_s)
    hours = tick_s / 3600.0
    pv, load, grid = trace.p_pv, trace.p_load, trace.p_grid
    batt = trace.p_batt_actual

    pv_direct = np.minimum(np.maximum(pv, 0.0), np.maximum(load, 0.0))
    pv_to_batt = np.minimum(np.maximum(batt, 0.0), np.maximum(pv - load, 0.0))
    n_orig, n_ctl = _count_ramp_events(trace, tick_s, ramp_cfg)
    return EnergyTotals(
        e_pv_generated=_sum(pv[pv > 0]) * hours,
        e_pv_consumed=_sum(pv_direct + pv_to_batt) * hours,
        e_load=_sum(load[load > 0]) * hours,
        e_from_grid=_sum(grid[grid >= 0]) * hours,
        e_to_grid=_sum(-grid[grid < 0]) * hours,
        e_to_battery=_sum(batt[batt >= 0]) * hours,
        e_from_battery=_sum(-batt[batt < 0]) * hours,
        n_ramps_original=n_orig,
        n_ramps_controlled=n_ctl,
    )


def _sum(x: np.ndarray) -> float:
    """``0.0 + x[0] + x[1] + ...`` evaluated left to right, as a loop would.

    ``np.add.accumulate`` adds sequentially (``np.sum`` adds pairwise
    and rounds differently); the trailing ``+ 0.0`` turns an all-zero
    sum of negative zeros into the loop's +0.0.
    """
    return float(np.add.accumulate(x)[-1]) + 0.0 if x.size else 0.0


def _count_ramp_events(trace: Trace, tick_s: float,
                       ramp_cfg: Optional[RampConfig]) -> tuple[int, int]:
    """Group violating ticks into events and classify each as controlled.

    An event is a maximal run of violating ticks.  A tick is neutralised
    when the ramp branch ran and either executed its command in full,
    or the remainder that leaked to the grid kept the compensated PV
    signal under the limit; an event is controlled when all its ticks
    are.
    """
    violated = trace.rr_violated
    ramp = trace.mode == MODES.index(DispatchMode.RAMP_CONTROL)
    cmd, actual = trace.p_batt_cmd, trace.p_batt_actual

    tol = _FULL_EXECUTION_RTOL * np.maximum(1.0, np.abs(cmd))
    ok = ramp & (np.abs(cmd - actual) <= tol)
    if ramp_cfg is not None:
        compensated = np.where(ramp, trace.p_pv - actual, trace.p_pv)
        rr_post = ramp_rate(compensated[1:], compensated[:-1], ramp_cfg,
                            tick_s / 60.0)
        ok[1:] |= ramp[1:] & ~violates(rr_post, ramp_cfg)

    starts = violated & ~np.concatenate(([False], violated[:-1]))
    event = np.cumsum(starts)
    n_orig = int(event[-1])
    n_failed = np.unique(event[violated & ~ok]).size
    return n_orig, n_orig - n_failed


def compute_kpis(totals: EnergyTotals,
                 notes: Sequence[str] = ()) -> KpiReport:
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
        return num / den

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

    all_notes = tuple(notes) + (
        "bcr is charge energy over total battery throughput; the "
        "discharge share is its complement (1 - bcr).",
    )
    return KpiReport(
        scr=scr, ssr=ssr, grf=grf, bcr=bcr, eg=eg, fgu=fgu, tgu=tgu,
        fbu=fbu, tbu=tbu, crr=crr, totals=totals,
        undefined_reasons=reasons, crr_no_violations=vacuous,
        notes=all_notes,
    )
