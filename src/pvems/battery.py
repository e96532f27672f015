"""Energy/efficiency model of a flow battery behind an AC/DC converter.

Coulomb-counting on the DC side with a symmetric conversion efficiency
per direction, a hard SOC operating window and a linear power taper near
each SOC limit.  Pump and stack electrochemistry are out of scope: the
dispatch logic only needs SOC and the power actually available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BatteryParams",
    "advance",
    "advance_run",
    "advance_taper",
    "available",
]


@dataclass(frozen=True)
class BatteryParams:
    """Nameplate, efficiency and SOC-window parameters.

    ``derate_band`` is the SOC width (as a fraction of full capacity)
    over which available power tapers linearly to zero approaching
    either limit.
    """

    energy_capacity_wh: float = 60_000.0
    power_nominal_w: float = 5_000.0
    soc_min: float = 0.20
    soc_max: float = 0.70
    eta_acdc: float = 0.88
    standby_power_w: float = 30.0
    derate_band: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError(f"need 0 <= soc_min < soc_max <= 1, got "
                             f"[{self.soc_min}, {self.soc_max}]")
        if not 0.0 < self.eta_acdc <= 1.0:
            raise ValueError(f"eta_acdc must be in (0, 1], got {self.eta_acdc}")
        if self.energy_capacity_wh <= 0:
            raise ValueError("energy_capacity_wh must be positive")
        if self.power_nominal_w <= 0:
            raise ValueError("power_nominal_w must be positive")
        if self.standby_power_w < 0:
            raise ValueError("standby_power_w must be non-negative")
        if not 0.0 <= self.derate_band < (self.soc_max - self.soc_min) / 2:
            raise ValueError(f"derate_band must be in [0, {(self.soc_max - self.soc_min) / 2}), "
                             f"got {self.derate_band}")


def available(params: BatteryParams, headroom: float) -> float:
    """AC watts available with ``headroom`` SOC left before a limit (>= 0).

    Full nominal power away from the limit, tapering linearly to zero
    over the last ``derate_band`` of SOC.  Charging and discharging
    share this taper; they differ only in which limit bounds the
    headroom.
    """
    if headroom <= 0:
        return 0.0
    if params.derate_band > 0 and headroom < params.derate_band:
        return params.power_nominal_w * headroom / params.derate_band
    return params.power_nominal_w


def advance(params: BatteryParams, soc: float, ac_command_w: float,
            dt_s: float) -> tuple[float, float]:
    """Advance the battery by ``dt_s`` seconds under a signed AC command.

    Returns the new SOC and the signed AC power actually executed.
    Positive commands request charging, negative discharging.  A command
    is clamped to the SOC-tapered availability of its own direction and,
    on the final partial step, reduced so the SOC never leaves its
    window.  Conversion losses apply per direction; the constant standby
    draw is accounted on the AC bus by the caller, not here.  ``dt_s``
    must be positive (``RampConfig`` checks the control tick).
    """
    hours = dt_s / 3600.0
    if ac_command_w > 0:
        ac_actual = min(ac_command_w, available(params, params.soc_max - soc))
        if ac_actual > 0:
            stored_wh = ac_actual * params.eta_acdc * hours
            room_wh = (params.soc_max - soc) * params.energy_capacity_wh
            if stored_wh > room_wh:
                stored_wh = room_wh
                ac_actual = stored_wh / (params.eta_acdc * hours)
            soc += stored_wh / params.energy_capacity_wh
    elif ac_command_w < 0:
        ac_actual = max(ac_command_w, -available(params, soc - params.soc_min))
        if ac_actual < 0:
            drawn_wh = (-ac_actual / params.eta_acdc) * hours
            avail_wh = (soc - params.soc_min) * params.energy_capacity_wh
            if drawn_wh > avail_wh:
                drawn_wh = avail_wh
                ac_actual = -drawn_wh * params.eta_acdc / hours
            soc -= drawn_wh / params.energy_capacity_wh
    else:
        ac_actual = ac_command_w

    return min(max(soc, params.soc_min), params.soc_max), ac_actual


def advance_run(params: BatteryParams, soc: float, ac_command_w: np.ndarray,
                dt_s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of :func:`advance` for a run of ticks where no limit binds.

    Returns ``(path, actual, free)``.  ``path`` has one more entry than
    the commands: ``path[0]`` is ``soc`` and ``path[k + 1]`` the SOC
    after tick ``k`` if every tick before it executed its command
    unchanged.  ``free[k]`` holds when tick ``k``, started from
    ``path[k]``, binds no limit: its command is within the availability
    of its direction, the room (or stored-energy) limit does not cut it
    and the final clamp leaves the SOC alone.  Up to the first ``False``
    of ``free``, ``advance(params, path[k], cmd[k], dt_s)`` is
    ``(path[k + 1], actual[k])`` bit for bit: without a limit the SOC
    step does not depend on the SOC, and ``np.add.accumulate`` adds the
    steps left to right as repeated ``advance`` calls do.
    """
    cmd = np.asarray(ac_command_w, dtype=float)
    hours = dt_s / 3600.0
    charge = cmd > 0
    # stored Wh (charge) or minus the drawn Wh (discharge); a zero
    # command adds -0.0, which leaves every SOC, -0.0 included, alone
    signed_wh = np.where(charge, cmd * params.eta_acdc,
                         np.where(cmd < 0, cmd / params.eta_acdc, -0.0)) * hours
    path = np.empty(len(cmd) + 1)
    path[0] = soc
    path[1:] = signed_wh / params.energy_capacity_wh
    np.add.accumulate(path, out=path)

    before, after = path[:-1], path[1:]
    headroom = np.where(charge, params.soc_max - before, before - params.soc_min)
    free = np.abs(cmd) <= _available_array(params, headroom)
    free &= np.abs(signed_wh) <= headroom * params.energy_capacity_wh
    free &= (after >= params.soc_min) & (after <= params.soc_max)
    return path, cmd, free


def advance_taper(params: BatteryParams, soc: float, charge: bool,
                  demand_w: np.ndarray,
                  dt_s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`advance` for a run of ticks that each get the full tapered power.

    Inside the derate band a tick whose demand (``demand_w``, a magnitude
    in the direction ``charge``) is at least the availability executes
    exactly the availability, so its SOC step depends only on the SOC:

    * discharge: ``s -= P*(s - soc_min)/band/eta*hours/cap``;
    * charge: ``s += P*(soc_max - s)/band*eta*hours/cap``.

    Each line applies the operations of :func:`available` and
    :func:`advance` in their order, so a plain float loop gives their
    bits.  Returns ``(path, actual, free)`` as :func:`advance_run` does:
    ``path[k + 1]`` follows the recurrence, ``actual[k]`` is the signed
    availability at ``path[k]``, and ``free[k]`` holds when tick ``k``,
    started from ``path[k]``, really is such a tick: its headroom is
    below the band, the availability is positive (so is the headroom)
    and at most the demand, the stored (or drawn) Wh fits the room and
    the final clamp leaves the SOC alone.  ``params.derate_band`` must be
    positive.
    """
    nominal, band = params.power_nominal_w, params.derate_band
    eta, cap = params.eta_acdc, params.energy_capacity_wh
    lo, hi = params.soc_min, params.soc_max
    hours = dt_s / 3600.0
    n = len(demand_w)

    def recurrence(s):
        yield s
        if charge:
            for _ in range(n):
                s += nominal * (hi - s) / band * eta * hours / cap
                yield s
        else:
            for _ in range(n):
                s -= nominal * (s - lo) / band / eta * hours / cap
                yield s

    path = np.fromiter(recurrence(soc), np.float64, count=n + 1)

    # Past a tick whose room limit binds the recurrence can run away
    # geometrically (to inf, then NaN); such ticks are rejected, so their
    # overflow is no error.
    with np.errstate(over="ignore"):
        before, after = path[:-1], path[1:]
        headroom = hi - before if charge else before - lo
        avail = nominal * headroom / band
        wh = avail * eta * hours if charge else avail / eta * hours
        free = (headroom < band) & (avail > 0) & (demand_w >= avail)
        free &= wh <= headroom * cap
    free &= (after >= lo) & (after <= hi)
    return path, avail if charge else -avail, free


def _available_array(params: BatteryParams, headroom: np.ndarray) -> np.ndarray:
    """:func:`available` of each headroom, bit for bit."""
    avail = np.where(headroom > 0, params.power_nominal_w, 0.0)
    if params.derate_band > 0:
        taper = (headroom > 0) & (headroom < params.derate_band)
        avail[taper] = (params.power_nominal_w * headroom[taper]
                        / params.derate_band)
    return avail
