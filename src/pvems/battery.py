"""Energy/efficiency model of a flow battery behind an AC/DC converter.

Coulomb-counting on the DC side with a symmetric conversion efficiency
per direction, a hard SOC operating window and a linear power taper near
each SOC limit.  Pump and stack electrochemistry are out of scope: the
dispatch logic only needs SOC and the power actually available.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BatteryParams",
    "BatteryState",
    "advance",
    "available",
    "step",
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


@dataclass(frozen=True)
class BatteryState:
    """State of charge (fraction of capacity)."""

    soc: float


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
    """Float core of :func:`step`: returns (new SOC, executed AC power).

    A command is clamped to the availability of its own direction only;
    ``dt_s`` must be positive (:func:`step` checks it, hot loops that
    fixed it once call this directly).
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


def step(params: BatteryParams, state: BatteryState, ac_command_w: float,
         dt_s: float) -> tuple[BatteryState, float]:
    """Advance the battery by ``dt_s`` seconds under a signed AC command.

    Positive commands request charging, negative discharging.  The
    executed power is clamped to the SOC-tapered availability and, on
    the final partial step, reduced so the SOC never leaves its window.
    Conversion losses apply per direction; the constant standby draw is
    accounted on the AC bus by the caller, not here.

    Returns the new state and the signed AC power actually executed.
    """
    if dt_s <= 0:
        raise ValueError(f"dt must be positive, got {dt_s}")
    soc, ac_actual = advance(params, state.soc, ac_command_w, dt_s)
    return BatteryState(soc=soc), ac_actual
