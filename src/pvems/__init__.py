"""Deterministic simulator for a PV + flow-battery microgrid.

Three dispatch strategies over measured PV and load profiles:
self-consumption maximisation, the same with ramp-rate smoothing
through a moving-average battery command, and additionally a
weather-forecast-driven night charge that keeps SOC headroom for the
next day's ramps.  Evaluation is a ten-indicator energy KPI suite.
"""

from .battery import BatteryParams, BatteryState
from .battery import step as battery_step
from .ems import (DispatchMode, DispatchRecord, EmsConfig, StrategyKind,
                  Trace, night_charge_tick, scm_dispatch, simulate)
from .forecast import (DEFAULT_CHARGE_IDS, ChargeDecisionPolicy, ForecastDay,
                       ForecastError, FixtureForecastSource,
                       LiveForecastSource, fetch_daily_forecast,
                       parse_forecast_payload, should_night_charge)
from .kpi import EnergyTotals, KpiReport, accumulate, compute_kpis
from .ramp import (RampConfig, RampHistogram, ma_command, ramp_histogram,
                   ramp_rate, violates, window_sweep)
from .timeseries import (PowerSeries, ProfileError, ResampleMethod,
                         ResamplePolicy, align, load_power_csv, resample,
                         write_power_csv)

__version__ = "0.1.0"

__all__ = [
    "BatteryParams", "BatteryState", "battery_step",
    "DispatchMode", "DispatchRecord", "EmsConfig", "StrategyKind", "Trace",
    "night_charge_tick", "scm_dispatch", "simulate",
    "DEFAULT_CHARGE_IDS", "ChargeDecisionPolicy", "ForecastDay",
    "ForecastError", "FixtureForecastSource", "LiveForecastSource",
    "fetch_daily_forecast", "parse_forecast_payload", "should_night_charge",
    "EnergyTotals", "KpiReport", "accumulate", "compute_kpis",
    "RampConfig", "RampHistogram", "ma_command", "ramp_histogram",
    "ramp_rate", "violates", "window_sweep",
    "PowerSeries", "ProfileError", "ResampleMethod", "ResamplePolicy",
    "align", "load_power_csv", "resample", "write_power_csv",
    "__version__",
]
