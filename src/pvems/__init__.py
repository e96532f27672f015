"""Deterministic simulator for a PV + flow-battery microgrid.

Three dispatch strategies over measured PV and load profiles:
self-consumption maximisation, the same with ramp-rate smoothing
through a moving-average battery command, and additionally a
weather-forecast-driven night charge that keeps SOC headroom for the
next day's ramps.  Evaluation is a ten-indicator energy KPI suite.
"""

from .battery import BatteryParams
from .ems import DispatchMode, EmsConfig, StrategyKind, Trace, simulate
from .forecast import (DEFAULT_CHARGE_IDS, ChargeDecisionPolicy, ForecastDay,
                       ForecastError, FixtureForecastSource,
                       LiveForecastSource, fetch_daily_forecast,
                       parse_forecast_payload, should_night_charge)
from .kpi import EnergyTotals, KpiReport, accumulate, compute_kpis
from .ramp import (RampConfig, RampHistogram, ramp_histogram, ramp_rate,
                   window_sweep)
from .timeseries import (PowerSeries, ProfileError, ResampleMethod, align,
                         load_power_csv, resample, write_power_csv)

__version__ = "0.1.0"

__all__ = [
    "BatteryParams",
    "DispatchMode", "EmsConfig", "StrategyKind", "Trace", "simulate",
    "DEFAULT_CHARGE_IDS", "ChargeDecisionPolicy", "ForecastDay",
    "ForecastError", "FixtureForecastSource", "LiveForecastSource",
    "fetch_daily_forecast", "parse_forecast_payload", "should_night_charge",
    "EnergyTotals", "KpiReport", "accumulate", "compute_kpis",
    "RampConfig", "RampHistogram", "ramp_histogram", "ramp_rate",
    "window_sweep",
    "PowerSeries", "ProfileError", "ResampleMethod", "align",
    "load_power_csv", "resample", "write_power_csv",
    "__version__",
]
