"""Run all three dispatch strategies over the same fluctuating winter
week and put their indicator values side by side.

The storyline the numbers tell:

* plain self-consumption (SCM) ignores ramps entirely: CRR stays 0;
* adding ramp control (SCM+RR) neutralises most violating events, but
  the battery greets every morning near its lower SOC limit, so the
  first downward dropouts of the day go uncontrolled;
* forecast-driven night charging (SCM+RR+WF) refills the battery to
  50 % SOC before dawn on overcast days, and those morning events are
  controlled too, at the price of more grid import and heavier battery
  throughput (higher FGU/TBU/FBU).
"""

import json
import tempfile
from pathlib import Path

from pvems.battery import BatteryParams
from pvems.ems import EmsConfig, StrategyKind, simulate
from pvems.fixtures import (DEFAULT_REGION_ID, WEEK_START, block_load,
                            fluctuating_week_pv, forecast_payload)
from pvems.forecast import FixtureForecastSource
from pvems.kpi import KPI_NAMES, accumulate, compute_kpis
from pvems.ramp import RampConfig
from pvems.timeseries import align

params = BatteryParams()          # 5 kW / 60 kWh, SOC window 20..70 %
ramp_cfg = RampConfig()           # 10 %/min limit, 20 s window, 2 s tick

pv, load = align(fluctuating_week_pv(), block_load())

# every day forecast as overcast -> night charge allowed every night
with tempfile.TemporaryDirectory() as tmp:
    forecast_path = Path(tmp) / "cloudy_week.json"
    forecast_path.write_text(json.dumps(
        forecast_payload(DEFAULT_REGION_ID, WEEK_START.date(), [4] * 8)))
    source = FixtureForecastSource(forecast_path, DEFAULT_REGION_ID)

    reports = {}
    for strategy in StrategyKind:
        cfg = EmsConfig(strategy=strategy, ramp=ramp_cfg)
        trace = simulate(pv, load, cfg, params, forecast_source=source,
                         initial_soc=params.soc_min)  # depleted start
        totals = accumulate(trace, ramp_cfg)
        reports[strategy.value] = compute_kpis(totals)

names = list(reports)
print("KPI (%)".ljust(12) + "".join(n.rjust(12) for n in names))
for kpi in KPI_NAMES:
    row = kpi.upper().ljust(12)
    for name in names:
        value = reports[name].values_pct()[kpi]
        row += ("--" if value is None else f"{value:.2f}").rjust(12)
    print(row)
t = {n: reports[n].totals for n in names}
print("ramps".ljust(12) + "".join(
    f"{t[n].n_ramps_controlled}/{t[n].n_ramps_original}".rjust(12) for n in names))
