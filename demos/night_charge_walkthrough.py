"""Follow one simulated night of forecast-driven battery charging.

At 01:30 local the dispatcher looks up the day's weather-type forecast.
An overcast code starts a constant 2700 W grid-sourced charge that runs
until the battery reaches the 50 % SOC target (or daylight arrives); a
clear-sky code leaves the night untouched.  The printout shows the SOC
trajectory around the charge window for both forecasts.
"""

import json
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np

from pvems.battery import BatteryParams
from pvems.ems import MODES, DispatchMode, EmsConfig, StrategyKind, simulate
from pvems.fixtures import (DEFAULT_REGION_ID, WEEK_START, constant_load,
                            forecast_payload, smooth_day_pv)
from pvems.forecast import FixtureForecastSource
from pvems.ramp import RampConfig
from pvems.timeseries import align

params = BatteryParams()
cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RampConfig())
pv, load = align(smooth_day_pv(), constant_load())


def run_night(weather_id, label):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "forecast.json"
        path.write_text(json.dumps(
            forecast_payload(DEFAULT_REGION_ID, WEEK_START.date(),
                             [weather_id] * 3)))
        source = FixtureForecastSource(path, DEFAULT_REGION_ID)
        trace = simulate(pv, load, cfg, params, forecast_source=source,
                         initial_soc=0.45)

    # the trace is columns: tick i is at trace.start + i * trace.step
    night = np.flatnonzero(trace.mode == MODES.index(DispatchMode.NIGHT_CHARGE))
    print(f"\n--- forecast: {label} ---")
    if not night.size:
        print("no night charging")
    else:
        first, last = (trace.start + i * trace.step for i in (night[0], night[-1]))
        energy_wh = sum(trace.p_batt_actual[night].tolist()) * cfg.ramp.tick_s / 3600
        print(f"charging {first.time()} -> {last.time()} "
              f"at {trace.p_batt_actual[night[0]]:.0f} W ({energy_wh:.0f} Wh from grid)")

    # SOC every 30 minutes through the night
    print("time   soc     mode")
    for i in range(len(trace)):
        timestamp = trace.start + i * trace.step
        minutes = (timestamp - trace.start) // timedelta(minutes=1)
        if minutes > 6 * 60:
            break
        if minutes % 30 == 0 and timestamp.second == 0:
            print(f"{timestamp.strftime('%H:%M')}  {trace.soc[i]:.4f}  "
                  f"{MODES[trace.mode[i]].value}")


run_night(4, "cloudy: charge expected")
run_night(1, "clear sky: no action expected")
