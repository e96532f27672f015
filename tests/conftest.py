import json
import os

import pytest
from hypothesis import settings

from pvems.battery import BatteryParams
from pvems.fixtures import (DEFAULT_REGION_ID, WEEK_START, block_load,
                            constant_load, fluctuating_week_pv,
                            forecast_payload, smooth_day_pv)
from pvems.forecast import FixtureForecastSource
from pvems.ramp import RampConfig
from pvems.timeseries import align

# The suite draws the same examples on every run, so that its result and
# its run time repeat.  PVEMS_HYPOTHESIS_PROFILE=randomized draws new
# examples on each run, for searches over many runs.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False)
settings.load_profile(os.environ.get("PVEMS_HYPOTHESIS_PROFILE", "derandomized"))


@pytest.fixture(scope="session")
def default_params():
    return BatteryParams()


@pytest.fixture(scope="session")
def default_ramp_cfg():
    return RampConfig()


@pytest.fixture(scope="session")
def week_profiles():
    """Fluctuating 7-day PV and two-level load, aligned at the 2 s tick."""
    return align(fluctuating_week_pv(), block_load())


@pytest.fixture(scope="session")
def smooth_day_profiles():
    """Violation-free sinusoidal day with a constant load, aligned."""
    return align(smooth_day_pv(), constant_load())


def _forecast_file(tmp_path_factory, name, weather_ids):
    payload = forecast_payload(DEFAULT_REGION_ID, WEEK_START.date(), weather_ids)
    path = tmp_path_factory.mktemp("forecast") / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="session")
def cloudy_source(tmp_path_factory):
    path = _forecast_file(tmp_path_factory, "cloudy.json", [4] * 9)
    return FixtureForecastSource(path, DEFAULT_REGION_ID)


@pytest.fixture(scope="session")
def clear_source(tmp_path_factory):
    path = _forecast_file(tmp_path_factory, "clear.json", [1] * 9)
    return FixtureForecastSource(path, DEFAULT_REGION_ID)
