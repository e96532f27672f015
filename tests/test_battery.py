"""Tests for the battery energy/efficiency model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvems.battery import BatteryParams, BatteryState, advance, available, step


@pytest.fixture
def params():
    return BatteryParams()


class TestParamsValidation:
    def test_defaults_are_valid(self, params):
        assert params.energy_capacity_wh == 60_000.0
        assert params.soc_min == 0.20 and params.soc_max == 0.70

    @pytest.mark.parametrize("kwargs", [
        {"soc_min": 0.7, "soc_max": 0.2},
        {"soc_min": -0.1},
        {"soc_max": 1.5},
        {"eta_acdc": 0.0},
        {"eta_acdc": 1.2},
        {"energy_capacity_wh": 0},
        {"power_nominal_w": -5},
        {"derate_band": 0.25},
        {"derate_band": -0.01},
        {"standby_power_w": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BatteryParams(**kwargs)


class TestAvailablePower:
    def test_zero_at_soc_max(self, params):
        assert available(params, params.soc_max - 0.70) == 0.0

    def test_full_power_mid_window(self, params):
        assert available(params, params.soc_max - 0.40) == 5_000.0
        assert available(params, 0.50 - params.soc_min) == 5_000.0

    def test_zero_at_soc_min(self, params):
        assert available(params, 0.20 - params.soc_min) == 0.0

    def test_charge_taper_midpoint(self, params):
        # halfway into the taper band the available power is half nominal
        soc = params.soc_max - params.derate_band / 2
        assert available(params, params.soc_max - soc) == pytest.approx(2_500.0)

    def test_discharge_taper_midpoint(self, params):
        soc = params.soc_min + params.derate_band / 2
        assert available(params, soc - params.soc_min) == pytest.approx(2_500.0)

    def test_no_taper_band(self):
        p = BatteryParams(derate_band=0.0)
        assert available(p, p.soc_max - 0.6999) == 5_000.0
        assert available(p, p.soc_max - 0.70) == 0.0


class TestStep:
    def test_charge_hour_bookkeeping(self, params):
        # 2700 W for one hour stores 2700 * 0.88 = 2376 Wh
        state, actual = step(params, BatteryState(soc=0.40), 2_700.0, 3_600.0)
        assert actual == 2_700.0
        assert state.soc == pytest.approx(0.40 + 2_376.0 / 60_000.0)
        assert actual > 0

    def test_full_battery_clamps_to_zero(self, params):
        state, actual = step(params, BatteryState(soc=0.70), 5_000.0, 2.0)
        assert actual == 0.0
        assert state.soc == 0.70

    def test_zero_command_is_idle(self, params):
        state, actual = step(params, BatteryState(soc=0.40), 0.0, 2.0)
        assert actual == 0.0
        assert state.soc == 0.40

    @pytest.mark.parametrize("soc", [0.20, 0.40, 0.70])
    def test_zero_commands_keep_their_sign(self, params, soc):
        # the trace writes repr(actual), so -0.0 must stay -0.0, and a
        # discharge request on an empty battery executes as -0.0
        for cmd in (0.0, -0.0):
            _, actual = step(params, BatteryState(soc=soc), cmd, 2.0)
            assert math.copysign(1.0, actual) == math.copysign(1.0, cmd)
        _, actual = step(params, BatteryState(soc=0.20), -100.0, 2.0)
        assert math.copysign(1.0, actual) == -1.0 and actual == 0.0

    def test_float_core_matches_step(self, params):
        for soc, cmd in [(0.40, 3_000.0), (0.69, 5_000.0), (0.21, -4_000.0),
                         (0.40, 0.0), (0.70, 100.0)]:
            state, actual = step(params, BatteryState(soc=soc), cmd, 2.0)
            assert advance(params, soc, cmd, 2.0) == (state.soc, actual)

    def test_discharge_draws_more_than_delivered(self, params):
        state, actual = step(params, BatteryState(soc=0.40), -2_200.0, 3_600.0)
        assert actual == -2_200.0
        assert state.soc == pytest.approx(0.40 - 2_500.0 / 60_000.0)
        assert actual < 0

    def test_partial_final_step_is_reduced(self, params):
        # 1 Wh of room left but an hour of full-power charge requested
        state0 = BatteryState(soc=params.soc_max - 1.0 / 60_000.0)
        state, actual = step(params, state0, 5_000.0, 3_600.0)
        assert state.soc == pytest.approx(params.soc_max)
        assert actual == pytest.approx(1.0 / params.eta_acdc)

    def test_rejects_nonpositive_dt(self, params):
        with pytest.raises(ValueError, match="dt"):
            step(params, BatteryState(soc=0.40), 0.0, 0.0)

    def test_deterministic(self, params):
        s0 = BatteryState(soc=0.42)
        assert step(params, s0, 1234.5, 2.0) == step(params, s0, 1234.5, 2.0)


class TestRoundTrip:
    def test_ac_round_trip_efficiency(self, params):
        # store at 3 kW for an hour, then draw the exact stored energy
        # back out; the AC energy ratio is eta squared
        charge_w, charge_s = 3_000.0, 3_600.0
        state, ac_in = step(params, BatteryState(soc=0.40), charge_w, charge_s)
        stored_wh = (state.soc - 0.40) * params.energy_capacity_wh

        discharge_w = 3_000.0
        discharge_s = stored_wh * params.eta_acdc / discharge_w * 3_600.0
        state2, ac_out = step(params, state, -discharge_w, discharge_s)

        assert state2.soc == pytest.approx(0.40, abs=1e-12)
        e_in = ac_in * charge_s / 3_600.0
        e_out = -ac_out * discharge_s / 3_600.0
        ratio = e_out / e_in
        assert ratio == pytest.approx(params.eta_acdc ** 2, rel=1e-9)
        # 0.88^2 = 0.7744, inside the measured 77.1 +/- 3.36 % band
        assert 0.771 - 0.0336 <= ratio <= 0.771 + 0.0336


commands = st.lists(st.floats(min_value=-12_000, max_value=12_000,
                              allow_nan=False), min_size=1, max_size=60)


class TestProperties:
    @given(commands)
    @settings(max_examples=200, deadline=None)
    def test_soc_stays_in_window(self, cmds):
        params = BatteryParams()
        state = BatteryState(soc=0.35)
        for cmd in cmds:
            state, actual = step(params, state, cmd, 2.0)
            assert params.soc_min <= state.soc <= params.soc_max
            assert abs(actual) <= params.power_nominal_w + 1e-9

    @given(st.floats(min_value=0.2, max_value=0.7),
           st.floats(min_value=-6_000, max_value=6_000, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_actual_never_exceeds_command_magnitude(self, soc, cmd):
        params = BatteryParams()
        state, actual = step(params, BatteryState(soc=soc), cmd, 2.0)
        assert abs(actual) <= abs(cmd) + 1e-9
        assert actual * cmd >= 0  # never flips direction
