"""Tests for the dispatch strategies and the simulation loop."""

import json
import re
from datetime import datetime, time, timedelta, timezone

import numpy as np
import pytest

from pvems.battery import BatteryParams
from pvems.ems import MODES, DispatchMode, EmsConfig, StrategyKind, prepass, simulate
from pvems.fixtures import DEFAULT_REGION_ID, WEEK_START, forecast_payload
from pvems.forecast import FixtureForecastSource, ForecastDay, ForecastError
from pvems.ramp import RampConfig
from pvems.timeseries import PowerSeries

T0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
PARAMS = BatteryParams()
RCFG = RampConfig()


def series(values, step=2.0, start=T0):
    return PowerSeries(start, step, np.asarray(values, dtype=float))


def in_mode(trace, mode):
    """Per tick, whether ``trace`` ran in ``mode``."""
    return trace.mode == MODES.index(mode)


class TestScmDispatch:
    """One SCM tick: store the surplus, cover the deficit."""

    def tick(self, p_pv, p_load, soc):
        """(command, grid power) of one SCM tick from ``soc``."""
        cfg = EmsConfig(strategy=StrategyKind.SCM, ramp=RCFG)
        trace = simulate(series([p_pv]), series([p_load]), cfg, PARAMS,
                         initial_soc=soc)
        return trace.p_batt_cmd[0], trace.p_grid[0]

    def test_surplus_charges(self):
        cmd, grid = self.tick(3_000.0, 1_000.0, soc=0.40)
        assert cmd == 2_000.0
        assert grid == pytest.approx(PARAMS.standby_power_w)

    def test_deficit_with_empty_battery_imports(self):
        cmd, grid = self.tick(0.0, 1_000.0, soc=0.20)
        assert cmd == 0.0
        assert grid == pytest.approx(1_000.0 + PARAMS.standby_power_w)

    def test_exact_balance_idles(self):
        cmd, grid = self.tick(1_500.0, 1_500.0, soc=0.40)
        assert cmd == 0.0
        assert grid == pytest.approx(PARAMS.standby_power_w)

    def test_surplus_clamped_to_available_power(self):
        cmd, _ = self.tick(9_000.0, 1_000.0, soc=0.40)
        assert cmd == PARAMS.power_nominal_w

    def test_deficit_discharges(self):
        cmd, grid = self.tick(500.0, 2_500.0, soc=0.50)
        assert cmd == -2_000.0
        assert grid == pytest.approx(PARAMS.standby_power_w)


class TestRrDispatch:
    """SCM_RR on a flat PV series with one sample 337 W off the level.

    The window holds 10 samples, so the spike moves the window average
    by 33.7 W in one 2 s tick: 15 %/min of the 6740 W nameplate.
    """

    SPIKE = 30

    def run(self, base, offset, strategy=StrategyKind.SCM_RR):
        values = np.full(60, base)
        values[self.SPIKE] += offset
        cfg = EmsConfig(strategy=strategy, ramp=RCFG)
        return simulate(series(values), series(np.full(60, 500.0)), cfg,
                        PARAMS, initial_soc=0.40)

    def test_quiet_tick_delegates_to_scm(self):
        trace = self.run(2_000.0, 337.0)
        ref = self.run(2_000.0, 337.0, strategy=StrategyKind.SCM)
        scm = in_mode(trace, DispatchMode.SCM)
        for k in (self.SPIKE - 1, self.SPIKE + 1):
            assert trace.rr_pct_per_min[k] == 0.0
            assert scm[k]
            assert trace.p_batt_cmd[k] == ref.p_batt_cmd[k]
            assert trace.p_grid[k] == ref.p_grid[k]

    def test_upward_spike_charges(self):
        trace, k = self.run(2_000.0, 337.0), self.SPIKE
        assert trace.rr_pct_per_min[k] == pytest.approx(15.0)
        assert in_mode(trace, DispatchMode.RAMP_CONTROL)[k]
        assert trace.p_batt_cmd[k] == pytest.approx(337.0 * 9 / 10)

    def test_downward_spike_discharges(self):
        trace, k = self.run(3_000.0, -337.0), self.SPIKE
        assert trace.rr_pct_per_min[k] == pytest.approx(-15.0)
        assert in_mode(trace, DispatchMode.RAMP_CONTROL)[k]
        assert trace.p_batt_cmd[k] == pytest.approx(-337.0 * 9 / 10)

    def test_warmup_falls_through(self):
        trace = self.run(2_000.0, 337.0)
        warmup = slice(RCFG.window_samples)
        assert (trace.rr_pct_per_min[warmup] == 0.0).all()
        assert not in_mode(trace, DispatchMode.RAMP_CONTROL)[warmup].any()


class TestNightChargeTick:
    """The night segment at the last tick of a 20 s SCM_RR_WF run (one
    window of the default ramp settings) that ends at a local time."""

    CFG = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)

    class Source:
        def __init__(self, decision):
            self.code = 4 if decision else 1  # overcast charges, clear does not

        def forecast_for(self, date):
            return ForecastDay(date, self.code, DEFAULT_REGION_ID)

    def last_tick(self, clock, soc, decision, pv_w=0.0):
        """(mode, command) of the tick at ``clock`` from SOC ``soc``;
        PV of ``pv_w`` through the window starts the PV day."""
        n = RCFG.window_samples
        start = T0 + timedelta(hours=clock.hour, minutes=clock.minute) \
            - (n - 1) * timedelta(seconds=RCFG.tick_s)
        trace = simulate(series(np.full(n, pv_w), start=start),
                         series(np.zeros(n), start=start), self.CFG, PARAMS,
                         forecast_source=self.Source(decision), initial_soc=soc)
        return MODES[trace.mode[-1]], trace.p_batt_cmd[-1]

    def test_charges_when_due(self):
        mode, cmd = self.last_tick(time(2, 0), 0.30, True)
        assert mode is DispatchMode.NIGHT_CHARGE
        assert cmd == 2_700.0

    def test_target_reached_stops(self):
        mode, _ = self.last_tick(time(2, 0), 0.50, True)
        assert mode is not DispatchMode.NIGHT_CHARGE

    def test_decision_false_never_charges(self):
        mode, _ = self.last_tick(time(2, 0), 0.30, False)
        assert mode is not DispatchMode.NIGHT_CHARGE

    def test_before_start_time(self):
        mode, _ = self.last_tick(time(1, 0), 0.30, True)
        assert mode is not DispatchMode.NIGHT_CHARGE

    def test_pv_day_started_stops(self):
        # the window mean of 1 kW is above 1 % of the nameplate
        mode, _ = self.last_tick(time(9, 0), 0.30, True, pv_w=1_000.0)
        assert mode is not DispatchMode.NIGHT_CHARGE
        assert self.last_tick(time(9, 0), 0.30, True)[0] \
            is DispatchMode.NIGHT_CHARGE


class TestSimulateBasics:
    def test_dead_input_idles_with_standby_import(self):
        n = 2_000
        pv = series(np.zeros(n))
        load = series(np.zeros(n))
        cfg = EmsConfig(strategy=StrategyKind.SCM, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, initial_soc=0.35)
        assert (trace.p_batt_actual == 0.0).all()
        assert (trace.p_grid == PARAMS.standby_power_w).all()
        assert (trace.soc == 0.35).all()
        assert in_mode(trace, DispatchMode.IDLE).all()

    def test_misaligned_inputs_rejected(self):
        pv = series(np.zeros(100))
        load = series(np.zeros(99))
        with pytest.raises(ValueError, match="aligned"):
            simulate(pv, load, EmsConfig(ramp=RCFG), PARAMS)

    def test_wrong_tick_rejected(self):
        pv = series(np.zeros(100), step=4.0)
        load = series(np.zeros(100), step=4.0)
        with pytest.raises(ValueError, match="tick"):
            simulate(pv, load, EmsConfig(ramp=RCFG), PARAMS)

    def test_tick_is_matched_exactly(self):
        # as load_profiles decides whether to resample: a step 1e-10 s off
        # the tick is another grid
        step = RCFG.tick_s + 1e-10
        pv = series(np.zeros(100), step=step)
        with pytest.raises(ValueError, match="control tick"):
            simulate(pv, pv, EmsConfig(ramp=RCFG), PARAMS)

    def test_initial_soc_outside_window_rejected(self):
        pv = series(np.zeros(10))
        with pytest.raises(ValueError, match="initial_soc"):
            simulate(pv, pv, EmsConfig(ramp=RCFG), PARAMS, initial_soc=0.05)

    def test_soc_target_outside_window_rejected(self):
        pv = series(np.zeros(10))
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG, soc_target=0.9)
        with pytest.raises(ValueError, match="soc_target"):
            simulate(pv, pv, cfg, PARAMS)

    @pytest.mark.parametrize("offset", [24.0, -24.0, 1e6, float("nan")])
    def test_utc_offset_outside_a_day_rejected(self, offset):
        with pytest.raises(ValueError, match="utc_offset_h must be in"):
            EmsConfig(utc_offset_h=offset)

    def test_night_power_above_nominal_rejected(self):
        pv = series(np.zeros(10))
        cfg = EmsConfig(ramp=RCFG, night_charge_power_w=9_000.0)
        with pytest.raises(ValueError, match="night_charge_power_w"):
            simulate(pv, pv, cfg, PARAMS)

    @pytest.mark.parametrize("values, window_s, message", [
        ([1e308, -1e308], 2.0, "the ramp rate of the 2 s window mean"),
        ([1e308, 1e308], 4.0, "the sum of a 4 s window of PV power"),
    ])
    def test_overflowing_prepass_refused(self, values, window_s, message):
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR,
                        ramp=RampConfig(window_s=window_s))
        pv = series(values)
        with pytest.raises(OverflowError, match=message):
            simulate(pv, series(np.zeros(len(pv))), cfg, PARAMS)

    def test_replay_deterministic(self):
        rng = np.random.default_rng(23)
        pv = series(rng.uniform(0, 6_740, 3_000))
        load = series(rng.uniform(0, 4_000, 3_000))
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR, ramp=RCFG)
        first = simulate(pv, load, cfg, PARAMS)
        second = simulate(pv, load, cfg, PARAMS)
        assert first == second


class TestSimulateRampControl:
    def make_drop_fixture(self):
        # flat PV, one sharp drop: downward ramp events need discharge.
        # Load matches the pre-drop PV so self-consumption never charges
        # the battery beforehand.
        values = np.full(600, 3_000.0)
        values[300:] = 1_000.0
        return series(values), series(np.full(600, 3_000.0))

    def test_depleted_battery_cannot_control_down_ramp(self):
        pv, load = self.make_drop_fixture()
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, initial_soc=PARAMS.soc_min)
        hits = trace.rr_violated
        assert hits.any(), "fixture must violate"
        assert in_mode(trace, DispatchMode.RAMP_CONTROL)[hits].all()
        assert (trace.p_batt_cmd[hits] <= 0).all()
        assert (trace.p_batt_cmd[hits] < 0).any()
        assert (trace.p_batt_actual[hits] == 0.0).all()

    def test_healthy_battery_executes_command(self):
        pv, load = self.make_drop_fixture()
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, initial_soc=0.45)
        hits = trace.rr_violated
        assert all(actual == pytest.approx(cmd) for actual, cmd in
                   zip(trace.p_batt_actual[hits], trace.p_batt_cmd[hits]))

    def test_scm_records_violations_but_never_controls(self):
        pv, load = self.make_drop_fixture()
        cfg = EmsConfig(strategy=StrategyKind.SCM, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, initial_soc=0.45)
        assert trace.rr_violated.any()
        assert not in_mode(trace, DispatchMode.RAMP_CONTROL).any()


class TestSimulateNightCharge:
    def test_no_charging_on_clear_forecast(self, smooth_day_profiles, clear_source):
        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, forecast_source=clear_source,
                         initial_soc=0.30)
        assert not in_mode(trace, DispatchMode.NIGHT_CHARGE).any()

    def test_no_source_defaults_to_no_charge(self, smooth_day_profiles, caplog):
        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        with caplog.at_level("WARNING"):
            trace = simulate(pv, load, cfg, PARAMS, initial_soc=0.30)
        assert not in_mode(trace, DispatchMode.NIGHT_CHARGE).any()
        assert any("no forecast source" in m for m in caplog.messages)

    def test_failing_source_falls_back_with_warning(self, smooth_day_profiles,
                                                    caplog):
        class Unreachable:
            def forecast_for(self, date):
                raise ForecastError("service down")

        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        with caplog.at_level("WARNING"):
            trace = simulate(pv, load, cfg, PARAMS, forecast_source=Unreachable(),
                             initial_soc=0.30)
        assert not in_mode(trace, DispatchMode.NIGHT_CHARGE).any()
        assert any("unavailable" in m and "service down" in m
                   for m in caplog.messages)

    @pytest.mark.parametrize("template", [
        b'{"data": [{"forecastDate": "%s", "idWeatherType": Infinity}]}',
        b'{"data": [{"forecastDate": "%s", "idWeatherType": 4}, "\xff"]}',
    ], ids=["infinite_weather_id", "not_utf8"])
    def test_malformed_fixture_falls_back_with_warning(self, smooth_day_profiles,
                                                       tmp_path, caplog, template):
        pv, load = smooth_day_profiles
        path = tmp_path / "forecast.json"
        path.write_bytes(template % pv.start.date().isoformat().encode())
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        with caplog.at_level("WARNING"):
            trace = simulate(pv, load, cfg, PARAMS,
                             forecast_source=FixtureForecastSource(path),
                             initial_soc=0.30)
        assert not in_mode(trace, DispatchMode.NIGHT_CHARGE).any()
        assert any("unavailable" in m for m in caplog.messages)

    def test_programming_error_in_source_propagates(self, smooth_day_profiles):
        class Broken:
            def forecast_for(self, date):
                raise TypeError("bad call")

        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        with pytest.raises(TypeError, match="bad call"):
            simulate(pv, load, cfg, PARAMS, forecast_source=Broken(),
                     initial_soc=0.30)

    def test_cloudy_night_holds_target_overshoot_bound(self, smooth_day_profiles,
                                                       cloudy_source):
        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, forecast_source=cloudy_source,
                         initial_soc=0.45)
        night = in_mode(trace, DispatchMode.NIGHT_CHARGE)
        assert night.any()
        tick_soc = (cfg.night_charge_power_w * PARAMS.eta_acdc * RCFG.tick_s
                    / 3_600.0 / PARAMS.energy_capacity_wh)
        assert trace.soc[night].max() <= cfg.soc_target + tick_soc + 1e-12


class TestPowerBalance:
    def test_every_tick_balances_and_soc_stays_in_window(self,
                                                         smooth_day_profiles,
                                                         cloudy_source):
        pv, load = smooth_day_profiles
        for strategy in StrategyKind:
            cfg = EmsConfig(strategy=strategy, ramp=RCFG)
            trace = simulate(pv, load, cfg, PARAMS,
                             forecast_source=cloudy_source, initial_soc=0.30)
            residual = trace.p_pv + trace.p_grid - (trace.p_load + trace.p_batt_actual
                                                    + PARAMS.standby_power_w)
            assert (np.abs(residual) <= 1e-6).all()
            assert ((PARAMS.soc_min <= trace.soc) & (trace.soc <= PARAMS.soc_max)).all()


class TestSharedPrePass:
    """``simulate(..., pre=prepass(pv, cfg))`` equals ``simulate`` without it."""

    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_shared_prepass_gives_the_same_trace(self, smooth_day_profiles,
                                                 cloudy_source, strategy):
        pv, load = smooth_day_profiles
        pre = prepass(pv, EmsConfig(ramp=RCFG))  # built under another strategy
        cfg = EmsConfig(strategy=strategy, ramp=RCFG, soc_target=0.45)
        shared = simulate(pv, load, cfg, PARAMS, forecast_source=cloudy_source,
                          initial_soc=0.30, pre=pre)
        own = simulate(pv, load, cfg, PARAMS, forecast_source=cloudy_source,
                       initial_soc=0.30)
        assert shared == own

    @pytest.mark.parametrize("change", [
        {"ramp": RampConfig(window_s=40.0)},
        {"ramp": RampConfig(limit_pct_per_min=5.0)},
        {"ramp": RampConfig(nameplate_w=5_000.0)},
        {"utc_offset_h": 1.0},
        {"charge_start_time": time(2, 0)},
        {"pv_day_threshold": 0.02},
    ])
    def test_prepass_for_other_settings_refused(self, smooth_day_profiles,
                                                change):
        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR, ramp=RCFG)
        pre = prepass(pv, EmsConfig(**{"ramp": RCFG, **change}))
        with pytest.raises(ValueError, match="other ramp or clock settings"):
            simulate(pv, load, cfg, PARAMS, pre=pre)

    @pytest.mark.parametrize("other", ["shorter", "later", "other_values"])
    def test_prepass_for_another_series_refused(self, other):
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR, ramp=RCFG)
        values = np.linspace(0.0, 3_000.0, 200)
        pv, load = series(values), series(np.full(200, 500.0))
        built_on = {"shorter": series(values[:-1]),
                    "later": series(values, start=T0 + timedelta(seconds=2)),
                    "other_values": series(values + 1.0)}[other]
        with pytest.raises(ValueError, match="another series"):
            simulate(pv, load, cfg, PARAMS, pre=prepass(built_on, cfg))
        # an equal series built separately is accepted
        assert simulate(pv, load, cfg, PARAMS, pre=prepass(series(values), cfg)) \
            == simulate(pv, load, cfg, PARAMS)


class TestTickSplit:
    """``simulate`` advances ticks where no battery limit binds on arrays,
    taper ticks in a float recurrence and the rest one at a time, and
    logs ``dispatch <strategy> runs <ticks> taper <ticks> scalar <ticks>``."""

    def split(self, week_profiles, tmp_path, caplog, strategy):
        """(runs, taper, scalar) of the --seed-fixtures week and config:
        mixed forecast, SOC 0.35."""
        pv, load = week_profiles
        path = tmp_path / "forecast_mixed.json"
        path.write_text(json.dumps(forecast_payload(
            DEFAULT_REGION_ID, WEEK_START.date(), [1, 4, 4, 4, 4, 1, 1, 1])))
        source = FixtureForecastSource(path, DEFAULT_REGION_ID)
        cfg = EmsConfig(strategy=strategy, ramp=RCFG)
        with caplog.at_level("INFO", logger="pvems.ems"):
            simulate(pv, load, cfg, PARAMS, initial_soc=0.35,
                     forecast_source=(source if strategy.has_forecast_charging
                                      else None))
        (line,) = [m for m in caplog.messages if m.startswith("dispatch ")]
        split = tuple(map(int, re.fullmatch(
            rf"dispatch {strategy.value} runs (\d+) taper (\d+) scalar (\d+)",
            line).groups()))
        assert sum(split) == len(pv)
        return split

    def test_seed_week_runs_most_forecast_strategy_ticks_on_arrays(
            self, week_profiles, tmp_path, caplog):
        runs, _, _ = self.split(week_profiles, tmp_path, caplog,
                                StrategyKind.SCM_RR_WF)
        # 181 794 of 302 400 ticks when this test was written; a fall-back
        # to scalar ticks only would read 0
        assert runs >= len(week_profiles[0]) / 2

    @pytest.mark.parametrize("strategy", list(StrategyKind),
                             ids=lambda k: k.value)
    def test_seed_week_leaves_few_ticks_scalar(self, week_profiles, tmp_path,
                                               caplog, strategy):
        # 0 / 217 / 93 of 302 400 ticks when this test was written (the
        # rest of the derate-band nights taper); a silent fall-back from
        # the taper recurrence would leave 38-62 % scalar
        _, taper, scalar = self.split(week_profiles, tmp_path, caplog, strategy)
        assert scalar <= 0.03 * len(week_profiles[0])
        assert taper > 0
