"""Tests for energy accumulation and the indicator computations."""

import math
from datetime import datetime, timedelta, timezone

import pytest

from pvems.battery import BatteryParams, BatteryState, step
from pvems.ems import DispatchMode, DispatchRecord
from pvems.kpi import EnergyTotals, accumulate, compute_kpis
from pvems.ramp import RampConfig

T0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
RCFG = RampConfig()


def rec(i=0, p_pv=0.0, p_load=0.0, cmd=0.0, actual=0.0, grid=0.0, soc=0.35,
        mode=DispatchMode.IDLE, rr=0.0, violated=False):
    return DispatchRecord(
        timestamp=T0 + timedelta(seconds=2 * i), p_pv=p_pv, p_load=p_load,
        p_batt_cmd=cmd, p_batt_actual=actual, p_grid=grid, soc=soc,
        mode=mode, rr_pct_per_min=rr, rr_violated=violated)


def totals(**kwargs):
    base = dict(e_pv_generated=0.0, e_pv_consumed=0.0, e_load=0.0,
                e_from_grid=0.0, e_to_grid=0.0, e_to_battery=0.0,
                e_from_battery=0.0, n_ramps_original=0, n_ramps_controlled=0)
    base.update(kwargs)
    return EnergyTotals(**base)


class TestAccumulate:
    def test_single_tick_unit_conversion(self):
        trace = [rec(p_pv=1_000.0, p_load=0.0, grid=-970.0)]
        t = accumulate(trace, 2.0)
        assert t.e_pv_generated == pytest.approx(1_000.0 * 2 / 3_600)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accumulate([], 2.0)

    def test_all_zero_trace(self):
        trace = [rec(i=i) for i in range(5)]
        t = accumulate(trace, 2.0)
        assert t.e_pv_generated == t.e_load == t.e_to_battery == 0.0
        report = compute_kpis(t)
        for name in ("scr", "ssr", "grf", "bcr", "eg", "fgu", "tgu", "fbu", "tbu"):
            assert getattr(report, name) is None, name
            assert name in report.undefined_reasons
        assert report.crr == 1.0 and report.crr_no_violations

    def test_negative_zero_powers_sum_to_positive_zero(self):
        # a loop starting from 0.0 never yields -0.0; kpi.json would
        # print "-0.0" if the column sums did
        trace = [rec(i=i, p_pv=-0.0, p_load=-0.0, actual=-0.0, grid=-0.0)
                 for i in range(3)]
        t = accumulate(trace, 2.0)
        for name in ("e_pv_generated", "e_pv_consumed", "e_load", "e_from_grid",
                     "e_to_grid", "e_to_battery", "e_from_battery"):
            assert math.copysign(1.0, getattr(t, name)) == 1.0, name

    def test_grid_direction_split(self):
        trace = [rec(i=0, grid=100.0), rec(i=1, grid=-50.0)]
        t = accumulate(trace, 3_600.0)
        assert t.e_from_grid == pytest.approx(100.0)
        assert t.e_to_grid == pytest.approx(50.0)
        assert t.e_grid_total == pytest.approx(150.0)

    def test_pv_consumed_skips_grid_sourced_charging(self):
        # night charging: battery charges 2700 W with zero PV
        trace = [rec(p_pv=0.0, p_load=800.0, actual=2_700.0, grid=3_530.0,
                     mode=DispatchMode.NIGHT_CHARGE)]
        t = accumulate(trace, 3_600.0)
        assert t.e_pv_consumed == 0.0
        assert t.e_to_battery == pytest.approx(2_700.0)

    def test_pv_consumed_counts_direct_plus_battery(self):
        # pv 3000: 1000 to load, 2000 into the battery
        trace = [rec(p_pv=3_000.0, p_load=1_000.0, actual=2_000.0, grid=30.0,
                     mode=DispatchMode.SCM)]
        t = accumulate(trace, 3_600.0)
        assert t.e_pv_consumed == pytest.approx(3_000.0)

    def test_battery_round_trip_relation(self):
        # build the trace from actual battery steps: charge an hour,
        # discharge back to the starting SOC
        params = BatteryParams()
        s0 = BatteryState(soc=0.40)
        s1, ac_in = step(params, s0, 3_000.0, 3_600.0)
        stored = (s1.soc - s0.soc) * params.energy_capacity_wh
        t_out = stored * params.eta_acdc / 3_000.0 * 3_600.0
        s2, ac_out = step(params, s1, -3_000.0, t_out)
        assert s2.soc == pytest.approx(0.40)

        # same duration per record: scale powers onto a 1 h grid
        e_in = ac_in  # Wh over 1 h
        e_out = -ac_out * t_out / 3_600.0
        trace = [rec(i=0, actual=e_in, mode=DispatchMode.SCM),
                 rec(i=1, actual=-e_out, mode=DispatchMode.SCM)]
        t = accumulate(trace, 3_600.0)
        assert t.e_from_battery == pytest.approx(t.e_to_battery * params.eta_acdc ** 2,
                                                 rel=1e-9)


class TestRampEventCounting:
    def controlled_run(self):
        return [
            rec(i=0, p_pv=1_000.0),
            rec(i=1, p_pv=1_500.0, cmd=450.0, actual=450.0,
                mode=DispatchMode.RAMP_CONTROL, rr=30.0, violated=True),
            rec(i=2, p_pv=1_500.0, cmd=400.0, actual=400.0,
                mode=DispatchMode.RAMP_CONTROL, rr=28.0, violated=True),
            rec(i=3, p_pv=1_500.0),
        ]

    def test_fully_executed_event_counts_controlled(self):
        t = accumulate(self.controlled_run(), 2.0, RCFG)
        assert (t.n_ramps_original, t.n_ramps_controlled) == (1, 1)

    def test_clamped_event_counts_uncontrolled(self):
        trace = self.controlled_run()
        trace[2] = rec(i=2, p_pv=1_500.0, cmd=400.0, actual=0.0,
                       mode=DispatchMode.RAMP_CONTROL, rr=28.0, violated=True)
        t = accumulate(trace, 2.0, RCFG)
        assert (t.n_ramps_original, t.n_ramps_controlled) == (1, 0)

    def test_partial_with_small_remainder_controlled(self):
        # command not fully executed, but the compensated signal moves
        # only 10 W per tick: far under the limit
        trace = [
            rec(i=0, p_pv=1_000.0),
            rec(i=1, p_pv=1_210.0, cmd=200.0, actual=200.0,
                mode=DispatchMode.RAMP_CONTROL, rr=15.0, violated=True),
            rec(i=2, p_pv=1_230.0, cmd=220.0, actual=210.0,
                mode=DispatchMode.RAMP_CONTROL, rr=15.0, violated=True),
            rec(i=3, p_pv=1_230.0),
        ]
        t = accumulate(trace, 2.0, RCFG)
        assert (t.n_ramps_original, t.n_ramps_controlled) == (1, 1)

    @pytest.mark.parametrize("leak_step_w, controlled", [(1_000.0, 0), (999.0, 1)])
    def test_leak_exactly_at_limit_counts_uncontrolled(self, leak_step_w,
                                                       controlled):
        # 1000 W per 1-min tick on 8000 W is exactly 12.5 %/min, and the
        # limit is inclusive; one watt less stays under it
        cfg = RampConfig(nameplate_w=8_000.0, limit_pct_per_min=12.5,
                         window_s=60.0, tick_s=60.0)
        trace = [
            rec(i=0, p_pv=1_000.0),
            rec(i=1, p_pv=1_500.0 + leak_step_w, cmd=600.0, actual=500.0,
                mode=DispatchMode.RAMP_CONTROL, rr=20.0, violated=True),
        ]
        t = accumulate(trace, 60.0, cfg)
        assert (t.n_ramps_original, t.n_ramps_controlled) == (1, controlled)

    def test_partial_without_cfg_counts_uncontrolled(self):
        trace = [
            rec(i=0, p_pv=1_000.0),
            rec(i=1, p_pv=1_210.0, cmd=30.0, actual=10.0,
                mode=DispatchMode.RAMP_CONTROL, rr=15.0, violated=True),
        ]
        t = accumulate(trace, 2.0, ramp_cfg=None)
        assert (t.n_ramps_original, t.n_ramps_controlled) == (1, 0)

    def test_violations_without_control_uncontrolled(self):
        trace = [rec(i=0, p_pv=1_000.0, rr=20.0, violated=True,
                     mode=DispatchMode.SCM)]
        t = accumulate(trace, 2.0, RCFG)
        assert (t.n_ramps_original, t.n_ramps_controlled) == (1, 0)

    def test_separate_runs_are_separate_events(self):
        trace = self.controlled_run() + self.controlled_run()
        t = accumulate(trace, 2.0, RCFG)
        assert t.n_ramps_original == 2
        assert t.n_ramps_controlled == 2


class TestComputeKpis:
    def test_identities_from_load_shares(self):
        t = totals(e_load=100.0, e_from_grid=57.2, e_to_grid=0.71,
                   e_pv_generated=80.0, e_pv_consumed=46.9,
                   e_to_battery=20.9, e_from_battery=13.2)
        r = compute_kpis(t)
        assert r.grf == pytest.approx(r.fgu + r.tgu, abs=1e-12)
        assert r.eg == pytest.approx(r.fgu / r.grf, abs=1e-12)
        assert r.bcr + t.e_from_battery / t.e_battery_total == pytest.approx(1.0)

    def test_no_grid_exchange(self):
        t = totals(e_load=10.0)
        r = compute_kpis(t)
        assert r.grf == 0.0
        assert r.eg is None
        assert "eg" in r.undefined_reasons

    def test_crr_fraction(self):
        t = totals(n_ramps_original=10, n_ramps_controlled=9)
        r = compute_kpis(t)
        assert r.crr == pytest.approx(0.9)
        assert not r.crr_no_violations

    def test_crr_vacuous(self):
        r = compute_kpis(totals())
        assert r.crr == 1.0
        assert r.crr_no_violations

    def test_scale_invariance(self):
        t1 = totals(e_pv_generated=50.0, e_pv_consumed=30.0, e_load=40.0,
                    e_from_grid=20.0, e_to_grid=5.0, e_to_battery=12.0,
                    e_from_battery=8.0, n_ramps_original=4, n_ramps_controlled=3)
        k = 7.3
        t2 = totals(e_pv_generated=50.0 * k, e_pv_consumed=30.0 * k,
                    e_load=40.0 * k, e_from_grid=20.0 * k, e_to_grid=5.0 * k,
                    e_to_battery=12.0 * k, e_from_battery=8.0 * k,
                    n_ramps_original=4, n_ramps_controlled=3)
        r1, r2 = compute_kpis(t1), compute_kpis(t2)
        for name in ("scr", "ssr", "grf", "bcr", "eg", "fgu", "tgu", "fbu",
                     "tbu", "crr"):
            assert getattr(r1, name) == pytest.approx(getattr(r2, name))

    def test_json_shape(self):
        r = compute_kpis(totals(e_load=10.0, e_from_grid=5.0))
        doc = r.to_json_dict()
        assert set(doc["kpis_pct"]) == {"scr", "ssr", "grf", "bcr", "eg",
                                        "fgu", "tgu", "fbu", "tbu", "crr"}
        assert doc["kpis_pct"]["fgu"] == pytest.approx(50.0)
        assert doc["kpis_pct"]["scr"] is None
        assert "scr" in doc["undefined_reasons"]
        assert doc["flags"]["crr_no_violations"] is True
        assert doc["notes"]
