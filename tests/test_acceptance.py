"""Acceptance suite: one test per criterion, each printing a pass line.

Absolute weekly indicator values depend on unpublished measurement
data, so acceptance rests on the identities the published numbers
satisfy, oracle equivalence against brute-force references, and the
qualitative strategy properties, all on the bundled synthetic corpus.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import threading
import time as time_mod
from datetime import date, timedelta

import numpy as np
import pytest

from pvems.battery import BatteryParams, advance
from pvems.cli import main, write_trace_csv
from pvems.ems import MODES, DispatchMode, EmsConfig, StrategyKind, simulate
from pvems.fixtures import (DEFAULT_REGION_ID, WEEK_START, forecast_payload,
                            write_fixture_corpus)
from pvems.forecast import (DEFAULT_CHARGE_IDS, WEATHER_TYPE_NAMES,
                            ChargeDecisionPolicy, FixtureForecastSource,
                            ForecastDay, LiveForecastSource,
                            parse_forecast_payload, should_night_charge)
from pvems.kpi import EnergyTotals, accumulate, compute_kpis
from pvems.ramp import RampConfig, fsum_window_mean, ramp_rate, window_sweep
from pvems.timeseries import load_power_csv

RCFG = RampConfig()
PARAMS = BatteryParams()


def ok(num, text):
    print(f"\n[criterion {num:02d}] PASS  {text}")


@pytest.fixture(scope="module")
def week_runs(week_profiles, cloudy_source):
    """All three strategies over the fluctuating week, cloudy forecast,
    depleted initial SOC."""
    pv, load = week_profiles
    runs = {}
    for strategy in StrategyKind:
        cfg = EmsConfig(strategy=strategy, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, forecast_source=cloudy_source,
                         initial_soc=PARAMS.soc_min)
        totals = accumulate(trace, RCFG)
        runs[strategy] = (trace, totals, compute_kpis(totals))
    return runs


@pytest.fixture(scope="module")
def smooth_runs(smooth_day_profiles):
    pv, load = smooth_day_profiles
    runs = {}
    for strategy in (StrategyKind.SCM, StrategyKind.SCM_RR):
        cfg = EmsConfig(strategy=strategy, ramp=RCFG)
        runs[strategy] = simulate(pv, load, cfg, PARAMS, initial_soc=0.35)
    return runs


class TestCriterion01KpiIdentities:
    def test_identities_on_simulated_traces(self, week_runs, smooth_runs):
        reports = [r for _, _, r in week_runs.values()]
        for trace in smooth_runs.values():
            reports.append(compute_kpis(accumulate(trace, RCFG)))
        for report in reports:
            assert report.grf == pytest.approx(report.fgu + report.tgu, abs=1e-9)
            if report.grf and report.grf > 0:
                assert report.eg == pytest.approx(report.fgu / report.grf, abs=1e-9)
        ok(1, f"grf = fgu + tgu and eg = fgu/grf on {len(reports)} traces (1e-9 abs)")

    def test_reference_row_arithmetic(self):
        # published weekly rows as (fgu %, tgu %, expected grf %, expected eg %)
        rows = [(57.2, 0.71, 57.9, 98.8),
                (60.2, 3.06, 63.3, 95.2),
                (57.7, 3.09, 60.8, 94.9)]
        for fgu_pct, tgu_pct, grf_pct, eg_pct in rows:
            totals = EnergyTotals(
                e_pv_generated=100.0, e_pv_consumed=50.0, e_load=100.0,
                e_from_grid=fgu_pct, e_to_grid=tgu_pct,
                e_to_battery=20.0, e_from_battery=10.0,
                n_ramps_original=0, n_ramps_controlled=0)
            report = compute_kpis(totals)
            assert report.fgu * 100 == pytest.approx(fgu_pct, abs=1e-9)
            assert report.grf * 100 == pytest.approx(fgu_pct + tgu_pct, abs=1e-9)
            assert round(report.grf * 100, 1) == grf_pct
            assert abs(report.eg * 100 - eg_pct) <= 0.1
        ok(1, "reference row arithmetic reproduced (grf to 0.1, eg to 0.1 pp)")


class TestCriterion02RampOracle:
    def test_ten_thousand_random_windows(self):
        # the ramp command of a tick is its PV minus the window mean, which
        # the engine takes from ``fsum_window_mean``: here over 10 000
        # back-to-back windows, each against a plain loop
        rng = np.random.default_rng(2024)
        t0 = time_mod.perf_counter()
        n = RCFG.window_samples
        windows = rng.uniform(0.0, 10_000.0, (10_000, n))
        means = fsum_window_mean(windows.ravel(), n)[0][n - 1::n]
        for window, mean in zip(windows, means.tolist()):
            p_now = float(window[-1])
            impl = p_now - mean
            total = 0.0
            for v in window:
                total += float(v)
            ref = p_now - total / len(window)
            scale = max(1.0, abs(p_now), float(np.max(np.abs(window))))
            assert abs(impl - ref) <= 1e-12 * scale

            a, b = rng.uniform(0.0, 10_000.0, 2)
            impl_rr = ramp_rate(a, b, RCFG, 1.0)
            ref_rr = ((a - b) / RCFG.nameplate_w) / 1.0 * 100.0
            assert abs(impl_rr - ref_rr) <= 1e-12 * max(1.0, abs(ref_rr))
        elapsed = time_mod.perf_counter() - t0
        assert elapsed < 5.0
        ok(2, f"10000 windows match brute force (1e-12 rel) in {elapsed:.2f} s")


class TestCriterion03StrategyCollapse:
    def test_smooth_day_traces_bit_identical(self, smooth_runs, tmp_path):
        t0 = time_mod.perf_counter()
        scm = smooth_runs[StrategyKind.SCM]
        rr = smooth_runs[StrategyKind.SCM_RR]
        assert scm == rr
        write_trace_csv(scm, tmp_path / "scm.csv")
        write_trace_csv(rr, tmp_path / "rr.csv")
        assert (tmp_path / "scm.csv").read_bytes() == (tmp_path / "rr.csv").read_bytes()

        report = compute_kpis(accumulate(rr, RCFG))
        assert report.crr_no_violations
        elapsed = time_mod.perf_counter() - t0
        ok(3, f"violation-free day: SCM == SCM_RR byte-for-byte, "
              f"no violations reported ({len(scm)} ticks, {elapsed:.2f} s)")


class TestCriterion04Saturation:
    def test_unlimited_battery_controls_everything(self, week_profiles,
                                                   cloudy_source, week_runs):
        pv, load = week_profiles
        unlimited = BatteryParams(energy_capacity_wh=1e9, power_nominal_w=1e12,
                                  soc_min=0.0, soc_max=1.0, derate_band=0.0)
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        t0 = time_mod.perf_counter()
        trace = simulate(pv, load, cfg, unlimited, forecast_source=cloudy_source,
                         initial_soc=0.5)
        elapsed = time_mod.perf_counter() - t0
        totals = accumulate(trace, RCFG)
        assert totals.n_ramps_original >= 50
        assert totals.n_ramps_controlled == totals.n_ramps_original
        assert compute_kpis(totals).crr == 1.0

        _, scm_totals, scm_report = week_runs[StrategyKind.SCM]
        assert scm_report.crr == 0.0
        assert scm_totals.n_ramps_original >= 50
        ok(4, f"unlimited battery: CRR exactly 100 % "
              f"({totals.n_ramps_original} events); SCM stays 0 % "
              f"(7-day run {elapsed:.1f} s)")

    def test_default_window_orders_strategies(self, week_runs):
        _, _, rr = week_runs[StrategyKind.SCM_RR]
        _, _, wf = week_runs[StrategyKind.SCM_RR_WF]
        assert rr.crr < wf.crr
        ok(4, f"default SOC window, depleted start: CRR {rr.crr:.1%} (SCM+RR) "
              f"< {wf.crr:.1%} (SCM+RR+WF)")


class TestCriterion05BatteryRoundTrip:
    def test_eta_squared_and_measured_band(self):
        charge_w, charge_s = 3_000.0, 3_600.0
        soc, ac_in = advance(PARAMS, 0.40, charge_w, charge_s)
        stored_wh = (soc - 0.40) * PARAMS.energy_capacity_wh
        discharge_w = 3_000.0
        discharge_s = stored_wh * PARAMS.eta_acdc / discharge_w * 3_600.0
        soc2, ac_out = advance(PARAMS, soc, -discharge_w, discharge_s)

        e_in = ac_in * charge_s / 3_600.0
        e_out = -ac_out * discharge_s / 3_600.0
        ratio = e_out / e_in
        assert abs(ratio - PARAMS.eta_acdc ** 2) <= 1e-6 * PARAMS.eta_acdc ** 2
        assert 0.771 - 0.0336 <= ratio <= 0.771 + 0.0336
        assert soc2 == pytest.approx(0.40, abs=1e-12)
        ok(5, f"round trip returns {ratio:.6f} of AC energy "
              f"(eta^2 = {PARAMS.eta_acdc ** 2:.4f}, measured band 0.737..0.805)")


class _DecisionSource:
    def __init__(self, weather_type_id):
        self.weather_type_id = weather_type_id

    def forecast_for(self, day):
        return ForecastDay(day, self.weather_type_id, 0)


class TestCriterion06PowerBalance:
    def test_fuzzed_configs_and_traces(self):
        rng = np.random.default_rng(99)
        checked = 0
        for case in range(1_000):
            soc_min = rng.uniform(0.0, 0.4)
            soc_max = rng.uniform(soc_min + 0.2, 0.95)
            span = soc_max - soc_min
            params = BatteryParams(
                energy_capacity_wh=rng.uniform(1_000, 100_000),
                power_nominal_w=rng.uniform(500, 8_000),
                soc_min=soc_min, soc_max=soc_max,
                eta_acdc=rng.uniform(0.5, 1.0),
                standby_power_w=rng.uniform(0, 100),
                derate_band=rng.uniform(0, span / 2 * 0.9))
            strategy = list(StrategyKind)[int(rng.integers(0, 3))]
            cfg = EmsConfig(strategy=strategy, ramp=RCFG,
                            night_charge_power_w=params.power_nominal_w * 0.5,
                            soc_target=(soc_min + soc_max) / 2)
            n = int(rng.integers(40, 150))
            start = WEEK_START + timedelta(seconds=int(rng.integers(0, 86_400)))
            from pvems.timeseries import PowerSeries
            pv = PowerSeries(start, RCFG.tick_s,
                             np.repeat(rng.uniform(0, 8_000, (n + 9) // 10),
                                       10)[:n].copy())
            load = PowerSeries(start, RCFG.tick_s, rng.uniform(0, 5_000, n))
            source = _DecisionSource(4 if rng.random() < 0.5 else 1)
            trace = simulate(pv, load, cfg, params, forecast_source=source,
                             initial_soc=rng.uniform(soc_min, soc_max))
            residual = trace.p_pv + trace.p_grid - (trace.p_load + trace.p_batt_actual
                                                    + params.standby_power_w)
            assert (np.abs(residual) <= 1e-6).all(), f"case {case}"
            checked += len(trace)
        ok(6, f"power balance within 1e-6 W on {checked} ticks over 1000 "
              f"random config/trace combinations")


class TestCriterion07WindowSweepTrend:
    def test_non_increasing_counts(self, week_profiles):
        pv, _ = week_profiles
        t0 = time_mod.perf_counter()
        sweep = window_sweep(pv, RCFG, [20.0, 60.0, 120.0, 300.0, 600.0, 900.0])
        elapsed = time_mod.perf_counter() - t0
        counts = [count for _, count in sweep]
        # at 600 s the dropouts ramp by exactly the limit
        assert counts == [140, 70, 70, 70, 70, 0]
        ok(7, f"controlled-ramp counts non-increasing over windows "
              f"{{20, 60, 120, 300, 600, 900}} s: {counts} ({elapsed:.2f} s)")


class TestCriterion08ForecastTable:
    def test_decision_table_and_parser_parity(self, tmp_path):
        policy = ChargeDecisionPolicy()
        assert len(WEATHER_TYPE_NAMES) == 29
        for code in WEATHER_TYPE_NAMES:
            decision = should_night_charge(
                ForecastDay(date(2018, 1, 2), code, DEFAULT_REGION_ID), policy)
            assert decision == (code in DEFAULT_CHARGE_IDS), f"code {code}"

        payload = json.dumps(forecast_payload(
            DEFAULT_REGION_ID, date(2018, 1, 1), [1, 4, 17])).encode()

        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            live = LiveForecastSource(f"http://127.0.0.1:{server.server_port}",
                                      DEFAULT_REGION_ID)
            fixture_path = tmp_path / "payload.json"
            fixture_path.write_bytes(payload)
            fixture = FixtureForecastSource(fixture_path, DEFAULT_REGION_ID)
            for offset in range(3):
                day = date(2018, 1, 1) + timedelta(days=offset)
                assert live.forecast_for(day) == fixture.forecast_for(day)
            direct = parse_forecast_payload(payload, DEFAULT_REGION_ID,
                                            date(2018, 1, 2))
            assert direct == live.forecast_for(date(2018, 1, 2))
        finally:
            server.shutdown()
        ok(8, "29 weather codes map as documented; live and fixture parsers "
              "agree on identical payload bytes")


class TestCriterion09NightCharge:
    def test_cloudy_night_segment(self, smooth_day_profiles, cloudy_source):
        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, forecast_source=cloudy_source,
                         initial_soc=0.45)
        night_mode = MODES.index(DispatchMode.NIGHT_CHARGE)
        indices = np.flatnonzero(trace.mode == night_mode).tolist()
        assert indices, "cloudy night must charge"
        assert indices == list(range(indices[0], indices[-1] + 1))

        first = trace.start + indices[0] * trace.step
        assert first.hour == 1 and first.minute == 30
        assert all(p == pytest.approx(2_700.0)
                   for p in trace.p_batt_actual[indices].tolist())

        tick_soc = 2_700.0 * PARAMS.eta_acdc * RCFG.tick_s / 3_600.0 \
            / PARAMS.energy_capacity_wh
        last_i = indices[-1]
        last_soc = float(trace.soc[last_i])
        assert last_soc >= cfg.soc_target
        assert last_soc <= cfg.soc_target + tick_soc + 1e-12
        assert trace.mode[last_i + 1] != night_mode
        last_time = (trace.start + last_i * trace.step).time()
        ok(9, f"charging 01:30 -> {last_time} at 2700 W, stops at "
              f"soc {last_soc:.6f} (target 0.50 + one tick)")

    def test_clear_night_never_charges(self, smooth_day_profiles, clear_source):
        pv, load = smooth_day_profiles
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=RCFG)
        trace = simulate(pv, load, cfg, PARAMS, forecast_source=clear_source,
                         initial_soc=0.45)
        assert not (trace.mode == MODES.index(DispatchMode.NIGHT_CHARGE)).any()
        ok(9, "clear-sky night: zero charge ticks")


class TestCriterion10Determinism:
    def test_compare_twice_byte_identical(self, tmp_path):
        fx = tmp_path / "fixtures"
        assert main(["--seed-fixtures", str(fx)]) == 0
        config = fx / "config_week.json"
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["compare", "--config", str(config),
                     "--out-dir", str(out1)]) == 0
        assert main(["compare", "--config", str(config),
                     "--out-dir", str(out2)]) == 0
        b1 = (out1 / "compare.csv").read_bytes()
        b2 = (out2 / "compare.csv").read_bytes()
        assert b1 == b2
        ok(10, f"compare run twice: byte-identical output "
               f"({len(b1)} bytes)")
