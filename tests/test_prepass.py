"""The two-phase engine against scalar per-tick references.

``simulate`` computes its SOC-independent quantities in a numpy
pre-pass, advances ticks in array runs where no battery limit binds,
in a float recurrence where the SOC tapers and one at a time elsewhere,
and returns a columnar trace;
``accumulate`` sums columns and ``write_trace_csv`` formats them.  The
references below are the straightforward per-tick versions (a deque,
``fsum``, ``ramp_rate``, ``violates``, ``datetime`` arithmetic,
``battery.step``, per-record sums and a row-wise csv writer), and every
comparison is bit for bit.
"""

import csv
from collections import deque
from datetime import datetime, time, timedelta, timezone
from math import fsum

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pvems import battery as bat
from pvems import ems
from pvems.battery import BatteryParams, BatteryState
from pvems.cli import TRACE_COLUMNS, write_trace_csv
from pvems.ems import (DispatchMode, DispatchRecord, EmsConfig, StrategyKind,
                       Trace, night_charge_tick, prepass, scm_dispatch,
                       simulate)
from pvems.forecast import (ChargeDecisionPolicy, ForecastDay,
                            should_night_charge)
from pvems.kpi import accumulate
from pvems.ramp import RampConfig, ma_command, ramp_rate, violates
from pvems.timeseries import PowerSeries, format_utc

T0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
NAMEPLATE_W = 6_000.0

# Control ticks, including ones that are not whole seconds or not whole
# microseconds (timedelta rounds those), so the timestamps carry .ffffff.
TICKS_S = [2.0, 1.5, 0.3, 30.0, 300.0, 0.1234567]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# ---------------------------------------------------------------- references

def reference_prepass(pv, cfg):
    """Per-tick (mean, rr, violated, local date, after start, day started)."""
    ramp = cfg.ramp
    window = deque(maxlen=ramp.window_samples)
    tick = timedelta(seconds=ramp.tick_s)
    offset = timedelta(hours=cfg.utc_offset_h)
    level = cfg.pv_day_threshold * ramp.nameplate_w
    timestamp, s_prev, started, rows = pv.start, None, set(), []
    for p in pv.values.tolist():
        local = timestamp + offset
        window.append(p)
        s_now = (fsum(window) / ramp.window_samples
                 if len(window) == ramp.window_samples else None)
        if s_now is not None and s_now > level:
            started.add(local.date())
        rr, violated = 0.0, False
        if s_now is not None and s_prev is not None:
            rr = ramp_rate(s_now, s_prev, ramp, ramp.tick_minutes)
            violated = violates(rr, ramp)
        rows.append((s_now, rr, violated, local.date(),
                     local.time() >= cfg.charge_start_time,
                     local.date() in started))
        s_prev = s_now
        timestamp += tick
    return rows


def reference_simulate(pv, load, cfg, params, source, policy, initial_soc):
    """The per-tick loop: one BatteryState and one DispatchRecord per tick."""
    ramp = cfg.ramp
    pre = reference_prepass(pv, cfg)
    window = deque(maxlen=ramp.window_samples)
    state = BatteryState(soc=initial_soc)
    decisions, night_done, records = {}, set(), []
    timestamp, tick = pv.start, timedelta(seconds=ramp.tick_s)
    offset = timedelta(hours=cfg.utc_offset_h)
    for k, (p_pv, p_load) in enumerate(zip(pv.values.tolist(),
                                           load.values.tolist())):
        window.append(p_pv)
        _, rr, violated, date, after, started = pre[k]
        cmd, mode = None, DispatchMode.SCM
        if cfg.strategy.has_forecast_charging:
            if after and date not in decisions:
                decisions[date] = should_night_charge(
                    source.forecast_for(date), policy)
            decision = decisions.get(date, False) and date not in night_done
            night_cmd = night_charge_tick((timestamp + offset).time(),
                                          state.soc, decision, cfg,
                                          pv_day_started=started)
            if decision and after and state.soc >= cfg.soc_target:
                night_done.add(date)
            elif night_cmd is not None:
                cmd, mode = night_cmd, DispatchMode.NIGHT_CHARGE
        if cmd is None and cfg.strategy.has_ramp_control and violated:
            cmd, mode = ma_command(window, p_pv, ramp), DispatchMode.RAMP_CONTROL
        if cmd is None:
            cmd, _ = scm_dispatch(p_pv, p_load, params, state)
            mode = DispatchMode.IDLE if cmd == 0.0 else DispatchMode.SCM
        state, actual = bat.step(params, state, cmd, ramp.tick_s)
        grid = p_load + actual + params.standby_power_w - p_pv
        records.append(DispatchRecord(timestamp, p_pv, p_load, cmd, actual,
                                      grid, state.soc, mode, rr, violated))
        timestamp = timestamp + tick
    return records


def reference_totals(records, tick_s, ramp_cfg):
    """Per-record sums and event grouping, as a loop over the rows."""
    sums = dict.fromkeys(("gen", "used", "load", "imp", "exp", "chg", "dis"), 0.0)
    for r in records:
        sums["gen"] += max(r.p_pv, 0.0)
        sums["load"] += max(r.p_load, 0.0)
        if r.p_grid >= 0:
            sums["imp"] += r.p_grid
        else:
            sums["exp"] += -r.p_grid
        if r.p_batt_actual >= 0:
            sums["chg"] += r.p_batt_actual
        else:
            sums["dis"] += -r.p_batt_actual
        sums["used"] += (min(max(r.p_pv, 0.0), max(r.p_load, 0.0))
                         + min(max(r.p_batt_actual, 0.0),
                               max(r.p_pv - r.p_load, 0.0)))
    n_orig = n_ctl = 0
    in_event, event_ok, prev_comp = False, True, None
    for r in records:
        ramp_mode = r.mode is DispatchMode.RAMP_CONTROL
        comp = r.p_pv - r.p_batt_actual if ramp_mode else r.p_pv
        if r.rr_violated:
            ok = False
            if ramp_mode:
                ok = (abs(r.p_batt_cmd - r.p_batt_actual)
                      <= 1e-9 * max(1.0, abs(r.p_batt_cmd)))
                if not ok and ramp_cfg is not None and prev_comp is not None:
                    ok = not violates(ramp_rate(comp, prev_comp, ramp_cfg,
                                                tick_s / 60.0), ramp_cfg)
            event_ok = (event_ok and ok) if in_event else ok
            n_orig += not in_event
            in_event = True
        elif in_event:
            n_ctl += event_ok
            in_event = False
        prev_comp = comp
    n_ctl += in_event and event_ok
    hours = tick_s / 3600.0
    energies = [sums[k] * hours for k in
                ("gen", "used", "load", "imp", "exp", "chg", "dis")]
    return energies, n_orig, n_ctl


def reference_write_trace_csv(records, path):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for r in records:
            writer.writerow([
                format_utc(r.timestamp), repr(r.p_pv), repr(r.p_load),
                repr(r.p_batt_cmd), repr(r.p_batt_actual), repr(r.p_grid),
                repr(r.soc), r.mode.value, repr(r.rr_pct_per_min),
                "true" if r.rr_violated else "false"])


# ---------------------------------------------------------------- strategies

@st.composite
def ramp_setups(draw):
    tick_s = draw(st.sampled_from(TICKS_S))
    n_window = draw(st.integers(1, 12))
    return RampConfig(nameplate_w=NAMEPLATE_W, limit_pct_per_min=10.0,
                      window_s=n_window * tick_s, tick_s=tick_s)


@st.composite
def profiles(draw, ramp, max_size=300):
    """Random non-integer watts, integer watts, or a lattice whose window
    mean moves by exactly the 10 %/min threshold per tick; then some
    blocks are zeroed, so that nights (no PV) come and go."""
    size = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from(["float", "integer", "threshold"]))
    if kind == "float":
        elems = st.one_of(st.floats(0.0, 8_000.0), st.sampled_from([0.0, -0.0, 1e-300]))
        values = draw(st.lists(elems, min_size=size, max_size=size))
    elif kind == "integer":
        ints = st.lists(st.integers(0, 8_000), min_size=size, max_size=size)
        values = [float(v) for v in draw(ints)]
    else:
        # One raw step of `unit` moves the window mean by exactly the
        # limit: unit / n / nameplate / tick_min * 100 == 10 %/min.
        unit = (ramp.limit_pct_per_min / 100.0 * ramp.nameplate_w
                * ramp.tick_minutes * ramp.window_samples)
        steps = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
        values = [k * unit for k in steps]
    block = draw(st.integers(5, 60))
    dark = draw(st.lists(st.booleans(), min_size=size // block + 1,
                         max_size=size // block + 1))
    return [0.0 if dark[i // block] else v for i, v in enumerate(values)]


@st.composite
def ems_setups(draw):
    """Config and start; half the starts fall in the local hour before
    midnight, so horizons cross local days."""
    ramp = draw(ramp_setups())
    offset = draw(st.one_of(st.sampled_from([0.0, 5.5, -3.75, 1 / 3, -11.99]),
                            st.floats(-14.0, 14.0)))
    local_s = draw(st.one_of(st.integers(0, 86_399), st.integers(82_800, 86_399)))
    start = (T0 + timedelta(days=draw(st.integers(0, 2)), seconds=local_s,
                            microseconds=draw(st.sampled_from([0, 1, 250_000])))
             - timedelta(hours=offset))
    clock = time(draw(st.integers(0, 23)), draw(st.integers(0, 59)),
                 draw(st.integers(0, 59)), draw(st.sampled_from([0, 1, 999_999])))
    cfg = EmsConfig(strategy=draw(st.sampled_from(list(StrategyKind))),
                    ramp=ramp, night_charge_power_w=2_700.0,
                    soc_target=draw(st.sampled_from([0.3, 0.45, 0.5, 0.69])),
                    charge_start_time=clock, utc_offset_h=offset,
                    pv_day_threshold=draw(st.sampled_from([0.0, 0.01, 0.2])))
    return cfg, start


class _CodeSource:
    """Forecast codes that depend on the date, so days decide differently."""

    def __init__(self, codes):
        self.codes, self.calls = codes, []

    def forecast_for(self, date):
        self.calls.append(date)
        return ForecastDay(date, self.codes[date.toordinal() % len(self.codes)], 0)


# ---------------------------------------------------------------- tests

class TestPrepassReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_scalar_reference(self, data):
        cfg, start = data.draw(ems_setups())
        values = data.draw(profiles(cfg.ramp))
        pv = PowerSeries(start, cfg.ramp.tick_s, np.array(values))
        pre = prepass(pv, cfg)
        ref = reference_prepass(pv, cfg)

        means = [np.nan if row[0] is None else row[0] for row in ref]
        assert np.array_equal(np.isnan(pre.window_mean), np.isnan(means))
        defined = ~np.isnan(pre.window_mean)
        assert np.array_equal(bits(pre.window_mean)[defined],
                              bits(means)[defined])
        assert np.array_equal(bits(pre.rr), bits([row[1] for row in ref]))
        assert pre.violated.tolist() == [row[2] for row in ref]
        assert [pre.first_date + timedelta(days=d) for d in pre.day.tolist()] \
            == [row[3] for row in ref]
        assert pre.after_start.tolist() == [row[4] for row in ref]
        assert pre.day_started.tolist() == [row[5] for row in ref]

    def test_threshold_lattice_really_hits_the_limit(self):
        # guard for the "threshold" profiles: some ticks land exactly on
        # the limit, on either side of the inclusive comparison
        ramp = RampConfig(nameplate_w=NAMEPLATE_W, window_s=20.0, tick_s=2.0)
        cfg = EmsConfig(ramp=ramp)
        unit = 0.1 * NAMEPLATE_W * ramp.tick_minutes * ramp.window_samples
        values = [0.0] * 10 + [unit] * 10 + [3 * unit] * 10
        pv = PowerSeries(T0, 2.0, np.array(values))
        pre = prepass(pv, cfg)
        near = np.isclose(np.abs(pre.rr), 10.0, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(near) >= 10
        assert pre.violated.tolist() == [row[2] for row in
                                         reference_prepass(pv, cfg)]


def band_crossing_day():
    """(pv, load) of 250 ticks for a 500 Wh battery from SOC 0.3.

    A night charge from the first ticks up to the 0.5 target, PV that
    jumps to 7 kW (ramp commands beyond the 5 kW nominal), a surplus
    that charges into the upper derate band, then a drop to a 6 kW
    deficit (a ramp command down) that discharges into the lower band.
    """
    pv = [0.0] * 110 + [7_000.0] * 50 + [0.0] * 90
    load = [100.0] * 110 + [0.0] * 50 + [6_000.0] * 90
    return pv, load


class TestEngineReference:
    def check(self, pv, load_s, cfg, params, soc0, codes, out):
        """``simulate``, ``accumulate`` and the writer against the references."""
        policy = ChargeDecisionPolicy()
        source = _CodeSource(codes)
        trace = simulate(pv, load_s, cfg, params, forecast_source=source,
                         policy=policy, initial_soc=soc0)
        ref_source = _CodeSource(codes)
        ref = reference_simulate(pv, load_s, cfg, params, ref_source, policy,
                                 soc0)
        assert source.calls == ref_source.calls

        assert len(trace) == len(ref)
        for name in Trace.FLOAT_COLUMNS:
            assert np.array_equal(bits(getattr(trace, name)),
                                  bits([getattr(r, name) for r in ref])), name
        assert [r.mode for r in trace] == [r.mode for r in ref]
        assert [r.rr_violated for r in trace] == [r.rr_violated for r in ref]
        assert [r.timestamp for r in trace] == [r.timestamp for r in ref]
        assert trace[-1] == ref[-1]

        totals = accumulate(trace, cfg.ramp.tick_s, cfg.ramp)
        energies, n_orig, n_ctl = reference_totals(ref, cfg.ramp.tick_s, cfg.ramp)
        assert np.array_equal(bits([
            totals.e_pv_generated, totals.e_pv_consumed, totals.e_load,
            totals.e_from_grid, totals.e_to_grid, totals.e_to_battery,
            totals.e_from_battery]), bits(energies))
        assert (totals.n_ramps_original, totals.n_ramps_controlled) == (n_orig, n_ctl)
        assert accumulate(ref, cfg.ramp.tick_s, cfg.ramp) == totals

        write_trace_csv(trace, out / "columns.csv")
        reference_write_trace_csv(ref, out / "rows.csv")
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()
        return ref

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_simulate_accumulate_and_writer_match(self, data, tmp_path_factory):
        cfg, start = data.draw(ems_setups())
        values = data.draw(profiles(cfg.ramp))
        n = len(values)
        load = data.draw(st.lists(st.one_of(st.floats(0.0, 6_000.0),
                                            st.just(-0.0)),
                                  min_size=n, max_size=n))
        params = BatteryParams(
            energy_capacity_wh=data.draw(st.sampled_from([50.0, 2_000.0, 60_000.0])),
            derate_band=data.draw(st.sampled_from([0.0, 0.05, 0.2])))
        soc0 = data.draw(st.floats(params.soc_min, params.soc_max))
        codes = data.draw(st.lists(st.sampled_from([1, 4, 17, 99]),
                                   min_size=1, max_size=4))
        pv = PowerSeries(start, cfg.ramp.tick_s, np.array(values))
        load_s = PowerSeries(start, cfg.ramp.tick_s, np.array(load))
        self.check(pv, load_s, cfg, params, soc0, codes,
                   tmp_path_factory.mktemp("writer"))

    # The engine guesses a block of ticks, keeps its prefix that binds no
    # battery limit and advances the rest one tick at a time.  Besides
    # its own block sizes, run it with tiny ones, so that block and
    # stretch ends fall on every kind of tick.
    @pytest.fixture(params=["default", "tiny"])
    def block_sizes(self, request, monkeypatch):
        if request.param == "tiny":
            monkeypatch.setattr(ems, "_FIRST_GUESS", 1)
            monkeypatch.setattr(ems, "_MAX_GUESS", 8)
            monkeypatch.setattr(ems, "_MAX_STRETCH", 4)
        return request.param

    def band_crossing_setup(self, n_ticks):
        pv, load = band_crossing_day()
        ramp = RampConfig(nameplate_w=NAMEPLATE_W, window_s=20.0, tick_s=2.0)
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=ramp,
                        soc_target=0.5, charge_start_time=time(0, 0, 10))
        params = BatteryParams(energy_capacity_wh=500.0)
        return (PowerSeries(T0, 2.0, np.array(pv[:n_ticks])),
                PowerSeries(T0, 2.0, np.array(load[:n_ticks])), cfg, params)

    def test_bands_night_target_and_big_ramps_in_one_block(self, block_sizes,
                                                            tmp_path):
        pv, load, cfg, params = self.band_crossing_setup(250)
        assert len(pv) < ems._FIRST_GUESS or block_sizes == "tiny"
        ref = self.check(pv, load, cfg, params, 0.3, [4], tmp_path)
        # the day has what it was built for
        lo, hi, band = params.soc_min, params.soc_max, params.derate_band
        socs = [r.soc for r in ref]
        assert any(lo < s < lo + band for s in socs)
        assert any(hi - band < s < hi for s in socs)
        modes = [r.mode for r in ref]
        last_night = max(k for k, m in enumerate(modes)
                         if m is DispatchMode.NIGHT_CHARGE)
        assert ref[last_night].soc >= cfg.soc_target
        assert modes[last_night + 1] is DispatchMode.SCM
        assert any(r.mode is DispatchMode.RAMP_CONTROL
                   and abs(r.p_batt_cmd) > params.power_nominal_w for r in ref)

    @staticmethod
    def dispatch_split(caplog, n_ticks):
        """(runs, taper, scalar) of the one ``dispatch`` log line."""
        (line,) = [m for m in caplog.messages if m.startswith("dispatch ")]
        runs, taper, scalar = map(int, line.split()[3::2])
        assert runs + taper + scalar == n_ticks
        return runs, taper, scalar

    def test_horizon_ends_inside_a_scalar_stretch(self, block_sizes, tmp_path,
                                                  caplog):
        pv, load, cfg, params = self.band_crossing_setup(161)
        with caplog.at_level("INFO", logger="pvems.ems"):
            ref = self.check(pv, load, cfg, params, 0.3, [4], tmp_path)
        # the last tick is a ramp command cut to the nominal power, so
        # only a scalar tick can advance it
        last = ref[-1]
        assert last.mode is DispatchMode.RAMP_CONTROL
        assert last.p_batt_cmd < last.p_batt_actual == -params.power_nominal_w
        runs, _, scalar = self.dispatch_split(caplog, len(pv))
        assert runs > 0 and scalar > 0

    def test_horizon_ends_inside_a_taper_run(self, block_sizes, tmp_path,
                                             caplog):
        pv, load, cfg, params = self.band_crossing_setup(240)
        with caplog.at_level("INFO", logger="pvems.ems"):
            ref = self.check(pv, load, cfg, params, 0.3, [4], tmp_path)
        # the last tick tapers: its SCM command is the whole availability,
        # below the deficit and the nominal power
        last = ref[-1]
        assert last.mode is DispatchMode.SCM
        assert -last.p_batt_cmd < min(last.p_load - last.p_pv,
                                      params.power_nominal_w)
        runs, taper, _ = self.dispatch_split(caplog, len(pv))
        assert runs > 0 and taper > 0

    def test_charge_taper_around_ramp_ticks_and_a_night_segment(
            self, block_sizes, tmp_path, caplog):
        # 60 kWh from SOC 0.66 under a 4.5 kW surplus, from 23:58 local:
        # tapers toward soc_max, a 300 W PV step gives ten ramp ticks,
        # and at 00:00:10 the next day's night segment charges to its
        # 0.664 target (PV stays under the PV-day threshold).  With the
        # default sizes the taper guesses from ticks 0 and 40 both reach
        # past these ticks, so the taper must stop at them.
        ramp = RampConfig(nameplate_w=NAMEPLATE_W, window_s=20.0, tick_s=2.0)
        cfg = EmsConfig(strategy=StrategyKind.SCM_RR_WF, ramp=ramp,
                        soc_target=0.664, charge_start_time=time(0, 0, 10),
                        pv_day_threshold=0.9)
        params = BatteryParams()
        start = T0 + timedelta(hours=23, minutes=58)
        pv = PowerSeries(start, 2.0, np.array([5_000.0] * 30 + [5_300.0] * 220))
        load = PowerSeries(start, 2.0, np.full(250, 500.0))
        with caplog.at_level("INFO", logger="pvems.ems"):
            # codes: no charge on 2018-01-01, charge on 2018-01-02
            ref = self.check(pv, load, cfg, params, 0.66, [4, 1], tmp_path)
        # the horizon has what it was built for
        hi, band = params.soc_max, params.derate_band
        socs = [0.66] + [r.soc for r in ref]
        taper = [k for k, r in enumerate(ref)
                 if r.mode is DispatchMode.SCM and hi - band < socs[k] < hi
                 and r.p_batt_cmd < min(r.p_pv - r.p_load,
                                        params.power_nominal_w)]
        modes = [r.mode for r in ref]
        ramps = [k for k, m in enumerate(modes) if m is DispatchMode.RAMP_CONTROL]
        nights = [k for k, m in enumerate(modes) if m is DispatchMode.NIGHT_CHARGE]
        assert ramps and nights
        assert taper[0] < ramps[0] and ramps[-1] < nights[0]
        assert any(ramps[-1] < k < nights[0] for k in taper)
        assert ref[nights[-1]].soc >= cfg.soc_target
        assert taper[-1] == len(ref) - 1 and len(taper) > 100
        _, tapered, _ = self.dispatch_split(caplog, len(pv))
        assert tapered > 0


class TestTrace:
    def test_row_views_and_round_trip(self):
        pv = PowerSeries(T0, 2.0, np.array([0.0, 1_000.0, 3_000.0, 2_500.0]))
        load = PowerSeries(T0, 2.0, np.full(4, 1_500.0))
        trace = simulate(pv, load, EmsConfig(), BatteryParams())
        records = list(trace)
        assert [trace[i] for i in range(len(trace))] == records
        assert trace[-1] == records[-1]
        assert records[2].timestamp == T0 + timedelta(seconds=4)
        assert Trace.from_records(records, 2.0) == trace
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_columns_are_read_only(self):
        pv = PowerSeries(T0, 2.0, np.zeros(3))
        trace = simulate(pv, pv, EmsConfig(), BatteryParams())
        with pytest.raises(ValueError):
            trace.soc[0] = 0.5
