"""Tests for the battery energy/efficiency model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvems.battery import (BatteryParams, BatteryState, advance, advance_run,
                           advance_taper, available, step)
from pvems.ems import _scm_command


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


def binds(params, soc, cmd, dt_s):
    """Whether ``advance`` from ``soc`` takes one of its limiting branches:
    the availability clamp, the room (or stored-energy) cut, or a final
    clamp that moves the SOC."""
    hours = dt_s / 3600.0
    if cmd > 0:
        if cmd > available(params, params.soc_max - soc):
            return True
        stored_wh = cmd * params.eta_acdc * hours
        if stored_wh > (params.soc_max - soc) * params.energy_capacity_wh:
            return True
        soc += stored_wh / params.energy_capacity_wh
    elif cmd < 0:
        if -cmd > available(params, soc - params.soc_min):
            return True
        drawn_wh = (-cmd / params.eta_acdc) * hours
        if drawn_wh > (soc - params.soc_min) * params.energy_capacity_wh:
            return True
        soc -= drawn_wh / params.energy_capacity_wh
    return not params.soc_min <= soc <= params.soc_max


def fbits(x):
    return np.float64(x).view(np.int64).item()


@st.composite
def run_setups(draw):
    """Params, a start SOC and a run of commands for ``advance_run``.

    Capacities down to 1 Wh let the room limit bind within one tick; the
    start SOC is often on, or one ulp either side of, a derate-band edge
    or a window limit; commands include +-0.0 and values beyond nominal,
    and the first one may fill the room (or drain the stored energy) of
    the start SOC to within an ulp, where rounding decides whether the
    room limit or only the final clamp would bind.
    """
    params = BatteryParams(
        energy_capacity_wh=draw(st.sampled_from([1.0, 50.0, 2_000.0, 60_000.0])),
        derate_band=draw(st.sampled_from([0.0, 0.05, 0.2])))
    lo, hi, band = params.soc_min, params.soc_max, params.derate_band
    edge = draw(st.sampled_from([lo, lo + band, hi - band, hi]))
    near = st.sampled_from([edge, math.nextafter(edge, 0.0),
                            math.nextafter(edge, 1.0)])
    soc = draw(st.one_of(near, st.floats(lo, hi)).filter(lambda s: lo <= s <= hi))
    nominal = params.power_nominal_w
    special = st.sampled_from([0.0, -0.0, nominal, -nominal,
                               math.nextafter(nominal, math.inf),
                               -math.nextafter(nominal, math.inf)])
    cmds = draw(st.lists(st.one_of(special, st.floats(-2 * nominal, 2 * nominal)),
                         min_size=1, max_size=80))
    dt_s = draw(st.sampled_from([2.0, 0.3, 300.0]))
    hours, cap, eta = dt_s / 3600.0, params.energy_capacity_wh, params.eta_acdc
    fill = draw(st.sampled_from([None, (hi - soc) * cap / (eta * hours),
                                 -((soc - lo) * cap * eta / hours)]))
    if fill is not None:
        cmds[0] = draw(st.sampled_from([fill, math.nextafter(fill, -math.inf),
                                        math.nextafter(fill, math.inf)]))
    return params, soc, cmds, dt_s


class TestAdvanceRun:
    @given(run_setups())
    @settings(max_examples=400, deadline=None)
    def test_matches_repeated_advance_where_no_limit_binds(self, setup):
        params, soc0, cmds, dt_s = setup
        path, actual, free = advance_run(params, soc0, np.array(cmds), dt_s)
        assert path[0] == soc0 and len(path) == len(cmds) + 1
        # every tick, started from its place on the path, is free exactly
        # when advance takes none of its limiting branches, and a free
        # tick is advance's, bit for bit
        for k, cmd in enumerate(cmds):
            soc = path[k].item()
            assert bool(free[k]) is not binds(params, soc, cmd, dt_s)
            if free[k]:
                new, executed = advance(params, soc, cmd, dt_s)
                assert fbits(new) == fbits(path[k + 1])
                assert fbits(executed) == fbits(actual[k]) == fbits(cmd)
        # up to the first rejected tick the path is repeated advance calls
        first = int(np.argmin(free)) if not free.all() else len(cmds)
        soc = soc0
        for k in range(first):
            soc, _ = advance(params, soc, cmds[k], dt_s)
            assert fbits(soc) == fbits(path[k + 1])
        if first < len(cmds):
            assert binds(params, soc, cmds[first], dt_s)

    def test_rejects_each_limit(self):
        params = BatteryParams(energy_capacity_wh=1.0)
        # beyond nominal, beyond the taper, a room cut and a stored-energy
        # cut (1 Wh holds less than one tick's energy)
        mid = 0.45
        for soc, cmd in [(mid, 5_001.0), (params.soc_max - 0.01, 5_000.0),
                         (params.soc_max - 1e-6, 0.09), (mid, -1_000.0)]:
            _, _, free = advance_run(params, soc, np.array([cmd]), 2.0)
            assert not free[0], (soc, cmd)
            assert binds(params, soc, cmd, 2.0)
        _, _, free = advance_run(BatteryParams(), mid, np.array([5_000.0, -0.0]), 2.0)
        assert free.all()


def tapers(params, soc, charge, demand, dt_s):
    """Whether an SCM tick from ``soc`` that asks for ``demand`` watts in
    direction ``charge`` executes the whole tapered availability, with
    ``advance`` taking none of its limiting branches."""
    headroom = params.soc_max - soc if charge else soc - params.soc_min
    if not 0 < headroom < params.derate_band:
        return False
    cmd = _scm_command(params, soc, demand if charge else -demand)
    return (cmd != 0 and abs(cmd) == available(params, headroom)
            and not binds(params, soc, cmd, dt_s))


def scm_advance(params, soc, charge, demand, dt_s):
    return advance(params, soc,
                   _scm_command(params, soc, demand if charge else -demand), dt_s)


@st.composite
def taper_setups(draw):
    """Params, a direction, a start SOC and the demands of a taper run.

    The start SOC is on, or one ulp either side of, a derate-band edge
    or a window limit, or inside the band of the direction, or anywhere.
    A demand is a fixed value or the availability at the SOC the scalar
    path reaches, exactly or one ulp either side; the first ``keep``
    demands are ones that keep a tapering tick tapering.  A 1 Wh
    capacity makes the room limit bind; a capacity that one tick at the
    availability fills (to within an ulp) leaves the room limit and the
    final clamp to rounding, and with a narrow window near 0 makes each
    step as large as the SOC.  A nominal power of one ulp makes the
    availability round to zero, and an arbitrary one makes
    ``nominal * band / band`` differ from ``nominal``.
    """
    lo, hi, band = draw(st.sampled_from([(0.2, 0.7, 0.05), (0.2, 0.7, 0.2),
                                         (0.0, 0.1, 0.04)]))
    charge = draw(st.booleans())
    dt_s = draw(st.sampled_from([2.0, 0.3, 300.0]))
    nominal = draw(st.one_of(st.sampled_from([5_000.0] * 3 + [math.ulp(0.0)]),
                             st.floats(1.0, 10_000.0)))
    eta = draw(st.sampled_from([0.88, 1.0]))
    fill = nominal / band * (eta if charge else 1 / eta) * dt_s / 3600.0
    capacity = draw(st.sampled_from(
        [c for c in [1.0, 50.0, 2_000.0, 60_000.0, fill, 2 * fill,
                     math.nextafter(fill, 0.0), math.nextafter(fill, math.inf)]
         if c > 0]))
    params = BatteryParams(energy_capacity_wh=capacity, power_nominal_w=nominal,
                           soc_min=lo, soc_max=hi, eta_acdc=eta,
                           derate_band=band)
    where = draw(st.sampled_from(["edge", "band", "band", "window"]))
    if where == "edge":
        edge = draw(st.sampled_from([lo, lo + band, hi - band, hi]))
        soc0 = draw(st.sampled_from([edge, math.nextafter(edge, 0.0),
                                     math.nextafter(edge, 1.0)])
                    .filter(lambda s: lo <= s <= hi))
    elif where == "band":
        headroom = band * draw(st.floats(0.0, 1.0, exclude_min=True,
                                         exclude_max=True))
        soc0 = hi - headroom if charge else lo + headroom
    else:
        soc0 = draw(st.floats(lo, hi))
    keeping = st.one_of(st.sampled_from(["avail", "above", nominal, 2 * nominal]),
                        st.floats(nominal, 2 * nominal))
    anything = st.one_of(st.sampled_from(["avail", "below", "above", 0.0]),
                         st.floats(0.0, 2 * nominal))
    keep = draw(st.integers(0, 80))
    kinds = (draw(st.lists(keeping, min_size=keep, max_size=keep))
             + draw(st.lists(anything, min_size=int(keep == 0), max_size=10)))
    demands, soc = [], soc0
    for kind in kinds:
        if isinstance(kind, str):
            avail = available(params, hi - soc if charge else soc - lo)
            kind = {"avail": avail, "below": math.nextafter(avail, 0.0),
                    "above": math.nextafter(avail, math.inf)}[kind]
        demands.append(kind)
        soc, _ = scm_advance(params, soc, charge, kind, dt_s)
    return params, charge, soc0, demands, dt_s


class TestAdvanceTaper:
    @given(taper_setups())
    @settings(max_examples=400, deadline=None)
    # charge ticks whose SOC shows the order of ``* eta`` and ``/ band``
    @example((BatteryParams(energy_capacity_wh=50.0), True, 0.6704593848791524,
              [5_000.0] * 3, 2.0))
    @example((BatteryParams(energy_capacity_wh=3.6666666666666665,
                            derate_band=0.2),
              True, 0.5153117232722276, [5_000.0] * 3, 0.3))
    # a discharge whose drawn Wh fits the room but whose SOC the final
    # clamp moves
    @example((BatteryParams(energy_capacity_wh=10.416666666666666, soc_min=0.0,
                            soc_max=0.1, eta_acdc=1.0, derate_band=0.04),
              False, 0.026442197071038245, [5_000.0], 0.3))
    def test_matches_repeated_scm_advance_on_taper_ticks(self, setup):
        params, charge, soc0, demands, dt_s = setup
        path, actual, free = advance_taper(params, soc0, charge,
                                           np.array(demands), dt_s)
        assert path[0] == soc0 and len(path) == len(demands) + 1
        # every tick, started from its place on the path, is free exactly
        # when the scalar SCM tick tapers, and a free tick is the scalar
        # tick's, bit for bit
        for k, demand in enumerate(demands):
            soc = path[k].item()
            assert bool(free[k]) is tapers(params, soc, charge, demand, dt_s)
            if free[k]:
                cmd = _scm_command(params, soc, demand if charge else -demand)
                new, executed = advance(params, soc, cmd, dt_s)
                assert fbits(new) == fbits(path[k + 1])
                assert fbits(executed) == fbits(actual[k]) == fbits(cmd)
        # up to the first rejected tick the path is repeated scalar ticks,
        # and the first rejected tick really leaves the taper regime
        first = int(np.argmin(free)) if not free.all() else len(demands)
        soc = soc0
        for k in range(first):
            soc, _ = scm_advance(params, soc, charge, demands[k], dt_s)
            assert fbits(soc) == fbits(path[k + 1])
        if first < len(demands):
            assert not tapers(params, soc, charge, demands[first], dt_s)

    def test_taper_regime_holds_and_ends(self):
        # guards for the property above: a 60 kWh taper stays in the
        # regime; a demand one ulp below the availability, a 1 Wh room cut
        # and a start on the band edge leave it
        params = BatteryParams()
        for charge, soc in [(True, 0.69), (False, 0.21)]:
            _, _, free = advance_taper(params, soc, charge,
                                       np.full(500, 5_000.0), 2.0)
            assert free.all()
        avail = available(params, 0.21 - params.soc_min)
        for demand, tapering in [(avail, True),
                                 (math.nextafter(avail, 0.0), False)]:
            _, _, free = advance_taper(params, 0.21, False,
                                       np.array([demand]), 2.0)
            assert free.tolist() == [tapering]
            assert tapers(params, 0.21, False, demand, 2.0) is tapering
        _, _, free = advance_taper(BatteryParams(energy_capacity_wh=1.0), 0.21,
                                   False, np.full(300, 5_000.0), 2.0)
        assert not free.any()
        # a headroom of exactly the band gets the nominal power, which
        # here differs from the taper formula: 1000.5 * 0.2 / 0.2 > 1000.5
        edge = BatteryParams(power_nominal_w=1000.5, derate_band=0.2)
        assert 1000.5 * 0.2 / 0.2 != 1000.5 and 0.4 - edge.soc_min == 0.2
        _, _, free = advance_taper(edge, 0.4, False, np.array([5_000.0]), 2.0)
        assert not free[0] and not tapers(edge, 0.4, False, 5_000.0, 2.0)
