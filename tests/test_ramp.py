"""Tests for ramp-rate math, the moving-average command and the
offline ramp analyses.  Reference values come from explicit brute-force
loops, kept deliberately separate from the vectorised implementations;
the per-tick moving-average command is the test oracle's
(``reference.ma_command``), checked here against a plain loop.
"""

import math
import struct
from datetime import datetime, timezone
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvems.ramp import (RampConfig, events_of, fsum_window_mean,
                        ramp_histogram, ramp_rate, violations, window_sweep)
from pvems.timeseries import PowerSeries
from reference import ma_command

T0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
CFG = RampConfig()


def brute_force_ma_command(window, p_now):
    """Plain-loop reference for the moving-average command."""
    total = 0.0
    for v in window:
        total += v
    return p_now - total / len(window)


def brute_force_sweep_count(values, step_s, n, cfg):
    """Plain-loop reference for one window of the sweep."""
    events = 0
    in_event = False
    prev_avg = None
    thresh = cfg.limit_pct_per_min / 100.0 * cfg.nameplate_w * step_s / 60.0
    for k in range(len(values)):
        if k >= n - 1:
            avg = sum(values[k - n + 1:k + 1]) / n
            if prev_avg is not None and abs(avg - prev_avg) >= thresh:
                if not in_event:
                    events += 1
                    in_event = True
            else:
                in_event = False
            prev_avg = avg
        else:
            in_event = False
    return events


class TestRampConfig:
    @pytest.mark.parametrize("tick_s", [0.0, -2.0, -0.0])
    def test_rejects_nonpositive_tick(self, tick_s):
        # the only guard on the control tick: ``battery.advance`` and the
        # dispatch loop take a positive tick as given
        with pytest.raises(ValueError, match="tick_s must be positive"):
            RampConfig(tick_s=tick_s, window_s=20.0)

    @pytest.mark.parametrize("window_s, tick_s", [
        (1e308, 1e-5), (2.0, 1e-320),  # a ratio that overflows to inf
        (float("nan"), 2.0), (1.0, 2.0), (3.0, 2.0), (-2.0, 2.0)])
    def test_rejects_window_not_a_multiple_of_tick(self, window_s, tick_s):
        with pytest.raises(ValueError, match="must be a positive multiple of tick_s"):
            RampConfig(tick_s=tick_s, window_s=window_s)


class TestRampRate:
    def test_no_change_is_zero(self):
        assert ramp_rate(1_000.0, 1_000.0, CFG) == 0.0

    def test_ten_percent_per_minute(self):
        assert ramp_rate(4_044.0, 3_370.0, CFG, 1.0) == pytest.approx(10.0)

    def test_full_nameplate_drop(self):
        assert ramp_rate(0.0, 6_740.0, CFG, 1.0) == pytest.approx(-100.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            ramp_rate(1.0, 2.0, CFG, 0.0)

    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_antisymmetric(self, a, b):
        assert ramp_rate(a, b, CFG) == pytest.approx(-ramp_rate(b, a, CFG))

    def test_scales_inversely_with_nameplate(self):
        small = RampConfig(nameplate_w=3_370.0)
        assert ramp_rate(100.0, 0.0, small) == pytest.approx(
            2 * ramp_rate(100.0, 0.0, CFG))


def exact_flags(values, n, cfg, step_s):
    """Per-tick oracle of ``violations``: the ramp of consecutive exact
    trailing means over ``n`` samples, in %/min, against the limit."""
    limit, nameplate = Fraction(cfg.limit_pct_per_min), Fraction(cfg.nameplate_w)
    minutes = Fraction(step_s) / 60
    flags, total, prev = [], Fraction(0), None
    for i, v in enumerate(values):
        total += Fraction(v)
        if i >= n:
            total -= Fraction(values[i - n])
        mean = total / n if i >= n - 1 else None
        flags.append(prev is not None
                     and abs(mean - prev) / nameplate / minutes * 100 >= limit)
        prev = mean
    return flags


# violations decides every tick of the last two in fractions: their
# limit * nameplate is subnormal, or their threshold exceeds 2**960
LIMIT_CONFIGS = [CFG, RampConfig(nameplate_w=6_000.0),
                 RampConfig(limit_pct_per_min=9.7),
                 RampConfig(nameplate_w=1e-300, limit_pct_per_min=1e-20),
                 RampConfig(nameplate_w=1e300)]


def threshold(n, cfg, step_s):
    """The float nearest the step ``x[i] - x[i-n]`` that ramps by the limit."""
    return float(Fraction(cfg.limit_pct_per_min) * Fraction(cfg.nameplate_w)
                 * n * Fraction(step_s) / 6000)


def one_step(n, cfg, step_s):
    return [0.0] * n + [threshold(n, cfg, step_s)], n, cfg, step_s


@st.composite
def limit_case(draw):
    """Samples on an integer lattice whose step is the limit's exact
    threshold (rounded to a float where it is not one), about half of
    them nudged by up to 24 ulps (the float band is 16 to 32), and some
    ``±1e308``."""
    cfg = draw(st.sampled_from(LIMIT_CONFIGS))
    n = draw(st.sampled_from([1, 2, 10, 300]))
    step_s = draw(st.sampled_from([2.0, 1.5, 0.3]))
    unit = threshold(n, cfg, step_s)
    size = draw(st.one_of(st.integers(0, n + 1), st.integers(n + 1, n + 40)))
    # one integer per sample: lattice steps -3..6, then 1e308 and -1e308
    codes = draw(st.lists(st.integers(-3, 8), min_size=size, max_size=size))
    values = [{7: 1e308, 8: -1e308}.get(k, k * unit) for k in codes]
    rnd = draw(st.randoms(use_true_random=False))
    return ([v + rnd.choice([0, rnd.randint(-24, 24)]) * math.ulp(v) for v in values],
            n, cfg, step_s)


class TestViolates:
    """``violations``: ``|x[i] - x[i-n]| * 6000 >= limit * nameplate * n *
    step_s``, exactly; 10 %/min of 6 740 W over one 60 s sample is 674 W."""

    def test_at_limit_violates(self):
        assert violations(np.array([0.0, 674.0]), 1, CFG, 60.0).tolist() == [False, True]

    def test_just_below_does_not(self):
        assert not violations(np.array([0.0, 673.99]), 1, CFG, 60.0).any()

    def test_symmetric(self):
        assert violations(np.array([800.0, 0.0]), 1, CFG, 60.0).tolist() == [False, True]

    def test_overflowing_difference_violates(self):
        assert violations(np.array([-1e308, 1e308, 1e308]), 1, CFG, 2.0).tolist() \
            == [False, True, False]

    # steps just below the limit that the float test puts 1.6 parts in
    # 2**53 above it and, where every tick is decided in fractions, on it
    @example(case=one_step(10, LIMIT_CONFIGS[2], 2.0))
    @example(case=one_step(1, LIMIT_CONFIGS[4], 2.0))
    @given(case=limit_case())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_exact_means(self, case):
        values, n, cfg, step_s = case
        got = violations(np.array(values, dtype=float), n, cfg, step_s)
        assert got.tolist() == exact_flags(values, n, cfg, step_s)

    def test_rejects_an_empty_window(self):
        with pytest.raises(ValueError, match="at least one sample"):
            violations(np.ones(3), 0, CFG, 2.0)


class TestMaCommand:
    def test_constant_window_commands_nothing(self):
        assert ma_command([1_000.0] * 10, 1_000.0, CFG) == 0.0

    def test_pv_above_average_charges(self):
        cmd = ma_command([1_000.0] * 9 + [2_000.0], 2_000.0, CFG)
        assert cmd == pytest.approx(900.0)

    def test_pv_below_average_discharges(self):
        cmd = ma_command([2_000.0] * 9 + [1_000.0], 1_000.0, CFG)
        assert cmd == pytest.approx(-900.0)

    def test_underfilled_window_commands_nothing(self):
        assert ma_command([500.0] * 3, 500.0, CFG) == 0.0

    def test_overfilled_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ma_command([1.0] * 11, 1.0, CFG)

    @given(st.lists(st.floats(0, 10_000), min_size=10, max_size=10),
           st.floats(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, window, p_now):
        impl = ma_command(window, p_now, CFG)
        ref = brute_force_ma_command(window, p_now)
        scale = max(1.0, abs(p_now), max(abs(v) for v in window))
        assert abs(impl - ref) <= 1e-12 * scale


class TestRampHistogram:
    def test_constant_series_all_below_5(self):
        s = PowerSeries(T0, 2.0, np.full(3_000, 4_000.0))
        hist = ramp_histogram(s, CFG)
        assert hist.below_5 == hist.total_minutes
        assert hist.ge_5 == hist.ge_10 == hist.gt_10 == hist.ge_50 == 0
        assert hist.percentages()["<5"] == 100.0

    def test_square_wave_every_minute_is_full_ramp(self):
        # toggles 0 <-> nameplate each minute: every minute is +/-100 %/min
        minutes = 20
        values = np.repeat([0.0, 6_740.0] * (minutes // 2), 30)
        s = PowerSeries(T0, 2.0, values)
        hist = ramp_histogram(s, CFG)
        assert hist.ge_50 == hist.total_minutes
        assert hist.ge_5 == hist.ge_10 == hist.gt_10 == hist.total_minutes
        assert hist.below_5 == 0

    def test_too_short(self):
        s = PowerSeries(T0, 2.0, np.full(10, 1.0))
        with pytest.raises(ValueError, match="minute"):
            ramp_histogram(s, CFG)

    def test_step_must_divide_minute(self):
        s = PowerSeries(T0, 7.0, np.zeros(100))
        with pytest.raises(ValueError, match="divide"):
            ramp_histogram(s, CFG)

    def test_buckets_overlap_consistently(self):
        rng = np.random.default_rng(11)
        s = PowerSeries(T0, 2.0, rng.uniform(0, 6_740, 9_000))
        hist = ramp_histogram(s, CFG)
        assert hist.ge_50 <= hist.gt_10 <= hist.ge_10 <= hist.ge_5
        assert hist.below_5 + hist.ge_5 == hist.total_minutes


class TestWindowSweep:
    def test_constant_series_controls_nothing(self):
        s = PowerSeries(T0, 2.0, np.full(2_000, 3_000.0))
        assert window_sweep(s, CFG, [2.0, 20.0, 60.0]) == [(2.0, 0), (20.0, 0), (60.0, 0)]

    def test_identical_windows_identical_counts(self):
        rng = np.random.default_rng(5)
        s = PowerSeries(T0, 2.0, rng.uniform(0, 6_740, 3_000))
        out = window_sweep(s, CFG, [20.0, 20.0])
        assert out[0][1] == out[1][1]

    def test_matches_brute_force_on_step_fixture(self):
        values = np.full(1_200, 1_000.0)
        values[300:600] = 5_000.0   # step up then back down
        values[900:] = 2_500.0
        s = PowerSeries(T0, 2.0, values)
        for w in (2.0, 20.0, 60.0, 120.0):
            (_, impl), = window_sweep(s, CFG, [w])
            ref = brute_force_sweep_count(list(values), 2.0, int(w / 2), CFG)
            assert impl == ref, f"window {w}"

    def test_rejects_non_multiple_window(self):
        s = PowerSeries(T0, 2.0, np.zeros(100))
        with pytest.raises(ValueError, match="multiple"):
            window_sweep(s, CFG, [3.0])

    def test_refuses_sums_that_overflow(self):
        # two-sample windows overflow; one-sample windows do not, and
        # their one step of -2e308 is a ramp
        s = PowerSeries(T0, 2.0, np.array([1e308, 1e308, -1e308, -1e308]))
        with pytest.raises(OverflowError, match="the sum of a 4 s window"):
            window_sweep(s, CFG, [4.0])
        assert window_sweep(s, CFG, [2.0]) == [(2.0, 1)]


class TestSmoothingProperty:
    def test_full_execution_pins_output_to_moving_average(self):
        # executing the command every tick makes the net PV output the
        # running average, whose worst 1-minute ramp never exceeds the
        # raw signal's
        rng = np.random.default_rng(17)
        values = np.repeat(rng.uniform(0, 6_740, 300), 15)  # blocky PV
        n = CFG.window_samples

        output = []
        for k in range(n - 1, len(values)):
            window = values[k - n + 1:k + 1]
            cmd = ma_command(window, float(values[k]), CFG)
            output.append(values[k] - cmd)
        output = np.array(output)

        expected = fsum_window_mean(values, n)[0][n - 1:]
        assert np.allclose(output, expected, atol=1e-9)

        per_min = 30  # 2 s ticks
        raw_worst = np.max(np.abs(values[per_min:] - values[:-per_min]))
        out_worst = np.max(np.abs(output[per_min:] - output[:-per_min]))
        assert out_worst <= raw_worst + 1e-9


class TestHelpers:
    def test_count_events(self):
        flags = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        assert events_of(np.flatnonzero(flags)).tolist() == [1, 1, 2, 3, 3, 3]
        assert events_of(np.flatnonzero(np.array([], dtype=bool))).size == 0
        assert events_of(np.flatnonzero(np.array([True]))).tolist() == [1]


def fsum_oracle(values, n):
    """``fsum(window) / n`` per full window, NaN before the first one."""
    return ([math.nan] * min(n - 1, len(values))
            + [fsum(values[i:i + n]) / n for i in range(len(values) - n + 1)])


def outcome(mean, values, n):
    """The bits of ``mean(values, n)``, or the type and text of its error."""
    try:
        out = list(mean(values, n))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return struct.pack(f"<{len(out)}d", *out)


HUGE = 1.7976931348623157e308
TINY = 5e-324
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 2.0 ** -53, 2.0 ** -106, 2.0 ** 53,
           1e300, -1e300, 2.0 ** 1000, HUGE, -HUGE, TINY, -TINY,
           2.2250738585072014e-308, 2.225073858507201e-308]


@st.composite
def window_case(draw):
    """Values and a window length."""
    n = draw(st.sampled_from([1, 2, 3, 10, 300]))
    elements = [st.sampled_from(SPECIAL), st.floats(-1e4, 1e4),
                st.integers(-2 ** 64, 2 ** 64).map(float),
                st.floats(-1e-300, 1e-300),
                st.floats(allow_nan=False, allow_infinity=False)]
    if draw(st.booleans()):
        elements.append(st.sampled_from([math.inf, -math.inf, math.nan]))
    size = draw(st.one_of(st.integers(0, n + 1), st.integers(n, n + 40)))
    values = draw(st.lists(st.one_of(elements), min_size=size, max_size=size))
    return values, n


def pinned_windows(values, n):
    return values, n


def hex_floats(text):
    return [float.fromhex(h) for h in text.split()]


class TestExactWindowMean:
    """``fsum_window_mean`` gives the bits of a plain ``fsum`` loop, or
    raises its error.  Its inputs are ``prepass``'s blocks, whose edges
    ``test_prepass.py`` covers."""

    @example(case=pinned_windows([-0.0] * 12, 1))
    @example(case=pinned_windows([-0.0] * 12, 10))
    @example(case=pinned_windows([0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 1.0, -1.0], 2))
    @example(case=pinned_windows([-0.0, 0.0, -0.0] * 4, 3))
    @example(case=pinned_windows([1.0, 2.0 ** -53], 2))
    @example(case=pinned_windows([1.0, -2.0 ** -54, 3.0, 2.0 ** -53, 1.0], 2))
    @example(case=pinned_windows([1.0, 2.0 ** -53, 2.0 ** -106], 3))
    @example(case=pinned_windows([1.0, 2.0 ** -53, -2.0 ** -106], 3))
    # near-ties where the float sum of the rounding errors is off by
    # enough to pick the other neighbour of the head
    @example(case=pinned_windows(hex_floats("0x1.8p+0 0x1.0000000000001p-54 "
                                            "0x1p-54 -0x1.fffffffffffffp-107"), 4))
    @example(case=pinned_windows(hex_floats("0x1.8p+0 -0x1p-53 "
                                            "-0x1.0000000000001p-107"), 3))
    # errors that sum to 54 bits, so their float sum is not exact
    @example(case=pinned_windows(hex_floats("0x1.0000000000001p+0 0x1p-54 "
                                            "0x1.fffffffffffffp-55"), 3))
    @example(case=pinned_windows([2.0 ** 53, 1.0, 1.0], 3))
    @example(case=pinned_windows([2.0 ** 53, 1.0, 1.0, 2.0 ** 53, 1.0], 2))
    @example(case=pinned_windows([TINY, 3 * TINY, -TINY, 2.0 ** -1022, TINY], 2))
    @example(case=pinned_windows([TINY] * 5 + [2.0 ** -1060] * 5, 3))
    @example(case=pinned_windows([1e300, 1.0, -1e300], 3))
    @example(case=pinned_windows([1e300, 1.0, -1e300, 1.0, 1e300], 3))
    @example(case=pinned_windows([1.0, HUGE, HUGE, -HUGE], 3))
    # samples below the largest float whose sums overflow, on both sides
    @example(case=pinned_windows([float.fromhex("0x1.fffffffffffffp+1022")] * 4, 3))
    @example(case=pinned_windows([float.fromhex("0x1.fp+1019")] * 301, 300))
    @example(case=pinned_windows([HUGE, 2.0 ** 969, 2.0 ** 969, -HUGE], 4))
    # finite heads and errors that sum exactly to half an ulp past the
    # largest float: the tie rounds to infinity, and fsum raises
    @example(case=pinned_windows([2.0 ** 1023, 2.0 ** 1022 + 2.0 ** 970,
                                  2.0 ** 1022 - 2.0 ** 971], 3))
    # the same with 18 samples below 2**1020 (heads are multiples of 2**971)
    @example(case=pinned_windows([2.0 ** 970] + [(2 ** 49 - 1) * 2.0 ** 971] * 8
                                 + [(2 ** 49 - 2) * 2.0 ** 971]
                                 + [(2 ** 49 - 1) * 2.0 ** 971] * 7 + [2.0 ** 975], 18))
    @example(case=pinned_windows([1.0, math.inf, -math.inf, 1.0], 2))
    @example(case=pinned_windows([1.0, 2.0, 3.0, math.nan, 5.0], 2))
    @given(case=window_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum_bits(self, case):
        values, n = case
        got = outcome(lambda v, k: fsum_window_mean(np.array(v, dtype=float), k)[0],
                      values, n)
        assert got == outcome(fsum_oracle, values, n)

    def test_counts_the_windows_fsum_sums(self):
        # a near-tie whose errors do not sum exactly, a window of -0.0 and
        # one holding a sample too large for the arrays; the tie of the
        # second window has exact errors, so round-to-even decides it
        values = [1.0, 2.0 ** -53, 2.0 ** -106, -0.0, -0.0, -0.0, 2.0, HUGE]
        mean, resummed = fsum_window_mean(values, 3)
        assert resummed == 3
        assert outcome(lambda v, k: mean, values, 3) == outcome(fsum_oracle, values, 3)
        assert fsum_window_mean(np.arange(100.0), 10)[1] == 0

    def test_rejects_an_empty_window(self):
        with pytest.raises(ValueError, match="at least one sample"):
            fsum_window_mean(np.ones(3), 0)

    @given(n=st.sampled_from([2, 3, 10, 300]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_samples_within_the_proven_range_need_no_fsum(self, n, data):
        # largest nonzero sample below 2**52 / n**2 times the smallest:
        # the rounding errors sum exactly, so no window goes to fsum
        # (samples too large for the arrays do; see test_matches_fsum_bits)
        lo = data.draw(st.floats(1e-300, 1e250))
        size = st.floats(lo, lo * 2.0 ** 52 / n ** 2 / 1.001)
        sample = st.one_of(size, size.map(lambda v: -v), st.just(0.0))
        values = data.draw(st.lists(sample, min_size=n, max_size=n + 40))
        mean, resummed = fsum_window_mean(values, n)
        assert resummed == 0
        assert outcome(lambda v, k: mean, values, n) == outcome(fsum_oracle, values, n)
