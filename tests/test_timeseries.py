"""Tests for profile ingestion, resampling and alignment."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvems.timeseries import (PowerSeries, ProfileError, ResampleMethod,
                              ResamplePolicy, align, load_power_csv, resample,
                              trapezoid_energy_wh, write_power_csv)

T0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
HOLD = ResamplePolicy(ResampleMethod.HOLD)
LINEAR = ResamplePolicy(ResampleMethod.LINEAR)


def make_csv(tmp_path, text, name="profile.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestPowerSeries:
    def test_derived_timestamps(self):
        s = PowerSeries(T0, 2.0, np.array([1.0, 2.0, 3.0]))
        assert s.end == T0 + timedelta(seconds=4)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ProfileError, match="step"):
            PowerSeries(T0, 0.0, np.array([1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ProfileError, match="non-finite"):
            PowerSeries(T0, 2.0, np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ProfileError):
            PowerSeries(T0, 2.0, np.array([]))

    def test_values_are_immutable(self):
        s = PowerSeries(T0, 2.0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestLoadPowerCsv:
    def test_identity_ingestion(self, tmp_path):
        path = make_csv(tmp_path, "2018-01-01T00:00:00Z,1000\n"
                                  "2018-01-01T00:00:02Z,1000\n")
        s = load_power_csv(path)
        assert s.step_s == 2.0
        assert list(s.values) == [1000.0, 1000.0]
        assert s.start == T0

    def test_step_inference_quarter_hour(self, tmp_path):
        rows = "".join(f"2018-01-01T{h:02d}:{m:02d}:00Z,250\n"
                       for h, m in [(0, 0), (0, 15), (0, 30), (0, 45)])
        s = load_power_csv(make_csv(tmp_path, rows))
        assert s.step_s == 900.0
        assert len(s) == 4

    def test_nan_row_reports_line(self, tmp_path):
        path = make_csv(tmp_path, "2018-01-01T00:00:00Z,1000\n"
                                  "2018-01-01T00:00:02Z,NaN\n")
        with pytest.raises(ProfileError, match="line 2"):
            load_power_csv(path)

    def test_kw_conversion(self, tmp_path):
        path = make_csv(tmp_path, "0,1.5\n2,2.5\n")
        s = load_power_csv(path, expected_unit="kW")
        assert list(s.values) == [1500.0, 2500.0]

    def test_epoch_timestamps(self, tmp_path):
        t0 = int(T0.timestamp())
        path = make_csv(tmp_path, f"{t0},10\n{t0 + 60},20\n")
        s = load_power_csv(path)
        assert s.start == T0
        assert s.step_s == 60.0

    def test_header_is_optional(self, tmp_path):
        path = make_csv(tmp_path, "timestamp,power\n"
                                  "2018-01-01T00:00:00Z,5\n"
                                  "2018-01-01T00:00:02Z,6\n")
        assert list(load_power_csv(path).values) == [5.0, 6.0]

    def test_empty_file(self, tmp_path):
        with pytest.raises(ProfileError, match="empty"):
            load_power_csv(make_csv(tmp_path, ""))

    def test_single_row(self, tmp_path):
        with pytest.raises(ProfileError, match="two rows"):
            load_power_csv(make_csv(tmp_path, "2018-01-01T00:00:00Z,1\n"))

    def test_non_monotonic(self, tmp_path):
        path = make_csv(tmp_path, "2018-01-01T00:00:02Z,1\n"
                                  "2018-01-01T00:00:00Z,2\n")
        with pytest.raises(ProfileError, match="increasing"):
            load_power_csv(path)

    def test_irregular_step(self, tmp_path):
        path = make_csv(tmp_path, "2018-01-01T00:00:00Z,1\n"
                                  "2018-01-01T00:00:02Z,2\n"
                                  "2018-01-01T00:00:05Z,3\n")
        with pytest.raises(ProfileError, match="line 3"):
            load_power_csv(path)

    @pytest.mark.parametrize("bad_stamp, message", [
        ("2018-01-01T00:00:05Z", "irregular step"),
        ("2018-01-01T00:00:02Z", "timestamps not strictly increasing"),
    ])
    def test_step_errors_count_blank_lines(self, tmp_path, bad_stamp, message):
        # the bad row is physical line 6, after two blank lines
        path = make_csv(tmp_path, "timestamp,power\n"
                                  "2018-01-01T00:00:00Z,1\n"
                                  "\n"
                                  "2018-01-01T00:00:02Z,2\n"
                                  "\n"
                                  f"{bad_stamp},3\n")
        with pytest.raises(ProfileError, match=f"line 6: {message}"):
            load_power_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProfileError, match="nope.csv"):
            load_power_csv(tmp_path / "nope.csv")

    def test_bad_unit(self, tmp_path):
        path = make_csv(tmp_path, "0,1\n2,2\n")
        with pytest.raises(ProfileError, match="expected_unit"):
            load_power_csv(path, expected_unit="MW")

    def test_named_column(self, tmp_path):
        path = make_csv(tmp_path, "timestamp,a,b\n0,1,10\n2,2,20\n")
        assert list(load_power_csv(path, column="b").values) == [10.0, 20.0]


class TestResample:
    def test_constant_hold(self):
        s = PowerSeries(T0, 900.0, np.full(4, 500.0))
        out = resample(s, 2.0, HOLD)
        assert out.step_s == 2.0
        assert np.all(out.values == 500.0)
        assert len(out) == 3 * 450 + 1

    def test_linear_midpoint(self):
        s = PowerSeries(T0, 900.0, np.array([0.0, 900.0]))
        out = resample(s, 450.0, LINEAR)
        assert list(out.values) == [0.0, 450.0, 900.0]

    def test_identity(self):
        s = PowerSeries(T0, 2.0, np.array([1.0, 5.0, 2.0]))
        assert resample(s, 2.0, HOLD) is s

    def test_hold_preserves_original_samples(self):
        rng = np.random.default_rng(42)
        s = PowerSeries(T0, 10.0, rng.uniform(0, 5000, 50))
        out = resample(s, 2.0, HOLD)
        assert np.array_equal(out.values[::5], s.values)

    def test_gap_limit_refused(self):
        s = PowerSeries(T0, 7200.0, np.array([1.0, 2.0]))
        with pytest.raises(ProfileError, match="gap"):
            resample(s, 2.0, ResamplePolicy(ResampleMethod.HOLD, gap_limit_s=3600.0))

    def test_gap_limit_below_target(self):
        s = PowerSeries(T0, 900.0, np.array([1.0, 2.0]))
        with pytest.raises(ProfileError, match="gap_limit"):
            resample(s, 60.0, ResamplePolicy(ResampleMethod.HOLD, gap_limit_s=30.0))

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.sampled_from([ResampleMethod.HOLD, ResampleMethod.LINEAR]))
    @settings(max_examples=25, deadline=None)
    def test_constant_invariance(self, level, method):
        s = PowerSeries(T0, 900.0, np.full(5, level))
        out = resample(s, 100.0, ResamplePolicy(method))
        assert np.allclose(out.values, level, atol=1e-9)

    def test_linear_energy_preserved_on_refinement(self):
        rng = np.random.default_rng(7)
        s = PowerSeries(T0, 900.0, rng.uniform(0, 6000, 96))
        out = resample(s, 90.0, LINEAR)
        e_src = trapezoid_energy_wh(s)
        e_out = trapezoid_energy_wh(out)
        assert abs(e_out - e_src) / e_src < 1e-3


class TestAlign:
    def test_identical_series(self):
        s = PowerSeries(T0, 2.0, np.array([1.0, 2.0, 3.0]))
        a, b = align(s, s)
        assert np.array_equal(a.values, s.values)
        assert np.array_equal(b.values, s.values)
        assert a.start == b.start == s.start

    def test_pv_day_vs_load_two_days(self):
        # PV at 2 s over day 1, load at 15 min over days 1-2: the result
        # is both at 2 s spanning exactly day 1.
        pv = PowerSeries(T0, 2.0, np.arange(43200, dtype=float))
        load = PowerSeries(T0, 900.0, np.arange(192, dtype=float))
        pv_a, load_a = align(pv, load)
        assert pv_a.step_s == load_a.step_s == 2.0
        assert pv_a.start == load_a.start == T0
        assert len(pv_a) == len(load_a) == 43200
        assert pv_a.end == pv.end
        assert np.array_equal(pv_a.values, pv.values)
        # hold: each aligned load value is the covering 15-min sample
        assert load_a.values[0] == 0.0
        assert load_a.values[449] == 0.0
        assert load_a.values[450] == 1.0

    def test_disjoint_spans(self):
        a = PowerSeries(T0, 2.0, np.array([1.0, 2.0]))
        b = PowerSeries(T0 + timedelta(hours=1), 2.0, np.array([1.0, 2.0]))
        with pytest.raises(ProfileError, match="overlap"):
            align(a, b)

    def test_idempotent(self):
        pv = PowerSeries(T0, 2.0, np.arange(100, dtype=float))
        load = PowerSeries(T0 - timedelta(seconds=30), 15.0, np.arange(20, dtype=float))
        a1, b1 = align(pv, load)
        a2, b2 = align(a1, b1)
        assert a1.start == a2.start and b1.start == b2.start
        assert np.array_equal(a1.values, a2.values)
        assert np.array_equal(b1.values, b2.values)

    def test_offset_coarse_grid(self):
        # coarse series whose start is not on the fine grid
        pv = PowerSeries(T0, 2.0, np.arange(10, dtype=float))
        load = PowerSeries(T0 + timedelta(seconds=3), 4.0, np.array([10.0, 20.0, 30.0]))
        pv_a, load_a = align(pv, load)
        assert pv_a.start == T0 + timedelta(seconds=4)
        assert len(pv_a) == len(load_a)
        assert load_a.values[0] == 10.0  # held from the 00:00:03 sample


class TestCsvRoundTrip:
    def test_write_then_load(self, tmp_path):
        rng = np.random.default_rng(3)
        s = PowerSeries(T0, 2.0, rng.uniform(-100, 6740, 500))
        path = tmp_path / "rt.csv"
        write_power_csv(s, path)
        back = load_power_csv(path)
        assert back.start == s.start
        assert back.step_s == s.step_s
        assert np.array_equal(back.values, s.values)
