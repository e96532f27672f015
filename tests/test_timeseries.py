"""Tests for profile ingestion, resampling and alignment."""

import csv
import logging
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvems import timeseries
from pvems.timeseries import (PowerSeries, ProfileError, ResampleMethod, align,
                              load_power_csv, resample, write_grid_csv,
                              write_power_csv)
from reference import format_utc, format_utc_grid

T0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
HOLD, LINEAR = ResampleMethod.HOLD, ResampleMethod.LINEAR
# what write_grid_csv says of a grid whose stamps would not read back
REFUSED_GRID = "the step must be positive and the points within years 1-9999"


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

    def test_epoch_beyond_time_t_is_a_bad_timestamp(self, tmp_path):
        path = make_csv(tmp_path, "0,1\n2,2\n99999999999999999999,3\n")
        with pytest.raises(ProfileError, match="line 3: bad timestamp "
                                               "'99999999999999999999'"):
            load_power_csv(path)

    def test_header_is_optional(self, tmp_path):
        path = make_csv(tmp_path, "timestamp,power\n"
                                  "2018-01-01T00:00:00Z,5\n"
                                  "2018-01-01T00:00:02Z,6\n")
        assert list(load_power_csv(path).values) == [5.0, 6.0]

    @pytest.mark.parametrize("first_row", ["2018-13-01T00:00:00Z,1",
                                           "yesterday,5", "x,-0.5,7"])
    def test_bad_first_row_is_not_taken_for_a_header(self, tmp_path,
                                                     first_row):
        path = make_csv(tmp_path, f"{first_row}\n"
                                  "2018-01-01T00:00:02Z,2\n"
                                  "2018-01-01T00:00:04Z,3\n")
        stamp = first_row.split(",")[0]
        with pytest.raises(ProfileError, match=f"line 1: bad timestamp '{stamp}'"):
            load_power_csv(path)

    # whatever the header names, the power is the second column
    @pytest.mark.parametrize("header", [
        "timestamp,power", "timestamp,other,power", "timestamp",
        "timestamp,p_pv,p_load,p_batt_cmd,p_batt_actual,p_grid,soc,mode,rr,"
        "rr_violated",
    ])
    def test_header_rows(self, tmp_path, header):
        n_cols = max(2, header.count(",") + 1)
        cells = ",".join(str(5 + c) for c in range(n_cols - 1))
        path = make_csv(tmp_path, f"{header}\n"
                                  f"2018-01-01T00:00:00Z,{cells}\n"
                                  f"2018-01-01T00:00:02Z,{cells}\n")
        s = load_power_csv(path)
        assert s.start == T0 and list(s.values) == [5.0, 5.0]

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

    def test_steps_over_an_hour(self):
        # a 2 h source onto 2 s ticks, and onto a 2 h target from 2 s
        s = PowerSeries(T0, 7200.0, np.array([1.0, 2.0]))
        assert list(resample(s, 2.0).values) == [1.0] * 3600 + [2.0]
        fine = PowerSeries(T0, 2.0, np.arange(3601, dtype=float))
        assert list(resample(fine, 7200.0).values) == [0.0, 3600.0]

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.sampled_from([ResampleMethod.HOLD, ResampleMethod.LINEAR]))
    @settings(max_examples=25, deadline=None)
    def test_constant_invariance(self, level, method):
        s = PowerSeries(T0, 900.0, np.full(5, level))
        out = resample(s, 100.0, method)
        assert np.allclose(out.values, level, atol=1e-9)

    def test_linear_energy_preserved_on_refinement(self):
        rng = np.random.default_rng(7)
        s = PowerSeries(T0, 900.0, rng.uniform(0, 6000, 96))
        out = resample(s, 90.0, LINEAR)
        e_src = np.trapezoid(s.values, dx=s.step_s)
        e_out = np.trapezoid(out.values, dx=out.step_s)
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

    def test_second_series_goes_onto_the_first_ones_grid(self):
        # a 2 s load onto 4 s PV ticks: the load held at each tick
        pv = PowerSeries(T0, 4.0, np.arange(5, dtype=float))
        load = PowerSeries(T0, 2.0, np.arange(100, 110, dtype=float))
        pv_a, load_a = align(pv, load)
        assert pv_a.step_s == load_a.step_s == 4.0
        assert np.array_equal(pv_a.values, pv.values)
        assert np.array_equal(load_a.values, load.values[::2][:5])
        # with the load first, the PV goes onto the load's 2 s grid
        load_b, pv_b = align(load, pv)
        assert load_b.step_s == pv_b.step_s == 2.0
        assert np.array_equal(load_b.values, load.values[:9])
        assert np.array_equal(pv_b.values, np.repeat(pv.values, 2)[:9])

    def test_offset_coarse_grid(self):
        # coarse series whose start is not on the fine grid
        pv = PowerSeries(T0, 2.0, np.arange(10, dtype=float))
        load = PowerSeries(T0 + timedelta(seconds=3), 4.0, np.array([10.0, 20.0, 30.0]))
        pv_a, load_a = align(pv, load)
        assert pv_a.start == T0 + timedelta(seconds=4)
        assert len(pv_a) == len(load_a)
        assert load_a.values[0] == 10.0  # held from the 00:00:03 sample

    def test_offsets_below_a_second_are_exact(self):
        # a 2 s grid from 00:00:01.3 takes the 0.1 s samples at 1.3 s and
        # 3.3 s; offsets between epoch floats held the ones before them
        fine = PowerSeries(T0, 0.1, np.arange(400, dtype=float))
        grid = PowerSeries(T0 + timedelta(seconds=1.3), 2.0, np.zeros(2))
        _, held = align(grid, fine)
        assert held.values.tolist() == [13.0, 33.0]

    @settings(max_examples=200, deadline=None)
    @given(steps=st.tuples(st.integers(1, 9_000), st.integers(1, 9_000)),
           offsets=st.tuples(st.integers(0, 100_000), st.integers(0, 100_000)),
           sizes=st.tuples(st.integers(1, 60), st.integers(1, 60)))
    def test_hold_matches_integer_microseconds(self, steps, offsets, sizes):
        # steps in tenths of a second, starts in whole milliseconds: the
        # grid's ticks and the samples held at them, in integer microseconds
        (ta, tb), (oa, ob), (na, nb) = steps, offsets, sizes
        a = PowerSeries(T0 + timedelta(milliseconds=oa), ta / 10,
                        np.arange(na, dtype=float))
        b = PowerSeries(T0 + timedelta(milliseconds=ob), tb / 10,
                        np.arange(nb, dtype=float))
        a_us, b_us, rel = ta * 100_000, tb * 100_000, (ob - oa) * 1_000
        k0 = max(-(-rel // a_us), 0)
        k1 = min((rel + (nb - 1) * b_us) // a_us, na - 1)
        if k1 < k0:
            with pytest.raises(ProfileError, match="overlap"):
                align(a, b)
            return
        a_aligned, held = align(a, b)
        ticks = range(k0, k1 + 1)
        assert a_aligned.start == held.start == a.start + timedelta(
            microseconds=k0 * a_us)
        assert a_aligned.values.tolist() == list(ticks)
        assert held.values.tolist() == [(k * a_us - rel) // b_us for k in ticks]

    @pytest.mark.xfail(strict=True, reason="the hold's 1e-9 tolerance is "
                       "relative to the source step: 3.6 us on an hourly series")
    def test_tick_just_before_an_hourly_sample_holds_the_one_before(self):
        hourly = PowerSeries(T0, 3_600.0, np.arange(3, dtype=float))
        grid = PowerSeries(T0 + timedelta(hours=1, microseconds=-1), 2.0,
                           np.zeros(3))
        _, held = align(grid, hourly)
        assert held.values[0] == 0.0


FINITE = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324,
                                    1.7976931348623157e308,
                                    -1.7976931348623157e308,
                                    2.2250738585072014e-308]),
                   st.floats(allow_nan=False, allow_infinity=False))
# NaNs of both signs, quiet and signalling, with several payloads
NANS = st.sampled_from([0x7FF8000000000000, 0xFFF8000000000000,
                        0x7FF8000000000001, 0x7FF0000000000001,
                        0x7FFFFFFFFFFFFFFF]).map(
    lambda bits: np.array([bits], dtype=np.uint64).view(np.float64)[0])
# write_grid_csv's block size; runs cross the boundaries of small blocks
BLOCK_ROWS = st.sampled_from([1, 2, 3, 5, 16, 16_384])


def runs(values, max_runs=8):
    """Lists of runs of one value, each 1 to 40 cells long."""
    return st.lists(st.tuples(values, st.integers(1, 40)), min_size=1,
                    max_size=max_runs).map(
        lambda pairs: [v for v, k in pairs for _ in range(k)])


@st.composite
def grid_columns(draw):
    """Float columns, and one coded column, for ``write_grid_csv``: each
    float column is runs of values, or its left neighbour with a few
    cells changed."""
    cells = st.one_of(FINITE, NANS, st.sampled_from([0.0, -0.0]))
    first = draw(runs(cells))
    n = len(first)
    columns = {"a": np.array(first)}
    for name in ("b", "code", "c", "d"):
        if name == "code":
            columns[name] = np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                                   max_size=n)), dtype=np.uint8)
            continue
        left = list(columns)[-1]
        if columns[left].dtype == np.float64 and draw(st.booleans()):
            col = columns[left].copy()
            for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                col[k] = draw(cells)
        else:
            col = np.resize(np.array(draw(runs(cells))), n)
        columns[name] = col
    return columns


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

    @staticmethod
    def write_row_by_row(series, path):
        """The per-row reference of ``write_power_csv``."""
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "power"])
            ts, delta = series.start, timedelta(seconds=series.step_s)
            for value in series.values:
                writer.writerow([format_utc(ts), repr(float(value))])
                ts += delta

    @given(st.datetimes(min_value=datetime(1970, 1, 1),
                        max_value=datetime(2100, 1, 1)),
           st.one_of(st.sampled_from([2.0, 900.0, 0.5, 0.25, 1e-3, 1e-6, 1 / 3]),
                     st.floats(1e-6, 86_400.0)),
           st.one_of(st.lists(FINITE, min_size=1, max_size=60),
                     runs(FINITE)),
           BLOCK_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_matches_row_by_row_writer(self, tmp_path_factory, start, step_s,
                                       values, block_rows):
        s = PowerSeries(start.replace(tzinfo=timezone.utc), step_s,
                        np.array(values))
        out = tmp_path_factory.mktemp("write")
        with mock.patch.object(timeseries, "_WRITE_BLOCK_ROWS", block_rows):
            write_power_csv(s, out / "block.csv")
        self.write_row_by_row(s, out / "rows.csv")
        assert (out / "block.csv").read_bytes() == (out / "rows.csv").read_bytes()

    # the second point is 10000-01-01T00:00:00, which datetime cannot hold
    @pytest.mark.parametrize("start, step", [
        (datetime(9999, 12, 31, 23, 59, 58), timedelta(seconds=2)),
        (datetime(2018, 1, 1), timedelta(0)),
        (datetime(2018, 1, 1), timedelta(seconds=-2))],
        ids=["past_9999", "zero_step", "negative_step"])
    def test_grid_that_does_not_read_back_is_refused(self, tmp_path, start, step):
        start = start.replace(tzinfo=timezone.utc)
        with pytest.raises(ValueError, match=REFUSED_GRID):
            write_grid_csv(tmp_path / "grid.csv", start, step, {"power": np.zeros(2)})
        assert not (tmp_path / "grid.csv").exists()

    # a step under half a microsecond is a zero timedelta; one of 1e13 s
    # is over 2**63 us
    @pytest.mark.parametrize("start, step_s", [
        (datetime(9999, 12, 31, 23, 59, 58), 2.0), (datetime(2018, 1, 1), 1e-7),
        (datetime(2018, 1, 1), 1e13)],
        ids=["past_9999", "zero_step", "huge_step"])
    def test_series_that_does_not_read_back_is_refused(self, tmp_path, start, step_s):
        s = PowerSeries(start.replace(tzinfo=timezone.utc), step_s, np.zeros(2))
        with pytest.raises(ValueError, match=REFUSED_GRID):
            write_power_csv(s, tmp_path / "pv.csv")
        assert not (tmp_path / "pv.csv").exists()

    def test_one_point_needs_no_step(self, tmp_path):
        # OverflowError before: the stamps were the point times a step
        # of 1e19 us, over int64
        write_power_csv(PowerSeries(T0, 1e13, np.array([1.0])), tmp_path / "one.csv")
        assert (tmp_path / "one.csv").read_bytes() == \
            b"timestamp,power\r\n2018-01-01T00:00:00Z,1.0\r\n"

    @pytest.mark.parametrize("step_s", [2.0, 0.5, 7.0])
    def test_last_hours_of_year_9999_round_trip(self, tmp_path, step_s):
        end = datetime.max.replace(microsecond=0, tzinfo=timezone.utc)
        n = int(3 * 3600 / step_s)
        s = PowerSeries(end - timedelta(seconds=step_s * (n - 1)), step_s,
                        np.arange(n, dtype=float))
        write_power_csv(s, tmp_path / "pv.csv")
        back = load_power_csv(tmp_path / "pv.csv")
        assert (back.start, back.step_s, back.end) == (s.start, step_s, end)
        assert np.array_equal(back.values, s.values)

    def test_reader_and_writer_share_one_tile(self, tmp_path):
        timeseries._hour_tile.cache_clear()
        s = PowerSeries(T0 + timedelta(seconds=1), 2.0, np.arange(5_000, dtype=float))
        write_power_csv(s, tmp_path / "pv.csv")
        assert np.array_equal(load_power_csv(tmp_path / "pv.csv").values, s.values)
        assert timeseries._hour_tile.cache_info().currsize == 1

    def test_runs_across_the_real_block_boundary(self, tmp_path):
        # runs of 0.0, -0.0 and one value over the 16 384-row boundary
        values = np.r_[np.zeros(16_000), np.full(500, -0.0), np.full(400, 5.5),
                       np.zeros(3)]
        s = PowerSeries(T0, 2.0, values)
        write_power_csv(s, tmp_path / "block.csv")
        self.write_row_by_row(s, tmp_path / "rows.csv")
        assert (tmp_path / "block.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    @staticmethod
    def write_grid_row_by_row(path, start, step, columns, labels):
        """The per-row reference of ``write_grid_csv``."""
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", *columns])
            for k in range(len(next(iter(columns.values())))):
                writer.writerow([format_utc(start + k * step)]
                                + [labels[name][col[k]] if name in labels
                                   else repr(float(col[k]))
                                   for name, col in columns.items()])

    @given(grid_columns(), BLOCK_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_grid_matches_row_by_row_writer(self, tmp_path_factory, columns,
                                            block_rows):
        labels = {"code": ("off", "on", "idle")}
        out = tmp_path_factory.mktemp("grid")
        with mock.patch.object(timeseries, "_WRITE_BLOCK_ROWS", block_rows):
            timeseries.write_grid_csv(out / "block.csv", T0, timedelta(seconds=2),
                                      columns, labels=labels)
        self.write_grid_row_by_row(out / "rows.csv", T0, timedelta(seconds=2),
                                   columns, labels)
        assert (out / "block.csv").read_bytes() == (out / "rows.csv").read_bytes()

    @pytest.mark.parametrize("block_rows", [3, 16_384])
    def test_labels_of_very_different_lengths(self, tmp_path, block_rows):
        # a label 60 bytes longer than another: copied as a window of the
        # longest, the shorter would reach past the next row's stamp, so
        # the column is copied one label length at a time
        n = 40
        labels = {"code": ("a", "b" * 61, "")}
        columns = {"x": np.linspace(-2.0, 3.0, n), "code": np.arange(n) % 3,
                   "y": np.arange(n) * 1e-5}
        with mock.patch.object(timeseries, "_WRITE_BLOCK_ROWS", block_rows):
            timeseries.write_grid_csv(tmp_path / "block.csv", T0, timedelta(seconds=2),
                                      columns, labels=labels)
        self.write_grid_row_by_row(tmp_path / "rows.csv", T0, timedelta(seconds=2),
                                   columns, labels)
        assert (tmp_path / "block.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    def test_formats_each_run_once_and_reuses_the_left_column(self, tmp_path,
                                                              caplog):
        n = 1_000
        cmd = np.repeat([0.0, -0.0, 2.5, 0.0], n // 4)
        actual = cmd.copy()
        actual[[10, 400]] = [1.0, 0.0]  # 0.0 under -0.0: its own text
        nan = np.array([0x7FF8000000000000, 0x7FF8000000000001],
                       dtype=np.uint64).view(np.float64)
        columns = {"cmd": cmd, "actual": actual, "nan": np.repeat(nan, n // 2)}
        with caplog.at_level("INFO", logger="pvems.timeseries"):
            timeseries.write_grid_csv(tmp_path / "t.csv", T0,
                                      timedelta(seconds=2), columns)
        # cmd: 4 runs; actual: 1.0 at row 10 and 0.0 under -0.0 at row
        # 400, its other run heads sit on equal cmd cells; nan: 2 payloads
        assert caplog.messages == [
            f"wrote t.csv rows {n} formatted {4 + 2 + 2} of {3 * n} float cells"]
        self.write_grid_row_by_row(tmp_path / "rows.csv", T0,
                                   timedelta(seconds=2), columns, {})
        assert (tmp_path / "t.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()



def signed(values):
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


# decimals of 1 to 17 significant digits, leading digit at 10**-6 .. 10**17
DECIMALS = signed(st.integers(1, 17).flatmap(
    lambda n: st.tuples(st.integers(10 ** (n - 1), 10 ** n - 1),
                        st.integers(-6, 17)).map(
        lambda d: float(f"{d[0]}e{d[1] - n + 1}"))))


def nudged(value, steps):
    """The double ``steps`` ulps away from the positive double ``value``."""
    return float((np.array([value]).view(np.int64) + steps).view(np.float64)[0])


def neighbours(base):
    """Doubles up to 40 ulps either side of a positive double."""
    return st.tuples(base, st.integers(-40, 40)).map(lambda b: nudged(*b))


# powers of ten, 2**53 at each decimal scale, and powers of two (whose
# rounding interval is narrower below than above), at 10**-6 .. 10**17
BOUNDARIES = signed(neighbours(st.one_of(
    st.integers(-6, 17).map(lambda k: float(f"1e{k}")),
    st.integers(-21, 2).map(lambda k: float(f"{2 ** 53}e{k}")),
    st.integers(-20, 56).map(lambda k: 2.0 ** k))))


# decimals of 1 to 17 significant digits, leading digit at 10**-330 ..
# 10**308: the exponent form, subnormals and underflow to zero among them
EXPONENT_FORM = signed(st.integers(1, 17).flatmap(
    lambda n: st.tuples(st.integers(10 ** (n - 1), 10 ** n - 1),
                        st.integers(-330, 308)).map(
        lambda d: float(f"{d[0]}e{d[1] - n + 1}"))))
# k + 1/4 and k + 3/4 for integers k in [1e15, 2**51), exact there (the
# ulp is at most 1/4): 18 significant digits ending in 25 or 75, ties
# between two 17-digit decimals that repr breaks towards the even one
QUARTER_TIES = signed(st.integers(10 ** 15, 2 ** 51 - 1).flatmap(
    lambda k: st.sampled_from([k + 0.25, k + 0.75])))


def binade_edges():
    """Every biased exponent's least and greatest significands and some
    between, the neighbours of every power of ten a double reaches, and
    every power of two, of both signs."""
    exponents = np.arange(0, 2047, dtype=np.uint64) << np.uint64(52)
    significands = np.array([0, 1, 2, 3, 1 << 51, (1 << 52) - 2, (1 << 52) - 1],
                            dtype=np.uint64)
    edges = (exponents[:, None] + significands).ravel().view(np.float64)
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = (powers_of_ten.view(np.int64)[:, None] + np.arange(-3, 4)).ravel()
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([edges, near.view(np.float64), powers_of_two])
    return np.concatenate([values, -values])


class TestFormatFloats:
    """``_format_floats`` writes ``repr``'s bytes for every float64."""

    @staticmethod
    def check(values, lead=b""):
        """Check the texts and lengths against ``repr``."""
        values = np.array(values, dtype=np.float64)
        texts, lens = timeseries._format_floats(values, lead)
        assert texts.dtype == np.dtype("S32") and len(lens) == len(values)
        assert [text[:k] for text, k in zip(texts.tolist(), lens.tolist())] == \
            [lead + repr(v).encode() for v in values.tolist()]

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_bit_patterns(self, patterns):
        self.check(np.array(patterns, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.integers(1, 2 ** 52 - 1), min_size=1, max_size=64),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_subnormals(self, patterns, negative):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        self.check(-values if negative else values)

    @given(st.lists(DECIMALS, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decimals(self, values):
        self.check(values)

    @given(st.lists(EXPONENT_FORM, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_exponent_form_decimals(self, values):
        self.check(values, b",")

    @given(st.lists(BOUNDARIES, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_neighbours_of_powers_of_ten_and_two(self, values):
        self.check(values)

    @given(st.lists(QUARTER_TIES, min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_ties(self, values):
        self.check(values)

    def test_pinned_ties(self):
        ties = [1e15 + 0.25, 1e15 + 0.75, 2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75,
                2.0 ** 51 - 0.25, 1234567890123456.25, 1999999999999999.75]
        self.check(ties + [-v for v in ties])
        assert [repr(v) for v in ties[:2]] == ["1000000000000000.2",
                                                "1000000000000000.8"]

    def test_binade_edges(self):
        self.check(binade_edges(), b",-")

    def test_special_values_and_extremes(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000001],
                        dtype=np.uint64).view(np.float64)
        fixed = [0.0, -0.0, np.inf, -np.inf, *nans]
        extremes = [5e-324, -5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308]
        # mixed with in-range cells, under the suite's error::RuntimeWarning
        self.check(fixed + extremes + [1.5, -2.5e-4])

    def test_positional_texts_and_the_ends_of_their_range(self):
        # positional texts of 1 to 17 digits, both ends of the range,
        # powers of two and of ten, and 2**53 and its neighbours
        positional = [1.5, 0.1, 1e-4, 9999999999999998.0, 1e15, 0.3, 2.0 ** 53,
                      2.0 ** 53 + 2, 2.0 ** -13, 123456789.12345679, -0.00012345,
                      1 / 3, 6740.0, 9007199254740993e-16]
        self.check(positional)
        # 1e15 + 0.25 is 10000000000000002.5 units of its 17th digit: a tie
        self.check([1e15 + 0.25, 1e-5, 1e16])

    def test_powers_of_two_and_empty_input(self):
        # the rounding interval of a power of two is narrower below
        powers = [2.0 ** k for k in range(-13, 54)]  # 1.2e-4 .. 9.0e15
        self.check(powers + [-v for v in powers])
        self.check([])

    @pytest.mark.parametrize("batch", [1, 3, 4_096])
    def test_batches(self, batch):
        values = binade_edges()[::7]
        with mock.patch.object(timeseries, "_FORMAT_BATCH", batch):
            self.check(values, b",")

    @staticmethod
    def check_round_to_odd(g, cb, power2, h):
        """Check ``_round_to_odd`` against Schubfach's ``rop`` on Python
        integers."""
        M63 = 2 ** 63 - 1

        def rop(g, cp):
            x1 = (g & M63) * cp >> 64
            y = (g >> 63) * cp
            z = ((y & (2 ** 64 - 1)) >> 1) + x1
            return (y >> 64) + (z >> 63) | ((z & M63) + M63) >> 63

        outs = timeseries._round_to_odd(g, cb, power2, h)
        for row, c, p, shift, *got in zip(g.tolist(), cb.tolist(), power2.tolist(),
                                          h.tolist(), *(o.tolist() for o in outs)):
            g_int = ((row[0] << 32 | row[1]) << 63) | (row[2] << 32 | row[3])
            assert got == [rop(g_int, (c - 2 + p) << shift), rop(g_int, c << shift),
                           rop(g_int, (c + 2) << shift)]

    def check_formatting_round_to_odd(self, values):
        """Check each ``_round_to_odd`` that formatting ``values`` makes."""
        with mock.patch.object(timeseries, "_round_to_odd",
                               side_effect=timeseries._round_to_odd) as spy:
            timeseries._format_floats(values)
        assert spy.call_args_list
        for call in spy.call_args_list:
            self.check_round_to_odd(*call.args)

    def test_round_to_odd_carries_and_borrows(self):
        # halves of g at 2**32 +- 1 times cp = 2**32 lie 2**32 from 2**64,
        # so the products of the outer cp cross it
        halves = [0, 2 ** 32 - 1, 2 ** 32 + 1]
        rows = [(g1 >> 32, g1 & 0xFFFF_FFFF, g0 >> 32, g0 & 0xFFFF_FFFF)
                for g1 in halves for g0 in halves for _ in range(2)]
        n = len(rows)
        self.check_round_to_odd(np.array(rows, dtype=np.uint64),
                                np.full(n, 2 ** 30, dtype=np.uint64),
                                np.arange(n) % 2 == 1, np.full(n, 2, dtype=np.uint64))

    def test_round_to_odd_on_binade_edges(self):
        self.check_formatting_round_to_odd(binade_edges())

    # the finite positive doubles: _exact_digits takes no other
    @given(st.lists(st.integers(1, 0x7FEF_FFFF_FFFF_FFFF), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_round_to_odd_on_bit_patterns(self, patterns):
        self.check_formatting_round_to_odd(
            np.array(patterns, dtype=np.uint64).view(np.float64))

    def test_exact_path_tables(self):
        # k = floor(log10(2**q)), or of 3/4 * 2**q, from the integer
        # formula, for every binary exponent q of a significand
        def floor_log10(x):
            k = len(str(x.numerator)) - len(str(x.denominator))
            return k - (Fraction(10) ** k > x)
        for q in range(-1074, 972):
            for power2, scale in ((False, 1), (True, Fraction(3, 4))):
                k = (q * 661_971_961_083 - power2 * 274_743_187_321) >> 41
                assert k == floor_log10(scale * Fraction(2) ** q), (q, power2)
        # g, the 126 leading bits of 10**-k rounded up, and r + 127
        limbs, shift = timeseries._pow10_table()
        assert len(limbs) == timeseries._K_MAX - timeseries._K_MIN + 1
        for i, k in enumerate(range(timeseries._K_MIN, timeseries._K_MAX + 1)):
            high1, high0, low1, low0 = (int(x) for x in limbs[i])
            g = ((high1 << 32 | high0) << 63) | (low1 << 32 | low0)
            r = int(shift[i]) - 127
            assert 2 ** 125 < g <= 2 ** 126
            assert Fraction(g - 1) <= Fraction(10) ** -k / Fraction(2) ** r < g


def load_outcome(path, **kwargs):
    """What a load gives: the series' start, step and value bytes, or the error."""
    try:
        s = load_power_csv(path, **kwargs)
    except ProfileError as exc:
        return "error", str(exc)
    return s.start, s.step_s.hex(), s.values.tobytes()


def load_row_by_row(path, **kwargs):
    """The per-row reference: the grid path never accepts a line."""
    with mock.patch.object(timeseries, "_canonical_rows", return_value=(0, None)):
        return load_outcome(path, **kwargs)


# Row kinds of the differential test.  Most rows continue the grid in the
# canonical spelling; the others are the spellings and faults that the
# grid path must hand to the per-row code, and the lines that csv or a
# text-mode file splits otherwise than at their commas and LFs.  Faults
# are rarer than the other spellings, so that many files load.
ROW_KINDS = st.sampled_from(
    ["canonical"] * 40
    + ["blank", "whitespace", "epoch", "offset", "jitter", "underscore"] * 2
    + ["quoted_power", "quote_after", "nul_after", "spanning"] * 2
    + ["non_ascii", "fraction", "underscore_1_0", "space_power", "subnormal",
       "negative_zero", "digits_40"] * 2
    + ["duplicate", "decreasing", "irregular", "short", "inf", "nan",
       "bad_power", "bad_stamp", "long_line", "long_field", "split_row",
       "bom", "cr_inside", "infinity", "overflow", "quarter_second"])
# A trace CSV's header: load_power_csv reads its second column, p_pv.
WIDE_HEADER = ("timestamp,p_pv,p_load,p_batt_cmd,p_batt_actual,p_grid,soc,"
               "mode,rr,rr_violated")


@st.composite
def profile_csv(draw):
    """CSV text, ``load_power_csv`` keyword arguments and a block size."""
    step = draw(st.sampled_from([timedelta(seconds=2), timedelta(seconds=900),
                                 timedelta(seconds=1),
                                 timedelta(milliseconds=500)]))
    start = T0 + timedelta(seconds=draw(st.integers(0, 86_400)),
                           microseconds=draw(st.sampled_from([0, 0, 250_000])))
    header = draw(st.sampled_from(["none", "plain", "wide"]))
    kwargs = {"expected_unit": draw(st.sampled_from(["W", "kW"]))}
    lines = []
    if header == "plain":
        lines.append("timestamp,power")
    elif header == "wide":
        lines.append(WIDE_HEADER)
    limit = csv.field_size_limit()
    t = start
    for kind in draw(st.lists(ROW_KINDS, min_size=2, max_size=40)):
        power = repr(draw(st.floats(-1e4, 1e4, allow_nan=False)))
        stamp = format_utc(t)
        if kind == "blank":
            lines.append("")
            continue
        if kind == "whitespace":
            lines.append("  ,\t")
            continue
        if kind == "epoch":
            stamp = str(int(t.timestamp()))
        elif kind == "offset":
            stamp = t.astimezone(timezone(timedelta(hours=1))).isoformat()
        elif kind == "jitter":
            stamp = format_utc(t + timedelta(microseconds=1))
        elif kind == "duplicate":
            stamp = format_utc(t - step)
        elif kind == "decreasing":
            stamp = format_utc(t - 2 * step)
        elif kind == "irregular":
            stamp = format_utc(t + step / 2)
        elif kind == "bad_stamp":
            stamp = "2018-13-01T00:00:00Z"
        elif kind == "fraction":  # the same instant with its microseconds spelt
            stamp = t.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
        elif kind == "quarter_second":  # its first 19 characters on the grid
            stamp = format_utc(t + timedelta(milliseconds=250))
        elif kind == "bom":
            stamp = "\ufeff" + stamp
        power = {"inf": "inf", "nan": "nan", "underscore": "1_000",
                 "bad_power": "12 W", "quoted_power": '"5"',
                 "underscore_1_0": "1_0", "space_power": " 1.5",
                 "infinity": "infinity", "overflow": "1e400",
                 "subnormal": "5e-324", "negative_zero": "-0.0",
                 "digits_40": "1234567890" * 3 + ".123456789"}.get(kind, power)
        # cells after the power cell: csv reads a quote inside an unquoted
        # field, a NUL and non-ASCII text as text, a quoted line break as
        # part of a field, and refuses a field longer than its limit; a
        # text-mode file ends a line at a CR
        after = {"quote_after": 'a"b', "nul_after": "x\0y",
                 "spanning": '"two\nlines"', "long_line": "9" * (limit - 9),
                 "long_field": "9" * (limit + 1), "non_ascii": "k\u00e9 \u20ac",
                 "cr_inside": "a\rb"}.get(kind)
        if kind == "short":
            lines.append(stamp)
        elif kind == "split_row":
            # the next stamp as an extra cell, then a line of one cell:
            # split at every comma of both lines, they would look like
            # two grid rows
            lines += [f"{stamp},{power},{format_utc(t + step)}", "7"]
        elif header == "wide":
            cells = [power] + ["1.5"] * 8
            lines.append(",".join([stamp, *cells] + ([] if after is None else [after])))
        else:
            lines.append(f"{stamp},{power}" + ("" if after is None else f",{after}"))
        t += step
    # one line end for the file, or CR-only, or each line its own
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = (draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                          min_size=len(lines), max_size=len(lines)))
            if newline == "mixed" else [newline] * len(lines))
    # byte blocks that cut lines anywhere, then blocks of many lines
    block_bytes = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 30, 47, 64, 100,
                                        8_192]))
    return "".join(map(str.__add__, lines, ends)), kwargs, block_bytes


def grid_lines(n, cells=lambda k: f"{k}.5", start=0):
    """``n`` canonical 2 s grid rows from T0, the ``k``-th with ``cells(k)``."""
    return [f"{format_utc(T0 + timedelta(seconds=2 * k))},{cells(k)}"
            for k in range(start, start + n)]


def pinned(lines, kwargs=None, block_bytes=8_192, ends="\n"):
    """A ``profile_csv`` case from ``lines`` and one line end per line."""
    ends = ends if isinstance(ends, list) else [ends] * len(lines)
    return "".join(map(str.__add__, lines, ends)), kwargs or {}, block_bytes


LIMIT = csv.field_size_limit()
SECOND = timedelta(seconds=1)


class TestBlockIngest:
    """Block-wise grid checks load exactly what the per-row checks load."""

    # CR-only and mixed line ends: a block is cut after its last LF, or
    # after the last CR that cannot start a CRLF
    @example(case=pinned(["timestamp,power"] + grid_lines(20), ends="\r"))
    @example(case=pinned(["timestamp,power"] + grid_lines(20),
                         ends=["\r", "\n", "\r\n"] * 7))
    @example(case=pinned(grid_lines(12, lambda k: '"5"' if k == 7 else "5")))
    @example(case=pinned(["timestamp,power,note"]
                         + grid_lines(5, lambda k: f"{k},x")
                         + grid_lines(1, lambda k: '5,"two', start=5)
                         + ['lines"'] + grid_lines(8, lambda k: f"{k},y", start=6)))
    @example(case=pinned(grid_lines(12, lambda k: {7: "5,x\0y", 9: '5,a"b'}.get(k, "5"))))
    # a line one cell short, then a line whose power cell is its own stamp:
    # split at every comma of the block, their cells would line up as rows
    @example(case=pinned(grid_lines(8, lambda k: f"{k},n") + grid_lines(1, start=8)
                         + grid_lines(1, lambda k: f"{format_utc(T0 + 2 * k * SECOND)},5",
                                      start=9) + grid_lines(5, lambda k: f"{k},n", start=10)))
    # the power cell missing from a block's only line
    @example(case=pinned(["timestamp,power,other"] + grid_lines(3, lambda k: f"{k},x")
                         + [format_utc(T0 + 6 * SECOND)]
                         + grid_lines(2, lambda k: f"{k},x", start=4), block_bytes=1))
    @example(case=pinned(grid_lines(12, lambda k: "0" * LIMIT + "5"
                                    if k == 9 else "5")))
    @example(case=pinned(grid_lines(12, lambda k: "5," + "9" * (LIMIT + 1)
                                    if k == 9 else "5")))
    @example(case=pinned(grid_lines(12, lambda k: "5," + "9" * (LIMIT - 9)
                                    if k == 9 else "5")))
    # a power cell of numeric bytes that float refuses
    @example(case=pinned(grid_lines(12, lambda k: "1.2.3" if k == 7 else "5")))
    # a CR inside the first line after the step-fixing rows: a text-mode
    # file ends the line there, so the cell after it is a row of its own
    @example(case=pinned(grid_lines(2) + grid_lines(1, lambda k: "5,a\rb", start=2)
                         + grid_lines(3, start=3)))
    @example(case=pinned([WIDE_HEADER] + grid_lines(
        40, lambda k: ",".join(str(float(k + c)) for c in range(9))), block_bytes=8))
    # a quoted line break in the row that fixes the step, which csv reads
    # a line at a time before the first block
    @example(case=pinned(["timestamp,power,note"] + grid_lines(1, lambda k: "0.5,x")
                         + grid_lines(1, lambda k: '1.5,"two', start=1) + ['lines"']
                         + grid_lines(8, lambda k: f"{k}.5,y", start=2)))
    # a quoted power cell whose line break falls on a 1-byte block's cut:
    # csv reads its second line from the file, and the next block starts
    # on the canonical line after it
    @example(case=pinned(grid_lines(4) + grid_lines(1, lambda k: '"5', start=4) + ['"']
                         + grid_lines(6, start=5), block_bytes=1))
    @given(profile_csv())
    @settings(max_examples=400, deadline=None)
    def test_matches_row_by_row(self, tmp_path_factory, case):
        text, kwargs, block_bytes = case
        path = tmp_path_factory.mktemp("ingest") / "profile.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", block_bytes):
            assert load_outcome(path, **kwargs) == load_row_by_row(path, **kwargs)

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, 4, 8, 8_192])
    def test_quoted_line_break_is_one_record_at_any_block_size(self, tmp_path,
                                                               block_bytes):
        # a note cell with a quoted line break on every third row: each
        # record holds one power, wherever the blocks of bytes end
        rows = grid_lines(30, lambda k: f'{k}.5,"line\nbreak"' if k % 3 == 0
                          else f"{k}.5,plain")
        path = make_csv(tmp_path, "timestamp,power,note\n" + "\n".join(rows) + "\n")
        with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", block_bytes):
            s = load_power_csv(path)
        assert list(s.values) == [k + 0.5 for k in range(30)]

    @pytest.mark.parametrize("n_rows", [2, 3, 5, 6, 7, 8, 9, 13, 14, 15, 16,
                                        17, 21, 22, 23])
    @pytest.mark.parametrize("fault", ["none", "blank", "irregular", "nan"])
    def test_rows_around_block_boundaries(self, tmp_path, n_rows, fault):
        # rows of 25 or 26 bytes in blocks of 100 bytes (cut after their
        # last LF): blocks end inside rows and between them; the fault
        # sits on the last row
        rows = [f"{format_utc(T0 + timedelta(seconds=2 * k))},{k}.5"
                for k in range(n_rows)]
        rows[-1] = {"none": rows[-1], "blank": "",
                    "irregular": f"{format_utc(T0 + timedelta(seconds=2 * n_rows))},1",
                    "nan": rows[-1].split(",")[0] + ",nan"}[fault]
        path = make_csv(tmp_path, "timestamp,power\n" + "\n".join(rows) + "\n")
        with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", 100):
            assert load_outcome(path) == load_row_by_row(path)

    def test_jittered_quarter_hours_still_load(self, tmp_path):
        stamps = [T0 + timedelta(seconds=900 * k) for k in range(6)]
        stamps[3] += timedelta(microseconds=1)
        path = make_csv(tmp_path, "".join(f"{format_utc(t)},{k}\n"
                                          for k, t in enumerate(stamps)))
        s = load_power_csv(path)
        assert s.step_s == 900.0 and list(s.values) == [0, 1, 2, 3, 4, 5]
        assert load_outcome(path) == load_row_by_row(path)

    @pytest.mark.parametrize("block_bytes", [2, 3, 8_192])
    def test_oversized_field_is_a_profile_error(self, tmp_path, block_bytes):
        rows = ["timestamp,power", "2018-01-01T00:00:00Z,1",
                "2018-01-01T00:00:02Z,2", "2018-01-01T00:00:04Z,3",
                "2018-01-01T00:00:06Z," + "9" * 200_000]
        path = make_csv(tmp_path, "\n".join(rows) + "\n")
        with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", block_bytes):
            with pytest.raises(ProfileError, match=r"line 5: field larger than "
                                                   r"field limit"):
                load_power_csv(path)
            # a fault on an earlier row is reported first, as row by row
            rows[2] = "2018-01-01T00:00:02Z,x"
            path.write_text("\n".join(rows) + "\n")
            with pytest.raises(ProfileError, match="line 3: bad power value"):
                load_power_csv(path)

    @pytest.mark.parametrize("block_bytes", [2, 4, 8_192])
    def test_fault_in_the_rows_before_a_csv_error_comes_first(self, tmp_path,
                                                             block_bytes):
        # the oversized field on line 5 stops the csv records of whichever
        # block holds line 4, whose bad power must be reported
        rows = ["timestamp,power", "2018-01-01T00:00:00Z,1",
                "2018-01-01T00:00:02Z,2", "2018-01-01T00:00:04Z,x",
                "2018-01-01T00:00:06Z," + "9" * 200_000]
        path = make_csv(tmp_path, "\n".join(rows) + "\n")
        with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", block_bytes):
            with pytest.raises(ProfileError, match="line 4: bad power value"):
                load_power_csv(path)

    def test_oversized_header_is_a_profile_error(self, tmp_path):
        path = make_csv(tmp_path, "t" * 200_000 + ",power\n")
        with pytest.raises(ProfileError, match="line 1: field larger"):
            load_power_csv(path)

    # numpy writes years past 9999, and its text cut to 19 characters
    @pytest.mark.parametrize("stamp", ["10000-01-01T00:00:00Z",
                                       "10000-01-01T00:00:0Z"])
    def test_grid_past_year_9999_is_left_to_the_row_checks(self, tmp_path,
                                                            stamp):
        path = make_csv(tmp_path, "9999-12-31T23:59:56Z,1\n"
                                  f"9999-12-31T23:59:58Z,2\n{stamp},3\n")
        assert f"line 3: bad timestamp '{stamp}'" in load_outcome(path)[1]
        assert load_outcome(path) == load_row_by_row(path)

    @pytest.mark.parametrize("block_bytes", [4, 8_192])
    def test_text_that_is_not_utf8_is_refused(self, tmp_path, block_bytes):
        # an extra cell that is not UTF-8 on a line otherwise on the grid
        rows = grid_lines(6, lambda k: f"{k}.5,x")
        text = ("\n".join(rows) + "\n").encode().replace(b"4.5,x", b"4.5,\xff")
        path = tmp_path / "profile.csv"
        path.write_bytes(text)
        for load in (load_outcome, load_row_by_row):
            with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", block_bytes):
                assert load(path) == ("error", f"{path}: line 5: not UTF-8 text")

    def _csv_count(self, path, block_bytes, caplog):
        """The rows that csv read while loading ``path``, from the INFO log."""
        with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", block_bytes), \
                caplog.at_level(logging.INFO, logger="pvems.timeseries"):
            caplog.clear()
            s = load_power_csv(path)
        (message,) = caplog.messages
        assert message.startswith(f"read {path.name} rows {len(s)} csv ")
        return int(message.split()[-1])

    def test_canonical_file_is_accepted_a_block_at_a_time(self, tmp_path, caplog):
        s = PowerSeries(T0, 2.0, np.arange(100, dtype=float))
        write_power_csv(s, tmp_path / "pv.csv")
        # the two rows that fix the step are read by csv, every later
        # line on the grid path, whatever the size of the blocks
        for block_bytes in (1, 64, 1_000, 8_192):
            assert self._csv_count(tmp_path / "pv.csv", block_bytes, caplog) == 2

    def test_other_spelling_is_read_by_csv(self, tmp_path, caplog):
        rows = "".join(f"{(T0 + timedelta(seconds=2 * k)).isoformat()},{k}\n"
                       for k in range(100))
        path = make_csv(tmp_path, rows)
        assert "+00:00" in rows.splitlines()[0]
        assert self._csv_count(path, 256, caplog) == 100
        assert load_outcome(path) == load_row_by_row(path)

    def test_power_text_that_numpy_refuses_hands_its_block_to_csv(self, tmp_path):
        # every power cell has five bytes, so numpy's refusal of "1.2.3"
        # sends csv back to the first line of that block, not further
        rows = grid_lines(300, lambda k: "1.2.3" if k == 250 else f"{k % 90 + 10:.2f}")
        path = make_csv(tmp_path, "\n".join(rows) + "\n")
        read = []

        def counted(row, _escaped=timeseries._escaped):  # once per csv record
            read.append(row)
            return _escaped(row)

        with mock.patch.object(timeseries, "_INGEST_BLOCK_BYTES", 1_000), \
                mock.patch.object(timeseries, "_escaped", counted):
            outcome = load_outcome(path)
        assert outcome == ("error", f"{path}: line 251: bad power value '1.2.3'")
        assert outcome == load_row_by_row(path)
        line_bytes = len(rows[0]) + 1
        assert read[-1][1] == "1.2.3" and len(read) <= 1_000 // line_bytes + 1

    def test_rows_after_a_fault_return_to_the_grid_path(self, tmp_path, caplog):
        # an epoch stamp on row 50: csv reads it and the rest of its
        # 256-byte block, then the next block is on the grid path again
        rows = grid_lines(100)
        rows[50] = f"{int((T0 + timedelta(seconds=100)).timestamp())},50.5"
        path = make_csv(tmp_path, "\n".join(rows) + "\n")
        assert 3 <= self._csv_count(path, 256, caplog) <= 2 + 256 // 20
        assert load_outcome(path) == load_row_by_row(path)


def grid_stamps(start, step, lo, hi):
    """The stamps that the grid CSV codec writes and expects, as strings."""
    return [text.decode("ascii")
            for text in timeseries._utc_grid_stamps(start, step, lo, hi).tolist()]


class TestFormatUtcGrid:
    """The grid CSV codec's stamps are ``reference.format_utc``'s."""

    # the range keeps every row within datetime's years 1-9999; sub-second
    # steps mix rows of whole seconds with rows that keep a fraction
    @given(st.datetimes(min_value=datetime(5, 1, 1), max_value=datetime(9950, 1, 1)),
           st.sampled_from([timedelta(seconds=2), timedelta(seconds=900),
                            timedelta(days=1, seconds=1), timedelta(days=400),
                            timedelta(milliseconds=500), timedelta(microseconds=1),
                            timedelta(microseconds=250_000),
                            timedelta(seconds=1, microseconds=500_000),
                            timedelta(microseconds=999_999),
                            timedelta(days=1, microseconds=10)]),
           st.integers(-3, 3), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_format_utc_per_row(self, start, step, lo, count):
        start = start.replace(tzinfo=timezone.utc)
        assert grid_stamps(start, step, lo, lo + count) == \
            format_utc_grid(start, step, lo, lo + count)

    def test_fixed_offset_start(self):
        start = datetime(2018, 1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
        assert grid_stamps(start, timedelta(seconds=2), 0, 2) == \
            ["2018-01-01T00:00:00Z", "2018-01-01T00:00:02Z"]

    # steps whose hour of points is tiled (0.1 s to 2 s), and two that are
    # formatted row by row: 50 ms has more points to the hour than a tile
    # holds, and 7 s does not divide an hour
    @pytest.mark.parametrize("step", [timedelta(milliseconds=100),
                                      timedelta(milliseconds=500),
                                      timedelta(seconds=1), timedelta(seconds=2),
                                      timedelta(seconds=7),
                                      timedelta(milliseconds=50)],
                             ids=["0.1s", "0.5s", "1s", "2s", "7s", "0.05s"])
    # on the hour, in mid-hour, off every step's phase, blocks that cross
    # midnight into and out of a leap day and into a new year, and the
    # last hours of year 9999
    @pytest.mark.parametrize("start", [datetime(2018, 1, 1),
                                       datetime(2018, 1, 1, 0, 17, 4),
                                       datetime(2018, 1, 1, 0, 17, 3, 250_000),
                                       datetime(2020, 2, 28, 23, 58, 1),
                                       datetime(2020, 2, 29, 23, 50, 0, 300_000),
                                       datetime(2019, 2, 28, 23, 59, 59),
                                       datetime(2020, 12, 31, 23, 59, 30),
                                       datetime(9999, 12, 31, 21, 0, 1)],
                             ids=str)
    def test_tiled_stamps_match_format_utc(self, start, step):
        start = start.replace(tzinfo=timezone.utc)
        n = min(9_000, (datetime.max.replace(tzinfo=timezone.utc) - start) // step + 1)
        want = [text.encode() for text in format_utc_grid(start, step, 0, n)]
        tiled = timeseries._HOUR_US % (step // timedelta(microseconds=1)) == 0 \
            and step >= timedelta(milliseconds=100)
        # whole grids, blocks that start and end inside an hour's tile,
        # one row, and the rows up to the last stamp of year 9999
        for lo, hi in ((0, n), (1, n - 1), (n // 3, n // 3 + 1), (n - 5, n)):
            with mock.patch.object(timeseries, "_tiled_stamps",
                                   wraps=timeseries._tiled_stamps) as spy:
                texts = timeseries._utc_grid_stamps(start, step, lo, hi)
            assert texts.tolist() == want[lo:hi]
            assert spy.called == tiled

    def test_tile_is_made_once_per_step_and_phase(self):
        timeseries._hour_tile.cache_clear()
        step = timedelta(seconds=2)
        for lo in range(0, 20_000, 1_000):
            timeseries._utc_grid_stamps(T0 + timedelta(seconds=1), step, lo, lo + 1_000)
            timeseries._utc_grid_stamps(T0 + timedelta(seconds=3), step, lo, lo + 1_000)
        info = timeseries._hour_tile.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        tile = timeseries._hour_tile(2_000_000, 1_000_000)
        assert tile.shape == (1_800, 20) and not tile.flags.writeable
        assert bytes(tile[0]) == bytes(14) + b"00:01Z"
        assert bytes(tile[-1]) == bytes(14) + b"59:59Z"


class TestGridStampCheck:
    """A line whose stamp is off the grid leaves the grid path at that
    line, and the per-row checks refuse it with their own message."""

    @pytest.mark.parametrize("step", [timedelta(seconds=2), timedelta(milliseconds=500)],
                             ids=["2s", "0.5s"])
    @pytest.mark.parametrize("row", [2, 1_000, 29_999])
    @pytest.mark.parametrize("fault", ["second", "digit"])
    def test_stamp_off_by_a_second_or_a_digit(self, tmp_path, step, row, fault):
        stamps = format_utc_grid(T0, step, 0, 30_000)
        stamp = stamps[row]
        if fault == "second":
            stamp = format_utc(T0 + row * step + SECOND)
        else:  # the units of the day: the same clock a day later
            stamp = stamp[:9] + "2" + stamp[10:]
        lines = [f"{s},{k}.5" for k, s in enumerate(stamps)]
        lines[row] = f"{stamp},{row}.5"
        path = make_csv(tmp_path, "timestamp,power\n" + "\n".join(lines) + "\n")
        dt = (SECOND + step if fault == "second" else timedelta(days=1) + step)
        message = (f"{path}: line {row + 2}: irregular step "
                   f"({dt.total_seconds()} s, expected {step.total_seconds()} s)")
        assert load_outcome(path) == ("error", message)
        assert load_outcome(path) == load_row_by_row(path)
