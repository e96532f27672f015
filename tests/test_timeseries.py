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
from pvems.timeseries import (PowerSeries, ProfileError, ResampleMethod,
                              ResamplePolicy, align, format_utc,
                              format_utc_grid, load_power_csv, resample,
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

    @pytest.mark.parametrize("header, column", [
        ("timestamp,power", None),
        ("timestamp,other,power", "power"),
        ("timestamp", None),
        ("timestamp,p_pv,p_load,p_batt_cmd,p_batt_actual,p_grid,soc,mode,rr,"
         "rr_violated", "p_load"),
    ])
    def test_header_rows(self, tmp_path, header, column):
        n_cols = max(2, header.count(",") + 1)
        cells = ",".join(["5"] * (n_cols - 1))
        path = make_csv(tmp_path, f"{header}\n"
                                  f"2018-01-01T00:00:00Z,{cells}\n"
                                  f"2018-01-01T00:00:02Z,{cells}\n")
        s = load_power_csv(path, column=column)
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
    def write_row_by_row(series, path, header=True):
        """The per-row reference of ``write_power_csv``."""
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if header:
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
           st.booleans(),
           BLOCK_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_matches_row_by_row_writer(self, tmp_path_factory, start, step_s,
                                       values, header, block_rows):
        s = PowerSeries(start.replace(tzinfo=timezone.utc), step_s,
                        np.array(values))
        out = tmp_path_factory.mktemp("write")
        with mock.patch.object(timeseries, "_WRITE_BLOCK_ROWS", block_rows):
            write_power_csv(s, out / "block.csv", header=header)
        self.write_row_by_row(s, out / "rows.csv", header=header)
        assert (out / "block.csv").read_bytes() == (out / "rows.csv").read_bytes()

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
        # 400, its other run heads sit on equal cmd cells; nan: 2 payloads.
        # Of those 8, only 2.5 and 1.0 are formatted on arrays: zeros and
        # NaNs go to repr
        assert caplog.messages == [
            f"wrote t.csv rows {n} formatted {4 + 2 + 2} of {3 * n} float cells "
            f"repr {3 + 1 + 2}"]
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


class TestFormatFloats:
    """``_format_floats`` writes ``repr``'s bytes for every float64."""

    @staticmethod
    def check(values):
        values = np.array(values, dtype=np.float64)
        texts, reprs = timeseries._format_floats(values)
        assert texts.tolist() == [repr(v).encode() for v in values.tolist()]
        return reprs

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_bit_patterns(self, patterns):
        self.check(np.array(patterns, dtype=np.uint64).view(np.float64))

    @given(st.lists(DECIMALS, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decimals(self, values):
        self.check(values)

    @given(st.lists(BOUNDARIES, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_neighbours_of_powers_of_ten_and_two(self, values):
        self.check(values)

    def test_special_values_go_to_repr(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000001],
                        dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308,
                   np.inf, -np.inf, *nans]
        # mixed with in-range cells, under the suite's error::RuntimeWarning
        assert self.check(special + [1.5, -2.5e-4]) == len(special)

    def test_only_unproven_cells_go_to_repr(self):
        # positional texts of 1 to 17 digits, both ends of the range,
        # powers of two and of ten, and 2**53 and its neighbours
        proven = [1.5, 0.1, 1e-4, 9999999999999998.0, 1e15, 0.3, 2.0 ** 53,
                  2.0 ** 53 + 2, 2.0 ** -13, 123456789.12345679, -0.00012345,
                  1 / 3, 6740.0, 9007199254740993e-16]
        assert self.check(proven) == 0
        # 1e15 + 0.25 is 10000000000000002.5 units of its 17th digit: a tie
        assert self.check([1e15 + 0.25, 1e-5, 1e16]) == 3

    def test_powers_of_two_and_empty_input(self):
        # the rounding interval of a power of two is narrower below
        powers = [2.0 ** k for k in range(-13, 54)]  # 1.2e-4 .. 9.0e15
        assert self.check(powers + [-v for v in powers]) == 0
        assert self.check([]) == 0

    def test_binade_tables(self):
        # each binade's exponent gives floor(log10) below its power of
        # ten, and the threshold is the least double at or above it
        for b in range(1009, 1077):
            low = Fraction(2) ** (b - 1023)
            dec = 16 - int(timeseries._SHIFT[b])
            assert Fraction(10) ** dec <= low < Fraction(10) ** (dec + 1)
            t = timeseries._NEXT_POW10[b]
            if t == np.inf:
                assert 2 * low <= Fraction(10) ** (dec + 1)
            else:
                assert Fraction(np.nextafter(t, 0)) < Fraction(10) ** (dec + 1) <= Fraction(t)

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
# A trace CSV's header, whose named columns load_power_csv can select.
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
    header = draw(st.sampled_from(["none", "plain", "column", "wide"]))
    kwargs = {"expected_unit": draw(st.sampled_from(["W", "kW"]))}
    lines = []
    if header == "plain":
        lines.append("timestamp,power")
    elif header == "column":
        lines.append("timestamp,other,power")
        kwargs["column"] = "power"
    elif header == "wide":
        lines.append(WIDE_HEADER)
        names = WIDE_HEADER.split(",")
        kwargs["column"] = draw(st.sampled_from(names[1:]))
        power_idx = names.index(kwargs["column"])
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
        elif header == "column":
            lines.append(f"{stamp},x,{power}" + ("" if after is None else f",{after}"))
        elif header == "wide":
            cells = ["1.5"] * 9
            cells[power_idx - 1] = power
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
    # the power column missing from a block's only line
    @example(case=pinned(["timestamp,other,power"] + grid_lines(3, lambda k: f"x,{k}")
                         + grid_lines(1, lambda k: "x", start=3)
                         + grid_lines(2, lambda k: f"x,{k}", start=4),
                         {"column": "power"}, 1))
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
        40, lambda k: ",".join(str(float(k + c)) for c in range(9))),
        {"column": "p_grid"}, 8))
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
                with pytest.raises(UnicodeDecodeError):
                    load(path)

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

    def test_rows_after_a_fault_return_to_the_grid_path(self, tmp_path, caplog):
        # an epoch stamp on row 50: csv reads it and the rest of its
        # 256-byte block, then the next block is on the grid path again
        rows = grid_lines(100)
        rows[50] = f"{int((T0 + timedelta(seconds=100)).timestamp())},50.5"
        path = make_csv(tmp_path, "\n".join(rows) + "\n")
        assert 3 <= self._csv_count(path, 256, caplog) <= 2 + 256 // 20
        assert load_outcome(path) == load_row_by_row(path)


class TestFormatUtcGrid:
    # the range keeps every row within datetime's years 1-9999
    @given(st.datetimes(min_value=datetime(5, 1, 1), max_value=datetime(9950, 1, 1)),
           st.sampled_from([timedelta(seconds=2), timedelta(seconds=900),
                            timedelta(days=1, seconds=1), timedelta(days=400),
                            timedelta(milliseconds=500), timedelta(microseconds=1),
                            timedelta(seconds=-2)]),
           st.integers(-3, 3), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_matches_format_utc_per_row(self, start, step, lo, count):
        start = start.replace(tzinfo=timezone.utc)
        assert format_utc_grid(start, step, lo, lo + count) == \
            [format_utc(start + k * step) for k in range(lo, lo + count)]

    def test_fixed_offset_start(self):
        start = datetime(2018, 1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
        assert format_utc_grid(start, timedelta(seconds=2), 0, 2) == \
            ["2018-01-01T00:00:00Z", "2018-01-01T00:00:02Z"]
