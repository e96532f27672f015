"""End-to-end tests of the command-line interface."""

import csv
import errno
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pvems import cli, ems
from pvems.cli import main
from pvems.fixtures import write_fixture_corpus
from pvems.timeseries import PowerSeries, load_power_csv, write_power_csv

NAN, INF = float("nan"), float("inf")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return write_fixture_corpus(root), root


@pytest.fixture(scope="module")
def day_config(corpus):
    """Single-day config for fast CLI runs."""
    paths, root = corpus
    doc = json.loads(paths["config"].read_text())
    doc["pv_path"] = str(paths["pv_smooth_day"])
    doc["load_path"] = str(paths["load_smooth_day"])
    doc["forecast"]["fixture_path"] = str(paths["forecast_cloudy"])
    path = root / "config_day.json"
    path.write_text(json.dumps(doc))
    return path


class TestSeedFixtures:
    def test_writes_corpus(self, tmp_path, capsys):
        assert main(["--seed-fixtures", str(tmp_path / "fx")]) == 0
        out = capsys.readouterr().out
        for name in ("pv_week.csv", "load_week.csv", "pv_smooth_day.csv",
                     "load_smooth_day.csv", "forecast_cloudy.json",
                     "forecast_clear.json", "forecast_mixed.json",
                     "config_week.json"):
            assert (tmp_path / "fx" / name).exists(), name
            assert name in out


class TestSimulate:
    def test_happy_path_writes_three_files(self, day_config, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", str(day_config),
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "kpi.json").exists()
        assert (out_dir / "histogram.csv").exists()
        assert "CRR" in capsys.readouterr().out

    def test_missing_pv_file_names_path(self, day_config, tmp_path, capsys):
        doc = json.loads(day_config.read_text())
        doc["pv_path"] = str(tmp_path / "missing_pv.csv")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")])
        assert code != 0
        assert "missing_pv.csv" in capsys.readouterr().err

    def test_scm_ignores_forecast_with_warning(self, day_config, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            code = main(["simulate", "--config", str(day_config),
                         "--strategy", "SCM",
                         "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert any("forecast" in m and "ignored" in m for m in caplog.messages)

    def test_missing_forecast_section_is_one_warning(self, day_config,
                                                     tmp_path, caplog):
        doc = json.loads(day_config.read_text())
        del doc["forecast"]
        config = tmp_path / "no_forecast.json"
        config.write_text(json.dumps(doc))
        with caplog.at_level("WARNING"):
            assert main(["simulate", "--config", str(config),
                         "--strategy", "SCM_RR_WF",
                         "--out-dir", str(tmp_path / "o")]) == 0
        assert [m for m in caplog.messages if "forecast" in m] == \
            ["no forecast source configured; defaulting to no night charge"]

    def test_trace_round_trips_through_loader(self, day_config, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(day_config),
                     "--out-dir", str(out_dir)]) == 0
        pv_col = load_power_csv(out_dir / "trace.csv", column="p_pv")
        cfg = json.loads(day_config.read_text())
        original = load_power_csv(cfg["pv_path"])
        assert pv_col.step_s == original.step_s
        assert np.array_equal(pv_col.values, original.values[:len(pv_col)])
        grid_col = load_power_csv(out_dir / "trace.csv", column="p_grid")
        assert len(grid_col) == len(pv_col)

    def test_integer_config_powers_print_as_floats(self, day_config, tmp_path):
        # Every power column is float64, so a power given as a JSON integer
        # prints as its float repr ("2700.0"), like every other row.
        doc = json.loads(day_config.read_text())
        doc["battery"]["power_nominal_w"] = 5000
        doc["ems"]["night_charge_power_w"] = 2700
        int_config = tmp_path / "config_int.json"
        int_config.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(int_config),
                     "--out-dir", str(out_dir)]) == 0
        with (out_dir / "trace.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        night = [r for r in rows if r["mode"] == "night_charge"]
        assert night
        assert all(r["p_batt_cmd"] == "2700.0" for r in night)
        for row in rows:
            for col in ("p_pv", "p_load", "p_batt_cmd", "p_batt_actual",
                        "p_grid", "soc", "rr"):
                assert repr(float(row[col])) == row[col], (col, row)

    def test_kpi_json_is_valid(self, day_config, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(day_config),
                     "--out-dir", str(out_dir)]) == 0
        doc = json.loads((out_dir / "kpi.json").read_text())
        assert set(doc["kpis_pct"]) == {"scr", "ssr", "grf", "bcr", "eg",
                                        "fgu", "tgu", "fbu", "tbu", "crr"}

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        assert main(["simulate", "--config", str(bad)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err


class TestRampAnalyze:
    def test_constant_pv_all_below_5(self, tmp_path, capsys):
        from pvems.timeseries import PowerSeries, write_power_csv
        from datetime import datetime, timezone
        s = PowerSeries(datetime(2018, 1, 1, tzinfo=timezone.utc), 2.0,
                        np.full(3_000, 2_000.0))
        pv_path = tmp_path / "flat.csv"
        write_power_csv(s, pv_path)
        out_dir = tmp_path / "ra"
        code = main(["ramp-analyze", "--pv", str(pv_path),
                     "--windows", "20,60", "--out-dir", str(out_dir)])
        assert code == 0
        rows = (out_dir / "histogram.csv").read_text().splitlines()
        assert rows[1].startswith("<5,")
        count = int(rows[1].split(",")[1])
        total = int(rows[-1].split(",")[1])
        assert count == total
        sweep = (out_dir / "window_sweep.csv").read_text().splitlines()
        assert sweep[1].endswith(",0") and sweep[2].endswith(",0")

    @pytest.mark.filterwarnings("error")
    def test_steps_that_overflow_are_ramps(self, tmp_path, capsys):
        # 2 s PV alternating between 1e308 and -1e308 every minute: each
        # one-minute difference overflows to inf, which is above every
        # bucket edge and the limit; no window sum overflows
        from pvems.timeseries import PowerSeries, write_power_csv
        from datetime import datetime, timezone
        values = np.repeat([1e308, -1e308] * 5, 30)
        pv_path = tmp_path / "alternating.csv"
        write_power_csv(PowerSeries(datetime(2018, 1, 1, tzinfo=timezone.utc),
                                    2.0, values), pv_path)
        out_dir = tmp_path / "ra"
        code = main(["ramp-analyze", "--pv", str(pv_path), "--windows", "2",
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (out_dir / "histogram.csv").read_text().splitlines() == [
            "bucket_pct_per_min,minutes,percent_of_total", "<5,0,0.0",
            ">=5,9,100.0", ">=10,9,100.0", ">10,9,100.0", ">=50,9,100.0",
            "total,9,100.0"]
        assert (out_dir / "window_sweep.csv").read_text().splitlines() == [
            "window_s,controlled_ramps", "2.0,9"]

    def test_empty_windows_defaults_with_notice(self, corpus, tmp_path, capsys):
        paths, _ = corpus
        out_dir = tmp_path / "ra"
        code = main(["ramp-analyze", "--pv", str(paths["pv_smooth_day"]),
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert "defaulting to {20 s}" in capsys.readouterr().out
        assert (out_dir / "window_sweep.csv").exists()


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in lines[0]


class TestErrorsWithoutTraceback:
    def test_ramp_analyze_missing_config(self, corpus, tmp_path, capsys):
        paths, _ = corpus
        code = main(["ramp-analyze", "--pv", str(paths["pv_smooth_day"]),
                     "--config", str(tmp_path / "absent.json"),
                     "--out-dir", str(tmp_path / "ra")])
        assert code == 1
        assert_one_line_error(capsys, "absent.json", "not found")

    def test_ramp_analyze_unknown_ramp_key(self, corpus, tmp_path, capsys):
        paths, _ = corpus
        bad = tmp_path / "ramp.json"
        bad.write_text(json.dumps({"ramp": {"window_s": 20.0, "speed": 3}}))
        code = main(["ramp-analyze", "--pv", str(paths["pv_smooth_day"]),
                     "--config", str(bad), "--out-dir", str(tmp_path / "ra")])
        assert code == 1
        assert_one_line_error(capsys, "ramp.json", "speed")

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["simulate", "--config", str(bad)]) == 1
        assert_one_line_error(capsys, "list.json", "JSON object")

    @pytest.mark.parametrize("text, message", [
        # "error: 'utf-8' codec can't decode …", naming no file
        (b'{"pv_unit": "\xe9"}', "invalid JSON: 'utf-8' codec can't decode"),
        # "error: Exceeds the limit (4300 digits) …", naming no file
        pytest.param(b'{"region": ' + b"9" * 5000 + b"}",
                     "invalid JSON: Exceeds the limit",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="no integer digit limit")),
        # a key with a line break broke the error line in two
        (b'{"init\\nial_soc": 0.5}', "'init\\nial_soc' is not a known key"),
    ], ids=["latin-1", "5000 digits", "line break in key"])
    def test_unreadable_config_is_one_line_naming_it(self, tmp_path, capsys,
                                                     text, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["simulate", "--config", str(bad)]) == 1
        assert_one_line_error(capsys, f"{bad}: {message}")

    @pytest.mark.parametrize("change", [
        {"forecast": 5},
        {"outputs": []},
        {"outputs": {"trace_csv": 5}},
        {"pv_path": 5},
        {"initial_soc": None},
        {"load_scale_w": None},
        {"forecast": {"charge_ids": 5}},
        {"forecast": {"region_id": None}},
        {"ems": {"charge_start_time": 130}},
    ], ids=repr)
    def test_wrong_typed_config_value(self, day_config, tmp_path, capsys,
                                      change):
        doc = json.loads(day_config.read_text())
        for key, value in change.items():
            if isinstance(value, dict) and isinstance(doc.get(key), dict):
                value = {**doc[key], **value}
            doc[key] = value
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert_one_line_error(capsys, "typed.json")

    @pytest.mark.parametrize("change, argv, key", [
        ({"ems": {"utc_offset_h": "x"}}, ["simulate"], "ems.utc_offset_h"),
        ({"forecast": {"mode": "live", "endpoint_base": 5}},
         ["forecast-check", "--date", "2018-01-02"], "forecast.endpoint_base"),
        ({"battery": {"soc_min": "0.2"}}, ["simulate"], "battery.soc_min"),
        ({"ramp": {"tick_s": "2"}}, ["simulate"], "ramp.tick_s"),
        ({"ramp": {"tick_s": "2"}}, ["ramp-analyze"], "ramp.tick_s"),
        ({"ems": {"utc_offset_h": True}}, ["simulate"], "ems.utc_offset_h"),
        ({"outputs": {"kpi_json": 5}}, ["compare"], "outputs.kpi_json"),
        ({"forecast": {"charge_ids": [4, "5"]}}, ["simulate"],
         "forecast.charge_ids[1]"),
        ({"strategy": 5}, ["simulate"], "strategy"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_wrong_typed_value_names_its_key(self, corpus, day_config,
                                             tmp_path, capsys, change, argv,
                                             key):
        doc = json.loads(day_config.read_text())
        for section, values in change.items():
            doc[section] = ({**doc[section], **values}
                            if isinstance(values, dict) else values)
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(doc))
        if argv[0] == "ramp-analyze":
            argv = argv + ["--pv", str(corpus[0]["pv_smooth_day"])]
        if argv[0] != "forecast-check":
            argv = argv + ["--out-dir", str(tmp_path / "o")]
        code = main([argv[0], "--config", str(bad)] + argv[1:])
        assert code == 1
        assert_one_line_error(capsys, f"typed.json: {key} must be ")

    @pytest.mark.parametrize("change, key", [
        ({"forecast": {"retires": 5}}, "forecast.retires"),
        ({"initial_sco": 0.6}, "initial_sco"),
        ({"outputs": {"trace_cvs": "o2/t.csv"}}, "outputs.trace_cvs"),
        ({"ems": {"soc_targt": 0.6}}, "ems.soc_targt"),
        ({"ems": {"strategy": "SCM"}}, "ems.strategy"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_unknown_key_is_refused(self, day_config, tmp_path, capsys, change,
                                    key):
        # a misspelt key used to be dropped, its default used in silence;
        # ramp-analyze, which reads only the ramp section, refuses it too
        doc = json.loads(day_config.read_text())
        for section, values in change.items():
            doc[section] = ({**doc[section], **values}
                            if isinstance(values, dict) else values)
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps(doc))
        for argv in (["simulate"], ["ramp-analyze", "--pv", doc["pv_path"]]):
            code = main([*argv, "--config", str(bad),
                         "--out-dir", str(tmp_path / "o")])
            assert code == 1
            assert_one_line_error(capsys, f"unknown.json: {key} is not a known key")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cls", [cli.RunConfig, cli.ForecastConfig,
                                     ems.EmsConfig, cli.RampConfig,
                                     cli.BatteryParams], ids=lambda c: c.__name__)
    def test_every_config_field_has_a_json_type(self, cls):
        # a field whose annotation the walk does not know would raise
        # some other error, a traceback, instead of the TypeError that
        # is reported as one error line
        for name in cls.__dataclass_fields__:
            with pytest.raises(TypeError, match=f"^x.{name} must be "):
                cli._build(cls, {name: object()}, "x.", Path())

    def test_simulate_out_dir_under_a_file(self, day_config, tmp_path, capsys):
        blocker = tmp_path / "plain_file"
        blocker.write_text("not a directory")
        code = main(["simulate", "--config", str(day_config),
                     "--out-dir", str(blocker / "out")])
        assert code == 1
        assert_one_line_error(capsys, "plain_file")

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_unwritable_out_dir_fails_before_ingest(self, day_config, tmp_path,
                                                    capsys, monkeypatch,
                                                    command):
        def never(config):
            raise AssertionError("load_profiles reached")

        monkeypatch.setattr(cli, "load_profiles", never)
        blocker = tmp_path / "plain_file"
        blocker.write_text("not a directory")
        code = main([command, "--config", str(day_config),
                     "--out-dir", str(blocker / "out")])
        assert code == 1
        assert_one_line_error(capsys, "plain_file")

    # each value is checked as the config is read, before any profile is,
    # even one that a flag overrides; the comment is what happened before
    @pytest.mark.parametrize("change, flags, message", [
        # exit 0 with 43 200 nan SOC cells in trace.csv
        ({"battery": {"energy_capacity_wh": NAN}}, [],
         "battery.energy_capacity_wh must be a finite number, got nan"),
        # an overflow blamed on the PV file
        ({"ramp": {"nameplate_w": NAN}}, [], "ramp.nameplate_w must be a finite number"),
        # "cannot convert NaN to integer ratio", naming no file
        ({"ramp": {"limit_pct_per_min": NAN}}, [],
         "ramp.limit_pct_per_min must be a finite number"),
        # exit 0
        ({"battery": {"power_nominal_w": NAN}}, [],
         "battery.power_nominal_w must be a finite number"),
        # an energy overflow blamed on the profiles
        ({"ems": {"night_charge_power_w": NAN}}, [],
         "ems.night_charge_power_w must be a finite number"),
        # exit 0
        ({"forecast": {"timeout_s": NAN}}, [], "forecast.timeout_s must be a finite number"),
        # a range error naming no key
        ({"battery": {"soc_max": INF}}, [], "battery.soc_max must be a finite number, got inf"),
        # an error after ingest, naming no file
        ({"initial_soc": -INF}, [], "initial_soc must be a finite number, got -inf"),
        # an OverflowError blamed on the PV file
        ({"ems": {"utc_offset_h": 1e300}}, [], "utc_offset_h must be in (-24, 24), got 1e+300"),
        # "cannot convert float NaN to integer", naming no file
        ({"ems": {"utc_offset_h": NAN}}, [], "ems.utc_offset_h must be a finite number"),
        # exit 0, looking up forecasts for 2132
        ({"ems": {"utc_offset_h": 1e6}}, [], "utc_offset_h must be in (-24, 24)"),
        # exit 0
        ({"ems": {"utc_offset_h": -24}}, [], "utc_offset_h must be in (-24, 24)"),
        # "'cubic' is not a valid ResampleMethod" after ingest, naming no file
        ({"load_resample": "cubic"}, [],
         "load_resample must be one of 'hold', 'linear', got 'cubic'"),
        # "expected_unit must be 'W' or 'kW'", naming no file
        ({"pv_unit": "kw"}, [], "pv_unit must be one of 'W', 'kW', got 'kw'"),
        ({"load_unit": "MW"}, [], "load_unit must be one of 'W', 'kW', got 'MW'"),
        # "unknown forecast mode 'Live'" at the first forecast, naming no file
        ({"forecast": {"mode": "Live"}}, [],
         "forecast.mode must be one of 'fixture', 'live', got 'Live'"),
        # exit 0 (live: "forecast unreachable after 0 attempts: None")
        ({"forecast": {"retries": -1}}, [], "retries must be non-negative, got -1"),
        # exit 0
        ({"forecast": {"timeout_s": 0}}, [], "timeout_s must be positive, got 0.0"),
        # exit 0: the flag replaced it unchecked
        ({"strategy": "XX"}, ["--strategy", "SCM"],
         "strategy must be one of 'SCM', 'SCM_RR', 'SCM_RR_WF', got 'XX'"),
        # an OverflowError traceback
        ({"ramp": {"window_s": 1e308, "tick_s": 1e-5}}, [],
         "window_s (1e+308) must be a positive multiple of tick_s (1e-05)"),
        # "bad clock time '25:00', expected HH:MM", naming no key
        ({"ems": {"charge_start_time": "25:00"}}, [],
         "ems.charge_start_time must be a clock time HH:MM, got '25:00'"),
    ], ids=repr)
    def test_bad_value_fails_before_ingest(self, day_config, tmp_path, capsys,
                                           monkeypatch, change, flags, message):
        def never(config):
            raise AssertionError("load_profiles reached")

        monkeypatch.setattr(cli, "load_profiles", never)
        doc = json.loads(day_config.read_text())
        for section, values in change.items():
            doc[section] = ({**doc[section], **values}
                            if isinstance(values, dict) else values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o"), *flags])
        assert code == 1
        assert_one_line_error(capsys, f"error: {bad}: {message}")
        assert not (tmp_path / "o").exists()

    def test_tick_far_finer_than_the_profiles(self, day_config, tmp_path, capsys):
        # the smooth day on a 1e-12 s grid takes 614 PiB, beyond any
        # address space, so the allocation fails at once; a tick of
        # 1e-3 s takes gigabytes, which may well be allocated
        doc = json.loads(day_config.read_text())
        doc["ramp"] = {**doc["ramp"], "tick_s": 1e-12, "window_s": 1e-11}
        bad = tmp_path / "tick.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert_one_line_error(capsys, "tick.json", "tick_s")

    # each must fit the battery (soc_min 0.2, soc_max 0.7, 5 kW), and is
    # checked as the config is read, before any profile is
    @pytest.mark.parametrize("change, message", [
        ({"initial_soc": 0.1}, "initial_soc 0.1 outside the battery window [0.2, 0.7]"),
        ({"ems": {"soc_target": 0.8}}, "soc_target 0.8 outside the battery window"),
        ({"ems": {"night_charge_power_w": 6000}},
         "night_charge_power_w 6000.0 exceeds battery nominal 5000.0"),
    ], ids=["initial_soc", "soc_target", "night_charge_power_w"])
    @pytest.mark.parametrize("command", ["simulate", "compare", "forecast-check",
                                         "ramp-analyze"])
    def test_value_that_does_not_fit_the_battery(self, corpus, day_config,
                                                 tmp_path, capsys, monkeypatch,
                                                 change, message, command):
        def never(*args, **kwargs):
            raise AssertionError("a profile was read")

        monkeypatch.setattr(cli, "load_power_csv", never)
        doc = json.loads(day_config.read_text())
        for section, values in change.items():
            doc[section] = ({**doc[section], **values}
                            if isinstance(values, dict) else values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = {"simulate": ["--out-dir", str(tmp_path / "o")],
                "compare": ["--out-dir", str(tmp_path / "o")],
                "forecast-check": ["--date", "2018-01-02"],
                "ramp-analyze": ["--pv", str(corpus[0]["pv_smooth_day"]),
                                 "--out-dir", str(tmp_path / "o")]}[command]
        assert main([command, "--config", str(bad), *args]) == 1
        assert_one_line_error(capsys, f"error: {bad}: {message}")
        assert not (tmp_path / "o").exists()

    # a finite PV profile whose window sum overflows names the profile
    # and leaves the previous outputs
    @pytest.mark.parametrize("command, outputs", [
        ("simulate", ("trace.csv", "kpi.json", "histogram.csv")),
        ("compare", ("compare.csv",)),
    ])
    def test_window_sum_overflow(self, corpus, day_config, tmp_path, capsys,
                                 command, outputs):
        huge_pv = write_huge_pv(corpus, tmp_path)
        doc = json.loads(day_config.read_text())
        doc["pv_path"] = str(huge_pv)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name in outputs:
            (out_dir / name).write_text(f"previous {name}\n")
        code = main([command, "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 1
        assert_one_line_error(capsys, "huge_pv.csv", "overflow")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(outputs)
        assert all((out_dir / name).read_text() == f"previous {name}\n"
                   for name in outputs)

    def test_ramp_analyze_window_sum_overflow(self, corpus, tmp_path, capsys):
        # without the check: numpy warnings, 0 ramps and exit 0
        huge_pv = write_huge_pv(corpus, tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "histogram.csv").write_text("previous histogram.csv\n")
        code = main(["ramp-analyze", "--pv", str(huge_pv), "--windows", "20,60",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert_one_line_error(capsys, "huge_pv.csv", "the sum of a 20 s window",
                              "overflows")
        assert [p.name for p in out_dir.iterdir()] == ["histogram.csv"]
        assert (out_dir / "histogram.csv").read_text() == "previous histogram.csv\n"


def write_huge_pv(corpus, tmp_path):
    """The smooth day with every PV cell ``1e308``: finite, but the sum
    of any two cells overflows."""
    paths, _ = corpus
    rows = paths["pv_smooth_day"].read_text().splitlines()
    huge_pv = tmp_path / "huge_pv.csv"
    huge_pv.write_text("\n".join([rows[0]] + [row.split(",")[0] + ",1e308"
                                              for row in rows[1:]]) + "\n")
    return huge_pv


class TestOverflowingRuns:
    """Finite profiles whose ramp rates, energies or ratios overflow are one
    ``error:`` line, with no warning, and leave the previous outputs: never
    ``NaN`` or ``Infinity`` in ``kpi.json``.  The config is the smooth
    day's with a 2 s window (no window sum overflows), SCM_RR and no
    forecast section."""

    # case -> ({profile replaced: its values from its length}, error text)
    CASES = {
        # PV alternating between 1e308 and -1e308 every minute: the ramp
        # of the one-sample window mean overflows
        "alternating_pv": ({"pv": lambda n: np.resize(np.repeat([1e308, -1e308], 30), n)},
                           "the ramp rate of the 2 s window mean of PV power overflows"),
        # a constant PV of 1e308: the generated and exported energies do
        "constant_pv": ({"pv": lambda n: np.full(n, 1e308)},
                        "energy totals overflow: e_pv_generated, e_to_grid, e_grid_total"),
        # and with a load of -1e308 the surplus and the grid power do too
        "opposite_load": ({"pv": lambda n: np.full(n, 1e308),
                           "load": lambda n: np.full(n, -1e308)},
                          "energy totals overflow: e_pv_generated, e_to_grid"),
        # a load of 5e-324 W: the PV over the load energy does
        "subnormal_load": ({"load": lambda n: np.full(n, 5e-324)}, "ssr overflows"),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, outputs", [
        ("simulate", ("trace.csv", "kpi.json", "histogram.csv")),
        ("compare", ("compare.csv",)),
    ])
    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_with_one_error_line(self, corpus, day_config, tmp_path,
                                         capsys, command, outputs, case):
        profiles, message = self.CASES[case]
        paths, _ = corpus
        doc = json.loads(day_config.read_text())
        del doc["forecast"]
        doc["strategy"] = "SCM_RR"
        doc["ramp"]["window_s"] = 2.0
        for profile, values in profiles.items():
            original = load_power_csv(paths[f"{profile}_smooth_day"])
            replaced = tmp_path / f"{case}_{profile}.csv"
            write_power_csv(PowerSeries(original.start, original.step_s,
                                        values(len(original))), replaced)
            doc[f"{profile}_path"] = str(replaced)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name in outputs:
            (out_dir / name).write_text(f"previous {name}\n")
        code = main([command, "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 1
        assert_one_line_error(capsys, f"{case}_", message)
        assert {p.name: p.read_text() for p in out_dir.iterdir()} \
            == {name: f"previous {name}\n" for name in outputs}


class TestCsvErrorsWithoutTraceback:
    """A csv-level fault in a profile is one ``error:`` line and exit 1."""

    @pytest.fixture
    def oversized_pv(self, tmp_path):
        path = tmp_path / "oversized_pv.csv"
        path.write_text("timestamp,power\n2018-01-01T00:00:00Z,0.0\n"
                        "2018-01-01T00:00:02Z," + "1" * 200_000 + "\n")
        return path

    def test_simulate(self, day_config, oversized_pv, tmp_path, capsys):
        doc = json.loads(day_config.read_text())
        doc["pv_path"] = str(oversized_pv)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(config),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert_one_line_error(capsys, "oversized_pv.csv", "line 3",
                              "field larger than field limit")

    def test_ramp_analyze(self, oversized_pv, tmp_path, capsys):
        code = main(["ramp-analyze", "--pv", str(oversized_pv),
                     "--out-dir", str(tmp_path / "ra")])
        assert code == 1
        assert_one_line_error(capsys, "oversized_pv.csv", "line 3",
                              "field larger than field limit")


class TestAtomicOutputs:
    """A run writes its whole output set or none of it: outputs go to
    temporary files that are moved into place after the last one is
    written, and a failing writer leaves the files that were there."""

    OUTPUTS = {"simulate": ("trace.csv", "kpi.json", "histogram.csv"),
               "ramp-analyze": ("histogram.csv", "window_sweep.csv"),
               "compare": ("compare.csv",)}

    @staticmethod
    def argv(command, day_config):
        pv_path = json.loads(day_config.read_text())["pv_path"]
        return {"simulate": ["simulate", "--config", str(day_config)],
                "ramp-analyze": ["ramp-analyze", "--pv", pv_path],
                "compare": ["compare", "--config", str(day_config)]}[command]

    @pytest.mark.parametrize("command, writer", [
        ("simulate", "write_trace_csv"),
        ("simulate", "write_kpi_json"),
        ("simulate", "write_histogram_csv"),
        ("ramp-analyze", "write_histogram_csv"),
        ("ramp-analyze", "write_window_sweep_csv"),
        ("compare", "write_compare_csv"),
    ])
    def test_failing_writer_leaves_the_previous_set(self, day_config, tmp_path,
                                                    capsys, monkeypatch,
                                                    command, writer):
        def half_written(*args):
            path = Path(args[-1])
            path.write_text("half a")
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        before = {}
        for name in self.OUTPUTS[command]:
            (out_dir / name).write_text(f"previous {name}\n")
            before[name] = (out_dir / name).read_bytes()
        monkeypatch.setattr(cli, writer, half_written)
        code = main(self.argv(command, day_config) + ["--out-dir", str(out_dir)])
        assert code == 1
        assert_one_line_error(capsys, "No space left on device")
        # no new, half-written or temporary file; the previous set intact
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    @pytest.mark.parametrize("command", ["simulate", "ramp-analyze", "compare"])
    def test_complete_set_replaces_the_previous_one(self, day_config, tmp_path,
                                                    capsys, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name in self.OUTPUTS[command]:
            (out_dir / name).write_text(f"previous {name}\n")
        assert main(self.argv(command, day_config) + ["--out-dir", str(out_dir)]) == 0
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(files) == sorted(self.OUTPUTS[command])
        assert not any(data.startswith(b"previous") for data in files.values())

    def test_output_path_that_is_a_directory_fails_before_ingest(
            self, day_config, tmp_path, capsys, monkeypatch):
        def never(config):
            raise AssertionError("load_profiles reached")

        monkeypatch.setattr(cli, "load_profiles", never)
        out_dir = tmp_path / "out"
        (out_dir / "kpi.json").mkdir(parents=True)
        code = main(["simulate", "--config", str(day_config),
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert_one_line_error(capsys, "kpi.json")
        assert [p.name for p in out_dir.iterdir()] == ["kpi.json"]


STAGE = re.compile(r"^stage (\S+) (\d+\.\d{6})$")
DISPATCH = re.compile(r"^dispatch (\S+) runs (\d+) taper (\d+) scalar (\d+)$")
WROTE = re.compile(r"^wrote (\S+) rows (\d+) formatted (\d+) of (\d+) float cells "
                   r"repr (\d+)$")
PREPASS = re.compile(r"^prepass windows (\d+) resummed (\d+)$")


class TestStageLog:
    """``-v`` logs one ``stage <name> <seconds>`` line per stage, one
    ``prepass windows <m> resummed <k>`` line per pre-pass, one
    ``dispatch <strategy> runs <ticks> taper <ticks> scalar <ticks>``
    line per strategy and one ``wrote <name> rows <n> formatted <k> of
    <cells> float cells repr <r>`` line per grid CSV; nothing else changes."""

    def run_twice(self, argv, out_dir, capsys, caplog):
        outputs = []
        for verbose in ([], ["-v"]):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="pvems.cli"), \
                    caplog.at_level(logging.INFO, logger="pvems.ems"), \
                    caplog.at_level(logging.INFO, logger="pvems.timeseries"):
                assert main(verbose + argv) == 0
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.append((files, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        stages = [STAGE.match(m) for m in caplog.messages
                  if m.startswith("stage ")]
        assert all(stages), caplog.messages
        dispatch = [DISPATCH.match(m) for m in caplog.messages
                    if m.startswith("dispatch ")]
        assert all(dispatch), caplog.messages
        # runs, taper and scalar ticks add up to the horizon
        config = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
        n_ticks = len(load_power_csv(config["pv_path"]))
        assert all(sum(map(int, m.group(2, 3, 4))) == n_ticks
                   for m in dispatch)
        # one full window per tick from the window's last sample on
        (prepass,) = [PREPASS.match(m) for m in caplog.messages
                      if m.startswith("prepass ")]
        windows, resummed = map(int, prepass.groups())
        n_window = round(config["ramp"]["window_s"] / config["ramp"]["tick_s"])
        assert windows == n_ticks - n_window + 1 and resummed <= windows
        wrote = [WROTE.match(m) for m in caplog.messages
                 if m.startswith("wrote ")]
        assert all(wrote), caplog.messages
        # a trace row has 7 float cells, at most all of them are
        # formatted, and at most all of those by repr
        wrote = [(m.group(1), *map(int, m.group(2, 3, 4, 5))) for m in wrote]
        assert all(cells == 7 * rows and r <= k <= cells
                   for _, rows, k, cells, r in wrote)
        return ([m.group(1) for m in stages], [m.group(1) for m in dispatch],
                [(name, rows) for name, rows, *_ in wrote])

    def test_simulate(self, day_config, tmp_path, capsys, caplog):
        out_dir = tmp_path / "sim"
        names, dispatch, wrote = self.run_twice(
            ["simulate", "--config", str(day_config), "--out-dir", str(out_dir)],
            out_dir, capsys, caplog)
        assert names == ["ingest+align", "prepass", "dispatch.SCM_RR_WF",
                         "accounting.SCM_RR_WF", "write.trace_csv",
                         "write.kpi_json", "write.histogram_csv"]
        assert dispatch == ["SCM_RR_WF"]
        n_ticks = len(load_power_csv(out_dir / "trace.csv", column="p_pv"))
        assert wrote == [("trace.csv", n_ticks)]

    def test_compare(self, day_config, tmp_path, capsys, caplog):
        out_dir = tmp_path / "cmp"
        names, dispatch, wrote = self.run_twice(
            ["compare", "--config", str(day_config), "--out-dir", str(out_dir)],
            out_dir, capsys, caplog)
        assert names == ["ingest+align", "prepass",
                         "dispatch.SCM", "accounting.SCM",
                         "dispatch.SCM_RR", "accounting.SCM_RR",
                         "dispatch.SCM_RR_WF", "accounting.SCM_RR_WF",
                         "write.compare_csv"]
        assert dispatch == ["SCM", "SCM_RR", "SCM_RR_WF"]
        assert wrote == []

    def test_seed_week_trace_formats_at_most_half_its_float_cells(
            self, corpus, tmp_path, caplog):
        # 538 110 of 2 116 800 when this test was written: hold-resampled
        # load, nights of zero PV and unclamped commands repeat their
        # text; a fall-back to one repr per cell would read all of them
        paths, _ = corpus
        with caplog.at_level(logging.INFO, logger="pvems.timeseries"):
            assert main(["simulate", "--config", str(paths["config"]),
                         "--out-dir", str(tmp_path)]) == 0
        (line,) = [m for m in caplog.messages if m.startswith("wrote ")]
        name, rows, formatted, cells, reprs = WROTE.match(line).groups()
        assert name == "trace.csv" and int(rows) == 302_400
        assert int(cells) == 7 * int(rows)
        assert int(formatted) <= int(cells) / 2
        # 16 091 of the 538 110 go to repr: nearly all are below 1e-4,
        # which repr writes in exponent form; a fall-back to repr for
        # every cell would read 538 110
        assert int(reprs) <= int(formatted) / 10

    def test_seed_week_prepass_resums_no_window(self, corpus, tmp_path, caplog):
        # the week's window means all certify on arrays; a fall-back to
        # fsum for every window would count 302 391
        paths, _ = corpus
        with caplog.at_level(logging.INFO, logger="pvems.ems"):
            assert main(["compare", "--config", str(paths["config"]),
                         "--strategies", "SCM", "--out-dir", str(tmp_path)]) == 0
        (line,) = [m for m in caplog.messages if m.startswith("prepass ")]
        assert PREPASS.match(line).groups() == ("302391", "0")


class TestCompare:
    def test_prepass_runs_once_for_three_strategies(self, day_config, tmp_path,
                                                     monkeypatch):
        calls, real = [], ems.prepass

        def counting_prepass(pv, cfg):
            calls.append(cfg.strategy)
            return real(pv, cfg)

        # both names: compare's own call and simulate's fallback
        monkeypatch.setattr(cli, "prepass", counting_prepass)
        monkeypatch.setattr(ems, "prepass", counting_prepass)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--config", str(day_config),
                     "--out-dir", str(out_dir)]) == 0
        assert len(calls) == 1
        rows = (out_dir / "compare.csv").read_text().splitlines()
        assert rows[0] == "kpi,SCM,SCM_RR,SCM_RR_WF"

    def test_three_strategies_table(self, day_config, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--config", str(day_config),
                     "--out-dir", str(out_dir)])
        assert code == 0
        rows = (out_dir / "compare.csv").read_text().splitlines()
        assert rows[0] == "kpi,SCM,SCM_RR,SCM_RR_WF"
        assert len(rows) == 1 + 10 + 2

    @pytest.mark.parametrize("strategies, ignored", [
        ("SCM", True), ("SCM,SCM_RR", True), ("SCM,SCM_RR_WF", False)])
    def test_unused_forecast_section_warns_as_simulate(self, day_config,
                                                       tmp_path, caplog,
                                                       strategies, ignored):
        with caplog.at_level("WARNING"):
            assert main(["compare", "--config", str(day_config),
                         "--strategies", strategies,
                         "--out-dir", str(tmp_path / "cmp")]) == 0
        assert any("forecast" in m and "ignored" in m
                   for m in caplog.messages) == ignored

    def test_single_strategy(self, day_config, tmp_path):
        out_dir = tmp_path / "cmp1"
        code = main(["compare", "--config", str(day_config),
                     "--strategies", "SCM", "--out-dir", str(out_dir)])
        assert code == 0
        rows = (out_dir / "compare.csv").read_text().splitlines()
        assert rows[0] == "kpi,SCM"

    def test_collapse_on_smooth_day(self, day_config, tmp_path):
        out_dir = tmp_path / "cmp2"
        assert main(["compare", "--config", str(day_config),
                     "--strategies", "SCM,SCM_RR",
                     "--out-dir", str(out_dir)]) == 0
        for line in (out_dir / "compare.csv").read_text().splitlines()[1:]:
            _, a, b = line.split(",")
            assert a == b


class TestForecastCheck:
    def test_cloudy_day_decision(self, day_config, capsys):
        code = main(["forecast-check", "--config", str(day_config),
                     "--date", "2018-01-03"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2018-01-03" in out and "NIGHT CHARGE" in out

    def test_date_absent(self, day_config, capsys):
        code = main(["forecast-check", "--config", str(day_config),
                     "--date", "2030-01-01"])
        assert code == 1
        assert "2030-01-01" in capsys.readouterr().err


class TestNoCommand:
    def test_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestForecastEndpointOverride:
    def test_env_var_wins_over_config(self, monkeypatch):
        from pvems.cli import ENDPOINT_ENV_VAR, ForecastConfig
        monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://override.example/api")
        fc = ForecastConfig(mode="live", endpoint_base="http://config.example",
                            region_id=7)
        source = fc.source()
        assert source.endpoint_base == "http://override.example/api"

    def test_live_without_endpoint_rejected(self, monkeypatch):
        from pvems.cli import ENDPOINT_ENV_VAR, CliError, ForecastConfig
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        fc = ForecastConfig(mode="live", endpoint_base=None, region_id=7)
        with pytest.raises(CliError, match="endpoint"):
            fc.source()


class TestImports:
    def test_cli_leaves_fixtures_unimported(self):
        # only ``--seed-fixtures`` needs the synthetic corpus generator
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, pvems.cli; print('pvems.fixtures' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)},
                             check=True)
        assert run.stdout == "False\n"
