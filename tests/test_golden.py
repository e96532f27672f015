"""Golden output digests: the CLI's files must stay byte-identical.

The digests were taken from the reference implementation on the
``--seed-fixtures`` corpus.  Any engine, accounting or writer change
that alters a single byte of these outputs fails here; a deliberate
change of output format has to update the digests in the same commit
and say why.
"""

import hashlib
import json
import logging
from unittest import mock

import pytest

from pvems import timeseries
from pvems.cli import main

WEEK_DIGESTS = {
    "trace.csv": "d61346d7ff67567fd384dc5a6a52c4af0098da27712412746380ced5ce327b7e",
    "kpi.json": "db315e5c0d93c84833bbe718ce60224a9c2529b4feb846b51c57581b29cc7084",
    "compare.csv": "951ed128134f82f77d62cda0fa2faa8362ec4a104a182a7ba3afcecdb77346c3",
}
SMOOTH_DAY_DIGESTS = {
    "trace.csv": "b157e12288986f68cab49f9029d3981286364033e01a85a715ee21b4586ebf9c",
    "kpi.json": "7327694341245784255cdf0cf0f0acb91297cb28570190c117921d37853240bb",
}
FIXTURE_DIGESTS = {
    "pv_week.csv": "1a2b274833cfda93a835ea1735da6f862c49a72365c3c0280bd92c2a86072d8a",
    "load_week.csv": "868a809c6fc74e1fe9aa95687e289c68e29c9654f713b4964b5097d7210ac9b7",
    "pv_smooth_day.csv": "37790d5afa88bf63c0fa7268a4133935f69e100bc407ac6e6a269985f9553a7b",
    "load_smooth_day.csv": "79a0bcbe9f32115f526462ed214ba03af93129f63207067fede1fc0624fbc83a",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def fixtures_dir(tmp_path_factory):
    fx = tmp_path_factory.mktemp("golden") / "fixtures"
    assert main(["--seed-fixtures", str(fx)]) == 0
    return fx


@pytest.fixture(scope="module")
def smooth_day_config(fixtures_dir):
    doc = json.loads((fixtures_dir / "config_week.json").read_text())
    doc["pv_path"] = "pv_smooth_day.csv"
    doc["load_path"] = "load_smooth_day.csv"
    doc["forecast"]["fixture_path"] = "forecast_cloudy.json"
    path = fixtures_dir / "config_smooth_day.json"
    path.write_text(json.dumps(doc))
    return path


class TestGoldenDigests:
    def test_seed_fixture_profiles(self, fixtures_dir):
        got = {name: sha256(fixtures_dir / name) for name in FIXTURE_DIGESTS}
        assert got == FIXTURE_DIGESTS

    def test_week_simulate_and_compare(self, fixtures_dir, tmp_path):
        config = str(fixtures_dir / "config_week.json")
        assert main(["simulate", "--config", config,
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["compare", "--config", config,
                     "--out-dir", str(tmp_path)]) == 0
        got = {name: sha256(tmp_path / name) for name in WEEK_DIGESTS}
        assert got == WEEK_DIGESTS

    def test_smooth_day_simulate(self, smooth_day_config, tmp_path):
        assert main(["simulate", "--config", str(smooth_day_config),
                     "--out-dir", str(tmp_path)]) == 0
        got = {name: sha256(tmp_path / name) for name in SMOOTH_DAY_DIGESTS}
        assert got == SMOOTH_DAY_DIGESTS


class TestSeedWeekIngest:
    @pytest.mark.parametrize("name", ["pv_week.csv", "load_week.csv"])
    def test_grid_path_loads_what_csv_loads(self, fixtures_dir, caplog, name):
        # the seed week's profiles, read on the grid path and by csv alone
        # (the grid path accepting no line): the same start, step and
        # value bits; on the grid path only the two rows that fix the
        # step are read by csv
        path = fixtures_dir / name
        with caplog.at_level(logging.INFO, logger="pvems.timeseries"):
            fast = timeseries.load_power_csv(path)
            with mock.patch.object(timeseries, "_canonical_rows",
                                   return_value=(0, None)):
                slow = timeseries.load_power_csv(path)
        assert (fast.start, fast.step_s) == (slow.start, slow.step_s)
        assert fast.values.tobytes() == slow.values.tobytes()
        n = len(fast)
        assert caplog.messages == [f"read {name} rows {n} csv 2",
                                   f"read {name} rows {n} csv {n}"]
