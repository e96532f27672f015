"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from pvems.fixtures import WEEK_START, write_fixture_corpus  # noqa: E402
from pvems.ramp import RampConfig, window_sweep  # noqa: E402
from pvems.timeseries import PowerSeries  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SWEEP_DEFECT = ("window_sweep's cumsum moving average flickers around the limit "
                "on the 600 s window, where the exact ramp equals it")


def test_default_seed_reproduces_fixture_corpus(tmp_path):
    fixtures = write_fixture_corpus(tmp_path / "fixtures")
    ours = corpus.write_corpus(tmp_path / "bench", corpus.DEFAULT_SEED, 7)
    for name, fixture in (("pv", "pv_week"), ("load", "load_week"),
                          ("forecast", "forecast_mixed"), ("config", "config")):
        assert ours[name].read_bytes() == fixtures[fixture].read_bytes(), name


def test_other_seeds_vary_but_keep_every_event_and_a_charge_night():
    base = corpus.pv_values(corpus.DEFAULT_SEED, 3)
    cfg = RampConfig()
    for seed in (1, 2, 3):
        values = corpus.pv_values(seed, 3)
        assert not (values == base).all()
        [(_, events)] = window_sweep(PowerSeries(WEEK_START, 2.0, values), cfg, [20.0])
        assert events == 3 * corpus.EVENTS_PER_DAY
        codes = corpus.forecast_codes(seed, 3)
        assert len(codes) == 4 and set(codes[:3]) & set(corpus.CHARGE_CODES)


def test_kpi_identities():
    good = {"grf": 50.0, "fgu": 49.0, "tgu": 1.0, "eg": 98.0}
    assert checks.kpi_identities(good) == []
    assert checks.kpi_identities({**good, "tgu": 1.001})
    assert checks.kpi_identities({**good, "eg": 97.9})
    assert checks.kpi_identities({**good, "tgu": 1.0001}, checks.CSV_HALF_ULP) == []


@pytest.fixture(scope="module")
def smoke():
    """Tiny-horizon runs, one per (workload, trace), shared by the tests below."""
    results: dict[tuple[str, int], dict] = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in results:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--days", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            results[workload, trace] = json.loads(out.stdout.strip().splitlines()[-1])
        return results[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(smoke, workload, trace):
    result = smoke(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", [
    "week_compare", "week_simulate",
    pytest.param("ramp_month", marks=pytest.mark.xfail(strict=True, reason=SWEEP_DEFECT)),
])
def test_smoke_outputs_pass_their_checks(smoke, workload):
    for trace in (0, 1):
        result = smoke(workload, trace)
        assert result["correct"] and result["failed"] == 0


def test_corrupted_outputs_count_as_failures(monkeypatch):
    ctx = run.prepare(run.WORKLOADS["week_simulate"], seed=2, days=1)
    try:
        assert run.invoke_cli(ctx).problems == []
        real_spawn = run.spawn

        def corrupting_spawn(argv, cwd, log):
            done = real_spawn(argv, cwd, log)
            kpi = ctx.work / "out" / "kpi.json"
            doc = json.loads(kpi.read_text())
            doc["kpis_pct"]["tgu"] += 1.0
            kpi.write_text(json.dumps(doc))
            trace = ctx.work / "out" / "trace.csv"
            rows = trace.read_text().splitlines()
            cells = rows[5].split(",")
            cells[5] = repr(float(cells[5]) + 1.0)          # p_grid
            rows[5] = ",".join(cells)
            trace.write_text("\n".join(rows) + "\n")
            return done

        monkeypatch.setattr(run, "spawn", corrupting_spawn)
        problems = " | ".join(run.invoke_cli(ctx).problems)
        assert "GRF" in problems
        assert "power balance" in problems
        assert "differ from the first repeat" in problems
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def test_a_span_that_never_fires_is_an_error():
    spans = [{"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 1.0,
              "rss_delta_mb": 0.0, "attrs": {}}]
    with pytest.raises(run.BenchError, match="cli.load_config"):
        run.span_metrics(spans, ("cli.main", "cli.load_config"))


def test_self_times_sum_to_the_root_span():
    def span(i, name, parent, start, end, **attrs):
        return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
                "rss_delta_mb": 0.0, "attrs": attrs}

    spans = [span(0, "cli.main", None, 0.0, 10.0),
             span(1, "ems.simulate.SCM", 0, 1.0, 7.0, ticks=3),
             span(2, "forecast.forecast_for", 1, 2.0, 3.0, charge=True)]
    m = run.span_metrics(spans, ())
    assert (m["cli.self_s"], m["ems.self_s"], m["forecast.self_s"]) == (4.0, 5.0, 1.0)
    assert m["bench.self_s_total"] == 10.0
    assert m["ems.simulate.SCM.s"] == 6.0 and m["ems.simulate.us_per_tick"] == 2e6
    assert m["forecast.charge_nights"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "week_compare",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
