"""Profile fuzzing: ``pvems simulate`` on generated PV and load CSVs.

Each file has 2 to 200 rows, with or without a header, LF or CRLF line
ends and a final line end or none, in W or kW, and some rows with
``-0.0``, a power near overflow, or a stamp off the grid, repeated or
past year 9999.  A run either exits 0 with its three outputs replaced,
the power balance held on every row to 1e-6 W, the SOC in its window,
no NaN KPI and a rerun byte for byte the same; or exits 1 with one
``error:`` line, the previous outputs intact and no temporary directory
left.
"""

import contextlib
import io
import json
import math
import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from pvems import cli
from pvems.fixtures import WEEK_START, default_config, write_fixture_corpus

OUTPUTS = ("histogram.csv", "kpi.json", "trace.csv")
SEED = default_config()
# a start whose grid runs past 9999-12-31T23:59:58 after 30 rows of 2 s
LATE = np.datetime64("9999-12-31T23:59:00", "s")
NEAR_OVERFLOW = [1.7976931348623157e308, -1.7976931348623157e308, 1e308, 8.9e307]
ROW_KINDS = ["negative_zero", "overflow", "off", "repeated"]


@st.composite
def profile_csv(draw, start, step_s):
    """The text of a profile CSV on a grid of ``step_s`` seconds from
    ``start``, and its unit; up to three rows are of a kind of
    ``ROW_KINDS``."""
    n = draw(st.integers(2, 200))
    unit = draw(st.sampled_from(["W", "kW"]))
    scale = 1e-3 if unit == "kW" else 1.0
    lines = ["timestamp,power"] if draw(st.booleans()) else []
    stamps = start + np.arange(n) * np.timedelta64(step_s, "s")
    kinds = dict(draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(ROW_KINDS)),
                               max_size=3)))
    for k, stamp in enumerate(stamps):
        kind = kinds.get(k)
        value = draw(st.floats(0.0, 8_000.0)) * scale
        if kind == "negative_zero":
            value = -0.0
        elif kind == "overflow":
            value = draw(st.sampled_from(NEAR_OVERFLOW))
        elif kind == "off":
            stamp = stamp + np.timedelta64(1, "s")
        elif kind == "repeated" and k:
            stamp = stamps[k - 1]
        # numpy writes the years past 9999 that datetime cannot hold
        lines.append(f"{np.datetime_as_string(stamp)}Z,{value!r}")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    final = end if draw(st.booleans()) else ""
    return end.join(lines) + final, unit


@st.composite
def profile_pairs(draw):
    """PV at the 2 s tick and a load at 2 s to 15 min, from one start."""
    week = np.datetime64(WEEK_START.replace(tzinfo=None), "s")
    start = draw(st.sampled_from([week, week, week, LATE]))
    start = start + np.timedelta64(draw(st.integers(0, 3_600)), "s")
    pv = draw(profile_csv(start, 2))
    load = draw(profile_csv(start, draw(st.sampled_from([2, 10, 60, 900]))))
    strategy = draw(st.sampled_from(["SCM", "SCM_RR", "SCM_RR_WF"]))
    return pv, load, strategy


def simulate(config_path, out_dir):
    """``pvems simulate``'s exit code and stderr."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["simulate", "--config", str(config_path),
                         "--out-dir", str(out_dir)])
    return code, err.getvalue()


def check_outputs(out_dir, battery):
    """The power balance, the SOC window and the KPIs of a run's outputs."""
    trace = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1,
                       usecols=(1, 2, 4, 5, 6))
    pv, load, actual, grid, soc = trace.reshape(-1, 5).T
    residual = pv + grid - (load + actual + battery["standby_power_w"])
    assert (np.abs(residual) <= 1e-6).all(), np.abs(residual).max()
    assert ((battery["soc_min"] <= soc) & (soc <= battery["soc_max"])).all()
    kpis = json.loads((out_dir / "kpi.json").read_text())["kpis_pct"]
    assert all(v is None or math.isfinite(v) for v in kpis.values()), kpis


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("profile_fuzz")
    return write_fixture_corpus(root / "fx"), root


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=profile_pairs())
def test_simulate_writes_all_outputs_or_one_error(corpus, case):
    paths, root = corpus
    (pv_text, pv_unit), (load_text, load_unit), strategy = case
    run = root / "run"
    run.mkdir(exist_ok=True)
    (run / "pv.csv").write_bytes(pv_text.encode())
    (run / "load.csv").write_bytes(load_text.encode())
    doc = {**SEED, "pv_path": "pv.csv", "load_path": "load.csv", "pv_unit": pv_unit,
           "load_unit": load_unit, "strategy": strategy,
           "forecast": {**SEED["forecast"],
                        "fixture_path": str(paths["forecast_cloudy"])}}
    config_path = run / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = run / "out"
    out_dir.mkdir(exist_ok=True)
    previous = {}
    for name in OUTPUTS:
        previous[name] = f"previous {name}\n".encode()
        (out_dir / name).write_bytes(previous[name])

    code, err = simulate(config_path, out_dir)
    event(f"exit {code}" + (f" {err.split(':')[-1].strip()[:40]}" if code else ""))
    files = {p.name: p.read_bytes() if p.is_file() else None for p in out_dir.iterdir()}
    if code == 0:
        assert sorted(files) == list(OUTPUTS)
        assert all(files[name] != previous[name] for name in OUTPUTS)
        check_outputs(out_dir, SEED["battery"])
        again = run / "again"
        assert simulate(config_path, again)[0] == 0
        assert {p.name: p.read_bytes() for p in again.iterdir()} == files
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert files == previous
