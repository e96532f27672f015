"""Memory of the stages that a week run repeats: what a stage allocates
beyond what it returns stays within a fixed bound, and does not grow
when the seed week is tiled to four weeks.

The bounds are traced bytes (``tracemalloc``) set just above what the
seed week measures (numpy 2.4): a stage that builds one more
full-length column exceeds them on the week (a float column of the week
is 2.4 MB, a bool column 0.3 MB), and by four times that on four weeks.
The bound of the whole trace writer was set just above what the seed
week measured with the writer that left cells below 1e-4 to ``repr``.
The reader and ``align`` keep one bound for both horizons, set just
above what they measure once they fill one values array and sample a
block at a time; the reader scales a kW profile in place, within the
same bound.  The pre-pass allocates its outputs first and fills them in
one walk over blocks of ticks, so its bound covers the block transient
while every output is held (0.82 MB on both horizons).  Before that walk
the same measure read 0.75 and 0.28 MB, while ``violations`` alone took
3.0 and 12.1 MB: it ran first, on the whole series, and the outputs
allocated after it returned were larger than its transient.
"""

import tracemalloc

import pytest

from pvems.battery import BatteryParams
from pvems.cli import write_trace_csv
from pvems.ems import MODES, EmsConfig, StrategyKind, prepass, simulate
from pvems.fixtures import block_load, fluctuating_week_pv
from pvems.kpi import accumulate
from pvems.ramp import RampConfig
from pvems.timeseries import (PowerSeries, align, load_power_csv, write_grid_csv,
                              write_power_csv)

MB = 1e6
PREPASS_MB = 0.85  # 0.82 on both horizons
ACCUMULATE_MB = 1.05  # 0.94
WRITE_GRID_CSV_MB = 1.65  # 1.50
WRITE_TRACE_CSV_MB = 5.1  # 4.93 (four weeks 4.97) with repr; 4.29 now
# 6.99 (four weeks 7.15) with one values array; the list of chunks
# joined at the end took 6.66 and 10.90.  A kW profile: 7.48 (7.53)
# scaled in place; 7.48 (10.89) with a scaled copy
LOAD_POWER_CSV_MB = 7.6
ALIGN_MB = 2.4  # 2.16 both sampling a block at a time; 4.84 and 19.35 at once
POWER_SERIES_MB = 0.05  # 0.001 checked from min and max; 0.30 and 1.21 with isfinite


def peak_above_result(call):
    """``call()`` under ``tracemalloc``: its result, and the peak of the
    traced memory above what is still held when it returns, in MB."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - held) / MB


@pytest.fixture(scope="module", params=[7, 28], ids=["week", "4_weeks"])
def horizon(request):
    """The seed week, or the seed week tiled to four weeks: profiles, the
    SCM_RR configuration and its trace."""
    days = request.param
    pv, load = align(fluctuating_week_pv(days=days), block_load(days=days))
    cfg = EmsConfig(strategy=StrategyKind.SCM_RR)
    trace = simulate(pv, load, cfg, BatteryParams())
    return pv, cfg, trace


def test_align(horizon):
    # the 2 s PV keeps its samples, and the 15 min load is held at them
    pv, _, trace = horizon
    load = block_load(days=round(len(pv) * pv.step_s / 86_400))
    (_, held), peak = peak_above_result(lambda: align(pv, load))
    assert held.values.tobytes() == trace.p_load.tobytes()
    assert peak <= ALIGN_MB


def test_prepass(horizon):
    pv, cfg, _ = horizon
    pre, peak = peak_above_result(lambda: prepass(pv, cfg))
    assert len(pre.window_mean) == len(pv)
    assert peak <= PREPASS_MB


def test_accumulate(horizon):
    _, cfg, trace = horizon
    totals, peak = peak_above_result(
        lambda: accumulate(trace, RampConfig()))
    assert totals.n_ramps_original > 0
    assert peak <= ACCUMULATE_MB


def test_write_grid_csv(horizon, tmp_path):
    _, _, trace = horizon
    path = tmp_path / "grid.csv"
    columns = {"p_pv": trace.p_pv, "p_load": trace.p_load, "mode": trace.mode}
    _, peak = peak_above_result(lambda: write_grid_csv(
        path, trace.start, trace.step, columns,
        labels={"mode": [m.value for m in MODES]}))
    with path.open("rb") as fh:
        assert sum(1 for _ in fh) == 1 + len(trace)
    assert peak <= WRITE_GRID_CSV_MB


def test_write_trace_csv(horizon, tmp_path):
    # all nine columns: SCM_RR's SOC moves on every row, so each of its
    # cells is formatted, and its commands are full of cells below 1e-4
    _, _, trace = horizon
    path = tmp_path / "trace.csv"
    _, peak = peak_above_result(lambda: write_trace_csv(trace, path))
    with path.open("rb") as fh:
        assert sum(1 for _ in fh) == 1 + len(trace)
    assert peak <= WRITE_TRACE_CSV_MB


def test_load_power_csv(horizon, tmp_path):
    # the PV profile as a grid CSV of 2 s rows, in W and in kW: every
    # line after the first two is read on the grid path
    pv, _, _ = horizon
    kw = PowerSeries(pv.start, pv.step_s, pv.values / 1000.0)
    for series, unit, watts in ((pv, "W", pv.values), (kw, "kW", kw.values * 1000.0)):
        path = tmp_path / f"pv_{unit}.csv"
        write_power_csv(series, path)
        loaded, peak = peak_above_result(lambda: load_power_csv(path, unit))
        assert loaded.values.tobytes() == watts.tobytes()
        assert peak <= LOAD_POWER_CSV_MB, unit


def test_power_series(horizon):
    # the finiteness check of a new series
    pv, _, _ = horizon
    column = pv.values.copy()
    series, peak = peak_above_result(lambda: PowerSeries(pv.start, pv.step_s, column))
    assert series.values is column
    assert peak <= POWER_SERIES_MB
