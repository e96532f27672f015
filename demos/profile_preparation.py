"""Bring raw profile files onto the simulation grid.

PV loggers and load meters rarely agree on sampling: here a 2 s PV
trace meets a 15-minute average load profile.  The load is expanded
with zero-order hold (each 15-minute average is an interval mean, so
holding it preserves interval energy exactly) and both series are
truncated to their common span.
"""

import tempfile
from pathlib import Path

from pvems.fixtures import block_load, fluctuating_week_pv
from pvems.timeseries import align, load_power_csv, write_power_csv

with tempfile.TemporaryDirectory() as tmp:
    pv_path = Path(tmp) / "pv_2s.csv"
    load_path = Path(tmp) / "load_15min.csv"
    write_power_csv(fluctuating_week_pv(days=2), pv_path)
    write_power_csv(block_load(days=2), load_path)

    pv = load_power_csv(pv_path, expected_unit="W")
    load = load_power_csv(load_path, expected_unit="W")
    print(f"pv:   {len(pv):7d} samples at {pv.step_s:5g} s from {pv.start}")
    print(f"load: {len(load):7d} samples at {load.step_s:5g} s from {load.start}")

    pv_a, load_a = align(pv, load)  # the load onto the PV's grid, by hold
    print(f"\naligned: {len(pv_a)} samples at {pv_a.step_s:g} s, "
          f"{pv_a.start} .. {pv_a.end}")

    # hold keeps the load's interval energy intact: power times step,
    # summed as the KPI accounting sums ticks.  The aligned ticks cover
    # the load's intervals up to its last sample, which starts none
    e_before = load.values[:-1].sum() * load.step_s / 3600.0
    e_after = load_a.values.sum() * load_a.step_s / 3600.0
    print(f"load energy before/after resampling: "
          f"{e_before / 1e3:.2f} / {e_after / 1e3:.2f} kWh")
