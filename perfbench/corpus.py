"""Seeded input generator for the benchmark.

The program under test only ever sees the CSV and JSON files written
here.  Seed 0 reproduces the ``pvems --seed-fixtures`` week corpus byte
for byte (``pv_week.csv``, ``load_week.csv``, ``forecast_mixed.json``,
``config_week.json``), so the paper's reference numbers apply to it.
Any other seed moves each day's four midday dropout clusters by whole
minutes, picks each dropout's floor level, and draws each day's
forecast code.  Every step of every day still crosses the 10 %/min
limit under the 20 s window, so each day holds exactly
``EVENTS_PER_DAY`` violation events, and at least one night charges.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from pvems.fixtures import (DEFAULT_REGION_ID, PV_HIGH_W, PV_MID_W,
                            WEEK_START, block_load, default_config,
                            forecast_payload)
from pvems.forecast import DEFAULT_CHARGE_IDS, WEATHER_TYPE_NAMES
from pvems.timeseries import write_power_csv

DEFAULT_SEED = 0
TICK_S = 2
TICKS_PER_DAY = 86400 // TICK_S
EVENTS_PER_DAY = 20      # sunrise 2 + four dropout clusters x 4 + sunset 2

# The same day layout as pvems.fixtures: one swing is two steps 30 s
# apart inside one minute; a cluster drops for ten minutes.
_CLUSTER_STARTS_S = (8 * 3600 + 120, 10 * 3600, 12 * 3600, 14 * 3600)
_FIRST_CLUSTER_SHIFT_MIN = (0, 40)       # the first cluster cannot move earlier
_CLUSTER_SHIFT_MIN = (-40, 40)
_FLOOR_LEVELS_W = np.arange(0.0, 1300.0, 100.0)   # every step stays >= 1800 W
_MIXED_WEEK_CODES = [1, 4, 4, 4, 4, 1, 1, 1]       # forecast_mixed.json
CHARGE_CODES = sorted(DEFAULT_CHARGE_IDS)
_NO_CHARGE_CODES = sorted(c for c in WEATHER_TYPE_NAMES
                          if c > 0 and c not in DEFAULT_CHARGE_IDS)


def _day_events(rng: np.random.Generator | None) -> list[tuple[int, float]]:
    """(second of day, new level) for one day; ``rng=None`` is the fixture day."""
    events = [(8 * 3600 + 10, PV_MID_W), (8 * 3600 + 40, PV_HIGH_W)]
    for i, t0 in enumerate(_CLUSTER_STARTS_S):
        shift, floor = 0, 0.0
        if rng is not None:
            lo, hi = _FIRST_CLUSTER_SHIFT_MIN if i == 0 else _CLUSTER_SHIFT_MIN
            shift = 60 * int(rng.integers(lo, hi + 1))
            floor = float(rng.choice(_FLOOR_LEVELS_W))
        t = t0 + shift
        events += [(t + 10, PV_MID_W), (t + 40, floor),
                   (t + 610, PV_MID_W), (t + 640, PV_HIGH_W)]
    events += [(16 * 3600 + 10, PV_MID_W), (16 * 3600 + 40, 0.0)]
    return events


def pv_values(seed: int, days: int) -> np.ndarray:
    """Piecewise-constant 2 s PV samples for ``days`` days."""
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed)
    out = np.empty(days * TICKS_PER_DAY)
    for d in range(days):
        day = out[d * TICKS_PER_DAY:(d + 1) * TICKS_PER_DAY]
        level, prev = 0.0, 0
        for second, new_level in _day_events(rng):
            idx = second // TICK_S
            day[prev:idx] = level
            level, prev = new_level, idx
        day[prev:] = level
    return out


def forecast_codes(seed: int, days: int) -> list[int]:
    """One weather code per day plus one; at least one night charges."""
    if seed == DEFAULT_SEED and days + 1 <= len(_MIXED_WEEK_CODES):
        return _MIXED_WEEK_CODES[:days + 1]
    rng = np.random.default_rng([seed, 1])
    charge = rng.random(days + 1) < 0.5
    if not charge[:days].any():
        charge[int(rng.integers(days))] = True
    return [int(rng.choice(CHARGE_CODES if c else _NO_CHARGE_CODES))
            for c in charge]


def write_pv_csv(values: np.ndarray, path: Path) -> None:
    """Same bytes as ``pvems.timeseries.write_power_csv``, written per day."""
    start = np.datetime64(WEEK_START.replace(tzinfo=None), "s")
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,power\r\n")
        for d0 in range(0, len(values), TICKS_PER_DAY):
            chunk = values[d0:d0 + TICKS_PER_DAY].tolist()
            stamps = np.datetime_as_string(
                start + (d0 + np.arange(len(chunk))) * np.timedelta64(TICK_S, "s"),
                unit="s")
            text = {v: repr(v) for v in set(chunk)}
            fh.write("".join(f"{t}Z,{text[v]}\r\n" for t, v in zip(stamps, chunk)))


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def write_corpus(out_dir: Path, seed: int, days: int, stem: str = "week") -> dict[str, Path]:
    """Write PV, load, forecast and config files; returns name -> path.

    With ``stem="week"``, ``days=7`` and the default seed the four files
    equal their ``--seed-fixtures`` counterparts.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    forecast_name = "forecast_mixed.json" if stem == "week" else f"forecast_{stem}.json"
    paths = {
        "pv": out_dir / f"pv_{stem}.csv",
        "load": out_dir / f"load_{stem}.csv",
        "forecast": out_dir / forecast_name,
        "config": out_dir / f"config_{stem}.json",
    }
    write_pv_csv(pv_values(seed, days), paths["pv"])
    write_power_csv(block_load(days=days), paths["load"])
    _write_json(forecast_payload(DEFAULT_REGION_ID, WEEK_START.date(),
                                 forecast_codes(seed, days)), paths["forecast"])
    config = default_config()
    config["pv_path"] = f"./{paths['pv'].name}"
    config["load_path"] = f"./{paths['load'].name}"
    config["forecast"]["fixture_path"] = f"./{paths['forecast'].name}"
    _write_json(config, paths["config"])
    return paths
