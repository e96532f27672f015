"""Output checks.  Each returns a list of problems; an empty list passes.

They read only the files the CLI writes (``compare.csv``, ``trace.csv``,
``window_sweep.csv``), whose formats are the program's stable contract,
never its in-memory objects.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

BALANCE_TOL_W = 1e-6
FULL_EXECUTION_RTOL = 1e-9     # as in pvems.kpi: a command ran "in full"
CSV_HALF_ULP = 5e-5            # compare.csv rounds percentages to 4 places
MODES = ("scm", "idle", "ramp_control", "night_charge")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def kpi_identities(pct: dict, rounding: float = 0.0) -> list[str]:
    """GRF = FGU + TGU and EG = FGU / GRF, on percentages.

    ``rounding`` is the half-unit of the printed values; 0 means full
    precision, where only float round-off is allowed.
    """
    grf, fgu, tgu, eg = (pct.get(k) for k in ("grf", "fgu", "tgu", "eg"))
    if None in (grf, fgu, tgu):
        return [f"GRF/FGU/TGU undefined: {grf}, {fgu}, {tgu}"]
    problems = []
    tol = 3 * rounding + 1e-9 * max(1.0, abs(grf))
    if abs(grf - (fgu + tgu)) > tol:
        problems.append(f"GRF {grf} != FGU {fgu} + TGU {tgu}")
    if grf > 0:
        want = 100.0 * fgu / grf
        tol = rounding * (1 + 100.0 / grf + 100.0 * fgu / grf ** 2) + 1e-9 * max(1.0, want)
        if eg is None or abs(eg - want) > tol:
            problems.append(f"EG {eg} != 100 * FGU / GRF = {want}")
    return problems


def read_compare_csv(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    """Strategy names and the rows keyed by their first cell."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0][1:], {row[0]: row[1:] for row in rows[1:]}


def compare_pct(rows: dict[str, list[str]], column: int) -> dict:
    """One strategy's KPI percentages, ``None`` where the cell is empty."""
    return {kpi.lower(): (float(cells[column]) if cells[column] else None)
            for kpi, cells in rows.items() if kpi.isupper()}


def crr_order(crr: list[float], strict: bool) -> list[str]:
    """SCM <= SCM_RR <= SCM_RR_WF (strictly when ``strict``)."""
    pairs = list(zip(crr, crr[1:]))
    bad = [(a, b) for a, b in pairs if (a >= b if strict else a > b)]
    return [f"CRR order {'strict ' if strict else ''}broken: {crr}"] if bad else []


def read_trace(path: Path, standby_w: float) -> tuple[list[str], dict]:
    """Power balance on every row, plus mode and clamp counts.

    Balance: ``pv + grid = load + battery + standby`` to 1e-6 W.
    """
    counts = {mode: 0 for mode in MODES}
    rows = clamped = full = 0
    worst = 0.0
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        i_pv, i_load, i_cmd, i_act, i_grid, i_mode = (
            col[c] for c in ("p_pv", "p_load", "p_batt_cmd", "p_batt_actual",
                             "p_grid", "mode"))
        for row in reader:
            rows += 1
            pv, load, cmd, act, grid = (float(row[i]) for i in
                                        (i_pv, i_load, i_cmd, i_act, i_grid))
            worst = max(worst, abs(pv + grid - (load + act + standby_w)))
            mode = row[i_mode]
            counts[mode] = counts.get(mode, 0) + 1
            if cmd != act:
                clamped += 1
            if mode == "ramp_control" and abs(cmd - act) <= FULL_EXECUTION_RTOL * max(1.0, abs(cmd)):
                full += 1
    problems = []
    if worst > BALANCE_TOL_W:
        problems.append(f"power balance off by {worst} W")
    unknown = set(counts) - set(MODES)
    if unknown:
        problems.append(f"unknown dispatch modes {sorted(unknown)}")
    return problems, {"rows": rows, "modes": counts, "clamped": clamped,
                      "ramp_full": full, "worst_residual_w": worst}


def read_window_sweep(path: Path) -> list[tuple[float, int]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(w), int(n)) for w, n in rows]


def sweep_non_increasing(sweep: list[tuple[float, int]]) -> list[str]:
    ordered = sorted(sweep)
    counts = [n for _, n in ordered]
    if any(a < b for a, b in zip(counts, counts[1:])):
        return [f"window sweep not non-increasing in window length: {ordered}"]
    return []
