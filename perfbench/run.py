"""pvems benchmark: end-to-end CLI runs, a traced per-layer run, output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload week_compare --seed 0 --seconds 40 --trace 0

``--trace 0`` times real ``pvems`` CLI invocations, each in a fresh
interpreter, as a closed loop with one client (the next invocation
starts when the previous one has exited and its outputs are checked),
for ``--seconds`` seconds.  Each round of the loop is one CLI
invocation followed by ``SETUP_PER_ROUND`` set-up samples (fresh
interpreter, ``import pvems.cli`` and ``load_config``), so both are
sampled across the whole run.  It reports medians of ``run_s``,
``ticks_per_s`` and ``peak_rss_mb`` (from the child's ``wait4``
rusage) and of ``setup_s``.  ``--trace 1`` makes one untraced invocation and
one traced invocation (``perfbench/tracer.py``) and reports per-layer
times, counts and memory derived from the spans and from the written
outputs.  Every invocation's outputs are checked; one that exits
non-zero or fails a check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, with the
samples and provenance, go to ``.perfbench_out/results/``; the
generated inputs and outputs are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# What the installed ``pvems`` console script runs.
CLI_ENTRY_POINT = "import sys; from pvems.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5        # --trace 1
SETUP_PER_ROUND = 3      # --trace 0: set-up samples after each CLI invocation
WARMUP_SPAWNS = 2        # untimed interpreter starts that warm the file cache
REF_LOOP_ITERATIONS = 10_000_000
SWEEP_WINDOWS = "20,60,120,300,600,900"
# Default seed at the full horizon: the paper's CRR figures.
REFERENCE_CRR = ["0.0000", "90.0000", "95.7143"]
REFERENCE_CRR_WF = 95.71428571428572


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # pvems subcommand
    stem: str             # corpus file stem
    weeks: int            # horizon is --days x weeks (the month is 4 weeks)
    strategies: int       # dispatch passes per tick; 0 for PV-only analysis
    outputs: tuple[str, ...]
    spans: tuple[str, ...]  # spans the traced run must record

    def argv(self, corpus: dict[str, Path], out_dir: Path) -> list[str]:
        if self.command == "compare":
            return ["compare", "--config", str(corpus["config"]), "--out-dir", str(out_dir)]
        if self.command == "simulate":
            return ["simulate", "--config", str(corpus["config"]),
                    "--strategy", "SCM_RR_WF", "--out-dir", str(out_dir)]
        return ["ramp-analyze", "--pv", str(corpus["pv"]), "--config", str(corpus["config"]),
                "--windows", SWEEP_WINDOWS, "--out-dir", str(out_dir)]


_INGEST = ("cli.load_profiles", "timeseries.load_power_csv", "timeseries.align")
_DISPATCH = ("forecast.forecast_for", "kpi.accumulate", "kpi.compute_kpis")

WORKLOADS = {w.name: w for w in (
    Workload("week_compare", "compare", "week", 1, 3, ("compare.csv",),
             ("cli.main", "cli.load_config", "cli.compare_strategies", *_INGEST,
              "ems.simulate.SCM", "ems.simulate.SCM_RR", "ems.simulate.SCM_RR_WF",
              *_DISPATCH)),
    Workload("week_simulate", "simulate", "week", 1, 1, ("trace.csv", "kpi.json", "histogram.csv"),
             ("cli.main", "cli.load_config", "cli.run_simulation", *_INGEST,
              "ems.simulate.SCM_RR_WF", *_DISPATCH, "cli.write_trace_csv",
              "cli.write_kpi_json", "cli.write_histogram_csv", "ramp.ramp_histogram")),
    # Not a BENCHMARK.json workload: ramp.window_sweep fails the sweep
    # check on every seed (see README.md), so it runs only when named.
    Workload("ramp_month", "ramp-analyze", "month", 4, 0, ("histogram.csv", "window_sweep.csv"),
             ("cli.main", "cli.run_ramp_analysis", "timeseries.load_power_csv",
              "cli.write_histogram_csv", "ramp.ramp_histogram", "ramp.window_sweep")),
)}

LAYERS = ("cli", "timeseries", "ems", "kpi", "ramp", "forecast")


# --------------------------------------------------------------------------
# Child processes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Exit:
    rc: int
    wall_s: float
    peak_rss_mb: float


def spawn(argv: list[str], cwd: Path, log: Path) -> Exit:
    """Run one child to completion; wall time from spawn to exit."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:       # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def check_checkout() -> None:
    if not (SRC / "pvems" / "cli.py").is_file():
        raise BenchError(f"no pvems sources under {SRC}: run from the root of a checkout")
    found = subprocess.run([sys.executable, "-c", "import pvems.cli, pvems; print(pvems.__file__)"],
                           env=_child_env(), capture_output=True, text=True)
    if found.returncode != 0:
        raise BenchError(f"cannot import pvems.cli: {found.stderr.strip()}")
    if not Path(found.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"pvems imported from {found.stdout.strip()}, not {SRC}")


def measure_setup(config: Path, work: Path, samples: int) -> list[float]:
    """Fresh interpreter: ``import pvems.cli`` plus ``load_config``."""
    argv = [sys.executable, "-c",
            "import sys, pvems.cli; pvems.cli.load_config(sys.argv[1])", str(config)]
    times = []
    for _ in range(samples):
        done = spawn(argv, work, work / "setup.log")
        if done.rc != 0:
            raise BenchError("setup failed: " + (work / "setup.log").read_text())
        times.append(done.wall_s)
    return times


def ref_loop_s() -> float:
    """A fixed pure-Python loop: a slow host shows here, not only in run_s."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_ITERATIONS):
        x += i
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# Output checks


class OutputChecker:
    """Checks one workload's outputs; repeats must match the first byte for byte."""

    def __init__(self, workload: Workload, ticks: int, events: int,
                 reference: bool, standby_w: float) -> None:
        self.w, self.ticks, self.events = workload, ticks, events
        self.reference, self.standby_w = reference, standby_w
        self.first: dict[str, str] | None = None
        self.verdicts: dict[tuple, list[str]] = {}
        self.facts: dict = {}

    def __call__(self, rc: int, out_dir: Path, log: Path) -> list[str]:
        if rc != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            return [f"exit status {rc}: {' '.join(tail)}"]
        missing = [n for n in self.w.outputs if not (out_dir / n).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        digests = {n: checks.digest(out_dir / n) for n in self.w.outputs}
        key = tuple(sorted(digests.items()))
        if key not in self.verdicts:
            self.verdicts[key] = self._content(out_dir)
        problems = list(self.verdicts[key])
        if self.first is None:
            self.first = digests
        changed = [n for n in self.w.outputs if digests[n] != self.first[n]]
        if changed:
            problems.append(f"outputs differ from the first repeat: {changed}")
        return problems

    def _content(self, out: Path) -> list[str]:
        events = self.events
        problems: list[str] = []
        if self.w.command == "compare":
            names, rows = checks.read_compare_csv(out / "compare.csv")
            for i, name in enumerate(names):
                problems += [f"{name}: {p}" for p in
                             checks.kpi_identities(checks.compare_pct(rows, i), checks.CSV_HALF_ULP)]
            problems += checks.crr_order([float(c) for c in rows["CRR"]], strict=self.reference)
            if any(int(n) != events for n in rows["ramps_original"]):
                problems.append(f"ramps_original {rows['ramps_original']}, expected {events}")
            if self.reference and rows["CRR"] != REFERENCE_CRR:
                problems.append(f"CRR {rows['CRR']}, expected {REFERENCE_CRR}")
            self.facts["ramps"] = (int(rows["ramps_original"][-1]), int(rows["ramps_controlled"][-1]))
        elif self.w.command == "simulate":
            kpi = json.loads((out / "kpi.json").read_text(encoding="utf-8"))
            problems += checks.kpi_identities(kpi["kpis_pct"])
            if kpi["ramps"]["original"] != events:
                problems.append(f"ramps original {kpi['ramps']['original']}, expected {events}")
            if self.reference and abs(kpi["kpis_pct"]["crr"] - REFERENCE_CRR_WF) > 1e-9:
                problems.append(f"CRR {kpi['kpis_pct']['crr']}, expected {REFERENCE_CRR_WF}")
            trace_problems, counts = checks.read_trace(out / "trace.csv", self.standby_w)
            problems += trace_problems
            if counts["rows"] != self.ticks:
                problems.append(f"trace has {counts['rows']} rows")
            self.facts["ramps"] = (kpi["ramps"]["original"], kpi["ramps"]["controlled"])
            self.facts["trace"] = counts
        else:
            sweep = checks.read_window_sweep(out / "window_sweep.csv")
            problems += checks.sweep_non_increasing(sweep)
            if dict(sweep).get(20.0) != events:
                problems.append(f"20 s window count {dict(sweep).get(20.0)}, expected {events}")
        return problems


# --------------------------------------------------------------------------
# Runs


@dataclass
class RunContext:
    workload: Workload
    seed: int
    ticks: int            # input samples processed per invocation
    work: Path
    corpus: dict[str, Path]
    checker: OutputChecker


def prepare(workload: Workload, seed: int, days: int) -> RunContext:
    import corpus
    work = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    horizon = days * workload.weeks
    files = corpus.write_corpus(work / "inputs", seed, horizon, workload.stem)
    standby = json.loads(files["config"].read_text())["battery"]["standby_power_w"]
    checker = OutputChecker(workload, horizon * corpus.TICKS_PER_DAY,
                            horizon * corpus.EVENTS_PER_DAY,
                            seed == corpus.DEFAULT_SEED and days == 7, standby)
    ticks = max(workload.strategies, 1) * horizon * corpus.TICKS_PER_DAY
    return RunContext(workload, seed, ticks, work, files, checker)


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    problems: list[str]


def invoke_cli(ctx: RunContext, traced_spans: Path | None = None) -> Invocation:
    out_dir = ctx.work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    cli_argv = ctx.workload.argv(ctx.corpus, out_dir)
    if traced_spans is None:
        argv = [sys.executable, "-c", CLI_ENTRY_POINT, *cli_argv]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(traced_spans),
                f"{ctx.workload.name}-{ctx.seed}", "--", *cli_argv]
    log = ctx.work / "cli.log"
    done = spawn(argv, ctx.work, log)
    return Invocation(done.wall_s, done.peak_rss_mb, ctx.checker(done.rc, out_dir, log))


def closed_loop(ctx: RunContext, seconds: float) -> tuple[list[Invocation], list[float]]:
    """One client, concurrency 1; stops before a round would overrun.

    A round is one CLI invocation and ``SETUP_PER_ROUND`` set-up
    samples, so a slow phase of the host weighs on both alike.
    """
    measure_setup(ctx.corpus["config"], ctx.work, WARMUP_SPAWNS)
    runs: list[Invocation] = []
    setup: list[float] = []
    rounds: list[float] = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        runs.append(invoke_cli(ctx))
        setup += measure_setup(ctx.corpus["config"], ctx.work, SETUP_PER_ROUND)
        rounds.append(time.perf_counter() - r0)
        if time.perf_counter() - t0 + statistics.median(rounds) > seconds:
            return runs, setup


def end_to_end(ctx: RunContext, seconds: float) -> tuple[dict, list[Invocation], dict]:
    runs, setup = closed_loop(ctx, seconds)
    metrics = {
        "run_s": statistics.median(r.wall_s for r in runs),
        "ticks_per_s": statistics.median(ctx.ticks / r.wall_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup),
    }
    samples = {"run_s": [r.wall_s for r in runs],
               "peak_rss_mb": [r.peak_rss_mb for r in runs],
               "setup_s": setup}
    return metrics, runs, samples


def span_metrics(spans: list[dict], expected: tuple[str, ...]) -> dict[str, float]:
    """Per-layer totals, counts and self times from the recorded spans."""
    fired = {s["name"] for s in spans}
    missing = [name for name in expected if name not in fired]
    if missing:
        raise BenchError(f"expected spans never fired: {missing}")
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    self_s = {i: dur[i] - child[i] for i in dur}

    def total(name, key=None):
        """Sum over spans called ``name`` or nested names ``name.*``."""
        chosen = [s for s in spans if s["name"] == name or s["name"].startswith(name + ".")]
        if key is None:
            return sum(dur[s["id"]] for s in chosen)
        if key == "self":
            return sum(self_s[s["id"]] for s in chosen)
        if key == "calls":
            return len(chosen)
        if key == "rss":
            return sum(s["rss_delta_mb"] for s in chosen)
        return sum(s["attrs"].get(key, 0) for s in chosen)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    sim_s, sim_ticks = total("ems.simulate"), total("ems.simulate", "ticks")
    acc_s, acc_ticks = total("kpi.accumulate"), total("kpi.accumulate", "ticks")
    csv_s, csv_rows = total("timeseries.load_power_csv"), total("timeseries.load_power_csv", "rows")
    trace_s, trace_mb = total("cli.write_trace_csv"), total("cli.write_trace_csv", "bytes") / 1e6
    m = {
        "ems.simulate.SCM.s": total("ems.simulate.SCM"),
        "ems.simulate.SCM_RR.s": total("ems.simulate.SCM_RR"),
        "ems.simulate.SCM_RR_WF.s": total("ems.simulate.SCM_RR_WF"),
        "ems.simulate.us_per_tick": per(sim_s, sim_ticks, 1e6),
        "ems.simulate.rss_delta_mb": total("ems.simulate", "rss"),
        "kpi.accumulate.s": acc_s,
        "kpi.accumulate.us_per_tick": per(acc_s, acc_ticks, 1e6),
        "kpi.compute_kpis.s": total("kpi.compute_kpis"),
        "cli.write_trace_csv.s": trace_s,
        "cli.write_trace_csv.mb": trace_mb,
        "cli.write_trace_csv.mb_per_s": per(trace_mb, trace_s),
        "cli.write_kpi_json.s": total("cli.write_kpi_json"),
        "cli.write_histogram_csv.s": total("cli.write_histogram_csv"),
        "timeseries.load_power_csv.s": csv_s,
        "timeseries.load_power_csv.rows": csv_rows,
        "timeseries.load_power_csv.rows_per_s": per(csv_rows, csv_s),
        "timeseries.load_power_csv.rss_delta_mb": total("timeseries.load_power_csv", "rss"),
        "timeseries.align.s": total("timeseries.align"),
        "cli.load_profiles.self_s": total("cli.load_profiles", "self"),
        "ramp.window_sweep.s": total("ramp.window_sweep"),
        "ramp.window_sweep.windows": total("ramp.window_sweep", "windows"),
        "ramp.ramp_histogram.s": total("ramp.ramp_histogram"),
        "forecast.forecast_for.calls": total("forecast.forecast_for", "calls"),
        "forecast.forecast_for.s": total("forecast.forecast_for"),
        "forecast.charge_nights": total("forecast.forecast_for", "charge"),
        "cli.load_config.s": total("cli.load_config"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(layer, "self")
    m["bench.self_s_total"] = sum(self_s.values())
    return m


def count_metrics(facts: dict) -> dict[str, float]:
    """Behaviour counts from the written trace.csv / kpi.json / compare.csv."""
    trace = facts.get("trace", {"modes": {}, "clamped": 0, "ramp_full": 0})
    modes = trace["modes"]
    ramp_ticks = modes.get("ramp_control", 0)
    original, controlled = facts.get("ramps", (0, 0))
    m = {f"ems.mode.{mode}": modes.get(mode, 0)
         for mode in ("scm", "idle", "ramp_control", "night_charge")}
    m["battery.clamped_ticks"] = trace["clamped"]
    m["ems.ramp_control.full_ratio"] = trace["ramp_full"] / ramp_ticks if ramp_ticks else 0.0
    m["kpi.ramps_original"] = original
    m["kpi.ramps_controlled"] = controlled
    return m


def traced(ctx: RunContext) -> tuple[dict, list[Invocation], dict]:
    setup = statistics.median(measure_setup(ctx.corpus["config"], ctx.work, SETUP_SAMPLES))
    plain = invoke_cli(ctx)
    spans_path = ctx.work / "spans.json"
    with_spans = invoke_cli(ctx, traced_spans=spans_path)
    if not spans_path.is_file():
        raise BenchError("traced run wrote no spans: " + (ctx.work / "cli.log").read_text()[-2000:])
    spans = json.loads(spans_path.read_text())["spans"]
    metrics = span_metrics(spans, ctx.workload.spans)
    metrics.update(count_metrics(ctx.checker.facts))
    overhead = with_spans.wall_s - plain.wall_s
    metrics["bench.trace_overhead_s"] = overhead
    gap = plain.wall_s - metrics["bench.self_s_total"]
    accounting = {"untraced_run_s": plain.wall_s, "traced_run_s": with_spans.wall_s,
                  "setup_s": setup, "self_s_total": metrics["bench.self_s_total"],
                  "unaccounted_s": gap, "allowed_s": abs(overhead) + setup,
                  "within": abs(gap) <= abs(overhead) + setup}
    return metrics, [plain, with_spans], {"accounting": accounting, "spans": spans}


# --------------------------------------------------------------------------
# Reporting


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args: argparse.Namespace) -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": args.seed, "git_commit": git_commit(),
            "platform": platform.platform(),
            "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "argv": sys.argv[1:]}


def spec() -> dict:
    """BENCHMARK.json: workload reasons, metric names and units, run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: Workload, args: argparse.Namespace) -> dict:
    doc = spec()
    units = {m["name"]: m["unit"] for m in doc["per_layer" if args.trace else "end_to_end"]}
    why = next((w["why"] for w in doc["workloads"] if w["name"] == workload.name),
               "not a BENCHMARK.json workload")
    ctx = prepare(workload, args.seed, args.days)
    try:
        ref = ref_loop_s()
        if args.trace:
            metrics, runs, extra = traced(ctx)
            metrics["host.ref_loop_s"] = ref
        else:
            metrics, runs, extra = end_to_end(ctx, args.seconds)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    failed = sum(1 for r in runs if r.problems)
    problems = sorted({p for r in runs for p in r.problems})
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload.name, "why": why, "days": args.days * workload.weeks,
              "trace": args.trace, "provenance": provenance(args), "host.ref_loop_s": ref,
              "failed_frac": failed / len(runs), "problems": problems,
              "samples": extra, "output_facts": ctx.checker.facts, "result": result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed}: {why}")
    n = len(runs)
    for name, unit in units.items():
        count = "" if args.trace else \
            f"  (median of {len(extra['setup_s']) if name == 'setup_s' else n})"
        print(f"  {name:40s} {metrics[name]:.6g} {unit}{count}")
    print(f"  {'failed_frac':40s} {failed}/{n} = {failed / n:.6g} ratio")
    if "host.ref_loop_s" not in units:
        print(f"  {'host.ref_loop_s':40s} {ref:.6g} s")
    if args.trace:
        a = extra["accounting"]
        print(f"  self-time accounting: run_s {a['untraced_run_s']:.3f} s - self total "
              f"{a['self_s_total']:.3f} s = {a['unaccounted_s']:.3f} s, allowed "
              f"|overhead| + setup_s = {a['allowed_s']:.3f} s: "
              f"{'ok' if a['within'] else 'NOT MET'}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    print(f"  results: {path.relative_to(ROOT)}")
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs the BENCHMARK.json workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--days", type=int, default=7,
                        help="week horizon in days (ramp_month uses four times "
                             "this); smaller values are for smoke tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    try:
        check_checkout()
        sys.path.insert(0, str(SRC))
        names = ([w["name"] for w in spec()["workloads"]] if args.workload == "all"
                 else [args.workload])
        results = {name: run_workload(WORKLOADS[name], args) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
