"""Run the pvems CLI in this interpreter with a span around each layer call.

Usage: python3 perfbench/tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...

The spans are recorded from outside the program: the public functions
that ``pvems.cli`` calls by name are replaced in its namespace with
timing wrappers, then ``cli.main`` runs unchanged, so the traced path is
the CLI's own path.  Forecast lookups are timed through a wrapper around
the source that ``simulate`` receives as an argument.  Each span keeps
name, start, end, parent and run id, plus the rise of the process's
peak RSS (``getrusage`` high-water mark) over the call.  Spans stay in
memory and are written once, when the CLI returns.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from pvems import cli
from pvems.forecast import ChargeDecisionPolicy, should_night_charge

# pvems.cli global -> span name; the layer is the part before the dot.
WRAPPED = {
    "load_config": "cli.load_config",
    "load_profiles": "cli.load_profiles",
    "run_simulation": "cli.run_simulation",
    "compare_strategies": "cli.compare_strategies",
    "run_ramp_analysis": "cli.run_ramp_analysis",
    "write_trace_csv": "cli.write_trace_csv",
    "write_kpi_json": "cli.write_kpi_json",
    "write_histogram_csv": "cli.write_histogram_csv",
    "load_power_csv": "timeseries.load_power_csv",
    "resample": "timeseries.resample",
    "align": "timeseries.align",
    "simulate": "ems.simulate",
    "accumulate": "kpi.accumulate",
    "compute_kpis": "kpi.compute_kpis",
    "ramp_histogram": "ramp.ramp_histogram",
    "window_sweep": "ramp.window_sweep",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1]["id"] if self._open else None,
               "attrs": {}}
        self.spans.append(rec)
        self._open.append(rec)
        rss0 = _maxrss_mb()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_delta_mb"] = _maxrss_mb() - rss0
            self._open.pop()


class CountingForecastSource:
    """Times each lookup and records whether the day's code charges."""

    def __init__(self, inner, policy, tracer: Tracer) -> None:
        self.inner, self.policy, self.tracer = inner, policy, tracer

    def forecast_for(self, date):
        with self.tracer.span("forecast.forecast_for") as rec:
            day = self.inner.forecast_for(date)
        rec["attrs"]["charge"] = should_night_charge(day, self.policy)
        return day


def _annotate(tracer: Tracer, span_name: str, a: dict) -> tuple[str, dict]:
    """Span name suffix and counts for one call; may rewrap its arguments."""
    attrs: dict = {}
    if span_name == "ems.simulate":
        span_name += "." + a["cfg"].strategy.value
        attrs["ticks"] = len(a["pv"])
        if a.get("forecast_source") is not None:
            policy = a.get("policy") or ChargeDecisionPolicy()
            a["forecast_source"] = CountingForecastSource(
                a["forecast_source"], policy, tracer)
    elif span_name == "kpi.accumulate":
        attrs["ticks"] = len(a["trace"])
    elif span_name == "ramp.window_sweep":
        attrs["windows"] = len(a["windows_s"])
    return span_name, attrs


def _after(span_name: str, attrs: dict, a: dict, result) -> None:
    if span_name == "timeseries.load_power_csv":
        attrs["rows"] = len(result)
    elif span_name == "cli.write_trace_csv":
        attrs["bytes"] = Path(a["path"]).stat().st_size


def install(tracer: Tracer) -> None:
    """Replace each name in ``WRAPPED`` inside ``pvems.cli``; a missing name raises."""
    for attr, base_name in WRAPPED.items():
        func = getattr(cli, attr)

        def traced(*args, _func=func, _sig=inspect.signature(func),
                   _name=base_name, **kwargs):
            bound = _sig.bind(*args, **kwargs)
            name, attrs = _annotate(tracer, _name, bound.arguments)
            with tracer.span(name) as rec:
                rec["attrs"].update(attrs)
                result = _func(*bound.args, **bound.kwargs)
                _after(name, rec["attrs"], bound.arguments, result)
            return result

        setattr(cli, attr, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, run_id, cli_argv = Path(argv[0]), argv[1], argv[3:]
    tracer = Tracer(run_id)
    install(tracer)
    with tracer.span("cli.main"):
        rc = cli.main(cli_argv)
    spans_path.write_text(json.dumps({"rc": rc, "spans": tracer.spans}),
                          encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
