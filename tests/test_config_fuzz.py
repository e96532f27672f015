"""Config fuzzing: ``cli.load_config`` on random subsets of the seed
config's keys, each set to its seed value or to a random JSON value.

A config is either refused with one ``CliError`` line that starts with
its path, or read into a ``RunConfig`` whose float fields are all
finite; a few accepted configs also run ``simulate`` end to end on the
smooth day.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from pvems import cli
from pvems.fixtures import default_config, write_fixture_corpus

SEED = default_config()

# half of them JSON's NaN and Infinity, which Python's json reads
json_values = st.sampled_from([math.nan, math.inf, -math.inf]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=5)


@st.composite
def configs(draw, values=None, keep=()):
    """Some of the seed config's keys, always those in ``keep``, and
    some of each section's, at their seed values.  With ``values``, up
    to two of those keys get a value drawn from it instead, and one time
    in ten a key that no config has is added."""
    doc = {}
    for key, seed in SEED.items():
        if key in keep or draw(st.booleans()):
            doc[key] = ({k: v for k, v in seed.items() if draw(st.booleans())}
                        if isinstance(seed, dict) else seed)
    if values is not None:
        slots = [(doc, key) for key in doc] + [
            (section, key) for section in doc.values() if isinstance(section, dict)
            for key in section]
        for i in draw(st.lists(st.sampled_from(range(len(slots))), max_size=2)):
            section, key = slots[i]
            section[key] = draw(values)
        if draw(st.sampled_from(range(10))) == 9:  # shrinks to no such key
            doc[draw(st.text(max_size=6))] = draw(values)
    return doc


def float_fields(obj):
    """(name, value) of every field annotated ``float`` in ``obj`` and in
    the dataclasses it holds."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from float_fields(value)
        elif hints[f.name] is float:
            yield f.name, value


def check_load(path: Path):
    """``load_config(path)`` under the oracle; the config or ``None``."""
    try:
        config = cli.load_config(path)
    except cli.CliError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") and "\n" not in message, message
        event("refused")
        return None
    event("accepted")
    assert isinstance(config, cli.RunConfig)
    for name, value in float_fields(config):
        assert type(value) is float and math.isfinite(value), (name, value)
    return config


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def smooth_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return write_fixture_corpus(root), root


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=configs(json_values, keep=("pv_path", "load_path")))
def test_load_config_accepts_or_names_the_config(scratch, doc):
    path = scratch / "config.json"
    path.write_text(json.dumps(doc))
    check_load(path)


@st.composite
def runnable_configs(draw):
    """Configs from the seed's values, with each number, one time in
    eight, scaled or replaced by one near it, of either sign or zero.
    The tick and the window stay the seed's, so that a run's grid stays
    one smooth day."""
    doc = draw(configs(keep=("pv_path", "load_path")))
    for section in (doc, *(v for v in doc.values() if isinstance(v, dict))):
        for key, value in section.items():
            if (type(value) is float and key not in ("tick_s", "window_s")
                    and draw(st.sampled_from(range(8))) == 7):
                section[key] = draw(st.sampled_from([0.0, 0.5, 2.0, -1.0]).map(value.__mul__)
                                    | st.floats(-50.0, 50.0))
    return doc


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=runnable_configs())
def test_accepted_configs_run_end_to_end(smooth_corpus, doc):
    paths, root = smooth_corpus
    doc = {**doc, "pv_path": str(paths["pv_smooth_day"]),
           "load_path": str(paths["load_smooth_day"])}
    if "forecast" in doc:
        doc["forecast"] = {**doc["forecast"],
                           "fixture_path": str(paths["forecast_cloudy"])}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        config_path, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
        config_path.write_text(json.dumps(doc))
        config = check_load(config_path)
        assume(config is not None)  # refusals are the test above's
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["simulate", "--config", str(config_path),
                             "--out-dir", str(out_dir)])
        event(f"exit {code}")
        written = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
        if code == 0:
            assert written == ["histogram.csv", "kpi.json", "trace.csv"]
            soc = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1,
                             usecols=6)
            assert ((config.battery.soc_min <= soc) & (soc <= config.battery.soc_max)).all()
            assert "NaN" not in (out_dir / "kpi.json").read_text()
        else:
            text = err.getvalue()
            assert code == 1 and text.startswith("error: ") and text.count("\n") == 1, text
            assert written == []

