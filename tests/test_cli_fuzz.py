"""Fuzzed exit-code contract: whatever a config key, a scene CSV line, a
forecast JSONL line or a rank sidecar holds, ``main()`` exits 0 or 2, never 1
(an internal error)."""

import contextlib
import io
import json
import os
from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tailscope.cli import OPTIONS, main  # noqa: E402
from tailscope.interaction import RssParams  # noqa: E402
from tailscope.perceiver import default_params  # noqa: E402
from tailscope.scene import scenes_to_csv  # noqa: E402
from tailscope.synth import SCENARIO_KINDS, ScenarioSpec, generate  # noqa: E402

# No "/" in drawn strings: a drawn output path stays inside the working directory.
TEXT = st.text(st.characters(blacklist_characters="/"), max_size=8)
PLAUSIBLE = st.sampled_from(["mean", "sample", "min_ade", "min_fde", "-", "", *SCENARIO_KINDS])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT | PLAUSIBLE,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
#: Synth allocates frames x agents rows, so those two stay small when integers.
SMALL = {"frames", "n_agents"}
DICT_KEYS = TEXT | st.sampled_from(["categories", *(f.name for f in fields(RssParams))])
SCALARS = {
    int: st.integers(),
    float: st.floats() | st.integers(),
    str: TEXT | PLAUSIBLE,
    dict: st.dictionaries(DICT_KEYS, JSON | st.integers(-2, 5), max_size=3),
}
PAIRS = sorted((cmd, key) for key, opt in OPTIONS.items() for cmd in opt.commands.split())
BASE = {
    "metrics": {"input": "scenes.csv", "out": "out.json"},
    "rank": {"input": "scenes.csv", "out": "out.json", "categories": 2},
    "eval": {
        "input": "forecasts.jsonl", "out": "out.json",
        "k": [1, 2], "topk": [50], "rank_metric": "min_ade", "rank_k": 1,
    },
    "synth": {"kind": "circle", "out": "out.csv", "frames": 4, "n_agents": 2},
}


def option_values(key):
    """Values of the declared type (with any value or length) or any JSON at all."""
    kind = OPTIONS[key].kind
    if key in SMALL:
        return st.integers(-3, 40) | JSON.filter(lambda v: type(v) is not int)
    if isinstance(kind, list):
        return st.lists(SCALARS[kind[0]], max_size=4) | JSON
    return (st.sampled_from(kind) if isinstance(kind, tuple) else SCALARS[kind]) | JSON


def forecast(sample_id, offset, k=2, horizon=4):
    gt = [[float(t), 0.0] for t in range(horizon)]
    modes = [[[float(t) + offset + m, 0.0] for t in range(horizon)] for m in range(k)]
    return {"sample_id": sample_id, "modes": modes, "probs": [0.5] * k, "gt": gt}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch working directory holding small valid inputs, entered for the module."""
    path = tmp_path_factory.mktemp("fuzz")
    kinds = ("crossing", "circle", "constant")
    specs = [ScenarioSpec(kind=kind, seed=s, frames=4, n_agents=2) for s, kind in enumerate(kinds)]
    scenes = [generate(spec)[0] for spec in specs]
    (path / "scenes.csv").write_text(scenes_to_csv(scenes))
    lines = [json.dumps(forecast(f"s{i}", 0.5 * i)) for i in range(3)]
    (path / "forecasts.jsonl").write_text("\n".join(lines) + "\n")
    cwd = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(cwd)


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), err.getvalue()


def write_lines(path, lines):
    # "surrogatepass": a drawn lone surrogate becomes bytes that are not UTF-8
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))


def mutated_json(doc, data):
    """``doc`` with one node, drawn from all of its nodes, replaced by any JSON value
    or, when it is a member of an object, dropped."""
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                walk(child, path + (key,))

    walk(doc, ())
    path = data.draw(st.sampled_from(paths))
    if not path:
        return data.draw(JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON)
    return doc


def mutated_lines(lines, data, field_value):
    """``lines`` with one line replaced, dropped, duplicated or given one new field."""
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["field", "line", "drop", "repeat"]))
    lines = list(lines)
    if how == "field":
        lines[i] = field_value(lines[i])
    elif how == "line":
        lines[i] = data.draw(TEXT)
    elif how == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return lines


@pytest.mark.parametrize("command, key", PAIRS)
@settings(max_examples=15)
@given(data=st.data())
def test_any_config_value_exits_0_or_2(workdir, command, key, data):
    value = data.draw(option_values(key))
    (workdir / "config.json").write_text(json.dumps({**BASE[command], key: value}))
    run_quietly([command, "--config", "config.json"])


@given(command=st.sampled_from(["metrics", "rank"]), data=st.data())
def test_any_scene_csv_line_exits_0_or_2(workdir, command, data):
    def field(line):
        cells = line.split(",")
        number = st.floats().map(repr) | st.integers().map(str)
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(number | TEXT)
        return ",".join(cells)

    lines = mutated_lines((workdir / "scenes.csv").read_text().splitlines(), data, field)
    write_lines(workdir / "mutated.csv", lines)
    run_quietly([command, "--input", "mutated.csv", "--out", "out.json"])


@given(data=st.data())
def test_any_forecast_line_exits_0_or_2(workdir, data):
    def field(line):
        return json.dumps(mutated_json(json.loads(line), data))

    lines = mutated_lines((workdir / "forecasts.jsonl").read_text().splitlines(), data, field)
    write_lines(workdir / "mutated.jsonl", lines)
    run_quietly(
        ["eval", "--input", "mutated.jsonl", "--k", "1,2", "--topk", "50",
         "--rank-metric", "min_fde", "--out", "out.json"]
    )


@given(mode=st.sampled_from(["mean", "sample"]), data=st.data())
def test_any_rank_sidecar_node_exits_0_or_2(workdir, mode, data):
    stats = {"median": [0.0] * 14, "scale": [1.0] * 14, "flags": []}
    params = default_params(hidden=3, latent=2).to_jsonable()
    flag, doc = data.draw(st.sampled_from([("--stats", stats), ("--params", params)]))
    (workdir / "sidecar.json").write_text(json.dumps(mutated_json(doc, data)))
    run_quietly(
        ["rank", "--input", "scenes.csv", "--mode", mode, flag, "sidecar.json",
         "--categories", "2", "--out", "out.json"]
    )
