"""Fuzzed exit-code contract: whatever a config key, a scene CSV line, a
forecast JSONL line or a rank sidecar holds, ``main()`` exits 0 or 2, never 1
(an internal error). Round trips: every scene CSV, forecast JSONL and
parameter file the package writes reads back exactly. Properties: the
invariants every score and metric keeps."""

import contextlib
import io
import json
import math
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tailscope import evaluation  # noqa: E402
from tailscope.cli import OPTIONS, main  # noqa: E402
from tailscope.errors import ParseError, read_json, read_lines  # noqa: E402
from tailscope.evaluation import ForecastSample, evaluate, min_ade, min_fde, parse_forecast_jsonl  # noqa: E402
from tailscope.interaction import RssParams, compute_interactive  # noqa: E402
from tailscope.intrinsic import compute_intrinsic  # noqa: E402
from tailscope.memory import CognitiveSetParams, PrototypeMemory  # noqa: E402
from tailscope.perceiver import (  # noqa: E402
    CLIP_SIGMA, DatasetStats, PerceiverParams, default_params, fusion_weights, perceive,
)
from tailscope.scene import AGENT_KINDS, Scene, Trajectory, parse_scene_csv, scenes_to_csv  # noqa: E402
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


def parse_line_by_line(text):
    """The reference reading of a forecast JSONL: each line converted, validated
    and checked for a repeated id before the next line is read."""
    samples, seen = [], set()
    for line_no, line in enumerate(read_lines(text, "forecast JSONL"), start=1):
        if line.strip():
            sample = evaluation._sample(evaluation._record(line, line_no), line, line_no)
            if sample.sample_id in seen:
                raise ParseError(f"duplicate sample_id {sample.sample_id!r}", line=line_no)
            seen.add(sample.sample_id)
            samples.append(sample)
    if not samples:
        raise ParseError("forecast JSONL: no forecast samples")
    return samples


def sample_rows(samples):
    return [(s.sample_id, s.modes.shape, s.modes.tobytes(), s.probs.tobytes(), s.gt.tobytes()) for s in samples]


def parsed(parse, source):
    """``sample_rows`` of what ``parse`` reads from ``source``, or the error it raised."""
    try:
        return sample_rows(parse(source))
    except ParseError as exc:
        return str(exc)


@given(data=st.data())
def test_forecast_jsonl_parse_matches_the_line_by_line_reading(workdir, data):
    """Same samples, or the same error on the same line, after two mutations."""
    def field(line):
        try:
            return json.dumps(mutated_json(json.loads(line), data))
        except json.JSONDecodeError:  # a line an earlier mutation replaced
            return line

    lines = (workdir / "forecasts.jsonl").read_text().splitlines()
    for _ in range(2):
        lines = mutated_lines(lines, data, field)
    text = "\n".join(lines) + "\n"
    assert parsed(parse_forecast_jsonl, text) == parsed(parse_line_by_line, text)


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


# -- round trips: what the package writes, its one reader reads back exactly --

FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Ids csv.writer quotes where needed and the parser keeps as written: no
#: surrounding whitespace (the parser strips it) and no \r (written unquoted).
ID = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r") | st.sampled_from(',"\n\x0c '),
    min_size=1, max_size=6,
).filter(lambda s: s == s.strip())


@st.composite
def scenes(draw, value=FINITE):
    """One or two valid scenes whose positions and velocities are drawn from ``value``."""
    frames, dt = draw(st.integers(2, 4)), draw(st.sampled_from([0.1, 0.5, 2.0]))
    heading = st.floats(-math.pi, math.pi, exclude_min=True)
    out = []
    for scene_id in draw(st.lists(ID, min_size=1, max_size=2, unique=True)):
        agents = {}
        for agent_id in draw(st.lists(ID, min_size=1, max_size=3, unique=True)):
            columns = [draw(st.lists(value, min_size=frames * n, max_size=frames * n)) for n in (2, 2)]
            agents[agent_id] = Trajectory(
                agent_id, [k * dt for k in range(frames)], np.reshape(columns[0], (frames, 2)),
                np.reshape(columns[1], (frames, 2)), draw(st.lists(heading, min_size=frames, max_size=frames)),
                draw(st.sampled_from(AGENT_KINDS)), dt,
            )
        out.append(Scene(scene_id, agents, draw(st.sampled_from(sorted(agents)))))
    return out


def as_rows(scene_list):
    return {
        s.scene_id: (s.target_id, {a: (t.kind, t._stacked().tobytes()) for a, t in s.agents.items()})
        for s in scene_list
    }


@settings(max_examples=40)
@given(scene_list=scenes())
def test_scene_csv_round_trips_from_every_source(workdir, scene_list):
    text = scenes_to_csv(scene_list)
    path = workdir / "round-trip.csv"
    path.write_bytes(text.encode("utf-8"))
    want = as_rows(scene_list)
    for source in (text, text.encode("utf-8"), path, io.BytesIO(text.encode("utf-8"))):
        assert as_rows(parse_scene_csv(source)) == want


def round_trip(obj, load):
    """``obj`` through ``to_jsonable``, a JSON file and ``load``, compared as written JSON."""
    path = Path("round-trip.json")
    path.write_text(json.dumps(obj.to_jsonable()), encoding="utf-8")
    assert json.dumps(load(path).to_jsonable()) == json.dumps(obj.to_jsonable())


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1), sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    head=st.lists(FINITE, min_size=3, max_size=3), b_o=FINITE, lambda_temp=FINITE,
)
def test_perceiver_params_round_trip(workdir, seed, sizes, head, b_o, lambda_temp):
    hidden, latent = sizes
    params = default_params(input_i=2, input_r=2, hidden=hidden, latent=latent, seed=seed)
    params = replace(params, w_o=head[:latent], b_o=b_o, lambda_temp=lambda_temp)
    round_trip(params, PerceiverParams.load)


@settings(max_examples=25)
@given(
    median=st.lists(FINITE, min_size=14, max_size=14),
    scale=st.lists(st.floats(0, exclude_min=True, allow_infinity=False), min_size=14, max_size=14),
    flags=st.lists(TEXT, max_size=3),
)
def test_dataset_stats_round_trip(workdir, median, scale, flags):
    round_trip(DatasetStats(median, scale, tuple(flags)), DatasetStats.load)


@settings(max_examples=25)
@given(
    rows=st.lists(st.lists(FINITE.filter(bool), min_size=2, max_size=2), min_size=1, max_size=3),
    eta=st.floats(0, 1), cuts=st.lists(FINITE, min_size=2, max_size=2),
)
def test_prototype_memory_round_trip(workdir, rows, eta, cuts):
    round_trip(PrototypeMemory(rows, eta, sorted(cuts)[: len(rows) - 1]), PrototypeMemory.load)


@settings(max_examples=25)
@given(
    categories=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    tau=st.floats(0, exclude_min=True, allow_infinity=False), rho_vig=FINITE,
    gamma_steep=st.floats(0, exclude_min=True, allow_infinity=False),
)
def test_cognitive_set_params_round_trip(workdir, categories, seed, tau, rho_vig, gamma_steep):
    params = CognitiveSetParams.create(categories, 2, tau, rho_vig, gamma_steep, hidden=2, seed=seed)
    round_trip(params, lambda path: read_json(path, "cognitive set params", CognitiveSetParams.from_jsonable))


# -- properties: the invariants every score and metric keeps --


@given(kl_i=FINITE, kl_r=FINITE, lambda_temp=FINITE)
def test_fusion_weights_are_interior_and_sum_to_1(kl_i, kl_r, lambda_temp):
    alpha_i, alpha_r = fusion_weights(kl_i, kl_r, lambda_temp)
    assert 0 < alpha_i < 1 and 0 < alpha_r < 1
    assert abs(alpha_i + alpha_r - 1.0) <= 1e-12


#: Features as ``normalize_features`` gives them: robust z-scores clipped to +-CLIP_SIGMA.
FEATURES = st.lists(st.floats(-CLIP_SIGMA, CLIP_SIGMA), min_size=14, max_size=14)


@settings(max_examples=30)
@given(mode=st.sampled_from(["mean", "sample"]), seed=st.integers(0, 2**32 - 1), features=FEATURES)
def test_perceive_gives_a_finite_nonnegative_tail_index(mode, seed, features):
    result = perceive(default_params(seed=seed), np.array(features[:8]), np.array(features[8:]), mode=mode, seed=seed)
    assert math.isfinite(result.ti) and result.ti >= 0


@settings(max_examples=40)
@given(scene_list=scenes(st.floats(-1e6, 1e6)))
def test_metrics_are_finite_and_nonnegative(scene_list):
    """Positions (m) and velocities (m/s) up to 1e6 in magnitude. Past about 1e150
    squared terms overflow float64, and the metrics raise a ValidationError instead."""
    for scene in scene_list:
        values = {**compute_intrinsic(scene.target).as_dict(), **compute_interactive(scene).as_dict()}
        assert all(math.isfinite(v) and v >= 0 for v in values.values()), values
        assert values["r_lon"] < 1 and values["r_lat"] < 1


@st.composite
def forecast_sets(draw, value=FINITE, one_horizon=False):
    """One to six valid forecast samples with unique ids, K drawn per sample and T
    per sample, or once for the set when ``one_horizon``."""
    set_horizon = draw(st.integers(1, 3))
    out = []
    for sample_id in draw(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True)):
        k, t = draw(st.integers(1, 3)), set_horizon if one_horizon else draw(st.integers(1, 3))
        modes = draw(st.lists(value, min_size=k * t * 2, max_size=k * t * 2))
        gt = draw(st.lists(value, min_size=t * 2, max_size=t * 2))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
        out.append(ForecastSample(sample_id, np.reshape(modes, (k, t, 2)), weights / weights.sum(), np.reshape(gt, (t, 2))))
    return out


@settings(max_examples=40)
@given(samples=forecast_sets(st.floats(-1e6, 1e6), one_horizon=True))
def test_grouped_evaluate_equals_per_sample_functions(samples):
    ks = list(range(1, min(s.n_modes for s in samples) + 1))
    report = evaluate(samples, ks=ks)
    for sample, row in zip(samples, report.per_sample):
        assert row["sample_id"] == sample.sample_id
        assert row["min_ade"] == {str(k): min_ade(sample, k) for k in ks}
        assert row["min_fde"] == {str(k): min_fde(sample, k) for k in ks}


@settings(max_examples=40)
@given(samples=forecast_sets())
def test_forecast_jsonl_round_trips_from_every_source(workdir, samples):
    text = "".join(
        json.dumps({"sample_id": s.sample_id, "modes": s.modes.tolist(), "probs": s.probs.tolist(), "gt": s.gt.tolist()})
        + "\n"
        for s in samples
    )
    path = workdir / "round-trip.jsonl"
    path.write_text(text, encoding="utf-8")
    for source in (text, text.encode("utf-8"), path):
        assert parsed(parse_forecast_jsonl, source) == sample_rows(samples)
