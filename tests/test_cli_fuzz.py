"""Fuzzed exit-code contract: whatever a config key, a scene CSV line, a
forecast JSONL line or a rank sidecar holds, ``main()`` exits 0 or 2, never 1
(an internal error). Round trips: every scene CSV, forecast JSONL and
parameter file the package writes reads back exactly. Properties: the
invariants every score and metric keeps."""

import contextlib
import csv
import io
import json
import math
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tailscope import evaluation  # noqa: E402
from tailscope.cli import OPTIONS, main  # noqa: E402
from tailscope.errors import ParseError, TailscopeError, read_json, read_lines  # noqa: E402
from tailscope.evaluation import ForecastSample, evaluate, min_ade, min_fde, parse_forecast_jsonl  # noqa: E402
from tailscope.interaction import RssParams, compute_interactive  # noqa: E402
from tailscope.intrinsic import compute_intrinsic  # noqa: E402
from tailscope.memory import CognitiveSetParams, PrototypeMemory  # noqa: E402
from tailscope.perceiver import (  # noqa: E402
    CLIP_SIGMA, DatasetStats, PerceiverParams, default_params, fusion_weights, metrics_vector,
    normalize_features, perceive, scene_seeds,
)
from tailscope.scene import (  # noqa: E402
    AGENT_KINDS, MAX_MAGNITUDE, Scene, Trajectory, parse_scene_csv, scenes_to_csv,
)
from tailscope.synth import SCENARIO_KINDS, ScenarioSpec, generate  # noqa: E402

import scene_reference  # noqa: E402

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
            sample = evaluation._sample(line, line_no)
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


#: Number tokens JSON refuses, reads as no finite float or as an integer, and
#: tokens that are no number; each may stand for one number of a line.
TOKENS = st.sampled_from([
    "01", ".5", "1.", "+1", "-", "1e", "1e+", "--1", "1-2", "NaN", "Infinity", "-Infinity", "1e999", "-1e999",
    "true", "false", "null", "1E5", "-0", "-0.0", "1e-400", "1" + "0" * 400, "\u0661", "0x1", "1_0", "",
])
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def skeleton_mutated(line, data):
    """``line`` with one change aimed at the fast decode's layout check: a
    number token, a stray or moved number, a space or other separators, the
    name, order or repetition of its keys, the nesting of its modes, or its id."""
    try:
        record = json.loads(line)
        modes = record["modes"]
        k, t = len(modes), len(modes[0])
        points = [point for mode in modes for point in mode]
        well_formed = isinstance(record["sample_id"], str) and t > 0 and all(len(m) == t for m in modes)
        well_formed = well_formed and all(isinstance(p, list) for p in points)
    except (ValueError, KeyError, TypeError, IndexError):
        well_formed = False
    spans = [m.span() for m in NUMBER.finditer(line, line.find('"modes"'))]
    if not (well_formed and spans):  # a line an earlier mutation broke
        return line
    how = data.draw(st.sampled_from([
        "token", "stray", "move", "space", "unspace", "separators", "key", "order", "repeat", "ragged", "transpose",
        "swap", "id",
    ]))
    if how == "token":
        start, end = data.draw(st.sampled_from(spans))
        return line[:start] + data.draw(TOKENS) + line[end:]
    if how == "stray":  # a number beside a bracket, a brace, a key's quote or the line's end
        i = data.draw(st.sampled_from([i for i, c in enumerate(line) if c in '[]{}"'] + [len(line) - 1]))
        i += data.draw(st.integers(0, 1))
        return line[:i] + data.draw(st.sampled_from(["7", "1e5", "-", "0", "-0.5"])) + line[i:]
    if how == "move":  # a number moved across the bracket beside it
        start, end = data.draw(st.sampled_from(spans))
        if line[start - 1] == "[":
            return line[: start - 1] + line[start:end] + "[" + line[end:]
        return line[:start] + line[end] + line[start:end] + line[end + 1 :]
    if how == "separators":
        items, keys = data.draw(st.sampled_from([",", ", ", " , ", ",\t"])), data.draw(st.sampled_from([":", ": ", " :"]))
        return json.dumps(record, separators=(items, keys))
    if how in ("space", "unspace"):
        spots = [i for i, c in enumerate(line) if c in (" " if how == "unspace" else ",:[]{")]
        i = data.draw(st.sampled_from(spots))
        return line[:i] + line[i + 1 :] if how == "unspace" else line[: i + 1] + " " + line[i + 1 :]
    if how == "key":  # the number characters of a key, or a key that differs from "modes" only in them
        return line.replace('"modes"', data.draw(st.sampled_from(['"mods"', '"mod1s"', '"modEs"', '"mo-des"', '"modes1"'])))
    if how == "order":
        keys = data.draw(st.permutations(list(record)))
        return json.dumps({key: record[key] for key in keys})
    if how == "repeat":
        key = data.draw(st.sampled_from(list(record)))
        return line[:-1] + f", {json.dumps(key)}: {json.dumps(record[key])}}}"
    if how == "ragged":
        record["modes"][data.draw(st.integers(0, k - 1))].pop()
    elif how == "transpose":
        record["modes"] = [[list(axis) for axis in zip(*mode)] for mode in modes]
    elif how == "swap":
        record["modes"] = [points[i * k : (i + 1) * k] for i in range(t)]
    else:
        record["sample_id"] += data.draw(st.sampled_from(['"', "\\", "[", "]", "é", "\t", "\u2028", "\x7f"]))
        return json.dumps(record, ensure_ascii=data.draw(st.booleans()))
    return json.dumps(record)


@settings(max_examples=300)
@given(data=st.data())
def test_forecast_jsonl_parse_matches_the_line_by_line_reading(workdir, data):
    """Same samples, or the same error on the same line, after two mutations and
    one aimed at the fast decode's layout check."""
    def field(line):
        try:
            return json.dumps(mutated_json(json.loads(line), data))
        except json.JSONDecodeError:  # a line an earlier mutation replaced
            return line

    lines = (workdir / "forecasts.jsonl").read_text().splitlines()
    for _ in range(2):
        lines = mutated_lines(lines, data, field)
    if lines:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = skeleton_mutated(lines[i], data)
    text = "\n".join(lines) + "\n"
    assert parsed(parse_forecast_jsonl, text) == parsed(parse_line_by_line, text)


#: Cells both tokenizers must refuse or read exactly as ``float``/``int`` do:
#: quotes, spaces, underscores, signs, non-finite and non-ASCII numbers, an
#: integer written as a float, more digits than ``int`` reads, frames of 20
#: and 21 characters, a field longer than ``csv`` reads, every kind and
#: target flag.
SCENE_CELLS = st.sampled_from([
    '"0"', '"a,b"', " 1", "1 ", "\t2", "1_000", "1_0", "nan", "inf", "-inf", "+3", "+0.5", "-0", "1.0", "1e0",
    "\u0663", "007", "", "0", "1", "x", "1e400", "1e-400", "99999999999999999999", "0" * 19 + "1", "0" * 20 + "1",
    "9000000000000000000", "-9000000000000000000", ".5", "5.", "0x10", "0" * 4301, "1" * (csv.field_size_limit() + 1),
    *AGENT_KINDS, "Vehicle",
])


def read_row_by_row(text):
    """The reference reading of a scene CSV: the frozen row loop, whatever the file holds."""
    return scene_reference.parse_rows(read_lines(text, "scene CSV"), 50.0)


def scene_bits(scene_list):
    """Every scene in order: ids, target, radius and each agent's kind, dt and rows, bit for bit."""
    return [
        (s.scene_id, s.target_id, s.neighbor_radius,
         [(a, t.kind, t.dt.hex(), t._stacked().tobytes()) for a, t in s.agents.items()])
        for s in scene_list
    ]


def checked_again(scene_list):
    """Each scene rebuilt through the checked ``Trajectory`` and ``Scene`` constructors."""
    return [
        Scene(s.scene_id, {
            a: Trajectory(t.agent_id, t.times, t.positions, t.velocities, t.headings, t.kind, t.dt)
            for a, t in s.agents.items()
        }, s.target_id, s.neighbor_radius)
        for s in scene_list
    ]


def parsed_scenes(parse, text):
    try:
        return scene_bits(parse(text))
    except (TailscopeError, scene_reference.ParseError, scene_reference.ValidationError) as exc:
        return type(exc).__name__, str(exc)


def mutated_scene_csv(lines, data):
    """``lines`` with one cell, line ending, line or the row order changed, one
    target flag emptied, or one agent's ids and kind widened or its rows split;
    or, aimed at the validator's order, a quoted field spanning two lines, an
    underscore number, a bad cell after an earlier line's heading or kind
    fault, or a huge coordinate on a line with a bad kind."""
    lines = list(lines)
    i = data.draw(st.integers(1, len(lines) - 1))
    how = data.draw(st.sampled_from([
        "cell", "cell", "crlf", "blank", "shuffle", "repeat", "drop", "untarget",
        "empty-target", "widest-last", "split", "two-lines", "underscore", "late-cell", "huge-bad-kind",
    ]))
    key = lines[i].split(",")[:2]
    cells = lines[i].split(",")
    if how == "cell":
        c = data.draw(st.integers(0, len(cells) - 1))
        cells[c] = data.draw(SCENE_CELLS | TEXT | st.floats().map(repr) | st.integers().map(str))
        lines[i] = ",".join(cells)
    elif how == "two-lines":  # csv reads on to the closing quote, so later lines are numbered from there
        c = data.draw(st.integers(0, len(cells) - 1))
        cells[c] = '"' + data.draw(st.sampled_from(["", " ", "x"])).join((cells[c], "\n")) + '"'
        lines[i] = ",".join(cells)
    elif how == "underscore":  # loadtxt refuses it, int() and float() read it
        if len(cells) > 8:
            cells[data.draw(st.integers(2, 8))] = "1_000"
            lines[i] = ",".join(cells)
    elif how == "late-cell":  # a heading or kind fault, then a bad cell on the same or a later line
        if len(cells) > 9:
            cells[data.draw(st.sampled_from([8, 9]))] = data.draw(st.sampled_from(["3.5", "-7", "bike", "Vehicle"]))
            lines[i] = ",".join(cells)
        j = data.draw(st.integers(i, len(lines) - 1))
        later = lines[j].split(",")
        later[data.draw(st.integers(0, len(later) - 1))] = data.draw(SCENE_CELLS)
        lines[j] = ",".join(later)
    elif how == "huge-bad-kind":  # MAX_MAGNITUDE is a trajectory check, the kind a line check
        if len(cells) > 9:
            cells[data.draw(st.integers(4, 7))] = data.draw(st.sampled_from(["1e200", "-1e151"]))
            cells[9] = "bike"
            lines[i] = ",".join(cells)
    elif how == "crlf":
        lines[i] += "\r"
    elif how == "blank":
        lines.insert(i, "")
    elif how == "shuffle":
        lines[1:] = data.draw(st.permutations(lines[1:]))
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "drop":
        del lines[i]
    elif how == "empty-target":  # the last field: the target flag, or the kind without that column
        lines[i] = lines[i].rsplit(",", 1)[0] + ","
    elif how == "widest-last":  # line i's scene id, agent id and kind widened, its agent's rows moved last
        rows = [line.split(",") for line in lines[1:]]
        moved = [row for row in rows if row[:2] == key and len(row) > 9]
        for row in rows:
            if row[0] == key[0]:
                row[0] += "-wide"
        for row in moved:
            row[1], row[9] = row[1] + "-wide", "pedestrian"
        lines[1:] = [",".join(row) for row in rows if row not in moved] + [",".join(row) for row in moved]
    elif how == "split":  # line i's agent becomes two runs of interleaved frames, the second last
        moved = [line for line in lines[1:] if line.split(",")[:2] == key][::2]
        lines = [line for line in lines if line not in moved] + moved
    elif lines[0].endswith(",target"):
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return lines


@settings(max_examples=300)
@given(data=st.data())
def test_scene_csv_parse_matches_the_row_by_row_reading(workdir, data):
    """``parse_scene_csv``, whose columns the CLI scores, gives the reference row
    loop's scenes, bit for bit, or its error, type and text, after two mutations.
    The checked constructors accept every scene it gives, unchanged."""
    lines = (workdir / "scenes.csv").read_text().splitlines()
    for _ in range(2):
        lines = mutated_scene_csv(lines, data)
    text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
    want = parsed_scenes(read_row_by_row, text)
    assert parsed_scenes(parse_scene_csv, text) == want
    assert parsed_scenes(lambda t: checked_again(parse_scene_csv(t)), text) == want


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
#: Every position or velocity a ``Trajectory`` takes, and every forecast coordinate.
COORDINATE = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)
#: Ids csv.writer quotes where needed and the parser keeps as written: no
#: surrounding whitespace (the parser strips it) and no \r (written unquoted).
ID = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r") | st.sampled_from(',"\n\x0c '),
    min_size=1, max_size=6,
).filter(lambda s: s == s.strip())


@st.composite
def scenes(draw, value=COORDINATE):
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
    params = default_params(hidden=hidden, latent=latent, seed=seed)
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
def forecast_sets(draw, value=COORDINATE, one_horizon=False):
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


# -- scene groups: the grouped CLI path against per-scene calls --


@st.composite
def mixed_corpus(draw):
    """Two to nine scenes of up to three (agents, frames) shapes, so that groups
    of one and of several mix. Values come from a drawn seed: agents move fast,
    slowly, stop on some frames or sit on another agent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = draw(st.lists(st.tuples(st.integers(1, 10), st.integers(2, 12)), min_size=1, max_size=3))
    out = []
    for i in range(draw(st.integers(2, 9))):
        n, frames = shapes[rng.integers(len(shapes))]
        dt, scale = float(rng.choice([0.1, 0.5, 2.0])), 10.0 ** rng.uniform(-2, 3)
        agents = {}
        for a in map(str, range(n)):
            pos, vel = rng.normal(0.0, scale, (2, frames, 2))
            style = rng.integers(4)
            if style == 1:
                vel *= 1e-3
            elif style == 2:
                vel[rng.random(frames) < 0.5] = 0.0
            elif style == 3 and agents:
                pos = agents["0"].positions + rng.normal(0.0, 1e-3, (frames, 2))
            headings = rng.uniform(-math.pi, math.pi, frames)
            agents[a] = Trajectory(a, np.arange(frames) * dt, pos, vel, headings, AGENT_KINDS[rng.integers(3)], dt)
        out.append(Scene(f"s{i}", agents, str(rng.integers(n)), neighbor_radius=scale * rng.uniform(0.5, 3.0)))
    return out


def reports(workdir, text, mode):
    """The metrics and rank (seed 3, two categories) reports of a scene CSV, as bytes."""
    (workdir / "mixed.csv").write_text(text)
    out = {}
    for command, extra in (("metrics", []), ("rank", ["--mode", mode, "--seed", "3", "--categories", "2"])):
        assert main([command, "--input", "mixed.csv", "--out", f"{command}.json", *extra]) == 0
        out[command] = (workdir / f"{command}.json").read_bytes()
    return out


@settings(max_examples=30)
@given(scene_list=mixed_corpus(), mode=st.sampled_from(["mean", "sample"]))
def test_grouped_reports_equal_per_scene_calls(workdir, scene_list, mode):
    """Every metric and Tail Index of the grouped CLI pass, bit for bit, from group-of-one calls."""
    text = scenes_to_csv(scene_list)
    got = {name: json.loads(report) for name, report in reports(workdir, text, mode).items()}
    scene_list = parse_scene_csv(text)
    pairs = [(compute_intrinsic(s.target), compute_interactive(s)) for s in scene_list]
    for scene, (intr, inter), record in zip(scene_list, pairs, got["metrics"]["scenes"]):
        assert record["scene_id"] == scene.scene_id
        assert record["metrics"] == {**intr.as_dict(), **inter.as_dict()}
        assert record["flags"] == sorted(set(intr.flags) | set(inter.flags))
    stats = DatasetStats.fit(np.array([metrics_vector(i, r) for i, r in pairs]))
    params, seeds = default_params(seed=3), scene_seeds(len(scene_list), 3)
    rows = {row["scene_id"]: row for row in got["rank"]["ranking"]}
    for scene, (intr, inter), seed in zip(scene_list, pairs, seeds):
        f_i, f_r = normalize_features(intr, inter, stats)
        result = perceive(params, f_i, f_r, mode=mode, seed=seed if mode == "sample" else None)
        row = rows[scene.scene_id]
        assert (row["ti"], row["f_i"], row["f_r"]) == (result.ti, f_i.tolist(), f_r.tolist())


@settings(max_examples=20)
@given(scene_list=mixed_corpus(), mode=st.sampled_from(["mean", "sample"]), data=st.data())
def test_scene_order_in_the_csv_does_not_change_a_report(workdir, scene_list, mode, data):
    lines = scenes_to_csv(scene_list).splitlines(keepends=True)
    shuffled = lines[:1] + data.draw(st.permutations(lines[1:]))
    assert reports(workdir, "".join(shuffled), mode) == reports(workdir, "".join(lines), mode)
