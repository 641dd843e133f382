"""The output boundary: every parameter record reads and writes one JSON object
through one codec, and every file is written by one writer. Every record, and a
parsed scene group, holds read-only arrays, also in its copies and pickles."""

import copy
import json
import math
import pickle
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from tailscope.errors import ConfigurationError, UsageError, ValidationError, write_text
from tailscope.interaction import RssParams
from tailscope.memory import CognitiveSetParams, GateMlp, PrototypeMemory
from tailscope.perceiver import DatasetStats, GaussianLayer, PerceiverParams, default_params
from tailscope.scene import Trajectory, dump_scenes, parse_scene_csv, scenes_to_csv
from tailscope.synth import ScenarioSpec, generate

RECORDS = [GaussianLayer, PerceiverParams, DatasetStats, GateMlp, CognitiveSetParams, PrototypeMemory, RssParams]

LAYER = GaussianLayer([[1, 2]], [[1, 1]], [0], [2])
LAYER_JSON = '{"mu_W": [[1.0, 2.0]], "sigma_W": [[1.0, 1.0]], "mu_b": [0.0], "sigma_b": [2.0]}'
GATE = GateMlp([[1]], [0], [[2], [3]], [0, 1], [1], 0)
GATE_JSON = (
    '{"w_hidden": [[1.0]], "b_hidden": [0.0], "w_alloc": [[2.0], [3.0]], "b_alloc": [0.0, 1.0], '
    '"w_gate": [1.0], "b_gate": 0.0}'
)
#: Each record built from integers, and the exact file its ``save`` writes: a
#: float field is written as a float (``10.0``, never ``10``).
SAVED = {
    "layer": (LAYER, LAYER_JSON),
    "perceiver": (
        PerceiverParams((LAYER,), (LAYER,), [1], 0, 2),
        f'{{"path_i": [{LAYER_JSON}], "path_r": [{LAYER_JSON}], "w_o": [1.0], "b_o": 0.0, "lambda_temp": 2.0}}',
    ),
    "stats": (
        DatasetStats(range(14), [1] * 14, ("c_v",)),
        json.dumps({"median": [float(i) for i in range(14)], "scale": [1.0] * 14, "flags": ["c_v"]}),
    ),
    "gate": (GATE, GATE_JSON),
    "cognitive-set": (
        CognitiveSetParams(10, 1, 3, [0.25, 0.75], GATE),
        f'{{"tau": 10.0, "rho_vig": 1.0, "gamma_steep": 3.0, "b_tail": [0.25, 0.75], "gate_mlp": {GATE_JSON}}}',
    ),
    "memory": (
        PrototypeMemory([[1, 2], [3, 4]], 1, [5]),
        '{"prototypes": [[1.0, 2.0], [3.0, 4.0]], "eta": 1.0, "boundaries": [5.0]}',
    ),
    "rss": (
        RssParams(rho=1, b_max=9),
        '{"rho": 1.0, "rho_ped": 1.0, "a_max": 3.0, "b_min": 4.0, "b_max": 9.0, "a_lat_max": 0.9, "b_lat_min": 1.2, '
        '"mu_lat": 0.5, "alpha_lon": 1.0, "beta_lon": 1.0, "alpha_lat": 1.0, "beta_lat": 1.0}',
    ),
}


@pytest.mark.parametrize("record, text", SAVED.values(), ids=SAVED)
def test_save_writes_one_json_object_that_load_reads_back(tmp_path, record, text):
    path = tmp_path / "record.json"
    record.save(path)
    assert path.read_text(encoding="utf-8") == text
    assert json.dumps(type(record).load(path).to_jsonable()) == text


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_table_lists_every_field_in_order_with_optional_keys_last(cls):
    """``to_jsonable`` and ``from_jsonable`` pair each key with the field at its position."""
    assert [key.lower() for key in cls.JSON] == [f.name for f in fields(cls)]
    assert list(cls.JSON)[len(cls.JSON) - len(cls.OPTIONAL):] == list(cls.OPTIONAL)


#: Per record, a key path whose numbers turn non-finite, and the error that names it.
NON_FINITE = [
    ("layer", "mu_W", "layer key 'mu_W' is malformed: array must not contain infs or NaNs"),
    ("perceiver", "w_o", "perceiver params key 'w_o' is malformed: array must not contain infs or NaNs"),
    ("perceiver", "lambda_temp", "perceiver params key 'lambda_temp' is malformed: expected a finite number, got "),
    ("stats", "median", "stats key 'median' is malformed: array must not contain infs or NaNs"),
    ("gate", "b_gate", "gate mlp key 'b_gate' is malformed: expected a finite number, got "),
    ("cognitive-set", "b_tail", "cognitive set params key 'b_tail' is malformed: array must not contain infs or NaNs"),
    ("cognitive-set", "gate_mlp.w_gate",
     "cognitive set params key 'gate_mlp': gate mlp key 'w_gate' is malformed: array must not contain infs or NaNs"),
    ("memory", "boundaries", "prototype memory key 'boundaries' is malformed: array must not contain infs or NaNs"),
    ("memory", "eta", "prototype memory key 'eta' is malformed: expected a finite number, got "),
    ("rss", "b_max", "option 'rss_params' key 'b_max' is malformed: expected a finite number, got "),
]


def poisoned(value):
    """``value`` with its last number replaced by the string ``"BAD"``."""
    return value[:-1] + [poisoned(value[-1])] if isinstance(value, list) else "BAD"


@pytest.mark.parametrize("name, key, error", NON_FINITE, ids=[f"{name}-{key}" for name, key, _ in NON_FINITE])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_refuses_a_non_finite_number_naming_its_key(tmp_path, name, key, error, token):
    record, text = SAVED[name]
    doc = node = json.loads(text)
    *parents, leaf = key.split(".")
    for parent in parents:
        node = node[parent]
    node[leaf] = poisoned(node[leaf])
    path = tmp_path / "record.json"
    path.write_text(json.dumps(doc).replace('"BAD"', token))
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: {error}")):
        type(record).load(path)


@pytest.mark.parametrize("name, key, error", NON_FINITE, ids=[f"{name}-{key}" for name, key, _ in NON_FINITE])
@pytest.mark.parametrize("token", ["true", "false", '"0.5"', "null"])
def test_load_refuses_a_boolean_or_string_for_a_number_naming_its_key(tmp_path, name, key, error, token):
    """A JSON number is an int or a float token: never a boolean, a string or null."""
    record, text = SAVED[name]
    doc = node = json.loads(text)
    *parents, leaf = key.split(".")
    for parent in parents:
        node = node[parent]
    node[leaf] = poisoned(node[leaf])
    path = tmp_path / "record.json"
    path.write_text(json.dumps(doc).replace('"BAD"', token))
    where = error.partition(" is malformed: ")[0]
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: {where} is malformed: expected ")):
        type(record).load(path)


def test_a_key_may_be_optional_anywhere_in_the_table():
    """``from_jsonable`` pairs keys with fields by name: an absent optional key
    keeps its field's default wherever it stands."""
    assert RssParams.from_jsonable({"b_max": 9}) == RssParams(b_max=9.0)
    assert RssParams.from_jsonable({}) == RssParams()


@pytest.mark.parametrize("record, text", SAVED.values(), ids=SAVED)
def test_load_refuses_an_unknown_key_naming_it(tmp_path, record, text):
    path = tmp_path / "record.json"
    path.write_text(json.dumps({**json.loads(text), "lambda_tmp": 1.0}))
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: {record.WHAT} has unknown key 'lambda_tmp'")):
        type(record).load(path)


WRITERS = {
    "perceiver-params": lambda path: default_params(hidden=2, latent=2).save(path),
    "prototype-memory": lambda path: SAVED["memory"][0].save(path),
    "dataset-stats": lambda path: SAVED["stats"][0].save(path),
    "dump-scenes": lambda path: dump_scenes([generate(ScenarioSpec(kind="constant"))[0]], path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_write_into_a_missing_directory_raises_usage_error_naming_the_path(tmp_path, write):
    path = tmp_path / "missing" / "out"
    with pytest.raises(UsageError, match=re.escape(f"cannot write {path}: ")):
        write(path)


def test_write_text_names_a_path_it_cannot_open(tmp_path):
    with pytest.raises(UsageError, match="cannot write bad\x00path"):
        write_text("bad\x00path", "text")
    with pytest.raises(UsageError, match=re.escape(str(tmp_path))):
        write_text(tmp_path, "a directory")


#: Each record holding arrays: its builder from a dict of array fields, and those fields' values.
ARRAY_RECORDS = {
    "Trajectory": (
        lambda a: Trajectory("0", **a, kind="vehicle", dt=0.1),
        {"times": [0.0, 0.1, 0.2], "positions": [[0, 0], [1, 0], [2, 0]], "velocities": [[10, 0]] * 3,
         "headings": [0, 0, 0]},
    ),
    "GateMlp": (
        lambda a: GateMlp(**a, b_gate=0.0),
        {"w_hidden": [[1]], "b_hidden": [0], "w_alloc": [[2], [3]], "b_alloc": [0, 1], "w_gate": [1]},
    ),
    "GaussianLayer": (lambda a: GaussianLayer(**a), {"mu_w": [[1, 2]], "sigma_w": [[1, 1]], "mu_b": [0], "sigma_b": [2]}),
    "CognitiveSetParams": (lambda a: CognitiveSetParams(10, 1, 3, gate_mlp=GATE, **a), {"b_tail": [0.25, 0.75]}),
    "PrototypeMemory": (lambda a: PrototypeMemory(**a, eta=0.5), {"prototypes": [[1, 2], [3, 4]], "boundaries": [5]}),
    "PerceiverParams": (lambda a: PerceiverParams((LAYER,), (LAYER,), b_o=0, **a), {"w_o": [1]}),
    "DatasetStats": (lambda a: DatasetStats(**a), {"median": list(range(14)), "scale": [1] * 14}),
}


@pytest.mark.parametrize("build, values", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS)
def test_a_record_holds_read_only_copies_of_its_arrays(build, values):
    """A write to the caller's arrays after construction leaves the record as it was,
    and the record's own arrays refuse writes."""
    given = {name: np.array(value, dtype=float) for name, value in values.items()}
    record = build(given)
    for array in given.values():
        array += 1.0
    for name, value in values.items():
        held = getattr(record, name)
        assert held.tolist() == np.array(value, dtype=float).tolist() and not held.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0.0


def parsed_scenes():
    """Two crossing scenes and a grid scene, as ``parse_scene_csv`` reads them back."""
    specs = [ScenarioSpec("crossing", frames=6, seed=1), ScenarioSpec("crossing", frames=6, seed=2), ScenarioSpec("grid")]
    return parse_scene_csv(scenes_to_csv([generate(spec)[0] for spec in specs]))


#: Each record holding arrays, and a parsed scene group, as built by their constructors.
RECORDS_AND_GROUP = {
    **{name: build({key: np.array(value, dtype=float) for key, value in values.items()})
       for name, (build, values) in ARRAY_RECORDS.items()},
    "SceneGroup": parsed_scenes().groups[0],
}

#: The three ways to copy a record.
COPIES = {"pickle": lambda record: pickle.loads(pickle.dumps(record)), "deepcopy": copy.deepcopy, "copy": copy.copy}


def arrays(record):
    """Each array ``record`` holds, by field name, through its nested records."""
    for name in record.__dataclass_fields__:
        value = getattr(record, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield name, item
            elif is_dataclass(item):
                yield from arrays(item)


def same(a, b) -> bool:
    """Whether two records hold equal values field by field, arrays with their dtype and shape."""
    if is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, name), getattr(b, name)) for name in a.__dataclass_fields__)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.shape, a.tolist()) == (b.dtype, b.shape, b.tolist())
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    return a == b


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES)
@pytest.mark.parametrize("record", RECORDS_AND_GROUP.values(), ids=RECORDS_AND_GROUP)
def test_a_copy_or_pickle_holds_the_values_in_read_only_arrays(record, how):
    twin = how(record)
    assert twin is not record and same(twin, record)
    for name, array in arrays(twin):
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


#: Per record, a field value its constructor refuses.
REFUSED = {
    "Trajectory": ("dt", 0.0),
    "GateMlp": ("b_gate", math.inf),
    "GaussianLayer": ("sigma_b", np.array([-2.0])),
    "CognitiveSetParams": ("tau", 0.0),
    "PrototypeMemory": ("eta", 2.0),
    "PerceiverParams": ("b_o", math.inf),
    "DatasetStats": ("scale", np.zeros(14)),
}


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES)
@pytest.mark.parametrize("name, field, value", [(name, *row) for name, row in REFUSED.items()], ids=REFUSED)
def test_a_copy_or_pickle_runs_the_constructors_checks(name, field, value, how):
    """A record whose field was changed behind its back is refused when copied."""
    record = copy.copy(RECORDS_AND_GROUP[name])
    object.__setattr__(record, field, value)
    with pytest.raises((ValidationError, ConfigurationError)):
        how(record)


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES)
def test_a_copied_memory_keeps_its_boundaries_and_cut_points(how):
    twin = how(PrototypeMemory(np.eye(3), 0.9, [0.2, 1.0]))
    with pytest.raises(ValueError, match="read-only"):
        twin.boundaries[0] = 0.9
    assert twin.category_of(0.3) == twin.category_of(np.array([0.3]))[0] == 1


@pytest.mark.parametrize("how", COPIES.values(), ids=COPIES)
def test_a_copy_of_a_parsed_trajectory_is_a_checked_copy_not_a_view(how):
    scenes = parsed_scenes()
    block = scenes.groups[0].block
    target = scenes[0].target
    assert all(np.shares_memory(array, block) for _, array in arrays(target))
    twin = how(target)
    assert same(twin, target) and not any(np.shares_memory(array, block) for _, array in arrays(twin))
