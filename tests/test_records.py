"""The output boundary: every parameter record reads and writes one JSON object
through one codec, and every file is written by one writer."""

import json
import math
import re
from dataclasses import fields

import pytest

from tailscope.errors import ConfigurationError, UsageError, write_text
from tailscope.interaction import RssParams
from tailscope.memory import CognitiveSetParams, GateMlp, PrototypeMemory
from tailscope.perceiver import DatasetStats, GaussianLayer, PerceiverParams, default_params
from tailscope.scene import dump_scenes
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
