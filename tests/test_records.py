"""The output boundary: every parameter record reads and writes one JSON object
through one codec, and every file is written by one writer."""

import json
import re
from dataclasses import fields

import pytest

from tailscope.errors import UsageError, write_text
from tailscope.memory import CognitiveSetParams, GateMlp, PrototypeMemory
from tailscope.perceiver import DatasetStats, GaussianLayer, PerceiverParams, default_params
from tailscope.scene import dump_scenes
from tailscope.synth import ScenarioSpec, generate

RECORDS = [GaussianLayer, PerceiverParams, DatasetStats, GateMlp, CognitiveSetParams, PrototypeMemory]

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
}


@pytest.mark.parametrize("record, text", SAVED.values(), ids=SAVED)
def test_save_writes_one_json_object_that_load_reads_back(tmp_path, record, text):
    path = tmp_path / "record.json"
    record.save(path)
    assert path.read_text(encoding="utf-8") == text
    assert json.dumps(type(record).load(path).to_jsonable()) == text


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_table_lists_every_field_in_order_with_optional_keys_last(cls):
    """``from_jsonable`` builds a record positionally from its table."""
    assert [key.lower() for key in cls.JSON] == [f.name for f in fields(cls)]
    assert list(cls.JSON)[len(cls.JSON) - len(cls.OPTIONAL):] == list(cls.OPTIONAL)


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
