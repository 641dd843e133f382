"""Per-command imports: each CLI pass loads only the modules it runs, and the
package's lazily re-exported names all resolve. The console script's set-up:
BLAS on one thread, and a pass without the cyclic garbage collector."""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailscope
from tailscope import cli, scene
from tailscope.scene import dump_scenes
from tailscope.synth import ScenarioSpec, generate

#: Every name the package re-exported when its __init__ imported each module eagerly.
OLD_EXPORTS = {
    "errors": "ConfigurationError DegenerateInputWarning ParseError TailscopeError UsageError "
    "ValidationError",
    "evaluation": "EvalReport ForecastSample LossWeights evaluate min_ade min_fde miss_rate "
    "parse_forecast_jsonl rmse task_loss total_loss worst_case_subsets",
    "interaction": "InteractiveMetrics RssParams compute_interactive global_scene_risk ittc_risk "
    "rss_lateral rss_longitudinal",
    "intrinsic": "IntrinsicMetrics compute_intrinsic",
    "memory": "AdaptationBatch CategoryPartition CognitiveSetParams GateMlp PrototypeMemory "
    "allocation augment default_tail_bias initialize_memory inner_update partition_categories "
    "proto_loss proto_loss_and_grad similarity update_prototypes vigilance_adjust",
    "perceiver": "DatasetStats GaussianLayer PerceiverParams TailIndexResult bayes_forward "
    "default_params fusion_weights kl_diag_gaussian normalize_features perceive "
    "rank_supervision_loss tail_index",
    "scene": "AgentState KinematicSeries Scene Trajectory derive_kinematics dump_scenes "
    "load_scenes parse_scene_csv scenes_to_csv",
    "synth": "ScenarioSpec generate",
}
OLD_NAMES = [(module, name) for module, names in OLD_EXPORTS.items() for name in names.split()]

def test_all_lists_the_old_exports():
    assert sorted(tailscope.__all__) == sorted(name for _, name in OLD_NAMES)


@pytest.mark.parametrize("module, name", OLD_NAMES, ids=[name for _, name in OLD_NAMES])
def test_old_export_resolves(module, name):
    want = getattr(importlib.import_module(f"tailscope.{module}"), name)
    assert getattr(tailscope, name) is want
    namespace = {}
    exec(f"from tailscope import {name}", namespace)
    assert namespace[name] is want


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tailscope.no_such_name


def _loaded_after(argv):
    """Run ``cli.main(argv)`` in a fresh interpreter; its exit code and loaded modules."""
    code = (
        "import json, sys\n"
        "from tailscope import cli\n"
        f"rc = cli.main({argv!r})\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tailscope.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(modules)


def test_cli_import_loads_no_numpy():
    """The option table and parser load with ``tailscope.cli``: no numpy, no other layer."""
    code = "import json, sys\nimport tailscope.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(tailscope.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert "numpy" not in modules
    assert "dataclasses" not in modules
    assert {m for m in modules if m.startswith("tailscope")} == {
        "tailscope", "tailscope.cli", "tailscope.errors"
    }


def _scenes_csv(tmp_path, n=3):
    path = tmp_path / "scenes.csv"
    dump_scenes([generate(ScenarioSpec(kind="crossing", seed=s, frames=5))[0] for s in range(n)], path)
    return str(path)


def _forecasts_jsonl(tmp_path, n=1):
    path = tmp_path / "f.jsonl"
    gt = [[float(t), 0.0] for t in range(4)]
    path.write_text("".join(
        json.dumps({"sample_id": str(i), "modes": [gt], "probs": [1.0], "gt": gt}) + "\n" for i in range(n)
    ))
    return str(path)


@pytest.mark.parametrize(
    "command, extra, runs, absent",
    [
        ("metrics", [], "interaction", ("evaluation", "memory", "perceiver", "synth")),
        ("rank", ["--categories", "2"], "perceiver", ("evaluation", "synth")),
        ("eval", [], "evaluation", ("scene", "intrinsic", "interaction", "perceiver", "memory", "synth")),
        ("synth", [], "synth", ("intrinsic", "interaction", "perceiver", "memory", "evaluation")),
    ],
    ids=["metrics", "rank", "eval", "synth"],
)
def test_command_loads_only_its_modules(tmp_path, command, extra, runs, absent):
    argv = [command, "--out", str(tmp_path / "out"), *extra]
    if command in ("metrics", "rank"):
        argv += ["--input", _scenes_csv(tmp_path)]
    elif command == "eval":
        argv += ["--input", _forecasts_jsonl(tmp_path), "--k", "1"]
    else:
        argv += ["--kind", "circle"]
    rc, modules = _loaded_after(argv)
    assert rc == 0
    assert f"tailscope.{runs}" in modules
    loaded = modules & {f"tailscope.{name}" for name in absent}
    assert not loaded, f"{command} loaded {sorted(loaded)}"
    assert "concurrent.futures.process" not in modules
    assert "numpy.ma" not in modules  # np.median and np.quantile would load it


def _entry_sees(threads):
    """``OPENBLAS_NUM_THREADS`` (``threads``, or unset if None) as ``cli.entry()`` hands it to
    a stubbed ``cli.main`` in a fresh interpreter, and whether numpy was loaded by then."""
    code = (
        "import json, os, sys\n"
        "from tailscope import cli\n"
        "seen = lambda: [os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules]\n"
        "cli.main = lambda: print(json.dumps(seen())) or 0\n"
        "cli.entry()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tailscope.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_entry_runs_blas_on_one_thread_unless_told_otherwise(given, seen):
    assert _entry_sees(given) == [seen, False]


def test_in_process_main_leaves_the_environment_alone(tmp_path):
    before = dict(os.environ), gc.isenabled(), gc.get_freeze_count()
    argv = ["eval", "--input", _forecasts_jsonl(tmp_path), "--k", "1", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert (dict(os.environ), gc.isenabled(), gc.get_freeze_count()) == before


def test_entry_runs_main_without_the_collector_and_freezes_what_is_left(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")  # records the value to restore
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    seen = []
    monkeypatch.setattr(
        cli, "main", lambda: seen.append((gc.isenabled(), os.environ.get("OPENBLAS_NUM_THREADS"))) or 3
    )
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.entry()
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
        gc.enable()
    assert exit_.value.code == 3
    assert seen == [(False, "1")]
    assert frozen > 0


def _unreachable_after(argv):
    """The unreachable objects that ``gc.collect()`` finds after ``cli.main(argv)`` runs with the collector off."""
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "command, spaced",
    [("metrics", False), ("metrics", True), ("rank", False), ("rank", True), ("eval", False)],
    ids=["metrics", "metrics-csv-rows", "rank", "rank-csv-rows", "eval"],
)
def test_a_pass_leaves_the_same_cyclic_garbage_on_a_corpus_50_times_larger(tmp_path, monkeypatch, command, spaced):
    """Why ``entry()`` may run a pass without the collector: what it leaves does not grow with the input."""
    read, tokenized = scene._csv_rows, []
    monkeypatch.setattr(scene, "_csv_rows", lambda *args: tokenized.append(1) or read(*args))
    extra = {"metrics": [], "rank": ["--categories", "2"], "eval": ["--k", "1"]}[command]
    found = []
    for n in (2, 100):
        path = Path(_forecasts_jsonl(tmp_path, n) if command == "eval" else _scenes_csv(tmp_path, n))
        if spaced:  # a space is not plain, so ``csv`` reads the file
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join([lines[0], lines[1].replace(",", ", ", 1), *lines[2:]]))
        found.append(_unreachable_after([command, "--input", str(path), "--out", str(tmp_path / "r.json"), *extra]))
    assert bool(tokenized) == spaced
    assert found[0] == found[1] > 0
