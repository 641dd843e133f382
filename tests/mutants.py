"""Mutation gate: each mutant below must make its named tests fail.

A mutant is one exact text replacement in one file of ``src/tailscope``. For
each, this script copies ``src/`` to a temporary directory, applies the
replacement there and runs the named test files against the copy with
``pytest -x -q --assert=plain`` (a verdict reads only the exit code, so no
test module is recompiled for assertion rewriting). The same tests must first
pass on an unmutated copy, so a failing run kills the mutant; a passing run
means it survived, and the tests do not pin the rule the mutant breaks. An old
text that is not in its file exactly once is a stale table row and fails the
gate at once.

Run from anywhere with ``python tests/mutants.py`` (stdlib only; pytest does
not collect this file). It prints the mutant count of each module of
``src/tailscope``, then killed or survived per mutant, and exits non-zero if
any mutant survives, any row is stale or any module has no mutant. A test
named ``file::node`` runs that node alone, which keeps the gate fast.

A change that adds a fast path, a memo or a refusal adds the mutant its new
test kills.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MEMOS = "tests/test_memory.py::TestOneSampleMemos"
TI_OVERFLOW = "tests/test_cli.py::TestExitCodeContract::test_params_whose_tail_index_overflows_exit_2_naming_file_and_scene"
NUMPY_BITS = "tests/test_perceiver.py::TestNormalize::test_fit_has_the_bits_of_numpy_median_and_quantile"

#: (file under src/tailscope, exact old text, new text, test files or nodes that must kill it)
MUTANTS = [
    # One rule per definition: the masked frame mean, the guard-flag builder,
    # the metric-record check, the record-array freeze, the JSON float array
    # and the shape grouper.
    ("intrinsic.py", 'order = np.argsort(~mask, axis=-1, kind="stable")', "order = np.argsort(~mask, axis=-1)",
     ["tests/test_intrinsic.py"]),
    ("intrinsic.py",
     "kept = np.take_along_axis(mask, order, axis=-1)\n"
     "    total = np.add.reduce(np.take_along_axis(values, order, axis=-1), axis=-1, where=kept)",
     "total = np.add.reduce(np.broadcast_to(values, mask.shape), axis=-1, where=mask)",
     ["tests/test_intrinsic.py"]),
    ("intrinsic.py", '(("low_speed_frames", low_speed), ("proximity_skip", proximity),',
     '(("proximity_skip", proximity), ("low_speed_frames", low_speed),', ["tests/test_intrinsic.py"]),
    ("intrinsic.py", "for name, hit in hits if hit)", "for name, hit in hits if hit is True)",
     ["tests/test_intrinsic.py"]),
    ("intrinsic.py", "if not (math.isfinite(value) and value >= 0.0):", "if not math.isfinite(value):",
     ["tests/test_intrinsic.py", "tests/test_interaction.py"]),
    ("errors.py", "array = np.array(getattr(record, name), dtype=float)",
     "array = np.asarray(getattr(record, name), dtype=float)", ["tests/test_records.py"]),
    ("errors.py", "        array.flags.writeable = False\n", "", ["tests/test_records.py"]),
    ("errors.py", "return np.asarray_chkfinite(numbers(value))", "return numbers(value)", ["tests/test_records.py"]),
    ("errors.py", "members.setdefault(shape, []).append(i)\n        return members",
     "members.setdefault(shape, []).append(i)\n        return dict(sorted(members.items(), reverse=True))",
     ["tests/test_scene.py", "tests/test_evaluation.py"]),
    # The two refusals and the warning this change adds to the perceiver.
    ("perceiver.py", "if not math.isfinite(kl):", "if math.isnan(kl):", ["tests/test_perceiver.py"]),
    ("perceiver.py", 'with np.errstate(over="ignore"):\n        for layer in layers:',
     "with np.errstate():\n        for layer in layers:", ["tests/test_perceiver.py"]),
    ("perceiver.py", 'with np.errstate(over="ignore"):\n            return np.clip(',
     "with np.errstate():\n            return np.clip(", ["tests/test_perceiver.py"]),
    # Fallbacks: a fast path sent to its slow twin gives the same output, so only a spy test kills it.
    ("scene.py", "_plain_rows(data) or _csv_rows(data, what)", "_csv_rows(data, what)", ["tests/test_scene.py"]),
    ("evaluation.py", "_flat_row(line, skeletons) or _row(line, line_no)", "_row(line, line_no)",
     ["tests/test_evaluation.py"]),
    # The frame mean is numpy's pairwise sum, as the per-scene code had it; a running sum moves report bits.
    ("intrinsic.py", "return np.add.reduce(samples, axis=-1) / max(samples.shape[-1], 1)",
     "return sum(np.moveaxis(samples, -1, 0), np.zeros(samples.shape[:-1])) / max(samples.shape[-1], 1)",
     ["tests/test_golden.py"]),
    # The similarity memo keys on the bytes of a C-ordered copy, so a Fortran matrix gets its own norms' bits;
    # its key holds the matrix's shape, and it keys by content, not by object.
    ("memory.py", "prototypes = np.ascontiguousarray(prototypes, dtype=float)",
     "prototypes = np.asarray(prototypes, dtype=float)", ["tests/test_memory.py"]),
    ("memory.py", "key, rows = (prototypes.shape, prototypes.tobytes()), _last_rows",
     "key, rows = prototypes.tobytes(), _last_rows", [MEMOS]),
    ("memory.py", "key, rows = (prototypes.shape, prototypes.tobytes()), _last_rows",
     "key, rows = id(prototypes), _last_rows", [MEMOS]),
    # Copies and pickles go through the constructor, one builder reads rows, and an
    # overflowing Tail Index is refused naming its file and scene, with no numpy warning.
    ("errors.py", '    WHAT = "record"\n    __reduce__ = rebuilt\n', '    WHAT = "record"\n', ["tests/test_records.py"]),
    ("scene.py", "table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5], kind, dt)",
     "table[:, 0], table[:, 3:5], table[:, 1:3], table[:, 5], kind, dt)", ["tests/test_scene.py::TestTrajectory"]),
    ("perceiver.py", 'with np.errstate(over="ignore", invalid="ignore"):\n        return softplus(',
     "with np.errstate():\n        return softplus(", [TI_OVERFLOW]),
    ("cli.py", "    except ValidationError as exc:\n", "    except UsageError as exc:\n", [TI_OVERFLOW]),
    # numpy's median and quantile bits without numpy.ma: partition points, not a sort; a NaN
    # column stays NaN; the lerp starts from the nearer end.
    ("memory.py", "q = np.partition(rows, sorted({0, -1, *lo.tolist(), *hi.tolist()}), axis=0)",
     "q = np.sort(rows, axis=0)", [NUMPY_BITS]),
    ("perceiver.py", "return [np.where(np.isnan(m[-1]), m[-1], m[mid].mean(axis=0)),", "return [m[mid].mean(axis=0),",
     [NUMPY_BITS]),
    ("memory.py", "np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t))", "a + (b - a) * t)", [NUMPY_BITS]),
    # The plain scene reader sorts each agent's rows by frame, and refuses a key column wider than the file.
    ("scene.py", "order = np.lexsort((frame, agent_of, scene_of))", "order = np.lexsort((agent_of, scene_of))",
     ["tests/test_scene.py::TestColumnPath"]),
    ("scene.py", "or width[2] > 20 or size[[0, 1, 9, -1]].max() * n_rows > len(buf):", "or width[2] > 20:",
     ["tests/test_scene.py::test_column_path_refuses_a_key_column_larger_than_the_file"]),
    # Evaluation: a miss is strictly beyond the threshold, RMSE takes the most likely mode, worst-case
    # ties go to the larger id, and only a line of the skeleton's shape takes the flat decode.
    ("evaluation.py", "np.count_nonzero(fde_k > threshold)", "np.count_nonzero(fde_k >= threshold)",
     ["tests/test_evaluation.py::TestMissRate"]),
    ("evaluation.py", "np.argmax(table.probs, axis=1)", "np.argmin(table.probs, axis=1)", ["tests/test_evaluation.py::TestRmse"]),
    ("evaluation.py", "key=lambda kv: (kv[1], kv[0]), reverse=True)", "key=lambda kv: kv[1], reverse=True)",
     ["tests/test_evaluation.py::TestWorstCase"]),
    ("evaluation.py", ".translate(None, _SKIP) != skeleton:", ".translate(None, _SKIP) is None:",
     ["tests/test_evaluation.py::TestParseJsonl"]),
    # Interaction: only a vehicle neighbor's longitudinal velocity counts, a neighbor at the radius is near,
    # and a pair nearer than EPS_DIST has rate 0 even when it closes.
    ("interaction.py", 'v_j_lon = np.where(g.kinds == "vehicle",', 'v_j_lon = np.where(g.kinds != "vehicle",',
     ["tests/test_interaction.py"]),
    ("interaction.py", "dist[..., local] <= radius,", "dist[..., local] < radius,",
     ["tests/test_interaction.py::TestGlobalSceneRisk::test_neighbor_exactly_at_the_radius_counts"]),
    ("interaction.py", "ok = (closing > 0.0) & ~coincident", "ok = closing > 0.0",
     ["tests/test_interaction.py::TestIttc::test_closing_pair_nearer_than_eps_dist_has_zero_rate_and_flag"]),
    # The meta-memory step: the loss, its gradient and inner_update refuse an empty batch, a directionless
    # prototype row gets no gradient, the cosines read the prototypes in C order, and the step descends;
    # augment gates through a sigmoid; the momentum update keeps eta of the old row.
    ("memory.py", '    if g_adj.shape[0] == 0:\n        raise UsageError("empty batch")\n', "",
     ["tests/test_memory.py::TestBatchForm::test_loss_and_gradient_refuse_an_empty_batch",
      "tests/test_memory.py::TestBatchForm::test_empty_batch_is_a_usage_error"]),
    ("memory.py", "np.divide(1.0, row_norms, out=np.zeros_like(row_norms), where=ok_m)",
     "np.divide(1.0, row_norms, out=np.zeros_like(row_norms))",
     ["tests/test_memory.py::TestBatchForm::test_inner_update_with_degenerate_rows"]),
    ("memory.py", "_unit_rows(np.ascontiguousarray(prototypes, dtype=float))",
     "_unit_rows(np.asarray(prototypes, dtype=float))",
     ["tests/test_memory.py::TestBatchForm::test_gradient_has_the_same_bits_in_either_memory_order"]),
    ("memory.py", "return mem.prototypes - alpha_lr * _proto_grad(", "return mem.prototypes + alpha_lr * _proto_grad(",
     ["tests/test_memory.py::TestBatchForm::test_inner_update_matches_per_sample_reference"]),
    ("memory.py", "gate = sigmoid(params.gate_mlp.forward(h)[1])", "gate = params.gate_mlp.forward(h)[1]",
     ["tests/test_memory.py::TestAugment"]),
    ("memory.py", "mem.eta * new_rows[c] + (1.0 - mem.eta) * (w @ batch.f_m[mask])",
     "(1.0 - mem.eta) * new_rows[c] + mem.eta * (w @ batch.f_m[mask])", ["tests/test_memory.py::TestUpdatePrototypes"]),
    # The CLI: no number option takes a boolean. synth refuses sizes over its cap before it allocates (a
    # test that ran the grid without the cap would loop for ever, so only the frames case is named); its
    # circle rounds its angle as written, and the report matrix pins those bits. The package exports AgentState.
    ("cli.py", "isinstance(v, types) and not isinstance(v, bool)", "isinstance(v, types)",
     ["tests/test_cli.py::TestEvalCommand::test_mistyped_config_option_exits_2"]),
    ("synth.py", "if size > _SIZE_CAP:", "if False:",
     ["tests/test_cli.py::TestSynthCommand::test_size_over_the_cap_exits_2_at_once_naming_it[frames]"]),
    ("synth.py", "psi = psi0 + omega * t", "psi = psi0 + spec.speed * t / spec.radius",
     ["tests/test_report_matrix.py::test_synth_bytes"]),
    ("__init__.py", '"scene": "AgentState KinematicSeries', '"scene": "KinematicSeries', ["tests/test_imports.py"]),
]


def copy_src(tmp: str, mutant=None) -> Path:
    """A copy of ``src/`` under ``tmp``, with ``mutant``'s replacement applied if one is given."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant:
        file, old, new, _ = mutant
        path = src / "tailscope" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return src


def run_tests(src: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "--assert=plain", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    per_module = Counter(file for file, *_ in MUTANTS)
    modules = sorted(path.name for path in (ROOT / "src" / "tailscope").glob("*.py"))
    for module in modules:
        print(f"{per_module[module]:3} mutants  {module}")
    faults = [f"NO MUTANT in {module}" for module in modules if not per_module[module]]
    for file, old, new, tests in MUTANTS:
        count = (ROOT / "src" / "tailscope" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            faults.append(f"STALE {file}: old text found {count} times: {old!r}")
    for line in faults:
        print(line)
    if faults:
        return 2
    every_test = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        if run_tests(copy_src(tmp), every_test) != 0:
            print(f"the unmutated tree fails {' '.join(every_test)}: no verdict")
            return 2
    survived = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            rc = run_tests(copy_src(tmp, mutant), mutant[3])
        survived += rc == 0
        file, old, new, _ = mutant
        print(f"{'killed' if rc else 'SURVIVED':8} {time.perf_counter() - start:5.1f} s  {file}: {old!r} -> {new!r}",
              flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
