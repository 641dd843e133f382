"""Mutation gate: each mutant below must make its named tests fail.

A mutant is one exact text replacement in one file of ``src/tailscope``. For
each, this script copies ``src/`` to a temporary directory, applies the
replacement there and runs the named test files against the copy with
``pytest -x -q``. The same tests must first pass on an unmutated copy, so a
failing run kills the mutant; a passing run means it survived, and the tests
do not pin the rule the mutant breaks. An old text that is not in its file
exactly once is a stale table row and fails the gate at once.

Run from anywhere with ``python tests/mutants.py`` (stdlib only; pytest does
not collect this file). It prints killed or survived per mutant and exits
non-zero if any mutant survives or any row is stale.

A change that adds a fast path, a memo or a refusal adds the mutant its new
test kills.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (file under src/tailscope, exact old text, new text, test files that must kill it)
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
    # The similarity memo keys on the bytes of a C-ordered copy, so a Fortran matrix gets its own norms' bits.
    ("memory.py", "prototypes = np.ascontiguousarray(prototypes, dtype=float)",
     "prototypes = np.asarray(prototypes, dtype=float)", ["tests/test_memory.py"]),
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
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    stale = []
    for file, old, new, tests in MUTANTS:
        count = (ROOT / "src" / "tailscope" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            stale.append(f"{file}: old text found {count} times: {old!r}")
    for line in stale:
        print(f"STALE {line}")
    if stale:
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
