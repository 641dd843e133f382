"""Line-coverage gate: every line of every function body in ``src/tailscope`` must run under tier-1.

This script runs the tier-1 suite in-process under ``sys.settrace``. The global
tracer hands a line tracer only to frames whose code lives under
``src/tailscope``, so the rest of the process runs at near full speed. It then
compares the lines that ran with each function body's lines, taken from the
``co_lines()`` of every function, lambda and comprehension code object compiled
from the source (module and class bodies run at import and are not counted;
a function's prologue up to its ``RESUME`` is its ``def`` line).

``ALLOWED`` lists the lines that only a subprocess or a first import runs, by
file and exact stripped text, each with its reason. The gate exits non-zero if
the suite fails, if a line that did not run is not in the table, or if a row is
stale: its text is not exactly one function-body line of its file. It prints
the lines run per module, and any allowed line that ran anyway.

Run from anywhere with ``python tests/coverage.py`` (stdlib and pytest only;
pytest does not collect this file). A change that adds a line no test runs
either adds the test or deletes the line.
"""

import dis
import inspect
import os
import sys
import threading
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailscope"

#: (file under src/tailscope, exact stripped line text, why no in-process test runs it)
ALLOWED = []


def body_lines(path: Path) -> set[int]:
    """The line numbers of every function body in ``path``, after each prologue."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:
            ops = dis.get_instructions(code)
            resume = next((ins.offset for ins in ops if ins.opname == "RESUME"), -1)  # no RESUME before 3.11
            lines.update(line for start, _, line in code.co_lines() if start > resume and line is not None)
    return lines


def run_suite() -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit code, and the (real path, line) pairs that ran under ``src/tailscope``."""
    import pytest

    prefix, ran = str(PACKAGE) + os.sep, set()

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = Path(sys.modules["tailscope"].__file__).resolve().parent
    if loaded != PACKAGE:
        print(f"the suite imported tailscope from {loaded}, not {PACKAGE}")
        return 2, set()
    return int(code), {(os.path.realpath(file), line) for file, line in ran}


def main() -> int:
    code, ran = run_suite()
    faults = [] if code == 0 else [f"the suite failed with exit code {code}"]
    rows, texts, unrun_texts = {(file, text) for file, text, _ in ALLOWED}, Counter(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        text_of = dict(enumerate(path.read_text(encoding="utf-8").splitlines(), start=1))
        expected = body_lines(path)
        unrun = sorted(expected - {line for file, line in ran if file == os.path.realpath(path)})
        print(f"{len(expected) - len(unrun):5} of {len(expected):5} lines ran  {path.name}")
        texts.update((path.name, text_of[line].strip()) for line in expected)
        for line in unrun:
            unrun_texts.add((path.name, text_of[line].strip()))
            if (path.name, text_of[line].strip()) not in rows:
                faults.append(f"UNRUN {path.name}:{line}: {text_of[line].strip()}")
    for file, text, _ in ALLOWED:
        if texts[file, text] != 1:
            faults.append(f"STALE {file}: {text!r} is {texts[file, text]} function-body lines, not 1")
        elif (file, text) not in unrun_texts:
            print(f"      allowed but ran: {file}: {text}")
    for line in faults:
        print(line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
