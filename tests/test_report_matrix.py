"""Report matrix: the bytes of ``metrics`` and mean-mode ``rank`` reports on a
seeded plain scene CSV and on its twins, and the exit code and error text of
one refused file per twin.

The twins write the same scenes as the plain file in the ways other CSV
writers do: quoted scene ids, a space after every comma, ``\\r\\n`` or lone
``\\r`` line endings, a blank line, no ``target`` column (the lowest agent id
is then the target) and a non-ASCII agent id. Each row pins the SHA-256 of
its input, so the inputs built here cannot drift unseen, and the SHA-256 of
its report. A refused file is its twin with one cell changed.
"""

import hashlib
import math

import numpy as np
import pytest

from tailscope.cli import main

KINDS = ("vehicle", "pedestrian", "other")
HEADER = "scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind,target"


def plain_csv() -> str:
    """Eight scenes of one to four agents over 6 or 9 frames; the target is a
    seeded agent, not always the lowest id."""
    rng = np.random.default_rng(2207)
    lines = [HEADER]
    for s in range(8):
        n_agents, n_frames = 1 + s % 4, (6, 9)[s % 2]
        target = int(rng.integers(n_agents))
        for a in range(n_agents):
            p, v = rng.uniform(-30.0, 30.0, size=2), rng.normal(0.0, 4.0, size=2)
            for k in range(n_frames):
                v = v + rng.normal(0.0, 0.8, size=2)
                values = ",".join(repr(float(z)) for z in (k / 10, p[0], p[1], v[0], v[1], math.atan2(v[1], v[0])))
                lines.append(f"m{s},{a},{k},{values},{KINDS[(s + a) % 3]},{int(a == target)}")
                p = p + 0.1 * v
    return "\n".join(lines) + "\n"


def _cells(text, change):
    """``text`` with ``change(cells)`` applied to every line's cells."""
    return "".join(",".join(change(line.split(","))) + "\n" for line in text.splitlines())


def _quoted(cells):
    return cells if cells[0] == "scene_id" else [f'"{cells[0]}"', *cells[1:]]


def _non_ascii(cells):
    return [cells[0], "ü1" if cells[1] == "1" else cells[1], *cells[2:]]


TWINS = {
    "plain": lambda text: text,
    "quoted": lambda text: _cells(text, _quoted),
    "spaced": lambda text: text.replace(",", ", "),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "blank": lambda text: text.replace("\nm2,", "\n\nm2,", 1),
    "no-target": lambda text: _cells(text, lambda cells: cells[:-1]),
    "non-ascii": lambda text: _cells(text, _non_ascii),
}

ARGV = {"metrics": ["metrics"], "rank": ["rank", "--mode", "mean", "--categories", "3"]}

#: (twin, command, input SHA-256, report SHA-256)
REPORTS = [
    ("plain", "metrics", "f32830412d226289cf38f576cbe4c4f05d7fcaaa1ed48b64a54ef2011fcb9269", "180ceb2b3219a613948efc0f9332b6352474e5ba740bfacce9adbc07e0e4c54f"),
    ("plain", "rank", "f32830412d226289cf38f576cbe4c4f05d7fcaaa1ed48b64a54ef2011fcb9269", "b9c620d0187f59b2b13cde09f5afa428217ee52ebe49868026c73ebf10453ec3"),
    ("quoted", "metrics", "18d0d4b480f9d02c6b535318d731610818f0bcb8c6731bbb7386383afebdf4de", "180ceb2b3219a613948efc0f9332b6352474e5ba740bfacce9adbc07e0e4c54f"),
    ("quoted", "rank", "18d0d4b480f9d02c6b535318d731610818f0bcb8c6731bbb7386383afebdf4de", "b9c620d0187f59b2b13cde09f5afa428217ee52ebe49868026c73ebf10453ec3"),
    ("spaced", "metrics", "c6d7812f500641f21c4ecd75d4f99ccd1744c89b57d904025e5aeaf7ddf89c97", "180ceb2b3219a613948efc0f9332b6352474e5ba740bfacce9adbc07e0e4c54f"),
    ("spaced", "rank", "c6d7812f500641f21c4ecd75d4f99ccd1744c89b57d904025e5aeaf7ddf89c97", "b9c620d0187f59b2b13cde09f5afa428217ee52ebe49868026c73ebf10453ec3"),
    ("crlf", "metrics", "fc08f3cb5299b35772e7d0581769b900144aaa4a87676ccf02895e8ccab1d131", "180ceb2b3219a613948efc0f9332b6352474e5ba740bfacce9adbc07e0e4c54f"),
    ("crlf", "rank", "fc08f3cb5299b35772e7d0581769b900144aaa4a87676ccf02895e8ccab1d131", "b9c620d0187f59b2b13cde09f5afa428217ee52ebe49868026c73ebf10453ec3"),
    ("cr", "metrics", "60fd3fb13b4e900b40e705f2fd04d2badf137b52a3d98a13991eefe7f56a3c16", "180ceb2b3219a613948efc0f9332b6352474e5ba740bfacce9adbc07e0e4c54f"),
    ("cr", "rank", "60fd3fb13b4e900b40e705f2fd04d2badf137b52a3d98a13991eefe7f56a3c16", "b9c620d0187f59b2b13cde09f5afa428217ee52ebe49868026c73ebf10453ec3"),
    ("blank", "metrics", "0d3f15588437d1879dce396259811efcc40709944c0140e5067341b3cfc5d9f5", "180ceb2b3219a613948efc0f9332b6352474e5ba740bfacce9adbc07e0e4c54f"),
    ("blank", "rank", "0d3f15588437d1879dce396259811efcc40709944c0140e5067341b3cfc5d9f5", "b9c620d0187f59b2b13cde09f5afa428217ee52ebe49868026c73ebf10453ec3"),
    ("no-target", "metrics", "db6aef4f0dd37610ec49bbccaf1c6c4a39883263473e0cac183af79a356140da", "877001b173f0a599c1420007adcbde30ece086dfc7829d392ed8224c7762a402"),
    ("no-target", "rank", "db6aef4f0dd37610ec49bbccaf1c6c4a39883263473e0cac183af79a356140da", "c16b6f4c245129dca6fe8bd425ad178cde25930f70bbb98bf6aeb9a076c956b4"),
    ("non-ascii", "metrics", "1978d0146eedaccdab79987dc0e2f86d3b2309d633e336f77f34c82d482e8ffd", "180ceb2b3219a613948efc0f9332b6352474e5ba740bfacce9adbc07e0e4c54f"),
    ("non-ascii", "rank", "1978d0146eedaccdab79987dc0e2f86d3b2309d633e336f77f34c82d482e8ffd", "b9c620d0187f59b2b13cde09f5afa428217ee52ebe49868026c73ebf10453ec3"),
]

#: (twin, line of the plain file, column, new cell, input SHA-256, stderr of ``metrics``)
REFUSED = [
    ("plain", 3, 8, "3.5", "e8e0497e66fb775029bffcc0ed5f6b30d1f5c759f781a5ad8e746af1dbdd60fb", 'error: line 4: heading must lie in (-pi, pi], got 3.5\n'),
    ("quoted", 20, 9, "bike", "49d7b919889c8a238a3433c6ea42a25cf3806888c44b4127d66037246724d359", "error: line 21: unknown kind 'bike', expected one of vehicle|pedestrian|other\n"),
    ("spaced", 7, 5, "x", "631149c500aa16f4684a0193930be434b6645e69202a11e922fdcd0eb93640ff", "error: line 8: column 'y': not a number: ' x'\n"),
    ("crlf", 12, 2, "4", "e450175b3f9d901f2f2cd93ee5154ed91c97ba09667ff042a2f4a5787a79176c", "error: scene 'm1' agent '0': duplicate frame 4\n"),
    ("cr", 30, 3, "0.45", "f22a953f45681cdaf933b0b6861661bf9ed08271806eaa2564cecffbedb57d89", "error: scene 'm2': trajectory '0': gap 0.05 s at frame 5 is not dt=0.1 s\n"),
    ("blank", 40, 10, "2", "fd6effbe9778ac87f837007e4a38466e573ca8587c72c3f2b2587eb6ee2a01f0", "error: line 42: column 'target': expected 0 or 1, got '2'\n"),
    ("no-target", 50, 2, "1.5", "341838fa548d0ebe489b7467773ebd3c2ca12643a03c5369da73931c9143300d", "error: line 51: column 'frame': not an integer: '1.5'\n"),
    ("non-ascii", 22, 4, "1e200", "6079288cb5b6cec67dbe1f65af8cf67edaa3c87904ba52510721e3d0a3f6f5a5", "error: scene 'm1': trajectory 'ü1': non-finite value, or a position or velocity beyond 1e+150, at frame 6\n"),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def refused_csv(twin, line, column, cell) -> str:
    lines = plain_csv().splitlines()
    cells = lines[line].split(",")
    cells[column] = cell
    lines[line] = ",".join(cells)
    return TWINS[twin]("\n".join(lines) + "\n")


def run(tmp_path, argv, text):
    """``main`` on ``text`` written as UTF-8 bytes: the input's bytes, the exit
    code and the report's bytes (None when there is none)."""
    data = text.encode("utf-8")
    (tmp_path / "in.csv").write_bytes(data)
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    rc = main([*argv, "--input", str(tmp_path / "in.csv"), "--out", str(out)])
    return data, rc, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("twin, command, input_sha, report_sha", REPORTS, ids=[f"{t}-{c}" for t, c, *_ in REPORTS])
def test_report_bytes(tmp_path, twin, command, input_sha, report_sha):
    data, rc, report = run(tmp_path, ARGV[command], TWINS[twin](plain_csv()))
    assert sha256(data) == input_sha
    assert rc == 0 and sha256(report) == report_sha


@pytest.mark.parametrize("twin, line, column, cell, input_sha, stderr", REFUSED, ids=[row[0] for row in REFUSED])
def test_refused_file(tmp_path, capsys, twin, line, column, cell, input_sha, stderr):
    data, rc, report = run(tmp_path, ARGV["metrics"], refused_csv(twin, line, column, cell))
    assert sha256(data) == input_sha
    assert (rc, report, capsys.readouterr().err) == (2, None, stderr)


def test_twins_of_one_target_give_the_plain_report():
    """Every twin that keeps the target column writes the plain file's scenes,
    so its reports are the plain file's bytes."""
    report = {(twin, command): sha for twin, command, _, sha in REPORTS}
    for twin in ("quoted", "spaced", "crlf", "cr", "blank", "non-ascii"):
        for command in ARGV:
            assert report[twin, command] == report["plain", command], (twin, command)
