"""Report matrix: the bytes of ``metrics`` and mean-mode ``rank`` reports on a
seeded plain scene CSV and on its twins, and the exit code and error text of
one refused file per twin; ``rank`` with library-saved stats and params files
in both modes and without ``--categories``; ``eval`` with default options,
with ``--threshold``, with every ranking option and to stdout, on
``json.dumps`` lines, compact-separator lines, lines that take the
leaf-by-leaf reader and lines with non-ASCII ids, escaped or not; ``synth``
of each kind, its scene CSV and its oracle sidecar. Every passing row writes
nothing to stderr.

The twins write the same scenes as the plain file in the ways other CSV
writers do: quoted scene ids, a space after every comma, ``\\r\\n`` or lone
``\\r`` line endings, a blank line, no ``target`` column (the lowest agent id
is then the target) and a non-ASCII agent id. Each row pins the SHA-256 of
its input, so the inputs built here cannot drift unseen, and the SHA-256 of
its report. A refused file is its twin with one cell changed.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from tailscope import evaluation
from tailscope.cli import main
from tailscope.perceiver import DatasetStats, default_params

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


def run(tmp_path, argv, text, name="in.csv"):
    """``main`` on ``text`` written as UTF-8 bytes: the input's bytes, the exit
    code and the report's bytes (None when there is none)."""
    data = text.encode("utf-8")
    (tmp_path / name).write_bytes(data)
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    rc = main([*argv, "--input", str(tmp_path / name), "--out", str(out)])
    return data, rc, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("twin, command, input_sha, report_sha", REPORTS, ids=[f"{t}-{c}" for t, c, *_ in REPORTS])
def test_report_bytes(tmp_path, capsys, twin, command, input_sha, report_sha):
    data, rc, report = run(tmp_path, ARGV[command], TWINS[twin](plain_csv()))
    assert sha256(data) == input_sha
    assert rc == 0 and sha256(report) == report_sha
    assert capsys.readouterr().err == ""


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


def sidecars(tmp_path) -> dict:
    """A stats file and a params file, each saved by the library, by flag."""
    paths = {"--stats": tmp_path / "stats.json", "--params": tmp_path / "params.json"}
    DatasetStats.fit(np.random.default_rng(31).gamma(2.0, 1.0, size=(24, 14))).save(paths["--stats"])
    default_params(hidden=12, latent=6, seed=5).save(paths["--params"])
    return paths


#: The SHA-256 of each sidecar file.
SIDECARS = {
    "--stats": "766d8d06b7b78d88154d5e5c3c2bc07dd8b5cd71b64dbfb376978506fe6d0ba3",
    "--params": "f69a04daf8af5215d60ee2d09e1f8dbdc717e3fdc6d67ddd7e97e5814570151a",
}

#: (row, ``rank`` options on the plain file, whether they take the sidecars, report SHA-256)
RANK_REPORTS = [
    ("sidecars-mean", ["--mode", "mean", "--categories", "3"], True, "4b97011b1f6064c5596505b5b010b3cbdb3f0917c25f9c0b8a3920a47f1e58b0"),
    ("sidecars-sample", ["--mode", "sample", "--seed", "4", "--categories", "4"], True, "5852e252b947a1cef51cd6249053d6d98f931bf34f71de35551b5f6359233b41"),
    ("no-categories", ["--mode", "mean"], False, "c4b1cb6bfe6d88fd630927bb3d5f11557022b449703dbbc892cde94171d2f806"),
]


@pytest.mark.parametrize(
    "options, with_sidecars, report_sha", [row[1:] for row in RANK_REPORTS], ids=[row[0] for row in RANK_REPORTS]
)
def test_rank_report_bytes(tmp_path, capsys, options, with_sidecars, report_sha):
    paths = sidecars(tmp_path)
    assert {flag: sha256(path.read_bytes()) for flag, path in paths.items()} == SIDECARS
    argv = ["rank", *options]
    if with_sidecars:
        argv += [part for flag, path in paths.items() for part in (flag, str(path))]
    data, rc, report = run(tmp_path, argv, plain_csv())
    assert sha256(data) == REPORTS[0][2]
    assert rc == 0 and sha256(report) == report_sha
    assert capsys.readouterr().err == ""


def forecasts() -> list[dict]:
    """Sixteen samples of 10 or 12 modes over 6 steps, three with tied probabilities."""
    rng = np.random.default_rng(4242)
    records = []
    for i in range(16):
        n_modes, horizon = (10, 12)[i % 2], 6
        gt = np.cumsum(rng.normal(0.0, 1.0, size=(horizon, 2)), axis=0)
        modes = gt[None] + rng.normal(0.0, 1.5, size=(n_modes, horizon, 2))
        probs = rng.uniform(0.1, 1.0, size=n_modes)
        if i % 7 == 0:
            probs[:2] = probs[2]
        probs = probs / probs.sum()
        records.append({"sample_id": f"e{i:02d}", "modes": modes.tolist(), "probs": probs.tolist(), "gt": gt.tolist()})
    return records


def _id_last(record: dict) -> dict:
    return {**{key: record[key] for key in ("modes", "probs", "gt")}, "sample_id": record["sample_id"]}


#: Each way of writing ``forecasts()`` as JSONL: the same samples, so the same reports.
FORECAST_TWINS = {
    "dumps": lambda records: "".join(json.dumps(r) + "\n" for r in records),
    "compact": lambda records: "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records),
    "id-last": lambda records: "".join(json.dumps(_id_last(r)) + "\n" for r in records),  # takes _row
}


def non_ascii_ids(records: list[dict]) -> str:
    """The samples under ids with a non-ASCII letter and a quote, escaped as
    ``\\u00fc`` and ``\\"`` on even lines, written as UTF-8 on odd ones."""
    return "".join(
        json.dumps({**r, "sample_id": f'\u00fc"{r["sample_id"]}'}, ensure_ascii=i % 2 == 0) + "\n"
        for i, r in enumerate(records)
    )


#: Every forecast file of the matrix: the twins and the non-ASCII ids.
FORECAST_FILES = {**FORECAST_TWINS, "non-ascii-ids": non_ascii_ids}

#: (twin, ``eval`` options, input SHA-256, report SHA-256)
EVAL_REPORTS = [
    ("dumps", [], "76e5f77e67af0aad695caedc5fefec13f492d3f25279a2e03c3851ecb9aa70b1", "c9bd3fdd50e4ad87d784b750a4590b5fa191d1f35eb0adf67fd185cb482b55b8"),
    ("dumps", ["--threshold", "1.5"], "76e5f77e67af0aad695caedc5fefec13f492d3f25279a2e03c3851ecb9aa70b1", "a3918a35114d1a79218d528979e01f1707db8ba2ce20eca7ad73ac853a691b86"),
    ("compact", [], "f8f04cb80ddcf58711d97e9374af3dfb139888e870d6ab8be37edf4e14edd817", "c9bd3fdd50e4ad87d784b750a4590b5fa191d1f35eb0adf67fd185cb482b55b8"),
    ("id-last", [], "fb04374e44ddddbaa743f8dd9cc65d82da1f3e1e89efb2d66e8609b0cd7699a1", "c9bd3fdd50e4ad87d784b750a4590b5fa191d1f35eb0adf67fd185cb482b55b8"),
    ("dumps", ["--k", "1,2", "--topk", "10,50", "--rank-metric", "min_fde", "--rank-k", "2"], "76e5f77e67af0aad695caedc5fefec13f492d3f25279a2e03c3851ecb9aa70b1", "0e67d71bf5fb606fe5e438c4ec8c88f7429b093001c6eaf082c012fc4b7cb5bd"),
    ("non-ascii-ids", [], "30ec190ca19dfc3e25cd8516828a4822b1f0107f5726fe77b2209dd6c2150a98", "e723aa693d0323fb882d2e889abfc9c64089e2f4f900ea3174ea23b84c8bb4e2"),
]

EVAL_IDS = [f"{twin}-{'-'.join(options) or 'default'}" for twin, options, *_ in EVAL_REPORTS]


@pytest.mark.parametrize("twin, options, input_sha, report_sha", EVAL_REPORTS, ids=EVAL_IDS)
def test_eval_report_bytes(tmp_path, capsys, twin, options, input_sha, report_sha):
    data, rc, report = run(tmp_path, ["eval", *options], FORECAST_FILES[twin](forecasts()), name="in.jsonl")
    assert sha256(data) == input_sha
    assert rc == 0 and sha256(report) == report_sha
    assert capsys.readouterr().err == ""


def test_twins_of_one_forecast_file_give_its_report():
    twins = {sha for twin, options, _, sha in EVAL_REPORTS if not options and twin in FORECAST_TWINS}
    assert twins == {EVAL_REPORTS[0][3]}


def test_eval_report_to_stdout_is_the_file_report(tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    path.write_text(FORECAST_TWINS["dumps"](forecasts()), encoding="utf-8")
    assert main(["eval", "--input", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (sha256(out.encode("utf-8")), err) == (EVAL_REPORTS[0][3], "")


def test_only_the_id_last_twin_takes_the_leaf_by_leaf_reader(monkeypatch):
    """The files pin both forecast readers: ``_flat_row`` takes every line of the
    other files and no line with the id last, which ``_row`` reads."""
    read, taken = evaluation._row, []

    def spy(line, line_no):
        taken.append(line_no)
        return read(line, line_no)

    monkeypatch.setattr(evaluation, "_row", spy)
    for twin, write in FORECAST_FILES.items():
        taken.clear()
        evaluation.parse_forecast_jsonl(write(forecasts()))
        assert taken == (list(range(1, 17)) if twin == "id-last" else []), twin


#: (kind, ``synth`` options, scene CSV SHA-256, oracle sidecar SHA-256); the
#: options are the whole input.
SYNTH_REPORTS = [
    ("constant", ["--agents", "4", "--frames", "12", "--seed", "3"], "94c88920b0e06d168b7b41d3bf1640e9a4855a2d17fdf055092b395245c2673c", "d8c2e21597f6cfda593d1801cbfc83777ee0653d66ecee98f00d72e515343f44"),
    ("circle", ["--radius", "15", "--speed", "6", "--frames", "30", "--dt", "0.05", "--seed", "1"], "f51c3d1a61fb78b22ebf86ee164d277f858996a037de3412a01e6ee1211bc9ed", "b3ab42233abae4ecef45ea9368db2739ca15feb33891ef336a75964393710c37"),
    ("brake", ["--speed", "8", "--decel", "3", "--frames", "40"], "96f400525bc2b6532413bf405d42b5565722513917322f203f1cdc95e5d41bf2", "755bb83e934b7e893ec4646520045a23f31a4f31cc97918d49998f8fbff1826a"),
    ("crossing", ["--gap", "30", "--speed", "4", "--frames", "20", "--seed", "2"], "849476d6bfbf569629a03b0f6be752017d5d58c055682bd5b0a9413a1eca8746", "8685e684fe2d191cc0e3346c3dd9e8ed236292161c5df54a87a8d31daf1fe36f"),
    ("grid", ["--agents", "5", "--gap", "10", "--neighbor-radius", "20"], "d95d43520902a0032876bc15addd7fc32c6e071f51d22ad72964a66135bf3801", "0434b5800461505583d3f983dddd04da5c3e9fecbcec2ec78735efbb2f50eb1d"),
]


@pytest.mark.parametrize("kind, options, csv_sha, sidecar_sha", SYNTH_REPORTS, ids=[row[0] for row in SYNTH_REPORTS])
def test_synth_bytes(tmp_path, capsys, kind, options, csv_sha, sidecar_sha):
    out = tmp_path / "scene.csv"
    assert main(["synth", "--kind", kind, *options, "--out", str(out)]) == 0
    written = out.read_bytes(), (tmp_path / "scene.csv.oracle.json").read_bytes()
    assert tuple(map(sha256, written)) == (csv_sha, sidecar_sha)
    assert capsys.readouterr().err == ""
