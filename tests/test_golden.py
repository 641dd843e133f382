"""Golden report hashes: `metrics`, `rank` and `eval` output must stay byte-identical.

The scene input is a small seeded CSV of mixed-kind random-walk scenes built
here, including a single-agent scene, agents outside the neighbor radius and
exactly coincident agent pairs. The forecast input is a seeded JSONL with
interleaved mode counts, tied probabilities, an exact forecast and a final
displacement exactly at the miss threshold. The hashes were recorded from the
loop-based implementations of the interaction metrics and of the forecast
scoring; a refactor that changes any report byte, even in the last float
digit, fails this test.
"""

import hashlib
import json
import math

import numpy as np

from tailscope.cli import main

KINDS = ("vehicle", "pedestrian", "other")

METRICS_SHA256 = "79333f90d91aee2bab78cf859b5efa9c91a5b4fb372775afda95551118ba2e15"
RANK_SHA256 = "5a55933b809277accea4353f42999cdaa1b96abea40c5c63ccc0be5751d1a2f8"
EVAL_SHA256 = "79fa33f43b4e6fd3c4bb2299e1c1b7fa964be71c514d9ebde8a7b9a01e0610f9"


def golden_csv() -> str:
    rng = np.random.default_rng(7070)
    lines = ["scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind,target"]
    n_frames = 12
    for s in range(10):
        n_agents = 1 if s == 0 else int(rng.integers(2, 8))
        kinds = [KINDS[int(i)] for i in rng.integers(0, 3, size=n_agents)]
        pos = rng.uniform(-40.0, 40.0, size=(n_agents, 2))
        vel = rng.normal(0.0, 5.0, size=(n_agents, 2))
        tracks = []
        for a in range(n_agents):
            rows, p, v = [], pos[a].copy(), vel[a].copy()
            for k in range(n_frames):
                v = v + rng.normal(0.0, 1.0, size=2)
                rows.append((p[0], p[1], v[0], v[1], math.atan2(v[1], v[0])))
                p = p + 0.1 * v
            tracks.append(rows)
        if n_agents >= 3 and s % 2 == 1:
            # agent 2 sits exactly on agent 1 for the first half of the scene,
            # and on the target at frame 0
            for k in range(n_frames // 2):
                x, y = tracks[1][k][:2]
                tracks[2][k] = (x, y) + tracks[2][k][2:]
            tracks[2][0] = tracks[0][0][:2] + tracks[2][0][2:]
        for a, rows in enumerate(tracks):
            for k, (x, y, vx, vy, h) in enumerate(rows):
                values = ",".join(repr(float(z)) for z in (k / 10, x, y, vx, vy, h))
                lines.append(f"g{s:02d},{a},{k},{values},{kinds[a]},{int(a == 0)}")
    return "\n".join(lines) + "\n"


def golden_jsonl() -> str:
    rng = np.random.default_rng(8080)
    horizon = 8
    lines = []
    for i in range(40):
        n_modes = 3 if i % 2 == 0 else 6  # two (K, T) groups, interleaved
        gt = np.cumsum(rng.normal(0.0, 1.0, size=(horizon, 2)), axis=0)
        modes = gt[None] + rng.normal(0.0, 2.0, size=(n_modes, horizon, 2))
        probs = rng.uniform(0.1, 1.0, size=n_modes)
        if i % 3 == 0:
            probs[1] = probs[0]  # modes 0 and 1 tie
        if i % 5 == 0:
            probs[:] = 1.0  # all modes tied
        probs = probs / probs.sum()
        if i == 7:
            modes[np.argmax(probs)] = gt  # the most likely mode hits the ground truth exactly
        if i == 12:
            # dyadic coordinates: every mode's final displacement is exactly 2 m
            gt = np.round(gt * 4.0) / 4.0
            modes = gt[None] + np.array([0.0, 2.0]) * (1.0 + np.arange(n_modes))[:, None, None]
            modes[:, -1] = gt[-1] + np.array([0.0, 2.0])
        lines.append(
            json.dumps(
                {
                    "sample_id": f"f{i:02d}",
                    "modes": modes.tolist(),
                    "probs": probs.tolist(),
                    "gt": gt.tolist(),
                }
            )
        )
    return "\n".join(lines) + "\n"


def _report_sha256(tmp_path, argv, text=None, name="golden.csv") -> str:
    in_path = tmp_path / name
    in_path.write_text(golden_csv() if text is None else text, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main([*argv, "--input", str(in_path), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_metrics_report_hash(tmp_path):
    assert _report_sha256(tmp_path, ["metrics"]) == METRICS_SHA256


def test_rank_report_hash(tmp_path):
    argv = ["rank", "--mode", "sample", "--seed", "7", "--categories", "5"]
    assert _report_sha256(tmp_path, argv) == RANK_SHA256


def test_eval_report_hash(tmp_path):
    argv = ["eval", "--k", "1,3", "--topk", "1,5,50", "--rank-metric", "min_fde", "--rank-k", "3"]
    digest = _report_sha256(tmp_path, argv, text=golden_jsonl(), name="golden.jsonl")
    assert digest == EVAL_SHA256
