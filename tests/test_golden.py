"""Golden report hashes: `metrics` and `rank` output must stay byte-identical.

The input is a small seeded CSV of mixed-kind random-walk scenes built here,
including a single-agent scene, agents outside the neighbor radius and exactly
coincident agent pairs. The hashes were recorded from the loop-based
implementation of the interaction metrics; a refactor that changes any
report byte, even in the last float digit, fails this test.
"""

import hashlib
import math

import numpy as np

from tailscope.cli import main

KINDS = ("vehicle", "pedestrian", "other")

METRICS_SHA256 = "79333f90d91aee2bab78cf859b5efa9c91a5b4fb372775afda95551118ba2e15"
RANK_SHA256 = "5a55933b809277accea4353f42999cdaa1b96abea40c5c63ccc0be5751d1a2f8"


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


def _report_sha256(tmp_path, argv) -> str:
    csv_path = tmp_path / "golden.csv"
    csv_path.write_text(golden_csv(), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main([*argv, "--input", str(csv_path), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_metrics_report_hash(tmp_path):
    assert _report_sha256(tmp_path, ["metrics"]) == METRICS_SHA256


def test_rank_report_hash(tmp_path):
    argv = ["rank", "--mode", "sample", "--seed", "7", "--categories", "5"]
    assert _report_sha256(tmp_path, argv) == RANK_SHA256
