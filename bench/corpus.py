"""Seeded corpus generators for the benchmark.

Every generator is a pure function of its seed and size arguments, so the
parent commit and a change run byte-identical inputs; ``digest`` names a
corpus by the SHA-256 of its bytes. Floats are written with
``repr(float(x))`` (a plain ``repr`` of a numpy scalar reads ``np.float64(..)``
under numpy 2, which the scene parser rejects).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

CSV_HEADER = "scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind,target\n"
KINDS = ("vehicle", "pedestrian", "other")
#: Mean speed (m/s) and acceleration noise (m/s^2) of each kind's random walk.
KIND_MOTION = {"vehicle": (8.0, 1.5), "pedestrian": (1.4, 0.5), "other": (4.0, 1.0)}
DT = 0.1


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class SceneCorpus:
    """Random-walk scenes: arrays (S, N, T) plus the CSV text that encodes them."""

    pos: np.ndarray    # (S, N, T, 2)
    vel: np.ndarray    # (S, N, T, 2)
    heading: np.ndarray  # (S, N, T)
    kinds: list        # per scene, per agent kind name
    csv: bytes

    @property
    def n_scenes(self) -> int:
        return self.pos.shape[0]

    def scene_id(self, s: int) -> str:
        return f"s{s:05d}"

    def plain_agents(self, s: int) -> dict:
        """Scene ``s`` in the plain structure ``tests/oracles.py`` consumes."""
        n_agents, n_frames = self.pos.shape[1], self.pos.shape[2]
        t = [f / 10 for f in range(n_frames)]
        out = {}
        for a in range(n_agents):
            p, v, h = self.pos[s, a].tolist(), self.vel[s, a].tolist(), self.heading[s, a].tolist()
            out[str(a)] = {
                "kind": self.kinds[s][a],
                "dt": DT,
                "states": [(t[k], p[k][0], p[k][1], v[k][0], v[k][1], h[k]) for k in range(n_frames)],
            }
        return out


def scene_corpus(seed: int, scenes: int, agents: int, frames: int, radius: float = 50.0) -> SceneCorpus:
    """Random-walk scenes whose agents all start inside ``0.6 * radius`` of the origin.

    Agent ``0`` is the target. Kinds are drawn per agent from
    vehicle/pedestrian/other; velocities follow a Gaussian acceleration walk
    around a kind-specific cruising speed and headings follow the velocity,
    kept in (-pi, pi].
    """
    rng = np.random.default_rng(seed)
    kind_idx = rng.integers(0, len(KINDS), size=(scenes, agents))
    mean_speed = np.array([KIND_MOTION[k][0] for k in KINDS])[kind_idx]
    noise = np.array([KIND_MOTION[k][1] for k in KINDS])[kind_idx]

    r0 = 0.6 * radius * np.sqrt(rng.uniform(size=(scenes, agents)))
    a0 = rng.uniform(-math.pi, math.pi, size=(scenes, agents))
    p0 = np.stack([r0 * np.cos(a0), r0 * np.sin(a0)], axis=-1)
    d0 = rng.uniform(-math.pi, math.pi, size=(scenes, agents))
    speed0 = mean_speed * rng.uniform(0.5, 1.5, size=(scenes, agents))
    v0 = np.stack([speed0 * np.cos(d0), speed0 * np.sin(d0)], axis=-1)

    acc = rng.normal(size=(scenes, agents, frames - 1, 2)) * noise[..., None, None]
    vel = np.concatenate([v0[:, :, None], v0[:, :, None] + np.cumsum(acc * DT, axis=2)], axis=2)
    steps = np.cumsum(vel[:, :, 1:] * DT, axis=2)
    pos = np.concatenate([p0[:, :, None], p0[:, :, None] + steps], axis=2)
    heading = np.arctan2(vel[..., 1], vel[..., 0])
    heading = np.where(heading <= -math.pi, heading + 2.0 * math.pi, heading)

    kinds = [[KINDS[k] for k in row] for row in kind_idx.tolist()]
    out = io.StringIO()
    out.write(CSV_HEADER)
    times = [repr(f / 10) for f in range(frames)]
    for s in range(scenes):
        sid = f"s{s:05d}"
        for a in range(agents):
            prefix, kind, target = f"{sid},{a},", kinds[s][a], "1" if a == 0 else "0"
            px, py = pos[s, a, :, 0].tolist(), pos[s, a, :, 1].tolist()
            vx, vy = vel[s, a, :, 0].tolist(), vel[s, a, :, 1].tolist()
            hd = heading[s, a].tolist()
            out.writelines(
                f"{prefix}{k},{times[k]},{px[k]!r},{py[k]!r},{vx[k]!r},{vy[k]!r},{hd[k]!r},{kind},{target}\n"
                for k in range(frames)
            )
    return SceneCorpus(pos=pos, vel=vel, heading=heading, kinds=kinds, csv=out.getvalue().encode())


@dataclass(frozen=True)
class ForecastCorpus:
    modes: np.ndarray  # (S, K, T, 2)
    probs: np.ndarray  # (S, K)
    gt: np.ndarray     # (S, T, 2)
    jsonl: bytes

    def sample_id(self, i: int) -> str:
        return f"f{i:06d}"


def forecast_corpus(seed: int, samples: int, modes: int, horizon: int) -> ForecastCorpus:
    """Forecast samples: a curved ground truth plus K noisy, drifting modes.

    Points are rounded to the millimetre, which keeps the JSONL near the size of
    real exported forecasts; probabilities keep full precision so they sum to 1.
    """
    rng = np.random.default_rng(seed)
    speed = rng.uniform(2.0, 15.0, size=(samples, 1))
    yaw_rate = rng.normal(0.0, 0.2, size=(samples, 1))
    t = (np.arange(1, horizon + 1) * DT)[None]
    yaw = yaw_rate * t
    gt = np.stack([np.cumsum(speed * np.cos(yaw) * DT, axis=1), np.cumsum(speed * np.sin(yaw) * DT, axis=1)], axis=-1)
    drift = rng.normal(0.0, 1.0, size=(samples, modes, 1, 2)) * t[..., None]
    jitter = rng.normal(0.0, 0.3, size=(samples, modes, horizon, 2))
    pred = np.round(gt[:, None] + drift + jitter, 3)
    gt = np.round(gt, 3)
    logits = rng.normal(size=(samples, modes))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)

    lines = [
        json.dumps({"sample_id": f"f{i:06d}", "modes": pred[i].tolist(), "probs": probs[i].tolist(), "gt": gt[i].tolist()})
        for i in range(samples)
    ]
    return ForecastCorpus(modes=pred, probs=probs, gt=gt, jsonl=("\n".join(lines) + "\n").encode())


@dataclass(frozen=True)
class MemoryCorpus:
    """A reference batch plus ``batches`` adaptation batches, all of ``batch`` samples."""

    f_m: np.ndarray  # (batches + 1, B, D); index 0 is the reference batch
    f_i: np.ndarray  # (batches + 1, B, 8)
    f_r: np.ndarray  # (batches + 1, B, 6)
    ti: np.ndarray   # (batches + 1, B)

    def digest(self) -> str:
        return digest(b"".join(np.ascontiguousarray(a).tobytes() for a in (self.f_m, self.f_i, self.f_r, self.ti)))


def memory_corpus(seed: int, batches: int, batch: int, dim: int, categories: int) -> MemoryCorpus:
    """Features clustered around ``categories`` centres, with heavy-tailed Tail Index values."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 1.0, size=(categories, dim))
    n = batches + 1
    which = rng.integers(0, categories, size=(n, batch))
    f_m = centres[which] + rng.normal(0.0, 0.7, size=(n, batch, dim))
    f_i = np.clip(rng.standard_t(4, size=(n, batch, 8)), -10.0, 10.0)
    f_r = np.clip(rng.standard_t(4, size=(n, batch, 6)), -10.0, 10.0)
    ti = np.log1p(np.exp(rng.normal(0.0, 1.0, size=(n, batch)) + 0.3 * which))
    return MemoryCorpus(f_m=f_m, f_i=f_i, f_r=f_r, ti=ti)
