"""Shared test helpers: trajectory builders and tolerance checks."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from tailscope.scene import Scene, Trajectory, wrap_angle


def make_traj(agent_id, velocities, dt=0.1, headings=None, p0=(0.0, 0.0), kind="vehicle"):
    """Trajectory from a velocity sequence, positions integrated forward.

    ``velocities`` is a list of (vx, vy); headings default to the movement
    direction of the first nonzero velocity (constant).
    """
    x, y = p0
    if headings is None:
        base = 0.0
        for vx, vy in velocities:
            if math.hypot(vx, vy) > 0:
                base = math.atan2(vy, vx)
                break
        headings = [base] * len(velocities)
    rows = []
    for k, ((vx, vy), heading) in enumerate(zip(velocities, headings)):
        rows.append((k * dt, x, y, vx, vy, wrap_angle(heading)))
        x += vx * dt
        y += vy * dt
    return Trajectory.from_rows(agent_id, rows, kind, dt)


def make_scene(trajs, target_id=None, neighbor_radius=50.0, scene_id="s"):
    agents = {t.agent_id: t for t in trajs}
    if target_id is None:
        target_id = trajs[0].agent_id
    return Scene(
        scene_id=scene_id, agents=agents, target_id=target_id, neighbor_radius=neighbor_radius
    )


def random_trajectory(rng, agent_id="0", n_frames=8, dt=0.1, kind="vehicle", scale=10.0):
    """Fully random (but valid) trajectory for brute-force comparisons."""
    rows = [
        (k * dt, *rng.uniform(-scale, scale, size=4).tolist(), float(rng.uniform(-math.pi + 1e-9, math.pi)))
        for k in range(n_frames)
    ]
    return Trajectory.from_rows(agent_id, rows, kind, dt)


def rel_close(a, b, tol=1e-12):
    """|a - b| within ``tol`` relative to the larger magnitude (tiny absolute floor)."""
    if a == b:
        return True
    return abs(a - b) <= max(tol * max(abs(a), abs(b)), 1e-30)


def assert_rel(a, b, tol=1e-12, label=""):
    assert rel_close(a, b, tol), f"{label}: {a!r} vs {b!r} (tol {tol})"


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


try:
    from hypothesis import settings
except ImportError:  # only the property tests need it, and they skip without it
    pass
else:
    # Derandomized and bounded, so every run draws the same examples in seconds.
    settings.register_profile(
        "tier1", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("tier1")
