"""Analytically solvable synthetic scenes used as oracles for the metric
modules.

Each scenario kind has closed-form kinematics so the expected metric values
are known exactly (constant velocity, circular motion) or by construction
(braking ramps, crossing conflicts, static grids). Velocities and headings
are emitted analytically rather than differenced from positions, so any
discrepancy against the oracle values comes from the metric modules' own
differencing, which is the thing under test.

A scenario is one ``(agents, frames, 6)`` block built by column arithmetic
(with the bits of ``tests/synth_reference.py``'s per-frame formulas) and
checked in one call; a synth scene views its one-scene ``SceneGroup``, as a
parsed scene views its group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .scene import DT_TOLERANCE, Scene, SceneGroup, Trajectory, _trajectory_faults, check_radius, wrap_angle

SCENARIO_KINDS = ("constant", "circle", "brake", "crossing", "grid")

#: The most frames, agents and agent-frames (their product) a scenario may have; checked before any allocation.
_SIZE_CAP = 1_000_000


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic scenario.

    Only some fields matter per kind: ``speed`` for all moving kinds,
    ``radius`` for circles, ``decel`` for braking ramps, ``gap`` for crossing
    conflicts and grid spacing, ``n_agents`` for constant/grid scenes.
    """

    kind: str
    frames: int = 20
    dt: float = 0.1
    seed: int = 0
    speed: float = 5.0
    radius: float = 20.0
    decel: float = 3.0
    gap: float = 20.0
    n_agents: int = 3
    neighbor_radius: float = 50.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise UsageError(f"unknown scenario kind {self.kind!r}, expected {SCENARIO_KINDS}")
        if self.frames < 2:
            raise UsageError(f"frames must be >= 2, got {self.frames}")
        for name in ("dt", "speed", "radius", "decel", "gap"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise UsageError(f"dt must be positive, got {self.dt}")
        if self.speed < 0:
            raise UsageError(f"speed must be >= 0, got {self.speed}")
        if self.kind == "circle" and not self.radius > 0:
            raise UsageError(f"radius must be > 0, got {self.radius}")
        if self.kind == "brake" and not self.decel > 0:
            raise UsageError(f"decel must be > 0, got {self.decel}")
        if self.kind in ("crossing", "grid") and not self.gap > 0:
            raise UsageError(f"gap must be > 0, got {self.gap}")
        if self.n_agents < 1:
            raise UsageError(f"n_agents must be >= 1, got {self.n_agents}")
        agent_frames = self.n_agents * self.frames
        for name, size in (("frames", self.frames), ("n_agents", self.n_agents), ("n_agents * frames", agent_frames)):
            if size > _SIZE_CAP:
                raise UsageError(f"{name} must be <= {_SIZE_CAP}, got {size}")
        check_radius("neighbor_radius", self.neighbor_radius, agent_frames)
        if self.kind == "brake":
            stop_time = self.speed / self.decel
            if not math.isfinite(stop_time):
                raise UsageError(f"brake: the stop time speed / decel overflows, got {self.speed} / {self.decel}")
            t_end = min((self.frames - 1) * self.dt, stop_time)
            if not math.isfinite(max(self.speed * t_end, self.decel * (t_end * t_end))):
                raise UsageError(
                    "brake: the distance speed * t - decel * t**2 / 2 overflows; lower speed, decel or dt"
                )
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed time fails the test below
            gaps = np.diff(np.arange(self.frames) * self.dt)
        if not np.all(np.abs(gaps - self.dt) <= DT_TOLERANCE):
            raise UsageError(
                f"dt must be small enough that the times k * dt of {self.frames} frames "
                f"are dt apart within {DT_TOLERANCE:g} s, got {self.dt}"
            )


def _block(spec: ScenarioSpec, t, x, y, vx, vy, heading) -> np.ndarray:
    """The (agents, frames, 6) block of the frame times ``t`` and the columns, which broadcast with ``t``
    to (agents, frames), checked in one call; ``Trajectory.from_rows`` words the first failing agent's refusal."""
    block = np.stack(np.broadcast_arrays(t, x, y, vx, vy, heading), axis=-1, dtype=float).reshape(-1, len(t), 6)
    n, frames = block.shape[:2]
    runs = np.arange(n) * frames, np.full(n, frames), np.full(n, spec.dt, dtype=float), np.ones(n, dtype=bool)
    check, _ = _trajectory_faults(block.reshape(-1, 6), *runs)
    if (check >= 0).any():
        r = int(np.argmax(check >= 0))
        Trajectory.from_rows(str(r), block[r], "vehicle", spec.dt)
    return block


def _cos_sin(angles) -> tuple[np.ndarray, np.ndarray]:
    """``math.cos`` and ``math.sin`` of each angle, which numpy's vector loops may round otherwise."""
    return tuple(np.array([f(a) for a in np.asarray(angles, dtype=float).tolist()]) for f in (math.cos, math.sin))


def _constant_velocity(spec: ScenarioSpec, x0, y0, direction, speed: float) -> np.ndarray:
    """The block of agents moving at ``speed`` along ``direction`` from ``(x0, y0)``, one value of each per agent."""
    t = np.arange(spec.frames) * spec.dt
    cos, sin = _cos_sin(direction)
    vx, vy = speed * cos[:, None], speed * sin[:, None]
    x0, y0 = (np.asarray(p, dtype=float)[:, None] for p in (x0, y0))
    with np.errstate(over="ignore"):  # a position past float's range fails the check, as a Python float's did
        x, y = x0 + vx * t, y0 + vy * t
    return _block(spec, t, x, y, vx, vy, wrap_angle(direction)[:, None])


def _generate_constant(spec: ScenarioSpec):
    # one draw of each agent's x, y and direction, in the order the per-agent draws took them
    p = np.random.default_rng(spec.seed).uniform((-50.0, -50.0, -math.pi), (50.0, 50.0, math.pi), size=(spec.n_agents, 3))
    oracle = dict.fromkeys(("c_v", "c_j", "c_omega", "c_alpha", "c_vd", "c_kappa", "c_dkappa", "c_dgamma", "r_ni"), 0.0)
    return _constant_velocity(spec, p[:, 0], p[:, 1], p[:, 2], spec.speed), oracle


def _generate_circle(spec: ScenarioSpec):
    rng = np.random.default_rng(spec.seed)
    center = rng.uniform(-50.0, 50.0, size=2)
    psi0 = rng.uniform(-math.pi, math.pi)
    omega = spec.speed / spec.radius
    if not math.isfinite(omega * (spec.frames - 1) * spec.dt):  # math.cos(inf) raises
        raise UsageError("circle: the heading change speed / radius * (frames - 1) * dt overflows")
    t = np.arange(spec.frames) * spec.dt
    psi = psi0 + omega * t
    cos, sin = _cos_sin(psi)
    x, y = center[0] + spec.radius * cos, center[1] + spec.radius * sin
    block = _block(spec, t, x, y, -spec.speed * sin, spec.speed * cos, wrap_angle(psi + math.pi / 2))
    # c_v is the centripetal |a|, up to differencing error
    oracle = {"c_omega": omega, "c_alpha": 0.0, "c_kappa": 1.0 / spec.radius, "c_dkappa": 0.0, "c_v": spec.speed * omega}
    return block, oracle


def _generate_brake(spec: ScenarioSpec):
    # Straight-line motion along +x: constant deceleration to rest, then hold.
    # When speed/decel is a multiple of dt the backward-difference jerk is a
    # single impulse of decel/dt; otherwise it splits across two frames.
    stop_time = spec.speed / spec.decel
    t = np.arange(spec.frames) * spec.dt
    moving = t < stop_time
    # np.float_power rounds like ``**``; ScenarioSpec keeps every term finite up to the
    # stop, and the terms that overflow past it are not taken
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.where(moving, spec.speed - spec.decel * t, 0.0)
        x = np.where(
            moving, spec.speed * t - 0.5 * spec.decel * np.float_power(t, 2),
            spec.speed * stop_time - 0.5 * spec.decel * np.float_power(stop_time, 2),
        )
    oracle = {"stop_time": stop_time, "c_omega": 0.0, "c_kappa": 0.0}
    return _block(spec, t, x, 0.0, v, 0.0, 0.0), oracle


def _generate_crossing(spec: ScenarioSpec):
    # Two vehicles closing head-on along x, gap shrinking at 2 * speed.
    block = _constant_velocity(spec, [-spec.gap / 2.0, spec.gap / 2.0], [0.0, 0.0], [0.0, math.pi], spec.speed)
    closing, t_end = 2.0 * spec.speed, (spec.frames - 1) * spec.dt
    if spec.gap - closing * t_end <= 0:
        raise UsageError(
            f"agents collide inside the window: gap {spec.gap} m closes at {closing} m/s "
            f"over {t_end:.3g} s"
        )
    oracle = {
        "ittc_frame0": closing / spec.gap,
        "ittc_series": (closing / (spec.gap - closing * block[0, :, 0])).tolist(),
    }
    return block, oracle


def _generate_grid(spec: ScenarioSpec):
    # Static target at the origin ringed by static neighbors at distance gap.
    n_neighbors = spec.n_agents - 1
    cos, sin = _cos_sin(2.0 * math.pi * np.arange(n_neighbors) / max(n_neighbors, 1))
    x0, y0 = np.append(0.0, spec.gap * cos), np.append(0.0, spec.gap * sin)
    oracle = dict.fromkeys(("r_ittc", "r_mac", "r_ni", "c_v"), 0.0)
    if spec.gap <= spec.neighbor_radius:
        oracle["r_ad"] = n_neighbors / (math.pi * np.float_power(spec.neighbor_radius, 2))
    return _constant_velocity(spec, x0, y0, np.zeros(spec.n_agents), 0.0), oracle


_GENERATORS = {
    "constant": _generate_constant,
    "circle": _generate_circle,
    "brake": _generate_brake,
    "crossing": _generate_crossing,
    "grid": _generate_grid,
}


def generate(spec: ScenarioSpec) -> tuple[Scene, dict]:
    """Build the scene and its closed-form oracle values for a scenario spec.

    Identical specs produce bit-identical scenes, whose agents are ``"0"``
    (the target) to ``n - 1``. The oracle dict maps metric names to their
    analytic targets where a closed form exists; callers pick the comparison
    tolerance per kind (exact for constant/static scenes, finite-difference-
    limited for circles).
    """
    block, oracle = _GENERATORS[spec.kind](spec)
    n = len(block)
    # the one check of Scene's that a block can fail: crossing's 2 agents count for n_agents = 1
    check_radius("neighbor_radius", spec.neighbor_radius, n * block.shape[1])
    group = SceneGroup(
        np.zeros(1, dtype=np.intp), block[None], np.full((1, n), "vehicle"), np.full((1, n), spec.dt, dtype=float),
        np.array([spec.neighbor_radius], dtype=float), np.array([[str(a) for a in range(n)]], dtype=object),
        np.arange(n)[None],
    )
    return group.row(0, f"{spec.kind}-{spec.seed}"), oracle
