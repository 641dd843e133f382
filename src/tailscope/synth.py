"""Analytically solvable synthetic scenes used as oracles for the metric
modules.

Each scenario kind has closed-form kinematics so the expected metric values
are known exactly (constant velocity, circular motion) or by construction
(braking ramps, crossing conflicts, static grids). Velocities and headings
are emitted analytically rather than differenced from positions, so any
discrepancy against the oracle values comes from the metric modules' own
differencing, which is the thing under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .scene import DT_TOLERANCE, Scene, Trajectory, check_radius, wrap_angle

SCENARIO_KINDS = ("constant", "circle", "brake", "crossing", "grid")


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
        check_radius("neighbor_radius", self.neighbor_radius, self.n_agents * self.frames)
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


def _constant(agent_id, times, p0, direction, speed, dt):
    vx = speed * math.cos(direction)
    vy = speed * math.sin(direction)
    heading = wrap_angle(direction)
    rows = [
        (t, p0[0] + vx * t, p0[1] + vy * t, vx, vy, heading)
        for t in times
    ]
    return Trajectory.from_rows(agent_id, rows, "vehicle", dt)


def _generate_constant(spec: ScenarioSpec):
    rng = np.random.default_rng(spec.seed)
    times = [k * spec.dt for k in range(spec.frames)]
    agents = {}
    for idx in range(spec.n_agents):
        p0 = rng.uniform(-50.0, 50.0, size=2)
        direction = rng.uniform(-math.pi, math.pi)
        agents[str(idx)] = _constant(str(idx), times, p0, direction, spec.speed, spec.dt)
    oracle = {
        "c_v": 0.0, "c_j": 0.0, "c_omega": 0.0, "c_alpha": 0.0, "c_vd": 0.0,
        "c_kappa": 0.0, "c_dkappa": 0.0, "c_dgamma": 0.0, "r_ni": 0.0,
    }
    return agents, oracle


def _generate_circle(spec: ScenarioSpec):
    rng = np.random.default_rng(spec.seed)
    center = rng.uniform(-50.0, 50.0, size=2)
    psi0 = rng.uniform(-math.pi, math.pi)
    omega = spec.speed / spec.radius
    if not math.isfinite(omega * (spec.frames - 1) * spec.dt):  # math.cos(inf) raises
        raise UsageError("circle: the heading change speed / radius * (frames - 1) * dt overflows")
    rows = []
    for k in range(spec.frames):
        t = k * spec.dt
        psi = psi0 + omega * t
        x = center[0] + spec.radius * math.cos(psi)
        y = center[1] + spec.radius * math.sin(psi)
        vx = -spec.speed * math.sin(psi)
        vy = spec.speed * math.cos(psi)
        rows.append((t, x, y, vx, vy, wrap_angle(psi + math.pi / 2)))
    agents = {"0": Trajectory.from_rows("0", rows, "vehicle", spec.dt)}
    oracle = {
        "c_omega": omega,
        "c_alpha": 0.0,
        "c_kappa": 1.0 / spec.radius,
        "c_dkappa": 0.0,
        "c_v": spec.speed * omega,  # centripetal |a|, up to differencing error
    }
    return agents, oracle


def _generate_brake(spec: ScenarioSpec):
    # Straight-line motion along +x: constant deceleration to rest, then hold.
    # When speed/decel is a multiple of dt the backward-difference jerk is a
    # single impulse of decel/dt; otherwise it splits across two frames.
    stop_time = spec.speed / spec.decel
    rows = []
    # np.float_power rounds like ``**``; ScenarioSpec keeps every term finite
    for k in range(spec.frames):
        t = k * spec.dt
        if t < stop_time:
            v = spec.speed - spec.decel * t
            x = spec.speed * t - 0.5 * spec.decel * np.float_power(t, 2)
        else:
            v = 0.0
            x = spec.speed * stop_time - 0.5 * spec.decel * np.float_power(stop_time, 2)
        rows.append((t, x, 0.0, v, 0.0, 0.0))
    agents = {"0": Trajectory.from_rows("0", rows, "vehicle", spec.dt)}
    oracle = {"stop_time": stop_time, "c_omega": 0.0, "c_kappa": 0.0}
    return agents, oracle


def _generate_crossing(spec: ScenarioSpec):
    # Two vehicles closing head-on along x, gap shrinking at 2 * speed.
    times = [k * spec.dt for k in range(spec.frames)]
    closing = 2.0 * spec.speed
    agents = {
        "0": _constant("0", times, (-spec.gap / 2.0, 0.0), 0.0, spec.speed, spec.dt),
        "1": _constant("1", times, (spec.gap / 2.0, 0.0), math.pi, spec.speed, spec.dt),
    }
    final_gap = spec.gap - closing * times[-1]
    if final_gap <= 0:
        raise UsageError(
            f"agents collide inside the window: gap {spec.gap} m closes at {closing} m/s "
            f"over {times[-1]:.3g} s"
        )
    oracle = {
        "ittc_frame0": closing / spec.gap if spec.gap > 0 else 0.0,
        "ittc_series": [closing / (spec.gap - closing * t) for t in times],
    }
    return agents, oracle


def _generate_grid(spec: ScenarioSpec):
    # Static target at the origin ringed by static neighbors at distance gap.
    times = [k * spec.dt for k in range(spec.frames)]
    agents = {"0": _constant("0", times, (0.0, 0.0), 0.0, 0.0, spec.dt)}
    n_neighbors = spec.n_agents - 1
    for idx in range(n_neighbors):
        angle = 2.0 * math.pi * idx / max(n_neighbors, 1)
        p0 = (spec.gap * math.cos(angle), spec.gap * math.sin(angle))
        agents[str(idx + 1)] = _constant(str(idx + 1), times, p0, 0.0, 0.0, spec.dt)
    oracle = {
        "r_ittc": 0.0,
        "r_mac": 0.0,
        "r_ni": 0.0,
        "c_v": 0.0,
    }
    if spec.gap <= spec.neighbor_radius:
        oracle["r_ad"] = n_neighbors / (math.pi * np.float_power(spec.neighbor_radius, 2))
    return agents, oracle


_GENERATORS = {
    "constant": _generate_constant,
    "circle": _generate_circle,
    "brake": _generate_brake,
    "crossing": _generate_crossing,
    "grid": _generate_grid,
}


def generate(spec: ScenarioSpec) -> tuple[Scene, dict]:
    """Build the scene and its closed-form oracle values for a scenario spec.

    Identical specs produce bit-identical scenes. The oracle dict maps metric
    names to their analytic targets where a closed form exists; callers pick
    the comparison tolerance per kind (exact for constant/static scenes,
    finite-difference-limited for circles).
    """
    agents, oracle = _GENERATORS[spec.kind](spec)
    scene = Scene(
        scene_id=f"{spec.kind}-{spec.seed}",
        agents=agents,
        target_id="0",
        neighbor_radius=spec.neighbor_radius,
    )
    return scene, oracle
