"""The reference generator of synthetic scenes, frame by frame, for the differential test.

These are the per-frame formulas ``tailscope.synth`` used to build every
scenario, kept as they were: each agent is a list of ``(t, x, y, vx, vy,
heading)`` tuples from Python arithmetic and ``math.cos``/``math.sin``, built
into its own ``Trajectory`` (which checks it), and the agents into a
``Scene`` (which checks them again). ``generate(spec)`` gives the scene and
oracle that ``tailscope.synth.generate`` must match bit for bit, refusals
and their texts included. The spec itself is the package's ``ScenarioSpec``.
"""

import math

import numpy as np

from tailscope.errors import UsageError
from tailscope.scene import Scene, Trajectory, wrap_angle


def _constant(agent_id, times, p0, direction, speed, dt):
    vx = speed * math.cos(direction)
    vy = speed * math.sin(direction)
    heading = wrap_angle(direction)
    rows = [
        (t, p0[0] + vx * t, p0[1] + vy * t, vx, vy, heading)
        for t in times
    ]
    return Trajectory.from_rows(agent_id, rows, "vehicle", dt)


def _generate_constant(spec):
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


def _generate_circle(spec):
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
        "c_v": spec.speed * omega,
    }
    return agents, oracle


def _generate_brake(spec):
    stop_time = spec.speed / spec.decel
    rows = []
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


def _generate_crossing(spec):
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


def _generate_grid(spec):
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


def generate(spec):
    """The scene and oracle of ``spec``, or the refusal its first failing check raises."""
    agents, oracle = _GENERATORS[spec.kind](spec)
    scene = Scene(
        scene_id=f"{spec.kind}-{spec.seed}",
        agents=agents,
        target_id="0",
        neighbor_radius=spec.neighbor_radius,
    )
    return scene, oracle
