"""Multi-agent risk scores for a target agent within a scene.

Local scores (inverse TTC, longitudinal and lateral safe-distance risk) rate
the threat from the worst neighbor at each frame; global scores (multi-agent
conflict, agent density, neighborhood instability) rate the scene as a whole.
The neighbor set is re-evaluated every frame as the agents within
``scene.neighbor_radius`` of the target.

Every score is computed from per-scene arrays rather than per-frame loops:
the agents' positions and velocities are stacked once into ``(T, n, 2)``
arrays (T frames, n agents, target first), the target-to-neighbor geometry
forms ``(T, N)`` arrays over the N neighbors, and the all-pairs conflict
score reads the ``(T, n(n-1)/2)`` agent pairs of the same stacks.

The safe-distance scores follow the Responsibility-Sensitive Safety minimum
separations: the longitudinal/lateral axes are the target's instantaneous
heading direction and its perpendicular, and the per-neighbor lateral axis is
oriented from the target toward the neighbor so that positive lateral
velocity means approaching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .intrinsic import rms_acceleration
from .scene import Scene, check_radius

#: Agent pairs closer than this (m) are skipped wherever a separation is a
#: denominator, instead of dividing by ~0.
EPS_DIST = 0.01

INTERACTIVE_FIELDS = ("r_ittc", "r_lon", "r_lat", "r_mac", "r_ad", "r_ni")


@dataclass(frozen=True)
class RssParams:
    """Reaction/acceleration bounds and risk-curve shapes for the safe-distance scores.

    The defaults follow common RSS practice; every value is configurable and
    must be strictly positive.
    """

    rho: float = 0.5          # target reaction time (s)
    rho_ped: float = 1.0      # pedestrian reaction time (s)
    a_max: float = 3.0        # max longitudinal acceleration (m/s^2)
    b_min: float = 4.0        # min reasonable braking (m/s^2)
    b_max: float = 8.0        # max braking (m/s^2)
    a_lat_max: float = 0.9    # max lateral acceleration (m/s^2)
    b_lat_min: float = 1.2    # min lateral deceleration (m/s^2)
    mu_lat: float = 0.5       # fixed lateral safety margin (m)
    alpha_lon: float = 1.0    # longitudinal risk-curve steepness
    beta_lon: float = 1.0     # longitudinal risk-curve scale
    alpha_lat: float = 1.0    # lateral risk-curve steepness
    beta_lat: float = 1.0     # lateral risk-curve scale

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ConfigurationError(f"RssParams.{f.name} must be > 0, got {value!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RssParams":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown RssParams keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class InteractiveMetrics:
    """The six interactive scalars of one scene.

    r_ittc: worst-neighbor inverse time-to-collision, frame-averaged (1/s)
    r_lon: worst-neighbor longitudinal safe-distance risk, in [0, 1)
    r_lat: worst-neighbor lateral safe-distance risk, in [0, 1)
    r_mac: all-pairs inverse TTC, frame-averaged (1/s)
    r_ad: neighbor count over the neighborhood disc area (agents/m^2)
    r_ni: mean neighbor velocity volatility (m/s^2)
    """

    r_ittc: float
    r_lon: float
    r_lat: float
    r_mac: float
    r_ad: float
    r_ni: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for name in INTERACTIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("r_lon", "r_lat"):
            if getattr(self, name) >= 1.0:
                raise ValidationError(f"{name} must be < 1, got {getattr(self, name)!r}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in INTERACTIVE_FIELDS}

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in INTERACTIVE_FIELDS], dtype=float)


class _Geometry(NamedTuple):
    """A scene's agents stacked over frames T; n = 1 + N agents, target first."""

    pos: np.ndarray  # (T, n, 2)
    vel: np.ndarray  # (T, n, 2)
    neighbors: list  # the N neighbor trajectories, in ``neighbor_ids`` order
    dp: np.ndarray  # (T, N, 2) neighbor position minus target position
    dv: np.ndarray  # (T, N, 2) neighbor velocity minus target velocity
    dist: np.ndarray  # (T, N)


def _pair_geometry(pos, vel, a, b):
    """Position and velocity of agents ``b`` relative to agents ``a``, and their distance."""
    dp = pos[:, b] - pos[:, a]
    return dp, vel[:, b] - vel[:, a], np.hypot(dp[..., 0], dp[..., 1])


def _geometry(scene: Scene) -> _Geometry:
    """Stack the scene's agents and relate every neighbor to the target."""
    neighbors = [scene.agents[agent_id] for agent_id in scene.neighbor_ids()]
    agents = [scene.target] + neighbors
    pos = np.stack([traj.positions for traj in agents], axis=1)
    vel = np.stack([traj.velocities for traj in agents], axis=1)
    return _Geometry(pos, vel, neighbors, *_pair_geometry(pos, vel, slice(0, 1), slice(1, None)))


def _pair_ittc(dp, dv, dist):
    """Clamped closing rate over squared separation, elementwise.

    Returns the rates and the mask of coincident pairs (closer than
    ``EPS_DIST``), whose rate is 0 instead of a division by ~0.
    """
    coincident = dist < EPS_DIST
    # np.vecdot rounds like np.dot on 2-vectors and np.float_power like
    # Python's float ``**`` (libm pow); ``a*b + c*d``, einsum and array ``**``
    # do not. That keeps every value bit-equal to the scalar formula, which
    # the golden report hashes in tests/test_golden.py pin.
    closing = -np.vecdot(dv, dp)
    ok = (closing > 0.0) & ~coincident
    return np.divide(closing, np.float_power(dist, 2), out=np.zeros_like(dist), where=ok), coincident


def _worst(values, near) -> np.ndarray:
    """Per-frame maximum over the in-radius neighbors; 0 for frames with none."""
    return np.where(near, values, 0.0).max(axis=1, initial=0.0)


def ittc_risk(scene: Scene) -> dict:
    """Worst-neighbor inverse time-to-collision, averaged over frames.

    Returns a dict with ``r_ittc``, the per-frame ``series`` and ``flags``.
    Frames with no neighbor in radius contribute 0; coincident pairs are
    skipped with a ``proximity_skip`` flag.
    """
    g = _geometry(scene)
    return _ittc_risk(g, g.dist <= scene.neighbor_radius)


def _ittc_risk(g: _Geometry, near) -> dict:
    value, coincident = _pair_ittc(g.dp, g.dv, g.dist)
    series = _worst(value, near)
    flags = ("proximity_skip",) if np.any(coincident & near) else ()
    return {"r_ittc": float(series.mean()), "series": series, "flags": flags}


def min_longitudinal_separation(v_i_lon, v_j_lon, params: RssParams):
    """Minimum required longitudinal separation, clamped at 0.

    Works elementwise on scalars or broadcastable arrays. ``v_j_lon`` is the
    neighbor's longitudinal velocity and must already be zeroed by the caller
    for non-vehicle neighbors.
    """
    # np.float_power rounds like ``**`` but overflows to inf, where ``**`` raises
    d = (
        v_i_lon * params.rho
        + 0.5 * params.a_max * np.float_power(params.rho, 2)
        + np.float_power(v_i_lon + params.rho * params.a_max, 2) / (2.0 * params.b_min)
        - np.float_power(v_j_lon, 2) / (2.0 * params.b_max)
    )
    return np.maximum(d, 0.0)


def min_lateral_separation(v_i_lat, v_j_lat, neighbor_kind, params: RssParams):
    """Minimum required lateral separation including the fixed margin.

    Works elementwise: velocities are scalars or arrays and ``neighbor_kind``
    is a kind string or an array of them, all broadcastable. Velocities are
    signed along the axis pointing from the target toward the neighbor. The
    neighbor's reaction time is ``rho_ped`` for pedestrians and ``rho``
    otherwise; its braking allowance applies to vehicles only.
    """
    rho_eff = np.where(neighbor_kind == "pedestrian", params.rho_ped, params.rho)
    v_i_reacted = v_i_lat + params.a_lat_max * params.rho
    v_j_reacted = v_j_lat - params.a_lat_max * rho_eff
    term_i = (v_i_lat + v_i_reacted) / 2.0 * params.rho + np.float_power(v_i_reacted, 2) / (
        2.0 * params.b_lat_min
    )
    v_j_braking = np.where(neighbor_kind == "vehicle", v_j_reacted, 0.0)
    term_j = (v_j_lat + v_j_reacted) / 2.0 * rho_eff - np.float_power(v_j_braking, 2) / (
        2.0 * params.b_lat_min
    )
    return params.mu_lat + np.maximum(term_i - term_j, 0.0)


def _deficit_risk(required, actual, alpha: float, beta: float) -> np.ndarray:
    """Map a safe-distance deficit to a risk value in [0, 1), elementwise; 0 where required <= 0."""
    deficit = np.maximum(required - actual, 0.0)
    ratio = np.divide(deficit, beta * required, out=np.zeros_like(deficit), where=required > 0.0)
    return 1.0 - np.float_power(1.0 + ratio, -alpha)


def _check_finite(required, near, axis: str) -> None:
    """Reject a safe distance to an in-radius neighbor that overflowed to inf or nan."""
    if not np.isfinite(required[near]).all():
        raise ConfigurationError(f"rss_params must be small enough for a finite {axis} safe distance at these speeds")


def rss_longitudinal(scene: Scene, params: RssParams | None = None) -> dict:
    """Worst-neighbor longitudinal safe-distance risk, averaged over frames."""
    g = _geometry(scene)
    return _rss_longitudinal(scene, g, g.dist <= scene.neighbor_radius, params or RssParams())


def _rss_longitudinal(scene: Scene, g: _Geometry, near, params: RssParams) -> dict:
    heading = scene.target.headings
    u_lon = np.stack([np.cos(heading), np.sin(heading)], axis=-1)[:, None]
    is_vehicle = np.array([traj.kind == "vehicle" for traj in g.neighbors], dtype=bool)
    v_i_lon = np.vecdot(g.vel[:, :1], u_lon)
    v_j_lon = np.where(is_vehicle, np.vecdot(g.vel[:, 1:], u_lon), 0.0)
    gap = np.abs(np.vecdot(g.dp, u_lon))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance in radius raises below
        required = min_longitudinal_separation(v_i_lon, v_j_lon, params)
        risk = _deficit_risk(required, gap, params.alpha_lon, params.beta_lon)
    _check_finite(required, near, "longitudinal")
    series = _worst(risk, near)
    return {"r_lon": float(series.mean()), "series": series, "flags": ()}


def rss_lateral(scene: Scene, params: RssParams | None = None) -> dict:
    """Worst-neighbor lateral safe-distance risk, averaged over frames."""
    g = _geometry(scene)
    return _rss_lateral(scene, g, g.dist <= scene.neighbor_radius, params or RssParams())


def _rss_lateral(scene: Scene, g: _Geometry, near, params: RssParams) -> dict:
    heading = scene.target.headings
    u_lat = np.stack([-np.sin(heading), np.cos(heading)], axis=-1)[:, None]
    kinds = np.array([traj.kind for traj in g.neighbors], dtype=str)
    lat_sep = np.vecdot(g.dp, u_lat)
    axis = np.where(lat_sep >= 0, 1.0, -1.0)[..., None] * u_lat
    v_i_lat = np.vecdot(g.vel[:, :1], axis)
    v_j_lat = np.vecdot(g.vel[:, 1:], axis)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance in radius raises below
        required = min_lateral_separation(v_i_lat, v_j_lat, kinds, params)
        risk = _deficit_risk(required, np.abs(lat_sep), params.alpha_lat, params.beta_lat)
    _check_finite(required, near, "lateral")
    series = _worst(risk, near)
    return {"r_lat": float(series.mean()), "series": series, "flags": ()}


def global_scene_risk(scene: Scene, radius: float | None = None) -> dict:
    """Scene-level risk: all-pairs conflict, agent density, neighborhood instability.

    ``radius`` defaults to the scene's neighbor radius and bounds both the
    density disc and the instability neighbor set; it must be finite and > 0.
    """
    return _global_scene_risk(scene, _geometry(scene), radius)


def _global_scene_risk(scene: Scene, g: _Geometry, radius: float | None) -> dict:
    radius = scene.neighbor_radius if radius is None else radius
    check_radius("radius", radius, len(scene.agents) * scene.n_frames)
    near = g.dist <= radius
    n = g.pos.shape[1]

    value, coincident = _pair_ittc(*_pair_geometry(g.pos, g.vel, *np.triu_indices(n, 1)))
    mac_series = np.zeros(scene.n_frames, dtype=float)
    if n >= 2:
        # a running sum in pair order (cumsum), not np.sum's pairwise one, so
        # the total rounds like a plain loop over the pairs
        mac_series = np.cumsum(value, axis=1)[:, -1] / (n * (n - 1) / 2.0)

    count = near.sum(axis=1)
    ad_series = count / (math.pi * np.float_power(radius, 2))
    # Stable-sorting each frame's in-radius neighbors to the front makes the
    # masked sum one contiguous run, which numpy adds exactly as np.mean adds
    # the list of in-radius values.
    order = np.argsort(~near, axis=1, kind="stable")
    c_v = np.array([rms_acceleration(t.velocities, t.dt) for t in g.neighbors], dtype=float)
    c_v_sum = np.add.reduce(c_v[order], axis=1, where=np.take_along_axis(near, order, axis=1))
    ni_series = c_v_sum / np.maximum(count, 1)

    return {
        "r_mac": float(mac_series.mean()),
        "r_ad": float(ad_series.mean()),
        "r_ni": float(ni_series.mean()),
        "flags": ("proximity_skip",) if np.any(coincident) else (),
    }


def compute_interactive(
    scene: Scene, params: RssParams | None = None, radius: float | None = None
) -> InteractiveMetrics:
    """All six interactive scalars of one scene, from one stack of its agents."""
    params = params or RssParams()
    g = _geometry(scene)
    near = g.dist <= scene.neighbor_radius
    ittc = _ittc_risk(g, near)
    lon = _rss_longitudinal(scene, g, near, params)
    lat = _rss_lateral(scene, g, near, params)
    gl = _global_scene_risk(scene, g, radius)
    flags = sorted(set(ittc["flags"]) | set(lon["flags"]) | set(lat["flags"]) | set(gl["flags"]))
    return InteractiveMetrics(
        r_ittc=ittc["r_ittc"],
        r_lon=lon["r_lon"],
        r_lat=lat["r_lat"],
        r_mac=gl["r_mac"],
        r_ad=gl["r_ad"],
        r_ni=gl["r_ni"],
        flags=tuple(flags),
    )
