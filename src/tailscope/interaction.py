"""Multi-agent risk scores for a target agent within a scene.

Local scores (inverse TTC, longitudinal and lateral safe-distance risk) rate
the threat from the worst neighbor at each frame; global scores (multi-agent
conflict, agent density, neighborhood instability) rate the scene as a whole.
The neighbor set is re-evaluated every frame as the agents within
``scene.neighbor_radius`` of the target.

Scenes that share an agent count n and a frame count T form a group, held as
the columns of a ``scene.SceneGroup``. ``_geometry`` restacks a group once
into ``(S, T, n, 2)`` positions and velocities (target first), the
target-to-neighbor geometry forms ``(S, T, N)`` arrays over the N neighbors,
and the all-pairs conflict score reads the ``(S, T, n(n-1)/2)`` agent pairs
of the same stacks. One kernel per score rates a whole group; each per-scene
function is that kernel on a group of one. Reductions run over the last axis
in a single scene's order and every other step is elementwise, so a scene's
scores are the same bits alone or in a group. ``score_scenes`` scores a
corpus group by group, in chunks of at most ``PAIR_FRAMES_CAP`` pair-frames
(one scene at least), so the all-pairs temporaries of a dense scene do not
grow with the corpus.

The safe-distance scores follow the Responsibility-Sensitive Safety minimum
separations: the longitudinal/lateral axes are the target's instantaneous
heading direction and its perpendicular, and the per-neighbor lateral axis is
oriented from the target toward the neighbor so that positive lateral
velocity means approaching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, JsonRecord, ValidationError, number
from .intrinsic import INTRINSIC_FIELDS, compute_intrinsic, intrinsic_rows, rms_acceleration
from .scene import Scene, SceneColumns, SceneGroup, check_radius, kinematics

#: Agent pairs closer than this (m) are skipped wherever a separation is a
#: denominator, instead of dividing by ~0.
EPS_DIST = 0.01

INTERACTIVE_FIELDS = ("r_ittc", "r_lon", "r_lat", "r_mac", "r_ad", "r_ni")

#: The 14 metrics of a scene in canonical order, intrinsic first.
METRIC_FIELDS = INTRINSIC_FIELDS + INTERACTIVE_FIELDS

#: ``score_scenes`` stacks at most this many frames x agent pairs per chunk
#: (one scene at least), which bounds its all-pairs temporaries.
PAIR_FRAMES_CAP = 65_536


@dataclass(frozen=True)
class RssParams(JsonRecord):
    """Reaction/acceleration bounds and risk-curve shapes for the safe-distance scores.

    The defaults follow common RSS practice; every value is configurable and
    must be strictly positive. As JSON (the ``rss_params`` option) each key is
    optional.
    """

    JSON = dict.fromkeys(
        "rho rho_ped a_max b_min b_max a_lat_max b_lat_min mu_lat alpha_lon beta_lon alpha_lat beta_lat".split(), number
    )
    OPTIONAL = tuple(JSON)
    WHAT = "option 'rss_params'"

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
        for name in self.JSON:
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ConfigurationError(f"RssParams.{name} must be > 0, got {value!r}")


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
    """S scenes of one shape stacked over frames T; n = 1 + N agents, target first."""

    pos: np.ndarray  # (S, T, n, 2)
    vel: np.ndarray  # (S, T, n, 2)
    tracks: np.ndarray  # (S, n, T, 2) the velocities agent by agent, frames contiguous for per-agent means
    dt: np.ndarray  # (S, n) each agent's time step
    headings: np.ndarray  # (S, T) the targets' headings
    kinds: np.ndarray  # (S, 1, N) the neighbors' kinds, in ``neighbor_ids`` order
    radius: np.ndarray  # (S, 1, 1) each scene's neighbor radius
    dp: np.ndarray  # (S, T, N, 2) neighbor position minus target position
    dv: np.ndarray  # (S, T, N, 2) neighbor velocity minus target velocity
    dist: np.ndarray  # (S, T, N)


def _pair_geometry(pos, vel, a, b):
    """Position and velocity of agents ``b`` relative to agents ``a``, and their distance."""
    dp = pos[..., b, :] - pos[..., a, :]
    return dp, vel[..., b, :] - vel[..., a, :], np.hypot(dp[..., 0], dp[..., 1])


def _geometry(group: SceneGroup) -> _Geometry:
    """Restack a group's columns frame-major and relate every neighbor to its target."""
    tracks = group.block[..., 3:5].copy()
    pos = group.block[..., 1:3].transpose(0, 2, 1, 3).copy()
    vel = tracks.transpose(0, 2, 1, 3).copy()
    return _Geometry(
        pos,
        vel,
        tracks,
        group.dt,
        group.block[:, 0, :, 5].copy(),
        group.kinds[:, None, 1:],
        group.radius[:, None, None],
        *_pair_geometry(pos, vel, slice(0, 1), slice(1, None)),
    )


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
    return np.where(near, values, 0.0).max(axis=-1, initial=0.0)


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


def _rss_error(axis: str) -> ConfigurationError:
    return ConfigurationError(f"rss_params must be small enough for a finite {axis} safe distance at these speeds")


def _unsafe(required, near) -> np.ndarray:
    """Per scene: a safe distance to an in-radius neighbor overflowed to inf or nan."""
    return (near & ~np.isfinite(required)).any(axis=(-2, -1))


def _checked(scores: dict, name: str, axis: str) -> dict:
    """A group of one's safe-distance risk; raises if its ``axis`` safe distance overflowed."""
    if scores["unsafe"][0]:
        raise _rss_error(axis)
    return {name: float(scores[name][0]), "series": scores["series"][0], "flags": ()}


def ittc_risk(scene: Scene) -> dict:
    """Worst-neighbor inverse time-to-collision, averaged over frames.

    Returns a dict with ``r_ittc``, the per-frame ``series`` and ``flags``.
    Frames with no neighbor in radius contribute 0; coincident pairs are
    skipped with a ``proximity_skip`` flag.
    """
    g = _geometry(SceneGroup.of([scene]))
    scores = _ittc_risk(g, g.dist <= g.radius)
    flags = ("proximity_skip",) * bool(scores["skip"][0])
    return {"r_ittc": float(scores["r_ittc"][0]), "series": scores["series"][0], "flags": flags}


def _ittc_risk(g: _Geometry, near) -> dict:
    value, coincident = _pair_ittc(g.dp, g.dv, g.dist)
    series = _worst(value, near)
    return {"r_ittc": series.mean(axis=-1), "series": series, "skip": (coincident & near).any(axis=(-2, -1))}


def rss_longitudinal(scene: Scene, params: RssParams | None = None) -> dict:
    """Worst-neighbor longitudinal safe-distance risk, averaged over frames."""
    g = _geometry(SceneGroup.of([scene]))
    return _checked(_rss_longitudinal(g, g.dist <= g.radius, params or RssParams()), "r_lon", "longitudinal")


def _rss_longitudinal(g: _Geometry, near, params: RssParams) -> dict:
    u_lon = np.stack([np.cos(g.headings), np.sin(g.headings)], axis=-1)[:, :, None]
    v_i_lon = np.vecdot(g.vel[:, :, :1], u_lon)
    v_j_lon = np.where(g.kinds == "vehicle", np.vecdot(g.vel[:, :, 1:], u_lon), 0.0)
    gap = np.abs(np.vecdot(g.dp, u_lon))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance in radius is flagged
        required = min_longitudinal_separation(v_i_lon, v_j_lon, params)
        risk = _deficit_risk(required, gap, params.alpha_lon, params.beta_lon)
    series = _worst(risk, near)
    return {"r_lon": series.mean(axis=-1), "series": series, "unsafe": _unsafe(required, near)}


def rss_lateral(scene: Scene, params: RssParams | None = None) -> dict:
    """Worst-neighbor lateral safe-distance risk, averaged over frames."""
    g = _geometry(SceneGroup.of([scene]))
    return _checked(_rss_lateral(g, g.dist <= g.radius, params or RssParams()), "r_lat", "lateral")


def _rss_lateral(g: _Geometry, near, params: RssParams) -> dict:
    u_lat = np.stack([-np.sin(g.headings), np.cos(g.headings)], axis=-1)[:, :, None]
    lat_sep = np.vecdot(g.dp, u_lat)
    axis = np.where(lat_sep >= 0, 1.0, -1.0)[..., None] * u_lat
    v_i_lat = np.vecdot(g.vel[:, :, :1], axis)
    v_j_lat = np.vecdot(g.vel[:, :, 1:], axis)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance in radius is flagged
        required = min_lateral_separation(v_i_lat, v_j_lat, g.kinds, params)
        risk = _deficit_risk(required, np.abs(lat_sep), params.alpha_lat, params.beta_lat)
    series = _worst(risk, near)
    return {"r_lat": series.mean(axis=-1), "series": series, "unsafe": _unsafe(required, near)}


def global_scene_risk(scene: Scene, radius: float | None = None) -> dict:
    """Scene-level risk: all-pairs conflict, agent density, neighborhood instability.

    ``radius`` defaults to the scene's neighbor radius and bounds both the
    density disc and the instability neighbor set; it must be finite and > 0.
    """
    scores = _global_scene_risk(_geometry(SceneGroup.of([scene])), radius)
    flags = ("proximity_skip",) * bool(scores["skip"][0])
    return {**{name: float(scores[name][0]) for name in INTERACTIVE_FIELDS[3:]}, "flags": flags}


def _global_scene_risk(g: _Geometry, radius: float | None) -> dict:
    n_scenes, n_frames, n = g.pos.shape[:3]
    if radius is not None:
        check_radius("radius", radius, n * n_frames)
    radius = g.radius if radius is None else np.full_like(g.radius, radius)
    near = g.dist <= radius

    value, coincident = _pair_ittc(*_pair_geometry(g.pos, g.vel, *np.triu_indices(n, 1)))
    mac_series = np.zeros((n_scenes, n_frames), dtype=float)
    if n >= 2:
        # a running sum in pair order (cumsum), not np.sum's pairwise one, so
        # the total rounds like a plain loop over the pairs
        mac_series = np.cumsum(value, axis=-1)[..., -1] / (n * (n - 1) / 2.0)

    count = near.sum(axis=-1)
    ad_series = count / (math.pi * np.float_power(radius[..., 0], 2))
    # Stable-sorting each frame's in-radius neighbors to the front makes the
    # masked sum one contiguous run, which numpy adds exactly as np.mean adds
    # the list of in-radius values.
    order = np.argsort(~near, axis=-1, kind="stable")
    c_v = rms_acceleration(g.tracks[:, 1:], g.dt[:, 1:])[:, None]
    c_v_sum = np.add.reduce(
        np.take_along_axis(c_v, order, axis=-1), axis=-1, where=np.take_along_axis(near, order, axis=-1)
    )
    ni_series = c_v_sum / np.maximum(count, 1)

    return {
        "r_mac": mac_series.mean(axis=-1),
        "r_ad": ad_series.mean(axis=-1),
        "r_ni": ni_series.mean(axis=-1),
        "skip": coincident.any(axis=(-2, -1)),
    }


def _interactive(g: _Geometry, params: RssParams):
    """The (S, 6) interactive rows of a group, with per-scene masks: a coincident
    pair (the ``proximity_skip`` flag) and an overflowed longitudinal and lateral
    safe distance. Each stage frees its temporaries before the next starts."""
    gl = _global_scene_risk(g, None)
    near = g.dist <= g.radius
    ittc, lon, lat = _ittc_risk(g, near), _rss_longitudinal(g, near, params), _rss_lateral(g, near, params)
    rows = np.stack([ittc["r_ittc"], lon["r_lon"], lat["r_lat"], gl["r_mac"], gl["r_ad"], gl["r_ni"]], axis=-1)
    return rows, gl["skip"], lon["unsafe"], lat["unsafe"]


def compute_interactive(scene: Scene, params: RssParams | None = None) -> InteractiveMetrics:
    """All six interactive scalars of one scene, from one stack of its agents."""
    rows, skip, unsafe_lon, unsafe_lat = _interactive(_geometry(SceneGroup.of([scene])), params or RssParams())
    for unsafe, axis in ((unsafe_lon, "longitudinal"), (unsafe_lat, "lateral")):
        if unsafe[0]:
            raise _rss_error(axis)
    return InteractiveMetrics(*rows[0].tolist(), flags=("proximity_skip",) * bool(skip[0]))


def score_scenes(scenes, params: RssParams | None = None) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """The 14 metrics of each scene as an (S, 14) matrix in ``METRIC_FIELDS``
    order, and each scene's sorted flags.

    ``scenes`` is a list of scenes or their :class:`SceneColumns`. Scenes that
    share an agent count n and a frame count T are scored as one stack, in
    chunks of at most ``PAIR_FRAMES_CAP // (T * n(n-1)/2)`` scenes (one at
    least). Row s holds the bits of ``compute_intrinsic`` of the target and
    ``compute_interactive(scenes[s], params)``; the first scene those would
    refuse is refused with their error.
    """
    params = params or RssParams()
    columns = scenes if isinstance(scenes, SceneColumns) else SceneColumns.of(scenes)
    rows = np.empty((len(columns), len(METRIC_FIELDS)))
    slow, close, unsafe, short = np.empty((4, len(columns)), dtype=bool)
    split = len(INTRINSIC_FIELDS)
    for group in columns.groups:
        n, n_frames = group.block.shape[1:3]
        short[group.index] = n_frames < 3
        size = max(1, PAIR_FRAMES_CAP // (n_frames * max(1, n * (n - 1) // 2)))
        for chunk in (group[start : start + size] for start in range(0, len(group), size)):
            g, i = _geometry(chunk), chunk.index
            rows[i, :split], slow[i] = intrinsic_rows(kinematics(g.tracks[:, 0], g.headings, g.dt[:, :1]))
            rows[i, split:], close[i], unsafe_lon, unsafe_lat = _interactive(g, params)
            unsafe[i] = unsafe_lon | unsafe_lat
    risks = rows[:, [METRIC_FIELDS.index("r_lon"), METRIC_FIELDS.index("r_lat")]]
    refused = unsafe | ~((rows >= 0.0) & np.isfinite(rows)).all(axis=1) | (risks >= 1.0).any(axis=1)
    for i in np.flatnonzero(refused).tolist()[:1]:  # the per-scene calls word the error
        compute_intrinsic(scenes[i].target)
        compute_interactive(scenes[i], params)
    return rows, [
        ("low_speed_frames",) * a + ("proximity_skip",) * b + ("short_trajectory",) * c
        for a, b, c in zip(slow.tolist(), close.tolist(), short.tolist())
    ]
