"""Per-trajectory tailness scores: kinematic dynamism, geometric complexity
and temporal irregularity.

Eight non-negative scalars summarize how unusual a single motion is. All
expectations run over the frames where the underlying backward difference is
defined (acceleration from frame 1, jerk from frame 2, ...). Trajectories too
short for a score report 0 for it plus a ``short_trajectory`` flag instead of
raising, so batch pipelines survive edge agents.

One kernel, ``_scores``, computes all eight over kinematics with optional
leading axes: the scene pipeline stacks the targets of S scenes of T frames
as (S, T, 2) velocities, and each per-trajectory function below is the same
kernel on one trajectory. Reductions run over the last axis in a single
trajectory's order and every other step is elementwise, so a trajectory's
scores are the same bits alone or in a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .scene import KinematicSeries, Trajectory, derive_kinematics

#: Below this speed (m/s) the movement direction and curvature are unreliable:
#: such frames contribute kappa = 0 and are excluded from the direction score.
EPS_SPEED = 0.1

#: The largest speed (m/s) whose cube is finite, rounded down.
CUBE_SAFE_SPEED = 5e102

INTRINSIC_FIELDS = (
    "c_v",
    "c_j",
    "c_omega",
    "c_alpha",
    "c_vd",
    "c_kappa",
    "c_dkappa",
    "c_dgamma",
)


class MetricRecord:
    """Base of a frozen dataclass of metric scalars, each finite and >= 0, named by ``FIELDS``."""

    FIELDS: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self.FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.FIELDS], dtype=float)


def guard_flags(low_speed=False, proximity=False, short=False) -> tuple[str, ...]:
    """The sorted names of the guards that fired (bools or numpy bools): a frame slower than
    ``EPS_SPEED``, a pair closer than ``interaction.EPS_DIST``, fewer than 3 frames."""
    hits = (("low_speed_frames", low_speed), ("proximity_skip", proximity), ("short_trajectory", short))
    return tuple(name for name, hit in hits if hit)


@dataclass(frozen=True)
class IntrinsicMetrics(MetricRecord):
    """The eight intrinsic scalars of one trajectory.

    c_v: RMS acceleration magnitude (m/s^2)
    c_j: RMS jerk magnitude (m/s^3)
    c_omega: RMS heading rate (rad/s)
    c_alpha: RMS heading-rate change (rad/s^2)
    c_vd: RMS movement-direction rate (rad/s)
    c_kappa: mean absolute path curvature (1/m)
    c_dkappa: mean absolute curvature rate (1/(m s))
    c_dgamma: mean absolute lag-to-lag autocovariance change (m^2/s^2)
    """

    FIELDS = INTRINSIC_FIELDS

    c_v: float
    c_j: float
    c_omega: float
    c_alpha: float
    c_vd: float
    c_kappa: float
    c_dkappa: float
    c_dgamma: float
    flags: tuple[str, ...] = ()


def _mean(samples: np.ndarray) -> np.ndarray:
    """Mean over the last axis (numpy's sum, then one division, as ``np.mean``); 0 when empty."""
    return np.add.reduce(samples, axis=-1) / max(samples.shape[-1], 1)


def masked_mean(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean over the last axis of ``values`` (broadcast against ``mask``) where
    ``mask`` holds, 0 where it never does. Stable-sorting those entries to the
    front makes the masked sum one contiguous run, which numpy adds exactly as
    ``np.mean`` adds the list of them."""
    order = np.argsort(~mask, axis=-1, kind="stable")
    kept = np.take_along_axis(mask, order, axis=-1)
    total = np.add.reduce(np.take_along_axis(values, order, axis=-1), axis=-1, where=kept)
    return total / np.maximum(mask.sum(axis=-1), 1)


def _rms(samples: np.ndarray) -> np.ndarray:
    return np.sqrt(_mean(np.square(samples)))


def _rms_rows(samples: np.ndarray) -> np.ndarray:
    """RMS over the frames of the Euclidean norm of (..., frames, 2) vectors."""
    return np.sqrt(_mean(np.sum(np.square(samples), axis=-1)))


def rms_acceleration(velocities: np.ndarray, dt) -> np.ndarray:
    """RMS magnitude of the backward-difference acceleration of (..., T, 2) velocities.

    ``dt`` is a float or an array over the leading axes.
    """
    return _rms_rows(np.diff(velocities, axis=-2) / np.expand_dims(dt, (-2, -1)))


def curvature_series(kin: KinematicSeries) -> np.ndarray:
    """Unsigned path curvature |vx*ay - vy*ax| / speed^3 at frames 1..T-1.

    Frames slower than ``EPS_SPEED`` get curvature 0 (the formula is singular
    at rest). Above ``CUBE_SAFE_SPEED`` the cube would overflow, so those
    frames divide by the speed and then by its square.
    """
    v = kin.v[..., 1:, :]
    speed = kin.speed[..., 1:]
    kappa = np.zeros(speed.shape, dtype=float)
    ok = speed >= EPS_SPEED
    cross = np.abs(v[..., 0][ok] * kin.a[..., 1][ok] - v[..., 1][ok] * kin.a[..., 0][ok])
    s = speed[ok]
    fast = s > CUBE_SAFE_SPEED
    kappa[ok] = np.where(fast, cross / s / np.square(s), cross / np.where(fast, 1.0, s) ** 3)
    return kappa


def velocity_autocovariance(velocities: np.ndarray) -> np.ndarray:
    """gamma(tau) for tau = 0..T-1 over a (..., T, 2) velocity window.

    Uses the dot product of velocity deviations from the window mean and
    averages each lag over its T - tau overlapping pairs.
    """
    v = np.asarray(velocities, dtype=float)
    d = v - v.mean(axis=-2, keepdims=True)
    n = d.shape[-2]
    gamma = np.empty(d.shape[:-1], dtype=float)
    for tau in range(n):
        gamma[..., tau] = _mean(np.sum(d[..., : n - tau, :] * d[..., tau:, :], axis=-1))
    return gamma


def _scores(kin: KinematicSeries) -> dict:
    """The eight scores of ``kin``'s trajectories over its leading axes, plus
    ``gamma`` (the autocovariance sequences), ``slow`` (the frames slower than
    ``EPS_SPEED``) and ``short`` (fewer than 3 frames: second-order scores 0)."""
    slow = kin.speed < EPS_SPEED
    fast = ~(slow[..., 1:] | slow[..., :-1])  # the direction rates whose both frames are fast
    kappa = curvature_series(kin)
    gamma = velocity_autocovariance(kin.v)
    short = kin.v.shape[-2] < 3
    return {
        "c_v": _rms_rows(kin.a),
        "c_j": _rms_rows(kin.j),
        "c_omega": _rms(kin.omega),
        "c_alpha": _rms(kin.alpha),
        "c_vd": np.sqrt(masked_mean(np.square(kin.phi_rate), fast)),
        "c_kappa": _mean(kappa),
        "c_dkappa": _mean(np.abs(np.diff(kappa, axis=-1) / kin.dt)),
        "c_dgamma": np.zeros(gamma.shape[:-1]) if short else _mean(np.abs(np.diff(gamma, axis=-1))),
        "gamma": gamma,
        "slow": slow,
        "short": short,
    }


def intrinsic_rows(kin: KinematicSeries) -> tuple[np.ndarray, np.ndarray]:
    """The (..., 8) scores of a stack of trajectories in ``INTRINSIC_FIELDS``
    order, and the mask of those with a frame slower than ``EPS_SPEED``."""
    scores = _scores(kin)
    return np.stack([scores[name] for name in INTRINSIC_FIELDS], axis=-1), scores["slow"].any(axis=-1)


def _picked(scores: dict, names, low_speed: bool) -> dict:
    """One trajectory's scores ``names`` as floats, with its flags."""
    return {**{name: float(scores[name]) for name in names}, "flags": guard_flags(low_speed, short=scores["short"])}


def kinematic_dynamism(traj: Trajectory) -> dict:
    """Scores for the severity of motion-state change.

    Returns a dict with keys ``c_v`` (RMS acceleration), ``c_j`` (RMS jerk),
    ``c_omega`` (RMS heading rate), ``c_alpha`` (RMS heading-rate change),
    ``c_vd`` (RMS movement-direction rate over frames faster than
    ``EPS_SPEED``) and ``flags``.
    """
    scores = _scores(derive_kinematics(traj))
    return _picked(scores, INTRINSIC_FIELDS[:5], bool(scores["slow"].any()))


def geometric_complexity(traj: Trajectory) -> dict:
    """Scores for the spatial intricacy of the path.

    Returns a dict with keys ``c_kappa`` (mean |curvature|), ``c_dkappa``
    (mean |curvature rate|) and ``flags``.
    """
    scores = _scores(derive_kinematics(traj))
    return _picked(scores, INTRINSIC_FIELDS[5:7], bool(scores["slow"][1:].any()))


def temporal_irregularity(traj: Trajectory) -> dict:
    """Score for aperiodic velocity patterns.

    Returns a dict with keys ``c_dgamma`` (mean absolute lag-to-lag change of
    the velocity autocovariance), ``gamma`` (the autocovariance sequence) and
    ``flags``. Windows shorter than 3 frames report 0 with a flag.
    """
    scores = _scores(derive_kinematics(traj))
    return {**_picked(scores, INTRINSIC_FIELDS[7:], False), "gamma": scores["gamma"]}


def compute_intrinsic(traj: Trajectory) -> IntrinsicMetrics:
    """All eight intrinsic scalars of one trajectory."""
    scores = _scores(derive_kinematics(traj))
    return IntrinsicMetrics(**_picked(scores, INTRINSIC_FIELDS, bool(scores["slow"].any())))
