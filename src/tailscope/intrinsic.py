"""Per-trajectory tailness scores: kinematic dynamism, geometric complexity
and temporal irregularity.

Eight non-negative scalars summarize how unusual a single motion is. All
expectations run over the frames where the underlying backward difference is
defined (acceleration from frame 1, jerk from frame 2, ...). Trajectories too
short for a score report 0 for it plus a ``short_trajectory`` flag instead of
raising, so batch pipelines survive edge agents.
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


@dataclass(frozen=True)
class IntrinsicMetrics:
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

    c_v: float
    c_j: float
    c_omega: float
    c_alpha: float
    c_vd: float
    c_kappa: float
    c_dkappa: float
    c_dgamma: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for name in INTRINSIC_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in INTRINSIC_FIELDS}

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in INTRINSIC_FIELDS], dtype=float)


def _rms(samples: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(samples)))) if samples.size else 0.0


def _rms_rows(samples: np.ndarray) -> float:
    """RMS of the row-wise Euclidean norm of an (n, 2) array."""
    if samples.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(np.sum(np.square(samples), axis=1))))


def rms_acceleration(velocities: np.ndarray, dt: float) -> float:
    """RMS magnitude of the backward-difference acceleration of (T, 2) velocities."""
    return _rms_rows(np.diff(velocities, axis=0) / dt)


def kinematic_dynamism(traj: Trajectory, kin: KinematicSeries | None = None) -> dict:
    """Scores for the severity of motion-state change.

    Returns a dict with keys ``c_v`` (RMS acceleration), ``c_j`` (RMS jerk),
    ``c_omega`` (RMS heading rate), ``c_alpha`` (RMS heading-rate change),
    ``c_vd`` (RMS movement-direction rate over frames faster than
    ``EPS_SPEED``) and ``flags``.
    """
    kin = kin or derive_kinematics(traj)
    flags = set()
    if kin.j.size == 0:
        flags.add("short_trajectory")

    valid_vd = (kin.speed[1:] >= EPS_SPEED) & (kin.speed[:-1] >= EPS_SPEED)
    if not np.all(valid_vd):
        flags.add("low_speed_frames")
    vd_samples = kin.phi_rate[valid_vd]
    if vd_samples.size == 0:
        flags.add("low_speed_frames")

    return {
        "c_v": rms_acceleration(kin.v, kin.dt),
        "c_j": _rms_rows(kin.j),
        "c_omega": _rms(kin.omega),
        "c_alpha": _rms(kin.alpha),
        "c_vd": _rms(vd_samples),
        "flags": tuple(sorted(flags)),
    }


def curvature_series(kin: KinematicSeries) -> np.ndarray:
    """Unsigned path curvature |vx*ay - vy*ax| / speed^3 at frames 1..T-1.

    Frames slower than ``EPS_SPEED`` get curvature 0 (the formula is singular
    at rest).
    """
    v = kin.v[1:]
    speed = kin.speed[1:]
    kappa = np.zeros(len(v), dtype=float)
    ok = speed >= EPS_SPEED
    cross = np.abs(v[ok, 0] * kin.a[ok, 1] - v[ok, 1] * kin.a[ok, 0])
    kappa[ok] = cross / speed[ok] ** 3
    return kappa


def geometric_complexity(traj: Trajectory, kin: KinematicSeries | None = None) -> dict:
    """Scores for the spatial intricacy of the path.

    Returns a dict with keys ``c_kappa`` (mean |curvature|), ``c_dkappa``
    (mean |curvature rate|) and ``flags``.
    """
    kin = kin or derive_kinematics(traj)
    flags = set()
    kappa = curvature_series(kin)
    if np.any(kin.speed[1:] < EPS_SPEED):
        flags.add("low_speed_frames")
    dkappa = np.diff(kappa) / kin.dt
    if dkappa.size == 0:
        flags.add("short_trajectory")
    return {
        "c_kappa": float(np.mean(kappa)) if kappa.size else 0.0,
        "c_dkappa": float(np.mean(np.abs(dkappa))) if dkappa.size else 0.0,
        "flags": tuple(sorted(flags)),
    }


def velocity_autocovariance(velocities: np.ndarray) -> np.ndarray:
    """gamma(tau) for tau = 0..T-1 over a (T, 2) velocity window.

    Uses the dot product of velocity deviations from the window mean and
    averages each lag over its T - tau overlapping pairs.
    """
    v = np.asarray(velocities, dtype=float)
    d = v - v.mean(axis=0)
    n = len(d)
    gamma = np.empty(n, dtype=float)
    for tau in range(n):
        gamma[tau] = float(np.mean(np.sum(d[: n - tau] * d[tau:], axis=1)))
    return gamma


def temporal_irregularity(traj: Trajectory) -> dict:
    """Score for aperiodic velocity patterns.

    Returns a dict with keys ``c_dgamma`` (mean absolute lag-to-lag change of
    the velocity autocovariance), ``gamma`` (the autocovariance sequence) and
    ``flags``. Windows shorter than 3 frames report 0 with a flag.
    """
    v = traj.velocities
    gamma = velocity_autocovariance(v)
    if len(v) < 3:
        return {"c_dgamma": 0.0, "gamma": gamma, "flags": ("short_trajectory",)}
    c_dgamma = float(np.mean(np.abs(np.diff(gamma))))
    return {"c_dgamma": c_dgamma, "gamma": gamma, "flags": ()}


def compute_intrinsic(traj: Trajectory) -> IntrinsicMetrics:
    """All eight intrinsic scalars of one trajectory."""
    kin = derive_kinematics(traj)
    dyn = kinematic_dynamism(traj, kin)
    geo = geometric_complexity(traj, kin)
    tem = temporal_irregularity(traj)
    flags = sorted(set(dyn["flags"]) | set(geo["flags"]) | set(tem["flags"]))
    return IntrinsicMetrics(
        c_v=dyn["c_v"],
        c_j=dyn["c_j"],
        c_omega=dyn["c_omega"],
        c_alpha=dyn["c_alpha"],
        c_vd=dyn["c_vd"],
        c_kappa=geo["c_kappa"],
        c_dkappa=geo["c_dkappa"],
        c_dgamma=tem["c_dgamma"],
        flags=tuple(flags),
    )
