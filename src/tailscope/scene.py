"""Agents, trajectories and scenes, plus CSV ingestion and backward-difference
kinematics.

Every type is immutable after construction and every function is pure.
Derivatives are backward differences, ``x'(t) = (x(t) - x(t - dt)) / dt``, so
each derived series starts one frame later than its source; angle differences
are wrapped to (-pi, pi] before dividing by dt.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import MAX_MAGNITUDE, ParseError, ValidationError, read_lines, write_text

AGENT_KINDS = ("vehicle", "pedestrian", "other")

CSV_COLUMNS = ("scene_id", "agent_id", "frame", "t", "x", "y", "vx", "vy", "heading", "kind")

#: Consecutive timestamp gaps may deviate from dt by at most this much (s).
DT_TOLERANCE = 1e-6

_TWO_PI = 2.0 * math.pi


def wrap_angle(x):
    """Wrap an angle or array of angles to (-pi, pi]."""
    w = np.mod(np.asarray(x, dtype=float) + np.pi, _TWO_PI)
    w = np.where(w == 0.0, _TWO_PI, w) - np.pi
    if np.ndim(x) == 0:
        return float(w)
    return w


def _id_key(agent_id: str):
    """Sort key ordering numeric ids numerically, everything else lexically."""
    try:
        return (0, int(agent_id), agent_id)
    except ValueError:
        return (1, 0, agent_id)


@dataclass(frozen=True)
class AgentState:
    """Kinematic state of one agent at a single timestamp: one row of a :class:`Trajectory`."""

    t: float
    x: float
    y: float
    vx: float
    vy: float
    heading: float
    kind: str = "vehicle"

    def __post_init__(self):
        for name in ("t", "x", "y", "vx", "vy", "heading"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"AgentState.{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (-math.pi < self.heading <= math.pi):
            raise ValidationError(f"heading must lie in (-pi, pi], got {self.heading}")
        if self.kind not in AGENT_KINDS:
            raise ValidationError(f"unknown agent kind {self.kind!r}")


_COLUMNS = ("times", "positions", "velocities", "headings")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered kinematics of one agent, sampled at a uniform interval dt.

    ``times`` (T,), ``positions`` (T, 2), ``velocities`` (T, 2) and
    ``headings`` (T,) are read-only float copies of the caller's arrays. T >= 2,
    values are finite, positions and velocities lie within ``MAX_MAGNITUDE``,
    headings lie in (-pi, pi], dt > 0 and every time step is dt within
    ``DT_TOLERANCE``; errors name the agent and the first failing frame.

    Acceleration and jerk (the first and second velocity differences over
    dt) stay within ``sqrt(float max / 2T)``, and dt is large enough that the
    heading rates, at most pi / dt, and their change, at most 2 pi / dt^2, do
    too: every rate the metrics square and sum over the T frames stays finite.
    """

    agent_id: str
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    headings: np.ndarray
    kind: str
    dt: float

    def __post_init__(self):
        for name in _COLUMNS:
            column = np.array(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        who = f"trajectory {self.agent_id!r}"
        n = len(self.times) if self.times.ndim == 1 else -1
        shapes = [getattr(self, name).shape for name in _COLUMNS]
        if shapes != [(n,), (n, 2), (n, 2), (n,)]:
            raise ValidationError(
                f"{who}: {', '.join(_COLUMNS)} need shapes (T,), (T, 2), (T, 2), (T,), got {shapes}"
            )
        if n < 2:
            raise ValidationError(f"{who} needs at least 2 states, got {n}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        max_rate = math.sqrt(sys.float_info.max / (2 * n))
        if 2 * math.pi > max_rate * self.dt * self.dt:
            raise ValidationError(f"{who}: dt {self.dt:g} s lets the heading-rate change 2 pi / dt^2 exceed {max_rate:.3g}")
        if self.kind not in AGENT_KINDS:
            raise ValidationError(f"{who}: unknown agent kind {self.kind!r}")
        table = self._stacked()
        bad = ~(np.isfinite(table).all(axis=1) & (np.abs(table[:, 1:5]) <= MAX_MAGNITUDE).all(axis=1))
        if bad.any():
            raise ValidationError(
                f"{who}: non-finite value, or a position or velocity beyond {MAX_MAGNITUDE:g}, "
                f"at frame {np.argmax(bad)}"
            )
        # |acceleration| <= 2 v / dt and |jerk| <= 4 v / dt^2 for the largest velocity component v:
        # only past that bound are they worked out frame by frame.
        if 4 * np.abs(self.velocities).max() > max_rate * self.dt * min(self.dt, 2.0):
            a = np.diff(self.velocities, axis=0) / self.dt
            bad = np.zeros(n, dtype=bool)
            bad[1:] = (np.abs(a) > max_rate).any(axis=1)  # acceleration from frame 1, jerk from frame 2
            bad[2:] |= (np.abs(np.diff(a, axis=0) / self.dt) > max_rate).any(axis=1)
            if bad.any():
                raise ValidationError(f"{who}: acceleration or jerk beyond {max_rate:.3g} at frame {np.argmax(bad)}")
        bad = (self.headings <= -math.pi) | (self.headings > math.pi)
        if bad.any():
            i = np.argmax(bad)
            raise ValidationError(f"{who}: frame {i} heading {self.headings[i]} outside (-pi, pi]")
        gaps = np.diff(self.times)
        bad = (gaps <= 0) | (np.abs(gaps - self.dt) > DT_TOLERANCE)
        if bad.any():
            i = np.argmax(bad)
            raise ValidationError(
                f"{who}: gap {gaps[i]:.9g} s at frame {i + 1} is not dt={self.dt:.9g} s"
            )

    @classmethod
    def from_states(cls, agent_id: str, states: Iterable[AgentState], dt: float) -> Trajectory:
        """A trajectory from :class:`AgentState` rows, which must share one kind."""
        states = tuple(states)
        kinds = sorted({s.kind for s in states})
        if len(kinds) > 1:
            raise ValidationError(f"trajectory {agent_id!r} mixes agent kinds {kinds}")
        rows = [(s.t, s.x, s.y, s.vx, s.vy, s.heading) for s in states]
        return _from_table(agent_id, rows, kinds[0] if kinds else AGENT_KINDS[0], dt)

    def __len__(self) -> int:
        return len(self.times)

    def _stacked(self) -> np.ndarray:
        """The (T, 6) table of ``t, x, y, vx, vy, heading`` per frame."""
        return np.column_stack((self.times, self.positions, self.velocities, self.headings))

    @property
    def states(self) -> tuple[AgentState, ...]:
        """The frames as :class:`AgentState` rows, built on each access."""
        return tuple(AgentState(*row, kind=self.kind) for row in self._stacked().tolist())


def _from_table(agent_id: str, rows, kind: str, dt: float) -> Trajectory:
    """A trajectory from ``(t, x, y, vx, vy, heading)`` rows."""
    table = np.array(rows, dtype=float).reshape(len(rows), 6)
    return Trajectory(agent_id, table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5], kind, dt)


def check_radius(name: str, radius: float, agent_frames: int) -> None:
    """Reject a radius that is not positive and finite, so large that the disc area
    ``pi * radius**2`` overflows, or so small that the agent density ``count / area``
    summed over ``agent_frames`` overflows."""
    area = math.pi * float(radius) * float(radius)
    if not (0 < radius and area < math.inf and area * sys.float_info.max > agent_frames):
        raise ValidationError(f"{name} must be positive with a finite area pi {name}^2 and density, got {radius}")


@dataclass(frozen=True)
class Scene:
    """All agent trajectories of one scene plus the designated target agent.

    ``neighbor_radius`` bounds the per-frame neighbor set used by the
    interaction metrics.
    """

    scene_id: str
    agents: dict[str, Trajectory]
    target_id: str
    neighbor_radius: float = 50.0

    def __post_init__(self):
        if not self.agents:
            raise ValidationError(f"scene {self.scene_id!r} has no agents")
        if self.target_id not in self.agents:
            raise ValidationError(
                f"scene {self.scene_id!r}: target {self.target_id!r} not among agents"
            )
        ref = self.agents[self.target_id]
        check_radius("neighbor_radius", self.neighbor_radius, len(self.agents) * len(ref))
        for agent_id, traj in self.agents.items():
            if traj.agent_id != agent_id:
                raise ValidationError(
                    f"scene {self.scene_id!r}: key {agent_id!r} holds trajectory "
                    f"{traj.agent_id!r}"
                )
            if abs(traj.dt - ref.dt) > DT_TOLERANCE:
                raise ValidationError(
                    f"scene {self.scene_id!r}: agent {agent_id!r} dt {traj.dt:.9g} "
                    f"differs from target dt {ref.dt:.9g}"
                )
            if (
                len(traj) != len(ref)
                or abs(traj.times[0] - ref.times[0]) > DT_TOLERANCE
                or abs(traj.times[-1] - ref.times[-1]) > DT_TOLERANCE
            ):
                raise ValidationError(
                    f"scene {self.scene_id!r}: agent {agent_id!r} does not cover the "
                    f"same time range as the target"
                )

    @property
    def dt(self) -> float:
        return self.agents[self.target_id].dt

    @property
    def n_frames(self) -> int:
        return len(self.agents[self.target_id])

    @property
    def target(self) -> Trajectory:
        return self.agents[self.target_id]

    def neighbor_ids(self) -> list[str]:
        """All non-target agent ids in deterministic order."""
        return sorted((a for a in self.agents if a != self.target_id), key=_id_key)


@dataclass(frozen=True)
class KinematicSeries:
    """Backward-difference derivatives of one trajectory, or of a stack of them.

    Arrays are aligned to the frames where the difference is defined:
    ``a[k]`` holds the acceleration at frame k+1, ``j[k]`` the jerk at frame
    k+2, and likewise for ``omega``/``alpha``/``phi_rate``. ``v``, ``speed``
    and ``phi`` cover every frame. With fewer than 3 states the second-order
    series are empty, which is declared behaviour rather than an error. A
    stack of S trajectories puts a leading S axis on every array, and ``dt``
    is then an (S, 1) array.
    """

    v: np.ndarray          # (T, 2) velocity as given
    speed: np.ndarray      # (T,)
    a: np.ndarray          # (T-1, 2)
    j: np.ndarray          # (T-2, 2)
    omega: np.ndarray      # (T-1,) heading rate
    alpha: np.ndarray      # (T-2,) heading-rate rate
    phi: np.ndarray        # (T,) movement direction arctan2(vy, vx)
    phi_rate: np.ndarray   # (T-1,)
    dt: float


def derive_kinematics(traj: Trajectory) -> KinematicSeries:
    """Derive acceleration, jerk and the angular-rate series of a trajectory.

    Velocities are trusted as given and never re-derived from positions.
    Heading and movement-direction differences are wrapped to (-pi, pi]
    before division by dt, so every rate sample lies in (-pi/dt, pi/dt].
    """
    return kinematics(traj.velocities, traj.headings, traj.dt)


def kinematics(v: np.ndarray, headings: np.ndarray, dt) -> KinematicSeries:
    """``derive_kinematics`` of (..., T, 2) velocities and (..., T) headings.

    ``dt`` is a float, or an (..., 1) array of one step per trajectory. Every
    step is elementwise, so a trajectory's series are the same bits alone or
    in a stack.
    """
    a = np.diff(v, axis=-2) / np.expand_dims(dt, -1)
    j = np.diff(a, axis=-2) / np.expand_dims(dt, -1)
    omega = wrap_angle(np.diff(headings, axis=-1)) / dt
    phi = np.arctan2(v[..., 1], v[..., 0])
    return KinematicSeries(
        v=v,
        speed=np.linalg.norm(v, axis=-1),
        a=a,
        j=j,
        omega=omega,
        alpha=np.diff(omega, axis=-1) / dt,
        phi=phi,
        phi_rate=wrap_angle(np.diff(phi, axis=-1)) / dt,
        dt=dt,
    )


def _csv_errors(reader):
    """The records of a ``csv.reader``; a csv module error becomes a ParseError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"bad CSV ({exc})", line=reader.line_num) from None


def _parse_float(raw: str, column: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"column {column!r}: not a number: {raw!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"column {column!r}: non-finite value {raw!r}", line=line)
    return value


def parse_scene_csv(source, neighbor_radius: float = 50.0) -> list[Scene]:
    """Parse a scene CSV stream into validated :class:`Scene` objects.

    Expected header: ``scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind`` with
    an optional trailing ``target`` column carrying ``1`` on exactly one agent
    per scene. Without it the target is the lowest agent id. dt is inferred
    per scene from the modal gap between consecutive timestamps.

    ``source`` is a str, bytes, a Path or a file (see ``read_lines``). Scenes
    are returned sorted by scene id.
    """
    reader = csv.reader(read_lines(source, "scene CSV"))
    records = _csv_errors(reader)
    try:
        header = next(records)
    except StopIteration:
        raise ParseError("empty input, expected a header row", line=1) from None
    header = [h.strip() for h in header]
    has_target_col = tuple(header) == CSV_COLUMNS + ("target",)
    if not has_target_col and tuple(header) != CSV_COLUMNS:
        raise ParseError(f"bad header {header!r}, expected {','.join(CSV_COLUMNS)}[,target]", line=1)

    n_cols = len(header)
    # rows[scene][agent] -> (kind, list of (frame, t, x, y, vx, vy, heading))
    rows: dict[str, dict[str, tuple[str, list[tuple]]]] = {}
    flagged: dict[str, set[str]] = {}
    for row in records:
        line_no = reader.line_num  # the record's last line: a quoted field may span lines
        if not row:
            continue
        if len(row) != n_cols:
            raise ParseError(f"expected {n_cols} columns, got {len(row)}", line=line_no)
        scene_id, agent_id = row[0].strip(), row[1].strip()
        if not scene_id or not agent_id:
            raise ParseError("scene_id and agent_id must be non-empty", line=line_no)
        try:
            frame = int(row[2])
        except ValueError:
            raise ParseError(f"column 'frame': not an integer: {row[2]!r}", line=line_no) from None
        t = _parse_float(row[3], "t", line_no)
        x = _parse_float(row[4], "x", line_no)
        y = _parse_float(row[5], "y", line_no)
        vx = _parse_float(row[6], "vx", line_no)
        vy = _parse_float(row[7], "vy", line_no)
        heading = _parse_float(row[8], "heading", line_no)
        if not -math.pi < heading <= math.pi:
            raise ValidationError(f"line {line_no}: heading must lie in (-pi, pi], got {heading}")
        kind = row[9].strip()
        if kind not in AGENT_KINDS:
            raise ValidationError(
                f"line {line_no}: unknown kind {kind!r}, expected one of {'|'.join(AGENT_KINDS)}"
            )
        agent_kind, agent_rows = rows.setdefault(scene_id, {}).setdefault(agent_id, (kind, []))
        if agent_kind != kind:
            raise ValidationError(f"line {line_no}: agent {agent_id!r} changes kind to {kind!r}")
        if has_target_col:
            flag = row[10].strip()
            if flag not in ("", "0", "1"):
                raise ParseError(f"column 'target': expected 0 or 1, got {flag!r}", line=line_no)
            if flag == "1":
                flagged.setdefault(scene_id, set()).add(agent_id)
        agent_rows.append((frame, t, x, y, vx, vy, heading))

    scenes = []
    for scene_id in sorted(rows):
        gaps = []
        for agent_id, (_, agent_rows) in rows[scene_id].items():
            agent_rows.sort(key=lambda r: r[0])
            for prev, cur in zip(agent_rows, agent_rows[1:]):
                if prev[0] == cur[0]:
                    raise ValidationError(
                        f"scene {scene_id!r} agent {agent_id!r}: duplicate frame {cur[0]}"
                    )
                gaps.append(cur[1] - prev[1])
        if not gaps:
            raise ValidationError(f"scene {scene_id!r}: every agent has a single frame only")
        counts = Counter(round(g, 9) for g in gaps)
        top = max(counts.values())
        dt = min(g for g, c in counts.items() if c == top)
        try:
            trajectories = {
                agent_id: _from_table(agent_id, [r[1:] for r in agent_rows], kind, dt)
                for agent_id, (kind, agent_rows) in rows[scene_id].items()
            }
        except ValidationError as exc:
            raise ValidationError(f"scene {scene_id!r}: {exc}") from None

        if has_target_col:
            marked = sorted(flagged.get(scene_id, ()))
            if len(marked) != 1:
                raise ValidationError(
                    f"scene {scene_id!r}: expected exactly one agent with target=1, "
                    f"got {marked or 'none'}"
                )
            target_id = marked[0]
        else:
            target_id = min(trajectories, key=_id_key)
        scenes.append(Scene(scene_id, trajectories, target_id, neighbor_radius=neighbor_radius))
    return scenes


def load_scenes(path, neighbor_radius: float = 50.0) -> list[Scene]:
    """Read scenes from a CSV file on disk."""
    return parse_scene_csv(Path(path), neighbor_radius=neighbor_radius)


def scenes_to_csv(scenes: Sequence[Scene]) -> str:
    """Serialize scenes to the CSV wire format, including the target column.

    Floats are written with ``repr`` so a parse/write round trip is exact and
    the output is byte-stable for identical inputs.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS + ("target",))
    for scene in sorted(scenes, key=lambda s: s.scene_id):
        for agent_id in sorted(scene.agents, key=_id_key):
            traj = scene.agents[agent_id]
            is_target = "1" if agent_id == scene.target_id else "0"
            for frame, row in enumerate(traj._stacked().tolist()):
                writer.writerow((scene.scene_id, agent_id, frame, *row, traj.kind, is_target))
    return out.getvalue()


def dump_scenes(scenes: Sequence[Scene], path) -> None:
    """Write scenes to a CSV file on disk; a failure raises UsageError naming it."""
    write_text(path, scenes_to_csv(scenes))
