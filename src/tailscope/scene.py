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

from .errors import MAX_MAGNITUDE, ParseError, ValidationError, read_lines, read_source, write_text

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
    table = np.asarray(rows, dtype=float).reshape(len(rows), 6)
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


@dataclass(frozen=True, eq=False)
class SceneGroup:
    """S scenes of n agents and T frames as columns. Each scene's agents come
    target first, then in ``neighbor_ids`` order."""

    index: np.ndarray  # (S,) the scenes' positions in their corpus
    block: np.ndarray  # (S, n, T, 6) t, x, y, vx, vy, heading per frame
    kinds: np.ndarray  # (S, n) agent kinds
    dt: np.ndarray  # (S, n) each agent's time step
    radius: np.ndarray  # (S,) neighbor radii
    agents: np.ndarray  # (S, n) agent ids (objects)
    first: np.ndarray  # (S, n) ranks the agents in the order a Scene's dict holds them

    @classmethod
    def of(cls, scenes: Sequence[Scene], index=None) -> SceneGroup:
        """The scenes, which share their agent and frame counts, as one group."""
        agents = [(s.target_id, *s.neighbor_ids()) for s in scenes]
        trajs = [s.agents[a] for s, row in zip(scenes, agents) for a in row]
        shape = (len(scenes), len(agents[0]))
        return cls(
            np.arange(len(scenes)) if index is None else np.asarray(index),
            np.stack([traj._stacked() for traj in trajs]).reshape(*shape, -1, 6),
            np.array([traj.kind for traj in trajs]).reshape(shape),
            np.array([traj.dt for traj in trajs], dtype=float).reshape(shape),
            np.array([s.neighbor_radius for s in scenes], dtype=float),
            np.array(agents, dtype=object),
            np.array([[list(s.agents).index(a) for a in row] for s, row in zip(scenes, agents)]),
        )

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows: slice) -> SceneGroup:
        return SceneGroup(*(getattr(self, name)[rows] for name in self.__dataclass_fields__))

    def scene(self, s: int, scene_id: str) -> Scene:
        """Row ``s`` as a :class:`Scene`."""
        agents = {}
        for j in np.argsort(self.first[s]).tolist():
            agent_id, kind = self.agents[s, j], str(self.kinds[s, j])
            agents[agent_id] = _from_table(agent_id, self.block[s, j], kind, float(self.dt[s, j]))
        return Scene(scene_id, agents, self.agents[s, 0], neighbor_radius=float(self.radius[s]))


@dataclass(frozen=True, eq=False)
class SceneColumns:
    """A corpus of scenes as groups of one shape; ``ids`` holds the scene ids
    and each group's ``index`` its scenes' positions there. Indexing gives
    a :class:`Scene`."""

    ids: list[str]
    groups: list[SceneGroup]

    @classmethod
    def of(cls, scenes: Sequence[Scene]) -> SceneColumns:
        members: dict[tuple[int, int], list[int]] = {}
        for i, scene in enumerate(scenes):
            members.setdefault((len(scene.agents), scene.n_frames), []).append(i)
        groups = [SceneGroup.of([scenes[i] for i in index], index) for index in members.values()]
        return cls([scene.scene_id for scene in scenes], groups)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Scene:
        for group in self.groups:
            for s in np.flatnonzero(group.index == i).tolist():
                return group.scene(s, self.ids[i])
        raise IndexError(i)

    def scenes(self) -> list[Scene]:
        out = [None] * len(self.ids)
        for group in self.groups:
            for s, i in enumerate(group.index.tolist()):
                out[i] = group.scene(s, self.ids[i])
        return out


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


#: The only bytes a scene CSV may hold for ``_columns`` to read it (``\r\n`` read
#: as ``\n``): with no quote, every comma or newline ends a field. A space, tab,
#: other ``\r`` or non-ASCII byte sends the file through the row loop too.
_PLAIN = b"".join(bytes(range(ord(a), ord(b) + 1)) for a, b in ("az", "AZ", "09")) + b"+-._,\n"
_HEADER = ",".join(CSV_COLUMNS).encode()


def _plain_rows(data) -> tuple | None:
    """The rows of a plain scene CSV, read by one ``loadtxt``: scene, agent, kind and
    target bytes, each as wide as its column's widest cell, frames and ``(t, x, y, vx,
    vy, heading)`` values. None when the file holds a byte outside ``_PLAIN``, a line
    without its header's fields, a number ``loadtxt`` does not read or a value the row
    loop refuses."""
    if isinstance(data, str):
        data = data.encode("ascii", "replace")  # a "?" is not plain
    if b"\r" in data:  # a search for one byte runs far faster than the replace
        data = data.replace(b"\r\n", b"\n")  # a line ending the row loop also drops
    if data.translate(None, _PLAIN):  # an empty file fails the header check
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    head = data.index(b"\n")
    has_target_col = data[:head] == _HEADER + b",target"
    n_rows, n_cols = data.count(b"\n") - 1, len(CSV_COLUMNS) + has_target_col
    if not (has_target_col or data[:head] == _HEADER) or n_rows == 0:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))[n_cols - 1 :]  # from the header's newline
    if sep.size != n_rows * n_cols + 1 or (buf[sep[::n_cols]] != ord("\n")).any():
        return None
    # each column's widest cell: every line's commas, then its newline, end its fields
    width = np.diff(sep).reshape(n_rows, n_cols).max(axis=0) - 1
    size = np.maximum(width, 1)
    # csv refuses a field longer than its limit; an int64 frame takes at most 20
    # characters, and int() refuses more than sys.get_int_max_str_digits()
    # digits, which loadtxt reads; no key column may take more bytes than the file
    if width.max() > csv.field_size_limit() or width[2] > 20 or size[[0, 1, 9, -1]].max() * n_rows > len(buf):
        return None
    formats = [f"S{w}" for w in size.tolist()]
    formats[2:9] = ["i8", "6f8"]  # the frame and (t, x, y, vx, vy, heading)
    dtype = np.dtype(list(zip(("scene", "agent", "frame", "v", "kind", "flag"), formats)))
    try:
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, comments=None, dtype=dtype, ndmin=1)
    except ValueError:
        return None
    scene, agent, kind, frame, v = (table[name] for name in ("scene", "agent", "kind", "frame", "v"))
    flag = table["flag"] if has_target_col else np.zeros(n_rows, dtype="S1")
    ok = (
        (scene != b"") & (agent != b"") & np.isin(kind, [k.encode() for k in AGENT_KINDS])
        & np.isin(flag, [b"", b"0", b"1"]) & np.isfinite(v).all(axis=1)
        & (np.abs(v[:, 1:5]) <= MAX_MAGNITUDE).all(axis=1) & (v[:, 5] > -math.pi) & (v[:, 5] <= math.pi)
    )
    return (scene, agent, kind, flag, frame, v, has_target_col) if ok.all() else None


def _columns(data, neighbor_radius: float) -> SceneColumns | None:
    """The scenes of a plain scene CSV as columns, with every check of
    ``Trajectory`` and ``Scene`` as an array mask. None when ``_plain_rows``
    refuses the file or a check fails: the row loop then reads it and words
    the error."""
    rows = _plain_rows(data)
    if rows is None:
        return None
    scene, agent, kind, flag, frame, v, has_target_col = rows
    order = np.lexsort((frame, agent, scene))
    scene, agent, kind, flag, frame, v = (column[order] for column in (scene, agent, kind, flag, frame, v))
    within = np.zeros(len(order), dtype=bool)  # the rows that continue their agent's run
    within[1:] = (scene[1:] == scene[:-1]) & (agent[1:] == agent[:-1])
    starts = np.flatnonzero(~within)
    length = np.diff(starts, append=len(order))
    # a lone frame, or within a run a duplicate frame or a change of kind or target flag
    changes = (frame[1:] == frame[:-1]) | (kind[1:] != kind[:-1]) | (flag[1:] != flag[:-1])
    if (length < 2).any() or (changes & within[1:]).any():
        return None

    ids, scene_of = np.unique(scene[starts], return_inverse=True)
    agent_ids, agent_of = np.unique(agent[starts], return_inverse=True)
    agent_ids = agent_ids.astype(str).astype(object)
    id_rank = np.argsort(sorted(range(len(agent_ids)), key=lambda i: _id_key(agent_ids[i])))
    target = flag[starts] == b"1"
    n_agents = np.bincount(scene_of, minlength=len(ids))
    if has_target_col and (np.bincount(scene_of[target], minlength=len(ids)) != 1).any():
        return None
    # The runs by scene, target first, then in neighbor_ids order. Without a
    # target column the lowest id comes first, and it is the target.
    by_scene = np.lexsort((id_rank[agent_of], ~target, scene_of))
    scene_start = np.cumsum(n_agents) - n_agents
    targets = by_scene[scene_start]
    target_run, n_frames = targets[scene_of], length[targets]

    # dt is each scene's most frequent gap rounded to 9 digits, the smallest on
    # a tie; Python's round runs once per distinct raw gap
    t = v[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing gap fails the checks below
        gaps = np.diff(t)[within[1:]]
        raw, raw_of = np.unique(gaps, return_inverse=True)
        rounded, code = np.unique([round(g, 9) for g in raw.tolist()], return_inverse=True)
        scene_code = np.repeat(scene_of, length - 1) * len(rounded) + code[raw_of]
        pair, count = np.unique(scene_code, return_counts=True)
        pair_scene, pair_code = np.divmod(pair, len(rounded))
        best = np.lexsort((pair_code, -count, pair_scene))
        best = best[np.diff(pair_scene[best], prepend=-1) != 0]
        dt = rounded[pair_code[best]][scene_of]  # per run
        max_rate = np.sqrt(sys.float_info.max / (2 * length))
        t_end = t[starts + length - 1]
        refused = (
            ~((dt > 0) & (dt < math.inf)) | (2 * math.pi > max_rate * dt * dt)
            # the runs whose acceleration and jerk Trajectory works out frame by frame
            | (4 * np.maximum.reduceat(np.abs(v[:, 3:5]).max(axis=1), starts)
               > max_rate * dt * np.minimum(dt, 2.0))
            | (length != length[target_run]) | (np.abs(t[starts] - t[starts][target_run]) > DT_TOLERANCE)
            | (np.abs(t_end - t_end[target_run]) > DT_TOLERANCE)
        )
        if refused.any() or ((gaps <= 0) | (np.abs(gaps - np.repeat(dt, length - 1)) > DT_TOLERANCE)).any():
            return None
    try:  # the largest scene sets the bound
        check_radius("neighbor_radius", neighbor_radius, int((n_agents * n_frames).max()))
    except ValidationError:
        return None

    first = np.minimum.reduceat(order, starts)
    kinds = kind[starts].astype(str)
    members: dict[tuple[int, int], list[int]] = {}
    for i, shape in enumerate(zip(n_agents.tolist(), n_frames.tolist())):
        members.setdefault(shape, []).append(i)
    groups = []
    for (n, n_frame), index in members.items():
        runs = by_scene[scene_start[index][:, None] + np.arange(n)]  # (S, n)
        block = v[starts[runs][..., None] + np.arange(n_frame)]
        radius = np.full(len(index), float(neighbor_radius))
        groups.append(SceneGroup(
            np.array(index), block, kinds[runs], dt[runs], radius, agent_ids[agent_of[runs]], first[runs]
        ))
    return SceneColumns(ids.astype(str).tolist(), groups)


def read_scene_columns(source, neighbor_radius: float = 50.0) -> SceneColumns:
    """The scenes of a scene CSV as :class:`SceneColumns`, sorted by scene id;
    ``parse_scene_csv`` gives the same scenes as objects.

    A file of plain fields (``_PLAIN``) takes the column path; any other file,
    and any file a check refuses, is read by the row loop, which gives the
    same scenes or words the error.
    """
    data, what = read_source(source, "scene CSV")
    columns = _columns(data, neighbor_radius)
    if columns is None:
        lines, data = read_lines(data, what), None  # the row loop needs no bytes
        columns = SceneColumns.of(_parse_rows(lines, neighbor_radius))
    return columns


def parse_scene_csv(source, neighbor_radius: float = 50.0) -> list[Scene]:
    """Parse a scene CSV stream into validated :class:`Scene` objects.

    Expected header: ``scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind`` with
    an optional trailing ``target`` column carrying ``1`` on exactly one agent
    per scene. Without it the target is the lowest agent id. dt is inferred
    per scene from the modal gap between consecutive timestamps.

    ``source`` is a str, bytes, a Path or a file (see ``read_lines``). Scenes
    are returned sorted by scene id. A file ``read_scene_columns`` reads by
    columns gives its scenes from those columns.
    """
    data, what = read_source(source, "scene CSV")
    columns = _columns(data, neighbor_radius)
    if columns is None:
        lines, data = read_lines(data, what), None  # the row loop needs no bytes
        return _parse_rows(lines, neighbor_radius)
    return columns.scenes()


def _parse_rows(lines: list[str], neighbor_radius: float) -> list[Scene]:
    """``parse_scene_csv`` row by row: every error names its line, or its scene and agent."""
    reader = csv.reader(lines)
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
    # rows[scene][agent] -> (kind, target flag, list of (frame, t, x, y, vx, vy, heading))
    rows: dict[str, dict[str, tuple[str, str, list[tuple]]]] = {}
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
        flag = row[10].strip() if has_target_col else ""
        agent_kind, agent_flag, agent_rows = rows.setdefault(scene_id, {}).setdefault(agent_id, (kind, flag, []))
        if agent_kind != kind:
            raise ValidationError(f"line {line_no}: agent {agent_id!r} changes kind to {kind!r}")
        if flag not in ("", "0", "1"):
            raise ParseError(f"column 'target': expected 0 or 1, got {flag!r}", line=line_no)
        if agent_flag != flag:
            raise ValidationError(f"line {line_no}: agent {agent_id!r} changes target flag to {flag!r}")
        agent_rows.append((frame, t, x, y, vx, vy, heading))

    scenes = []
    for scene_id in sorted(rows):
        gaps = []
        for agent_id, (_, _, agent_rows) in rows[scene_id].items():
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
                for agent_id, (kind, _, agent_rows) in rows[scene_id].items()
            }
        except ValidationError as exc:
            raise ValidationError(f"scene {scene_id!r}: {exc}") from None

        if has_target_col:
            marked = sorted(a for a, (_, flag, _) in rows[scene_id].items() if flag == "1")
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
