"""Agents, trajectories and scenes, plus CSV ingestion and backward-difference
kinematics.

Every type is immutable after construction and every function is pure.
A ``Trajectory`` is built from columns, from ``(t, x, y, vx, vy, heading)``
rows by ``Trajectory.from_rows`` (its ``states`` give them back as
:class:`AgentState`) or as a parsed scene's view; copies and pickles rebuild it.
Derivatives are backward differences, ``x'(t) = (x(t) - x(t - dt)) / dt``, so
each derived series starts one frame later than its source; angle differences
are wrapped to (-pi, pi] before dividing by dt.

A scene CSV is read by one of two tokenizers into one row table: one
``loadtxt`` reads a plain file (``_plain_rows``), ``csv.reader`` with
``int``/``float`` per cell any other (``_csv_rows``). One validator,
``_columns``, checks the table with array masks and raises the error a
line-by-line reading would meet first. ``Trajectory`` and ``Scene`` run the
same check kernels, ``_trajectory_faults`` and ``_scene_faults``, but a parsed
scene is checked once, by ``_columns``: its trajectories are read-only views
of its group's columns, built without a second check, as a synth scene's are.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import MAX_MAGNITUDE, Grouped, ParseError, ValidationError, read_lines, read_source, unchecked, write_text
from .errors import freeze, rebuilt

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


class AgentState(NamedTuple):
    """One frame of a :class:`Trajectory` as its ``states`` give it back; the
    trajectory checked its values. ``state[:6]`` is the row ``from_rows`` reads."""

    t: float
    x: float
    y: float
    vx: float
    vy: float
    heading: float
    kind: str = "vehicle"


_COLUMNS = ("times", "positions", "velocities", "headings")

#: The text of each ``Trajectory`` check, in the order it makes them;
#: ``_trajectory_faults`` holds their masks.
_TRAJECTORY_ERRORS = (
    "{who} needs at least 2 states, got {n}",
    "dt must be positive, got {dt}",
    "{who}: dt {dt:g} s lets the heading-rate change 2 pi / dt^2 exceed {max_rate:.3g}",
    "{who}: unknown agent kind {kind!r}",
    "{who}: non-finite value, or a position or velocity beyond {max_magnitude:g}, at frame {frame}",
    "{who}: acceleration or jerk beyond {max_rate:.3g} at frame {frame}",
    "{who}: frame {frame} heading {heading} outside (-pi, pi]",
    "{who}: gap {gap:.9g} s at frame {frame} is not dt={dt:.9g} s",
)


def _trajectory_faults(table, starts, length, dt, kind_ok) -> tuple[np.ndarray, np.ndarray]:
    """``Trajectory``'s checks on runs of ``(t, x, y, vx, vy, heading)`` rows: run r
    is ``table[starts[r]:starts[r] + length[r]]``, at time step ``dt[r]``, of a
    known kind where ``kind_ok[r]``. Each run's first failing check, an index
    into ``_TRAJECTORY_ERRORS`` (-1 for none), and the frame that check names."""
    n = len(table)
    faults = np.zeros((len(starts), len(_TRAJECTORY_ERRORS)), dtype=bool)
    frames = np.zeros(faults.shape, dtype=np.intp)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        max_rate = np.sqrt(sys.float_info.max / (2 * length))
        faults[:, 0] = length < 2
        faults[:, 1] = ~((dt > 0) & (dt < math.inf))
        faults[:, 2] = 2 * math.pi > max_rate * dt * dt
        faults[:, 3] = ~kind_ok
        t, heading, gaps = table[:, 0], table[:, 5], np.zeros(n)
        gaps[1:] = t[1:] - t[:-1]
        bad_gap = (gaps <= 0) | (np.abs(gaps - np.repeat(dt, length)) > DT_TOLERANCE)
        bad_gap[starts[length > 0]] = False  # a run's first row has no gap
        masks = {
            4: ~(np.isfinite(table).all(axis=1) & (np.abs(table[:, 1:5]) <= MAX_MAGNITUDE).all(axis=1)),
            6: (heading <= -math.pi) | (heading > math.pi),
            7: bad_gap,
        }
        for check, mask in masks.items():
            if mask.any():  # each run's first row where the mask holds, else its length
                hits = np.flatnonzero(mask)
                frames[:, check] = np.append(hits, n)[np.searchsorted(hits, starts)] - starts
                faults[:, check] = frames[:, check] < length
        # |acceleration| <= 2 v / dt and |jerk| <= 4 v / dt^2 for the largest velocity component v:
        # only past that bound are they worked out frame by frame.
        v = np.zeros(n + 1)  # an empty run reads the extra 0
        v[:n] = np.abs(table[:, 3:5]).max(axis=1)
        heavy = 4 * np.maximum.reduceat(v, starts) > max_rate * dt * np.minimum(dt, 2.0)
    for r in np.flatnonzero(heavy & ~faults[:, :5].any(axis=1)).tolist():
        a = np.diff(table[starts[r] : starts[r] + length[r], 3:5], axis=0) / dt[r]
        bad = np.zeros(length[r], dtype=bool)
        bad[1:] = (np.abs(a) > max_rate[r]).any(axis=1)  # acceleration from frame 1, jerk from frame 2
        bad[2:] |= (np.abs(np.diff(a, axis=0) / dt[r]) > max_rate[r]).any(axis=1)
        faults[r, 5], frames[r, 5] = bad.any(), np.argmax(bad)
    check = np.where(faults.any(axis=1), faults.argmax(axis=1), -1)
    return check, frames[np.arange(len(check)), check]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered kinematics of one agent, sampled at a uniform interval dt.

    ``times`` (T,), ``positions`` (T, 2), ``velocities`` (T, 2) and
    ``headings`` (T,) are read-only float arrays: copies of the caller's arrays,
    or in a parsed or synth scene views of its ``SceneGroup.block``; a copy or
    pickle is built and checked again, with copies of its own. T >= 2,
    values are finite, positions and velocities lie within ``MAX_MAGNITUDE``,
    headings lie in (-pi, pi], dt > 0 and every time step is dt within
    ``DT_TOLERANCE``; errors name the agent and the first failing frame.

    Acceleration and jerk (the first and second velocity differences over
    dt) stay within ``sqrt(float max / 2T)``, and dt is large enough that the
    heading rates, at most pi / dt, and their change, at most 2 pi / dt^2, do
    too: every rate the metrics square and sum over the T frames stays finite.
    The checks are ``_trajectory_faults``, which also checks a scene CSV's and a synth block's runs.
    """

    agent_id: str
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    headings: np.ndarray
    kind: str
    dt: float

    __reduce__ = rebuilt

    def __post_init__(self):
        freeze(self, _COLUMNS)
        n = len(self.times) if self.times.ndim == 1 else -1
        shapes = [getattr(self, name).shape for name in _COLUMNS]
        if shapes != [(n,), (n, 2), (n, 2), (n,)]:
            raise ValidationError(
                f"trajectory {self.agent_id!r}: {', '.join(_COLUMNS)} need shapes (T,), (T, 2), (T, 2), (T,), "
                f"got {shapes}"
            )
        table = self._stacked()
        (check,), (frame,) = _trajectory_faults(
            table, np.zeros(1, dtype=np.intp), np.array([n]), np.array([self.dt], dtype=float),
            np.array([self.kind in AGENT_KINDS]),
        )
        if check >= 0:
            raise ValidationError(_TRAJECTORY_ERRORS[check].format(
                who=f"trajectory {self.agent_id!r}", n=n, dt=self.dt, kind=self.kind, frame=frame,
                max_magnitude=MAX_MAGNITUDE, max_rate=math.sqrt(sys.float_info.max / (2 * max(n, 1))),
                heading=table[frame, 5] if frame < n else None,
                gap=table[frame, 0] - table[frame - 1, 0] if 0 < frame < n else None,
            ))

    @classmethod
    def from_rows(cls, agent_id: str, rows, kind: str, dt: float) -> Trajectory:
        """A trajectory from ``(t, x, y, vx, vy, heading)`` rows, one per frame."""
        table = np.asarray(rows, dtype=float).reshape(len(rows), 6)
        return cls(agent_id, table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5], kind, dt)

    def __len__(self) -> int:
        return len(self.times)

    def _stacked(self) -> np.ndarray:
        """The (T, 6) table of ``t, x, y, vx, vy, heading`` per frame."""
        return np.column_stack((self.times, self.positions, self.velocities, self.headings))

    @property
    def states(self) -> tuple[AgentState, ...]:
        """The frames as :class:`AgentState` rows, built on each access."""
        return tuple(AgentState(*row, kind=self.kind) for row in self._stacked().tolist())


def _radius_fits(radius: float, agent_frames):
    """Whether ``radius`` passes ``check_radius`` for ``agent_frames``, a count or an array of them."""
    area = math.pi * float(radius) * float(radius)
    return (0 < radius) & (area < math.inf) & (area * sys.float_info.max > agent_frames)


def check_radius(name: str, radius: float, agent_frames: int) -> None:
    """Reject a radius that is not positive and finite, so large that the disc area
    ``pi * radius**2`` overflows, or so small that the agent density ``count / area``
    summed over ``agent_frames`` overflows."""
    if not _radius_fits(radius, agent_frames):
        raise ValidationError(f"{name} must be positive with a finite area pi {name}^2 and density, got {radius}")


#: The text of each ``Scene`` check of an agent against the target, in the order it makes them.
_SCENE_ERRORS = (
    "key {agent!r} holds trajectory {holds!r}",
    "agent {agent!r} dt {dt:.9g} differs from target dt {target_dt:.9g}",
    "agent {agent!r} does not cover the same time range as the target",
)


def _scene_faults(key_ok, length, dt, start, end, target) -> np.ndarray:
    """``Scene``'s checks of runs (agents) that hold their key where ``key_ok``, of
    ``length`` frames from time ``start`` to ``end`` at step ``dt``, against run
    ``target[r]``, the target of run r's scene. Each run's first failing check,
    an index into ``_SCENE_ERRORS`` (-1 for none)."""
    def far(a):
        return np.abs(a - a[target]) > DT_TOLERANCE

    with np.errstate(over="ignore", invalid="ignore"):
        faults = np.column_stack((~key_ok, far(dt), (length != length[target]) | far(start) | far(end)))
    return np.where(faults.any(axis=1), faults.argmax(axis=1), -1)


@dataclass(frozen=True)
class Scene:
    """All agent trajectories of one scene plus the designated target agent.

    ``neighbor_radius`` bounds the per-frame neighbor set used by the
    interaction metrics. Every agent shares the target's dt and time range
    (``_scene_faults``).
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
        trajs = list(self.agents.values())
        check = _scene_faults(
            np.array([traj.agent_id == agent_id for agent_id, traj in self.agents.items()]),
            np.array([len(traj) for traj in trajs]), np.array([traj.dt for traj in trajs], dtype=float),
            np.array([traj.times[0] for traj in trajs]), np.array([traj.times[-1] for traj in trajs]),
            np.full(len(trajs), list(self.agents).index(self.target_id)),
        )
        for (agent_id, traj), c in zip(self.agents.items(), check.tolist()):
            if c >= 0:
                text = _SCENE_ERRORS[c].format(agent=agent_id, holds=traj.agent_id, dt=traj.dt, target_dt=ref.dt)
                raise ValidationError(f"scene {self.scene_id!r}: {text}")

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
    target first, then in ``neighbor_ids`` order. Only ``_columns``, ``of`` and ``synth.generate``
    build a group, each from checked scenes or runs; its arrays are read-only, in copies and pickles too."""

    index: np.ndarray  # (S,) the scenes' positions in their corpus
    block: np.ndarray  # (S, n, T, 6) t, x, y, vx, vy, heading per frame
    kinds: np.ndarray  # (S, n) agent kinds
    dt: np.ndarray  # (S, n) each agent's time step
    radius: np.ndarray  # (S,) neighbor radii
    agents: np.ndarray  # (S, n) agent ids (objects)
    first: np.ndarray  # (S, n) ranks the agents in the order a Scene's dict holds them

    __reduce__ = rebuilt

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            getattr(self, name).flags.writeable = False

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

    def row(self, s: int, scene_id: str) -> Scene:
        """Row ``s`` as a :class:`Scene` whose trajectories view ``block``, checked with the group, not again."""
        agents = {}
        for j in np.argsort(self.first[s]).tolist():
            agent_id, t = self.agents[s, j], self.block[s, j]
            agents[agent_id] = unchecked(
                Trajectory, agent_id, t[:, 0], t[:, 1:3], t[:, 3:5], t[:, 5], str(self.kinds[s, j]), float(self.dt[s, j])
            )
        return unchecked(Scene, scene_id, agents, self.agents[s, 0], float(self.radius[s]))


class SceneColumns(Grouped):
    """A corpus of scenes as groups (:class:`SceneGroup`) of one (agents, frames)
    shape; indexing gives a :class:`Scene` viewing its group's row."""

    @classmethod
    def of(cls, scenes: Sequence[Scene]) -> SceneColumns:
        return super().of(scenes, lambda s: (len(s.agents), s.n_frames), SceneGroup.of, attrgetter("scene_id"))


#: The only bytes a plain scene CSV holds (``\r\n`` read as ``\n``): with no
#: quote or space every comma or newline ends a field, and ``loadtxt`` reads a
#: number as ``int``/``float`` do, or refuses it, as it does ``1_000``.
_PLAIN = b"".join(bytes(range(ord(a), ord(b) + 1)) for a, b in ("az", "AZ", "09")) + b"+-._,\n"
_HEADER = ",".join(CSV_COLUMNS).encode()


@dataclass(frozen=True, eq=False)
class _Rows:
    """A scene CSV's records in file order, filled by ``_plain_rows`` or
    ``_csv_rows`` and checked by ``_columns``. ``keys`` holds the scene, agent,
    kind and target-flag columns, each as its sorted distinct stripped values
    and each row's index into them; ``cells(i)`` gives record i as written."""

    keys: tuple
    frame: np.ndarray  # (N,) int64, or Python ints past its range
    v: np.ndarray  # (N, 6) t, x, y, vx, vy, heading
    unread: np.ndarray  # (N, 7) the frame and value cells int()/float() refused, read as 0
    line: np.ndarray  # (N,) each record's last physical line
    cells: Callable[[int], list[str]]
    has_target_col: bool
    stop: ParseError | None = None  # the bad CSV or field count that ended the records


def _plain_rows(data) -> _Rows | None:
    """The rows of a plain scene CSV, read by one ``loadtxt`` with each key column
    as bytes as wide as its widest cell. None, and ``_csv_rows`` reads the file,
    when it holds a byte outside ``_PLAIN`` or a line without its header's
    fields, or a cell that ``loadtxt``, ``int`` or ``csv`` refuses and another reads."""
    if isinstance(data, str):
        data = data.encode("ascii", "replace")  # a "?" is not plain
    if b"\r" in data:  # a search for one byte runs far faster than the replace
        data = data.replace(b"\r\n", b"\n")  # a line ending csv also drops
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
    flag = table["flag"] if has_target_col else np.zeros(n_rows, dtype="S1")
    keys = [np.unique(column, return_inverse=True) for column in (table["scene"], table["agent"], table["kind"], flag)]
    return _Rows(
        tuple((values.astype(str).tolist(), codes) for values, codes in keys), table["frame"], table["v"],
        np.zeros((n_rows, 7), dtype=bool), np.arange(2, n_rows + 2),
        lambda i: data.split(b"\n", i + 2)[i + 1].decode().split(","), has_target_col,
    )


def _factor(cells) -> tuple[list[str], np.ndarray]:
    """The sorted distinct stripped ``cells`` and each cell's index into them."""
    cells = list(map(str.strip, cells))
    values = sorted(set(cells))
    index = dict(zip(values, range(len(values))))
    return values, np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))


def _csv_rows(data, what: str) -> _Rows:
    """The rows of any scene CSV, read by ``csv.reader`` with ``int``/``float`` per
    cell. A missing or bad header raises a ParseError here."""
    reader = csv.reader(read_lines(data, what))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty input, expected a header row", line=1) from None
    except csv.Error as exc:
        raise ParseError(f"bad CSV ({exc})", line=reader.line_num) from None
    has_target_col = tuple(header) == CSV_COLUMNS + ("target",)
    if not has_target_col and tuple(header) != CSV_COLUMNS:
        raise ParseError(f"bad header {header!r}, expected {','.join(CSV_COLUMNS)}[,target]", line=1)

    n_cols, records, lines, stop = len(header), [], [], None
    try:
        for row in reader:
            if len(row) == n_cols:
                records.append(row)
                lines.append(reader.line_num)  # the record's last line: a quoted field may span lines
            elif row:  # a blank line is no record
                stop = ParseError(f"expected {n_cols} columns, got {len(row)}", line=reader.line_num)
                break
    except csv.Error as exc:
        stop = ParseError(f"bad CSV ({exc})", line=reader.line_num)
    cells = list(chain.from_iterable(records))
    columns = [cells[c::n_cols] for c in range(n_cols)] + [[""] * len(records)]  # empty flags stand in for no target column
    unread = np.zeros((len(records), 7), dtype=bool)
    numbers = []
    for c, (convert, column) in enumerate(zip((int,) + (float,) * 6, columns[2:9])):
        try:
            numbers.append(list(map(convert, column)))
        except ValueError:  # read cell by cell
            for i, cell in enumerate(column):
                try:
                    column[i] = convert(cell)
                except ValueError:
                    column[i], unread[i, c] = 0, True
            numbers.append(column)
    try:
        frame = np.array(numbers[0], dtype=np.int64)
    except OverflowError:
        frame = np.array(numbers[0], dtype=object)
    return _Rows(
        tuple(map(_factor, (columns[0], columns[1], columns[9], columns[10]))), frame,
        np.column_stack(numbers[1:]).reshape(-1, 6), unread, np.array(lines, dtype=np.intp),
        records.__getitem__, has_target_col, stop,
    )


def _check_lines(rows: _Rows, first: np.ndarray) -> None:
    """Raise the first error a line-by-line reading meets within the lines: line
    by line, and within a line in its order: empty ids, the frame, each value,
    the heading range, the kind, a kind change, the target flag and a flag
    change, each change against ``first``, the agent's first row. Then ``rows.stop``."""
    (ids, scene_of), (agent_ids, agent_of), (kinds, kind_of), (flags, flag_of) = rows.keys

    def holds(values, allowed):
        return np.array([value in allowed for value in values], dtype=bool)

    heading = rows.v[:, 5]
    faults = np.column_stack((
        holds(ids, ("",))[scene_of] | holds(agent_ids, ("",))[agent_of],
        rows.unread[:, 0],
        rows.unread[:, 1:] | ~np.isfinite(rows.v),
        ~((heading > -math.pi) & (heading <= math.pi)),
        ~holds(kinds, AGENT_KINDS)[kind_of],
        kind_of != kind_of[first],
        ~holds(flags, ("", "0", "1"))[flag_of],
        flag_of != flag_of[first],
    ))
    bad = faults.any(axis=1)
    if not bad.any():
        if rows.stop is not None:
            raise rows.stop
        return
    i = int(np.argmax(bad))
    check, line, cells = int(np.argmax(faults[i])), int(rows.line[i]), rows.cells(i)
    agent, kind, flag = agent_ids[agent_of[i]], kinds[kind_of[i]], flags[flag_of[i]]
    if check == 0:
        raise ParseError("scene_id and agent_id must be non-empty", line=line)
    if check == 1:
        raise ParseError(f"column 'frame': not an integer: {cells[2]!r}", line=line)
    if check < 8:  # the values t, x, y, vx, vy and heading
        what = "not a number:" if rows.unread[i, check - 1] else "non-finite value"
        raise ParseError(f"column {CSV_COLUMNS[check + 1]!r}: {what} {cells[check + 1]!r}", line=line)
    if check == 11:
        raise ParseError(f"column 'target': expected 0 or 1, got {flag!r}", line=line)
    raise ValidationError(f"line {line}: " + {
        8: f"heading must lie in (-pi, pi], got {float(heading[i])}",
        9: f"unknown kind {kind!r}, expected one of {'|'.join(AGENT_KINDS)}",
        10: f"agent {agent!r} changes kind to {kind!r}",
        12: f"agent {agent!r} changes target flag to {flag!r}",
    }[check])


def _columns(rows: _Rows, neighbor_radius: float) -> SceneColumns:
    """The scenes of ``rows`` as columns, sorted by scene id. Every check of a
    line-by-line reading runs as an array mask, and the first to fail in its
    order raises: ``_check_lines``; then scene by scene a duplicate frame,
    every agent with a single frame, ``Trajectory``'s checks, the target count
    and ``Scene``'s, each on the agents in the order they first appear."""
    (ids, scene_of), (agent_ids, agent_of), (kinds, kind_of), (flags, flag_of) = rows.keys
    frame = rows.frame if rows.frame.dtype != object else np.unique(rows.frame, return_inverse=True)[1]
    order = np.lexsort((frame, agent_of, scene_of))
    scene_of, agent_of, kind_of, flag_of, frame, v = (
        column[order] for column in (scene_of, agent_of, kind_of, flag_of, frame, rows.v)
    )
    within = np.zeros(len(order), dtype=bool)  # the rows that continue their agent's run
    within[1:] = (scene_of[1:] == scene_of[:-1]) & (agent_of[1:] == agent_of[:-1])
    starts = np.flatnonzero(~within)
    length = np.diff(starts, append=len(order))
    first = np.minimum.reduceat(order, starts) if len(order) else order  # each run's first row in the file
    row_first = np.empty_like(order)
    row_first[order] = np.repeat(first, length)
    _check_lines(rows, row_first)
    if not len(order):
        return SceneColumns([], [])
    run_scene, run_agent = scene_of[starts], agent_of[starts]
    scene_runs = np.flatnonzero(np.diff(run_scene, prepend=-1))  # each scene's first run
    n_agents = np.diff(scene_runs, append=len(starts))

    agent_ids = np.array(agent_ids, dtype=object)
    id_rank = np.argsort(sorted(range(len(agent_ids)), key=lambda i: _id_key(agent_ids[i])))
    target = np.array([flag == "1" for flag in flags], dtype=bool)[flag_of[starts]]
    # The runs by scene, target first, then in neighbor_ids order. Without a
    # target column the lowest id comes first, and it is the target.
    by_scene = np.lexsort((id_rank[run_agent], ~target, run_scene))
    targets = by_scene[scene_runs]
    n_frames = length[targets]

    # dt is each scene's most frequent gap rounded to 9 digits, the smallest on
    # a tie; Python's round runs once per distinct raw gap
    t, dt = v[:, 0], np.full(len(ids), np.nan)  # a scene with no gap fails before its dt is read
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing gap fails Trajectory's checks
        gaps = np.diff(t)[within[1:]]
    raw, raw_of = np.unique(gaps, return_inverse=True)
    rounded, code = np.unique([round(g, 9) for g in raw.tolist()], return_inverse=True)
    pair, count = np.unique(scene_of[1:][within[1:]] * len(rounded) + code[raw_of], return_counts=True)
    pair_scene, pair_code = np.divmod(pair, len(rounded))  # no gap at all divides an empty array by 0, silently
    best = np.lexsort((pair_code, -count, pair_scene))
    best = best[np.diff(pair_scene[best], prepend=-1) != 0]
    dt[pair_scene[best]] = rounded[pair_code[best]]
    run_dt = dt[run_scene]
    duplicate = np.zeros(len(order), dtype=bool)
    duplicate[1:] = within[1:] & (frame[1:] == frame[:-1])
    run_duplicate = np.logical_or.reduceat(duplicate, starts)
    check, _ = _trajectory_faults(v, starts, length, run_dt, np.ones(len(starts), dtype=bool))
    ends = t[starts + length - 1]
    cover = _scene_faults(np.ones(len(starts), dtype=bool), length, run_dt, t[starts], ends, targets[run_scene])
    faults = np.column_stack((
        np.logical_or.reduceat(run_duplicate, scene_runs),
        np.maximum.reduceat(length, scene_runs) == 1,
        np.logical_or.reduceat(check >= 0, scene_runs),
        rows.has_target_col & (np.add.reduceat(target.astype(int), scene_runs) != 1),
        ~_radius_fits(neighbor_radius, n_agents * n_frames),
        np.logical_or.reduceat(cover >= 0, scene_runs),
    ))
    if faults.any():
        s = int(np.argmax(faults.any(axis=1)))
        fault, where = int(np.argmax(faults[s])), f"scene {ids[s]!r}"
        runs = np.arange(scene_runs[s], scene_runs[s] + n_agents[s])
        runs = runs[np.argsort(first[runs])]  # the scene's agents in the order they first appear
        if fault == 0:
            r = runs[run_duplicate[runs]][0]
            k = starts[r] + np.argmax(duplicate[starts[r] : starts[r] + length[r]])
            raise ValidationError(f"{where} agent {agent_ids[run_agent[r]]!r}: duplicate frame {rows.frame[order[k]]}")
        if fault == 1:
            raise ValidationError(f"{where}: every agent has a single frame only")
        if fault == 3:
            marked = sorted(agent_ids[run_agent[runs[target[runs]]]].tolist())
            raise ValidationError(f"{where}: expected exactly one agent with target=1, got {marked or 'none'}")
        agents = {}
        try:  # the scene's objects word its first failing Trajectory check, or Scene check
            for r in runs.tolist():
                agent_id, kind = agent_ids[run_agent[r]], kinds[kind_of[starts[r]]]
                agents[agent_id] = Trajectory.from_rows(agent_id, v[starts[r] : starts[r] + length[r]], kind, float(dt[s]))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        Scene(ids[s], agents, agent_ids[run_agent[targets[s]]], neighbor_radius=neighbor_radius)

    kinds = np.array(kinds)[kind_of[starts]]
    groups = []
    for (n, n_frame), index in Grouped.positions(zip(n_agents.tolist(), n_frames.tolist())).items():
        runs = by_scene[scene_runs[index][:, None] + np.arange(n)]  # (S, n)
        block = v[starts[runs][..., None] + np.arange(n_frame)]
        radius = np.full(len(index), float(neighbor_radius))
        groups.append(SceneGroup(
            np.array(index), block, kinds[runs], run_dt[runs], radius, agent_ids[run_agent[runs]], first[runs]
        ))
    return SceneColumns(ids, groups)


def parse_scene_csv(source, neighbor_radius: float = 50.0) -> SceneColumns:
    """Parse a scene CSV stream into validated :class:`Scene` objects, held as
    :class:`SceneColumns` and sorted by scene id.

    Expected header: ``scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind`` with
    an optional trailing ``target`` column carrying ``1`` on exactly one agent
    per scene. Without it the target is the lowest agent id. dt is inferred
    per scene from the modal gap between consecutive timestamps.

    ``source`` is a str, bytes, a Path or a file (see ``read_lines``). A plain
    file (``_PLAIN`` bytes only) is read by one ``loadtxt``, any other by
    ``csv.reader``. Both fill one row table, which ``_columns`` checks and
    groups: an error names the first failing line, or scene, agent and frame,
    that a line-by-line reading would meet.
    """
    data, what = read_source(source, "scene CSV")
    return _columns(_plain_rows(data) or _csv_rows(data, what), neighbor_radius)


def load_scenes(path, neighbor_radius: float = 50.0) -> SceneColumns:
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
