"""The reference reading of a scene CSV, row by row, for the differential fuzz.

This is the row loop ``tailscope.scene`` used to word every scene CSV error,
kept as it was: each record is converted and checked in file order, then
each scene, in sorted order, is built from ``Trajectory`` and ``Scene``
objects whose checks are written out here. It is plain Python over ``csv``, ``math``
and numpy, with no import from the package, so agreement with
``parse_scene_csv``, error texts included, is meaningful. Its errors carry
the package's exception names and texts.
"""

import csv
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

AGENT_KINDS = ("vehicle", "pedestrian", "other")
CSV_COLUMNS = ("scene_id", "agent_id", "frame", "t", "x", "y", "vx", "vy", "heading", "kind")
DT_TOLERANCE = 1e-6
MAX_MAGNITUDE = 1e150


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(Exception):
    pass


def _id_key(agent_id: str):
    try:
        return (0, int(agent_id), agent_id)
    except ValueError:
        return (1, 0, agent_id)


_COLUMNS = ("times", "positions", "velocities", "headings")


@dataclass(frozen=True, eq=False)
class Trajectory:
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

    def __len__(self) -> int:
        return len(self.times)

    def _stacked(self) -> np.ndarray:
        return np.column_stack((self.times, self.positions, self.velocities, self.headings))


def _from_table(agent_id: str, rows, kind: str, dt: float) -> Trajectory:
    table = np.asarray(rows, dtype=float).reshape(len(rows), 6)
    return Trajectory(agent_id, table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5], kind, dt)


def check_radius(name: str, radius: float, agent_frames: int) -> None:
    area = math.pi * float(radius) * float(radius)
    if not (0 < radius and area < math.inf and area * sys.float_info.max > agent_frames):
        raise ValidationError(f"{name} must be positive with a finite area pi {name}^2 and density, got {radius}")


@dataclass(frozen=True)
class Scene:
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


def parse_rows(lines: list[str], neighbor_radius: float) -> list[Scene]:
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
