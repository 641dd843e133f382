"""Domain types, CSV ingestion and the backward-difference kinematics."""

import csv
import math
import pickle

import numpy as np
import pytest

from conftest import make_traj, make_scene, random_trajectory
from tailscope import scene as scene_module
from tailscope.errors import ParseError, ValidationError
from tailscope.scene import (
    Scene,
    SceneColumns,
    Trajectory,
    derive_kinematics,
    parse_scene_csv,
    scenes_to_csv,
    wrap_angle,
)

HEADER = "scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind"


class TestTrajectory:
    def test_needs_two_states(self):
        with pytest.raises(ValidationError, match="'a' needs at least 2 states, got 1"):
            Trajectory.from_rows("a", [(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)], "vehicle", 0.1)

    def test_rejects_non_uniform_gaps(self):
        rows = [(t, 0.0, 0.0, 1.0, 0.0, 0.0) for t in (0.0, 0.5, 1.2)]
        with pytest.raises(ValidationError, match="frame 2"):
            Trajectory.from_rows("a", rows, "vehicle", 0.5)

    @staticmethod
    def columns(n=4):
        t = np.arange(n) * 0.5
        return {
            "times": t,
            "positions": np.column_stack((t, np.zeros(n))),
            "velocities": np.tile([1.0, 0.0], (n, 1)),
            "headings": np.zeros(n),
        }

    @pytest.mark.parametrize(
        "name, shape",
        [("times", (4, 1)), ("positions", (4, 3)), ("velocities", (3, 2)), ("headings", (5,))],
    )
    def test_rejects_wrong_shapes(self, name, shape):
        cols = {**self.columns(), name: np.zeros(shape)}
        with pytest.raises(ValidationError, match="shapes"):
            Trajectory("a", **cols, kind="vehicle", dt=0.5)

    @pytest.mark.parametrize("name", ["times", "positions", "velocities", "headings"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values_naming_frame(self, name, bad):
        cols = self.columns()
        cols[name][2] = bad
        with pytest.raises(ValidationError, match="'a'.*frame 2"):
            Trajectory("a", **cols, kind="vehicle", dt=0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["positions", "velocities"])
    @pytest.mark.parametrize("bad", [1e200, -1.5 * scene_module.MAX_MAGNITUDE])
    def test_rejects_huge_coordinates_naming_agent_and_frame(self, name, bad):
        """A coordinate whose square would overflow is refused before any metric squares it."""
        cols = self.columns()
        cols[name][2, 1] = bad
        with pytest.raises(ValidationError, match=r"trajectory 'a'.*beyond 1e\+150.*frame 2"):
            Trajectory("a", **cols, kind="vehicle", dt=0.5)
        cols[name][2, 1] = math.copysign(scene_module.MAX_MAGNITUDE, bad)  # the bound itself is kept
        Trajectory("a", **cols, kind="vehicle", dt=0.5)

    @pytest.mark.filterwarnings("error")
    def test_rejects_rates_whose_squares_overflow_naming_agent_and_frame(self):
        """Acceleration or jerk past sqrt(float max / 2T) is refused at its frame; so is a dt
        small enough that the heading rates could pass it."""
        t = np.arange(4) * 1e-9
        cols = {**self.columns(), "times": t, "positions": np.zeros((4, 2))}
        cols["velocities"][2, 0] = 1e150  # acceleration 1e159 at frame 2
        with pytest.raises(ValidationError, match=r"trajectory 'a': acceleration or jerk beyond .* at frame 2"):
            Trajectory("a", **cols, kind="vehicle", dt=1e-9)
        cols["velocities"][:, 0] = 1e150  # kept: a constant velocity has no acceleration or jerk
        Trajectory("a", **cols, kind="vehicle", dt=1e-9)
        with pytest.raises(ValidationError, match=r"trajectory 'a': dt 1e-100 s"):
            Trajectory("a", **{**cols, "times": t * 1e-91}, kind="vehicle", dt=1e-100)

    @pytest.mark.filterwarnings("error")
    def test_csv_with_overflowing_jerk_names_scene_agent_and_frame(self):
        text = (
            "scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind\n"
            "s,7,0,0.0,0,0,0,0,0,vehicle\ns,7,1,1e-9,0,0,1e150,0,0,vehicle\ns,7,2,2e-9,0,0,0,0,0,vehicle\n"
        )
        with pytest.raises(ValidationError, match=r"scene 's': trajectory '7': .* at frame 1"):
            parse_scene_csv(text)

    def test_rejects_heading_outside_range_naming_frame(self):
        cols = self.columns()
        cols["headings"][3] = -math.pi
        with pytest.raises(ValidationError, match="frame 3"):
            Trajectory("a", **cols, kind="vehicle", dt=0.5)
        cols["headings"][3] = math.pi  # pi itself is inside (-pi, pi]
        Trajectory("a", **cols, kind="vehicle", dt=0.5)

    def test_rejects_unknown_kind_and_bad_dt(self):
        with pytest.raises(ValidationError, match="kind"):
            Trajectory("a", **self.columns(), kind="bicycle", dt=0.5)
        with pytest.raises(ValidationError, match="dt"):
            Trajectory("a", **self.columns(), kind="vehicle", dt=0.0)

    def test_rejects_non_increasing_times_naming_frame(self):
        cols = self.columns()
        cols["times"][3] = cols["times"][2]
        with pytest.raises(ValidationError, match="frame 3"):
            Trajectory("a", **cols, kind="vehicle", dt=0.5)

    def test_arrays_are_read_only_copies(self):
        cols = self.columns()
        traj = Trajectory("a", **cols, kind="vehicle", dt=0.5)
        for name, given in cols.items():
            stored = getattr(traj, name)
            assert stored.dtype == float and not stored.flags.writeable
            assert not np.shares_memory(stored, given)
            given[...] = 7.0
            assert not np.array_equal(stored, given)
            with pytest.raises(ValueError):
                stored[0] = 1.0

    @pytest.mark.parametrize("kind", ["vehicle", "pedestrian", "other"])
    def test_from_rows_round_trips_states(self, rng, kind):
        traj = random_trajectory(rng, kind=kind)
        assert all(state.kind == kind for state in traj.states)
        again = Trajectory.from_rows(traj.agent_id, [state[:6] for state in traj.states], traj.kind, traj.dt)
        assert (again.agent_id, again.kind, again.dt, again.states) == (traj.agent_id, kind, traj.dt, traj.states)
        for name in ("times", "positions", "velocities", "headings"):
            assert getattr(again, name).tobytes() == getattr(traj, name).tobytes()

    def test_from_rows_reads_each_column_in_its_place(self):
        rows = [(0.0, 1.0, 2.0, 3.0, 4.0, 0.5), (0.1, 5.0, 6.0, 7.0, 8.0, -0.5)]
        traj = Trajectory.from_rows("a", rows, "other", 0.1)
        assert traj.times.tolist() == [0.0, 0.1] and traj.headings.tolist() == [0.5, -0.5]
        assert traj.positions.tolist() == [[1.0, 2.0], [5.0, 6.0]]
        assert traj.velocities.tolist() == [[3.0, 4.0], [7.0, 8.0]]
        assert [tuple(state) for state in traj.states] == [(*row, "other") for row in rows]

    def test_pickled_scene_round_trips(self, rng):
        trajs = [
            random_trajectory(rng, agent_id=str(i), kind=kind)
            for i, kind in enumerate(("vehicle", "other"))
        ]
        scene = make_scene(trajs, scene_id="p")
        copy = pickle.loads(pickle.dumps(scene))
        assert (copy.scene_id, copy.target_id) == (scene.scene_id, scene.target_id)
        for agent_id, traj in scene.agents.items():
            got = copy.agents[agent_id]
            assert (got.agent_id, got.kind, got.dt) == (traj.agent_id, traj.kind, traj.dt)
            for name in ("times", "positions", "velocities", "headings"):
                assert np.array_equal(getattr(got, name), getattr(traj, name))


class TestWrapAngle:
    def test_scalar_range(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    def test_array(self):
        out = wrap_angle(np.array([3 * math.pi, -3 * math.pi, 0.25]))
        assert np.allclose(out, [math.pi, math.pi, 0.25])


class TestDeriveKinematics:
    def test_constant_velocity_all_zero(self):
        traj = make_traj("a", [(5.0, 0.0)] * 10)
        kin = derive_kinematics(traj)
        assert np.all(kin.a == 0.0)
        assert np.all(kin.j == 0.0)
        assert np.all(kin.omega == 0.0)

    def test_heading_wrap_crossing_pi(self):
        # [3.1, -3.1] rad at dt=1: the wrapped step is 2*pi - 6.2, not -6.2.
        traj = make_traj("a", [(1.0, 0.0)] * 2, dt=1.0, headings=[3.1, -3.1])
        kin = derive_kinematics(traj)
        assert kin.omega[0] == pytest.approx(2 * math.pi - 6.2, abs=1e-12)

    def test_backward_difference_acceleration(self):
        traj = make_traj("a", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], dt=1.0)
        kin = derive_kinematics(traj)
        assert kin.a[:, 0] == pytest.approx([1.0, -1.0, 1.0])

    def test_two_states_has_empty_second_order(self):
        traj = make_traj("a", [(1.0, 0.0), (2.0, 0.0)])
        kin = derive_kinematics(traj)
        assert kin.j.shape == (0, 2)
        assert kin.alpha.shape == (0,)
        assert kin.a.shape == (1, 2)

    def test_time_translation_invariance(self, rng):
        traj = random_trajectory(rng)
        rows = [(s.t + 1234.5, s.x, s.y, s.vx, s.vy, s.heading) for s in traj.states]
        shifted = Trajectory.from_rows(traj.agent_id, rows, traj.kind, traj.dt)
        a, b = derive_kinematics(traj), derive_kinematics(shifted)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.j, b.j)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.phi_rate, b.phi_rate)

    def test_rotation_equivariance(self, rng):
        beta = 0.83
        c, s = math.cos(beta), math.sin(beta)
        traj = random_trajectory(rng)
        rows = [
            (st.t, c * st.x - s * st.y, s * st.x + c * st.y, c * st.vx - s * st.vy, s * st.vx + c * st.vy,
             wrap_angle(st.heading + beta))
            for st in traj.states
        ]
        rotated = Trajectory.from_rows(traj.agent_id, rows, traj.kind, traj.dt)
        ka, kb = derive_kinematics(traj), derive_kinematics(rotated)
        # magnitudes invariant, rates invariant, phi shifted by beta
        assert np.allclose(np.linalg.norm(ka.a, axis=1), np.linalg.norm(kb.a, axis=1), atol=1e-9)
        assert np.allclose(np.linalg.norm(ka.j, axis=1), np.linalg.norm(kb.j, axis=1), atol=1e-9)
        assert np.allclose(ka.omega, kb.omega, atol=1e-9)
        assert np.allclose(wrap_angle(kb.phi - ka.phi), beta, atol=1e-9)

    def test_omega_bounded_by_wrap(self, rng):
        for _ in range(20):
            headings = rng.uniform(-math.pi + 1e-9, math.pi, size=10)
            traj = make_traj("a", [(1.0, 0.0)] * 10, dt=0.25, headings=list(headings))
            kin = derive_kinematics(traj)
            assert np.all(kin.omega > -math.pi / 0.25)
            assert np.all(kin.omega <= math.pi / 0.25)


class TestParseSceneCsv:
    def test_minimal_two_row_file(self):
        text = HEADER + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle\ns,a,1,0.5,0.5,0,1,0,0.0,vehicle\n"
        scenes = parse_scene_csv(text)
        assert len(scenes) == 1
        scene = scenes[0]
        assert scene.dt == pytest.approx(0.5)
        assert scene.target_id == "a"
        assert len(scene.agents["a"]) == 2

    def test_non_uniform_gap_names_frame(self):
        text = (
            HEADER
            + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle"
            + "\ns,a,1,0.5,0,0,1,0,0.0,vehicle"
            + "\ns,a,2,1.2,0,0,1,0,0.0,vehicle\n"
        )
        with pytest.raises(ValidationError, match="frame 2"):
            parse_scene_csv(text)

    @pytest.mark.filterwarnings("error")
    def test_file_whose_every_agent_has_one_frame_names_the_scene(self):
        """No gap anywhere in the file: the dt vote runs on empty arrays, without a warning, and the scene is refused."""
        text = HEADER + "\ns1,a,0,0.0,0,0,1,0,0.0,vehicle\ns1,b,0,0.0,5,0,1,0,0.0,vehicle\n"
        for source in (text, text.replace("\n", "\r")):  # loadtxt, then csv.reader
            with pytest.raises(ValidationError, match=r"^scene 's1': every agent has a single frame only$"):
                parse_scene_csv(source)

    def test_malformed_row_names_line(self):
        text = HEADER + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle\ns,a,1,oops,0,0,1,0,0.0,vehicle\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_scene_csv(text)

    @pytest.mark.parametrize("heading", ["-3.141592653589793", "3.2", "-7"])
    def test_heading_outside_range_names_line(self, heading):
        text = (
            HEADER
            + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle"
            + f"\ns,a,1,0.5,0,0,1,0,{heading},vehicle\n"
        )
        with pytest.raises(ValidationError, match="line 3.*heading"):
            parse_scene_csv(text)

    def test_agent_changing_kind_names_line(self):
        text = (
            HEADER
            + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle"
            + "\ns,a,1,0.5,0,0,1,0,0.0,pedestrian\n"
        )
        with pytest.raises(ValidationError, match="line 3.*kind"):
            parse_scene_csv(text)

    @pytest.mark.parametrize("first, then", [("1", "0"), ("0", "1"), ("0", ""), ("", "1")])
    def test_agent_changing_target_flag_names_line(self, first, then):
        text = (
            HEADER
            + ",target"
            + f"\ns,a,0,0.0,0,0,1,0,0.0,vehicle,{first}"
            + f"\ns,a,1,0.5,0,0,1,0,0.0,vehicle,{then}"
            + "\ns,b,0,0.0,5,0,1,0,0.0,vehicle,0"
            + "\ns,b,1,0.5,5,0,1,0,0.0,vehicle,0\n"
        )
        for source in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r")):  # loadtxt twice, then csv.reader
            with pytest.raises(ValidationError, match=f"line 3: agent 'a' changes target flag to '{then}'"):
                parse_scene_csv(source)

    @pytest.mark.parametrize(
        "frame, x, error",
        [("0" * 4301, "0", "line 2: column 'frame': not an integer"),
         ("0", "1" * (csv.field_size_limit() + 1), "line 2: bad CSV \\(field larger than field limit")],
        ids=["int-digit-limit", "csv-field-limit"],
    )
    def test_plain_values_python_refuses_are_refused(self, frame, x, error):
        """loadtxt reads both; int() and csv do not, so the file goes to the csv tokenizer, which refuses them."""
        text = HEADER + f"\ns,a,{frame},0.0,{x},0,1,0,0.0,vehicle\ns,a,1,0.5,0,0,1,0,0.0,vehicle\n"
        with pytest.raises(ParseError, match=error):
            parse_scene_csv(text)

    def test_gap_error_names_scene_agent_and_frame(self):
        text = (
            HEADER
            + "\nq,b,0,0.0,0,0,1,0,0.0,vehicle"
            + "\nq,b,1,0.5,0,0,1,0,0.0,vehicle"
            + "\nq,b,2,1.0,0,0,1,0,0.0,vehicle"
            + "\nq,b,3,1.1,0,0,1,0,0.0,vehicle\n"
        )
        with pytest.raises(ValidationError, match="scene 'q'.*'b'.*frame 3"):
            parse_scene_csv(text)

    def test_builds_no_agent_state(self, rng, monkeypatch):
        trajs = [random_trajectory(rng, agent_id=str(i), n_frames=6) for i in range(3)]
        text = scenes_to_csv([make_scene(trajs, scene_id="x")])

        def forbidden(*args, **kwargs):
            raise AssertionError("parse_scene_csv built an AgentState")

        monkeypatch.setattr(scene_module, "AgentState", forbidden)
        (parsed,) = parse_scene_csv(text)
        for traj in trajs:
            assert np.array_equal(parsed.agents[traj.agent_id].positions, traj.positions)

    def test_unknown_kind_rejected(self):
        text = HEADER + "\ns,a,0,0.0,0,0,1,0,0.0,hovercraft\n"
        with pytest.raises(ValidationError, match="kind"):
            parse_scene_csv(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_scene_csv("a,b,c\n1,2,3\n")

    def test_target_column_selects_agent(self):
        text = (
            HEADER
            + ",target"
            + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle,0"
            + "\ns,a,1,0.1,0,0,1,0,0.0,vehicle,0"
            + "\ns,b,0,0.0,5,0,1,0,0.0,vehicle,1"
            + "\ns,b,1,0.1,5,0,1,0,0.0,vehicle,1\n"
        )
        assert parse_scene_csv(text)[0].target_id == "b"

    def test_two_flagged_targets_rejected(self):
        text = (
            HEADER
            + ",target"
            + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle,1"
            + "\ns,a,1,0.1,0,0,1,0,0.0,vehicle,1"
            + "\ns,b,0,0.0,5,0,1,0,0.0,vehicle,1"
            + "\ns,b,1,0.1,5,0,1,0,0.0,vehicle,1\n"
        )
        with pytest.raises(ValidationError, match="exactly one"):
            parse_scene_csv(text)

    def test_lowest_agent_id_is_numeric_aware(self):
        rows = []
        for agent in ("10", "2"):
            for frame in range(2):
                rows.append(f"s,{agent},{frame},{frame * 0.1},0,0,1,0,0.0,vehicle")
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        assert parse_scene_csv(text)[0].target_id == "2"

    def test_three_agent_fixture_round_trip(self, rng):
        trajs = [random_trajectory(rng, agent_id=str(i), n_frames=20) for i in range(3)]
        scene = make_scene(trajs, scene_id="fixture")
        text = scenes_to_csv([scene])
        (parsed,) = parse_scene_csv(text)
        assert parsed.scene_id == "fixture"
        assert set(parsed.agents) == {"0", "1", "2"}
        assert all(len(parsed.agents[a]) == 20 for a in parsed.agents)
        assert parsed.target_id == scene.target_id
        for agent_id, traj in scene.agents.items():
            got = parsed.agents[agent_id]
            assert np.array_equal(got.positions, traj.positions)
            assert np.array_equal(got.velocities, traj.velocities)
            assert np.array_equal(got.headings, traj.headings)

    def test_mismatched_time_ranges_rejected(self):
        a = make_traj("a", [(1.0, 0.0)] * 3)
        b = make_traj("b", [(1.0, 0.0)] * 4)
        with pytest.raises(ValidationError, match="time range"):
            make_scene([a, b])

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_scene_csv("")

    @pytest.mark.parametrize("header", [HEADER, HEADER + ",target"])
    def test_header_only_gives_no_scene(self, header):
        for text in (header, header + "\n"):
            columns = parse_scene_csv(text)
            assert len(columns) == 0 and list(columns) == [] and columns.groups == []

    def test_frames_beyond_int64_order_as_integers(self):
        rows = [("a", 0.0, 0.0), ("a", 0.5, 0.5), ("b", 0.0, 3.0), ("b", 0.5, 3.5)]

        def text(base):
            lines = [f"s,{a},{base + round(2 * t)},{t},{x},0,1,0,0.0,vehicle" for a, t, x in rows[::-1]]
            return "\n".join([HEADER, *lines]) + "\n"

        (want,) = parse_scene_csv(text(0))
        (got,) = parse_scene_csv(text(10**20))  # past int64: the frames are read as Python ints
        assert list(got.agents) == list(want.agents)
        for agent_id, traj in want.agents.items():
            assert got.agents[agent_id]._stacked().tobytes() == traj._stacked().tobytes()

    def test_accepts_bytes(self):
        text = HEADER + "\ns,a,0,0.0,0,0,1,0,0.0,vehicle\ns,a,1,0.5,0.5,0,1,0,0.0,vehicle\n"
        (scene,) = parse_scene_csv(text.encode("utf-8"))
        assert scene.dt == pytest.approx(0.5)


class TestColumnPath:
    """Plain files are read by ``loadtxt`` alone: the csv tokenizer never runs."""

    @pytest.fixture(autouse=True)
    def no_csv_tokenizer(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the csv tokenizer read a plain scene CSV")

        monkeypatch.setattr(scene_module, "_csv_rows", forbidden)

    def test_golden_csv(self):
        from test_golden import golden_csv

        columns = parse_scene_csv(golden_csv())
        assert columns.ids == [f"g{s:02d}" for s in range(10)]
        assert sorted(i for g in columns.groups for i in g.index.tolist()) == list(range(10))

    def test_written_corpus_shuffled_or_not(self, rng):
        scenes = [
            make_scene([random_trajectory(rng, agent_id=str(a), n_frames=frames) for a in range(n)], scene_id=f"s{i}")
            for i, (n, frames) in enumerate([(3, 6), (1, 6), (3, 6), (12, 2), (2, 9)])
        ]
        lines = scenes_to_csv(scenes).splitlines(keepends=True)
        shuffled = lines[:1] + [lines[i] for i in rng.permutation(np.arange(1, len(lines)))]
        for text in ("".join(lines), "".join(shuffled), "".join(lines).rstrip("\n")):
            parsed = parse_scene_csv(text)
            assert [s.scene_id for s in parsed] == [s.scene_id for s in scenes]
            for got, want in zip(parsed, scenes):
                assert got.target_id == want.target_id and got.agents.keys() == want.agents.keys()
                for agent_id, traj in want.agents.items():
                    assert got.agents[agent_id]._stacked().tobytes() == traj._stacked().tobytes()

    def test_ids_and_kinds_of_unequal_widths(self, rng):
        """Each key column is read as wide as its widest cell, wherever that cell is."""
        layout = {
            "s": [("7", "other"), ("a", "vehicle")],
            "scene-wide": [("1", "vehicle"), ("agent-wider", "pedestrian")],
        }
        scenes = [
            make_scene([random_trajectory(rng, agent_id=a, n_frames=4, kind=k) for a, k in agents], scene_id=sid)
            for sid, agents in layout.items()
        ]
        lines = scenes_to_csv(scenes).splitlines(keepends=True)
        # as written, the widest cells last, and with empty target flags but one per scene
        for source in (lines, lines[:1] + lines[:0:-1], [line.replace(",0\n", ",\n") for line in lines]):
            parsed = parse_scene_csv("".join(source))
            assert [(s.scene_id, s.target_id) for s in parsed] == [(s.scene_id, s.target_id) for s in scenes]
            first_seen = list(dict.fromkeys(tuple(line.split(",")[:2]) for line in source[1:]))
            for got, want in zip(parsed, scenes):
                assert list(got.agents) == [a for s, a in first_seen if s == want.scene_id]
                for agent_id, traj in want.agents.items():
                    assert got.agents[agent_id].kind == traj.kind
                    assert got.agents[agent_id]._stacked().tobytes() == traj._stacked().tobytes()

    def test_crlf_endings(self, rng):
        def bits(scene_list):
            return [
                (s.scene_id, s.target_id, [(a, t.kind, t.dt, t._stacked().tobytes()) for a, t in s.agents.items()])
                for s in scene_list
            ]

        scenes = [
            make_scene([random_trajectory(rng, agent_id=str(a), n_frames=5) for a in range(n)], scene_id=f"s{n}")
            for n in (1, 3)
        ]
        text = scenes_to_csv(scenes)
        crlf = text.replace("\n", "\r\n")
        mixed = "".join(line.replace("\n", "\r\n") if i % 2 else line for i, line in enumerate(text.splitlines(True)))
        for source in (crlf, crlf.encode(), crlf.rstrip("\r\n"), mixed):
            assert bits(parse_scene_csv(source)) == bits(parse_scene_csv(text))

    def test_synth_output(self, tmp_path):
        from tailscope.synth import SCENARIO_KINDS, ScenarioSpec, generate

        for kind in SCENARIO_KINDS:
            scene, _ = generate(ScenarioSpec(kind=kind))
            scene_module.dump_scenes([scene], tmp_path / f"{kind}.csv")
            (parsed,) = scene_module.load_scenes(tmp_path / f"{kind}.csv")
            assert parsed.scene_id == scene.scene_id and set(parsed.agents) == set(scene.agents)

    def corpus(self, rng):
        return [
            make_scene([random_trajectory(rng, agent_id=str(a), n_frames=5) for a in range(n)], scene_id=f"s{i}")
            for i, n in enumerate((1, 3, 4, 3))
        ]

    def test_a_file_is_checked_once(self, rng, monkeypatch):
        """``_columns`` checks every run of a file in one call; the scenes built from
        its columns run no ``Trajectory`` check again."""
        text = scenes_to_csv(self.corpus(rng))
        faults, calls = scene_module._trajectory_faults, []
        monkeypatch.setattr(scene_module, "_trajectory_faults", lambda *a: calls.append(len(a[1])) or faults(*a))
        assert len(parse_scene_csv(text)) == 4
        assert calls == [11]  # one call over the 11 agents' runs

    def test_parsed_trajectories_are_read_only_views_of_their_group(self, rng):
        columns = parse_scene_csv(scenes_to_csv(self.corpus(rng)))
        group_of = {i: group for group in columns.groups for i in group.index.tolist()}
        assert not any(group.block.flags.writeable for group in columns.groups)
        for i, parsed in enumerate(columns):
            for traj in parsed.agents.values():
                for column in (traj.times, traj.positions, traj.velocities, traj.headings):
                    assert not column.flags.writeable and np.shares_memory(column, group_of[i].block)
                with pytest.raises(ValueError, match="read-only"):
                    traj.positions[0, 0] = 1.0

    def test_columns_index_like_a_list(self, rng):
        """Parsed and built columns alike: negative indexes, slices, and IndexError past either end."""
        scenes = self.corpus(rng)  # shapes (1, 5), (3, 5), (4, 5), (3, 5): three groups
        parsed = parse_scene_csv(scenes_to_csv(scenes))
        assert SceneColumns.of(parsed) is parsed
        for columns in (parsed, SceneColumns.of(scenes)):
            assert len(columns.groups) == 3 and len(columns) == 4
            assert columns[-1].scene_id == "s3" and columns[-4].scene_id == "s0"
            assert [s.scene_id for s in columns[1:]] == ["s1", "s2", "s3"]
            assert [s.scene_id for s in columns[::-2]] == ["s3", "s1"]
            assert columns[3:1] == []
            for got, want in zip(columns[-4:], scenes):
                assert got.target_id == want.target_id and list(got.agents) == list(want.agents)
                for agent_id, traj in want.agents.items():
                    assert got.agents[agent_id]._stacked().tobytes() == traj._stacked().tobytes()
            for i in (4, -5):
                with pytest.raises(IndexError):
                    columns[i]


def test_column_path_refuses_a_key_column_larger_than_the_file(rng, monkeypatch):
    """A key column holds its widest cell's bytes on every row, so an id that
    would make it larger than the file sends the file to the csv tokenizer."""
    read, tokenized = scene_module._csv_rows, []
    monkeypatch.setattr(scene_module, "_csv_rows", lambda *args: tokenized.append(1) or read(*args))
    trajs = [random_trajectory(rng, n_frames=2) for _ in range(100)]
    for width, plain in ((50, True), (1000, False)):
        scenes = [make_scene([traj], scene_id=f"s{i:02d}") for i, traj in enumerate(trajs)]
        scenes.append(make_scene([trajs[0]], scene_id="w" * width))
        text = scenes_to_csv(scenes)
        tokenized.clear()
        assert [s.scene_id for s in parse_scene_csv(text)] == [s.scene_id for s in scenes]
        assert tokenized == ([] if plain else [1])


class TestScene:
    def test_target_must_exist(self):
        traj = make_traj("a", [(1.0, 0.0)] * 3)
        with pytest.raises(ValidationError, match="target"):
            Scene(scene_id="s", agents={"a": traj}, target_id="zzz")

    def test_agent_checks_name_the_first_failing_agent_in_dict_order(self):
        a, b = make_traj("a", [(1.0, 0.0)] * 3), make_traj("b", [(1.0, 0.0)] * 3, dt=0.2)
        c = make_traj("c", [(1.0, 0.0)] * 4)
        with pytest.raises(ValidationError, match=r"^scene 's': key 'x' holds trajectory 'c'$"):
            Scene("s", {"a": a, "x": c, "b": b}, "a")
        with pytest.raises(ValidationError, match=r"^scene 's': agent 'b' dt 0.2 differs from target dt 0.1$"):
            Scene("s", {"a": a, "b": b, "c": c}, "a")
        with pytest.raises(ValidationError, match=r"^scene 's': agent 'c' does not cover the same time range"):
            Scene("s", {"a": a, "c": c, "b": b}, "a")

    def test_neighbor_ids_excludes_target(self):
        scene = make_scene([make_traj(i, [(1.0, 0.0)] * 3) for i in ("3", "1", "2")])
        assert scene.neighbor_ids() == ["1", "2"]


CHECKS = [
    (lambda: Scene("s", {}, "a"), ValidationError, "scene 's' has no agents"),
    (lambda: parse_scene_csv("x" * (csv.field_size_limit() + 1) + "\n"), ParseError,
     "line 1: bad CSV (field larger than field limit"),
]


@pytest.mark.parametrize("call, error, text", CHECKS, ids=[text for _, _, text in CHECKS])
def test_each_check_raises_its_error(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(text)
