"""Interaction metrics: analytic ITTC/RSS cases, invariances, brute force."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_rel, make_scene, make_traj, random_trajectory
from oracles import dx_oracle, dy_oracle, interactive_oracle, scene_as_plain
from tailscope import interaction, intrinsic
from tailscope.errors import ConfigurationError, ValidationError
from tailscope.interaction import (
    INTERACTIVE_FIELDS,
    InteractiveMetrics,
    RssParams,
    compute_interactive,
    global_scene_risk,
    ittc_risk,
    min_lateral_separation,
    min_longitudinal_separation,
    rss_lateral,
    rss_longitudinal,
)
from tailscope.scene import AgentState, Scene, Trajectory, wrap_angle


def head_on_scene(gap=20.0, speed=5.0, frames=2, dt=0.1):
    target = make_traj("0", [(speed, 0.0)] * frames, dt=dt, p0=(-gap / 2, 0.0))
    other = make_traj(
        "1", [(-speed, 0.0)] * frames, dt=dt, p0=(gap / 2, 0.0), headings=[math.pi] * frames
    )
    return make_scene([target, other])


class TestIttc:
    def test_head_on_pair_analytic(self):
        scene = head_on_scene(gap=20.0, speed=5.0, frames=2, dt=0.1)
        out = ittc_risk(scene)
        # frame 0: closing 10 m/s over 20 m; frame 1: over 19 m
        assert out["series"][0] == pytest.approx(0.5, abs=1e-12)
        assert out["series"][1] == pytest.approx(10.0 / 19.0, abs=1e-12)
        assert out["r_ittc"] == pytest.approx(np.mean(out["series"]), abs=1e-15)

    def test_receding_clamps_to_zero(self):
        target = make_traj("0", [(-5.0, 0.0)] * 4, headings=[math.pi] * 4)
        other = make_traj("1", [(5.0, 0.0)] * 4, p0=(20.0, 0.0))
        out = ittc_risk(make_scene([target, other]))
        assert out["r_ittc"] == 0.0
        assert np.all(out["series"] == 0.0)

    def test_no_neighbors_in_radius(self):
        target = make_traj("0", [(5.0, 0.0)] * 3)
        other = make_traj("1", [(-5.0, 0.0)] * 3, p0=(500.0, 0.0), headings=[math.pi] * 3)
        out = ittc_risk(make_scene([target, other], neighbor_radius=50.0))
        assert out["r_ittc"] == 0.0

    def test_coincident_pair_skipped_with_flag(self):
        target = make_traj("0", [(1.0, 0.0)] * 3)
        other = make_traj("1", [(2.0, 0.0)] * 3, p0=(0.001, 0.0))
        out = ittc_risk(make_scene([target, other]))
        assert "proximity_skip" in out["flags"]

    def test_shrinking_gap_increases_risk(self):
        values = [
            ittc_risk(head_on_scene(gap=g, speed=5.0, frames=2, dt=0.01))["r_ittc"]
            for g in (40.0, 30.0, 20.0, 10.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestRssLongitudinal:
    def test_dx_regression_value(self):
        params = RssParams(rho=0.5, a_max=3.0, b_min=4.0, b_max=8.0)
        assert min_longitudinal_separation(20.0, 20.0, params) == pytest.approx(
            43.15625, abs=1e-9
        )
        assert min_longitudinal_separation(20.0, 20.0, params) == pytest.approx(
            dx_oracle(20.0, 20.0, params), abs=0
        )

    def test_gap_beyond_required_gives_zero_risk(self):
        params = RssParams()
        required = min_longitudinal_separation(20.0, 20.0, params)
        target = make_traj("0", [(20.0, 0.0)] * 3, p0=(0.0, 0.0))
        other = make_traj("1", [(20.0, 0.0)] * 3, p0=(required + 60.0, 0.0))
        scene = make_scene([target, other], neighbor_radius=1e4)
        assert rss_longitudinal(scene, params)["r_lon"] == 0.0

    def test_full_deficit_risk_half(self):
        # gap 0 with alpha=beta=1 maps to 1 - (1+1)^-1 = 0.5; build a pure
        # lateral offset so the longitudinal gap projects to zero.
        params = RssParams(alpha_lon=1.0, beta_lon=1.0)
        target = make_traj("0", [(10.0, 0.0)] * 2)
        other = make_traj("1", [(10.0, 0.0)] * 2, p0=(0.0, 8.0))
        scene = make_scene([target, other])
        assert rss_longitudinal(scene, params)["r_lon"] == pytest.approx(0.5, abs=1e-12)

    def test_non_vehicle_velocity_zeroed(self):
        params = RssParams()
        ped = make_traj("1", [(20.0, 0.0)] * 2, p0=(30.0, 0.0), kind="pedestrian")
        veh = make_traj("1", [(20.0, 0.0)] * 2, p0=(30.0, 0.0), kind="vehicle")
        target = make_traj("0", [(20.0, 0.0)] * 2)
        r_ped = rss_longitudinal(make_scene([target, ped]), params)["r_lon"]
        r_veh = rss_longitudinal(make_scene([target, veh]), params)["r_lon"]
        # zeroed neighbor velocity removes the braking credit -> larger d_x -> more risk
        assert r_ped > r_veh


class TestRssLateral:
    def test_dy_oracle_case(self):
        params = RssParams(rho=0.5, a_lat_max=0.9, b_lat_min=1.2, mu_lat=0.5)
        value = min_lateral_separation(0.0, 0.0, "vehicle", params)
        assert value == pytest.approx(dy_oracle(0.0, 0.0, "vehicle", params), abs=0)
        assert value == pytest.approx(0.89375, abs=1e-12)

    def test_gap_beyond_required_gives_zero_risk(self):
        params = RssParams()
        target = make_traj("0", [(10.0, 0.0)] * 3)
        other = make_traj("1", [(10.0, 0.0)] * 3, p0=(0.0, 30.0))
        assert rss_lateral(make_scene([target, other]), params)["r_lat"] == 0.0

    def test_pedestrian_uses_its_reaction_time(self):
        slow = RssParams(rho=0.5, rho_ped=1.0)
        equal = RssParams(rho=0.5, rho_ped=0.5)
        d_ped_equal = min_lateral_separation(0.3, -0.2, "pedestrian", equal)
        # with rho_ped == rho the pedestrian form is the vehicle form minus
        # the vehicle braking term
        p = equal
        v_j_r = -0.2 - p.a_lat_max * p.rho
        d_veh = min_lateral_separation(0.3, -0.2, "vehicle", p)
        assert d_ped_equal == pytest.approx(
            p.mu_lat + (d_veh - p.mu_lat) - v_j_r**2 / (2 * p.b_lat_min), abs=1e-12
        )
        assert min_lateral_separation(0.3, -0.2, "pedestrian", slow) != d_ped_equal


class TestGlobalSceneRisk:
    def test_single_agent_zeroes(self):
        scene = make_scene([make_traj("0", [(5.0, 0.0)] * 4)])
        out = global_scene_risk(scene)
        assert out["r_mac"] == 0.0
        assert out["r_ad"] == 0.0
        assert out["r_ni"] == 0.0

    def test_three_static_neighbors_density(self):
        statics = [
            make_traj(str(i), [(0.0, 0.0)] * 3, p0=p)
            for i, p in enumerate([(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (-5.0, 0.0)])
        ]
        scene = make_scene(statics, neighbor_radius=10.0)
        out = global_scene_risk(scene)
        assert out["r_ad"] == pytest.approx(3.0 / (math.pi * 100.0), rel=1e-12)

    def test_constant_velocity_neighbors_have_zero_instability(self):
        trajs = [
            make_traj("0", [(5.0, 0.0)] * 5),
            make_traj("1", [(4.0, 1.0)] * 5, p0=(10.0, 0.0)),
            make_traj("2", [(-3.0, 2.0)] * 5, p0=(0.0, 10.0)),
        ]
        assert global_scene_risk(make_scene(trajs))["r_ni"] == 0.0

    def test_pair_symmetry_under_relabeling(self, rng):
        trajs = [random_trajectory(rng, agent_id=str(i), n_frames=6) for i in range(3)]
        scene_a = make_scene(trajs, target_id="0")
        relabeled = [
            Trajectory.from_states(
                agent_id=new, states=trajs[int(old)].states, dt=trajs[int(old)].dt
            )
            for old, new in (("0", "2"), ("1", "0"), ("2", "1"))
        ]
        scene_b = make_scene(relabeled, target_id="2")  # same physical target
        assert_rel(
            global_scene_risk(scene_a)["r_mac"], global_scene_risk(scene_b)["r_mac"], tol=1e-12
        )

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        scene = make_scene([make_traj("0", [(5.0, 0.0)] * 3), make_traj("1", [(4.0, 0.0)] * 3)])
        with pytest.raises(ValidationError):
            global_scene_risk(scene, radius=radius)


class TestFrameInvariance:
    def test_all_six_invariant_under_rigid_motion(self, rng):
        params = RssParams()
        for _ in range(5):
            trajs = [
                random_trajectory(rng, agent_id=str(i), n_frames=5, scale=8.0) for i in range(3)
            ]
            scene = make_scene(trajs, neighbor_radius=60.0)
            beta = float(rng.uniform(-math.pi, math.pi))
            shift = rng.uniform(-200, 200, size=2)
            c, s = math.cos(beta), math.sin(beta)
            moved = make_scene(
                [
                    Trajectory.from_states(
                        agent_id=t.agent_id,
                        states=tuple(
                            AgentState(
                                t=st.t,
                                x=c * st.x - s * st.y + shift[0],
                                y=s * st.x + c * st.y + shift[1],
                                vx=c * st.vx - s * st.vy,
                                vy=s * st.vx + c * st.vy,
                                heading=wrap_angle(st.heading + beta),
                                kind=st.kind,
                            )
                            for st in t.states
                        ),
                        dt=t.dt,
                    )
                    for t in trajs
                ],
                neighbor_radius=60.0,
            )
            a = compute_interactive(scene, params)
            b = compute_interactive(moved, params)
            for name in INTERACTIVE_FIELDS:
                assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9, rel=1e-9)


def _on_positions_of(traj, other, frames):
    """``traj`` with its positions replaced by ``other``'s at ``frames``."""
    states = tuple(
        replace(s, x=o.x, y=o.y) if k in frames else s
        for k, (s, o) in enumerate(zip(traj.states, other.states))
    )
    return Trajectory.from_states(agent_id=traj.agent_id, states=states, dt=traj.dt)


class TestBruteForceEquivalence:
    def test_random_small_scenes(self, rng):
        params = RssParams()
        kinds = ("vehicle", "pedestrian", "other")
        for trial in range(40):
            n_agents = int(rng.integers(1, 9))
            n_frames = int(rng.integers(2, 11))
            trajs = [
                random_trajectory(
                    rng, agent_id=str(i), n_frames=n_frames, kind=kinds[int(rng.integers(0, 3))]
                )
                for i in range(n_agents)
            ]
            coincident = n_agents >= 3 and trial % 3 == 0
            if coincident and trial % 2 == 0:
                trajs[1] = _on_positions_of(trajs[1], trajs[0], {0})  # on the target
            if coincident:
                # a neighbor pair only the all-pairs score sees
                trajs[2] = _on_positions_of(trajs[2], trajs[1], set(range(n_frames)))
            scene = make_scene(trajs, neighbor_radius=40.0)
            got = compute_interactive(scene, params)
            want = interactive_oracle(scene_as_plain(scene), "0", 40.0, params)
            for name in INTERACTIVE_FIELDS:
                assert_rel(getattr(got, name), want[name], tol=1e-12, label=name)
            assert ("proximity_skip" in got.flags) == coincident


class TestWorkDoneOnce:
    def random_scene(self, rng, n_agents=4):
        trajs = [random_trajectory(rng, agent_id=str(i), n_frames=6) for i in range(n_agents)]
        return make_scene(trajs, neighbor_radius=15.0)

    def test_compute_interactive_stacks_agents_once(self, rng, monkeypatch):
        scene = self.random_scene(rng)
        stacks = []
        geometry = interaction._geometry
        monkeypatch.setattr(interaction, "_geometry", lambda *a: stacks.append(a) or geometry(*a))
        got = compute_interactive(scene)
        assert len(stacks) == 1
        # the public per-metric functions, each stacking on its own, agree exactly
        assert got.r_ittc == ittc_risk(scene)["r_ittc"]
        assert got.r_lon == rss_longitudinal(scene)["r_lon"]
        assert got.r_lat == rss_lateral(scene)["r_lat"]
        gl = global_scene_risk(scene)
        assert (got.r_mac, got.r_ad, got.r_ni) == (gl["r_mac"], gl["r_ad"], gl["r_ni"])

    def test_score_scenes_stacks_each_group_or_chunk_once(self, rng, monkeypatch):
        """Scenes group by (agents, frames); a group, or each chunk of one, is one stack."""
        shapes = [(4, 6), (2, 6), (4, 6), (2, 6), (4, 6), (4, 5)]
        scenes = [
            make_scene([random_trajectory(rng, str(a), n_frames=frames) for a in range(n)], scene_id=f"s{i}")
            for i, (n, frames) in enumerate(shapes)
        ]
        stacks = []
        geometry = interaction._geometry
        monkeypatch.setattr(interaction, "_geometry", lambda group: stacks.append(len(group)) or geometry(group))
        rows, flags = interaction.score_scenes(scenes)
        assert stacks == [3, 2, 1]
        # a cap of two 4-agent, 6-frame scenes (6 pairs x 6 frames each) splits that group
        stacks.clear()
        monkeypatch.setattr(interaction, "PAIR_FRAMES_CAP", 2 * 6 * 6 + 1)
        chunked, _ = interaction.score_scenes(scenes)
        assert stacks == [2, 1, 2, 1]
        assert chunked.tobytes() == rows.tobytes()
        for scene, row, scene_flags in zip(scenes, rows, flags):
            intr, inter = intrinsic.compute_intrinsic(scene.target), compute_interactive(scene)
            assert row.tobytes() == np.concatenate([intr.as_vector(), inter.as_vector()]).tobytes()
            assert scene_flags == tuple(sorted(set(intr.flags) | set(inter.flags)))

    def test_score_scenes_raises_the_first_refused_scenes_error(self):
        """Per scene in input order: intrinsic errors, then the RSS check, as the per-scene calls raise."""
        # Trajectory refuses a dt that lets a rate overflow, so no valid scene overflows an
        # intrinsic metric: this trajectory's dt is set to 1e-300 after its checks.
        fast = make_traj("0", [(0.0, 0.0), (1e100, 0.0), (0.0, 0.0)])
        object.__setattr__(fast, "dt", 1e-300)
        c_v_overflows = make_scene([fast], scene_id="fast")
        near_pair = make_scene([make_traj("0", [(1.0, 0.0)] * 3), make_traj("1", [(1.0, 0.0)] * 3, p0=(5.0, 0.0))])
        params = RssParams(rho=1e200)
        with np.errstate(all="ignore"):
            with pytest.raises(ValidationError, match="c_v must be finite"):
                interaction.score_scenes([c_v_overflows, near_pair], params)
            with pytest.raises(ConfigurationError, match="longitudinal"):
                interaction.score_scenes([near_pair, c_v_overflows], params)
            with pytest.raises(ConfigurationError, match="longitudinal"):
                compute_interactive(near_pair, params)

    def test_global_risk_derives_no_neighbor_kinematics(self, rng, monkeypatch):
        def derive_kinematics(traj):
            raise AssertionError(f"derive_kinematics called for agent {traj.agent_id}")

        monkeypatch.setattr(intrinsic, "derive_kinematics", derive_kinematics)
        assert global_scene_risk(self.random_scene(rng))["r_ni"] > 0.0


class TestTypes:
    def test_params_all_positive(self):
        with pytest.raises(ConfigurationError):
            RssParams(rho=0.0)
        with pytest.raises(ConfigurationError):
            RssParams.from_jsonable({"rho": 0.5, "nope": 1.0})

    def test_params_json_round_trip(self):
        params = RssParams(rho=0.7, b_max=9.0)
        assert RssParams.from_jsonable(params.to_jsonable()) == params

    def test_metrics_range_validation(self):
        with pytest.raises(ValidationError):
            InteractiveMetrics(r_ittc=0, r_lon=1.0, r_lat=0, r_mac=0, r_ad=0, r_ni=0)
        with pytest.raises(ValidationError):
            InteractiveMetrics(r_ittc=-0.1, r_lon=0, r_lat=0, r_mac=0, r_ad=0, r_ni=0)
