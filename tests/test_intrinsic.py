"""Intrinsic metrics against closed forms and the direct-summation oracle."""

import math

import numpy as np
import pytest

from conftest import assert_rel, make_traj, random_trajectory
from oracles import intrinsic_oracle
from tailscope.intrinsic import (
    INTRINSIC_FIELDS,
    IntrinsicMetrics,
    compute_intrinsic,
    geometric_complexity,
    kinematic_dynamism,
    temporal_irregularity,
)
from tailscope.scene import AgentState, Trajectory, wrap_angle
from tailscope.synth import ScenarioSpec, generate


def circle_trajectory(radius, speed, dt, frames):
    scene, _ = generate(
        ScenarioSpec(kind="circle", frames=frames, dt=dt, speed=speed, radius=radius, seed=7)
    )
    return scene.target


class TestKinematicDynamism:
    def test_constant_velocity_all_zero(self):
        out = kinematic_dynamism(make_traj("a", [(3.0, 4.0)] * 12))
        for key in ("c_v", "c_j", "c_omega", "c_alpha", "c_vd"):
            assert out[key] == 0.0

    def test_circle_omega_and_alpha(self):
        traj = circle_trajectory(radius=10.0, speed=5.0, dt=0.1, frames=50)
        out = kinematic_dynamism(traj)
        assert out["c_omega"] == pytest.approx(0.5, abs=1e-9)
        assert out["c_alpha"] == pytest.approx(0.0, abs=1e-9)

    def test_alternating_1d_velocity(self):
        traj = make_traj("a", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], dt=1.0)
        assert kinematic_dynamism(traj)["c_v"] == pytest.approx(1.0)

    def test_two_states_flags_short(self):
        out = kinematic_dynamism(make_traj("a", [(1.0, 0.0), (2.0, 0.0)]))
        assert out["c_j"] == 0.0
        assert out["c_alpha"] == 0.0
        assert "short_trajectory" in out["flags"]
        assert out["c_v"] > 0.0


class TestGeometricComplexity:
    def test_straight_line_zero(self):
        out = geometric_complexity(make_traj("a", [(7.0, 1.0)] * 15))
        assert out["c_kappa"] == 0.0
        assert out["c_dkappa"] == 0.0

    def test_circle_curvature(self):
        traj = circle_trajectory(radius=20.0, speed=5.0, dt=0.1, frames=100)
        out = geometric_complexity(traj)
        assert out["c_kappa"] == pytest.approx(0.05, rel=0.01)
        assert out["c_dkappa"] == pytest.approx(0.0, abs=1e-9)

    def test_stationary_agent_guarded(self):
        out = geometric_complexity(make_traj("a", [(0.0, 0.0)] * 10))
        assert out["c_kappa"] == 0.0
        assert math.isfinite(out["c_dkappa"])
        assert "low_speed_frames" in out["flags"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("speed", [1e103, 1e150])
    def test_speed_whose_cube_overflows_keeps_its_curvature(self, speed):
        """|v x a| / |v|^3 with a = (0, +-10): 10 / speed^2 at both frames, with no overflow warning."""
        out = geometric_complexity(make_traj("a", [(speed, 0.0), (speed, 1.0), (speed, 0.0)]))
        assert out["c_kappa"] == pytest.approx(10.0 / speed / speed, rel=1e-12, abs=0.0)
        assert out["c_dkappa"] == 0.0


class TestTemporalIrregularity:
    def test_constant_velocity_zero(self):
        out = temporal_irregularity(make_traj("a", [(2.0, -1.0)] * 9))
        assert out["c_dgamma"] == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(out["gamma"], 0.0, atol=1e-20)

    @pytest.mark.parametrize("u", [0.5, 2.0])
    def test_alternating_velocity_closed_form(self, u):
        velocities = [((-1.0) ** k * u, 0.0) for k in range(8)]
        out = temporal_irregularity(make_traj("a", velocities, dt=1.0))
        assert out["c_dgamma"] == pytest.approx(2.0 * u * u, rel=1e-12)

    def test_impulse_matches_brute_force(self, rng):
        velocities = [(1.0, 0.0)] * 9
        velocities[4] = (6.0, 0.0)
        traj = make_traj("a", velocities, dt=0.5)
        out = temporal_irregularity(traj)
        oracle = intrinsic_oracle(
            [(s.t, s.x, s.y, s.vx, s.vy, s.heading) for s in traj.states], traj.dt
        )
        assert_rel(out["c_dgamma"], oracle["c_dgamma"])
        assert np.allclose(out["gamma"], oracle["gamma"], rtol=1e-12, atol=1e-15)

    def test_short_window_flagged(self):
        out = temporal_irregularity(make_traj("a", [(1.0, 0.0), (2.0, 0.0)]))
        assert out["c_dgamma"] == 0.0
        assert out["flags"] == ("short_trajectory",)


class TestProperties:
    def test_non_negative_and_finite(self, rng):
        for _ in range(25):
            metrics = compute_intrinsic(random_trajectory(rng, n_frames=int(rng.integers(2, 12))))
            for name in INTRINSIC_FIELDS:
                value = getattr(metrics, name)
                assert value >= 0.0 and math.isfinite(value)

    def test_rigid_motion_invariance(self, rng):
        for _ in range(10):
            traj = random_trajectory(rng, n_frames=9, scale=5.0)
            beta = float(rng.uniform(-math.pi, math.pi))
            shift = rng.uniform(-100, 100, size=2)
            c, s = math.cos(beta), math.sin(beta)
            moved = Trajectory.from_states(
                agent_id=traj.agent_id,
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
                    for st in traj.states
                ),
                dt=traj.dt,
            )
            a, b = compute_intrinsic(traj), compute_intrinsic(moved)
            for name in ("c_v", "c_j", "c_kappa", "c_dkappa", "c_dgamma"):
                assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9, rel=1e-9)

    def test_velocity_scale_response(self):
        base = [(1.0, 0.5), (2.0, -0.5), (1.5, 1.0), (0.5, 0.8), (1.2, 0.3)]
        scale = 3.0
        a = compute_intrinsic(make_traj("a", base, dt=0.5))
        b = compute_intrinsic(make_traj("a", [(scale * vx, scale * vy) for vx, vy in base], dt=0.5))
        assert b.c_v == pytest.approx(scale * a.c_v, rel=1e-12)
        assert b.c_dgamma == pytest.approx(scale**2 * a.c_dgamma, rel=1e-12)

    def test_curvature_scales_inversely_on_circles(self):
        a = compute_intrinsic(circle_trajectory(radius=20.0, speed=5.0, dt=0.05, frames=60))
        b = compute_intrinsic(circle_trajectory(radius=60.0, speed=15.0, dt=0.05, frames=60))
        assert b.c_kappa == pytest.approx(a.c_kappa / 3.0, rel=1e-3)

    def test_brute_force_equivalence_short_trajectories(self, rng):
        for _ in range(40):
            traj = random_trajectory(rng, n_frames=int(rng.integers(2, 11)))
            metrics = compute_intrinsic(traj)
            oracle = intrinsic_oracle(
                [(s.t, s.x, s.y, s.vx, s.vy, s.heading) for s in traj.states], traj.dt
            )
            for name in INTRINSIC_FIELDS:
                assert_rel(getattr(metrics, name), oracle[name], tol=1e-12, label=name)


class TestIntrinsicMetricsType:
    def test_rejects_negative(self):
        with pytest.raises(Exception):
            IntrinsicMetrics(
                c_v=-1.0, c_j=0, c_omega=0, c_alpha=0, c_vd=0, c_kappa=0, c_dkappa=0, c_dgamma=0
            )

    def test_vector_order(self):
        m = IntrinsicMetrics(
            c_v=1, c_j=2, c_omega=3, c_alpha=4, c_vd=5, c_kappa=6, c_dkappa=7, c_dgamma=8
        )
        assert m.as_vector().tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
