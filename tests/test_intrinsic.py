"""Intrinsic metrics against closed forms and the direct-summation oracle."""

import itertools
import math

import numpy as np
import pytest

from conftest import assert_rel, make_traj, random_trajectory
from oracles import intrinsic_oracle
from tailscope.intrinsic import (
    INTRINSIC_FIELDS,
    IntrinsicMetrics,
    compute_intrinsic,
    guard_flags,
    masked_mean,
    velocity_autocovariance,
)
from tailscope.scene import Trajectory, wrap_angle
from tailscope.synth import ScenarioSpec, generate


def circle_trajectory(radius, speed, dt, frames):
    scene, _ = generate(
        ScenarioSpec(kind="circle", frames=frames, dt=dt, speed=speed, radius=radius, seed=7)
    )
    return scene.target


class TestKinematicDynamism:
    def test_constant_velocity_all_zero(self):
        out = compute_intrinsic(make_traj("a", [(3.0, 4.0)] * 12))
        for key in ("c_v", "c_j", "c_omega", "c_alpha", "c_vd"):
            assert getattr(out, key) == 0.0

    def test_circle_omega_and_alpha(self):
        traj = circle_trajectory(radius=10.0, speed=5.0, dt=0.1, frames=50)
        out = compute_intrinsic(traj)
        assert out.c_omega == pytest.approx(0.5, abs=1e-9)
        assert out.c_alpha == pytest.approx(0.0, abs=1e-9)

    def test_alternating_1d_velocity(self):
        traj = make_traj("a", [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], dt=1.0)
        assert compute_intrinsic(traj).c_v == pytest.approx(1.0)

    def test_two_states_flags_short(self):
        out = compute_intrinsic(make_traj("a", [(1.0, 0.0), (2.0, 0.0)]))
        assert out.c_j == 0.0
        assert out.c_alpha == 0.0
        assert "short_trajectory" in out.flags
        assert out.c_v > 0.0


class TestGeometricComplexity:
    def test_straight_line_zero(self):
        out = compute_intrinsic(make_traj("a", [(7.0, 1.0)] * 15))
        assert out.c_kappa == 0.0
        assert out.c_dkappa == 0.0

    def test_circle_curvature(self):
        traj = circle_trajectory(radius=20.0, speed=5.0, dt=0.1, frames=100)
        out = compute_intrinsic(traj)
        assert out.c_kappa == pytest.approx(0.05, rel=0.01)
        assert out.c_dkappa == pytest.approx(0.0, abs=1e-9)

    def test_stationary_agent_guarded(self):
        out = compute_intrinsic(make_traj("a", [(0.0, 0.0)] * 10))
        assert out.c_kappa == 0.0
        assert math.isfinite(out.c_dkappa)
        assert "low_speed_frames" in out.flags

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("speed", [1e103, 1e150])
    def test_speed_whose_cube_overflows_keeps_its_curvature(self, speed):
        """|v x a| / |v|^3 with a = (0, +-10): 10 / speed^2 at both frames, with no overflow warning."""
        out = compute_intrinsic(make_traj("a", [(speed, 0.0), (speed, 1.0), (speed, 0.0)]))
        assert out.c_kappa == pytest.approx(10.0 / speed / speed, rel=1e-12, abs=0.0)
        assert out.c_dkappa == 0.0


class TestTemporalIrregularity:
    def test_constant_velocity_zero(self):
        traj = make_traj("a", [(2.0, -1.0)] * 9)
        assert compute_intrinsic(traj).c_dgamma == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(velocity_autocovariance(traj.velocities), 0.0, atol=1e-20)

    @pytest.mark.parametrize("u", [0.5, 2.0])
    def test_alternating_velocity_closed_form(self, u):
        velocities = [((-1.0) ** k * u, 0.0) for k in range(8)]
        out = compute_intrinsic(make_traj("a", velocities, dt=1.0))
        assert out.c_dgamma == pytest.approx(2.0 * u * u, rel=1e-12)

    def test_impulse_matches_brute_force(self, rng):
        velocities = [(1.0, 0.0)] * 9
        velocities[4] = (6.0, 0.0)
        traj = make_traj("a", velocities, dt=0.5)
        oracle = intrinsic_oracle(
            [(s.t, s.x, s.y, s.vx, s.vy, s.heading) for s in traj.states], traj.dt
        )
        assert_rel(compute_intrinsic(traj).c_dgamma, oracle["c_dgamma"])
        assert np.allclose(velocity_autocovariance(traj.velocities), oracle["gamma"], rtol=1e-12, atol=1e-15)

    def test_short_window_flagged(self):
        out = compute_intrinsic(make_traj("a", [(1.0, 0.0), (2.0, 0.0)]))
        assert out.c_dgamma == 0.0
        assert out.flags == ("short_trajectory",)


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
            rows = [
                (st.t, c * st.x - s * st.y + shift[0], s * st.x + c * st.y + shift[1],
                 c * st.vx - s * st.vy, s * st.vx + c * st.vy, wrap_angle(st.heading + beta))
                for st in traj.states
            ]
            moved = Trajectory.from_rows(traj.agent_id, rows, traj.kind, traj.dt)
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


class TestSharedRules:
    @pytest.mark.parametrize("seed", range(12))
    def test_masked_mean_gives_the_bits_of_np_mean_of_the_masked_list(self, seed):
        """Rows of up to 300 entries, so numpy's pairwise blocks of 8 and 128 both occur."""
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 300 if seed % 3 == 0 else 30, size=rng.integers(1, 4)).tolist())
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        mask = rng.random(shape) < rng.random()
        got = masked_mean(values, mask)
        for idx in np.ndindex(shape[:-1]):
            row = values[idx][mask[idx]]
            want = np.mean(row) if row.size else 0.0
            assert np.float64(got[idx]).tobytes() == np.float64(want).tobytes(), idx

    def test_masked_mean_broadcasts_values_against_the_mask(self):
        """One value per neighbor, (S, 1, N), against a per-frame mask, (S, T, N)."""
        rng = np.random.default_rng(5)
        values, mask = rng.normal(size=(3, 1, 40)), rng.random((3, 7, 40)) < 0.5
        got = masked_mean(values, mask)
        for s, t in np.ndindex(3, 7):
            assert got[s, t] == np.mean(values[s, 0][mask[s, t]])

    def test_masked_mean_of_an_empty_mask_is_zero(self):
        assert masked_mean(np.ones((2, 5)), np.zeros((2, 5), dtype=bool)).tolist() == [0.0, 0.0]
        assert masked_mean(np.ones((2, 0)), np.zeros((2, 0), dtype=bool)).tolist() == [0.0, 0.0]

    def test_guard_flags_are_sorted_and_take_numpy_bools(self):
        names = ("low_speed_frames", "proximity_skip", "short_trajectory")
        for hits in itertools.product((False, True), repeat=3):
            want = tuple(name for name, hit in zip(names, hits) if hit)
            assert guard_flags(*hits) == guard_flags(*map(np.bool_, hits)) == want == tuple(sorted(want))
        assert guard_flags(proximity=np.True_) == ("proximity_skip",)
        assert guard_flags(short=True, low_speed=np.True_) == ("low_speed_frames", "short_trajectory")
