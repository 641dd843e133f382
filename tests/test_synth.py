"""Synthetic scenario generation: determinism, oracle coherence, monotone families."""

import math

import numpy as np
import pytest

from tailscope import scene as scene_module, synth
from tailscope.errors import UsageError
from tailscope.interaction import compute_interactive, ittc_risk
from tailscope.intrinsic import compute_intrinsic
from tailscope.scene import parse_scene_csv, scenes_to_csv
from tailscope.synth import ScenarioSpec, generate


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            ScenarioSpec(kind="teleport")

    def test_invalid_radius(self):
        with pytest.raises(UsageError):
            ScenarioSpec(kind="circle", radius=0.0)

    def test_invalid_frames(self):
        with pytest.raises(UsageError):
            ScenarioSpec(kind="constant", frames=1)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["constant", "circle", "brake", "crossing", "grid"])
    def test_same_spec_same_scene(self, kind):
        spec = ScenarioSpec(kind=kind, frames=10, seed=5)
        a, oracle_a = generate(spec)
        b, oracle_b = generate(spec)
        assert scenes_to_csv([a]) == scenes_to_csv([b])
        assert oracle_a == oracle_b

    def test_different_seed_differs(self):
        a, _ = generate(ScenarioSpec(kind="constant", seed=1))
        b, _ = generate(ScenarioSpec(kind="constant", seed=2))
        assert scenes_to_csv([a]) != scenes_to_csv([b])


class TestOracleCoherence:
    def test_constant_zeros_exactly(self):
        scene, oracle = generate(ScenarioSpec(kind="constant", frames=20, speed=5.0, seed=3))
        metrics = compute_intrinsic(scene.target)
        for name in ("c_v", "c_j", "c_omega", "c_alpha", "c_vd", "c_kappa", "c_dkappa", "c_dgamma"):
            assert abs(getattr(metrics, name) - oracle[name]) < 1e-9

    def test_circle_closed_forms(self):
        scene, oracle = generate(
            ScenarioSpec(kind="circle", frames=100, dt=0.1, speed=5.0, radius=20.0, seed=1)
        )
        metrics = compute_intrinsic(scene.target)
        assert metrics.c_kappa == pytest.approx(oracle["c_kappa"], rel=0.01)
        assert metrics.c_omega == pytest.approx(oracle["c_omega"], abs=1e-6)
        assert metrics.c_alpha == pytest.approx(0.0, abs=1e-6)
        assert metrics.c_dkappa == pytest.approx(0.0, abs=1e-9)
        assert metrics.c_v == pytest.approx(oracle["c_v"], rel=0.01)

    def test_crossing_ittc_series(self):
        spec = ScenarioSpec(kind="crossing", frames=5, dt=0.1, speed=5.0, gap=20.0)
        scene, oracle = generate(spec)
        assert oracle["ittc_frame0"] == pytest.approx(0.5, abs=1e-15)
        out = ittc_risk(scene)
        assert np.allclose(out["series"], oracle["ittc_series"], rtol=1e-12)

    def test_grid_density_and_statics(self):
        spec = ScenarioSpec(kind="grid", frames=4, n_agents=4, gap=5.0, neighbor_radius=10.0)
        scene, oracle = generate(spec)
        inter = compute_interactive(scene)
        assert inter.r_ad == pytest.approx(oracle["r_ad"], rel=1e-12)
        assert inter.r_ad == pytest.approx(3.0 / (math.pi * 100.0), rel=1e-12)
        assert inter.r_mac == oracle["r_mac"] == 0.0
        assert inter.r_ittc == 0.0
        assert inter.r_ni == 0.0

    def test_brake_stops_inside_window(self):
        spec = ScenarioSpec(kind="brake", frames=30, dt=0.5, speed=12.0, decel=2.0)
        scene, oracle = generate(spec)
        assert oracle["stop_time"] == pytest.approx(6.0)
        speeds = np.linalg.norm(scene.target.velocities, axis=1)
        assert speeds[0] == 12.0
        assert speeds[-1] == 0.0
        assert np.all(np.diff(speeds) <= 1e-12)

    def test_crossing_collision_window_rejected(self):
        with pytest.raises(UsageError, match="collide"):
            generate(ScenarioSpec(kind="crossing", frames=50, dt=0.1, speed=5.0, gap=20.0))


class TestMonotoneFamilies:
    def test_braking_severity_increases_dynamism(self):
        # decels chosen so every stop time lands on the sample grid, keeping
        # the jerk impulse whole (see _generate_brake)
        c_vs, c_js = [], []
        for decel in (1.0, 1.5, 2.0, 3.0, 4.0):
            scene, _ = generate(
                ScenarioSpec(kind="brake", frames=30, dt=0.5, speed=12.0, decel=decel)
            )
            metrics = compute_intrinsic(scene.target)
            c_vs.append(metrics.c_v)
            c_js.append(metrics.c_j)
        assert all(a < b for a, b in zip(c_vs, c_vs[1:]))
        assert all(a < b for a, b in zip(c_js, c_js[1:]))

    def test_shrinking_gap_increases_ittc(self):
        values = []
        for gap in (40.0, 30.0, 20.0, 10.0):
            scene, _ = generate(
                ScenarioSpec(kind="crossing", frames=5, dt=0.1, speed=5.0, gap=gap)
            )
            values.append(ittc_risk(scene)["r_ittc"])
        assert all(a < b for a, b in zip(values, values[1:]))


def test_a_scene_is_checked_once(monkeypatch):
    """``generate`` checks every agent of a scene in one ``_trajectory_faults`` call and
    builds no checked ``Trajectory`` or ``Scene``: the scene views its group's block."""
    def forbidden(self):
        raise AssertionError(f"built {type(self).__name__}")

    faults, calls = synth._trajectory_faults, []
    monkeypatch.setattr(synth, "_trajectory_faults", lambda *args: calls.append(len(args[1])) or faults(*args))
    monkeypatch.setattr(scene_module.Trajectory, "__post_init__", forbidden)
    monkeypatch.setattr(scene_module.Scene, "__post_init__", forbidden)
    scene, _ = generate(ScenarioSpec(kind="grid", n_agents=7))
    assert calls == [7]
    assert list(scene.agents) == [str(a) for a in range(7)]
    assert not any(traj.positions.flags.writeable for traj in scene.agents.values())


class TestCsvRoundTrip:
    def test_circle_survives_parse(self):
        scene, _ = generate(ScenarioSpec(kind="circle", frames=25, dt=0.1, seed=9))
        (parsed,) = parse_scene_csv(scenes_to_csv([scene]))
        assert parsed.target_id == scene.target_id
        original = scene.target
        got = parsed.agents[parsed.target_id]
        assert np.allclose(got.positions, original.positions, atol=1e-9)
        assert np.allclose(got.velocities, original.velocities, atol=1e-9)
        assert np.allclose(got.headings, original.headings, atol=1e-9)


CHECKS = [
    (lambda: ScenarioSpec(kind="brake", decel=0.0), "decel must be > 0, got 0.0"),
    (lambda: ScenarioSpec(kind="crossing", gap=-1.0), "gap must be > 0, got -1.0"),
    (lambda: ScenarioSpec(kind="grid", gap=0.0), "gap must be > 0, got 0.0"),
    (lambda: generate(ScenarioSpec(kind="circle", speed=1e300, radius=1e-300)),
     "circle: the heading change speed / radius * (frames - 1) * dt overflows"),
    # One frame over the cap is refused before any allocation; tests/test_cli.py runs the other sizes.
    (lambda: ScenarioSpec(kind="circle", frames=1_000_001), "frames must be <= 1000000, got 1000001"),
]


@pytest.mark.parametrize("call, text", CHECKS, ids=[text for _, text in CHECKS])
def test_each_check_raises_its_error(call, text):
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == text
