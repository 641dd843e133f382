"""CLI commands: exit codes, determinism, config precedence, batch behavior."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tailscope import cli, errors
from tailscope.cli import main
from tailscope.perceiver import default_params
from tailscope.scene import CSV_COLUMNS, dump_scenes
from tailscope.synth import ScenarioSpec, generate


#: The refusal of a synth agent whose velocity at frame 0 is beyond ``MAX_MAGNITUDE``.
TOO_FAST = "trajectory '0': non-finite value, or a position or velocity beyond 1e+150, at frame 0"


def run(argv):
    return main(argv)


def write_scenes(path, specs):
    scenes = []
    for spec in specs:
        scene, _ = generate(spec)
        scenes.append(scene)
    dump_scenes(scenes, path)
    return scenes


def params_json(mutate) -> bytes:
    """Small default perceiver params as JSON, after ``mutate`` edits the document (a NaN is written as NaN)."""
    doc = default_params(hidden=3, latent=2).to_jsonable()
    mutate(doc)
    return json.dumps(doc).encode()


def forecast_line(sample_id, offset, horizon=4):
    gt = [[float(t), 0.0] for t in range(horizon)]
    mode = [[float(t) + offset, 0.0] for t in range(horizon)]
    return json.dumps({"sample_id": sample_id, "modes": [mode], "probs": [1.0], "gt": gt})


class TestMetricsCommand:
    def test_constant_scene_all_intrinsic_zero(self, tmp_path):
        csv_path = tmp_path / "scene.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=4, n_agents=1)])
        out = tmp_path / "metrics.json"
        assert run(["metrics", "--input", str(csv_path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        (record,) = payload["scenes"]
        for name in ("c_v", "c_j", "c_omega", "c_alpha", "c_vd", "c_kappa", "c_dkappa", "c_dgamma"):
            assert record["metrics"][name] == 0.0

    def test_file_whose_every_agent_has_one_frame_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text(",".join(CSV_COLUMNS) + "\ns1,a,0,0.0,0,0,1,0,0.0,vehicle\ns1,b,0,0.0,5,0,1,0,0.0,vehicle\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["metrics", "--input", str(csv_path)]) == 2
        assert capsys.readouterr().err == "error: scene 's1': every agent has a single frame only\n"

    def test_missing_input_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run(["metrics", "--input", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_batch_equals_per_scene_runs(self, tmp_path):
        specs = [
            ScenarioSpec(kind="constant", seed=s, frames=6, n_agents=2) for s in range(100)
        ]
        batch_csv = tmp_path / "batch.csv"
        scenes = write_scenes(batch_csv, specs)
        batch_out = tmp_path / "batch.json"
        assert run(["metrics", "--input", str(batch_csv), "--out", str(batch_out)]) == 0
        batch_records = {
            r["scene_id"]: r for r in json.loads(batch_out.read_text())["scenes"]
        }
        assert len(batch_records) == 100
        for scene in scenes[:7]:  # spot-check a few single-scene reruns
            single_csv = tmp_path / "single.csv"
            dump_scenes([scene], single_csv)
            single_out = tmp_path / "single.json"
            assert run(["metrics", "--input", str(single_csv), "--out", str(single_out)]) == 0
            (record,) = json.loads(single_out.read_text())["scenes"]
            assert record == batch_records[scene.scene_id]

    def test_workers_do_not_change_output(self, tmp_path):
        csv_path = tmp_path / "scenes.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s, frames=5) for s in range(6)])
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert run(["metrics", "--input", str(csv_path), "--out", str(out1)]) == 0
        assert run(
            ["metrics", "--input", str(csv_path), "--out", str(out2), "--workers", "2"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rank = ["rank", "--input", str(csv_path), "--mode", "sample", "--seed", "3"]
        assert run(rank + ["--workers", "1", "--out", str(out1)]) == 0
        assert run(rank + ["--workers", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rss_params_from_config(self, tmp_path):
        csv_path = tmp_path / "scene.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="crossing", frames=4, dt=0.1, gap=12.0)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rss_params": {"rho": 2.0}}))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["metrics", "--input", str(csv_path), "--out", str(out_a)]) == 0
        assert run(
            ["metrics", "--input", str(csv_path), "--out", str(out_b), "--config", str(config)]
        ) == 0
        r_a = json.loads(out_a.read_text())["scenes"][0]["metrics"]["r_lon"]
        r_b = json.loads(out_b.read_text())["scenes"][0]["metrics"]["r_lon"]
        assert r_b > r_a  # longer reaction time, larger required gap, more risk

    def test_rss_params_is_read_only_by_the_commands_that_take_it(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rss_params": {"nope": 1.0}}))  # a shared config's metrics key
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 0.0) + "\n")
        eval_argv = ["eval", "--input", str(jsonl), "--k", "1", "--out", str(tmp_path / "e.json")]
        assert run(eval_argv + ["--config", str(config)]) == 0
        csv_path = tmp_path / "scene.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="crossing", frames=4, dt=0.1, gap=12.0)])
        config.write_text(json.dumps({"rss_params": None}))  # null, as for every option, is not given
        assert run(["metrics", "--input", str(csv_path), "--config", str(config)]) == 0

    def test_env_var_config_fallback(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "scene.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=1, n_agents=1)])
        config = tmp_path / "config.json"
        out = tmp_path / "out.json"
        config.write_text(json.dumps({"input": str(csv_path), "out": str(out)}))
        monkeypatch.setenv("TAILSCOPE_CONFIG", str(config))
        assert run(["metrics"]) == 0
        assert out.exists()


class TestRankCommand:
    def make_batch_csv(self, tmp_path):
        csv_path = tmp_path / "scenes.csv"
        specs = [ScenarioSpec(kind="constant", seed=s, frames=6) for s in range(3)]
        specs.append(ScenarioSpec(kind="circle", seed=3, frames=6))
        specs.append(ScenarioSpec(kind="crossing", seed=4, frames=6, dt=0.1, gap=30.0))
        write_scenes(csv_path, specs)
        return csv_path

    def test_mean_mode_deterministic(self, tmp_path):
        csv_path = self.make_batch_csv(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["rank", "--input", str(csv_path), "--out", str(out1)]) == 0
        assert run(["rank", "--input", str(csv_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_mode_seed_deterministic(self, tmp_path):
        csv_path = self.make_batch_csv(tmp_path)
        out1, out2, out3 = (tmp_path / f"r{i}.json" for i in (1, 2, 3))
        base = ["rank", "--input", str(csv_path), "--mode", "sample"]
        assert run(base + ["--seed", "7", "--out", str(out1)]) == 0
        assert run(base + ["--seed", "7", "--out", str(out2)]) == 0
        assert run(base + ["--seed", "8", "--out", str(out3)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()

    def test_identical_metrics_identical_ti(self, tmp_path):
        csv_path = tmp_path / "twins.csv"
        scene_a, _ = generate(ScenarioSpec(kind="constant", seed=11, frames=6))
        scene_b, _ = generate(ScenarioSpec(kind="constant", seed=12, frames=6))
        dump_scenes([scene_a, scene_b], csv_path)
        out = tmp_path / "rank.json"
        assert run(["rank", "--input", str(csv_path), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["ranking"]
        # both scenes are constant-velocity: identical metric vectors, identical TI
        assert rows[0]["ti"] == rows[1]["ti"]

    def test_ranking_sorted_descending(self, tmp_path):
        csv_path = self.make_batch_csv(tmp_path)
        out = tmp_path / "rank.json"
        assert run(["rank", "--input", str(csv_path), "--out", str(out)]) == 0
        tis = [row["ti"] for row in json.loads(out.read_text())["ranking"]]
        assert tis == sorted(tis, reverse=True)

    def test_categories_partition_ranking(self, tmp_path):
        csv_path = self.make_batch_csv(tmp_path)
        out = tmp_path / "rank.json"
        assert run(
            ["rank", "--input", str(csv_path), "--out", str(out), "--categories", "2"]
        ) == 0
        payload = json.loads(out.read_text())
        assert {row["category"] for row in payload["ranking"]} <= {0, 1}
        assert len(payload["boundaries"]) == 1

    def test_metrics_and_rank_build_no_trajectory(self, tmp_path, monkeypatch):
        """The scene columns go from the CSV to the metrics without a Trajectory or Scene."""
        from tailscope import scene

        def forbidden(self):
            raise AssertionError(f"built {type(self).__name__}")

        csv_path = self.make_batch_csv(tmp_path)
        monkeypatch.setattr(scene.Trajectory, "__post_init__", forbidden)
        monkeypatch.setattr(scene.Scene, "__post_init__", forbidden)
        assert run(["metrics", "--input", str(csv_path), "--out", str(tmp_path / "m.json")]) == 0
        assert run(["rank", "--input", str(csv_path), "--mode", "sample", "--out", str(tmp_path / "r.json")]) == 0

    def test_kl_computed_once_per_params(self, tmp_path, monkeypatch):
        from tailscope import perceiver

        calls = []
        kl = perceiver.kl_diag_gaussian
        monkeypatch.setattr(perceiver, "kl_diag_gaussian", lambda ls: calls.append(1) or kl(ls))
        csv_path = self.make_batch_csv(tmp_path)
        assert run(["rank", "--input", str(csv_path), "--out", str(tmp_path / "rank.json")]) == 0
        assert len(calls) == 2  # one per path, not one per path and scene

    def test_saved_stats_give_the_report_fitted_on_the_batch(self, tmp_path):
        from tailscope.interaction import compute_interactive
        from tailscope.intrinsic import compute_intrinsic
        from tailscope.perceiver import DatasetStats, metrics_vector
        from tailscope.scene import load_scenes

        csv_path = self.make_batch_csv(tmp_path)
        scenes = load_scenes(csv_path)
        vectors = [metrics_vector(compute_intrinsic(s.target), compute_interactive(s)) for s in scenes]
        DatasetStats.fit(vectors).save(tmp_path / "stats.json")
        fitted, saved = tmp_path / "fitted.json", tmp_path / "saved.json"
        base = ["rank", "--input", str(csv_path), "--mode", "sample", "--categories", "2"]
        assert run(base + ["--out", str(fitted)]) == 0
        assert run(base + ["--stats", str(tmp_path / "stats.json"), "--out", str(saved)]) == 0
        assert saved.read_bytes() == fitted.read_bytes()

    def test_single_scene_without_stats_fails(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=0, frames=5)])
        assert run(["rank", "--input", str(csv_path)]) == 2

    @pytest.mark.parametrize(
        "count, flags, error",
        [
            (1, [], "normalization stats need at least 2 scenes; pass --stats for single scenes"),
            (3, ["--categories", "4"], "cannot split 3 samples into 4 categories"),
        ],
        ids=["one-scene-without-stats", "more-categories-than-scenes"],
    )
    def test_scene_count_is_checked_before_any_scoring(self, tmp_path, capsys, monkeypatch, count, flags, error):
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s, frames=5) for s in range(count)])
        monkeypatch.setattr("tailscope.interaction.score_scenes", lambda *args: pytest.fail("scored"))
        assert run(["rank", "--input", str(csv_path), *flags, "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_brake_family_ti_order_with_monotone_params(self, tmp_path):
        from tailscope.perceiver import GaussianLayer, PerceiverParams

        csv_path = tmp_path / "family.csv"
        specs = [
            ScenarioSpec(kind="brake", frames=30, dt=0.5, speed=12.0, decel=d, seed=i)
            for i, d in enumerate((1.0, 1.5, 2.0, 3.0, 4.0))
        ]
        scenes = write_scenes(csv_path, specs)
        severity_order = [s.scene_id for s in scenes]  # ascending decel

        def layer(mu_w, mu_b):
            mu_w = np.atleast_2d(np.asarray(mu_w, dtype=float))
            return GaussianLayer(
                mu_w=mu_w,
                sigma_w=np.full(mu_w.shape, 1e-3),
                mu_b=mu_b,
                sigma_b=np.full(len(mu_b), 1e-3),
            )

        pick_c_v = np.zeros((1, 8))
        pick_c_v[0, 0] = 1.0
        params = PerceiverParams(
            path_i=(layer(pick_c_v, [100.0]), layer([[1.0]], [0.0])),
            path_r=(layer(np.zeros((1, 6)), [0.0]), layer([[0.0]], [0.0])),
            w_o=np.array([1.0]),
            b_o=0.0,
        )
        params_path = tmp_path / "mono.json"
        params.save(params_path)
        out = tmp_path / "rank.json"
        assert run(
            ["rank", "--input", str(csv_path), "--params", str(params_path), "--out", str(out)]
        ) == 0
        ranked_ids = [row["scene_id"] for row in json.loads(out.read_text())["ranking"]]
        assert ranked_ids == list(reversed(severity_order))


class TestEvalCommand:
    def test_exact_forecasts_zero_errors(self, tmp_path):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text("\n".join(forecast_line(f"s{i}", 0.0) for i in range(5)) + "\n")
        out = tmp_path / "report.json"
        assert run(["eval", "--input", str(jsonl), "--k", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["min_ade"]["1"] == 0.0
        assert report["aggregate"]["miss_rate"]["1"] == 0.0
        assert report["aggregate"]["rmse"]["overall"] == 0.0

    def test_malformed_line_exits_2(self, tmp_path, capsys):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 0.0) + "\n{broken\n")
        assert run(["eval", "--input", str(jsonl), "--k", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_worst_case_strata_sizes(self, tmp_path):
        lines = [forecast_line(f"s{i:04d}", float(i) / 100.0) for i in range(1000)]
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        assert run(
            [
                "eval", "--input", str(jsonl), "--k", "1",
                "--topk", "1,2,3,4,5", "--rank-metric", "min_ade", "--rank-k", "1",
                "--out", str(out),
            ]
        ) == 0
        worst = json.loads(out.read_text())["worst_case"]
        assert [worst[f"top{p}"]["count"] for p in (1, 2, 3, 4, 5)] == [10, 20, 30, 40, 50]
        # highest offsets are the worst samples
        assert worst["top1"]["sample_ids"][0] == "s0999"

    def test_topk_without_rank_metric_exits_2(self, tmp_path, capsys):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 0.0) + "\n")
        assert run(["eval", "--input", str(jsonl), "--k", "1", "--topk", "5"]) == 2
        assert "rank_metric" in capsys.readouterr().err

    def test_empty_worst_case_stratum_exits_2(self, tmp_path, capsys):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text("".join(forecast_line(f"s{i}", 0.1 * i) + "\n" for i in range(50)))
        argv = ["eval", "--input", str(jsonl), "--k", "1", "--topk", "1e-12", "--rank-metric", "min_ade"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv + ["--rank-k", "1", "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == "error: percent 1e-12 of 50 samples selects no sample\n"

    def test_flags_beat_config(self, tmp_path):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 3.0) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": 100.0, "k": [1]}))
        out = tmp_path / "report.json"
        assert run(
            [
                "eval", "--input", str(jsonl), "--config", str(config),
                "--threshold", "2.0", "--out", str(out),
            ]
        ) == 0
        report = json.loads(out.read_text())
        assert report["config_echo"]["threshold"] == 2.0
        assert report["aggregate"]["miss_rate"]["1"] == 1.0


    @pytest.mark.parametrize(
        "key, value",
        [
            ("k", "1,5"), ("k", [1, True]), ("topk", "5"), ("threshold", "x"), ("rank_k", "x"),
            ("k", [0]), ("rank_k", 0), ("rank_metric", "bogus"),
        ],
    )
    def test_mistyped_config_option_exits_2(self, tmp_path, capsys, monkeypatch, key, value):
        def no_load(*args, **kwargs):
            raise AssertionError("forecasts loaded before the config was checked")

        monkeypatch.setattr("tailscope.evaluation.parse_forecast_jsonl", no_load)
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 0.0) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": [1], "rank_metric": "min_ade", key: value}))
        assert run(["eval", "--input", str(jsonl), "--config", str(config)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--threshold", "-1"], "miss threshold must be finite and >= 0, got -1.0"),
            (["--threshold", "inf"], "miss threshold must be finite and >= 0, got inf"),
            (["--topk", "0", "--rank-metric", "min_ade"], "percent 0.0 outside (0, 100]"),
            (["--topk", "101", "--rank-metric", "min_ade"], "percent 101.0 outside (0, 100]"),
            (["--topk", "5"], "worst-case percents given but no rank_metric; set it to 'min_ade' or 'min_fde'"),
            (["--k", ","], "need at least one k"),
        ],
        ids=["negative-threshold", "infinite-threshold", "topk-0", "topk-101", "topk-without-rank-metric", "no-k"],
    )
    def test_evaluate_options_are_checked_before_parsing(self, tmp_path, capsys, monkeypatch, flags, error):
        def no_load(*args, **kwargs):
            raise AssertionError("forecasts loaded before the options were checked")

        monkeypatch.setattr("tailscope.evaluation.parse_forecast_jsonl", no_load)
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 0.0) + "\n")
        assert run(["eval", "--input", str(jsonl), "--k", "1", *flags]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_meaningless_threshold_exits_2(self, tmp_path, capsys, threshold):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 0.0) + "\n")
        assert run(["eval", "--input", str(jsonl), "--k", "1", "--threshold", threshold]) == 2
        assert "threshold" in capsys.readouterr().err


class TestSynthCommand:
    def test_round_trips_through_metrics(self, tmp_path):
        csv_path = tmp_path / "circle.csv"
        assert run(
            ["synth", "--kind", "circle", "--frames", "50", "--dt", "0.1",
             "--radius", "20", "--speed", "5", "--out", str(csv_path)]
        ) == 0
        oracle = json.loads((tmp_path / "circle.csv.oracle.json").read_text())
        assert oracle["oracle"]["c_kappa"] == pytest.approx(0.05)
        out = tmp_path / "metrics.json"
        assert run(["metrics", "--input", str(csv_path), "--out", str(out)]) == 0
        record = json.loads(out.read_text())["scenes"][0]
        assert record["metrics"]["c_kappa"] == pytest.approx(0.05, rel=0.01)
        assert record["metrics"]["c_omega"] == pytest.approx(0.25, abs=1e-6)

    def test_invalid_radius_exits_2(self, tmp_path):
        assert run(
            ["synth", "--kind", "circle", "--radius", "0", "--out", str(tmp_path / "x.csv")]
        ) == 2

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--kind", "crossing", "--frames", "5", "--seed", "9"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "size, error",
        [
            (["--kind", "constant", "--frames", "100000000000000000"], "frames must be <= 1000000, got 100000000000000000"),
            (["--kind", "grid", "--agents", "100000000000000000", "--frames", "3"],
             "n_agents must be <= 1000000, got 100000000000000000"),
            (["--kind", "grid", "--agents", "1001", "--frames", "1000"], "n_agents * frames must be <= 1000000, got 1001000"),
        ],
        ids=["frames", "agents", "agent-frames"],
    )
    def test_size_over_the_cap_exits_2_at_once_naming_it(self, tmp_path, capsys, size, error):
        """Without the cap, numpy would refuse 1e17 frames with a MemoryError and 1e17 grid agents would loop for ever."""
        start = time.perf_counter()
        assert run(["synth", *size, "--out", str(tmp_path / "x.csv")]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_grid_beyond_the_radius_writes_no_density_oracle(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        assert run(["synth", "--kind", "grid", "--gap", "30", "--neighbor-radius", "20", "--out", str(csv_path)]) == 0
        oracle = json.loads((tmp_path / "grid.csv.oracle.json").read_text())["oracle"]
        assert sorted(oracle) == ["c_v", "r_ittc", "r_mac", "r_ni"]

    def test_missing_kind_exits_2(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path / "x.csv")]) == 2
        assert "--kind" in capsys.readouterr().err

    def test_sidecar_is_encoded_once(self, tmp_path, monkeypatch):
        """The text that checks the sidecar before the CSV is written is the text written: one encoding."""
        texts, encode = [], cli.report_text
        for module in (cli, errors):  # write_report encodes through errors.report_text
            monkeypatch.setattr(module, "report_text", lambda report: texts.append(encode(report)) or texts[-1])
        assert run(["synth", "--kind", "crossing", "--frames", "5", "--out", str(tmp_path / "x.csv")]) == 0
        sidecar = (tmp_path / "x.csv.oracle.json").read_text()
        assert texts == [sidecar] and sidecar == json.dumps(json.loads(sidecar), indent=2, sort_keys=True) + "\n"

    def test_non_finite_oracle_is_refused_naming_its_key(self, tmp_path, capsys):
        """speed * omega overflows: the report writer refuses to write Infinity."""
        argv = ["synth", "--kind", "circle", "--speed", "1e150", "--radius", "1e-150", "--out", str(tmp_path / "x.csv")]
        assert run(argv) == 2
        assert "report value at 'oracle.c_v' is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.csv.oracle.json").exists()


class TestExitCodeContract:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (["eval", "--k", "1,x"], 2, "argument --k: expected comma-separated integers"),
            (["metrics", "--input", "s.csv"], 1, "internal error: RuntimeError('boom')"),
        ],
        ids=["bad-k-list", "internal-error"],
    )
    def test_each_failure_exits_with_its_code(self, capsys, monkeypatch, argv, code, error):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("tailscope.scene.parse_scene_csv", boom)  # a bug, not a TailscopeError
        try:
            got = run(argv)
        except SystemExit as exc:  # argparse refuses a bad flag value itself
            got = exc.code
        assert got == code and error in capsys.readouterr().err

    @pytest.mark.parametrize("target", [False, True], ids=["no-target-column", "target-column"])
    @pytest.mark.parametrize("command", ["metrics", "rank", "rank-stats"])
    def test_scene_csv_without_scenes_exits_2_naming_it(self, tmp_path, capsys, command, target):
        """A header with no row is no corpus: no command writes an empty report for it."""
        csv_path, out = tmp_path / "s.csv", tmp_path / "out.json"
        csv_path.write_text(",".join(CSV_COLUMNS + ("target",) * target) + "\n")
        argv = [command.split("-")[0], "--input", str(csv_path), "--out", str(out)]
        if command == "rank-stats":
            stats = tmp_path / "stats.json"
            stats.write_text(json.dumps({"median": [0.0] * 14, "scale": [1.0] * 14}))
            argv += ["--stats", str(stats)]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {csv_path}: no scenes\n"
        assert not out.exists()

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{nope")
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=0, n_agents=1)])
        assert run(["metrics", "--input", str(csv_path), "--config", str(config)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_non_utf8_forecasts_exit_2(self, tmp_path, capsys):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_bytes((forecast_line("a", 0.0) + "\n").encode() + b'{"sample_id": "\xff"}\n')
        assert run(["eval", "--input", str(jsonl), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert str(jsonl) in err and "line 2" in err

    def test_non_utf8_scene_csv_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=0, n_agents=1)])
        csv_path.write_bytes(csv_path.read_bytes().replace(b"constant", b"const\xff", 1))
        assert run(["metrics", "--input", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert str(csv_path) in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("metrics", {"workers": "two"}),
            ("metrics", {"neighbor_radius": "x"}),
            ("rank", {"workers": "two"}),
            ("rank", {"seed": "x"}),
            ("rank", {"categories": "x"}),
            pytest.param("rank", {"memory": {"categories": 2}}, id="rank-memory-unknown-key"),
            pytest.param("rank", {"categories": 0}, id="rank-categories-zero"),
            pytest.param("rank", {"categories": -2}, id="rank-categories-negative"),
            pytest.param("rank", {"memory": {"categories": 0}}, id="rank-memory-categories-zero-unknown-key"),
            pytest.param("rank", {"memory": 5}, id="rank-memory-int-unknown-key"),
            ("rank", {"rss_params": 5}),
            pytest.param("rank", {"rss_params": {"rho": True}}, id="rank-rss_params-bool"),
            pytest.param("metrics", {"rss_params": {"b_max": "8"}}, id="metrics-rss_params-string"),
            pytest.param("metrics", {"rss_params": {"nope": 1.0}}, id="metrics-rss_params-unknown-key"),
            ("rank", {"params": 5}),
            pytest.param("rank", {"perceiver_params": 5}, id="rank-perceiver_params-unknown-key"),
            ("rank", {"stats": ["a"]}),
            ("rank", {"input": 5}),
            ("rank", {"mode": "samples"}),
            ("metrics", {"out": 5}),
            ("rank", {"neighbor_radius": True}),
            ("synth", {"frames": "x"}),
            ("synth", {"dt": "x"}),
            ("synth", {"seed": 1.5}),
            ("synth", {"n_agents": "3"}),
            ("synth", {"neighbor_radius": "x"}),
            pytest.param("rank", {"seed": -3}, id="rank-seed-negative"),
            pytest.param("synth", {"seed": -1}, id="synth-seed-negative"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(v),
    )
    def test_mistyped_config_option_exits_2(self, tmp_path, capsys, monkeypatch, command, config):
        def no_load(*args, **kwargs):
            raise AssertionError("scenes loaded before the config was checked")

        monkeypatch.setattr("tailscope.scene.parse_scene_csv", no_load)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s, frames=5) for s in range(2)])
        flags = {"out": str(tmp_path / "out")}
        flags.update({"kind": "constant"} if command == "synth" else {"input": str(csv_path)})
        argv = [command, "--config", str(config_path)]
        for name, value in flags.items():
            if name not in config:  # a flag would win over the mistyped key
                argv += [f"--{name}", value]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert repr(next(iter(config))) in err
        assert ("config has unknown key" in err) == (next(iter(config)) in ("memory", "perceiver_params"))

    @pytest.mark.parametrize(
        "flag, content, fragment",
        [
            ("--stats", b"not json", "invalid JSON"),
            ("--stats", json.dumps({"scale": [1.0] * 14}).encode(), "median"),
            ("--stats", b'{"median": [\xff]}', "UTF-8"),
            ("--params", b'{"median": [\xff]}', "UTF-8"),
            ("--params", json.dumps({"path_i": 5, "path_r": [], "w_o": [], "b_o": 0}).encode(), ""),
            ("--params", b"[]", ""),
            ("--stats", None, "cannot read"),
            ("--params", b'{"path_i": [], "path_r": [], "w_o": [], "b_o": 0}', ""),
            ("--params", params_json(lambda d: d.update(w_o=[d["w_o"]])), "w_o must be a vector, got shape (1, 2)"),
            ("--params", params_json(lambda d: d["path_i"][0]["mu_W"][0].__setitem__(0, math.nan)),
             "perceiver params key 'path_i': layer key 'mu_W' is malformed: array must not contain infs or NaNs"),
            ("--params", params_json(lambda d: d["path_r"][1].update(mu_W=[[0.1] * 4] * 2, sigma_W=[[0.1] * 4] * 2)),
             "path_r: layer input 4 != previous output 3"),
            ("--stats", json.dumps({"median": [0.0] * 14, "scale": [1.0] * 13 + [0.0]}).encode(),
             "scales must be strictly positive and finite"),
            ("--stats", b'{"median": [1' + b"0" * 5000 + b'], "scale": [1.0]}', "invalid JSON (Exceeds the limit"),
            ("--config", b'{"seed": 1' + b"0" * 5000 + b"}", "invalid JSON (Exceeds the limit"),
            ("--config", b'{"k": ' + b"[" * 50000 + b"]" * 50000 + b"}", "invalid JSON (maximum recursion depth"),
            ("--stats", json.dumps({"median": [math.nan] * 14, "scale": [1.0] * 14}).encode(),
             "stats key 'median' is malformed: array must not contain infs or NaNs"),
            ("--params", params_json(lambda d: d.update(w_o=[math.inf, 0.0])),
             "perceiver params key 'w_o' is malformed: array must not contain infs or NaNs"),
            ("--params", params_json(lambda d: d.update(lambda_tmp=2.0)),
             "perceiver params has unknown key 'lambda_tmp'"),
            ("--stats", json.dumps({"median": ["0"] + [0.0] * 13, "scale": [1.0] * 14}).encode(),
             "stats key 'median' is malformed: expected arrays of numbers, found str"),
            ("--stats", json.dumps({"median": [False] + [0.0] * 13, "scale": [1.0] * 14}).encode(),
             "stats key 'median' is malformed: expected arrays of numbers, found bool"),
            ("--params", params_json(lambda d: d.update(b_o="0.0")),
             "perceiver params key 'b_o' is malformed: expected a number, got '0.0'"),
            ("--params", params_json(lambda d: d.update(lambda_temp=True)),
             "perceiver params key 'lambda_temp' is malformed: expected a number, got True"),
            ("--params", params_json(lambda d: d["path_i"][0].update(mu_W=[[0.0] * 5] * 3, sigma_W=[[1.0] * 5] * 3)),
             ": first layers take 5 and 6 inputs, not the 8 intrinsic and 6 interactive metrics"),
        ],
        ids=[
            "stats-not-json", "stats-no-median", "stats-not-utf8", "params-not-utf8",
            "params-path_i-int", "params-not-object", "stats-missing-file", "params-no-layers",
            "params-w_o-2d", "params-nan-weight", "params-layer-width", "stats-zero-scale",
            "stats-5000-digits", "config-5000-digits", "config-deep-nesting", "stats-nan-median",
            "params-inf-w_o", "params-misspelled-key", "stats-string-median", "stats-bool-median",
            "params-string-b_o", "params-bool-lambda_temp", "params-input-width",
        ],
    )
    def test_bad_rank_sidecar_exits_2(self, tmp_path, capsys, monkeypatch, flag, content, fragment):
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s, frames=5) for s in range(2)])

        def no_load(*args, **kwargs):
            raise AssertionError("scenes loaded before the sidecar was read")

        monkeypatch.setattr("tailscope.scene.parse_scene_csv", no_load)
        sidecar = tmp_path / "sidecar.json"
        if content is not None:
            sidecar.write_bytes(content)
        assert run(["rank", "--input", str(csv_path), flag, str(sidecar)]) == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err and fragment in err

    @pytest.mark.parametrize("path", ["path_i", "path_r"])
    def test_params_whose_kl_overflows_exit_2_naming_file_and_path(self, tmp_path, path):
        """Run in a fresh interpreter, where numpy's warnings reach stderr as they do for a user."""
        params = tmp_path / "params.json"

        def scale(doc):
            doc[path][0]["mu_W"] = [[w * 1e300 for w in row] for row in doc[path][0]["mu_W"]]

        params.write_bytes(params_json(scale))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "tailscope.cli", "rank", "--params", str(params)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {params}: {path}: KL divergence overflows to inf\n"

    @pytest.mark.parametrize("hidden, latent, ti", [(8, 4, "inf"), (32, 16, "nan")])
    def test_params_whose_tail_index_overflows_exit_2_naming_file_and_scene(
        self, tmp_path, capsys, hidden, latent, ti
    ):
        """Both KLs stay finite, but the readout overflows to an infinity or to inf - inf."""
        doc = default_params(hidden=hidden, latent=latent).to_jsonable()
        doc["w_o"] = [w * 1e300 for w in doc["w_o"]]
        doc["path_i"][0]["mu_W"] = [[w * 1e140 for w in row] for row in doc["path_i"][0]["mu_W"]]
        params, stats, scenes = tmp_path / "params.json", tmp_path / "stats.json", tmp_path / "one.csv"
        params.write_text(json.dumps(doc))
        stats.write_text(json.dumps({"median": [-1.0] * 14, "scale": [1.0] * 14}))
        write_scenes(scenes, [ScenarioSpec(kind="crossing")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["rank", "--params", str(params), "--stats", str(stats), "--input", str(scenes)]) == 2
        error = f"error: {params}: scene 'crossing-0': TI must be finite and >= 0, got {ti}\n"
        assert capsys.readouterr() == ("", error)

    @pytest.mark.parametrize("command", ["rank", "synth"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("tailscope.scene.parse_scene_csv", lambda *a, **k: pytest.fail("loaded"))
        argv = [command, "--seed", "-3", "--out", str(tmp_path / "out")]
        argv += ["--input", str(tmp_path)] if command == "rank" else ["--kind", "constant"]
        assert run(argv) == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "rank", "eval", "synth"])
    def test_unwritable_output_exits_2_naming_path(self, tmp_path, capsys, command):
        out = tmp_path / "missing-dir" / "x.json"
        if command == "synth":
            argv = ["synth", "--kind", "constant"]
        elif command == "eval":
            jsonl = tmp_path / "f.jsonl"
            jsonl.write_text(forecast_line("a", 0.0) + "\n")
            argv = ["eval", "--input", str(jsonl), "--k", "1"]
        else:
            csv_path = tmp_path / "s.csv"
            write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s) for s in range(2)])
            argv = [command, "--input", str(csv_path)]
        assert run(argv + ["--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config, names",
        [
            (["synth", "--kind", "circle", "--dt", "1e308"], {}, ()),
            (["synth", "--kind", "brake", "--speed", "1e160", "--decel", "1", "--dt", "1e160"], {}, ("speed", "decel", "dt")),
            (["synth", "--kind", "grid", "--neighbor-radius", "1e300"], {}, ()),
            (["metrics", "--neighbor-radius", "1e300"], {}, ()),
            (["metrics"], {"rss_params": {"rho": 1e200}}, ()),
            (["synth", "--kind", "brake", "--speed", "1e300", "--decel", "1e-300", "--dt", "1"], {}, ("speed", "decel")),
            (["synth", "--kind", "constant", "--dt", "1e100"], {}, ("dt",)),
            (["synth", "--kind", "brake", "--dt", "1e100"], {}, ("dt",)),
            (["eval", "--k", "1", "--topk", "50", "--rank-metric", "min_ade", "--rank-k", "1"], {}, ("'b'", "1e+150")),
            # the trajectory check comes before crossing's collision check; a position that overflows gives no warning
            (["synth", "--kind", "crossing", "--speed", "1e200"], {}, (f"error: {TOO_FAST}\n",)),
            (["synth", "--kind", "constant", "--speed", "1e308"], {}, (f"error: {TOO_FAST}\n",)),
        ],
        ids=[
            "circle-dt", "brake-stop-time", "synth-radius", "metrics-radius", "rss-rho",
            "brake-stop-time-overflow", "constant-dt-spacing", "brake-dt-spacing", "eval-coordinates",
            "crossing-speed-before-collision", "constant-speed-overflow",
        ],
    )
    def test_huge_numbers_do_not_overflow_to_exit_1(self, tmp_path, capsys, argv, config, names):
        """Exit 0 or 2 with no numpy warning; where the input is refused, the error names ``names``."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = argv + ["--config", str(config_path), "--out", str(tmp_path / "out")]
        if argv[0] == "metrics":
            csv_path = tmp_path / "s.csv"
            write_scenes(csv_path, [ScenarioSpec(kind="crossing", seed=s) for s in range(2)])
            argv += ["--input", str(csv_path)]
        elif argv[0] == "eval":
            jsonl = tmp_path / "f.jsonl"
            huge = {"sample_id": "b", "modes": [[[1e308, 1e308]] * 4], "probs": [1.0], "gt": [[-1e308, -1e308]] * 4}
            jsonl.write_text(forecast_line("a", 0.0) + "\n" + json.dumps(huge) + "\n")
            argv += ["--input", str(jsonl)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a numpy warning becomes exit 1
            rc = run(argv)
        assert rc in (0, 2)
        if names:
            err = capsys.readouterr().err
            assert rc == 2 and all(name in err for name in names), err

    def test_unknown_config_key_exits_2_naming_it(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=0, n_agents=1)])
        config = tmp_path / "config.json"
        argv = ["metrics", "--input", str(csv_path), "--out", str(tmp_path / "o.json")]
        config.write_text(json.dumps({"neighbour_radius": 5}))
        assert run(argv + ["--config", str(config)]) == 2
        assert "'neighbour_radius'" in capsys.readouterr().err
        config.write_text(json.dumps({"categories": 3}))  # a rank key: the config may be shared
        assert run(argv + ["--config", str(config)]) == 0

    @pytest.mark.parametrize(
        "config, error",
        [
            ([1, 2], "{path}: config must be a JSON object, got list"),
            ({"rss_params": {"nope": 1.0}}, "{path}: option 'rss_params' has unknown key 'nope'"),
            ({"rss_params": {"rho": True}}, "{path}: option 'rss_params' key 'rho' is malformed: expected a number, got True"),
            ({"rss_params": {"rho": -1.0}}, "{path}: RssParams.rho must be > 0, got -1.0"),
            ({"rss_params": [1]}, "{path}: option 'rss_params' must be a JSON object, got list"),
        ],
        ids=["not-object", "rss_params-unknown-key", "rss_params-bool", "rss_params-negative", "rss_params-list"],
    )
    def test_config_error_names_its_type_or_key(self, tmp_path, capsys, config, error):
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=0, n_agents=1)])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run(["metrics", "--input", str(csv_path), "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error.format(path=path)}\n"

    @pytest.mark.parametrize(
        "command, config, error",
        [
            ("rank", {"seed": "x"}, "option 'seed': expected integer >= 0, got 'x'"),
            ("metrics", {"neighbor_radius": "x"}, "option 'neighbor_radius': expected number, got 'x'"),
            ("rank", {"categories": 2.5}, "option 'categories': expected integer >= 1, got 2.5"),
            ("rank", {"memory": {"categories": 2}}, "config has unknown key 'memory'"),
            ("rank", {"perceiver_params": "p.json"}, "config has unknown key 'perceiver_params'"),
        ],
        ids=["seed", "neighbor_radius", "categories", "memory-unknown-key", "perceiver_params-unknown-key"],
    )
    def test_mistyped_config_value_names_its_file(self, tmp_path, capsys, command, config, error):
        """A config value's error names the config file, as an unknown key's does; a flag's names none."""
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s, frames=5) for s in range(2)])
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(config))
        assert run([command, "--input", str(csv_path), "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {error}\n"
        assert run(["rank", "--input", str(csv_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: option 'seed': expected integer >= 0, got -1\n"

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"k": [1], "note": "\xff"}')
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a", 0.0) + "\n")
        assert run(["eval", "--input", str(jsonl), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "UTF-8" in err

    def test_stats_flags_must_be_a_list_of_strings(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s, frames=5) for s in range(2)])
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"median": [0.0] * 14, "scale": [1.0] * 14, "flags": "abc"}))
        assert run(["rank", "--input", str(csv_path), "--stats", str(stats)]) == 2
        err = capsys.readouterr().err
        assert "'flags'" in err and str(stats) in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, name, config",
        [
            (["synth", "--kind", "constant", "--speed", "nan"], "speed", None),
            (["synth", "--kind", "brake", "--decel", "inf"], "decel", None),
            (["synth", "--kind", "grid", "--gap", "1e-300", "--neighbor-radius", "1e-200"], "neighbor_radius", None),
            (["metrics", "--neighbor-radius", "1e-200"], "neighbor_radius", None),
            (["metrics", "--neighbor-radius", "1e160"], "neighbor_radius", None),
            (["synth", "--kind", "grid", "--neighbor-radius", "1e300"], "neighbor_radius", None),
            (["metrics"], "rss_params", {"rss_params": {"rho": 1e200}}),
            # the spec's density check counts 1 agent; crossing's scene has 2, and their density overflows
            (["synth", "--kind", "crossing", "--agents", "1", "--neighbor-radius", "2.3e-154"], "neighbor_radius", None),
        ],
        ids=[
            "synth-speed-nan", "synth-decel-inf", "synth-radius-vanishing", "metrics-radius-vanishing",
            "metrics-radius-huge", "synth-radius-huge", "metrics-rss-rho-huge", "crossing-radius-two-agents",
        ],
    )
    def test_non_finite_or_vanishing_number_exits_2_naming_it(self, tmp_path, capsys, argv, name, config):
        if argv[0] == "metrics":
            csv_path = tmp_path / "s.csv"
            write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=s, frames=5) for s in range(2)])
            argv = argv + ["--input", str(csv_path)]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "config.json")]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {name} must be" in err and "Warning" not in err

    def test_inner_line_breaks_stay_inside_their_line(self, tmp_path):
        jsonl = tmp_path / "f.jsonl"
        jsonl.write_text(forecast_line("a\u2028b", 0.0).replace("\\u2028", "\u2028") + "\n", encoding="utf-8")
        out = tmp_path / "out.json"
        assert run(["eval", "--input", str(jsonl), "--k", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["per_sample"][0]["sample_id"] == "a\u2028b"

        scene, _ = generate(ScenarioSpec(kind="constant", seed=0, n_agents=2))
        agents = {f"{a}\x0cx": replace(t, agent_id=f"{a}\x0cx") for a, t in scene.agents.items()}
        csv_path = tmp_path / "s.csv"
        dump_scenes([replace(scene, agents=agents, target_id="0\x0cx")], csv_path)
        assert run(["metrics", "--input", str(csv_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["scenes"][0]["scene_id"] == scene.scene_id

    @pytest.mark.parametrize(
        "field, value, error",
        [
            (3, "nan", "line 3: column 't': non-finite value 'nan'"),
            (1, " ", "line 3: scene_id and agent_id must be non-empty"),
            (2, "1.5", "line 3: column 'frame': not an integer: '1.5'"),
            (None, None, None),
            (4, "1e200", "scene 'constant-0': trajectory '0': non-finite value, or a position or velocity "
             "beyond 1e+150, at frame 1"),
        ],
        ids=["nan", "empty-agent-id", "fractional-frame", "blank-line-skipped", "huge-x"],
    )
    def test_scene_csv_row_check(self, tmp_path, capsys, field, value, error):
        csv_path = tmp_path / "s.csv"
        write_scenes(csv_path, [ScenarioSpec(kind="constant", seed=0, n_agents=2, frames=4)])
        lines = csv_path.read_text().splitlines()
        if field is None:
            lines.insert(2, "")
        else:
            cells = lines[2].split(",")
            cells[field] = value
            lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        rc = run(["metrics", "--input", str(csv_path), "--out", str(tmp_path / "out.json")])
        assert (rc, capsys.readouterr().err) == ((0, "") if error is None else (2, f"error: {error}\n"))

    @pytest.mark.parametrize(
        "second, error",
        [
            ({"modes": [[0.0, 0.0]] * 4}, "line 2: sample 'b': modes must be (K, T, 2), got (4, 2)"),
            ({"modes": [[[0.0, 0.0]] * 3 + [[math.nan, 0.0]]]}, "line 2: sample 'b': non-finite values"),
            (None, "{path}: no forecast samples"),
            (forecast_line("b", 0.0).replace("[[[0.0", "[[[1" + "0" * 5000, 1),
             "line 2: invalid JSON (Exceeds the limit (4300 digits) for integer string conversion: value has 5001 "
             "digits; use sys.set_int_max_str_digits() to increase the limit)"),
            ('{"sample_id": "b", "modes": ' + "[" * 50000 + "]" * 50000 + ', "probs": [1.0], "gt": [[0.0, 0.0]]}',
             "line 2: invalid JSON (maximum recursion depth exceeded while decoding a JSON array from a unicode "
             "string)"),
        ],
        ids=["modes-2d", "nan", "empty-file", "5000-digits", "deep-nesting"],
    )
    def test_forecast_jsonl_check(self, tmp_path, capsys, second, error):
        """``second``: the second line's changes to the first's keys, or the whole line."""
        jsonl = tmp_path / "f.jsonl"
        if second is None:
            jsonl.write_text("")
        else:
            if not isinstance(second, str):
                second = json.dumps({**json.loads(forecast_line("b", 0.0)), **second})
            jsonl.write_text(forecast_line("a", 0.0) + "\n" + second + "\n")
        assert run(["eval", "--input", str(jsonl), "--k", "1", "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == f"error: {error.format(path=jsonl)}\n"


def test_readme_tables_every_option():
    """README's option table has one row per ``cli.OPTIONS`` entry, with the same columns."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for key, opt in cli.OPTIONS.items():
        flag = "" if opt.flag is None else f"`{opt.flag or '--' + key.replace('_', '-')}`"
        minimum = "" if opt.minimum is None else str(opt.minimum)
        kind = cli._describe(opt._replace(minimum=None))
        row = f"| `{key}` | {opt.commands.replace(' ', ', ')} | {kind} | {minimum} | {flag} |"
        assert row in readme, row
    keys = [line.split("`")[1] for line in readme.splitlines() if line.startswith("| `")]
    assert keys == list(cli.OPTIONS)  # and no row for a removed option
