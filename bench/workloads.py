"""The four benchmark workloads.

Each workload generates its seeded corpus (never timed), names the program
run that is one timed pass, replays that pass in-process through the
package's public functions for the traced run, and checks outputs against
independent references. Checks return a list of failure messages.

| workload         | pass                                   | stresses                              |
|------------------|----------------------------------------|---------------------------------------|
| metrics-dense    | ``tailscope metrics --workers 1``       | per-frame pair geometry, O(T N^2)     |
| rank-short       | ``tailscope rank --mode sample ...``   | per-scene fixed costs, process pool   |
| eval-forecasts   | ``tailscope eval --k 1,5,6 ...``       | JSONL parse and ``evaluate``          |
| memory-adapt     | ``bench/memloop.py`` batch loop        | per-sample memory loop in Python      |
"""

from __future__ import annotations

import json
import math
import pickle
import random
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from tailscope import evaluation, interaction, intrinsic, memory, perceiver, scene
from tailscope.interaction import INTERACTIVE_FIELDS
from tailscope.intrinsic import INTRINSIC_FIELDS

import corpus
import memloop
import oracles

RADIUS = 50.0
REL_TOL = 1e-9
#: Finite-difference gradients agree with the analytic one only to FD precision.
FD_TOL = 1e-5

SIZES = {
    "full": {
        "metrics-dense": {"scenes": 4, "agents": 32, "frames": 91},
        "rank-short": {"scenes": 300, "agents": 3, "frames": 20},
        "eval-forecasts": {"samples": 3000, "modes": 6, "horizon": 30},
        "memory-adapt": {"batches": 40, "batch": 512, "dim": 64, "categories": 5},
    },
    "smoke": {
        "metrics-dense": {"scenes": 3, "agents": 5, "frames": 12},
        "rank-short": {"scenes": 12, "agents": 3, "frames": 8},
        "eval-forecasts": {"samples": 40, "modes": 6, "horizon": 30},
        "memory-adapt": {"batches": 3, "batch": 16, "dim": 8, "categories": 5},
    },
}


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return a == b or abs(a - b) <= max(tol * max(abs(a), abs(b)), 1e-30)


def _rows(scenes) -> int:
    return sum(len(traj) for s in scenes for traj in s.agents.values())


class Workload:
    """Common shape; subclasses fill in the corpus, the pass and the checks."""

    name = ""
    cli = True

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir

    def pass_argv(self, out: Path, **kw) -> list[str]:
        """Interpreter arguments of one pass that writes its report to ``out``."""
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        """Interpreter arguments that stop once the first input could be processed."""
        return ["-c", "import tailscope.cli"]

    def trace_targets(self):
        raise NotImplementedError

    def replay(self, tracer=None) -> tuple[dict, object]:
        """One in-process pass; returns (exact counts, result compared with the CLI report)."""
        raise NotImplementedError

    def check_report(self, report: bytes) -> list[str]:
        raise NotImplementedError

    def check_replay(self, result, report: bytes) -> list[str]:
        raise NotImplementedError

    def output_digest(self, report: bytes) -> str:
        """What must repeat exactly across passes."""
        return corpus.digest(report)


# -- scene workloads ---------------------------------------------------------


class _SceneWorkload(Workload):
    def prepare(self) -> None:
        s = self.size
        self.corpus = corpus.scene_corpus(self.seed, s["scenes"], s["agents"], s["frames"], RADIUS)
        self.input = self.workdir / "scenes.csv"
        self.input.write_bytes(self.corpus.csv)
        self.digest = corpus.digest(self.corpus.csv)
        self.items = s["scenes"]
        pos = self.corpus.pos
        d = np.hypot(pos[:, 1:, :, 0] - pos[:, :1, :, 0], pos[:, 1:, :, 1] - pos[:, :1, :, 1])
        n = s["agents"]
        self.counts = {
            "scene.rows": int(pos.shape[0] * pos.shape[1] * pos.shape[2]),
            "interaction.pair_frames": int((d <= RADIUS).sum()),
            "interaction.all_pair_frames": int(s["scenes"] * s["frames"] * n * (n - 1) // 2),
        }

    def _oracle_scenes(self, k: int) -> list[int]:
        return sorted(random.Random(self.seed).sample(range(self.corpus.n_scenes), k))

    def _oracle_metrics(self, s: int) -> dict:
        plain = self.corpus.plain_agents(s)
        want = oracles.intrinsic_oracle(plain["0"]["states"], corpus.DT)
        want.update(oracles.interactive_oracle(plain, "0", RADIUS, interaction.RssParams()))
        return want

    def trace_targets(self):
        return [
            (scene, "load_scenes", "scene.load_scenes"),
            (intrinsic, "compute_intrinsic", "intrinsic.compute_intrinsic"),
            (interaction, "compute_interactive", "interaction.compute_interactive"),
            (interaction, "ittc_risk", "interaction.ittc_risk"),
            (interaction, "rss_longitudinal", "interaction.rss_longitudinal"),
            (interaction, "rss_lateral", "interaction.rss_lateral"),
            (interaction, "global_scene_risk", "interaction.global_scene_risk"),
            (perceiver, "default_params", "perceiver.default_params"),
            (perceiver.DatasetStats, "fit", "perceiver.DatasetStats.fit"),
            (perceiver, "normalize_features", "perceiver.normalize_features"),
            (perceiver, "perceive", "perceiver.perceive"),
            (memory, "partition_categories", "memory.partition_categories"),
        ]

    def _load(self):
        scenes = sorted(scene.load_scenes(self.input, neighbor_radius=RADIUS), key=lambda s: s.scene_id)
        return scenes, {"scene.rows": _rows(scenes)}


class MetricsDense(_SceneWorkload):
    name = "metrics-dense"

    def pass_argv(self, out, **kw):
        return ["-m", "tailscope.cli", "metrics", "--input", str(self.input), "--out", str(out), "--workers", "1"]

    def replay(self, tracer=None):
        scenes, counts = self._load()
        rss = interaction.RssParams()
        result = {}
        for s in scenes:
            intr = intrinsic.compute_intrinsic(s.target)
            inter = interaction.compute_interactive(s, rss)
            result[s.scene_id] = {**intr.as_dict(), **inter.as_dict()}
        return counts, result

    def check_report(self, report):
        records = json.loads(report)["scenes"]
        ids = [r["scene_id"] for r in records]
        if ids != [self.corpus.scene_id(s) for s in range(self.corpus.n_scenes)]:
            return ["metrics report does not list every scene in order"]
        failures = []
        for s in self._oracle_scenes(2):
            want = self._oracle_metrics(s)
            got = records[s]["metrics"]
            failures += [
                f"scene {ids[s]} {name}: {got[name]!r} vs oracle {want[name]!r}"
                for name in got
                if not rel_close(got[name], want[name])
            ]
        return failures

    def check_replay(self, result, report):
        got = {r["scene_id"]: r["metrics"] for r in json.loads(report)["scenes"]}
        return [] if got == result else ["in-process replay differs from the CLI report"]


class RankShort(_SceneWorkload):
    name = "rank-short"
    SEED, CATEGORIES = 7, 5

    def pass_argv(self, out, workers=2):
        return [
            "-m", "tailscope.cli", "rank", "--input", str(self.input), "--out", str(out), "--mode", "sample",
            "--seed", str(self.SEED), "--categories", str(self.CATEGORIES), "--workers", str(workers),
        ]

    def replay(self, tracer=None):
        scenes, counts = self._load()
        with tracer.span("scene.pickle") if tracer else nullcontext():
            counts["scene.pickle_bytes"] = len(pickle.dumps(scenes))
        rss = interaction.RssParams()
        params = perceiver.default_params(seed=self.SEED)
        pairs = [(intrinsic.compute_intrinsic(s.target), interaction.compute_interactive(s, rss)) for s in scenes]
        vectors = np.array([perceiver.metrics_vector(i, r) for i, r in pairs])
        stats = perceiver.DatasetStats.fit(vectors)
        seeds = np.random.SeedSequence(self.SEED).spawn(len(scenes))
        rows = []
        for s, (intr, inter), child in zip(scenes, pairs, seeds):
            f_i, f_r = perceiver.normalize_features(intr, inter, stats)
            rows.append((-perceiver.perceive(params, f_i, f_r, mode="sample", seed=child).ti, s.scene_id))
        rows.sort()
        partition = memory.partition_categories([-ti for ti, _ in rows], self.CATEGORIES)
        return counts, [(sid, -ti, int(c)) for (ti, sid), c in zip(rows, partition.assignments)]

    def check_report(self, report):
        data = json.loads(report)
        rows = data["ranking"]
        if sorted(r["scene_id"] for r in rows) != [self.corpus.scene_id(s) for s in range(self.corpus.n_scenes)]:
            return ["rank report does not list every scene once"]
        if [(-r["ti"], r["scene_id"]) for r in rows] != sorted((-r["ti"], r["scene_id"]) for r in rows):
            return ["ranking is not sorted by descending Tail Index"]
        median, scale = data["stats"]["median"], data["stats"]["scale"]
        by_id = {r["scene_id"]: r for r in rows}
        failures = []
        for s in self._oracle_scenes(3):
            want = self._oracle_metrics(s)
            row = by_id[self.corpus.scene_id(s)]
            for j, name in enumerate(INTRINSIC_FIELDS + INTERACTIVE_FIELDS):
                z = (want[name] - median[j]) / scale[j]
                got = (row["f_i"] + row["f_r"])[j]
                # A relative error in the metric becomes an absolute one in z.
                tol = REL_TOL * (abs(want[name]) + abs(median[j])) / scale[j] + 1e-12
                if abs(got - min(max(z, -perceiver.CLIP_SIGMA), perceiver.CLIP_SIGMA)) > tol:
                    failures.append(f"scene {row['scene_id']} {name}: z {got!r} vs oracle {z!r}")
        return failures

    def check_replay(self, result, report):
        got = [(r["scene_id"], r["ti"], r["category"]) for r in json.loads(report)["ranking"]]
        return [] if got == result else ["in-process replay differs from the CLI report"]


# -- forecast evaluation -----------------------------------------------------


def _plain_min_errors(modes, probs, gt, k: int) -> tuple[float, float]:
    """minADE/minFDE over the k most probable modes (stable ties), by direct loops."""
    order = sorted(range(len(probs)), key=lambda m: (-probs[m], m))[:k]
    ades, fdes = [], []
    for m in order:
        dists = [math.hypot(p[0] - g[0], p[1] - g[1]) for p, g in zip(modes[m], gt)]
        ades.append(sum(dists) / len(dists))
        fdes.append(dists[-1])
    return min(ades), min(fdes)


class EvalForecasts(Workload):
    name = "eval-forecasts"
    KS, PERCENTS, RANK_K = (1, 5, 6), (1, 2, 3, 4, 5), 5

    def prepare(self):
        s = self.size
        self.corpus = corpus.forecast_corpus(self.seed, s["samples"], s["modes"], s["horizon"])
        self.input = self.workdir / "forecasts.jsonl"
        self.input.write_bytes(self.corpus.jsonl)
        self.digest = corpus.digest(self.corpus.jsonl)
        self.items = s["samples"]
        self.counts = {
            "evaluation.samples": s["samples"],
            "evaluation.mode_points": s["samples"] * s["modes"] * s["horizon"],
        }

    def pass_argv(self, out, **kw):
        return [
            "-m", "tailscope.cli", "eval", "--input", str(self.input), "--out", str(out),
            "--k", ",".join(map(str, self.KS)), "--topk", ",".join(map(str, self.PERCENTS)),
            "--rank-metric", "min_ade",
        ]

    def trace_targets(self):
        return [
            (evaluation, "parse_forecast_jsonl", "evaluation.parse_forecast_jsonl"),
            (evaluation, "evaluate", "evaluation.evaluate"),
        ]

    def replay(self, tracer=None):
        samples = evaluation.parse_forecast_jsonl(self.input.read_text(encoding="utf-8"))
        report = evaluation.evaluate(
            samples, ks=list(self.KS), threshold=evaluation.MISS_THRESHOLD,
            percents=[float(p) for p in self.PERCENTS], rank_metric="min_ade", rank_k=self.RANK_K,
        )
        counts = {
            "evaluation.samples": len(samples),
            "evaluation.mode_points": sum(s.n_modes * s.horizon for s in samples),
        }
        return counts, report.to_jsonable()

    def check_report(self, report):
        data = json.loads(report)
        per_sample = data["per_sample"]
        c = self.corpus
        if [r["sample_id"] for r in per_sample] != [c.sample_id(i) for i in range(len(c.probs))]:
            return ["eval report does not list every sample in order"]
        failures = []
        for i in sorted(random.Random(self.seed).sample(range(len(per_sample)), min(50, len(per_sample)))):
            modes, probs, gt = c.modes[i].tolist(), c.probs[i].tolist(), c.gt[i].tolist()
            for k in self.KS:
                ade, fde = _plain_min_errors(modes, probs, gt, k)
                got = per_sample[i]
                if not (rel_close(got["min_ade"][str(k)], ade) and rel_close(got["min_fde"][str(k)], fde)):
                    failures.append(f"sample {got['sample_id']} k={k}: errors differ from the plain loop")
        rank_k = str(self.RANK_K)
        errors = {r["sample_id"]: r["min_ade"][rank_k] for r in per_sample}
        fde = {r["sample_id"]: r["min_fde"][rank_k] for r in per_sample}
        for p in self.PERCENTS:
            want = oracles.worst_case_oracle(errors, p)
            got = data["worst_case"][f"top{p:g}"]
            want_fde = sum(fde[i] for i in want["sample_ids"]) / want["count"]
            if not (
                got["count"] == want["count"]
                and got["sample_ids"] == want["sample_ids"]
                and rel_close(got["min_ade"], want["mean"])
                and rel_close(got["min_fde"], want_fde)
            ):
                failures.append(f"worst-case stratum top{p:g} differs from worst_case_oracle")
        return failures

    def check_replay(self, result, report):
        return [] if json.loads(report) == result else ["in-process replay differs from the CLI report"]


# -- prototype memory --------------------------------------------------------


class MemoryAdapt(Workload):
    name = "memory-adapt"
    cli = False

    def prepare(self):
        s = self.size
        self.corpus = corpus.memory_corpus(self.seed, s["batches"], s["batch"], s["dim"], s["categories"])
        self.input = self.workdir / "memory.npz"
        c = self.corpus
        np.savez(self.input, f_m=c.f_m, f_i=c.f_i, f_r=c.f_r, ti=c.ti, categories=s["categories"])
        self.digest = c.digest()
        self.items = s["batches"] * s["batch"]
        self.counts = {}

    def pass_argv(self, out, **kw):
        return [str(Path(__file__).with_name("memloop.py")), str(self.input), str(out)]

    def setup_argv(self):
        return self.pass_argv(self.workdir / "setup.json") + ["--setup-only"]

    def trace_targets(self):
        return [
            (memory, "partition_categories", "memory.partition_categories"),
            (memory, "initialize_memory", "memory.initialize_memory"),
            (memory, "inner_update", "memory.inner_update", True),
            (memory, "allocation", "memory.allocation"),
            (memory, "similarity", "memory.similarity"),
            (memory, "vigilance_adjust", "memory.vigilance_adjust"),
            (memory, "augment", "memory.augment"),
            (memory, "update_prototypes", "memory.update_prototypes"),
        ]

    def replay(self, tracer=None):
        c = self.corpus
        data = {"f_m": c.f_m, "f_i": c.f_i, "f_r": c.f_r, "ti": c.ti}
        batches = memloop.batches_of(data)
        params, mem = memloop.setup(c.f_m[0], c.ti[0], self.size["categories"])
        _, digest, _ = memloop.run_loop(mem, params, batches)
        return {}, digest

    def output_digest(self, report):
        return json.loads(report)["digest"]

    def check_replay(self, result, report):
        got = json.loads(report)["digest"]
        return [] if got == result else ["in-process replay differs from the benchmark pass"]

    def check_report(self, report):
        """Check the first batch against references coded here, independently of the package."""
        first = json.loads(report)["first"]
        c, cats = self.corpus, self.size["categories"]
        params = memory.CognitiveSetParams.create(
            categories=cats, feature_dim=c.f_m.shape[2], seed=memloop.PARAMS_SEED
        )
        mlp = params.gate_mlp
        failures = []

        def close(got, want, label, tol=REL_TOL):
            got, want = np.asarray(got), np.asarray(want)
            scale = max(float(np.abs(want).max()), 1e-30)
            if got.shape != want.shape or float(np.abs(got - want).max()) > tol * scale:
                failures.append(f"{label} differs from the reference")

        ref_ti, ref_f = c.ti[0], c.f_m[0]
        ranks = np.empty(len(ref_ti), dtype=int)
        ranks[np.argsort(ref_ti, kind="stable")] = np.arange(len(ref_ti))
        assign0 = np.minimum(ranks * cats // len(ref_ti), cats - 1)
        m0 = np.stack([ref_f[assign0 == k].mean(axis=0) for k in range(cats)])
        close(first["m0"], m0, "initial memory")

        f_m, f_i, f_r, ti = c.f_m[1], c.f_i[1], c.f_r[1], c.ti[1]
        h = np.hstack([f_m, f_i, f_r, ti[:, None]])
        hid = np.maximum(h @ mlp.w_hidden.T + mlp.b_hidden, 0.0)
        logits = hid @ mlp.w_alloc.T + mlp.b_alloc
        g = np.exp(logits - logits.max(axis=1, keepdims=True))
        g /= g.sum(axis=1, keepdims=True)
        f_hat = f_m / np.linalg.norm(f_m, axis=1, keepdims=True)

        def sims(protos):
            return params.tau * f_hat @ (protos / np.linalg.norm(protos, axis=1, keepdims=True)).T

        def adjusted(protos):
            lam = 1.0 / (1.0 + np.exp(-params.gamma_steep * (sims(protos).max(axis=1) - params.rho_vig)))
            return lam[:, None] * g + (1.0 - lam[:, None]) * params.b_tail

        g_adj = adjusted(m0)
        _, grad = memory.proto_loss_and_grad(m0, f_m, g_adj, params.tau)
        fd = oracles.central_difference_grad(lambda m: memory.proto_loss(g_adj, sims(np.array(m))), m0.tolist())
        close(grad, fd, "analytic gradient vs central differences", FD_TOL)
        close(first["m_prime"], m0 - memloop.ALPHA_LR * grad, "inner_update result")

        m_prime = np.asarray(first["m_prime"])
        gate = 1.0 / (1.0 + np.exp(-(hid @ mlp.w_gate + mlp.b_gate)))
        f_v = f_m + gate[:, None] * (adjusted(m_prime) @ m_prime)
        close(first["f_v_rows"], f_v[list(memloop.CHECK_ROWS)], "augmented features")

        bounds = np.quantile(ref_ti, [k / cats for k in range(1, cats)])
        assign = np.searchsorted(bounds, ti, side="right")
        after = m_prime.copy()  # momentum 0.9, initialize_memory's default eta
        for k in range(cats):
            mask = assign == k
            if mask.any():
                w = np.exp(ti[mask] - ti[mask].max())
                after[k] = 0.9 * m_prime[k] + 0.1 * ((w / w.sum()) @ f_m[mask])
        close(first["mem_after"], after, "update_prototypes result")
        return failures


WORKLOADS = {w.name: w for w in (MetricsDense, RankShort, EvalForecasts, MemoryAdapt)}
