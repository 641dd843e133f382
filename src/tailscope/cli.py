"""Command-line frontend: scene metrics, Tail Index ranking, forecast
evaluation and synthetic scenario generation.

Exit codes are stable across commands: 0 success, 1 internal error, 2 usage
or parse error. Every flag has a config-file equivalent (JSON, flags win);
the config path comes from ``--config`` or the ``TAILSCOPE_CONFIG``
environment variable. Reports are deterministic JSON: keys sorted, floats
serialized with round-trip precision, so reruns on unchanged inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import evaluation, memory, perceiver
from .errors import TailscopeError, UsageError, decode_utf8
from .interaction import RssParams, compute_interactive
from .intrinsic import compute_intrinsic
from .scene import Scene, dump_scenes, load_scenes
from .synth import SCENARIO_KINDS, ScenarioSpec, generate

CONFIG_ENV_VAR = "TAILSCOPE_CONFIG"


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_config(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        config = json.loads(decode_utf8(p.read_bytes(), f"config file {path}"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    return config


def _opt(args, config: dict, name: str, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return config.get(name, default)


def _number_opt(args, config: dict, name: str, kind: type, default, many: bool = False):
    """``_opt`` checked to be a ``kind`` number, or a list of them when ``many``.

    ``kind`` is ``int`` or ``float``; a float option also takes an integer,
    returned as a float, and neither takes a boolean. Flags are typed by
    argparse already, so a failure names a config key.
    """
    value = _opt(args, config, name, default)
    types = (int, float) if kind is float else int
    items = value if many else [value]
    if not isinstance(items, list) or any(
        isinstance(v, bool) or not isinstance(v, types) for v in items
    ):
        noun = "number" if kind is float else "integer"
        want = f"a list of {noun}s" if many else f"a {noun}"
        raise UsageError(f"config key {name!r}: expected {want}, got {value!r}")
    return float(value) if kind is float and not many else value


def _require_input(args, config) -> Path:
    path = _opt(args, config, "input")
    if path is None:
        raise UsageError("no input file given (use --input or the config file)")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"input file not found: {path}")
    return p


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _scene_pair(scene: Scene, rss: RssParams):
    return compute_intrinsic(scene.target), compute_interactive(scene, rss)


def _score_scenes(args, config: dict):
    """Load the input scenes sorted by id and compute their metrics.

    Returns the scenes and one ``(intrinsic, interactive)`` pair per scene,
    computed in ``workers`` processes when more than one is asked for, but
    never in more processes than there are scenes or CPUs.
    """
    path = _require_input(args, config)
    radius = _number_opt(args, config, "neighbor_radius", float, 50.0)
    scenes = sorted(load_scenes(path, neighbor_radius=radius), key=lambda s: s.scene_id)
    score = partial(_scene_pair, rss=RssParams.from_dict(config.get("rss_params", {})))
    workers = min(_number_opt(args, config, "workers", int, 1), len(scenes), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return scenes, list(pool.map(score, scenes))
    return scenes, [score(scene) for scene in scenes]


def cmd_metrics(args, config: dict) -> int:
    """All 14 metric scalars per scene, one JSON record each."""
    scenes, pairs = _score_scenes(args, config)
    records = [
        {
            "scene_id": scene.scene_id,
            "metrics": {**intr.as_dict(), **inter.as_dict()},
            "flags": sorted(set(intr.flags) | set(inter.flags)),
        }
        for scene, (intr, inter) in zip(scenes, pairs)
    ]
    _write_json({"scenes": records}, _opt(args, config, "out"))
    return 0


def cmd_rank(args, config: dict) -> int:
    """Tail Index per scene, descending, with features and fusion weights."""
    scenes, pairs = _score_scenes(args, config)
    seed = _number_opt(args, config, "seed", int, 0)
    mode = _opt(args, config, "mode", "mean")

    params_path = _opt(args, config, "params") or config.get("perceiver_params")
    if params_path:
        params = perceiver.PerceiverParams.load(params_path)
    else:
        params = perceiver.default_params(seed=seed)

    vectors = np.array([perceiver.metrics_vector(i, r) for i, r in pairs])

    stats_path = _opt(args, config, "stats")
    if stats_path:
        stats = perceiver.DatasetStats.load(stats_path)
    else:
        if len(scenes) < 2:
            raise UsageError(
                "normalization stats need at least 2 scenes; pass --stats for single scenes"
            )
        stats = perceiver.DatasetStats.fit(vectors)

    seeds = (
        np.random.SeedSequence(seed).spawn(len(scenes)) if mode == "sample" else [None] * len(scenes)
    )
    rows = []
    for scene, (intr, inter), child in zip(scenes, pairs, seeds):
        f_i, f_r = perceiver.normalize_features(intr, inter, stats)
        result = perceiver.perceive(params, f_i, f_r, mode=mode, seed=child)
        rows.append(
            {
                "scene_id": scene.scene_id,
                "ti": result.ti,
                "alpha_i": result.alpha_i,
                "alpha_r": result.alpha_r,
                "kl_i": result.kl_i,
                "kl_r": result.kl_r,
                "f_i": f_i.tolist(),
                "f_r": f_r.tolist(),
            }
        )
    rows.sort(key=lambda r: (-r["ti"], r["scene_id"]))

    payload = {"ranking": rows, "stats": stats.to_jsonable()}
    memory_cfg = config.get("memory", {})
    categories = _number_opt(args, config, "categories", int, memory_cfg.get("categories", 0))
    if categories:
        partition = memory.partition_categories([r["ti"] for r in rows], categories)
        for row, cat in zip(rows, partition.assignments):
            row["category"] = int(cat)
        payload["boundaries"] = partition.boundaries.tolist()
    _write_json(payload, _opt(args, config, "out"))
    return 0


def cmd_eval(args, config: dict) -> int:
    """Forecast evaluation report with optional worst-case strata."""
    path = _require_input(args, config)
    samples = evaluation.parse_forecast_jsonl(decode_utf8(path.read_bytes(), str(path)))
    report = evaluation.evaluate(
        samples,
        ks=_number_opt(args, config, "k", int, [1, 5, 10], many=True),
        threshold=_number_opt(args, config, "threshold", float, evaluation.MISS_THRESHOLD),
        percents=_number_opt(args, config, "topk", float, [], many=True),
        rank_metric=_opt(args, config, "rank_metric"),
        rank_k=_number_opt(args, config, "rank_k", int, 5),
    )
    _write_json(report.to_jsonable(), _opt(args, config, "out"))
    return 0


def cmd_synth(args, config: dict) -> int:
    """Generate a synthetic scene CSV plus its oracle sidecar JSON."""
    kind = _opt(args, config, "kind")
    if kind is None:
        raise UsageError(f"synth needs --kind (one of {', '.join(SCENARIO_KINDS)})")
    # Every ScenarioSpec field but kind is a number option, typed by its default value.
    defaults = {f.name: f.default for f in fields(ScenarioSpec) if f.name != "kind"}
    numbers = {name: _number_opt(args, config, name, type(d), d) for name, d in defaults.items()}
    spec = ScenarioSpec(kind=kind, **numbers)
    scene, oracle = generate(spec)
    out = _opt(args, config, "out")
    if out is None:
        raise UsageError("synth needs --out for the scene CSV")
    dump_scenes([scene], out)
    oracle_out = _opt(args, config, "oracle_out", f"{out}.oracle.json")
    _write_json({"spec": spec.to_dict(), "oracle": oracle}, oracle_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailscope",
        description="Tailness metrics, Tail Index ranking and forecast evaluation "
        "for multi-agent driving scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", help="input file (scene CSV or forecast JSONL)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV_VAR})")

    p = sub.add_parser("metrics", help="compute the 14 tailness scalars per scene")
    common(p)
    p.add_argument("--workers", type=int, help="scene-level parallelism (default 1)")
    p.add_argument("--neighbor-radius", dest="neighbor_radius", type=float)
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("rank", help="rank scenes by Tail Index")
    common(p)
    p.add_argument("--params", help="perceiver parameter JSON (default: seeded init)")
    p.add_argument("--stats", help="normalization stats JSON (default: fit on the batch)")
    p.add_argument("--mode", choices=("mean", "sample"), help="forward mode (default mean)")
    p.add_argument("--seed", type=int, help="seed for sample mode / default init")
    p.add_argument("--categories", type=int, help="partition the ranking into TI categories")
    p.add_argument("--workers", type=int)
    p.add_argument("--neighbor-radius", dest="neighbor_radius", type=float)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("eval", help="evaluate forecast samples (JSONL)")
    common(p)
    p.add_argument("--k", type=_int_list, help="mode counts, e.g. 1,5,10")
    p.add_argument("--threshold", type=float, help="miss-rate threshold in meters (default 2)")
    p.add_argument("--topk", type=_float_list, help="worst-case percents, e.g. 1,2,3,4,5")
    p.add_argument(
        "--rank-metric",
        dest="rank_metric",
        choices=evaluation.RANK_METRICS,
        help="error metric ranking the worst-case strata (required with --topk)",
    )
    p.add_argument("--rank-k", dest="rank_k", type=int, help="mode count for the ranking metric")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic oracle scene")
    common(p)
    p.add_argument("--kind", choices=SCENARIO_KINDS)
    p.add_argument("--frames", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--speed", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--decel", type=float)
    p.add_argument("--gap", type=float)
    p.add_argument("--agents", dest="n_agents", type=int)
    p.add_argument("--neighbor-radius", dest="neighbor_radius", type=float)
    p.add_argument("--oracle-out", dest="oracle_out", help="oracle sidecar path")
    p.set_defaults(handler=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        return args.handler(args, config)
    except TailscopeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
