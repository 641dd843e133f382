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
from pathlib import Path

from .errors import TailscopeError, UsageError, decode_utf8

CONFIG_ENV_VAR = "TAILSCOPE_CONFIG"

# Each handler imports the modules it runs, so a pass loads only its own
# layers and ``import tailscope.cli`` loads neither numpy nor the package.


def _json_default(obj):
    import numpy as np

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
        noun, article = ("number", "a") if kind is float else ("integer", "an")
        want = f"a list of {noun}s" if many else f"{article} {noun}"
        raise UsageError(f"config key {name!r}: expected {want}, got {value!r}")
    return float(value) if kind is float and not many else value


def _typed_opt(args, config: dict, name: str, kind: type = str):
    """``_opt`` checked to be a string, or a JSON object when ``kind`` is dict; None if absent."""
    value = _opt(args, config, name)
    if value is not None and not isinstance(value, kind):
        want = "a JSON object" if kind is dict else "a string"
        raise UsageError(f"config key {name!r}: expected {want}, got {value!r}")
    return value


def _require_input(args, config) -> Path:
    path = _typed_opt(args, config, "input")
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


def _score_scenes(args, config: dict):
    """Load the input scenes sorted by id and compute their metrics.

    Returns the scenes and one ``(intrinsic, interactive)`` pair per scene,
    all computed in this process. ``workers`` is still checked, so configs
    that set it keep running, but it has no effect.
    """
    from .interaction import RssParams, compute_interactive
    from .intrinsic import compute_intrinsic
    from .scene import load_scenes

    path = _require_input(args, config)
    radius = _number_opt(args, config, "neighbor_radius", float, 50.0)
    rss = RssParams.from_dict(_typed_opt(args, config, "rss_params", dict) or {})
    _number_opt(args, config, "workers", int, 1)
    scenes = sorted(load_scenes(path, neighbor_radius=radius), key=lambda s: s.scene_id)
    return scenes, [(compute_intrinsic(s.target), compute_interactive(s, rss)) for s in scenes]


def cmd_metrics(args, config: dict) -> int:
    """All 14 metric scalars per scene, one JSON record each."""
    out = _typed_opt(args, config, "out")
    scenes, pairs = _score_scenes(args, config)
    records = [
        {
            "scene_id": scene.scene_id,
            "metrics": {**intr.as_dict(), **inter.as_dict()},
            "flags": sorted(set(intr.flags) | set(inter.flags)),
        }
        for scene, (intr, inter) in zip(scenes, pairs)
    ]
    _write_json({"scenes": records}, out)
    return 0


def cmd_rank(args, config: dict) -> int:
    """Tail Index per scene, descending, with features and fusion weights."""
    import numpy as np

    from . import memory, perceiver

    out = _typed_opt(args, config, "out")
    seed = _number_opt(args, config, "seed", int, 0)
    mode = _opt(args, config, "mode", "mean")
    if mode not in ("mean", "sample"):
        raise UsageError(f"config key 'mode': expected 'mean' or 'sample', got {mode!r}")
    params_path = _typed_opt(args, config, "params") or _typed_opt(args, config, "perceiver_params")
    stats_path = _typed_opt(args, config, "stats")
    memory_cfg = _typed_opt(args, config, "memory", dict) or {}
    categories = _number_opt(args, config, "categories", int, memory_cfg.get("categories", 0))

    scenes, pairs = _score_scenes(args, config)
    if params_path:
        params = perceiver.PerceiverParams.load(params_path)
    else:
        params = perceiver.default_params(seed=seed)

    vectors = np.array([perceiver.metrics_vector(i, r) for i, r in pairs])

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
    if categories:
        partition = memory.partition_categories([r["ti"] for r in rows], categories)
        for row, cat in zip(rows, partition.assignments):
            row["category"] = int(cat)
        payload["boundaries"] = partition.boundaries.tolist()
    _write_json(payload, out)
    return 0


def cmd_eval(args, config: dict) -> int:
    """Forecast evaluation report with optional worst-case strata."""
    from . import evaluation

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
    _write_json(report.to_jsonable(), _typed_opt(args, config, "out"))
    return 0


def cmd_synth(args, config: dict) -> int:
    """Generate a synthetic scene CSV plus its oracle sidecar JSON."""
    from dataclasses import fields

    from .scene import dump_scenes
    from .synth import SCENARIO_KINDS, ScenarioSpec, generate

    kind = _opt(args, config, "kind")
    if kind is None:
        raise UsageError(f"synth needs --kind (one of {', '.join(SCENARIO_KINDS)})")
    # Every ScenarioSpec field but kind is a number option, typed by its default value.
    defaults = {f.name: f.default for f in fields(ScenarioSpec) if f.name != "kind"}
    numbers = {name: _number_opt(args, config, name, type(d), d) for name, d in defaults.items()}
    spec = ScenarioSpec(kind=kind, **numbers)
    scene, oracle = generate(spec)
    out = _typed_opt(args, config, "out")
    if out is None:
        raise UsageError("synth needs --out for the scene CSV")
    dump_scenes([scene], out)
    oracle_out = _typed_opt(args, config, "oracle_out") or f"{out}.oracle.json"
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
    p.add_argument("--workers", type=int, help="accepted for old configs; has no effect")
    p.add_argument("--neighbor-radius", dest="neighbor_radius", type=float)
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("rank", help="rank scenes by Tail Index")
    common(p)
    p.add_argument("--params", help="perceiver parameter JSON (default: seeded init)")
    p.add_argument("--stats", help="normalization stats JSON (default: fit on the batch)")
    p.add_argument("--mode", choices=("mean", "sample"), help="forward mode (default mean)")
    p.add_argument("--seed", type=int, help="seed for sample mode / default init")
    p.add_argument("--categories", type=int, help="partition the ranking into TI categories")
    p.add_argument("--workers", type=int, help="accepted for old configs; has no effect")
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
        help="min_ade or min_fde: the error ranking the worst-case strata (required with --topk)",
    )
    p.add_argument("--rank-k", dest="rank_k", type=int, help="mode count for the ranking metric")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic oracle scene")
    common(p)
    p.add_argument("--kind", help="scenario kind (constant, circle, brake, crossing or grid)")
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
