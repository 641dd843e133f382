"""Command-line frontend: scene metrics, Tail Index ranking, forecast
evaluation and synthetic scenario generation.

Exit codes are stable across commands: 0 success, 1 internal error, 2 usage
or parse error. Every option is declared once, in ``OPTIONS``, and can be
given as a flag or as a key of a JSON config file (flags win); the config
path comes from ``--config`` or the ``TAILSCOPE_CONFIG`` environment
variable. Options are checked before any input is read. Reports go through
``errors.write_report``: keys sorted, finite floats with round-trip
precision, so reruns on unchanged inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from pathlib import Path

from .errors import (
    ConfigurationError, JsonRecord, ParseError, TailscopeError, UsageError, ValidationError, json_fields, read_json,
    report_text, write_report,
)

CONFIG_ENV_VAR = "TAILSCOPE_CONFIG"

# Each handler imports the modules it runs, so a pass loads only its own
# layers and ``import tailscope.cli`` loads neither numpy nor the package.

#: Every option by config key: the commands that take it, its type (int, float,
#: str, dict for a JSON object, [int]/[float] for a list, comma-separated as a
#: flag, or a tuple of the allowed strings), the least value of each number,
#: its flag (``--key-name`` unless named, none if None) and help text.
#: Defaults live with the library: only the options given are passed on.
Option = namedtuple("Option", "commands kind minimum flag help", defaults=(None, "", ""))

OPTIONS = {
    "input": Option("metrics rank eval", str, help="scene CSV or forecast JSONL"),
    "out": Option("metrics rank eval synth", str, help="path (default: stdout; synth: required)"),
    "workers": Option("metrics rank", int, help="accepted for old configs; has no effect"),
    "neighbor_radius": Option("metrics rank synth", float, help="neighborhood radius (m)"),
    "rss_params": Option("metrics rank", dict, flag=None, help="RssParams field values"),
    "params": Option("rank", str, help="perceiver parameter JSON (default: seeded init)"),
    "stats": Option("rank", str, help="normalization stats JSON (default: fit on the batch)"),
    "mode": Option("rank", ("mean", "sample"), help="perceiver forward mode"),
    "seed": Option("rank synth", int, 0, help="seed of the sample mode, default init or scene"),
    "categories": Option("rank", int, 1, help="partition the ranking into TI categories"),
    "k": Option("eval", [int], 1, help="mode counts, e.g. 1,5,10"),
    "threshold": Option("eval", float, help="miss-rate threshold (m)"),
    "topk": Option("eval", [float], help="worst-case percents, e.g. 1,2,3,4,5"),
    "rank_metric": Option("eval", ("min_ade", "min_fde"), help="ranks the worst-case strata"),
    "rank_k": Option("eval", int, 1, help="mode count for the ranking metric"),
    "kind": Option("synth", str, help="constant, circle, brake, crossing or grid"),
    "frames": Option("synth", int, help="frame count"),
    "dt": Option("synth", float, help="time step (s)"),
    "speed": Option("synth", float, help="speed (m/s)"),
    "radius": Option("synth", float, help="circle radius (m)"),
    "decel": Option("synth", float, help="brake deceleration (m/s^2)"),
    "gap": Option("synth", float, help="crossing gap or grid spacing (m)"),
    "n_agents": Option("synth", int, flag="--agents", help="agents in constant and grid scenes"),
    "oracle_out": Option("synth", str, help="oracle sidecar path (default: OUT.oracle.json)"),
}

_NOUNS = {int: "integer", float: "number", str: "string", dict: "JSON object"}


def _describe(opt: Option) -> str:
    """What ``opt`` takes, in words, for help texts and error messages."""
    if isinstance(opt.kind, tuple):
        return "one of " + ", ".join(opt.kind)
    text = f"list of {_NOUNS[opt.kind[0]]}s" if isinstance(opt.kind, list) else _NOUNS[opt.kind]
    return text if opt.minimum is None else f"{text} >= {opt.minimum}"


def _check(key: str, value):
    """``value`` of option ``key``, checked against its type and minimum. A float option
    also takes an integer, a dict one the record read from it; no number takes a boolean."""
    opt = OPTIONS[key]
    kind, items = (opt.kind[0], value) if isinstance(opt.kind, list) else (opt.kind, [value])
    if isinstance(kind, tuple):
        ok = value in kind
    else:
        types = {float: (int, float), dict: (dict, JsonRecord)}.get(kind, kind)
        ok = isinstance(items, list) and all(
            isinstance(v, types) and not isinstance(v, bool)
            and (opt.minimum is None or v >= opt.minimum)
            for v in items
        )
    if not ok:
        raise UsageError(f"option {key!r}: expected {_describe(opt)}, got {value!r}")
    return float(value) if opt.kind is float else value


def _options(args) -> dict:
    """The options of ``args.command`` that were given, each from its flag, else
    from the config file, checked; a config value's error names the file."""
    flags = {key: getattr(args, key) for key in OPTIONS if getattr(args, key, None) is not None}

    def convert(data) -> dict:
        config = json_fields(data, dict.fromkeys(OPTIONS, lambda value: value), "config", OPTIONS)
        config = {
            key: value for key, value in config.items()
            if value is not None and key not in flags and args.command in OPTIONS[key].commands.split()
        }
        if "rss_params" in config:
            from .interaction import RssParams
            config["rss_params"] = RssParams.from_jsonable(config["rss_params"])
        try:
            return {key: _check(key, value) for key, value in config.items()}
        except UsageError as exc:
            raise ConfigurationError(str(exc)) from None

    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    config = read_json(path, "config file", convert) if path else {}
    return {**config, **{key: _check(key, value) for key, value in flags.items()}}


def _kwargs(opts: dict, *keys: str, **renamed: str) -> dict:
    """The given options among ``keys`` and ``renamed`` (key=keyword) as keyword arguments."""
    names = {**{key: key for key in keys}, **renamed}
    return {kw: opts[key] for key, kw in names.items() if key in opts}


def _require_input(opts: dict) -> Path:
    if opts.get("input") is None:
        raise UsageError("no input file given (use --input or the config file)")
    return Path(opts["input"])


def _score_scenes(opts: dict):
    """The input's scene ids in order, their (S, 14) metric matrix and their flags; no scene is a ParseError."""
    from .interaction import score_scenes
    from .scene import parse_scene_csv

    path = _require_input(opts)
    scenes = parse_scene_csv(path, **_kwargs(opts, "neighbor_radius"))
    if not scenes:
        raise ParseError(f"{path}: no scenes")
    return (scenes.ids, *score_scenes(scenes, opts.get("rss_params")))


def cmd_metrics(opts: dict) -> int:
    """All 14 metric scalars per scene, one JSON record each."""
    from .interaction import METRIC_FIELDS

    ids, rows, flags = _score_scenes(opts)
    records = [
        {"scene_id": scene_id, "metrics": dict(zip(METRIC_FIELDS, row)), "flags": list(scene_flags)}
        for scene_id, row, scene_flags in zip(ids, rows.tolist(), flags)
    ]
    write_report(opts.get("out"), {"scenes": records})
    return 0


def cmd_rank(opts: dict) -> int:
    """Tail Index per scene, descending, with features and fusion weights."""
    from . import memory, perceiver

    # Sidecars load before the scenes, so a bad one fails before any scoring.
    params_path = opts.get("params")
    if params_path:
        params = perceiver.PerceiverParams.load(params_path)
        widths = params.path_i[0].in_dim, params.path_r[0].in_dim
        if widths != (len(perceiver.INTRINSIC_FIELDS), len(perceiver.INTERACTIVE_FIELDS)):
            what = f"first layers take {widths[0]} and {widths[1]} inputs"
            raise ConfigurationError(f"{params_path}: {what}, not the 8 intrinsic and 6 interactive metrics")
    else:
        params = perceiver.default_params(**_kwargs(opts, "seed"))
    stats = perceiver.DatasetStats.load(opts["stats"]) if opts.get("stats") else None

    ids, metrics, _ = _score_scenes(opts)
    if stats is None:
        if len(ids) < 2:
            raise UsageError(
                "normalization stats need at least 2 scenes; pass --stats for single scenes"
            )
        stats = perceiver.DatasetStats.fit(metrics)

    z, split = stats.zscores(metrics), len(perceiver.INTRINSIC_FIELDS)
    seeds = [None] * len(ids)
    if opts.get("mode") == "sample":
        seeds = perceiver.scene_seeds(len(ids), **_kwargs(opts, "seed"))
    rows = []
    try:  # a params file that overflows the Tail Index fails naming the file and the scene
        for scene_id, f_i, f_r, child in zip(ids, z[:, :split], z[:, split:], seeds):
            result = perceiver.perceive(params, f_i, f_r, seed=child, **_kwargs(opts, "mode"))
            rows.append({
                "scene_id": scene_id, "ti": result.ti, "alpha_i": result.alpha_i, "alpha_r": result.alpha_r,
                "kl_i": result.kl_i, "kl_r": result.kl_r, "f_i": f_i.tolist(), "f_r": f_r.tolist(),
            })
    except ValidationError as exc:
        raise ConfigurationError(f"{params_path}: scene {scene_id!r}: {exc}") from None
    rows.sort(key=lambda r: (-r["ti"], r["scene_id"]))

    payload = {"ranking": rows, "stats": stats.to_jsonable()}
    if "categories" in opts:
        partition = memory.partition_categories([r["ti"] for r in rows], opts["categories"])
        for row, cat in zip(rows, partition.assignments):
            row["category"] = int(cat)
        payload["boundaries"] = partition.boundaries.tolist()
    write_report(opts.get("out"), payload)
    return 0


def cmd_eval(opts: dict) -> int:
    """Forecast evaluation report with optional worst-case strata."""
    from . import evaluation

    evaluation.check_options(**_kwargs(opts, "threshold", "rank_metric", k="ks", topk="percents"))
    samples = evaluation.parse_forecast_jsonl(_require_input(opts))
    report = evaluation.evaluate(
        samples, **_kwargs(opts, "threshold", "rank_metric", "rank_k", k="ks", topk="percents")
    )
    write_report(opts.get("out"), report.to_jsonable())
    return 0


def cmd_synth(opts: dict) -> int:
    """Generate a synthetic scene CSV plus its oracle sidecar JSON."""
    from dataclasses import asdict, fields

    from .scene import dump_scenes
    from .synth import SCENARIO_KINDS, ScenarioSpec, generate

    if "kind" not in opts:
        raise UsageError(f"synth needs --kind (one of {', '.join(SCENARIO_KINDS)})")
    out = opts.get("out")
    if out is None:
        raise UsageError("synth needs --out for the scene CSV")
    spec = ScenarioSpec(**_kwargs(opts, *(f.name for f in fields(ScenarioSpec))))
    scene, oracle = generate(spec)
    sidecar = {"spec": asdict(spec), "oracle": oracle}
    report_text(sidecar)  # a sidecar refused for a non-finite value leaves no scene CSV behind
    dump_scenes([scene], out)
    write_report(opts.get("oracle_out") or f"{out}.oracle.json", sidecar)
    return 0


def _comma_list(kind: type):
    """Argparse type for a comma-separated list of ``kind`` numbers."""
    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {_NOUNS[kind]}s") from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailscope",
        description="Tailness metrics, Tail Index ranking and forecast evaluation "
        "for multi-agent driving scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for handler in (cmd_metrics, cmd_rank, cmd_eval, cmd_synth):
        name = handler.__name__.removeprefix("cmd_")
        p = sub.add_parser(name, help=handler.__doc__)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help=f"JSON config file (or ${CONFIG_ENV_VAR})")
        for key, opt in OPTIONS.items():
            if name not in opt.commands.split() or opt.flag is None:
                continue
            if isinstance(opt.kind, list):
                parse = _comma_list(opt.kind[0])
            else:  # numbers are typed here, a tuple's strings in _check
                parse = opt.kind if opt.kind in (int, float) else str
            flag = opt.flag or "--" + key.replace("_", "-")
            text = f"{opt.help} [{_describe(opt)}]".lstrip()
            p.add_argument(flag, dest=key, type=parse, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(_options(args))
    except TailscopeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


def entry() -> None:
    # Before numpy loads: a pass's BLAS calls are small mat-vecs, so more threads only spin.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
