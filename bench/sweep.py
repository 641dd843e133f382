"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --workload metrics-dense --seeds 1-10 [--trace 1] [--seconds 10]
    python3 bench/sweep.py --workload all --seeds 1-10 --baseline bench/baseline.json

For every metric it prints the median and the interquartile distance as a
share of the median (``statistics.quantiles(values, n=4)``), the figure the
bounds in ``BENCHMARK.json`` are set against, plus how long each run took.
``--baseline`` merges every run's value, the medians and quartiles, the
corpus digests and the machine into a JSON file that later changes report
against, under ``end_to_end`` or, with ``--trace 1``, ``per_layer``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    start = perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), perf_counter() - start


def summarise(workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    runs = []
    for seed in seeds:
        record, result, took = one_run(workload, seed, seconds, trace)
        runs.append((record, result, took))
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} in {took:.1f} s", flush=True)
    summary = {"runs_s": [t for _, _, t in runs], "correct": all(r["correct"] for _, r, _ in runs),
               "corpus_digests": {str(rec["seed"]): rec["corpus_digest"] for rec, _, _ in runs},
               "machine": runs[0][0]["machine"], "metrics": {}}
    for name in runs[0][1]["metrics"]:
        values = [r["metrics"][name]["value"] for _, r, _ in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"unit": runs[0][1]["metrics"][name]["unit"], "median": med,
                                    "q1": q1, "q3": q3, "iqr_share": spread, "values": values}
        print(f"  {name:36s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  iqr/median {spread:7.2%}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write the summary to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    seconds = args.seconds or spec["run_seconds"]
    result = {name: summarise(name, seeds_of(args.seeds), seconds, args.trace) for name in names}
    if args.baseline:
        path = Path(args.baseline)
        baseline = json.loads(path.read_text()) if path.is_file() else {}
        baseline.setdefault("per_layer" if args.trace else "end_to_end", {}).update(result)
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
