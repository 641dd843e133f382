"""tailscope benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from anywhere inside a source checkout: it needs ``src/tailscope`` and
``tests/oracles.py`` next to ``bench/`` and exits 2 without them.

Every pass is a closed loop with one client: the next pass starts when the
previous one has exited. A CLI pass is one ``python -m tailscope.cli``
subprocess (the ``rank`` pass uses a pool of 2 workers); a ``memory-adapt``
pass is one ``bench/memloop.py`` subprocess. Passes repeat until ``--seconds``
have gone by, and at least ``MIN_PASSES`` times.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays the pass
in-process through the package's public functions, alternating untraced and
traced replays, and reports per-layer self times, exact counts and the
tracing overhead. It writes the spans of one traced replay to
``.bench_out/trace-<workload>-seed<seed>.json``. Output checks run outside
every timed region and feed ``failed``. Corpus generation is never timed.

The last stdout line is the result object; the line before it is the run
record (sizes, corpus digest, pass times, check failures, machine).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep bench/ free of generated files

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SPAWNS = 7
MIN_PASSES = 3
PASS_TIMEOUT_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "batch_ms_p50": "ms",
    "batch_ms_tail": "ms",
}

SPAN_METRICS = [
    "scene.load_scenes",
    "intrinsic.compute_intrinsic",
    "interaction.compute_interactive",
    "interaction.ittc_risk",
    "interaction.rss_longitudinal",
    "interaction.rss_lateral",
    "interaction.global_scene_risk",
    "perceiver.default_params",
    "perceiver.DatasetStats.fit",
    "perceiver.normalize_features",
    "perceiver.perceive",
    "memory.partition_categories",
    "memory.initialize_memory",
    "memory.inner_update",
    "memory.allocation",
    "memory.similarity",
    "memory.vigilance_adjust",
    "memory.augment",
    "memory.update_prototypes",
    "evaluation.parse_forecast_jsonl",
    "evaluation.evaluate",
]
COUNT_METRICS = {
    "scene.rows": "count",
    "scene.pickle_bytes": "bytes",
    "interaction.pair_frames": "count",
    "interaction.all_pair_frames": "count",
    "evaluation.samples": "count",
    "evaluation.mode_points": "count",
    "cli.report_bytes": "bytes",
}
PER_LAYER = {
    **{f"{name}.s": "s" for name in SPAN_METRICS},
    "scene.pickle_s": "s",
    **COUNT_METRICS,
    "cli.residual_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


@dataclass
class Outcome:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool
    stderr: str


def spawn(argv: list[str], workdir: Path, timeout: float = PASS_TIMEOUT_S) -> Outcome:
    """Run ``python argv`` to completion; wall from spawn to exit, rusage of its whole tree.

    ``wait4`` reports the child's CPU time including the pool workers it has
    reaped, and the largest resident set among them.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = workdir / "stderr.txt"
    killed = threading.Event()
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=workdir, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        rc=proc.returncode, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0, timed_out=killed.is_set(),
        stderr=err_path.read_text(errors="replace")[-500:],
    )


def tail_percentile(n: int) -> int:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it (p75 when none has)."""
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return p
    return 75


def percentile(values, p: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seconds: float, setup_spawns: int, min_passes: int):
        self.w = workload
        self.seconds, self.setup_spawns, self.min_passes = seconds, setup_spawns, min_passes
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.record: dict = {}

    def setup_s(self) -> float:
        spawn(self.w.setup_argv(), self.w.workdir)  # warm the bytecode cache, untimed
        walls = []
        for _ in range(self.setup_spawns):
            o = spawn(self.w.setup_argv(), self.w.workdir)
            if o.rc != 0:
                self.failures.append(f"set-up exited {o.rc}: {o.stderr}")
            walls.append(o.wall)
        self.record["setup_s"] = walls
        return statistics.median(walls)

    def one_pass(self, index: int, **kw):
        """One timed pass; returns (outcome, report bytes or None)."""
        out = self.w.workdir / f"report-{index}.json"
        o = spawn(self.w.pass_argv(out, **kw), self.w.workdir)
        report = out.read_bytes() if out.is_file() else None
        if out.is_file():
            out.unlink()
        if o.rc != 0 or o.timed_out or report is None:
            self.failures.append(f"pass {index} exited {o.rc} (timed out: {o.timed_out}): {o.stderr}")
            report = None
        return o, report

    def checked(self, report: bytes) -> bool:
        try:
            found = self.w.check_report(report)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            found = [f"malformed output: {exc!r}"]
        self.failures += found
        return not found

    # -- --trace 0 -------------------------------------------------------------

    def measure(self) -> dict:
        setup = self.setup_s()
        # rank-short also runs once, untimed, with one worker: its report must
        # match the timed two-worker passes byte for byte.
        untimed = [self.one_pass(-1, workers=1)] if self.w.name == "rank-short" else []
        passes = []
        start = perf_counter()
        while len(passes) < self.min_passes or perf_counter() - start < self.seconds:
            o, report = self.one_pass(len(passes))
            passes.append((o, report))
            if o.timed_out:
                break
        every = untimed + passes
        good = [r for _, r in every if r is not None]
        digests = {self.w.output_digest(r) for r in good}
        if len(digests) > 1:
            self.failures.append("outputs differ between passes (rank-short: --workers 1 vs 2)")
        consistent = len(digests) == 1 and self.checked(good[0])
        unit = 1 if self.w.cli else self.w.size["batches"]
        self.attempted = len(every) * unit
        self.failed = (len(every) - len(good)) * unit if consistent else self.attempted

        if self.w.cli:
            walls = [o.wall for o, _ in passes]
            batch_ms = [[w * 1e3 for w in walls]]
        else:
            batches = [json.loads(r)["batch_s"] for _, r in passes if r is not None] or [[o.wall] for o, _ in passes]
            walls = [sum(b) for b in batches]
            batch_ms = [[b * 1e3 for b in bs] for bs in batches]
        n = len(batch_ms[0])
        tail = tail_percentile(n)
        wall = statistics.median(walls)
        self.record.update(
            passes=len(passes), pass_wall_s=walls, batch_tail_percentile=tail, batch_samples=n,
            report_digest=min(digests, default=None),
        )
        return {
            "wall_s": wall,
            "items_per_s": self.w.items / wall,
            "cpu_s": statistics.median(o.cpu for o, _ in passes),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(o.rss_mb for o, _ in passes),
            "batch_ms_p50": statistics.median(percentile(b, 50) for b in batch_ms),
            "batch_ms_tail": statistics.median(percentile(b, tail) for b in batch_ms),
        }

    # -- --trace 1 -------------------------------------------------------------

    def _replay(self, tracer):
        from spans import instrument

        start = perf_counter()
        try:
            if tracer is None:
                counts, result = self.w.replay()
            else:
                with instrument(tracer, self.w.trace_targets()), tracer.span("pass"):
                    counts, result = self.w.replay(tracer)
        except Exception as exc:  # noqa: BLE001 - a crash in the package is a failed pass
            self.failures.append(f"in-process replay raised {exc!r}")
            return None, None, perf_counter() - start
        return counts, result, perf_counter() - start

    def trace(self, span_path: Path) -> dict:
        from spans import Tracer

        setup = self.setup_s()
        self._replay(None)  # first-call costs, untimed
        # CLI passes (one worker, like the replay) interleave with the replays
        # so that cli.residual_s compares figures taken at the same time.
        cli, plain_s, traced, results, counts_seen = [], [], [], [], []
        start = perf_counter()
        while not traced or perf_counter() - start < self.seconds:
            cli.append(self.one_pass(len(cli), workers=1))
            counts, result, elapsed = self._replay(None)
            plain_s.append(elapsed)
            tracer = Tracer()
            counts_t, result_t, _ = self._replay(tracer)
            traced.append(tracer)
            results += [result, result_t]
            counts_seen += [counts, counts_t]
            if counts is None or counts_t is None:
                break
        reports = [r for _, r in cli if r is not None]
        cli_bad = len(cli) - len(reports)
        if len({self.w.output_digest(r) for r in reports}) != 1 or not self.checked(reports[0]):
            self.failures.append("benchmark passes disagree or fail the output checks")
            cli_bad = len(cli)
        report = reports[0] if reports else None
        replays = len(results)
        bad = sum(1 for r in results if r is None)
        if report is not None:
            bad += sum(1 for r in results if r is not None and self.w.check_replay(r, report))
        expected = {**self.w.counts, **(counts_seen[0] or {})}
        if any(c != counts_seen[0] for c in counts_seen) or any(
            expected[k] != v for k, v in self.w.counts.items()
        ):
            self.failures.append(f"counts do not repeat exactly: {counts_seen} vs {self.w.counts}")
            bad = replays
        if bad:
            self.failures.append(f"{bad} of {replays} replays failed or differ from the benchmark pass")
        self.attempted = len(cli) + replays
        self.failed = cli_bad + bad
        traced[0].dump(span_path)

        def root(t):
            (span,) = [s for s in t.spans if s[0] == "pass"]
            return span[2] - span[1]

        traced_s = statistics.median(root(t) for t in traced)
        root_self = statistics.median(t.self_s.get("pass", 0.0) for t in traced)
        metrics = {f"{n}.s": statistics.median(t.self_s.get(n, 0.0) for t in traced) for n in SPAN_METRICS}
        metrics["scene.pickle_s"] = statistics.median(t.self_s.get("scene.pickle", 0.0) for t in traced)
        metrics.update({k: expected.get(k, 0) for k in COUNT_METRICS})
        metrics["cli.report_bytes"] = len(report) if self.w.cli and report else 0
        cli_s = statistics.median(o.wall for o, _ in cli)
        metrics["cli.residual_s"] = cli_s - setup - (traced_s - root_self) if self.w.cli else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / statistics.median(plain_s) - 1.0)
        metrics["trace.coverage_pct"] = statistics.median(
            100.0 * (1.0 - t.self_s.get("pass", 0.0) / root(t)) for t in traced
        )
        self.record.update(replays=replays, traced_pass_s=[root(t) for t in traced], untraced_pass_s=plain_s,
                           cli_wall_s=[o.wall for o, _ in cli], spans=str(span_path.relative_to(ROOT)))
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_key: str = "full",
                 setup_spawns: int = SETUP_SPAWNS, min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    import workloads

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[name](seed, workloads.SIZES[size_key][name], workdir)
        w.prepare()
        run = Run(w, seconds, setup_spawns, min_passes)
        if trace:
            metrics = run.trace(OUT / f"trace-{name}-seed{seed}.json")
            units = PER_LAYER
        else:
            metrics = run.measure()
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": run.failed == 0 and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": w.size,
        "corpus_digest": w.digest, **run.record, "failures": run.failures[:20], "machine": machine(),
    }
    return result, record


def smoke() -> int:
    """Every workload on tiny corpora, traced and untraced; checks outputs, asserts no timing."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = declared == (END_TO_END, PER_LAYER) and sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    if not ok:
        print("BENCHMARK.json does not match the metrics and workloads this benchmark reports")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, record = run_workload(name, 1, 0.0, trace, "smoke", setup_spawns=1, min_passes=2)
            good = result["correct"] and result["attempted"] > 0
            ok &= good
            print(f"{name} trace={int(trace)}: {'ok' if good else 'FAILED'} {record['failures'] if not good else ''}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, every workload, no timing")
    args = parser.parse_args(argv)
    if not (SRC / "tailscope" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: {ROOT} is not a tailscope checkout (needs src/tailscope and tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
