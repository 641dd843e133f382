"""The benchmark's eval-forecasts and memory-adapt workloads, run in-process at their smoke sizes.

``bench/run.py`` times each pass, checks its report against independent
references (the plain loop and the worst-case oracle for ``eval``, a reference
adaptation chain for the memory loop) and replays it in-process through the
package's public functions. Running the same steps here means a change that
breaks that contract (say, a parse returning another type, or a memory read
whose result drifts) fails in the test suite rather than only in the benchmark.
"""

from pathlib import Path

import pytest

from tailscope.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def test_eval_forecasts_workload_passes_its_checks(tmp_path, workloads):
    workload = workloads.EvalForecasts(1, workloads.SIZES["smoke"]["eval-forecasts"], tmp_path)
    workload.prepare()
    out = tmp_path / "report.json"
    argv = workload.pass_argv(out)
    assert argv[:2] == ["-m", "tailscope.cli"]
    assert main(argv[2:]) == 0
    report = out.read_text(encoding="utf-8")
    assert workload.check_report(report) == []
    counts, result = workload.replay()
    assert counts == workload.counts
    assert workload.check_replay(result, report) == []


def test_memory_adapt_workload_passes_its_checks(tmp_path, workloads):
    import memloop

    workload = workloads.MemoryAdapt(1, workloads.SIZES["smoke"]["memory-adapt"], tmp_path)
    workload.prepare()
    out = tmp_path / "result.json"
    argv = workload.pass_argv(out)
    assert Path(argv[0]) == BENCH / "memloop.py"
    assert memloop.main(argv[1:]) == 0
    report = out.read_text(encoding="utf-8")
    assert workload.check_report(report) == []
    counts, result = workload.replay()
    assert counts == workload.counts
    assert workload.check_replay(result, report) == []
    assert workload.replay()[1] == result  # a second in-process loop repeats the digest
