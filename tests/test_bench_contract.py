"""The benchmark's eval-forecasts workload, run in-process at its smoke size.

``bench/run.py`` times the ``eval`` pass, checks its report against the plain
loop and the worst-case oracle, and replays it through
``parse_forecast_jsonl`` and ``evaluate``. Running the same steps here means a
change that breaks that contract (say, a parse returning another type) fails
in the test suite rather than only in the benchmark.
"""

from pathlib import Path

from tailscope.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_eval_forecasts_workload_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

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
