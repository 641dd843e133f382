"""The benchmark's eval-forecasts and memory-adapt workloads, run in-process at their smoke sizes.

``bench/run.py`` times each pass, checks its report against independent
references (the plain loop and the worst-case oracle for ``eval``, a reference
adaptation chain for the memory loop) and replays it in-process through the
package's public functions. Running the same steps here means a change that
breaks that contract (say, a parse returning another type, or a memory read
whose result drifts) fails in the test suite rather than only in the benchmark.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from tailscope import memory
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


def reference_adapt_batch(mem, params, batch):
    """``memloop.adapt_batch`` with each one-sample read written out and recomputed in full: the
    gate network as the einsum kernel ``GateMlp.forward`` runs, the rest with ``@``."""
    m_prime = memory.inner_update(mem, batch, params, alpha_lr=1e-3)
    mlp = params.gate_mlp
    f_v = np.empty_like(batch.f_m)
    for i, (f, h) in enumerate(zip(batch.f_m, batch.h)):
        hid = np.maximum(np.einsum("i,hi->h", h, mlp.w_hidden) + mlp.b_hidden, 0.0)
        logits = np.einsum("h,ch->c", hid, mlp.w_alloc) + mlp.b_alloc
        e = np.exp(logits - max(logits.tolist()))
        g = e / sum(e.tolist())
        s = m_prime @ f / np.sqrt((m_prime * m_prime).sum(axis=1)) * (params.tau / math.sqrt(f @ f))
        lam = memory.sigmoid(params.gamma_steep * (float(s.max()) - params.rho_vig))
        g_adj = lam * g + (1.0 - lam) * params.b_tail
        f_v[i] = f + memory.sigmoid(float(np.einsum("h,h->", hid, mlp.w_gate)) + mlp.b_gate) * (g_adj @ m_prime)
    adapted = memory.PrototypeMemory(prototypes=m_prime, eta=mem.eta, boundaries=mem.boundaries)
    assignments = np.searchsorted(mem.boundaries, batch.ti, side="right")
    return memory.update_prototypes(adapted, batch, assignments), f_v


def test_memory_loop_equals_a_reference_chain_bit_for_bit(workloads):
    import corpus
    import memloop

    size = workloads.SIZES["smoke"]["memory-adapt"]
    c = corpus.memory_corpus(1, size["batches"], size["batch"], size["dim"], size["categories"])
    batches = memloop.batches_of({"f_m": c.f_m, "f_i": c.f_i, "f_r": c.f_r, "ti": c.ti})
    params, mem = memloop.setup(c.f_m[0], c.ti[0], size["categories"])
    assert memloop.ALPHA_LR == 1e-3
    digest, want_mem = hashlib.sha256(), mem
    for batch in batches:
        got_mem, _, got_f_v = memloop.adapt_batch(want_mem, params, batch)
        want_mem, want_f_v = reference_adapt_batch(want_mem, params, batch)
        assert np.array_equal(got_f_v, want_f_v)
        assert np.array_equal(got_mem.prototypes, want_mem.prototypes)
        digest.update(want_f_v.tobytes())
        digest.update(want_mem.prototypes.tobytes())
    assert memloop.run_loop(mem, params, batches)[1] == digest.hexdigest()
