"""The ``memory-adapt`` workload: the prototype-memory adaptation loop.

No CLI command reaches the memory layer beyond ``partition_categories``, so
the benchmark drives it as a library. Set-up builds ``CognitiveSetParams``,
partitions the reference batch by Tail Index and initialises the memory.
Each batch then runs ``inner_update``, then ``allocation``, ``similarity``,
``vigilance_adjust`` and ``augment`` per sample against the adapted
prototypes, then ``update_prototypes`` with ``category_of`` assignments.

Run as a program it is one benchmark pass:

    python3 bench/memloop.py CORPUS.npz RESULT.json [--setup-only]

It writes per-batch seconds, a digest of every output and the first batch's
intermediate results (for the output checks) to RESULT.json.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter

import numpy as np

from tailscope import memory

ALPHA_LR = 1e-3
PARAMS_SEED = 0
#: Rows of the first batch's augmented features kept for the output check.
CHECK_ROWS = (0, 1, -2, -1)


def setup(ref_f_m: np.ndarray, ref_ti: np.ndarray, categories: int):
    params = memory.CognitiveSetParams.create(
        categories=categories, feature_dim=ref_f_m.shape[1], seed=PARAMS_SEED
    )
    partition = memory.partition_categories(ref_ti, categories)
    return params, memory.initialize_memory(ref_f_m, partition)


def batches_of(data) -> list:
    return [
        memory.AdaptationBatch(f_m=data["f_m"][b], f_i=data["f_i"][b], f_r=data["f_r"][b], ti=data["ti"][b])
        for b in range(1, data["f_m"].shape[0])
    ]


def adapt_batch(mem, params, batch):
    """One batch of the loop; returns (next memory, adapted prototypes M', augmented features)."""
    m_prime = memory.inner_update(mem, batch, params, alpha_lr=ALPHA_LR)
    h = batch.h
    f_v = np.empty_like(batch.f_m)
    for i in range(len(batch)):
        g = memory.allocation(h[i], params)
        s = memory.similarity(batch.f_m[i], m_prime, params.tau)
        g_adj = memory.vigilance_adjust(g, s, params)
        f_v[i] = memory.augment(batch.f_m[i], h[i], g_adj, m_prime, params)
    assignments = [mem.category_of(ti) for ti in batch.ti]
    adapted = memory.PrototypeMemory(prototypes=m_prime, eta=mem.eta, boundaries=mem.boundaries)
    return memory.update_prototypes(adapted, batch, assignments), m_prime, f_v


def run_loop(mem, params, batches):
    """Adapt every batch in order; returns per-batch seconds, output digest and first-batch results."""
    batch_s = []
    digest = hashlib.sha256()
    first = None
    m0 = mem.prototypes
    for batch in batches:
        start = perf_counter()
        next_mem, m_prime, f_v = adapt_batch(mem, params, batch)
        batch_s.append(perf_counter() - start)
        digest.update(f_v.tobytes())
        digest.update(next_mem.prototypes.tobytes())
        if first is None:
            first = {
                "m0": m0.tolist(),
                "m_prime": m_prime.tolist(),
                "mem_after": next_mem.prototypes.tolist(),
                "f_v_rows": [f_v[i].tolist() for i in CHECK_ROWS],
            }
        mem = next_mem
    return batch_s, digest.hexdigest(), first


def main(argv) -> int:
    corpus_path, result_path = argv[0], argv[1]
    with np.load(corpus_path) as npz:
        data = {k: npz[k] for k in npz.files}
    params, mem = setup(data["f_m"][0], data["ti"][0], int(data["categories"]))
    if "--setup-only" in argv[2:]:
        return 0
    batch_s, digest, first = run_loop(mem, params, batches_of(data))
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump({"batch_s": batch_s, "digest": digest, "first": first}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
