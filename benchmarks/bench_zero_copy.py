"""Zero-copy plane benchmark — pickled vs shared-memory process backend.

The tentpole claim of the shm buffer pool: for large-array payloads
(column code arrays), a ``ProcessBackend(shm=True)`` moves payloads to
its workers by *reference* into pooled shared-memory slabs, while the
pickled path copies every payload four times (pickle, pipe write, pipe
read, unpickle).  Results return pickled on both sides — the aligner,
the one kernel that dispatches, returns small blocks — so the task here
returns a small result and the ratio measures the payload direction.
Same tasks, identical results, ≥ 1.5x throughput on real multi-core
hardware.

Conventions follow the PR 1 backend-scaling smoke: the speedup assertion
arms only on hosts with >= 2 CPUs (a single-core runner has no physical
parallelism and its pipes are never the bottleneck that matters); the
equivalence checks always arm.

Run:  pytest benchmarks/bench_zero_copy.py --benchmark-json=BENCH_zero_copy.json
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.dataflow import shm
from repro.dataflow.backends import ProcessBackend

#: Payload shape: one "column" of int64 codes per chunk, the size class
#: the columnar aligner feed and pileup matrices ship.
COLUMN_ELEMS = 1 << 19  # 4 MiB per payload
CHUNKS = 24
ROUNDS = 3
WORKERS = 2


def column_stat_task(shared, payload):
    """Cheap compute over a big payload: transport-bound by design, the
    regime where inter-stage data movement (not kernel compute) limits
    scaling.  Returns a 4 KiB slice of the column plus a checksum over
    all of it, so a worker that saw the wrong bytes cannot agree."""
    arr = payload
    return (arr[:512].copy(), int(arr.sum()), int(arr[-1]))


def _run(backend: ProcessBackend, payloads) -> "tuple[float, list]":
    best = None
    results = None
    # Warm the pool (fork + shared-state shipping) outside timed regions.
    backend.run_chunk(column_stat_task, payloads[:1])
    for _ in range(ROUNDS):
        start = time.monotonic()
        out = backend.run_chunk(column_stat_task, payloads)
        wall = time.monotonic() - start
        if best is None or wall < best:
            best, results = wall, out
    return best, results


@pytest.mark.skipif(not shm.shm_available(),
                    reason="POSIX shared memory unavailable")
def test_zero_copy_throughput(benchmark, report):
    cpus = os.cpu_count() or 1
    rng = np.random.default_rng(4242)
    payloads = [
        rng.integers(0, 1 << 40, size=COLUMN_ELEMS, dtype=np.int64)
        for _ in range(CHUNKS)
    ]
    volume = sum(p.nbytes for p in payloads)

    before = set(shm.list_segments("psna-"))
    pickled = ProcessBackend(workers=WORKERS, shm=False)
    try:
        pickled_wall, pickled_out = _run(pickled, payloads)
    finally:
        pickled.shutdown()
    pooled = ProcessBackend(workers=WORKERS, shm=True)
    try:
        shm_wall, shm_out = _run(pooled, payloads)
    finally:
        pooled.shutdown()
    leaked = sorted(set(shm.list_segments("psna-")) - before)

    speedup = pickled_wall / shm_wall if shm_wall else 0.0
    rep = report("zero_copy",
                 "Zero-copy plane — pickled vs shm process backend")
    rep.add(f"host CPUs: {cpus}; workers: {WORKERS}; payloads: {CHUNKS} x "
            f"{COLUMN_ELEMS * 8 / 1e6:.0f} MB ({volume / 1e6:.0f} MB/round)")
    rep.row("pickled process backend", "4 copies/crossing",
            f"{pickled_wall:.3f} s "
            f"({volume / pickled_wall / 1e6:.0f} MB/s)")
    rep.row("shm process backend", ">= 1.5x",
            f"{shm_wall:.3f} s "
            f"({volume / shm_wall / 1e6:.0f} MB/s, {speedup:.2f}x)")
    rep.metric("pickled_wall_seconds", pickled_wall)
    rep.metric("shm_wall_seconds", shm_wall)
    rep.metric("speedup", speedup)
    rep.metric("payload_bytes_per_round", volume)
    rep.add()
    rep.add("shape checks:")
    identical = all(
        np.array_equal(sa, pa) and sb == pb and sc == pc
        for (sa, sb, sc), (pa, pb, pc) in zip(shm_out, pickled_out)
    )
    rep.check("shm and pickled results identical", identical)
    rep.check("no /dev/shm segments leaked", not leaked)
    if cpus >= 2:
        rep.check(
            f"shm beats pickled by >= 1.5x on large-array payloads "
            f"({WORKERS} workers, {cpus} CPUs)",
            speedup >= 1.5,
        )
    else:
        rep.add(f"  [SKIPPED] >= 1.5x speedup gate needs >= 2 CPUs "
                f"(host has {cpus}); measured {speedup:.2f}x, "
                f"reported only")
    rep.finish()

    benchmark.pedantic(
        lambda: None, rounds=1, iterations=1,
    )
