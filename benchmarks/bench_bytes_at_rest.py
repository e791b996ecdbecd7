"""Bytes at rest — the paper's Table 1 axis (bytes moved per job) as a gate.

Every byte a job reads, spills, ships or writes is a chunk file, so the
stored size of a dataset per record is what all of them scale with.
This driver imports the seeded benchmark read set and gates its stored
bytes per record against the committed baseline
(``benchmarks/baselines/BENCH_bytes_at_rest.json``): more than 1 % above
it fails.  The number is a pure function of the seed, the chunk format
and the codec policy — no clock, no CPU count — so the gate is armed on
any host.  After an intended format or codec change, re-record it (the
result file is written whether or not the gate holds):

    python -m pytest -q benchmarks/bench_bytes_at_rest.py
    python benchmarks/compare_bench.py BENCH_bytes_at_rest.json --bless
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

BASELINE = Path(__file__).parent / "baselines" / "BENCH_bytes_at_rest.json"

#: Stored bytes per record may exceed the committed baseline by this much.
TOLERANCE = 0.01


def test_bytes_at_rest_per_record(benchmark, bench_dataset, report):
    rep = report(
        "bytes_at_rest",
        "Bytes at rest — stored bytes per record of the seeded import",
    )
    records = bench_dataset.total_records
    for column in bench_dataset.columns:
        rep.row(f"{column} bytes/record", "-",
                f"{bench_dataset.column_bytes(column) / records:.2f}")
    per_record = bench_dataset.total_bytes() / records
    baseline = json.loads(BASELINE.read_text())["metrics"]["bytes_per_record"]
    rep.row("dataset bytes/record", f"{baseline:.2f} (baseline)",
            f"{per_record:.2f}", f"({per_record / baseline - 1:+.2%})")
    rep.metric("records", records)
    rep.metric("bytes_per_record", per_record)
    rep.metric("zlib_runtime_version", zlib.ZLIB_RUNTIME_VERSION)
    try:
        rep.check(
            f"stored bytes/record within {TOLERANCE:.0%} of the committed "
            f"baseline",
            per_record <= baseline * (1 + TOLERANCE),
        )
    finally:
        rep.finish()

    benchmark.pedantic(bench_dataset.total_bytes, rounds=1, iterations=1)
