"""``python run_wgs_pipeline.py BACKEND [DIR]``: one align → sort →
dupmark → varcall run in a process of its own, for the tests that can
only judge a whole interpreter — what it printed on stderr, what it left
in ``/dev/shm``, which modules it imported.  Given ``DIR``, the dataset
lives in ``DIR/dataset`` and the sort spills raw frames to ``DIR/scratch``
(directory stores, as on disk); otherwise both are in memory.  Prints
one JSON line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.align.snap.aligner import SnapAligner
from repro.align.snap.index import SeedIndex
from repro.core.pipelines import run_pipeline
from repro.core.sort import SortConfig
from repro.dataflow.backends import make_backend
from repro.formats.converters import import_reads
from repro.genome.synthetic import synthetic_dataset
from repro.storage.base import DirectoryStore, MemoryStore


def launch(backend: str, directory: "Path | None" = None
           ) -> "subprocess.CompletedProcess":
    """Run this file in a fresh interpreter (the tests' entry point)."""
    here = Path(__file__).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent.parent / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(here), backend,
         *([str(directory)] if directory is not None else [])],
        capture_output=True, text=True, env=env, timeout=180,
    )


if __name__ == "__main__":
    reference, reads, _ = synthetic_dataset(
        genome_length=40_000, coverage=10.0, seed=7, duplicate_fraction=0.1
    )
    on_disk = Path(sys.argv[2]) if len(sys.argv) > 2 else None
    dataset = import_reads(
        reads, "wgs",
        DirectoryStore(on_disk / "dataset") if on_disk else MemoryStore(),
        chunk_size=500, reference=reference.manifest_entry(),
    )
    backend = make_backend(sys.argv[1], workers=2)
    try:
        outcome = run_pipeline(
            dataset, ("align", "sort", "dupmark", "varcall"),
            aligner=SnapAligner(SeedIndex(reference, seed_length=16,
                                          max_hits=32)),
            reference=reference,
            sort_config=SortConfig(chunks_per_superchunk=4),
            scratch_store=(DirectoryStore(on_disk / "scratch")
                           if on_disk else None),
            backend=backend,
        )
    finally:
        backend.shutdown()
    print(json.dumps({
        "duplicates": outcome.dupmark_stats.duplicates_marked,
        "spill_restores": outcome.report["stages"]["sort"]["counters"].get(
            "spill_restores", 0),
        "numpy_ma_imported": "numpy.ma" in sys.modules,
    }))
