"""The benchmark suite's ``downstream`` law at scale, for memory rows.

The suite's 30 000 reads cannot show a stage whose memory grows with
the reads; the scale rows in ``bench_sort_spill.py`` and
``bench_sec56_dupmark.py`` rebuild the same law at 120 000 and 360 000
reads and measure one stage's ΔRSS in a fresh interpreter per size.

Build one:  python benchmarks/scale_law.py READS DIRECTORY
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.agd.result_column import RESULT_FIXED_DTYPE, ResultsColumn
from repro.align.result import FLAG_REVERSE, FLAG_UNMAPPED
from repro.formats.converters import import_reads
from repro.genome.synthetic import ReadSimulator, synthetic_reference
from repro.storage.base import DirectoryStore

#: The reads at each scale row.
SCALE_READS = (120_000, 360_000)


def law_seed(stream: int) -> int:
    """The suite's per-stream seeds, derived from its seed 3."""
    return int(np.random.SeedSequence([3, stream]).generate_state(1)[0])


def build_scale_dataset(reads: int, directory: Path) -> None:
    """The suite's downstream law at ``reads`` reads: 101 bp reads at
    10x over two contigs, 12 % duplicates, 1 000-read chunks, a results
    column from the simulator's ground truth (a read crossing a contig
    end unmapped)."""
    reference = synthetic_reference(reads * 10, num_contigs=2,
                                    seed=law_seed(0))
    batch, origins = ReadSimulator(
        reference, read_length=101, duplicate_fraction=0.12,
        seed=law_seed(2)).simulate(reads)
    dataset = import_reads(batch, "scale", DirectoryStore(directory),
                           chunk_size=1000,
                           reference=reference.manifest_entry())
    contig, local = reference.to_local_arrays(
        np.array([o.global_pos for o in origins], dtype=np.int64))
    sizes = np.array([len(c) for c in reference.contigs], dtype=np.int64)
    mapped = local + 101 <= sizes[contig]
    reverse = np.array([o.reverse for o in origins])
    fixed = np.zeros(reads, dtype=RESULT_FIXED_DTYPE)
    fixed["flag"] = np.where(mapped, np.where(reverse, FLAG_REVERSE, 0),
                             FLAG_UNMAPPED)
    fixed["mapq"] = np.where(mapped, 60, 0)
    fixed["contig"] = np.where(mapped, contig, -1)
    fixed["position"] = np.where(mapped, local, -1)
    fixed["next_contig"] = fixed["next_position"] = -1
    fixed["edit_distance"] = np.where(mapped, [o.errors for o in origins], 0)
    dataset.append_column("results", ResultsColumn.from_fields(
        fixed, np.frombuffer(b"101M" * int(mapped.sum()), np.uint8),
        np.where(mapped, 4, 0)))
    dataset.save_manifest(directory)


def peak_rss_mb() -> float:
    """This process image's peak RSS: ``VmHWM`` where Linux reports it,
    since an exec'd child's ``ru_maxrss`` starts at its parent's peak
    (here, the whole pytest process's)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(call) -> "tuple[dict, object]":
    """Run ``call()`` from a collected heap; its ΔRSS (``VmHWM`` after
    minus before), wall and CPU seconds, and what it returned."""
    gc.collect()
    peak = peak_rss_mb()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    result = call()
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "delta_rss_mb": peak_rss_mb() - peak,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime
                  - before.ru_utime - before.ru_stime),
    }, result


def _run_child(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter; its last stdout line."""
    done = subprocess.run([sys.executable, script, *args], check=True,
                          capture_output=True, text=True, timeout=600)
    return done.stdout.strip().splitlines()[-1]


def at_scale(script: str, tmp_path: Path) -> "dict[int, dict]":
    """For each of :data:`SCALE_READS`: build the law's dataset in one
    fresh interpreter, then run ``script DIRECTORY`` in another, so the
    measuring one never held the simulator's arrays; the JSON object
    that run prints last, by reads."""
    measured = {}
    for reads in SCALE_READS:
        directory = tmp_path / f"scale-{reads}" / "dataset"
        _run_child(__file__, str(reads), str(directory))
        measured[reads] = json.loads(_run_child(script, str(directory)))
        shutil.rmtree(directory.parent)
    return measured


if __name__ == "__main__":
    build_scale_dataset(int(sys.argv[1]), Path(sys.argv[2]))
    print("built")
