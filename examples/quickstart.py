"""Quickstart: the smallest end-to-end Persona pipeline.

Generates a synthetic genome and read set, imports the reads into the AGD
columnar format, aligns them with the SNAP-style aligner through the
dataflow engine, and prints throughput in the paper's units.

Run:  python examples/quickstart.py
"""

from repro.core import align_dataset, build_snap_aligner
from repro.formats import import_reads
from repro.genome import synthetic_dataset
from repro.metrics import format_bases_rate
from repro.storage import MemoryStore


def main() -> None:
    # A 50 kb "patient" genome sequenced to 5x coverage with 101-bp reads
    # (the paper's read length, §5.1).
    reference, reads, origins = synthetic_dataset(
        genome_length=50_000, coverage=5.0, read_length=101, seed=42
    )
    print(f"genome: {len(reference):,} bp, reads: {len(reads):,}")

    # Import into AGD: bases / qual / metadata columns, chunked (§3).
    dataset = import_reads(
        reads,
        "quickstart",
        MemoryStore(),
        chunk_size=500,
        reference=reference.manifest_entry(),
    )
    print(f"AGD dataset: {dataset.num_chunks} chunks, "
          f"{dataset.total_bytes():,} stored bytes")

    # Build the shared aligner resource (the hash seed index of Figure 3)
    # and run the Figure 3 pipeline: reader -> parser -> aligner -> writer.
    aligner = build_snap_aligner(reference)
    outcome = align_dataset(
        dataset, aligner, workers=2
    )
    print(f"aligned {outcome.total_reads:,} reads "
          f"({outcome.total_bases:,} bases) in {outcome.wall_seconds:.2f}s "
          f"= {format_bases_rate(outcome.bases_per_second)}")

    # The results column now lives beside the read columns (§3).
    results = dataset.read_column("results")
    aligned = sum(1 for r in results if r.is_aligned)
    exact = sum(
        1
        for r, o in zip(results, origins)
        if r.is_aligned
        and reference.to_local(o.global_pos) == (reference.names[r.contig_index], r.position)
    )
    print(f"mapped: {aligned}/{len(results)}  "
          f"exactly at the planted origin: {exact}/{len(results)}")


if __name__ == "__main__":
    main()
