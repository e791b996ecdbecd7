"""Persona: A High-Performance Bioinformatics Framework — reproduction.

A from-scratch Python implementation of Byma et al., USENIX ATC 2017:
the AGD columnar genomic data format, a coarse-grain dataflow engine with
fine-grain executors (the TensorFlow substrate analog), SNAP- and
BWA-MEM-style aligners, external-merge sorting, Samblaster-style
duplicate marking, pileup variant calling, chunk stores and placed
multi-server runs.  The package holds what a ``persona`` run imports;
the paper's models of what it is compared against (row-oriented tools,
a Ceph-like store, the cluster simulator and cost model) live with the
benchmarks in ``benchmarks/models/``.

Quickstart::

    from repro.genome import synthetic_dataset
    from repro.formats import import_reads
    from repro.storage import MemoryStore
    from repro.core import align_dataset, build_snap_aligner

    reference, reads, _ = synthetic_dataset(genome_length=50_000, coverage=5)
    dataset = import_reads(reads, "demo", MemoryStore(), chunk_size=1000,
                           reference=reference.manifest_entry())
    outcome = align_dataset(dataset, build_snap_aligner(reference))
    print(outcome.bases_per_second)
"""

__version__ = "0.2.0"

__all__ = [
    "agd",
    "align",
    "cluster",
    "core",
    "dataflow",
    "formats",
    "genome",
    "storage",
]
