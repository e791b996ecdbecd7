"""Shared fixtures: small synthetic datasets and prebuilt aligner indexes.

Expensive structures (reference, indexes, aligned datasets) are session-
scoped; tests must not mutate them.  Mutating tests build their own from
the cheap factories.
"""

from __future__ import annotations

import pytest
from zlib_spy import ZlibSpy

from repro.align.bwa import BwaMemAligner, FMIndex
from repro.align.snap import SeedIndex, SnapAligner
from repro.formats.converters import import_reads
from repro.genome.synthetic import ReadSimulator, synthetic_reference
from repro.storage.base import MemoryStore

GENOME_LENGTH = 30_000
READ_LENGTH = 101


@pytest.fixture(scope="session")
def reference():
    return synthetic_reference(GENOME_LENGTH, num_contigs=2, seed=1234)


@pytest.fixture(scope="session")
def reads_and_origins(reference):
    simulator = ReadSimulator(
        reference, read_length=READ_LENGTH, duplicate_fraction=0.1, seed=99
    )
    return simulator.simulate(600)


@pytest.fixture(scope="session")
def reads(reads_and_origins):
    return reads_and_origins[0]


@pytest.fixture(scope="session")
def origins(reads_and_origins):
    return reads_and_origins[1]


@pytest.fixture(scope="session")
def seed_index(reference):
    return SeedIndex(reference, seed_length=16, max_hits=32)


@pytest.fixture(scope="session")
def snap_aligner(seed_index):
    return SnapAligner(seed_index)


@pytest.fixture(scope="session")
def fm_index(reference):
    return FMIndex(reference)


@pytest.fixture(scope="session")
def bwa_aligner(fm_index):
    return BwaMemAligner(fm_index)


@pytest.fixture()
def dataset(reads, reference):
    """A fresh unaligned dataset per test (mutable)."""
    return import_reads(
        reads,
        "fixture",
        MemoryStore(),
        chunk_size=100,
        reference=reference.manifest_entry(),
    )


@pytest.fixture(scope="session")
def aligned_results(reads, snap_aligner):
    """Alignment results for the session read set (read-only)."""
    return [snap_aligner.align_read(r.bases) for r in reads]


@pytest.fixture()
def aligned_dataset(reads, reference, aligned_results):
    """A fresh aligned dataset per test (mutable)."""
    ds = import_reads(
        reads,
        "aligned",
        MemoryStore(),
        chunk_size=100,
        reference=reference.manifest_entry(),
    )
    ds.append_column("results", list(aligned_results))
    return ds


@pytest.fixture()
def codec_spy(monkeypatch):
    """Spies on the data-block codec: every deflate/inflate the codec
    layer (``repro.agd.compression``) performs lands in ``.calls``.  A
    chunk's *index* is deflated by ``repro.agd.chunk`` through its own
    ``zlib`` import; those land in ``.index.calls`` instead — one per
    chunk image written: the memo in front of that deflate is bypassed,
    so equal indexes are not hidden from the count."""
    from repro.agd import chunk

    spy = ZlibSpy()
    spy.index = ZlibSpy()
    monkeypatch.setattr("repro.agd.compression.zlib", spy)
    monkeypatch.setattr(chunk, "zlib", spy.index)
    monkeypatch.setattr(chunk, "_deflate_index",
                        chunk._deflate_index.__wrapped__)
    return spy
