"""Seeded fixtures for the benchmark suite.

A fixture is a directory holding everything one workload's repetitions
read: the AGD dataset (a ``DirectoryStore`` plus its manifest), the
*unmutated* reference as FASTA, the ground truth (read origins, planted
SNVs), and — for the ``wgs`` kind — the pickled SNAP aligner.  It is
built by running this file as a child process, so the generator's
memory never lands in a repetition's ``peak_rss_mb``; ``--seed`` is the
only input, and the child prints one JSON line describing what it made
and how long each layer took (the ``setup_s`` breakdown).

Two kinds:

* ``wgs`` — reads only; the workload aligns them itself.  The aligner's
  seed index is built against the unmutated reference, while reads come
  from a *sample* genome with SNVs planted every ``SNV_SPACING`` bases
  on average, so variant calling has something to find.
* ``downstream`` — a larger dataset that already carries a ``results``
  column synthesised from the simulator's ground truth, so the
  post-alignment stages can be measured at scale without paying for
  alignment in set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.agd.manifest import Manifest
from repro.align.result import FLAG_REVERSE, FLAG_UNMAPPED, AlignmentResult
from repro.align.snap.aligner import SnapAligner
from repro.align.snap.index import SeedIndex
from repro.dataflow.backends import make_backend, noop_task
from repro.formats.converters import import_reads
from repro.genome.reads import ReadOrigin
from repro.genome.reference import (
    ReferenceGenome,
    read_fasta,
    reference_from_sequences,
    write_fasta,
)
from repro.genome.synthetic import ReadSimulator, synthetic_reference
from repro.storage.base import DirectoryStore

READ_LENGTH = 101
NUM_CONTIGS = 2
DUPLICATE_FRACTION = 0.12
#: One planted SNV per this many reference bases.  The issue asked for
#: 1/1000; at the read counts the driver's time cap allows that leaves
#: ~100 SNVs on the wgs fixture, few enough that the recall >= 0.9 check
#: would fail by chance about once per thousand runs.
SNV_SPACING = 500
_ACGT = np.frombuffer(b"ACGT", dtype=np.uint8)


@dataclass(frozen=True)
class FixtureSpec:
    kind: str
    genome_length: int
    num_reads: int
    chunk_size: int
    #: SortConfig.chunks_per_superchunk for workloads on this fixture:
    #: small enough that the external sort spills several runs.
    chunks_per_superchunk: int


#: ``full`` is what BENCHMARK.json measures; ``smoke`` is the pytest
#: size.  Both are ~10x coverage, the depth the variant-caller recall
#: check needs.  Sizes are far below the issue's (40 000 / 150 000
#: reads) because the driver makes 92 runs in 3420 s; see README.md.
SCALES: "dict[str, dict[str, FixtureSpec]]" = {
    "full": {
        "wgs": FixtureSpec("wgs", 100_000, 10_000, 500, 4),
        "downstream": FixtureSpec("downstream", 300_000, 30_000, 1000, 4),
    },
    "smoke": {
        "wgs": FixtureSpec("wgs", 20_000, 2_000, 250, 2),
        "downstream": FixtureSpec("downstream", 20_000, 2_000, 250, 2),
    },
}


def derive_seed(seed: int, stream: int) -> int:
    """Independent generator seeds from the one benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def plant_snvs(
    reference: ReferenceGenome, seed: int
) -> "tuple[ReferenceGenome, list[tuple[str, int, str, str]]]":
    """The sample genome: ``reference`` with substitutions planted.

    Returns the sample and the truth list ``(contig, 0-based position,
    ref base, alt base)``.  SNVs only, so sample and reference share
    coordinates and a read's simulated origin is its true alignment.
    """
    rng = np.random.default_rng(seed)
    contigs = []
    snvs: "list[tuple[str, int, str, str]]" = []
    for contig in reference.contigs:
        bases = np.frombuffer(contig.sequence, dtype=np.uint8).copy()
        count = max(1, len(bases) // SNV_SPACING)
        positions = np.sort(rng.choice(len(bases), size=count, replace=False))
        originals = bases[positions]
        shifts = rng.integers(1, 4, size=count)
        bases[positions] = _ACGT[(np.searchsorted(_ACGT, originals) + shifts) % 4]
        contigs.append((contig.name, bases.tobytes()))
        snvs.extend(
            (contig.name, int(p), chr(o), chr(a))
            for p, o, a in zip(positions, originals, bases[positions])
        )
    return reference_from_sequences(contigs), snvs


def truth_results(
    reference: ReferenceGenome, origins: "list[ReadOrigin]"
) -> "list[AlignmentResult]":
    """A results column from the simulator's ground truth.

    Every read maps at its origin with mapq 60 and an all-match CIGAR;
    the rare read spanning a contig boundary is left unmapped, as no
    single-contig alignment describes it.
    """
    contig_index = {name: i for i, name in enumerate(reference.names)}
    cigar = f"{READ_LENGTH}M".encode()
    results = []
    for origin in origins:
        contig, local = reference.to_local(origin.global_pos)
        if local + READ_LENGTH > len(reference.contig(contig)):
            results.append(AlignmentResult(flag=FLAG_UNMAPPED))
            continue
        results.append(AlignmentResult(
            flag=FLAG_REVERSE if origin.reverse else 0,
            mapq=60,
            contig_index=contig_index[contig],
            position=local,
            edit_distance=origin.errors,
            cigar=cigar,
        ))
    return results


def _inputs_digest(directory: Path) -> str:
    """SHA-256 over every file the workloads read, by name and content."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name in ("fixture.json", "aligner.pkl"):
            continue  # timings differ per build; pickles are not canonical
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build(kind: str, seed: int, out_dir: Path, scale: str,
          warm_workers: int = 0) -> dict:
    """Generate one fixture under ``out_dir``; returns its description.

    ``warm_workers`` > 0 also starts (and stops) a process pool of that
    many workers holding the aligner — the backend warm-up share of
    ``setup_s`` on the process-backend workload.
    """
    spec = SCALES[scale][kind]
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: "dict[str, float]" = {}
    started = time.perf_counter()

    reference = synthetic_reference(
        spec.genome_length, num_contigs=NUM_CONTIGS, seed=derive_seed(seed, 0)
    )
    sample, snvs = plant_snvs(reference, derive_seed(seed, 1))
    simulator = ReadSimulator(
        sample, read_length=READ_LENGTH,
        duplicate_fraction=DUPLICATE_FRACTION, seed=derive_seed(seed, 2),
    )
    mark = time.perf_counter()
    reads, origins = simulator.simulate(spec.num_reads)
    timings["simulate_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    dataset_dir = out_dir / "dataset"
    dataset = import_reads(
        reads, f"fx_{kind}", DirectoryStore(dataset_dir),
        chunk_size=spec.chunk_size, reference=reference.manifest_entry(),
    )
    timings["import_s"] = time.perf_counter() - mark
    if kind == "downstream":
        dataset.append_column("results", truth_results(reference, origins))
    dataset.save_manifest(dataset_dir)
    write_fasta(reference, out_dir / "reference.fa")
    (out_dir / "truth.json").write_text(json.dumps({
        "origins": [
            [o.global_pos, int(o.reverse), int(o.is_duplicate), o.errors]
            for o in origins
        ],
        "snvs": snvs,
    }))

    timings["index_build_s"] = 0.0
    timings["pool_start_s"] = 0.0
    if kind == "wgs":
        mark = time.perf_counter()
        aligner = SnapAligner(SeedIndex(reference, seed_length=16, max_hits=32))
        timings["index_build_s"] = time.perf_counter() - mark
        with open(out_dir / "aligner.pkl", "wb") as fh:
            pickle.dump(aligner, fh, protocol=pickle.HIGHEST_PROTOCOL)
        if warm_workers:
            mark = time.perf_counter()
            backend = make_backend("process", workers=warm_workers)
            try:
                backend.register_shared("aligner", aligner)
                backend.start()
                backend.run_chunk(noop_task, list(range(warm_workers)))
            finally:
                backend.shutdown()
            timings["pool_start_s"] = time.perf_counter() - mark

    timings["setup_s"] = time.perf_counter() - started
    doc = {
        "kind": kind,
        "seed": seed,
        "scale": scale,
        "spec": asdict(spec),
        "reads": spec.num_reads,
        "bases": sum(len(r) for r in reads),
        "chunks": dataset.num_chunks,
        "planted_snvs": len(snvs),
        "simulated_duplicates": sum(o.is_duplicate for o in origins),
        "inputs_sha256": _inputs_digest(out_dir),
        "timings": timings,
    }
    (out_dir / "fixture.json").write_text(json.dumps(doc, indent=1))
    return doc


@dataclass
class Fixture:
    """A built fixture, opened for one repetition."""

    directory: Path
    doc: dict
    spec: FixtureSpec
    reference: ReferenceGenome
    origins: "list[ReadOrigin]"
    snvs: "set[tuple[str, int, str]]"

    @property
    def dataset_dir(self) -> Path:
        return self.directory / "dataset"

    def manifest(self) -> Manifest:
        """A fresh manifest: runs mutate theirs (align adds a column)."""
        return Manifest.load(self.dataset_dir)

    def aligner(self) -> SnapAligner:
        # Only ever a file this suite's own build() wrote moments ago.
        with open(self.directory / "aligner.pkl", "rb") as fh:
            return pickle.load(fh)


def load(directory: "str | Path") -> Fixture:
    directory = Path(directory)
    doc = json.loads((directory / "fixture.json").read_text())
    truth = json.loads((directory / "truth.json").read_text())
    return Fixture(
        directory=directory,
        doc=doc,
        spec=FixtureSpec(**doc["spec"]),
        reference=read_fasta(directory / "reference.fa"),
        origins=[
            ReadOrigin(pos, bool(rev), bool(dup), -1, errors)
            for pos, rev, dup, errors in truth["origins"]
        ],
        # VCF coordinates: 1-based position, alt allele.
        snvs={(c, p + 1, alt) for c, p, _ref, alt in truth["snvs"]},
    )


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=("wgs", "downstream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--warm-workers", type=int, default=0)
    args = parser.parse_args(argv)
    doc = build(args.kind, args.seed, args.out, args.scale, args.warm_workers)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
