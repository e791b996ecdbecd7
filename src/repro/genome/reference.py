"""Reference genome representation and FASTA I/O.

A reference genome is an ordered collection of named contigs (chromosomes,
in hg19 terms).  Aligners map reads to *global* positions — an offset into
the concatenation of all contigs — while SAM output and the AGD manifest
report per-contig (name, local offset) coordinates, matching how the paper
stores "names and sizes of contiguous reference sequences" in the manifest
(§3).
"""

from __future__ import annotations

import bisect
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.genome.sequence import is_valid_sequence


@dataclass(frozen=True)
class Contig:
    """A single named reference sequence."""

    name: str
    sequence: bytes

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("contig name must be non-empty")
        if not is_valid_sequence(self.sequence):
            raise ValueError(f"contig {self.name!r} contains invalid bases")

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass
class ReferenceGenome:
    """An ordered set of contigs with global <-> local coordinate mapping."""

    contigs: list[Contig] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.contigs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate contig names in reference")
        self._rebuild_offsets()

    def _rebuild_offsets(self) -> None:
        self._starts: list[int] = []
        self._by_name: dict[str, int] = {}
        offset = 0
        for i, contig in enumerate(self.contigs):
            self._starts.append(offset)
            self._by_name[contig.name] = i
            offset += len(contig)
        self._total = offset
        # One concatenated view for aligners that index the whole genome.
        self._concat: bytes | None = None

    def __len__(self) -> int:
        """Total number of bases across all contigs."""
        return self._total

    def __iter__(self) -> Iterator[Contig]:
        return iter(self.contigs)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.contigs]

    def contig(self, name: str) -> Contig:
        try:
            return self.contigs[self._by_name[name]]
        except KeyError:
            raise KeyError(f"no contig named {name!r}") from None

    def concatenated(self) -> bytes:
        """The genome as one contiguous byte string (cached)."""
        if self._concat is None:
            self._concat = b"".join(c.sequence for c in self.contigs)
        return self._concat

    def contig_start(self, name: str) -> int:
        """Global offset at which ``name`` begins."""
        return self._starts[self._by_name[name]]

    def to_global(self, name: str, local_pos: int) -> int:
        """Map a (contig, local offset) pair to a global position."""
        idx = self._by_name.get(name)
        if idx is None:
            raise KeyError(f"no contig named {name!r}")
        if not 0 <= local_pos < len(self.contigs[idx]):
            raise ValueError(
                f"position {local_pos} out of range for contig {name!r} "
                f"of length {len(self.contigs[idx])}"
            )
        return self._starts[idx] + local_pos

    def to_local(self, global_pos: int) -> tuple[str, int]:
        """Map a global position to a (contig name, local offset) pair."""
        if not 0 <= global_pos < self._total:
            raise ValueError(f"global position {global_pos} out of range")
        idx = bisect.bisect_right(self._starts, global_pos) - 1
        return self.contigs[idx].name, global_pos - self._starts[idx]

    def to_local_arrays(self, global_pos):
        """Array form of :meth:`to_local`: ``(contig indices, local
        offsets)`` of in-range global positions, one searchsorted."""
        import numpy as np

        starts = np.asarray(self._starts, dtype=np.int64)
        index = np.searchsorted(starts, global_pos, side="right") - 1
        return index, global_pos - starts[index]

    def fetch(self, global_pos: int, length: int) -> bytes:
        """Fetch ``length`` bases starting at ``global_pos``.

        The window is clamped to the genome end; fetching across a contig
        boundary is allowed (aligners tolerate the resulting mismatches and
        candidate verification rejects such placements).
        """
        if global_pos < 0:
            raise ValueError("negative position")
        return self.concatenated()[global_pos : global_pos + length]

    def manifest_entry(self) -> list[dict]:
        """Contig descriptors in the form stored in AGD manifests (§3)."""
        return [{"name": c.name, "length": len(c)} for c in self.contigs]


def write_fasta(reference: ReferenceGenome, path: "str | Path", width: int = 70) -> None:
    """Write a reference genome in FASTA format."""
    with open(path, "wb") as fh:
        for contig in reference:
            fh.write(b">" + contig.name.encode() + b"\n")
            seq = contig.sequence
            for start in range(0, len(seq), width):
                fh.write(seq[start : start + width] + b"\n")


def read_fasta(path: "str | Path") -> ReferenceGenome:
    """Read a FASTA file into a :class:`ReferenceGenome`."""
    with open(path, "rb") as fh:
        return parse_fasta(fh)


def parse_fasta(stream: "io.BufferedIOBase | io.BytesIO") -> ReferenceGenome:
    """Parse FASTA from a binary stream."""
    contigs: list[Contig] = []
    name: str | None = None
    parts: list[bytes] = []

    def flush() -> None:
        if name is not None:
            contigs.append(Contig(name, b"".join(parts).upper()))

    for raw in stream:
        line = raw.rstrip(b"\r\n")
        if not line:
            continue
        if line.startswith(b">"):
            flush()
            name = line[1:].split()[0].decode()
            parts = []
        else:
            if name is None:
                raise ValueError("FASTA data before first header line")
            parts.append(line)
    flush()
    if not contigs:
        raise ValueError("empty FASTA input")
    return ReferenceGenome(contigs)


def reference_from_sequences(pairs: Iterable[tuple[str, bytes]]) -> ReferenceGenome:
    """Build a reference from (name, sequence) pairs."""
    return ReferenceGenome([Contig(name, seq) for name, seq in pairs])
