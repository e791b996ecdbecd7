"""Read records: the unit of genomic data flowing through Persona.

A read from a sequencing machine carries three fields (§2.1): the bases,
a per-base quality string, and metadata uniquely identifying the read.
AGD stores each field in its own column; this module defines the in-memory
record used between parsing and processing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class ReadRecord:
    """One sequencing read (bases + Phred+33 qualities + metadata)."""

    metadata: bytes
    bases: bytes
    qualities: bytes

    def __post_init__(self) -> None:
        if len(self.bases) != len(self.qualities):
            raise ValueError(
                f"bases/qualities length mismatch: "
                f"{len(self.bases)} vs {len(self.qualities)}"
            )

    def __len__(self) -> int:
        return len(self.bases)

    @property
    def name(self) -> str:
        """The read name: metadata up to the first whitespace."""
        return self.metadata.split()[0].decode() if self.metadata else ""


class ReadBatch(Sequence):
    """Equal-length reads held as columns: an immutable
    ``Sequence[ReadRecord]`` over ``(n, L)`` base and quality matrices
    (ASCII ``uint8``) and the tuple of names.

    What the simulator emits and :func:`repro.formats.import_reads`
    takes whole: the matrices go to the chunk writer as column buffers,
    so a read that is only ever stored never becomes an object.  A
    ``ReadRecord`` is built when someone indexes or iterates; a slice is
    another batch over views of the same matrices.
    """

    __slots__ = ("bases", "qualities", "names")

    def __init__(self, bases: np.ndarray, qualities: np.ndarray,
                 names: "Sequence[bytes]"):
        if bases.ndim != 2 or bases.dtype != np.uint8 \
                or qualities.dtype != np.uint8:
            raise ValueError("read matrices must be 2-D uint8")
        if bases.shape != qualities.shape or len(names) != len(bases):
            raise ValueError(
                f"read batch columns disagree: bases {bases.shape}, "
                f"qualities {qualities.shape}, {len(names)} names"
            )
        self.bases = bases.view()
        self.qualities = qualities.view()
        self.bases.flags.writeable = False
        self.qualities.flags.writeable = False
        self.names = tuple(names)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ReadBatch(self.bases[index], self.qualities[index],
                             self.names[index])
        return ReadRecord(self.names[index], self.bases[index].tobytes(),
                          self.qualities[index].tobytes())

    def __iter__(self) -> "Iterator[ReadRecord]":
        width = self.bases.shape[1]
        bases = self.bases.tobytes()
        qualities = self.qualities.tobytes()
        for i, name in enumerate(self.names):
            lo = i * width
            yield ReadRecord(name, bases[lo:lo + width],
                             qualities[lo:lo + width])

    def __eq__(self, other) -> bool:
        """Record-wise equality against any sequence of reads."""
        if isinstance(other, ReadBatch):
            return self.names == other.names \
                and np.array_equal(self.bases, other.bases) \
                and np.array_equal(self.qualities, other.qualities)
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == len(self) and \
            all(mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return f"ReadBatch({len(self)} reads x {self.bases.shape[1]} bases)"


@dataclass(frozen=True)
class ReadOrigin:
    """Ground truth for a synthetic read (used by tests and accuracy checks)."""

    global_pos: int
    reverse: bool
    is_duplicate: bool = False
    mate_pos: int = -1
    errors: int = 0
