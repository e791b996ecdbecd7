"""Alignment result records.

Persona "appends alignment results to a new AGD column" (§3).  Each result
is a compact binary record carrying SAM-compatible information: flags,
mapping quality, the aligned contig and position, mate linkage for paired
reads, and the CIGAR string.  The serialized form is what the AGD results
column stores; it is deliberately small — the 16.75x output-size advantage
over SAM in Table 1 comes from writing only these records instead of
re-emitting bases, qualities, and metadata in text form.
"""

from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass, replace

# SAM bit flags (subset used by Persona).
FLAG_PAIRED = 0x1
FLAG_PROPER_PAIR = 0x2
FLAG_UNMAPPED = 0x4
FLAG_MATE_UNMAPPED = 0x8
FLAG_REVERSE = 0x10
FLAG_MATE_REVERSE = 0x20
FLAG_FIRST_IN_PAIR = 0x40
FLAG_SECOND_IN_PAIR = 0x80
FLAG_SECONDARY = 0x100
FLAG_QC_FAIL = 0x200
FLAG_DUPLICATE = 0x400
FLAG_SUPPLEMENTARY = 0x800

_FIXED = struct.Struct("<HBxiqiqiHH")
_CIGAR_RE = re.compile(rb"(\d+)([MIDNSHP=X])")


@dataclass(frozen=True)
class AlignmentResult:
    """One read's alignment outcome (one record of the results column)."""

    flag: int = FLAG_UNMAPPED
    mapq: int = 0
    contig_index: int = -1
    position: int = -1
    next_contig_index: int = -1
    next_position: int = -1
    template_length: int = 0
    edit_distance: int = 0
    cigar: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.flag <= 0xFFFF:
            raise ValueError(f"flag {self.flag:#x} out of uint16 range")
        if not 0 <= self.mapq <= 255:
            raise ValueError(f"mapq {self.mapq} out of uint8 range")
        _validate_cigar(self.cigar)

    # ---------------------------------------------------------------- flags

    @property
    def is_aligned(self) -> bool:
        return not self.flag & FLAG_UNMAPPED

    @property
    def is_reverse(self) -> bool:
        return bool(self.flag & FLAG_REVERSE)

    @property
    def is_duplicate(self) -> bool:
        return bool(self.flag & FLAG_DUPLICATE)

    @property
    def is_paired(self) -> bool:
        return bool(self.flag & FLAG_PAIRED)

    def with_flag(self, flag_bit: int, value: bool = True) -> "AlignmentResult":
        """Return a copy with ``flag_bit`` set or cleared."""
        new_flag = self.flag | flag_bit if value else self.flag & ~flag_bit
        return replace(self, flag=new_flag)

    # ------------------------------------------------------------ serialize

    def to_bytes(self) -> bytes:
        """Serialize to the AGD results-column wire format."""
        fixed = _FIXED.pack(
            self.flag,
            self.mapq,
            self.contig_index,
            self.position,
            self.next_contig_index,
            self.next_position,
            self.template_length,
            self.edit_distance,
            len(self.cigar),
        )
        return fixed + self.cigar

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AlignmentResult":
        if len(raw) < _FIXED.size:
            raise ValueError(
                f"result record truncated: {len(raw)} < {_FIXED.size} bytes"
            )
        (flag, mapq, contig, pos, next_contig, next_pos, tlen,
         edit_distance, cigar_len) = _FIXED.unpack_from(raw)
        cigar = raw[_FIXED.size : _FIXED.size + cigar_len]
        if len(cigar) != cigar_len:
            raise ValueError("result record CIGAR truncated")
        return cls(
            flag=flag,
            mapq=mapq,
            contig_index=contig,
            position=pos,
            next_contig_index=next_contig,
            next_position=next_pos,
            template_length=tlen,
            edit_distance=edit_distance,
            cigar=cigar,
        )

    @classmethod
    def from_bytes_trusted(cls, raw: bytes) -> "AlignmentResult":
        """Deserialize without field re-validation.

        Chunk data blocks are CRC-checked and were validated at encode
        time, so column decode — a §5.6 hot path — skips the dataclass
        validation that :meth:`from_bytes` performs.
        """
        (flag, mapq, contig, pos, next_contig, next_pos, tlen,
         edit_distance, cigar_len) = _FIXED.unpack_from(raw)
        cigar = raw[_FIXED.size : _FIXED.size + cigar_len]
        if len(cigar) != cigar_len:
            raise ValueError("result record CIGAR truncated")
        result = object.__new__(cls)
        object.__setattr__(result, "flag", flag)
        object.__setattr__(result, "mapq", mapq)
        object.__setattr__(result, "contig_index", contig)
        object.__setattr__(result, "position", pos)
        object.__setattr__(result, "next_contig_index", next_contig)
        object.__setattr__(result, "next_position", next_pos)
        object.__setattr__(result, "template_length", tlen)
        object.__setattr__(result, "edit_distance", edit_distance)
        object.__setattr__(result, "cigar", cigar)
        return result

    def serialized_size(self) -> int:
        return _FIXED.size + len(self.cigar)

    # -------------------------------------------------------------- sorting

    def location_key(self) -> tuple[int, int]:
        """Sort key for by-location dataset sorting (§4.3).

        Unmapped reads sort after all mapped reads.
        """
        if not self.is_aligned:
            return (0x7FFFFFFF, 0x7FFFFFFFFFFFFFFF)
        return (self.contig_index, self.position)


def cigar_operations(cigar: bytes) -> list[tuple[int, str]]:
    """Parse a CIGAR byte string into (length, op) tuples.

    Raises ValueError for malformed strings (the empty string parses to an
    empty list, meaning "unavailable", as in SAM's ``*``).
    """
    if not cigar:
        return []
    ops = []
    pos = 0
    for match in _CIGAR_RE.finditer(cigar):
        if match.start() != pos:
            raise ValueError(f"malformed CIGAR {cigar!r}")
        length = int(match.group(1))
        if length == 0:
            raise ValueError(f"zero-length CIGAR op in {cigar!r}")
        ops.append((length, match.group(2).decode()))
        pos = match.end()
    if pos != len(cigar):
        raise ValueError(f"malformed CIGAR {cigar!r}")
    return ops


@functools.lru_cache(maxsize=1024)
def _validate_cigar(cigar: bytes) -> None:
    """Raise ValueError if ``cigar`` is malformed.  A well-formed string's
    verdict is remembered — a results column repeats a handful of CIGARs
    (``101M`` on nearly every read) — while a malformed one raises on
    every call, since an exception is never cached."""
    cigar_operations(cigar)


def cigar_reference_span(cigar: bytes) -> int:
    """Reference bases consumed by a CIGAR (M/D/N/=/X ops)."""
    return sum(
        length for length, op in cigar_operations(cigar) if op in "MDN=X"
    )


def cigar_read_span(cigar: bytes) -> int:
    """Read bases consumed by a CIGAR (M/I/S/=/X ops)."""
    return sum(
        length for length, op in cigar_operations(cigar) if op in "MIS=X"
    )


def make_cigar(ops: "list[tuple[int, str]]") -> bytes:
    """Build a CIGAR byte string from (length, op) tuples, merging runs."""
    merged: list[tuple[int, str]] = []
    for length, op in ops:
        if length == 0:
            continue
        if merged and merged[-1][1] == op:
            merged[-1] = (merged[-1][0] + length, op)
        else:
            merged.append((length, op))
    return b"".join(f"{length}{op}".encode() for length, op in merged)
