"""The results column in columnar form (§3, §4.3).

A results chunk's data block is the serialized
:class:`~repro.align.result.AlignmentResult` records laid end to end.
:class:`ResultsColumn` keeps that block as it is stored (one flat buffer
plus record bounds, see :mod:`repro.agd.columns`) and
:class:`ResultsArrays` reads the records' fixed fields out of it as
numpy arrays — so sort keys, duplicate signatures and pileups come
straight from the block, and an aligner's batch arrays become a results
column without one object per read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.agd.columns import RaggedColumn, cumsum0, ragged_index
from repro.align.result import (
    FLAG_DUPLICATE,
    FLAG_PAIRED,
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    AlignmentResult,
)

#: Mirrors ``repro.align.result._FIXED`` (``<HBxiqiqiHH``): the fixed
#: 36-byte prefix of every serialized AlignmentResult record.
RESULT_FIXED_DTYPE = np.dtype(
    [
        ("flag", "<u2"),
        ("mapq", "u1"),
        ("_pad", "u1"),
        ("contig", "<i4"),
        ("position", "<i8"),
        ("next_contig", "<i4"),
        ("next_position", "<i8"),
        ("template_length", "<i4"),
        ("edit_distance", "<u2"),
        ("cigar_len", "<u2"),
    ]
)

RESULT_FIXED_SIZE = RESULT_FIXED_DTYPE.itemsize


@dataclass
class ResultsArrays:
    """One results column decoded as parallel numpy arrays.

    ``fixed`` is a structured array of the per-record fixed fields;
    CIGAR bytes stay in-place in ``cigar_buf`` (a uint8 view of the data
    block) addressed by ``cigar_starts``/``cigar_ends`` — variable-width
    data is never copied per record.
    """

    fixed: np.ndarray
    cigar_buf: np.ndarray
    cigar_starts: np.ndarray
    cigar_ends: np.ndarray

    def __len__(self) -> int:
        return int(self.fixed.size)

    # Field accessors (named like the AlignmentResult properties).

    @property
    def flag(self) -> np.ndarray:
        return self.fixed["flag"]

    @property
    def mapq(self) -> np.ndarray:
        return self.fixed["mapq"]

    @property
    def contig_index(self) -> np.ndarray:
        return self.fixed["contig"]

    @property
    def position(self) -> np.ndarray:
        return self.fixed["position"]

    @property
    def next_contig_index(self) -> np.ndarray:
        return self.fixed["next_contig"]

    @property
    def next_position(self) -> np.ndarray:
        return self.fixed["next_position"]

    @property
    def is_aligned(self) -> np.ndarray:
        return (self.flag & FLAG_UNMAPPED) == 0

    @property
    def is_reverse(self) -> np.ndarray:
        return (self.flag & FLAG_REVERSE) != 0

    @property
    def is_duplicate(self) -> np.ndarray:
        return (self.flag & FLAG_DUPLICATE) != 0

    @property
    def is_paired(self) -> np.ndarray:
        return (self.flag & FLAG_PAIRED) != 0

    def cigar(self, i: int) -> bytes:
        """Materialize record ``i``'s CIGAR bytes (lazy per-record access)."""
        return self.cigar_buf[
            int(self.cigar_starts[i]) : int(self.cigar_ends[i])
        ].tobytes()


def decode_results_arrays(data, lengths) -> ResultsArrays:
    """Decode a results-column data block straight into arrays.

    ``lengths`` are the relative-index record byte lengths.  When every
    record has the same serialized size the fixed fields are a zero-copy
    strided view of the data block; otherwise one vectorized gather
    copies just the 36-byte prefixes.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    n = int(lens.size)
    base = np.frombuffer(data, dtype=np.uint8)
    offsets = cumsum0(lens)
    if int(offsets[-1]) > base.size:
        raise ValueError("results column data truncated")
    if n == 0:
        return ResultsArrays(
            fixed=np.zeros(0, dtype=RESULT_FIXED_DTYPE),
            cigar_buf=base,
            cigar_starts=np.zeros(0, np.int64),
            cigar_ends=np.zeros(0, np.int64),
        )
    if lens.min() < RESULT_FIXED_SIZE:
        raise ValueError(
            f"result record truncated: shorter than {RESULT_FIXED_SIZE} bytes"
        )
    if np.all(lens == lens[0]):
        # Uniform records: view the block with a per-record stride.
        fixed = np.ndarray((n,), RESULT_FIXED_DTYPE, buffer=base,
                           strides=(int(lens[0]),))
    else:
        gathered = base[offsets[:-1, None] + np.arange(RESULT_FIXED_SIZE)]
        fixed = gathered.view(RESULT_FIXED_DTYPE)[:, 0]
    cigar_starts = offsets[:-1] + RESULT_FIXED_SIZE
    cigar_ends = cigar_starts + fixed["cigar_len"].astype(np.int64)
    if np.any(cigar_ends > offsets[1:]):
        raise ValueError("result record CIGAR truncated")
    return ResultsArrays(
        fixed=fixed,
        cigar_buf=base,
        cigar_starts=cigar_starts,
        cigar_ends=cigar_ends,
    )


class ResultsColumn(RaggedColumn):
    """A results column as its serialized record block.

    Indexing or iterating yields :class:`AlignmentResult` objects (the
    oracle and paired-end paths want them); the kernels read
    :attr:`arrays` — the :class:`ResultsArrays` view of the same block —
    and rewrite records by patching bytes (:meth:`with_flag`).
    """

    _record = staticmethod(AlignmentResult.from_bytes_trusted)

    @cached_property
    def arrays(self) -> ResultsArrays:
        """Field arrays over the block (validates every record's fixed
        prefix and CIGAR bound on first use)."""
        return decode_results_arrays(self.flat, self.lengths)

    @classmethod
    def from_block(cls, data, lengths) -> "ResultsColumn":
        column = super().from_block(data, lengths)
        column.arrays  # malformed records fail at decode, like the object path
        return column

    @classmethod
    def from_records(cls, records) -> "ResultsColumn":
        """Wrap a sequence of :class:`AlignmentResult` (serialized once)."""
        if isinstance(records, RaggedColumn):
            return records
        return super().from_records([r.to_bytes() for r in records])

    @classmethod
    def from_fields(cls, fixed: np.ndarray, cigar_buf: np.ndarray,
                    cigar_lens: np.ndarray) -> "ResultsColumn":
        """Assemble the block from a ``RESULT_FIXED_DTYPE`` array and the
        records' CIGAR bytes laid end to end (``fixed['cigar_len']`` is
        set here)."""
        cigar_lens = np.asarray(cigar_lens, dtype=np.int64)
        fixed["cigar_len"] = cigar_lens
        bounds = cumsum0(cigar_lens + RESULT_FIXED_SIZE)
        flat = np.empty(int(bounds[-1]), dtype=np.uint8)
        flat[bounds[:-1, None] + np.arange(RESULT_FIXED_SIZE)] = \
            fixed.view(np.uint8).reshape(fixed.size, RESULT_FIXED_SIZE)
        flat[ragged_index(bounds[:-1] + RESULT_FIXED_SIZE, cigar_lens)] = \
            cigar_buf
        return cls(flat, bounds)

    def with_flag(self, positions, flag_bit: int) -> "ResultsColumn":
        """A copy with ``flag_bit`` set on the records at ``positions`` —
        a patch of the little-endian flag bytes at each record's start,
        byte for byte what re-encoding the updated objects would give.
        Already-decoded :attr:`arrays` carry over with the same patch,
        so the next kernel neither re-validates nor re-decodes them."""
        positions = np.asarray(positions, dtype=np.int64)
        flat = self.flat.copy()
        starts = self.bounds[:-1][positions]
        flat[starts] |= flag_bit & 0xFF
        flat[starts + 1] |= flag_bit >> 8
        column = type(self)(flat, self.bounds)
        decoded = self.__dict__.get("arrays")
        if decoded is not None:
            fixed = decoded.fixed.copy()
            fixed["flag"][positions] |= flag_bit
            column.__dict__["arrays"] = ResultsArrays(
                fixed=fixed,
                cigar_buf=flat,
                cigar_starts=decoded.cigar_starts,
                cigar_ends=decoded.cigar_ends,
            )
        return column
