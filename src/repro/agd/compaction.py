"""AGD base compaction: 3-bit base codes packed 21 per 64-bit word (§3).

The bases column stores each base (A, C, G, T, N) as a 3-bit code.  21
codes fit in the low 63 bits of a little-endian ``uint64`` word; the top
bit is unused.  A record of ``n`` bases therefore occupies
``ceil(n / 21) * 8`` bytes, and the record's base count is carried in the
chunk's relative index so no terminator is needed.
"""

from __future__ import annotations

import numpy as np

from repro.agd.columns import BasesColumn, PackedBasesColumn, RaggedColumn
from repro.genome.sequence import (
    decode_bases,
    decode_bases_array,
    encode_bases,
    encode_bases_array,
)

#: Bases packed into one 64-bit word.
BASES_PER_WORD = 21

#: Bits per base code.
BITS_PER_BASE = 3

_SHIFTS = (np.arange(BASES_PER_WORD, dtype=np.uint64) * BITS_PER_BASE).astype(np.uint64)
_MASK = np.uint64(0b111)


def packed_size(num_bases: int) -> int:
    """Bytes occupied by a packed record of ``num_bases`` bases."""
    if num_bases < 0:
        raise ValueError("negative base count")
    words = (num_bases + BASES_PER_WORD - 1) // BASES_PER_WORD
    return words * 8


def pack_bases(seq: bytes) -> bytes:
    """Pack an ASCII base sequence into 3-bit-compacted little-endian words."""
    n = len(seq)
    if n == 0:
        return b""
    codes = encode_bases(seq).astype(np.uint64)
    words = (n + BASES_PER_WORD - 1) // BASES_PER_WORD
    padded = np.zeros(words * BASES_PER_WORD, dtype=np.uint64)
    padded[:n] = codes
    lanes = padded.reshape(words, BASES_PER_WORD)
    packed = (lanes << _SHIFTS).sum(axis=1, dtype=np.uint64)
    return packed.astype("<u8").tobytes()


def unpack_bases(packed: bytes, num_bases: int) -> bytes:
    """Unpack a compacted record back into ASCII bases.

    ``num_bases`` is the logical record length from the relative index.
    """
    if num_bases == 0:
        return b""
    expected = packed_size(num_bases)
    if len(packed) != expected:
        raise ValueError(
            f"packed buffer is {len(packed)} bytes; "
            f"{num_bases} bases require {expected}"
        )
    words = np.frombuffer(packed, dtype="<u8").astype(np.uint64)
    lanes = (words[:, None] >> _SHIFTS) & _MASK
    codes = lanes.reshape(-1)[:num_bases].astype(np.uint8)
    return decode_bases(codes)


def _pack_codes(codes: np.ndarray, n_bases: np.ndarray) -> bytes:
    """Scatter per-base 3-bit codes into packed little-endian words."""
    words_per_record = (n_bases + BASES_PER_WORD - 1) // BASES_PER_WORD
    total_words = int(words_per_record.sum())
    if total_words == 0:
        return b""
    # Destination slot (word-lane position) of every base: record i's
    # bases start at lane offset word_offset[i] * BASES_PER_WORD.
    word_offsets = np.zeros(n_bases.size, dtype=np.int64)
    np.cumsum(words_per_record[:-1], out=word_offsets[1:])
    base_starts = np.zeros(n_bases.size, dtype=np.int64)
    np.cumsum(n_bases[:-1], out=base_starts[1:])
    nonempty = n_bases > 0
    dest_starts = np.repeat(
        word_offsets[nonempty] * BASES_PER_WORD, n_bases[nonempty]
    )
    intra = np.arange(codes.size, dtype=np.int64) - np.repeat(
        base_starts[nonempty], n_bases[nonempty]
    )
    lanes = np.zeros(total_words * BASES_PER_WORD, dtype=np.uint64)
    lanes[dest_starts + intra] = codes
    words = (
        lanes.reshape(total_words, BASES_PER_WORD) << _SHIFTS
    ).sum(axis=1, dtype=np.uint64)
    return words.astype("<u8").tobytes()


def pack_column(
    sequences: "list[bytes] | RaggedColumn",
) -> tuple[bytes, list[int]]:
    """Pack many records in one vectorized pass.

    Returns (data block, per-record base counts).  Chunk encode/decode is
    on Persona's critical path (every parser node runs it), so the whole
    column is packed with a handful of NumPy operations rather than one
    call per record.  A column packs straight from its flat array — no
    per-record bytes objects are ever rebuilt — and a column that is
    still packed is its own data block.
    """
    if isinstance(sequences, PackedBasesColumn):
        block = sequences.flat[sequences.bounds[0]:sequences.bounds[-1]]
        return block.tobytes(), sequences.counts
    if isinstance(sequences, RaggedColumn):
        n_bases = sequences.lengths
        if not n_bases.size:
            return b"", n_bases
        codes = encode_bases_array(
            sequences.flat[sequences.bounds[0]:sequences.bounds[-1]]
        ).astype(np.uint64)
        return _pack_codes(codes, n_bases), n_bases
    lengths = [len(s) for s in sequences]
    if not sequences:
        return b"", lengths
    n_bases = np.asarray(lengths, dtype=np.int64)
    codes = encode_bases(b"".join(sequences)).astype(np.uint64)
    return _pack_codes(codes, n_bases), lengths


def _validate_packed_size(data: bytes, words_per_record: np.ndarray) -> int:
    expected = int(words_per_record.sum()) * 8
    if len(data) != expected:
        if len(data) < expected:
            raise ValueError("packed column data truncated")
        raise ValueError(
            f"packed column has {len(data) - expected} trailing bytes"
        )
    return expected


def unpack_column_flat(data: bytes, lengths) -> BasesColumn:
    """Decode a packed column into one flat ASCII array (zero per-record
    bytes objects) — the decode half of the columnar aligner feed.

    ``data`` may be any bytes-like buffer: it is read through
    ``np.frombuffer`` without materializing the packed block as
    ``bytes``.  The returned column's arrays are fresh (the 3-bit unpack
    is a transform, not a copy), so it never aliases ``data``."""
    n = len(lengths)
    n_bases = np.asarray(lengths, dtype=np.int64) if n \
        else np.zeros(0, np.int64)
    words_per_record = (n_bases + BASES_PER_WORD - 1) // BASES_PER_WORD
    expected = _validate_packed_size(data, words_per_record)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_bases, out=bounds[1:])
    if expected == 0:
        return BasesColumn(flat=np.zeros(0, dtype=np.uint8), bounds=bounds)
    words = np.frombuffer(data, dtype="<u8").astype(np.uint64)
    lanes = ((words[:, None] >> _SHIFTS) & _MASK).astype(np.uint8)
    if (n_bases == n_bases[0]).all():
        # Equal-length reads (the sequencer's usual output): every
        # record is the same run of lanes, so one strided cut replaces
        # the gather below.
        kept = lanes.reshape(n, -1)[:, :int(n_bases[0])]
        return BasesColumn(
            flat=decode_bases_array(np.ascontiguousarray(kept).reshape(-1)),
            bounds=bounds,
        )
    padded = decode_bases_array(lanes.reshape(-1))
    word_offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(words_per_record[:-1], out=word_offsets[1:])
    # Gather each record's bases out of its word-aligned lanes (records
    # occupy whole words, so lanes between records are padding).
    nonempty = n_bases > 0
    src = np.repeat(
        word_offsets[nonempty] * BASES_PER_WORD, n_bases[nonempty]
    ) + (
        np.arange(int(bounds[-1]), dtype=np.int64)
        - np.repeat(bounds[:-1][nonempty], n_bases[nonempty])
    )
    return BasesColumn(flat=padded[src], bounds=bounds)


def unpack_column(data: bytes, lengths: "list[int]") -> list[bytes]:
    """Inverse of :func:`pack_column`, also one vectorized pass."""
    return unpack_column_flat(data, lengths).to_list()
