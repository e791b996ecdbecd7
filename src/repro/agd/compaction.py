"""AGD base compaction: 3-bit base codes packed 21 per 64-bit word (§3).

The bases column stores each base (A, C, G, T, N) as a 3-bit code.  21
codes fit in the low 63 bits of a little-endian ``uint64`` word; the top
bit is unused.  A record of ``n`` bases therefore occupies
``ceil(n / 21) * 8`` bytes, and the record's base count is carried in the
chunk's relative index so no terminator is needed.
"""

from __future__ import annotations

import numpy as np

from repro.agd.columns import (
    BasesColumn,
    PackedBasesColumn,
    RaggedColumn,
    cumsum0,
    ragged_index,
)
from repro.genome.sequence import (
    InvalidBaseError,
    decode_bases,
    decode_bases_array,
    encode_bases,
    encode_bases_array,
)

#: Bases packed into one 64-bit word.
BASES_PER_WORD = 21

#: Bits per base code.
BITS_PER_BASE = 3

#: Lane shifts of the pack side (:func:`unpack_codes` cuts lanes out
#: byte-wise).
_SHIFTS = (np.arange(BASES_PER_WORD, dtype=np.uint64) * BITS_PER_BASE).astype(np.uint64)


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
    return decode_bases(unpack_codes(packed, [num_bases]))


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


#: Lane ``k`` of a word is bits ``3k .. 3k + 2``: the little-endian byte
#: holding its low bit and the right shift that brings it down, then the
#: next byte and the left shift that brings its spill-over bits up (a
#: shift of 7 or more leaves nothing in the low three bits, so lanes that
#: do not straddle a byte take nothing from it).
_LANE_BIT = np.arange(BASES_PER_WORD) * BITS_PER_BASE
_LANE_BYTE = _LANE_BIT // 8
_LANE_SHIFT = (_LANE_BIT % 8).astype(np.uint8)
_SPILL_BYTE = np.minimum(_LANE_BYTE + 1, 7)
_SPILL_SHIFT = np.minimum(8 - _LANE_SHIFT, 7).astype(np.uint8)


def unpack_codes(data, lengths) -> np.ndarray:
    """The 3-bit codes (0-4: A, C, G, T, N) of a packed column's records,
    laid end to end as one fresh ``uint8`` array.

    Lanes are cut out of the words' bytes with ``uint8`` shifts, so no
    temporary is wider than the codes themselves.  Padding lanes past a
    record's base count are never read.  Raises
    :class:`~repro.genome.sequence.InvalidBaseError` on a code above 4.
    """
    n = len(lengths)
    n_bases = np.asarray(lengths, dtype=np.int64) if n \
        else np.zeros(0, np.int64)
    words_per_record = (n_bases + BASES_PER_WORD - 1) // BASES_PER_WORD
    if _validate_packed_size(data, words_per_record) == 0:
        return np.zeros(0, dtype=np.uint8)
    word_bytes = np.frombuffer(data, dtype=np.uint8).reshape(-1, 8)
    lanes = word_bytes[:, _LANE_BYTE] >> _LANE_SHIFT
    lanes |= word_bytes[:, _SPILL_BYTE] << _SPILL_SHIFT
    lanes &= 0b111
    if (n_bases == n_bases[0]).all():
        # Equal-length reads (the sequencer's usual output): every
        # record is the same run of lanes, so one strided cut replaces
        # the gather below.
        codes = lanes.reshape(n, -1)[:, :int(n_bases[0])].reshape(-1)
    else:
        # Records occupy whole words, so lanes between records are
        # padding: gather each record's bases out of its own lanes.
        word_offsets = cumsum0(words_per_record)[:-1]
        codes = lanes.reshape(-1)[
            ragged_index(word_offsets * BASES_PER_WORD, n_bases)
        ]
    if codes.max(initial=0) > 4:
        raise InvalidBaseError(f"invalid base code {int(codes.max())}")
    return codes


def unpack_column_flat(data: bytes, lengths) -> BasesColumn:
    """Decode a packed column into one flat ASCII array (zero per-record
    bytes objects) — the decode half of the columnar aligner feed.

    ``data`` may be any bytes-like buffer: it is read through
    ``np.frombuffer`` without materializing the packed block as
    ``bytes``.  The returned column's arrays are fresh (the 3-bit unpack
    is a transform, not a copy), so it never aliases ``data``."""
    codes = unpack_codes(data, lengths)
    return BasesColumn(
        flat=decode_bases_array(codes),
        bounds=cumsum0(np.asarray(lengths, dtype=np.int64)),
    )


def unpack_column(data: bytes, lengths: "list[int]") -> list[bytes]:
    """Inverse of :func:`pack_column`, also one vectorized pass."""
    return unpack_column_flat(data, lengths).to_list()
