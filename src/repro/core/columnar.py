"""Columnar kernels: numpy array programs over AGD column buffers.

The paper's core claim is that the columnar AGD layout lets compute run
"as fast as the hardware allows" (§1, §3) — yet the natural Python
implementation walks one record object at a time.  This module exploits
the columnar encoding end to end: a decoded column is one flat buffer
plus record bounds (:mod:`repro.agd.columns`,
:mod:`repro.agd.result_column`), and the hot kernels — CIGAR parsing,
pileup, sort keys and permutations, duplicate signatures and marking —
run as vectorized array programs over those buffers.

Contract: the pileup kernel is a *fast path* with a scalar reference
implementation in :mod:`repro.core.varcall` and must produce
byte-identical outputs; input the dense pileup cannot represent raises
:class:`ColumnarFallback` and reruns on the reference.  The sort kernels
(:func:`sort_keys`, :func:`sort_permutation`) and the duplicate tracker
are the only sort and the only marker there are: keys too wide to pack
change how the permutation is computed, never the result (the row sort
is the oracle under ``tests/``; the object-level marking specification
stays in :mod:`repro.core.dupmark` for the tests to compare against).
Malformed data raises ``ValueError``, just like the scalar parsers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agd.columns import (
    PackedBasesColumn,
    RaggedColumn,
    TextColumn,
    cumsum0,
    ragged_index,
)
from repro.agd.compaction import unpack_codes
from repro.agd.result_column import (  # noqa: F401 - re-exported
    RESULT_FIXED_DTYPE,
    RESULT_FIXED_SIZE,
    ResultsArrays,
    ResultsColumn,
    decode_results_arrays,
)


class ColumnarFallback(ValueError):
    """The input falls outside what the vectorized encoding represents
    exactly (or efficiently): non-ACGTN base bytes in a pileup, a pileup
    span too sparse for the dense accumulator.  Callers catch this and
    rerun the scalar reference path — never a silent divergence."""


def read_results_column(blob) -> ResultsColumn:
    """Decode a results-column *chunk file* image into its column — same
    validation as :func:`repro.agd.chunk.read_chunk`, no AlignmentResult
    objects."""
    from repro.agd.chunk import read_column

    column = read_column(blob)
    if not isinstance(column, ResultsColumn):
        raise ValueError(
            f"expected a results chunk, got {type(column).__name__}"
        )
    return column


# --------------------------------------------------------------------------
# Vectorized CIGAR parsing.

_VALID_OP = np.zeros(256, dtype=bool)
for _c in b"MIDNSHP=X":
    _VALID_OP[_c] = True
_CONSUMES_REF = np.zeros(256, dtype=bool)
for _c in b"MDN=X":
    _CONSUMES_REF[_c] = True
_CONSUMES_READ = np.zeros(256, dtype=bool)
for _c in b"MIS=X":
    _CONSUMES_READ[_c] = True
_IS_ALIGN_OP = np.zeros(256, dtype=bool)
for _c in b"M=X":
    _IS_ALIGN_OP[_c] = True


@dataclass
class CigarOps:
    """All CIGAR operations of a record batch, flattened into arrays."""

    record: np.ndarray  # int64: op -> owning record index (ascending)
    op: np.ndarray  # uint8: op byte
    length: np.ndarray  # int64: op length
    op_count: np.ndarray  # int64 per record
    first_op: np.ndarray  # int64 per record: index of its first op


def parse_cigars(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> CigarOps:
    """Parse every record's CIGAR in one vectorized pass.

    Equivalent to calling :func:`repro.align.result.cigar_operations` per
    record: malformed strings and zero-length ops raise ``ValueError``.
    """
    n = int(starts.size)
    lens = (ends - starts).astype(np.int64)
    total = int(lens.sum())
    lstarts = cumsum0(lens)
    empty = CigarOps(
        record=np.zeros(0, np.int64),
        op=np.zeros(0, np.uint8),
        length=np.zeros(0, np.int64),
        op_count=np.zeros(n, np.int64),
        first_op=np.zeros(n, np.int64),
    )
    if total == 0:
        return empty
    contiguous = (
        int(starts[0]) == 0
        and int(ends[-1]) == total
        and np.array_equal(starts[1:], ends[:-1])
    )
    if contiguous:
        cig = buf[:total]
    else:
        cig = buf[
            np.repeat(starts, lens)
            + (np.arange(total) - np.repeat(lstarts[:-1], lens))
        ]
    is_digit = (cig >= ord("0")) & (cig <= ord("9"))
    op_pos = np.flatnonzero(~is_digit)
    if op_pos.size == 0:
        raise ValueError("malformed CIGAR: digits with no operation")
    op_bytes = cig[op_pos]
    if not _VALID_OP[op_bytes].all():
        bad = op_bytes[~_VALID_OP[op_bytes]][0]
        raise ValueError(f"malformed CIGAR: invalid op {chr(int(bad))!r}")
    # Every non-empty record must end on an op byte (digits cannot cross
    # a record boundary once this holds).
    nonempty = lens > 0
    rec_last = lstarts[1:][nonempty] - 1
    if is_digit[rec_last].any():
        raise ValueError("malformed CIGAR: record ends mid-number")
    record_of_op = np.searchsorted(lstarts, op_pos, side="right") - 1
    op_count = np.bincount(record_of_op, minlength=n).astype(np.int64)
    dig_pos = np.flatnonzero(is_digit)
    op_of_digit = np.searchsorted(op_pos, dig_pos)
    dcount = np.bincount(op_of_digit, minlength=op_pos.size)
    if (dcount == 0).any():
        raise ValueError("malformed CIGAR: op without a length")
    if int(dcount.max()) > 18:
        raise ValueError("malformed CIGAR: op length out of range")
    weight = 10 ** (op_pos[op_of_digit] - 1 - dig_pos).astype(np.int64)
    values = np.zeros(op_pos.size, dtype=np.int64)
    np.add.at(values, op_of_digit, (cig[dig_pos] - ord("0")) * weight)
    if (values == 0).any():
        raise ValueError("zero-length CIGAR op")
    return CigarOps(
        record=record_of_op.astype(np.int64),
        op=op_bytes,
        length=values,
        op_count=op_count,
        first_op=cumsum0(op_count)[:-1],
    )


# --------------------------------------------------------------------------
# Vectorized pileup (the reference path is repro.core.varcall).

#: Matrix column -> base byte.  Matrix columns are the 3-bit base codes
#: (A,C,G,T,N = 0..4) the bases column stores.
BASE_BYTES = np.frombuffer(b"ACGTN", dtype=np.uint8)

#: ASCII base byte -> base code; 255 marks a byte the matrix cannot hold.
_BYTE_CODE = np.full(256, 255, dtype=np.uint8)
_BYTE_CODE[BASE_BYTES] = np.arange(5)

#: Base code -> the code of its complement (255 stays 255): a reverse
#: read's stored bases are the reverse complement of what aligned.
_COMPLEMENT_CODE = np.full(256, 255, dtype=np.uint8)
_COMPLEMENT_CODE[:5] = (3, 2, 1, 0, 4)

#: Matrix columns ranked by descending base byte (T,N,G,C,A) — argmax over
#: this order reproduces ``max(counts.items(), key=(count, byte))``.
_BYTE_DESC_COLS = np.array([3, 4, 2, 1, 0])
_BYTE_DESC_BYTES = BASE_BYTES[_BYTE_DESC_COLS]

#: A pileup partial: contig index -> (start position, dense (span, 5)
#: int32 base-count matrix in A,C,G,T,N column order covering reference
#: positions [start, start + span)).  Dense per-contig arrays make both
#: accumulation (one bincount histogram per chunk) and merging (one
#: slice-add into a :class:`PileupWindow`) cache-friendly O(span)
#: operations; plain dicts of arrays so partials pickle cheaply across
#: the process backend.  A partial covers one chunk's span per contig.
PileupPartial = "dict[int, tuple[int, np.ndarray]]"


def _ensure_results_arrays(results) -> ResultsArrays:
    """The array view of a results column (or of any sequence of
    AlignmentResult, wrapped into a column once)."""
    if isinstance(results, ResultsArrays):
        return results
    return ResultsColumn.from_records(results).arrays


def _kept_lengths(col, idx: np.ndarray) -> np.ndarray:
    """Bases (or quality bytes) of each kept record, without reading
    one: a packed column's relative index says how many it holds."""
    if isinstance(col, PackedBasesColumn):
        return col.counts[idx]
    if isinstance(col, RaggedColumn):
        return col.lengths[idx]
    return np.fromiter((len(col[int(i)]) for i in idx), np.int64, idx.size)


def _gather_kept(col, idx: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The kept records of a byte column, end to end, as one uint8 array,
    and their lengths.

    A :class:`~repro.agd.columns.RaggedColumn` gathers straight from its
    flat array in one fancy-index pass — no per-record bytes objects, no
    join copy.  List-of-buffers columns take the join path;
    ``b"".join`` accepts any buffer, so views are consumed in place.  A
    packed bases column holds words, not bytes: :func:`_kept_codes`
    reads it.
    """
    if isinstance(col, PackedBasesColumn):
        raise TypeError("a packed bases column holds words, not bytes")
    if isinstance(col, RaggedColumn):
        kept = col.take(idx)
        return kept.flat, kept.lengths
    kept = [col[int(i)] for i in idx]
    lens = np.fromiter((len(b) for b in kept), np.int64, idx.size)
    return np.frombuffer(b"".join(kept), dtype=np.uint8), lens


def _kept_codes(col, idx: np.ndarray) -> np.ndarray:
    """Base codes (0-4) of the kept reads, end to end, in a fresh array.

    A :class:`~repro.agd.columns.PackedBasesColumn` yields them straight
    from the kept reads' words (no ASCII, no :meth:`decoded` cache); an
    ASCII column maps its bytes once, 255 for a byte outside ``ACGTN``.
    """
    if isinstance(col, PackedBasesColumn):
        kept = col.take(idx)
        return unpack_codes(kept.flat, kept.counts)
    return _BYTE_CODE.take(_gather_kept(col, idx)[0])


def _check_counted_codes(codes: np.ndarray, good: np.ndarray) -> None:
    """A counted byte the matrix cannot hold (lowercase, IUPAC): the
    scalar Counter keys raw bytes, the 5-column matrix cannot."""
    if codes.max(initial=0) == 255 and (codes[good] == 255).any():
        raise ColumnarFallback("non-ACGTN base byte in pileup fast path")


def _runs(values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The distinct values, ascending, and how often each occurs
    (``np.unique`` would import ``numpy.ma``: +1.3 MB of RSS for a
    run)."""
    values = np.sort(values)
    edges = np.flatnonzero(np.diff(values, prepend=values[:1] - 1,
                                   append=values[-1:] + 1))
    return values[edges[:-1]], np.diff(edges)


#: Reads of one length a chunk needs before they pile as a block.  A
#: block costs ~20 array calls whatever its size, the segment walk a few
#: microseconds per read: on chunks with half their reads trimmed to
#: ~60 scattered lengths, one block per length piles ~3x slower than
#: this floor (``benchmarks/bench_vectorized_kernels.py``, trimmed
#: chunks).
_BLOCK_MIN_READS = 64


def _block_lengths(lens: np.ndarray) -> np.ndarray:
    """The nonzero read lengths held by at least :data:`_BLOCK_MIN_READS`
    of ``lens``, ascending."""
    lengths, reads = _runs(lens[lens > 0])
    return lengths[reads >= _BLOCK_MIN_READS]


def _full_match(arrays: ResultsArrays, idx: np.ndarray,
                lens: np.ndarray) -> np.ndarray:
    """Per kept read: does it pile in a block — is its CIGAR exactly
    ``<L>M`` with ``L`` its base count, a length common in the chunk?
    One byte compare per such length, no CIGAR parse."""
    cstart = arrays.cigar_starts[idx]
    clen = arrays.cigar_ends[idx] - cstart
    full = np.zeros(idx.size, dtype=bool)
    for length in _block_lengths(lens):
        want = np.frombuffer(b"%dM" % length, dtype=np.uint8)
        cand = np.flatnonzero((lens == length) & (clen == want.size))
        got = arrays.cigar_buf[cstart[cand, None] + np.arange(want.size)]
        full[cand[(got == want).all(axis=1)]] = True
    return full


def _block_keys(arrays, rows, length, bases_col, quals_col, floor):
    """Pileup keys ``5 * ref_pos + code`` of the good bases of reads
    ``rows``, each ``<length>M`` over ``length`` bases: one
    ``(reads, length)`` matrix, no per-base index arrays."""
    codes = _kept_codes(bases_col, rows).reshape(-1, length)
    good = _gather_kept(quals_col, rows)[0].reshape(-1, length) >= floor
    _check_counted_codes(codes, good)
    all_good = bool(good.all())
    rev = np.flatnonzero(arrays.is_reverse[rows])
    if rev.size:
        codes[rev] = _COMPLEMENT_CODE.take(codes[rev, ::-1])
        if not all_good:
            good[rev] = good[rev, ::-1]
    keys = np.add.outer(arrays.position[rows].astype(np.int64) * 5,
                        np.arange(0, 5 * length, 5, dtype=np.int64))
    keys += codes
    return keys.reshape(-1) if all_good else keys[good]


def _ragged_keys(arrays, rows, lens, bases_col, quals_col, floor):
    """Pileup keys of the good bases of reads ``rows``, of any CIGAR,
    walked segment by segment."""
    ops = parse_cigars(
        arrays.cigar_buf, arrays.cigar_starts[rows], arrays.cigar_ends[rows]
    )
    gread = cumsum0(ops.length * _CONSUMES_READ[ops.op])
    gref = cumsum0(ops.length * _CONSUMES_REF[ops.op])
    first = ops.first_op[ops.record]
    m = _IS_ALIGN_OP[ops.op]
    seg_len = ops.length[m]
    if seg_len.size == 0:
        return np.zeros(0, np.int64)
    seg_rec = ops.record[m]
    seg_read_local = (gread[:-1] - gread[first])[m]
    # Per-record bound: an aligned segment reaching past its own read
    # would silently index a neighbor's bases in the concatenated
    # buffer; the scalar walk raises there, so must we.
    if np.any(seg_read_local + seg_len > lens[seg_rec]):
        raise ValueError(
            "CIGAR consumes more read bases than the record has"
        )
    seg_ref = (arrays.position[rows].astype(np.int64)[ops.record]
               + gref[:-1] - gref[first])[m]
    seg_rev = arrays.is_reverse[rows][seg_rec]
    starts = cumsum0(lens)
    seg_buf = starts[seg_rec] + np.where(
        seg_rev, lens[seg_rec] - 1 - seg_read_local, seg_read_local
    )

    # Expand segments to bases.  Base k of the expansion (``ramp[k]``)
    # is base ``k - seg_first`` of its segment, so its reference
    # position is ``seg_ref + (k - seg_first)`` and its buffer index
    # ``seg_buf + seg_step * (k - seg_first)``: the per-segment constant
    # is repeated, the ramp is shared.
    seg_first = cumsum0(seg_len)
    ramp = np.arange(int(seg_first[-1]))
    seg_first = seg_first[:-1]
    seg_step = np.where(seg_rev, -1, 1)
    keys = np.repeat(5 * (seg_ref - seg_first), seg_len)
    keys += 5 * ramp
    read_idx = np.repeat(seg_step, seg_len)
    read_idx *= ramp
    read_idx += np.repeat(seg_buf - seg_step * seg_first, seg_len)

    good = _gather_kept(quals_col, rows)[0].take(read_idx) >= floor
    codes = _kept_codes(bases_col, rows)
    reverse = np.repeat(arrays.is_reverse[rows], lens)
    codes[reverse] = _COMPLEMENT_CODE.take(codes[reverse])
    codes = codes.take(read_idx)
    _check_counted_codes(codes, good)
    keys += codes
    return keys.compress(good)


def _contig_keys(arrays, rows, lens, full, bases_col, quals_col, floor):
    """Pileup keys of kept reads ``rows`` (one contig's): a block per
    distinct length of the ``full`` ones, a segment walk for the rest."""
    parts = [
        _block_keys(arrays, rows[full & (lens == length)], int(length),
                    bases_col, quals_col, floor)
        for length in _runs(lens[full])[0]
    ]
    if not full.all():
        parts.append(_ragged_keys(arrays, rows[~full], lens[~full],
                                  bases_col, quals_col, floor))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def pileup_partial(results, bases_col, quals_col, config) -> dict:
    """Vectorized analog of :func:`repro.core.varcall.pileup_records`.

    Returns a pileup partial (see :data:`PileupPartial`); partials fold
    commutatively into a :class:`PileupWindow`, so per-chunk partials
    can still fan out across any backend.

    The kernel works on base codes 0-4 (A,C,G,T,N), whatever its input:
    a packed bases column yields them from the kept reads' words, an
    ASCII one maps its bytes once.  A reverse read's bases are its
    stored codes read back to front through the complement table.  A
    kept read whose CIGAR is exactly ``<L>M`` over its ``L`` bases (the
    sequencer's usual read) joins a ``(reads, L)`` block, one per ``L``
    that at least :data:`_BLOCK_MIN_READS` kept reads share; every
    other read walks its CIGAR segments.  Both
    give keys ``5 * ref_pos + code`` that one ``bincount`` per contig
    counts.  On the downstream suite's 30 sorted chunks this takes
    ~35 ms (the ASCII-and-segments kernel it replaced: ~85 ms).
    """
    arrays = _ensure_results_arrays(results)
    keep = arrays.is_aligned & (arrays.mapq >= config.min_mapq)
    if config.skip_duplicates:
        keep &= ~arrays.is_duplicate
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return {}
    lens = _kept_lengths(bases_col, idx)
    if not np.array_equal(lens, _kept_lengths(quals_col, idx)):
        raise ValueError("bases/qual record lengths disagree")
    floor = config.min_base_quality + 33
    full = _full_match(arrays, idx, lens)
    contigs = arrays.contig_index[idx]
    partial: dict = {}
    for contig in _runs(contigs)[0]:
        on = contigs == contig
        k = _contig_keys(arrays, idx[on], lens[on], full[on], bases_col,
                         quals_col, floor)
        if k.size == 0:
            continue
        # A key's position is ``key // 5`` (floor division: exact for
        # negative positions too), so the span is the keys' range.
        pmin = int(k.min()) // 5
        span = int(k.max()) // 5 - pmin + 1
        _check_dense_span(span, int(k.size), int(contig))
        # One bincount histogram over the covered range: positions piled
        # by reads are contiguous in practice, so dense is the fast form.
        # (``k`` is this function's own array: the index is built in it.)
        k -= 5 * pmin
        counts = np.bincount(k, minlength=span * 5)
        partial[int(contig)] = (
            pmin, counts.reshape(span, 5).astype(np.int32)
        )
    return partial


#: Dense accumulators below this span are always fine (80 MB of int32).
_DENSE_SPAN_FLOOR = 1 << 22


def _check_dense_span(span: int, covered: int, contig: int) -> None:
    """Guard the dense pileup representation against sparse-and-wide
    coverage (e.g. exome targets at both ends of a chromosome), where
    O(span) memory would dwarf the scalar dict's O(covered positions).
    Dense whole-genome pileups pass: there ``covered ~ span``."""
    if span > max(_DENSE_SPAN_FLOOR, 64 * covered):
        raise ColumnarFallback(
            f"pileup span {span} on contig {contig} too sparse for the "
            f"dense columnar accumulator ({covered} covered entries)"
        )


def pileup_to_columns(pile: dict) -> dict:
    """Convert a pileup partial into the scalar ``dict[(contig, pos) ->
    PileupColumn]`` representation (equivalence tests and interop)."""
    from collections import Counter

    from repro.core.varcall import PileupColumn

    columns: dict = {}
    for contig, (start, mat) in pile.items():
        depth = mat.sum(axis=1, dtype=np.int64)
        for i in np.flatnonzero(depth):
            counts = Counter()
            for code in range(5):
                c = int(mat[i, code])
                if c:
                    counts[int(BASE_BYTES[code])] = c
            columns[(contig, start + int(i))] = PileupColumn(
                depth=int(depth[i]), counts=counts
            )
    return columns


#: Reference byte -> pileup matrix column; 5 (no column) for a byte the
#: matrix does not count, which therefore matches no piled base.
_REF_COL_LUT = np.full(256, 5, dtype=np.intp)
_REF_COL_LUT[BASE_BYTES] = np.arange(5)


def first_aligned_start(results) -> "tuple[int, int] | None":
    """``(contig, position)`` of a chunk's first aligned record — its
    lowest location when the chunk is location-sorted."""
    arrays = _ensure_results_arrays(results)
    aligned = np.flatnonzero(arrays.is_aligned)
    if aligned.size == 0:
        return None
    first = aligned[0]
    return int(arrays.contig_index[first]), int(arrays.position[first])


_NO_ROWS = np.zeros((0, 5), dtype=np.int32)


class PileupWindow:
    """The pileup accumulator and caller (vectorized analog of
    ``merge_pileups`` + :func:`repro.core.varcall.call_from_pileup`).

    Per contig, one dense int32 ``(capacity, 5)`` count buffer over
    reference positions ``[start, start + rows)``, grown by doubling.
    Location-sorted input calls :meth:`flush_below` with each chunk's
    first aligned start before it adds the chunk: the window then holds
    O(chunk span + read length) rows, and :attr:`variants` fill, in
    order, while chunks still stream.  Any other input never flushes
    early, and the window grows to each contig's covered span.
    """

    def __init__(self, reference, config=None):
        from repro.core.varcall import VarCallConfig

        self.reference = reference
        self.config = config or VarCallConfig()
        self.variants: list = []
        #: The most rows ever held at once, over all contigs.
        self.high_water_rows = 0
        # contig -> (start, rows, buffer); buffer rows >= ``rows`` are zero.
        self._live: dict = {}
        # Everything below this (contig, position) is called already.
        self._low: tuple = (float("-inf"), 0)

    def add(self, partial: dict) -> None:
        """Fold one :func:`pileup_partial` in.  Every contig is checked
        before any is touched, so a :class:`ColumnarFallback` leaves the
        window as it was and the caller can :meth:`drain` it into the
        scalar representation without double counting."""
        staged = []
        for contig, (start, mat) in partial.items():
            if start < 0:
                # A malformed record's positions before the contig's
                # first base: never callable, never indexed.
                mat, start = mat[-start:], 0
            if (contig, start) < self._low:
                raise ValueError(
                    f"pileup on contig {contig} at position {start} is "
                    f"below the low-water mark {self._low}: the input is "
                    f"not location-sorted"
                )
            held_start, held_rows, buf = self._live.get(
                contig, (start, 0, _NO_ROWS))
            if not held_rows:
                held_start = start
            lo = min(start, held_start)
            hi = max(start + mat.shape[0], held_start + held_rows)
            if held_rows:
                _check_dense_span(hi - lo, held_rows + mat.shape[0], contig)
            if lo < held_start or hi - lo > buf.shape[0]:
                grown = np.zeros((max(hi - lo, 2 * buf.shape[0]), 5),
                                 dtype=np.int32)
                grown[held_start - lo:held_start - lo + held_rows] = \
                    buf[:held_rows]
                buf = grown
            staged.append((contig, lo, hi - lo, buf, start - lo, mat))
        for contig, lo, rows, buf, at, mat in staged:
            buf[at:at + mat.shape[0]] += mat
            self._live[contig] = (lo, rows, buf)
        self.high_water_rows = max(
            self.high_water_rows,
            sum(rows for _, rows, _ in self._live.values()),
        )

    def flush_below(self, mark: "tuple[int, int]") -> None:
        """Call and drop every position below the ``(contig, position)``
        mark; a later mark or partial below it raises ``ValueError``."""
        if mark < self._low:
            raise ValueError(
                f"location {mark} is below the low-water mark {self._low}: "
                f"the input is not location-sorted"
            )
        self._low = mark
        for contig in sorted(c for c in self._live if c <= mark[0]):
            start, rows, buf = self._live.pop(contig)
            done = rows if contig < mark[0] \
                else min(max(mark[1] - start, 0), rows)
            self._call_rows(contig, start, buf[:done])
            if contig == mark[0]:
                buf[:rows - done] = buf[done:rows]  # overlap-safe in numpy
                buf[rows - done:rows] = 0
                self._live[contig] = (start + done, rows - done, buf)

    def finish(self) -> list:
        """Call everything still held; returns :attr:`variants`."""
        for contig in sorted(self._live):
            start, rows, buf = self._live.pop(contig)
            self._call_rows(contig, start, buf[:rows])
        return self.variants

    def drain(self) -> dict:
        """Hand the live rows over as one pileup partial, emptying the
        window (the mid-stream demotion to the scalar reference)."""
        live, self._live = self._live, {}
        return {contig: (start, buf[:rows])
                for contig, (start, rows, buf) in live.items() if rows}

    def _call_rows(self, contig_index: int, start: int, mat) -> None:
        """Apply the calling thresholds to rows ``mat`` of reference
        positions ``start`` (>= 0) onward.  Integer array comparisons
        pick the rows that can call; the few surviving sites recompute
        fraction/quality in plain Python, so the emitted records (floats
        included) are bit-identical to the scalar caller's."""
        from repro.formats.vcf import VariantRecord

        config = self.config
        contig = self.reference.contigs[contig_index]
        seq = np.frombuffer(contig.sequence, dtype=np.uint8)
        mat = mat[:max(0, seq.size - start)]
        if mat.shape[0] == 0:
            return
        # Five column adds: a 5-wide ``sum(axis=1)`` costs ~7x as much.
        depth = mat[:, 0].astype(np.int64)
        for col in range(1, 5):
            depth += mat[:, col]
        ref_bases = seq[start:start + depth.size]
        ref_col = _REF_COL_LUT[ref_bases]
        ref_count = np.where(
            ref_col < 5,
            np.ravel(mat).take(np.arange(0, 5 * depth.size, 5)
                               + np.minimum(ref_col, 4)),
            0,
        )
        # A row whose only base is the reference base cannot call.
        rows = np.flatnonzero((depth >= config.min_depth) & (depth > ref_count))
        if rows.size == 0:
            return
        ref_bases = ref_bases[rows]
        ranked = mat[rows][:, _BYTE_DESC_COLS]
        best = np.argmax(ranked, axis=1)
        alt_bytes = _BYTE_DESC_BYTES[best]
        alt_counts = ranked[np.arange(best.size), best]
        for i in np.flatnonzero(alt_bytes != ref_bases):
            alt_count = int(alt_counts[i])
            column_depth = int(depth[rows[i]])
            fraction = alt_count / column_depth
            if fraction < config.min_alt_fraction:
                continue
            quality = min(99.0, 10.0 * alt_count * fraction)
            self.variants.append(
                VariantRecord(
                    chrom=contig.name,
                    pos=start + int(rows[i]) + 1,
                    ref=chr(int(ref_bases[i])),
                    alt=chr(int(alt_bytes[i])),
                    qual=quality,
                    info={
                        "DP": column_depth,
                        "AF": f"{fraction:.3f}",
                    },
                )
            )


# --------------------------------------------------------------------------
# Sort keys and permutations (what repro.core.sort orders columns by).

#: Packed key for unmapped reads: sorts after every aligned key (whose
#: top bit is always clear), mirroring ``AlignmentResult.location_key``.
UNMAPPED_PACKED_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


def sort_keys(order: str, column) -> "np.ndarray | None":
    """One numpy sort key per record of the order's key column (the
    results column for ``location``, metadata for ``metadata``).

    Location keys pack ``(contig, position)`` into a uint64 (contig in
    the high 31 bits, position in the low 32; unmapped reads after every
    aligned key, as ``AlignmentResult.location_key`` orders them);
    metadata keys become a fixed-width byte array.  Returns ``None``
    when the records cannot be packed without changing the comparison
    order (position out of the 32-bit range; metadata containing NUL
    bytes, which numpy's ``S`` dtype treats as padding) —
    :func:`sort_permutation` then orders them another way.
    """
    if order == "location":
        arrays = _ensure_results_arrays(column)
        aligned = arrays.is_aligned
        contig = arrays.contig_index[aligned].astype(np.int64)
        pos = arrays.position[aligned]
        if contig.size and (
            int(contig.min()) < 0
            or int(pos.min()) < 0
            or int(pos.max()) >= 1 << 32
        ):
            return None
        keys = np.full(len(arrays), UNMAPPED_PACKED_KEY, dtype=np.uint64)
        keys[aligned] = (contig.astype(np.uint64) << np.uint64(32)) \
            | pos.astype(np.uint64)
        return keys
    if order == "metadata":
        column = TextColumn.from_records(column)
        if not len(column):
            return np.zeros(0, dtype="S1")
        flat = column.flat[column.bounds[0]:column.bounds[-1]]
        if not flat.all():
            return None
        lens = column.lengths
        width = max(1, int(lens.max()))
        padded = np.zeros((lens.size, width), dtype=np.uint8)
        padded.reshape(-1)[
            ragged_index(np.arange(lens.size) * width, lens)
        ] = flat
        return padded.view(f"S{width}")[:, 0]
    raise ValueError(f"unknown sort order {order!r} (location|metadata)")


def fallback_sort_keys(order: str, column) -> np.ndarray:
    """One Python sort key per record, in an object array: the
    ``location_key()`` tuples of the results column, or the metadata
    ``bytes`` — what orders records whose :func:`sort_keys` do not pack.
    They compare exactly as the packed keys do wherever those exist."""
    if order == "location":
        arrays = _ensure_results_arrays(column)
        aligned = arrays.is_aligned
        keys = zip(
            np.where(aligned, arrays.contig_index, 0x7FFFFFFF).tolist(),
            np.where(aligned, arrays.position, 0x7FFFFFFFFFFFFFFF).tolist(),
        )
        return np.fromiter(keys, dtype=object, count=len(arrays))
    return np.fromiter(column, dtype=object, count=len(column))


def sort_permutation(order: str, column) -> "tuple[np.ndarray, np.ndarray | None]":
    """``(permutation, keys)``: the stable permutation sorting
    ``column``'s records by ``order``, and their :func:`sort_keys`.

    Packable keys sort with one stable ``np.argsort``; records that do
    not pack (``keys`` is None) sort stably by their
    :func:`fallback_sort_keys` — the same order either way, and exactly
    the order a stable ``list.sort`` over ``location_key()`` / the
    metadata bytes gives.
    """
    keys = sort_keys(order, column)
    if keys is not None:
        return np.argsort(keys, kind="stable"), keys
    return np.argsort(fallback_sort_keys(order, column), kind="stable"), None


# --------------------------------------------------------------------------
# Duplicate signatures and marking (repro.core.dupmark holds the
# object-level specification).

#: Structured signature rows.  tag 0 = single-end (c2/p2/s2 zero), 1 =
#: paired fragment; s1/s2 are strands, 0 or 1.  Two records are
#: duplicates iff their rows compare equal, exactly matching the tuple
#: signatures of ``fragment_signature``.
SIGNATURE_DTYPE = np.dtype(
    [
        ("tag", "u1"),
        ("c1", "<i8"),
        ("p1", "<i8"),
        ("s1", "u1"),
        ("c2", "<i8"),
        ("p2", "<i8"),
        ("s2", "u1"),
    ]
)


def unclipped_positions(arrays: ResultsArrays) -> np.ndarray:
    """Vectorized :func:`repro.core.dupmark.unclipped_position` for every
    record at once (values for unmapped records are meaningless)."""
    n = len(arrays)
    ops = parse_cigars(arrays.cigar_buf, arrays.cigar_starts,
                       arrays.cigar_ends)
    span = np.zeros(n, dtype=np.int64)
    np.add.at(span, ops.record, ops.length * _CONSUMES_REF[ops.op])
    lead = np.zeros(n, dtype=np.int64)
    trail = np.zeros(n, dtype=np.int64)
    ne = ops.op_count > 0
    if ne.any():
        fi = ops.first_op[ne]
        la = fi + ops.op_count[ne] - 1
        lead[ne] = np.where(ops.op[fi] == ord("S"), ops.length[fi], 0)
        trail[ne] = np.where(ops.op[la] == ord("S"), ops.length[la], 0)
    pos = arrays.position.astype(np.int64)
    return np.where(
        arrays.is_reverse, pos + span + trail - 1, pos - lead
    )


def fragment_signature_arrays(
    arrays: ResultsArrays,
) -> "tuple[np.ndarray, np.ndarray]":
    """Batch analog of :func:`repro.core.dupmark.fragment_signature`.

    Returns ``(signatures, valid)``; rows where ``valid`` is False are
    unmapped (signature None in the scalar path).
    """
    n = len(arrays)
    valid = arrays.is_aligned.copy()
    sig = np.zeros(n, dtype=SIGNATURE_DTYPE)
    if n == 0:
        return sig, valid
    unclipped = unclipped_positions(arrays)
    rev = arrays.is_reverse
    rev_u1 = rev.astype(np.uint8)
    c = arrays.contig_index.astype(np.int64)
    p = unclipped
    paired = arrays.is_paired & (arrays.next_contig_index >= 0)

    # Single-end layout is the default; c2/p2/s2 stay zero.
    sig["c1"] = c
    sig["p1"] = p
    sig["s1"] = rev_u1
    sig["tag"] = paired
    if not paired.any():
        return sig, valid
    mc = arrays.next_contig_index.astype(np.int64)
    mp = arrays.next_position.astype(np.int64)
    # Canonical fragment orientation: ((mate, not rev) < (own, rev)) puts
    # the mate first — the same lexicographic test as the scalar tuples.
    cond = (mc < c) | ((mc == c) & ((mp < p) | ((mp == p) & rev)))
    swap = paired & cond
    keep = paired & ~cond
    c1 = sig["c1"]
    p1 = sig["p1"]
    s1 = sig["s1"]
    c2 = sig["c2"]
    p2 = sig["p2"]
    s2 = sig["s2"]
    c1[swap] = mc[swap]
    p1[swap] = mp[swap]
    s1[swap] = 1 - rev_u1[swap]
    c2[swap] = c[swap]
    p2[swap] = p[swap]
    s2[swap] = rev_u1[swap]
    c2[keep] = mc[keep]
    p2[keep] = mp[keep]
    s2[keep] = 1 - rev_u1[keep]
    return sig, valid


#: Bit layout of a packed single-end signature key, low bits first: the
#: strand, the unclipped 5' position, the contig.  Equal keys mean equal
#: signatures.  A signature that does not fit (a paired fragment, a
#: position below zero or past the layout, a contig past it) keeps its
#: packed struct bytes instead; a signature either packs or it does not,
#: so the two key spaces never overlap.
SIG_STRAND_BITS = 1
SIG_POSITION_BITS = 32
SIG_CONTIG_BITS = 31


def _signature_keys(sigs: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(packs, keys)``: which signature rows pack into the uint64
    layout above, and the keys of those rows, in row order."""
    c1 = sigs["c1"]
    p1 = sigs["p1"]
    s1 = sigs["s1"]
    packs = (
        (sigs["tag"] == 0)
        & (c1 >= 0) & (c1 < 1 << SIG_CONTIG_BITS)
        & (p1 >= 0) & (p1 < 1 << SIG_POSITION_BITS)
    )
    if not packs.all():
        c1, p1, s1 = c1[packs], p1[packs], s1[packs]
    keys = (
        (c1.astype(np.uint64)
         << np.uint64(SIG_POSITION_BITS + SIG_STRAND_BITS))
        | (p1.astype(np.uint64) << np.uint64(SIG_STRAND_BITS))
        | s1
    )
    return packs, keys


class DuplicateTracker:
    """Cross-chunk duplicate scanning over signature arrays.

    The array form of :func:`repro.core.dupmark.scan_signatures`: the
    first fragment seen with a signature wins, so chunks must still
    arrive in deterministic order.  Seen signatures come in the two
    kinds the sort's keys do (:func:`sort_keys` /
    :func:`fallback_sort_keys`):

    * a single-end signature that fits the ``SIG_*_BITS`` layout is one
      ``uint64`` key, ~8 B per distinct signature.  Within a chunk,
      repeats collapse with one stable ``np.argsort`` over the keys.
      Each chunk's new distinct keys become a sorted level, and
      adjacent levels merge while the newer is at least half the
      older's size: O(log n) levels, each key merged O(log n) times,
      and a probe is one ``np.searchsorted`` per level;
    * every other signature (paired fragments, positions or contigs
      outside the layout) collapses with one stable ``np.lexsort`` over
      its integer fields and probes a ``set`` of its packed struct
      bytes — the Samblaster hashing idea, ~130 B per signature.
    """

    #: Sort keys, least significant first; rows with no paired fragment
    #: have tag/c2/p2/s2 all zero and sort on the first three.
    _SINGLE_KEYS = ("s1", "p1", "c1")
    _PAIRED_KEYS = ("s2", "p2", "c2") + _SINGLE_KEYS + ("tag",)

    def __init__(self) -> None:
        #: Sorted, disjoint uint64 key arrays, oldest (largest) first.
        self._levels: list[np.ndarray] = []
        self._seen: set[bytes] = set()

    def scan(self, sigs: np.ndarray, valid: np.ndarray, stats) -> list[int]:
        """Update stats and the seen keys; return duplicate positions."""
        idx = np.flatnonzero(valid)
        stats.records += int(valid.size)
        stats.unmapped += int(valid.size - idx.size)
        if idx.size == 0:
            return []
        cur = sigs[idx]
        packs, keys = _signature_keys(cur)
        dup = np.ones(cur.size, dtype=bool)
        if keys.size:
            dup[np.flatnonzero(packs)[self._scan_keys(keys)]] = False
        if keys.size < cur.size:
            rows = np.flatnonzero(~packs)
            dup[rows[self._scan_rows(cur[rows])]] = False
        stats.duplicates_marked += int(dup.sum())
        return idx[dup].tolist()

    def _scan_keys(self, keys: np.ndarray) -> np.ndarray:
        """Positions in ``keys`` of the first occurrences of keys never
        seen before, which join the seen levels."""
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        # Stable sort: each run of equal keys starts at its first
        # occurrence in chunk order.
        leads = np.ones(order.size, dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=leads[1:])
        distinct = ranked[leads]
        known = np.zeros(distinct.size, dtype=bool)
        for level in self._levels:
            at = np.searchsorted(level, distinct)
            known |= level[np.minimum(at, level.size - 1)] == distinct
        new = ~known
        if new.any():
            levels = self._levels
            levels.append(distinct[new])
            while len(levels) > 1 and 2 * levels[-1].size >= levels[-2].size:
                newer = levels.pop()
                merged = np.concatenate((levels[-1], newer))
                merged.sort(kind="stable")  # two sorted runs: one merge
                levels[-1] = merged
        return order[leads][new]

    def _scan_rows(self, cur: np.ndarray) -> np.ndarray:
        """:meth:`_scan_keys` for signature rows that do not pack."""
        keys = self._PAIRED_KEYS if cur["tag"].any() else self._SINGLE_KEYS
        columns = [cur[key] for key in keys]
        order = np.lexsort(columns)
        leads = np.ones(order.size, dtype=bool)
        leads[1:] = np.logical_or.reduce([
            ranked[1:] != ranked[:-1]
            for ranked in (col[order] for col in columns)
        ])
        first = order[leads]
        packed = cur[first].view(f"V{cur.dtype.itemsize}").tolist()
        seen = self._seen
        known = np.fromiter(map(seen.__contains__, packed), dtype=bool,
                            count=len(packed))
        seen.update(packed)
        return first[~known]
