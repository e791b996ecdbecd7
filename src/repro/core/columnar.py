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

from repro.agd.columns import RaggedColumn, TextColumn, cumsum0, ragged_index
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

#: Base byte -> pileup matrix column, in 3-bit-code order (A,C,G,T,N);
#: 255 marks a byte the matrix cannot hold.  Row 0 reads a forward
#: read's stored byte; row 1 reads a reverse read's — whose stored bases
#: are the reverse complement of what aligned — as its complement.
_STRAND_CODE_LUT = np.full((2, 256), 255, dtype=np.uint8)
for _i, (_c, _rc) in enumerate(zip(b"ACGTN", b"TGCAN")):
    _STRAND_CODE_LUT[0, _c] = _i
    _STRAND_CODE_LUT[1, _rc] = _i
_STRAND_CODE_LUT = _STRAND_CODE_LUT.reshape(-1)

#: Matrix column -> base byte.
BASE_BYTES = np.frombuffer(b"ACGTN", dtype=np.uint8)

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


def _gather_kept(col, idx: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Concatenate the kept records of a column as one uint8 array.

    A :class:`~repro.agd.columns.RaggedColumn` gathers straight from its
    flat array (unpacking still-packed bases first) in one fancy-index
    pass — no per-record bytes objects, no join copy.  List-of-buffers
    columns take the join path; ``b"".join`` accepts any buffer, so
    views are consumed in place.
    """
    if isinstance(col, RaggedColumn):
        kept = col.decoded().take(idx)
        return kept.flat, kept.lengths
    kept = [col[int(i)] for i in idx]
    lens = np.fromiter((len(b) for b in kept), np.int64, idx.size)
    return np.frombuffer(b"".join(kept), dtype=np.uint8), lens


def pileup_partial(results, bases_col, quals_col, config) -> dict:
    """Vectorized analog of :func:`repro.core.varcall.pileup_records`.

    Returns a pileup partial (see :data:`PileupPartial`); partials fold
    commutatively into a :class:`PileupWindow`, so per-chunk partials
    can still fan out across any backend.

    Reads are walked where they lie: a reverse read's aligned segment is
    the same stored bytes read back to front through the complementing
    row of the base-code LUT, so strand is a per-segment buffer start
    and a +-1 step — no strand-corrected copy of bases or qualities.
    """
    arrays = _ensure_results_arrays(results)
    keep = arrays.is_aligned & (arrays.mapq >= config.min_mapq)
    if config.skip_duplicates:
        keep &= ~arrays.is_duplicate
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return {}
    raw_b, lens = _gather_kept(bases_col, idx)
    raw_q, qlens = _gather_kept(quals_col, idx)
    if not np.array_equal(lens, qlens):
        raise ValueError("bases/qual record lengths disagree")
    starts = cumsum0(lens)

    # Per CIGAR op: its offset into the (strand-corrected) read and its
    # reference position.
    ops = parse_cigars(
        arrays.cigar_buf, arrays.cigar_starts[idx], arrays.cigar_ends[idx]
    )
    gread = cumsum0(ops.length * _CONSUMES_READ[ops.op])
    gref = cumsum0(ops.length * _CONSUMES_REF[ops.op])
    first = ops.first_op[ops.record]
    m = _IS_ALIGN_OP[ops.op]
    seg_len = ops.length[m]
    if seg_len.size == 0:
        return {}
    seg_rec = ops.record[m]
    seg_read_local = (gread[:-1] - gread[first])[m]
    # Per-record bound: an aligned segment reaching past its own read
    # would silently index a neighbor's bases in the concatenated
    # buffer; the scalar walk raises there, so must we.
    if np.any(seg_read_local + seg_len > lens[seg_rec]):
        raise ValueError(
            "CIGAR consumes more read bases than the record has"
        )
    seg_ref = (arrays.position[idx].astype(np.int64)[ops.record]
               + gref[:-1] - gref[first])[m]
    seg_rev = arrays.is_reverse[idx][seg_rec]
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
    ref_pos = np.repeat(seg_ref - seg_first, seg_len)
    ref_pos += ramp
    read_idx = np.repeat(seg_step, seg_len)
    read_idx *= ramp
    read_idx += np.repeat(seg_buf - seg_step * seg_first, seg_len)

    good = raw_q.take(read_idx) >= config.min_base_quality + 33
    lut_row = np.repeat(np.where(seg_rev, 256, 0).astype(np.uint16), seg_len)
    lut_row += raw_b.take(read_idx)
    codes = _STRAND_CODE_LUT.take(lut_row).compress(good)
    if codes.size and int(codes.max()) == 255:
        # Lowercase / IUPAC bytes: the scalar Counter keys raw bytes,
        # which the 5-column matrix cannot represent — fall back.
        raise ColumnarFallback("non-ACGTN base byte in pileup fast path")
    ref_pos = ref_pos.compress(good)

    contigs = arrays.contig_index[idx]
    low, high = int(contigs.min()), int(contigs.max())
    if low == high:
        groups = [(low, ref_pos, codes)]
    else:
        # One per-base contig vector, only for a subchunk that spans
        # contigs; the contigs present come from the per-read array.
        contig_per_base = np.repeat(contigs[seg_rec], seg_len).compress(good)
        groups = []
        for contig in np.flatnonzero(np.bincount(contigs - low)) + low:
            cm = contig_per_base == contig
            groups.append((contig, ref_pos.compress(cm), codes.compress(cm)))
    partial: dict = {}
    for contig, p, c5 in groups:
        if p.size == 0:
            continue
        pmin = int(p.min())
        span = int(p.max()) - pmin + 1
        _check_dense_span(span, int(p.size), int(contig))
        # One bincount histogram over the covered range: positions piled
        # by reads are contiguous in practice, so dense is the fast form.
        # (``p`` is this function's own array: the index is built in it.)
        p -= pmin
        p *= 5
        p += c5
        counts = np.bincount(p, minlength=span * 5)
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
        depth = mat.sum(axis=1, dtype=np.int64)
        ref_bases = seq[start:start + depth.size]
        ref_col = _REF_COL_LUT[ref_bases]
        ref_count = np.where(
            ref_col < 5, mat[np.arange(depth.size), np.minimum(ref_col, 4)], 0
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

#: Structured signature rows.  tag 0 = single-end, 1 = paired fragment;
#: two records are duplicates iff their rows compare equal, exactly
#: matching the tuple signatures of ``fragment_signature``.
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


class DuplicateTracker:
    """Cross-chunk duplicate scanning over signature arrays.

    The array form of :func:`repro.core.dupmark.scan_signatures`: the
    first fragment seen with a signature wins, so chunks must still
    arrive in deterministic order.  Within a chunk, repeats collapse
    with one stable ``np.lexsort`` over the signature's integer fields;
    only the (few) distinct signatures probe the cross-chunk seen set,
    keyed by their packed struct bytes — the Samblaster hashing idea,
    fed by array extraction.
    """

    #: Sort keys, least significant first; a chunk with no paired
    #: fragment has tag/c2/p2/s2 all zero and sorts on the first three.
    _SINGLE_KEYS = ("s1", "p1", "c1")
    _PAIRED_KEYS = ("s2", "p2", "c2") + _SINGLE_KEYS + ("tag",)

    def __init__(self) -> None:
        self._seen: set[bytes] = set()

    def scan(self, sigs: np.ndarray, valid: np.ndarray, stats) -> list[int]:
        """Update stats and the seen set; return duplicate positions."""
        idx = np.flatnonzero(valid)
        stats.records += int(valid.size)
        stats.unmapped += int(valid.size - idx.size)
        if idx.size == 0:
            return []
        cur = sigs[idx]
        keys = self._PAIRED_KEYS if cur["tag"].any() else self._SINGLE_KEYS
        columns = [cur[key] for key in keys]
        order = np.lexsort(columns)
        # Stable sort: each run of equal signatures starts at its first
        # occurrence in chunk order.
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
        dup = np.ones(cur.size, dtype=bool)
        dup[first[~known]] = False
        stats.duplicates_marked += int(dup.sum())
        return idx[dup].tolist()
