"""The ASCII-and-segments pileup kernel, kept as the test oracle for
``repro.core.columnar.pileup_partial``.

It unpacks every read's packed bases to ASCII
(``PackedBasesColumn.decoded()``), maps the ASCII back to matrix columns
through a per-strand byte table, and walks every read's CIGAR segments
through int64 per-base index arrays.  The kernel that replaced it reads
base codes straight from the packed words and piles reads that are
``<L>M`` as one 2-D block; agreeing with this one partial for partial
means it changed nothing but speed.
"""

from __future__ import annotations

import numpy as np

from repro.agd.columns import RaggedColumn, cumsum0
from repro.core.columnar import (
    _CONSUMES_READ,
    _CONSUMES_REF,
    _IS_ALIGN_OP,
    ColumnarFallback,
    _check_dense_span,
    _ensure_results_arrays,
    parse_cigars,
)

#: Base byte -> pileup matrix column (A,C,G,T,N); 255 marks a byte the
#: matrix cannot hold.  Row 0 reads a forward read's stored byte, row 1
#: a reverse read's as its complement.
_BYTE_STRAND_LUT = np.full((2, 256), 255, dtype=np.uint8)
for _i, (_c, _rc) in enumerate(zip(b"ACGTN", b"TGCAN")):
    _BYTE_STRAND_LUT[0, _c] = _i
    _BYTE_STRAND_LUT[1, _rc] = _i
_BYTE_STRAND_LUT = _BYTE_STRAND_LUT.reshape(-1)


def _gather_kept(col, idx: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The kept records of a column as one uint8 array (packed bases
    unpacked to ASCII first) and their lengths."""
    if isinstance(col, RaggedColumn):
        kept = col.decoded().take(idx)
        return kept.flat, kept.lengths
    kept = [col[int(i)] for i in idx]
    lens = np.fromiter((len(b) for b in kept), np.int64, idx.size)
    return np.frombuffer(b"".join(kept), dtype=np.uint8), lens


def oracle_pileup_partial(results, bases_col, quals_col, config) -> dict:
    """A pileup partial (``repro.core.columnar.PileupPartial``) of one
    chunk, every read walked segment by segment."""
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
    codes = _BYTE_STRAND_LUT.take(lut_row).compress(good)
    if codes.size and int(codes.max()) == 255:
        raise ColumnarFallback("non-ACGTN base byte in pileup fast path")
    ref_pos = ref_pos.compress(good)

    contigs = arrays.contig_index[idx]
    low, high = int(contigs.min()), int(contigs.max())
    if low == high:
        groups = [(low, ref_pos, codes)]
    else:
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
        p -= pmin
        p *= 5
        p += c5
        counts = np.bincount(p, minlength=span * 5)
        partial[int(contig)] = (
            pmin, counts.reshape(span, 5).astype(np.int32)
        )
    return partial
