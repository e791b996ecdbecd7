"""Duplicate marking, Samblaster-style (§4.3, §5.6).

"Duplicate marking is a process of marking reads that map to the exact
same location on the reference genome ... Persona duplicate marking uses
an efficient hashing technique based on the approach used by
Samblaster [14]" and — the key structural advantage §5.6 measures —
"Persona also uses less I/O since only the results column needs to be
read/written from the AGD dataset."

The signature of a read is its (contig, *unclipped* 5' position, strand);
for paired reads the signature covers both mates, so only whole-fragment
duplicates are marked (Samblaster's semantics).  The first fragment seen
with a signature is kept; later ones get FLAG_DUPLICATE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agd.chunk import read_chunk_header, write_chunk
from repro.agd.dataset import AGDDataset
from repro.align.result import (
    FLAG_DUPLICATE,
    AlignmentResult,
    cigar_operations,
)


@dataclass
class DupmarkStats:
    """Outcome counters (reads/s throughput is measured by the bench)."""

    records: int = 0
    duplicates_marked: int = 0
    unmapped: int = 0


def unclipped_position(result: AlignmentResult) -> int:
    """5'-end position adjusted for soft clips, strand-aware.

    Duplicates from PCR share a *fragment* start; clipping differences
    between copies must not break signature equality.  The all-match
    CIGAR (``<n>M``) — the overwhelming majority of reads — takes a fast
    path with no CIGAR parse.
    """
    cigar = result.cigar
    if cigar.endswith(b"M") and cigar[:-1].isdigit():
        if not result.is_reverse:
            return result.position
        return result.position + int(cigar[:-1]) - 1
    ops = cigar_operations(cigar)
    if not result.is_reverse:
        clip = ops[0][0] if ops and ops[0][1] == "S" else 0
        return result.position - clip
    ref_span = sum(n for n, op in ops if op in "MDN=X")
    clip = ops[-1][0] if ops and ops[-1][1] == "S" else 0
    return result.position + ref_span + clip - 1


def signature(result: AlignmentResult) -> "tuple | None":
    """Single-end signature, or None for unmapped reads."""
    if not result.is_aligned:
        return None
    return (
        result.contig_index,
        unclipped_position(result),
        result.is_reverse,
    )


def fragment_signature(
    result: AlignmentResult,
) -> "tuple | None":
    """Signature including the mate's coordinates for paired fragments."""
    single = signature(result)
    if single is None:
        return None
    if not result.is_paired or result.next_contig_index < 0:
        return ("single",) + single
    mate = (result.next_contig_index, result.next_position)
    # Canonical orientation so both mates of a fragment agree.
    own = (result.contig_index, unclipped_position(result))
    if (mate, not result.is_reverse) < (own, result.is_reverse):
        first, second = mate, own
        strands = (not result.is_reverse, result.is_reverse)
    else:
        first, second = own, mate
        strands = (result.is_reverse, not result.is_reverse)
    return ("pair", first, second, strands)


def scan_signatures(
    sigs: "list[tuple | None]",
    seen: set,
    stats: DupmarkStats,
) -> "list[int]":
    """The Samblaster seen-set pass over one chunk's signatures.

    Updates the counters and the cross-chunk ``seen`` set; returns the
    positions to mark as duplicates.  First fragment with a signature
    wins, so successive calls must follow chunk order.  The object-level
    specification of the marking semantics: what runs is
    :class:`~repro.core.columnar.DuplicateTracker`, which the tests
    compare against this.
    """
    dup_positions: list[int] = []
    for position, sig in enumerate(sigs):
        stats.records += 1
        if sig is None:
            stats.unmapped += 1
        elif sig in seen:
            stats.duplicates_marked += 1
            dup_positions.append(position)
        else:
            seen.add(sig)
    return dup_positions


def mark_duplicates_results(
    results: "list[AlignmentResult]",
    stats: "DupmarkStats | None" = None,
) -> list[AlignmentResult]:
    """Mark duplicates over an in-memory results column.

    One dict pass — the Samblaster algorithm.  Returns a new list; input
    records are immutable.
    """
    stats = stats if stats is not None else DupmarkStats()
    sigs = [fragment_signature(result) for result in results]
    dup_positions = set(scan_signatures(sigs, set(), stats))
    return [
        result.with_flag(FLAG_DUPLICATE) if position in dup_positions
        else result
        for position, result in enumerate(results)
    ]


def mark_duplicates(
    dataset: AGDDataset,
    stats: "DupmarkStats | None" = None,
) -> DupmarkStats:
    """Mark duplicates in-place on a dataset's results column.

    Reads and rewrites *only* the results column, chunk by chunk — the
    I/O-efficiency property §5.6 highlights.  Each chunk's results
    decode straight into numpy arrays, signatures are structured-array
    rows, and the :class:`~repro.core.columnar.DuplicateTracker` keeps
    the sequential semantics (first fragment with a signature wins, in
    chunk order).  What stays resident is one chunk plus the signatures
    seen: ~8 B per distinct single-end signature (sorted ``uint64``
    keys), ~130 B per paired or out-of-layout one (a ``set`` of packed
    bytes).  A chunk that gained a duplicate is rewritten by
    patching the flag bytes of its serialized block
    (:meth:`ResultsColumn.with_flag`) and re-framing it with the codec
    it was stored with — byte for byte what re-encoding the updated
    objects would give, with no AlignmentResult on either side.  (There
    is no ``backend=``: signature extraction is ~0.5 ms per chunk, a
    tenth of what dispatching it costs.)
    """
    from repro.core.columnar import (
        DuplicateTracker,
        fragment_signature_arrays,
        read_results_column,
    )

    if not dataset.manifest.has_column("results"):
        raise ValueError("dataset has no results column; align first")
    stats = stats if stats is not None else DupmarkStats()
    tracker = DuplicateTracker()
    for entry in dataset.manifest.chunks:
        key = entry.chunk_file("results")
        blob = dataset.store.get(key)
        column = read_results_column(blob)
        dup_positions = tracker.scan(
            *fragment_signature_arrays(column.arrays), stats
        )
        if dup_positions:
            header = read_chunk_header(blob)
            dataset.store.put(key, write_chunk(
                column.with_flag(dup_positions, FLAG_DUPLICATE), "results",
                first_ordinal=header.first_ordinal, codec=header.codec_name,
            ))
    return stats
