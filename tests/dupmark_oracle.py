"""The object-level duplicate marker, as a dataset driver for tests.

``repro.core.dupmark.mark_duplicates_results`` is the specification of
duplicate marking: one ``AlignmentResult`` per record, tuple signatures,
a Python seen-set.  This wraps it over a whole dataset — decode every
results chunk into objects, mark the concatenated list, write back the
chunks that gained a duplicate with ``replace_column_chunk`` — so that
agreeing with it byte for byte means the array program in
``repro.core.columnar`` changed nothing but speed.
"""

from __future__ import annotations

from repro.agd.dataset import AGDDataset
from repro.core.dupmark import DupmarkStats, mark_duplicates_results


def oracle_mark_duplicates(
    dataset: AGDDataset, stats: "DupmarkStats | None" = None
) -> DupmarkStats:
    stats = stats if stats is not None else DupmarkStats()
    chunks = [
        dataset.read_chunk("results", index).records
        for index in range(dataset.num_chunks)
    ]
    marked = mark_duplicates_results(
        [record for records in chunks for record in records], stats
    )
    start = 0
    for index, records in enumerate(chunks):
        updated = marked[start:start + len(records)]
        start += len(records)
        # ``with_flag`` builds a new object, so identity tells which
        # records the marker touched.
        if any(new is not old for new, old in zip(updated, records)):
            dataset.replace_column_chunk("results", index, updated)
    return stats
