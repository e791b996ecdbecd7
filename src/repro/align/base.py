"""What execution backends call on a single-end aligner."""

from __future__ import annotations

from repro.align.result import AlignmentResult
from repro.agd.result_column import ResultsColumn


class ReadAligner:
    """Base of every single-end aligner: ``align_reads`` is the one
    entry point a backend task calls.  The default runs ``align_read``
    over the batch; an aligner with an array program overrides it."""

    def align_read(self, bases: bytes) -> AlignmentResult:
        raise NotImplementedError

    def align_reads(self, bases) -> ResultsColumn:
        """Align a batch (``list[bytes]`` or ``BasesColumn``), in order:
        one results column (index it for an ``AlignmentResult``)."""
        return ResultsColumn.from_records(
            [self.align_read(read) for read in bases]
        )
