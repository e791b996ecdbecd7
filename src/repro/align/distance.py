"""Edit-distance kernels used by candidate verification.

SNAP verifies candidate alignment locations with a bounded edit-distance
computation; the paper's profiling (§6) attributes SNAP's core-bound
behavior to "short but frequent calls to a local alignment edit distance
function".  Three kernels live here:

* :func:`hamming` — vectorized mismatch count, the fast path for the
  overwhelming majority of reads (no indels);
* :func:`landau_vishkin` — the O(k·m) bounded edit distance SNAP uses,
  trying only ``k`` edits before giving up;
* :func:`banded_alignment` — banded Needleman–Wunsch with traceback,
  producing a CIGAR for the (rare) reads whose best alignment includes
  indels.

The two bounded kernels agree on every distance, and an alignment with
``d`` edits never leaves the band ``|i - j| <= d``: so the SNAP aligner
ranks candidates on Landau–Vishkin distances alone and runs
:func:`banded_alignment` once per read, for its winner, with ``max_k``
its distance — the CIGAR it would get under any wider bound
(``tests/test_distance.py`` holds both premises).
:func:`verify_candidate`, distance and CIGAR per candidate, is what the
BWA-style aligner and the paired-end rescue call.
"""

from __future__ import annotations

import numpy as np

from repro.align.result import make_cigar


def hamming(read: bytes, ref: bytes) -> int:
    """Mismatch count between a read and an equal-length reference window."""
    if len(read) != len(ref):
        raise ValueError(f"length mismatch: {len(read)} vs {len(ref)}")
    if not read:
        return 0
    a = np.frombuffer(read, dtype=np.uint8)
    b = np.frombuffer(ref, dtype=np.uint8)
    return int((a != b).sum())


class _DiagonalMismatches:
    """Lazy per-diagonal mismatch positions for Landau–Vishkin extension.

    For diagonal ``d`` the read aligns against ``ref[d : d + m]``; the
    sorted mismatch positions let match-extension run as one binary search
    instead of a byte-at-a-time loop.
    """

    def __init__(self, read: bytes, ref: bytes):
        self._read = np.frombuffer(read, dtype=np.uint8)
        self._ref = np.frombuffer(ref, dtype=np.uint8)
        self._m = len(read)
        self._cache: dict[int, np.ndarray] = {}

    def mismatches(self, d: int) -> np.ndarray:
        cached = self._cache.get(d)
        if cached is not None:
            return cached
        diff = np.ones(self._m, dtype=bool)
        if d >= 0:
            window = self._ref[d : d + self._m]
            diff[: len(window)] = self._read[: len(window)] != window
        else:
            # Read positions before the window start always mismatch.
            usable = self._m + d
            if usable > 0:
                window = self._ref[:usable]
                span = len(window)
                diff[-d : -d + span] = self._read[-d : -d + span] != window
        positions = np.flatnonzero(diff)
        self._cache[d] = positions
        return positions

    def extend(self, i: int, d: int) -> int:
        """Furthest read position reachable from ``i`` on diagonal ``d``
        without an edit."""
        positions = self.mismatches(d)
        nxt = np.searchsorted(positions, i)
        if nxt == len(positions):
            return self._m
        return int(positions[nxt])


def landau_vishkin(read: bytes, ref: bytes, max_k: int) -> "int | None":
    """Bounded edit distance: semi-global (read fully consumed, reference
    window consumed as needed).  Returns the distance, or None if > max_k.

    ``ref`` should be at least ``len(read) + max_k`` bytes where available.
    """
    m = len(read)
    if m == 0:
        return 0
    if max_k < 0:
        raise ValueError("max_k must be non-negative")
    diag = _DiagonalMismatches(read, ref)
    # best[d + max_k] = furthest read index matched on diagonal d with the
    # current number of edits.
    offset = max_k
    width = 2 * max_k + 1
    best = [-1] * width
    start = diag.extend(0, 0)
    if start == m:
        return 0
    best[offset] = start
    for e in range(1, max_k + 1):
        new_best = [-1] * width
        for d in range(-e, e + 1):
            idx = d + offset
            if idx < 0 or idx >= width:
                continue
            candidates = []
            prev = best[idx]
            if prev >= 0:
                candidates.append(prev + 1)  # substitution
            if idx + 1 < width and best[idx + 1] >= 0:
                candidates.append(best[idx + 1] + 1)  # deletion from read
            if idx - 1 >= 0 and best[idx - 1] >= 0:
                candidates.append(best[idx - 1])  # insertion into read
            if not candidates:
                continue
            i = min(max(candidates), m)
            if i < m and i + d >= 0:
                i = diag.extend(i, d)
            if i >= m:
                return e
            new_best[idx] = i
        best = new_best
    return None


def banded_alignment(
    read: bytes, ref: bytes, max_k: int
) -> "tuple[int, bytes, int] | None":
    """Banded global-in-read alignment with traceback.

    Aligns the whole read against a prefix of ``ref`` allowing at most
    ``max_k`` edits.  Returns ``(distance, cigar, ref_consumed)`` or None
    if no alignment within the band exists.  Used only for the final CIGAR
    of indel-containing reads — the hot path never tracebacks.
    """
    m = len(read)
    if m == 0:
        return (0, b"", 0)
    band = max_k
    n = min(len(ref), m + band)
    if n == 0:
        return None
    big = m + n + 1
    # dp[i][j] over read prefix i, ref prefix j, |i - j| <= band.
    dp = [[big] * (n + 1) for _ in range(m + 1)]
    dp[0][0] = 0
    for j in range(1, min(band, n) + 1):
        dp[0][j] = j  # leading reference bases consumed = deletions
    for i in range(1, m + 1):
        lo = max(0, i - band)
        hi = min(n, i + band)
        for j in range(lo, hi + 1):
            best = big
            if j > 0 and i - (j - 1) <= band:
                best = dp[i][j - 1] + 1  # deletion (ref consumed)
            if (j - i + 1) <= band:
                best = min(best, dp[i - 1][j] + 1)  # insertion (read consumed)
            if j > 0:
                cost = 0 if read[i - 1] == ref[j - 1] else 1
                best = min(best, dp[i - 1][j - 1] + cost)
            dp[i][j] = best
    lo = max(0, m - band)
    hi = min(n, m + band)
    end_j, distance = -1, big
    for j in range(lo, hi + 1):
        if dp[m][j] < distance:
            distance, end_j = dp[m][j], j
    if distance > max_k:
        return None
    # Traceback.
    ops: list[tuple[int, str]] = []
    i, j = m, end_j
    while i > 0 or j > 0:
        here = dp[i][j]
        if i > 0 and j > 0 and dp[i - 1][j - 1] + (
            0 if read[i - 1] == ref[j - 1] else 1
        ) == here:
            ops.append((1, "M"))
            i, j = i - 1, j - 1
        elif i > 0 and abs((i - 1) - j) <= band and dp[i - 1][j] + 1 == here:
            ops.append((1, "I"))
            i -= 1
        elif j > 0 and abs(i - (j - 1)) <= band and dp[i][j - 1] + 1 == here:
            ops.append((1, "D"))
            j -= 1
        else:  # pragma: no cover - dp construction guarantees a path
            raise AssertionError("banded traceback lost the path")
    ops.reverse()
    return distance, make_cigar(ops), end_j


def verify_candidate(
    read: bytes, ref_window: bytes, max_k: int
) -> "tuple[int, bytes] | None":
    """Verify a candidate location: distance plus CIGAR, or None.

    Fast path: pure-substitution check (Hamming).  Only if that exceeds
    ``max_k`` does the Landau–Vishkin / banded machinery run.
    """
    m = len(read)
    if len(ref_window) >= m:
        mismatches = hamming(read, ref_window[:m])
        if mismatches <= max_k:
            # A cheaper indel alignment may exist, but within small k the
            # substitution interpretation is what SNAP reports too.
            return mismatches, f"{m}M".encode()
    distance = landau_vishkin(read, ref_window, max_k)
    if distance is None:
        return None
    aligned = banded_alignment(read, ref_window, max_k)
    if aligned is None:  # pragma: no cover - LV succeeded, band must too
        return None
    banded_distance, cigar, _ = aligned
    return min(distance, banded_distance), cigar
