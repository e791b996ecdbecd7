"""Base-level sequence utilities shared across the framework.

Genomic sequences are handled as ASCII ``bytes`` throughout Persona: the
alphabet is ``A``, ``C``, ``G``, ``T`` plus ``N`` for ambiguous bases
(§2.1 of the paper).  This module centralizes encoding tables, reverse
complement, and conversions to/from the 3-bit numeric encoding used by AGD
base compaction (§3).
"""

from __future__ import annotations

import numpy as np

#: Canonical upper-case alphabet, in 3-bit code order.
BASES = b"ACGTN"

#: 3-bit numeric code for each base (AGD base compaction, §3 of the paper).
BASE_TO_CODE = {ord("A"): 0, ord("C"): 1, ord("G"): 2, ord("T"): 3, ord("N"): 4}

#: Inverse of :data:`BASE_TO_CODE`.
CODE_TO_BASE = {0: ord("A"), 1: ord("C"), 2: ord("G"), 3: ord("T"), 4: ord("N")}

_COMPLEMENT_TABLE = bytes.maketrans(b"ACGTNacgtn", b"TGCANtgcan")

#: The same table as a ``uint8`` array: ``COMPLEMENT_LUT[ascii_array]``.
COMPLEMENT_LUT = np.frombuffer(_COMPLEMENT_TABLE, dtype=np.uint8)

# Vectorized lookup tables (256-wide so raw ASCII bytes index directly).
_ENCODE_LUT = np.full(256, 255, dtype=np.uint8)
for _b, _c in BASE_TO_CODE.items():
    _ENCODE_LUT[_b] = _c
    _ENCODE_LUT[ord(chr(_b).lower())] = _c

_DECODE_LUT = np.zeros(8, dtype=np.uint8)
for _c, _b in CODE_TO_BASE.items():
    _DECODE_LUT[_c] = _b


class InvalidBaseError(ValueError):
    """Raised when a sequence contains a byte outside ``ACGTNacgtn``."""


def complement(seq: bytes) -> bytes:
    """Return the complement of ``seq`` (A<->T, C<->G, N->N)."""
    return seq.translate(_COMPLEMENT_TABLE)


def reverse_complement(seq: bytes) -> bytes:
    """Return the reverse complement of ``seq``."""
    return seq.translate(_COMPLEMENT_TABLE)[::-1]


def encode_bases_array(arr: np.ndarray) -> np.ndarray:
    """Encode a ``uint8`` array of ASCII bases into 3-bit codes.

    The array form of :func:`encode_bases` — the columnar feed encodes
    whole flat columns without materializing a bytes object first.
    """
    codes = _ENCODE_LUT[arr]
    if codes.max(initial=0) == 255:
        bad = arr[codes == 255][0]
        raise InvalidBaseError(f"invalid base byte {bad!r} ({chr(bad)!r})")
    return codes


def encode_bases(seq: bytes) -> np.ndarray:
    """Encode an ASCII sequence into a ``uint8`` array of 3-bit codes.

    Raises :class:`InvalidBaseError` on any byte outside the alphabet.
    """
    return encode_bases_array(np.frombuffer(seq, dtype=np.uint8))


def decode_bases_array(codes: np.ndarray) -> np.ndarray:
    """Decode 3-bit codes into a ``uint8`` array of ASCII bases."""
    if codes.size and codes.max(initial=0) > 4:
        raise InvalidBaseError(f"invalid base code {int(codes.max())}")
    return _DECODE_LUT[codes]


def decode_bases(codes: np.ndarray) -> bytes:
    """Decode a ``uint8`` array of 3-bit codes back into ASCII bases."""
    return decode_bases_array(codes).tobytes()


def is_valid_sequence(seq: bytes) -> bool:
    """Return True if every byte of ``seq`` is a valid base."""
    if not seq:
        return True
    arr = np.frombuffer(seq, dtype=np.uint8)
    return bool((_ENCODE_LUT[arr] != 255).all())


def gc_content(seq: bytes) -> float:
    """Fraction of G/C bases in ``seq`` (0.0 for an empty sequence)."""
    if not seq:
        return 0.0
    arr = np.frombuffer(seq.upper(), dtype=np.uint8)
    gc = int(((arr == ord("G")) | (arr == ord("C"))).sum())
    return gc / len(seq)


def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of mismatching positions between equal-length sequences."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return 0
    va = np.frombuffer(a, dtype=np.uint8)
    vb = np.frombuffer(b, dtype=np.uint8)
    return int((va != vb).sum())


def phred_to_quality_string(probabilities: "list[float] | np.ndarray") -> bytes:
    """Convert per-base error probabilities to a Phred+33 quality string."""
    probs = np.asarray(probabilities, dtype=np.float64)
    probs = np.clip(probs, 1e-9, 1.0)
    scores = np.minimum(np.round(-10.0 * np.log10(probs)), 60).astype(np.uint8)
    return (scores + 33).tobytes()


def quality_string_to_phred(qual: bytes) -> np.ndarray:
    """Convert a Phred+33 quality string to integer scores."""
    arr = np.frombuffer(qual, dtype=np.uint8)
    if arr.size and (arr.min(initial=255) < 33 or arr.max(initial=0) > 126):
        raise ValueError("quality string contains non-printable bytes")
    return (arr - 33).astype(np.int32)
