"""Per-column block compression for AGD chunks (§3).

"The type of compression may be selected on a column-by-column basis ...
This flexibility allows tradeoffs between compressed file size and
decompression time."  The default is gzip, "as it has a good compression
[ratio] without being too compute-intensive".
"""

from __future__ import annotations

import functools
import lzma
import zlib
from typing import Callable, NamedTuple


class Codec(NamedTuple):
    """A named compress/decompress pair."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


#: How much of a block the deflate-strategy probe looks at.
PROBE_BYTES = 4096


#: Window bits of the probe's deflaters: 8 KiB, the smallest window in
#: which every match distance a :data:`PROBE_BYTES` sample can hold is
#: legal (zlib caps distances at window - 262), so a probe's size is
#: what the default 32 KiB window would give — for a third of the
#: set-up (zlib allocates and zeroes the window before the first byte).
_PROBE_WBITS = 13


def _deflate(data, level: int, strategy: int,
             wbits: int = zlib.MAX_WBITS) -> bytes:
    deflater = zlib.compressobj(
        level, zlib.DEFLATED, wbits, zlib.DEF_MEM_LEVEL, strategy)
    return deflater.compress(data) + deflater.flush()


def _probed_deflate(data, level: int = 6) -> bytes:
    """zlib-deflate ``data``, choosing the deflate *strategy* per block.

    Deflate the block's first :data:`PROBE_BYTES` both ways at ``level``;
    if the Huffman-only output is no larger, LZ77 is finding nothing
    there (base qualities: ~5x the CPU for a *larger* result) and the
    whole block is encoded with ``Z_HUFFMAN_ONLY`` (wbits/memLevel are
    ``zlib.compress``'s own: only the strategy differs).  Blocks that
    fit in the probe, and level 0 (stored), skip it.  The choice is a
    pure function of the block's bytes — no state, no option — so equal
    blocks encode to equal bytes wherever and whenever they are written,
    and either way the output is a plain zlib stream.
    """
    if level and len(data) > PROBE_BYTES:
        head = memoryview(data)[:PROBE_BYTES]
        huffman, lz77 = (
            len(_deflate(head, level, strategy, _PROBE_WBITS))
            for strategy in (zlib.Z_HUFFMAN_ONLY, zlib.Z_DEFAULT_STRATEGY))
        if huffman <= lz77:
            return _deflate(data, level, zlib.Z_HUFFMAN_ONLY)
    return zlib.compress(data, level)


def _gzip_decompress(data: bytes) -> bytes:
    return zlib.decompress(data)


def _lzma_compress(data: bytes) -> bytes:
    return lzma.compress(data, preset=3)


def _lzma_decompress(data: bytes) -> bytes:
    return lzma.decompress(data)


def _identity(data: bytes) -> bytes:
    # Pass buffers through untouched: a ``memoryview`` in is a
    # ``memoryview`` out, so a chunk framed at codec level 0 decodes
    # into views of the buffer it was read into.  The external sort
    # frames runs it spills to a local directory this way so the merge
    # restores them without inflating gzip blocks
    # (:func:`repro.core.sort.scratch_kind`).
    return data


GZIP = Codec("gzip", _probed_deflate, _gzip_decompress)
LZMA = Codec("lzma", _lzma_compress, _lzma_decompress)
NONE = Codec("none", _identity, _identity)

_CODECS = {c.name: c for c in (GZIP, LZMA, NONE)}

#: Default codec for new columns (the paper's implementation uses gzip).
DEFAULT_CODEC = GZIP


def leveled_codec(name: str, level: int) -> Codec:
    """A built-in codec at an explicit compression level.

    The returned codec keeps the *base name* (``gzip``/``lzma``), so any
    reader decodes its output — levels only trade write-side CPU for
    ratio ("tradeoffs between compressed file size and decompression
    time", §3).  Level 1 gzip frames the sort's remote-scratch spills
    (``SCRATCH_CODEC_LEVEL``).
    """
    if name == "none":
        return NONE
    if name == "gzip":
        if not 0 <= level <= 9:
            raise ValueError(f"gzip level {level} out of range 0..9")
        return Codec(
            "gzip",
            functools.partial(_probed_deflate, level=level),
            _gzip_decompress,
        )
    if name == "lzma":
        if not 0 <= level <= 9:
            raise ValueError(f"lzma preset {level} out of range 0..9")
        return Codec(
            "lzma",
            functools.partial(lzma.compress, preset=level),
            _lzma_decompress,
        )
    raise UnknownCodecError(
        f"codec {name!r} does not support levels; available: gzip, lzma, none"
    )


#: Gzip level of sort runs spilled to a remote scratch store (each blob
#: is read back exactly once; level 6 would waste CPU on the sort path).
#: A memory scratch's runs are never encoded, a local directory's are
#: raw (:func:`repro.core.sort.scratch_kind`).
SCRATCH_CODEC_LEVEL = 1


class UnknownCodecError(KeyError):
    """Raised when a chunk names a codec this build does not provide."""


def get_codec(name: str) -> Codec:
    """Look up a codec by name (``gzip``, ``lzma``, or ``none``)."""
    try:
        return _CODECS[name]
    except KeyError:
        raise UnknownCodecError(
            f"unknown compression codec {name!r}; "
            f"available: {sorted(_CODECS)}"
        ) from None


def register_codec(codec: Codec) -> None:
    """Register a new codec (AGD extensibility hook).

    Refuses to silently replace a built-in codec.
    """
    if codec.name in _CODECS:
        raise ValueError(f"codec {codec.name!r} already registered")
    _CODECS[codec.name] = codec


def available_codecs() -> list[str]:
    return sorted(_CODECS)
