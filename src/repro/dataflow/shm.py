"""Shared-memory plane for the broker's same-host handoff.

Persona moves chunks between stages by reference, never re-serialized,
so "all cores run continuously doing meaningful work" (§4.3).  Between
servers on one host that means a payload crosses ``/dev/shm`` instead of
the socket: the publisher writes a segment once, the broker adopts it
without copying, and the consumer reads it out once with
``read_segment`` — the one copy its record decoders would otherwise
make of a mapped window.
Between a process backend and its forked workers there is no such plane:
the aligner's payloads (about 20 KB of packed bases at 101 bp) go down
the pipe.

``BufferPool``
    The broker's slab allocator over ``multiprocessing.shared_memory``:
    adopted publisher segments, re-staged spills and copies of inline
    payloads live here as refcounted *leases*; the last lease out
    rewinds the slab or unlinks the segment.  Exhaustion is not an
    error — allocation returns ``None`` and the caller ships the bytes
    inline (never a deadlock).

``ShmRef``
    The reference that actually crosses the socket: segment name,
    offset, length and lease token.  A ~100-byte descriptor regardless
    of payload size.

``PooledView``
    The one lease a caller holds outside the pool: a read-only window
    onto pooled bytes that the broker's server writes straight to a
    socket, released once the send completes.

Segments a broker publisher hands over share the pool's unique prefix,
so ``BufferPool.close()`` can sweep stragglers left by a peer that died
mid-flight — no ``/dev/shm`` leaks survive a shutdown.

Availability is probed, not assumed: where POSIX shared memory is absent
(or ``/dev/shm`` is unwritable) ``shm_available()`` is False and the
broker keeps the copy path.
"""

from __future__ import annotations

import itertools
import os
import secrets
import threading
from dataclasses import dataclass, replace

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "DEFAULT_MAX_BYTES",
    "DEFAULT_SHM_THRESHOLD",
    "DEFAULT_SLAB_BYTES",
    "BufferPool",
    "PooledView",
    "ShmRef",
    "create_segment",
    "list_segments",
    "read_segment",
    "shm_available",
    "sweep_segments",
    "unlink_segment",
]

#: Bytes per pooled slab segment.
DEFAULT_SLAB_BYTES = 8 << 20

#: Total byte budget across a pool's slabs; allocation beyond it returns
#: None (the caller ships the bytes inline).
DEFAULT_MAX_BYTES = 256 << 20

#: Payloads at or above this many bytes ship as ShmRefs; smaller ones
#: cross the socket faster than a segment round-trip.
DEFAULT_SHM_THRESHOLD = 64 << 10

#: Slab allocations are aligned so array views never straddle dtype
#: alignment requirements.
_ALIGN = 64

#: Where POSIX shared memory segments appear as files (Linux).
SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class ShmRef:
    """A reference to bytes living in a named shared-memory segment.

    The segment belongs to the owning :class:`BufferPool`; ``token``
    identifies the pool lease backing the ref.
    """

    segment: str
    offset: int
    length: int
    token: int = -1


_AVAILABLE: "bool | None" = None


def shm_available() -> bool:
    """Probe (once) whether POSIX shared memory actually works here."""
    global _AVAILABLE
    if _AVAILABLE is None:
        if _shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


def list_segments(prefix: str = "") -> "list[str]":
    """Names of live shared-memory segments (Linux ``/dev/shm`` listing).

    The hygiene primitive the leak tests assert with; returns ``[]``
    where segments are not exposed as files.
    """
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(prefix)) if prefix \
        else sorted(names)


def sweep_segments(prefix: str) -> int:
    """Unlink every live segment whose name starts with ``prefix``.

    Covers one-shot segments stranded by a publisher that died after
    writing but before the pool adopted them.  Returns the
    number of segments removed.  A no-op (0) off Linux — there the
    resource tracker remains the last line of defense.
    """
    if not prefix:
        raise ValueError("refusing to sweep without a prefix")
    removed = 0
    for name in list_segments(prefix):
        try:
            seg = _shared_memory.SharedMemory(name=name)
        except OSError:
            continue
        try:
            seg.close()
            seg.unlink()
            removed += 1
        except OSError:  # pragma: no cover - raced another cleaner
            pass
    return removed


def _untrack(seg) -> None:
    """Drop a segment from this process's resource tracker.

    CPython registers POSIX segments on *attach* too, so a process that
    merely read (or handed off) a segment would unlink it at exit —
    yanking live slabs out from under their owner.  Ownership-transfer
    paths therefore unregister explicitly; the owning process keeps its
    registration and unlinks deliberately.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker absent or renamed
        pass


class _Slab:
    """One pooled segment: bump allocation + live-lease count.

    Leases are short-lived (one delivery), so a region/arena
    reset — rewind the bump pointer when the last lease returns — beats
    a free list: no fragmentation bookkeeping, O(1) everything.
    """

    __slots__ = ("shm", "capacity", "used", "live")

    def __init__(self, shm, capacity: int):
        self.shm = shm
        self.capacity = capacity
        self.used = 0
        self.live = 0


class _Adopted:
    """A foreign segment the pool took ownership of (broker handoff).

    The publisher wrote it, the pool adopted it without copying; the
    attached mapping stays open so the bytes survive even an early
    unlink of the name.  Unlinked when the last lease token returns.
    """

    __slots__ = ("shm", "refs", "nbytes")

    def __init__(self, shm, nbytes: int = 0):
        self.shm = shm
        self.refs = 0
        self.nbytes = nbytes


class _SpilledSeg:
    """An adopted payload pushed out to a disk file (backlog spill).

    Created when adoption would carry the pool's adopted backlog past
    its spill watermark: the publisher's segment is drained to disk and
    unlinked, freeing ``/dev/shm`` immediately.  Same lease lifecycle as
    an in-memory adoption — read via :meth:`BufferPool.read_ref`, file
    deleted when the last lease returns.
    """

    __slots__ = ("path", "refs", "nbytes")

    def __init__(self, path: str, nbytes: int):
        self.path = path
        self.refs = 0
        self.nbytes = nbytes


class BufferPool:
    """Slab allocator over named shared-memory segments.

    Producer-owned: only the creating process allocates; consumers
    attach segments read-only by name.  All methods are thread-safe
    (broker connection threads lease concurrently).
    """

    def __init__(
        self,
        slab_bytes: int = DEFAULT_SLAB_BYTES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        prefix: "str | None" = None,
        spill_dir: "str | None" = None,
        spill_watermark: "int | None" = None,
    ):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        if slab_bytes <= 0 or max_bytes <= 0:
            raise ValueError("slab_bytes and max_bytes must be positive")
        if spill_watermark is not None and spill_watermark < 0:
            raise ValueError("spill_watermark cannot be negative")
        self.slab_bytes = slab_bytes
        self.max_bytes = max_bytes
        self.prefix = prefix or (
            f"psna-{os.getpid()}-{secrets.token_hex(4)}"
        )
        #: Backlog spill: once adopted segments hold more than
        #: ``spill_watermark`` bytes of shared memory, further adoptions
        #: drain to files under ``spill_dir`` instead (and the shm
        #: segment is unlinked immediately).  Disabled without a dir.
        self._spill_dir = spill_dir
        self._spill_watermark = (
            max_bytes if spill_watermark is None else spill_watermark
        ) if spill_dir is not None else None
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        self._slabs: "list[_Slab]" = []
        self._leases: "dict[int, _Slab]" = {}
        self._adopted: "dict[int, _Adopted]" = {}
        self._spilled: "dict[int, _SpilledSeg]" = {}
        self._adopted_bytes = 0
        self.total_spilled_segments = 0
        self.total_spilled_bytes = 0
        self._tokens = itertools.count()
        self._segments = itertools.count()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ metrics

    @property
    def slab_count(self) -> int:
        with self._lock:
            return len(self._slabs)

    @property
    def live_leases(self) -> int:
        with self._lock:
            return (len(self._leases) + len(self._adopted)
                    + len(self._spilled))

    @property
    def allocated_bytes(self) -> int:
        with self._lock:
            return sum(s.capacity for s in self._slabs)

    @property
    def adopted_bytes(self) -> int:
        """Shared-memory bytes currently held by adopted segments (the
        quantity the spill watermark bounds)."""
        with self._lock:
            return self._adopted_bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "slabs": len(self._slabs),
                "allocated_bytes": sum(s.capacity for s in self._slabs),
                "live_leases": len(self._leases),
                "adopted_live": len(self._adopted),
                "adopted_bytes": self._adopted_bytes,
                "spilled_live": len(self._spilled),
                "total_spilled_segments": self.total_spilled_segments,
                "total_spilled_bytes": self.total_spilled_bytes,
                "spill_watermark": self._spill_watermark,
            }

    # --------------------------------------------------------- allocation

    def _alloc(self, nbytes: int) -> "tuple[_Slab, int, int] | None":
        """Reserve ``nbytes`` in some slab; ``(slab, offset, token)`` or
        None on exhaustion.  Never blocks, never raises for capacity."""
        if nbytes <= 0:
            return None
        with self._lock:
            if self._closed:
                return None
            slab = self._find_space(nbytes)
            if slab is None:
                # Reclaim fully-idle slabs, then retry once.
                for s in self._slabs:
                    if s.live == 0:
                        s.used = 0
                slab = self._find_space(nbytes)
            if slab is None:
                slab = self._grow(nbytes)
            if slab is None:
                return None
            offset = slab.used
            slab.used = -(-(offset + nbytes) // _ALIGN) * _ALIGN
            slab.live += 1
            token = next(self._tokens)
            self._leases[token] = slab
            return slab, offset, token

    def _find_space(self, nbytes: int) -> "_Slab | None":
        for slab in self._slabs:
            if slab.capacity - slab.used >= nbytes:
                return slab
        return None

    def _grow(self, nbytes: int) -> "_Slab | None":
        capacity = max(self.slab_bytes, nbytes)
        total = sum(s.capacity for s in self._slabs)
        if total + capacity > self.max_bytes:
            return None
        try:
            shm = _shared_memory.SharedMemory(
                create=True,
                size=capacity,
                name=f"{self.prefix}-s{next(self._segments)}",
            )
        except OSError:
            return None
        slab = _Slab(shm, capacity)
        self._slabs.append(slab)
        return slab

    def put_bytes(self, data) -> "ShmRef | None":
        """Copy a bytes-like payload into a slab; None on exhaustion."""
        n = len(data)
        got = self._alloc(n)
        if got is None:
            return None
        slab, offset, token = got
        slab.shm.buf[offset:offset + n] = bytes(data) \
            if isinstance(data, memoryview) else data
        return ShmRef(segment=slab.shm.name, offset=offset, length=n,
                      token=token)

    # ---------------------------------------------------------- adoption

    def adopt_segment(self, name: str, offset: int,
                      length: int) -> "ShmRef | None":
        """Take ownership of a publisher-written segment without copying.

        The zero-copy half of the broker handoff: the publisher wrote
        the bytes once, the pool attaches the segment and leases it like
        its own allocation — the payload is never copied server-side.
        The last lease out unlinks the segment.  None when the segment
        is gone (the publisher died before the frame arrived).
        """
        if _shared_memory is None:
            return None
        try:
            seg = _shared_memory.SharedMemory(name=name)
        except OSError:
            return None
        spill = False
        with self._lock:
            if self._closed:
                closed = True
            else:
                closed = False
                spill = (
                    self._spill_watermark is not None
                    and self._adopted_bytes + length > self._spill_watermark
                )
                if not spill:
                    holder = _Adopted(seg, length)
                    holder.refs = 1
                    token = next(self._tokens)
                    self._adopted[token] = holder
                    self._adopted_bytes += length
        if closed:
            try:
                seg.close()
                seg.unlink()
            except OSError:  # pragma: no cover - raced the sweep
                pass
            return None
        if spill:
            return self._spill_adopted(name, seg, offset, length)
        return ShmRef(segment=name, offset=offset, length=length,
                      token=token)

    def _spill_adopted(self, name: str, seg, offset: int,
                       length: int) -> "ShmRef | None":
        """Drain an adopted segment to a spill file and unlink it.

        The file is written *before* the segment is unlinked, so a disk
        failure degrades to an in-memory adoption (ignoring the
        watermark) rather than losing the payload.
        """
        data = bytes(seg.buf[offset:offset + length])
        with self._lock:
            token = next(self._tokens)
        path = os.path.join(
            self._spill_dir, f"{self.prefix}-spill-{token}"
        )
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError:
            with self._lock:
                if not self._closed:
                    holder = _Adopted(seg, length)
                    holder.refs = 1
                    self._adopted[token] = holder
                    self._adopted_bytes += length
                    return ShmRef(segment=name, offset=offset,
                                  length=length, token=token)
            try:
                seg.close()
                seg.unlink()
            except OSError:  # pragma: no cover - raced the sweep
                pass
            return None
        try:
            seg.close()
            seg.unlink()
        except OSError:  # pragma: no cover - raced the sweep
            pass
        dead_path = None
        with self._lock:
            if self._closed:
                dead_path = path
            else:
                holder = _SpilledSeg(path, length)
                holder.refs = 1
                self._spilled[token] = holder
                self.total_spilled_segments += 1
                self.total_spilled_bytes += length
        if dead_path is not None:
            try:
                os.unlink(dead_path)
            except OSError:  # pragma: no cover - raced close()
                pass
            return None
        # The file holds exactly [offset, offset+length) of the original
        # segment, so the spilled ref reads from file offset 0.
        return ShmRef(segment=name, offset=0, length=length, token=token)

    def incref(self, ref: ShmRef) -> "ShmRef | None":
        """Lease an already-leased payload again (a second consumer
        handoff of the same stored bytes).  Returns a new ref carrying
        its own token, or None when the backing lease is gone.

        Spilled payloads return None by design: their bytes no longer
        live in a shared segment a consumer could attach, so the caller
        must take the :meth:`read_ref` copy path (which re-stages them
        from disk)."""
        with self._lock:
            if ref.token in self._spilled:
                return None
            holder = self._adopted.get(ref.token)
            if holder is not None:
                token = next(self._tokens)
                holder.refs += 1
                self._adopted[token] = holder
                return replace(ref, token=token)
            slab = self._leases.get(ref.token)
            if slab is None:
                return None
            token = next(self._tokens)
            slab.live += 1
            self._leases[token] = slab
            return replace(ref, token=token)

    def read_ref(self, ref: ShmRef) -> "bytes | None":
        """Copy a *spilled* payload back out of its disk file — its only
        home — for a peer that cannot attach a segment (the socket copy
        path; same-host peers get :meth:`restage_ref`).  None for
        anything else: a mappable lease is read through
        :meth:`view_ref`, zero-copy."""
        with self._lock:
            spilled = self._spilled.get(ref.token)
        if spilled is None:
            return None
        try:
            with open(spilled.path, "rb") as fh:
                fh.seek(ref.offset)
                data = fh.read(ref.length)
        except OSError:  # pragma: no cover - spill file vanished
            return None
        return data if len(data) == ref.length else None

    def view_ref(self, ref: ShmRef) -> "PooledView | None":
        """Zero-copy read of a leased payload: a read-only window over
        the backing slab or adopted segment, guarded by its own lease
        (taken via :meth:`incref`) so the pool cannot rewind or unlink
        the bytes under the view.

        Returns None for spilled payloads (their bytes live in a disk
        file, not a mappable segment — fall back to the ``read_ref``
        copy path) and for leases that are already gone.
        """
        guard = self.incref(ref)
        if guard is None:
            return None
        with self._lock:
            holder = self._adopted.get(guard.token)
            if holder is not None:
                shm = holder.shm
            else:
                slab = self._leases.get(guard.token)
                shm = slab.shm if slab is not None else None
        if shm is None:  # pragma: no cover - raced a close()
            self.release(guard)
            return None
        view = shm.buf[ref.offset:ref.offset + ref.length].toreadonly()
        return PooledView(view, self, guard)

    def restage_ref(self, ref: ShmRef) -> "ShmRef | None":
        """Move a *spilled* payload back into a pool slab with one copy.

        The view-path successor of ``read_ref`` + :meth:`put_bytes` on
        the broker's spilled re-delivery path: the spill file is read
        directly into freshly allocated slab space (``readinto``), so
        the payload is never materialized as intermediate ``bytes``.
        Returns a slab-backed ref carrying its own lease, or None when
        the payload is not spilled (use :meth:`view_ref`), slab space is
        exhausted, or the spill file vanished.
        """
        with self._lock:
            spilled = self._spilled.get(ref.token)
            path = spilled.path if spilled is not None else None
        if path is None:
            return None
        got = self._alloc(ref.length)
        if got is None:
            return None
        slab, offset, token = got
        staged = ShmRef(segment=slab.shm.name, offset=offset,
                        length=ref.length, token=token)
        n = -1
        try:
            with open(path, "rb") as fh:
                fh.seek(ref.offset)
                dst = slab.shm.buf[offset:offset + ref.length]
                try:
                    n = fh.readinto(dst)
                finally:
                    dst.release()
        except OSError:  # pragma: no cover - spill file vanished
            pass
        if n != ref.length:
            self.release(staged)
            return None
        return staged

    # ------------------------------------------------------------- leases

    def release(self, ref: ShmRef) -> None:
        """Return one lease; the last lease out rewinds its slab,
        unlinks its adopted segment, or deletes its spill file."""
        dead = None
        dead_path = None
        with self._lock:
            spilled = self._spilled.pop(ref.token, None)
            if spilled is not None:
                spilled.refs -= 1
                if spilled.refs == 0:
                    dead_path = spilled.path
            else:
                holder = self._adopted.pop(ref.token, None)
                if holder is not None:
                    holder.refs -= 1
                    if holder.refs == 0:
                        dead = holder.shm
                        self._adopted_bytes -= holder.nbytes
                else:
                    slab = self._leases.pop(ref.token, None)
                    if slab is None:
                        return
                    slab.live -= 1
                    if slab.live == 0:
                        slab.used = 0
        self._finish_release(dead, dead_path)

    @staticmethod
    def _finish_release(dead, dead_path) -> None:
        if dead is not None:
            try:
                dead.close()
            except (OSError, BufferError):
                # BufferError: a consumer still holds an exported view
                # of the mapping.  The name can still be unlinked —
                # POSIX keeps unlinked-but-mapped bytes alive until the
                # last view drops — so /dev/shm never leaks and the
                # straggler view reads valid bytes until released.
                pass
            try:
                dead.unlink()
            except OSError:  # pragma: no cover - raced another cleaner
                pass
        if dead_path is not None:
            try:
                os.unlink(dead_path)
            except OSError:  # pragma: no cover - raced close()
                pass

    def release_all(self, refs) -> None:
        for ref in refs:
            self.release(ref)

    # ---------------------------------------------------------- lifecycle

    def close(self) -> int:
        """Unlink every slab and sweep stale same-prefix segments
        (one-shot segments a dead publisher left behind).  Returns
        the number of swept stragglers.  Idempotent."""
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            slabs, self._slabs = self._slabs, []
            self._leases.clear()
            adopted = list({id(h): h for h in self._adopted.values()}
                           .values())
            self._adopted.clear()
            self._adopted_bytes = 0
            spill_paths = [s.path for s in self._spilled.values()]
            self._spilled.clear()
        for path in spill_paths:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
        for holder in adopted:
            try:
                holder.shm.close()
            except (OSError, BufferError):  # live views pin the mapping
                pass
            try:
                holder.shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        for slab in slabs:
            try:
                slab.shm.close()
            except (OSError, BufferError):  # live views pin the mapping
                pass
            try:
                slab.shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        return sweep_segments(self.prefix)

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BufferPool {self.prefix!r} slabs={len(self._slabs)} "
                f"leases={len(self._leases)}>")


class PooledView:
    """A zero-copy read-only window onto a pool-leased payload.

    Returned by :meth:`BufferPool.view_ref`.  Holding the view holds a
    pool lease — the slab cannot rewind and the adopted segment cannot
    unlink until :meth:`release`.  ``view`` is read-only, so a kernel
    that tries to mutate it raises instead of corrupting bytes another
    consumer may be redelivered.  Use as a context manager, or release
    explicitly once every array derived from the view is dropped.
    """

    __slots__ = ("view", "_pool", "_ref")

    def __init__(self, view: memoryview, pool: BufferPool, ref: ShmRef):
        self.view = view
        self._pool = pool
        self._ref = ref

    @property
    def nbytes(self) -> int:
        return self.view.nbytes

    def materialize(self) -> bytes:
        """Escape hatch out of the pool: owned bytes, safe to
        retain after the lease is released."""
        return bytes(self.view)

    def release(self) -> bool:
        """Drop the view and return the lease.  False when buffers
        derived from the view (``np.frombuffer`` arrays, sub-views)
        still pin it — the lease stays held, so the pool can never
        recycle bytes that live arrays alias; retry after dropping
        them."""
        if self._pool is None:
            return True
        try:
            self.view.release()
        except BufferError:
            return False
        pool, self._pool = self._pool, None
        pool.release(self._ref)
        return True

    def __enter__(self) -> "PooledView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# ---------------------------------------------------------------------------
# Named one-shot segments: the broker's same-host handoff trades in
# these directly (a publisher writes one, the receiver reads and the
# creator unlinks), bypassing the pool's lease machinery.


def create_segment(name: str, data, transfer: bool = False) -> bool:
    """Create a named segment holding ``data``; False when shm space or
    the name is unavailable (the caller ships the bytes inline).

    ``transfer=True`` hands ownership to whoever adopts the segment by
    name (the broker's publish handoff): this process's resource
    tracker forgets it, so a later exit here cannot unlink bytes the
    adopter still holds.
    """
    if _shared_memory is None:
        return False
    try:
        seg = _shared_memory.SharedMemory(
            create=True, size=max(1, len(data)), name=name
        )
    except OSError:
        return False
    seg.buf[:len(data)] = bytes(data) if isinstance(data, memoryview) \
        else data
    if transfer:
        _untrack(seg)
    seg.close()
    return True


def read_segment(name: str, offset: int, length: int) -> bytes:
    """Copy ``length`` bytes out of a named one-shot segment.

    Raises OSError when the segment does not exist — same-host handoffs
    treat that as a protocol error.

    Reads the ``/dev/shm`` file directly where it exists: cheaper than
    an mmap attach per chunk, and it keeps the resource tracker out of
    it entirely — an attach would register a segment this process does
    not own (and its unregister would race the owner's when both sides
    share a forked tracker).
    """
    try:
        with open(os.path.join(SHM_DIR, name), "rb") as fh:
            fh.seek(offset)
            data = fh.read(length)
        if len(data) == length:
            return data
    except OSError:
        pass
    seg = _shared_memory.SharedMemory(name=name)
    try:
        return bytes(seg.buf[offset:offset + length])
    finally:
        # A reader is not an owner: forget the attachment so this
        # process's exit never unlinks the creator's segment.
        _untrack(seg)
        seg.close()


def unlink_segment(name: str) -> bool:
    """Unlink a named segment; False when it is already gone."""
    try:
        seg = _shared_memory.SharedMemory(name=name)
    except OSError:
        return False
    try:
        seg.close()
        seg.unlink()
    except OSError:  # pragma: no cover - raced another cleaner
        return False
    return True
