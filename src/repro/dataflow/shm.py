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
    The broker's registry of adopted publisher segments: each adoption
    and each re-lease to a consumer is a refcounted *lease* token, and
    the last lease out unlinks the segment.  The pool never allocates
    shared memory itself; a publisher that cannot create a segment
    ships its bytes inline instead.

``ShmRef``
    The reference that actually crosses the socket: segment name,
    offset, length and lease token.  A ~100-byte descriptor regardless
    of payload size.

``PooledView``
    The one lease a caller holds outside the pool: a read-only window
    onto an adopted segment that the broker's server writes straight to
    a socket, released once the send completes.

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
    "DEFAULT_SHM_THRESHOLD",
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

#: Payloads at or above this many bytes ship as ShmRefs; smaller ones
#: cross the socket faster than a segment round-trip.
DEFAULT_SHM_THRESHOLD = 64 << 10

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
    yanking live segments out from under their owner.  Ownership-transfer
    paths therefore unregister explicitly; the owning process keeps its
    registration and unlinks deliberately.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker absent or renamed
        pass


class _Adopted:
    """A publisher segment the pool took ownership of (broker handoff).

    The publisher wrote it, the pool adopted it without copying; the
    attached mapping stays open so the bytes survive even an early
    unlink of the name.  Unlinked when the last lease token returns.
    """

    __slots__ = ("shm", "refs", "nbytes")

    def __init__(self, shm, nbytes: int):
        self.shm = shm
        self.refs = 1
        self.nbytes = nbytes


def _drop(seg) -> None:
    """Close and unlink a segment the pool owns."""
    try:
        seg.close()
    except (OSError, BufferError):
        # BufferError: a consumer still holds an exported view of the
        # mapping.  The name can still be unlinked — POSIX keeps
        # unlinked-but-mapped bytes alive until the last view drops — so
        # /dev/shm never leaks and the straggler view reads valid bytes
        # until released.
        pass
    try:
        seg.unlink()
    except OSError:  # pragma: no cover - raced another cleaner
        pass


class BufferPool:
    """Refcounted registry of adopted publisher segments.

    Each lease token names one hold on an adopted segment; the last
    token out unlinks it.  All methods are thread-safe (broker
    connection threads lease concurrently).
    """

    def __init__(self, prefix: "str | None" = None):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        self.prefix = prefix or (
            f"psna-{os.getpid()}-{secrets.token_hex(4)}"
        )
        self._adopted: "dict[int, _Adopted]" = {}
        self._adopted_bytes = 0
        self._tokens = itertools.count()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ metrics

    @property
    def live_leases(self) -> int:
        with self._lock:
            return len(self._adopted)

    def stats(self) -> dict:
        with self._lock:
            return {
                "adopted_live": len({id(h) for h in
                                     self._adopted.values()}),
                "adopted_bytes": self._adopted_bytes,
            }

    # ---------------------------------------------------------- adoption

    def adopt_segment(self, name: str, offset: int,
                      length: int) -> "ShmRef | None":
        """Take ownership of a publisher-written segment without copying.

        The zero-copy half of the broker handoff: the publisher wrote
        the bytes once, the pool attaches the segment and leases it —
        the payload is never copied server-side.  The last lease out
        unlinks the segment.  None when the segment is gone (the
        publisher died before the frame arrived) or the pool is closed.
        """
        try:
            seg = _shared_memory.SharedMemory(name=name)
        except OSError:
            return None
        with self._lock:
            closed = self._closed
            if not closed:
                token = next(self._tokens)
                self._adopted[token] = _Adopted(seg, length)
                self._adopted_bytes += length
        if closed:
            _drop(seg)
            return None
        return ShmRef(segment=name, offset=offset, length=length,
                      token=token)

    def incref(self, ref: ShmRef) -> "ShmRef | None":
        """Lease an adopted payload again (a second consumer handoff of
        the same stored bytes).  Returns a new ref carrying its own
        token, or None when the backing lease is gone."""
        with self._lock:
            holder = self._adopted.get(ref.token)
            if holder is None:
                return None
            token = next(self._tokens)
            holder.refs += 1
            self._adopted[token] = holder
            return replace(ref, token=token)

    def view_ref(self, ref: ShmRef) -> "PooledView | None":
        """Zero-copy read of a leased payload: a read-only window over
        the adopted segment, guarded by its own lease (taken via
        :meth:`incref`) so the pool cannot unlink the bytes under the
        view.  None when the lease is already gone."""
        guard = self.incref(ref)
        if guard is None:
            return None
        with self._lock:
            holder = self._adopted.get(guard.token)
        if holder is None:  # pragma: no cover - raced a close()
            return None
        view = holder.shm.buf[ref.offset:ref.offset + ref.length]
        return PooledView(view.toreadonly(), self, guard)

    # ------------------------------------------------------------- leases

    def release(self, ref: ShmRef) -> None:
        """Return one lease; the last lease out unlinks the segment."""
        with self._lock:
            holder = self._adopted.pop(ref.token, None)
            if holder is None:
                return
            holder.refs -= 1
            if holder.refs:
                return
            self._adopted_bytes -= holder.nbytes
        _drop(holder.shm)

    def release_all(self, refs) -> None:
        for ref in refs:
            self.release(ref)

    # ---------------------------------------------------------- lifecycle

    def close(self) -> int:
        """Unlink every adopted segment and sweep stale same-prefix
        segments (the boot probe, one-shot segments a dead publisher
        left behind).  Returns the number of swept stragglers.
        Idempotent."""
        with self._lock:
            if self._closed:
                return 0
            self._closed = True
            adopted = list({id(h): h for h in self._adopted.values()}
                           .values())
            self._adopted.clear()
            self._adopted_bytes = 0
        for holder in adopted:
            _drop(holder.shm)
        return sweep_segments(self.prefix)

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BufferPool {self.prefix!r} leases={len(self._adopted)}>"


class PooledView:
    """A zero-copy read-only window onto a pool-leased payload.

    Returned by :meth:`BufferPool.view_ref`.  Holding the view holds a
    pool lease — the adopted segment cannot unlink until
    :meth:`release`.  ``view`` is read-only, so a kernel
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
# these directly: a publisher writes one and hands it to the pool, a
# same-host consumer reads it by name.


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
