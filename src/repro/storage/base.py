"""Chunk store abstraction.

AGD "requires only a way to store keyed chunks of data" (§7) — the API can
be "layered on top of different storage or file systems".  Everything that
reads or writes AGD goes through this small keyed-blob interface; local
directories, bandwidth-modeled disks, and the Ceph-like object store all
implement it, which is precisely how Persona swaps storage backends by
changing only the Reader/Writer dataflow nodes (§4.2).
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

_TMP_NAME = re.compile(r"\.\d+\.tmp$")


class StorageError(IOError):
    """Raised for missing objects or failed storage operations."""


@runtime_checkable
class ChunkStore(Protocol):
    """A keyed blob store: the only interface AGD requires of storage."""

    def get(self, key: str) -> bytes:
        """Read the blob stored under ``key``; raises StorageError if absent."""

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any existing blob."""

    def exists(self, key: str) -> bool:
        """True if a blob is stored under ``key``."""

    def delete(self, key: str) -> None:
        """Remove ``key``; raises StorageError if absent."""

    def keys(self) -> Iterator[str]:
        """Iterate over stored keys (order unspecified)."""


class DirectoryStore:
    """Plain-filesystem chunk store: one file per key under a directory."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not key or key.startswith(("/", ".")) or ".." in key.split("/"):
            raise StorageError(f"invalid chunk key {key!r}")
        return self.root / key

    def get(self, key: str) -> bytes:
        path = self._path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise StorageError(f"no chunk {key!r} in {self.root}") from None

    def put(self, key: str, data: bytes) -> None:
        # Write-then-rename so a crash mid-write can never leave a torn
        # chunk under the real key (durable-run resume trusts that an
        # existing chunk file is complete).
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:  # first chunk under a new directory
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        os.replace(tmp, path)

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def delete(self, key: str) -> None:
        path = self._path(key)
        try:
            path.unlink()
        except FileNotFoundError:
            raise StorageError(f"no chunk {key!r} in {self.root}") from None

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.rglob("*")):
            # Skip in-flight temp files left by a crash mid-put.
            if path.is_file() and not _TMP_NAME.search(path.name):
                yield str(path.relative_to(self.root))


class MemoryStore:
    """In-memory chunk store (tests and the cluster simulator)."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                return self._blobs[key]
            except KeyError:
                raise StorageError(f"no chunk {key!r} in memory store") from None

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            self._blobs[key] = bytes(data)

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._blobs

    def delete(self, key: str) -> None:
        with self._lock:
            if key not in self._blobs:
                raise StorageError(f"no chunk {key!r} in memory store")
            del self._blobs[key]

    def keys(self) -> Iterator[str]:
        with self._lock:
            snapshot = list(self._blobs)
        return iter(snapshot)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._blobs.values())
