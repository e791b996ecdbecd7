"""Storage substrate: chunk stores and disk models."""

from repro.storage.base import (
    ChunkStore,
    DirectoryStore,
    MemoryStore,
    StorageError,
)
from repro.storage.diskmodel import (
    BandwidthLimiter,
    DiskModel,
    IOCounters,
    WritebackDiskModel,
    raid0,
)
from repro.storage.local import CountingStore, ModeledDiskStore

__all__ = [
    "BandwidthLimiter",
    "ChunkStore",
    "CountingStore",
    "DirectoryStore",
    "DiskModel",
    "IOCounters",
    "MemoryStore",
    "ModeledDiskStore",
    "StorageError",
    "WritebackDiskModel",
    "raid0",
]
