"""Chunk-granularity work distribution (§5.2).

"For cluster-wide execution, Persona launches a TensorFlow instance per
compute server.  Within each server, the first stage in the TensorFlow
graph fetches a chunk name from the manifest server; the latter is
implemented as a simple message queue."

Servers pulling chunk names from one queue self-balance: a server that
drew an expensive chunk simply fetches its next name later.  Combined
with shallow per-server queues this is Persona's whole straggler-avoidance
story (§4.5) — no work stealing needed.  That queue is the broker's work
edge (:func:`repro.cluster.multiserver.serve_plan`); what is left here is
the static alternative it is measured against.
"""

from __future__ import annotations

from repro.agd.manifest import ChunkEntry, Manifest


def partition_manifest(manifest: Manifest, servers: int) -> list[list[ChunkEntry]]:
    """Static round-robin partition (the non-queue alternative, used by
    tests to check the dynamic queue beats static assignment on skew)."""
    if servers <= 0:
        raise ValueError("servers must be positive")
    parts: list[list[ChunkEntry]] = [[] for _ in range(servers)]
    for i, entry in enumerate(manifest.chunks):
        parts[i % servers].append(entry)
    return parts
