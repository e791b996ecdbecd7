"""Durable runs: the append-only run ledger (checkpoint/restart + provenance).

Persona's cluster runs already survive *worker* death through the broker's
in-memory ack ledger (redelivery), but a killed coordinator restarts the
whole run from scratch.  This module lifts that ledger onto disk: every run
journals, via atomic append-only writes next to the output dataset,

* per-stage progress — output chunks written (with digests), sort runs
  spilled (with their scratch paths),
* per-edge broker acks — which work items finished end-to-end,
* provenance — the input dataset fingerprint, stage configs,
  backend/worker settings, and per-stage busy/wait timings.

On restart (``RunLedger.resume``) the broker pre-acks journaled work, sink
stores skip already-written outputs via idempotent digest checks, aligner
nodes re-adopt journaled results, and sort nodes re-adopt journaled spills
— so a run killed mid-graph resumes and produces byte-identical output to
an uninterrupted run.  Every skip is digest-verified against what is
actually on disk: a stale or torn chunk simply recomputes (all stages are
deterministic), never silently passes.

Journal format: one record per line, ``<crc32-hex> <compact-json>\n``.
Replay verifies each line's CRC and stops cleanly at the first bad or
truncated line (torn tail); resuming truncates the tail before appending.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import uuid
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator

from repro.agd.chunk import read_column
from repro.storage.base import ChunkStore, StorageError

__all__ = [
    "LedgerError",
    "LedgerState",
    "RunLedger",
    "JournaledStore",
    "StageJournal",
    "SpillJournal",
    "blob_digest",
    "dataset_fingerprint",
    "bind_run_config",
    "list_runs",
]

LEDGER_SUFFIX = ".jsonl"

#: Chaos hook: ``PERSONA_CRASH_AFTER="<stage>:<n>"`` triggers fault
#: injection right after the n-th ``chunk_done`` record for that stage has
#: been journaled — the record is durable, what happens next is governed
#: by :data:`CHAOS_MODE_ENV`.  Used by the crash-resume tests and the CI
#: fault-injection matrix; never set in production.
CRASH_ENV = "PERSONA_CRASH_AFTER"

#: What the chaos trigger does once it fires (default ``crash``):
#:
#: * ``crash`` — SIGKILL the process (the original crash-resume hook),
#: * ``hang`` / ``hang:<seconds>`` — stall the journaling worker once, for
#:   ``<seconds>`` (default 3600, i.e. until the broker's delivery
#:   deadline fences it),
#: * ``slow:<ms>`` — sleep ``<ms>`` before every subsequent ``chunk_done``
#:   (a degraded-but-alive worker for deadline/EWMA tests).
CHAOS_MODE_ENV = "PERSONA_CHAOS_MODE"


class LedgerError(ValueError):
    """Raised for unreadable, mismatched, or conflicting run journals."""


def blob_digest(data: bytes) -> str:
    """Content digest used for every idempotent-write check (sha256 hex)."""
    return sha256(data).hexdigest()


def dataset_fingerprint(manifest) -> str:
    """Structural digest of an input dataset's manifest.

    Covers the dataset name, sort order, chunk layout (path, first
    ordinal, record count) and column set.  The ``results`` column is
    excluded: the align stage adds it to the saved manifest, so a crashed
    and a fresh dataset would otherwise fingerprint differently.
    """
    doc = {
        "name": manifest.name,
        "sort_order": manifest.sort_order,
        "columns": sorted(c for c in manifest.columns if c != "results"),
        "chunks": [
            [e.path, e.first_ordinal, e.record_count] for e in manifest.chunks
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return sha256(blob).hexdigest()


# --------------------------------------------------------------- replay


@dataclass
class LedgerState:
    """Everything a journal says about one run, after replay.

    ``chunks`` maps ``(stage, key) -> digest`` (latest wins, per stage);
    ``writes`` maps ``(store_label, key) -> digest`` across stages in
    journal order, which is what ``persona runs verify`` checks against
    the files on disk.
    """

    run_id: str = ""
    meta: dict = field(default_factory=dict)
    attempts: int = 0
    created_at: "float | None" = None
    chunks: "dict[tuple[str, str], str]" = field(default_factory=dict)
    stage_counts: "dict[str, int]" = field(default_factory=dict)
    writes: "dict[tuple[str, str], str]" = field(default_factory=dict)
    spills: "dict[int, dict]" = field(default_factory=dict)
    edge_acks: "dict[str, set[str]]" = field(default_factory=dict)
    quarantined: "dict[str, list]" = field(default_factory=dict)
    complete: "dict | None" = None
    torn_tail: bool = False
    good_bytes: int = 0

    def apply(self, record: dict) -> None:
        kind = record.get("t")
        if kind == "run_start":
            self.run_id = record.get("run_id", self.run_id)
            self.created_at = record.get("created_at")
            self.meta.update(record.get("meta") or {})
            self.attempts += 1
        elif kind == "run_config":
            self.meta.update(record.get("meta") or {})
        elif kind == "run_resume":
            self.attempts += 1
        elif kind == "chunk_done":
            stage, key = record["stage"], record["key"]
            self.chunks[(stage, key)] = record["digest"]
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1
            self.writes[(record.get("store", ""), key)] = record["digest"]
        elif kind == "spill":
            self.spills[int(record["run"])] = record
        elif kind == "edge_ack":
            self.edge_acks.setdefault(record["edge"], set()).add(record["key"])
        elif kind == "quarantine":
            self.quarantined.setdefault(record["edge"], []).append(
                {k: record[k] for k in ("key", "strikes", "history")}
            )
        elif kind == "run_complete":
            self.complete = record

    @property
    def status(self) -> str:
        if self.complete is not None:
            return "complete"
        return "interrupted" if self.torn_tail else "incomplete"


def _replay(path: Path) -> LedgerState:
    state = LedgerState(run_id=path.name[: -len(LEDGER_SUFFIX)])
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise LedgerError(f"cannot read run journal {path}: {exc}") from exc
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            state.torn_tail = True  # final record never got its newline
            break
        line = raw[offset:newline]
        try:
            crc_hex, payload = line.split(b" ", 1)
            if int(crc_hex, 16) != (zlib.crc32(payload) & 0xFFFFFFFF):
                raise ValueError("crc mismatch")
            record = json.loads(payload)
        except (ValueError, json.JSONDecodeError):
            state.torn_tail = True
            break
        state.apply(record)
        offset = newline + 1
        state.good_bytes = offset
    return state


def list_runs(ledger_dir: "str | Path") -> "list[LedgerState]":
    """Replay every run journal under ``ledger_dir``, oldest first."""
    root = Path(ledger_dir)
    if not root.is_dir():
        return []
    paths = sorted(
        root.glob(f"*{LEDGER_SUFFIX}"), key=lambda p: p.stat().st_mtime
    )
    return [_replay(p) for p in paths]


# --------------------------------------------------------------- ledger


def _parse_crash_target() -> "tuple[str, int] | None":
    raw = os.environ.get(CRASH_ENV, "").strip()
    if not raw:
        return None
    stage, _, count = raw.partition(":")
    try:
        return stage, max(1, int(count))
    except ValueError:
        return None


def _parse_chaos_mode() -> "tuple[str, float]":
    """``(mode, seconds)`` from :data:`CHAOS_MODE_ENV`; bad input → crash."""
    raw = os.environ.get(CHAOS_MODE_ENV, "").strip().lower()
    if not raw or raw == "crash":
        return "crash", 0.0
    mode, _, arg = raw.partition(":")
    if mode == "hang":
        try:
            return "hang", float(arg) if arg else 3600.0
        except ValueError:
            return "hang", 3600.0
    if mode == "slow":
        try:
            return "slow", float(arg) / 1000.0 if arg else 0.1
        except ValueError:
            return "slow", 0.1
    return "crash", 0.0


class RunLedger:
    """One run's durable journal: append on write, replay on resume.

    The journal file lives at ``<ledger_dir>/<run_id>.jsonl`` and is only
    ever appended to (unbuffered, one ``write()`` per record, under a
    lock) — a crash can tear at most the final line, which replay
    detects by CRC and resume truncates.
    """

    def __init__(self, path: Path, state: LedgerState, resuming: bool):
        self.path = path
        self.state = state
        self.resuming = resuming
        self._fh = open(path, "ab", buffering=0)
        self._lock = threading.Lock()
        self.skips: "dict[str, int]" = {}
        self._crash_target = _parse_crash_target()
        self._crash_seen = 0
        self._chaos_mode, self._chaos_arg = _parse_chaos_mode()
        self._chaos_fired = False

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        ledger_dir: "str | Path",
        run_id: "str | None" = None,
        meta: "dict | None" = None,
    ) -> "RunLedger":
        root = Path(ledger_dir)
        root.mkdir(parents=True, exist_ok=True)
        if run_id is None:
            run_id = time.strftime("run-%Y%m%d-%H%M%S-") + uuid.uuid4().hex[:6]
        path = root / f"{run_id}{LEDGER_SUFFIX}"
        if path.exists():
            raise LedgerError(
                f"run {run_id!r} already exists in {root}; "
                "resume it or pick another --run-id"
            )
        ledger = cls(path, LedgerState(run_id=run_id), resuming=False)
        ledger.append(
            {
                "t": "run_start",
                "run_id": run_id,
                "created_at": time.time(),
                "meta": dict(meta or {}),
            }
        )
        return ledger

    @classmethod
    def resume(
        cls, ledger_dir: "str | Path", run_id: "str | None" = None
    ) -> "RunLedger":
        path = cls.run_path(ledger_dir, run_id)
        state = _replay(path)
        if state.attempts == 0:
            raise LedgerError(f"journal {path} holds no run_start record")
        if state.torn_tail:
            with open(path, "r+b") as fh:
                fh.truncate(state.good_bytes)
            state.torn_tail = False
        ledger = cls(path, state, resuming=True)
        ledger.append(
            {
                "t": "run_resume",
                "resumed_at": time.time(),
                "attempt": state.attempts,  # already bumped by apply()
            }
        )
        return ledger

    @staticmethod
    def run_path(ledger_dir: "str | Path", run_id: "str | None") -> Path:
        root = Path(ledger_dir)
        if run_id is not None:
            path = root / f"{run_id}{LEDGER_SUFFIX}"
            if not path.is_file():
                raise LedgerError(f"no run {run_id!r} in {root}")
            return path
        candidates = sorted(
            root.glob(f"*{LEDGER_SUFFIX}"), key=lambda p: p.stat().st_mtime
        )
        if not candidates:
            raise LedgerError(f"no run journals in {root}")
        return candidates[-1]

    @staticmethod
    def replay(path: "str | Path") -> LedgerState:
        """Read-only replay of a journal file (tolerates a torn tail)."""
        return _replay(Path(path))

    # -- appending ------------------------------------------------------

    @property
    def run_id(self) -> str:
        return self.state.run_id

    def append(self, record: dict) -> None:
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        data = payload.encode()
        line = b"%08x " % (zlib.crc32(data) & 0xFFFFFFFF) + data + b"\n"
        chaos = None
        with self._lock:
            self._fh.write(line)
            self.state.apply(record)
            if (
                self._crash_target is not None
                and record.get("t") == "chunk_done"
                and record.get("stage") == self._crash_target[0]
            ):
                self._crash_seen += 1
                if self._crash_seen >= self._crash_target[1]:
                    if self._chaos_mode == "slow" or not self._chaos_fired:
                        chaos = self._chaos_mode
                    self._chaos_fired = True
        # Faults fire outside the lock: a hanging worker must not wedge
        # other threads' journaling, only its own stage.
        if chaos == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif chaos in ("hang", "slow"):
            time.sleep(self._chaos_arg)

    def chunk_done(
        self, stage: str, key: str, digest: str, store: str = ""
    ) -> None:
        self.append(
            {
                "t": "chunk_done",
                "stage": stage,
                "key": key,
                "digest": digest,
                "store": store,
            }
        )

    def edge_ack(self, edge: str, key: str) -> None:
        self.append({"t": "edge_ack", "edge": edge, "key": key})

    def quarantine(self, edge: str, record: dict) -> None:
        """Journal a poison chunk the broker dead-lettered on ``edge``.

        ``record`` is the broker's quarantine record (``key``,
        ``strikes``, and the per-attempt failure ``history``); the run can
        then complete degraded with a durable account of what was
        excluded and why.
        """
        self.append(
            {
                "t": "quarantine",
                "edge": edge,
                "key": record["key"],
                "strikes": record["strikes"],
                "history": list(record.get("history") or []),
            }
        )

    def complete(self, **fields: Any) -> None:
        self.append(
            {"t": "run_complete", "completed_at": time.time(), **fields}
        )

    def close(self) -> None:
        with self._lock:
            self._fh.close()

    # -- resume queries -------------------------------------------------

    def journaled_digest(self, stage: str, key: str) -> "str | None":
        return self.state.chunks.get((stage, key))

    def count_skip(self, what: str, n: int = 1) -> None:
        with self._lock:
            self.skips[what] = self.skips.get(what, 0) + n


def bind_run_config(ledger: RunLedger, manifest, stages, **extra: Any) -> None:
    """Record a fresh run's config, or validate a resumed run against it.

    A resume that points at a different dataset or stage list would
    "skip" work that was never done — refuse it up front.
    """
    config = {
        "stages": list(stages),
        "dataset_fingerprint": dataset_fingerprint(manifest),
    }
    config.update({k: v for k, v in extra.items() if v is not None})
    if not ledger.resuming:
        ledger.append({"t": "run_config", "meta": config})
        return
    prior = ledger.state.meta
    for field_name in ("stages", "dataset_fingerprint"):
        recorded = prior.get(field_name)
        if recorded is not None and recorded != config[field_name]:
            raise LedgerError(
                f"cannot resume run {ledger.run_id!r}: {field_name} changed "
                f"(journaled {recorded!r}, got {config[field_name]!r})"
            )


# --------------------------------------------------------- resume hooks


class JournaledStore:
    """A :class:`ChunkStore` wrapper with idempotent, journaled writes.

    Every ``put`` journals a ``chunk_done`` record carrying the blob's
    digest.  On a resumed run, a ``put`` whose digest matches both the
    journal *and* the bytes already in the backing store is skipped —
    anything else (stale, torn, or missing) writes through as normal.
    """

    def __init__(
        self, store: ChunkStore, ledger: RunLedger, stage: str, label: str = ""
    ):
        self.store = store
        self.ledger = ledger
        self.stage = stage
        self.label = label

    def put(self, key: str, data: bytes) -> None:
        digest = blob_digest(data)
        if (
            self.ledger.resuming
            and self.ledger.journaled_digest(self.stage, key) == digest
            and self._stored_digest(key) == digest
        ):
            self.ledger.count_skip(self.stage)
            return
        self.store.put(key, data)
        self.ledger.chunk_done(self.stage, key, digest, store=self.label)

    def _stored_digest(self, key: str) -> "str | None":
        try:
            if not self.store.exists(key):
                return None
            return blob_digest(self.store.get(key))
        except StorageError:
            return None

    def get(self, key: str) -> bytes:
        return self.store.get(key)

    def exists(self, key: str) -> bool:
        return self.store.exists(key)

    def delete(self, key: str) -> None:
        self.store.delete(key)

    def keys(self) -> Iterator[str]:
        return self.store.keys()


class StageJournal:
    """Compute-skip hook for aligner nodes.

    When a resumed run's journal holds this chunk's results digest and
    the results blob on disk still matches it, the aligner decodes the
    stored records instead of re-running alignment.  Only digests this
    stage journaled count — a results chunk later rewritten by dupmark
    digests differently and simply re-aligns (deterministically).
    """

    def __init__(self, ledger: RunLedger, stage: str, store: ChunkStore):
        self.ledger = ledger
        self.stage = stage
        self.store = store

    def cached_results(self, entry):
        if not self.ledger.resuming:
            return None
        key = entry.chunk_file("results")
        digest = self.ledger.journaled_digest(self.stage, key)
        if digest is None:
            return None
        try:
            blob = self.store.get(key)
        except StorageError:
            return None
        if blob_digest(blob) != digest:
            return None
        self.ledger.count_skip(f"{self.stage}.compute")
        return read_column(blob)


class SpillJournal:
    """Spill re-adoption hook for sort-run nodes.

    A spill record journals which input chunks fed the run and the
    scratch entries it produced.  On resume, a run whose input group
    matches and whose scratch files all survive is re-adopted without
    re-sorting or re-spilling.  (Records an older version wrote for a
    run spilled by key range carry ``partitions`` / ``boundaries`` /
    ``spill_partitions`` keys too; ``entries`` already lists that run's
    sub-chunks in row order, so those keys are ignored.)
    """

    def __init__(self, ledger: RunLedger, scratch: ChunkStore):
        self.ledger = ledger
        self.scratch = scratch

    def adopt(
        self, run_index: int, chunk_paths, ordered_columns
    ) -> "dict | None":
        if not self.ledger.resuming:
            return None
        record = self.ledger.state.spills.get(run_index)
        if record is None or record.get("chunks") != list(chunk_paths):
            return None
        entry_docs = record.get("entries")
        if not entry_docs:
            return None
        for path, _first, _count in entry_docs:
            for column in ordered_columns:
                if not self.scratch.exists(f"{path}.{column}"):
                    return None
        self.ledger.count_skip("sort.spill")
        return record

    def record(self, run_index: int, chunk_paths, spilled) -> None:
        self.ledger.append(
            {
                "t": "spill",
                "run": run_index,
                "chunks": list(chunk_paths),
                "entries": [
                    [e.path, e.first_ordinal, e.record_count]
                    for e in spilled.entries
                ],
            }
        )
