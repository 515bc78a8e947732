"""Per-partition LSN-watermark manifests — the exactly-once commit log.

Plays the role of the reference's offset store: the streaming offset is
``{commit_lsn, change_lsn, event_serial_no}`` plus snapshot flags
(Db2OffsetContext.java:66-80), persisted so a restart resumes without
duplicate or lost events (positional skip,
Db2StreamingChangeEventSource.java:208-223; restart IT
Db2ConnectorIT.java:549-714).

Batch-shaped equivalent: each replay window commits ONE manifest JSON listing,
per hash partition, the exact staged parquet files it produced, the applied
LSN range, and lineage counts per op (the reference's transaction-metadata
counters, TransactionMetadataIT.java:98-117, reshaped). The commit is a
write-to-temp + atomic rename; staged files not named by any committed
manifest do not exist as far as readers are concerned — so Ray task retries
(which may leave duplicate staged files behind) are harmless, and a window
whose manifest never landed re-runs idempotently (last-writer-wins makes the
re-apply a no-op on state).
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any

from debezium_connector_db2_ray.lsn import Lsn

MANIFEST_DIR = "_manifests"


@dataclass
class PartitionLineage:
    partition: int
    rows: int
    files: list[str]
    op_counts: dict[str, int] = field(default_factory=dict)
    min_lsn: str | None = None  # hex
    max_lsn: str | None = None


@dataclass
class WindowManifest:
    window_id: int
    kind: str  # "snapshot" | "snapshot_replace" | "stream" | "compaction"
    from_lsn: str | None  # hex, inclusive lower bound of the window
    to_lsn: str | None  # hex, inclusive upper bound == new watermark
    snapshot_completed: bool
    partitions: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: the hash-partitioning under which this window's files were written;
    #: every live window must agree (a key must map to ONE partition across
    #: all live files or merge-on-read misses cross-window LWW) — changing
    #: num_partitions/salt requires a compaction barrier, which re-tags
    partitioning: dict[str, int] | None = None
    #: the reference's offset triplet (Db2OffsetContext.java:66-80) for the
    #: LAST event this window applied: {"commit_lsn": hex, "change_lsn": hex,
    #: "event_serial_no": 1-based row index within that commit}. Windows
    #: align to commit boundaries, so serial == the commit's total row count;
    #: offset_skip consumes it when resuming against an external mid-commit
    #: offset (stages/apply.py offset_skip)
    resume_position: dict[str, Any] | None = None

    def watermark(self) -> Lsn | None:
        from debezium_connector_db2_ray.lsn import lsn_from_hex

        return lsn_from_hex(self.to_lsn) if self.to_lsn else None


def _mdir(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST_DIR)


def manifest_path(out_dir: str, window_id: int) -> str:
    return os.path.join(_mdir(out_dir), f"window-{window_id:06d}.json")


def commit_manifest(out_dir: str, m: WindowManifest) -> str:
    """Two-phase commit: write to a temp name, fsync, atomic rename. The
    rename is the commit point."""
    os.makedirs(_mdir(out_dir), exist_ok=True)
    final = manifest_path(out_dir, m.window_id)
    tmp = final + f".tmp-{uuid.uuid4().hex}"
    with open(tmp, "w") as f:
        json.dump(asdict(m), f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, final)
    return final


def load_manifests(out_dir: str) -> list[WindowManifest]:
    d = _mdir(out_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for name in sorted(os.listdir(d)):
        if not (name.startswith("window-") and name.endswith(".json")):
            continue
        with open(os.path.join(d, name)) as f:
            raw = json.load(f)
        out.append(WindowManifest(**raw))
    return out


def committed_watermark(out_dir: str) -> Lsn | None:
    """Highest committed to_lsn across LIVE manifests — the resume point.
    Windows entirely at or below it are skipped wholesale on resume.

    Only live manifests count: a snapshot_replace barrier (snapshot mode
    ALWAYS, Db2ConnectorIT.java:912-970 shouldNotUseOffsetWhenSnapshotIsAlways)
    supersedes every earlier window, so it RESETS the resume point — a stale
    pre-barrier stream watermark must not shadow post-resnapshot windows."""
    wm: Lsn | None = None
    for m in _live_manifests(out_dir):
        w = m.watermark()
        if w is not None and (wm is None or w > wm):
            wm = w
    return wm


#: manifest kinds that make every OLDER window's files dead: a compaction
#: folds them; a replace-snapshot (snapshot mode ALWAYS,
#: Db2ConnectorIT.java:912-970 shouldNotUseOffsetWhenSnapshotIsAlways)
#: re-reads current source state and supersedes everything before it
BARRIER_KINDS = ("compaction", "snapshot_replace")


def _live_manifests(out_dir: str) -> list[WindowManifest]:
    ms = load_manifests(out_dir)
    last_barrier = -1
    for m in ms:
        if m.kind in BARRIER_KINDS:
            last_barrier = max(last_barrier, m.window_id)
    return [
        m
        for m in ms
        if m.window_id > last_barrier
        or (m.window_id == last_barrier and m.kind in BARRIER_KINDS)
    ]


def live_files(out_dir: str) -> list[str]:
    """Parquet files that constitute current state: the newest compaction's
    base files plus every later window's delta files — ONLY files named by
    committed manifests (orphaned staged files from retried/killed tasks are
    invisible). A fragment file clustered across partitions appears once."""
    seen: dict[str, None] = {}
    for m in _live_manifests(out_dir):
        for p in m.partitions.values():
            for f in p["files"]:
                seen.setdefault(f, None)
    return list(seen)


def live_partitions(out_dir: str) -> dict[int, tuple[int, list[str]]]:
    """Per hash partition, from committed manifests: (live rows, summed
    from the lineage ``rows``; live files in commit order). With the
    write-exchange sink a fragment file holds several partitions' row groups
    (clustered + pruned by the ``__part`` column at read); it is listed under
    each partition it contains."""
    rows: dict[int, int] = {}
    seen: dict[int, dict[str, None]] = {}  # insertion-ordered file sets
    for m in _live_manifests(out_dir):
        for pid, p in m.partitions.items():
            rows[int(pid)] = rows.get(int(pid), 0) + p["rows"]
            seen.setdefault(int(pid), {}).update(dict.fromkeys(p["files"]))
    return {pid: (rows[pid], list(files)) for pid, files in seen.items()}


def partition_files(out_dir: str) -> dict[int, list[str]]:
    """Live files per hash partition (``live_partitions`` without rows)."""
    return {pid: files for pid, (_, files) in live_partitions(out_dir).items()}


def resume_offset(out_dir: str) -> dict[str, Any] | None:
    """The persisted streaming offset to resume from — the resume_position
    of the live manifest with the highest watermark that recorded one
    (reference: the offset store returns {commit_lsn, change_lsn,
    event_serial_no}, Db2OffsetContext.java:66-80)."""
    best = None
    best_wm: Lsn | None = None
    for m in _live_manifests(out_dir):
        w = m.watermark()
        if m.resume_position and w is not None and (best_wm is None or w >= best_wm):
            best, best_wm = m.resume_position, w
    return best


def next_window_id(out_dir: str) -> int:
    ms = load_manifests(out_dir)
    return (max((m.window_id for m in ms), default=-1)) + 1


def live_partitioning(out_dir: str) -> dict[str, int] | None:
    """The partitioning governing the live files (newest live manifest that
    recorded one)."""
    for m in reversed(_live_manifests(out_dir)):
        if m.partitioning:
            return m.partitioning
    return None
