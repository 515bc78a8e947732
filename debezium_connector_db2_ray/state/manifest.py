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
write-to-temp + put-if-absent hard link: a window id commits at most once,
and a second commit of the same id raises instead of replacing the first.
Staged files not named by any committed manifest do not exist as far as
readers are concerned — so Ray task retries (which may leave duplicate
staged files behind) are harmless, and a window whose manifest never landed
re-runs idempotently (last-writer-wins makes the re-apply a no-op on state).

Every helper reads the log through ``load_manifests``, which parses each
committed manifest once per process: it lists ``_manifests/`` and re-parses
a file only when its ``(name, st_ino, st_size, st_mtime_ns)`` is new, so a
rewritten file, or a lake deleted and rebuilt at the same path, is read
again. The cache holds only what the last listing of each lake found, for
at most ``_CACHED_LAKES`` lakes, and drops lakes whose manifest directory is
gone. Its ``WindowManifest`` objects are shared by every caller: read them,
never mutate them.
"""

from __future__ import annotations

import json
import os
import uuid
from collections import OrderedDict
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
    """Two-phase commit: write to a temp name, fsync, then hard-link it to
    the final name. The link is the commit point and is put-if-absent: if
    the window id is already committed, the temp file is removed and
    ``FileExistsError`` raised, leaving the committed manifest as it was."""
    os.makedirs(_mdir(out_dir), exist_ok=True)
    final = manifest_path(out_dir, m.window_id)
    tmp = final + f".tmp-{uuid.uuid4().hex}"
    with open(tmp, "w") as f:
        json.dump(asdict(m), f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    try:
        os.link(tmp, final)
    finally:
        os.remove(tmp)
    return final


#: parsed manifests per manifest directory, least recently read first:
#: ``{dir: {name: ((st_ino, st_size, st_mtime_ns), WindowManifest)}}``
_PARSED: OrderedDict[str, dict[str, tuple[tuple, WindowManifest]]] = OrderedDict()
#: lakes whose parsed manifests a process keeps (a connector holds one per
#: table); reading one more evicts the least recently read
_CACHED_LAKES = 64


def _parse(path: str) -> WindowManifest:
    with open(path) as f:
        return WindowManifest(**json.load(f))


def load_manifests(out_dir: str) -> list[WindowManifest]:
    """The committed manifests of ``out_dir`` in window-id order, each
    parsed once per file version (see the module docstring). The list is
    the caller's; the manifests in it are shared."""
    d = _mdir(out_dir)
    try:
        entries = sorted((e.name, e) for e in os.scandir(d)
                         if e.name.startswith("window-") and e.name.endswith(".json"))
    except (FileNotFoundError, NotADirectoryError):
        _PARSED.pop(d, None)
        return []
    cached = _PARSED.pop(d, None)
    if cached is None:
        # a lake new to the cache: forget the lakes deleted since
        for gone in [k for k in _PARSED if not os.path.isdir(k)]:
            del _PARSED[gone]
        cached = {}
    parsed = {}
    for name, e in entries:
        st = e.stat()
        key = (st.st_ino, st.st_size, st.st_mtime_ns)
        hit = cached.get(name)
        parsed[name] = hit if hit is not None and hit[0] == key else (key, _parse(e.path))
    _PARSED[d] = parsed
    while len(_PARSED) > _CACHED_LAKES:
        _PARSED.popitem(last=False)
    return [m for _, m in parsed.values()]


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
        for key, p in m.partitions.items():
            pid = int(key)
            rows[pid] = rows.get(pid, 0) + p["rows"]
            files = seen.setdefault(pid, {})
            for f in p["files"]:
                files[f] = None
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
