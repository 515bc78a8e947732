"""Snapshot-then-stream CDC replay — the Ray-Data pipeline orchestration.

Lifecycle mirrors the reference coordinator (snapshot phase then streaming
loop over bounded LSN windows — Db2ConnectorTask.java:163-176,
Db2StreamingChangeEventSource.java:132-302) reshaped for Ray Data:

  snapshot (and each incremental-snapshot chunk):
             read(lake) --map_batches(snapshot events, partition tag)-->
             plain-task exchange on part (full collapse, one fragment per
             reduce task) --> manifest
  window w of a Dataset, shuffle exchange:
             read_parquet(changelog, filter lsn in (from, to]) -->
             map_batches(null-LSN drop, partition tag [, partial LWW]) -->
             plain-task exchange on part: split tasks (when several
             reduce tasks) --> reduce tasks (one sort led by part:
             pair-validate, LWW apply; one fragment write) --> commit
             manifest (watermark = to_lsn)
  window w of a Dataset, write exchange:
             map_batches(prep as above, then fragment write) --> manifest
  connector window w (``CdcConnector``, T tables, one job):
             read(stream) --map_batches(slice to (from, to], route to each
             table, stop fence, prep as above; part = table index *
             num_partitions + partition)--> plain-task exchange on part
             (each reduce task: one fragment per table into that table's
             dir) --> one manifest per table
             (write exchange: one fragment write per table per batch)
  window w, write exchange over a changelog path:
             row groups pruned to (from, to] by cached footer stats -->
             one plain Ray task per unit of row groups (read, null-LSN
             drop, partition tag, partial LWW, fragment write) -->
             commit manifest (watermark = to_lsn)

Every Ray Data shape above is one job built by ``CdcEngine._staged``; on
the shuffle exchange the job ends at the prep map and its reduce runs as
plain tasks (``functions.exchange.task_exchange``). The write-exchange
tasks over a changelog path (and compaction's) are ``_run_stage_tasks``.
State reads and compaction merge on read by unit (``merge_unit``): one
task per run of consecutive hash partitions of at most ``batch_size`` live
rows opens each of its files once.
Each window is one bounded unit of work (the reference's poll iteration,
which drains a closed interval [fromLsn, currentMaxLsn] completely): a Ray
Data job and its reduce tasks on the shuffle exchange, a handful of tasks
planned from parquet footers on the write exchange over a changelog path
(no job launch per small window). State
between windows lives ONLY in committed manifests + their parquet files —
merge-on-read deltas with periodic compaction — so a kill at any point resumes
cleanly: committed windows are skipped by watermark, the interrupted window
re-runs idempotently (LWW) and its orphaned staged files stay invisible.

Scale notes (100 TB design):
- a changelog path is read only in the row groups whose commit-LSN stats
  intersect the window;
- the only all-to-all exchange per window is the one on the int32 ``part``
  column; with the per-batch partial collapse (fast path, no strict pair
  validation), shuffle volume is bounded by (#distinct keys touched) not
  (#events);
- hot conv_ids are split by salted sub-partitioning (``salt`` > 1) — legal
  because the LWW key is (conv_id, turn_idx);
- outputs are partition-clustered fragments whose row groups carry
  ``__part`` stats, so downstream reads and re-runs are
  partition-parallel and resumable.
"""

from __future__ import annotations

import functools
import json
import os
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from debezium_connector_db2_ray.functions.exchange import (
    exchange, side_schema, task_exchange)
from debezium_connector_db2_ray.lsn import Lsn, lsn_hex, lsn_range_mask
from debezium_connector_db2_ray.schema import (
    CHANGELOG_META_COLUMNS,
    KEY_COLUMNS,
    conform_table,
    defaults_from_schema,
    unify_payload_schemas,
)

from debezium_connector_db2_ray.stages.apply import (
    commit_range_filter,
    fence_filter,
    final_state,
    lww_collapse,
    partition_ids,
    snapshot_as_events,
)
from debezium_connector_db2_ray.stages.decode import drop_null_lsn
from debezium_connector_db2_ray.state.manifest import (
    PartitionLineage,
    WindowManifest,
    commit_manifest,
    committed_watermark,
    live_partitions,
    next_window_id,
)

META_SET = set(CHANGELOG_META_COLUMNS)
PART_COL = "__part"


_MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("partition", pa.int32()),
        ("rows", pa.int64()),
        ("file", pa.string()),
        ("op_counts", pa.string()),  # json
        ("min_lsn", pa.string()),
        ("max_lsn", pa.string()),
    ]
)


def key_partitioner(num_partitions: int, salt: int = 1,
                    key_columns: tuple[str, ...] = KEY_COLUMNS):
    """``table -> int32 partition codes`` of the replay layout: hash of the
    FIRST key column; ``salt`` sub-partitions by the second (requires a
    composite key)."""
    sub_col = key_columns[1] if len(key_columns) > 1 else None
    if salt > 1 and sub_col is None:
        raise ValueError(
            "salting requires a second key column to sub-partition by"
        )

    def part(batch: pa.Table) -> np.ndarray:
        return partition_ids(
            batch[key_columns[0]],
            batch[sub_col].to_numpy(zero_copy_only=False)
            if sub_col is not None else None,
            num_partitions,
            salt,
        )

    return part


def tag_partitions(num_partitions: int, salt: int = 1,
                   key_columns: tuple[str, ...] = KEY_COLUMNS):
    """map_batches fn: drop NULL-LSN rows and add the persisted
    hash-partition column (``key_partitioner``)."""
    part = key_partitioner(num_partitions, salt, key_columns)

    def fn(batch: pa.Table) -> pa.Table:
        batch = drop_null_lsn(batch)
        return batch.append_column(
            PART_COL, pa.array(part(batch), pa.int32())
        )

    return fn


def _op_counts(op: np.ndarray) -> str:
    """A manifest row's ``op_counts``: json of {op code: rows}."""
    ops, counts = np.unique(op, return_counts=True)
    return json.dumps({str(int(k)): int(v) for k, v in zip(ops, counts)})


def _lsn_range(table: pa.Table) -> tuple[str | None, str | None]:
    if table.num_rows == 0:
        return None, None
    chi = table["commit_lsn_hi"].to_numpy(zero_copy_only=False).astype(np.uint64)
    clo = table["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(np.uint64)
    lo, hi = chi.min(), chi.max()
    return (lsn_hex(int(lo), int(clo[chi == lo].min())),
            lsn_hex(int(hi), int(clo[chi == hi].max())))


#: Row-group sizing of a fragment: about one group per CPU of the cluster
#: (a state read runs one merge unit per CPU), at least ``ROW_GROUP_MIN``
#: and at most ``ROW_GROUP_MAX`` rows, each group ending at a partition
#: boundary so a reader's ``__part`` stats skip the other units' groups.
ROW_GROUP_MIN = 1_024
ROW_GROUP_MAX = 16_384


def _row_group_ends(starts: np.ndarray, n: int) -> list[int]:
    """Ends of the row groups of a fragment of ``n`` rows clustered by
    partition (``starts`` of its partition runs): each group runs to the
    first partition boundary at least ``n / cluster CPUs`` rows (within
    ``ROW_GROUP_MIN`` and ``ROW_GROUP_MAX``) past the previous end. A
    fragment of at most ``ROW_GROUP_MIN`` rows is one group, so it skips
    the cluster query (a GCS round trip, about 1.5 ms of a small window
    on a 1-CPU host)."""
    cpus = _cluster_cpus() if n > ROW_GROUP_MIN else 1
    floor = min(ROW_GROUP_MAX, max(ROW_GROUP_MIN, -(-n // cpus)))
    ends = [0]
    for e in starts[1:].tolist() + [n]:
        if e - ends[-1] >= floor or e == n:
            ends.append(e)
    return ends[1:]


def fragment_writer(delta_dir: str, *, collapse: str = "partial",
                    key_columns: tuple[str, ...] = KEY_COLUMNS):
    """``tagged table -> manifest rows``, the engine's one sink kernel:
    collapse the rows, cluster them by hash partition with the same one
    ``np.lexsort`` (``__part`` leads; the partition is a function of the
    key), write ONE fragment whose row groups are partition-aligned and
    emit one manifest row per partition in it. The file is visible only
    once the driver commits the window manifest (two-phase sink).

    ``collapse``: "partial" — a per-batch combiner (a winning op 3 is
    legal, its op 4 may sit in another batch): the write exchange, once
    per ~``batch_size`` rows; "full" — last-writer-wins apply, a winning
    op 3 raises, and "strict" — "full" with every update pair validated:
    the shuffle exchange, once per table in each reduce task; "none" —
    rows already unique per key, only clustered: ``compact()``, once per
    merge unit."""
    def fn(batch: pa.Table) -> pa.Table:
        if collapse == "none":
            order = np.argsort(batch[PART_COL].to_numpy(zero_copy_only=False),
                               kind="stable")
            batch = batch.take(order)
        else:
            batch = lww_collapse(
                batch, validate_pairs=collapse == "strict",
                partial=collapse == "partial", key_columns=key_columns,
                cluster=PART_COL,
            )
        if batch.num_rows == 0:
            return _MANIFEST_ROW_SCHEMA.empty_table()
        parts = batch[PART_COL].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, parts[1:] != parts[:-1]])
        counts = np.diff(np.r_[starts, len(parts)])
        os.makedirs(delta_dir, exist_ok=True)
        path = os.path.join(delta_dir, f"frag-{uuid.uuid4().hex}.parquet")
        with pq.ParquetWriter(path, batch.schema, compression="zstd") as w:
            begin = 0
            for end in _row_group_ends(starts, len(parts)):
                w.write_table(batch.slice(begin, end - begin))
                begin = end
        op = batch["op"].to_numpy(zero_copy_only=False)
        rows = []
        for s, c in zip(starts.tolist(), counts.tolist()):
            mn, mx = _lsn_range(batch.slice(s, c))
            rows.append(
                {
                    "partition": int(parts[s]),
                    "rows": c,
                    "file": path,
                    "op_counts": _op_counts(op[s : s + c]),
                    "min_lsn": mn,
                    "max_lsn": mx,
                }
            )
        return pa.Table.from_pylist(rows, schema=_MANIFEST_ROW_SCHEMA)

    return fn


def staged_writer(delta_dir: str, *, validate_pairs: bool,
                  key_columns: tuple[str, ...] = KEY_COLUMNS):
    """``fragment_writer`` with a full collapse ("strict" under
    ``validate_pairs``). The engine no longer calls it; it stays for the
    benchmark's per-layer tracer (``replaybench/layers.py``)."""
    return fragment_writer(delta_dir, key_columns=key_columns,
                           collapse="strict" if validate_pairs else "full")


def merge_units(live: dict[int, tuple[int, list[str]]], batch_size: int,
                cpus: int) -> list[dict]:
    """Pack consecutive live partitions ``{partition: (rows, files)}`` into
    merge-on-read units ``{"partitions": [p, ...], "files": [[f, ...], ...]}``
    of at most ``batch_size`` live rows (a larger partition is a unit of its
    own): min(live partitions, ``cpus``) units, each but the last filled to
    an even share of the rows, and more only where ``batch_size`` needs
    them. A host with a CPU per partition keeps one task per partition."""
    parts = sorted(live.items())
    need = min(len(parts), cpus)
    even = max(1, -(-sum(r for r, _ in live.values()) // max(need, 1)))
    units: list[dict] = []
    rows = 0
    for i, (p, (r, files)) in enumerate(parts):
        if (not units or rows >= even or rows + r > batch_size
                or len(parts) - i <= need - len(units)):
            units.append({"partitions": [], "files": []})
            rows = 0
        units[-1]["partitions"].append(p)
        units[-1]["files"].append(files)
        rows += r
    return units


def _with_defaults(t: pa.Table, default_fill: dict) -> pa.Table:
    for c, (typ, val) in default_fill.items():
        if c not in t.column_names:
            t = t.append_column(
                c, pa.nulls(t.num_rows, typ).fill_null(pa.scalar(val, typ)))
    return t


def _file_pieces(path: str, parts: set[int],
                 default_fill: dict) -> dict[int, list[pa.Table]]:
    """One live file's rows of the partitions ``parts``, per partition in
    file order. Row groups whose ``__part`` footer stats hold none of
    ``parts`` are skipped, a group whose stats pin one partition is taken
    whole, and only the other groups (no stats included) are split by
    ``__part``."""
    out: dict[int, list[pa.Table]] = {}
    with pq.ParquetFile(path) as f:
        md = f.metadata
        col = md.schema.names.index(PART_COL)
        for g in range(md.num_row_groups):
            s = md.row_group(g).column(col).statistics
            lo, hi = (s.min, s.max) if s is not None and s.has_min_max else (None, None)
            if lo is not None and not any(lo <= p <= hi for p in parts):
                continue
            t = _with_defaults(f.read_row_group(g), default_fill)
            if lo is not None and lo == hi:
                out.setdefault(lo, []).append(t)
                continue
            code = t[PART_COL].to_numpy(zero_copy_only=False)
            if (code[1:] < code[:-1]).any():  # fragments come clustered
                order = np.argsort(code, kind="stable")
                t, code = t.take(order), code[order]
            uniq, starts, counts = np.unique(
                code, return_index=True, return_counts=True)
            for p, b, n in zip(uniq.tolist(), starts, counts):
                if p in parts:
                    out.setdefault(p, []).append(t.slice(b, n))
    return out


def read_unit_table(unit: dict, default_fill: dict | None = None) -> pa.Table | None:
    """A merge unit's live rows (None if it has none): the union of its
    partitions' files is opened once each, in commit order, and only the
    row groups that can hold one of its partitions are read. Rows are
    concatenated partition by partition, each in its own files' order, the
    order a per-partition read gives.

    ``default_fill`` maps column -> (arrow type, typed default): a column
    an ALTER added WITH a DEFAULT is materialized PER FILE before the
    concat, so pre-ALTER rows carry the typed default even when the unit
    mixes file generations (a permissive concat would null-fill them and
    the default would be unrecoverable downstream —
    AbstractDb2DefaultValueIT semantics)."""
    parts, files = unit["partitions"], unit["files"]
    pieces = {f: _file_pieces(f, set(parts), default_fill or {})
              for f in dict.fromkeys(f for fs in files for f in fs)}
    tables = [t for p, fs in zip(parts, files) for f in fs
              for t in pieces[f].get(p, ())]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="permissive")


def merge_unit(unit: dict, default_fill: dict,
               key_columns: tuple[str, ...]) -> pa.Table | None:
    """The merge-on-read kernel of ``state_dataset`` and ``compact``: read a
    unit and LWW-collapse it once, tombstones dropped, meta columns kept.
    One collapse serves the whole unit because a key never spans
    partitions (``CdcEngine._check_partitioning``)."""
    t = read_unit_table(unit, default_fill)
    if t is None:
        return None
    return final_state(lww_collapse(
        t.drop_columns([PART_COL]), validate_pairs=False,
        key_columns=key_columns,
    ), keep_meta=True)


def _cluster_cpus() -> int:
    """CPUs of the Ray cluster (of this host before Ray starts)."""
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


@dataclass
class CdcEngine:
    """A CDC target lake: output directory + partitioning/exchange policy.

    ``exchange`` — which one serves which need:
    - "shuffle" (default): hash shuffle + full LWW collapse in each reduce
      task before its one fragment write per table (read-optimized
      deltas: one row per key). Required for strict
      ``validate_pairs``, which must see every image of a key in one task;
      with ``validate_pairs=False`` each batch is partially collapsed before
      the shuffle. The replay benchmark's ``connector_strict`` workload
      measures this path.
    - "write": no all-to-all — tasks write partition-clustered fragment
      files directly; collapse happens at read/compaction (write-optimized;
      fast path only). Over a changelog path (``replay_from_parquet``) a
      window is planned from cached footer stats and runs as plain Ray
      tasks over the row groups that can hold it, with no Ray Data job; a
      Dataset given to ``replay_window`` is mapped with ``map_batches``.
      The ``long_horizon`` workload and the ``bench.py`` headline measure
      it.

    Every phase that changes table state (snapshot, incremental chunk,
    stream window, compaction, schema-only watermark) goes through
    ``_commit``: one window id, one staging step, one manifest commit.
    A staging step that runs on Ray Data (snapshot, incremental chunk,
    ``replay_window`` over a Dataset, and the connector's window for all
    its tables) is one job built by ``_staged``, which on the shuffle
    exchange is one prep map followed by plain reduce tasks; a
    write-exchange window over a changelog path and compaction stage with
    plain tasks only. All of them write through one sink kernel,
    ``fragment_writer``: one fragment per table per reduce task or batch.
    State reads and compaction merge on read through one kernel,
    ``merge_unit``: one task per unit of consecutive hash partitions
    opens each of the unit's live files once.
    """

    out_dir: str
    num_partitions: int = 32
    salt: int = 1
    validate_pairs: bool = True
    table_name: str = "transcripts"
    #: the table's primary key — last-writer-wins identity, hash-partition
    #: key (first column; the second sub-partitions under salt). The
    #: reference reads each table's PK from the catalog (Db2Connection
    #: schema read); here the caller supplies it per engine.
    key_columns: tuple[str, ...] = KEY_COLUMNS
    exchange: str = "shuffle"  # "shuffle" | "write"
    batch_size: int = 400_000  # rows per map batch (reader emits ~8k-row
    # record batches; mapping per tiny batch multiplies per-call overhead)
    #: auto-compaction policy: after a window commits, if any partition's
    #: merge-on-read must open more than ``compact_trigger`` live files,
    #: fold base+deltas (read-amplification reset). Long replays keep
    #: state-read cost flat instead of degrading linearly with windows. The
    #: trigger is sized so short replays (a handful of windows) never pay a
    #: mid-replay fold — compaction amortizes over tens of windows.
    auto_compact: bool = True
    compact_trigger: int = 64

    def __post_init__(self) -> None:
        # central pre-start validation — the reference validates every
        # config field before the task runs (Db2Connector.java:86-89)
        from debezium_connector_db2_ray.config import ensure_valid

        ensure_valid(
            num_partitions=self.num_partitions,
            salt=self.salt,
            key_columns=self.key_columns,
            batch_size=self.batch_size,
            exchange=self.exchange,
            validate_pairs=self.validate_pairs,
            compact_trigger=self.compact_trigger,
        )

    @property
    def notifications(self):
        """Durable notification channel (reference NotificationService /
        NotificationsIT) — snapshot/backfill/compaction progress events."""
        from debezium_connector_db2_ray.state.notifications import (
            NotificationLog,
        )

        return NotificationLog(self.out_dir)

    @property
    def schema_history(self):
        """Durable CREATE/ALTER log (reference Db2DatabaseSchema.java:51-71);
        rebuilt lazily from disk — recovery after restart is just re-reading
        the log (SchemaHistoryTopicIT semantics)."""
        from debezium_connector_db2_ray.state.schema_log import SchemaHistory

        return SchemaHistory(self.out_dir)

    def _record_schema(self, kind: str, lsn: Lsn, arrow_schema: pa.Schema) -> None:
        payload = pa.schema(
            [f for f in arrow_schema if f.name not in META_SET and f.name != PART_COL]
        )
        hist = self.schema_history
        if kind == "ALTER":
            prev = hist.schema_at(self.table_name, lsn)
            if prev is not None and prev.equals(payload):
                return  # no structural change
        hist.record(kind, self.table_name, lsn, payload)

    def _partitioning(self) -> dict:
        return {
            "num_partitions": self.num_partitions,
            "salt": self.salt,
            "key": list(self.key_columns),
        }

    def _check_partitioning(self) -> None:
        """A key must map to ONE partition across all live files, or the
        per-partition merge-on-read misses cross-window last-writer-wins.
        Changing num_partitions/salt therefore requires a compact() barrier,
        which re-tags every live row under the new partitioning."""
        from debezium_connector_db2_ray.state.manifest import live_partitioning

        committed = live_partitioning(self.out_dir)
        if committed is not None and "key" not in committed:
            # manifests written before key tracking: physical layout is the
            # default key's — compare tolerantly instead of forcing a rewrite
            committed = {**committed, "key": list(KEY_COLUMNS)}
        if committed is not None and committed != self._partitioning():
            raise ValueError(
                f"committed state uses partitioning {committed} but this "
                f"engine is configured with {self._partitioning()}; run "
                "compact() with the new settings (a repartitioning barrier) "
                "before replaying further windows"
            )

    # ---- phases -----------------------------------------------------------

    def snapshot(
        self,
        lake: "ray.data.Dataset",
        snapshot_lsn: Lsn,
        *,
        replace: bool = False,
        isolation_mode: str | None = None,
        locking_mode: str | None = None,
    ) -> WindowManifest:
        """Initial-snapshot phase (reference:
        Db2SnapshotChangeEventSource.java:125-175): materialize the lake as
        op=READ rows at the snapshot watermark into hash-partitioned base
        files, then commit a manifest with snapshot_completed=True.

        ``replace=True`` is snapshot mode ALWAYS: the new snapshot supersedes
        all previously committed state (offsets are NOT used; the lake is
        re-read as-is — Db2ConnectorIT.java:912-970).

        ``isolation_mode`` / ``locking_mode`` accept the reference's
        snapshot.isolation.mode / snapshot.locking.mode enums
        (Db2ConnectorConfig.java:160-300) — validated and echoed into the
        STARTED notification; over an immutable parquet lake every level
        reads identical bytes, so no lock/isolation statement is issued
        (documented no-op, SURVEY.md §3.2 / snapshotter.py)."""
        from debezium_connector_db2_ray.snapshotter import (
            resolve_isolation_mode,
            resolve_locking_mode,
        )

        isolation = resolve_isolation_mode(isolation_mode)
        locking = resolve_locking_mode(locking_mode)
        if not replace:
            self._check_partitioning()
        self.notifications.emit(
            "Initial Snapshot", "STARTED",
            {"table": self.table_name, "snapshot_lsn": snapshot_lsn.hex(),
             "replace": replace, "isolation_mode": isolation,
             "locking_mode": locking},
        )
        tagger = tag_partitions(self.num_partitions, self.salt, self.key_columns)
        m = self._commit(
            "snapshot_replace" if replace else "snapshot",
            lambda d: self._staged(
                lake, [(self, d)],
                lambda batch: [tagger(snapshot_as_events(batch, snapshot_lsn))],
                write=False, validate_pairs=False,
            ),
            to_lsn=snapshot_lsn,
            # CREATE schema event at snapshot, as the reference emits one DDL
            # record per captured table (SchemaHistoryTopicIT.java:96-111)
            schema_event=("CREATE", snapshot_lsn),
        )
        self.notifications.emit(
            "Initial Snapshot", "COMPLETED",
            {"table": self.table_name, "window_id": m.window_id,
             "rows": sum(p["rows"] for p in m.partitions.values())},
        )
        return m

    def snapshot_in_progress(self) -> bool:
        """True when live manifests contain snapshot work whose final chunk
        never committed — the ``snapshotInProgress`` flag the snapshotter
        policy consults (when_needed re-snapshots in that state)."""
        from debezium_connector_db2_ray.state.manifest import _live_manifests

        ms = [m for m in _live_manifests(self.out_dir)
              if m.kind.startswith("snapshot") or m.kind == "schema_only"]
        return bool(ms) and not any(m.snapshot_completed for m in ms)

    def run_snapshot(
        self,
        lake: "ray.data.Dataset",
        snapshot_lsn: Lsn,
        *,
        mode="initial",
    ) -> WindowManifest | None:
        """Policy-driven snapshot phase: ``mode`` is a snapshot-mode string
        (initial / always / initial_only / no_data / schema_only) or an
        injected Snapshotter instance — the reference's snapshot.mode +
        custom-snapshotter SPI (Db2ConnectorConfig.java:64-109,
        CustomTestSnapshot.java:26-81). Returns the committed manifest, or
        None when the policy reads no data AND records no watermark (e.g.
        INITIAL with an existing offset: streaming just resumes).

        schema_only/no_data commits a data-less ``schema_only`` manifest
        carrying the watermark so streaming can begin at the current LSN
        over an empty base."""
        from debezium_connector_db2_ray.snapshotter import resolve_snapshotter

        snap = resolve_snapshotter(mode)
        offset_exists = committed_watermark(self.out_dir) is not None
        in_progress = self.snapshot_in_progress()
        try:
            lake_schema = side_schema(lake)
        except Exception:
            lake_schema = None  # a schemaless (empty) lake: no CREATE lineage
        names = list(lake_schema.names) if lake_schema is not None else []
        if lake_schema is not None and snap.should_snapshot_schema(
            offset_exists, in_progress
        ):
            self._record_schema("CREATE", snapshot_lsn, lake_schema)
        take_data = snap.should_snapshot_data(offset_exists, in_progress)
        if not take_data and offset_exists and in_progress:
            # offsets exist but the prior snapshot never completed — the
            # data-error condition the snapshot.on.data.error flag governs
            take_data = snap.should_snapshot_on_data_error()
        if take_data:
            cols = snap.snapshot_projection(self.table_name, names)
            if cols is not None:
                ds = lake
                if list(cols) != names:
                    ds = lake.select_columns(list(cols))
                return self.snapshot(ds, snapshot_lsn, replace=snap.replace)
        if offset_exists:
            return None  # nothing to do — resume from the existing offset
        # no data read: commit the watermark-only manifest (schema_only)
        return self._commit("schema_only", to_lsn=snapshot_lsn)

    def incremental_snapshot(
        self,
        lake: "ray.data.Dataset",
        snapshot_lsn: Lsn,
        *,
        n_chunks: int = 4,
        max_chunks_per_call: int | None = None,
        tag: str = "",
    ) -> list[WindowManifest]:
        """Chunked snapshot — the incremental-snapshot analog (reference:
        signal-driven chunked PK-range snapshot interleaved with streaming,
        Db2ChangeEventSourceFactory.java:71-91, IncrementalSnapshotIT chunk
        size 250). Our chunk key is a hash-partition range, so each chunk is
        an independently committed, resumable unit; a kill mid-backfill
        resumes at the first chunk without a manifest. Interleaving with
        streaming is safe because snapshot rows carry the fence LSN and lose
        last-writer-wins to any later change (watermark dedup for free).
        ``tag`` namespaces the chunk identity so distinct backfill requests
        (e.g. separate signals) don't satisfy each other's resume check."""
        from debezium_connector_db2_ray.state.manifest import _live_manifests

        self._check_partitioning()
        # LIVE manifests only: chunks superseded by a snapshot_replace
        # barrier are dead and must NOT satisfy a later backfill's resume
        # check (same rule committed_watermark follows)
        done_kinds = {m.kind for m in _live_manifests(self.out_dir)}
        tagger = tag_partitions(self.num_partitions, self.salt, self.key_columns)
        out = []
        prefix = f"snapshot_chunk:{tag}:" if tag else "snapshot_chunk:"
        for c in range(n_chunks):
            kind = f"{prefix}{c}/{n_chunks}"
            if kind in done_kinds:
                continue  # resume: chunk already committed
            if max_chunks_per_call is not None and len(out) >= max_chunks_per_call:
                break  # interleave with streaming windows; resume later
            lo_p = c * self.num_partitions // n_chunks
            hi_p = (c + 1) * self.num_partitions // n_chunks

            def chunk_prep(batch: pa.Table, lo_p=lo_p, hi_p=hi_p) -> list:
                t = tagger(snapshot_as_events(batch, snapshot_lsn))
                pid = t[PART_COL].to_numpy(zero_copy_only=False)
                return [t.filter(pa.array((pid >= lo_p) & (pid < hi_p)))]

            m = self._commit(
                kind,
                lambda d: self._staged(
                    lake, [(self, d)], chunk_prep, write=False,
                    validate_pairs=False,
                ),
                to_lsn=snapshot_lsn,
                snapshot_completed=(c == n_chunks - 1),
            )
            self.notifications.emit(
                "Incremental Snapshot",
                "COMPLETED" if c == n_chunks - 1 else "IN_PROGRESS",
                {"table": self.table_name, "chunk": c, "n_chunks": n_chunks,
                 "tag": tag, "window_id": m.window_id},
            )
            out.append(m)
        return out

    @staticmethod
    def _conditions_filter(conds):
        """Compile a signal's ``additional-conditions`` into a vectorized
        batch filter. Upstream (AbstractIncrementalSnapshotChangeEventSource)
        appends the signal's condition text to every chunk SELECT; this
        engine has no SQL parser, so a condition is a structured triple
        ``{"column": c, "op": one of == != < <= > >=, "value": v}`` compiled
        to a pyarrow.compute kernel. NULLs never satisfy a condition (SQL
        WHERE semantics)."""
        ops = {
            "==": pc.equal, "!=": pc.not_equal,
            "<": pc.less, "<=": pc.less_equal,
            ">": pc.greater, ">=": pc.greater_equal,
        }
        triples = [
            (c["column"], ops[c.get("op", "==")], c["value"]) for c in conds
        ]

        def flt(batch: pa.Table) -> pa.Table:
            mask = None
            for col, op, val in triples:
                m = op(batch[col],
                       pa.scalar(val, batch.schema.field(col).type))
                mask = m if mask is None else pc.and_(mask, m)
            if mask is None:
                return batch
            return batch.filter(pc.fill_null(mask, False))

        return flt

    def drain_signals(self, lake_source) -> list[WindowManifest]:
        """Process every pending signal — the reference's SignalProcessor
        poll between streaming iterations (Db2ConnectorTask.java:142-161).
        ``lake_source`` is a zero-arg callable returning the current source
        lake Dataset (called only if a snapshot signal arrives).

        A signal is acked durably only AFTER all manifests its action
        produced have committed; a kill mid-action leaves it pending and the
        re-run is idempotent (chunk-resume + LWW)."""
        import logging

        from debezium_connector_db2_ray.state.signals import (
            is_paused,
            mark_processed,
            pending_signals,
            set_paused,
        )

        log = logging.getLogger(__name__)
        out: list[WindowManifest] = []
        sigs = pending_signals(self.out_dir)
        # stop-snapshot cancels a pending/incomplete execute-snapshot by
        # tag (data {"tag": <signal id>} or {"tag": "all"}) — collected
        # up-front so a stop enqueued AFTER a killed-mid-chunks snapshot
        # cancels its resumption, matching the reference's
        # StopSnapshotAction on in-flight incremental snapshots
        stop_tags = {
            (s.data or {}).get("tag", "all")
            for s in sigs if s.type == "stop-snapshot"
        }
        stop_all = "all" in stop_tags
        # control-plane signals (stop/pause/resume) apply BEFORE the
        # data-plane pass, in enqueue order — so a resume enqueued after a
        # paused execute lets THIS drain run it (the reference's signal
        # actions mutate coordinator state before the next poll acts)
        control = [s for s in sigs if s.type in (
            "stop-snapshot", "pause-snapshot", "resume-snapshot")]
        for sig in control:
            if sig.type == "stop-snapshot":
                log.info("stop-snapshot: cancelling %s", stop_tags)
            elif sig.type == "pause-snapshot":
                set_paused(self.out_dir, True)
            else:
                set_paused(self.out_dir, False)
            mark_processed(self.out_dir, sig.id)
            self.notifications.emit(
                "Signal", "PROCESSED",
                {"signal_id": sig.id, "type": sig.type},
            )
        for sig in sigs:
            if sig in control:
                continue
            if sig.type == "execute-snapshot":
                if stop_all or sig.id in stop_tags:
                    self.notifications.emit(
                        "Incremental Snapshot", "ABORTED",
                        {"signal_id": sig.id},
                    )
                    mark_processed(self.out_dir, sig.id)
                    continue
                if is_paused(self.out_dir):
                    # paused: leave the signal PENDING (not acked) so a
                    # later resume-snapshot drain picks it up — the
                    # reference's PauseIncrementalSnapshot semantics
                    self.notifications.emit(
                        "Incremental Snapshot", "PAUSED",
                        {"signal_id": sig.id},
                    )
                    continue
            if sig.type == "execute-snapshot":
                mode = (sig.data or {}).get("type", "INCREMENTAL").upper()
                wm = committed_watermark(self.out_dir)
                fence = wm if wm is not None else Lsn(0, 0)
                conds = [
                    c.get("filter", c)
                    for c in (sig.data or {}).get(
                        "additional-conditions", []
                    )
                ]
                src = lake_source
                if conds:
                    # the signal's additional-conditions narrow THIS
                    # snapshot's chunk reads only — the upstream mechanism
                    # for filtered incremental snapshots (snapshot SELECT
                    # overrides never apply here)
                    flt = self._conditions_filter(conds)
                    src = (lambda base=lake_source, flt=flt:
                           base().map_batches(flt, batch_format="pyarrow"))
                if mode == "BLOCKING":
                    # stop-the-stream re-snapshot; streaming resumes at the
                    # same watermark after (BlockingSnapshotIT.java:132-138)
                    out.append(self.snapshot(src(), fence, replace=True))
                else:
                    n = int((sig.data or {}).get("chunks", 4))
                    out.extend(
                        self.incremental_snapshot(
                            src(), fence, n_chunks=n, tag=sig.id
                        )
                    )
            elif sig.type == "log":
                log.info("signal log: %s", (sig.data or {}).get("message", ""))
            else:
                log.warning("unknown signal type %r — skipped", sig.type)
            mark_processed(self.out_dir, sig.id)
            self.notifications.emit(
                "Signal", "PROCESSED", {"signal_id": sig.id, "type": sig.type}
            )
        return out

    def replay_window(
        self,
        changelog: "ray.data.Dataset",
        from_lsn: Lsn,
        to_lsn: Lsn,
        *,
        snapshot_completed: bool = True,
        resume_position: dict | None = None,
    ) -> WindowManifest | None:
        """Apply one closed LSN window (fromLsn, toLsn] of a changelog
        Dataset. Skipped wholesale if the committed watermark already covers
        it (resume semantics). The changelog dataset should already be
        filtered to the window at the read (predicate pushdown); a defensive
        in-pipeline fence filter is applied too."""
        # un-incremented first window: its lower bound is inclusive
        prep = self._window_prep(from_lsn, to_lsn, not snapshot_completed)

        def stage(delta_dir: str) -> list[dict]:
            return self._staged(
                changelog, [(self, delta_dir)], lambda batch: [prep(batch)],
                write=self.exchange == "write",
                validate_pairs=self.validate_pairs,
            )

        return self._window(stage, from_lsn, to_lsn,
                            snapshot_completed=snapshot_completed,
                            resume_position=resume_position)

    def _window_prep(self, from_lsn: Lsn, to_lsn: Lsn, inclusive_low: bool):
        """The stream window's batch prep: fence to the window, drop NULL
        LSNs, tag partitions and, on the shuffle fast path, partial-collapse
        (bounds shuffle volume by touched keys; strict pair validation needs
        every image in its partition task, and the write exchange's
        ``fragment_writer`` collapses on its own)."""
        tagger = tag_partitions(self.num_partitions, self.salt, self.key_columns)
        keys = self.key_columns
        collapse = self.exchange == "shuffle" and not self.validate_pairs

        def prep(batch: pa.Table) -> pa.Table:
            batch = tagger(commit_range_filter(
                batch, from_lsn, to_lsn, low_inclusive=inclusive_low
            ))
            if collapse:
                batch = lww_collapse(batch, validate_pairs=False, partial=True,
                                     key_columns=keys)
            return batch

        return prep

    def _pending(self, to_lsn: Lsn) -> bool:
        """Whether the stream window ending at ``to_lsn`` still has to run:
        False when the committed watermark covers it (resume skip). A
        pending window must match the committed partitioning."""
        wm = committed_watermark(self.out_dir)
        if wm is not None and to_lsn <= wm:
            return False
        self._check_partitioning()
        return True

    def _window(self, stage, from_lsn: Lsn, to_lsn: Lsn, *,
                snapshot_completed: bool = True,
                resume_position: dict | None = None,
                staged: tuple[int, list[dict]] | None = None,
                ) -> WindowManifest | None:
        """One stream window whatever stages it: skip it unless
        ``_pending``, commit what ``stage`` writes, then auto-compact.
        ``staged`` (see ``_commit``) comes from a caller that ran
        ``_pending`` itself and staged the rows: the connector's one job
        for all its tables."""
        if staged is None and not self._pending(to_lsn):
            return None  # already applied — resume skip
        m = self._commit(
            "stream", stage, staged=staged, from_lsn=from_lsn, to_lsn=to_lsn,
            snapshot_completed=snapshot_completed,
            resume_position=resume_position,
            # ALTER schema event when this window's payload schema differs
            # from the governing one (capture-instance switch,
            # Db2StreamingChangeEventSource.java:324-336)
            schema_event=("ALTER", from_lsn),
        )
        if self.auto_compact:
            from debezium_connector_db2_ray.metrics import read_amplification

            if read_amplification(self.out_dir) > self.compact_trigger:
                self.compact()
        return m

    def replay_from_parquet(
        self,
        changelog_path: str,
        from_lsn: Lsn,
        to_lsn: Lsn,
        n_windows: int,
        *,
        snapshot_completed: bool = True,
        on_missing: str = "raise",  # "raise" | "skip"
        signal_lake=None,  # zero-arg callable -> lake Dataset; enables signals
    ) -> list[WindowManifest]:
        """Windowed replay of a changelog parquet file or directory with LSN
        pruning: each window reads only the row groups whose commit-LSN stats
        intersect it (a real log is roughly LSN-ordered, so row groups have
        tight LSN ranges). The stats come from each file's footer, read once
        per file version (``_row_groups``); the in-pipeline fence filter
        remains authoritative.

        Write exchange: no Ray Data job. The surviving row groups are packed
        into units of about ``batch_size`` rows inside the window, estimated
        from the stats (``_window_units``), and each unit is one plain Ray
        task that reads, preps and writes its fragment (``_stage_task``).

        Shuffle exchange only: a ``read_parquet`` with the window filter
        pushed down, bounded to ~num_partitions blocks: the exchange cuts
        every block into one slice per reduce task, so letting the read
        default to hundreds of small blocks makes the per-window shuffle
        ANTI-scale with cluster size (under the former sort shuffle,
        bounding blocks took a 2.2M-event window from 26 s to 3.6 s at 32
        cpus). Its filter assumes single-segment LSNs (commit_lsn_hi
        constant per file)."""
        import logging

        import pyarrow.dataset as pads

        if not os.path.exists(changelog_path):
            # vanished change table: the reference logs and drops the table,
            # continuing with the rest of the stream
            # (Db2StreamingChangeEventSource.java:338-348)
            if on_missing == "skip":
                logging.getLogger(__name__).error(
                    "changelog %s vanished — skipping (reference behavior: "
                    "drop table, continue)", changelog_path
                )
                return []
            raise FileNotFoundError(changelog_path)

        out = []
        first = True
        for lo, hi in plan_windows(from_lsn.increment(), to_lsn, n_windows):
            if signal_lake is not None:
                # drain the signal channel between windows — backfill chunks
                # and blocking snapshots interleave with streaming
                out.extend(self.drain_signals(signal_lake))
            # With snapshot_completed=False the FIRST window replays the
            # un-incremented watermark event itself (reference
            # shouldIncreaseFromLsn semantics), so its pushdown lower bound
            # must be inclusive or the fence-LSN event is pruned at the read
            # before the window's inclusive_low branch ever sees it.
            incl = first and not snapshot_completed
            first = False
            wm = committed_watermark(self.out_dir)
            if wm is not None and hi <= wm:
                continue  # already applied — skip BEFORE paying the
                # driver-side offset-stats read (_window re-checks)
            stats = _row_groups(changelog_path)
            resume = _window_resume_position(stats, lo, hi, incl)
            if self.exchange == "write":
                groups = [(f, i, _in_window_rows(s, lo, hi)) for f, i, s in stats
                          if _may_hold(s, lo, hi, incl)]
                m = self._window(
                    self._task_stage(
                        _window_units(groups, self.batch_size),
                        self._window_prep(lo, hi, incl),
                    ),
                    lo, hi, snapshot_completed=not incl, resume_position=resume,
                )
            else:
                if lo.hi == hi.hi:
                    lo_expr = (
                        pads.field("commit_lsn_lo") >= lo.lo
                        if incl
                        else pads.field("commit_lsn_lo") > lo.lo
                    )
                    flt = lo_expr & (pads.field("commit_lsn_lo") <= hi.lo)
                else:
                    flt = None
                ds = ray.data.read_parquet(
                    changelog_path, filter=flt,
                    override_num_blocks=max(16, min(128, self.num_partitions)),
                )
                m = self.replay_window(ds, lo, hi, snapshot_completed=not incl,
                                       resume_position=resume)
            if m is not None:
                out.append(m)
        return out

    def _task_stage(self, units: list, prep):
        """Stage fn of a write-exchange window over a changelog path: one
        plain task per unit ``(file, [row group ids])`` preps its row groups
        one at a time and runs ``fragment_writer`` each time ``batch_size``
        prepped rows are held (and once on the rest), so a task holds at
        most one row group beyond a batch."""
        batch_size = self.batch_size

        def stage(delta_dir: str) -> list[dict]:
            writer = fragment_writer(delta_dir, key_columns=self.key_columns)

            def write_unit(unit) -> pa.Table:
                path, row_groups = unit
                out, held = [], []
                with pq.ParquetFile(path) as f:
                    for g in row_groups:
                        held.append(prep(f.read_row_group(g)))
                        if sum(t.num_rows for t in held) >= batch_size:
                            out.append(writer(pa.concat_tables(held)))
                            held = []
                if held:
                    out.append(writer(pa.concat_tables(held)))
                return pa.concat_tables(out)

            return _run_stage_tasks(write_unit, units)

        return stage

    # ---- reads ------------------------------------------------------------

    def _merge_plan(self, *, compacting: bool = False
                    ) -> tuple[list[dict], pa.Schema | None, dict]:
        """What both merge-on-read callers need, each read once: the merge
        units (sized by ``batch_size`` and the cluster's CPUs), the latest
        payload schema from the durable history (None before any CREATE)
        and the ``default_fill`` of its DEFAULT columns.

        ``compacting``: each unit becomes one base fragment, so the units
        are fewer than the live files unless ``batch_size`` needs more."""
        live = live_partitions(self.out_dir)
        cpus = _cluster_cpus()
        if compacting:
            files = {f for _, fs in live.values() for f in fs}
            cpus = min(cpus, max(1, len(files) - 1))
        units = merge_units(live, self.batch_size, cpus)
        bounds = self.schema_history.boundaries(self.table_name)
        if not bounds:
            return units, None, {}
        payload = bounds[-1][1]
        fill = {c: (payload.field(c).type, v)
                for c, v in defaults_from_schema(payload).items()}
        return units, payload, fill

    def state_dataset(self, *, keep_meta: bool = False) -> "ray.data.Dataset":
        """Current lake state, merge-on-read: one task per merge unit of
        consecutive hash partitions (``merge_units``) opens each of the
        unit's committed files once, reads only the row groups of its
        partitions and collapses them — no shuffle (files are already
        partitioned by key hash). Lazy: a Dataset of one block per unit."""
        units, payload, fill = self._merge_plan()
        if not units:
            return ray.data.from_items([])
        keys = self.key_columns
        defaults = {c: v for c, (_, v) in fill.items()}

        def read_unit(batch: pa.Table) -> pa.Table:
            st = merge_unit(batch.to_pylist()[0], fill, keys)
            if st is None:
                return pa.table({})
            st = final_state(st, keep_meta=keep_meta)
            if payload is not None and not keep_meta:
                # units whose winners predate an ALTER are conformed
                # (null-backfill + widening, DEFAULT columns typed —
                # AbstractDb2DefaultValueIT), so blocks share one schema
                st = conform_table(
                    st, unify_payload_schemas(payload, st.schema), defaults)
            return st

        return ray.data.from_items(units).map_batches(
            read_unit, batch_format="pyarrow", batch_size=1
        )

    def compact(self) -> WindowManifest:
        """Fold base + deltas into fresh base files and commit a compaction
        manifest; older files become dead (merge-on-read cost reset).
        Tombstones are dropped — nothing older remains to shadow.

        Compaction RE-TAGS every surviving row under the engine's CURRENT
        (num_partitions, salt), so it doubles as the repartitioning barrier:
        to change partitioning (e.g. after metrics.suggest_salt), construct
        the engine with the new settings and run compact() before replaying
        further windows.

        One plain Ray task per merge unit (``_stage_task``, units as in
        ``state_dataset`` but fewer than the live files) folds the unit
        and writes its one partition-clustered base fragment; the fold
        already collapsed the rows, so the sink kernel only clusters them
        (collapse "none")."""
        units, _, fill = self._merge_plan(compacting=True)
        tagger = tag_partitions(self.num_partitions, self.salt, self.key_columns)
        keys = self.key_columns

        def stage(delta_dir: str) -> list[dict]:
            writer = fragment_writer(delta_dir, collapse="none",
                                     key_columns=keys)

            def compact_unit(unit: dict) -> pa.Table:
                st = merge_unit(unit, fill, keys)
                if st is None or not st.num_rows:
                    return _MANIFEST_ROW_SCHEMA.empty_table()
                return writer(tagger(st))

            return _run_stage_tasks(compact_unit, units)

        m = self._commit(
            "compaction", stage, to_lsn=committed_watermark(self.out_dir)
        )
        self.notifications.emit(
            "Compaction", "COMPLETED",
            {"table": self.table_name, "window_id": m.window_id},
        )
        return m

    # ---- the one write-and-commit path ------------------------------------

    @staticmethod
    def _staged(ds: "ray.data.Dataset", targets: list, prep, *, write: bool,
                validate_pairs: bool, projs: list | None = None) -> list[dict]:
        """The engine's one Ray Data staging job, for one or many
        ``targets`` = [(engine, staging dir)]: ``prep`` maps each batch of
        ``batch_size`` rows to one ``PART_COL``-tagged table per target,
        ``projs`` (per target, None or ``table -> table``) drop the
        target's excluded columns just before its writer, and the job
        returns every target's manifest rows.

        - write: one ``fragment_writer`` call per target on each batch
          (partial collapse).
        - shuffle: ``PART_COL`` becomes the group code
          ``target index * num_partitions + partition`` (the partition for
          one target); the job ends at the prep map, and ``task_exchange``
          gathers each range of codes in one plain reduce task, which
          runs each target's ``fragment_writer`` (full collapse) once on
          that target's rows, partition restored."""
        n = targets[0][0].num_partitions
        projs = projs or [None] * len(targets)

        def project(i: int, table: pa.Table) -> pa.Table:
            return table if projs[i] is None else projs[i](table)

        def recode(table: pa.Table, delta: int) -> pa.Table:
            if not delta:
                return table
            return table.set_column(
                table.schema.get_field_index(PART_COL), PART_COL,
                pc.add(table[PART_COL], pa.scalar(delta, pa.int32())),
            )

        batch_size = targets[0][0].batch_size
        if write:
            writers = [fragment_writer(d, key_columns=e.key_columns)
                       for e, d in targets]

            def write_batch(batch: pa.Table) -> pa.Table:
                return pa.concat_tables([
                    w(project(i, t))
                    for i, (w, t) in enumerate(zip(writers, prep(batch)))
                ])

            return ds.map_batches(write_batch, batch_format="pyarrow",
                                  batch_size=batch_size).take_all()
        collapse = "strict" if validate_pairs else "full"
        writers = [fragment_writer(d, collapse=collapse,
                                   key_columns=e.key_columns)
                   for e, d in targets]

        def tag(batch: pa.Table) -> pa.Table:
            return pa.concat_tables([
                recode(t, i * n) for i, t in enumerate(prep(batch))
            ])

        def write_range(rows: pa.Table) -> pa.Table:
            target = rows[PART_COL].to_numpy(zero_copy_only=False) // n
            out = [_MANIFEST_ROW_SCHEMA.empty_table()]
            for i, w in enumerate(writers):
                mine = target == i
                if mine.any():
                    t = rows if mine.all() else rows.filter(pa.array(mine))
                    out.append(w(project(i, recode(t, -i * n))))
            return pa.concat_tables(out)

        tagged = ds.map_batches(tag, batch_format="pyarrow",
                                batch_size=batch_size)
        return [row for t in task_exchange(tagged, n * len(targets), write_range)
                for row in t.to_pylist()]

    def _commit(
        self,
        kind: str,
        stage=None,
        *,
        staged: tuple[int, list[dict]] | None = None,
        to_lsn: Lsn | None,
        from_lsn: Lsn | None = None,
        snapshot_completed: bool = True,
        resume_position: dict | None = None,
        schema_event: tuple[str, Lsn] | None = None,
    ) -> WindowManifest:
        """Every state change: take the next window id, run ``stage(delta_dir)``
        (the Ray job or tasks that stage this window's files under
        ``delta/w=NNNNNN`` and returns their manifest rows; None stages
        nothing), then commit the manifest — its rename is the one commit
        point. ``schema_event`` = (CREATE|ALTER, lsn) records the payload
        schema read from a staged file's footer BEFORE the commit (no Ray
        job; a failed history write raises and the window stays
        uncommitted — re-running it re-records idempotently).

        ``staged`` = (window id from ``_reserve``, manifest rows) replaces
        ``stage`` with rows a caller already staged under that id."""
        if staged is None:
            wid, delta_dir = self._reserve()
            rows = stage(delta_dir) if stage else []
        else:
            wid, rows = staged
        if schema_event is not None and rows:
            self._record_schema(*schema_event, pq.read_schema(rows[0]["file"]))
        m = WindowManifest(
            window_id=wid,
            kind=kind,
            from_lsn=from_lsn.hex() if from_lsn is not None else None,
            to_lsn=to_lsn.hex() if to_lsn is not None else None,
            snapshot_completed=snapshot_completed,
            partitions=self._lineage(rows),
            partitioning=self._partitioning(),
            resume_position=resume_position,
        )
        commit_manifest(self.out_dir, m)
        return m

    def _reserve(self) -> tuple[int, str]:
        """The next window id and its staging dir ``delta/w=NNNNNN``. Files
        staged there stay invisible until ``_commit`` commits the id."""
        wid = next_window_id(self.out_dir)
        return wid, os.path.join(self.out_dir, f"delta/w={wid:06d}")

    @staticmethod
    def _lineage(rows: list[dict]) -> dict[str, dict]:
        out = {}
        for r in rows:
            pl = PartitionLineage(
                partition=int(r["partition"]),
                rows=int(r["rows"]),
                files=[r["file"]],
                op_counts=json.loads(r["op_counts"]),
                min_lsn=r["min_lsn"],
                max_lsn=r["max_lsn"],
            )
            key = str(pl.partition)
            if key in out:  # same partition from multiple groups (salting)
                prev = out[key]
                prev["rows"] += pl.rows
                prev["files"].extend(pl.files)
                for k, v in pl.op_counts.items():
                    prev["op_counts"][k] = prev["op_counts"].get(k, 0) + v
                # lsn range = union over the salted groups (min of mins /
                # max of maxes), not first-group-wins
                for attr, pick in (("min_lsn", min), ("max_lsn", max)):
                    a, b = prev.get(attr), getattr(pl, attr)
                    prev[attr] = pick(a, b) if a and b else (a or b)
            else:
                out[key] = pl.__dict__
        return out


def apply_dataset(
    changelog: "ray.data.Dataset",
    *,
    num_partitions: int = 32,
    salt: int = 1,
    snapshot: "ray.data.Dataset | None" = None,
    snapshot_lsn: Lsn | None = None,
    validate_pairs: bool = True,
    combiner: bool = False,
    keep_meta: bool = False,
    key_columns: tuple[str, ...] | None = None,
    batch_size: int = 400_000,
    post_kernel=None,
) -> "ray.data.Dataset":
    """One-shot in-memory replay (no sink/manifest): decode -> hash shuffle ->
    per-partition LWW apply -> final state Dataset. The building block for
    ad-hoc queries; the durable path is CdcEngine. ``combiner`` adds the
    per-batch partial collapse before the shuffle (requires
    validate_pairs=False).

    ``post_kernel`` (optional, ``pa.Table -> pa.Table``) runs on each
    partition's APPLIED state inside the same map_groups task — the hook
    for per-conversation analytics that need every row of a key
    co-located: because the shuffle hash-partitions on the key prefix
    (conv_id), a conversation is always entirely inside one kernel call,
    so conversation-level folds ride the apply exchange with ZERO
    additional shuffle at any corpus size."""
    fence = snapshot_lsn
    target: pa.Schema | None = None
    if snapshot is not None:
        # additive schema unification up front so the unioned stream is
        # homogeneous through the shuffle (snapshot payload first, changelog
        # additions appended — Debezium additive ALTER order)
        from debezium_connector_db2_ray.schema import (
            CHANGELOG_META_FIELDS,
            unify_payload_schemas,
        )

        cl_schema = pa.schema(
            [f for f in side_schema(changelog) if f.name not in META_SET]
        )
        payload = unify_payload_schemas(side_schema(snapshot), cl_schema)
        target = pa.schema(list(CHANGELOG_META_FIELDS) + list(payload))

    if combiner and validate_pairs:
        raise ValueError("combiner requires validate_pairs=False")
    keys = tuple(key_columns) if key_columns else KEY_COLUMNS
    part = key_partitioner(num_partitions, salt, keys)

    def conform(batch: pa.Table) -> pa.Table:
        return batch if target is None else conform_table(batch, target)

    def prep(batch: pa.Table) -> pa.Table:
        if fence is not None:
            batch = fence_filter(batch, fence)
        batch = drop_null_lsn(conform(batch))
        if combiner:
            batch = lww_collapse(
                batch, validate_pairs=False, partial=True, key_columns=keys
            )
        return batch

    sides = [changelog.map_batches(prep, batch_format="pyarrow",
                                   batch_size=batch_size)]
    if snapshot is not None:
        if fence is None:
            raise ValueError("snapshot requires snapshot_lsn")

        def snap_prep(batch: pa.Table) -> pa.Table:
            return drop_null_lsn(conform(snapshot_as_events(batch, fence)))

        sides.append(snapshot.map_batches(
            snap_prep, batch_format="pyarrow", batch_size=batch_size
        ))

    def apply_group(*groups: pa.Table) -> pa.Table:
        collapsed = lww_collapse(
            pa.concat_tables(groups), validate_pairs=validate_pairs,
            key_columns=keys,
        )
        state = final_state(collapsed, keep_meta=keep_meta)
        if post_kernel is not None:
            return post_kernel(state)
        return state

    # stream and snapshot events are two sides of one exchange (both
    # conformed to ``target``), so each side's prep stays fused with the tag
    return exchange(sides, part, apply_group, None,
                    schemas=None if target is None else [target, target])


# ---- the plain staging tasks and the footer cache -------------------------


@ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError])
def _stage_task(kernel, unit) -> list[dict]:
    """One staging task of a write-exchange window or of compaction:
    ``kernel(unit)`` writes files and returns their manifest rows. Retried
    like Ray Data's map tasks (unbounded, system errors included); files a
    failed attempt left behind are named by no manifest, so stay invisible."""
    return kernel(unit).to_pylist()


def _run_stage_tasks(kernel, units: list) -> list[dict]:
    """Run ``kernel`` over ``units`` as plain Ray tasks (the kernel is put
    in the object store once) and gather their manifest rows."""
    if not units:
        return []
    ref = ray.put(kernel)
    return [row for rows in ray.get([_stage_task.remote(ref, u) for u in units])
            for row in rows]


def _changelog_files(path: str) -> list[str]:
    """A changelog path's parquet files: the file itself, or a directory's
    files, sorted, skipping names that start with ``.`` or ``_`` (the
    pyarrow dataset discovery rule)."""
    if not os.path.isdir(path):
        return [path]
    out = []
    for d, dirs, names in os.walk(path):
        dirs[:] = [x for x in dirs if not x.startswith((".", "_"))]
        out += [os.path.join(d, f) for f in names if not f.startswith((".", "_"))]
    return sorted(out)


@functools.lru_cache(maxsize=1024)
def _footer_stats(path: str, size: int, mtime_ns: int) -> tuple:
    """Per row group of one file version: ``(rows, commit_lsn_hi min, max,
    commit_lsn_lo min, max)``, a stat None where the writer recorded none.
    Cached by (path, size, mtime_ns), so a rewritten file is read again."""
    md = pq.read_metadata(path)
    col = {md.schema.column(i).path: i for i in range(md.num_columns)}
    out = []
    for g in range(md.num_row_groups):
        rg = md.row_group(g)
        stats = []
        for name in ("commit_lsn_hi", "commit_lsn_lo"):
            s = rg.column(col[name]).statistics if name in col else None
            stats += [s.min, s.max] if s is not None and s.has_min_max else [None, None]
        out.append((rg.num_rows, *stats))
    return tuple(out)


def _row_groups(path: str) -> list[tuple[str, int, tuple]]:
    """``(file, row group id, _footer_stats row)`` for every row group of a
    changelog path; footers are read once per file version."""
    out = []
    for f in _changelog_files(path):
        st = os.stat(f)
        out += [(f, i, s) for i, s in
                enumerate(_footer_stats(f, st.st_size, st.st_mtime_ns))]
    return out


def _may_hold(stats: tuple, lo: Lsn, hi: Lsn, inclusive_low: bool) -> bool:
    """Whether a row group with these stats can hold a commit LSN in the
    window (lo, hi] ([lo, hi] when ``inclusive_low``). Every row's LSN lies
    between (hi min, lo min) and (hi max, lo max); missing stats prune
    nothing."""
    _, hmin, hmax, lmin, lmax = stats
    if None in (hmin, hmax, lmin, lmax):
        return True
    top, low = (hmax, lmax), (lo.hi, lo.lo)
    return (top >= low if inclusive_low else top > low) and (hmin, lmin) <= (hi.hi, hi.lo)


def _in_window_rows(stats: tuple, lo: Lsn, hi: Lsn) -> float:
    """Estimated rows of a row group inside the window (lo, hi], as if its
    commit LSNs spread evenly over their stats range; all its rows when the
    stats or the window span LSN segments."""
    rows, hmin, hmax, lmin, lmax = stats
    if None in stats or not hmin == hmax == lo.hi == hi.hi:
        return rows
    overlap = min(lmax, hi.lo) - max(lmin, lo.lo) + 1
    return rows * max(0, overlap) / (lmax - lmin + 1)


def _window_units(groups: list[tuple[str, int, float]],
                  batch_size: int) -> list[tuple[str, list[int]]]:
    """Cut a window's surviving row groups ``(file, id, rows in the
    window)`` into task units ``(file, [ids])``: consecutive groups of one
    file, packed up to ``batch_size`` rows in the window (a single larger
    group is a unit of its own) — the bundling of filtered rows that Ray
    Data's ``map_batches(batch_size=)`` did, so a small window is one task
    and one fragment, and a window of N rows writes about N / batch_size
    fragments however its log is ordered."""
    units: list[tuple[str, list[int]]] = []
    rows = 0
    for f, i, r in groups:
        if not units or units[-1][0] != f or rows + r > batch_size:
            units.append((f, []))
            rows = 0
        units[-1][1].append(i)
        rows += r
    return units


_LSN_COLS = ["commit_lsn_hi", "commit_lsn_lo", "intent_lsn_hi", "intent_lsn_lo"]


def _window_resume_position(
    row_groups: list, lo: Lsn, hi: Lsn, inclusive_low: bool
) -> dict | None:
    """The offset triplet of a window's LAST event ({commit_lsn, change_lsn,
    event_serial_no}, Db2OffsetContext.java:66-80), computed DRIVER-SIDE
    from a changelog's cached row-group statistics (``_row_groups``): only the
    group(s) whose commit-LSN stats can still contain the window's max
    commit are read, and only the four LSN columns of those groups — for an
    LSN-clustered log that is one row group per window, with no Ray job
    launch at all. serial = the final commit's total row count (windows
    align to commit boundaries). Single-segment LSNs assumed; multi-segment
    windows return None."""
    if lo.hi != hi.hi:
        return None
    hi_v = hi.lo
    # (known_max | None, path, rg_index, known_min | None)
    groups = [(s[4], f, i, s[3]) for f, i, s in row_groups]
    # visit groups in descending order of their max stat (unknown first —
    # they could contain anything)
    groups.sort(key=lambda g: (g[0] is not None, -(g[0] or 0)))
    best = None  # (chi, clo) of the max in-window commit found so far
    serial = 0
    imax = (0, 0)
    readers: dict[str, pq.ParquetFile] = {}
    for gmax, path, rg_idx, gmin in groups:
        if gmin is not None and gmin > hi_v:
            continue  # whole group above the window
        if best is not None and gmax is not None and gmax < best[1]:
            break  # no later group can contain the best commit
        f = readers.get(path)
        if f is None:
            f = readers[path] = pq.ParquetFile(path)
        t = f.read_row_group(rg_idx, columns=_LSN_COLS)
        chi = t["commit_lsn_hi"].to_numpy(zero_copy_only=False).astype(np.uint64)
        clo = t["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(np.uint64)
        in_w = lsn_range_mask(chi, clo, lo, hi, low_inclusive=inclusive_low)
        if not in_w.any():
            continue
        order = np.lexsort((clo[in_w], chi[in_w]))
        mhi, mlo = int(chi[in_w][order[-1]]), int(clo[in_w][order[-1]])
        if best is None or (mhi, mlo) > best:
            best, serial, imax = (mhi, mlo), 0, (0, 0)
        if (mhi, mlo) == best:
            at = in_w & (chi == np.uint64(mhi)) & (clo == np.uint64(mlo))
            serial += int(at.sum())
            ihi = t["intent_lsn_hi"].to_numpy(zero_copy_only=False).astype(np.uint64)[at]
            ilo = t["intent_lsn_lo"].to_numpy(zero_copy_only=False).astype(np.uint64)[at]
            io = np.lexsort((ilo, ihi))
            imax = max(imax, (int(ihi[io[-1]]), int(ilo[io[-1]])))
    if best is None:
        return None
    return {
        "commit_lsn": lsn_hex(best[0], best[1]),
        "change_lsn": lsn_hex(imax[0], imax[1]),
        "event_serial_no": int(serial),
    }


def plan_windows(min_lsn: Lsn, max_lsn: Lsn, n_windows: int) -> list[tuple[Lsn, Lsn]]:
    """Slice (min_lsn-1, max_lsn] into n contiguous closed windows — the batch
    equivalent of the reference's timespan-bounded polling
    (Db2Connection.java:118-170). Bounds are (exclusive, inclusive]."""
    lo = min_lsn.to_int() - 1
    hi = max_lsn.to_int()
    if hi <= lo or n_windows <= 1:
        return [(Lsn.from_int(max(lo, 0)), max_lsn)]
    edges = np.linspace(lo, hi, n_windows + 1).astype(object)
    out = []
    prev = lo
    for e in edges[1:]:
        e = int(e)
        if e <= prev:
            continue
        out.append((Lsn.from_int(prev), Lsn.from_int(e)))
        prev = e
    if out and out[-1][1].to_int() != hi:
        out[-1] = (out[-1][0], Lsn.from_int(hi))
    return out
