"""Connector-level coordinator: one streaming task, many captured tables.

The reference's connector runs exactly ONE task (Db2Connector.java:55-61)
that snapshots and streams EVERY captured table, routing each change to its
table's topic (Db2TopicSelector; capture set discovered from the
IBMSNAP_REGISTER catalog, with include/exclude list filtering
Db2ConnectorConfig table.include.list/table.exclude.list and the hard
system-table exclusion Db2ConnectorConfig.java:645-656).

Ray-Data-shaped equivalent: a ``CdcConnector`` owns one lake directory per
captured table under a shared root, discovers the capture set from the
stream's routing column (the S7 new-change-table detection), filters it
through include/exclude + the system-table predicate, and replays a shared
change stream with ONE Ray job per window for every table: each read block
is sliced to the window, and the engine's staging job
(``CdcEngine._staged``, with one target per table) routes the sliced rows
to their tables and stages every table's rows under that table's own
window id; each table then commits its own manifest (so a kill between two
tables' commits resumes the uncommitted ones only). The connector supplies
only the routing, the stop-LSN fences and the column projections; the
exchange, the writers and the group code live in the engine. The
signal/notification channels live at the ROOT so one operator surface
controls every table, like the reference's single task.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines.replay import CdcEngine, plan_windows
from debezium_connector_db2_ray.stages.apply import (
    commit_range_filter,
    is_system_table,
    stop_lsn_fence,
)
from debezium_connector_db2_ray.state.manifest import WindowManifest


@dataclass
class CdcConnector:
    root_dir: str
    num_partitions: int = 32
    salt: int = 1
    exchange: str = "shuffle"
    validate_pairs: bool = True
    #: mutually exclusive with table_exclude (config.validate_config errors
    #: when both are set, matching the relational base config's
    #: include/exclude exclusivity rule)
    table_include: tuple[str, ...] | None = None
    table_exclude: tuple[str, ...] = ()
    #: per-table payload-column projection — the reference's
    #: column.exclude.list inherited from RelationalDatabaseConnectorConfig
    #: (Db2ConnectorConfig.java imports it). Applied at BOTH snapshot and
    #: stream so every state generation shares the projected schema. Key
    #: columns and changelog metadata cannot be excluded.
    column_exclude: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: per-table snapshot row predicate — the reference's
    #: ``snapshot.select.statement.overrides`` (inherited from
    #: RelationalDatabaseConnectorConfig; applied by
    #: RelationalSnapshotChangeEventSource#determineSnapshotSelect). A
    #: batch -> batch FILTER applied to the table's lake at INITIAL
    #: snapshot time only — never to the stream, and never to
    #: signal-driven incremental chunks (those narrow via the signal's
    #: additional-conditions), exactly like the reference.
    snapshot_override: dict[str, "object"] = field(default_factory=dict)
    #: per-table capture-instance stop LSN (the instance's validity end —
    #: Db2ChangeTable.stopLsn): streamed events with commit_lsn >= stop are
    #: fenced off (stages/apply.stop_lsn_fence) because they belong to the
    #: NEXT capture instance.
    stop_lsns: dict[str, "Lsn"] = field(default_factory=dict)
    #: the reference's ``z.stop.lsn.ignore`` flag (z/OS capture agents can
    #: report bogus stop LSNs): True disables every stop-LSN fence.
    z_stop_lsn_ignore: bool = False
    routing_col: str = "src_table"
    _engines: dict[str, CdcEngine] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # whole-surface pre-start validation (Db2Connector.java:86-89 /
        # Db2ConnectorConfigDefTest): every bad knob reported at once
        from debezium_connector_db2_ray.config import ensure_valid

        ensure_valid(
            num_partitions=self.num_partitions,
            salt=self.salt,
            exchange=self.exchange,
            validate_pairs=self.validate_pairs,
            table_include=self.table_include,
            table_exclude=self.table_exclude,
            stop_lsns=self.stop_lsns,
        )

    # ---- capture set -------------------------------------------------------

    def captures(self, table: str) -> bool:
        """The reference's table-filter chain: system tables are hard-dropped,
        then include/exclude lists apply."""
        if is_system_table(table):
            return False
        if self.table_include is not None:
            return table in self.table_include
        return table not in self.table_exclude

    def discover_tables(self, stream) -> list[str]:
        """S7 new-change-table detection: the capture set observed in the
        stream's routing column (unique values — a tiny aggregate), filtered
        through the capture predicate."""
        names = sorted(
            v
            for v in stream.select_columns([self.routing_col]).unique(
                self.routing_col
            )
            if v is not None
        )
        return [t for t in names if self.captures(t)]

    #: changelog metadata the projection may never touch
    _PROTECTED_COLS = (
        "commit_lsn_hi", "commit_lsn_lo", "intent_lsn_hi", "intent_lsn_lo",
        "op",
    )

    def excluded_columns(self, table: str) -> tuple[str, ...]:
        """Validated column.exclude.list for one table: key columns and
        changelog metadata are refused loudly (excluding a key would change
        identity; excluding LSNs would break ordering)."""
        drops = tuple(self.column_exclude.get(table, ()))
        if not drops:
            return ()
        keys = tuple(self.engine(table).key_columns)
        bad = [c for c in drops if c in keys or c in self._PROTECTED_COLS]
        if bad:
            raise ValueError(
                f"column_exclude for {table} names key/metadata columns {bad}"
            )
        return drops

    def _projector(self, table: str):
        drops = self.excluded_columns(table)
        if not drops:
            return None

        def fn(batch: pa.Table) -> pa.Table:
            return batch.drop_columns(
                [c for c in drops if c in batch.column_names]
            )

        return fn

    def engine(self, table: str) -> CdcEngine:
        eng = self._engines.get(table)
        if eng is None:
            eng = CdcEngine(
                out_dir=os.path.join(self.root_dir, table),
                num_partitions=self.num_partitions,
                salt=self.salt,
                exchange=self.exchange,
                validate_pairs=self.validate_pairs,
                table_name=table,
            )
            self._engines[table] = eng
        return eng

    # ---- phases ------------------------------------------------------------

    def snapshot_all(self, lakes: dict, snapshot_lsn: Lsn, *, mode="initial"):
        """Snapshot every captured table (one manifest per table)."""
        out = {}
        for table, lake in lakes.items():
            if not self.captures(table):
                continue
            ov = self.snapshot_override.get(table)
            if ov is not None:
                # snapshot.select.statement.overrides: narrows the initial
                # snapshot SELECT; the stream stays unfiltered
                lake = lake.map_batches(ov, batch_format="pyarrow")
            proj = self._projector(table)
            if proj is not None:
                lake = lake.map_batches(proj, batch_format="pyarrow")
            out[table] = self.engine(table).run_snapshot(
                lake, snapshot_lsn, mode=mode
            )
        return out

    def replay(self, stream, from_lsn: Lsn, to_lsn: Lsn, n_windows: int,
               *, lakes: dict | None = None,
               tables: list[str] | None = None):
        """Replay a SHARED change stream carrying ``routing_col``: windows
        are planned once, and each window is one Ray job over the stream for
        every table it still has to reach (``_replay_window``) — the
        reference's single task emitting to per-table topics.

        When ``lakes`` (table -> Dataset or zero-arg factory) is given, the
        root and per-table signal channels are drained BETWEEN windows —
        the reference's SignalProcessor poll between streaming iterations
        (Db2ConnectorTask.java:142-161). Without it, snapshot signals have
        no source to read and draining is skipped.

        ``tables`` overrides stream-based discovery (the CLI passes its
        already-discovered list so the full-stream unique() scan runs once).
        When discovering here, captured tables from ``lakes`` are UNIONED in:
        a snapshotted table with zero events this run still gets its (empty)
        windows, so its heartbeat manifests keep the resume watermark moving
        with the stream (DatabaseHeartbeatImpl intent) instead of pinning
        every future resume at its snapshot LSN."""
        if tables is None:
            tables = self.discover_tables(stream)
            if lakes is not None:
                tables = sorted(
                    set(tables) | {t for t in lakes if self.captures(t)}
                )
        manifests = {t: [] for t in tables}
        for lo, hi in plan_windows(from_lsn.increment(), to_lsn, n_windows):
            if lakes is not None:
                for t, ms in self.drain_signals(lakes, tables).items():
                    manifests.setdefault(t, []).extend(ms)
            for t, m in self._replay_window(stream, tables, lo, hi).items():
                manifests[t].append(m)
        if lakes is not None:
            for t, ms in self.drain_signals(lakes, tables).items():
                manifests.setdefault(t, []).extend(ms)
        return manifests

    def _replay_window(self, stream, tables: list[str], lo: Lsn, hi: Lsn
                       ) -> dict[str, WindowManifest]:
        """Window (lo, hi] of the shared stream for every table in
        ``tables`` whose watermark does not cover it yet, in ONE Ray job:
        each pending table checks its partitioning and reserves its window
        id, the job stages every table's rows under that table's
        ``delta/w=NNNNNN``, and then each table commits its own rows (and
        auto-compacts) through its engine's one commit path. A table that
        is already past ``hi`` gets no rows and no manifest."""
        engines = [e for e in map(self.engine, tables) if e._pending(hi)]
        if not engines:
            return {}
        reserved = [e._reserve() for e in engines]
        rows = CdcEngine._staged(
            stream.map_batches(_window_slice(lo, hi), batch_format="pyarrow"),
            [(e, d) for e, (_, d) in zip(engines, reserved)],
            self._routed(engines, lo, hi),
            write=self.exchange == "write",
            validate_pairs=self.validate_pairs,
            projs=[self._projector(e.table_name) for e in engines],
            # a ray_remote_args_fn (it adds no argument) keeps the routed
            # prep apart from the slice: fused, Ray would bundle RAW read
            # blocks up to batch_size rows into one task
            ray_remote_args_fn=dict,
        )
        out = {}
        for e, (wid, d) in zip(engines, reserved):
            # a manifest row's file sits under its table's staging dir
            mine = [r for r in rows if r["file"].startswith(d + os.sep)]
            out[e.table_name] = e._window(None, lo, hi, staged=(wid, mine))
        return out

    def _routed(self, engines: list[CdcEngine], lo: Lsn, hi: Lsn):
        """``batch -> [one prepped table per engine]`` over rows sliced to
        the window: each engine's rows by ``routing_col`` (``_route``; rows
        of no pending table drop), its table's stop-LSN fence unless
        ``z_stop_lsn_ignore``, then its window prep: partition tag and, on
        the shuffle fast path, partial collapse, so by (table, key). Every
        table keeps the stream's columns, so all share one schema."""
        routes = [_route(self.routing_col, e.table_name) for e in engines]
        stops = [
            None if self.z_stop_lsn_ignore else self.stop_lsns.get(e.table_name)
            for e in engines
        ]
        preps = [e._window_prep(lo, hi, False) for e in engines]

        def fn(batch: pa.Table) -> list[pa.Table]:
            out = []
            for route, stop, prep in zip(routes, stops, preps):
                rows = route(batch)
                if stop is not None:
                    rows = stop_lsn_fence(rows, stop)
                out.append(prep(rows))
            return out

        return fn

    def drain_signals(self, lakes: dict, tables=None) -> dict:
        """Drain the ROOT signal channel plus every captured table's channel.
        A root signal may target a subset via data['data-collections'] (the
        reference's signal field); it is routed by durably re-enqueueing to
        each target table's channel, then acked. A kill between forward and
        ack re-forwards on resume — the per-table actions are idempotent
        (chunk-resume + LWW), matching the engine's at-least-once signal
        contract."""
        from debezium_connector_db2_ray.state.signals import (
            mark_processed,
            pending_signals,
            send_signal,
        )

        if tables is None:
            tables = [t for t in lakes if self.captures(t)]
        for sig in pending_signals(self.root_dir):
            data = dict(sig.data or {})
            targets = data.pop("data-collections", None) or tables
            conds = data.get("additional-conditions")
            for t in targets:
                # forward to ANY captured table's durable channel — even one
                # with no events/lake this run; its channel holds the signal
                # until that table is next drained. Only non-captured targets
                # are dropped (matching the table-filter chain), so acking
                # the root signal below never loses a valid request.
                if self.captures(t):
                    fwd = data
                    if conds is not None:
                        # route each additional-condition to its
                        # data-collection (an entry with no collection
                        # applies everywhere) — the reference ships the
                        # whole list and matches per chunk query; we subset
                        # at forward time so each channel sees only its own
                        fwd = dict(data)
                        fwd["additional-conditions"] = [
                            c for c in conds
                            if c.get("data-collection") in (None, t)
                        ]
                    send_signal(os.path.join(self.root_dir, t), sig.type, fwd)
            mark_processed(self.root_dir, sig.id)
        out = {}
        for t in tables:
            lk = lakes.get(t)
            if lk is None:
                continue
            source = lk if callable(lk) else (lambda lk=lk: lk)
            # snapshot.select.statement.overrides shapes ONLY the initial
            # snapshot SELECT (RelationalSnapshotChangeEventSource
            # #determineSnapshotSelect); upstream incremental-snapshot
            # chunks are narrowed via the signal's additional-conditions
            # instead — handled inside drain_signals per signal payload.
            proj = self._projector(t)
            if proj is not None:
                # signal-driven snapshot chunks must see the SAME projected
                # schema as snapshot/stream, or excluded columns reappear
                raw = source
                source = (lambda raw=raw, proj=proj: raw().map_batches(
                    proj, batch_format="pyarrow"))
            ms = self.engine(t).drain_signals(source)
            if ms:
                out[t] = ms
        return out

    def run(self, lakes: dict, stream, snapshot_lsn: Lsn, to_lsn: Lsn,
            n_windows: int, *, mode="initial"):
        """Full task lifecycle under a snapshotter policy (the reference's
        Db2ConnectorTask: snapshot phase, then the streaming loop — unless
        the policy says not to stream, e.g. initial_only /
        configuration_based(stream=False))."""
        from debezium_connector_db2_ray.snapshotter import resolve_snapshotter

        snaps = self.snapshot_all(lakes, snapshot_lsn, mode=mode)
        if not resolve_snapshotter(mode).should_stream():
            return {"snapshots": snaps, "streams": {}}
        return {
            "snapshots": snaps,
            "streams": self.replay(
                stream, snapshot_lsn, to_lsn, n_windows, lakes=lakes
            ),
        }

    def state(self, table: str):
        return self.engine(table).state_dataset()


def _route(col: str, table: str):
    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch[col], table)).drop_columns([col])

    return fn


def _window_slice(lo: Lsn, hi: Lsn):
    """Filter a batch to commit LSNs in (lo, hi] — the window's bounded
    working set (the per-engine window prep re-checks, harmlessly)."""

    def fn(batch: pa.Table) -> pa.Table:
        return commit_range_filter(batch, lo, hi)

    return fn
