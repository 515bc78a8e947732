"""Last-writer-wins apply — the parallel core of the engine.

The reference converges table state through ONE serial consumer of a global
k-way LSN merge (Db2StreamingChangeEventSource.java:176-292; single task
enforced at Db2Connector.java:55-61). Final state only depends on per-key
order, so the parallel-legal equivalent is: hash-partition events by key,
then per key take the image of the maximum ``(commit_lsn, intent_lsn)``
position — delete means tombstone. That argmax is commutative/associative,
which makes partial (per-batch combiner) + final aggregation legal and the
whole apply shuffle-parallel and delivery-order-insensitive.

Semantics pinned against the reference:
- update pairs: op 3 must be immediately followed by op 4, same commit, same
  key; orphans raise (IllegalStateException at
  Db2StreamingChangeEventSource.java:254-264);
- op 5 is a standalone single-image update (:266-274);
- snapshot fence: events with commit_lsn <= snapshot watermark are skipped
  only once the snapshot completed (:129-131,157-160);
- restart skip: position < saved offset skipped; == offset skipped while
  event_serial_no <= saved serial (:208-223);
- DELETE tombstones the key; a PK change arrives as DELETE+INSERT
  (Db2ConnectorIT.java:161-257).

All kernels are vectorized numpy / pyarrow over Arrow tables; no Python
row loops.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from debezium_connector_db2_ray.lsn import Lsn, lsn_range_mask
from debezium_connector_db2_ray.ops import (
    OP_DELETE,
    OP_READ,
    OP_UPDATE_AFTER,
    OP_UPDATE_BEFORE,
)
from debezium_connector_db2_ray.pipelines.oracle import OrphanBeforeImageError
from debezium_connector_db2_ray.schema import (
    CHANGELOG_META_COLUMNS,
    KEY_COLUMNS,
    conform_table,
    unify_payload_schemas,
)

META = set(CHANGELOG_META_COLUMNS)


def partition_ids(
    primary,
    sub,
    num_partitions: int,
    salt: int = 1,
) -> np.ndarray:
    """Stable hash partition of the key. ``primary`` is the first key
    column; with ``salt > 1`` a hot primary value is split across ``salt``
    sub-partitions keyed by the SECOND key column (``sub``) — legal because
    last-writer-wins is per full key and the sub column determines the
    sub-key (SURVEY.md §4 skew row). ``sub`` may be any type; non-integer
    values are hashed first."""
    if isinstance(primary, (pa.ChunkedArray, pa.Array)):
        primary = primary.to_pandas()
    h = pd.util.hash_pandas_object(pd.Series(primary), index=False).to_numpy()
    if salt > 1:
        if sub is None:
            raise ValueError(
                "salting requires a second key column to sub-partition by"
            )
        t = np.asarray(sub)
        if not np.issubdtype(t.dtype, np.integer):
            t = pd.util.hash_pandas_object(
                pd.Series(t), index=False
            ).to_numpy()
        t = t.astype(np.uint64)
        h = h * np.uint64(1_000_003) + (t % np.uint64(salt))
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _grouping_codes(table: pa.Table, col: str) -> np.ndarray:
    """Integer codes identifying equal values of one key column (dictionary
    indices for strings — grouping only, not global order)."""
    arr = table[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
        if isinstance(arr, pa.ChunkedArray):  # 0-chunk edge
            arr = (
                pa.concat_arrays(arr.chunks)
                if arr.num_chunks
                else pa.array([], table.schema.field(col).type)
            )
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        return arr.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    return arr.to_numpy(zero_copy_only=False)


def _key_position_order(
    table: pa.Table, key_columns: tuple[str, ...], cluster: str | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sort order by ([cluster,] *key_columns, commit_lsn, intent_lsn).
    Returns (order, per-key-column grouping code arrays)."""
    keys = [_grouping_codes(table, c) for c in key_columns]
    lead = ([] if cluster is None
            else [table[cluster].to_numpy(zero_copy_only=False)])
    order = np.lexsort(
        (
            table["intent_lsn_lo"].to_numpy(zero_copy_only=False).astype(np.uint64),
            table["intent_lsn_hi"].to_numpy(zero_copy_only=False).astype(np.uint64),
            table["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(np.uint64),
            table["commit_lsn_hi"].to_numpy(zero_copy_only=False).astype(np.uint64),
            *reversed(keys),
            *lead,
        )
    )
    return order, keys


def validate_update_pairs(sorted_keys, sorted_chi, sorted_clo, sorted_op):
    """On a (key, position)-sorted view: every op-3 row must be immediately
    followed by an op-4 row with the same key and commit; every op-4 row must
    be immediately preceded by its op-3. Raises OrphanBeforeImageError.
    ``sorted_keys``: list of per-key-column code arrays in sorted order."""
    n = len(sorted_op)
    is3 = sorted_op == OP_UPDATE_BEFORE
    is4 = sorted_op == OP_UPDATE_AFTER
    if not (is3.any() or is4.any()):
        return
    ok_next = np.zeros(n, dtype=bool)
    if n > 1:
        same_key = np.ones(n - 1, dtype=bool)
        for k in sorted_keys:
            same_key &= k[:-1] == k[1:]
        ok_next[:-1] = (
            same_key
            & (sorted_chi[:-1] == sorted_chi[1:])
            & (sorted_clo[:-1] == sorted_clo[1:])
            & is4[1:]
        )
    bad3 = is3 & ~ok_next
    prev_is3 = np.zeros(n, dtype=bool)
    prev_is3[1:] = ok_next[:-1] & is3[:-1]
    bad4 = is4 & ~prev_is3
    if bad3.any() or bad4.any():
        i = int(np.flatnonzero(bad3 | bad4)[0])
        raise OrphanBeforeImageError(
            f"unpaired update image: op={int(sorted_op[i])} commit="
            f"{Lsn(int(sorted_chi[i]), int(sorted_clo[i])).hex()}"
        )


def lww_collapse(
    table: pa.Table,
    *,
    validate_pairs: bool = True,
    partial: bool = False,
    key_columns: tuple[str, ...] = KEY_COLUMNS,
    cluster: str | None = None,
) -> pa.Table:
    """Collapse a changelog fragment to one winning row per key (default
    (conv_id, turn_idx); ``key_columns`` is the message-key-rewrite hook,
    reference Db2ConnectorIT.java:789-818): argmax over (commit_lsn,
    intent_lsn). Keeps the meta columns
    (op + 4 LSN columns) so output is both a state fragment and a mergeable
    delta (tombstones retained as op=1 rows). Raises if a before-image wins —
    i.e. an orphan op 3 (with ``validate_pairs`` every orphan raises, matching
    the reference exactly; without, only winning orphans are detectable:
    the documented fast-path tradeoff). ``partial=True`` marks a per-batch
    combiner pass, where a winning op-3 is legal — its op-4 partner may sit in
    another batch and will dominate after the shuffle. ``cluster`` (an int
    column that is a function of the key) leads the sort, so the winners
    come out clustered by it."""
    if table.num_rows == 0:
        return table
    order, keys = _key_position_order(table, key_columns, cluster)
    s_keys = [k[order] for k in keys]
    op = table["op"].to_numpy(zero_copy_only=False)
    if validate_pairs:
        chi = table["commit_lsn_hi"].to_numpy(zero_copy_only=False)
        clo = table["commit_lsn_lo"].to_numpy(zero_copy_only=False)
        validate_update_pairs(s_keys, chi[order], clo[order], op[order])
    n = len(order)
    last = np.ones(n, dtype=bool)
    if n > 1:
        diff = np.zeros(n - 1, dtype=bool)
        for k in s_keys:
            diff |= k[:-1] != k[1:]
        last[:-1] = diff
    winners = order[last]
    wop = op[winners]
    if not partial and (wop == OP_UPDATE_BEFORE).any():
        i = int(winners[np.flatnonzero(wop == OP_UPDATE_BEFORE)[0]])
        key_repr = tuple(table[c][i].as_py() for c in key_columns)
        raise OrphanBeforeImageError(
            f"before-image won last-writer-wins for key {key_repr!r} "
            "— missing after-image"
        )
    return table.take(winners)


def coalesce_collapse(
    table: pa.Table,
    *,
    key_columns: tuple[str, ...] = KEY_COLUMNS,
    coalesce_columns: tuple[str, ...] | None = None,
) -> pa.Table:
    """Partial-update merge: per key, each payload column takes its value
    from the LATEST event where that column is non-null — the engine-side
    analog of the reference's reselect-columns post processor (which re-reads
    unavailable/null column values from the source row,
    Db2ReselectColumnsProcessorIT). A DELETE resets the key: values from
    before the tombstone never leak into a later re-insert.

    Vectorized via segmented cumulative-max of last-valid-row indices
    (segments = key runs, re-cut after every DELETE). Before-images (op 3)
    are not state writes and are ignored."""
    if table.num_rows == 0:
        return table
    table = table.filter(pc.not_equal(table["op"], OP_UPDATE_BEFORE))
    if table.num_rows == 0:
        return table
    order, keys = _key_position_order(table, key_columns)
    t = table.take(order)
    n = t.num_rows
    s_keys = [k[order] for k in keys]
    new_key = np.ones(n, dtype=bool)
    if n > 1:
        diff = np.zeros(n - 1, dtype=bool)
        for k in s_keys:
            diff |= k[:-1] != k[1:]
        new_key[1:] = diff
    op = t["op"].to_numpy(zero_copy_only=False)
    # segment boundaries: new key, or row right after a delete in the same key
    after_delete = np.zeros(n, dtype=bool)
    after_delete[1:] = (op[:-1] == OP_DELETE) & ~new_key[1:]
    seg = np.cumsum(new_key | after_delete) - 1  # 0-based segment ids
    last_of_key = np.zeros(n, dtype=bool)
    last_of_key[:-1] = new_key[1:]
    last_of_key[-1] = True
    winners = np.flatnonzero(last_of_key)
    wop = op[winners]

    payload = [c for c in t.column_names if c not in META and c not in key_columns]
    cols = coalesce_columns or tuple(payload)
    big = np.int64(n + 2)
    out_cols: dict[str, pa.Array] = {}
    for c in key_columns:
        out_cols[c] = _take_arr(t[c], winners)
    for name, f in zip(t.column_names, t.schema):
        if name in key_columns or name not in payload:
            continue
        col = t[name]
        if name in cols:
            valid = pc.is_valid(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col).to_numpy(zero_copy_only=False)
            lastv = np.where(valid, np.arange(n, dtype=np.int64), np.int64(-1))
            segmented = np.maximum.accumulate(lastv + big * seg) - big * seg
            pick = segmented[winners]
            idx = pa.array(
                np.where(pick >= 0, pick, 0), pa.int64(),
                mask=pick < 0,
            )
            out_cols[name] = _take_arr(col, idx)
        else:
            out_cols[name] = _take_arr(col, winners)
    # meta columns of the winning (last) event ride along
    for m in CHANGELOG_META_COLUMNS:
        out_cols[m] = _take_arr(t[m], winners)
    out = pa.table(out_cols)
    # tombstoned keys (winner is DELETE) are dropped
    if (wop == OP_DELETE).any():
        out = out.filter(pc.not_equal(out["op"], OP_DELETE))
    return out


def _take_arr(col, indices):
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.take(indices if isinstance(indices, pa.Array) else pa.array(indices))


def commit_range_filter(
    table: pa.Table,
    low: Lsn | None = None,
    high: Lsn | None = None,
    *,
    low_inclusive: bool = False,
    high_inclusive: bool = True,
) -> pa.Table:
    """Keep rows whose commit LSN lies in ``(low, high]`` (bounds and
    inclusivity as in ``lsn_range_mask``); returns ``table`` itself when
    every row is kept. NULL-LSN rows never survive a bounded filter."""
    if table.num_rows == 0:
        return table
    keep = lsn_range_mask(
        table["commit_lsn_hi"].to_numpy(zero_copy_only=False),
        table["commit_lsn_lo"].to_numpy(zero_copy_only=False),
        low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive,
    )
    if keep.all():
        return table
    return table.filter(pa.array(keep))


def fence_filter(
    table: pa.Table, snapshot_lsn: Lsn, *, snapshot_completed: bool = True
) -> pa.Table:
    """Snapshot fence: drop events at or below the snapshot watermark — but
    ONLY once the snapshot completed; an incomplete snapshot replays from the
    un-incremented watermark (reference shouldIncreaseFromLsn,
    Db2StreamingChangeEventSource.java:129-131,157-160)."""
    if not snapshot_completed:
        return table
    return commit_range_filter(table, low=snapshot_lsn)


def stop_lsn_fence(table: pa.Table, stop_lsn: Lsn) -> pa.Table:
    """Capture-instance stop fence: drop events with commit_lsn >= stop_lsn —
    on the OLD capture instance those events arrive again from the NEW
    instance after a schema change, so the old stream is fenced at its
    stopLsn (reference: Db2StreamingChangeEventSource.java:224-239; the z/OS
    escape hatch config at Db2ConnectorConfig.java:399-406 corresponds to
    simply not calling this)."""
    return commit_range_filter(table, high=stop_lsn, high_inclusive=False)


SYSTEM_TABLE_PREFIXES = ("ibmsnap_", "ibmqrep_", "asncdc.", "systools.")


def is_system_table(name: str) -> bool:
    """Hard-exclude predicate for capture-control/system tables (reference:
    Db2ConnectorConfig.java:645-656). Retained as a name-filter hook even
    though a Parquet lake has no system tables."""
    n = name.lower()
    return n.startswith(SYSTEM_TABLE_PREFIXES) or n.split(".")[0] in (
        "asncdc",
        "systools",
    )


def offset_skip(
    table: pa.Table, offset_commit: Lsn, offset_intent: Lsn, offset_serial: int = 0
) -> pa.Table:
    """Restart dedup (reference Db2StreamingChangeEventSource.java:208-223):
    skip rows with position strictly below the saved offset; rows AT the
    offset are skipped while their serial number (1-based index within the
    commit, intent order) is <= the saved serial."""
    if table.num_rows == 0:
        return table
    chi = table["commit_lsn_hi"].to_numpy(zero_copy_only=False)
    clo = table["commit_lsn_lo"].to_numpy(zero_copy_only=False)
    ihi = table["intent_lsn_hi"].to_numpy(zero_copy_only=False)
    ilo = table["intent_lsn_lo"].to_numpy(zero_copy_only=False)
    oc = offset_commit
    below = lsn_range_mask(chi, clo, high=oc, high_inclusive=False)
    at = lsn_range_mask(chi, clo, oc, oc, low_inclusive=True)
    drop = below | (at & lsn_range_mask(ihi, ilo, high=offset_intent))
    # serial refinement: within the offset commit, serial numbers beyond the
    # saved one replay (mid-transaction restart, Db2ConnectorIT.java:549-714)
    if offset_serial and at.any():
        order = np.lexsort((ilo[at].astype(np.uint64), ihi[at].astype(np.uint64)))
        serial = np.empty(order.shape, dtype=np.int64)
        serial[order] = np.arange(1, len(order) + 1)
        d = drop[at]
        d[:] = serial <= offset_serial
        drop[at] = d
    return table.filter(pa.array(~drop))


def snapshot_as_events(snapshot: pa.Table, snapshot_lsn: Lsn) -> pa.Table:
    """Wrap snapshot rows as op=READ events AT the snapshot watermark so
    snapshot and stream flow through one collapse (the reference emits
    snapshot rows as 'r' envelopes — Db2ConnectorIT.java:1043,1081-1084)."""
    n = snapshot.num_rows
    meta = [
        pa.array(np.full(n, snapshot_lsn.hi, np.uint64)),
        pa.array(np.full(n, snapshot_lsn.lo, np.uint64)),
        pa.array(np.zeros(n, np.uint64)),
        pa.array(np.zeros(n, np.uint64)),
        pa.array(np.full(n, OP_READ, np.int8)),
    ]
    out = snapshot
    for name, arr in zip(CHANGELOG_META_COLUMNS, meta):
        out = out.append_column(name, arr)
    return out.select(list(CHANGELOG_META_COLUMNS) + snapshot.column_names)


def apply_partition(
    events: pa.Table,
    snapshot: pa.Table | None = None,
    *,
    snapshot_lsn: Lsn | None = None,
    snapshot_completed: bool = True,
    validate_pairs: bool = True,
    key_columns: tuple[str, ...] = KEY_COLUMNS,
) -> pa.Table:
    """Apply one hash partition: fence -> union snapshot -> additive schema
    unification -> last-writer-wins collapse. Returns the partition's
    state-with-lineage table (meta columns retained, tombstones as op=1
    rows)."""
    if snapshot_lsn is not None:
        events = fence_filter(events, snapshot_lsn, snapshot_completed=snapshot_completed)
    parts = [events]
    if snapshot is not None and snapshot.num_rows:
        if snapshot_lsn is None:
            raise ValueError("snapshot requires snapshot_lsn")
        parts.append(snapshot_as_events(snapshot, snapshot_lsn))
    if len(parts) == 2:
        payload_a = pa.schema([f for f in parts[0].schema if f.name not in META])
        payload_b = pa.schema([f for f in parts[1].schema if f.name not in META])
        payload = unify_payload_schemas(payload_b, payload_a)  # snapshot cols first
        target = pa.schema(
            [f for f in parts[0].schema if f.name in META] + list(payload)
        )
        parts = [conform_table(t, target) for t in parts]
    merged = pa.concat_tables(parts) if len(parts) > 1 else parts[0]
    return lww_collapse(
        merged, validate_pairs=validate_pairs, key_columns=key_columns
    )


def final_state(collapsed: pa.Table, *, keep_meta: bool = False) -> pa.Table:
    """Drop tombstones (op=1) and, unless ``keep_meta``, the meta columns —
    the user-facing lake state."""
    if collapsed.num_rows:
        collapsed = collapsed.filter(pc.not_equal(collapsed["op"], OP_DELETE))
    if keep_meta:
        return collapsed
    keep = [c for c in collapsed.column_names if c not in META]
    return collapsed.select(keep)
