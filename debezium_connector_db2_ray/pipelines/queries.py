"""Driver-facing query suite + matching DuckDB oracle SQL.

The driver's correctness gate runs each ``QUERIES[name](sf_dir)`` Ray pipeline
AND the matching ``ORACLES[name]`` SQL over the same parquet tables and
compares row counts, schemas, and order-insensitive value hashes.

The CDC queries operate on a change log DERIVED DETERMINISTICALLY from the
driver's ``events`` table — the derivation is defined once here, in both a
vectorized Arrow form (`derive_changelog`) and an SQL CTE (`SQL_CHANGELOG`),
and the two are kept textually adjacent so they cannot drift:

    conv_id   = 'conv_' || user_id          (shuffle key)
    turn_idx  = event_id % 20               ((conv_id, turn_idx) = PK)
    commit/intent lsn = event_id            (strictly increasing)
    op        = error -> 1 (DELETE), purchase -> 5 (UPDATE), else 2 (INSERT)
    role/text/ts = event_type / props / ts
    tool      = 'updater' for updates, else NULL

Because Ray Data delivers blocks in arbitrary order, the engine sees exactly
the reference scenario: a shuffled change stream whose final state must match
the strictly-ordered serial apply (here: a DuckDB window-function argmax).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.ops import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE_AFTER,
    OP_UPDATE_BEFORE,
    OP_UPDATE_SINGLE,
)
from debezium_connector_db2_ray.schema import changelog_schema
from debezium_connector_db2_ray.sources.files import sf_table

TURN_MOD = 20
NP = 16  # hash partitions for the sf-scale gate queries

# ---------------------------------------------------------------------------
# derivation: Python (vectorized) and SQL, side by side
# ---------------------------------------------------------------------------

SQL_CHANGELOG = f"""
changelog AS (
  SELECT 'conv_' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(event_id % {TURN_MOD} AS INTEGER) AS turn_idx,
         event_id AS lsn,
         CASE WHEN event_type = 'error' THEN 1
              WHEN event_type = 'purchase' THEN 5
              ELSE 2 END AS op,
         event_type AS role,
         props AS text,
         CASE WHEN event_type = 'purchase' THEN 'updater' END AS tool,
         ts
  FROM events
)
"""


def derive_changelog(batch: pa.Table) -> pa.Table:
    """Vectorized mirror of SQL_CHANGELOG over an ``events`` batch, emitting
    the engine's canonical changelog schema (uint64 LSN halves, int8 op)."""
    ev = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    et = np.asarray(batch["event_type"].to_numpy(zero_copy_only=False))
    op = np.where(et == "error", OP_DELETE, np.where(et == "purchase", OP_UPDATE_SINGLE, OP_INSERT)).astype(np.int8)
    conv = pc.binary_join_element_wise(
        "conv_", pc.cast(batch["user_id"], pa.string()), ""
    )
    tool = pc.if_else(
        pa.array(op == OP_UPDATE_SINGLE),
        pa.scalar("updater", pa.string()),
        pa.scalar(None, pa.string()),
    )
    lsn = ev.astype(np.uint64)
    return pa.table(
        {
            "commit_lsn_hi": np.zeros(len(ev), np.uint64),
            "commit_lsn_lo": lsn,
            "intent_lsn_hi": np.zeros(len(ev), np.uint64),
            "intent_lsn_lo": lsn,
            "op": op,
            "conv_id": conv,
            "turn_idx": pa.array((ev % TURN_MOD).astype(np.int32)),
            "role": pa.array(et, pa.string()),
            "text": batch["props"].combine_chunks()
            if isinstance(batch["props"], pa.ChunkedArray)
            else batch["props"],
            "tool": tool,
            "ts": batch["ts"].combine_chunks()
            if isinstance(batch["ts"], pa.ChunkedArray)
            else batch["ts"],
        },
        schema=changelog_schema(),
    )


SQL_EXPANDED_PAIRS = """
expanded AS (
  SELECT conv_id, turn_idx, lsn, 0 AS intent, 3 AS op, role,
         'old:' || text AS text, tool, ts FROM changelog WHERE op = 5
  UNION ALL
  SELECT conv_id, turn_idx, lsn, 1 AS intent, 4 AS op, role,
         text, tool, ts FROM changelog WHERE op = 5
  UNION ALL
  SELECT conv_id, turn_idx, lsn, 0 AS intent, op, role,
         text, tool, ts FROM changelog WHERE op <> 5
)
"""


def expand_update_pairs(batch: pa.Table) -> pa.Table:
    """Mirror of SQL_EXPANDED_PAIRS: each op-5 update becomes an op-3
    before-image row (text prefixed 'old:', intent 0) immediately followed —
    in LSN order — by its op-4 after-image row (intent 1). This reproduces
    the CD table the reference reads (D,I adjacent rows per update,
    LuwPlatform.java:29-39)."""
    cl = derive_changelog(batch)
    is_u = pc.equal(cl["op"], OP_UPDATE_SINGLE)
    singles = cl.filter(pc.invert(is_u))
    ups = cl.filter(is_u)
    before = (
        ups.set_column(
            cl.column_names.index("op"),
            "op",
            pa.array(np.full(ups.num_rows, OP_UPDATE_BEFORE, np.int8)),
        ).set_column(
            cl.column_names.index("text"),
            "text",
            pc.binary_join_element_wise("old:", ups["text"], ""),
        )
    )
    after = ups.set_column(
        cl.column_names.index("op"),
        "op",
        pa.array(np.full(ups.num_rows, OP_UPDATE_AFTER, np.int8)),
    ).set_column(
        cl.column_names.index("intent_lsn_lo"),
        "intent_lsn_lo",
        pa.array(np.ones(ups.num_rows, np.uint64)),
    )
    before = before.set_column(
        cl.column_names.index("intent_lsn_lo"),
        "intent_lsn_lo",
        pc.multiply(before["intent_lsn_lo"], pa.scalar(0, pa.uint64())),
    )
    return pa.concat_tables([singles.set_column(
        cl.column_names.index("intent_lsn_lo"),
        "intent_lsn_lo",
        pc.multiply(singles["intent_lsn_lo"], pa.scalar(0, pa.uint64())),
    ), before, after])


SQL_RAW_STREAM = """
raw AS (
  SELECT conv_id, turn_idx, lsn, 0 AS intent, 'D' AS op_raw,
         'old:' || text AS text FROM changelog WHERE op = 5
  UNION ALL
  SELECT conv_id, turn_idx, lsn, 1 AS intent, 'I' AS op_raw,
         text FROM changelog WHERE op = 5
  UNION ALL
  SELECT conv_id, turn_idx, lsn, 0 AS intent,
         CASE WHEN op = 1 THEN 'D' ELSE 'I' END AS op_raw,
         text FROM changelog WHERE op <> 5
)
"""


def derive_raw_stream(batch: pa.Table) -> pa.Table:
    """Mirror of SQL_RAW_STREAM: the *unclassified* capture stream of D/I
    rows, as the Db2 CD table stores them before the reference's SQL
    classification."""
    t = expand_update_pairs(batch)
    op = t["op"].to_numpy(zero_copy_only=False)
    raw = np.where(np.isin(op, (OP_DELETE, OP_UPDATE_BEFORE)), "D", "I")
    t = t.set_column(t.column_names.index("op"), "op_raw", pa.array(raw, pa.string()))
    return t.select(
        ["commit_lsn_hi", "commit_lsn_lo", "intent_lsn_hi", "intent_lsn_lo",
         "op_raw", "conv_id", "turn_idx", "text"]
    )


# ---------------------------------------------------------------------------
# query implementations
# ---------------------------------------------------------------------------

OUT_COLS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

SQL_FINAL_STATE = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM ranked WHERE rn = 1 AND op <> 1
"""


def _events(sf_dir: str, filter=None):
    """The ``events`` columns the change log is derived from."""
    return sf_table(
        sf_dir, "events", ["event_id", "user_id", "event_type", "props", "ts"],
        filter,
    )


def _max_event_id(sf_dir: str) -> int:
    """Cheap driver-side max over parquet row-group statistics (no scan)."""
    md = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata
    vals = []
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        for j in range(rg.num_columns):
            col = rg.column(j)
            if col.path_in_schema == "event_id" and col.statistics is not None:
                vals.append(col.statistics.max)
    return max(vals)


def q_apply_lww(sf_dir: str):
    """A2 per-key last-writer-wins: full replay, shuffled delivery."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    out = apply_dataset(cl, num_partitions=NP)
    return out.map_batches(lambda t: t.select(OUT_COLS), batch_format="pyarrow")


def q_apply_combiner(sf_dir: str):
    """Same result via the scale fast path: per-batch partial LWW combiner
    before the shuffle (pre-aggregation pattern)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    out = apply_dataset(cl, num_partitions=NP, validate_pairs=False, combiner=True)
    return out.map_batches(lambda t: t.select(OUT_COLS), batch_format="pyarrow")


def q_snapshot_then_stream(sf_dir: str):
    """Snapshot-then-stream lifecycle: lake materialized at the fence LSN,
    then the tail of the log replayed on top (reference lifecycle,
    Db2SnapshotChangeEventSource.java:125-137)."""
    import pyarrow.dataset as pads

    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    fence = _max_event_id(sf_dir) // 2
    head = _events(sf_dir, pads.field("event_id") <= fence).map_batches(
        derive_changelog, batch_format="pyarrow"
    )
    tail = _events(sf_dir, pads.field("event_id") > fence).map_batches(
        derive_changelog, batch_format="pyarrow"
    )
    lake = apply_dataset(head, num_partitions=NP)
    out = apply_dataset(
        tail, num_partitions=NP, snapshot=lake, snapshot_lsn=Lsn(0, fence)
    )
    return out.map_batches(lambda t: t.select(OUT_COLS), batch_format="pyarrow")


SQL_UPDATE_PAIRS = f"""
WITH {SQL_CHANGELOG.strip()},
{SQL_EXPANDED_PAIRS.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC, intent DESC) AS rn
  FROM expanded
)
SELECT conv_id, turn_idx, role, text, tool, ts
FROM ranked WHERE rn = 1 AND op NOT IN (1, 3)
"""


def q_update_pairs(sf_dir: str):
    """M3 update-pair zipping: op-3/op-4 pairs replayed; after-image wins."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(expand_update_pairs, batch_format="pyarrow")
    out = apply_dataset(cl, num_partitions=NP)
    return out.map_batches(lambda t: t.select(OUT_COLS), batch_format="pyarrow")


SQL_CLASSIFY = f"""
WITH {SQL_CHANGELOG.strip()},
{SQL_RAW_STREAM.strip()},
cls AS (
  SELECT *,
         lead(op_raw) OVER (PARTITION BY lsn ORDER BY intent) AS nxt,
         lag(op_raw)  OVER (PARTITION BY lsn ORDER BY intent) AS prv
  FROM raw
)
SELECT lsn, intent,
       CASE WHEN op_raw = 'D' AND nxt = 'I' THEN 3
            WHEN op_raw = 'I' AND prv = 'D' THEN 4
            WHEN op_raw = 'D' THEN 1
            WHEN op_raw = 'U' THEN 5
            ELSE 2 END AS op,
       conv_id, turn_idx, text
FROM cls
"""


def q_classify_ops(sf_dir: str):
    """S2/S3 opcode classification of the raw D/I capture stream — MAP-ONLY,
    no shuffle: every commit's rows here derive from one source event row
    (the op-5 expansion emits its D+I pair adjacently inside the same
    batch), so same-commit adjacency is already batch-local. A captured log
    whose multi-row commits live in a FILE instead uses the overlapped
    row-group scan (stages/decode.py classify_parquet_stream), which is the
    general zero-shuffle path; the round-1 hash(commit_lsn) exchange is
    gone either way."""
    from debezium_connector_db2_ray.stages.decode import classify_ops, sort_by_position

    def classify_batch(batch: pa.Table) -> pa.Table:
        t = classify_ops(sort_by_position(derive_raw_stream(batch)))
        return pa.table(
            {
                "lsn": t["commit_lsn_lo"].cast(pa.int64()),
                "intent": t["intent_lsn_lo"].cast(pa.int32()),
                "op": t["op"].cast(pa.int32()),
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "text": t["text"],
            }
        )

    return _events(sf_dir).map_batches(classify_batch, batch_format="pyarrow")


def q_classify_multifile(sf_dir: str):
    """S2 classification over a MULTI-FILE changelog directory: the
    overlapped cross-file row-group scan (stages/decode.py
    classify_parquet_stream) — zero shuffle; each task peeks one row group
    each side and the peek CROSSES file boundaries. The fixture plants an
    update pair (D ends shard i, its I opens shard i+1) on every shard
    boundary, so any regression in cross-file adjacency turns ops 3/4 into
    1/2 and the hash goes red. Oracle: same SQL as cdc_classify_ops —
    classification must not depend on the file layout (the reference's CD
    scan is one ordered cursor, platform/LuwPlatform.java:29-39)."""
    import os

    import pyarrow.parquet as _pq

    from debezium_connector_db2_ray.stages.decode import (
        classify_parquet_stream,
        sort_by_position,
    )

    st = os.stat(f"{sf_dir}/events.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    fix_dir = (
        f"/tmp/db2ray_clmf/{tag}_{st.st_size}_{int(st.st_mtime)}"
    )
    done = os.path.join(fix_dir, "_DONE")
    if not os.path.exists(done):
        # fixture build (driver-side, gate scale): derive the raw stream,
        # position-sort, split into shards CUT BETWEEN the D and I of
        # update pairs so every boundary straddles a commit
        ev = _pq.read_table(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "event_type", "props", "ts"],
        )
        raw = sort_by_position(derive_raw_stream(ev))
        op_raw = np.asarray(
            raw["op_raw"].to_numpy(zero_copy_only=False), dtype="U1"
        )
        clo = raw["commit_lsn_lo"].to_numpy(zero_copy_only=False)
        n = raw.num_rows
        pair_cut = np.flatnonzero(
            (op_raw[:-1] == "D") & (op_raw[1:] == "I")
            & (clo[:-1] == clo[1:])
        ) + 1
        n_shards = 6
        want = np.linspace(0, n, n_shards + 1)[1:-1]
        cuts = sorted({0, n, *(
            int(pair_cut[np.argmin(np.abs(pair_cut - w))])
            for w in want
        )}) if pair_cut.size else [0, n]
        os.makedirs(fix_dir, exist_ok=True)
        for si, (a, b) in enumerate(zip(cuts, cuts[1:])):
            _pq.write_table(
                raw.slice(a, b - a),
                os.path.join(fix_dir, f"shard_{si:04d}.parquet"),
                row_group_size=4096,
            )
        with open(done, "w") as f:
            f.write(str(cuts))

    out = classify_parquet_stream(fix_dir, groups_per_task=2)
    return out.map_batches(
        lambda t: pa.table({
            "lsn": t["commit_lsn_lo"].cast(pa.int64()),
            "intent": t["intent_lsn_lo"].cast(pa.int32()),
            "op": t["op"].cast(pa.int32()),
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "text": t["text"],
        }),
        batch_format="pyarrow",
    )


SQL_MAX_LSN = """
SELECT max(event_id) AS max_commit_lsn, count(*) AS n_events FROM events
"""


def q_max_lsn(sf_dir: str):
    """S4 max-LSN probe — the global high watermark aggregate."""
    from ray.data.aggregate import Count, Max

    ds = _events(sf_dir)
    agg = ds.aggregate(
        Max("event_id", alias_name="max_commit_lsn"),
        Count(alias_name="n_events"),
    )
    return pa.table(
        {
            "max_commit_lsn": pa.array([agg["max_commit_lsn"]], pa.int64()),
            "n_events": pa.array([agg["n_events"]], pa.int64()),
        }
    )


SQL_WINDOW_BOUNDS = """
SELECT max(event_id) AS to_lsn, count(*) AS n_in_window
FROM events
WHERE ts <= (SELECT min(ts) + INTERVAL 48 HOUR FROM events)
"""


def q_window_bounds(sf_dir: str):
    """S5 timespan-bounded end-LSN: largest commit LSN whose timestamp is
    within N seconds of the window start (Db2Connection.java:118-170) —
    bounds one replay window on huge backlogs."""
    import datetime

    from ray.data.aggregate import Count, Max, Min

    ds = _events(sf_dir)
    start = ds.aggregate(Min("ts", alias_name="m"))["m"]
    horizon = start + datetime.timedelta(hours=48)

    def in_window(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less_equal(batch["ts"], pa.scalar(horizon, pa.timestamp("us"))))

    agg = ds.map_batches(in_window, batch_format="pyarrow").aggregate(
        Max("event_id", alias_name="to_lsn"), Count(alias_name="n_in_window")
    )
    return pa.table(
        {
            "to_lsn": pa.array([agg["to_lsn"]], pa.int64()),
            "n_in_window": pa.array([agg["n_in_window"]], pa.int64()),
        }
    )


SQL_LINEAGE = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT user_id % 8 AS bucket, op, count(*) AS n,
       min(lsn) AS min_lsn, max(lsn) AS max_lsn
FROM (SELECT *, CAST(SUBSTRING(conv_id, 6) AS BIGINT) AS user_id FROM changelog)
GROUP BY 1, 2
"""


def q_lineage_counts(sf_dir: str):
    """A3 transaction/lineage counters: per-partition-bucket per-op event
    counts and applied LSN range — the manifest lineage, query-shaped.
    Pre-aggregated per batch before the tiny groupby (combiner pattern)."""
    from ray.data.aggregate import Max, Min, Sum

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        user = pd.to_numeric(
            pd.Series(batch["conv_id"].to_pandas()).str.slice(5)
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "bucket": (user % 8).to_numpy(),
                "op": batch["op"].to_numpy(zero_copy_only=False).astype(np.int32),
                "lsn": batch["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        g = df.groupby(["bucket", "op"], as_index=False).agg(
            n=("lsn", "size"), min_lsn=("lsn", "min"), max_lsn=("lsn", "max")
        )
        return pa.Table.from_pandas(
            g, preserve_index=False
        ).replace_schema_metadata(None)  # no unhashable pandas dict

    out = (
        cl.map_batches(partial, batch_format="pyarrow")
        .groupby(["bucket", "op"])
        .aggregate(
            Sum("n", alias_name="n"),
            Min("min_lsn", alias_name="min_lsn"),
            Max("max_lsn", alias_name="max_lsn"),
        )
    )
    return out


SQL_ENVELOPE = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT lsn,
       CASE WHEN op = 5 THEN 2 ELSE 1 END AS serial,
       CASE WHEN op = 1 THEN 'd' WHEN op = 2 THEN 'c' ELSE 'u' END AS op_char,
       conv_id, turn_idx,
       CASE WHEN op = 1 THEN text WHEN op = 5 THEN 'old:' || text END AS before_text,
       CASE WHEN op <> 1 THEN text END AS after_text
FROM changelog
"""


def q_envelope_feed(sf_dir: str):
    """M1/M2 + serial numbers: the Debezium change-event feed — update pairs
    zipped into single 'u' envelopes with before/after images, serials
    counting an update as 2 (Db2OffsetContext.java:95-104). MAP-ONLY: the
    op-5 expansion emits each pair adjacently inside one batch and serials
    are commit-local, so no shuffle is needed (a file-resident raw stream
    would use the overlapped row-group scan instead)."""
    from debezium_connector_db2_ray.stages.envelope import to_envelopes

    def env_batch(batch: pa.Table) -> pa.Table:
        t = to_envelopes(
            expand_update_pairs(batch), image_columns=("text",)
        )
        return pa.table(
            {
                "lsn": t["commit_lsn_lo"].cast(pa.int64()),
                "serial": t["serial"].cast(pa.int32()),
                "op_char": t["op_char"],
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "before_text": t["before_text"],
                "after_text": t["after_text"],
            }
        )

    return _events(sf_dir).map_batches(env_batch, batch_format="pyarrow")


SQL_SKIPPED_OPS = f"""
SELECT * FROM ({SQL_ENVELOPE.strip()}) WHERE op_char <> 'd'
"""


def q_skipped_operations(sf_dir: str):
    """``skipped.operations`` parity: the envelope feed with deletes
    configured away (stages/envelope.filter_operations) — a pure map-side
    filter after the map-only envelope projection, matching the
    reference's event-emission skip (CommonConnectorConfig
    SKIPPED_OPERATIONS, inherited by Db2ConnectorConfig)."""
    from debezium_connector_db2_ray.stages.envelope import (
        filter_operations,
    )

    return filter_operations(q_envelope_feed(sf_dir), skipped={"d"})


SOURCE_NAME = "testdb-server"
SOURCE_DB = "TESTDB"
SOURCE_SCHEMA = "DB2INST1"
SOURCE_TABLE = "TRANSCRIPTS"

SQL_SOURCE_STRUCT = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT lsn,
       CASE WHEN op = 1 THEN 'd' WHEN op = 2 THEN 'c' ELSE 'u' END AS op_char,
       conv_id, turn_idx,
       'ray-1.0' AS source_version,
       'db2' AS source_connector,
       '{SOURCE_NAME}' AS source_name,
       epoch_ms(ts) AS source_ts_ms,
       'false' AS source_snapshot,
       '{SOURCE_DB}' AS source_db,
       '{SOURCE_SCHEMA}' AS source_schema,
       '{SOURCE_TABLE}' AS source_table,
       '00000000:00000000:' ||
         printf('%016x', CASE WHEN op = 5 THEN 1 ELSE 0 END)
         AS source_change_lsn,
       '00000000:00000000:' || printf('%016x', lsn) AS source_commit_lsn
FROM changelog
"""


def q_source_struct(sf_dir: str):
    """Source-info block parity: every envelope carries the reference's
    source fields (version, connector, name, ts_ms, snapshot, db, schema,
    table, change_lsn, commit_lsn — Db2SourceInfoStructMaker.java:21-27,
    SourceInfoTest.java:85-105) as flat source_* columns."""
    from debezium_connector_db2_ray.stages.envelope import (
        to_envelopes,
        with_source_info,
    )

    def env_batch(batch: pa.Table) -> pa.Table:
        t = to_envelopes(
            expand_update_pairs(batch), image_columns=("text", "ts")
        )
        t = with_source_info(
            t, name=SOURCE_NAME, db=SOURCE_DB, schema=SOURCE_SCHEMA,
            table=SOURCE_TABLE,
        )
        return pa.table(
            {
                "lsn": t["commit_lsn_lo"].cast(pa.int64()),
                "op_char": t["op_char"],
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "source_version": t["source_version"],
                "source_connector": t["source_connector"],
                "source_name": t["source_name"],
                "source_ts_ms": t["source_ts_ms"],
                "source_snapshot": t["source_snapshot"],
                "source_db": t["source_db"],
                "source_schema": t["source_schema"],
                "source_table": t["source_table"],
                "source_change_lsn": t["source_change_lsn"],
                "source_commit_lsn": t["source_commit_lsn"],
            }
        )

    return _events(sf_dir).map_batches(env_batch, batch_format="pyarrow")


SQL_EVENT_METADATA = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT lsn,
       CASE WHEN op = 1 THEN 'd' WHEN op = 2 THEN 'c' ELSE 'u' END AS op_char,
       conv_id, turn_idx,
       epoch_ms(ts) AS event_ts_ms,
       '00000000:00000000:' || printf('%016x', lsn) AS commit_lsn,
       '00000000:00000000:' ||
         printf('%016x', CASE WHEN op = 5 THEN 1 ELSE 0 END) AS change_lsn,
       '00000000:00000000:' || printf('%016x', lsn) AS transaction_id
FROM changelog
"""


def q_event_metadata(sf_dir: str):
    """EventMetadataProvider parity (Db2EventMetadataProvider.java:19-59):
    per-event timestamp, {commit_lsn, change_lsn} source position, and the
    transaction id (== commit LSN for this connector) as columns over the
    envelope feed — a zero-shuffle map projection via
    stages/metadata.with_event_metadata."""
    from debezium_connector_db2_ray.stages.envelope import (
        to_envelopes,
        with_source_info,
    )
    from debezium_connector_db2_ray.stages.metadata import (
        append_event_metadata,
    )

    def env_batch(batch: pa.Table) -> pa.Table:
        t = to_envelopes(
            expand_update_pairs(batch), image_columns=("text", "ts")
        )
        t = with_source_info(
            t, name=SOURCE_NAME, db=SOURCE_DB, schema=SOURCE_SCHEMA,
            table=SOURCE_TABLE,
        )
        t = append_event_metadata(t)
        return pa.table(
            {
                "lsn": t["commit_lsn_lo"].cast(pa.int64()),
                "op_char": t["op_char"],
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "event_ts_ms": t["event_ts_ms"],
                "commit_lsn": t["commit_lsn"],
                "change_lsn": t["change_lsn"],
                "transaction_id": t["transaction_id"],
            }
        )

    return _events(sf_dir).map_batches(env_batch, batch_format="pyarrow")


SQL_TOMBSTONES = f"""
WITH {SQL_CHANGELOG.strip()},
feed AS (
  SELECT lsn, 'd' AS op_char, conv_id, turn_idx, text AS before_text
  FROM changelog WHERE op = 1
  UNION ALL
  SELECT lsn, 't' AS op_char, conv_id, turn_idx, CAST(NULL AS VARCHAR)
  FROM changelog WHERE op = 1
)
SELECT * FROM feed
"""


def q_tombstone_feed(sf_dir: str):
    """M10 tombstones-on-delete: each DELETE followed by a null-image
    tombstone record with the same key (Db2ConnectorIT.java:161-257)."""
    from debezium_connector_db2_ray.stages.envelope import to_envelopes

    raw = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")

    def tomb(batch: pa.Table) -> pa.Table:
        dels = batch.filter(pc.equal(batch["op"], OP_DELETE))
        t = to_envelopes(dels, tombstones_on_delete=True, image_columns=("text",))
        return pa.table(
            {
                "lsn": t["commit_lsn_lo"].cast(pa.int64()),
                "op_char": t["op_char"],
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "before_text": t["before_text"],
            }
        )

    return raw.map_batches(tomb, batch_format="pyarrow")


SQL_SCHEMA_EVOLUTION = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
)
SELECT conv_id, turn_idx, text,
       CASE WHEN lsn > (SELECT max(event_id) // 2 FROM events)
            THEN (CASE WHEN lsn % 3 = 0 THEN 'fr' ELSE 'en' END)
       END AS lang
FROM ranked WHERE rn = 1 AND op <> 1
"""


def q_schema_evolution(sf_dir: str):
    """ST5/J4 additive schema evolution: the changelog switches to a wider
    schema (adds ``lang``) at a boundary LSN — old-era winners are
    null-backfilled (Db2StreamingChangeEventSource.java:374-409)."""
    import pyarrow.dataset as pads

    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    boundary = _max_event_id(sf_dir) // 2
    old_era = _events(sf_dir, pads.field("event_id") <= boundary).map_batches(
        derive_changelog, batch_format="pyarrow"
    )

    def derive_new_era(batch: pa.Table) -> pa.Table:
        t = derive_changelog(batch)
        lsn = t["commit_lsn_lo"].to_numpy(zero_copy_only=False)
        lang = np.where(lsn % 3 == 0, "fr", "en")
        return t.append_column("lang", pa.array(lang, pa.string()))

    new_era = _events(sf_dir, pads.field("event_id") > boundary).map_batches(
        derive_new_era, batch_format="pyarrow"
    )

    lake = apply_dataset(old_era, num_partitions=NP)
    out = apply_dataset(
        new_era, num_partitions=NP, snapshot=lake, snapshot_lsn=Lsn(0, boundary)
    )
    return out.map_batches(
        lambda t: t.select(["conv_id", "turn_idx", "text", "lang"]),
        batch_format="pyarrow",
    )


SQL_TABLE_ROUTING = f"""
WITH {SQL_CHANGELOG.strip()},
routed AS (
  SELECT *, CAST(SUBSTRING(conv_id, 6) AS BIGINT) AS user_id FROM changelog
),
included AS (
  SELECT * FROM routed WHERE user_id % 2 = 0
),
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM included
)
SELECT 'server1.TRANSCRIPTS.A' AS topic, conv_id, turn_idx, role, text
FROM ranked WHERE rn = 1 AND op <> 1
"""


def q_table_routing(sf_dir: str):
    """M5 include/exclude filter + S11 topic routing: events route to a table
    by key; only the included table is applied; output carries its topic
    (<prefix>.<SCHEMA>.<TABLE>, Db2TopicSelector.java:20-23)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    def derive_and_filter(batch: pa.Table) -> pa.Table:
        t = derive_changelog(batch)
        user = pc.cast(pc.utf8_slice_codeunits(t["conv_id"], 5, 99), pa.int64())
        return t.filter(pc.equal(pc.bit_wise_and(user, 1), 0))

    cl = _events(sf_dir).map_batches(derive_and_filter, batch_format="pyarrow")
    out = apply_dataset(cl, num_partitions=NP)

    def project(t: pa.Table) -> pa.Table:
        topic = pa.array(["server1.TRANSCRIPTS.A"] * t.num_rows, pa.string())
        return pa.table(
            {
                "topic": topic,
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "role": t["role"],
                "text": t["text"],
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


SQL_MASKING = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
)
SELECT conv_id, turn_idx,
       '************' AS text_masked,
       substring(text, 1, 4) AS text_trunc,
       md5('s4lt' || text) AS text_hash
FROM ranked WHERE rn = 1 AND op <> 1
"""


def q_masked_columns(sf_dir: str):
    """M7 column masking / truncation / salted hashing applied to the final
    state (column.mask.with / column.truncate.to / mask.hash,
    Db2ConnectorIT.java:736-787)."""
    import hashlib

    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    out = apply_dataset(cl, num_partitions=NP)

    def mask(t: pa.Table) -> pa.Table:
        text = t["text"]
        # md5 is the SEMANTIC (the reference's mask.hash and the DuckDB
        # oracle both use it), so no vectorized substitute applies; the loop
        # is one C md5 call per row, distributed across batches
        hashes = pa.array(
            [hashlib.md5(("s4lt" + v).encode()).hexdigest() for v in text.to_pylist()],
            pa.string(),
        )
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "text_masked": pa.array(["*" * 12] * t.num_rows, pa.string()),
                "text_trunc": pc.utf8_slice_codeunits(text, 0, 4),
                "text_hash": hashes,
            }
        )

    return out.map_batches(mask, batch_format="pyarrow")


SQL_CLOUDEVENTS = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT 'name:server1;change_lsn:00000000:00000000:' || lower(lpad(to_hex(lsn), 16, '0'))
       || ';commit_lsn:00000000:00000000:' || lower(lpad(to_hex(lsn), 16, '0')) AS ce_id,
       '/debezium/db2ray/server1' AS ce_source,
       'dev.raycdc.transcripts.DataChangeEvent' AS ce_type,
       CASE WHEN op = 1 THEN 'd' WHEN op = 2 THEN 'c' ELSE 'u' END AS op_char,
       conv_id, turn_idx
FROM changelog
"""


def q_cloudevents(sf_dir: str):
    """S13 CloudEvents serializer: ce id composed from logical name +
    change/commit LSN hex (Db2CloudEventsMaker.java:36-46)."""
    from debezium_connector_db2_ray.stages.cloudevents import to_cloudevents
    from debezium_connector_db2_ray.stages.envelope import to_envelopes

    raw = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")

    def ce(batch: pa.Table) -> pa.Table:
        env = to_envelopes(batch, image_columns=("text",))
        t = to_cloudevents(env)
        return t.select(
            ["ce_id", "ce_source", "ce_type", "op_char", "conv_id", "turn_idx"]
        )

    # our derived commits are single-event, so per-batch envelopes are exact
    return raw.map_batches(ce, batch_format="pyarrow", batch_size=None)


SQL_KEY_REWRITE = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY conv_id ORDER BY lsn DESC) AS rn
  FROM changelog
)
SELECT conv_id, role, text FROM ranked WHERE rn = 1 AND op <> 1
"""


def q_key_rewrite(sf_dir: str):
    """M8 message-key rewrite: last-writer-wins under an ALTERNATE key —
    conv_id alone (message.key.columns, Db2ConnectorIT.java:789-818)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    out = apply_dataset(cl, num_partitions=NP, key_columns=("conv_id",))
    return out.map_batches(
        lambda t: t.select(["conv_id", "role", "text"]), batch_format="pyarrow"
    )


SQL_PARTIAL_COALESCE = f"""
WITH {SQL_CHANGELOG.strip()},
partials AS (
  SELECT conv_id, turn_idx, lsn, op, role,
         CASE WHEN op = 5 AND lsn % 2 = 0 THEN NULL ELSE text END AS text,
         tool
  FROM changelog WHERE op <> 1
),
resolved AS (
  SELECT conv_id, turn_idx,
         first_value(role) OVER w AS role,
         first_value(text IGNORE NULLS) OVER w AS text,
         first_value(tool IGNORE NULLS) OVER w AS tool,
         row_number() OVER w AS rn
  FROM partials
  WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY lsn DESC
               ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
)
SELECT conv_id, turn_idx, role, text, tool FROM resolved WHERE rn = 1
"""


def q_partial_update_coalesce(sf_dir: str):
    """Reselect-columns analog: a partial-update stream (every even-LSN
    update omits ``text``) merged per column to the latest non-null value
    (Db2ReselectColumnsProcessor semantics, engine-side)."""
    from debezium_connector_db2_ray.stages.apply import coalesce_collapse

    def derive_partial(batch: pa.Table) -> pa.Table:
        t = derive_changelog(batch)
        t = t.filter(pc.not_equal(t["op"], OP_DELETE))
        lsn = t["commit_lsn_lo"].to_numpy(zero_copy_only=False)
        op = t["op"].to_numpy(zero_copy_only=False)
        null_text = (op == OP_UPDATE_SINGLE) & (lsn % 2 == 0)
        text = pc.if_else(
            pa.array(~null_text), t["text"].combine_chunks()
            if isinstance(t["text"], pa.ChunkedArray) else t["text"],
            pa.scalar(None, pa.string()),
        )
        return t.set_column(t.column_names.index("text"), "text", text)

    from debezium_connector_db2_ray.functions.exchange import (
        exchange,
        hash_part,
    )

    cl = _events(sf_dir).map_batches(derive_partial, batch_format="pyarrow")
    cols = ["conv_id", "turn_idx", "role", "text", "tool"]
    cs = changelog_schema()

    def merge(group: pa.Table) -> pa.Table:
        return coalesce_collapse(group).select(cols)

    return exchange(
        [cl], hash_part(["conv_id", "turn_idx"], NP), merge,
        pa.schema([(c, cs.field(c).type) for c in cols]), schemas=[cs],
    )


SQL_DECIMAL_CONVERTER = f"""
WITH {SQL_CHANGELOG.strip()},
amt AS (
  SELECT conv_id, turn_idx, lsn,
         printf('%d.%02d', (lsn % 100000) // 100, lsn % 100) AS raw
  FROM changelog
)
SELECT conv_id, turn_idx, lsn,
       CAST(CAST(raw AS DECIMAL(18,4)) AS VARCHAR) AS amount_precise,
       CAST(raw AS DOUBLE) AS amount_double,
       CAST(CAST(raw AS DECIMAL(18,4)) AS VARCHAR) AS amount_string
FROM amt
"""


def q_decimal_converter(sf_dir: str):
    """Converter-table trichotomy on a decimal-bearing payload
    (Db2ValueConverters.java:84-116): the same raw DECIMAL text converted
    under PRECISE (decimal128(18,4), scale-adjusted), DOUBLE (float64) and
    STRING (full-scale rendering) — all three oracle-checked against DuckDB
    CASTs."""
    from debezium_connector_db2_ray.converters import (
        DOUBLE,
        PRECISE,
        STRING,
        ColumnSpec,
        Db2ValueConverters,
    )

    col = ColumnSpec("amount", "DECIMAL", 18, 4)
    modes = {
        "amount_precise": Db2ValueConverters(PRECISE),
        "amount_double": Db2ValueConverters(DOUBLE),
        "amount_string": Db2ValueConverters(STRING),
    }

    def convert(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        lsn = cl["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = lsn % 100000
        raw = pa.array(
            np.char.add(
                np.char.add((cents // 100).astype(str), "."),
                np.char.zfill((cents % 100).astype(str), 2),
            ),
            pa.string(),
        )
        cols = {
            "conv_id": cl["conv_id"],
            "turn_idx": cl["turn_idx"],
            "lsn": pa.array(lsn, pa.int64()),
        }
        for out_col, vc in modes.items():
            v = vc.convert(raw, col)
            if pa.types.is_decimal(v.type):
                # render the PRECISE decimal at full scale for the compare —
                # DuckDB's client narrows DECIMAL to float64, so the exact
                # fixed-scale value is pinned via its canonical string form
                v = v.cast(pa.string())
            cols[out_col] = v
        return pa.table(cols)

    return _events(sf_dir).map_batches(convert, batch_format="pyarrow")


TX_GROUP = 5  # events per synthetic transaction for the tx-metadata feed

SQL_TRANSACTION_FEED = f"""
WITH {SQL_CHANGELOG.strip()},
txed AS (
  SELECT *,
         '00000000:00000000:' || printf('%016x', lsn // {TX_GROUP}) AS tx_id
  FROM changelog
),
data_rows AS (
  SELECT 'DATA' AS kind, tx_id,
         row_number() OVER (PARTITION BY tx_id ORDER BY lsn) AS total_order,
         CAST(NULL AS BIGINT) AS event_count, conv_id, turn_idx
  FROM txed
),
bounds AS (
  SELECT tx_id, count(*) AS n FROM txed GROUP BY tx_id
)
SELECT * FROM data_rows
UNION ALL
SELECT 'BEGIN', tx_id, NULL, NULL, NULL, NULL FROM bounds
UNION ALL
SELECT 'END', tx_id, NULL, n, NULL, NULL FROM bounds
"""


def q_transaction_feed(sf_dir: str):
    """A3 transaction metadata: BEGIN/data/END feed with per-tx event counts
    and total_order serials (TransactionMetadataIT.java:63-119). Synthetic
    transactions group {TX_GROUP} consecutive commits; the feed is computed
    tx-locally after a hash partition on tx id."""
    from debezium_connector_db2_ray.functions.exchange import (
        exchange,
        hash_part,
    )
    from debezium_connector_db2_ray.stages.transactions import transaction_feed

    def to_tx(batch: pa.Table) -> pa.Table:
        # group commits into transactions of TX_GROUP
        t = derive_changelog(batch)
        lsn = t["commit_lsn_lo"].to_numpy(zero_copy_only=False)
        return t.set_column(
            t.column_names.index("commit_lsn_lo"),
            "commit_lsn_lo",
            pa.array((lsn // TX_GROUP).astype(np.uint64), pa.uint64()),
        )

    cs = changelog_schema()
    return exchange(
        [_events(sf_dir).map_batches(to_tx, batch_format="pyarrow")],
        hash_part(["commit_lsn_lo"], NP), transaction_feed,
        transaction_feed(cs.empty_table()).schema, schemas=[cs],
    )


CDC_QUERIES: dict[str, Callable[[str], Any]] = {
    "cdc_apply_lww": q_apply_lww,
    "cdc_apply_combiner": q_apply_combiner,
    "cdc_snapshot_then_stream": q_snapshot_then_stream,
    "cdc_update_pairs": q_update_pairs,
    "cdc_classify_ops": q_classify_ops,
    "cdc_classify_multifile": q_classify_multifile,
    "cdc_max_lsn": q_max_lsn,
    "cdc_window_bounds": q_window_bounds,
    "cdc_lineage_counts": q_lineage_counts,
    "cdc_envelope_feed": q_envelope_feed,
    "cdc_tombstone_feed": q_tombstone_feed,
    "cdc_schema_evolution": q_schema_evolution,
    "cdc_table_routing": q_table_routing,
    "cdc_masked_columns": q_masked_columns,
    "cdc_cloudevents": q_cloudevents,
    "cdc_key_rewrite": q_key_rewrite,
    "cdc_transaction_feed": q_transaction_feed,
    "cdc_partial_update_coalesce": q_partial_update_coalesce,
    "cdc_source_struct": q_source_struct,
    "cdc_event_metadata": q_event_metadata,
    "cdc_decimal_converter": q_decimal_converter,
    "cdc_skipped_operations": q_skipped_operations,
}

CDC_ORACLES: dict[str, str] = {
    "cdc_apply_lww": SQL_FINAL_STATE,
    "cdc_apply_combiner": SQL_FINAL_STATE,
    "cdc_snapshot_then_stream": SQL_FINAL_STATE,
    "cdc_update_pairs": SQL_UPDATE_PAIRS,
    "cdc_classify_ops": SQL_CLASSIFY,
    "cdc_classify_multifile": SQL_CLASSIFY,
    "cdc_max_lsn": SQL_MAX_LSN,
    "cdc_window_bounds": SQL_WINDOW_BOUNDS,
    "cdc_lineage_counts": SQL_LINEAGE,
    "cdc_envelope_feed": SQL_ENVELOPE,
    "cdc_tombstone_feed": SQL_TOMBSTONES,
    "cdc_schema_evolution": SQL_SCHEMA_EVOLUTION,
    "cdc_table_routing": SQL_TABLE_ROUTING,
    "cdc_masked_columns": SQL_MASKING,
    "cdc_cloudevents": SQL_CLOUDEVENTS,
    "cdc_key_rewrite": SQL_KEY_REWRITE,
    "cdc_transaction_feed": SQL_TRANSACTION_FEED,
    "cdc_partial_update_coalesce": SQL_PARTIAL_COALESCE,
    "cdc_source_struct": SQL_SOURCE_STRUCT,
    "cdc_event_metadata": SQL_EVENT_METADATA,
    "cdc_decimal_converter": SQL_DECIMAL_CONVERTER,
    "cdc_skipped_operations": SQL_SKIPPED_OPS,
}


SQL_SCD2 = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
       lsn AS valid_from_lsn,
       lead(lsn) OVER (
         PARTITION BY conv_id, turn_idx ORDER BY lsn) AS valid_to_lsn,
       CAST(op AS BIGINT) AS op
FROM changelog
"""


def q_scd2_history(sf_dir: str):
    """SCD2 history table from the change stream: every version of every
    (conv_id, turn_idx) key with its validity interval — valid_from =
    its LSN, valid_to = the next version's LSN (NULL while current), the
    type-2 dimension shape warehouse consumers build from Debezium topics.
    ONE hash exchange on the key; the kernel computes all of a
    partition's LEADs with one sort + shifted-compare (segment ends NULL
    out vectorized)."""
    from debezium_connector_db2_ray.functions.relational import (
        _segment_starts,
        _window_exchange,
    )

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    proj = cl.map_batches(
        lambda t: pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"].cast(pa.int64()),
            "lsn": t["commit_lsn_lo"].cast(pa.int64()),
            "op": t["op"].cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )
    out_schema = pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int64()),
        ("valid_from_lsn", pa.int64()), ("valid_to_lsn", pa.int64()),
        ("op", pa.int64()),
    ])

    def kernel(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending"),
            ("lsn", "ascending"),
        ])
        t = t.take(order)
        starts = _segment_starts(t, ["conv_id", "turn_idx"])
        lsn = t["lsn"].to_numpy(zero_copy_only=False)
        n = len(lsn)
        nxt = np.empty(n, np.int64)
        nxt[:-1] = lsn[1:]
        nxt[-1] = 0
        last = np.zeros(n, bool)
        ends = np.append(starts[1:], n) - 1
        last[ends] = True
        return pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "valid_from_lsn": pa.array(lsn, pa.int64()),
            "valid_to_lsn": pc.if_else(
                pa.array(last), pa.scalar(None, pa.int64()),
                pa.array(nxt, pa.int64()),
            ),
            "op": t["op"],
        })

    return _window_exchange(
        proj, keys=["conv_id", "turn_idx"],
        cols=["conv_id", "turn_idx", "lsn", "op"],
        num_partitions=NP, kernel=kernel, out_schema=out_schema,
    )


CDC_QUERIES["cdc_scd2_history"] = q_scd2_history
CDC_ORACLES["cdc_scd2_history"] = SQL_SCD2


SQL_STATE_DIFF = f"""
WITH {SQL_CHANGELOG.strip()},
wm AS (
  SELECT CAST(max(lsn) // 3 AS BIGINT) AS a,
         CAST(2 * max(lsn) // 3 AS BIGINT) AS b
  FROM changelog
), agg AS (
  SELECT conv_id, turn_idx,
         coalesce(arg_max(op, lsn)
                  FILTER (WHERE lsn <= (SELECT a FROM wm)), 1) AS op_a,
         arg_max(op, lsn) AS op_b,
         count(*) FILTER (
           WHERE lsn > (SELECT a FROM wm)) AS n_win
  FROM changelog WHERE lsn <= (SELECT b FROM wm)
  GROUP BY conv_id, turn_idx
)
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
       CASE WHEN op_a <> 1 AND op_b <> 1 THEN 'updated'
            WHEN op_a = 1 AND op_b <> 1 THEN 'inserted'
            WHEN op_a <> 1 AND op_b = 1 THEN 'deleted'
            ELSE 'transient' END AS kind,
       CAST(n_win AS BIGINT) AS n_changes
FROM agg WHERE n_win > 0
"""


def q_state_diff(sf_dir: str):
    """Time-travel diff between two LSN watermarks (A = max/3, B =
    2*max/3): for every key touched in (A, B], whether it was inserted,
    updated, deleted, or transient (born and dead inside the window) —
    the incremental-consumer primitive ('what changed since my last
    sync'). The watermark-B predicate pushes into the parquet read; each
    batch folds per key to two argmax-encoded (lsn*8+op) ints and a
    window count, so the single exchange moves O(touched keys) partials;
    the kind decode is a map over the aggregate."""
    import pyarrow.dataset as pads

    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    mx = _max_event_id(sf_dir)
    a, b = mx // 3, (2 * mx) // 3
    cl = _events(sf_dir, pads.field("event_id") <= b).map_batches(
        derive_changelog, batch_format="pyarrow"
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int64()),
                "ea": pa.array([], pa.int64()),
                "eb": pa.array([], pa.int64()),
                "nw": pa.array([], pa.int64()),
            })
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        turn = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        lsn = t["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        op = t["op"].to_numpy(zero_copy_only=False).astype(np.int64)
        enc = lsn * 8 + op
        # batch-local group codes over (conv, turn)
        key = np.char.add(np.char.add(conv.astype(str), "\x1f"),
                          turn.astype(str))
        uk, inv = np.unique(key, return_inverse=True)
        first = np.zeros(len(uk), np.int64)
        first[inv[::-1]] = np.arange(len(key))[::-1]
        NEG = np.int64(-1)
        ea = np.full(len(uk), NEG)
        mask_a = lsn <= a
        if mask_a.any():
            np.maximum.at(ea, inv[mask_a], enc[mask_a])
        eb = np.full(len(uk), NEG)
        np.maximum.at(eb, inv, enc)
        nw = np.bincount(inv, weights=(lsn > a)).astype(np.int64)
        return pa.table({
            "conv_id": pa.array(conv[first], pa.string()),
            "turn_idx": pa.array(turn[first], pa.int64()),
            "ea": pa.array(ea, pa.int64()),
            "eb": pa.array(eb, pa.int64()),
            "nw": pa.array(nw, pa.int64()),
        })

    agg = grouped_aggregate(
        cl.map_batches(partial, batch_format="pyarrow"),
        keys=["conv_id", "turn_idx"],
        aggs={"ea": ("ea", "max"), "eb": ("eb", "max"),
              "nw": ("nw", "sum")},
        num_partitions=NP,
        schema=pa.schema([
            ("conv_id", pa.string()), ("turn_idx", pa.int64()),
            ("ea", pa.int64()), ("eb", pa.int64()), ("nw", pa.int64()),
        ]),
    )

    def decode(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["nw"], 0))
        ea = t["ea"].to_numpy(zero_copy_only=False)
        eb = t["eb"].to_numpy(zero_copy_only=False)
        # op 1 == delete; no-event-before encodes as -1 -> dead-before
        a_alive = (ea >= 0) & (ea % 8 != 1)
        b_alive = (eb >= 0) & (eb % 8 != 1)
        kind = np.where(
            a_alive & b_alive, "updated",
            np.where(~a_alive & b_alive, "inserted",
                     np.where(a_alive & ~b_alive, "deleted",
                              "transient")),
        )
        return pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "kind": pa.array(kind.astype(object), pa.string()),
            "n_changes": t["nw"],
        })

    return agg.map_batches(decode, batch_format="pyarrow")


CDC_QUERIES["cdc_state_diff"] = q_state_diff
CDC_ORACLES["cdc_state_diff"] = SQL_STATE_DIFF


SQL_CURATED_STATE = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
), state AS (
  SELECT conv_id, turn_idx, text
  FROM ranked WHERE rn = 1 AND op <> 1
), assembled AS (
  SELECT conv_id,
         CAST(count(*) AS BIGINT) AS n_turns,
         string_agg(text, ' ' ORDER BY turn_idx) AS full_text
  FROM state GROUP BY conv_id
)
SELECT conv_id, n_turns,
       CAST(length(full_text) AS BIGINT) AS n_chars,
       CAST(len(list_filter(string_split_regex(full_text, '\\s+'),
                            x -> x <> '')) AS BIGINT) AS n_tokens
FROM assembled
WHERE n_turns >= 3
"""


def q_curated_state(sf_dir: str):
    """CDC x curation fusion — the engine's two halves in one pipeline:
    LWW-replay the change stream to the final per-turn state (the CDC
    core), assemble each surviving conversation in turn order (one
    string-keyed exchange, vectorized binary_join), and emit curation
    stats (turn count, chars, RE2-\\S+ tokens) for conversations with >= 3
    live turns — the transcript-lake handoff from ingest to
    training-data selection. The replay and the assembly SHARE the
    conv_id partition key."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_string_agg,
    )
    from debezium_connector_db2_ray.functions.text import TOKEN_PATTERN
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    import re

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    state = apply_dataset(cl, num_partitions=NP).map_batches(
        lambda t: t.select(["conv_id", "turn_idx", "text"]),
        batch_format="pyarrow",
    )
    assembled = grouped_string_agg(
        state, keys=["conv_id"],
        order_by=[("turn_idx", "ascending")],
        col="text", sep=" ", out_col="full_text",
    )
    token_re = re.compile(TOKEN_PATTERN)

    def stats(t: pa.Table) -> pa.Table:
        s = t["full_text"].to_pandas().fillna("")
        return pa.table({
            "conv_id": t["conv_id"],
            "full_text": t["full_text"],
            "n_chars": pa.array(
                s.str.len().astype("int64"), pa.int64()
            ),
            "n_tokens": pa.array(
                s.str.count(token_re).astype("int64"), pa.int64()
            ),
        })

    # per-conv turn count rides the same exchange key: a second grouped
    # pass over state, attached back through the string-keyed exchange
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    n_turns = grouped_aggregate(
        state.map_batches(
            lambda t: pa.table({
                "conv_id": t["conv_id"],
                "one": pa.array(np.ones(t.num_rows, np.int64)),
            }),
            batch_format="pyarrow",
        ),
        keys=["conv_id"], aggs={"n_turns": ("one", "sum")},
        num_partitions=NP,
        schema=pa.schema([
            ("conv_id", pa.string()), ("one", pa.int64()),
        ]),
    )
    enriched = assembled.map_batches(stats, batch_format="pyarrow")
    # conv_id is a string key: route the join through the string-keyed
    # attach (hash exchange + segment fill), not the int-keyed join
    from debezium_connector_db2_ray.functions.text import (
        attach_grouped_count,
    )

    out = attach_grouped_count(
        enriched, n_turns, key_col="conv_id", count_col="n_turns",
        out_col="n_turns",
        rows_schema=pa.schema([
            ("conv_id", pa.string()), ("full_text", pa.string()),
            ("n_chars", pa.int64()), ("n_tokens", pa.int64()),
        ]),
    )
    return out.filter(expr="n_turns >= 3").map_batches(
        lambda t: t.select(["conv_id", "n_turns", "n_chars", "n_tokens"]),
        batch_format="pyarrow",
    )


CDC_QUERIES["cdc_curated_state"] = q_curated_state
CDC_ORACLES["cdc_curated_state"] = SQL_CURATED_STATE


# ---------------------------------------------------------------------------
# ExtractNewRecordState (event-flattening "unwrap" SMT) — the most common
# Debezium sink topology: envelopes collapsed to flat rows with __op/__lsn/
# __deleted metadata, deletes rewritten rather than dropped.
# ---------------------------------------------------------------------------

SQL_UNWRAP = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, turn_idx, text, role,
       CASE WHEN op = 1 THEN 'd' WHEN op = 2 THEN 'c' ELSE 'u' END AS "__op",
       lsn AS "__lsn",
       CASE WHEN op = 1 THEN 'true' ELSE 'false' END AS "__deleted"
FROM changelog
"""


def q_unwrap_flatten(sf_dir: str):
    """Event-flattening SMT parity (Debezium ExtractNewRecordState,
    delete.handling.mode=rewrite): envelopes collapse to one flat row per
    event — AFTER image promoted to top-level columns, deletes kept with
    the BEFORE image and __deleted='true'. MAP-ONLY: pair expansion,
    envelope zip and the flatten are all batch-local projections, so the
    whole chain streams with no exchange at any scale."""
    from debezium_connector_db2_ray.stages.envelope import (
        to_envelopes,
        unwrap_new_record_state,
    )

    def fn(batch: pa.Table) -> pa.Table:
        env = to_envelopes(
            expand_update_pairs(batch), image_columns=("text", "role")
        )
        return unwrap_new_record_state(env, image_columns=("text", "role"))

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_unwrap_flatten"] = q_unwrap_flatten
CDC_ORACLES["cdc_unwrap_flatten"] = SQL_UNWRAP


# ---------------------------------------------------------------------------
# Outbox event router SMT — transactional-outbox pattern: INSERT events of
# the outbox table re-keyed by aggregate id and routed per aggregate type.
# ---------------------------------------------------------------------------

SQL_OUTBOX = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT 'outbox.event.' || role AS topic,
       conv_id AS event_key,
       role AS event_type,
       text AS payload,
       lsn AS event_id
FROM changelog WHERE op = 2
"""


def q_outbox_route(sf_dir: str):
    """Outbox event router SMT parity (Debezium outbox-event-router over
    the transactional-outbox pattern): only INSERTs of the outbox table
    become events; each is re-keyed by its aggregate id and routed to
    'outbox.event.<aggregate_type>' with the payload verbatim and the
    commit LSN as the idempotency event id. MAP-ONLY, no exchange."""
    from debezium_connector_db2_ray.stages.envelope import (
        outbox_route,
        to_envelopes,
    )

    def fn(batch: pa.Table) -> pa.Table:
        env = to_envelopes(
            expand_update_pairs(batch), image_columns=("text", "role")
        )
        return outbox_route(
            env,
            aggregate_type_col="role",
            aggregate_id_col="conv_id",
            payload_col="text",
        )

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_outbox_route"] = q_outbox_route
CDC_ORACLES["cdc_outbox_route"] = SQL_OUTBOX


# ---------------------------------------------------------------------------
# Anti-entropy state checksum: per-bucket order-independent checksums of the
# replayed final state, the primitive replica-divergence detection runs to
# find WHICH key range drifted without shipping any rows (a Merkle-leaf
# level; reference users do this with external scripts over Kafka compacted
# topics — here a first-class operator over the apply output).
# ---------------------------------------------------------------------------

_CK_MOD = 1_000_000_007
_CK_BUCKETS = 16

SQL_STATE_CHECKSUM = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role, text, tool, ts
  FROM ranked WHERE rn = 1 AND op <> 1
),
h AS (
  SELECT ('0x' || substr(md5(
            conv_id || '|' || CAST(turn_idx AS VARCHAR) || '|'
            || coalesce(role, '') || '|' || coalesce(text, '') || '|'
            || coalesce(tool, '') || '|'
            || CAST(epoch_us(ts) AS VARCHAR)), 1, 10))::BIGINT AS hv
  FROM state
)
SELECT hv % {_CK_BUCKETS} AS bucket,
       CAST(sum(hv % {_CK_MOD}) % {_CK_MOD} AS BIGINT) AS checksum,
       CAST(count(*) AS BIGINT) AS n_rows
FROM h GROUP BY 1
"""


def q_state_checksum(sf_dir: str):
    """Replay to final state, then fold every row into one of
    {_CK_BUCKETS} bucket checksums: canonical 'k|v' string per row
    (vectorized Arrow join), md5-40 per row (md5 is the cross-engine
    contract, like cdc_masked_columns — one C call per row), then a
    per-batch np.bincount partial so the exchange carries 16 rows per
    batch regardless of state size. sum-mod is commutative, so shuffled
    delivery, partitioning and batch boundaries cannot change the answer —
    two replicas compare 16 (bucket, checksum, n) rows to localize drift.
    Scale note: a production run swaps md5 for the house xxhash64 (no SQL
    twin) and raises the bucket count to the partition count."""
    import hashlib

    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    out = apply_dataset(cl, num_partitions=NP)

    partial_schema = pa.schema([
        ("bucket", pa.int64()), ("checksum", pa.int64()),
        ("n_rows", pa.int64()),
    ])

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return partial_schema.empty_table()
        s = pc.binary_join_element_wise(
            t["conv_id"].cast(pa.string()),
            t["turn_idx"].cast(pa.string()),
            pc.fill_null(t["role"], ""),
            pc.fill_null(t["text"], ""),
            pc.fill_null(t["tool"], ""),
            t["ts"].cast(pa.int64()).cast(pa.string()),
            "|",
        )
        hv = np.fromiter(
            (int(hashlib.md5(v.encode()).hexdigest()[:10], 16)
             for v in s.to_pylist()),
            dtype=np.int64, count=t.num_rows,
        )
        bucket = hv % _CK_BUCKETS
        # bincount weights are float64: values < 1e9 and per-batch sums
        # < 2^53, so the partial stays integer-exact
        sums = np.bincount(
            bucket, weights=(hv % _CK_MOD).astype(np.float64),
            minlength=_CK_BUCKETS,
        ).astype(np.int64)
        cnts = np.bincount(bucket, minlength=_CK_BUCKETS).astype(np.int64)
        nz = cnts > 0
        return pa.table({
            "bucket": pa.array(np.flatnonzero(nz), pa.int64()),
            "checksum": pa.array(sums[nz], pa.int64()),
            "n_rows": pa.array(cnts[nz], pa.int64()),
        })

    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    agg = grouped_aggregate(
        out.map_batches(fold, batch_format="pyarrow"),
        keys=["bucket"],
        aggs={"checksum": ("checksum", "sum"), "n_rows": ("n_rows", "sum")},
        num_partitions=2, schema=partial_schema,
    )

    def final_mod(t: pa.Table) -> pa.Table:
        ck = t["checksum"].to_numpy(zero_copy_only=False) % _CK_MOD
        return pa.table({
            "bucket": t["bucket"],
            "checksum": pa.array(ck, pa.int64()),
            "n_rows": t["n_rows"],
        })

    return agg.map_batches(final_mod, batch_format="pyarrow")


CDC_QUERIES["cdc_state_checksum"] = q_state_checksum
CDC_ORACLES["cdc_state_checksum"] = SQL_STATE_CHECKSUM


# ---------------------------------------------------------------------------
# ExtractChangedRecordState SMT — changed-field headers from before/after
# image diffs, over a field-level-update stream derived so each image
# column changes on its own modular schedule (text unless ev%4=0, role when
# ev%3=0, tool NULL->value when ev%5=0 — exercising the NULL-safe compare).
# ---------------------------------------------------------------------------

SQL_CHANGED_COLUMNS = f"""
WITH {SQL_CHANGELOG.strip()},
u AS (
  SELECT conv_id, turn_idx, lsn, role, text, tool,
         CAST(lsn AS BIGINT) AS ev
  FROM changelog WHERE op = 5
), imgs AS (
  SELECT conv_id, turn_idx, lsn,
         CASE WHEN ev % 4 = 0 THEN text ELSE 'old:' || text END AS b_text,
         CASE WHEN ev % 3 = 0 THEN role || '_v' ELSE role END AS b_role,
         CASE WHEN ev % 5 = 0 THEN NULL ELSE tool END AS b_tool,
         text, role, tool
  FROM u
)
SELECT conv_id, turn_idx, CAST(lsn AS BIGINT) AS lsn,
       concat_ws(',',
         CASE WHEN b_text IS DISTINCT FROM text THEN 'text' END,
         CASE WHEN b_role IS DISTINCT FROM role THEN 'role' END,
         CASE WHEN b_tool IS DISTINCT FROM tool THEN 'tool' END
       ) AS changed
FROM imgs
"""


def q_changed_columns(sf_dir: str):
    """Changed-field SMT parity (Debezium ExtractChangedRecordState):
    update envelopes diffed column by column, NULL-safe, into a
    comma-joined changed-field header. The fixture derives a field-level
    update stream where each image column flips on its own modular
    schedule, so the header takes every subset value including the empty
    string (ev % 60 == 0: nothing changed) and the NULL->value tool
    transition proves IS DISTINCT FROM semantics. MAP-ONLY — image
    derivation, diff and header build are batch-local projections."""
    from debezium_connector_db2_ray.stages.envelope import (
        changed_record_state,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        ups = cl.filter(pc.equal(cl["op"], OP_UPDATE_SINGLE))
        ev = ups["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        text, role, tool = ups["text"], ups["role"], ups["tool"]
        env = pa.table({
            "op_char": pa.array(np.full(len(ev), "u"), pa.string()),
            "conv_id": ups["conv_id"],
            "turn_idx": ups["turn_idx"],
            "lsn": pa.array(ev, pa.int64()),
            "before_text": pc.if_else(
                pa.array(ev % 4 == 0), text,
                pc.binary_join_element_wise("old:", text, ""),
            ),
            "after_text": text,
            "before_role": pc.if_else(
                pa.array(ev % 3 == 0),
                pc.binary_join_element_wise(role, "_v", ""),
                role,
            ),
            "after_role": role,
            "before_tool": pc.if_else(
                pa.array(ev % 5 == 0), pa.scalar(None, pa.string()), tool
            ),
            "after_tool": tool,
        })
        out = changed_record_state(
            env, image_columns=("text", "role", "tool"), out_col="changed"
        )
        return out.select(["conv_id", "turn_idx", "lsn", "changed"])

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_changed_columns"] = q_changed_columns
CDC_ORACLES["cdc_changed_columns"] = SQL_CHANGED_COLUMNS


# ---------------------------------------------------------------------------
# TimezoneConverter SMT — fixed-offset temporal rewrite (converted.timezone).
# ---------------------------------------------------------------------------

SQL_TZ_CONVERT = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, turn_idx, CAST(lsn AS BIGINT) AS lsn, ts,
       ts + INTERVAL 330 MINUTE AS ts_local
FROM changelog
"""


def q_timezone_convert(sf_dir: str):
    """TimezoneConverter SMT parity: every change event's timestamp
    re-expressed at a fixed target offset (+05:30 here — a non-hour offset
    exercises minute arithmetic) next to the original. MAP-ONLY: one Arrow
    add-duration kernel per batch."""
    from debezium_connector_db2_ray.stages.envelope import timezone_convert

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        out = timezone_convert(cl, ts_columns=("ts",), offset_minutes=330)
        return pa.table({
            "conv_id": out["conv_id"],
            "turn_idx": out["turn_idx"],
            "lsn": out["commit_lsn_lo"].cast(pa.int64()),
            "ts": out["ts"],
            "ts_local": out["ts_local"],
        })

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_timezone_convert"] = q_timezone_convert
CDC_ORACLES["cdc_timezone_convert"] = SQL_TZ_CONVERT


# ---------------------------------------------------------------------------
# ContentBasedRouter SMT — payload-value -> topic map, NULL keeps default.
# ---------------------------------------------------------------------------

SQL_CONTENT_ROUTER = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, CAST(lsn AS BIGINT) AS lsn,
       CASE role WHEN 'purchase' THEN 'priority.updates'
                 WHEN 'error' THEN 'dlq.errors'
                 ELSE 'cdc.default' END AS topic
FROM changelog
"""


def q_content_router(sf_dir: str):
    """ContentBasedRouter SMT parity: each event re-routed by a payload
    field's value (updates to a priority topic, deletes to a DLQ,
    everything else to the connector default — the null-expression-keeps-
    original-topic rule). MAP-ONLY: dictionary-encode + O(distinct) route
    lookup per batch, no exchange."""
    from debezium_connector_db2_ray.stages.envelope import (
        content_based_route,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        out = content_based_route(
            cl, column="role",
            routes={"purchase": "priority.updates", "error": "dlq.errors"},
            default_topic="cdc.default",
        )
        return pa.table({
            "conv_id": out["conv_id"],
            "lsn": out["commit_lsn_lo"].cast(pa.int64()),
            "topic": out["topic"],
        })

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_content_router"] = q_content_router
CDC_ORACLES["cdc_content_router"] = SQL_CONTENT_ROUTER


# ---------------------------------------------------------------------------
# ByLogicalTableRouter SMT — sharded physical topics folded to one logical
# topic, physical identity kept as the key-disambiguation field.
# ---------------------------------------------------------------------------

SQL_LOGICAL_ROUTER = f"""
WITH {SQL_CHANGELOG.strip()},
phys AS (
  SELECT conv_id, CAST(lsn AS BIGINT) AS lsn,
         'cdc.DB2INST1.CONV_' || CAST(turn_idx % 4 AS VARCHAR) AS ptopic
  FROM changelog
)
SELECT conv_id, lsn,
       regexp_replace(ptopic, '_[0-9]+$', '') AS topic,
       ptopic AS "__dbz__physicalTableIdentifier"
FROM phys
"""


def q_logical_router(sf_dir: str):
    """ByLogicalTableRouter SMT parity: four physical shard topics
    (CONV_0..CONV_3) rewritten by regex to the single logical CONV topic,
    with the physical topic preserved as the
    __dbz__physicalTableIdentifier key field the upstream transform adds.
    MAP-ONLY: one RE2 replace kernel per batch."""
    from debezium_connector_db2_ray.stages.envelope import (
        logical_table_route,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        ti = cl["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        shard = pc.cast(pa.array(ti % 4, pa.int64()), pa.string())
        ptopic = pc.binary_join_element_wise(
            "cdc.DB2INST1.CONV_", shard, ""
        )
        routed = logical_table_route(
            ptopic, pattern="_[0-9]+$", replacement=""
        )
        return pa.table({
            "conv_id": cl["conv_id"],
            "lsn": cl["commit_lsn_lo"].cast(pa.int64()),
            "topic": routed["topic"],
            "__dbz__physicalTableIdentifier":
                routed["__dbz__physicalTableIdentifier"],
        })

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_logical_router"] = q_logical_router
CDC_ORACLES["cdc_logical_router"] = SQL_LOGICAL_ROUTER


# ---------------------------------------------------------------------------
# PartitionRouting SMT — payload-field hash -> target partition.
# ---------------------------------------------------------------------------

SQL_PARTITION_ROUTING = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, CAST(lsn AS BIGINT) AS lsn,
       CAST(('0x' || substr(md5(conv_id), 1, 15)) AS BIGINT) % 12
           AS partition
FROM changelog
"""


def q_partition_routing(sf_dir: str):
    """PartitionRouting SMT parity: target partition =
    md5(payload fields)-top-60-bits mod partition.topic.num (12), so one
    entity's events always land in one partition. md5 is the cross-engine
    semantic (DuckDB mirrors it exactly); production swaps the house
    xxhash64 when no SQL twin is needed. MAP-ONLY."""
    from debezium_connector_db2_ray.stages.envelope import partition_route

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        out = partition_route(
            cl, payload_fields=("conv_id",), num_partitions=12
        )
        return pa.table({
            "conv_id": out["conv_id"],
            "lsn": out["commit_lsn_lo"].cast(pa.int64()),
            "partition": out["partition"],
        })

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_partition_routing"] = q_partition_routing
CDC_ORACLES["cdc_partition_routing"] = SQL_PARTITION_ROUTING


# ---------------------------------------------------------------------------
# Incremental-snapshot chunk sizing: the key-space histogram the planner
# reads to size PK-range chunks (conversations and events per hash bucket).
# ---------------------------------------------------------------------------

SQL_KEY_HISTOGRAM = """
WITH c AS (
  SELECT 'conv_' || CAST(user_id AS VARCHAR) AS conv_id,
         CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
)
SELECT CAST(('0x' || substr(md5(conv_id), 1, 15)) AS BIGINT) % 64
           AS bucket,
       CAST(count(*) AS BIGINT) AS n_convs,
       CAST(sum(n) AS BIGINT) AS n_events
FROM c GROUP BY 1
"""


def q_key_histogram(sf_dir: str):
    """Key-space histogram for incremental-snapshot chunk planning
    (SURVEY §2.9: the chunked backfill pages the primary-key space; this
    is the distribution it sizes chunks from — the reference pages blindly
    with a fixed row LIMIT, Db2ChangeEventSourceFactory.java:71-91, so a
    skew-aware planner is our scale extension). Shape: per-batch per-conv
    count combiner, ONE hash exchange folds exact per-conv totals, then
    md5-60bit bucket assignment per DISTINCT conv (hashing touches keys,
    never events) and a 64-row final fold."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    conv_schema = pa.schema([("conv_id", pa.string()), ("n", pa.int64())])

    def pre(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        g = cl.select(["conv_id"]).group_by(["conv_id"]).aggregate(
            [("conv_id", "count")]
        )
        return pa.table({
            "conv_id": g["conv_id"],
            "n": g["conv_id_count"].cast(pa.int64()),
        })

    convs = grouped_aggregate(
        _events(sf_dir).map_batches(pre, batch_format="pyarrow"),
        keys=["conv_id"], aggs={"n": ("n", "sum")}, schema=conv_schema,
    )

    bucket_schema = pa.schema([
        ("bucket", pa.int64()), ("n_convs", pa.int64()),
        ("n_events", pa.int64()),
    ])

    def to_buckets(t: pa.Table) -> pa.Table:
        import hashlib

        if t.num_rows == 0:
            return bucket_schema.empty_table()
        ids = t["conv_id"].to_pylist()
        b = np.fromiter(
            (int(hashlib.md5(v.encode()).hexdigest()[:15], 16) % 64
             for v in ids),
            dtype=np.int64, count=len(ids),
        )
        g = pa.table({
            "bucket": pa.array(b, pa.int64()),
            "n_convs": pa.array(np.ones(len(b), np.int64)),
            "n_events": t["n"],
        }).group_by(["bucket"]).aggregate(
            [("n_convs", "sum"), ("n_events", "sum")]
        )
        return pa.table({
            "bucket": g["bucket"], "n_convs": g["n_convs_sum"],
            "n_events": g["n_events_sum"],
        })

    return grouped_aggregate(
        convs.map_batches(to_buckets, batch_format="pyarrow"),
        keys=["bucket"],
        aggs={"n_convs": ("n_convs", "sum"),
              "n_events": ("n_events", "sum")},
        num_partitions=2, schema=bucket_schema,
    )


CDC_QUERIES["cdc_key_histogram"] = q_key_histogram
CDC_ORACLES["cdc_key_histogram"] = SQL_KEY_HISTOGRAM


# ---------------------------------------------------------------------------
# Kafka-Connect core SMT chain — ReplaceField -> InsertField -> Cast, the
# stock `transforms=...` triple every Debezium deployment configures.
# ---------------------------------------------------------------------------

SQL_SMT_CHAIN = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id,
       CAST(turn_idx AS BIGINT) AS turn,
       CAST(lsn AS BIGINT) AS lsn,
       CAST(op AS VARCHAR) AS op,
       'db2-ray' AS connector,
       role AS routed_by,
       CAST(trunc(CAST(lsn AS DOUBLE) / 7.0) AS INTEGER) AS shard_hint
FROM changelog
"""


def q_smt_chain(sf_dir: str):
    """Kafka-Connect SMT chain parity (the stock ReplaceField ->
    InsertField -> Cast triple, applied in config order exactly like
    `transforms=replace,insert,cast`): ReplaceField drops the image/ts
    payload and renames turn_idx->turn, InsertField adds the static
    connector tag plus a metadata copy of the routing field, Cast widens
    turn to int64, renders op as a string, and truncates a derived double
    toward zero into int32 — the Java (int) cast semantic, NOT rounding
    (lsn/7.0 exercises every remainder class). MAP-ONLY: three chained
    columnar projections per batch, no exchange at any scale."""
    from debezium_connector_db2_ray.stages.envelope import (
        cast_fields,
        insert_fields,
        replace_fields,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        env = pa.table({
            "conv_id": cl["conv_id"],
            "turn_idx": cl["turn_idx"],
            "lsn": cl["commit_lsn_lo"].cast(pa.int64()),
            "op": cl["op"],
            "role": cl["role"],
            "text": cl["text"],
            "ts": cl["ts"],
        })
        env = env.append_column(
            "shard_hint",
            pc.divide(env["lsn"].cast(pa.float64()), pa.scalar(7.0)),
        )
        out = replace_fields(
            env, renames={"turn_idx": "turn"}, exclude=("text", "ts"),
        )
        out = insert_fields(
            out, static={"connector": "db2-ray"}, copies={"routed_by": "role"},
        )
        out = cast_fields(
            out, spec={"turn": "int64", "op": "string",
                       "shard_hint": "int32"},
        )
        return out.select([
            "conv_id", "turn", "lsn", "op", "connector", "routed_by",
            "shard_hint",
        ])

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_smt_chain"] = q_smt_chain
CDC_ORACLES["cdc_smt_chain"] = SQL_SMT_CHAIN


# ---------------------------------------------------------------------------
# TimestampConverter SMT + time.precision.mode=connect temporal surface.
# ---------------------------------------------------------------------------

SQL_TS_CONVERTER = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, CAST(lsn AS BIGINT) AS lsn,
       epoch_ms(ts) AS ts_unix_ms,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts_str,
       date_trunc('day', ts) AS ts_day
FROM changelog
"""


def q_timestamp_converter(sf_dir: str):
    """TimestampConverter SMT parity (Kafka Connect's public transform,
    plus the reference's `time.precision.mode=connect` millisecond
    truncation — Db2ConnectorConfig temporal defaults): the event
    timestamp re-represented as Connect's epoch-ms integer (microseconds
    TRUNCATE, never round), a SimpleDateFormat-style string, and a
    day-truncated (midnight) timestamp field. MAP-ONLY: three Arrow temporal kernels per
    batch, no exchange."""
    from debezium_connector_db2_ray.stages.envelope import convert_timestamp

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        env = pa.table({
            "conv_id": cl["conv_id"],
            "lsn": cl["commit_lsn_lo"].cast(pa.int64()),
            "ts": cl["ts"],
        })
        env = convert_timestamp(
            env, column="ts", target="unix", out_col="ts_unix_ms"
        )
        env = convert_timestamp(
            env, column="ts", target="string",
            fmt="%Y-%m-%d %H:%M:%S", out_col="ts_str",
        )
        ts = env["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        env = env.append_column(
            "ts_day", pc.floor_temporal(ts, unit="day")
        )
        return env.select(
            ["conv_id", "lsn", "ts_unix_ms", "ts_str", "ts_day"]
        )

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_timestamp_converter"] = q_timestamp_converter
CDC_ORACLES["cdc_timestamp_converter"] = SQL_TS_CONVERTER


# ---------------------------------------------------------------------------
# Flatten SMT — Debezium envelope struct -> delimiter-joined flat columns.
# ---------------------------------------------------------------------------

SQL_STRUCT_FLATTEN = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT 'db2' AS source_connector,
       'TESTDB' AS source_db,
       'DB2INST1' AS source_schema,
       'CONVERSATIONS' AS source_table,
       CAST(lsn AS BIGINT) AS source_lsn,
       CASE op WHEN 1 THEN 'd' WHEN 5 THEN 'u' ELSE 'c' END AS op,
       conv_id AS after_conv_id,
       turn_idx AS after_turn_idx,
       text AS after_text
FROM changelog
"""


def q_struct_flatten(sf_dir: str):
    """Flatten SMT parity (Kafka Connect's public ``Flatten$Value`` with
    `delimiter=_`, the standard step before sinking a Debezium envelope to
    a flat columnar store): the envelope is built as REAL nested Arrow
    structs — source{connector,db,schema,table,lsn} and
    after{conv_id,turn_idx,text} — then flattened recursively to
    parent_child columns. Zero-copy both ways: struct children are
    reference slices in Arrow, so neither the nest nor the flatten copies
    payload bytes. MAP-ONLY."""
    from debezium_connector_db2_ray.stages.envelope import flatten_struct

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        n = cl.num_rows
        lsn = cl["commit_lsn_lo"].cast(pa.int64())
        if isinstance(lsn, pa.ChunkedArray):
            lsn = lsn.combine_chunks()
        op = cl["op"].to_numpy(zero_copy_only=False)
        opc = np.where(op == 1, "d", np.where(op == 5, "u", "c"))

        def const(v: str) -> pa.Array:
            return pa.array(np.full(n, v, dtype=object), pa.string())

        source = pa.StructArray.from_arrays(
            [const("db2"), const("TESTDB"), const("DB2INST1"),
             const("CONVERSATIONS"), lsn],
            names=["connector", "db", "schema", "table", "lsn"],
        )
        conv = cl["conv_id"]
        ti = cl["turn_idx"]
        txt = cl["text"]
        after = pa.StructArray.from_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in (conv, ti, txt)],
            names=["conv_id", "turn_idx", "text"],
        )
        env = pa.table({
            "source": source,
            "op": pa.array(opc, pa.string()),
            "after": after,
        })
        return flatten_struct(env, delimiter="_")

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_struct_flatten"] = q_struct_flatten
CDC_ORACLES["cdc_struct_flatten"] = SQL_STRUCT_FLATTEN


# ---------------------------------------------------------------------------
# binary.handling.mode — BLOB payloads as bytes / hex / base64.
# ---------------------------------------------------------------------------

SQL_BINARY_MODE = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, CAST(lsn AS BIGINT) AS lsn,
       lower(hex(encode(text))) AS payload_hex,
       to_base64(encode(text)) AS payload_b64,
       octet_length(encode(text)) AS payload_len
FROM changelog
"""


def q_binary_mode(sf_dir: str):
    """binary.handling.mode parity (reference
    Db2ConnectorConfig.BINARY_HANDLING_MODE, the inherited
    RelationalDatabaseConnectorConfig option): a BLOB payload column
    emitted under all three wire modes — raw bytes (here surfaced as the
    byte length so the row stays hashable), lowercase hex, and padded
    base64. Vectorized: polars binary-encode kernels, one pass per mode,
    MAP-ONLY, no Python per-row loop."""
    from debezium_connector_db2_ray.stages.envelope import binary_encode

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        txt = cl["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        env = pa.table({
            "conv_id": cl["conv_id"],
            "lsn": cl["commit_lsn_lo"].cast(pa.int64()),
            "blob": txt.cast(pa.binary()),
        })
        env = binary_encode(env, column="blob", mode="hex",
                            out_col="payload_hex")
        env = binary_encode(env, column="blob", mode="base64",
                            out_col="payload_b64")
        env = env.append_column(
            "payload_len", pc.binary_length(env["blob"]).cast(pa.int64())
        )
        return env.select(
            ["conv_id", "lsn", "payload_hex", "payload_b64", "payload_len"]
        )

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_binary_mode"] = q_binary_mode
CDC_ORACLES["cdc_binary_mode"] = SQL_BINARY_MODE


# ---------------------------------------------------------------------------
# event.processing.failure.handling.mode — poison events skipped, counted.
# ---------------------------------------------------------------------------

SQL_FAILURE_MODE = f"""
WITH {SQL_CHANGELOG.strip()},
poisoned AS (
  SELECT CASE WHEN lsn % 89 = 0 THEN NULL ELSE conv_id END AS conv_id,
         turn_idx,
         CAST(lsn AS BIGINT) AS lsn,
         CASE WHEN lsn % 97 = 0 THEN 9 ELSE op END AS op
  FROM changelog
)
SELECT conv_id, turn_idx, lsn, op FROM poisoned
WHERE op IN (1, 2, 5) AND conv_id IS NOT NULL
"""


def q_failure_mode(sf_dir: str):
    """event.processing.failure.handling.mode parity (reference
    CommonConnectorConfig, default `fail`): the stream is poisoned on two
    deterministic schedules — unknown opcode 9 every 97th LSN, NULL key
    every 89th — and processed under `skip`, which drops exactly the
    malformed rows and keeps counting. `fail` raising on the first poison
    event and `warn` returning the per-batch drop count are pinned by
    pytest; the gate row proves the skip filter's NULL-safe mask against
    SQL. MAP-ONLY — one vectorized validity mask per batch."""
    from debezium_connector_db2_ray.stages.envelope import (
        handle_event_errors,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        ev = cl["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        conv = cl["conv_id"]
        if isinstance(conv, pa.ChunkedArray):
            conv = conv.combine_chunks()
        op = cl["op"].to_numpy(zero_copy_only=False)
        env = pa.table({
            "conv_id": pc.if_else(
                pa.array(ev % 89 == 0), pa.scalar(None, pa.string()), conv
            ),
            "turn_idx": cl["turn_idx"],
            "lsn": pa.array(ev, pa.int64()),
            "op": pa.array(
                np.where(ev % 97 == 0, np.int8(9), op), pa.int8()
            ),
        })
        kept, _n_bad = handle_event_errors(
            env, mode="skip", valid_ops=(1, 2, 5),
            key_columns=("conv_id",),
        )
        return kept.set_column(
            kept.column_names.index("op"), "op",
            kept["op"].cast(pa.int32()),
        )

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_failure_mode"] = q_failure_mode
CDC_ORACLES["cdc_failure_mode"] = SQL_FAILURE_MODE


# ---------------------------------------------------------------------------
# column.include.list + schema.name.adjustment.mode=avro.
# ---------------------------------------------------------------------------

SQL_COLUMN_FILTER_AVRO = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, turn_idx, CAST(lsn AS BIGINT) AS lsn, text,
       regexp_replace(
         CASE WHEN lsn % 2 = 0
              THEN 'cdc.MY-DB.conv#' || CAST(turn_idx AS VARCHAR)
              ELSE '9lead.té©st.' || role END,
         '[^A-Za-z0-9_]', '_', 'g') AS raw_sanitized,
       CASE WHEN regexp_matches(
              regexp_replace(
                CASE WHEN lsn % 2 = 0
                     THEN 'cdc.MY-DB.conv#' || CAST(turn_idx AS VARCHAR)
                     ELSE '9lead.té©st.' || role END,
                '[^A-Za-z0-9_]', '_', 'g'), '^[0-9]')
            THEN '_' || regexp_replace(
              CASE WHEN lsn % 2 = 0
                   THEN 'cdc.MY-DB.conv#' || CAST(turn_idx AS VARCHAR)
                   ELSE '9lead.té©st.' || role END,
              '[^A-Za-z0-9_]', '_', 'g')
            ELSE regexp_replace(
              CASE WHEN lsn % 2 = 0
                   THEN 'cdc.MY-DB.conv#' || CAST(turn_idx AS VARCHAR)
                   ELSE '9lead.té©st.' || role END,
              '[^A-Za-z0-9_]', '_', 'g') END AS avro_name
FROM changelog
"""


def q_column_filter_avro(sf_dir: str):
    """column.include.list + schema.name.adjustment.mode=avro parity:
    the payload projects through an include regex (keys always survive —
    the reference forbids filtering key columns away), and the routed
    topic name sanitizes under the Avro name rule — non-[A-Za-z0-9_]
    chars to '_', leading digit prefixed (the fixture alternates a
    dotted/dashed topic with one that starts with a digit AND carries
    multi-byte chars, so the prefix branch and the non-ASCII class both
    exercise). MAP-ONLY: one projection + two RE2 kernels per batch."""
    from debezium_connector_db2_ray.stages.envelope import (
        avro_sanitize_names,
        column_filter,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        ev = cl["commit_lsn_lo"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ti = pc.cast(cl["turn_idx"], pa.string())
        role = cl["role"]
        if isinstance(role, pa.ChunkedArray):
            role = role.combine_chunks()
        if isinstance(ti, pa.ChunkedArray):
            ti = ti.combine_chunks()
        topic = pc.if_else(
            pa.array(ev % 2 == 0),
            pc.binary_join_element_wise("cdc.MY-DB.conv#", ti, ""),
            pc.binary_join_element_wise("9lead.té©st.", role, ""),
        )
        env = pa.table({
            "conv_id": cl["conv_id"],
            "turn_idx": cl["turn_idx"],
            "lsn": pa.array(ev, pa.int64()),
            "text": cl["text"],
            "role": cl["role"],
            "tool": cl["tool"],
            "raw_topic": topic,
        })
        env = column_filter(
            env, include=r"text|raw_topic",
            protected=("conv_id", "turn_idx", "lsn"),
        )
        raw_sanitized = pc.replace_substring_regex(
            env["raw_topic"].combine_chunks()
            if isinstance(env["raw_topic"], pa.ChunkedArray)
            else env["raw_topic"],
            pattern=r"[^A-Za-z0-9_]", replacement="_",
        )
        avro = avro_sanitize_names(env["raw_topic"])
        out = env.drop_columns(["raw_topic"])
        out = out.append_column("raw_sanitized", raw_sanitized)
        return out.append_column("avro_name", avro)

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_column_filter_avro"] = q_column_filter_avro
CDC_ORACLES["cdc_column_filter_avro"] = SQL_COLUMN_FILTER_AVRO


# ---------------------------------------------------------------------------
# Incremental view maintenance: grouped aggregate from signed CDC deltas.
# ---------------------------------------------------------------------------

SQL_IVM_CONV_CHARS = f"""
WITH {SQL_CHANGELOG.strip()},
{SQL_EXPANDED_PAIRS.strip().rstrip()},
env AS (
  SELECT conv_id,
         CASE op WHEN 1 THEN 'd' WHEN 4 THEN 'u'
                 WHEN 3 THEN NULL ELSE 'c' END AS op_char,
         CASE WHEN op = 4 THEN lag(text) OVER (
                PARTITION BY lsn ORDER BY intent) END AS before_text,
         CASE WHEN op = 1 THEN text END AS d_before,
         text
  FROM expanded
)
SELECT conv_id,
       CAST(sum(CASE op_char
         WHEN 'c' THEN coalesce(length(text), 0)
         WHEN 'u' THEN coalesce(length(text), 0)
                       - coalesce(length(before_text), 0)
         WHEN 'd' THEN -coalesce(length(d_before), 0)
       END) AS BIGINT) AS view_chars,
       CAST(sum(CASE op_char
         WHEN 'c' THEN 1 WHEN 'u' THEN 0 WHEN 'd' THEN -1
       END) AS BIGINT) AS view_rows
FROM env WHERE op_char IS NOT NULL
GROUP BY conv_id
"""


def q_ivm_conv_chars(sf_dir: str):
    """Incremental view maintenance from the change stream — the
    'change propagation without joins' shape: a per-conversation
    SUM(length(text)) / COUNT(*) view maintained purely from each
    envelope's signed delta (+after for c, after-before for u, -before
    for d), never joining back to base state and never re-aggregating
    untouched groups. The envelope feed is the existing map-only op-5
    zip; the view update is a per-batch delta combiner + one
    vocabulary-of-touched-groups exchange — at 100 TB the shuffle
    carries one row per TOUCHED conversation per batch, not the corpus.
    tests/test_round5_ops.py proves delta-maintained == recomputed-from-
    final-state on a generated scenario with internally consistent image
    chains (this fixture's synthetic images are event-local, so the gate
    row pins the delta ARITHMETIC; the pytest pins the IVM identity)."""
    from debezium_connector_db2_ray.stages.envelope import (
        ivm_signed_deltas,
        to_envelopes,
    )
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    delta_schema = pa.schema([
        ("conv_id", pa.string()), ("view_chars", pa.int64()),
        ("view_rows", pa.int64()),
    ])

    def deltas(batch: pa.Table) -> pa.Table:
        env = to_envelopes(
            expand_update_pairs(batch), image_columns=("text",)
        )
        chars = ivm_signed_deltas(
            env, group_cols=("conv_id",),
            before_col="before_text", after_col="after_text",
            measure="length",
        )
        rows = ivm_signed_deltas(
            env, group_cols=("conv_id",),
            before_col="before_text", after_col="after_text",
            measure="count",
        )
        t = pa.table({
            "conv_id": chars["conv_id"],
            "view_chars": chars["delta"],
            "view_rows": rows["delta"],
        })
        g = t.group_by(["conv_id"]).aggregate(
            [("view_chars", "sum"), ("view_rows", "sum")]
        )
        return pa.table({
            "conv_id": g["conv_id"],
            "view_chars": g["view_chars_sum"],
            "view_rows": g["view_rows_sum"],
        })

    return grouped_aggregate(
        _events(sf_dir).map_batches(deltas, batch_format="pyarrow"),
        keys=["conv_id"],
        aggs={"view_chars": ("view_chars", "sum"),
              "view_rows": ("view_rows", "sum")},
        schema=delta_schema,
    )


CDC_QUERIES["cdc_ivm_conv_chars"] = q_ivm_conv_chars
CDC_ORACLES["cdc_ivm_conv_chars"] = SQL_IVM_CONV_CHARS


# ---------------------------------------------------------------------------
# Filter SMT + predicates — drop-by-predicate with negate support.
# ---------------------------------------------------------------------------

SQL_MESSAGE_FILTER = f"""
WITH {SQL_CHANGELOG.strip()},
routed AS (
  SELECT conv_id, CAST(lsn AS BIGINT) AS lsn, role, op,
         CASE role WHEN 'view' THEN 'audit.views'
                   WHEN 'click' THEN 'cdc.clicks'
                   WHEN 'signup' THEN 'cdc.signups'
                   WHEN 'purchase' THEN 'cdc.purchases'
                   WHEN 'error' THEN 'cdc.errors'
                   ELSE 'cdc.default' END AS topic
  FROM changelog
)
SELECT conv_id, lsn, role, topic
FROM routed
WHERE NOT (op = 1)
  AND regexp_matches(topic, '^cdc\\..*$')
"""


def q_message_filter(sf_dir: str):
    """Filter SMT + predicate parity (Kafka Connect Filter with
    Debezium's documented predicate pairing): two chained map-side
    filters over the routed envelope feed — RecordIsTombstone drops
    delete events (their payload column is NULL, the tombstone triplet
    shape), then TopicNameMatches with ``negate=true`` keeps only
    ``cdc.*`` topics (dropping the audit.* route). Both predicates bite
    independently (tombstones are errors, audit topics are views).
    MAP-ONLY: boolean kernels per batch, no exchange."""
    from debezium_connector_db2_ray.stages.envelope import (
        content_based_route,
        message_filter,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        routed = content_based_route(
            cl, column="role",
            routes={"view": "audit.views", "click": "cdc.clicks",
                    "signup": "cdc.signups",
                    "purchase": "cdc.purchases", "error": "cdc.errors"},
            default_topic="cdc.default",
        )
        # delete events carry a NULL payload (tombstone triplet shape)
        is_del = pc.equal(routed["op"], OP_DELETE)
        routed = routed.append_column(
            "payload",
            pc.if_else(is_del, pa.scalar(None, pa.string()),
                       routed["text"].cast(pa.string())),
        )
        kept = message_filter(
            routed, predicate="is_tombstone", tombstone_cols=("payload",),
        )
        kept = message_filter(
            kept, predicate="topic_matches", pattern="cdc\\..*",
            negate=True,
        )
        return pa.table({
            "conv_id": kept["conv_id"],
            "lsn": kept["commit_lsn_lo"].cast(pa.int64()),
            "role": kept["role"],
            "topic": kept["topic"],
        })

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_message_filter"] = q_message_filter
CDC_ORACLES["cdc_message_filter"] = SQL_MESSAGE_FILTER


# ---------------------------------------------------------------------------
# HoistField / ExtractField SMT round-trip through a real Arrow struct.
# ---------------------------------------------------------------------------

SQL_HOIST_EXTRACT = f"""
WITH {SQL_CHANGELOG.strip()}
SELECT conv_id, CAST(lsn AS BIGINT) AS lsn,
       role AS role_extracted, text AS text_kept
FROM changelog
"""


def q_hoist_extract(sf_dir: str):
    """HoistField -> ExtractField round-trip (the two Kafka Connect core
    SMTs that re-nest and un-nest a value): the payload columns are
    hoisted into ONE real Arrow struct (zero-copy child buffers), then a
    single field is extracted back top-level via the struct_field kernel
    — proving the engine carries genuine nested values through an SMT
    chain, not flat columns with dotted names. The oracle states the
    invariant: extraction after hoisting is the identity on the field.
    MAP-ONLY, no exchange."""
    from debezium_connector_db2_ray.stages.envelope import (
        extract_field,
        hoist_field,
    )

    def fn(batch: pa.Table) -> pa.Table:
        cl = derive_changelog(batch)
        hoisted = hoist_field(cl, fields=("role", "text"), into="payload")
        assert "role" not in hoisted.column_names
        ext = extract_field(hoisted, source="payload", field="role",
                            out_col="role_extracted")
        ext = extract_field(ext, source="payload", field="text",
                            out_col="text_kept")
        return pa.table({
            "conv_id": ext["conv_id"],
            "lsn": ext["commit_lsn_lo"].cast(pa.int64()),
            "role_extracted": ext["role_extracted"],
            "text_kept": ext["text_kept"],
        })

    return _events(sf_dir).map_batches(fn, batch_format="pyarrow")


CDC_QUERIES["cdc_hoist_extract"] = q_hoist_extract
CDC_ORACLES["cdc_hoist_extract"] = SQL_HOIST_EXTRACT


# ---------------------------------------------------------------------------
# Temporal (SCD2) dimension join — fact probes against validity intervals.
# ---------------------------------------------------------------------------

PROBE_DELTA = 3
SCD2_OPEN_END = 1 << 62

SQL_SCD2_TEMPORAL = f"""
WITH {SQL_CHANGELOG.strip()},
scd2 AS (
  SELECT CAST(substr(conv_id, 6) AS BIGINT) * {TURN_MOD}
         + CAST(turn_idx AS BIGINT) AS k,
         lsn AS valid_from_lsn,
         lead(lsn) OVER (
           PARTITION BY conv_id, turn_idx ORDER BY lsn) AS valid_to_lsn,
         CAST(op AS BIGINT) AS op
  FROM changelog
), probes AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
         CAST(substr(conv_id, 6) AS BIGINT) * {TURN_MOD}
         + CAST(turn_idx AS BIGINT) AS k,
         lsn + {PROBE_DELTA} AS probe_lsn
  FROM changelog
)
SELECT p.conv_id, p.turn_idx, CAST(p.probe_lsn AS BIGINT) AS probe_lsn,
       CAST(v.valid_from_lsn AS BIGINT) AS iv_valid_from_lsn,
       CAST(v.op AS BIGINT) AS iv_op
FROM probes p
LEFT JOIN scd2 v
  ON v.k = p.k
 AND v.valid_from_lsn <= p.probe_lsn
 AND (v.valid_to_lsn IS NULL OR p.probe_lsn < v.valid_to_lsn)
"""


def q_scd2_temporal_join(sf_dir: str):
    """Temporal dimension join — the consumer-side query every SCD2
    table exists for: each fact probe (an event observed PROBE_DELTA
    ticks after its LSN) picks up the dimension VERSION valid at its
    timestamp, via interval_join over the [valid_from, valid_to)
    validity chain (exclusive end re-expressed as the inclusive
    valid_to - 1; the open current version gets a +inf sentinel). The
    composite (conv, turn) key packs into one int64 exactly. ONE sort
    exchange; version chains are non-overlapping by construction, so
    output size == probe count.

    Reference analog: warehouse consumers of Debezium SCD2 topics
    (SURVEY §2.9 downstream shape); machinery shared with
    events_interval_join."""
    from debezium_connector_db2_ray.functions.relational import (
        _segment_starts,
        _window_exchange,
        interval_join,
    )

    cl = _events(sf_dir).map_batches(
        derive_changelog, batch_format="pyarrow"
    )

    def keyed(t: pa.Table) -> pa.Table:
        uid = pc.cast(
            pc.utf8_slice_codeunits(t["conv_id"], 5, 99), pa.int64()
        )
        turn = t["turn_idx"].cast(pa.int64())
        return pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": turn,
            "k": pc.add(
                pc.multiply(uid, pa.scalar(TURN_MOD, pa.int64())), turn
            ),
            "lsn": t["commit_lsn_lo"].cast(pa.int64()),
            "op": t["op"].cast(pa.int64()),
        })

    keyed_ds = cl.map_batches(keyed, batch_format="pyarrow")
    iv_schema = pa.schema([
        ("k", pa.int64()), ("valid_from_lsn", pa.int64()),
        ("valid_end_incl", pa.int64()), ("op", pa.int64()),
    ])

    def versions(part: pa.Table) -> pa.Table:
        t = part.sort_by([("k", "ascending"), ("lsn", "ascending")])
        n = t.num_rows
        starts = _segment_starts(t, ["k"])
        last = np.zeros(n, bool)
        last[np.append(starts[1:] - 1, n - 1)] = True
        lsn = t["lsn"].to_numpy(zero_copy_only=False).astype(np.int64)
        nxt = np.empty(n, np.int64)
        nxt[:-1] = lsn[1:] - 1          # inclusive end of this version
        nxt[n - 1] = 0
        end = np.where(last, SCD2_OPEN_END, nxt)
        return pa.table({
            "k": t["k"], "valid_from_lsn": t["lsn"],
            "valid_end_incl": pa.array(end, pa.int64()),
            "op": t["op"],
        })

    intervals = _window_exchange(
        keyed_ds.select_columns(["k", "lsn", "op"]),
        keys=["k"], cols=["k", "lsn", "op"],
        num_partitions=None, kernel=versions, out_schema=iv_schema,
    )
    probes = keyed_ds.map_batches(
        lambda t: pa.table({
            "k": t["k"], "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "probe_lsn": pc.add(
                t["lsn"], pa.scalar(PROBE_DELTA, pa.int64())
            ),
        }),
        batch_format="pyarrow",
    )
    out = interval_join(
        probes, intervals, key="k", ts="probe_lsn",
        start="valid_from_lsn", end="valid_end_incl",
        value_cols=("valid_from_lsn", "op"),
        points_schema=pa.schema([
            ("k", pa.int64()), ("conv_id", pa.string()),
            ("turn_idx", pa.int64()), ("probe_lsn", pa.int64()),
        ]),
        intervals_schema=iv_schema,
    )
    return out.map_batches(
        lambda t: pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "probe_lsn": t["probe_lsn"],
            "iv_valid_from_lsn": t["iv_valid_from_lsn"],
            "iv_op": t["iv_op"],
        }),
        batch_format="pyarrow",
    )


CDC_QUERIES["cdc_scd2_temporal_join"] = q_scd2_temporal_join
CDC_ORACLES["cdc_scd2_temporal_join"] = SQL_SCD2_TEMPORAL


# ---------------------------------------------------------------------------
# JSONL envelope sink round-trip (the Kafka-record output shape, durably).
# ---------------------------------------------------------------------------

SQL_ENVELOPE_JSONL = SQL_ENVELOPE


def q_envelope_jsonl_roundtrip(sf_dir: str):
    """Envelope SINK parity: the reference's output IS a stream of JSON
    change records (Kafka values); here the same envelope feed streams
    through Ray's JSONL writer into a partitioned directory (one file
    per block — the resumable many-files layout, never one giant file)
    and is read BACK through the JSONL source, proving the sink/source
    pair round-trips every envelope field losslessly. The gate compares
    the round-tripped feed against the same oracle as cdc_envelope_feed
    — any serialization loss (dtype widening, NULL coercion, string
    mangling) fails the value hash. turn_idx/serial re-cast from JSON's
    int64 on the way back; all other columns round-trip natively."""
    import shutil
    import tempfile

    import ray.data as rd

    feed = q_envelope_feed(sf_dir)
    out = tempfile.mkdtemp(prefix="cdc_envelope_jsonl_")
    try:
        feed.write_json(out)
        back = rd.read_json(out).map_batches(
            lambda t: pa.table({
                "lsn": t["lsn"].cast(pa.int64()),
                "serial": t["serial"].cast(pa.int32()),
                "op_char": t["op_char"].cast(pa.string()),
                "conv_id": t["conv_id"].cast(pa.string()),
                "turn_idx": t["turn_idx"].cast(pa.int32()),
                "before_text": t["before_text"].cast(pa.string()),
                "after_text": t["after_text"].cast(pa.string()),
            }),
            batch_format="pyarrow",
        )
        # materialize before deleting the staging dir (lazy reads would
        # hit a missing path)
        tbl = pa.concat_tables(
            [b for b in back.iter_batches(batch_format="pyarrow")]
            or [pa.schema([
                ("lsn", pa.int64()), ("serial", pa.int32()),
                ("op_char", pa.string()), ("conv_id", pa.string()),
                ("turn_idx", pa.int32()),
                ("before_text", pa.string()),
                ("after_text", pa.string()),
            ]).empty_table()]
        )
        return tbl
    finally:
        shutil.rmtree(out, ignore_errors=True)


CDC_QUERIES["cdc_envelope_jsonl_sink"] = q_envelope_jsonl_roundtrip
CDC_ORACLES["cdc_envelope_jsonl_sink"] = SQL_ENVELOPE_JSONL


# ---------------------------------------------------------------------------
# Bitemporal read: state valid-at T as-known-at LSN L.
# ---------------------------------------------------------------------------

SQL_BITEMPORAL = f"""
WITH {SQL_CHANGELOG.strip()},
lim AS (
  SELECT CAST(max(lsn) * 6 // 10 AS BIGINT) AS known_l,
         min(epoch_us(ts)) + (max(epoch_us(ts)) - min(epoch_us(ts)))
           * 7 // 10 AS valid_t
  FROM changelog
), f AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, lsn, op, text, ts
  FROM changelog
  WHERE lsn <= (SELECT known_l FROM lim)
    AND epoch_us(ts) <= (SELECT valid_t FROM lim)
), r AS (
  SELECT conv_id, turn_idx, lsn, CAST(op AS BIGINT) AS op, text,
         row_number() OVER (
           PARTITION BY conv_id, turn_idx
           ORDER BY ts DESC, lsn DESC) AS rn
  FROM f
)
SELECT conv_id, turn_idx, CAST(lsn AS BIGINT) AS known_lsn, op, text
FROM r WHERE rn = 1
"""


def q_bitemporal_read(sf_dir: str):
    """Bitemporal read — the two-axis query a corrected-history consumer
    asks: for each key, the version VALID at time T as KNOWN at LSN L
    (late-arriving corrections with lsn <= L but newer valid-time win;
    corrections landed after L are invisible). Both cutoffs derive from
    the corpus (60% of max LSN, 70% of the time span) so the query is
    scale-free. Map-side double filter, then top_n_per_group's ONE
    keyed exchange with the (valid_ts DESC, lsn DESC) argmax — never a
    per-key UDF.

    Reference analog: none as an operator — the consumer-side pattern
    over Debezium's (source.ts_ms, LSN) pair (SURVEY §2.9 downstream
    shape)."""
    from debezium_connector_db2_ray.functions.relational import (
        top_n_per_group,
    )

    cl = _events(sf_dir).map_batches(
        derive_changelog, batch_format="pyarrow"
    ).map_batches(
        lambda t: pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"].cast(pa.int64()),
            "lsn": t["commit_lsn_lo"].cast(pa.int64()),
            "op": t["op"].cast(pa.int64()),
            "text": t["text"].cast(pa.string()),
            "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )
    # one tiny stats pass for both cutoffs
    from ray.data.aggregate import Max as _Max
    from ray.data.aggregate import Min as _Min

    st = cl.aggregate(
        _Max("lsn", alias_name="max_lsn"),
        _Min("ts_us", alias_name="min_ts"),
        _Max("ts_us", alias_name="max_ts"),
    )
    known_l = int(st["max_lsn"]) * 6 // 10
    valid_t = int(st["min_ts"]) + (
        int(st["max_ts"]) - int(st["min_ts"])
    ) * 7 // 10

    filt = cl.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.less_equal(t["lsn"], known_l),
                pc.less_equal(t["ts_us"], valid_t),
            )
        ),
        batch_format="pyarrow",
    )
    top = top_n_per_group(
        filt, keys=["conv_id", "turn_idx"],
        order_by=[("ts_us", "descending"), ("lsn", "descending")],
        n=1,
        schema=pa.schema([
            ("conv_id", pa.string()), ("turn_idx", pa.int64()),
            ("lsn", pa.int64()), ("op", pa.int64()),
            ("text", pa.string()), ("ts_us", pa.int64()),
        ]),
        out_rank="rn",
    )
    return top.map_batches(
        lambda t: pa.table({
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "known_lsn": t["lsn"],
            "op": t["op"],
            "text": t["text"],
        }),
        batch_format="pyarrow",
    )


CDC_QUERIES["cdc_bitemporal_read"] = q_bitemporal_read
CDC_ORACLES["cdc_bitemporal_read"] = SQL_BITEMPORAL



# ---------------------------------------------------------------------------
# Transcript analytics: per-conversation folds over the APPLIED lake state.
#
# The input_hint payload is multi-turn conversation transcripts keyed by
# (conv_id, turn_idx); once the CDC replay materializes the lake, the next
# thing a training-data pipeline does is conversation-LEVEL curation (length
# QA, role-structure checks, tool-usage stats). These ride apply_dataset's
# post_kernel hook: the apply shuffle already hash-partitions on conv_id, so
# every conversation is fully co-located and the folds below add ZERO extra
# exchange at any corpus size — one vectorized numpy pass per partition.
# ---------------------------------------------------------------------------

SQL_CONV_TURN_STATS = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role, text, tool
  FROM ranked WHERE rn = 1 AND op <> 1
)
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       CAST(count(DISTINCT role) AS BIGINT) AS n_roles,
       CAST(count(tool) AS BIGINT) AS n_tool_turns,
       CAST(sum(length(text)) AS BIGINT) AS total_chars,
       CAST(max(turn_idx) AS BIGINT) AS max_turn_idx
FROM state GROUP BY conv_id
"""

_CONV_STATS_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_turns", pa.int64()),
    ("n_roles", pa.int64()), ("n_tool_turns", pa.int64()),
    ("total_chars", pa.int64()), ("max_turn_idx", pa.int64()),
])


def _conv_segments(state: pa.Table):
    """Sort a partition's applied state by (conv_id, turn_idx) and return
    (sorted table, conv start offsets, per-row conv index) — the shared
    front half of every per-conversation fold."""
    t = state.sort_by([
        ("conv_id", "ascending"), ("turn_idx", "ascending"),
    ])
    n = t.num_rows
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    new = np.ones(n, bool)
    if n:
        new[1:] = conv[1:] != conv[:-1]
    return t, np.flatnonzero(new), np.cumsum(new) - 1


def conv_turn_stats_kernel(state: pa.Table) -> pa.Table:
    """Per-conversation profile: turn count, distinct roles, tool turns,
    total text chars, max turn index. One numpy pass over the sorted
    partition (reduceat folds), mirroring SQL_CONV_TURN_STATS."""
    if state.num_rows == 0:
        return _CONV_STATS_SCHEMA.empty_table()
    t, starts, conv_idx = _conv_segments(state)
    n = t.num_rows
    turn = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_turns = np.diff(np.append(starts, n))
    max_turn = np.maximum.reduceat(turn, starts)
    tool_cnt = np.add.reduceat(
        pc.is_valid(t["tool"]).to_numpy(zero_copy_only=False)
        .astype(np.int64), starts)
    chars = pc.fill_null(pc.utf8_length(t["text"]), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    total_chars = np.add.reduceat(chars, starts)
    # distinct roles per conv: dedupe (conv index, role code) pairs, then
    # count pairs per conv — no per-group Python
    codes = pc.dictionary_encode(t["role"]).combine_chunks()
    rc = (codes.indices if hasattr(codes, "indices")
          else codes.chunk(0).indices).to_numpy(zero_copy_only=False)
    k = int(rc.max()) + 1 if n else 1
    pairs = np.unique(conv_idx.astype(np.int64) * k + rc.astype(np.int64))
    n_roles = np.bincount(pairs // k, minlength=len(starts))
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "n_turns": pa.array(n_turns.astype(np.int64)),
        "n_roles": pa.array(n_roles.astype(np.int64)),
        "n_tool_turns": pa.array(tool_cnt.astype(np.int64)),
        "total_chars": pa.array(total_chars.astype(np.int64)),
        "max_turn_idx": pa.array(max_turn.astype(np.int64)),
    })


def q_conv_turn_stats(sf_dir: str):
    """Conversation-level profile over the replayed lake — the post-apply
    curation fold (reference analog: the final-state assertions the
    SnapshotIT/StreamingIT suites run per table; here folded per
    conversation inside the apply task itself)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_turn_stats_kernel
    )


CDC_QUERIES["conv_turn_stats"] = q_conv_turn_stats
CDC_ORACLES["conv_turn_stats"] = SQL_CONV_TURN_STATS


SQL_CONV_ROLE_ALTERNATION = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role FROM ranked WHERE rn = 1 AND op <> 1
),
adj AS (
  SELECT conv_id,
         CASE WHEN role = lag(role) OVER (
           PARTITION BY conv_id ORDER BY turn_idx) THEN 1 ELSE 0 END AS same
  FROM state
)
SELECT conv_id, sum(same) = 0 AS alternates
FROM adj GROUP BY conv_id
"""

_CONV_ALT_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("alternates", pa.bool_()),
])


def conv_role_alternation_kernel(state: pa.Table) -> pa.Table:
    """Role-structure QA: a conversation 'alternates' iff no two
    consecutive turns (by turn_idx) share a role — adjacency compare on
    the sorted partition, one reduceat per conv."""
    if state.num_rows == 0:
        return _CONV_ALT_SCHEMA.empty_table()
    t, starts, _ = _conv_segments(state)
    n = t.num_rows
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    role = np.asarray(t["role"].to_numpy(zero_copy_only=False))
    same = np.zeros(n, np.int64)
    if n > 1:
        same[1:] = (conv[1:] == conv[:-1]) & (role[1:] == role[:-1])
    viol = np.add.reduceat(same, starts)
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "alternates": pa.array(viol == 0),
    })


def q_conv_role_alternation(sf_dir: str):
    """Per-conversation role-alternation flag over the replayed lake."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_role_alternation_kernel
    )


CDC_QUERIES["conv_role_alternation"] = q_conv_role_alternation
CDC_ORACLES["conv_role_alternation"] = SQL_CONV_ROLE_ALTERNATION


SQL_CONV_LENGTH_HISTOGRAM = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id FROM ranked WHERE rn = 1 AND op <> 1
),
per_conv AS (
  SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns
  FROM state GROUP BY conv_id
)
SELECT n_turns, CAST(count(*) AS BIGINT) AS n_convs
FROM per_conv GROUP BY n_turns
"""


def q_conv_length_histogram(sf_dir: str):
    """Corpus-shape report: how many conversations have k turns. The
    per-conv count folds inside the apply task (zero extra exchange);
    the final histogram is a combiner-style exchange of at most
    TURN_MOD rows per partition — O(partitions x 20), never O(convs)."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    hist_schema = pa.schema([
        ("n_turns", pa.int64()), ("n_convs", pa.int64()),
    ])

    def partial_hist(state: pa.Table) -> pa.Table:
        if state.num_rows == 0:
            return hist_schema.empty_table()
        _, starts, _ = _conv_segments(state)
        n_turns = np.diff(np.append(starts, state.num_rows))
        vals, cnts = np.unique(n_turns, return_counts=True)
        return pa.table({
            "n_turns": pa.array(vals.astype(np.int64)),
            "n_convs": pa.array(cnts.astype(np.int64)),
        })

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    partials = apply_dataset(cl, num_partitions=NP, post_kernel=partial_hist)
    return grouped_aggregate(
        partials, keys=["n_turns"], aggs={"n_convs": ("n_convs", "sum")},
        schema=hist_schema,
    )


CDC_QUERIES["conv_length_histogram"] = q_conv_length_histogram
CDC_ORACLES["conv_length_histogram"] = SQL_CONV_LENGTH_HISTOGRAM


SQL_CONV_DEDUP_FP = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, text FROM ranked WHERE rn = 1 AND op <> 1
),
firstk AS (
  SELECT conv_id, turn_idx, text,
         row_number() OVER (PARTITION BY conv_id ORDER BY turn_idx) AS k
  FROM state
),
pref AS (
  SELECT conv_id,
         string_agg(coalesce(text, ''), chr(31) ORDER BY turn_idx) AS prefix
  FROM firstk WHERE k <= 3 GROUP BY conv_id
)
SELECT prefix, CAST(count(*) AS BIGINT) AS n_convs
FROM pref GROUP BY prefix
"""


def conv_prefix_kernel(state: pa.Table) -> pa.Table:
    """First-3-turns fingerprint per conversation: the texts of the three
    lowest turn_idx rows joined with US (0x1f). Arrow-native gather +
    binary_join_element_wise (null_handling='skip' drops missing turns;
    present-but-null text coalesces to '' first, like the oracle)."""
    out_schema = pa.schema([("prefix", pa.string())])
    if state.num_rows == 0:
        return out_schema.empty_table()
    t, starts, _ = _conv_segments(state)
    n = t.num_rows
    nxt = np.append(starts[1:], n)
    texts = pc.fill_null(
        t["text"].combine_chunks()
        if isinstance(t["text"], pa.ChunkedArray) else t["text"], "")

    def nth(j: int):
        has = starts + j < nxt
        idx = np.where(has, starts + j, 0)
        vals = texts.take(pa.array(idx.astype(np.int64)))
        return pc.if_else(pa.array(has), vals, pa.scalar(None, pa.string()))

    prefix = pc.binary_join_element_wise(
        nth(0), nth(1), nth(2), pa.scalar("\x1f"), null_handling="skip"
    )
    return pa.table({"prefix": prefix})


def q_conv_dedup_fingerprint(sf_dir: str):
    """Near-dup conversation report: conversations sharing the same
    first-3-turns text fingerprint (the cheap prefix blocking step of
    transcript dedup). The per-conv fingerprint folds inside the apply
    task (zero extra exchange); only the tiny (prefix, 1) rows exchange
    for the count — never the transcripts themselves."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    prefixes = apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_prefix_kernel
    )
    return grouped_aggregate(
        prefixes, keys=["prefix"], aggs={"n_convs": ("prefix", "count_all")},
        schema=pa.schema([("prefix", pa.string())]),
    )


CDC_QUERIES["conv_dedup_fingerprint"] = q_conv_dedup_fingerprint
CDC_ORACLES["conv_dedup_fingerprint"] = SQL_CONV_DEDUP_FP


SQL_CONV_FIRST_LAST_ROLE = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role FROM ranked WHERE rn = 1 AND op <> 1
)
SELECT conv_id,
       arg_min(role, turn_idx) AS first_role,
       arg_max(role, turn_idx) AS last_role
FROM state GROUP BY conv_id
"""

_CONV_FL_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("first_role", pa.string()),
    ("last_role", pa.string()),
])


def conv_first_last_role_kernel(state: pa.Table) -> pa.Table:
    """Opening/closing-role QA (does the transcript start with the expected
    role and end with a reply?): roles at the min and max turn_idx of each
    conversation — pure gather on the sorted partition, no reduction."""
    if state.num_rows == 0:
        return _CONV_FL_SCHEMA.empty_table()
    t, starts, _ = _conv_segments(state)
    n = t.num_rows
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    ends = np.append(starts[1:], n) - 1
    role = (t["role"].combine_chunks()
            if isinstance(t["role"], pa.ChunkedArray) else t["role"])
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "first_role": role.take(pa.array(starts.astype(np.int64))),
        "last_role": role.take(pa.array(ends.astype(np.int64))),
    })


def q_conv_first_last_role(sf_dir: str):
    """First/last role per conversation over the replayed lake (rides the
    apply exchange via post_kernel — zero extra shuffle).

    Reference analog: the per-table final-state assertions of the
    reference IT suites (Db2ConnectorIT.java) extended to
    conversation-level QA — same basis as conv_turn_stats."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_first_last_role_kernel
    )


CDC_QUERIES["conv_first_last_role"] = q_conv_first_last_role
CDC_ORACLES["conv_first_last_role"] = SQL_CONV_FIRST_LAST_ROLE


SQL_CONV_TURN_GAPS = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx
  FROM ranked WHERE rn = 1 AND op <> 1
),
adj AS (
  SELECT conv_id, turn_idx,
         coalesce(turn_idx - lag(turn_idx) OVER (
           PARTITION BY conv_id ORDER BY turn_idx), 0) AS gap
  FROM state
)
SELECT conv_id,
       CAST(max(gap) AS BIGINT) AS max_gap,
       CAST(max(turn_idx) - min(turn_idx) + 1 - count(*) AS BIGINT)
         AS n_missing
FROM adj GROUP BY conv_id
"""

_CONV_GAPS_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("max_gap", pa.int64()),
    ("n_missing", pa.int64()),
])


def conv_turn_gaps_kernel(state: pa.Table) -> pa.Table:
    """Deleted-turn detector: after replay, a DELETE leaves a hole in the
    turn_idx sequence. max_gap is the largest jump between consecutive
    surviving turns (0 for a single-turn conversation); n_missing is the
    total hole count (span minus survivors). One diff + three reduceats."""
    if state.num_rows == 0:
        return _CONV_GAPS_SCHEMA.empty_table()
    t, starts, _ = _conv_segments(state)
    n = t.num_rows
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    turn = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
    gap = np.zeros(n, np.int64)
    if n > 1:
        gap[1:] = turn[1:] - turn[:-1]
    gap[starts] = 0
    max_gap = np.maximum.reduceat(gap, starts)
    lo = np.minimum.reduceat(turn, starts)
    hi = np.maximum.reduceat(turn, starts)
    cnt = np.diff(np.append(starts, n))
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "max_gap": pa.array(max_gap),
        "n_missing": pa.array(hi - lo + 1 - cnt),
    })


def q_conv_turn_gaps(sf_dir: str):
    """Per-conversation turn-hole report over the replayed lake.

    Reference analog: none as an operator — the downstream audit a
    consumer of Debezium DELETE envelopes runs to confirm tombstone
    application (SURVEY §2 M10)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_turn_gaps_kernel
    )


CDC_QUERIES["conv_turn_gaps"] = q_conv_turn_gaps
CDC_ORACLES["conv_turn_gaps"] = SQL_CONV_TURN_GAPS


SQL_CONV_TIME_SPAN = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, ts FROM ranked WHERE rn = 1 AND op <> 1
)
SELECT conv_id,
       CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT) AS span_us,
       CAST(count(*) AS BIGINT) AS n_turns
FROM state GROUP BY conv_id
"""

_CONV_SPAN_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("span_us", pa.int64()),
    ("n_turns", pa.int64()),
])


def conv_time_span_kernel(state: pa.Table) -> pa.Table:
    """Wall-clock extent of each conversation (max ts - min ts, in us) —
    the recording-duration QA column. Two reduceats on the int64 view."""
    if state.num_rows == 0:
        return _CONV_SPAN_SCHEMA.empty_table()
    t, starts, _ = _conv_segments(state)
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    ts = t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "span_us": pa.array(
            np.maximum.reduceat(ts, starts)
            - np.minimum.reduceat(ts, starts)),
        "n_turns": pa.array(
            np.diff(np.append(starts, t.num_rows)).astype(np.int64)),
    })


def q_conv_time_span(sf_dir: str):
    """Per-conversation wall-clock span over the replayed lake.

    Reference analog: none — transcript-curation fold over the applied
    state (source.ts_ms is the only time surface the reference has)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_time_span_kernel
    )


CDC_QUERIES["conv_time_span"] = q_conv_time_span
CDC_ORACLES["conv_time_span"] = SQL_CONV_TIME_SPAN


SESSION_GAP_US = 3_600_000_000  # 1 h — the classic web-session cutoff


SQL_CONV_SESSIONIZE = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, ts FROM ranked WHERE rn = 1 AND op <> 1
),
adj AS (
  SELECT conv_id,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY conv_id ORDER BY turn_idx) > {SESSION_GAP_US}
         THEN 1 ELSE 0 END AS brk
  FROM state
)
SELECT conv_id, CAST(1 + sum(brk) AS BIGINT) AS n_sessions
FROM adj GROUP BY conv_id
"""

_CONV_SESS_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("n_sessions", pa.int64()),
])


def conv_sessionize_kernel(state: pa.Table) -> pa.Table:
    """Sessionization: walking the conversation in turn order, a new
    session starts when the wall-clock jump to the previous turn exceeds
    SESSION_GAP_US (the standard inactivity-timeout session split). One
    diff + compare + reduceat per partition."""
    if state.num_rows == 0:
        return _CONV_SESS_SCHEMA.empty_table()
    t, starts, _ = _conv_segments(state)
    n = t.num_rows
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    ts = t["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    brk = np.zeros(n, np.int64)
    if n > 1:
        brk[1:] = (ts[1:] - ts[:-1]) > SESSION_GAP_US
    brk[starts] = 0
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "n_sessions": pa.array(1 + np.add.reduceat(brk, starts)),
    })


def q_conv_sessionize(sf_dir: str):
    """Per-conversation session count (1 h inactivity cutoff) over the
    replayed lake — rides the apply exchange via post_kernel.

    Reference analog: none — classic sessionization, here fused into
    the CDC apply task (SURVEY §2 beyond-reference family)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_sessionize_kernel
    )


CDC_QUERIES["conv_sessionize"] = q_conv_sessionize
CDC_ORACLES["conv_sessionize"] = SQL_CONV_SESSIONIZE


SQL_CONV_ROLE_CHAR_SHARE = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, role, coalesce(length(text), 0) AS chars
  FROM ranked WHERE rn = 1 AND op <> 1
),
per_role AS (
  SELECT conv_id, role, CAST(sum(chars) AS BIGINT) AS chars
  FROM state GROUP BY conv_id, role
)
SELECT conv_id, role, chars,
       CAST(chars AS DOUBLE)
         / CAST(sum(chars) OVER (PARTITION BY conv_id) AS DOUBLE) AS frac
FROM per_role
"""

_CONV_SHARE_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("role", pa.string()),
    ("chars", pa.int64()), ("frac", pa.float64()),
])


def conv_role_char_share_kernel(state: pa.Table) -> pa.Table:
    """Speaker balance: per (conversation, role) total text chars and that
    role's fraction of the conversation — the prompt/response length-ratio
    signal chat-data curation filters on. Sorted (conv, role) segment
    fold, then a conv-level second fold for the denominator; NaN when a
    conversation's text is entirely empty (0/0), matching the oracle."""
    if state.num_rows == 0:
        return _CONV_SHARE_SCHEMA.empty_table()
    t = state.sort_by([
        ("conv_id", "ascending"), ("role", "ascending"),
    ])
    n = t.num_rows
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    role = np.asarray(t["role"].to_numpy(zero_copy_only=False))
    new = np.ones(n, bool)
    new[1:] = (conv[1:] != conv[:-1]) | (role[1:] != role[:-1])
    starts = np.flatnonzero(new)
    chars = pc.fill_null(pc.utf8_length(t["text"]), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    pr = np.add.reduceat(chars, starts)
    # conversation totals over the per-role rows
    cnew = np.ones(len(starts), bool)
    cnew[1:] = conv[starts][1:] != conv[starts][:-1]
    cstarts = np.flatnonzero(cnew)
    totals = np.add.reduceat(pr, cstarts)
    cidx = np.cumsum(cnew) - 1
    with np.errstate(invalid="ignore"):
        frac = pr.astype(np.float64) / totals[cidx].astype(np.float64)
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "role": pa.array(role[starts], pa.string()),
        "chars": pa.array(pr),
        "frac": pa.array(frac),
    })


def q_conv_role_char_share(sf_dir: str):
    """Per-(conversation, role) char share over the replayed lake.

    Reference analog: none — the speaker-balance curation signal
    (prompt/response length ratio) over the applied state."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_role_char_share_kernel
    )


CDC_QUERIES["conv_role_char_share"] = q_conv_role_char_share
CDC_ORACLES["conv_role_char_share"] = SQL_CONV_ROLE_CHAR_SHARE


SQL_CONV_SHARED_TURNS = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, text FROM ranked
  WHERE rn = 1 AND op <> 1 AND text IS NOT NULL
)
SELECT text, CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs
FROM state GROUP BY text
HAVING count(DISTINCT conv_id) >= 2
"""


def q_conv_shared_turns(sf_dir: str):
    """Cross-conversation turn-level dedup report: turn texts that appear
    in >= 2 distinct conversations (boilerplate / template detection).
    The per-partition post_kernel pre-collapses to DISTINCT (text,
    conv_id) pairs — globally distinct already, because the apply
    exchange confines each conv_id to one partition — so the only extra
    exchange ships one row per distinct pair, never the corpus, and the
    final count per text is a plain grouped_aggregate."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    pair_schema = pa.schema([
        ("text", pa.string()), ("conv_id", pa.string()),
    ])

    def distinct_pairs(state: pa.Table) -> pa.Table:
        if state.num_rows == 0:
            return pair_schema.empty_table()
        t = state.filter(pc.is_valid(state["text"]))
        return t.select(["text", "conv_id"]).group_by(
            ["text", "conv_id"]).aggregate([])

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    pairs = apply_dataset(cl, num_partitions=NP, post_kernel=distinct_pairs)
    counts = grouped_aggregate(
        pairs, keys=["text"], aggs={"n_convs": ("conv_id", "count")},
        schema=pair_schema,
    )
    return counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_convs"], 2)),
        batch_format="pyarrow",
    )


CDC_QUERIES["conv_shared_turns"] = q_conv_shared_turns
CDC_ORACLES["conv_shared_turns"] = SQL_CONV_SHARED_TURNS


SQL_CONV_ROLE_BIGRAMS = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role FROM ranked WHERE rn = 1 AND op <> 1
),
adj AS (
  SELECT lag(role) OVER (
           PARTITION BY conv_id ORDER BY turn_idx) AS prev_role,
         role
  FROM state
)
SELECT prev_role, role, CAST(count(*) AS BIGINT) AS n
FROM adj WHERE prev_role IS NOT NULL
GROUP BY prev_role, role
"""


def conv_role_bigrams_kernel(state: pa.Table) -> pa.Table:
    """Partition-local role-transition counts (prev_role -> role over
    consecutive turns of each conversation): dictionary-encode roles, fold
    the pair codes with one bincount. Emits at most |roles|^2 rows per
    partition, so the downstream exchange is O(role-vocab^2), never
    O(turns) — the corpus-level Markov structure report."""
    out_schema = pa.schema([
        ("prev_role", pa.string()), ("role", pa.string()),
        ("n", pa.int64()),
    ])
    if state.num_rows == 0:
        return out_schema.empty_table()
    t, starts, _ = _conv_segments(state)
    n = t.num_rows
    codes = pc.dictionary_encode(t["role"]).combine_chunks()
    dictionary = codes.dictionary
    rc = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    k = len(dictionary)
    valid = np.ones(n, bool)
    valid[starts] = False          # first turn of a conv has no prev
    prev = rc[np.flatnonzero(valid) - 1]
    cur = rc[valid]
    cnt = np.bincount(prev * k + cur, minlength=k * k)
    nz = np.flatnonzero(cnt)
    if len(nz) == 0:
        return out_schema.empty_table()
    return pa.table({
        "prev_role": dictionary.take(pa.array(nz // k)),
        "role": dictionary.take(pa.array(nz % k)),
        "n": pa.array(cnt[nz].astype(np.int64)),
    })


def q_conv_role_bigrams(sf_dir: str):
    """Corpus-wide role-transition matrix: per-partition bigram fold inside
    the apply task, then a combiner-style exchange of at most
    |role-vocab|^2 rows per partition."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    schema = pa.schema([
        ("prev_role", pa.string()), ("role", pa.string()),
        ("n", pa.int64()),
    ])
    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    partials = apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_role_bigrams_kernel
    )
    return grouped_aggregate(
        partials, keys=["prev_role", "role"], aggs={"n": ("n", "sum")},
        schema=schema,
    )


CDC_QUERIES["conv_role_bigrams"] = q_conv_role_bigrams
CDC_ORACLES["conv_role_bigrams"] = SQL_CONV_ROLE_BIGRAMS


SQL_CONV_LONGEST_MONOLOGUE = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role FROM ranked WHERE rn = 1 AND op <> 1
),
marked AS (
  SELECT conv_id, turn_idx, role,
         CASE WHEN role = lag(role) OVER (
           PARTITION BY conv_id ORDER BY turn_idx) THEN 0 ELSE 1 END AS brk
  FROM state
),
islands AS (
  SELECT conv_id, role,
         sum(brk) OVER (
           PARTITION BY conv_id ORDER BY turn_idx) AS island
  FROM marked
),
runs AS (
  SELECT conv_id, island, CAST(count(*) AS BIGINT) AS run_len
  FROM islands GROUP BY conv_id, island
)
SELECT conv_id, max(run_len) AS longest_run
FROM runs GROUP BY conv_id
"""

_CONV_MONO_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("longest_run", pa.int64()),
])


def conv_longest_monologue_kernel(state: pa.Table) -> pa.Table:
    """Monologue QA: longest run of consecutive same-role turns per
    conversation (the 'one speaker rambles' curation filter) —
    gaps-and-islands on the sorted partition: run starts where conv or
    role changes, run lengths by diff, per-conv max by reduceat over runs."""
    if state.num_rows == 0:
        return _CONV_MONO_SCHEMA.empty_table()
    t, starts, conv_idx = _conv_segments(state)
    n = t.num_rows
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    role = np.asarray(t["role"].to_numpy(zero_copy_only=False))
    rstart = np.ones(n, bool)
    if n > 1:
        rstart[1:] = (conv[1:] != conv[:-1]) | (role[1:] != role[:-1])
    rs = np.flatnonzero(rstart)
    run_len = np.diff(np.append(rs, n))
    # runs are emitted in order, so per-conv max = reduceat over run_len at
    # each conv's first run (conv starts are a subset of run starts)
    conv_of_run = conv_idx[rs]
    first_run_of_conv = np.flatnonzero(
        np.diff(np.append(-1, conv_of_run)) > 0)
    longest = np.maximum.reduceat(run_len, first_run_of_conv)
    return pa.table({
        "conv_id": pa.array(conv[starts], pa.string()),
        "longest_run": pa.array(longest.astype(np.int64)),
    })


def q_conv_longest_monologue(sf_dir: str):
    """Per-conversation longest same-role run over the replayed lake.

    Reference analog: none — monologue QA filter (gaps-and-islands)
    over the applied state."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_longest_monologue_kernel
    )


CDC_QUERIES["conv_longest_monologue"] = q_conv_longest_monologue
CDC_ORACLES["conv_longest_monologue"] = SQL_CONV_LONGEST_MONOLOGUE


SQL_CONV_RENDER = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role, text FROM ranked WHERE rn = 1 AND op <> 1
)
SELECT conv_id,
       string_agg(role || ': ' || coalesce(text, ''), chr(10)
                  ORDER BY turn_idx) AS transcript
FROM state GROUP BY conv_id
"""

_CONV_RENDER_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("transcript", pa.string()),
])


def conv_render_kernel(state: pa.Table) -> pa.Table:
    """Training-sample materialization: the full ordered transcript per
    conversation ('role: text' lines joined with newlines) — the step
    that turns the replayed turn table into model-ready samples. All
    Arrow: vectorized per-row line build, then a hash group list-agg
    (encounter order = sorted turn order) + binary_join."""
    if state.num_rows == 0:
        return _CONV_RENDER_SCHEMA.empty_table()
    t, _, _ = _conv_segments(state)
    lines = pc.binary_join_element_wise(
        t["role"], pc.fill_null(t["text"], ""), ": ",
    )
    g = pa.table({
        "conv_id": t["conv_id"], "line": lines,
    }).group_by("conv_id", use_threads=False).aggregate([("line", "list")])
    return pa.table({
        "conv_id": g["conv_id"],
        "transcript": pc.binary_join(
            g["line_list"], pa.scalar("\n", pa.string())),
    })


def q_conv_render(sf_dir: str):
    """Per-conversation transcript render over the replayed lake — rides
    the apply exchange via post_kernel (a conversation is whole inside
    one partition, so the render needs no extra shuffle and streams
    straight to a sink at any corpus size)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_render_kernel
    )


CDC_QUERIES["conv_render"] = q_conv_render
CDC_ORACLES["conv_render"] = SQL_CONV_RENDER


SQL_CONV_SFT_PAIRS = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT conv_id, turn_idx, role, text FROM ranked WHERE rn = 1 AND op <> 1
),
adj AS (
  SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, role, text,
         lag(role) OVER w AS prev_role,
         lag(text) OVER w AS prev_text
  FROM state WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
)
SELECT conv_id, turn_idx, prev_text AS prompt, text AS response
FROM adj WHERE prev_role = 'click' AND role = 'purchase'
"""

_CONV_SFT_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int64()),
    ("prompt", pa.string()), ("response", pa.string()),
])


def conv_sft_pairs_kernel(
    state: pa.Table, prompt_role: str = "click", response_role: str = "purchase"
) -> pa.Table:
    """SFT-pair extraction: adjacent turn pairs where the role transitions
    prompt_role -> response_role (the prompt/response mining step of
    chat-data curation; roles here are the derived event-type vocabulary).
    Adjacency masks on the sorted partition — one shifted compare, two
    gathers, no reduction.

    Reference analog: none — beyond-reference transcripts family; the
    adjacency semantics mirror the update-pair zipper discipline of
    stages/apply.py (D,I adjacent rows, LuwPlatform-style) applied to
    conversation turns."""
    if state.num_rows == 0:
        return _CONV_SFT_SCHEMA.empty_table()
    t, starts, _ = _conv_segments(state)
    n = t.num_rows
    role = np.asarray(t["role"].to_numpy(zero_copy_only=False))
    ok = np.zeros(n, bool)
    if n > 1:
        ok[1:] = (role[:-1] == prompt_role) & (role[1:] == response_role)
    ok[starts] = False          # a pair never crosses a conv boundary
    idx = np.flatnonzero(ok)
    text = (t["text"].combine_chunks()
            if isinstance(t["text"], pa.ChunkedArray) else t["text"])
    conv = np.asarray(t["conv_id"].to_numpy(zero_copy_only=False))
    return pa.table({
        "conv_id": pa.array(conv[idx], pa.string()),
        "turn_idx": pa.array(
            t["turn_idx"].to_numpy(zero_copy_only=False)
            .astype(np.int64)[idx]),
        "prompt": text.take(pa.array((idx - 1).astype(np.int64))),
        "response": text.take(pa.array(idx.astype(np.int64))),
    })


def q_conv_sft_pairs(sf_dir: str):
    """Prompt/response pair mining over the replayed lake — rides the
    apply exchange via post_kernel (zero extra shuffle; pairs stream
    straight to a sink at any corpus size)."""
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    return apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_sft_pairs_kernel
    )


CDC_QUERIES["conv_sft_pairs"] = q_conv_sft_pairs
CDC_ORACLES["conv_sft_pairs"] = SQL_CONV_SFT_PAIRS


SQL_CONV_LENGTH_HIST = f"""
WITH {SQL_CHANGELOG.strip()},
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
  FROM changelog
),
state AS (
  SELECT length(coalesce(text, '')) AS n_chars
  FROM ranked WHERE rn = 1 AND op <> 1
)
SELECT CAST(n_chars AS BIGINT) AS n_chars,
       CAST(count(*) AS BIGINT) AS n_turns
FROM state GROUP BY 1
"""


def conv_length_hist_kernel(state: pa.Table) -> pa.Table:
    """Per-turn text-length histogram partial: one vectorized
    utf8_length + one np.unique fold per partition. The exchange
    downstream carries O(distinct lengths) rows per partition, bounded
    by the max turn length — never O(turns)."""
    out_schema = pa.schema([
        ("n_chars", pa.int64()), ("n_turns", pa.int64()),
    ])
    if state.num_rows == 0:
        return out_schema.empty_table()
    n_chars = pc.utf8_length(
        pc.coalesce(state["text"], pa.scalar("", pa.string()))
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    vals, cnts = np.unique(n_chars, return_counts=True)
    return pa.table({
        "n_chars": pa.array(vals.astype(np.int64)),
        "n_turns": pa.array(cnts.astype(np.int64)),
    })


def q_conv_turn_length_hist(sf_dir: str):
    """Corpus length-shape report: turns per exact text length. The
    length + count fold rides the apply exchange; only
    O(partitions x distinct-lengths) partial rows exchange for the
    final sum.

    Reference analog: none — beyond-reference transcripts family
    (sample-length telemetry for context-window planning)."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset

    schema = pa.schema([
        ("n_chars", pa.int64()), ("n_turns", pa.int64()),
    ])
    cl = _events(sf_dir).map_batches(derive_changelog, batch_format="pyarrow")
    partials = apply_dataset(
        cl, num_partitions=NP, post_kernel=conv_length_hist_kernel
    )
    return grouped_aggregate(
        partials, keys=["n_chars"], aggs={"n_turns": ("n_turns", "sum")},
        schema=schema,
    )


CDC_QUERIES["conv_turn_length_hist"] = q_conv_turn_length_hist
CDC_ORACLES["conv_turn_length_hist"] = SQL_CONV_LENGTH_HIST
