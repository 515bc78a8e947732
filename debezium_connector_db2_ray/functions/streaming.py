"""Streaming-shaped operators over the events log.

Ray Data has no event-time windows; these reproduce the standard shapes the
way the guide prescribes: treat the log as a partitioned, sortable table —
tumbling windows become a high-cardinality grouped_aggregate on
(key, bucket); session windows become per-batch partial sessions (combiner)
folded by a hash-partitioned, fully vectorized per-user interval merge
(pandas C-grouped cummax supplies the per-user running 'reach' — no
per-user UDF calls at any cardinality).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from debezium_connector_db2_ray.functions.exchange import (
    exchange,
    hash_part,
    side_schema,
)

HOUR_US = 3_600_000_000


def tumbling_counts(ds, *, width_hours: int = 24):
    """Per (user_id, tumbling time bucket): event count and value sum.

    The bucket projection is a map; the aggregation is the high-cardinality
    grouped_aggregate (keys = every (user, bucket) pair — Ray's native
    groupby pays per-group overhead on this shape, see
    relational.grouped_aggregate)."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    width = np.int64(width_hours * HOUR_US)

    def project(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "bucket": pa.array((ts // width).astype(np.int64)),
                "value": batch["value"],
            }
        )

    in_sch = side_schema(ds)
    return grouped_aggregate(
        ds.map_batches(project, batch_format="pyarrow", batch_size=400_000),
        keys=["user_id", "bucket"],
        aggs={"n": ("value", "count_all"), "value_sum": ("value", "sum")},
        # the projection's schema is statically known — pass it so
        # grouped_aggregate never executes an upstream sample to infer it
        schema=pa.schema([
            ("user_id", in_sch.field("user_id").type),
            ("bucket", pa.int64()),
            ("value", in_sch.field("value").type),
        ]),
    )


def sliding_counts(ds, *, key_col: str = "event_type",
                   width_hours: int = 24, stride_hours: int = 6):
    """OVERLAPPING sliding-window counts per key: every event falls in
    ``width/stride`` windows (window w covers [w, w + width)), so each
    window's count is the number of events with
    ``win_start <= ts < win_start + width``. width must be an integer
    multiple of stride — then the covering windows of an event at epoch e
    are exactly ``floor(e/stride)*stride - i*stride`` for i in [0, k),
    k = width//stride, and no containment filter is needed.

    Scale shape: the k-fold expansion happens INSIDE the per-batch partial
    (a k-times np.repeat followed by a per-batch unique-count), so the
    exchange ships one row per distinct (key, window) per batch — bounded
    by key-cardinality x windows-per-batch, never k x events. The final
    fold is the high-cardinality grouped_aggregate. Window starts are
    int64 epoch microseconds (cross-engine-stable, no timezone)."""
    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    if width_hours % stride_hours:
        raise ValueError("width_hours must be a multiple of stride_hours")
    stride = np.int64(stride_hours * HOUR_US)
    k = width_hours // stride_hours

    def partial(batch: pa.Table) -> pa.Table:
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        keys = batch[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = keys.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        base = (ts // stride) * stride
        # k shifted copies of every event, then a per-batch combine:
        # (key code, window) pairs fold into one int64 (window/stride fits
        # far below 2^40 for microsecond epochs; codes are small)
        win = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * stride, len(base)
        )
        cd = np.repeat(codes, k)
        packed = cd * np.int64(1 << 44) + (win // stride)
        uniq, counts = np.unique(packed, return_counts=True)
        u_cd = (uniq >> np.int64(44)).astype(np.int64)
        u_win = (uniq & np.int64((1 << 44) - 1)) * stride
        return pa.table({
            key_col: enc.dictionary.take(pa.array(u_cd, pa.int64())),
            "win_start_us": pa.array(u_win, pa.int64()),
            "n": pa.array(counts.astype(np.int64)),
        })

    in_sch = side_schema(ds)
    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=400_000),
        keys=[key_col, "win_start_us"],
        aggs={"n": ("n", "sum")},
        schema=pa.schema([
            (key_col, in_sch.field(key_col).type),
            ("win_start_us", pa.int64()),
            ("n", pa.int64()),
        ]),
    )


def sessionize(ds, *, gap_minutes: int = 120):
    """Session windows per user: a gap greater than ``gap_minutes`` starts a
    new session. Emits one row per session: (user_id, session_idx, n_events,
    start_ts, end_ts).

    Scale shape — NO raw-event shuffle: each batch gap-cuts its own events
    into maximal partial sessions (a vectorized Arrow/numpy combiner), and
    only those per-batch session SUMMARIES shuffle to a per-user merge that
    folds overlapping/adjacent intervals under the same gap tolerance. The
    fold is exact for ANY split of events into batches (a chain of events
    with consecutive gaps <= gap always appears as intervals within gap of
    each other), so a mega-user costs O(their sessions) at the merge, not
    O(their events) on one worker — the round-1 hot-user hazard is gone."""
    from debezium_connector_db2_ray.functions.relational import (
        derive_num_partitions,
    )

    utype = side_schema(ds).field("user_id").type
    out_schema = pa.schema([
        ("user_id", utype), ("session_idx", pa.int64()),
        ("n_events", pa.int64()), ("start_ts", pa.timestamp("us")),
        ("end_ts", pa.timestamp("us")),
    ])
    gap_us = np.int64(gap_minutes) * np.int64(60_000_000)

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], batch["user_id"].type),
                    "start_ts": pa.array([], pa.int64()),
                    "end_ts": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        ts = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        order = np.lexsort((ts, uid))
        u, t = uid[order], ts[order]
        new = np.ones(n, dtype=bool)
        new[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) > gap_us)
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, n))
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "start_ts": pa.array(t[starts], pa.int64()),
                "end_ts": pa.array(t[starts + counts - 1], pa.int64()),
                "n_events": pa.array(counts.astype(np.int64)),
            }
        )

    def merge(part: pa.Table) -> pa.Table:
        """ALL of one hash partition's users in a single vectorized sweep:
        sort by (user, start, end); the per-user running cummax of ends
        (the interval-merge 'reach') comes from pandas' C-grouped cummax,
        so no per-user Python/UDF calls happen anywhere."""
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        s = part["start_ts"].to_numpy(zero_copy_only=False)
        e = part["end_ts"].to_numpy(zero_copy_only=False)
        c = part["n_events"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, s, uid))
        t_sorted = part.take(pa.array(order, pa.int64()))
        uid, s, e, c = uid[order], s[order], e[order], c[order]
        m = len(s)
        useg = np.ones(m, dtype=bool)
        useg[1:] = uid[1:] != uid[:-1]
        # per-user running max of interval ends (segmented cummax, C level)
        reach = (
            pd.Series(e).groupby(np.cumsum(useg)).cummax().to_numpy()
        )
        new = useg.copy()
        new[1:] |= s[1:] > reach[:-1] + gap_us
        starts = np.flatnonzero(new)
        seg_end = np.maximum.reduceat(e, starts)
        seg_n = np.add.reduceat(c, starts)
        # session ordinal within each user: arange minus the index of the
        # user's first session (maximum.accumulate carries it forward)
        first_sess = useg[starts]
        idx = np.arange(len(starts), dtype=np.int64)
        base = np.maximum.accumulate(np.where(first_sess, idx, 0))
        return pa.table(
            {
                "user_id": t_sorted["user_id"].take(
                    pa.array(starts, pa.int64())
                ),
                "session_idx": pa.array(idx - base),
                "n_events": pa.array(seg_n.astype(np.int64)),
                "start_ts": pa.array(s[starts], pa.int64()).cast(pa.timestamp("us")),
                "end_ts": pa.array(seg_end, pa.int64()).cast(pa.timestamp("us")),
            }
        )

    return exchange(
        [ds.map_batches(partial, batch_format="pyarrow", batch_size=400_000)],
        hash_part(["user_id"], derive_num_partitions(ds)), merge, out_schema,
        schemas=[pa.schema([("user_id", utype), ("start_ts", pa.int64()),
                            ("end_ts", pa.int64()),
                            ("n_events", pa.int64())])],
    )


def late_event_filter(ds, *, key_col: str, order_col: str, ts_col: str,
                      allowed_lateness_us: int,
                      num_partitions: int | None = None):
    """Event-time late-data filter with a per-key watermark: processing
    order is ``order_col`` (the arrival/LSN order); each key's watermark is
    the running max event time over PRIOR arrivals; an event older than
    ``watermark - allowed_lateness_us`` is dropped — the standard streaming
    allowed-lateness contract (the first arrival of a key always passes:
    no watermark yet).

    Scale shape: ONE hash exchange on the key, then a partition-local
    vectorized kernel — sort by (key, order), per-segment exclusive running
    max of the timestamp (np.maximum.accumulate per key run), one boolean
    filter. Equivalent single-node SQL:
    ``MAX(ts) OVER (PARTITION BY key ORDER BY order
    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)``."""
    import pyarrow.compute as pc

    from debezium_connector_db2_ray.functions.relational import (
        _segment_starts,
        _window_exchange,
        derive_num_partitions,
    )

    out_schema = side_schema(ds)
    cols = list(out_schema.names)
    if num_partitions is None:
        num_partitions = derive_num_partitions(ds)

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by([(key_col, "ascending"), (order_col, "ascending")])
        ts = t[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        tv = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
        starts = _segment_starts(t, [key_col])
        seg_id = np.zeros(t.num_rows, np.int64)
        seg_id[starts] = 1
        seg_id = np.cumsum(seg_id) - 1
        # per-key running max via pandas C-grouped cummax (the same
        # vectorized trick sessionize uses — no per-key Python loop)
        incl = (
            pd.Series(tv).groupby(seg_id).cummax().to_numpy()
        ).astype(np.int64)
        wm = np.empty_like(incl)
        wm[1:] = incl[:-1]
        keep = np.ones(t.num_rows, bool)
        has_prior = np.ones(t.num_rows, bool)
        has_prior[starts] = False
        late = has_prior & (tv < wm - allowed_lateness_us)
        keep &= ~late
        return t.filter(pa.array(keep))

    return _window_exchange(
        ds, keys=[key_col], cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )
