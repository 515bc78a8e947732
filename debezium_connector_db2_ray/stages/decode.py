"""Raw capture-row decode: D/I classification into opcodes + envelope op map.

The reference pushes opcode classification into SQL: within one commit
(IBMSNAP_COMMITSEQ), ordered by intent (IBMSNAP_INTENTSEQ), a 'D' row
immediately followed by an 'I' row is an update pair (opcodes 3/4); a
standalone 'D' is DELETE (1), a standalone 'I' is INSERT (2); z/OS adds a
single-record update 'U' -> 5
(reference: platform/LuwPlatform.java:29-39 LEAD/LAG variant,
platform/ZOsPlatform.java:29-49 ROW_NUMBER variant,
codes Db2ChangeRecordEmitter.java:20-24).

Here classification is a vectorized numpy kernel over a table ALREADY SORTED
by (commit_lsn, intent_lsn). Sorting contract: the caller classifies either a
globally-sorted small table, or — the scale path — inside a hash partition
after the conv_id shuffle, where every pair is guaranteed co-located because
an update pair shares its primary key (PK updates are emitted as
DELETE+INSERT, reference: Db2ConnectorIT.java:161-257).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from debezium_connector_db2_ray.lsn import position_order
from debezium_connector_db2_ray.ops import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE_AFTER,
    OP_UPDATE_BEFORE,
    OP_UPDATE_SINGLE,
)


def drop_null_lsn(batch: pa.Table) -> pa.Table:
    """Skip NULL-LSN rows (reference logs an error and continues,
    Db2StreamingChangeEventSource.java:203-207)."""
    mask = pc.and_(
        pc.is_valid(batch["commit_lsn_hi"]), pc.is_valid(batch["commit_lsn_lo"])
    )
    if pc.all(mask).as_py():
        return batch
    return batch.filter(mask)


def sort_by_position(table: pa.Table) -> pa.Table:
    """Stable sort by (commit_lsn, intent_lsn)."""
    idx = position_order(
        table["commit_lsn_hi"].to_numpy(zero_copy_only=False),
        table["commit_lsn_lo"].to_numpy(zero_copy_only=False),
        table["intent_lsn_hi"].to_numpy(zero_copy_only=False),
        table["intent_lsn_lo"].to_numpy(zero_copy_only=False),
    )
    return table.take(idx)


def classify_ops(sorted_table: pa.Table, raw_col: str = "op_raw") -> pa.Table:
    """Replace a raw D/I/U char column with the int8 ``op`` opcode column.

    ``sorted_table`` must be sorted by (commit_lsn, intent_lsn); same-commit
    adjacency determines update pairs (D immediately followed by I -> 3, 4).
    """
    raw = np.asarray(sorted_table[raw_col].to_numpy(zero_copy_only=False), dtype="U1")
    chi = sorted_table["commit_lsn_hi"].to_numpy(zero_copy_only=False)
    clo = sorted_table["commit_lsn_lo"].to_numpy(zero_copy_only=False)
    n = len(raw)
    op = np.empty(n, dtype=np.int8)

    same_commit_next = np.zeros(n, dtype=bool)
    if n > 1:
        same_commit_next[:-1] = (chi[:-1] == chi[1:]) & (clo[:-1] == clo[1:])
    next_is_i = np.zeros(n, dtype=bool)
    if n > 1:
        next_is_i[:-1] = raw[1:] == "I"

    is_d = raw == "D"
    is_i = raw == "I"
    is_u = raw == "U"
    upd_before = is_d & same_commit_next & next_is_i
    upd_after = np.zeros(n, dtype=bool)
    upd_after[1:] = upd_before[:-1]

    op[is_d] = OP_DELETE
    op[is_i] = OP_INSERT
    op[upd_before] = OP_UPDATE_BEFORE
    op[is_i & upd_after] = OP_UPDATE_AFTER
    op[is_u] = OP_UPDATE_SINGLE

    bad = ~(is_d | is_i | is_u)
    if bad.any():
        raise ValueError(f"unknown raw operation chars: {set(raw[bad])}")

    i = sorted_table.column_names.index(raw_col)
    return sorted_table.set_column(i, "op", pa.array(op, pa.int8()))


def classify_parquet_stream(path, *, groups_per_task: int = 4,
                            raw_col: str = "op_raw"):
    """Zero-shuffle opcode classification of a file-resident raw D/I stream
    whose multi-row commits may straddle row-group — or FILE — boundaries;
    the general scale path replacing the round-1 hash(commit_lsn)
    all-to-all.

    ``path`` is a single parquet file, a DIRECTORY of position-sorted
    shards, or an explicit list of files. Shards are taken in lexicographic
    filename order, which must equal position order (the writer contract
    for a captured changelog: shard i's last position < shard i+1's first —
    the multi-file analog of the reference's single ordered CD cursor,
    platform/LuwPlatform.java:29-39). Within that contract, a commit pair
    split across two shards classifies exactly like one inside a file.

    Overlapped scan: the GLOBAL row-group sequence across all shards is
    split into contiguous task ranges driver-side; each task reads its
    groups PLUS one peek row group on each side — the peek group may live
    in the previous/next file — classifies with full adjacency, and emits
    exactly its own rows. Classification of a row depends only on its
    immediate neighbors (a D directly followed by a same-commit I is an
    update pair), so one peek row on each side already gives every owned
    row its true context — the peek group is more than enough and commits
    of any size are safe. Deterministic, no all-to-all, overlap cost = 2
    row groups per task.
    """
    import glob
    import os

    import ray

    if isinstance(path, (list, tuple)):
        files = [str(p) for p in path]
    elif os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    else:
        files = [str(path)]
    if not files:
        raise ValueError(f"classify_parquet_stream: no parquet files in {path!r}")

    # global (file, row group) sequence across shards — metadata only
    units: list[tuple[int, int, int]] = []  # (file_idx, group_idx, num_rows)
    for fi, fp in enumerate(files):
        md = pq.ParquetFile(fp).metadata
        for g in range(md.num_row_groups):
            units.append((fi, g, md.row_group(g).num_rows))
    n_units = len(units)
    ranges = [
        (lo, min(lo + groups_per_task, n_units))
        for lo in range(0, n_units, groups_per_task)
    ]
    # each task ships ONLY its own unit slice (+peek) and precomputed own
    # offsets — per-task metadata stays O(groups_per_task) at any file count
    items = []
    for lo, hi in ranges:
        peek_lo, peek_hi = max(0, lo - 1), min(n_units, hi + 1)
        span = units[peek_lo:peek_hi]
        fidx = sorted({u[0] for u in span})
        remap = {fi: i for i, fi in enumerate(fidx)}
        items.append({
            "files": [files[fi] for fi in fidx],
            "units": [(remap[fi_], g, nr) for fi_, g, nr in span],
            "own_start": sum(u[2] for u in units[peek_lo:lo]),
            "own_len": sum(u[2] for u in units[lo:hi]),
        })

    def _read_units(files_, us) -> pa.Table:
        """Read a contiguous unit slice, batching row groups per file."""
        parts, cur_f, cur_gs = [], None, []
        for fi, g, _ in us:
            if fi != cur_f and cur_gs:
                parts.append(
                    pq.ParquetFile(files_[cur_f]).read_row_groups(cur_gs)
                )
                cur_gs = []
            cur_f = fi
            cur_gs.append(g)
        if cur_gs:
            parts.append(
                pq.ParquetFile(files_[cur_f]).read_row_groups(cur_gs)
            )
        return pa.concat_tables(parts)

    def classify_range(batch: pa.Table) -> pa.Table:
        outs = []
        for row in batch.to_pylist():
            t = _read_units(row["files"], row["units"])
            # the stream is position-sorted by contract, so the stable sort
            # is an identity permutation and row indices survive it
            t = sort_by_position(t)
            classified = classify_ops(t, raw_col=raw_col)
            own = np.zeros(len(classified), dtype=bool)
            own[row["own_start"]: row["own_start"] + row["own_len"]] = True
            outs.append(classified.filter(pa.array(own)))
        if not outs:
            return pa.table({})
        return pa.concat_tables(outs)

    return ray.data.from_items(items).map_batches(
        classify_range, batch_format="pyarrow", batch_size=1
    )
