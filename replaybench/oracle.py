"""Independent correctness oracle: DuckDB over the generated lake plus log.

Last-writer-wins by SQL window: per ``(conv_id, turn_idx)`` the row with the
highest ``(commit_lsn, intent_lsn)`` wins, snapshot rows sit at the snapshot
LSN, events at or below it are fenced off, and a winning delete drops the
key. The engine's state must match on row count and on an order-independent
sum of row hashes.
"""

from __future__ import annotations

PAYLOAD = "conv_id, turn_idx, role, text, tool, ts"
_HASH = f"sum(hash({PAYLOAD})::HUGEINT)"


def _connect():
    import duckdb

    from procs import nproc

    con = duckdb.connect()
    con.execute(f"SET threads = {nproc()}")
    return con


def _quote(path: str) -> str:
    return "'" + path.replace("'", "''") + "'"


def expected(lake_paths: list[str], log_path: str, snapshot_lsn: int) -> tuple[int, int]:
    """(rows, hash sum) of the state after applying the log to the lakes."""
    lakes = "[" + ", ".join(_quote(p) for p in lake_paths) + "]"
    hi, lo = snapshot_lsn >> 64, snapshot_lsn & ((1 << 64) - 1)
    sql = f"""
    WITH ev AS (
        SELECT {PAYLOAD}, 0::TINYINT AS op, {hi}::UBIGINT AS chi,
               {lo}::UBIGINT AS clo, 0::UBIGINT AS ihi, 0::UBIGINT AS ilo
        FROM read_parquet({lakes}, union_by_name = true)
        UNION ALL
        SELECT {PAYLOAD}, op, commit_lsn_hi, commit_lsn_lo,
               intent_lsn_hi, intent_lsn_lo
        FROM read_parquet({_quote(log_path)})
        WHERE commit_lsn_hi > {hi} OR (commit_lsn_hi = {hi} AND commit_lsn_lo > {lo})
    ), ranked AS (
        SELECT *, row_number() OVER (
            PARTITION BY conv_id, turn_idx
            ORDER BY chi DESC, clo DESC, ihi DESC, ilo DESC) AS rn
        FROM ev
    )
    SELECT count(*) FILTER (WHERE op <> 1),
           sum(hash({PAYLOAD})::HUGEINT) FILTER (WHERE op <> 1),
           count(*) FILTER (WHERE op = 3)
    FROM ranked WHERE rn = 1
    """
    con = _connect()
    try:
        rows, h, orphans = con.execute(sql).fetchone()
    finally:
        con.close()
    if orphans:
        raise ValueError(f"{orphans} keys end on an update before-image")
    return int(rows), int(h or 0)


def state_digest(tables) -> tuple[int, int]:
    """(rows, hash sum) of state tables (pyarrow), hashed like ``expected``."""
    import pyarrow as pa

    cols = [c.strip() for c in PAYLOAD.split(",")]
    parts = [t.select(cols) for t in tables if t.num_rows]
    if not parts:
        return 0, 0
    con = _connect()
    try:
        con.register("state", pa.concat_tables(parts))
        rows, h = con.execute(f"SELECT count(*), {_HASH} FROM state").fetchone()
    finally:
        con.close()
    return int(rows), int(h or 0)
