"""Multi-table replay (reference fixture: tablea/tableb streamed side by
side, Db2ConnectorIT.java:70-75,370-465) and interleaved incremental snapshot
with streaming (IncrementalSnapshotIT shape)."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.pipelines.oracle import oracle_apply
from debezium_connector_db2_ray.pipelines.replay import CdcEngine, plan_windows
from debezium_connector_db2_ray.sources.genlog import generate_scenario


def sorted_pdf(t):
    return (
        t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        .to_pandas()
        .reset_index(drop=True)
    )


def test_two_tables_replay_independently(ray_session, tmp_path):
    """Each captured table gets its own engine target (topic-per-table,
    Db2TopicSelector); a shared changelog stream routes by table name."""
    import ray.data as rd

    sc_a = generate_scenario(n_convs=15, turns_per_conv=4, n_commits=150, seed=51)
    sc_b = generate_scenario(n_convs=10, turns_per_conv=3, n_commits=100, seed=52)
    d = tmp_path / "data"
    d.mkdir()
    # shared stream with a routing column, as one capture process would emit
    cl_a = sc_a.changelog.append_column(
        "src_table", pa.array(["TRANSCRIPTS_A"] * sc_a.changelog.num_rows)
    )
    cl_b = sc_b.changelog.append_column(
        "src_table", pa.array(["TRANSCRIPTS_B"] * sc_b.changelog.num_rows)
    )
    pq.write_table(pa.concat_tables([cl_a, cl_b]), str(d / "stream.parquet"))
    pq.write_table(sc_a.lake, str(d / "lake_a.parquet"))
    pq.write_table(sc_b.lake, str(d / "lake_b.parquet"))

    for name, sc, lake in (
        ("TRANSCRIPTS_A", sc_a, "lake_a.parquet"),
        ("TRANSCRIPTS_B", sc_b, "lake_b.parquet"),
    ):
        out = str(tmp_path / f"out_{name}")
        eng = CdcEngine(out_dir=out, num_partitions=4, table_name=name)
        eng.snapshot(rd.read_parquet(str(d / lake)), sc.snapshot_lsn)
        stream = rd.read_parquet(str(d / "stream.parquet")).map_batches(
            lambda b, n=name: b.filter(pc.equal(b["src_table"], n)).drop_columns(
                ["src_table"]
            ),
            batch_format="pyarrow",
        )
        for lo, hi in plan_windows(sc.snapshot_lsn.increment(), sc.max_lsn, 2):
            eng.replay_window(stream, lo, hi)
        expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
        got = pa.Table.from_pandas(
            eng.state_dataset().to_pandas(), preserve_index=False
        ).select(expected.column_names)
        assert sorted_pdf(got).equals(sorted_pdf(expected))
        assert eng.schema_history.tables() == [name]


def test_incremental_snapshot_interleaved_with_streaming(ray_session, tmp_path):
    """Backfill chunks interleave with streaming windows; LWW watermark dedup
    keeps the result exact (the reference's incremental-snapshot watermark
    protocol, Db2ChangeEventSourceFactory.java:71-91)."""
    import ray.data as rd

    sc = generate_scenario(n_convs=20, turns_per_conv=4, n_commits=200, seed=53)
    d = tmp_path / "data"
    d.mkdir()
    pq.write_table(sc.lake, str(d / "lake.parquet"))
    pq.write_table(sc.changelog, str(d / "changelog.parquet"))
    out = str(tmp_path / "out")
    eng = CdcEngine(out_dir=out, num_partitions=6)
    lake = rd.read_parquet(str(d / "lake.parquet"))
    windows = plan_windows(sc.snapshot_lsn.increment(), sc.max_lsn, 3)

    # interleave: chunk 0, window 0, chunk 1, window 1, chunk 2, window 2
    # incremental_snapshot resumes at the next unfinished chunk each call
    for i, (lo, hi) in enumerate(windows):
        eng.incremental_snapshot(
            lake, sc.snapshot_lsn, n_chunks=3, max_chunks_per_call=1
        )
        eng.replay_window(
            rd.read_parquet(str(d / "changelog.parquet")), lo, hi
        )
    expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_connector_coordinates_multiple_tables(ray_session, tmp_path):
    """CdcConnector: discovery from the routing column, include/exclude +
    system-table filtering, per-table engines under one root, shared replay
    of one stream — the reference's single-task-many-topics shape."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn

    sc_a = generate_scenario(n_convs=12, turns_per_conv=4, n_commits=120, seed=61)
    sc_b = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=90, seed=62)
    d = tmp_path / "data"
    d.mkdir()
    cl_a = sc_a.changelog.append_column(
        "src_table", pa.array(["TABLEA"] * sc_a.changelog.num_rows)
    )
    cl_b = sc_b.changelog.append_column(
        "src_table", pa.array(["TABLEB"] * sc_b.changelog.num_rows)
    )
    # a system table in the stream must be hard-dropped from the capture set
    cl_sys = sc_b.changelog.slice(0, 5).append_column(
        "src_table", pa.array(["IBMSNAP_REGISTER"] * 5)
    )
    pq.write_table(
        pa.concat_tables([cl_a, cl_b, cl_sys]), str(d / "stream.parquet")
    )

    conn = CdcConnector(
        root_dir=str(tmp_path / "lakehouse"), num_partitions=4,
        table_exclude=("TABLEC",),
    )
    stream = rd.read_parquet(str(d / "stream.parquet"))
    assert conn.discover_tables(stream) == ["TABLEA", "TABLEB"]
    assert not conn.captures("IBMSNAP_REGISTER")
    assert not conn.captures("TABLEC")

    fences = {"TABLEA": sc_a, "TABLEB": sc_b}
    snap_lsn = sc_a.snapshot_lsn  # both scenarios share the default fence
    conn.snapshot_all(
        {
            "TABLEA": rd.from_arrow(sc_a.lake),
            "TABLEB": rd.from_arrow(sc_b.lake),
            "IBMSNAP_REGISTER": rd.from_arrow(sc_b.lake),  # must be ignored
        },
        snap_lsn,
    )
    assert not os.path.exists(str(tmp_path / "lakehouse" / "IBMSNAP_REGISTER"))
    hi = Lsn(0, max(sc_a.max_lsn.to_int(), sc_b.max_lsn.to_int()))
    ms = conn.replay(stream, snap_lsn, hi, 2)
    assert set(ms) == {"TABLEA", "TABLEB"}
    for name, sc in fences.items():
        expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
        got = pa.Table.from_pandas(
            conn.state(name).to_pandas(), preserve_index=False
        ).select(expected.column_names)
        assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_engine_with_custom_primary_key(ray_session, tmp_path):
    """A table keyed (id) instead of (conv_id, turn_idx): the engine's
    key_columns field drives partitioning, LWW collapse, merge-on-read and
    compaction — the per-table PK the reference reads from the catalog."""
    import numpy as np
    import ray.data as rd

    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.ops import OP_DELETE, OP_INSERT

    def log_table(rows):
        n = len(rows)
        return pa.table(
            {
                "commit_lsn_hi": pa.array([0] * n, pa.uint64()),
                "commit_lsn_lo": pa.array([r[0] for r in rows], pa.uint64()),
                "intent_lsn_hi": pa.array([0] * n, pa.uint64()),
                "intent_lsn_lo": pa.array([r[0] for r in rows], pa.uint64()),
                "op": pa.array([r[1] for r in rows], pa.int8()),
                "id": pa.array([r[2] for r in rows], pa.int64()),
                "val": pa.array([r[3] for r in rows], pa.string()),
            }
        )

    lake = pa.table(
        {"id": pa.array([1, 2, 3], pa.int64()), "val": ["a", "b", "c"]}
    )
    # stream: update id=1 twice (last wins), delete id=2, insert id=4
    log = log_table(
        [
            (110, OP_INSERT, 1, "a2"),
            (120, OP_DELETE, 2, "b"),
            (130, OP_INSERT, 4, "d"),
            (140, OP_INSERT, 1, "a3"),
        ]
    )
    out = str(tmp_path / "custom_key")
    eng = CdcEngine(
        out_dir=out, num_partitions=4, key_columns=("id",),
        table_name="widgets",
    )
    eng.snapshot(rd.from_arrow(lake), Lsn(0, 100))
    eng.replay_window(rd.from_arrow(log), Lsn(0, 100), Lsn(0, 140))
    got = eng.state_dataset().to_pandas().sort_values("id").reset_index(drop=True)
    assert list(got["id"]) == [1, 3, 4]
    assert list(got["val"]) == ["a3", "c", "d"]
    # compaction preserves the custom-keyed state
    eng.compact()
    got2 = eng.state_dataset().to_pandas().sort_values("id").reset_index(drop=True)
    assert list(got2["val"]) == ["a3", "c", "d"]
    # salting demands a composite key — single-column keys now refuse at
    # CONSTRUCTION (config.ensure_valid fail-fast, round-5 validation layer)
    import pytest as _pytest

    with _pytest.raises(ValueError, match="SECOND key column"):
        CdcEngine(
            out_dir=str(tmp_path / "salted"), num_partitions=4, salt=2,
            key_columns=("id",),
        )


def test_cli_compact_preserves_custom_key(ray_session, tmp_path):
    """Review regression: `cli compact` on a custom-PK lake must compact
    under the lake's live key, not the default transcript key."""
    import ray.data as rd

    from debezium_connector_db2_ray.cli import main as cli_main
    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.state.manifest import live_partitioning

    lake = pa.table({"id": pa.array([1, 2], pa.int64()), "val": ["a", "b"]})
    out = str(tmp_path / "custom_cli")
    eng = CdcEngine(out_dir=out, num_partitions=2, key_columns=("id",))
    eng.snapshot(rd.from_arrow(lake), Lsn(0, 100))
    rc = cli_main(["compact", "--out", out])
    assert rc == 0
    assert live_partitioning(out)["key"] == ["id"]
    got = CdcEngine(out_dir=out, num_partitions=2, key_columns=("id",)) \
        .state_dataset().to_pandas()
    assert sorted(got["id"]) == [1, 2]


def test_connector_kill_resume_multi_table(ray_session, tmp_path):
    """Connector-level kill/resume: half the windows replay, the process
    'dies', a fresh connector resumes — per-table watermarks skip committed
    windows and both tables converge to their oracles."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn

    sc_a = generate_scenario(n_convs=10, turns_per_conv=4, n_commits=100, seed=71)
    sc_b = generate_scenario(n_convs=7, turns_per_conv=3, n_commits=80, seed=72)
    d = tmp_path / "data"
    d.mkdir()
    cl_a = sc_a.changelog.append_column(
        "src_table", pa.array(["TA"] * sc_a.changelog.num_rows)
    )
    cl_b = sc_b.changelog.append_column(
        "src_table", pa.array(["TB"] * sc_b.changelog.num_rows)
    )
    pq.write_table(pa.concat_tables([cl_a, cl_b]), str(d / "stream.parquet"))
    root = str(tmp_path / "lh")
    snap = sc_a.snapshot_lsn
    hi = Lsn(0, max(sc_a.max_lsn.to_int(), sc_b.max_lsn.to_int()))
    mid = Lsn(0, (snap.to_int() + hi.to_int()) // 2)

    conn1 = CdcConnector(root_dir=root, num_partitions=4)
    stream = rd.read_parquet(str(d / "stream.parquet"))
    conn1.snapshot_all(
        {"TA": rd.from_arrow(sc_a.lake), "TB": rd.from_arrow(sc_b.lake)}, snap
    )
    conn1.replay(stream, snap, mid, 2)  # then "die"

    conn2 = CdcConnector(root_dir=root, num_partitions=4)  # fresh process
    # re-running the covered range is a no-op (watermark skip), then the
    # remaining range applies
    ms = conn2.replay(stream, snap, mid, 2)
    assert all(m == [] for m in ms.values())
    conn2.replay(stream, mid, hi, 2)
    for name, sc in (("TA", sc_a), ("TB", sc_b)):
        expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
        got = pa.Table.from_pandas(
            conn2.state(name).to_pandas(), preserve_index=False
        ).select(expected.column_names)
        assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_connector_root_signal_routed_and_drained(ray_session, tmp_path):
    """A signal enqueued at the connector ROOT (optionally targeted via
    data-collections) is routed to the per-table channels and processed
    between replay windows — the reference's single signal channel feeding
    the one streaming task (Db2ConnectorTask.java:142-161)."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.state.signals import (
        pending_signals,
        send_signal,
    )

    sc_a = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=71)
    sc_b = generate_scenario(n_convs=6, turns_per_conv=3, n_commits=60, seed=72)
    d = tmp_path / "data"
    d.mkdir()
    cl_a = sc_a.changelog.append_column(
        "src_table", pa.array(["TABLEA"] * sc_a.changelog.num_rows)
    )
    cl_b = sc_b.changelog.append_column(
        "src_table", pa.array(["TABLEB"] * sc_b.changelog.num_rows)
    )
    pq.write_table(pa.concat_tables([cl_a, cl_b]), str(d / "stream.parquet"))

    root = str(tmp_path / "lakehouse")
    conn = CdcConnector(root_dir=root, num_partitions=4)
    lakes = {
        "TABLEA": rd.from_arrow(sc_a.lake),
        "TABLEB": rd.from_arrow(sc_b.lake),
    }
    conn.snapshot_all(lakes, sc_a.snapshot_lsn)
    # root-level signal targeting ONLY TABLEA
    send_signal(
        root, "execute-snapshot",
        {"type": "INCREMENTAL", "chunks": 2, "data-collections": ["TABLEA"]},
    )
    stream = rd.read_parquet(str(d / "stream.parquet"))
    hi = Lsn(0, max(sc_a.max_lsn.to_int(), sc_b.max_lsn.to_int()))
    ms = conn.replay(stream, sc_a.snapshot_lsn, hi, 2, lakes=lakes)
    # the root signal is acked, TABLEA got incremental-snapshot manifests,
    # TABLEB did not
    assert pending_signals(root) == []
    assert pending_signals(os.path.join(root, "TABLEA")) == []
    a_kinds = {m.kind for m in ms["TABLEA"]}
    assert any(k.startswith("snapshot_chunk") for k in a_kinds), a_kinds
    assert not any(
        m.kind.startswith("snapshot_chunk") for m in ms["TABLEB"]
    )
    # correctness preserved for both tables
    for name, sc in (("TABLEA", sc_a), ("TABLEB", sc_b)):
        expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
        got = pa.Table.from_pandas(
            conn.state(name).to_pandas(), preserve_index=False
        ).select(expected.column_names)
        assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_zero_row_window_still_advances_watermark(ray_session, tmp_path):
    """Heartbeat contract (DatabaseHeartbeatImpl intent,
    Db2ConnectorConfig.java:541): a window containing NO events for the
    table must still commit a manifest that advances the resume watermark,
    so an idle table's offset keeps moving with the stream."""
    import ray.data as rd

    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.pipelines.replay import committed_watermark

    sc = generate_scenario(n_convs=6, turns_per_conv=3, n_commits=50, seed=73)
    out = str(tmp_path / "hb")
    eng = CdcEngine(out_dir=out, num_partitions=2)
    eng.snapshot(rd.from_arrow(sc.lake), sc.snapshot_lsn)
    # a window strictly ABOVE every event in the stream: zero rows inside
    lo = Lsn(0, sc.max_lsn.to_int() + 1000)
    hi = Lsn(0, sc.max_lsn.to_int() + 2000)
    stream = rd.from_arrow(sc.changelog)
    m = eng.replay_window(stream, lo, hi)
    assert m is not None and m.partitions == {}
    assert committed_watermark(out) == hi
    # resume planning starts after the advanced watermark: replaying the
    # same empty window again is a no-op skip
    m2 = eng.replay_window(stream, lo, hi)
    assert committed_watermark(out) == hi


def test_cli_connector_two_table_replay_and_resume(tmp_path):
    """The connector-level CLI drives a 2-table snapshot + replay, reports
    per-table status, and a second replay invocation RESUMES from the
    committed watermarks (no --from-lsn) without double-applying — the
    reference's one-task-many-tables operator surface
    (Db2Connector.java:55-61)."""
    import json
    import subprocess
    import sys

    sc_a = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=81)
    sc_b = generate_scenario(n_convs=6, turns_per_conv=3, n_commits=60, seed=82)
    d = tmp_path / "data"
    d.mkdir()
    cl_a = sc_a.changelog.append_column(
        "src_table", pa.array(["TABLEA"] * sc_a.changelog.num_rows)
    )
    cl_b = sc_b.changelog.append_column(
        "src_table", pa.array(["TABLEB"] * sc_b.changelog.num_rows)
    )
    pq.write_table(pa.concat_tables([cl_a, cl_b]), str(d / "stream.parquet"))
    pq.write_table(sc_a.lake, str(d / "lake_a.parquet"))
    pq.write_table(sc_b.lake, str(d / "lake_b.parquet"))
    root = str(tmp_path / "lakehouse")

    def cli(*argv):
        r = subprocess.run(
            [sys.executable, "-m", "debezium_connector_db2_ray.cli",
             "--num-cpus", "2", *argv],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    snap_lsn = sc_a.snapshot_lsn.to_int()
    out = cli(
        "connector", "snapshot", "--root", root,
        "--lake", f"TABLEA={d / 'lake_a.parquet'}",
        "--lake", f"TABLEB={d / 'lake_b.parquet'}",
        "--snapshot-lsn", str(snap_lsn), "--partitions", "4",
    )
    assert set(out["snapshots"]) == {"TABLEA", "TABLEB"}
    mid = (snap_lsn + sc_a.max_lsn.to_int()) // 2
    hi = max(sc_a.max_lsn.to_int(), sc_b.max_lsn.to_int())
    out = cli(
        "connector", "replay", "--root", root,
        "--stream", str(d / "stream.parquet"),
        "--from-lsn", str(snap_lsn), "--to-lsn", str(mid),
        "--windows", "2", "--partitions", "4",
    )
    assert set(out["streams"]) == {"TABLEA", "TABLEB"}
    # resume: NO --from-lsn — picks up from the committed watermarks
    out = cli(
        "connector", "replay", "--root", root,
        "--stream", str(d / "stream.parquet"),
        "--to-lsn", str(hi), "--windows", "2", "--partitions", "4",
    )
    status = cli("connector", "status", "--root", root)
    assert set(status["tables"]) == {"TABLEA", "TABLEB"}
    for t in ("TABLEA", "TABLEB"):
        assert status["tables"][t]["watermark"] == hi
    # exactness after the resumed two-phase replay
    import ray.data as rd  # session-level ray from other tests may be gone

    from debezium_connector_db2_ray.connector import CdcConnector

    conn = CdcConnector(root_dir=root, num_partitions=4)
    for name, sc in (("TABLEA", sc_a), ("TABLEB", sc_b)):
        expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
        got = pa.Table.from_pandas(
            conn.state(name).to_pandas(), preserve_index=False
        ).select(expected.column_names)
        assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_connector_column_exclude_projection(ray_session, tmp_path):
    """Per-table column.exclude.list (the reference inherits it from
    RelationalDatabaseConnectorConfig): excluded payload columns are
    projected out of BOTH the snapshot and the stream, so state never
    carries them; key/metadata columns are refused loudly."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn

    sc_a = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=91)
    sc_b = generate_scenario(n_convs=6, turns_per_conv=3, n_commits=60, seed=92)
    d = tmp_path / "data"
    d.mkdir()
    cl_a = sc_a.changelog.append_column(
        "src_table", pa.array(["TABLEA"] * sc_a.changelog.num_rows)
    )
    cl_b = sc_b.changelog.append_column(
        "src_table", pa.array(["TABLEB"] * sc_b.changelog.num_rows)
    )
    pq.write_table(pa.concat_tables([cl_a, cl_b]), str(d / "stream.parquet"))

    conn = CdcConnector(
        root_dir=str(tmp_path / "lakehouse"), num_partitions=4,
        column_exclude={"TABLEA": ("tool",)},
    )
    lakes = {
        "TABLEA": rd.from_arrow(sc_a.lake),
        "TABLEB": rd.from_arrow(sc_b.lake),
    }
    conn.snapshot_all(lakes, sc_a.snapshot_lsn)
    stream = rd.read_parquet(str(d / "stream.parquet"))
    hi = Lsn(0, max(sc_a.max_lsn.to_int(), sc_b.max_lsn.to_int()))
    conn.replay(stream, sc_a.snapshot_lsn, hi, 2)
    got_a = conn.state("TABLEA").to_pandas()
    got_b = conn.state("TABLEB").to_pandas()
    assert "tool" not in got_a.columns
    assert "tool" in got_b.columns
    # values still exact on the surviving columns
    for name, sc, got in (("TABLEA", sc_a, got_a), ("TABLEB", sc_b, got_b)):
        expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
        cols = [c for c in expected.column_names if c in got.columns]
        want = pa.Table.from_pandas(
            expected.to_pandas()[cols], preserve_index=False
        )
        have = pa.Table.from_pandas(got, preserve_index=False).select(cols)
        assert sorted_pdf(have).equals(sorted_pdf(want))
    # refusals: key or metadata columns
    bad = CdcConnector(
        root_dir=str(tmp_path / "lh2"),
        column_exclude={"T": ("conv_id",)},
    )
    with pytest.raises(ValueError, match="key/metadata"):
        bad.excluded_columns("T")
    bad2 = CdcConnector(
        root_dir=str(tmp_path / "lh3"),
        column_exclude={"T": ("commit_lsn_hi",)},
    )
    with pytest.raises(ValueError, match="key/metadata"):
        bad2.excluded_columns("T")


def test_signal_snapshot_respects_column_exclude(ray_session, tmp_path):
    """A signal-driven incremental snapshot must read the lake through the
    SAME column.exclude.list projection as the initial snapshot and the
    stream — otherwise chunk deltas reintroduce the excluded (e.g. PII)
    column into state and generations diverge in schema."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.state.signals import send_signal

    sc = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=93)
    d = tmp_path / "data"
    d.mkdir()
    cl = sc.changelog.append_column(
        "src_table", pa.array(["TABLEA"] * sc.changelog.num_rows)
    )
    pq.write_table(cl, str(d / "stream.parquet"))

    root = str(tmp_path / "lakehouse")
    conn = CdcConnector(
        root_dir=root, num_partitions=4,
        column_exclude={"TABLEA": ("tool",)},
    )
    lakes = {"TABLEA": rd.from_arrow(sc.lake)}
    conn.snapshot_all(lakes, sc.snapshot_lsn)
    send_signal(
        root, "execute-snapshot",
        {"type": "INCREMENTAL", "chunks": 2, "data-collections": ["TABLEA"]},
    )
    stream = rd.read_parquet(str(d / "stream.parquet"))
    hi = Lsn(0, sc.max_lsn.to_int())
    ms = conn.replay(stream, sc.snapshot_lsn, hi, 2, lakes=lakes)
    kinds = {m.kind for m in ms["TABLEA"]}
    assert any(k.startswith("snapshot_chunk") for k in kinds), kinds
    got = conn.state("TABLEA").to_pandas()
    assert "tool" not in got.columns
    expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
    cols = [c for c in expected.column_names if c != "tool"]
    want = pa.Table.from_pandas(expected.to_pandas()[cols], preserve_index=False)
    have = pa.Table.from_pandas(got, preserve_index=False).select(cols)
    assert sorted_pdf(have).equals(sorted_pdf(want))


def test_root_signal_for_quiet_table_not_lost(ray_session, tmp_path):
    """A root signal targeting a captured table with ZERO events in the
    current stream must still be forwarded (and, with a lake present,
    executed) — not silently acked away. The quiet table also keeps
    receiving heartbeat windows so its watermark tracks the stream."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.pipelines.replay import committed_watermark
    from debezium_connector_db2_ray.state.signals import (
        pending_signals,
        send_signal,
    )

    sc_a = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=94)
    sc_b = generate_scenario(n_convs=6, turns_per_conv=3, n_commits=60, seed=95)
    d = tmp_path / "data"
    d.mkdir()
    # stream carries ONLY TABLEA events; TABLEB is captured but quiet
    cl_a = sc_a.changelog.append_column(
        "src_table", pa.array(["TABLEA"] * sc_a.changelog.num_rows)
    )
    pq.write_table(cl_a, str(d / "stream.parquet"))

    root = str(tmp_path / "lakehouse")
    conn = CdcConnector(root_dir=root, num_partitions=4)
    lakes = {
        "TABLEA": rd.from_arrow(sc_a.lake),
        "TABLEB": rd.from_arrow(sc_b.lake),
    }
    snap_lsn = sc_a.snapshot_lsn
    conn.snapshot_all(lakes, snap_lsn)
    send_signal(
        root, "execute-snapshot",
        {"type": "INCREMENTAL", "chunks": 2, "data-collections": ["TABLEB"]},
    )
    stream = rd.read_parquet(str(d / "stream.parquet"))
    hi = Lsn(0, sc_a.max_lsn.to_int())
    ms = conn.replay(stream, snap_lsn, hi, 2, lakes=lakes)
    # the signal reached TABLEB and was executed, nothing left pending
    assert pending_signals(root) == []
    assert pending_signals(os.path.join(root, "TABLEB")) == []
    b_kinds = {m.kind for m in ms.get("TABLEB", [])}
    assert any(k.startswith("snapshot_chunk") for k in b_kinds), b_kinds
    # heartbeat: the quiet table's watermark advanced with the stream
    assert committed_watermark(os.path.join(root, "TABLEB")) == hi
    # TABLEA state still exact
    expected = oracle_apply(sc_a.lake, sc_a.ordered_changelog, snap_lsn)
    got = pa.Table.from_pandas(
        conn.state("TABLEA").to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_connector_snapshot_select_override(ray_session, tmp_path):
    """snapshot.select.statement.overrides parity: a per-table predicate
    narrows the INITIAL snapshot only — streaming stays unfiltered
    (RelationalSnapshotChangeEventSource#determineSnapshotSelect). Final
    state equals the oracle applied to the FILTERED lake."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn

    sc = generate_scenario(n_convs=12, turns_per_conv=3, n_commits=120,
                           seed=93)
    d = tmp_path / "data"
    d.mkdir()
    cl = sc.changelog.append_column(
        "src_table", pa.array(["TABLEA"] * sc.changelog.num_rows)
    )
    pq.write_table(cl, str(d / "stream.parquet"))

    def only_low_convs(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["conv_id"], "conv_6"))

    conn = CdcConnector(
        root_dir=str(tmp_path / "lakehouse"), num_partitions=4,
        snapshot_override={"TABLEA": only_low_convs},
    )
    lakes = {"TABLEA": rd.from_arrow(sc.lake)}
    conn.snapshot_all(lakes, sc.snapshot_lsn)
    stream = rd.read_parquet(str(d / "stream.parquet"))
    conn.replay(stream, sc.snapshot_lsn, sc.max_lsn, 2)
    got = conn.state("TABLEA").to_pandas()

    filtered_lake = only_low_convs(sc.lake)
    expected = oracle_apply(
        filtered_lake, sc.ordered_changelog, sc.snapshot_lsn
    )
    have = pa.Table.from_pandas(got, preserve_index=False).select(
        expected.column_names
    )
    assert sorted_pdf(have).equals(sorted_pdf(expected))
    # the filter really bit: some high conv never snapshotted or streamed
    assert len(got) < sc.lake.num_rows + sc.changelog.num_rows


def _shared_stream(d, scenarios: dict) -> str:
    """Write one stream routing every ``name -> scenario`` changelog by
    ``src_table``; the generated scenarios share (conv_id, turn_idx) keys."""
    path = str(d / "stream.parquet")
    pq.write_table(pa.concat_tables([
        sc.changelog.append_column(
            "src_table", pa.array([name] * sc.changelog.num_rows)
        )
        for name, sc in scenarios.items()
    ]), path)
    return path


def _assert_state(conn, name, expected, cols=None):
    cols = cols or expected.column_names
    want = pa.Table.from_pandas(expected.to_pandas()[cols], preserve_index=False)
    got = pa.Table.from_pandas(
        conn.state(name).to_pandas(), preserve_index=False
    ).select(cols)
    assert sorted_pdf(got).equals(sorted_pdf(want)), name


@pytest.mark.parametrize("exchange,validate_pairs", [
    ("shuffle", True), ("shuffle", False), ("write", False),
])
def test_routed_apply_matches_per_table_oracle(ray_session, tmp_path,
                                               exchange, validate_pairs):
    """The one window job routes each table's rows to that table only, on
    both exchanges and the shuffle fast path (whose partial collapse runs
    by (table, key): the two tables share keys). TA drops an excluded
    column and TB is fenced at its capture instance's stop LSN."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.stages.apply import stop_lsn_fence

    sc_a = generate_scenario(n_convs=10, turns_per_conv=4, n_commits=120, seed=101)
    sc_b = generate_scenario(n_convs=10, turns_per_conv=4, n_commits=120, seed=102)
    d = tmp_path / "data"
    d.mkdir()
    stream = _shared_stream(d, {"TA": sc_a, "TB": sc_b})
    snap = sc_a.snapshot_lsn
    hi = Lsn(0, max(sc_a.max_lsn.to_int(), sc_b.max_lsn.to_int()))
    stop = Lsn(0, (snap.to_int() + sc_b.max_lsn.to_int()) // 2)
    conn = CdcConnector(
        root_dir=str(tmp_path / "lh"), num_partitions=4, exchange=exchange,
        validate_pairs=validate_pairs, column_exclude={"TA": ("tool",)},
        stop_lsns={"TB": stop},
    )
    conn.snapshot_all(
        {"TA": rd.from_arrow(sc_a.lake), "TB": rd.from_arrow(sc_b.lake)}, snap
    )
    conn.replay(rd.read_parquet(stream), snap, hi, 3)
    exp_a = oracle_apply(sc_a.lake, sc_a.ordered_changelog, snap)
    _assert_state(conn, "TA", exp_a,
                  [c for c in exp_a.column_names if c != "tool"])
    assert "tool" not in conn.state("TA").to_pandas().columns
    _assert_state(conn, "TB", oracle_apply(
        sc_b.lake, stop_lsn_fence(sc_b.ordered_changelog, stop), snap))


_KILL_BETWEEN_TABLE_COMMITS = """
import os, signal, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=80 * 1024 * 1024)
import ray.data as rd
from debezium_connector_db2_ray.connector import CdcConnector
from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines import replay

root, stream, snap, top, kill_at = sys.argv[1:6]
real = replay.commit_manifest

def commit_or_die(out_dir, m):
    if (os.path.basename(out_dir) == "t1" and m.kind == "stream"
            and m.to_lsn == kill_at):
        os.kill(os.getpid(), signal.SIGKILL)  # t0 has committed this window
    return real(out_dir, m)

replay.commit_manifest = commit_or_die
CdcConnector(root_dir=root, num_partitions=4).replay(
    rd.read_parquet(stream), Lsn.from_int(int(snap)), Lsn.from_int(int(top)), 3)
"""


def test_kill_between_table_commits_resumes(ray_session, tmp_path,
                                            run_until_killed):
    """A process killed between two tables' commits of one window: on
    resume only the uncommitted table gets that window, so each table holds
    exactly one manifest for it, both reach the max LSN and both states
    equal their oracles."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.state.manifest import (
        committed_watermark,
        load_manifests,
    )

    sc = {"t0": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=90, seed=111),
          "t1": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=90, seed=112)}
    d = tmp_path / "data"
    d.mkdir()
    stream = _shared_stream(d, sc)
    root = str(tmp_path / "lh")
    snap = sc["t0"].snapshot_lsn
    hi = Lsn(0, max(s.max_lsn.to_int() for s in sc.values()))
    CdcConnector(root_dir=root, num_partitions=4).snapshot_all(
        {t: rd.from_arrow(s.lake) for t, s in sc.items()}, snap
    )
    kill_at = plan_windows(snap.increment(), hi, 3)[1][1]
    run_until_killed(_KILL_BETWEEN_TABLE_COMMITS, root, stream,
                     str(snap.to_int()), str(hi.to_int()), kill_at.hex())
    assert committed_watermark(os.path.join(root, "t0")) == kill_at
    assert committed_watermark(os.path.join(root, "t1")) < kill_at

    conn = CdcConnector(root_dir=root, num_partitions=4)
    conn.replay(rd.read_parquet(stream), snap, hi, 3)
    for t, s in sc.items():
        out = os.path.join(root, t)
        assert [m.to_lsn for m in load_manifests(out)
                if m.kind == "stream"].count(kill_at.hex()) == 1, t
        assert committed_watermark(out) == hi
        _assert_state(conn, t, oracle_apply(s.lake, s.ordered_changelog, snap))


def test_connector_window_is_one_job(ray_session, tmp_path, monkeypatch):
    """A 2-table connector replay of N windows on the shuffle exchange runs
    N Ray Data jobs (one execution each) and materializes nothing."""
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.lsn import Lsn

    sc = {"TA": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=121),
          "TB": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=122)}
    d = tmp_path / "data"
    d.mkdir()
    stream = rd.read_parquet(_shared_stream(d, sc))
    snap = sc["TA"].snapshot_lsn
    hi = Lsn(0, max(s.max_lsn.to_int() for s in sc.values()))
    conn = CdcConnector(root_dir=str(tmp_path / "lh"), num_partitions=4)
    conn.snapshot_all({t: rd.from_arrow(s.lake) for t, s in sc.items()}, snap)

    calls = []
    execute = ExecutionPlan.execute_to_iterator

    def counted(self, *a, **kw):
        calls.append(1)
        return execute(self, *a, **kw)

    def refuse(self, *a, **kw):
        raise AssertionError("a connector window materialized a Dataset")

    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", counted)
    monkeypatch.setattr(rd.Dataset, "materialize", refuse)
    n = 3
    ms = conn.replay(stream, snap, hi, n, tables=sorted(sc))
    assert len(calls) == n
    assert {t: len(m) for t, m in ms.items()} == {"TA": n, "TB": n}
    monkeypatch.undo()
    for t, s in sc.items():
        _assert_state(conn, t, oracle_apply(s.lake, s.ordered_changelog, snap))
