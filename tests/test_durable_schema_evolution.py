"""Durable-path schema evolution: a later window carries a WIDER payload
(added column + widened int type); merge-on-read unifies, old winners are
null-backfilled, and the schema history records the ALTER."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.ops import OP_INSERT, OP_UPDATE_SINGLE
from debezium_connector_db2_ray.pipelines.replay import CdcEngine
from debezium_connector_db2_ray.schema import PAYLOAD_SCHEMA, changelog_schema
from debezium_connector_db2_ray.sources.genlog import generate_lake


def _mk_window(rows, payload_schema):
    cols = {
        "commit_lsn_hi": pa.array([0] * len(rows), pa.uint64()),
        "commit_lsn_lo": pa.array([r[0] for r in rows], pa.uint64()),
        "intent_lsn_hi": pa.array([0] * len(rows), pa.uint64()),
        "intent_lsn_lo": pa.array([r[0] for r in rows], pa.uint64()),
        "op": pa.array([r[1] for r in rows], pa.int8()),
    }
    for i, f in enumerate(payload_schema):
        cols[f.name] = pa.array([r[2 + i] for r in rows], f.type)
    return pa.table(cols, schema=changelog_schema(payload_schema))


def test_durable_widened_window(ray_session, tmp_path):
    import ray.data as rd

    lake = generate_lake(6, 3, seed=71)
    d = tmp_path / "data"
    d.mkdir()
    pq.write_table(lake, str(d / "lake.parquet"))

    # window 1: original payload
    w1 = _mk_window(
        [
            (1001, OP_UPDATE_SINGLE, "conv_000000", 0, "user", "w1-upd", None, 0),
        ],
        PAYLOAD_SCHEMA,  # conv, turn(int32), role, text, tool, ts
    )
    # window 2: turn_idx widened to int64, lang added
    wide = pa.schema(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int64()),
            ("role", pa.string()),
            ("text", pa.string()),
            ("tool", pa.string()),
            ("ts", pa.timestamp("us")),
            ("lang", pa.string()),
        ]
    )
    w2 = _mk_window(
        [
            (1002, OP_INSERT, "conv_000001", 9_000_000_000, "user", "w2-big-turn",
             None, 0, "en"),
            (1003, OP_UPDATE_SINGLE, "conv_000002", 1, "user", "w2-upd", None, 0,
             "fr"),
        ],
        wide,
    )
    pq.write_table(w1, str(d / "w1.parquet"))
    pq.write_table(w2, str(d / "w2.parquet"))

    out = str(tmp_path / "target")
    eng = CdcEngine(out_dir=out, num_partitions=4)
    snap = Lsn(0, 1000)
    eng.snapshot(rd.read_parquet(str(d / "lake.parquet")), snap)
    eng.replay_window(rd.read_parquet(str(d / "w1.parquet")), snap, Lsn(0, 1001))
    eng.replay_window(
        rd.read_parquet(str(d / "w2.parquet")), Lsn(0, 1001), Lsn(0, 1003)
    )

    df = eng.state_dataset().to_pandas()
    assert "lang" in df.columns
    by_key = {
        (r.conv_id, int(r.turn_idx)): r for r in df.itertuples()
    }
    assert by_key[("conv_000000", 0)].text == "w1-upd"
    assert by_key[("conv_000000", 0)].lang is None  # null-backfilled
    assert by_key[("conv_000001", 9_000_000_000)].lang == "en"  # widened key value
    assert by_key[("conv_000002", 1)].text == "w2-upd"
    # untouched snapshot rows survive with lang null
    assert by_key[("conv_000003", 2)].lang is None
    # ALTER recorded at the widening window's from_lsn
    hist = eng.schema_history
    kinds = [r["kind"] for r in hist._records]
    assert kinds == ["CREATE", "ALTER"]
    latest = hist.boundaries("transcripts")[-1][1]
    assert latest.field("turn_idx").type == pa.int64()
    assert "lang" in latest.names


def test_alter_with_default_backfills_typed_values(ray_session, tmp_path):
    """A column added by ALTER with a catalog DEFAULT backfills pre-ALTER
    rows with the TYPED default (not null) at merge-on-read, survives
    mixed-generation partitions, and persists through compaction
    (AbstractDb2DefaultValueIT semantics; expression parsing
    Db2DefaultValueConverter.java:109-229)."""
    import pyarrow as pa
    import ray.data as rd

    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.ops import OP_INSERT
    from debezium_connector_db2_ray.pipelines.replay import CdcEngine
    from debezium_connector_db2_ray.schema import attach_column_defaults

    lake = pa.table(
        {
            "conv_id": ["c1", "c2"],
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": ["user", "user"],
            "text": ["one", "two"],
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([0, 0], pa.timestamp("us")),
        }
    )
    out = str(tmp_path / "defaults")
    eng = CdcEngine(out_dir=out, num_partitions=2)
    eng.snapshot(rd.from_arrow(lake), Lsn(0, 100))

    # v2 stream: ALTER adds priority INT DEFAULT 5 and label CHAR(4) 'ab'
    v2_payload = pa.schema(
        list(lake.schema)
        + [pa.field("priority", pa.int32()), pa.field("label", pa.string())]
    )
    v2_payload = attach_column_defaults(
        v2_payload, {"priority": "5", "label": ("'ab'", "CHAR(4)")}
    )
    n = 1
    log = pa.table(
        {
            "commit_lsn_hi": pa.array([0] * n, pa.uint64()),
            "commit_lsn_lo": pa.array([150], pa.uint64()),
            "intent_lsn_hi": pa.array([0] * n, pa.uint64()),
            "intent_lsn_lo": pa.array([150], pa.uint64()),
            "op": pa.array([OP_INSERT] * n, pa.int8()),
            "conv_id": pa.array(["c3"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["user"], pa.string()),
            "text": pa.array(["three"], pa.string()),
            "tool": pa.array([None], pa.string()),
            "ts": pa.array([0], pa.timestamp("us")),
            "priority": pa.array([9], pa.int32()),
            "label": pa.array(["xyz "], pa.string()),
        },
        schema=pa.schema(
            [
                ("commit_lsn_hi", pa.uint64()),
                ("commit_lsn_lo", pa.uint64()),
                ("intent_lsn_hi", pa.uint64()),
                ("intent_lsn_lo", pa.uint64()),
                ("op", pa.int8()),
            ]
            + list(v2_payload)
        ),
    )
    eng.replay_window(rd.from_arrow(log), Lsn(0, 100), Lsn(0, 200))
    got = eng.state_dataset().to_pandas().sort_values("conv_id").reset_index(drop=True)
    assert list(got["conv_id"]) == ["c1", "c2", "c3"]
    # pre-ALTER rows: typed defaults, not nulls; post-ALTER row keeps values
    assert list(got["priority"]) == [5, 5, 9]
    assert list(got["label"]) == ["ab  ", "ab  ", "xyz "]  # CHAR(4) padded
    # compaction materializes the defaults into the new base files
    eng.compact()
    got2 = eng.state_dataset().to_pandas().sort_values("conv_id").reset_index(drop=True)
    assert list(got2["priority"]) == [5, 5, 9]
    assert list(got2["label"]) == ["ab  ", "ab  ", "xyz "]


_WITH_LANG = PAYLOAD_SCHEMA.append(pa.field("lang", pa.string()))
_LANG_ROWS = [
    (1002, OP_INSERT, "conv_000001", 7, "user", "w2-new", None, 0, "en"),
    (1003, OP_UPDATE_SINGLE, "conv_000002", 1, "user", "w2-upd", None, 0, "fr"),
]


@pytest.mark.parametrize("exchange", ["shuffle", "write"])
def test_window_alter_recorded_without_dataset_schema_probe(
    ray_session, tmp_path, monkeypatch, exchange
):
    """The ALTER is read from a staged file's footer: neither the snapshot
    nor a map_batches-derived (routed) window runs a Dataset.schema() job."""
    import ray.data as rd

    real_schema = rd.Dataset.schema

    def no_probe(self, fetch_if_missing=True):
        if fetch_if_missing:
            raise AssertionError("Dataset.schema() would run a Ray job")
        return real_schema(self, fetch_if_missing=False)

    monkeypatch.setattr(rd.Dataset, "schema", no_probe)
    eng = CdcEngine(out_dir=str(tmp_path / "t"), num_partitions=4,
                    exchange=exchange, validate_pairs=exchange == "shuffle")
    snap = Lsn(0, 1000)
    eng.snapshot(rd.from_arrow(generate_lake(6, 3, seed=71)), snap)
    window = rd.from_arrow(_mk_window(_LANG_ROWS, _WITH_LANG)).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    m = eng.replay_window(window, snap, Lsn(0, 1003))

    assert m is not None and sum(p["rows"] for p in m.partitions.values()) == 2
    hist = eng.schema_history
    assert [r["kind"] for r in hist._records] == ["CREATE", "ALTER"]
    latest = hist.boundaries("transcripts")[-1][1]
    assert latest.names == _WITH_LANG.names  # no meta or __part columns


def test_failed_schema_history_write_raises(ray_session, tmp_path, monkeypatch):
    """A history write that fails propagates out of replay_window, before
    the commit: the window stays uncommitted and a re-run records it."""
    import ray.data as rd

    from debezium_connector_db2_ray.state.manifest import committed_watermark
    from debezium_connector_db2_ray.state.schema_log import SchemaHistory

    out = str(tmp_path / "t")
    eng = CdcEngine(out_dir=out, num_partitions=2)
    snap = Lsn(0, 1000)
    eng.snapshot(rd.from_arrow(generate_lake(6, 3, seed=71)), snap)

    def broken(self, *args, **kwargs):
        raise OSError("schema history unwritable")

    monkeypatch.setattr(SchemaHistory, "record", broken)
    window = rd.from_arrow(_mk_window(_LANG_ROWS, _WITH_LANG))
    with pytest.raises(OSError, match="schema history unwritable"):
        eng.replay_window(window, snap, Lsn(0, 1003))
    assert committed_watermark(out) == snap

    monkeypatch.undo()
    assert eng.replay_window(window, snap, Lsn(0, 1003)) is not None
    assert [r["kind"] for r in eng.schema_history._records] == ["CREATE", "ALTER"]
