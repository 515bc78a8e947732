"""Source readers: the fixture-table reader is the only one and reads
without pandas metadata; pinned-schema CSV/JSONL ingest is lossless."""

import ast
import pathlib
import re

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_TABLES = (
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
)


def test_sf_table_is_the_only_fixture_reader():
    """A ``read_parquet`` of a fixture table outside ``sf_table`` fails
    here: any call in the two query modules, and elsewhere in the package,
    ``bench.py`` and ``__ray_entry__.py`` any call whose path names a
    fixture table or the sf directory."""
    fixture = re.compile(
        r"\b(sf_dir|SF_DIR|SF_SMOKE)\b"
        rf"|\b({'|'.join(FIXTURE_TABLES)})\.parquet"
    )
    query_modules = {
        "debezium_connector_db2_ray/functions/queries.py",
        "debezium_connector_db2_ray/pipelines/queries.py",
    }
    files = sorted((ROOT / "debezium_connector_db2_ray").rglob("*.py"))
    files += [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    offenders = []
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        src = path.read_text()
        tree = ast.parse(src)
        allowed = {
            id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "sf_table"
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            called = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if called != "read_parquet":
                continue
            arg = ast.get_source_segment(src, node.args[0]) if node.args else ""
            if rel in query_modules or fixture.search(arg):
                offenders.append(f"{rel}:{node.lineno}: {arg}")
    assert not offenders, "\n".join(offenders)


def test_sf_table_reads_without_pandas_metadata(ray_session, tmp_path):
    """A parquet file written from a pandas frame carries schema-level
    ``pandas`` metadata; ``sf_table`` returns blocks without it, with the
    columns in the requested (not the file's) order and the filter
    applied in the read."""
    import pyarrow.dataset as pads
    import ray

    from debezium_connector_db2_ray.sources.files import sf_table

    df = pd.DataFrame({
        "a": range(100),
        "b": [f"s{i}" for i in range(100)],
        "c": [i / 4 for i in range(100)],
    })
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "t.parquet",
                   row_group_size=10)
    assert b"pandas" in pq.read_schema(tmp_path / "t.parquet").metadata

    ds = sf_table(str(tmp_path), "t", ["c", "a"], filter=pads.field("a") >= 42)
    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    assert blocks
    for b in blocks:
        assert not b.schema.metadata
        assert b.column_names == ["c", "a"]
    got = pa.concat_tables(blocks).sort_by("a")
    assert got["a"].to_pylist() == list(range(42, 100))
    assert got["c"].to_pylist() == [i / 4 for i in range(42, 100)]

    full = ray.get(sf_table(str(tmp_path), "t").to_arrow_refs())
    assert all(not b.schema.metadata for b in full)
    assert full[0].column_names == ["a", "b", "c"]
    assert sum(b.num_rows for b in full) == 100


def test_csv_jsonl_roundtrip(ray_session, tmp_path):
    from debezium_connector_db2_ray.sources.files import (
        csv_copy_of_parquet,
        jsonl_copy_of_parquet,
        read_csv_source,
        read_jsonl_source,
    )

    t = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "user_id": pa.array([10, 20, 30], pa.int64()),
        "event_type": pa.array(["a", "b", "a"], pa.string()),
        "value": pa.array([1.5, 0.1 + 0.2, -3.25], pa.float64()),
    })
    src = str(tmp_path / "ev.parquet")
    pq.write_table(t, src)
    schema = t.schema

    csv_path = csv_copy_of_parquet(src, columns=list(schema.names))
    got_csv = (
        read_csv_source(csv_path, schema)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    jl_path = jsonl_copy_of_parquet(src, columns=list(schema.names))
    got_jl = (
        read_jsonl_source(jl_path, schema)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    exp = t.to_pandas()
    for got in (got_csv, got_jl):
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        assert got["event_type"].tolist() == exp["event_type"].tolist()
        # float64 round-trips bit-exactly (shortest-roundtrip formatting)
        assert got["value"].tolist() == exp["value"].tolist()

    # fixture conversion is cached: same mtime -> same path, no rewrite
    assert csv_copy_of_parquet(src, columns=list(schema.names)) == csv_path


def test_filter_operations_validates_and_filters(ray_session):
    import pytest
    import ray.data as rd

    from debezium_connector_db2_ray.stages.envelope import filter_operations

    t = pa.table({
        "op_char": pa.array(["c", "u", "d", None, "r"], pa.string()),
        "x": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    out = (
        filter_operations(rd.from_arrow(t), skipped={"d", "u"})
        .to_pandas()
    )
    assert out["x"].tolist() == [1, 4, 5]  # NULL op kept
    with pytest.raises(ValueError):
        filter_operations(rd.from_arrow(t), skipped={"z"})
