"""Fixture tables and alternate source formats: CSV and JSONL ingestion.

``sf_table`` is the one reader of a fixture table (``{sf_dir}/<name>.parquet``)
for the gate queries and the bench.

The reference ingests from one source (JDBC change tables); a standalone
engine needs the common file formats too. These helpers expose Ray Data's
native distributed readers (``read_csv`` / ``read_json``) behind explicit
Arrow schemas so dtype inference can never drift between runs, plus a
deterministic fixture converter that materializes a CSV/JSONL copy of a
parquet table under /tmp exactly once (keyed by source path + mtime) for
tests and the gate — the conversion is fixture prep, not the pipeline.

Scale notes: both readers are streaming block readers (one task per file
chunk); pass ``schema`` always — inference reads ahead and can type a
column differently per file at corpus scale.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq


def sf_table(sf_dir: str, name: str, columns=None, filter=None):
    """Read the fixture table ``{sf_dir}/{name}.parquet`` (all columns when
    ``columns`` is None), with its footer schema minus the schema-level
    ``pandas`` metadata the file was written with: that dict makes the
    schema unhashable, and Ray logs ``Failed to hash the schemas`` whenever
    it unifies the read's block schemas. The schema holds only the read
    columns, in ``columns`` order; a full schema followed by a
    ``select_columns`` would lose the read's projection pushdown. ``filter``
    may name only read columns."""
    import ray.data as rd

    path = f"{sf_dir}/{name}.parquet"
    footer = pq.read_schema(path)
    return rd.read_parquet(
        path, columns=columns, filter=filter,
        schema=pa.schema([footer.field(c) for c in columns or footer.names]),
    )


def _fixture_path(parquet_path: str, ext: str) -> str:
    st = os.stat(parquet_path)
    key = hashlib.md5(
        f"{os.path.abspath(parquet_path)}:{st.st_mtime_ns}:{ext}".encode()
    ).hexdigest()[:16]
    return f"/tmp/cdc_src_fixtures/{key}.{ext}"


def csv_copy_of_parquet(parquet_path: str, columns: list[str]) -> str:
    """Materialize (once) a CSV copy of selected parquet columns."""
    out = _fixture_path(parquet_path, "csv")
    if not os.path.exists(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
        t = pq.read_table(parquet_path, columns=columns)
        tmp = out + ".tmp"
        # pandas str()-formats floats (shortest round-trip) — pyarrow's
        # csv writer truncates to ~16 significant digits and loses ulps
        t.to_pandas().to_csv(tmp, index=False)
        os.replace(tmp, out)  # atomic: concurrent callers see whole files
    return out


def jsonl_copy_of_parquet(parquet_path: str, columns: list[str]) -> str:
    """Materialize (once) a JSON-lines copy of selected parquet columns."""
    out = _fixture_path(parquet_path, "jsonl")
    if not os.path.exists(out):
        import json

        os.makedirs(os.path.dirname(out), exist_ok=True)
        t = pq.read_table(parquet_path, columns=columns)
        tmp = out + ".tmp"
        # json.dumps uses repr floats (shortest round-trip); pandas
        # to_json caps double_precision at 15 digits and loses ulps
        with open(tmp, "w") as f:
            for rec in t.to_pylist():
                f.write(json.dumps(rec) + "\n")
        os.replace(tmp, out)
    return out


def read_csv_source(path: str, schema: pa.Schema):
    """Distributed CSV read with a pinned schema (no inference drift)."""
    import pyarrow.csv as pacsv
    import ray.data as rd

    return rd.read_csv(
        path,
        convert_options=pacsv.ConvertOptions(
            column_types={f.name: f.type for f in schema}
        ),
    )


def read_jsonl_source(path: str, schema: pa.Schema):
    """Distributed JSONL read; casts to the pinned schema per batch."""
    import ray.data as rd

    ds = rd.read_json(path)

    def conform(batch: pa.Table) -> pa.Table:
        return batch.select(schema.names).cast(schema)

    return ds.map_batches(conform, batch_format="pyarrow")
