"""Durable schema history — CREATE/ALTER events with LSN positions.

Mirrors the reference's schema-history topic: every structural change is
recorded (CREATE for each captured table at snapshot, ALTER at each
capture-instance switch) and replayed on restart to rebuild the in-memory
schema registry; recovery compares positions by change LSN
(reference: Db2DatabaseSchema.java:51-71 record/recover,
HistoryRecordComparator Db2ConnectorConfig.java:658-667,
SchemaHistoryTopicIT.java:70-125).

Storage: JSON-lines file per target directory; each record carries
``{seq, lsn (hex), kind (CREATE|ALTER), table, schema (arrow-serialized)}``.
Appends are write-temp + atomic rename of the whole file (histories are tiny
— one record per DDL, not per event). A process parses each version of the
file once (``_parsed_records``)."""

from __future__ import annotations

import base64
import functools
import json
import os
import uuid

import pyarrow as pa

from debezium_connector_db2_ray.lsn import Lsn, lsn_from_hex

HISTORY_FILE = "_schema_history.jsonl"


def _encode_schema(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def _decode_schema(s: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(s)))


@functools.lru_cache(maxsize=64)
def _parsed_records(path: str, ino: int, size: int, mtime_ns: int) -> tuple[dict, ...]:
    """The records of one version of a history file, parsed once per
    process: cached by (path, st_ino, st_size, st_mtime_ns), so a rewritten
    file is read again. The records are shared; nothing mutates them."""
    with open(path) as f:
        return tuple(json.loads(line) for line in f if line.strip())


class SchemaHistory:
    """Append-only schema log with LSN-positioned recovery."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, HISTORY_FILE)
        self._records: list[dict] = []
        try:
            st = os.stat(self.path)
        except FileNotFoundError:
            return
        # a list of its own: record() appends here, never to the cache
        self._records = list(_parsed_records(
            self.path, st.st_ino, st.st_size, st.st_mtime_ns))

    # -- writes -------------------------------------------------------------

    def record(self, kind: str, table: str, lsn: Lsn, schema: pa.Schema) -> None:
        """Record a CREATE/ALTER at ``lsn``. Idempotent: re-recording the same
        (kind, table, lsn) is a no-op (restart replays are expected)."""
        if kind not in ("CREATE", "ALTER"):
            raise ValueError(kind)
        key = (kind, table, lsn.hex())
        for r in self._records:
            if (r["kind"], r["table"], r["lsn"]) == key:
                return
        self._records.append(
            {
                "seq": len(self._records),
                "kind": kind,
                "table": table,
                "lsn": lsn.hex(),
                "schema": _encode_schema(schema),
            }
        )
        self._flush()

    def _flush(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + f".tmp-{uuid.uuid4().hex}"
        with open(tmp, "w") as f:
            for r in self._records:
                f.write(json.dumps(r) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)

    # -- recovery -----------------------------------------------------------

    def schema_at(self, table: str, lsn: Lsn) -> pa.Schema | None:
        """The schema governing ``table`` at position ``lsn``: the newest
        record with record.lsn <= lsn (isPositionAtOrBefore semantics)."""
        best = None
        for r in self._records:
            if r["table"] != table:
                continue
            if lsn_from_hex(r["lsn"]) <= lsn:
                if best is None or lsn_from_hex(r["lsn"]) >= lsn_from_hex(best["lsn"]):
                    best = r
        return _decode_schema(best["schema"]) if best else None

    def boundaries(self, table: str) -> list[tuple[Lsn, pa.Schema]]:
        """(lsn, schema) checkpoints ordered by LSN — the apply stage's
        schema-fence list (reference ST5 checkpoint queue,
        Db2StreamingChangeEventSource.java:162-174)."""
        rs = [r for r in self._records if r["table"] == table]
        rs.sort(key=lambda r: lsn_from_hex(r["lsn"]))
        return [(lsn_from_hex(r["lsn"]), _decode_schema(r["schema"])) for r in rs]

    def tables(self) -> list[str]:
        return sorted({r["table"] for r in self._records})
