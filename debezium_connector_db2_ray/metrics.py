"""Lineage / metrics over committed manifests.

The reference exposes snapshot/streaming progress over JMX
(polled in util/TestHelper.java:232-256) and transaction counters via the
transaction-metadata topic (TransactionMetadataIT.java:98-117). Batch-shaped
equivalent: everything is already in the per-window manifests — this module
just aggregates them into the operator-facing summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from debezium_connector_db2_ray.lsn import Lsn, lsn_from_hex
from debezium_connector_db2_ray.state.manifest import load_manifests

OP_NAMES = {0: "read", 1: "delete", 2: "insert", 3: "update_before",
            4: "update_after", 5: "update_single"}


@dataclass
class EngineMetrics:
    snapshot_completed: bool = False
    windows_committed: int = 0
    snapshot_chunks: int = 0
    compactions: int = 0
    watermark: str | None = None
    rows_applied: int = 0
    op_counts: dict[str, int] = field(default_factory=dict)
    per_partition_rows: dict[int, int] = field(default_factory=dict)
    live_file_count: int = 0

    @property
    def max_partition_skew(self) -> float:
        """max/mean partition row count — the hot-key indicator that triggers
        salting (SURVEY.md §4)."""
        if not self.per_partition_rows:
            return 0.0
        vals = list(self.per_partition_rows.values())
        mean = sum(vals) / len(vals)
        return max(vals) / mean if mean else 0.0


def collect_metrics(out_dir: str) -> EngineMetrics:
    from debezium_connector_db2_ray.state.manifest import live_files

    m = EngineMetrics()
    for w in load_manifests(out_dir):
        if w.kind == "compaction":
            m.compactions += 1
            continue
        if w.kind.startswith("snapshot"):
            m.snapshot_chunks += 1
        else:
            m.windows_committed += 1
        if w.snapshot_completed:
            m.snapshot_completed = True
        if w.to_lsn and (m.watermark is None or lsn_from_hex(w.to_lsn) > lsn_from_hex(m.watermark)):
            m.watermark = w.to_lsn
        for pid, p in w.partitions.items():
            m.rows_applied += p["rows"]
            m.per_partition_rows[int(pid)] = (
                m.per_partition_rows.get(int(pid), 0) + p["rows"]
            )
            for op, n in p.get("op_counts", {}).items():
                name = OP_NAMES.get(int(op), op)
                m.op_counts[name] = m.op_counts.get(name, 0) + n
    m.live_file_count = len(live_files(out_dir))
    return m


def read_amplification(out_dir: str) -> int:
    """Max number of live files any single partition names — THE
    merge-on-read cost driver (state-read cost grows linearly with it
    until a compaction resets it). A merge unit of several partitions opens
    each of their shared files once, so this counts a partition's files,
    not the opens of its unit. Computed from manifests only; cheap enough
    to check after every window."""
    from debezium_connector_db2_ray.state.manifest import partition_files

    by_part = partition_files(out_dir)
    return max((len(v) for v in by_part.values()), default=0)


def suggest_salt(out_dir: str, *, skew_threshold: float = 3.0, max_salt: int = 16) -> int:
    """Operator-facing skew advisor: if the hottest partition carries more
    than ``skew_threshold`` x the mean row count, recommend a salt factor
    (next power of two covering the skew, capped). Apply it by constructing
    the engine with ``salt=<suggestion>`` and running ``compact()`` — the
    repartitioning barrier that re-tags all live rows — before replaying
    further windows (the engine refuses a bare partitioning switch; a key
    must map to one partition across all live files). Salting itself is
    legal because the LWW key is (conv_id, turn_idx) and turn_idx determines
    the sub-key (SURVEY.md §4)."""
    m = collect_metrics(out_dir)
    skew = m.max_partition_skew
    if skew <= skew_threshold:
        return 1
    salt = 2
    while salt < min(max_salt, skew):
        salt *= 2
    return min(salt, max_salt)


def catalog(out_dir: str) -> list[dict]:
    """Capture-registry view (reference S6: IBMSNAP_REGISTER scan,
    LuwPlatform.java:41-43): one row per captured table with its schema
    versions and applied LSN range."""
    from debezium_connector_db2_ray.state.schema_log import SchemaHistory

    hist = SchemaHistory(out_dir)
    met = collect_metrics(out_dir)
    out = []
    for t in hist.tables() or ["transcripts"]:
        bounds = hist.boundaries(t)
        out.append(
            {
                "table": t,
                "schema_versions": len(bounds),
                "start_lsn": bounds[0][0].hex() if bounds else None,
                "columns": list(bounds[-1][1].names) if bounds else None,
                "watermark": met.watermark,
                "state": "active" if met.windows_committed or met.snapshot_chunks else "new",
            }
        )
    return out
