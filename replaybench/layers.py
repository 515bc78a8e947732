"""Per-layer tracing, done from the benchmark's own code around the calls it
makes into each layer's public functions.

After every engine window the tracer re-runs that window single-threaded in
the main process: the pushed-down parquet read (``sources``), the connector's
window slice and per-table route filter (``connector``), the apply kernels
(``stages.apply``) and both sinks (``pipelines.replay``) on the same rows,
then times the manifest bookkeeping the engine does per window
(``state.manifest`` + ``metrics``). None of this runs inside a timed engine
call; its cost is reported as ``trace.extra_s``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from debezium_connector_db2_ray import metrics as dmetrics
from debezium_connector_db2_ray.connector import _route, _window_slice
from debezium_connector_db2_ray.pipelines.replay import (
    PART_COL,
    fragment_writer,
    staged_writer,
    tag_partitions,
)
from debezium_connector_db2_ray.stages.apply import lww_collapse
from debezium_connector_db2_ray.state import manifest as dmanifest

#: Per-window samples reported as their median.
_PER_WINDOW = (
    "sources.read_s", "sources.bytes_read", "sources.row_groups_read",
    "stages.apply.tag_s", "stages.apply.collapse_s",
    "stages.apply.validate_pairs_s", "stages.apply.collapse_rows_in",
    "stages.apply.collapse_rows_out", "pipelines.replay.fragment_write_s",
    "pipelines.replay.staged_write_s", "pipelines.replay.bytes_written",
    "pipelines.replay.files_written", "pipelines.replay.window_s",
    "pipelines.replay.outside_kernels_s", "state.manifest.bookkeeping_s",
    "connector.slice_s", "connector.route_s",
)


def _files_and_bytes(path: str) -> tuple[int, int]:
    n = size = 0
    for d, _, names in os.walk(path):
        for name in names:
            n += 1
            size += os.path.getsize(os.path.join(d, name))
    return n, size


def dir_bytes(path: str) -> int:
    return _files_and_bytes(path)[1]


def _rg_compressed(md, i: int) -> int:
    rg = md.row_group(i)
    return sum(rg.column(j).total_compressed_size for j in range(rg.num_columns))


class Tracer:
    """Collects per-layer samples for one run of a workload ``spec``
    (``inputs.SPECS``).

    A single-table workload reads each window with the LSN filter that
    ``replay_from_parquet`` pushes to parquet row groups. The connector
    workload reads the whole shared stream, then slices the window and
    routes it per table with the functions ``CdcConnector.replay`` maps over
    the stream."""

    def __init__(self, spec: dict, log_path: str, scratch: str):
        from inputs import ROUTING_COL, table_names

        self.log_path = log_path
        self.scratch = scratch
        self.num_partitions = spec["partitions"]
        self.exchange = spec["exchange"]
        self.validate_pairs = spec["validate_pairs"]
        self.pushdown = spec["tables"] == 1
        self.routing_col = None if self.pushdown else ROUTING_COL
        self.tables = table_names(spec)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.final: dict[str, float] = {}
        self.extra_s = 0.0
        md = pq.ParquetFile(log_path).metadata
        self.rg_bytes = [_rg_compressed(md, i) for i in range(md.num_row_groups)]

    # ---- one window ------------------------------------------------------

    def _read(self, lo, hi) -> tuple[pa.Table, int, int]:
        """The window's rows as the engine reads them; (rows, row groups
        read, compressed bytes of those row groups)."""
        if not self.pushdown:
            # the connector slices the window from a full scan
            return pq.read_table(self.log_path), len(self.rg_bytes), sum(self.rg_bytes)
        # the filter replay_from_parquet pushes down (single-segment LSNs)
        flt = (pads.field("commit_lsn_lo") > lo.lo) & (
            pads.field("commit_lsn_lo") <= hi.lo)
        frag = next(pads.dataset(self.log_path).get_fragments())
        groups = frag.split_by_row_group(flt)
        parts = [g.to_table(filter=flt) for g in groups]
        ids = [g.row_groups[0].id for g in groups]
        rows = pa.concat_tables(parts) if parts else pq.read_schema(
            self.log_path).empty_table()
        return rows, len(ids), sum(self.rg_bytes[i] for i in ids)

    def window(self, lo, hi, window_s: float, out_dirs: list[str]) -> None:
        begin = time.perf_counter()
        s = self.samples
        t0 = time.perf_counter()
        rows, rg_read, bytes_read = self._read(lo, hi)
        read_s = time.perf_counter() - t0
        s["sources.read_s"].append(read_s)
        s["sources.bytes_read"].append(bytes_read)
        s["sources.row_groups_read"].append(rg_read)
        tag = tag_partitions(self.num_partitions)
        acc = defaultdict(float)
        if self.routing_col is not None:
            t0 = time.perf_counter()
            rows = _window_slice(lo, hi)(rows)
            acc["slice_s"] = time.perf_counter() - t0
        sink = os.path.join(self.scratch, "sink")
        for table in self.tables:
            part = rows
            if self.routing_col is not None:
                t0 = time.perf_counter()
                part = _route(self.routing_col, table)(rows)
                acc["route_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            tagged = tag(part)
            acc["tag_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            collapsed = lww_collapse(tagged, validate_pairs=False, partial=True)
            acc["collapse_s"] += time.perf_counter() - t0
            acc["rows_in"] += tagged.num_rows
            acc["rows_out"] += collapsed.num_rows
            t0 = time.perf_counter()
            lww_collapse(tagged.drop_columns([PART_COL]), validate_pairs=True)
            acc["validate_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            fragment_writer(os.path.join(sink, "fragment"))(tagged)
            acc["fragment_s"] += time.perf_counter() - t0
            # the shuffle's grouping is Ray's work, not the sink's: group first
            order = pc.sort_indices(tagged, sort_keys=[(PART_COL, "ascending")])
            grouped = tagged.take(order)
            _, starts, counts = np.unique(
                grouped[PART_COL].to_numpy(), return_index=True,
                return_counts=True)
            writer = staged_writer(os.path.join(sink, "staged"),
                                   validate_pairs=self.validate_pairs)
            t0 = time.perf_counter()
            for st, n in zip(starts, counts):
                writer(grouped.slice(int(st), int(n)))
            acc["staged_s"] += time.perf_counter() - t0
        files, written = _files_and_bytes(os.path.join(sink, "fragment"))
        if self.exchange != "write":
            files, written = _files_and_bytes(os.path.join(sink, "staged"))
        shutil.rmtree(sink, ignore_errors=True)
        s["stages.apply.tag_s"].append(acc["tag_s"])
        s["stages.apply.collapse_s"].append(acc["collapse_s"])
        s["stages.apply.validate_pairs_s"].append(acc["validate_s"])
        s["stages.apply.collapse_rows_in"].append(acc["rows_in"])
        s["stages.apply.collapse_rows_out"].append(acc["rows_out"])
        s["pipelines.replay.fragment_write_s"].append(acc["fragment_s"])
        s["pipelines.replay.staged_write_s"].append(acc["staged_s"])
        s["pipelines.replay.bytes_written"].append(written)
        s["pipelines.replay.files_written"].append(files)
        s["connector.slice_s"].append(acc["slice_s"])
        s["connector.route_s"].append(acc["route_s"])
        # the single-thread chain the engine's window runs: read, slice,
        # route, tag, sink
        sink_s = acc["fragment_s"] if self.exchange == "write" else acc["staged_s"]
        s["pipelines.replay.window_s"].append(window_s)
        s["pipelines.replay.outside_kernels_s"].append(window_s - (
            read_s + acc["slice_s"] + acc["route_s"] + acc["tag_s"] + sink_s))
        t0 = time.perf_counter()
        for out in out_dirs:
            # the manifest reads each engine window makes, in its order
            dmanifest.committed_watermark(out)
            dmanifest.next_window_id(out)
            dmanifest.live_partitioning(out)
            dmanifest.partition_files(out)
            dmetrics.read_amplification(out)
        bk = time.perf_counter() - t0
        s["state.manifest.bookkeeping_s"].append(bk)
        self.final["state.manifest.bookkeeping_last_s"] = bk
        self.extra_s += time.perf_counter() - begin

    # ---- end of replay ---------------------------------------------------

    def replay_done(self, out_dirs: list[str]) -> None:
        """Layout metrics of the state the replay left, before compaction."""
        begin = time.perf_counter()
        f = dict.fromkeys((
            "state.manifest.manifests_on_disk", "state.manifest.manifest_bytes",
            "metrics.read_amplification", "metrics.live_files",
            "metrics.partition_skew", "state.auto_compactions",
            "state.dead_bytes"), 0)
        for out in out_dirs:
            mdir = os.path.join(out, dmanifest.MANIFEST_DIR)
            names = [n for n in os.listdir(mdir) if n.endswith(".json")]
            f["state.manifest.manifests_on_disk"] += len(names)
            f["state.manifest.manifest_bytes"] += sum(
                os.path.getsize(os.path.join(mdir, n)) for n in names)
            f["metrics.read_amplification"] = max(
                f["metrics.read_amplification"], dmetrics.read_amplification(out))
            live = set(dmanifest.live_files(out))
            f["metrics.live_files"] += len(live)
            f["metrics.partition_skew"] = max(
                f["metrics.partition_skew"],
                dmetrics.collect_metrics(out).max_partition_skew)
            f["state.auto_compactions"] += sum(
                m.kind == "compaction" for m in dmanifest.load_manifests(out))
            for d, _, files in os.walk(out):
                for name in files:
                    p = os.path.join(d, name)
                    if name.endswith(".parquet") and p not in live:
                        f["state.dead_bytes"] += os.path.getsize(p)
        self.final.update(f)
        self.extra_s += time.perf_counter() - begin

    def metrics(self) -> dict[str, float]:
        out = {k: statistics.median(self.samples[k]) for k in _PER_WINDOW
               if self.samples[k]}
        out.update(self.final)
        out["trace.extra_s"] = self.extra_s
        return out
