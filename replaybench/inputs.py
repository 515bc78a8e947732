"""Seeded input generation for the replay benchmark.

Each workload's lake and change log are generated fresh on every run from
``--seed`` with the package's own generators (``sources.genlog``); the engine
only ever sees the parquet files written here. Generation runs in a child
process (``python3 inputs.py ...``) so its memory never counts towards the
main process's peak RSS.
"""

from __future__ import annotations

import os
import time

#: Snapshot watermark of every generated lake; change events start above it.
SNAPSHOT_LSN_INT = 1000

#: Workload shapes. ``tables`` > 1 replays one shared stream through
#: ``CdcConnector``, routed to that many tables; otherwise one ``CdcEngine``
#: replays the log with ``replay_from_parquet``. A run repeats up to
#: ``cycles`` cycles of snapshot, every window, state read and compaction,
#: each on a fresh lake; a cycle takes 7 to 9 s on one CPU, and a run about
#: 35 s.
#: ``compact_trigger`` is the engine's auto-compaction threshold, set so that
#: auto-compaction fires once per cycle (after window 16 of 24).
#: ``layout``: "chunked" writes the log as per-window chunks, each delivery
#: shuffled inside its own LSN range (a capture table loaded in bulk);
#: "lsn_ordered" writes it sorted, row groups about one window long, so every
#: window's read prunes to its own row group.
SPECS = {
    "connector_strict": dict(
        convs=10_000, turns=8, events=120_000, windows=4, partitions=16,
        layout="chunked", tables=2, exchange="shuffle", validate_pairs=True,
        cycles=4,
    ),
    "long_horizon": dict(
        convs=6_000, turns=8, events=18_000, windows=24, partitions=16,
        layout="lsn_ordered", tables=1, exchange="write", validate_pairs=False,
        compact_trigger=16, cycles=5,
    ),
}

ROUTING_COL = "src_table"


def table_names(spec: dict) -> list[str]:
    return [f"t{i}" for i in range(spec["tables"])]


def _changelog(spec: dict, seed: int):
    """The change log as one table in delivery order, and its max LSN."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.sources.genlog import generate_changelog_fast

    snap = Lsn(0, SNAPSHOT_LSN_INT)
    # inserts may target turns beyond the snapshot's, so the log creates keys
    turns = spec["turns"] + 4
    if spec["layout"] == "lsn_ordered":
        log, max_lsn = generate_changelog_fast(
            spec["events"], spec["convs"], turns, seed, snapshot_lsn=snap)
        order = pc.sort_indices(log, sort_keys=[
            ("commit_lsn_lo", "ascending"), ("intent_lsn_lo", "ascending")])
        return log.take(order), max_lsn
    chunks, base = [], snap
    per = spec["events"] // spec["windows"]
    for i in range(spec["windows"]):
        part, base = generate_changelog_fast(
            per, spec["convs"], turns, seed * 1_000 + i, snapshot_lsn=base)
        if chunks:
            # intents restart at 1 per chunk; keep them globally increasing
            off = sum(c.num_rows for c in chunks)
            ilo = pc.add(part["intent_lsn_lo"], pa.scalar(off, pa.uint64()))
            part = part.set_column(3, "intent_lsn_lo", ilo)
        chunks.append(part)
    return pa.concat_tables(chunks), base


def _route(table, names: list[str]):
    """Routing column for the shared connector stream: table by conv parity
    (a conversation, and so every update pair, stays in one table)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    num = pc.cast(pc.utf8_slice_codeunits(table["conv_id"], 5), pa.int64())
    idx = pc.bit_wise_and(num, len(names) - 1).to_numpy()
    return pa.array(np.array(names, dtype=object)[idx], pa.string())


#: Scale of the warm-up inputs: the workload's shape at a fraction of its size.
WARM_SCALE = dict(convs=200, events=2_000, windows=2)


def warm_spec(workload: str) -> dict:
    return dict(SPECS[workload], **WARM_SCALE)


def generate(spec: dict, seed: int, out_dir: str) -> dict:
    """Write the lake(s) and log of a workload ``spec`` under ``out_dir``;
    return their paths and sizes."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from debezium_connector_db2_ray.sources.genlog import generate_lake

    os.makedirs(out_dir, exist_ok=True)
    names = table_names(spec)
    lake = generate_lake(spec["convs"], spec["turns"], seed)
    log, max_lsn = _changelog(spec, seed)
    lakes = {}
    if spec["tables"] > 1:
        lake_route = _route(lake, names)
        for t in names:
            lakes[t] = os.path.join(out_dir, f"lake-{t}.parquet")
            pq.write_table(lake.filter(pc.equal(lake_route, t)), lakes[t],
                           row_group_size=65_536)
        log = log.append_column(ROUTING_COL, _route(log, names))
    else:
        lakes[names[0]] = os.path.join(out_dir, "lake.parquet")
        pq.write_table(lake, lakes[names[0]], row_group_size=65_536)
    log_path = os.path.join(out_dir, "changelog.parquet")
    if spec["layout"] == "lsn_ordered":
        rg = -(-log.num_rows // spec["windows"])
    else:
        rg = 65_536
    pq.write_table(log, log_path, row_group_size=rg)
    return {
        "lakes": lakes,
        "log": log_path,
        "snapshot_lsn": SNAPSHOT_LSN_INT,
        "max_lsn": max_lsn.to_int(),
        "events": log.num_rows,
        "lake_rows": lake.num_rows,
    }


def main(argv: list[str]) -> None:
    """``inputs.py WORKLOAD SEED OUT_DIR REPEATS``: generate ``REPEATS``
    times into ``OUT_DIR`` (each overwrites the last, byte-identical), then
    ask the oracle for the expected state; print one JSON line with the
    inputs, ``gen_s`` (each repetition's wall time), ``expected`` and
    ``warm``, a small input of the same shape for warming the engine up."""
    import json

    import oracle

    workload, seed, out_dir, repeats = argv[0], int(argv[1]), argv[2], int(argv[3])
    times, info = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        info = generate(SPECS[workload], seed, out_dir)
        times.append(time.perf_counter() - t0)
    info["gen_s"] = times
    info["warm"] = generate(warm_spec(workload), seed,
                            os.path.join(out_dir, "warm"))
    info["expected"] = oracle.expected(
        list(info["lakes"].values()), info["log"], info["snapshot_lsn"])
    print(json.dumps(info), flush=True)


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main(sys.argv[1:])
