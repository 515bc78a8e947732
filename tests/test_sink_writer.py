"""The engine's one sink kernel (``fragment_writer``): one sort led by
``__part`` collapses and clusters a table, the shuffle sink's reduce task
stages one fragment per table, strict pair validation still holds across
the partitions of one reduce task, and lakes that mix the per-partition
file layout with fragments read and compact to the oracle."""

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines import replay
from debezium_connector_db2_ray.pipelines.oracle import (
    OrphanBeforeImageError,
    oracle_apply,
)
from debezium_connector_db2_ray.pipelines.replay import (
    PART_COL,
    CdcEngine,
    fragment_writer,
    plan_windows,
    tag_partitions,
)
from debezium_connector_db2_ray.sources.genlog import generate_scenario
from debezium_connector_db2_ray.stages.apply import (
    final_state,
    lww_collapse,
    snapshot_as_events,
)
from debezium_connector_db2_ray.state.manifest import live_files, load_manifests

from .test_multitable import _assert_state, sorted_pdf
from .test_staging_job import _count_tasks

_ORDER = ["conv_id", "turn_idx", "commit_lsn_hi", "commit_lsn_lo",
          "intent_lsn_hi", "intent_lsn_lo"]


def _by_key(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in _ORDER])


@pytest.mark.parametrize("collapse", ["partial", "full", "strict", "none"])
def test_kernel_sorts_once_and_clusters_by_part(tmp_path, monkeypatch,
                                                collapse):
    """Every collapse mode writes one fragment sorted by ``__part`` after
    exactly one sort, with one manifest row per partition, and holds the
    rows the collapse keeps. The input's key order is not its partition
    order, so a sort without ``__part`` leading leaves the file
    unclustered."""
    sc = generate_scenario(n_convs=40, turns_per_conv=4, n_commits=300, seed=5)
    log = sc.changelog
    if collapse == "none":  # compaction's input: one row per key
        log = final_state(lww_collapse(log), keep_meta=True)
    tagged = tag_partitions(8)(log)
    by_key = lww_collapse(tagged, validate_pairs=False, partial=True)
    assert (np.diff(by_key[PART_COL].to_numpy()) < 0).any()

    sorts = []
    for name in ("lexsort", "argsort"):
        real = getattr(np, name)
        monkeypatch.setattr(
            np, name,
            lambda *a, real=real, name=name, **k: sorts.append(name) or real(*a, **k))
    rows = fragment_writer(str(tmp_path), collapse=collapse)(tagged)
    monkeypatch.undo()
    assert len(sorts) == 1

    files = set(rows["file"].to_pylist())
    assert len(files) == 1 and os.listdir(tmp_path) == [
        os.path.basename(f) for f in files]
    got = pq.read_table(files.pop())
    parts = got[PART_COL].to_numpy()
    assert (np.diff(parts) >= 0).all()
    present, counts = np.unique(parts, return_counts=True)
    assert rows["partition"].to_pylist() == present.tolist()
    assert rows["rows"].to_pylist() == counts.tolist()
    want = tagged if collapse == "none" else lww_collapse(
        tagged, validate_pairs=collapse == "strict",
        partial=collapse == "partial")
    assert _by_key(got).equals(_by_key(want))


@pytest.mark.parametrize("cpus", [1, 4, 16])
def test_row_groups_end_at_partition_boundaries(tmp_path, monkeypatch, cpus):
    """A fragment gets about one row group per CPU of the cluster (a state
    read runs one merge unit per CPU), none below ``ROW_GROUP_MIN`` rows
    but the last, and no partition spans two groups, so a unit's
    ``__part`` stats skip the groups of the other units."""
    sc = generate_scenario(n_convs=1000, turns_per_conv=8, n_commits=10, seed=5)
    tagged = tag_partitions(16)(snapshot_as_events(sc.lake, sc.snapshot_lsn))
    monkeypatch.setattr(replay, "_cluster_cpus", lambda: cpus)
    rows = fragment_writer(str(tmp_path), collapse="full")(tagged)
    md = pq.ParquetFile(rows["file"][0].as_py()).metadata
    col = md.schema.names.index(PART_COL)
    stats = [md.row_group(g).column(col).statistics
             for g in range(md.num_row_groups)]
    assert all(a.max < b.min for a, b in zip(stats, stats[1:]))
    sizes = [md.row_group(g).num_rows for g in range(md.num_row_groups)]
    assert sum(sizes) == tagged.num_rows == 8000
    floor = max(replay.ROW_GROUP_MIN, 8000 // cpus)
    assert all(n >= floor for n in sizes[:-1])
    if cpus == 1:
        assert len(sizes) == 1
    else:
        assert 1 < len(sizes) <= cpus


def _stream(sc: dict) -> pa.Table:
    return pa.concat_tables([
        s.changelog.append_column("src_table",
                                  pa.array([t] * s.changelog.num_rows))
        for t, s in sc.items()
    ])


def test_one_reduce_task_stages_one_fragment_per_table(
    ray_session, tmp_path, monkeypatch
):
    """A strict 2-table connector over one-block inputs runs one reduce
    task a commit, and stages exactly one file per table under each
    ``delta/w=NNNNNN`` (the snapshot's included), named by every
    partition of that table's manifest; each table's state is the
    oracle's."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector

    sc = {"TA": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80,
                                  seed=161),
          "TB": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80,
                                  seed=162)}
    snap = sc["TA"].snapshot_lsn
    hi = Lsn(0, max(s.max_lsn.to_int() for s in sc.values()))
    conn = CdcConnector(root_dir=str(tmp_path / "lh"), num_partitions=4)
    assert conn.validate_pairs and conn.exchange == "shuffle"
    calls = _count_tasks(monkeypatch)
    conn.snapshot_all({t: rd.from_arrow(s.lake) for t, s in sc.items()}, snap)
    ms = conn.replay(rd.from_arrow(_stream(sc)), snap, hi, 2,
                     tables=sorted(sc))
    monkeypatch.undo()
    assert {t: len(m) for t, m in ms.items()} == {"TA": 2, "TB": 2}
    assert calls == {"split": [], "reduce": 2 + 2}  # 2 snapshots, 2 windows
    for t, s in sc.items():
        out = conn.engine(t).out_dir
        manifests = load_manifests(out)
        assert [m.kind for m in manifests] == ["snapshot", "stream", "stream"]
        for m in manifests:
            d = os.path.join(out, "delta", f"w={m.window_id:06d}")
            staged = [os.path.join(dp, f) for dp, _, fs in os.walk(d)
                      for f in fs]
            assert len(staged) == 1
            assert len(m.partitions) > 1
            assert all(p["files"] == staged for p in m.partitions.values())
        _assert_state(conn, t, oracle_apply(s.lake, s.ordered_changelog, snap))


def test_orphan_before_image_raises_in_a_reduce_task_over_many_partitions(
    ray_session, tmp_path, monkeypatch
):
    """A window whose one reduce task holds several partitions, with one
    update's after image removed: the before image is not the key's last
    event, so only strict pair validation can see it, and the window
    raises without committing."""
    import ray.data as rd

    sc = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=171)
    log = sc.ordered_changelog
    op = log["op"].to_numpy()
    keys = list(zip(log["conv_id"].to_pylist(), log["turn_idx"].to_pylist()))
    # an op-4 row whose key has a later event
    drop = next(i for i in range(1, len(op)) if op[i] == 4 and op[i - 1] == 3
                and keys[i] in keys[i + 1:])
    log = log.filter(pa.array(np.arange(len(op)) != drop))
    assert len(np.unique(tag_partitions(4)(log)[PART_COL].to_numpy())) > 1

    eng = CdcEngine(out_dir=str(tmp_path / "lh"), num_partitions=4)
    eng.snapshot(rd.from_arrow(sc.lake), sc.snapshot_lsn)
    before = load_manifests(eng.out_dir)
    calls = _count_tasks(monkeypatch)
    with pytest.raises(OrphanBeforeImageError):
        eng.replay_window(rd.from_arrow(log), sc.snapshot_lsn, sc.max_lsn)
    monkeypatch.undo()
    assert calls == {"split": [], "reduce": 1}
    assert load_manifests(eng.out_dir) == before


def _per_partition_stage(delta_dir: str, tagged: pa.Table) -> list[dict]:
    """The shuffle sink's former layout: one collapsed
    ``part=NNNNN/part-<uuid>.parquet`` file per partition."""
    rows = []
    codes = tagged[PART_COL].to_numpy()
    for p in np.unique(codes).tolist():
        t = lww_collapse(tagged.filter(pa.array(codes == p)))
        os.makedirs(os.path.join(delta_dir, f"part={p:05d}"))
        path = os.path.join(delta_dir, f"part={p:05d}",
                            f"part-{uuid.uuid4().hex}.parquet")
        pq.write_table(t, path, compression="zstd")
        mn, mx = replay._lsn_range(t)
        rows.append({"partition": p, "rows": t.num_rows, "file": path,
                     "op_counts": replay._op_counts(t["op"].to_numpy()),
                     "min_lsn": mn, "max_lsn": mx})
    return rows


def test_lake_mixing_per_partition_files_and_fragments_reads_and_compacts(
    ray_session, tmp_path
):
    """A snapshot staged in the per-partition layout, then shuffle windows
    staged as fragments: the state read and a compaction both give the
    oracle, and compaction leaves fragments only."""
    import ray.data as rd

    sc = generate_scenario(n_convs=20, turns_per_conv=4, n_commits=200,
                           seed=181)
    eng = CdcEngine(out_dir=str(tmp_path / "lh"), num_partitions=4,
                    auto_compact=False)
    snap = tag_partitions(4)(snapshot_as_events(sc.lake, sc.snapshot_lsn))
    eng._commit("snapshot", lambda d: _per_partition_stage(d, snap),
                to_lsn=sc.snapshot_lsn,
                schema_event=("CREATE", sc.snapshot_lsn))
    stream = rd.from_arrow(sc.changelog)
    for lo, hi in plan_windows(sc.snapshot_lsn.increment(), sc.max_lsn, 2):
        assert eng.replay_window(stream, lo, hi) is not None
    shapes = {os.path.basename(os.path.dirname(f)).split("=")[0] + "/"
              + os.path.basename(f).split("-")[0]
              for f in live_files(eng.out_dir)}
    assert shapes == {"part/part", "w/frag"}

    want = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)

    def state() -> pa.Table:
        got = pa.Table.from_pandas(eng.state_dataset().to_pandas(),
                                   preserve_index=False)
        return sorted_pdf(got.select(want.column_names))

    assert state().equals(sorted_pdf(want))
    eng.compact()
    assert all(os.path.basename(f).startswith("frag-")
               for f in live_files(eng.out_dir))
    assert state().equals(sorted_pdf(want))
