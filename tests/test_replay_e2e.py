"""End-to-end Ray Data replay: snapshot → windowed streaming → manifests →
merge-on-read state, vs the single-threaded oracle. Mirrors the reference's
restart/offset ITs (Db2ConnectorIT.java:370-465,549-714)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines.oracle import oracle_apply
from debezium_connector_db2_ray.pipelines.replay import CdcEngine, plan_windows
from debezium_connector_db2_ray.sources.genlog import generate_scenario
from debezium_connector_db2_ray.state.manifest import (
    committed_watermark,
    load_manifests,
)


def sorted_pdf(t: pa.Table):
    return (
        t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        .to_pandas()
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    sc = generate_scenario(
        n_convs=40, turns_per_conv=6, n_commits=600, seed=21, hot_fraction=0.2
    )
    d = tmp_path_factory.mktemp("cdc_e2e")
    pq.write_table(sc.lake, str(d / "lake.parquet"))
    pq.write_table(sc.changelog, str(d / "changelog.parquet"))
    pq.write_table(sc.changelog, str(d / "changelog_small_rg.parquet"),
                   row_group_size=32)
    expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
    return sc, str(d), expected


def run_replay(ray, sc, data_dir, out_dir, num_partitions, n_windows, salt=1,
               stop_after=None, validate_pairs=True, exchange="shuffle",
               entry="dataset", batch_size=400_000):
    """Snapshot (unless committed) and replay the planned windows, each
    through ``replay_window`` over a Dataset (``entry="dataset"``) or
    ``replay_from_parquet`` over the small-row-group changelog file
    (``entry="parquet"``)."""
    import ray.data as rd

    eng = CdcEngine(
        out_dir=out_dir,
        num_partitions=num_partitions,
        salt=salt,
        validate_pairs=validate_pairs,
        exchange=exchange,
        batch_size=batch_size,
    )
    if committed_watermark(out_dir) is None:
        eng.snapshot(rd.read_parquet(os.path.join(data_dir, "lake.parquet")), sc.snapshot_lsn)
    windows = plan_windows(sc.snapshot_lsn.increment(), sc.max_lsn, n_windows)
    done = 0
    for lo, hi in windows:
        if entry == "parquet":
            eng.replay_from_parquet(
                os.path.join(data_dir, "changelog_small_rg.parquet"), lo, hi, 1
            )
        else:
            eng.replay_window(
                rd.read_parquet(os.path.join(data_dir, "changelog.parquet")), lo, hi
            )
        done += 1
        if stop_after is not None and done >= stop_after:
            return eng, False
    return eng, True


#: ``replay_from_parquet`` runs each window as several tasks (several
#: fragments per partition per window): 32-row row groups, 96-row units
WRITE_ENTRIES = [
    pytest.param({"entry": "dataset"}, id="replay_window"),
    pytest.param({"entry": "parquet", "batch_size": 96}, id="replay_from_parquet"),
]


@pytest.mark.parametrize("num_partitions,n_windows", [(1, 1), (4, 3), (16, 5)])
def test_replay_matches_oracle_any_partitioning(
    ray_session, scenario, tmp_path, num_partitions, n_windows
):
    sc, data_dir, expected = scenario
    out = str(tmp_path / f"out_{num_partitions}_{n_windows}")
    eng, _ = run_replay(ray_session, sc, data_dir, out, num_partitions, n_windows)
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_salted_partitioning_same_result(ray_session, scenario, tmp_path):
    sc, data_dir, expected = scenario
    out = str(tmp_path / "salted")
    eng, _ = run_replay(ray_session, sc, data_dir, out, 8, 2, salt=4)
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_fast_path_combiner_same_result(ray_session, scenario, tmp_path):
    sc, data_dir, expected = scenario
    out = str(tmp_path / "fast")
    eng, _ = run_replay(
        ray_session, sc, data_dir, out, 8, 3, validate_pairs=False
    )
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


@pytest.mark.parametrize("how", WRITE_ENTRIES)
def test_write_exchange_same_result(ray_session, scenario, tmp_path, how):
    """The shuffle-free write-exchange sink (partition-clustered fragments +
    merge-on-read) converges to the identical final state."""
    sc, data_dir, expected = scenario
    out = str(tmp_path / "writex")
    eng, _ = run_replay(
        ray_session, sc, data_dir, out, 8, 3,
        validate_pairs=False, exchange="write", **how,
    )
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))
    if how["entry"] == "parquet":
        # several tasks per window: a partition's lineage names several
        # fragments of one window
        stream = [m for m in load_manifests(out) if m.kind == "stream"]
        assert len(stream) == 3
        assert all(
            max(len(p["files"]) for p in m.partitions.values()) > 1
            for m in stream
        )
    # compaction folds fragments into per-partition base files
    from debezium_connector_db2_ray.state.manifest import live_files

    eng.compact()
    assert len(live_files(out)) <= 8
    got2 = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got2).equals(sorted_pdf(expected))


@pytest.mark.parametrize("how", WRITE_ENTRIES)
def test_write_exchange_kill_resume(ray_session, scenario, tmp_path, how):
    sc, data_dir, expected = scenario
    out = str(tmp_path / "writex_resume")
    run_replay(ray_session, sc, data_dir, out, 8, 4, stop_after=2,
               validate_pairs=False, exchange="write", **how)
    eng2, finished = run_replay(ray_session, sc, data_dir, out, 8, 4,
                                validate_pairs=False, exchange="write", **how)
    assert finished
    assert len([m for m in load_manifests(out) if m.kind == "stream"]) == 4
    got = pa.Table.from_pandas(
        eng2.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_strict_validation_requires_shuffle_exchange():
    import pytest as _pytest

    with _pytest.raises(ValueError):
        CdcEngine(out_dir="/tmp/x", exchange="write", validate_pairs=True)


def test_kill_and_resume_no_dup_no_loss(ray_session, scenario, tmp_path):
    sc, data_dir, expected = scenario
    out = str(tmp_path / "resume")
    # run snapshot + first 2 of 4 windows, then "die"
    eng, finished = run_replay(ray_session, sc, data_dir, out, 8, 4, stop_after=2)
    assert not finished
    wm_mid = committed_watermark(out)
    assert wm_mid is not None and wm_mid < sc.max_lsn
    # resume in a "new process": fresh engine over the same out_dir
    eng2, finished2 = run_replay(ray_session, sc, data_dir, out, 8, 4)
    assert finished2
    # windows <= watermark were skipped: count stream manifests
    ms = [m for m in load_manifests(out) if m.kind == "stream"]
    assert len(ms) == 4  # 2 before the kill + 2 after (none re-applied)
    got = pa.Table.from_pandas(
        eng2.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))
    assert committed_watermark(out) == sc.max_lsn


def test_rerun_window_is_idempotent(ray_session, scenario, tmp_path):
    import ray.data as rd

    sc, data_dir, expected = scenario
    out = str(tmp_path / "idem")
    eng, _ = run_replay(ray_session, sc, data_dir, out, 4, 2)
    # re-submitting an already-covered window is a no-op (watermark skip)
    windows = plan_windows(sc.snapshot_lsn.increment(), sc.max_lsn, 2)
    m = eng.replay_window(
        rd.read_parquet(os.path.join(data_dir, "changelog.parquet")), *windows[0]
    )
    assert m is None
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_compaction_preserves_state_and_prunes_files(ray_session, scenario, tmp_path):
    from debezium_connector_db2_ray.metrics import read_amplification
    from debezium_connector_db2_ray.state.manifest import live_files

    sc, data_dir, expected = scenario
    out = str(tmp_path / "compact")
    eng, _ = run_replay(ray_session, sc, data_dir, out, 4, 3)
    n_before = len(live_files(out))
    # every partition names the snapshot's file and one per window (each
    # a fragment shared by the partitions of its reduce task)
    assert read_amplification(out) == 4
    eng.compact()
    n_after = len(live_files(out))
    assert n_after <= 4  # one base file per partition
    assert n_after < n_before
    assert read_amplification(out) == 1  # one file per partition left
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_lineage_counts_cover_all_events(ray_session, scenario, tmp_path):
    sc, data_dir, expected = scenario
    out = str(tmp_path / "lineage")
    eng, _ = run_replay(ray_session, sc, data_dir, out, 4, 2)
    ms = load_manifests(out)
    assert ms[0].kind == "snapshot"
    assert ms[0].snapshot_completed
    total_rows = sum(
        p["rows"] for m in ms for p in m.partitions.values() if m.kind == "stream"
    )
    assert total_rows > 0
    for m in ms:
        for p in m.partitions.values():
            assert p["min_lsn"] is not None and p["max_lsn"] is not None
            assert sum(p["op_counts"].values()) == p["rows"]


def test_orphan_staged_files_invisible(ray_session, scenario, tmp_path):
    """Files left behind by killed/retried tasks (present on disk, absent
    from every committed manifest) never reach readers — the two-phase
    guarantee."""
    import pyarrow.parquet as pq_

    from debezium_connector_db2_ray.state.manifest import live_files

    sc, data_dir, expected = scenario
    out = str(tmp_path / "orphans")
    eng, _ = run_replay(ray_session, sc, data_dir, out, 4, 2)
    # simulate a retried task's leftover: a poisoned fragment in a delta dir
    deltas = [d for d in os.listdir(os.path.join(out, "delta"))]
    poison_dir = os.path.join(out, "delta", deltas[0], "part=00000")
    os.makedirs(poison_dir, exist_ok=True)
    poison = sc.changelog.slice(0, 50).append_column(
        "__part", pa.array([0] * 50, pa.int32())
    )
    pq_.write_table(poison, os.path.join(poison_dir, "part-deadbeef.parquet"))
    assert os.path.join(poison_dir, "part-deadbeef.parquet") not in live_files(out)
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))


def test_snapshot_mode_always_replaces_state(ray_session, tmp_path):
    """Snapshot ALWAYS ignores prior offsets/state and re-reads the current
    source: after delete id=1 + insert id=3, a re-snapshot returns exactly
    the current rows (Db2ConnectorIT.java:912-970)."""
    import ray.data as rd

    lake_v1 = pa.table(
        {
            "conv_id": ["c1", "c2"],
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": ["user", "user"],
            "text": ["one", "two"],
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([0, 0], pa.timestamp("us")),
        }
    )
    # current source state later: c1 deleted, c3 inserted
    lake_v2 = pa.table(
        {
            "conv_id": ["c2", "c3"],
            "turn_idx": pa.array([0, 0], pa.int32()),
            "role": ["user", "user"],
            "text": ["two", "three"],
            "tool": pa.array([None, None], pa.string()),
            "ts": pa.array([0, 0], pa.timestamp("us")),
        }
    )
    out = str(tmp_path / "always")
    eng = CdcEngine(out_dir=out, num_partitions=2)
    eng.snapshot(rd.from_arrow(lake_v1), Lsn(0, 100))
    eng.snapshot(rd.from_arrow(lake_v2), Lsn(0, 200), replace=True)
    got = set(eng.state_dataset().to_pandas()["text"])
    assert got == {"two", "three"}  # exactly current state, no ghosts of 'one'


def test_repartition_requires_compaction_barrier(ray_session, scenario, tmp_path):
    """Changing (num_partitions, salt) without a barrier would split keys
    across partitions in old vs new files; the engine refuses, and compact()
    under the new settings re-tags everything."""
    import ray.data as rd

    sc, data_dir, expected = scenario
    out = str(tmp_path / "repart")
    eng, _ = run_replay(ray_session, sc, data_dir, out, 4, 1)
    # an engine with different partitioning must refuse to continue
    eng8 = CdcEngine(out_dir=out, num_partitions=8, salt=2)
    with pytest.raises(ValueError, match="partitioning"):
        eng8.replay_window(
            rd.read_parquet(os.path.join(data_dir, "changelog.parquet")),
            sc.max_lsn, Lsn(0, sc.max_lsn.to_int() + 10),
        )
    # compact() IS the repartitioning barrier
    eng8.compact()
    got = pa.Table.from_pandas(
        eng8.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    assert sorted_pdf(got).equals(sorted_pdf(expected))
    # and further windows under the new settings are accepted (no-op range)
    m = eng8.replay_window(
        rd.read_parquet(os.path.join(data_dir, "changelog.parquet")),
        sc.max_lsn, Lsn(0, sc.max_lsn.to_int() + 10),
    )
    assert m is not None
