"""The write exchange over a changelog path runs as plain Ray tasks planned
from cached parquet footers (``replay_from_parquet``), and so does
compaction: task retries, no Ray Data job, the footer cache, and a kill
inside compaction."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines import replay
from debezium_connector_db2_ray.pipelines.oracle import oracle_apply
from debezium_connector_db2_ray.pipelines.replay import CdcEngine
from debezium_connector_db2_ray.sources.genlog import generate_scenario
from debezium_connector_db2_ray.state.manifest import (
    committed_watermark,
    live_files,
    load_manifests,
)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    sc = generate_scenario(
        n_convs=30, turns_per_conv=5, n_commits=400, seed=33, hot_fraction=0.2
    )
    d = tmp_path_factory.mktemp("write_tasks")
    pq.write_table(sc.lake, str(d / "lake.parquet"))
    # LSN-ordered, small row groups: windows prune to a few of them
    pq.write_table(sc.ordered_changelog, str(d / "log.parquet"),
                   row_group_size=40)
    expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
    return sc, str(d), expected


def _engine(out: str, **kw) -> CdcEngine:
    return CdcEngine(out_dir=out, num_partitions=4, validate_pairs=False,
                     exchange="write", **kw)


def _snapshot(eng: CdcEngine, sc, data_dir: str) -> None:
    import ray.data as rd

    eng.snapshot(rd.read_parquet(os.path.join(data_dir, "lake.parquet")),
                 sc.snapshot_lsn)


def _state(eng: CdcEngine, expected: pa.Table):
    got = pa.Table.from_pandas(
        eng.state_dataset().to_pandas(), preserve_index=False
    ).select(expected.column_names)
    return (got.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
            .to_pandas().reset_index(drop=True))


def _expected(expected: pa.Table):
    return (expected.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
            .to_pandas().reset_index(drop=True))


def _named_files(out: str) -> set[str]:
    return {f for m in load_manifests(out) for p in m.partitions.values()
            for f in p["files"]}


def _files_on_disk(out: str) -> set[str]:
    return {os.path.join(d, f) for d, _, fs in os.walk(os.path.join(out, "delta"))
            for f in fs if f.endswith(".parquet")}


def test_crashed_task_is_retried_and_its_fragment_stays_invisible(
    ray_session, scenario, tmp_path, monkeypatch
):
    """A kernel that kills its worker once, after writing its fragment: Ray
    retries the task (``max_retries=-1``), the window commits the retry's
    files, and the crashed attempt's fragment is named by no manifest."""
    sc, data_dir, expected = scenario
    out = str(tmp_path / "lake")
    marker = str(tmp_path / "crashed")
    real = replay.fragment_writer

    def crash_once(delta_dir, **kw):
        inner = real(delta_dir, **kw)

        def fn(batch):
            rows = inner(batch)
            if rows.num_rows and not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)  # the worker dies after staging its fragment
            return rows

        return fn

    eng = _engine(out)
    _snapshot(eng, sc, data_dir)
    monkeypatch.setattr(replay, "fragment_writer", crash_once)
    ms = eng.replay_from_parquet(os.path.join(data_dir, "log.parquet"),
                                 sc.snapshot_lsn, sc.max_lsn, 2)
    monkeypatch.undo()
    assert os.path.exists(marker)  # the crash happened ...
    assert len(ms) == 2  # ... and both windows committed anyway
    orphans = _files_on_disk(out) - _named_files(out)
    assert len(orphans) == 1  # the crashed attempt's fragment
    assert not orphans & set(live_files(out))
    assert _state(eng, expected).equals(_expected(expected))


def test_write_windows_and_compaction_launch_no_ray_data_job(
    ray_session, scenario, tmp_path, monkeypatch
):
    import ray.data as rd

    sc, data_dir, expected = scenario
    out = str(tmp_path / "lake")
    eng = _engine(out, compact_trigger=2)
    _snapshot(eng, sc, data_dir)

    def no_job(*a, **k):
        raise AssertionError("a Ray Data job was launched")

    monkeypatch.setattr(rd, "read_parquet", no_job)
    monkeypatch.setattr(rd, "from_items", no_job)
    monkeypatch.setattr(rd.Dataset, "map_batches", no_job)
    eng.replay_from_parquet(os.path.join(data_dir, "log.parquet"),
                            sc.snapshot_lsn, sc.max_lsn, 4)
    assert any(m.kind == "compaction" for m in load_manifests(out))  # auto
    eng.compact()
    monkeypatch.undo()
    assert committed_watermark(out) == sc.max_lsn
    assert _state(eng, expected).equals(_expected(expected))


def test_rewritten_changelog_rereads_footer(ray_session, scenario, tmp_path):
    """The footer cache is keyed by (path, size, mtime_ns): a log rewritten
    at the same path with later commits is planned from its new footer."""
    sc, data_dir, expected = scenario
    log = sc.ordered_changelog
    path = str(tmp_path / "log.parquet")
    mid = Lsn.from_int((sc.snapshot_lsn.to_int() + sc.max_lsn.to_int()) // 2)
    first = log.filter(pc.less_equal(log["commit_lsn_lo"], mid.lo))
    pq.write_table(first, path, row_group_size=40)
    out = str(tmp_path / "lake")
    eng = _engine(out)
    _snapshot(eng, sc, data_dir)
    eng.replay_from_parquet(path, sc.snapshot_lsn, mid, 1)
    before = replay._row_groups(path)
    pq.write_table(log, path, row_group_size=40)  # the log grew in place
    after = replay._row_groups(path)
    assert sum(s[0] for _, _, s in after) == log.num_rows
    assert sum(s[0] for _, _, s in before) == first.num_rows
    eng.replay_from_parquet(path, mid, sc.max_lsn, 2)
    assert _state(eng, expected).equals(_expected(expected))


def test_log_without_statistics_prunes_nothing(ray_session, scenario, tmp_path):
    sc, data_dir, expected = scenario
    path = str(tmp_path / "nostats.parquet")
    pq.write_table(sc.ordered_changelog, path, row_group_size=40,
                   write_statistics=False)
    groups = replay._row_groups(path)
    assert len(groups) > 1
    assert all(s[1:] == (None,) * 4 for _, _, s in groups)
    window = (sc.snapshot_lsn, Lsn.from_int(sc.snapshot_lsn.to_int() + 1))
    assert all(replay._may_hold(s, *window, False) for _, _, s in groups)
    # the same window over the log with statistics prunes most groups
    stats = replay._row_groups(os.path.join(data_dir, "log.parquet"))
    assert sum(replay._may_hold(s, *window, False) for _, _, s in stats) < len(stats)
    out = str(tmp_path / "lake")
    eng = _engine(out)
    _snapshot(eng, sc, data_dir)
    eng.replay_from_parquet(path, sc.snapshot_lsn, sc.max_lsn, 3)
    assert _state(eng, expected).equals(_expected(expected))


_KILL_IN_COMPACTION = """
import os, signal, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=80 * 1024 * 1024)
import ray.data as rd
from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines import replay

lake, log, out, snap, top = sys.argv[1:6]
eng = replay.CdcEngine(out_dir=out, num_partitions=4, validate_pairs=False,
                       exchange="write", auto_compact=False)
eng.snapshot(rd.read_parquet(lake), Lsn.from_int(int(snap)))
eng.replay_from_parquet(log, Lsn.from_int(int(snap)), Lsn.from_int(int(top)), 3)
real = replay.commit_manifest

def commit_or_die(out_dir, m):
    if m.kind == "compaction":
        os.kill(os.getpid(), signal.SIGKILL)  # staged, not committed
    return real(out_dir, m)

replay.commit_manifest = commit_or_die
eng.compact()
"""


def test_kill_inside_compaction_resumes(ray_session, scenario, tmp_path,
                                        run_until_killed):
    """A process killed between compaction's staging and its manifest
    commit: the staged base files stay invisible, the watermark and the
    state are the last committed window's, and a fresh engine compacts."""
    sc, data_dir, expected = scenario
    out = str(tmp_path / "lake")
    run_until_killed(
        _KILL_IN_COMPACTION, os.path.join(data_dir, "lake.parquet"),
        os.path.join(data_dir, "log.parquet"), out,
        str(sc.snapshot_lsn.to_int()), str(sc.max_lsn.to_int()),
    )
    assert [m.kind for m in load_manifests(out)] == ["snapshot"] + ["stream"] * 3
    staged = _files_on_disk(out) - _named_files(out)
    assert staged  # compaction's base files reached the disk ...
    assert not staged & set(live_files(out))  # ... and stay invisible
    assert committed_watermark(out) == sc.max_lsn
    eng = _engine(out)
    assert _state(eng, expected).equals(_expected(expected))
    eng.compact()
    assert load_manifests(out)[-1].kind == "compaction"
    assert not staged & set(live_files(out))
    assert committed_watermark(out) == sc.max_lsn
    assert _state(eng, expected).equals(_expected(expected))
