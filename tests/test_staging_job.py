"""The engine's one Ray Data staging job (``CdcEngine._staged``): every
single-table sink is one job per commit, and a worker that dies after
staging is retried while its file stays invisible."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines import replay
from debezium_connector_db2_ray.pipelines.oracle import oracle_apply
from debezium_connector_db2_ray.pipelines.replay import CdcEngine, plan_windows
from debezium_connector_db2_ray.sources.genlog import generate_scenario
from debezium_connector_db2_ray.state.manifest import live_files, load_manifests

from .test_multitable import _assert_state, _shared_stream, sorted_pdf
from .test_write_tasks import _files_on_disk, _named_files


@pytest.mark.parametrize("sink,exchange", [
    ("snapshot", "shuffle"), ("chunk", "shuffle"),
    ("window", "shuffle"), ("window", "write"),
])
def test_single_table_sink_is_one_job(ray_session, tmp_path, monkeypatch,
                                      sink, exchange):
    """A snapshot, one incremental-snapshot chunk and a ``replay_window``
    over a Dataset on either exchange each run one Ray Data job (one
    ``take_all``) per commit and materialize nothing."""
    import ray.data as rd

    sc = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=131)
    eng = CdcEngine(out_dir=str(tmp_path / "lh"), num_partitions=4,
                    exchange=exchange, validate_pairs=exchange == "shuffle")
    lake = rd.from_arrow(sc.lake)
    if sink != "snapshot":
        eng.snapshot(lake, sc.snapshot_lsn)
    before = len(load_manifests(eng.out_dir))

    calls = []
    take_all = rd.Dataset.take_all

    def counted(self, *a, **kw):
        calls.append(1)
        return take_all(self, *a, **kw)

    def refuse(self, *a, **kw):
        raise AssertionError("a staging job materialized a Dataset")

    monkeypatch.setattr(rd.Dataset, "take_all", counted)
    monkeypatch.setattr(rd.Dataset, "materialize", refuse)
    if sink == "snapshot":
        ms = [eng.snapshot(lake, sc.snapshot_lsn)]
    elif sink == "chunk":
        ms = eng.incremental_snapshot(lake, sc.snapshot_lsn, n_chunks=2,
                                      max_chunks_per_call=1)
    else:
        stream = rd.from_arrow(sc.changelog)
        ms = [eng.replay_window(stream, lo, hi) for lo, hi in
              plan_windows(sc.snapshot_lsn.increment(), sc.max_lsn, 2)]
    monkeypatch.undo()
    assert len(calls) == len(ms) == len(load_manifests(eng.out_dir)) - before
    assert all(m.partitions for m in ms)


def _crash_once(real, marker: str):
    """``real`` (a writer factory) whose writers kill their worker once,
    after the first call staged its file."""

    def factory(delta_dir, **kw):
        inner = real(delta_dir, **kw)

        def fn(table):
            rows = inner(table)
            if rows.num_rows:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    return rows
                os._exit(1)  # the worker dies after staging its file
            return rows

        return fn

    return factory


@pytest.mark.parametrize("case", ["connector-shuffle-strict", "window-write"])
def test_crashed_sink_task_is_retried_and_its_file_stays_invisible(
    ray_session, tmp_path, monkeypatch, case
):
    """A writer of the Ray Data staging job kills its worker once, after
    staging: Ray retries the task, every window commits, and the dead
    attempt's file is named by no manifest."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector

    marker = str(tmp_path / "crashed")
    d = tmp_path / "data"
    d.mkdir()
    n = 2
    if case == "connector-shuffle-strict":
        sc = {"TA": generate_scenario(n_convs=8, turns_per_conv=3,
                                      n_commits=80, seed=141),
              "TB": generate_scenario(n_convs=8, turns_per_conv=3,
                                      n_commits=80, seed=142)}
        snap = sc["TA"].snapshot_lsn
        hi = Lsn(0, max(s.max_lsn.to_int() for s in sc.values()))
        conn = CdcConnector(root_dir=str(tmp_path / "lh"), num_partitions=4)
        conn.snapshot_all({t: rd.from_arrow(s.lake) for t, s in sc.items()},
                          snap)
        stream = rd.read_parquet(_shared_stream(d, sc))
        monkeypatch.setattr(replay, "staged_writer",
                            _crash_once(replay.staged_writer, marker))
        ms = conn.replay(stream, snap, hi, n, tables=sorted(sc))
        monkeypatch.undo()
        assert {t: len(m) for t, m in ms.items()} == {"TA": n, "TB": n}
        outs = [conn.engine(t).out_dir for t in sc]
    else:
        sc = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80,
                               seed=143)
        eng = CdcEngine(out_dir=str(tmp_path / "lh"), num_partitions=4,
                        exchange="write", validate_pairs=False)
        eng.snapshot(rd.from_arrow(sc.lake), sc.snapshot_lsn)
        pq.write_table(sc.changelog, str(d / "log.parquet"))
        stream = rd.read_parquet(str(d / "log.parquet"))
        monkeypatch.setattr(replay, "fragment_writer",
                            _crash_once(replay.fragment_writer, marker))
        ms = [eng.replay_window(stream, lo, hi) for lo, hi in
              plan_windows(sc.snapshot_lsn.increment(), sc.max_lsn, n)]
        monkeypatch.undo()
        assert all(m is not None for m in ms)
        outs = [eng.out_dir]
    assert os.path.exists(marker)  # the crash happened
    orphans = set().union(*(_files_on_disk(o) - _named_files(o) for o in outs))
    assert len(orphans) == 1  # the dead attempt's file
    assert not orphans & {f for o in outs for f in live_files(o)}
    if case == "connector-shuffle-strict":
        for t, s in sc.items():
            _assert_state(conn, t,
                          oracle_apply(s.lake, s.ordered_changelog, snap))
    else:
        want = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
        got = pa.Table.from_pandas(eng.state_dataset().to_pandas(),
                                   preserve_index=False)
        assert sorted_pdf(got.select(want.column_names)).equals(sorted_pdf(want))
