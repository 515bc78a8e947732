"""The engine's one Ray Data staging job (``CdcEngine._staged``): every
single-table sink is one job per commit, a worker that dies after staging
is retried while its file stays invisible, and the shuffle sink's
plain-task exchange (``task_exchange``) gives the same lake with one or
several reduce tasks."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.functions import exchange as xmod
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
    execution) per commit and materialize nothing."""
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    sc = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=131)
    eng = CdcEngine(out_dir=str(tmp_path / "lh"), num_partitions=4,
                    exchange=exchange, validate_pairs=exchange == "shuffle")
    lake = rd.from_arrow(sc.lake)
    if sink != "snapshot":
        eng.snapshot(lake, sc.snapshot_lsn)
    before = len(load_manifests(eng.out_dir))

    calls = []
    execute = ExecutionPlan.execute_to_iterator

    def counted(self, *a, **kw):
        calls.append(1)
        return execute(self, *a, **kw)

    def refuse(self, *a, **kw):
        raise AssertionError("a staging job materialized a Dataset")

    # ``take_all`` (write sink) and ``iter_internal_ref_bundles`` (shuffle
    # sink) both execute their Dataset here
    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", counted)
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
    """The sink kernel of the Ray Data staging job kills its worker once,
    after staging: Ray retries the task, every window commits, and the
    dead attempt's file is named by no manifest. On the connector's shuffle
    exchange the dead reduce task had staged one table's fragment."""
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
        monkeypatch.setattr(replay, "fragment_writer",
                            _crash_once(replay.fragment_writer, marker))
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


def _count_tasks(monkeypatch) -> dict:
    """Count the plain-task exchange's split and reduce launches; a split's
    entry is its ``num_returns``."""
    calls = {"split": [], "reduce": 0}
    split, reduce = xmod._split, xmod._reduce

    class Split:
        def options(self, **kw):
            calls["split"].append(kw["num_returns"])
            return split.options(**kw)

    class Reduce:
        def remote(self, *a):
            calls["reduce"] += 1
            return reduce.remote(*a)

    monkeypatch.setattr(xmod, "_split", Split())
    monkeypatch.setattr(xmod, "_reduce", Reduce())
    return calls


def _three_blocks(table: pa.Table) -> list[pa.Table]:
    """``table`` as three blocks. In a changelog every update's before
    image (op 3) sits in an earlier block than its after image (op 4)."""
    if "op" not in table.column_names:
        n = table.num_rows // 3
        return [table.slice(0, n), table.slice(n, n), table.slice(2 * n)]
    after = table["op"].to_numpy() == 4
    rest = table.filter(pa.array(~after))
    half = rest.num_rows // 2
    return [rest.slice(0, half), rest.slice(half),
            table.filter(pa.array(after))]


def _manifest_shapes(out: str) -> list:
    """A lake's manifests with each partition's file names replaced by
    their count (file names carry uuids)."""
    return [(m.kind, m.from_lsn, m.to_lsn, m.snapshot_completed,
             {k: {**p, "files": len(p["files"])}
              for k, p in m.partitions.items()})
            for m in load_manifests(out)]


@pytest.mark.parametrize("phase", ["snapshot", "connector-window"])
def test_exchange_with_several_reduce_tasks_matches_one(
    ray_session, tmp_path, monkeypatch, phase
):
    """Three input blocks and a small ``batch_size`` give several tagged
    blocks, so the shuffle sink splits each into several reduce tasks. A
    snapshot and a strict 2-table connector window (each update's before
    and after images in different blocks) still match the oracle, name
    exactly one file per (table, partition), and commit the manifests of
    a one-block run, whose one reduce task takes the block unsplit."""
    import ray.data as rd

    from debezium_connector_db2_ray.connector import CdcConnector

    sc = {"TA": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80,
                                  seed=151),
          "TB": generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80,
                                  seed=152)}
    snap = sc["TA"].snapshot_lsn
    hi = Lsn(0, max(s.max_lsn.to_int() for s in sc.values()))
    stream = pa.concat_tables([
        s.changelog.append_column("src_table", pa.array([t] * s.changelog.num_rows))
        for t, s in sc.items()
    ])

    def run(name: str, split: bool):
        conn = CdcConnector(root_dir=str(tmp_path / name), num_partitions=4)
        batch_size = 4 if split else conn.engine("TA").batch_size
        for t in sc:
            conn.engine(t).batch_size = batch_size
        if phase == "snapshot":
            lake = sc["TA"].lake
            calls = _count_tasks(monkeypatch)
            conn.snapshot_all({"TA": rd.from_arrow(
                _three_blocks(lake) if split else lake)}, snap)
            monkeypatch.undo()
            _assert_state(conn, "TA", oracle_apply(
                lake, sc["TA"].ordered_changelog.slice(0, 0), snap))
            tables = ["TA"]
        else:
            conn.snapshot_all({t: rd.from_arrow(s.lake) for t, s in sc.items()},
                              snap)
            calls = _count_tasks(monkeypatch)
            ms = conn.replay(
                rd.from_arrow(_three_blocks(stream) if split else stream),
                snap, hi, 1, tables=sorted(sc))
            monkeypatch.undo()
            assert {t: len(m) for t, m in ms.items()} == {"TA": 1, "TB": 1}
            for t, s in sc.items():
                _assert_state(conn, t,
                              oracle_apply(s.lake, s.ordered_changelog, snap))
            tables = sorted(sc)
        outs = [conn.engine(t).out_dir for t in tables]
        for o in outs:
            m = load_manifests(o)[-1]
            assert m.partitions
            assert all(len(p["files"]) == 1 for p in m.partitions.values())
        return calls, [_manifest_shapes(o) for o in outs]

    calls, split_shapes = run("split", True)
    assert len(calls["split"]) > 1
    assert set(calls["split"]) == {calls["reduce"]} and calls["reduce"] > 1
    calls, one_shapes = run("one", False)
    assert calls == {"split": [], "reduce": 1}
    assert split_shapes == one_shapes


def test_empty_shuffle_window_commits_no_partitions_and_no_reduce_task(
    ray_session, tmp_path, monkeypatch
):
    """A shuffle window that holds no event commits its manifest (the
    watermark moves) with no partitions, and starts no split or reduce
    task."""
    import ray.data as rd

    sc = generate_scenario(n_convs=8, turns_per_conv=3, n_commits=80, seed=153)
    eng = CdcEngine(out_dir=str(tmp_path / "lh"), num_partitions=4)
    eng.snapshot(rd.from_arrow(sc.lake), sc.snapshot_lsn)
    lo = Lsn.from_int(sc.max_lsn.to_int() + 10)
    hi = Lsn.from_int(lo.to_int() + 10)
    calls = _count_tasks(monkeypatch)
    m = eng.replay_window(rd.from_arrow(sc.changelog), lo, hi)
    monkeypatch.undo()
    assert calls == {"split": [], "reduce": 0}
    assert m is not None and m.partitions == {}
    assert load_manifests(eng.out_dir)[-1].to_lsn == hi.hex()
