"""The commit log is read once per process and committed at most once per
window id: ``load_manifests`` parses each manifest file version once, a
rewritten or rebuilt lake is read again, ``commit_manifest`` never replaces
a committed window, the schema history is parsed once per file version, and
the plain-task kernels ship to their tasks by reference."""

import collections
import json
import os
import pathlib
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.lsn import Lsn
from debezium_connector_db2_ray.pipelines import replay
from debezium_connector_db2_ray.pipelines.oracle import oracle_apply
from debezium_connector_db2_ray.pipelines.replay import CdcEngine
from debezium_connector_db2_ray.sources.genlog import generate_scenario
from debezium_connector_db2_ray.state import manifest, schema_log
from debezium_connector_db2_ray.state.manifest import (
    WindowManifest,
    commit_manifest,
    committed_watermark,
    live_files,
    load_manifests,
    manifest_path,
)
from debezium_connector_db2_ray.state.schema_log import SchemaHistory


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    sc = generate_scenario(
        n_convs=30, turns_per_conv=5, n_commits=300, seed=41, hot_fraction=0.2
    )
    d = tmp_path_factory.mktemp("manifest_cache")
    pq.write_table(sc.lake, str(d / "lake.parquet"))
    pq.write_table(sc.ordered_changelog, str(d / "log.parquet"),
                   row_group_size=40)
    expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
    return sc, str(d), expected


def _engine(out: str, sc, data_dir: str) -> CdcEngine:
    import ray.data as rd

    eng = CdcEngine(out_dir=out, num_partitions=4, validate_pairs=False,
                    exchange="write")
    eng.snapshot(rd.read_parquet(os.path.join(data_dir, "lake.parquet")),
                 sc.snapshot_lsn)
    return eng


def _manifest(wid: int, to_lsn: str, kind: str = "stream") -> WindowManifest:
    return WindowManifest(window_id=wid, kind=kind, from_lsn=None,
                          to_lsn=to_lsn, snapshot_completed=True)


def _count_parses(monkeypatch) -> collections.Counter:
    parses: collections.Counter = collections.Counter()
    real = manifest._parse

    def counting(path):
        parses[os.path.basename(path)] += 1
        return real(path)

    monkeypatch.setattr(manifest, "_parse", counting)
    return parses


def test_replay_parses_each_manifest_once(ray_session, scenario, tmp_path,
                                          monkeypatch):
    sc, data_dir, expected = scenario
    parses = _count_parses(monkeypatch)
    eng = _engine(str(tmp_path / "lake"), sc, data_dir)
    ms = eng.replay_from_parquet(os.path.join(data_dir, "log.parquet"),
                                 sc.snapshot_lsn, sc.max_lsn, 6)
    assert len(ms) == 6
    assert committed_watermark(eng.out_dir) == sc.max_lsn
    assert live_files(eng.out_dir)
    assert len(parses) == 7  # the snapshot and the 6 windows ...
    assert set(parses.values()) == {1}  # ... each parsed exactly once
    assert eng.state_dataset().count() == expected.num_rows


def test_rewritten_manifest_is_read_again(tmp_path, monkeypatch):
    out = str(tmp_path)
    commit_manifest(out, _manifest(0, "00000000:00000001"))
    parses = _count_parses(monkeypatch)
    assert load_manifests(out)[0].to_lsn == "00000000:00000001"
    assert load_manifests(out)[0].to_lsn == "00000000:00000001"
    assert parses["window-000000.json"] == 1
    # a writer that replaces the file in place (same name, new version)
    path = manifest_path(out, 0)
    with open(path) as f:
        raw = json.load(f)
    tmp = path + ".new"
    with open(tmp, "w") as f:
        json.dump({**raw, "to_lsn": "00000000:000000ff"}, f)
    os.replace(tmp, path)
    assert load_manifests(out)[0].to_lsn == "00000000:000000ff"
    assert parses["window-000000.json"] == 2


def test_lake_rebuilt_at_the_same_path_returns_only_its_manifests(tmp_path):
    out = str(tmp_path / "lake")
    for wid in range(3):
        commit_manifest(out, _manifest(wid, f"00000000:0000000{wid + 1}"))
    assert [m.window_id for m in load_manifests(out)] == [0, 1, 2]
    shutil.rmtree(out)
    assert load_manifests(out) == []
    assert os.path.join(out, manifest.MANIFEST_DIR) not in manifest._PARSED
    commit_manifest(out, _manifest(0, "00000000:00000abc", kind="snapshot"))
    ms = load_manifests(out)
    assert [(m.window_id, m.kind, m.to_lsn) for m in ms] == [
        (0, "snapshot", "00000000:00000abc")]


def test_cache_forgets_deleted_lakes(tmp_path):
    """A process that builds and deletes lake after lake keeps no parsed
    manifests of the deleted ones."""
    for i in range(5):
        out = str(tmp_path / f"lake{i}")
        commit_manifest(out, _manifest(0, "00000000:00000001"))
        load_manifests(out)
        shutil.rmtree(out)
    keep = str(tmp_path / "kept")
    commit_manifest(keep, _manifest(0, "00000000:00000001"))
    load_manifests(keep)
    cached = [d for d in manifest._PARSED if d.startswith(str(tmp_path))]
    assert cached == [os.path.join(keep, manifest.MANIFEST_DIR)]


def test_commit_of_a_committed_window_raises_and_keeps_the_first(tmp_path):
    out = str(tmp_path)
    path = pathlib.Path(commit_manifest(out, _manifest(3, "00000000:00000001")))
    first = path.read_bytes()
    with pytest.raises(FileExistsError):
        commit_manifest(out, _manifest(3, "00000000:00000002"))
    assert path.read_bytes() == first
    assert os.listdir(path.parent) == [path.name]
    assert load_manifests(out)[0].to_lsn == "00000000:00000001"


def test_schema_history_is_parsed_once_and_never_changed_by_a_reader(
    tmp_path, monkeypatch
):
    out = str(tmp_path)
    schema = pa.schema([("conv_id", pa.int64())])
    SchemaHistory(out).record("CREATE", "t", Lsn(0, 1), schema)
    schema_log._parsed_records.cache_clear()
    a, b = SchemaHistory(out), SchemaHistory(out)
    assert schema_log._parsed_records.cache_info().misses == 1
    assert a._records == b._records and a._records is not b._records

    def broken(*args):
        raise OSError("disk full")

    monkeypatch.setattr(schema_log.os, "replace", broken)
    with pytest.raises(OSError, match="disk full"):
        a.record("ALTER", "t", Lsn(0, 2), schema)
    monkeypatch.undo()
    # the failed flush is not visible to a later reader, and a successful
    # record is: the rewritten file is parsed again
    assert [r["kind"] for r in SchemaHistory(out)._records] == ["CREATE"]
    b.record("ALTER", "t", Lsn(0, 3), schema)
    assert [r["kind"] for r in SchemaHistory(out)._records] == ["CREATE", "ALTER"]


def test_stage_task_kernels_pickle_by_reference(ray_session, scenario,
                                                tmp_path, monkeypatch):
    """The kernel ``_run_stage_tasks`` ships to a write window's tasks and
    to ``compact()``'s is a partial of module-level functions over plain
    values: a few hundred bytes, not the engine's closures by value."""
    from ray import cloudpickle

    sc, data_dir, expected = scenario
    eng = _engine(str(tmp_path / "lake"), sc, data_dir)
    sizes = []
    real = replay._run_stage_tasks

    def measuring(kernel, units):
        sizes.append(len(cloudpickle.dumps(kernel)))
        return real(kernel, units)

    monkeypatch.setattr(replay, "_run_stage_tasks", measuring)
    eng.replay_from_parquet(os.path.join(data_dir, "log.parquet"),
                            sc.snapshot_lsn, sc.max_lsn, 2)
    eng.compact()
    assert len(sizes) == 3
    assert max(sizes) < 1024, sizes
