"""Merge-on-read by unit: the reader that opens each live file once, the
planner that packs partitions into units, and the state reads and
compactions that both run on them."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from debezium_connector_db2_ray.metrics import read_amplification
from debezium_connector_db2_ray.pipelines import replay
from debezium_connector_db2_ray.pipelines.oracle import oracle_apply
from debezium_connector_db2_ray.pipelines.replay import (
    PART_COL,
    CdcEngine,
    merge_units,
    read_unit_table,
    tag_partitions,
)
from debezium_connector_db2_ray.sources.genlog import generate_scenario
from debezium_connector_db2_ray.state.manifest import (
    live_files,
    live_partitions,
    load_manifests,
)

from .test_write_tasks import _expected, _files_on_disk, _named_files

FILL = {"note": (pa.string(), "dflt")}


def _sorted(t: pa.Table) -> pa.Table:
    t = t.select(sorted(t.column_names))
    keys = [c for c in ("conv_id", "turn_idx", "commit_lsn_lo", "intent_lsn_lo")
            if c in t.column_names]
    return t.sort_by([(c, "ascending") for c in keys])


def _per_partition_reads(partitions, files, fill) -> pa.Table:
    """The reference read: one filtered ``pq.read_table`` per (partition,
    file), the DEFAULT column added per file, concatenated."""
    tables = []
    for p, fs in zip(partitions, files):
        for f in fs:
            t = pq.read_table(f, filters=[(PART_COL, "=", p)])
            tables.append(replay._with_defaults(t, fill))
    return pa.concat_tables(tables, promote_options="permissive")


@pytest.fixture(scope="module")
def shaped_files(tmp_path_factory):
    """Four file shapes over one tagged changelog of 8 partitions, each
    holding a quarter of the rows: per-partition ``part=NNNNN/`` files, a
    fragment whose row groups hold several partitions, a file without
    statistics and a pre-ALTER file without the DEFAULT column ``note``."""
    sc = generate_scenario(n_convs=40, turns_per_conv=4, n_commits=300, seed=5)
    log = tag_partitions(8)(sc.changelog)
    log = log.append_column("note", pa.array([f"n{i}" for i in range(log.num_rows)]))
    d = tmp_path_factory.mktemp("shapes")
    quarters = [log.slice(i * log.num_rows // 4, log.num_rows // 4 + 1)
                for i in range(4)]
    by_part: dict[int, list[str]] = {}

    def add(path: str, t: pa.Table) -> None:
        for p in np.unique(t[PART_COL].to_numpy()):
            by_part.setdefault(int(p), []).append(path)

    codes = quarters[0][PART_COL].to_numpy()
    for p in np.unique(codes):  # the former per-partition shuffle layout
        os.makedirs(d / f"part={p:05d}")
        path = str(d / f"part={p:05d}" / "part-0.parquet")
        pq.write_table(quarters[0].filter(pa.array(codes == p)), path)
        by_part.setdefault(int(p), []).append(path)
    frag = quarters[1].sort_by(PART_COL)
    pq.write_table(frag, str(d / "frag.parquet"), row_group_size=7)
    assert pq.ParquetFile(str(d / "frag.parquet")).metadata.num_row_groups > 8
    add(str(d / "frag.parquet"), frag)
    pq.write_table(quarters[2], str(d / "nostats.parquet"), row_group_size=11,
                   write_statistics=False)
    add(str(d / "nostats.parquet"), quarters[2])
    pre = quarters[3].drop_columns(["note"])
    pq.write_table(pre, str(d / "prealter.parquet"), row_group_size=13)
    add(str(d / "prealter.parquet"), pre)
    return by_part, str(d)


@pytest.mark.parametrize("partitions", [[0], [2, 3], [1, 4, 5, 7], list(range(8))])
def test_unit_reader_equals_per_partition_reads(shaped_files, partitions):
    shaped_files, _ = shaped_files
    files = [shaped_files[p] for p in partitions]
    assert all(len(fs) == 4 for fs in files)  # every shape in every partition
    got = read_unit_table({"partitions": partitions, "files": files}, FILL)
    want = _per_partition_reads(partitions, files, FILL)
    assert got.num_rows == want.num_rows > 0
    assert set(got[PART_COL].to_pylist()) == set(partitions)
    assert "dflt" in got["note"].to_pylist()  # pre-ALTER rows, filled
    assert _sorted(got).equals(_sorted(want))


def test_unit_reader_reads_only_row_groups_that_can_hold_the_unit(
    shaped_files, monkeypatch
):
    _, d = shaped_files
    reads = []
    real = pq.ParquetFile.read_row_group
    monkeypatch.setattr(pq.ParquetFile, "read_row_group",
                        lambda self, g, **k: reads.append(g) or real(self, g, **k))
    held, groups = {}, {}
    for name in ("frag.parquet", "nostats.parquet"):
        path = os.path.join(d, name)
        md = pq.ParquetFile(path).metadata
        col = md.schema.names.index(PART_COL)
        stats = [md.row_group(g).column(col).statistics
                 for g in range(md.num_row_groups)]
        held[name] = [g for g, s in enumerate(stats)
                      if s is None or not s.has_min_max or s.min <= 3 <= s.max]
        groups[name] = md.num_row_groups
        reads.clear()
        read_unit_table({"partitions": [3], "files": [[path]]})
        assert reads == held[name]
    assert len(held["nostats.parquet"]) == groups["nostats.parquet"]
    assert 0 < 3 * len(held["frag.parquet"]) < groups["frag.parquet"]


def _live(rows: list[int]) -> dict:
    return {p: (r, [f"f{p}"]) for p, r in enumerate(rows)}


def test_merge_units_planning():
    live = _live([100] * 16)
    one = merge_units(live, 400_000, cpus=1)
    assert [u["partitions"] for u in one] == [list(range(16))]
    assert one[0]["files"] == [[f"f{p}"] for p in range(16)]
    assert len(merge_units(live, 400_000, cpus=16)) == 16
    assert len(merge_units(live, 400_000, cpus=64)) == 16
    assert len(merge_units(live, 400_000, cpus=4)) == 4
    # no more units than CPUs where batch_size allows, even when the
    # partitions do not split the rows evenly
    assert len(merge_units(_live([10] * 4), 400_000, cpus=3)) == 3
    assert len(merge_units(_live([10] * 4), 20, cpus=1)) == 2
    skewed = _live([1000, 1, 1, 1, 5, 300, 2, 2])
    for batch_size, cpus in [(250, 1), (300, 2), (10, 1), (2000, 3), (1, 1)]:
        units = merge_units(skewed, batch_size, cpus)
        assert len(units) >= min(8, cpus)
        flat = [p for u in units for p in u["partitions"]]
        assert flat == list(range(8))  # each partition once, consecutive
        for u in units:
            rows = sum(skewed[p][0] for p in u["partitions"])
            assert rows <= batch_size or len(u["partitions"]) == 1
    assert merge_units({}, 10, cpus=4) == []


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    sc = generate_scenario(n_convs=60, turns_per_conv=5, n_commits=500, seed=8,
                           hot_fraction=0.1)
    d = tmp_path_factory.mktemp("merge_units")
    pq.write_table(sc.lake, str(d / "lake.parquet"))
    pq.write_table(sc.ordered_changelog, str(d / "log.parquet"), row_group_size=50)
    expected = oracle_apply(sc.lake, sc.ordered_changelog, sc.snapshot_lsn)
    return sc, str(d), expected


def _build(sc, data_dir: str, out: str, **kw) -> CdcEngine:
    import ray.data as rd

    eng = CdcEngine(out_dir=out, num_partitions=16, validate_pairs=False,
                    exchange="write", auto_compact=False, **kw)
    eng.snapshot(rd.read_parquet(os.path.join(data_dir, "lake.parquet")),
                 sc.snapshot_lsn)
    eng.replay_from_parquet(os.path.join(data_dir, "log.parquet"),
                            sc.snapshot_lsn, sc.max_lsn, 3)
    return eng


def _rows(eng: CdcEngine, expected: pa.Table):
    got = pa.Table.from_pandas(eng.state_dataset().to_pandas(),
                               preserve_index=False).select(expected.column_names)
    return (got.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
            .to_pandas().reset_index(drop=True))


def _count_units(monkeypatch) -> list[int]:
    """Record the number of merge tasks of every state read and compaction."""
    import ray.data as rd

    seen: list[int] = []
    real_items, real_tasks = rd.from_items, replay._run_stage_tasks
    monkeypatch.setattr(rd, "from_items",
                        lambda items, **k: seen.append(len(items)) or real_items(items, **k))
    monkeypatch.setattr(replay, "_run_stage_tasks",
                        lambda kernel, units: seen.append(len(units)) or real_tasks(kernel, units))
    return seen


def test_units_by_cpu_and_batch_size_give_the_oracle_state(
    ray_session, lake, tmp_path, monkeypatch
):
    sc, data_dir, expected = lake
    want = _expected(expected)
    one = _build(sc, data_dir, str(tmp_path / "one"))
    many = _build(sc, data_dir, str(tmp_path / "many"), batch_size=60)
    live_rows = sum(r for r, _ in live_partitions(many.out_dir).values())
    assert len(live_partitions(many.out_dir)) == 16 and live_rows > 60

    monkeypatch.setattr(replay, "_cluster_cpus", lambda: 1)
    seen = _count_units(monkeypatch)
    state_one = _rows(one, expected)
    assert seen == [1]  # 16 partitions, one task at one CPU
    state_many = _rows(many, expected)
    assert seen[1] > 1
    assert state_one.equals(want) and state_many.equals(want)

    one.compact()
    many.compact()
    assert seen[2] == 1 and seen[3] == seen[1]  # compaction: the same units
    for eng in (one, many):
        assert read_amplification(eng.out_dir) == 1
        assert _rows(eng, expected).equals(want)
    monkeypatch.undo()
    # one fragment per unit; the compacted rows are the same either way
    assert len(live_files(one.out_dir)) == 1
    assert 1 < len(live_files(many.out_dir)) <= seen[3]
    base = [pa.concat_tables([pq.ParquetFile(f).read() for f in live_files(e.out_dir)])
            .drop_columns([PART_COL]) for e in (one, many)]
    assert _sorted(base[0]).equals(_sorted(base[1]))


def test_crashed_compaction_unit_is_retried_and_its_fragment_stays_invisible(
    ray_session, lake, tmp_path, monkeypatch
):
    sc, data_dir, expected = lake
    eng = _build(sc, data_dir, str(tmp_path / "lake"), batch_size=100)
    marker = str(tmp_path / "crashed")
    real = replay.fragment_writer

    def crash_once(delta_dir, **kw):
        inner = real(delta_dir, **kw)

        def fn(batch):
            rows = inner(batch)
            if rows.num_rows:
                try:  # units run concurrently: exactly one claims the crash
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    return rows
                os._exit(1)  # the worker dies after staging its fragment
            return rows

        return fn

    monkeypatch.setattr(replay, "fragment_writer", crash_once)
    m = eng.compact()
    monkeypatch.undo()
    assert os.path.exists(marker)
    assert load_manifests(eng.out_dir)[-1].kind == m.kind == "compaction"
    orphans = _files_on_disk(eng.out_dir) - _named_files(eng.out_dir)
    assert len(orphans) == 1  # the crashed attempt's fragment
    assert not orphans & set(live_files(eng.out_dir))
    assert read_amplification(eng.out_dir) == 1
    assert _rows(eng, expected).equals(_expected(expected))
