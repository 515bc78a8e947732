"""Self-tests of the replay benchmark.

    python3 -m pytest replaybench/test_replaybench.py -q

The oracle is cross-checked against the package's row-at-a-time reference
apply; the benchmark itself is run from a directory outside the checkout,
and in a directory holding only the benchmark, where it must fail."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from debezium_connector_db2_ray.pipelines.oracle import oracle_apply  # noqa: E402
from debezium_connector_db2_ray.sources.genlog import generate_scenario  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("seed,hot,events_at_fence", [(1, 0.0, 0), (2, 0.3, 0), (3, 0.1, 5)])
def test_duckdb_oracle_matches_reference_apply(tmp_path, seed, hot, events_at_fence):
    import pyarrow.parquet as pq

    sc = generate_scenario(n_convs=30, n_commits=500, seed=seed, hot_fraction=hot,
                           events_at_fence=events_at_fence)
    lake, log = str(tmp_path / "lake.parquet"), str(tmp_path / "log.parquet")
    pq.write_table(sc.lake, lake)
    pq.write_table(sc.changelog, log)
    want = oracle.state_digest([oracle_apply(sc.lake, sc.changelog, sc.snapshot_lsn)])
    assert oracle.expected([lake], log, sc.snapshot_lsn.to_int()) == want
    assert want[0] > 0


def test_generated_workload_matches_reference_apply(tmp_path):
    """The workload generator's log (chunked, routed to two tables) against
    the reference apply, through the oracle used in every run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import inputs
    from debezium_connector_db2_ray.lsn import Lsn

    info = inputs.generate(inputs.warm_spec("connector_strict"), 5, str(tmp_path))
    lakes = [pq.read_table(p) for p in info["lakes"].values()]
    log = pq.read_table(info["log"]).drop_columns([inputs.ROUTING_COL])
    ref = oracle_apply(pa.concat_tables(lakes), log, Lsn.from_int(info["snapshot_lsn"]))
    got = oracle.expected(list(info["lakes"].values()), info["log"], info["snapshot_lsn"])
    assert got == oracle.state_digest([ref])


def _run(cwd, script, trace):
    return subprocess.run(
        [sys.executable, script, "--workload", "long_horizon", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_from_outside_the_checkout(tmp_path, trace, key):
    p = _run(str(tmp_path), os.path.join(HERE, "run.py"), trace)
    assert p.returncode == 0, p.stderr
    out = p.stdout.strip().splitlines()
    assert len(out) == 1, "stdout carries only the result line"
    res = json.loads(out[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert not os.listdir(tmp_path), "nothing written to the cwd"


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "replaybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(str(tmp_path), os.path.join("replaybench", "run.py"), 0)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
