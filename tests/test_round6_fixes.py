"""Round-5 verdict follow-ups: approximate bloom prefilter, gate ordering,
bench output compactness, config validation."""

from __future__ import annotations

import pyarrow as pa


def test_bloom_prefilter_no_false_negatives(ray_session):
    """bloom_prefilter keeps EVERY matching key (no false negatives),
    drops NULLs, and with a generous bitmap rejects the disjoint bulk —
    the approximate upstream cut for an exact downstream join."""
    import ray.data as rd

    from debezium_connector_db2_ray.functions.sketch import bloom_prefilter

    import numpy as np

    present = np.arange(0, 1000, 7, dtype=np.int64)          # right keys
    absent = np.arange(100_000, 110_000, dtype=np.int64)     # never match
    left = rd.from_arrow(pa.table({
        "k": pa.array(list(present) + list(absent) + [None], pa.int64()),
        "v": pa.array(range(len(present) + len(absent) + 1)),
    }))
    right = rd.from_arrow(pa.table({"k": pa.array(present, pa.int64())}))
    kept = [r["k"] for r in
            bloom_prefilter(left, right, on="k", m_bits=1 << 16).take_all()]
    assert None not in kept
    # no false negatives: every present key survives
    assert set(present) <= set(kept)
    # the bitmap actually prunes: survivors are a tiny superset
    assert len(kept) < len(present) + 0.05 * len(absent)


def test_gate_ordering_tiers():
    """__ray_entry__._ordered fronts pinned, then unchecked-with-oracle;
    no-oracle rows land dead last (round-4 verdict items 1/2 of the
    gate-rotation fix)."""
    import __ray_entry__ as e

    q = e.queries()
    names = list(q)
    assert names[:3] == e.DRIVER_GATE_PINNED
    oracle = set(e.oracle_sql())
    no_oracle = [n for n in names if n not in oracle]
    # every no-oracle row sits behind every oracle-backed row
    first_no_oracle = min(names.index(n) for n in no_oracle)
    last_oracle = max(names.index(n) for n in names if n in oracle)
    assert first_no_oracle > last_oracle
    # the driver window (50) contains zero no-oracle rows
    assert not (set(names[:50]) & set(no_oracle))


def test_entry_fails_loudly_when_data_queries_do_not_import(monkeypatch):
    """A broken functions/queries.py must fail the gate entry points, not
    silently drop the data queries from them."""
    import sys

    import pytest

    import __ray_entry__ as e

    monkeypatch.setitem(
        sys.modules, "debezium_connector_db2_ray.functions.queries", None
    )
    for fn in (e.queries, e.oracle_sql, e._oracle_keys):
        with pytest.raises(ImportError):
            fn()


def test_bench_final_line_is_compact():
    """bench.py's final stdout line must stay parseable inside the
    driver's bounded tail capture (BENCH_r04 recorded parsed: null when
    the 65-entry queries dict overflowed it). Guard the construction:
    compact line <= 10 gate queries + headline stage timings."""
    import json

    # replicate bench.main's compaction over a worst-case timings dict
    timings = {f"q{i:03d}": float(i) for i in range(100)}
    timings.update(snapshot_sec=1.0, replay_sec=2.0, state_read_sec=0.5,
                   compact_sec=0.7, state_read_after_compact_sec=0.1)
    compact = {
        k: timings[k]
        for k in ("snapshot_sec", "replay_sec", "state_read_sec",
                  "compact_sec", "state_read_after_compact_sec")
        if k in timings
    }
    gate_only = {k: v for k, v in timings.items() if k not in compact}
    for k in sorted(gate_only, key=gate_only.get, reverse=True)[:10]:
        compact[k] = gate_only[k]
    line = json.dumps({"metric": "m", "value": 2.0, "unit": "sec",
                       "queries": compact, "num_cpus": 32})
    assert len(compact) == 15
    assert len(line) < 2000
