#!/usr/bin/env python3
"""CDC replay benchmark: snapshot-then-stream catch-up replay through the
engine's public API, checked against an independent DuckDB oracle.

    python3 replaybench/run.py --workload connector_strict --seed 1 --seconds 40 --trace 0

Workloads (see ``inputs.SPECS`` for sizes, BENCHMARK.json for why each was
chosen and METRICS.md for what each metric should move):

- ``connector_strict``: ``CdcConnector`` with its defaults (shuffle
  exchange, strict update-pair validation), one shared stream routed to two
  tables;
- ``long_horizon``: ``CdcEngine(exchange="write")``, many small consecutive
  windows, one ``replay_from_parquet(path, lo, hi, 1)`` call each,
  auto-compaction on.

The loop is closed: a window starts when the previous one has committed, as
in the engine's own poll, apply, commit loop. A run generates its inputs
from the seed (set-up), then replays them in cycles: each cycle snapshots a
fresh lake, replays every window into it, reads the state and compacts it.
Metrics are medians over cycles (over all windows for the window
percentiles). A run has ``cycles`` cycles (``inputs.SPECS``), about 35 s on
one CPU, but starts none that would end past ``--seconds``. Before each
phase of a cycle a fixed reference Ray job (``_reference_s``) is timed, and
the end-to-end times are scaled by ``REFERENCE_S`` over the run's median
reference time, which takes the shared host's speed out of them.
With ``--trace 1`` it reports the per-layer metrics of ``layers.Tracer``
instead of the end-to-end ones.

Only the result line is printed to stdout; Ray's and the engine's output go
to ``.rbw/<workload>-seed<seed>-trace<trace>.log`` under the repository root.
Everything else a run writes (inputs, lakes, Ray's session directory) lives
in a per-run directory that is removed on every exit, except when a fatal
Ray error ends the process itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".rbw")

#: Ray's per-session socket paths add up to 64 characters to its temp dir,
#: and AF_UNIX paths are limited to 107 bytes.
_MAX_RAY_TMP = 40

#: Generation repeats per run; set-up time reports their median.
GEN_REPEATS = 3

#: Wall time of ``_reference_s`` on a quiet host (1 CPU of a 4-vCPU Xeon VM).
#: Time metrics are reported as if the run's median reference time were this.
REFERENCE_S = 0.1


BENIGN_WARNINGS = ("Failed to hash the schemas", "RefBundle with a different schema")


def _note(msg: str) -> None:
    """Phase marker in the run log."""
    print(f"replaybench {time.strftime('%H:%M:%S')} {msg}", file=sys.stderr, flush=True)


def _parse(argv):
    from inputs import SPECS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SPECS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


# ---- set-up ---------------------------------------------------------------


def _generate(workload: str, seed: int, in_dir: str):
    """Inputs plus the oracle's answer, computed in a child process so the
    main process's peak RSS holds only what the engine needs."""
    import subprocess

    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed),
         in_dir, str(GEN_REPEATS)],
        check=True, stdout=subprocess.PIPE, timeout=150,
    ).stdout
    info = json.loads(out.decode().strip().splitlines()[-1])
    return info, info.pop("gen_s")


def _start_ray(run_dir: str) -> str:
    import ray

    from procs import nproc

    tmp = os.path.join(run_dir, "ray")
    if len(tmp) > _MAX_RAY_TMP:
        # socket paths under the checkout would exceed the AF_UNIX limit
        tmp = tempfile.mkdtemp(prefix="rbw-")
    os.makedirs(tmp, exist_ok=True)
    # workers must import the package whatever the cwd is
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_DEDUP_LOGS"] = "0"  # count every warning line
    ray.init(
        num_cpus=nproc(), include_dashboard=False, logging_level="WARNING",
        object_store_memory=768 * 2**20, _temp_dir=tmp,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return tmp


# ---- the replay -----------------------------------------------------------


def _state_digest(datasets) -> tuple[int, int]:
    import ray

    import oracle

    tables = []
    for ds in datasets:
        tables.extend(ray.get(ds.to_arrow_refs()))
    return oracle.state_digest(tables)


def _engines(spec: dict, inp: dict, out_dir: str):
    """(connector or None, one engine per table) for a fresh lake."""
    from debezium_connector_db2_ray.connector import CdcConnector
    from debezium_connector_db2_ray.pipelines.replay import CdcEngine

    kw = dict(num_partitions=spec["partitions"], exchange=spec["exchange"],
              validate_pairs=spec["validate_pairs"])
    if spec["tables"] > 1:
        conn = CdcConnector(root_dir=out_dir, **kw)
        return conn, [conn.engine(t) for t in sorted(inp["lakes"])]
    return None, [CdcEngine(out_dir=out_dir, compact_trigger=spec["compact_trigger"],
                            **kw)]


def _reference_s() -> float:
    """Wall time of a fixed Ray Data job that runs none of the engine's code:
    200k generated rows in 4 blocks, each block sorted in a map task."""
    import numpy as np
    import ray.data as rd

    def sort_block(batch):
        return {"id": np.sort(np.sin(batch["id"].astype(np.float64)))}

    t0 = time.perf_counter()
    rd.range(200_000, override_num_blocks=4).map_batches(
        sort_block, batch_format="numpy").count()
    return time.perf_counter() - t0


def _cycle(spec: dict, inp: dict, lake: str, tracer) -> dict:
    """Snapshot a fresh lake at ``lake``, replay every window into it, read
    its state once and compact it once, with a reference job before each of
    those phases. Returns the wall times, the lake size, the row count read
    and the engines."""
    import ray.data as rd

    from debezium_connector_db2_ray.lsn import Lsn
    from debezium_connector_db2_ray.pipelines.replay import plan_windows

    from layers import dir_bytes

    snap = Lsn.from_int(inp["snapshot_lsn"])
    conn, engines = _engines(spec, inp, lake)
    ref = [_reference_s()]
    t0 = time.perf_counter()
    if conn is not None:
        conn.snapshot_all({t: rd.read_parquet(p) for t, p in inp["lakes"].items()},
                          snap)
    else:
        engines[0].snapshot(rd.read_parquet(inp["lakes"]["t0"]), snap)
    res = {"snapshot_s": time.perf_counter() - t0, "window_s": [], "ref_s": ref}
    ref.append(_reference_s())
    out_dirs = [e.out_dir for e in engines]

    windows = plan_windows(snap.increment(), Lsn.from_int(inp["max_lsn"]),
                           spec["windows"])
    stream = rd.read_parquet(inp["log"]) if conn is not None else None
    for lo, hi in windows:
        t0 = time.perf_counter()
        if conn is not None:
            conn.replay(stream, lo, hi, 1, tables=sorted(inp["lakes"]))
        else:
            engines[0].replay_from_parquet(inp["log"], lo, hi, 1)
        w = time.perf_counter() - t0
        res["window_s"].append(w)
        if tracer is not None:
            tracer.window(lo, hi, w, out_dirs)

    ref.append(_reference_s())
    t0 = time.perf_counter()
    res["state_rows"] = sum(e.state_dataset().count() for e in engines)
    res["state_read_s"] = time.perf_counter() - t0
    res["lake_bytes"] = dir_bytes(lake)
    if tracer is not None:
        tracer.replay_done(out_dirs)

    ref.append(_reference_s())
    t0 = time.perf_counter()
    for e in engines:
        e.compact()
    res["compact_s"] = time.perf_counter() - t0
    res["engines"] = engines
    return res


# ---- the run --------------------------------------------------------------


def run(args, run_dir: str, cleanup: list[str]) -> dict:
    """Set up, measure, check; ``cleanup`` collects directories to remove.
    Returns the result line with bare metric values."""
    from inputs import SPECS, warm_spec

    spec = SPECS[args.workload]
    inp, gen_times = _generate(args.workload, args.seed,
                               os.path.join(run_dir, "inputs"))
    t0 = time.perf_counter()
    cleanup.append(_start_ray(run_dir))
    # one small replay of the same shape runs every code path once, in the
    # main process and in the Ray workers, before anything is timed
    warm_dir = os.path.join(run_dir, "warm")
    _cycle(warm_spec(args.workload), inp.pop("warm"), warm_dir, None)
    shutil.rmtree(warm_dir)
    start_s = time.perf_counter() - t0
    setup_s = start_s + statistics.median(gen_times)
    _note(f"inputs generated in {gen_times} s, engine warm in {start_s:.2f} s")

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer(spec, inp["log"], os.path.join(run_dir, "trace"))

    # Host speed on a shared machine drifts over tens of seconds. Short
    # cycles, each on a fresh lake, spread every metric's samples across the
    # whole run, so that the medians below average that drift out. On a slow
    # host a cycle that would end past --seconds is not started.
    cycles, lake, begin = [], None, time.perf_counter()
    for i in range(spec["cycles"]):
        if lake is not None:
            shutil.rmtree(lake)
        lake = os.path.join(run_dir, f"lake{i}")
        c0 = time.perf_counter()
        cycles.append(_cycle(spec, inp, lake, tracer))
        _note(f"cycle {i + 1}: " + json.dumps(
            {k: v for k, v in cycles[-1].items() if k != "engines"}))
        now = time.perf_counter()
        if now - begin + (now - c0) > args.seconds:
            break

    from procs import tree_peak_rss_mb

    # before the oracle check, which pulls the whole state into this process
    peak_mb, n_procs = tree_peak_rss_mb()
    # every state read must return the oracle's row count, and the last
    # cycle's compacted state its row count and row-hash sum
    exp_rows, exp_hash = inp["expected"]
    digest = _state_digest([e.state_dataset() for e in cycles[-1]["engines"]])
    attempted = 1 + sum(len(c["window_s"]) + 3 for c in cycles)
    failed = int(digest != (exp_rows, exp_hash)) + sum(
        c["state_rows"] != exp_rows for c in cycles)
    windows = [w for c in cycles for w in c["window_s"]]
    med = statistics.median
    # The host's speed swings by a third for minutes at a time, far more than
    # any bound could absorb, and the engine's phases and the reference job
    # slow down alike. Scaling every time by the run's median reference time
    # takes the host's speed out of the figures; the raw times are in the run
    # log and the reference time is reported as host.reference_s.
    ref_s = med(r for c in cycles for r in c["ref_s"])
    host = REFERENCE_S / ref_s
    _note(f"reference job median {ref_s:.4f} s; times scaled by {host:.4f}")
    e2e = {
        "setup_s": setup_s * host,
        "events_per_s": med(inp["events"] / sum(c["window_s"]) for c in cycles) / host,
        "snapshot_rows_per_s": med(inp["lake_rows"] / c["snapshot_s"] for c in cycles)
        / host,
        "window_p50_s": med(windows) * host,
        "window_p90_s": _percentile(windows, 90) * host,
        "state_read_s": med(c["state_read_s"] for c in cycles) * host,
        "compact_s": med(c["compact_s"] for c in cycles) * host,
        "lake_mb": med(c["lake_bytes"] for c in cycles) / 2**20,
        "peak_rss_mb": peak_mb,
    }
    metrics = e2e
    if args.trace:
        # per-layer times are raw, as the tracer measures them
        metrics = tracer.metrics()
        metrics.update({
            "pipelines.replay.snapshot_s": med(c["snapshot_s"] for c in cycles),
            "pipelines.replay.state_read_s": med(c["state_read_s"] for c in cycles),
            "pipelines.replay.compact_s": med(c["compact_s"] for c in cycles),
            "pipelines.replay.window_p95_s": _percentile(windows, 95),
            "procs.counted": n_procs,
            "host.reference_s": ref_s,
            "trace.events_per_s": e2e["events_per_s"],
        })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def count_benign_warnings(log_path: str) -> int:
    with open(log_path, errors="replace") as f:
        return sum(any(w in line for w in BENIGN_WARNINGS) for line in f)


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    args = _parse(argv)
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, str(os.getpid()))
    log_path = os.path.join(
        WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.log")
    real_out, real_err = os.dup(1), os.dup(2)
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    sys.stdout.flush()
    sys.stderr.flush()
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    result, cleanup = None, [run_dir]
    # a terminated run still cleans up: SIGTERM unwinds through ``finally``
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import debezium_connector_db2_ray  # noqa: F401 - fail fast outside a checkout

        result = run(args, run_dir, cleanup)
    except BaseException:
        traceback.print_exc()
    finally:
        _shutdown()
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(real_out, 1)
        os.dup2(real_err, 2)
        os.close(log_fd)
        for d in cleanup:
            shutil.rmtree(d, ignore_errors=True)
    if result is None:
        print(f"replaybench: run failed, see {log_path}", file=sys.stderr)
        return 1
    values = result["metrics"]
    if args.trace:
        values["log.benign_warnings"] = count_benign_warnings(log_path)
    units = _declared_units(args.trace)
    if set(values) != set(units):
        print(f"replaybench: metrics {sorted(set(values) ^ set(units))} are "
              "not both measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _shutdown() -> None:
    """Stop Ray and wait until every process this run started has ended."""
    from procs import descendants, stop_all

    _note("shutting down")
    pids = descendants()
    if "ray" in sys.modules:
        import ray

        if ray.is_initialized():
            ray.shutdown()
    stop_all(pids)
    _note("stopped")


if __name__ == "__main__":
    sys.exit(main())
