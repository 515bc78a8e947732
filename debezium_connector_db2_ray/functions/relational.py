"""Relational / pipeline operators beyond plain maps: as-of join,
connected-components dedup, stratified sampling, global top-k terms.

Each documents its partitioning assumption and its 100 TB shape; each has a
DuckDB oracle (ASOF JOIN / recursive CTE / deterministic hash sampling /
ordered LIMIT) wired in functions/queries.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from debezium_connector_db2_ray.functions.exchange import (
    exchange,
    hash_part,
    side_schema,
)


# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------

def asof_join(
    left,
    right,
    *,
    key: str,
    ts: str,
    value_cols: tuple[str, ...],
    num_partitions: int | None = None,
):
    """As-of join: every left row gets the value columns of the LATEST right
    row with the same key and right.ts <= left.ts (inclusive) — the operator
    Ray Data lacks, composed as hash-partition-by-key + one vectorized
    sorted-merge per partition.

    Scale shape: one two-sided ``exchange`` on ``hash_part(key)`` moves
    each row once; the per-partition kernel is a lexsort + segment
    forward-fill (no Python loop). Partitioning assumption: one key's rows
    fit a worker (same contract as every grouped operator here; salt by
    time range if a key exceeds it).

    ``right`` must be unique per (key, ts) — pre-collapse duplicates or the
    match is ambiguous (DuckDB's ASOF has the same requirement). The join
    key must be integer-typed (exact in-partition ordering; string keys
    would order by hash and risk a 2^-64 collision merging two keys).

    ``num_partitions`` defaults to the size-derived width (one partition
    per ~256 MB of input, from parquet metadata — see
    derive_num_partitions), so callers need not re-tune at 100x scale."""
    if num_partitions is None:
        num_partitions = derive_num_partitions(left, right)
    lschema = side_schema(left)
    rschema = side_schema(right)
    rschema = pa.schema(
        [rschema.field(c) for c in dict.fromkeys((key, ts, *value_cols))]
    )
    out_schema = pa.schema(
        list(lschema)
        + [(f"asof_{c}", rschema.field(c).type) for c in value_cols]
    )

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        nl = lt.num_rows
        kv = np.concatenate([
            t[key].to_numpy(zero_copy_only=False).astype(np.int64)
            for t in (lt, rt)
        ])
        t_ = np.concatenate([
            t[ts].to_numpy(zero_copy_only=False).astype("int64")
            for t in (lt, rt)
        ])
        side = np.repeat(np.array([0, 1], np.int8), [nl, rt.num_rows])
        # sort key-major, then ts, right rows BEFORE left at equal ts
        # (inclusive match: a right row at the same instant applies)
        order = np.lexsort((1 - side, t_, kv))
        kv_s, side_s = kv[order], side[order]
        n = len(order)
        new_key = np.ones(n, bool)
        new_key[1:] = kv_s[1:] != kv_s[:-1]
        run_start = np.maximum.accumulate(np.where(new_key, np.arange(n), 0))
        m = np.where(side_s == 1, np.arange(n), -1)
        cm = np.maximum.accumulate(m)
        valid = cm >= run_start  # the latest right row is within this key's run
        li = np.flatnonzero(side_s == 0)
        src, ok = cm[li], valid[li]
        out = lt.take(pa.array(order[li]))
        # null take index where no right row matched
        ridx = pa.array(np.where(ok, order[src] - nl, 0), mask=~ok)
        for c in value_cols:
            out = out.append_column(f"asof_{c}", rt[c].take(ridx))
        return out

    return exchange(
        [left, right], hash_part([key], num_partitions), merge, out_schema,
        schemas=[lschema, rschema],
    )


# ---------------------------------------------------------------------------
# interval (range) join
# ---------------------------------------------------------------------------

def interval_join(
    points,
    intervals,
    *,
    key: str,
    ts: str,
    start: str,
    end: str,
    value_cols: tuple[str, ...],
    num_partitions: int | None = None,
    points_schema: "pa.Schema | None" = None,
    intervals_schema: "pa.Schema | None" = None,
):
    """Range join: every point row gets the value columns of the interval
    row with the same key whose [start, end] contains its timestamp
    (intervals per key assumed NON-OVERLAPPING, e.g. sessionize output —
    the at-most-one-match contract that keeps output size = input size).

    Scale shape: like asof_join — one two-sided ``exchange`` on
    ``hash_part(key)``, each row moves once; per partition a lexsort +
    segment forward-fill finds each point's most recent interval START, and
    one vectorized end-check decides containment. Integer keys only.
    ``num_partitions`` defaults size-derived (derive_num_partitions)."""
    if num_partitions is None:
        num_partitions = derive_num_partitions(points, intervals)
    # pass points_schema/intervals_schema when a side has an exchange
    # upstream: Dataset.schema() on such a side executes the whole
    # upstream pipeline just to learn dtypes (and the real run repeats it)
    pschema = points_schema or side_schema(points)
    ischema = intervals_schema or side_schema(intervals)
    ischema = pa.schema([
        ischema.field(c) for c in dict.fromkeys((key, start, end, *value_cols))
    ])
    pcols = [key] + [c for c in pschema.names if c != key]
    out_schema = pa.schema(
        [pschema.field(c) for c in pcols]
        + [(f"iv_{c}", ischema.field(c).type) for c in value_cols]
    )

    def merge(pt: pa.Table, it: pa.Table) -> pa.Table:
        n_p = pt.num_rows
        kv = np.concatenate([
            t[key].to_numpy(zero_copy_only=False).astype(np.int64)
            for t in (pt, it)
        ])
        t_ = np.concatenate([
            pc.cast(pt[ts], pa.int64()).to_numpy(zero_copy_only=False),
            pc.cast(it[start], pa.int64()).to_numpy(zero_copy_only=False),
        ])
        side = np.repeat(np.array([0, 1], np.int8), [n_p, it.num_rows])
        order = np.lexsort((1 - side, t_, kv))  # interval starts before points
        kv_s, side_s = kv[order], side[order]
        n = len(order)
        new_key = np.ones(n, bool)
        new_key[1:] = kv_s[1:] != kv_s[:-1]
        run_start = np.maximum.accumulate(np.where(new_key, np.arange(n), 0))
        m = np.where(side_s == 1, np.arange(n), -1)
        cm = np.maximum.accumulate(m)
        in_run = cm >= run_start
        # a NULL end contains nothing
        ends = pc.fill_null(
            pc.cast(it[end], pa.int64()), np.iinfo(np.int64).min
        ).to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side_s == 0)
        contained = in_run[li]
        iv = np.where(contained, order[cm[li]] - n_p, 0)
        contained[contained] = t_[order][li][contained] <= ends[iv[contained]]
        out = pt.take(pa.array(order[li])).select(pcols)
        ridx = pa.array(iv, mask=~contained)
        for c in value_cols:
            out = out.append_column(f"iv_{c}", it[c].take(ridx))
        return out

    return exchange(
        [points, intervals], hash_part([key], num_partitions), merge,
        out_schema, schemas=[pschema, ischema],
    )


# ---------------------------------------------------------------------------
# high-cardinality grouped aggregation
# ---------------------------------------------------------------------------

#: fn -> (partial kernel run per batch, final kernel run per partition)
_AGG_DECOMP = {
    "sum": ("sum", "sum"),
    "min": ("min", "min"),
    "max": ("max", "max"),
    "count": ("count", "sum"),       # non-null count, like SQL count(col)
    "count_all": ("count_all", "sum"),  # SQL count(*)
}


def grouped_aggregate(ds, *, keys: list[str],
                      aggs: dict[str, tuple[str, str]],
                      num_partitions: int | None = None,
                      schema: "pa.Schema | None" = None):
    """Grouped aggregation built for HIGH-cardinality keys (per-user /
    per-document stats over millions of groups) — the shape where both of
    the repo's other aggregation patterns fall over: Ray's native
    ``groupby(cols).agg`` pays per-group scheduling overhead (measured
    ~26 us/row on a 3.2M-group max — 83 s for 3.2M rows at 8 cpus), and the
    map-side-combine + tiny-final-groupby pattern assumes FEW distinct keys.

    Shape: per-batch partial aggregate (pyarrow's vectorized hash
    aggregation collapses each batch to one row per key it contains —
    the classic combiner, bounding shuffle volume by touched keys per
    batch), then ONE ``exchange`` of the partials on
    ``hash_part(keys)``, then a partition-local pyarrow hash-aggregate
    finalizes. Same measurement: 6 s instead of 83 s, and each partition's
    work is pure C. Partitioning assumption: one partition's distinct keys
    fit a worker (P is size-derived via derive_num_partitions; raise it for
    wider corpora — NOT one key's rows, since partials shrink each batch
    to one row per key).

    ``aggs`` maps output column name -> (input column, fn) with fn one of
    sum | min | max | count | count_all | mean. ``count`` is SQL
    ``count(col)`` (non-null), ``count_all`` ignores its input column like
    ``count(*)``; ``mean`` decomposes into an exact integer-safe
    (sum, count) pair and divides once at the end (float64). Output columns
    are ``keys + list(aggs)``; row order is unspecified, like SQL GROUP BY.

    Reference analog: the change-event aggregations the reference leaves to
    Kafka consumers; here a first-class operator (SURVEY §2 A-family)."""
    if num_partitions is None:
        num_partitions = derive_num_partitions(ds)
    keys = list(keys)

    # one partial column per distinct (col, partial_fn); means share their
    # sum/count partials with plain sum/count aggs of the same column.
    # Aggregating a column that is ALSO a group key (SELECT k, count(k)
    # GROUP BY k) routes through an alias copy: the key copy gets
    # null-filled by the key encoding, the alias keeps the raw values.
    partial_specs: dict[str, tuple] = {}  # partial col name -> (col, fn)
    key_alias: dict[str, str] = {}  # key col -> raw-value alias

    def _need(col: str, fn: str) -> str:
        name = "count_all" if fn == "count_all" else f"{col}_{fn}"
        src = [] if fn == "count_all" else col
        if isinstance(src, str) and src in keys:
            src = key_alias.setdefault(col, f"__raw_{col}")
        partial_specs[name] = (src, fn)
        return name

    plan: dict[str, tuple] = {}  # out name -> ("direct", partial, final_fn)
    for out, (col, fn) in aggs.items():
        if fn == "mean":
            plan[out] = ("mean", _need(col, "sum"), _need(col, "count"))
        elif fn in _AGG_DECOMP:
            pfn, ffn = _AGG_DECOMP[fn]
            plan[out] = ("direct", _need(col, pfn), ffn)
        else:
            raise ValueError(f"unsupported aggregate fn {fn!r} for {out!r}")

    spec = [(c, f) for (c, f) in partial_specs.values()]
    pnames = list(partial_specs)
    in_cols = keys + sorted(
        {c for (c, _) in partial_specs.values() if isinstance(c, str)}
        - set(keys) - set(key_alias.values())
    )
    # pyarrow's MULTI-key group_by duplicates a group when a key column
    # holds nulls (observed on 16.1.0: one (null, k) tuple -> several output
    # rows, threads on or off). Work around by grouping on a null-free
    # encoding — each key becomes (fill_null(sentinel), is_null flag) —
    # which stays encoded through the exchange and decodes only at output.
    nk = {c: f"__nk_{c}" for c in keys}
    gb_keys = keys + list(nk.values())

    def _zero(t: pa.DataType) -> pa.Scalar:
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return pa.scalar("", t)
        if pa.types.is_binary(t) or pa.types.is_large_binary(t):
            return pa.scalar(b"", t)
        return pc.cast(pa.scalar(0), t)

    def _encode_keys(batch: pa.Table) -> pa.Table:
        for c in keys:
            col = batch[c]
            filled = pc.fill_null(col, _zero(col.type))
            if pa.types.is_floating(col.type):
                # SQL GROUP BY folds -0.0 and 0.0 into one key; pyarrow's
                # group_by (and the bit-pattern partitioner) would split
                # them — x + 0.0 canonicalizes the zero sign
                filled = pc.add(filled, pa.scalar(0.0, col.type))
            batch = batch.set_column(
                batch.column_names.index(c), c, filled,
            ).append_column(nk[c], pc.is_null(col))
        return batch

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select(in_cols)
        for orig, al in key_alias.items():
            t = t.append_column(al, t[orig])  # raw values, pre-encoding
        g = _encode_keys(t).group_by(gb_keys).aggregate(spec)
        # aggregate() names outputs col_fn / count_all in spec order
        # alongside the keys; rename positionally to our stable partial names
        agg_names = [n for n in g.column_names if n not in gb_keys]
        return g.rename_columns(
            [c if c in gb_keys else pnames[agg_names.index(c)]
             for c in g.column_names]
        )

    # ds.schema() on a parquet read is footer metadata; on a transformed
    # input it may execute a sample (or worse, a whole upstream exchange) —
    # callers stacking operators pass `schema` explicitly to avoid that
    sch = schema or side_schema(ds)
    key_types = dict(zip(sch.names, sch.types))
    empty_partial = partial(
        pa.table({
            n: pa.array([], t)
            for n, t in zip(sch.names, sch.types) if n in in_cols
        })
    )

    final_spec = [(p, plan_ffn) for p, plan_ffn in
                  {p: ("sum" if partial_specs[p][1] in ("count", "count_all")
                       else partial_specs[p][1])
                   for p in pnames}.items()]

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(gb_keys).aggregate(final_spec)
        agg_names = [n for n in g.column_names if n not in gb_keys]
        by_partial = dict(zip([p for p, _ in final_spec], agg_names))
        cols = {
            c: pc.if_else(g[nk[c]], pa.scalar(None, key_types[c]), g[c])
            for c in keys
        }
        for out, (kind, *ps) in plan.items():
            if kind == "mean":
                s, c = ps
                cols[out] = pc.divide(
                    pc.cast(g[by_partial[s]], pa.float64()),
                    pc.cast(g[by_partial[c]], pa.float64()),
                )
            else:
                cols[out] = g[by_partial[ps[0]]]
        return pa.table(cols)

    return exchange(
        [ds.map_batches(partial, batch_format="pyarrow", batch_size=400_000)],
        hash_part(gb_keys, num_partitions), final,
        final(empty_partial).schema, schemas=[empty_partial.schema],
    )


def grouped_count_distinct(ds, *, keys: list[str], col: str,
                           out_col: str = "n_distinct",
                           num_partitions: int | None = None):
    """Exact per-group distinct count at HIGH key cardinality (SQL
    ``count(DISTINCT col) GROUP BY keys``): two stacked grouped_aggregate
    levels. Level 1 collapses to the distinct ``keys + [col]`` tuples
    (each batch's duplicates die in the map-side combiner, so the first
    exchange moves per-batch-distinct tuples, not raw rows); level 2
    counts the non-null ``col`` values per ``keys`` — exactly SQL's
    null-excluding DISTINCT semantics. Null group keys survive both levels
    via grouped_aggregate's (sentinel, validity) key encoding.

    Reference analog: none — the reference has no distinct-count at all
    (SURVEY §2.5); this is the training-data-pipeline shape (distinct
    users per shard, distinct shingles per doc cluster, ...)."""
    sch0 = side_schema(ds)
    types = dict(zip(sch0.names, sch0.types))
    level1 = grouped_aggregate(
        ds, keys=list(keys) + [col],
        aggs={"__dup_rows": (col, "count_all")},
        num_partitions=num_partitions,
    )
    # pass level1's (statically known) schema so level 2 never executes the
    # first exchange just to infer it
    l1_schema = pa.schema(
        [(k, types[k]) for k in list(keys) + [col]]
        + [("__dup_rows", pa.int64())]
    )
    return grouped_aggregate(
        level1, keys=list(keys), aggs={out_col: (col, "count")},
        num_partitions=num_partitions, schema=l1_schema,
    )


# ---------------------------------------------------------------------------
# partition sizing shared by the exchange-based operators
# ---------------------------------------------------------------------------

_TARGET_PARTITION_BYTES = 256 << 20


def derive_num_partitions(*datasets, target_bytes: int = _TARGET_PARTITION_BYTES,
                          lo: int = 16, hi: int = 65_536) -> int:
    """Size-derived exchange width for the join/components family: walk each
    Dataset's logical plan to its Read leaves and sum their metadata size
    estimates (NO execution — parquet footer arithmetic only), then aim for
    ~``target_bytes`` of input per partition, clamped to [lo, hi]. When any
    input's size is unknown (e.g. a from_items source), fall back to
    2x cluster CPUs, clamped like the block bound
    ``CdcEngine.replay_from_parquet`` puts on its window reads."""
    import ray

    total, known = 0, True
    for ds in datasets:
        try:
            stack, leaves = [ds._logical_plan.dag], []
            while stack:
                n = stack.pop()
                deps = n.input_dependencies
                if deps:
                    stack.extend(deps)
                else:
                    leaves.append(n)
            for leaf in leaves:
                meta = (
                    leaf.infer_metadata()
                    if hasattr(leaf, "infer_metadata") else None
                )
                if meta is None or meta.size_bytes is None:
                    known = False
                else:
                    total += meta.size_bytes
        except Exception:
            known = False
    if not known or total <= 0:
        cpus = (
            int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8
        )
        return max(lo, min(hi, 2 * cpus))
    return max(lo, min(hi, -(-total // target_bytes)))


# ---------------------------------------------------------------------------
# connected-components dedup
# ---------------------------------------------------------------------------

def duplicate_components(pairs_ds, *, num_partitions: int | None = None,
                         max_rounds: int = 64):
    """Connected components over near-duplicate PAIRS via distributed
    hash-min label propagation: each doc in a component ends up labeled
    with the component's minimum doc id (the canonical keeper). Returns a
    ray Dataset (doc_id, canonical_id) covering every doc in a pair.

    Scale shape: the pair graph stays a Dataset throughout — nothing is
    collected to the driver (the round-2 driver union-find is gone). Each
    round is two bounded sort exchanges: (1) key by src to deliver every
    node's current label across its out-edges — the edge set includes a
    label->node pointer edge per node, which forwards label(label(n)) and
    halves propagation paths, so rounds are O(log diameter) rather than
    O(diameter); (2) key by dst and take the per-node min of delivered
    candidates vs the current label. Labels decrease monotonically and the
    loop stops the first round that changes none. Each round's label table
    (one row per graph node — orders of magnitude smaller than the corpus)
    is materialized to cut lineage; it lives as object-store blocks, never
    on the driver. The symmetric edge list is materialized ONCE so rounds
    do not re-execute the upstream LSH pipeline.

    Reference analog: this closes the near-dup loop the way the
    connector's key-collapse closes the changelog (stages/apply.py LWW) —
    a deterministic canonical winner per group."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    if num_partitions is None:
        num_partitions = derive_num_partitions(pairs_ds)
    P = num_partitions

    def sym(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"src": np.concatenate([a, b]), "dst": np.concatenate([b, a])}
        )

    # bound block counts: the iterative union->groupby otherwise TRIPLES the
    # label table's block count per round (sort shuffles schedule O(blocks^2)
    # — measured exponential round cost before this repartition)
    n_blocks = max(8, min(num_partitions, 64))
    edges = (
        pairs_ds.map_batches(sym, batch_format="pyarrow")
        .repartition(n_blocks)
        .materialize()
    )
    if edges.count() == 0:
        return rd.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64()),
                      "canonical_id": pa.array([], pa.int64())})
        )

    def _np(t: pa.Table, c: str) -> np.ndarray:
        return t[c].to_numpy(zero_copy_only=False)

    node_label = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    edge_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    by_node = hash_part(["node"], P)

    def seg_min(nodes: np.ndarray, labels_: np.ndarray):
        """Per-node minimum label over (node, label) candidate rows."""
        order = np.lexsort((labels_, nodes))
        ns, ls = nodes[order], labels_[order]
        starts = np.ones(len(ns), bool)
        starts[1:] = ns[1:] != ns[:-1]
        si = np.flatnonzero(starts)
        return ns[si], ls[si]

    # ---- init: label(n) = min(n, neighbors(n)) — one exchange ------------
    def init_rows(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        d = batch["dst"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": np.concatenate([s, s]), "label": np.concatenate([d, s])}
        )

    def init_min(g: pa.Table) -> pa.Table:
        node, label = seg_min(_np(g, "node"), _np(g, "label"))
        return pa.table({"node": node, "label": label})

    labels = (
        exchange(
            [edges.map_batches(init_rows, batch_format="pyarrow")], by_node,
            init_min, node_label, schemas=[node_label],
        )
        .repartition(n_blocks)
        .materialize()
    )

    # ---- per round: (1) deliver labels along edges keyed by src ----------
    def pointer_edges(batch: pa.Table) -> pa.Table:
        # label(n) -> n: delivers label(label(n)) next round (path halving)
        return pa.table({"src": batch["label"], "dst": batch["node"]})

    def label_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["node"], "label": batch["label"]})

    def deliver(e: pa.Table, pe: pa.Table, lab: pa.Table) -> pa.Table:
        e = pa.concat_tables([e, pe])
        ns_u, ls_u = _np(lab, "src"), _np(lab, "label")
        if len(ns_u) == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "cand": pa.array([], pa.int64())})
        order = np.argsort(ns_u, kind="stable")
        ns, ls = ns_u[order], ls_u[order]
        es, ed = _np(e, "src"), _np(e, "dst")
        pos = np.clip(np.searchsorted(ns, es), 0, len(ns) - 1)
        ok = ns[pos] == es  # every edge src has a label row by construction
        return pa.table({"node": ed[ok], "cand": ls[pos][ok]})

    # ---- (2) per-node min of delivered candidates vs the current label ---
    def combine(cand: pa.Table, cur: pa.Table) -> pa.Table:
        cn, cl = _np(cur, "node"), _np(cur, "label")
        out_node, out_label = seg_min(
            np.concatenate([_np(cand, "node"), cn]),
            np.concatenate([_np(cand, "cand"), cl]),
        )
        # candidates only target existing nodes, so unique(node) == sorted
        # current nodes — a violated invariant must fail loudly, not corrupt
        if len(cn) != len(out_node):
            raise AssertionError("components: candidate for unlabeled node")
        changed = (out_label < cl[np.argsort(cn, kind="stable")])
        return pa.table({"node": out_node, "label": out_label,
                         "changed": changed.astype(np.int64)})

    by_src = hash_part(["src"], P)
    cand_schema = pa.schema([("node", pa.int64()), ("cand", pa.int64())])
    for _ in range(max_rounds):
        delivered = exchange(
            [edges, labels.map_batches(pointer_edges, batch_format="pyarrow"),
             labels.map_batches(label_rows, batch_format="pyarrow")],
            by_src, deliver, cand_schema,
            schemas=[edge_schema, edge_schema,
                     pa.schema([("src", pa.int64()), ("label", pa.int64())])],
        )
        new_labels = exchange(
            [delivered, labels], by_node, combine,
            node_label.append(pa.field("changed", pa.int64())),
            schemas=[cand_schema, node_label],
        ).materialize()
        n_changed = new_labels.aggregate(
            Sum("changed", alias_name="changed")
        )["changed"]
        labels = (
            new_labels.drop_columns(["changed"])
            .repartition(n_blocks)
            .materialize()
        )
        if not n_changed:
            break
    else:
        raise RuntimeError(
            f"label propagation did not converge in {max_rounds} rounds"
        )

    return labels.map_batches(
        lambda t: pa.table(
            {"doc_id": t["node"], "canonical_id": t["label"]}
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# generic repartition equi-join
# ---------------------------------------------------------------------------

def repartition_join(
    left,
    right,
    *,
    on: str,
    how: str = "inner",
    num_partitions: int | None = None,
    right_suffix: str = "_r",
    left_schema: "pa.Schema | None" = None,
    right_schema: "pa.Schema | None" = None,
):
    """Generic equi-join on a key column, built on the proven sort
    exchange: one two-sided ``exchange`` on ``hash_part(on)`` (each row
    moves exactly once), then each partition runs an in-process Arrow
    hash join. Ray's own Dataset.join is deliberately avoided — its
    hash-shuffle backend deadlocks under constrained schedulers (measured
    here); the sort exchange + partition-local Acero join is the same
    algorithm with the exchange this engine already trusts.

    Supported ``how``: inner, left_outer, full_outer. Right columns
    colliding with left names get ``right_suffix``. ``num_partitions``
    defaults size-derived (derive_num_partitions). full_outer coalesces
    the key column (Arrow join semantics), so unmatched right rows carry
    their key with left payload nulls."""
    if how not in ("inner", "left_outer", "full_outer"):
        raise ValueError(how)
    if num_partitions is None:
        num_partitions = derive_num_partitions(left, right)
    # pass left_schema/right_schema when a side has an exchange upstream —
    # Dataset.schema() on such a side executes the whole upstream pipeline
    # just to learn the dtypes (and the real run then executes it again)
    lschema = left_schema or side_schema(left)
    rschema = right_schema or side_schema(right)
    rcols = [c for c in rschema.names if c != on]
    rename = {
        c: (c + right_suffix if c in lschema.names else c) for c in rcols
    }
    out_schema = pa.schema(
        list(lschema) + [rschema.field(c).with_name(rename[c]) for c in rcols]
    )
    join_type = {"inner": "inner", "left_outer": "left outer",
                 "full_outer": "full outer"}[how]

    def join_part(lt: pa.Table, rt: pa.Table) -> pa.Table:
        rt = rt.rename_columns([rename.get(c, c) for c in rt.column_names])
        j = lt.join(rt, keys=[on], join_type=join_type)
        return j.select(out_schema.names)

    return exchange(
        [left, right], hash_part([on], num_partitions), join_part,
        out_schema, schemas=[lschema, rschema],
    )


# ---------------------------------------------------------------------------
# stratified sampling
# ---------------------------------------------------------------------------

def mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit avalanche mixer (murmur-finalizer shape, but with
    32-BIT multiplicands so the DuckDB oracle can compute the identical
    products exactly in HUGEINT — a 64x64 product overflows INT128). The
    deterministic sampling hash shared bit-for-bit with SQL_STRATIFIED in
    functions/queries.py."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(33))) * np.uint64(0x85EBCA6B)
    z = (z ^ (z >> np.uint64(29))) * np.uint64(0xC2B2AE35)
    return z ^ (z >> np.uint64(32))


def stratified_sample(ds, *, stratum_col: str, id_col: str,
                      rates: dict[str, float], default_rate: float = 1.0):
    """Deterministic per-stratum sampling: a row survives iff the TOP byte
    of mix64(id) is below rate*256 — reproducible across runs and engines
    (the DuckDB oracle computes the identical integer mixing), no shuffle,
    no RNG state, and fully vectorized (the hash is numpy uint64
    arithmetic; the per-stratum cutoff is a factorize + table lookup)."""
    import pandas as pd

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b0 = (mix64(ids) >> np.uint64(56)).astype(np.int64)
        codes, uniques = pd.factorize(batch[stratum_col].to_pandas())
        default_cut = np.int64(int(default_rate * 256))
        if len(uniques):
            cuts = np.array(
                [int(rates.get(u, default_rate) * 256) for u in uniques],
                np.int64,
            )
            # factorize maps NULL strata to code -1; route them to the
            # default rate (the oracle's CASE ... ELSE), never to cuts[-1]
            cut = np.where(codes >= 0, cuts[np.maximum(codes, 0)],
                           default_cut)
        else:
            cut = np.full(len(codes), default_cut, np.int64)
        return batch.filter(pa.array(b0 < cut))

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact distributed percentiles (kth-element selection, no shuffle)
# ---------------------------------------------------------------------------

def _order_keys(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(uint64 total-order keys, valid mask) for an int/float column:
    monotone bijection into uint64 space so histogram bisection works on
    any numeric type. Nulls are masked out (SQL quantile ignores them)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    t = col.type
    if pa.types.is_floating(t):
        b = (
            pc.fill_null(col, 0.0).cast(pa.float64())
            .to_numpy(zero_copy_only=False).view(np.uint64)
        )
        neg = (b >> np.uint64(63)) == 1
        keys = np.where(neg, ~b, b | np.uint64(1 << 63))
    elif pa.types.is_unsigned_integer(t):
        # already order-isomorphic to uint64 — no sign flip
        keys = (
            pc.fill_null(col.cast(pa.uint64()), 0)
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        )
    else:
        v = (
            pc.fill_null(col.cast(pa.int64()), 0)
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        keys = v.astype(np.uint64) ^ np.uint64(1 << 63)
    return keys, valid


def _segment_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Start offsets of equal-key runs in a table already SORTED by
    ``keys``: a segment begins wherever any key column differs from the
    previous row (Arrow equality semantics — null == null for grouping,
    -0.0 == 0.0). Shared by every partition-local windowed kernel
    (grouped_percentiles / top_n_per_group / grouped_lag_delta)."""
    n = t.num_rows
    if n == 0:
        # a whitespace-only/NULL-text batch can legitimately produce a
        # 0-row per-doc table; every caller handles an empty starts array
        return np.zeros(0, np.int64)
    seg = np.zeros(n, bool)
    seg[0] = True
    for k in keys:
        c = t[k]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        a, b = c.slice(1), c.slice(0, n - 1)
        diff = pc.or_(
            pc.fill_null(pc.not_equal(a, b), False),
            pc.xor(pc.is_null(a), pc.is_null(b)),
        ).to_numpy(zero_copy_only=False)
        seg[1:] |= diff
    return np.flatnonzero(seg)


def _window_exchange(ds, *, keys: list[str], cols: list[str],
                     num_partitions: int | None, kernel, out_schema):
    """The single-side ``exchange`` every partitioned window operator
    shares: project to ``cols``, hash-partition on the window PARTITION BY
    ``keys`` (equal key tuples co-locate), then run a partition-local
    vectorized kernel over each partition at once — never a per-group UDF.
    The output is typed by ``out_schema`` even when every partition is
    empty."""
    if num_partitions is None:
        num_partitions = derive_num_partitions(ds)
    return exchange([ds], hash_part(keys, num_partitions), kernel,
                    out_schema, schemas=[cols])


def top_n_per_group(ds, *, keys: list[str],
                    order_by: list[tuple[str, str]], n: int,
                    num_partitions: int | None = None,
                    schema: "pa.Schema | None" = None,
                    out_rank: str = "rn"):
    """SQL ``row_number() OVER (PARTITION BY keys ORDER BY ...) <= n``
    (QUALIFY top-n per group) at any key cardinality: ONE hash exchange on
    ``part(keys)``, then a partition-local kernel — Arrow sort by
    (keys..., order_by...), segment boundaries from adjacent key compares,
    per-row rank = row offset - segment start, keep rank < n. All columns
    of ``ds`` pass through; ``out_rank`` carries the 1-based row_number.
    ``order_by`` entries are ("col", "ascending"|"descending"); give a
    deterministic total order (unique tiebreak column) for cross-engine
    reproducibility. Nulls order last under both Arrow sort_by and
    DuckDB's default NULLS LAST.

    At 100 TB: a per-BATCH pre-combiner keeps only each batch's local
    top-n per group before the exchange (any group's GLOBAL top-n is a
    subset of the union of its per-batch top-ns, and dropped rows rank
    strictly below every survivor, so post-exchange ranks are unchanged)
    — the exchange ships at most n rows per (group, batch), which is what
    tames a mega-group that would otherwise land half the input on one
    partition. Same exchange shape as the LWW apply
    (stages/apply.py:151)."""
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols] + [(out_rank, pa.int64())]
    )

    def local_topn(t: pa.Table) -> pa.Table:
        """Sort + segment-rank + keep rank < n (shared by the per-batch
        combiner and the per-partition finisher)."""
        t = t.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        starts = _segment_starts(t, keys)
        # per-row rank within its segment, fully vectorized: subtract the
        # owning segment's start offset from each row offset
        sizes = np.diff(np.append(starts, t.num_rows))
        rank = (np.arange(t.num_rows, dtype=np.int64)
                - np.repeat(starts, sizes))
        t = t.append_column(out_rank, pa.array(rank + 1, pa.int64()))
        return t.filter(pa.array(rank < n))

    def combine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return local_topn(batch.select(cols)).select(cols + [out_rank])

    def kernel(part: pa.Table) -> pa.Table:
        return local_topn(
            part.select(cols)
        ).select(cols + [out_rank])

    return _window_exchange(
        ds.map_batches(combine, batch_format="pyarrow"),
        keys=keys, cols=cols + [out_rank],
        num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def grouped_lag_delta(ds, *, keys: list[str],
                      order_by: list[tuple[str, str]], col: str,
                      out_col: str = "delta",
                      num_partitions: int | None = None,
                      schema: "pa.Schema | None" = None):
    """SQL ``col - lag(col) OVER (PARTITION BY keys ORDER BY ...)`` — the
    inter-event-gap window function: ONE hash exchange on ``part(keys)``,
    partition-local sort + vectorized adjacent difference, NULL for each
    group's first row (lag of nothing). Reference parity: the connector's
    change-table scan classifies update pairs with exactly this
    LEAD/LAG-over-(partition, order) shape in pushed-down SQL
    (LuwPlatform.java:29-39); here the window runs distributed. ``col`` must be numeric or
    timestamp; timestamps diff into int64 microseconds (DuckDB
    ``date_diff('microsecond', ...)`` parity). All input columns pass
    through plus ``out_col``."""
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    val_t = sch.field(col).type
    out_t = pa.int64() if pa.types.is_temporal(val_t) else val_t
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols] + [(out_col, out_t)]
    )

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        starts = _segment_starts(t, keys)
        v = t[col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        x = v.cast(pa.int64()).to_numpy(zero_copy_only=False) \
            if pa.types.is_temporal(val_t) else \
            v.to_numpy(zero_copy_only=False)
        d = np.empty(len(x), dtype=np.int64 if out_t == pa.int64()
                     else x.dtype)
        d[1:] = x[1:] - x[:-1]
        d[starts] = 0  # masked below; avoids cross-segment garbage
        first = np.zeros(len(x), bool)
        first[starts] = True
        delta = pa.array(d, out_t, mask=first)
        return t.append_column(out_col, delta)

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def grouped_rolling_sum(ds, *, keys: list[str],
                        order_by: list[tuple[str, str]], col: str,
                        window_rows: int, out_col: str = "rolling",
                        num_partitions: int | None = None,
                        schema: "pa.Schema | None" = None):
    """SQL ``sum(col) OVER (PARTITION BY keys ORDER BY ... ROWS BETWEEN
    window_rows-1 PRECEDING AND CURRENT ROW)``: one hash exchange +
    partition-local sort, then the whole partition's rolling sums come
    from ONE cumulative sum (frame sum = cum[i] - cum[start-1], start
    clamped to the row's segment head) — no per-group or per-frame loop.
    ``col`` must be integer (pre-scale money to cents — float window sums
    are not associative across engines) and non-null within frames; all
    input columns pass through plus ``out_col`` (int64)."""
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols] + [(out_col, pa.int64())]
    )
    w = int(window_rows)

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, t.num_rows))
        seg_start = np.repeat(starts, sizes)
        v = t[col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        x = v.cast(pa.int64()).to_numpy(zero_copy_only=False)
        cum = np.cumsum(x, dtype=np.int64)
        i = np.arange(t.num_rows, dtype=np.int64)
        prev = np.maximum(i - w, seg_start - 1)
        roll = cum - np.where(prev >= 0, cum[np.maximum(prev, 0)], 0)
        return t.append_column(out_col, pa.array(roll, pa.int64()))

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def grouped_string_agg(ds, *, keys: list[str],
                       order_by: list[tuple[str, str]], col: str,
                       sep: str = ",", out_col: str = "agg",
                       num_partitions: int | None = None,
                       schema: "pa.Schema | None" = None):
    """SQL ``string_agg(col, sep ORDER BY ...) GROUP BY keys`` — assemble
    each group's values into one ordered string (the transcript-assembly
    shape: turns -> conversation). One hash exchange on ``part(keys)``,
    then a partition-local kernel: Arrow sort, segment boundaries, and a
    single vectorized ``binary_join`` over a list array built from the
    segment offsets — no per-group concatenation loop. NULL values are
    skipped (SQL string_agg semantics); groups with only NULLs yield
    NULL."""
    sch = schema or side_schema(ds)
    keys = list(keys)
    out_schema = pa.schema(
        [(k, sch.field(k).type) for k in keys] + [(out_col, pa.string())]
    )
    need = list(dict.fromkeys(
        keys + [c for c, _ in order_by] + [col]
    ))

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        starts = _segment_starts(t, keys)
        n = t.num_rows
        v = t[col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        valid = pc.is_valid(v).to_numpy(zero_copy_only=False)
        # drop nulls but keep per-segment counts to rebuild offsets
        cs = np.concatenate(([0], np.cumsum(valid)))
        ends = np.append(starts[1:], n)
        seg_counts = cs[ends] - cs[starts]
        kept = v.drop_null()
        offsets = np.concatenate(([0], np.cumsum(seg_counts)))
        joined = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), kept
            ),
            sep,
        )
        # all-null group: empty list joins to '' — force NULL (SQL)
        joined = pc.if_else(
            pa.array(seg_counts > 0), joined, pa.scalar(None, pa.string())
        )
        cols = {
            k: t[k].take(pa.array(starts, pa.int64())) for k in keys
        }
        cols[out_col] = joined
        return pa.table(cols)

    return _window_exchange(
        ds.select_columns(need) if hasattr(ds, "select_columns") else ds,
        keys=keys, cols=need, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def exact_percentiles(ds, *, col: str, qs: list[float],
                      hist_bits: int = 12, collect_limit: int = 65_536,
                      rank_of=None):
    """EXACT discrete percentiles (SQL ``quantile_disc`` semantics: the
    element at 0-indexed rank ``max(0, ceil(q*n) - 1)`` of the non-null
    sorted column) computed by distributed kth-element SELECTION — no sort,
    no shuffle, ever. Each round is one map-only scan of the (column-pruned)
    input that histograms the rows still inside each quantile's candidate
    key range (a monotone uint64 image of the value space) into 2^hist_bits
    buckets; the driver folds the tiny histograms, narrows each range to
    the bucket containing its rank, and repeats until <= collect_limit rows
    remain, which one final filtered scan collects exactly. Convergence:
    ceil(64 / hist_bits) + 1 scans worst case (6 for adversarial 64-bit
    spreads; 2-3 on real data).

    At 100 TB this is O(rounds) streaming scans of ONE column vs a full
    all-to-all sort — the classic distributed selection trade. Returns a
    pa.Table (q float64, value column-typed) ordered as ``qs``."""
    import ray

    source = ds.select_columns([col]) if hasattr(ds, "select_columns") else ds

    out_type = (
        ds.schema().base_schema.field(col).type
        if hasattr(ds.schema(), "base_schema")
        else ds.schema().field(col).type
    )
    B = 1 << hist_bits
    U64_TOP = np.uint64(0xFFFFFFFFFFFFFFFF)
    # state per quantile: inclusive key range, rank within range (ranks are
    # set after round 1 — the full-range histogram's total IS the non-null
    # count, so no dedicated counting pass runs)
    n = None
    state = [
        {"q": q, "k": None, "lo": np.uint64(0), "hi": U64_TOP,
         "rank": None, "done": False, "value": None}
        for q in qs
    ]

    # worst case: every round shaves hist_bits key bits until width == 1
    max_rounds = -(-64 // hist_bits) + 1
    for _round in range(max_rounds):
        act = [
            (i, s["lo"], s["hi"]) for i, s in enumerate(state)
            if not s["done"]
        ]
        if not act:
            break
        # states sharing a candidate range (always true in round 1, common
        # for nearby quantiles later) share one histogram
        uranges = sorted({(lo, hi) for _, lo, hi in act})
        ridx = {r: j for j, r in enumerate(uranges)}

        def hist(batch: pa.Table, _ranges=uranges) -> pa.Table:
            keys, valid = _order_keys(batch[col])
            keys = keys[valid]
            ri_out, bk_out, ct_out = [], [], []
            for j, (lo, hi) in enumerate(_ranges):
                inr = keys[(keys >= lo) & (keys <= hi)]
                if len(inr) == 0:
                    continue
                width = (hi - lo) // np.uint64(B) + np.uint64(1)
                counts = np.bincount(
                    ((inr - lo) // width).astype(np.int64), minlength=B
                )
                nz = np.flatnonzero(counts)
                ri_out.append(np.full(len(nz), j, np.int64))
                bk_out.append(nz.astype(np.int64))
                ct_out.append(counts[nz].astype(np.int64))
            if not ri_out:
                return pa.table({
                    "ri": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                })
            return pa.table({
                "ri": pa.array(np.concatenate(ri_out)),
                "bucket": pa.array(np.concatenate(bk_out)),
                "cnt": pa.array(np.concatenate(ct_out)),
            })

        # fold per-batch sparse histograms through a combiner exchange so
        # the driver only ever sees <= len(uranges) * B totals, independent
        # of block count (take_all on raw per-batch rows would scale with
        # the input at 100 TB)
        rows = grouped_aggregate(
            source.map_batches(hist, batch_format="pyarrow"),
            keys=["ri", "bucket"], aggs={"cnt": ("cnt", "sum")},
            num_partitions=16,
            schema=pa.schema([("ri", pa.int64()), ("bucket", pa.int64()),
                              ("cnt", pa.int64())]),
        ).take_all()
        range_counts = np.zeros((len(uranges), B), np.int64)
        for r in rows:
            range_counts[r["ri"], r["bucket"]] = r["cnt"]
        if n is None:  # round 1: one full range, its total is the count
            n = int(range_counts.sum())
            if n == 0:
                return pa.table({
                    "q": pa.array(qs, pa.float64()),
                    "value": pa.nulls(len(qs), out_type),
                })
            for s in state:
                # default: quantile_disc's 0-indexed rank; rank_of lets
                # percentile_cont select its floor/ceil neighbor ranks
                s["k"] = s["rank"] = (
                    int(rank_of(s["q"], n)) if rank_of is not None
                    else max(0, int(np.ceil(s["q"] * n)) - 1)
                )
        for i, lo, hi in act:
            s = state[i]
            width = (hi - lo) // np.uint64(B) + np.uint64(1)
            counts = range_counts[ridx[(lo, hi)]]
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, s["rank"] + 1))
            s["rank"] -= int(cum[b - 1]) if b else 0
            s["lo"] = lo + np.uint64(b) * width
            s["hi"] = min(hi, s["lo"] + width - np.uint64(1))
            if s["lo"] == s["hi"]:
                # single key left: every remaining row carries the answer
                s["rank"] = 0
                s["done"] = True
            elif counts[b] <= collect_limit:
                s["done"] = True  # collectable next
        # collect every range that is narrow enough
        coll = [
            (i, s["lo"], s["hi"]) for i, s in enumerate(state)
            if s["done"] and s["value"] is None
        ]
        if coll:
            def gather(batch: pa.Table, _coll=coll) -> pa.Table:
                keys, valid = _order_keys(batch[col])
                vals = batch[col]
                if isinstance(vals, pa.ChunkedArray):
                    vals = vals.combine_chunks()
                qi_out, k_out, v_out = [], [], []
                for i, lo, hi in _coll:
                    sel = valid & (keys >= lo) & (keys <= hi)
                    idx = np.flatnonzero(sel)
                    if len(idx) == 0:
                        continue
                    if lo == hi:
                        idx = idx[:1]  # all duplicates of one key
                    qi_out.append(np.full(len(idx), i, np.int64))
                    k_out.append(keys[idx])
                    v_out.append(vals.take(pa.array(idx, pa.int64())))
                if not qi_out:
                    return pa.table({
                        "qi": pa.array([], pa.int64()),
                        "key": pa.array([], pa.uint64()),
                        "value": pa.nulls(0, vals.type),
                    })
                return pa.table({
                    "qi": pa.array(np.concatenate(qi_out)),
                    "key": pa.array(np.concatenate(k_out), pa.uint64()),
                    "value": pa.concat_arrays(
                        [v.combine_chunks() if isinstance(v, pa.ChunkedArray)
                         else v for v in v_out]
                    ),
                })

            got = source.map_batches(gather, batch_format="pyarrow").take_all()
            by_q: dict[int, list] = {}
            for r in got:
                by_q.setdefault(r["qi"], []).append((r["key"], r["value"]))
            for i, _, _ in coll:
                items = sorted(by_q.get(i, []), key=lambda t: t[0])
                state[i]["value"] = items[state[i]["rank"]][1]

    return pa.table({
        "q": pa.array([s["q"] for s in state], pa.float64()),
        "value": pa.array([s["value"] for s in state], out_type),
    })


def grouped_percentiles(ds, *, keys: list[str], col: str,
                        qs: dict[str, float],
                        num_partitions: int | None = None,
                        schema: "pa.Schema | None" = None,
                        interpolate: bool = False):
    """Per-GROUP exact discrete percentiles (SQL ``quantile_disc(col, q)
    GROUP BY keys`` — element at rank ``ceil(q*m)-1`` of each group's m
    non-null values) at any key cardinality: ONE hash exchange on
    ``part(keys)``, then a partition-local kernel handles every group at
    once — Arrow sort by (keys..., null-values-last, value order), segment
    boundaries from adjacent key compares, per-group ranks picked by fancy
    indexing. No per-group UDF calls; groups whose values are all null
    yield NULL (SQL semantics). ``qs`` maps output column name -> q.

    Unlike the global ``exact_percentiles`` (multi-pass selection, no data
    movement), this moves each row once — the right trade when there are
    many groups and each group's rows fit a partition."""
    if num_partitions is None:
        num_partitions = derive_num_partitions(ds)
    keys = list(keys)
    sch = schema or side_schema(ds)
    types = dict(zip(sch.names, sch.types))
    val_t = types[col]
    # interpolate=True is SQL percentile_cont per group: the two neighbor
    # elements at floor/ceil(q*(m-1)) blend as a + (b-a)*f in float64 —
    # written in that exact operation order so a manually-mirrored oracle
    # matches bit-for-bit (quantile_disc semantics stay the default)
    out_t = pa.float64() if interpolate else val_t
    out_schema = pa.schema(
        [(k, types[k]) for k in keys] + [(o, out_t) for o in qs]
    )
    in_cols = keys + ([col] if col not in keys else [])
    qlist = list(qs.items())

    def kernel(part: pa.Table) -> pa.Table:
        vals = part[col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        okey, valid = _order_keys(vals)
        t = part.append_column(
            "__ok", pa.array(okey, pa.uint64())
        ).append_column("__inv", pa.array(~valid))
        t = t.sort_by(
            [(k, "ascending") for k in keys]
            + [("__inv", "ascending"), ("__ok", "ascending")]
        )
        n = t.num_rows
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, n))
        # non-null count per segment (nulls sorted last within segment)
        v_sorted = ~t["__inv"].to_numpy(zero_copy_only=False)
        cs = np.concatenate(([0], np.cumsum(v_sorted)))
        m = cs[starts + sizes] - cs[starts]
        vals_sorted = t[col]
        if isinstance(vals_sorted, pa.ChunkedArray):
            vals_sorted = vals_sorted.combine_chunks()
        cols = {k: t[k].take(pa.array(starts, pa.int64())) for k in keys}
        for out, q in qlist:
            if interpolate:
                m1 = np.maximum(m - 1, 0)
                lo = np.floor(q * m1).astype(np.int64)
                hi = np.ceil(q * m1).astype(np.int64)
                f = q * m1 - np.floor(q * m1)
                a = vals_sorted.take(
                    pa.array(starts + np.minimum(lo, m1), pa.int64())
                ).to_numpy(zero_copy_only=False).astype(np.float64)
                b = vals_sorted.take(
                    pa.array(starts + np.minimum(hi, m1), pa.int64())
                ).to_numpy(zero_copy_only=False).astype(np.float64)
                blended = a + (b - a) * f
                cols[out] = pc.if_else(
                    pa.array(m > 0),
                    pa.array(blended, pa.float64()),
                    pa.scalar(None, pa.float64()),
                )
                continue
            rank = np.maximum(0, np.ceil(q * m).astype(np.int64) - 1)
            idx = starts + np.minimum(rank, np.maximum(m - 1, 0))
            picked = vals_sorted.take(pa.array(idx, pa.int64()))
            # all-null group: the pick landed on a null row anyway, but be
            # explicit — m == 0 means NULL by SQL semantics
            cols[out] = pc.if_else(
                pa.array(m > 0), picked, pa.scalar(None, val_t)
            )
        return pa.table(cols)

    return _window_exchange(
        ds, keys=keys, cols=in_cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


# ---------------------------------------------------------------------------
# global top-k terms
# ---------------------------------------------------------------------------

def topk_terms(ds, *, text_col: str = "text", k: int = 20):
    """Corpus-wide top-k terms by frequency: per-batch partial term counts
    (one vectorized tokenize + value_counts — the combiner bounds the
    shuffle to distinct terms per batch, not tokens), a grouped_aggregate
    total per term (term cardinality = the corpus VOCABULARY — a native
    groupby pays per-group overhead on it), then an ordered limit with a
    deterministic (count desc, term asc) tiebreak."""

    def partial(batch: pa.Table) -> pa.Table:
        from debezium_connector_db2_ray.polars_compat import import_polars
        pl = import_polars()

        from debezium_connector_db2_ray.functions.text import TOKEN_PATTERN

        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        s = pl.from_arrow(pc.coalesce(col, pa.scalar("", pa.string())))
        toks = (
            s.str.to_lowercase().str.extract_all(TOKEN_PATTERN)
            .explode(empty_as_null=True).drop_nulls()
        )
        vc = toks.value_counts()
        cols = vc.columns  # [token_col, 'count']
        return pa.table(
            {
                "term": vc[cols[0]].to_arrow().cast(pa.string()),
                "cnt": vc["count"].to_arrow().cast(pa.int64()),
            }
        )

    totals = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["term"],
        aggs={"cnt": ("cnt", "sum")},
        num_partitions=derive_num_partitions(ds),
        schema=pa.schema([("term", pa.string()), ("cnt", pa.int64())]),
    )
    return totals.sort(["cnt", "term"], descending=[True, False]).limit(k)


# ---------------------------------------------------------------------------
# broadcast (map-side) join family
# ---------------------------------------------------------------------------

class _BroadcastProbe:
    """Actor-pool stage for broadcast_join: fetches the broadcast dim table
    from the object store ONCE per actor (zero-copy shared memory on the
    node) and builds a sorted-key probe index in __init__; __call__ is a
    pure vectorized searchsorted probe per batch."""

    def __init__(self, ref, on, how, rename, r_types,
                 right_suffix: str = "_r"):
        import ray

        tbl = ray.get(ref)
        k = tbl[on]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        keys = (
            pc.fill_null(k.cast(pa.int64()), 0)
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        if self.keys.size and np.any(self.keys[1:] == self.keys[:-1]):
            raise ValueError(
                "broadcast_join: right-side join keys must be unique "
                "(dimension-table contract)"
            )
        self.rows = order
        self.tbl = tbl.combine_chunks()
        self.on = on
        self.how = how
        self.rename = rename
        self.r_types = r_types
        self.right_suffix = right_suffix

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.rename is None:
            # left schema wasn't statically known at plan time (resolving
            # it would have executed the upstream pipeline just to learn
            # column names) — derive the collision renames from the first
            # batch; every batch of a Dataset shares one schema
            lnames = set(batch.column_names)
            self.rename = {
                c: (c + self.right_suffix if c in lnames else c)
                for c in self.tbl.column_names if c != self.on
            }
        kcol = batch[self.on]
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        valid = pc.is_valid(kcol).to_numpy(zero_copy_only=False)
        k = (
            pc.fill_null(kcol.cast(pa.int64()), 0)
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        if self.keys.size:
            pos = np.searchsorted(self.keys, k)
            pos_c = np.minimum(pos, self.keys.size - 1)
            hit = valid & (self.keys[pos_c] == k)
            idx = self.rows[pos_c]
        else:
            hit = np.zeros(len(k), bool)
            idx = np.zeros(len(k), np.int64)
        if self.how == "inner":
            sel = pa.array(hit)
            out = batch.filter(sel)
            take = pa.array(idx[hit])
            for c, outname in self.rename.items():
                out = out.append_column(outname, self.tbl[c].take(take))
            return out
        # left_outer: keep every left row, null-fill the misses
        out = batch
        if self.keys.size == 0:
            # empty dim table: taking index 0 would be out of bounds
            for c, outname in self.rename.items():
                out = out.append_column(
                    outname, pa.nulls(batch.num_rows, self.r_types[c])
                )
            return out
        take = pa.array(idx)
        hit_arr = pa.array(hit)
        for c, outname in self.rename.items():
            taken = self.tbl[c].take(take)
            out = out.append_column(
                outname,
                pc.if_else(hit_arr, taken, pa.scalar(None, self.r_types[c])),
            )
        return out


def broadcast_join(left, right, *, on: str, right_on: str | None = None,
                   how: str = "inner", right_suffix: str = "_r",
                   max_right_rows: int = 5_000_000,
                   concurrency=(1, 8)):
    """Map-side equi-join against a SMALL dimension side: the right Dataset
    is collected once, ``ray.put`` into the object store, and every map
    task probes a sorted-key index built once per actor — NO exchange at
    all on the big side (repartition_join moves every row of both sides
    once; this moves none). The canonical 100 TB enrichment shape: ship the
    25-row nation table to the data, never shuffle the fact table.

    Contract: integer keys; right keys UNIQUE (validated); right side small
    (<= max_right_rows, enforced at build — beyond that use
    repartition_join). ``how``: inner | left_outer. Right columns colliding
    with left names get ``right_suffix``.

    Reference analog: the in-memory table-id -> schema lookups the
    reference probes per event (Db2DatabaseSchema); here generalized to a
    first-class dim-enrichment operator."""
    import ray

    if how not in ("inner", "left_outer"):
        raise ValueError(how)
    ron = right_on or on
    refs = right.to_arrow_refs()
    parts = [t for t in ray.get(refs) if t.num_rows] or [
        ray.get(refs[0])
    ] if refs else []
    rt = pa.concat_tables(parts) if parts else None
    if rt is None:
        # zero-block right side: keep the TYPED empty table so the probe
        # index still knows the join column and output types
        rt = side_schema(right).empty_table()
    if rt.num_rows > max_right_rows:
        raise ValueError(
            f"broadcast_join: right side has {rt.num_rows} rows "
            f"(> max_right_rows={max_right_rows}); use repartition_join"
        )
    if ron != on and ron in rt.column_names:
        rt = rt.rename_columns(
            [on if c == ron else c for c in rt.column_names]
        )
    # SQL equi-join semantics: a NULL join key never matches anything, so a
    # NULL-key dimension row must not enter the probe index (it would
    # otherwise alias key 0 through the fill_null cast below)
    rt = rt.filter(pc.is_valid(rt[on]))
    # NEVER force-resolve the left schema: on a left with an exchange
    # upstream, Dataset.schema() executes that whole upstream just to
    # learn column names (measured 3-4x duplicate pipeline runs on the
    # chained-join queries). fetch_if_missing=False is free; when it
    # returns None the probe derives the collision renames from its first
    # batch instead (all batches share one schema). An all-empty left
    # (legitimate: a selective filter killed every row) never reaches the
    # probe, so collisions are moot there too.
    lschema = left.schema(fetch_if_missing=False)
    if hasattr(lschema, "base_schema"):
        lschema = lschema.base_schema
    rcols = [c for c in rt.column_names if c != on]
    rename = (
        {c: (c + right_suffix if c in set(lschema.names) else c)
         for c in rcols}
        if lschema is not None else None
    )
    r_types = {c: rt.schema.field(c).type for c in rcols}
    ref = ray.put(rt)
    return left.map_batches(
        _BroadcastProbe,
        fn_constructor_kwargs=dict(
            ref=ref, on=on, how=how, rename=rename, r_types=r_types,
            right_suffix=right_suffix,
        ),
        batch_format="pyarrow",
        concurrency=concurrency,
        # Fractional CPU per probe actor: a query chaining several
        # broadcast joins spawns one actor pool per join, and pools hold
        # their reservation while idle — at integer CPU per actor a deep
        # chain on a small cluster (gate fixture: 4 CPUs) can reserve
        # EVERY slot and starve the task-based exchange ops downstream
        # (observed as a full streaming-executor deadlock on TPC-H Q2's
        # 3-join chain). The probe is a memory-light searchsorted lookup,
        # so packing two actors per core is also the right throughput
        # call, not just a deadlock fix.
        num_cpus=0.5,
    )


def semi_join_filter(left, right, *, on: str, right_on: str | None = None,
                     anti: bool = False, max_keys: int = 50_000_000):
    """Semi / anti join as a broadcast key-filter (EXISTS / NOT EXISTS):
    the right side collapses to its DISTINCT join keys (a per-batch
    ``pc.unique`` combiner runs before anything leaves the workers, so the
    collect moves per-batch-distinct keys, not rows), the deduped sorted
    key array is ``ray.put`` once, and the left side filters map-side via
    searchsorted membership — the big side never shuffles.

    EXISTS semantics: NULL left keys never match (filtered out for semi,
    kept for anti — exactly SQL EXISTS / NOT EXISTS, not NOT IN's
    null-poisoning). ``max_keys`` bounds the driver-held distinct-key
    array; beyond it, use repartition_join + grouping instead.

    Reference analog: the capture-table include-list filter applied to the
    change stream (connector.py include/exclude, M5) — generalized to a
    data-driven key set."""
    import ray

    ron = right_on or on

    def distinct(batch: pa.Table) -> pa.Table:
        col = batch[ron]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        u = pc.unique(col.cast(pa.int64()))
        u = u.filter(pc.is_valid(u))
        return pa.table({"k": u})

    key_parts = ray.get(
        right.map_batches(distinct, batch_format="pyarrow").to_arrow_refs()
    )
    arrs = [t["k"].to_numpy(zero_copy_only=False) for t in key_parts
            if t.num_rows]
    keys = (
        np.unique(np.concatenate(arrs)) if arrs
        else np.empty(0, np.int64)
    ).astype(np.int64)
    if keys.size > max_keys:
        raise ValueError(
            f"semi_join_filter: {keys.size} distinct keys "
            f"(> max_keys={max_keys}); use repartition_join"
        )
    ref = ray.put(keys)

    def filt(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        col = batch[on]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        v = (
            pc.fill_null(col.cast(pa.int64()), 0)
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        if ks.size:
            pos = np.minimum(np.searchsorted(ks, v), ks.size - 1)
            member = valid & (ks[pos] == v)
        else:
            member = np.zeros(len(v), bool)
        return batch.filter(pa.array(~member if anti else member))

    return left.map_batches(filt, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# rollup aggregate / unpivot / grouped rank
# ---------------------------------------------------------------------------

def _table_group_agg(tbl: pa.Table, keys: list[str],
                     spec: list[tuple[str, str]]) -> pa.Table:
    """Null-safe local pa.Table.group_by (pyarrow multi-key group_by
    duplicates null-key groups — same workaround as grouped_aggregate's
    (sentinel, validity) encoding, applied to a driver-sized table)."""
    if not keys:
        cols = {}
        for c, fn in spec:
            col = tbl[c]
            if fn == "sum":
                cols[c] = pa.array([pc.sum(col).as_py()], col.type if
                                   pa.types.is_floating(col.type) else pa.int64())
            elif fn == "min":
                cols[c] = pa.array([pc.min(col).as_py()], col.type)
            elif fn == "max":
                cols[c] = pa.array([pc.max(col).as_py()], col.type)
            else:
                raise ValueError(fn)
        return pa.table(cols)
    enc = tbl
    nk = {c: f"__nk_{c}" for c in keys}
    types = {c: tbl.schema.field(c).type for c in keys}
    for c in keys:
        col = enc[c]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            z = pa.scalar("", col.type)
        elif pa.types.is_binary(col.type):
            z = pa.scalar(b"", col.type)
        else:
            z = pc.cast(pa.scalar(0), col.type)
        enc = enc.set_column(
            enc.column_names.index(c), c, pc.fill_null(col, z)
        ).append_column(nk[c], pc.is_null(col))
    gb = list(keys) + list(nk.values())
    g = enc.group_by(gb).aggregate(spec)
    agg_names = [n for n in g.column_names if n not in gb]
    out = {
        c: pc.if_else(g[nk[c]], pa.scalar(None, types[c]), g[c])
        for c in keys
    }
    for (c, _), an in zip(spec, agg_names):
        out[c] = g[an]
    return pa.table(out)


def rollup_aggregate(ds, *, keys: list[str],
                     aggs: dict[str, tuple[str, str]],
                     grouping_col: str = "gid",
                     num_partitions: int | None = None,
                     schema: "pa.Schema | None" = None) -> pa.Table:
    """SQL ``GROUP BY ROLLUP(keys...)``: the finest level runs as ONE
    distributed grouped_aggregate exchange over the raw input; every
    coarser level (prefixes of ``keys``, down to the grand total) folds the
    finest-level AGGREGATE — the raw data is read and shuffled exactly
    once, and only the rollup result (which the caller materializes by
    definition) is driver-sized. ``grouping_col`` carries the SQL
    GROUPING bitmask (bit i set <=> keys[i] rolled up; big-endian like
    DuckDB's GROUPING(a, b)) so subtotal NULLs are distinguishable from
    genuine NULL key values.

    Supported fns: sum | count | count_all | min | max (re-foldable
    partials; mean is not — decompose it yourself as sum+count).
    Returns a pa.Table: keys + grouping_col + aggregate columns."""
    refold = {"sum": "sum", "count": "sum", "count_all": "sum",
              "min": "min", "max": "max"}
    for out, (_, fn) in aggs.items():
        if fn not in refold:
            raise ValueError(f"rollup_aggregate: unfoldable fn {fn!r}")
    finest = grouped_aggregate(
        ds, keys=keys, aggs=aggs, num_partitions=num_partitions,
        schema=schema,
    )
    import ray

    parts = [t for t in ray.get(finest.to_arrow_refs()) if t.num_rows]
    base = (
        pa.concat_tables(parts).combine_chunks() if parts
        else None
    )
    if base is None:
        # typed empty result
        sch = schema if schema is not None else ds.schema()
        if hasattr(sch, "base_schema"):
            sch = sch.base_schema
        key_fields = [(k, sch.field(k).type) for k in keys]
        agg_fields = []
        for out, (col, fn) in aggs.items():
            if fn in ("count", "count_all"):
                agg_fields.append((out, pa.int64()))
            else:
                agg_fields.append((out, sch.field(col).type))
        return pa.schema(
            key_fields + [(grouping_col, pa.int64())] + agg_fields
        ).empty_table()
    spec = [(out, refold[fn]) for out, (_, fn) in aggs.items()]
    levels = []
    n = len(keys)
    for lvl in range(n, -1, -1):
        kept = keys[:lvl]
        t = (
            base.select(kept + list(aggs)) if lvl < n else base
        )
        g = _table_group_agg(t, kept, spec) if lvl < n else base
        gid = sum(1 << (n - 1 - i) for i in range(lvl, n))
        cols = {}
        for i, k in enumerate(keys):
            if i < lvl:
                cols[k] = g[k]
            else:
                cols[k] = pa.nulls(g.num_rows, base.schema.field(k).type)
        cols[grouping_col] = pa.array(
            np.full(g.num_rows, gid, np.int64)
        )
        for out in aggs:
            cols[out] = g[out]
        levels.append(pa.table(cols))
    return pa.concat_tables(levels)


def unpivot(ds, *, id_cols: list[str], value_cols: list[str],
            name_col: str = "name", value_col: str = "value",
            value_type: "pa.DataType | None" = None):
    """Wide -> long (SQL UNPIVOT / pandas melt): each input row emits one
    output row per entry of ``value_cols``. Pure map-side — zero-copy on
    the id columns (Arrow table concat references the same buffers), one
    cast per measure column; no exchange, trivially streaming at any
    scale. ``value_type`` defaults to float64."""
    vt = value_type or pa.float64()

    def melt(batch: pa.Table) -> pa.Table:
        parts = []
        for m in value_cols:
            cols = {c: batch[c] for c in id_cols}
            cols[name_col] = pa.array(
                np.full(batch.num_rows, m), pa.string()
            )
            cols[value_col] = batch[m].cast(vt)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow")


def grouped_rank(ds, *, keys: list[str],
                 order_by: list[tuple[str, str]],
                 method: str = "dense", out_col: str = "rnk",
                 num_partitions: int | None = None,
                 schema: "pa.Schema | None" = None):
    """SQL ``DENSE_RANK() / RANK() OVER (PARTITION BY keys ORDER BY ...)``
    with tie groups sharing a rank: one hash exchange on part(keys), then
    a partition-local vectorized kernel — sort by (keys..., order_by...),
    key-segment starts and order-value-run starts from adjacent compares,
    rank from cumulative run counts (dense) or run-start offsets (rank).
    No pre-combiner is possible (a row's rank needs every earlier tie
    group), so a mega-group lands on one partition — same caveat and same
    exchange shape as grouped_lag_delta.

    ``percent_rank`` and ``cume_dist`` reuse the same kernel and emit
    float64: percent_rank = (rank-1)/(group_size-1) (0.0 for a 1-row
    group), cume_dist = rows_at_or_before_tie_run / group_size — both a
    single division of exact int64 counts, so bit-identical to DuckDB's.

    Reference analog: the change-table scan's per-key event ordering
    (rowLsn ordering in Db2StreamingChangeEventSource); generalized to
    the SQL rank family."""
    if method not in ("dense", "rank", "percent_rank", "cume_dist"):
        raise ValueError(method)
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    out_type = (
        pa.float64() if method in ("percent_rank", "cume_dist")
        else pa.int64()
    )
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols] + [(out_col, out_type)]
    )
    ocols = [c for c, _ in order_by]

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        n = t.num_rows
        starts = _segment_starts(t, keys)
        runs = _segment_starts(t, keys + ocols)
        sizes = np.diff(np.append(starts, n))
        run_sizes = np.diff(np.append(runs, n))
        if method == "dense":
            newv = np.zeros(n, np.int64)
            newv[runs] = 1
            cum = np.cumsum(newv)
            rank = cum - np.repeat(cum[starts], sizes) + 1
        elif method == "cume_dist":
            # rows at-or-before each row's tie run, within its segment
            run_end = np.repeat(runs + run_sizes, run_sizes)
            seg_start = np.repeat(starts, sizes)
            seg_size = np.repeat(sizes, sizes)
            cd = (run_end - seg_start).astype(np.float64) / seg_size
            return t.append_column(out_col, pa.array(cd, pa.float64()))
        else:
            first_of_run = np.repeat(runs, run_sizes)
            rank = first_of_run - np.repeat(starts, sizes) + 1
            if method == "percent_rank":
                seg_size = np.repeat(sizes, sizes)
                pr = np.where(
                    seg_size > 1,
                    (rank - 1).astype(np.float64)
                    / np.maximum(seg_size - 1, 1),
                    0.0,
                )
                return t.append_column(
                    out_col, pa.array(pr, pa.float64())
                )
        return t.append_column(out_col, pa.array(rank, pa.int64()))

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def distinct_set_op(left, right, *, cols: list[str], op: str,
                    num_partitions: int | None = None,
                    schema: "pa.Schema | None" = None):
    """SQL ``INTERSECT`` / ``EXCEPT`` (DISTINCT set semantics) over the
    ``cols`` tuple of two datasets, as ONE combiner exchange: each batch
    collapses to its distinct tuples tagged with per-side presence counts
    (pyarrow hash-distinct — the combiner bounds shuffle volume by
    distinct tuples per batch, not rows), then grouped_aggregate sums the
    presence flags and a filter keeps tuples in-both (intersect) or
    left-only (except). Null tuples group as equal, matching SQL set-op
    (NOT IN-free) semantics. Scales like grouped_aggregate: one
    partition's distinct tuples must fit a worker.

    Reference analog: none in the connector — Debezium leaves set algebra
    to downstream SQL; first-class here (SURVEY §2 relational family)."""
    if op not in ("intersect", "except"):
        raise ValueError(op)
    sch = schema or side_schema(left)
    cols = list(cols)
    key_types = [sch.field(c).type for c in cols]

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            d = batch.select(cols).group_by(cols).aggregate([])
            n = d.num_rows
            one = np.ones(n, np.int64)
            zero = np.zeros(n, np.int64)
            return d.append_column(
                "__l", pa.array(one if side == 0 else zero)
            ).append_column(
                "__r", pa.array(one if side == 1 else zero)
            )

        return fn

    u = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow")
    )
    agg = grouped_aggregate(
        u, keys=cols,
        aggs={"__l": ("__l", "sum"), "__r": ("__r", "sum")},
        num_partitions=num_partitions,
        schema=pa.schema(
            [(c, t) for c, t in zip(cols, key_types)]
            + [("__l", pa.int64()), ("__r", pa.int64())]
        ),
    )

    def pick(batch: pa.Table) -> pa.Table:
        l_in = pc.greater(batch["__l"], 0)
        r_in = pc.greater(batch["__r"], 0)
        keep = (
            pc.and_(l_in, r_in) if op == "intersect"
            else pc.and_(l_in, pc.invert(r_in))
        )
        return batch.filter(keep).select(cols)

    return agg.map_batches(pick, batch_format="pyarrow")


def grouped_ntile(ds, *, keys: list[str],
                  order_by: list[tuple[str, str]], n: int,
                  out_col: str = "nt",
                  num_partitions: int | None = None,
                  schema: "pa.Schema | None" = None):
    """SQL ``NTILE(n) OVER (PARTITION BY keys ORDER BY ...)``: same
    one-exchange skeleton as grouped_rank; the kernel computes each key
    segment's (base, rem) = divmod(size, n) and assigns the first ``rem``
    tiles ``base+1`` rows, the rest ``base`` — the SQL distribution rule —
    fully vectorized via per-segment np.repeat. ``order_by`` must give a
    deterministic total order (unique tiebreak) for cross-engine parity:
    NTILE is position-based, so ties are split by position."""
    if n < 1:
        raise ValueError("ntile n must be >= 1")
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols] + [(out_col, pa.int64())]
    )

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        m = t.num_rows
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, m))
        base = sizes // n
        rem = sizes % n
        # row offset within its segment
        off = np.arange(m, dtype=np.int64) - np.repeat(starts, sizes)
        b = np.repeat(base, sizes)
        r = np.repeat(rem, sizes)
        cut = r * (b + 1)  # rows below `cut` live in the big tiles
        big = off < cut
        tile = np.where(
            big,
            off // np.maximum(b + 1, 1),
            r + np.where(b > 0, (off - cut) // np.maximum(b, 1), 0),
        ) + 1
        return t.append_column(out_col, pa.array(tile, pa.int64()))

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def global_top_k(ds, *, order_by: list[tuple[str, str]], k: int,
                 schema: "pa.Schema | None" = None):
    """Global ``ORDER BY ... LIMIT k`` WITHOUT a full distributed sort:
    every batch keeps only its local top-k (the combiner — at most k rows
    leave each batch), then ONE single-partition merge re-sorts the
    surviving <= k * n_batches rows and slices k. For k << rows this
    moves O(k) data per batch instead of shuffling the dataset the way
    ``ds.sort().limit(k)`` would. ``order_by`` should include a unique
    tiebreak column for deterministic cross-engine results.

    Reference analog: the change-table scan's FETCH FIRST bounding
    (Db2Connection query hints, O1-O3 in SURVEY §2) — generalized to an
    arbitrary sort key at corpus scale."""
    if k < 1:
        raise ValueError("k must be >= 1")
    sch = schema or side_schema(ds)
    out_schema = pa.schema([(c, sch.field(c).type) for c in sch.names])

    def local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return batch.sort_by(list(order_by)).slice(0, k)

    import ray.data as _rd

    combined = (
        ds.map_batches(local, batch_format="pyarrow")
        .union(_rd.from_arrow(out_schema.empty_table()))
        .repartition(1)
    )
    return combined.map_batches(
        local, batch_format="pyarrow",
        batch_size=None,  # one merge over the single surviving block
    )


def grouped_first_last(ds, *, keys: list[str],
                       order_by: list[tuple[str, str]], value_col: str,
                       first_col: str = "first_v", last_col: str = "last_v",
                       num_partitions: int | None = None,
                       schema: "pa.Schema | None" = None):
    """SQL ``FIRST_VALUE(v) / LAST_VALUE(v) OVER (PARTITION BY keys
    ORDER BY ... ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED
    FOLLOWING)``: the one-exchange window skeleton; the kernel takes each
    key segment's first/last row index and gathers ``value_col`` with an
    Arrow take (type-agnostic — works for strings/binary, no numpy
    round-trip). ``order_by`` needs a unique tiebreak for deterministic
    first/last under ties."""
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    vt = sch.field(value_col).type
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols]
        + [(first_col, vt), (last_col, vt)]
    )

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, t.num_rows))
        idx_first = np.repeat(starts, sizes)
        idx_last = np.repeat(starts + sizes - 1, sizes)
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        return t.append_column(
            first_col, v.take(pa.array(idx_first, pa.int64()))
        ).append_column(
            last_col, v.take(pa.array(idx_last, pa.int64()))
        )

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def prefix_sum(ds, *, order_col: str, val_col: str,
               out_col: str = "cumsum",
               num_partitions: int | None = None):
    """Distributed INCLUSIVE prefix sum over a global integer order — the
    scan primitive behind sequence packing, running offsets and cumulative
    quotas that single-node engines get from ``SUM() OVER (ORDER BY ...)``.

    Scale shape (classic two-phase scan, no global sort):
    1. RANGE-partition on ``order_col`` (contiguous value ranges from
       min/max metadata — equal order ranges co-locate AND stay globally
       ordered across partitions, unlike a hash exchange);
    2. a map-only pass emits per-(batch, range) partial sums — a tiny
       aggregate (P * batches rows) folds them into per-range totals, and
       the driver exclusive-scans the <= P totals into range offsets;
    3. one exchange moves each row to its range; the partition-local kernel
       sorts by ``order_col`` and adds ``local cumsum + range offset``.
    Rows move exactly once; the driver holds P numbers, never data.

    ``order_col`` must be a unique integer total order (doc_id, event_id,
    LSN lo). NULL ``val_col`` counts as 0 (SUM OVER semantics ignore NULL
    addends)."""
    import ray
    import ray.data as _rd
    from ray.data.aggregate import Max as _RayMax
    from ray.data.aggregate import Min as _RayMin

    if num_partitions is None:
        num_partitions = derive_num_partitions(ds)
    sch = side_schema(ds)
    out_schema = sch.append(pa.field(out_col, pa.int64()))
    stats = ds.aggregate(
        _RayMin(order_col, alias_name="lo"), _RayMax(order_col, alias_name="hi")
    )
    lo, hi = stats["lo"], stats["hi"]
    if lo is None:
        return _rd.from_arrow(out_schema.empty_table())
    width = max(1, (int(hi) - int(lo) + num_partitions) // num_partitions)

    def part_of(batch: pa.Table) -> np.ndarray:
        o = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return ((o - int(lo)) // width).astype(np.int32)

    def partials(batch: pa.Table) -> pa.Table:
        p = part_of(batch)
        v = pc.fill_null(batch[val_col].cast(pa.int64()), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        order = np.argsort(p, kind="stable")
        ps, vs = p[order], v[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(ps)) + 1))
        sums = np.add.reduceat(vs, starts) if len(vs) else np.zeros(0, np.int64)
        return pa.table({
            "p": pa.array(ps[starts], pa.int32()),
            "s": pa.array(sums, pa.int64()),
        })

    rows = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("p").sum("s")
        .to_pandas()
    )
    totals = np.zeros(num_partitions + 1, np.int64)
    for p, s in zip(rows["p"], rows["sum(s)"]):
        totals[int(p)] = int(s)
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))
    off_ref = ray.put(offsets)

    def kernel(t: pa.Table) -> pa.Table:
        pcode = part_of(t.slice(0, 1))[0]  # one range per kernel call
        t = t.sort_by([(order_col, "ascending")])
        v = pc.fill_null(t[val_col].cast(pa.int64()), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        return t.append_column(
            out_col,
            pa.array(np.cumsum(v) + ray.get(off_ref)[pcode], pa.int64()),
        )

    return exchange([ds], part_of, kernel, out_schema, schemas=[sch])


def grouping_sets_aggregate(ds, *, keys: list[str],
                            sets: list[list[str]],
                            aggs: dict[str, tuple[str, str]],
                            grouping_col: str = "gid",
                            num_partitions: int | None = None,
                            schema: "pa.Schema | None" = None) -> pa.Table:
    """SQL ``GROUP BY GROUPING SETS (sets...)`` (and via helpers CUBE):
    like rollup_aggregate, the finest level (all ``keys``) runs as ONE
    distributed grouped_aggregate exchange; every requested set — any
    subset of ``keys`` — folds that finest-level aggregate locally, so the
    raw data is read and shuffled exactly once regardless of how many
    grouping sets are requested. ``grouping_col`` carries the SQL
    GROUPING(keys...) bitmask (bit i set <=> keys[i] aggregated away,
    big-endian like DuckDB).

    Supported fns: sum | count | count_all | min | max (re-foldable
    partials). Each entry of ``sets`` must be a subset of ``keys`` (order
    within a set is irrelevant); duplicates of the same set are emitted
    once per occurrence, exactly like SQL. Returns a pa.Table."""
    refold = {"sum": "sum", "count": "sum", "count_all": "sum",
              "min": "min", "max": "max"}
    for out, (_, fn) in aggs.items():
        if fn not in refold:
            raise ValueError(f"grouping_sets_aggregate: unfoldable {fn!r}")
    for s in sets:
        bad = set(s) - set(keys)
        if bad:
            raise ValueError(f"grouping set {s} not a subset of keys: {bad}")
    finest = grouped_aggregate(
        ds, keys=keys, aggs=aggs, num_partitions=num_partitions,
        schema=schema,
    )
    import ray

    parts = [t for t in ray.get(finest.to_arrow_refs()) if t.num_rows]
    n = len(keys)
    if not parts:
        sch = schema if schema is not None else ds.schema()
        if hasattr(sch, "base_schema"):
            sch = sch.base_schema
        key_fields = [(k, sch.field(k).type) for k in keys]
        agg_fields = []
        for out, (col, fn) in aggs.items():
            if fn in ("count", "count_all"):
                agg_fields.append((out, pa.int64()))
            else:
                agg_fields.append((out, sch.field(col).type))
        return pa.schema(
            key_fields + [(grouping_col, pa.int64())] + agg_fields
        ).empty_table()
    base = pa.concat_tables(parts).combine_chunks()
    spec = [(out, refold[fn]) for out, (_, fn) in aggs.items()]
    levels = []
    for s in sets:
        kept = [k for k in keys if k in s]
        if len(kept) == n:
            g = base
        else:
            g = _table_group_agg(base.select(kept + list(aggs)), kept, spec)
        gid = sum(1 << (n - 1 - i)
                  for i, k in enumerate(keys) if k not in s)
        cols = {}
        for k in keys:
            if k in s:
                cols[k] = g[k]
            else:
                cols[k] = pa.nulls(g.num_rows, base.schema.field(k).type)
        cols[grouping_col] = pa.array(np.full(g.num_rows, gid, np.int64))
        for out in aggs:
            cols[out] = g[out]
        levels.append(pa.table(cols))
    return pa.concat_tables(levels)


def cube_aggregate(ds, *, keys: list[str],
                   aggs: dict[str, tuple[str, str]],
                   grouping_col: str = "gid",
                   num_partitions: int | None = None,
                   schema: "pa.Schema | None" = None) -> pa.Table:
    """SQL ``GROUP BY CUBE(keys...)``: all 2^len(keys) grouping sets,
    folded from ONE distributed exchange (see grouping_sets_aggregate)."""
    n = len(keys)
    sets = [[k for i, k in enumerate(keys) if mask & (1 << (n - 1 - i))]
            for mask in range(2 ** n - 1, -1, -1)]
    return grouping_sets_aggregate(
        ds, keys=keys, sets=sets, aggs=aggs, grouping_col=grouping_col,
        num_partitions=num_partitions, schema=schema,
    )


def grouped_rolling_range_sum(ds, *, keys: list[str], order_col: str,
                              col: str, range_preceding: int,
                              out_col: str = "rolling",
                              num_partitions: int | None = None,
                              schema: "pa.Schema | None" = None):
    """SQL ``sum(col) OVER (PARTITION BY keys ORDER BY order_col RANGE
    BETWEEN range_preceding PRECEDING AND CURRENT ROW)`` for an integer
    ``order_col`` (e.g. epoch-microseconds): the time-window rolling
    aggregate. One hash exchange + partition-local sort, then ALL frame
    boundaries come from two vectorized searchsorted calls — no per-group
    or per-row loop:

    * segments are made globally monotone by composing a strictly
      increasing surrogate ``g = seg_idx * M + (t - seg_min)`` with
      ``M = max_segment_span + range_preceding + 2`` — window queries
      ``g - range_preceding`` can never cross a segment boundary, so one
      searchsorted over the whole partition resolves every frame start;
    * frame END is ``searchsorted(right)`` of the row's own g, which
      includes RANGE-frame PEERS (rows tied on order_col) exactly like
      SQL — a rows-frame cumsum would not.

    Overflow guard: if ``n_segments * M`` would exceed int64 the kernel
    falls back to per-segment searchsorted (correct, rarely taken; at
    cluster scale partitions bound segment count so the fast path holds).
    ``col`` must be integer (pre-scale money); NULLs sum as 0."""
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols] + [(out_col, pa.int64())]
    )
    w = int(range_preceding)

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + [(order_col, "ascending")]
        )
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, t.num_rows))
        seg_idx = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        o = t[order_col]
        if isinstance(o, pa.ChunkedArray):
            o = o.combine_chunks()
        tt = o.cast(pa.int64()).to_numpy(zero_copy_only=False)
        seg_min = np.repeat(tt[starts], sizes)
        seg_span = np.zeros(len(starts), dtype=np.int64)
        ends = np.append(starts[1:], t.num_rows) - 1
        seg_span = tt[ends] - tt[starts]
        M = int(seg_span.max()) + w + 2
        v = pc.fill_null(t[col].cast(pa.int64()), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        cum = np.cumsum(v, dtype=np.int64)
        if len(starts) * M < 2 ** 62:
            g = seg_idx * M + (tt - seg_min)
            lo = np.searchsorted(g, g - w, side="left")
            hi = np.searchsorted(g, g, side="right") - 1
        else:  # per-segment fallback (astronomically wide segments)
            lo = np.empty(t.num_rows, np.int64)
            hi = np.empty(t.num_rows, np.int64)
            for s, e in zip(starts, np.append(starts[1:], t.num_rows)):
                lo[s:e] = s + np.searchsorted(tt[s:e], tt[s:e] - w, "left")
                hi[s:e] = s + np.searchsorted(tt[s:e], tt[s:e], "right") - 1
        roll = cum[hi] - np.where(lo > 0, cum[lo - 1], 0)
        return t.append_column(out_col, pa.array(roll, pa.int64()))

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def pagerank(edges, *, damping: float = 0.85, iters: int = 2,
             num_partitions: int | None = None,
             broadcast_nodes_budget: int = 2_000_000):
    """Distributed PageRank over an UNDIRECTED edge list (columns
    ``src, dst`` — callers pass both directions of each edge, so every
    node has out-degree > 0 and no dangling-mass correction is needed).
    Each iteration is the classic two-exchange dataflow: join the rank
    vector to the edge list on ``src`` (repartition_join), emit
    r(src)/deg(src) contributions map-side, then one grouped sum on
    ``dst`` and the damping affine map. Ranks and edges stay Datasets
    end-to-end; the only driver-side scalar is N (node count). Same
    iterative-partials family as similarity.kmeans_fit and the hash-min
    label propagation in duplicate_components (reference analog: none —
    the reference's graph-shaped work stops at transaction lineage,
    SURVEY §2 A3).

    Returns (node, r) with float64 ranks after ``iters`` iterations from
    the uniform start; callers quantize for hashing."""
    if num_partitions is None:
        num_partitions = derive_num_partitions(edges)

    deg = grouped_aggregate(
        edges.map_batches(
            lambda t: pa.table({"node": t["src"]}),
            batch_format="pyarrow",
        ),
        keys=["node"],
        aggs={"deg": ("node", "count")},
        num_partitions=num_partitions,
        schema=pa.schema([("node", pa.int64())]),
    )
    n_nodes = deg.count()
    base = (1.0 - damping) / n_nodes

    # static per-edge state: (src, dst, deg_src) — joined ONCE, reused
    # every iteration
    ej_schema = pa.schema([
        ("src", pa.int64()), ("dst", pa.int64()), ("deg", pa.int64()),
    ])
    ranks_schema = pa.schema([("src", pa.int64()), ("r", pa.float64())])
    # MATERIALIZED: without it every iteration's lazy chain re-executes
    # all previous iterations (and the schema fetch re-executed the join
    # upstream once more) — bounded by edge count, exactly the loop state
    # an iterative dataflow must pin
    ej = repartition_join(
        edges,
        deg.map_batches(
            lambda t: pa.table({"src": t["node"], "deg": t["deg"]}),
            batch_format="pyarrow",
        ),
        on="src", num_partitions=num_partitions,
        right_schema=pa.schema([("src", pa.int64()), ("deg", pa.int64())]),
    ).materialize()

    ranks = deg.map_batches(
        lambda t, _n=n_nodes: pa.table({
            "src": t["node"],
            "r": pa.array(np.full(t.num_rows, 1.0 / _n), pa.float64()),
        }),
        batch_format="pyarrow",
    ).materialize()
    # The rank vector is (node, r) — n_nodes rows, already counted on the
    # driver. Below the budget, broadcast it and probe map-side: each
    # iteration drops from 3 exchanges (join moves BOTH sides + the dst
    # fold) to 1 (the fold only) — the edge table never moves again after
    # the one-time degree join. Above the budget the repartition join is
    # the scale path (auto-switched on the MEASURED count, not a
    # docstring promise).
    small_ranks = n_nodes <= broadcast_nodes_budget
    for _ in range(iters):
        joined = (
            broadcast_join(ej, ranks, on="src")
            if small_ranks else
            repartition_join(
                ej, ranks, on="src", num_partitions=num_partitions,
                left_schema=ej_schema, right_schema=ranks_schema,
            )
        )
        contrib = joined.map_batches(
            lambda t: pa.table({
                "node": t["dst"],
                "c": pc.divide(
                    t["r"], pc.cast(t["deg"], pa.float64())
                ),
            }),
            batch_format="pyarrow",
        )
        summed = grouped_aggregate(
            contrib,
            keys=["node"],
            aggs={"s": ("c", "sum")},
            num_partitions=num_partitions,
            schema=pa.schema([("node", pa.int64()), ("c", pa.float64())]),
        )
        ranks = summed.map_batches(
            lambda t, _b=base, _d=damping: pa.table({
                "src": t["node"],
                "r": pc.add(
                    pa.scalar(_b, pa.float64()),
                    pc.multiply(t["s"], pa.scalar(_d, pa.float64())),
                ),
            }),
            batch_format="pyarrow",
        ).materialize()
    return ranks.map_batches(
        lambda t: pa.table({"node": t["src"], "r": t["r"]}),
        batch_format="pyarrow",
    )


def funnel_stages(ds, *, key: str, ts_col: str, type_col: str,
                  stages: list[str], num_partitions: int | None = None):
    """Ordered-funnel depth per key: stage i+1 counts only STRICTLY after
    the earliest completion of stage i (the classic product-analytics
    funnel, min-ts semantics). ONE hash exchange on ``key``; the
    partition-local kernel is fully vectorized — per-segment mins via
    np.minimum.reduceat, one masked pass per stage, never a per-user
    loop. Keys that never reach stage 0 emit no row (SQL mirror: the
    stage-0 CTE is the FROM anchor). Output: (key, stages_reached,
    last_ts_us) with the timestamp of the deepest stage reached.

    Reference analog: none — the event-sequence family member (SURVEY
    §2.5 extension), same exchange shape as grouped_lag_delta."""
    sch = side_schema(ds)
    key_type = sch.field(key).type
    out_schema = pa.schema([
        (key, key_type),
        ("stages_reached", pa.int64()),
        ("last_ts_us", pa.int64()),
    ])
    stage_list = list(stages)

    def kernel(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t, sort_keys=[(key, "ascending")])
        t = t.take(order)
        starts = _segment_starts(t, [key])
        n_seg = len(starts)
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ty = t[type_col].to_numpy(zero_copy_only=False)
        seg_id = np.zeros(len(ts), np.int64)
        seg_id[starts[1:]] = 1
        seg_id = np.cumsum(seg_id)
        INF = np.iinfo(np.int64).max
        t_prev = np.full(n_seg, -1, np.int64)  # strictly-after anchor
        depth = np.zeros(n_seg, np.int64)
        last = np.full(n_seg, INF, np.int64)
        for si, stage in enumerate(stage_list):
            mask = (ty == stage) & (ts > t_prev[seg_id]) \
                & (t_prev[seg_id] != INF)
            vals = np.where(mask, ts, INF)
            m = np.minimum.reduceat(vals, starts)
            reached = m != INF
            depth += reached
            last = np.where(reached, m, last)
            t_prev = m
        keep = depth > 0
        keys_col = t[key].take(pa.array(starts[keep]))
        return pa.table({
            key: keys_col,
            "stages_reached": pa.array(depth[keep], pa.int64()),
            "last_ts_us": pa.array(last[keep], pa.int64()),
        })

    return _window_exchange(
        ds, keys=[key], cols=[key, ts_col, type_col],
        num_partitions=num_partitions, kernel=kernel,
        out_schema=out_schema,
    )


def triangle_count(edges, *, num_partitions: int | None = None):
    """Exact triangle count of an undirected simple graph given as an edge
    Dataset (src, dst) — duplicates, reversed copies and self-loops are
    cleaned first. Degree-ordered node-iterator (the MapReduce-classic
    Cohen / Suri-Vassilvitskii shape, reimplemented on the repo's
    exchanges): orient every edge from its lower-(degree, id) endpoint to
    the higher one, enumerate wedges only OUT of each node (sum of
    out-degree^2 is O(m^1.5) under this orientation — a star graph makes
    zero wedges at its hub), then one pair-keyed exchange counts wedges
    whose closing edge exists. No driver-side graph state at any scale.

    Exchanges: edge dedup, degree count, two degree joins, wedge groupby,
    and the final wedge+edge membership aggregate — each bounded by edges
    or wedges, all vectorized kernels."""
    if num_partitions is None:
        num_partitions = derive_num_partitions(edges)

    def canon(t: pa.Table) -> pa.Table:
        s = t["src"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = t["dst"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        return pa.table({
            "a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64()),
        })

    dedup = grouped_aggregate(
        edges.map_batches(canon, batch_format="pyarrow"),
        keys=["a", "b"], aggs={"n": ("a", "count")},
        num_partitions=num_partitions,
        schema=pa.schema([("a", pa.int64()), ("b", pa.int64())]),
    ).select_columns(["a", "b"]).materialize()  # edge list reused 3x

    deg = grouped_aggregate(
        dedup.map_batches(
            lambda t: pa.table({
                "node": pa.concat_arrays([
                    t["a"].combine_chunks() if isinstance(
                        t["a"], pa.ChunkedArray) else t["a"],
                    t["b"].combine_chunks() if isinstance(
                        t["b"], pa.ChunkedArray) else t["b"],
                ]),
            }),
            batch_format="pyarrow",
        ),
        keys=["node"], aggs={"d": ("node", "count_all")},
        num_partitions=num_partitions,
        schema=pa.schema([("node", pa.int64())]),
    )

    deg_schema = pa.schema([("node", pa.int64()), ("d", pa.int64())])
    ea = repartition_join(
        dedup.map_batches(
            lambda t: pa.table({"node": t["a"], "b": t["b"]}),
            batch_format="pyarrow",
        ),
        deg, on="node", num_partitions=num_partitions,
        left_schema=pa.schema([("node", pa.int64()), ("b", pa.int64())]),
        right_schema=deg_schema,
    ).map_batches(
        lambda t: pa.table({"node": t["b"], "a": t["node"], "da": t["d"]}),
        batch_format="pyarrow",
    )
    eab = repartition_join(
        ea, deg, on="node", num_partitions=num_partitions,
        left_schema=pa.schema([
            ("node", pa.int64()), ("a", pa.int64()), ("da", pa.int64()),
        ]),
        right_schema=deg_schema,
    )

    def orient(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["node"].to_numpy(zero_copy_only=False)
        da = t["da"].to_numpy(zero_copy_only=False)
        db = t["d"].to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        u = np.where(a_first, a, b)
        v = np.where(a_first, b, a)
        dv = np.where(a_first, db, da)
        return pa.table({
            "u": pa.array(u, pa.int64()),
            "v": pa.array(v, pa.int64()),
            "dv": pa.array(dv, pa.int64()),
        })

    oriented = eab.map_batches(orient, batch_format="pyarrow")

    wedge_schema = pa.schema([
        ("x", pa.int64()), ("y", pa.int64()),
        ("n_wedge", pa.int64()), ("is_edge", pa.int64()),
    ])

    def wedges(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        dv = t["dv"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, dv, u))
        u, v, dv = u[order], v[order], dv[order]
        starts = np.flatnonzero(
            np.concatenate(([True], u[1:] != u[:-1]))
        )
        bounds = np.append(starts, len(u))
        xs, ys = [], []
        tri_cache: dict[int, tuple] = {}
        for i in range(len(starts)):
            lo, hi = bounds[i], bounds[i + 1]
            m = hi - lo
            if m < 2:
                continue
            ii, jj = tri_cache.setdefault(m, np.triu_indices(m, k=1))
            # rows are (dv, v)-sorted, so pair (ii, jj) is orientation-
            # ordered: the closing edge, if present, is exactly ii -> jj
            xs.append(v[lo:hi][ii])
            ys.append(v[lo:hi][jj])
        if not xs:
            return wedge_schema.empty_table()
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        return pa.table({
            "x": pa.array(x, pa.int64()),
            "y": pa.array(y, pa.int64()),
            "n_wedge": pa.array(np.ones(len(x), np.int64)),
            "is_edge": pa.array(np.zeros(len(x), np.int64)),
        })

    wedge_ds = _window_exchange(
        oriented, keys=["u"], cols=["u", "v", "dv"],
        num_partitions=num_partitions, kernel=wedges,
        out_schema=wedge_schema,
    )
    edge_marks = oriented.map_batches(
        lambda t: pa.table({
            "x": t["u"], "y": t["v"],
            "n_wedge": pa.array(np.zeros(t.num_rows, np.int64)),
            "is_edge": pa.array(np.ones(t.num_rows, np.int64)),
        }),
        batch_format="pyarrow",
    )
    closed = grouped_aggregate(
        wedge_ds.union(edge_marks),
        keys=["x", "y"],
        aggs={"w": ("n_wedge", "sum"), "e": ("is_edge", "max")},
        num_partitions=num_partitions,
        schema=wedge_schema,
    )
    return grouped_aggregate(
        closed.map_batches(
            lambda t: pa.table({
                "g": pa.array(np.zeros(t.num_rows, np.int64)),
                "tri": pc.multiply(t["w"], t["e"]),
            }),
            batch_format="pyarrow",
        ),
        keys=["g"], aggs={"n_triangles": ("tri", "sum")},
        num_partitions=1,
        schema=pa.schema([("g", pa.int64()), ("tri", pa.int64())]),
    ).select_columns(["n_triangles"])


def skyline_2d(ds, *, x_col: str, y_col: str,
               num_partitions: int | None = None):
    """2-D Pareto frontier (minimize ``x_col``, maximize ``y_col``,
    strict dominance): the scan formulation — sort by (x asc, y desc) and
    keep points whose y strictly exceeds every earlier y — distributed
    with the same two-phase pattern as prefix_sum:

    1. per-batch LOCAL skyline prefilter (vectorized sort + running max)
       kills the overwhelmingly-dominated bulk before anything moves;
    2. survivors RANGE-partition on x (equal x co-locates, ranges stay
       globally ordered); per-range y-maxima fold to <= P driver values,
       exclusive-scanned into each range's carry-in;
    3. one exchange, then a partition-local scan against
       max(local running max, carry-in).

    Output: the frontier as (x_col, y_col), exact-distinct. Rows move at
    most once and only local-skyline survivors move at all; the driver
    holds P numbers. Integer columns only (the strictness compare must be
    exact)."""
    import ray
    import ray.data as _rd
    from ray.data.aggregate import Max as _RayMax
    from ray.data.aggregate import Min as _RayMin

    out_schema = pa.schema([(x_col, pa.int64()), (y_col, pa.int64())])

    def local_skyline(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        x = t[x_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        y = t[y_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((-y, x))
        x, y = x[order], y[order]
        cm = np.maximum.accumulate(y)
        keep = np.concatenate(([True], y[1:] > cm[:-1]))
        return pa.table({
            x_col: pa.array(x[keep], pa.int64()),
            y_col: pa.array(y[keep], pa.int64()),
        })

    cand = ds.map_batches(
        local_skyline, batch_format="pyarrow"
    ).materialize()  # bounded by the per-batch frontier union, reused 3x
    if num_partitions is None:
        num_partitions = derive_num_partitions(cand)
    stats = cand.aggregate(
        _RayMin(x_col, alias_name="lo"), _RayMax(x_col, alias_name="hi")
    )
    lo, hi = stats["lo"], stats["hi"]
    if lo is None:
        return _rd.from_arrow(out_schema.empty_table())
    width = max(1, (int(hi) - int(lo) + num_partitions) // num_partitions)

    def part_of(t: pa.Table) -> np.ndarray:
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return ((x - int(lo)) // width).astype(np.int32)

    def partials(t: pa.Table) -> pa.Table:
        p = part_of(t)
        y = t[y_col].to_numpy(zero_copy_only=False)
        order = np.argsort(p, kind="stable")
        ps, ys = p[order], y[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(ps)) + 1))
        mx = (np.maximum.reduceat(ys, starts) if len(ys)
              else np.zeros(0, np.int64))
        return pa.table({
            "p": pa.array(ps[starts], pa.int32()),
            "m": pa.array(mx, pa.int64()),
        })

    rows = (
        cand.map_batches(partials, batch_format="pyarrow")
        .groupby("p").max("m").to_pandas()
    )
    NEG = np.iinfo(np.int64).min
    maxima = np.full(num_partitions, NEG, np.int64)
    for p, m in zip(rows["p"], rows["max(m)"]):
        maxima[int(p)] = int(m)
    # carry-in for range i = max y over every range j < i
    carry = np.concatenate((
        [NEG], np.maximum.accumulate(maxima)[:-1],
    ))
    carry_ref = ray.put(carry)

    def kernel(g: pa.Table) -> pa.Table:
        cin = int(ray.get(carry_ref)[part_of(g.slice(0, 1))[0]])
        x = g[x_col].to_numpy(zero_copy_only=False)
        y = g[y_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((-y, x))
        x, y = x[order], y[order]
        cm = np.maximum.accumulate(y)
        prev = np.concatenate(([NEG], cm[:-1]))
        keep = y > np.maximum(prev, cin)
        return pa.table({
            x_col: pa.array(x[keep], pa.int64()),
            y_col: pa.array(y[keep], pa.int64()),
        })

    return exchange([cand], part_of, kernel, out_schema,
                    schemas=[out_schema])


def profile_nulls(ds, *, columns: list[str]):
    """Data-quality completeness audit: per-column row and NULL counts in
    ONE map-only pass (each batch folds to len(columns) partial rows — no
    per-column scans, no shuffle beyond the final len(columns)-row
    aggregate). The profiling primitive every ingest pipeline runs before
    trusting a new drop.

    Reference analog: the reference's snapshot SELECT validation counts
    (SnapshotIT assertions); generalized to arbitrary columns."""
    cols = list(columns)

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "column": pa.array(cols, pa.string()),
            "n": pa.array(
                np.full(len(cols), t.num_rows, np.int64)
            ),
            "nn": pa.array(
                [t[c].null_count for c in cols], pa.int64()
            ),
        })

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["column"],
        aggs={"n_rows": ("n", "sum"), "n_null": ("nn", "sum")},
        num_partitions=1,
        schema=pa.schema([
            ("column", pa.string()), ("n", pa.int64()),
            ("nn", pa.int64()),
        ]),
    )


def grouped_adjacent_pairs(ds, *, keys: list[str],
                           order_by: list[tuple[str, str]],
                           from_cols: list[str], to_cols: list[str],
                           order_col: str | None = None,
                           delta_col: str = "delta",
                           num_partitions: int | None = None,
                           schema: "pa.Schema | None" = None):
    """Consecutive-row pair emission per group: for each (keys) group
    ordered by ``order_by``, emit one row per adjacent (row_i, row_{i+1})
    pair — the group keys, ``from_<c>`` columns taken from the earlier
    row, ``to_<c>`` columns from the later row, and (optionally) the
    int64 delta of ``order_col`` across the pair (microseconds for
    timestamps). Groups with a single row emit nothing — the LEAD-window
    family's WHERE lead IS NOT NULL shape.

    The primitive under Markov transition matrices, time-weighted
    integrals and dwell-time analytics: ONE hash exchange on
    ``part(keys)`` (same skeleton as grouped_lag_delta), partition-local
    Arrow sort + vectorized shifted take — never a per-group loop. A
    pre-exchange combiner is impossible here (adjacency is a global
    property per group), so a mega-group lands on one partition — the
    documented limit of every window operator in this module.

    Reference analog: none — the event-sequence family (SURVEY §2.5
    extension), same exchange shape as grouped_lag_delta."""
    sch = schema or side_schema(ds)
    need = list(dict.fromkeys(
        keys + [c for c, _ in order_by if c in sch.names]
        + from_cols + to_cols + ([order_col] if order_col else [])
    ))
    out_fields = [(k, sch.field(k).type) for k in keys]
    out_fields += [(f"from_{c}", sch.field(c).type) for c in from_cols]
    out_fields += [(f"to_{c}", sch.field(c).type) for c in to_cols]
    if order_col is not None:
        out_fields.append((delta_col, pa.int64()))
    out_schema = pa.schema(out_fields)

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        n = t.num_rows
        starts = _segment_starts(t, keys)
        last = np.zeros(n, bool)
        last[starts[1:] - 1] = True
        last[n - 1] = True
        frm = np.flatnonzero(~last)
        if len(frm) == 0:
            return out_schema.empty_table()
        to = frm + 1
        frm_idx, to_idx = pa.array(frm), pa.array(to)
        cols: dict[str, pa.Array] = {}
        for k in keys:
            cols[k] = t[k].take(frm_idx)
        for c in from_cols:
            cols[f"from_{c}"] = t[c].take(frm_idx)
        for c in to_cols:
            cols[f"to_{c}"] = t[c].take(to_idx)
        if order_col is not None:
            oc = t[order_col]
            if isinstance(oc, pa.ChunkedArray):
                oc = oc.combine_chunks()
            x = oc.cast(pa.int64()).to_numpy(zero_copy_only=False)
            cols[delta_col] = pa.array(x[to] - x[frm], pa.int64())
        return pa.table(cols, schema=out_schema)

    return _window_exchange(
        ds, keys=keys, cols=need, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def grouped_nth_value(ds, *, keys: list[str],
                      order_by: list[tuple[str, str]], col: str,
                      nth: int, out_col: str = "nth",
                      num_partitions: int | None = None,
                      schema: "pa.Schema | None" = None):
    """SQL ``nth_value(col, nth) OVER (PARTITION BY keys ORDER BY ...
    ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)``: every
    row of a group carries the group's nth-ordered value (NULL when the
    group has fewer than ``nth`` rows). Same one-exchange skeleton as
    grouped_first_last: hash exchange on part(keys), partition-local
    Arrow sort, segment starts from adjacent compares, then ONE take at
    ``start + nth - 1`` per segment broadcast back with np.repeat — no
    per-group loop, no pre-combiner possible (the nth element is a
    global property per group), mega-group caveat as documented for the
    window family.

    Reference analog: none (SURVEY §2 O-family window completion)."""
    if nth < 1:
        raise ValueError("nth must be >= 1")
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols]
        + [(out_col, sch.field(col).type)]
    )

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        n = t.num_rows
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, n))
        has = sizes >= nth
        # take the nth element of qualifying segments; short segments
        # take index 0 as a placeholder and get NULLed by the mask
        idx = np.where(has, starts + (nth - 1), 0)
        v = t[col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        seg_vals = v.take(pa.array(idx, pa.int64()))
        per_row = seg_vals.take(
            pa.array(np.repeat(np.arange(len(starts)), sizes), pa.int64())
        )
        mask = pa.array(np.repeat(has, sizes))
        per_row = pc.if_else(
            mask, per_row, pa.scalar(None, v.type)
        )
        return t.append_column(out_col, per_row)

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def grouped_drawdown(ds, *, keys: list[str],
                     order_by: list[tuple[str, str]], col: str,
                     num_partitions: int | None = None,
                     schema: "pa.Schema | None" = None):
    """Per-group peak and maximum drawdown of an ordered integer series:
    SQL ``max(col) OVER (PARTITION BY keys ORDER BY ... ROWS UNBOUNDED
    PRECEDING)`` (the running max) folded to one row per group —
    ``peak = max(runmax)`` and ``max_drawdown = max(runmax - col)``, the
    standard peak-to-trough health metric for a monitored value series.

    ONE hash exchange on part(keys), then a partition-local kernel: Arrow
    sort by (keys..., order_by...), segment boundaries, and the grouped
    running max from a Hillis-Steele prefix-max doubling sweep —
    ``m[i] = max(m[i], m[i - 2^k])`` guarded by the row's segment start,
    so ceil(log2(longest group)) fully-vectorized numpy passes replace
    any per-group loop (numpy fancy assignment evaluates the RHS before
    writing, making each step a clean synchronous parallel-prefix step).
    Per-group folds then come from np.maximum.reduceat at the segment
    starts. ``col`` must be int64-castable and non-null (pre-scale money
    to cents); output is one row per group: keys..., peak, max_drawdown,
    n — a combiner-sized result, so the exchange is the only data
    movement."""
    sch = schema or side_schema(ds)
    cols = list(dict.fromkeys(
        keys + [c for c, _ in order_by] + [col]
    ))
    out_schema = pa.schema(
        [(k, sch.field(k).type) for k in keys]
        + [("peak", pa.int64()), ("max_drawdown", pa.int64()),
           ("n", pa.int64())]
    )

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, t.num_rows))
        seg_start = np.repeat(starts, sizes)
        v = t[col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        x = v.cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = x.copy()
        idx = np.arange(t.num_rows, dtype=np.int64)
        s = 1
        max_size = int(sizes.max())
        while s < max_size:
            ok = idx - s >= seg_start
            m[ok] = np.maximum(m[ok], m[idx[ok] - s])
            s <<= 1
        dd = m - x
        out = {k: t[k].take(pa.array(starts, pa.int64()))
               for k in keys}
        out["peak"] = pa.array(
            np.maximum.reduceat(x, starts), pa.int64())
        out["max_drawdown"] = pa.array(
            np.maximum.reduceat(dd, starts), pa.int64())
        out["n"] = pa.array(sizes.astype(np.int64), pa.int64())
        return pa.table(out, schema=out_schema)

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )


def grouped_rolling_minmax(ds, *, keys: list[str],
                           order_by: list[tuple[str, str]], col: str,
                           window_rows: int,
                           out_max: str = "roll_max",
                           out_min: str = "roll_min",
                           num_partitions: int | None = None,
                           schema: "pa.Schema | None" = None):
    """SQL ``max(col) OVER (PARTITION BY keys ORDER BY ... ROWS BETWEEN
    window_rows-1 PRECEDING AND CURRENT ROW)`` (and the matching min) —
    the order-statistic window frame, which has no cumulative-sum
    shortcut. Exact and fully vectorized via the fixed-window block
    decomposition: split the sorted partition into blocks of
    ``window_rows``, precompute prefix extrema (reset at block starts
    AND at segment starts) and suffix extrema (reset at block ends and
    segment ends); any frame [lo, i] of length <= window_rows spans at
    most one block boundary, so its extremum is
    ``combine(suffix[lo], prefix[i])`` — two O(n) sweeps built from
    np.maximum.accumulate over reshaped views, no per-row loop. Frames
    clamp at their segment head exactly like grouped_rolling_sum's.
    ``col`` must be int64-castable and non-null; all input columns pass
    through plus ``out_max``/``out_min`` (int64)."""
    sch = schema or side_schema(ds)
    cols = list(sch.names)
    out_schema = pa.schema(
        [(c, sch.field(c).type) for c in cols]
        + [(out_max, pa.int64()), (out_min, pa.int64())]
    )
    w = int(window_rows)
    if w < 1:
        raise ValueError("window_rows must be >= 1")

    def _sweeps(x: np.ndarray, starts: np.ndarray, ufunc) -> tuple:
        """Prefix extrema reset at block starts AND segment starts, and
        suffix extrema reset at block boundaries only. The suffix needs
        no segment resets: it is only ever read at a frame's lo when lo
        and i sit in different blocks, and then [lo, block_end(lo)] lies
        strictly inside lo's segment (the frame is clamped to the
        segment and ends at i > block_end(lo)). The prefix DOES need
        segment resets for the same-block clamped case (frame head ==
        segment head inside i's block)."""
        n = len(x)
        nb = -(-n // w)
        ident = (np.iinfo(np.int64).min if ufunc is np.maximum
                 else np.iinfo(np.int64).max)
        pad = np.full(nb * w, ident, np.int64)
        pad[:n] = x
        # suffix: plain per-block reversed accumulate (pad rows carry the
        # identity, so short last blocks are unaffected)
        suf = ufunc.accumulate(
            pad.reshape(nb, w)[:, ::-1], axis=1
        )[:, ::-1].reshape(-1)[:n]
        # prefix with run starts at max(block start, last segment start):
        # positions in one run share run_start, so the grouped_drawdown
        # doubling sweep computes run-local prefix extrema in log2(w)
        # vectorized passes
        flat_idx = np.arange(nb * w, dtype=np.int64)
        is_start = np.zeros(nb * w, bool)
        is_start[starts] = True
        last_seg = np.maximum.accumulate(
            np.where(is_start, flat_idx, -1)
        )
        run_start = np.maximum(last_seg, (flat_idx // w) * w)
        acc = pad.copy()
        s = 1
        while s < w:
            ok = flat_idx - s >= run_start
            acc[ok] = ufunc(acc[ok], acc[flat_idx[ok] - s])
            s <<= 1
        return acc[:n], suf

    def kernel(part: pa.Table) -> pa.Table:
        t = part.sort_by(
            [(k, "ascending") for k in keys] + list(order_by)
        )
        n = t.num_rows
        starts = _segment_starts(t, keys)
        sizes = np.diff(np.append(starts, n))
        seg_start = np.repeat(starts, sizes)
        v = t[col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        x = v.cast(pa.int64()).to_numpy(zero_copy_only=False)
        i = np.arange(n, dtype=np.int64)
        lo = np.maximum(i - (w - 1), seg_start)
        res = {}
        for name, uf in ((out_max, np.maximum), (out_min, np.minimum)):
            pref, suf = _sweeps(x, starts, uf)
            same_block = (lo // w) == (i // w)
            res[name] = np.where(same_block, pref[i], uf(suf[lo], pref[i]))
        out = t
        out = out.append_column(out_max, pa.array(res[out_max], pa.int64()))
        out = out.append_column(out_min, pa.array(res[out_min], pa.int64()))
        return out

    return _window_exchange(
        ds, keys=keys, cols=cols, num_partitions=num_partitions,
        kernel=kernel, out_schema=out_schema,
    )
