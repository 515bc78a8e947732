"""Similarity search over embedding columns (list<float>).

- Brute-force cosine top-k: the exact baseline. Query matrix is broadcast once
  (``ray.put``), each batch does one float64 matmul against it, emits per-batch
  top-k partials, and a tiny final groupby merges partials — the classic
  partial-aggregation shape, so the full corpus never concentrates anywhere.
- LSH-bucketed variant (random hyperplane signs): the scale path — probes only
  matching buckets, approximate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _batch_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


#: per-batch top-k partials of BruteForceTopK / SqlParityLshTopK; a 0-row
#: batch yields this typed empty (an empty embedding column has no width)
TOPK_PARTIAL_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("vec_id", pa.int64()), ("sim", pa.float64())]
)


class BruteForceTopK:
    """Actor-pool stage: per-batch cosine top-k against the broadcast query
    matrix. Emits (query_id, vec_id, sim) partials; merge with a final
    per-query top-k."""

    def __init__(self, queries_ref, k: int = 10):
        import ray

        q = queries_ref if isinstance(queries_ref, np.ndarray) else ray.get(queries_ref)
        self.qids = q["qids"] if isinstance(q, dict) else np.arange(len(q))
        qm = q["matrix"] if isinstance(q, dict) else q
        self.qm = _normalize_rows(qm.astype(np.float64))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return TOPK_PARTIAL_SCHEMA.empty_table()
        m = _normalize_rows(_batch_matrix(batch))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = self.qm @ m.T  # (Q, B)
        k = min(self.k, sims.shape[1])
        # per-query partial top-k within this batch
        part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        qi = np.repeat(self.qids, k)
        vi = ids[part.reshape(-1)]
        sv = np.take_along_axis(sims, part, axis=1).reshape(-1)
        return pa.table(
            {
                "query_id": pa.array(qi, pa.int64()),
                "vec_id": pa.array(vi, pa.int64()),
                "sim": pa.array(sv, pa.float64()),
            }
        )


def topk_merge(k: int):
    """Final per-query merge of partial top-k tables; emits rank 1..k ordered
    by (-sim, vec_id) — vec_id tiebreak keeps ranking deterministic."""

    def fn(group: pa.Table) -> pa.Table:
        qid = group["query_id"][0].as_py()
        sims = group["sim"].to_numpy(zero_copy_only=False)
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        return pa.table(
            {
                "query_id": pa.array(np.full(len(order), qid, np.int64)),
                "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int32)),
                "vec_id": pa.array(ids[order], pa.int64()),
                "sim": pa.array(np.round(sims[order], 6), pa.float64()),
            }
        )

    return fn


def brute_force_topk(ds, queries_ref, *, k: int = 10, concurrency: int = 2):
    partials = ds.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={"queries_ref": queries_ref, "k": k},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )
    return partials.groupby("query_id").map_groups(
        topk_merge(k), batch_format="pyarrow"
    )


class LshBucketer:
    """Random-hyperplane LSH: ``nbits``-bit sign signature per vector;
    deterministic planes from a fixed seed (same planes on every actor)."""

    def __init__(self, dim: int, nbits: int = 8, seed: int = 5):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, nbits))

    def bucket_of(self, m: np.ndarray) -> np.ndarray:
        signs = (m @ self.planes) > 0
        return (signs.astype(np.uint32) << np.arange(signs.shape[1], dtype=np.uint32)).sum(
            axis=1
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        return batch.append_column(
            "bucket", pa.array(self.bucket_of(m), pa.uint32())
        )


def train_ivf_centroids(sample: np.ndarray, n_lists: int = 16, iters: int = 10,
                        seed: int = 9) -> np.ndarray:
    """Deterministic mini k-means on a driver-side sample — the IVF coarse
    quantizer. Trained once, broadcast to every actor."""
    rng = np.random.default_rng(seed)
    m = _normalize_rows(sample.astype(np.float64))
    cent = m[rng.choice(len(m), size=min(n_lists, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for k in range(len(cent)):
            members = m[assign == k]
            if len(members):
                cent[k] = members.mean(axis=0)
        cent = _normalize_rows(cent)
    return cent


def ivf_topk(ds, queries_ref, *, centroids: np.ndarray, k: int = 10,
             n_probe: int = 4, concurrency: int = 2):
    """IVF-style approximate top-k: vectors are assigned to their nearest
    centroid list; only vectors in the queries' ``n_probe`` closest lists are
    scored. The scale path for ANN over 1e9+ vectors: the filter runs
    per batch against the broadcast centroids (no shuffle), the scored subset
    is a fraction ~n_probe/n_lists of the corpus."""
    import ray

    q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
    qm = _normalize_rows(q["matrix"].astype(np.float64))
    probe_lists = np.unique(
        np.argsort(-(qm @ centroids.T), axis=1)[:, :n_probe].reshape(-1)
    )

    def prefilter(batch: pa.Table) -> pa.Table:
        m = _normalize_rows(_batch_matrix(batch))
        assign = np.argmax(m @ centroids.T, axis=1)
        return batch.filter(pa.array(np.isin(assign, probe_lists)))

    return brute_force_topk(
        ds.map_batches(prefilter, batch_format="pyarrow", batch_size=None),
        queries_ref,
        k=k,
        concurrency=concurrency,
    )


def build_ivf_index(ds, index_dir: str, *, n_lists: int = 16,
                    sample_size: int = 2048, seed: int = 9,
                    concurrency: int | None = None) -> np.ndarray:
    """Build a PERSISTED IVF index: a coarse k-means quantizer plus the
    corpus written as parquet partitioned by inverted-list id (one
    ``list=<id>/`` directory per list). Build-once, probe-many: a query
    later reads ONLY its ``n_probe`` nearest list directories, so probe
    cost is ~n_probe/n_lists of the corpus and independent of how many
    query batches ever run (the round-1 version re-assigned the corpus on
    every query).

    The quantizer trains on a bounded, deterministic driver-side sample
    (``limit(sample_size)``) — never the full corpus. Assignment is one
    streamed map_batches pass; the partitioned write needs no shuffle
    (each input block appends to the list directories it touches)."""
    import json
    import os

    sample_rows = ds.limit(sample_size).take_all()
    sm = np.stack([np.asarray(r["embedding"], np.float64) for r in sample_rows])
    cent = train_ivf_centroids(sm, n_lists=n_lists, seed=seed)
    os.makedirs(index_dir, exist_ok=True)
    np.save(os.path.join(index_dir, "centroids.npy"), cent)

    def assign(batch: pa.Table) -> pa.Table:
        m = _normalize_rows(_batch_matrix(batch))
        lst = np.argmax(m @ cent.T, axis=1).astype(np.int32)
        return batch.append_column("list", pa.array(lst, pa.int32()))

    ds.map_batches(
        assign, batch_format="pyarrow", concurrency=concurrency
    ).write_parquet(os.path.join(index_dir, "lists"), partition_cols=["list"])
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"n_lists": n_lists, "dim": int(cent.shape[1])}, f)
    return cent


def ivf_indexed_topk(index_dir: str, queries: dict, *, k: int = 10,
                     n_probe: int = 4, concurrency: int = 2):
    """Query path over a persisted IVF index: load the (tiny) centroids,
    pick each query's ``n_probe`` nearest lists, and read ONLY those list
    directories — directory-level pruning by construction, no filter
    pushdown required. Exact scoring within the probed subset."""
    import os

    import ray
    import ray.data as rd

    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    qm = _normalize_rows(queries["matrix"].astype(np.float64))
    probe = np.unique(np.argsort(-(qm @ cent.T), axis=1)[:, :n_probe].reshape(-1))
    import glob

    paths = [
        f
        for i in probe
        for f in sorted(
            glob.glob(os.path.join(index_dir, "lists", f"list={i}", "*.parquet"))
        )
    ]
    if not paths:
        return rd.from_items([])
    ds = rd.read_parquet(paths, columns=["vec_id", "embedding"])
    ref = ray.put({"qids": queries["qids"], "matrix": queries["matrix"]})
    return brute_force_topk(ds, ref, k=k, concurrency=concurrency)


def build_lsh_index(ds, index_dir: str, *, dim: int, nbits: int = 6,
                    seed: int = 5, concurrency: int | None = None) -> None:
    """Persisted random-hyperplane LSH index: the corpus written as parquet
    partitioned by bucket id (``bucket=<id>/`` directories), planes derived
    from the seed (no training). Build once; a query later reads ONLY its
    matching bucket directories."""
    import json
    import os

    bucketer = LshBucketer(dim, nbits=nbits, seed=seed)

    def assign(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        b = bucketer.bucket_of(_normalize_rows(m)).astype(np.int32)
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    os.makedirs(index_dir, exist_ok=True)
    ds.map_batches(
        assign, batch_format="pyarrow", concurrency=concurrency
    ).write_parquet(os.path.join(index_dir, "buckets"), partition_cols=["bucket"])
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"dim": dim, "nbits": nbits, "seed": seed}, f)


def lsh_indexed_topk(index_dir: str, queries: dict, *, k: int = 10,
                     concurrency: int = 2):
    """Query path over a persisted LSH index: hash the queries with the
    index's planes and read ONLY the matching bucket directories —
    directory-level pruning, no corpus re-hash (the round-1 version
    re-scanned and re-bucketed the full corpus on every query set)."""
    import glob
    import json
    import os

    import ray
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    bucketer = LshBucketer(meta["dim"], nbits=meta["nbits"], seed=meta["seed"])
    qb = np.unique(
        bucketer.bucket_of(_normalize_rows(queries["matrix"].astype(np.float64)))
    )
    paths = [
        f
        for b in qb
        for f in sorted(
            glob.glob(os.path.join(index_dir, "buckets", f"bucket={b}", "*.parquet"))
        )
    ]
    if not paths:
        return rd.from_items([])
    ds = rd.read_parquet(paths, columns=["vec_id", "embedding"])
    ref = ray.put({"qids": queries["qids"], "matrix": queries["matrix"]})
    return brute_force_topk(ds, ref, k=k, concurrency=concurrency)


def cosine_near_dup_pairs(ds, *, threshold: float = 0.95, max_band_size: int = 2048):
    """Embedding-cosine near-duplicate pairs: all (a < b) with
    cos(a, b) >= threshold.

    Scale shape: random-hyperplane LSH bucket per vector (high-cosine pairs
    land in the same bucket with high probability; multiple plane sets raise
    recall) -> groupby bucket -> exact float64 cosine within each bucket.
    Only (bucket, id, vector) rows shuffle; each bucket's pairwise check is a
    small matmul."""

    def explode(batch: pa.Table) -> pa.Table:
        m = _normalize_rows(_batch_matrix(batch))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        outs = []
        for probe in range(3):  # 3 independent plane sets for recall
            bucketer = LshBucketer(m.shape[1], nbits=6, seed=5 + probe)
            b = bucketer.bucket_of(m)
            outs.append(
                pa.table(
                    {
                        "probe": pa.array(np.full(len(ids), probe, np.int32)),
                        "bucket": pa.array(b, pa.uint32()),
                        "vec_id": pa.array(ids, pa.int64()),
                        "embedding": batch["embedding"].combine_chunks()
                        if isinstance(batch["embedding"], pa.ChunkedArray)
                        else batch["embedding"],
                    }
                )
            )
        return pa.concat_tables(outs)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        df_ids = group["vec_id"].to_numpy(zero_copy_only=False)
        uniq, first_idx = np.unique(df_ids, return_index=True)
        if len(uniq) < 2:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                 "cos": pa.array([], pa.float64())}
            )
        if len(uniq) > max_band_size:
            # no-silent-caps rule: a degenerate bucket is truncated (it
            # would explode quadratically) but the drop is LOGGED so a
            # caller sees the coverage bound instead of assuming it's full
            import logging

            logging.getLogger(__name__).warning(
                "cosine near-dup bucket truncated: %d vectors > "
                "max_band_size=%d — pairs among the overflow are not "
                "emitted (raise max_band_size or add plane sets)",
                len(uniq), max_band_size,
            )
        sub = group.take(pa.array(first_idx[: max_band_size]))
        m = _normalize_rows(_batch_matrix(sub))
        ids = sub["vec_id"].to_numpy(zero_copy_only=False)
        sims = m @ m.T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sims[ii, jj] >= threshold
        a, b = ids[ii[keep]], ids[jj[keep]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {
                "a": pa.array(lo, pa.int64()),
                "b": pa.array(hi, pa.int64()),
                "cos": pa.array(np.round(sims[ii, jj][keep], 6), pa.float64()),
            }
        )

    pairs = (
        ds.map_batches(explode, batch_format="pyarrow", batch_size=None)
        .groupby(["probe", "bucket"])  # low cardinality: 3 probes x 64 buckets
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )

    from debezium_connector_db2_ray.functions.dedup import pairs_distinct

    return pairs_distinct(
        pairs,
        pa.schema([("a", pa.int64()), ("b", pa.int64()),
                   ("cos", pa.float64())]),
    )


def lsh_topk(ds, queries_ref, *, dim: int, k: int = 10, nbits: int = 8,
             concurrency: int = 2):
    """Approximate top-k: only vectors whose LSH bucket matches some query's
    bucket are scored — the IVF-style scale path (probes a fraction of the
    corpus; recall < 1 by design, measured in tests)."""
    import ray

    q = ray.get(queries_ref) if not isinstance(queries_ref, dict) else queries_ref
    bucketer = LshBucketer(dim, nbits)
    q_buckets = set(bucketer.bucket_of(_normalize_rows(q["matrix"].astype(np.float64))).tolist())

    def prefilter(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch)
        b = bucketer.bucket_of(_normalize_rows(m))
        keep = np.isin(b, list(q_buckets))
        return batch.filter(pa.array(keep))

    return brute_force_topk(
        ds.map_batches(prefilter, batch_format="pyarrow"),
        queries_ref,
        k=k,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# SQL-parity LSH: integer hyperplanes + quantized dots, shared verbatim with
# the DuckDB oracle so the full bucket -> prefilter -> exact-rerank path is
# value-checkable (the standard-normal-plane LshBucketer above cannot be
# mirrored in SQL; this variant exists to put the LSH MACHINERY itself on
# the correctness gate, converting a rows-only row to hash-checked)
# ---------------------------------------------------------------------------

def sqlparity_planes(dim: int, nbits: int) -> np.ndarray:
    """Deterministic integer plane matrix P[i, j] = LCG(i*1000 + j), values
    in [-32768, 32767] — the same arithmetic the SQL oracle generates with
    range()/modulo, so both engines use bit-identical planes."""
    i = np.arange(dim, dtype=np.int64)[:, None]
    j = np.arange(nbits, dtype=np.int64)[None, :]
    return ((1103515245 * (i * 1000 + j) + 12345) % 65536) - 32768


def sqlparity_bucket(m_raw: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Bucket id per RAW (unnormalized) vector: quantize components to
    floor(v*1000 + 0.5) int64 (kills float-associativity sign flips — the
    dot products are exact integers on both engines; floor(x+0.5) because
    numpy rint rounds half-to-even while SQL round() rounds half-away, so
    neither is used), then nbits sign bits."""
    q = np.floor(m_raw * 1000.0 + 0.5).astype(np.int64)
    signs = (q @ planes) > 0
    return (
        signs.astype(np.int64) << np.arange(planes.shape[1], dtype=np.int64)
    ).sum(axis=1)


class SqlParityLshTopK:
    """Actor-pool stage: per-query top-k restricted to candidates sharing
    that query's SQL-parity bucket. Emits per-batch partials; merge with
    topk_merge."""

    def __init__(self, queries_ref, *, nbits: int, k: int):
        import ray

        q = queries_ref if isinstance(queries_ref, dict) else ray.get(queries_ref)
        self.qids = q["qids"]
        self.qm = _normalize_rows(q["matrix"].astype(np.float64))
        self.planes = sqlparity_planes(q["matrix"].shape[1], nbits)
        self.qb = sqlparity_bucket(q["matrix"].astype(np.float64), self.planes)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return TOPK_PARTIAL_SCHEMA.empty_table()
        raw = _batch_matrix(batch)
        cb = sqlparity_bucket(raw, self.planes)
        m = _normalize_rows(raw)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = self.qm @ m.T  # (Q, B)
        # candidate mask: same bucket as THIS query (per-query sets, like
        # the oracle's JOIN buckets ON bucket = query_bucket)
        mask = cb[None, :] == self.qb[:, None]
        sims = np.where(mask, sims, -np.inf)
        k = min(self.k, sims.shape[1])
        part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        qi = np.repeat(self.qids, k)
        vi = ids[part.reshape(-1)]
        sv = np.take_along_axis(sims, part, axis=1).reshape(-1)
        keep = sv > -np.inf
        return pa.table({
            "query_id": pa.array(qi[keep], pa.int64()),
            "vec_id": pa.array(vi[keep], pa.int64()),
            "sim": pa.array(sv[keep], pa.float64()),
        })


def lsh_sqlparity_topk(ds, queries_ref, *, k: int = 10, nbits: int = 8,
                       concurrency: int = 2):
    """Full LSH ANN with the SQL-parity bucketer: bucket every vector
    map-side, keep only candidates in each query's bucket, exact cosine
    re-rank. Same partial-top-k merge shape as brute_force_topk — the
    corpus never concentrates anywhere."""
    partials = ds.map_batches(
        SqlParityLshTopK,
        fn_constructor_kwargs={"queries_ref": queries_ref,
                               "nbits": nbits, "k": k},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )
    return partials.groupby("query_id").map_groups(
        topk_merge(k), batch_format="pyarrow"
    )


def sqlparity_near_dup_pairs(ds, *, threshold: float, nbits: int = 8,
                             block: int = 2048):
    """Embedding-cosine near-dup pairs with the SQL-parity bucketer: all
    (a < b) in the SAME parity bucket with cos >= threshold — the
    hash-checkable twin of cosine_near_dup_pairs (whose standard-normal
    planes a SQL oracle cannot reproduce). One exchange on the bucket id;
    within-bucket exact cosine runs in ``block``-row matmul slices so a hot
    bucket bounds memory, not correctness."""

    def tag(batch: pa.Table) -> pa.Table:
        raw = _batch_matrix(batch)
        planes = sqlparity_planes(raw.shape[1], nbits)
        return pa.table({
            "vec_id": batch["vec_id"],
            "embedding": batch["embedding"],
            "bucket": pa.array(sqlparity_bucket(raw, planes), pa.int64()),
        })

    def pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
        })
        if group.num_rows < 2:
            return empty
        ids = group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = _normalize_rows(_batch_matrix(group))
        outs_a, outs_b = [], []
        for i in range(0, len(ids), block):
            sims = m[i:i + block] @ m.T
            bi, bj = np.nonzero(sims >= threshold)
            a, b = ids[bi + i], ids[bj]
            keep = a < b
            outs_a.append(a[keep])
            outs_b.append(b[keep])
        a = np.concatenate(outs_a) if outs_a else np.zeros(0, np.int64)
        b = np.concatenate(outs_b) if outs_b else np.zeros(0, np.int64)
        return pa.table({
            "a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64()),
        })

    out = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pyarrow")
    )
    import ray.data as _rd

    return out.union(_rd.from_arrow(pa.table({
        "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
    })))


def radius_search(ds, queries_ref, *, threshold: float,
                  id_col: str = "vec_id", concurrency: int = 2):
    """Range (radius) similarity search: every corpus vector within cosine
    ``threshold`` of any query vector — the fixed-radius companion of
    brute_force_topk. Map-only: the query matrix is broadcast ONCE
    (ray.put), each batch does one float64 matmul and emits only the
    (query_id, vec_id) pairs inside the radius; no shuffle, no top-k
    merge, output size bounded by the radius selectivity. Self-matches
    (vec_id == query_id) are excluded."""
    import ray

    def scan(batch: pa.Table) -> pa.Table:
        q = ray.get(queries_ref)
        qm = _normalize_rows(q["matrix"])
        qids = np.asarray(q["qids"], np.int64)
        m = _normalize_rows(_batch_matrix(batch))
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = m @ qm.T  # (batch, nq)
        hit = sims >= threshold
        hit &= ids[:, None] != qids[None, :]
        bi, qi = np.nonzero(hit)
        return pa.table({
            "query_id": pa.array(qids[qi], pa.int64()),
            "vec_id": pa.array(ids[bi], pa.int64()),
        })

    return ds.map_batches(scan, batch_format="pyarrow",
                          concurrency=concurrency, num_cpus=0.5)


# ---------------------------------------------------------------------------
# distributed k-means + SemDeDup-style semantic dedup
# ---------------------------------------------------------------------------

def kmeans_init_centroids(ds, *, k: int, id_col: str = "vec_id",
                          col: str = "embedding") -> np.ndarray:
    """Deterministic init: the k lowest-id vectors, fetched via the
    global_top_k combiner (each batch forwards at most k rows — no sort,
    no full materialization). Returns a (k, d) float64 matrix."""
    from debezium_connector_db2_ray.functions.relational import global_top_k

    first = global_top_k(
        ds, order_by=[(id_col, "ascending")], k=k,
    )
    parts = [t for t in first.to_arrow_refs()]
    import ray as _ray

    tbl = pa.concat_tables([t for t in _ray.get(parts) if t.num_rows])
    tbl = tbl.sort_by([(id_col, "ascending")])
    return _batch_matrix(tbl, col)


def kmeans_fit(ds, *, k: int = 8, iters: int = 2,
               init: "np.ndarray | None" = None,
               id_col: str = "vec_id", col: str = "embedding") -> np.ndarray:
    """Distributed Lloyd iterations over the FULL corpus (unlike
    train_ivf_centroids, which fits a driver-side sample): each iteration
    is one map-only pass where every batch computes its argmin-L2
    assignment in a float64 matmul and collapses to AT MOST k partial rows
    (per-cluster vector sum + count) — the k x d partials are the only
    bytes that leave a worker, so an iteration's driver traffic is
    O(k * d * n_batches) regardless of corpus size. Empty clusters keep
    their previous centroid. Ties in the argmin break to the LOWEST
    cluster id (np.argmin first-hit), matching the SQL oracle's
    ORDER BY distance, cl.

    SemDeDup's clustering stage (Abbas et al. 2023, 'SemDeDup: Data-
    efficient learning at web-scale through semantic deduplication' —
    reimplemented from the published description)."""
    import ray as _ray

    cent = (kmeans_init_centroids(ds, k=k, id_col=id_col, col=col)
            if init is None else init.astype(np.float64))
    k = len(cent)

    for _ in range(iters):
        ref = _ray.put(cent)

        def partial(batch: pa.Table) -> pa.Table:
            c = _ray.get(ref)
            m = _batch_matrix(batch, col)
            # argmin ||x-c||^2 == argmin (-2 x.c + |c|^2); first-hit tie
            d2 = -2.0 * (m @ c.T) + (c * c).sum(axis=1)[None, :]
            assign = np.argmin(d2, axis=1)
            sums = np.zeros((len(c), m.shape[1]), np.float64)
            np.add.at(sums, assign, m)
            cnt = np.bincount(assign, minlength=len(c)).astype(np.int64)
            live = np.nonzero(cnt)[0]
            return pa.table({
                "cl": pa.array(live, pa.int64()),
                "cnt": pa.array(cnt[live], pa.int64()),
                "vsum": pa.array(list(sums[live]),
                                 pa.list_(pa.float64())),
            })

        parts = pa.concat_tables(
            _ray.get(ds.map_batches(
                partial, batch_format="pyarrow"
            ).to_arrow_refs())
        )
        if parts.num_rows:
            cl = parts["cl"].to_numpy(zero_copy_only=False)
            cnt = parts["cnt"].to_numpy(zero_copy_only=False)
            d = cent.shape[1]
            vs = (parts["vsum"].combine_chunks().flatten()
                  .to_numpy(zero_copy_only=False).reshape(-1, d))
            sums = np.zeros((k, d), np.float64)
            np.add.at(sums, cl, vs)
            total = np.bincount(cl, weights=cnt, minlength=k)
            live = total > 0
            cent = cent.copy()
            cent[live] = sums[live] / total[live, None]
    return cent


def kmeans_assign(ds, centroids_ref, *, id_col: str = "vec_id",
                  col: str = "embedding", keep_embedding: bool = False):
    """Map-only assignment pass against broadcast centroids: returns
    (id, cluster) — plus the embedding column when the caller feeds a
    per-cluster stage next (saves a re-read)."""
    import ray as _ray

    def assign(batch: pa.Table) -> pa.Table:
        c = _ray.get(centroids_ref)
        m = _batch_matrix(batch, col)
        d2 = -2.0 * (m @ c.T) + (c * c).sum(axis=1)[None, :]
        a = np.argmin(d2, axis=1).astype(np.int64)
        cols = {
            id_col: batch[id_col],
            "cluster": pa.array(a, pa.int64()),
        }
        if keep_embedding:
            cols[col] = batch[col]
        return pa.table(cols)

    return ds.map_batches(assign, batch_format="pyarrow")


def semantic_dedup_drops(ds, centroids_ref, *, threshold: float,
                         id_col: str = "vec_id", col: str = "embedding",
                         max_cluster_rows: int = 200_000):
    """SemDeDup drop list: assign every vector to its nearest centroid
    map-side, ONE exchange on cluster id, then each cluster runs a
    partition-local normalized matmul and drops any vector with a
    LOWER-id neighbor at cosine >= threshold (the deterministic min-id
    keeper rule — same convention as the near-dup family). Output:
    (vec_id, cluster) of dropped vectors.

    Partitioning assumption (documented contract, like the paper's):
    clusters are sized for pairwise work — k must grow with the corpus so
    n/k stays bounded; ``max_cluster_rows`` hard-fails instead of letting
    one mega-cluster go quadratic. At 100 TB the exchange moves each
    embedding once; the k x d centroid matrix is broadcast, never
    reshipped per batch."""
    tagged = kmeans_assign(ds, centroids_ref, id_col=id_col, col=col,
                           keep_embedding=True)

    def drops(group: pa.Table) -> pa.Table:
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
        })
        if group.num_rows == 0:
            return empty
        if group.num_rows > max_cluster_rows:
            raise ValueError(
                f"semantic_dedup: cluster of {group.num_rows} rows "
                f"(> {max_cluster_rows}); raise k"
            )
        ids = group[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        g = group.take(pa.array(order))
        ids = ids[order]
        m = _normalize_rows(_batch_matrix(g, col))
        sims = m @ m.T
        hit = sims >= threshold
        # strictly-lower-id neighbor exists <=> any hit below the diagonal
        dropped = np.tril(hit, -1).any(axis=1)
        return pa.table({
            id_col: pa.array(ids[dropped], pa.int64()),
            "cluster": pa.array(
                g["cluster"].to_numpy(zero_copy_only=False)[dropped],
                pa.int64()),
        })

    return (tagged.groupby("cluster")
            .map_groups(drops, batch_format="pyarrow"))


class KnnLabelPartial:
    """Actor-pool stage for k-NN classification: per-batch cosine top-k
    against the broadcast query matrix, carrying each candidate's LABEL.
    Self-matches (vec_id == query_id) are excluded so a vector never votes
    for itself. Emits (query_id, vec_id, label, sim) partials — at most
    k rows per (query, batch) leave the worker."""

    def __init__(self, queries_ref, k: int = 10,
                 label_col: str = "label"):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, dict) \
            else queries_ref
        self.qids = np.asarray(q["qids"], np.int64)
        self.qm = _normalize_rows(np.asarray(q["matrix"], np.float64))
        self.k = k
        self.label_col = label_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return TOPK_PARTIAL_SCHEMA.insert(
                2, pa.field("label", pa.int64())
            ).empty_table()
        m = _normalize_rows(_batch_matrix(batch))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        labels = batch[self.label_col].to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        sims = self.qm @ m.T  # (Q, B)
        sims[self.qids[:, None] == ids[None, :]] = -np.inf
        k = min(self.k, sims.shape[1])
        part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        qi = np.repeat(self.qids, k)
        flat = part.reshape(-1)
        sv = np.take_along_axis(sims, part, axis=1).reshape(-1)
        keep = np.isfinite(sv)
        return pa.table({
            "query_id": pa.array(qi[keep], pa.int64()),
            "vec_id": pa.array(ids[flat][keep], pa.int64()),
            "label": pa.array(labels[flat][keep], pa.int64()),
            "sim": pa.array(sv[keep], pa.float64()),
        })


def knn_classify(ds, queries_ref, *, k: int = 10,
                 label_col: str = "label", concurrency: int = 2):
    """k-NN majority-vote label prediction: brute-force partial top-k per
    batch (labels attached at the scan — no post-hoc label join), one
    per-query merge re-ranks the <= k * n_batches survivors by
    (-sim, vec_id) and votes: most votes wins, ties break to the LOWEST
    label. Output (query_id, pred_label, votes). The nearest-neighbor
    quality/label-transfer stage of curation pipelines, exact by
    construction and oracle-checkable in SQL."""
    partials = ds.map_batches(
        KnnLabelPartial,
        fn_constructor_kwargs={"queries_ref": queries_ref, "k": k,
                               "label_col": label_col},
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=0.5,
    )

    def vote(group: pa.Table) -> pa.Table:
        qid = group["query_id"][0].as_py()
        sims = group["sim"].to_numpy(zero_copy_only=False)
        ids = group["vec_id"].to_numpy(zero_copy_only=False)
        labels = group["label"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -sims))[:k]
        lab = labels[order]
        uniq, cnt = np.unique(lab, return_counts=True)
        best = np.lexsort((uniq, -cnt))[0]  # max votes, min label on tie
        return pa.table({
            "query_id": pa.array([qid], pa.int64()),
            "pred_label": pa.array([uniq[best]], pa.int64()),
            "votes": pa.array([int(cnt[best])], pa.int64()),
        })

    return partials.groupby("query_id").map_groups(
        vote, batch_format="pyarrow"
    )


def sqlparity_codebook(m_sub: int, k: int, sub_dim: int) -> np.ndarray:
    """Deterministic integer PQ codebook C[s, c, d] = LCG(s*100000 +
    c*1000 + d) scaled to [-1000, 1000] — the same arithmetic the SQL
    oracle generates with range()/modulo, so both engines quantize
    against bit-identical centroids (the PQ analog of sqlparity_planes)."""
    s = np.arange(m_sub, dtype=np.int64)[:, None, None]
    c = np.arange(k, dtype=np.int64)[None, :, None]
    d = np.arange(sub_dim, dtype=np.int64)[None, None, :]
    return ((1103515245 * (s * 100000 + c * 1000 + d) + 12345)
            % 2001) - 1000


def pq_encode(ds, *, dim: int, m_sub: int = 4, k: int = 16,
              codebook: np.ndarray | None = None, concurrency: int = 2):
    """Product-quantization encoding: each vector splits into ``m_sub``
    contiguous subspaces and each subspace maps to its nearest codebook
    centroid (squared L2, ties to the smallest centroid id) — the
    compression step every billion-vector ANN index (IVF-PQ) runs before
    storage, here as a map-only actor-pool stage (codebook built once per
    actor, per-batch distances are one einsum against the broadcast
    codebook; vectors never shuffle). With the default deterministic
    sqlparity_codebook the assignment is integer-exact and SQL-mirrorable;
    pass a trained codebook for production use.

    Output: (vec_id, c0..c{m_sub-1}) int64 codes."""
    sub = dim // m_sub
    if codebook is None:
        codebook = sqlparity_codebook(m_sub, k, sub)
    cb = codebook.astype(np.int64)

    def encode(batch: pa.Table) -> pa.Table:
        m_raw = _batch_matrix(batch)
        q = np.floor(m_raw * 1000.0 + 0.5).astype(np.int64)
        n = q.shape[0]
        cols = {"vec_id": batch["vec_id"]}
        for s in range(m_sub):
            x = q[:, s * sub:(s + 1) * sub]            # (n, sub)
            # (n, k) squared distances, integer-exact
            d2 = (
                (x * x).sum(axis=1, keepdims=True)
                - 2 * (x @ cb[s].T)
                + (cb[s] * cb[s]).sum(axis=1)[None, :]
            )
            cols[f"c{s}"] = pa.array(
                np.argmin(d2, axis=1).astype(np.int64), pa.int64()
            )
        assert n == batch.num_rows
        return pa.table(cols)

    return ds.map_batches(
        encode, batch_format="pyarrow", concurrency=concurrency,
        num_cpus=0.5,
    )


def pq_adc_topk(codes_ds, queries: dict, *, codebook: np.ndarray,
                m_sub: int, sub_dim: int, k: int = 10):
    """IVF-PQ's query-side ADC (asymmetric distance computation) scan over
    a PQ-coded corpus: each query precomputes ONE (m_sub x n_centroids)
    lookup table of exact integer squared distances between its quantized
    subvectors and the codebook, then every coded vector's approximate
    distance is m_sub table lookups + adds — no decompression, no float
    math, no per-vector distance kernel. The LUT set (n_queries x m_sub x
    k_centroids ints) broadcasts once; the scan is a map-only pass over
    the codes with per-batch top-k partials merged per query — at corpus
    scale the shipped bytes are codes (m_sub ints/vector), ~16x smaller
    than raw embeddings, which is the entire point of IVF-PQ storage.
    Ties break to the smaller vec_id, matching the SQL oracle's ORDER BY
    (d2, vec_id)."""
    import ray

    qm = queries["matrix"]
    qids = np.asarray(queries["qids"], np.int64)
    q_int = np.floor(qm * 1000.0 + 0.5).astype(np.int64)
    nq = q_int.shape[0]
    cb = codebook.astype(np.int64)  # (m_sub, k_cent, sub_dim)
    k_cent = cb.shape[1]
    luts = np.empty((nq, m_sub, k_cent), np.int64)
    for s in range(m_sub):
        x = q_int[:, s * sub_dim:(s + 1) * sub_dim]      # (nq, sub)
        diff = x[:, None, :] - cb[s][None, :, :]          # (nq, kc, sub)
        luts[:, s, :] = (diff * diff).sum(axis=2)
    ref = ray.put({"luts": luts, "qids": qids})

    code_cols = [f"c{s}" for s in range(m_sub)]

    def scan(batch: pa.Table) -> pa.Table:
        b = ray.get(ref) if not isinstance(ref, dict) else ref
        lt, qi = b["luts"], b["qids"]
        codes = np.stack(
            [batch[c].to_numpy(zero_copy_only=False) for c in code_cols],
            axis=1,
        )                                                 # (n, m_sub)
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        n = codes.shape[0]
        # (nq, n): sum over subspaces of LUT[q, s, code[v, s]]
        d2 = np.zeros((len(qi), n), np.int64)
        for s in range(codes.shape[1]):
            d2 += lt[:, s, :][:, codes[:, s]]
        kk = min(k, n)
        # per-query partial top-k with (d2, vec_id) lexicographic ties
        part = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
        rows = {"query_id": [], "vec_id": [], "adc_d2": []}
        for qx in range(len(qi)):
            idx = part[qx]
            order = np.lexsort((vid[idx], d2[qx, idx]))
            sel = idx[order]
            rows["query_id"].extend([qi[qx]] * len(sel))
            rows["vec_id"].extend(vid[sel].tolist())
            rows["adc_d2"].extend(d2[qx, sel].tolist())
        return pa.table({
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "vec_id": pa.array(rows["vec_id"], pa.int64()),
            "adc_d2": pa.array(rows["adc_d2"], pa.int64()),
        })

    partials = codes_ds.map_batches(scan, batch_format="pyarrow")

    def merge(group: pa.Table) -> pa.Table:
        d = group["adc_d2"].to_numpy(zero_copy_only=False)
        v = group["vec_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, d))[:k]
        return pa.table({
            "query_id": group["query_id"].take(pa.array(order)),
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
            "vec_id": pa.array(v[order], pa.int64()),
            "adc_d2": pa.array(d[order], pa.int64()),
        })

    return partials.groupby("query_id").map_groups(
        merge, batch_format="pyarrow"
    )


def whitening_from_gram(gram: np.ndarray, n: int,
                        sum_vec: np.ndarray | None = None,
                        *, eps: float = 1e-6):
    """ZCA whitening transform from the distributed integer Gram matrix
    (functions.relational's d²-per-batch combiner): covariance =
    gram/n - mean⊗mean folds driver-side on the d x d matrix (d = 64 —
    the only thing that ever reaches the driver), eigendecompose, and
    return (W, mean) with W = U diag(1/sqrt(λ+eps)) Uᵀ. Apply is
    map-only: (x - mean) @ W per batch. The standard pre-step before
    cosine dedup / ANN when embedding dimensions are correlated."""
    g = np.asarray(gram, np.float64)
    cov = g / float(n)
    mean = None
    if sum_vec is not None:
        mean = np.asarray(sum_vec, np.float64) / float(n)
        cov = cov - np.outer(mean, mean)
    lam, u = np.linalg.eigh((cov + cov.T) / 2.0)
    w = (u * (1.0 / np.sqrt(np.maximum(lam, 0.0) + eps))) @ u.T
    return w, mean


def whiten_apply(ds, w: np.ndarray, mean: np.ndarray | None = None,
                 *, out_col: str = "whitened"):
    """Map-only application of a whitening (or any linear) transform to
    the embedding column: one (batch x d) @ (d x d) matmul per batch, the
    d x d matrix broadcast once via ray.put."""
    import ray

    ref = ray.put({"w": np.asarray(w, np.float64),
                   "mean": None if mean is None
                   else np.asarray(mean, np.float64)})

    def fn(batch: pa.Table) -> pa.Table:
        b = ray.get(ref) if not isinstance(ref, dict) else ref
        m = _batch_matrix(batch)
        x = m - b["mean"] if b["mean"] is not None else m
        y = x @ b["w"]
        return pa.table({
            "vec_id": batch["vec_id"],
            out_col: pa.array(
                [row.tolist() for row in y.astype(np.float32)],
                pa.list_(pa.float32()),
            ),
        })

    return ds.map_batches(fn, batch_format="pyarrow")
