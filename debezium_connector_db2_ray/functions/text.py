"""Text-analysis stages for large-scale training-data pipelines.

These extend the CDC engine with the document-processing operators a 100 TB
corpus pipeline needs (graft requirement, beyond the reference's own
operator set): token counting, quality scoring, language ID, fingerprinting.

All are vectorized batch transforms (pandas str kernels / numpy) meant for
``ds.map_batches``; the regex-compiling variants are actor-pool classes so
compilation happens once per actor (__init__), not per batch.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: stopword list shared with the SQL oracles — keep in sync with functions/queries.py
STOPWORDS = ("the", "a", "and", "of", "to")

#: RE2's \s is exactly [\t\n\f\r ] (ASCII, no \v, no Unicode spaces). Every
#: tokenizer/punctuation pattern below pins that class EXPLICITLY so the
#: Python/polars side (Unicode-default \s and \w) and the DuckDB RE2 oracles
#: (functions/queries.py) agree byte-for-byte on any text, not just ASCII.
WS_CLASS = "\t\n\f\r "
TOKEN_PATTERN = f"[^{WS_CLASS}]+"            # == RE2 \S+
PUNCT_PATTERN = f"[^0-9A-Za-z_{WS_CLASS}]"   # == RE2 [^\w\s]


def whole_token_pattern(words: tuple[str, ...]) -> str:
    """Regex counting occurrences of ``words`` as WHOLE tokens (bounded by
    RE2-\\s or string edges) — the vectorized replacement for per-row
    'token in set' loops; one C-regex pass per batch."""
    alt = "|".join(re.escape(w) for w in words)
    return f"(?<![^{WS_CLASS}])(?:{alt})(?![^{WS_CLASS}])"

#: language marker words for the n-gram-free heuristic language ID
LANG_MARKERS = {
    "en": ("the", "and"),
    "fr": ("le", "et"),
}


class TokenStats:
    """Actor-pool stage: token count + punctuation/stopword ratios.

    __init__ compiles the patterns once per actor; __call__ is per batch."""

    def __init__(self) -> None:
        self.token_re = re.compile(TOKEN_PATTERN)
        self.punct_re = re.compile(PUNCT_PATTERN)
        self.stop_re = re.compile(whole_token_pattern(STOPWORDS))

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas().fillna("")
        n_tokens = s.str.count(self.token_re).astype("int64")
        n_punct = s.str.count(self.punct_re).astype("int64")
        n_chars = s.str.len().astype("int64")
        n_stop = s.str.lower().str.count(self.stop_re).astype("int64")
        stop_ratio = np.where(n_tokens > 0, n_stop / n_tokens.clip(lower=1), 0.0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens),
                "n_chars_obs": pa.array(n_chars),
                "n_punct": pa.array(n_punct),
                "stop_ratio": pa.array(np.round(stop_ratio, 6)),
            }
        )


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Heuristic language ID: count en markers ('the','and') vs fr markers
    ('le','et') as whole tokens; label en/fr/unknown (ties -> en if nonzero).
    A real system would plug fasttext here — this stage pins the *plumbing*
    (schema, vectorization) with a deterministic heuristic."""
    s = batch["text"].to_pandas().fillna("").str.lower()
    en = s.str.count(whole_token_pattern(LANG_MARKERS["en"])).astype("int64")
    fr = s.str.count(whole_token_pattern(LANG_MARKERS["fr"])).astype("int64")
    label = np.where(en >= fr, np.where(en > 0, "en", "unknown"), "fr")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "en_hits": pa.array(en),
            "fr_hits": pa.array(fr),
            "lang_guess": pa.array(label, pa.string()),
        }
    )


def fingerprint_batch(batch: pa.Table, *, algo: str = "xxhash64") -> pa.Table:
    """Deterministic document fingerprint — the exact-dedup / provenance key.

    Default ``xxhash64``: one vectorized polars hash pass per batch
    (``fingerprint: uint64``) — ~10x cheaper than per-doc hashlib and the
    recommended provenance key at corpus scale. ``md5`` stays as the compat
    option (``fingerprint: string`` hex) for pipelines where the md5 value
    itself is contractual (it is the only variant a SQL oracle can mirror:
    DuckDB has md5(), not xxhash)."""
    if algo == "md5":
        texts = batch["text"].to_pylist()
        fp = pa.array(
            [hashlib.md5((t or "").encode()).hexdigest() for t in texts],
            pa.string(),
        )
        return pa.table({"doc_id": batch["doc_id"], "fingerprint": fp})
    if algo != "xxhash64":
        raise ValueError(f"fingerprint_batch: unknown algo {algo!r}")
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()

    col = batch["text"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    s = pl.from_arrow(pc.coalesce(col, pa.scalar("", pa.string())))
    h = s.hash(seed=0).to_numpy().astype(np.uint64)
    return pa.table({
        "doc_id": batch["doc_id"],
        "fingerprint": pa.array(h, pa.uint64()),
    })


def rolling_hash_batch(batch: pa.Table, *, window: int = 16) -> pa.Table:
    """Content-defined rolling fingerprint: min of a polynomial rolling hash
    over ``window``-char windows — robust to small edits (used as a cheap
    near-dup prefilter). Vectorized via numpy byte matrix per batch."""
    texts = batch["text"].to_pylist()
    out = np.zeros(len(texts), dtype=np.uint64)
    B = np.uint64(257)
    for i, t in enumerate(texts):
        b = np.frombuffer((t or "").encode(), dtype=np.uint8)
        if len(b) < window:
            out[i] = np.uint64(hash(bytes(b)) & 0xFFFFFFFFFFFFFFFF)
            continue
        # vectorized rolling hash: weights B^(window-1-j), matrix of windows
        with np.errstate(over="ignore"):
            weights = np.power(B, np.arange(window - 1, -1, -1, dtype=np.uint64))
            idx = np.arange(len(b) - window + 1)[:, None] + np.arange(window)[None, :]
            h = (b[idx].astype(np.uint64) * weights[None, :]).sum(axis=1)
        out[i] = h.min()
    return pa.table(
        {"doc_id": batch["doc_id"], "rolling_min_hash": pa.array(out, pa.uint64())}
    )


def tfidf_topk(ds, *, text_col: str = "text", id_col: str = "doc_id",
               k: int = 3, min_df: int = 2):
    """Per-document top-k TF-IDF terms with a QUANTIZED integer score
    (``tf * 1_000_000 // df`` — monotone in tf/df, so the ranking matches
    real tf-idf at any fixed tf, and integer arithmetic keeps both engines
    bit-identical; no float log). Two passes:

    1. DF: per-batch distinct (doc, term) partials -> grouped_aggregate
       per term (one combiner exchange over the vocabulary).
    2. Broadcast the df >= ``min_df`` slice once (``ray.put``) — absent
       terms have df < min_df; with min_df=2 absence means df == 1
       EXACTLY, so results stay exact while the broadcast stays a
       heavy-tail-trimmed fraction of the vocabulary. Then one map-only
       corpus pass: per-doc term counts (polars group_by, C speed),
       vectorized df lookup, integer score, per-doc top-k by
       (score desc, term asc) via sort + segment ranks.

    At 100 TB swap the string-keyed broadcast for the 64-bit term-hash
    variant (collision odds ~n^2/2^65) — the lookup is the only change."""
    import pandas as pd
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()
    import pyarrow.compute as pc
    import ray

    from debezium_connector_db2_ray.functions.relational import (
        _segment_starts,
        grouped_aggregate,
    )

    def _tok(col) -> "pl.Series":
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        s = pl.from_arrow(pc.coalesce(col, pa.scalar("", pa.string())))
        return s.str.to_lowercase().str.extract_all(TOKEN_PATTERN)

    def df_partial(batch: pa.Table) -> pa.Table:
        toks = _tok(batch[text_col])
        uniq = toks.list.unique().explode(empty_as_null=True).drop_nulls()
        vc = uniq.value_counts()
        cols = vc.columns  # [term, 'count']
        return pa.table({
            "term": vc[cols[0]].to_arrow().cast(pa.string()),
            "df": vc["count"].to_arrow().cast(pa.int64()),
        })

    df_rows = grouped_aggregate(
        ds.map_batches(df_partial, batch_format="pyarrow"),
        keys=["term"], aggs={"df": ("df", "sum")},
        schema=pa.schema([("term", pa.string()), ("df", pa.int64())]),
    ).map_batches(
        lambda t: t.filter(pc.greater_equal(t["df"], min_df)),
        batch_format="pyarrow",
    ).take_all()
    df_map = pd.Series(
        np.array([r["df"] for r in df_rows], np.int64),
        index=pd.Index([r["term"] for r in df_rows], dtype=object),
    )
    ref = ray.put(df_map)

    def score(batch: pa.Table) -> pa.Table:
        dfm = ray.get(ref)
        toks = _tok(batch[text_col])
        flat = pl.DataFrame({
            "i": pl.Series(np.arange(batch.num_rows, dtype=np.int64)),
            "t": toks,
        }).explode("t", empty_as_null=True).drop_nulls()
        tf = flat.group_by(["i", "t"]).len()
        i = tf["i"].to_numpy().astype(np.int64)
        terms = tf["t"].to_numpy()
        tfv = tf["len"].to_numpy().astype(np.int64)
        dfv = (
            pd.Series(terms, dtype=object).map(dfm)
            .fillna(1).astype(np.int64).to_numpy()
        )
        sc = tfv * np.int64(1_000_000) // dfv
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        t = pa.table({
            id_col: ids.take(pa.array(i, pa.int64())),
            "term": pa.array(terms, pa.string()),
            "tf": pa.array(tfv),
            "df": pa.array(dfv),
            "score": pa.array(sc),
            "__neg": pa.array(-sc),
        }).sort_by([
            (id_col, "ascending"), ("__neg", "ascending"),
            ("term", "ascending"),
        ])
        if t.num_rows == 0:
            # whole batch tokenized to zero tokens (whitespace/NULL text):
            # emit the typed empty table so the output schema stays pinned
            return t.drop_columns(["__neg"])
        starts = _segment_starts(t, [id_col])
        sizes = np.diff(np.append(starts, t.num_rows))
        rank = (np.arange(t.num_rows, dtype=np.int64)
                - np.repeat(starts, sizes))
        return t.filter(pa.array(rank < k)).drop_columns(["__neg"])

    return ds.map_batches(score, batch_format="pyarrow")


def chunk_documents_batch(window: int, stride: int,
                          text_col: str = "text",
                          id_col: str = "doc_id"):
    """Batch transform maker: split each document into overlapping
    token-window chunks — the training-data chunking stage. Tokens are
    TOKEN_PATTERN matches (RE2-pinned \\S+, same class as every text
    oracle); chunk c covers tokens [c*stride, c*stride+window); chunks
    start at every stride boundary below the token count, so an
    empty/whitespace doc yields no chunks. Fully vectorized in polars
    (extract_all -> int_ranges -> explode -> list.slice/join) — a
    per-row fanout with no Python loop. Each chunk carries
    (doc_id, chunk_idx, chunk_text, n_tokens).

    Scale note: output is ~window/stride x input tokens; run it as a
    plain map stage (no exchange) and let downstream ops repartition."""
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()

    def fn(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch.select([id_col, text_col]))
        out = (
            df.with_columns(
                pl.col(text_col).fill_null("")
                .str.extract_all(TOKEN_PATTERN).alias("__tk")
            )
            .with_columns(pl.col("__tk").list.len().alias("__n"))
            .filter(pl.col("__n") > 0)
            .with_columns(
                ((pl.col("__n") + stride - 1) // stride).alias("__nc")
            )
            .with_columns(
                pl.int_ranges(0, pl.col("__nc")).alias("chunk_idx")
            )
            .explode("chunk_idx", empty_as_null=True)
            .with_columns(
                pl.col("__tk").list.slice(
                    pl.col("chunk_idx") * stride, window
                ).alias("__ck")
            )
            .select(
                pl.col(id_col),
                pl.col("chunk_idx").cast(pl.Int64),
                pl.col("__ck").list.join(" ").alias("chunk_text"),
                pl.col("__ck").list.len().cast(pl.Int64).alias("n_tokens"),
            )
        )
        t = out.to_arrow()
        # polars emits large_string; normalize to the engine's string type
        return t.cast(pa.schema([
            (id_col, t.schema.field(id_col).type),
            ("chunk_idx", pa.int64()),
            ("chunk_text", pa.string()),
            ("n_tokens", pa.int64()),
        ]))

    return fn


def vocab_coverage(ds, *, vocab_k: int = 200, text_col: str = "text",
                   id_col: str = "doc_id"):
    """Vocabulary coverage / OOV-rate: build the corpus top-``vocab_k``
    vocabulary (relational.topk_terms — combiner + tiny exchange), pull
    the k-row result to the driver and ``ray.put`` it ONCE (the canonical
    small-side broadcast), then score every document map-side: coverage =
    in-vocab tokens / tokens (NULL for token-free docs). Tokenization is
    the shared RE2-pinned lowercase \\S+ so the SQL oracle reproduces the
    identical vocabulary and counts; coverage is one division of exact
    ints -> bit-identical doubles."""
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()
    import ray

    from debezium_connector_db2_ray.functions.relational import topk_terms

    vocab_rows = topk_terms(ds, text_col=text_col, k=vocab_k).take(vocab_k)
    ref = ray.put(sorted(r["term"] for r in vocab_rows))

    def score(batch: pa.Table) -> pa.Table:
        vocab = ray.get(ref)
        df = pl.from_arrow(batch.select([id_col, text_col]))
        out = (
            df.with_columns(
                pl.col(text_col).fill_null("").str.to_lowercase()
                .str.extract_all(TOKEN_PATTERN).alias("__tk")
            )
            .with_columns(
                pl.col("__tk").list.len().cast(pl.Int64).alias("n_tokens"),
                pl.col("__tk").list.eval(
                    pl.element().is_in(vocab).cast(pl.Int64)
                ).list.sum().cast(pl.Int64).alias("n_in_vocab"),
            )
            .with_columns(
                pl.when(pl.col("n_tokens") > 0)
                .then(
                    pl.col("n_in_vocab").cast(pl.Float64)
                    / pl.col("n_tokens").cast(pl.Float64)
                )
                .alias("coverage")
            )
            .select([id_col, "n_tokens", "n_in_vocab", "coverage"])
        )
        t = out.to_arrow()
        return t.cast(pa.schema([
            (id_col, t.schema.field(id_col).type),
            ("n_tokens", pa.int64()),
            ("n_in_vocab", pa.int64()),
            ("coverage", pa.float64()),
        ]))

    return ds.map_batches(score, batch_format="pyarrow")


def gopher_repetition_batch(batch: pa.Table, *, text_col: str = "text",
                            id_col: str = "doc_id") -> pa.Table:
    """Gopher-style repetition/quality signals per document (Rae et al.
    2021, 'Scaling Language Models' quality heuristics — reimplemented
    from the published descriptions): word count, distinct words, the top
    word's frequency, mean word length, and the duplicated-2-gram
    fraction. All ratios are emitted as INTEGER permille/x100 values with
    floor() arithmetic shared verbatim with the SQL oracle, so the gate
    hash is float-free. One polars pass per batch: explode words with an
    in-doc order index, shift(-1).over(doc) builds 2-grams, two group_bys
    produce every per-doc stat — no Python row loops.

    ``keep`` is the composed filter bit (enough words, no single dominant
    word, low 2-gram repetition) — integer comparisons only."""
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()

    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    s = pl.from_arrow(pc.coalesce(col, pa.scalar("", pa.string())))
    base = pl.DataFrame({
        "doc": pl.from_arrow(ids),
        "w": s.str.to_lowercase().str.extract_all(TOKEN_PATTERN),
    })
    words = (
        base.explode("w")
        .with_columns(nxt=pl.col("w").shift(-1).over("doc"))
    )
    wc = (
        words.drop_nulls("w").group_by("doc", "w").agg(c=pl.len())
    )
    wstats = wc.group_by("doc").agg(
        n_words=pl.col("c").sum(),
        distinct_words=pl.len(),
        top_word_n=pl.col("c").max(),
    )
    chars = (
        words.drop_nulls("w").group_by("doc")
        .agg(n_chars=pl.col("w").str.len_chars().sum())
    )
    g2 = (
        words.drop_nulls("nxt").drop_nulls("w")
        .with_columns(g=pl.col("w") + " " + pl.col("nxt"))
        .group_by("doc")
        .agg(n2=pl.len(), d2=pl.col("g").n_unique())
    )
    out = (
        base.select("doc").unique()
        .join(wstats, on="doc", how="left")
        .join(chars, on="doc", how="left")
        .join(g2, on="doc", how="left")
        .fill_null(0)
        .sort("doc")
    )
    nw = out["n_words"].to_numpy().astype(np.int64)
    nc = out["n_chars"].to_numpy().astype(np.int64)
    top = out["top_word_n"].to_numpy().astype(np.int64)
    n2 = out["n2"].to_numpy().astype(np.int64)
    d2 = out["d2"].to_numpy().astype(np.int64)
    mean_wl = np.floor(
        100.0 * nc.astype(np.float64) / np.maximum(nw, 1).astype(np.float64)
    ).astype(np.int64)
    dup2 = np.floor(
        1000.0 * (n2 - d2).astype(np.float64)
        / np.maximum(n2, 1).astype(np.float64)
    ).astype(np.int64)
    keep = (nw >= 20) & (top * 10 <= nw) & (dup2 < 150)
    return pa.table({
        id_col: pa.array(out["doc"].to_numpy().astype(np.int64), pa.int64()),
        "n_words": pa.array(nw, pa.int64()),
        "distinct_words": pa.array(
            out["distinct_words"].to_numpy().astype(np.int64), pa.int64()
        ),
        "top_word_n": pa.array(top, pa.int64()),
        "mean_word_len_x100": pa.array(mean_wl, pa.int64()),
        "dup_2gram_permille": pa.array(dup2, pa.int64()),
        "keep": pa.array(keep),
    })


def dup_span_grams(batch: pa.Table, *, n: int = 8, text_col: str = "text",
                   id_col: str = "doc_id") -> pa.Table:
    """Per-batch stage of duplicated-span detection (the exact-substring
    dedup of Lee et al. 2021, 'Deduplicating Training Data Makes Language
    Models Better' — reimplemented from the published description over
    token n-grams instead of suffix arrays): emit each document's DISTINCT
    lowercase n-token spans as (gram, doc_id) pairs. One polars pass:
    explode tokens, build the n-gram with n-1 shift()s over the doc
    segment, per-batch unique. Because a document occupies exactly one row
    (and so one batch), the pairs are globally distinct — a downstream
    grouped_aggregate count per gram IS the distinct-document count, with
    no count-distinct machinery."""
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()

    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    col = batch[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    s = pl.from_arrow(pc.coalesce(col, pa.scalar("", pa.string())))
    base = pl.DataFrame({
        "doc_id": pl.from_arrow(ids),
        "w": s.str.to_lowercase().str.extract_all(TOKEN_PATTERN),
    }).explode("w")
    parts = [pl.col("w")] + [
        pl.col("w").shift(-i).over("doc_id") for i in range(1, n)
    ]
    grams = (
        base.with_columns(
            gram=pl.concat_str(parts, separator=" ", ignore_nulls=False)
        )
        .drop_nulls("gram")       # trailing windows shorter than n
        .select("doc_id", "gram")
        .unique()
    )
    return pa.table({
        "gram": grams["gram"].to_arrow().cast(pa.string()),
        "doc_id": grams["doc_id"].to_arrow().cast(pa.int64()),
    })


def attach_grouped_count(rows, counts, *, key_col: str, count_col: str,
                         out_col: str,
                         num_partitions: int | None = None,
                         rows_schema: "pa.Schema | None" = None):
    """Attach a (key -> count) table to a row stream on a possibly-STRING
    key without a broadcast: both sides hash-exchange on the key, and a
    partition-local vectorized kernel sorts by key and np.repeats each
    segment's count row across its payload rows — the join-by-another-name
    for keys too wide (a full vocabulary) to ship to every task. Rows
    whose key has no count row are dropped (inner semantics)."""
    from debezium_connector_db2_ray.functions.relational import (
        _partition_codes,
        _segment_starts,
        derive_num_partitions,
    )

    if num_partitions is None:
        num_partitions = derive_num_partitions(rows)
    # pass rows_schema when rows has an exchange upstream: Dataset.schema()
    # would execute that upstream once just to learn the dtypes
    sch = rows_schema
    if sch is None:
        sch = rows.schema(fetch_if_missing=False) or rows.schema()
    if hasattr(sch, "base_schema"):
        sch = sch.base_schema
    payload = [c for c in sch.names if c != key_col]
    types = dict(zip(sch.names, sch.types))
    out_schema = pa.schema(
        [(key_col, types[key_col])]
        + [(c, types[c]) for c in payload]
        + [(out_col, pa.int64())]
    )

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            cols = {key_col: t[key_col]}
            for c in payload:
                cols[c] = (
                    t[c] if side == 0 else pa.nulls(t.num_rows, types[c])
                )
            cols["__cnt"] = (
                pa.nulls(t.num_rows, pa.int64()) if side == 0
                else t[count_col].cast(pa.int64())
            )
            cols["__side"] = pa.array(
                np.full(t.num_rows, side, np.int8)
            )
            out = pa.table(cols)
            return out.append_column(
                "__part",
                pa.array(_partition_codes(out, [key_col], num_partitions)),
            )

        return fn

    def kernel(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "__side" not in g.column_names:
            return out_schema.empty_table()
        g = g.drop_columns(["__part"]) if "__part" in g.column_names else g
        order = pc.sort_indices(
            g, sort_keys=[(key_col, "ascending"), ("__side", "descending")]
        )
        g = g.take(order)
        starts = _segment_starts(g, [key_col])
        side = g["__side"].to_numpy(zero_copy_only=False)
        cnt = pc.fill_null(g["__cnt"], 0).to_numpy(zero_copy_only=False)
        n = g.num_rows
        seg_id = np.zeros(n, np.int64)
        seg_id[starts[1:]] = 1
        seg_id = np.cumsum(seg_id)
        # count row (side 1) sorts FIRST in its segment; a segment whose
        # first row is a payload row has no count -> drop (inner join)
        has_cnt = side[starts] == 1
        seg_cnt = cnt[starts]
        keep = (side == 0) & has_cnt[seg_id]
        out = g.filter(pa.array(keep)).select([key_col] + payload)
        return out.append_column(
            out_col, pa.array(seg_cnt[seg_id][keep], pa.int64())
        )

    u = rows.map_batches(tag(0), batch_format="pyarrow").union(
        counts.map_batches(tag(1), batch_format="pyarrow")
    )
    out = u.groupby("__part").map_groups(kernel, batch_format="pyarrow")
    import ray.data as _rd

    return out.union(_rd.from_arrow(out_schema.empty_table()))


def collocation_counts(ds, *, text_col: str = "text", min_count: int = 3,
                       num_partitions: int | None = None):
    """PMI-ready bigram collocations: every adjacent token pair (RE2-\\S+
    tokens, document-local adjacency) with its bigram count and BOTH
    unigram counts attached — the downstream PMI / log-likelihood score is
    then a driver-trivial division, kept off this operator so the output
    stays integer-exact. Per-batch np.unique combiners bound the two count
    exchanges by batch-distinct grams; the vocabulary-wide unigram table
    attaches via the hash-exchange attach (never broadcast — a 100 TB
    corpus's vocabulary doesn't fit a task heap); min_count prunes the
    bigram tail BEFORE the attach exchanges.

    Reference analog: none — text-analysis family (SURVEY §2.5 extension),
    the collocation stage of a training-data n-gram pipeline."""
    import re

    from debezium_connector_db2_ray.functions.relational import (
        derive_num_partitions,
        grouped_aggregate,
    )

    if num_partitions is None:
        num_partitions = derive_num_partitions(ds)
    token_re = re.compile(TOKEN_PATTERN)

    def grams(batch: pa.Table) -> pa.Table:
        s = batch[text_col].to_pandas().fillna("")
        toks = s.str.findall(token_re)
        lens = toks.str.len().to_numpy()
        out_w1, out_w2, out_n = [], [], []
        uw, un = [], []
        if int(lens.sum()) > 0:
            flat = np.concatenate(
                [np.asarray(t, object) for t in toks[lens > 0]]
            )
            u, c = np.unique(flat, return_counts=True)
            uw.append(u)
            un.append(c)
            # bigrams: adjacent within doc — drop each doc's last token
            # from the left side and first from the right side
            starts = np.cumsum(np.concatenate(([0], lens[lens > 0])))[:-1]
            last = starts + lens[lens > 0] - 1
            keep_left = np.ones(len(flat), bool)
            keep_left[last] = False
            w1 = flat[keep_left]
            keep_right = np.ones(len(flat), bool)
            keep_right[starts] = False
            w2 = flat[keep_right]
            if len(w1):
                # integer pairing over the batch-local token codes (no
                # string concatenation — tokens may contain any byte)
                c1 = np.searchsorted(u, w1)
                c2 = np.searchsorted(u, w2)
                V = np.int64(len(u))
                up, cp = np.unique(c1 * V + c2, return_counts=True)
                out_w1.append(u[(up // V).astype(np.intp)])
                out_w2.append(u[(up % V).astype(np.intp)])
                out_n.append(cp)
        t1 = pa.table({
            "w1": pa.array(
                np.concatenate(out_w1) if out_w1 else np.array([], object),
                pa.string()),
            "w2": pa.array(
                np.concatenate(out_w2) if out_w2 else np.array([], object),
                pa.string()),
            "n": pa.array(
                np.concatenate(out_n).astype(np.int64) if out_n
                else np.array([], np.int64)),
            "kind": pa.array(
                np.zeros(sum(len(a) for a in out_w1), np.int8)
                if out_w1 else np.array([], np.int8)),
        })
        t2 = pa.table({
            "w1": pa.array(
                np.concatenate(uw) if uw else np.array([], object),
                pa.string()),
            "w2": pa.array(
                np.full(sum(len(a) for a in uw), "", object)
                if uw else np.array([], object), pa.string()),
            "n": pa.array(
                np.concatenate(un).astype(np.int64) if un
                else np.array([], np.int64)),
            "kind": pa.array(
                np.ones(sum(len(a) for a in uw), np.int8)
                if uw else np.array([], np.int8)),
        })
        return pa.concat_tables([t1, t2])

    counted = grouped_aggregate(
        ds.map_batches(grams, batch_format="pyarrow"),
        keys=["kind", "w1", "w2"],
        aggs={"cnt": ("n", "sum")},
        num_partitions=num_partitions,
        schema=pa.schema([
            ("kind", pa.int8()), ("w1", pa.string()),
            ("w2", pa.string()), ("n", pa.int64()),
        ]),
    )
    bigrams = counted.filter(expr="kind == 0").filter(
        expr=f"cnt >= {int(min_count)}"
    ).map_batches(
        lambda t: pa.table({
            "w1": t["w1"], "w2": t["w2"],
            "n_xy": t["cnt"].cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )
    unigrams = counted.filter(expr="kind == 1").map_batches(
        lambda t: pa.table({
            "w": t["w1"], "n_w": t["cnt"].cast(pa.int64()),
        }),
        batch_format="pyarrow",
    ).materialize()  # vocabulary-bounded; consumed by two attaches

    a1 = attach_grouped_count(
        bigrams.map_batches(
            lambda t: t.rename_columns(["w", "w2", "n_xy"]),
            batch_format="pyarrow",
        ),
        unigrams, key_col="w", count_col="n_w", out_col="n_x",
        num_partitions=num_partitions,
        rows_schema=pa.schema([
            ("w", pa.string()), ("w2", pa.string()),
            ("n_xy", pa.int64()),
        ]),
    ).map_batches(
        lambda t: pa.table({
            "w1": t["w"], "w2": t["w2"], "n_xy": t["n_xy"],
            "n_x": t["n_x"],
        }),
        batch_format="pyarrow",
    )
    a2 = attach_grouped_count(
        a1.map_batches(
            lambda t: pa.table({
                "w": t["w2"], "w1": t["w1"], "n_xy": t["n_xy"],
                "n_x": t["n_x"],
            }),
            batch_format="pyarrow",
        ),
        unigrams, key_col="w", count_col="n_w", out_col="n_y",
        num_partitions=num_partitions,
        rows_schema=pa.schema([
            ("w", pa.string()), ("w1", pa.string()),
            ("n_xy", pa.int64()), ("n_x", pa.int64()),
        ]),
    )
    return a2.map_batches(
        lambda t: pa.table({
            "w1": t["w1"], "w2": t["w"], "n_xy": t["n_xy"],
            "n_x": t["n_x"], "n_y": t["n_y"],
        }),
        batch_format="pyarrow",
    )


def json_extract_int(ds, *, col: str, path: str, out_col: str,
                     keep: list[str] | None = None):
    """Vectorized JSON field extraction from a string column (the
    semi-structured props/payload shape every event lake carries):
    polars' json_path_match runs the path over the whole batch in Rust —
    no per-row json.loads — and non-JSON / missing-path / NULL rows yield
    NULL, exactly DuckDB's json_extract_string semantics. The extracted
    value casts to int64 (strict=False: non-numeric matches become NULL
    rather than raising mid-stream).

    Reference analog: the reference ships payloads as opaque structured
    values for Kafka Connect converters to unpack (SURVEY §2.6); here the
    unpack is a first-class map-only operator."""
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()

    def extract(batch: pa.Table) -> pa.Table:
        s = batch[col]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        v = (
            pl.from_arrow(s).str.json_path_match(path)
            .cast(pl.Int64, strict=False)
            .to_arrow().cast(pa.int64())
        )
        cols = {c: batch[c] for c in (keep or batch.column_names)
                if c != col}
        cols[out_col] = v
        return pa.table(cols)

    return ds.map_batches(extract, batch_format="pyarrow")


def compression_ratio_batch(batch: pa.Table, *, level: int = 6,
                            flag_below: float = 0.35) -> pa.Table:
    """Per-document zlib compression ratio — the repetition/garbage
    signal real curation stacks run (highly repetitive or templated text
    compresses far below natural prose; near-random bytes barely
    compress). Emits ``compressed_ratio`` = deflate(text)/len(text)
    (1.0 for empty docs) and ``too_repetitive`` at the given threshold.

    Per-document compression is inherently per-blob work (same contract
    as the multimodal decoders) but each call is a single C-level zlib
    pass; the stage is embarrassingly parallel and map-only. Not
    SQL-expressible -> rows-only gate row pinned by a pytest oracle."""
    import zlib

    texts = batch["text"].to_pylist()
    n = len(texts)
    ratios = np.empty(n, np.float64)
    for i, t in enumerate(texts):
        if not t:
            ratios[i] = 1.0
            continue
        raw = t.encode("utf-8")
        ratios[i] = len(zlib.compress(raw, level)) / len(raw)
    return pa.table({
        "doc_id": batch["doc_id"],
        "compressed_ratio": pa.array(ratios, pa.float64()),
        "too_repetitive": pa.array(ratios < flag_below),
    })


def unigram_surprisal(ds, *, text_col: str = "text",
                      id_col: str = "doc_id", min_count: int = 2):
    """Per-document unigram language-model quality score — the
    CCNet/KenLM-style signal curation stacks rank documents with, in
    integer-exact form. A token's inverse frequency is
    ``N_total // count(term)`` (monotone in the true unigram surprisal
    -log p(term); integer floor-division keeps both engines
    bit-identical, no float log), and the document score is the mean
    inverse frequency ``sum // n_tokens``: rare-token-heavy documents
    (OCR garbage, boilerplate hashes) score high, fluent prose scores
    low. Token class is TOKEN_PATTERN (RE2 \\S+, shared with every text
    oracle). Two corpus passes:

    1. Counts: per-batch token value_counts partials (plus a sentinel
       ``''`` row carrying the batch's token total — the empty string
       can never be a token) -> ONE combiner exchange over the
       vocabulary (relational.grouped_aggregate).
    2. Broadcast the ``count >= min_count`` slice once (``ray.put``).
       With min_count=2, absence from the broadcast means count == 1
       EXACTLY, so ``N // 1 == N`` keeps the score exact while the
       broadcast drops the singleton-dominated vocabulary heavy tail.
       Then one map-only scoring pass: explode tokens (polars, C
       speed), vectorized count lookup, integer mean.

    Token-less documents (empty/whitespace text) produce no token rows
    and drop out — the same shape as the SQL unnest. At 100 TB swap the
    string-keyed broadcast for the 64-bit term-hash variant, exactly as
    tfidf_topk documents."""
    import pandas as pd
    from debezium_connector_db2_ray.polars_compat import import_polars
    pl = import_polars()
    import pyarrow.compute as pc
    import ray

    from debezium_connector_db2_ray.functions.relational import (
        grouped_aggregate,
    )

    def _tok(col) -> "pl.Series":
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        s = pl.from_arrow(pc.coalesce(col, pa.scalar("", pa.string())))
        return s.str.to_lowercase().str.extract_all(TOKEN_PATTERN)

    def count_partial(batch: pa.Table) -> pa.Table:
        toks = _tok(batch[text_col])
        flat = toks.explode(empty_as_null=True).drop_nulls()
        vc = flat.value_counts()
        cols = vc.columns  # [term, 'count']
        terms = vc[cols[0]].to_arrow().cast(pa.string())
        cnts = vc["count"].to_arrow().cast(pa.int64())
        # sentinel '' row: this batch's token total (tokens are \S+
        # matches, so '' never collides with a real term)
        return pa.table({
            "term": pa.concat_arrays(
                [terms.combine_chunks() if isinstance(terms, pa.ChunkedArray)
                 else terms, pa.array([""], pa.string())]
            ),
            "cnt": pa.concat_arrays(
                [cnts.combine_chunks() if isinstance(cnts, pa.ChunkedArray)
                 else cnts, pa.array([len(flat)], pa.int64())]
            ),
        })

    rows = grouped_aggregate(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        keys=["term"], aggs={"cnt": ("cnt", "sum")},
        schema=pa.schema([("term", pa.string()), ("cnt", pa.int64())]),
    ).map_batches(
        lambda t: t.filter(pa.array(
            np.logical_or(
                pc.greater_equal(t["cnt"], min_count).to_numpy(
                    zero_copy_only=False),
                pc.equal(t["term"], "").to_numpy(zero_copy_only=False),
            )
        )),
        batch_format="pyarrow",
    ).take_all()
    n_total = 0
    terms, cnts = [], []
    for r in rows:
        if r["term"] == "":
            n_total = int(r["cnt"])
        else:
            terms.append(r["term"])
            cnts.append(r["cnt"])
    cnt_map = pd.Series(
        np.array(cnts, np.int64),
        index=pd.Index(terms, dtype=object),
    )
    ref = ray.put((n_total, cnt_map))

    out_schema = pa.schema([
        (id_col, pa.int64()), ("n_tokens", pa.int64()),
        ("mean_inv_freq", pa.int64()),
    ])

    def score(batch: pa.Table) -> pa.Table:
        n_tot, cm = ray.get(ref)
        toks = _tok(batch[text_col])
        flat = pl.DataFrame({
            "i": pl.Series(np.arange(batch.num_rows, dtype=np.int64)),
            "t": toks,
        }).explode("t", empty_as_null=True).drop_nulls()
        if flat.height == 0:
            return out_schema.empty_table()
        cv = (
            pd.Series(flat["t"].to_numpy(), dtype=object).map(cm)
            .fillna(1).astype(np.int64).to_numpy()
        )
        inv = np.int64(n_tot) // cv
        agg = (
            pl.DataFrame({"i": flat["i"], "inv": pl.Series(inv)})
            .group_by("i").agg(
                pl.col("inv").sum().alias("s"),
                pl.len().alias("n"),
            ).sort("i")
        )
        i = agg["i"].to_numpy().astype(np.int64)
        s = agg["s"].to_numpy().astype(np.int64)
        n = agg["n"].to_numpy().astype(np.int64)
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({
            id_col: ids.take(pa.array(i, pa.int64())),
            "n_tokens": pa.array(n, pa.int64()),
            "mean_inv_freq": pa.array(s // n, pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")
