"""Contract of ``functions.exchange.exchange`` — the one ``__part`` shuffle
every grouped, joined and windowed operator runs on — plus a source scan
that keeps it the only one."""

import logging
import pathlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from debezium_connector_db2_ray.functions.exchange import (
    exchange,
    hash_part,
)

PKG = pathlib.Path(__file__).resolve().parent.parent / "debezium_connector_db2_ray"


def _blocks(ds):
    import ray

    return [ray.get(r) for r in ds.to_arrow_refs()]


def test_two_sides_share_a_column_name_with_different_types(ray_session):
    import ray.data as rd

    left = pa.table({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]})
    right = pa.table({"k": [2, 3, 3, 9], "v": [0.5, 1.5, 2.5, 9.5]})

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert lt.schema.field("v").type == pa.string()
        assert rt.schema.field("v").type == pa.float64()
        assert lt.column_names == ["k", "v"] and rt.column_names == ["k", "v"]
        return lt.join(rt, keys=["k"], join_type="inner",
                       right_suffix="_r").select(
            ["k", "v", "v_r"]
        )

    out_schema = pa.schema(
        [("k", pa.int64()), ("v", pa.string()), ("v_r", pa.float64())]
    )
    got = exchange(
        [rd.from_arrow(left), rd.from_arrow(right)], hash_part(["k"], 3),
        kernel, out_schema, schemas=[left.schema, right.schema],
    ).to_pandas().sort_values(["k", "v_r"]).reset_index(drop=True)
    assert got.to_dict("list") == {
        "k": [2, 3, 3], "v": ["b", "c", "c"], "v_r": [0.5, 1.5, 2.5],
    }


def test_int64_payload_stays_int64(ray_session):
    """No null padding reaches a kernel, so a numpy view of an int64
    column stays int64 and keeps values above 2^53 exact."""
    import ray.data as rd

    big = (1 << 53) + 1
    left = pa.table({"k": [1, 1, 2], "x": [big, big + 2, 7]})
    right = pa.table({"k": [1, 5], "y": [big + 4, 3]})

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        x = lt["x"].to_numpy(zero_copy_only=False)
        y = rt["y"].to_numpy(zero_copy_only=False)
        assert x.dtype == np.int64 and y.dtype == np.int64
        return pa.table({"v": np.concatenate([x, y])})

    out = exchange(
        [rd.from_arrow(left), rd.from_arrow(right)], hash_part(["k"], 4),
        kernel, pa.schema([("v", pa.int64())]),
    )
    vals = sorted(out.to_pandas()["v"].tolist())
    assert vals == sorted([big, big + 2, 7, big + 4, 3])
    assert all(b.schema.field("v").type == pa.int64()
               for b in _blocks(out) if b.num_columns)


def test_empty_side_and_empty_input_are_typed(ray_session):
    import ray.data as rd

    left = pa.table({"k": [1, 2, 3], "x": [10, 20, 30]})
    right_schema = pa.schema([("k", pa.int64()), ("tag", pa.string())])
    out_schema = pa.schema([("k", pa.int64()), ("n_right", pa.int64())])

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert rt.num_rows == 0 and rt.schema.equals(right_schema)
        return pa.table({
            "k": lt["k"],
            "n_right": pa.array(np.zeros(lt.num_rows, np.int64)),
        })

    got = exchange(
        [rd.from_arrow(left), rd.from_arrow(right_schema.empty_table())],
        hash_part(["k"], 2), kernel, out_schema,
        schemas=[left.schema, right_schema],
    )
    assert sorted(got.to_pandas()["k"]) == [1, 2, 3]

    def never(*tables):
        raise AssertionError("kernel ran on an empty input")

    empty = exchange(
        [rd.from_arrow(left.schema.empty_table()),
         rd.from_arrow(right_schema.empty_table())],
        hash_part(["k"], 2), never, out_schema,
        schemas=[left.schema, right_schema],
    )
    assert empty.count() == 0
    assert empty.schema().base_schema.equals(out_schema)


def test_range_part_kernel_reads_its_own_code(ray_session):
    import ray.data as rd

    t = pa.table({"o": np.arange(100, dtype=np.int64)})

    def part_of(tb: pa.Table) -> np.ndarray:
        return (tb["o"].to_numpy(zero_copy_only=False) // 25).astype(np.int32)

    def kernel(g: pa.Table) -> pa.Table:
        code = part_of(g.slice(0, 1))[0]
        return pa.table({
            "o": g["o"],
            "code": pa.array(np.full(g.num_rows, code, np.int64)),
        })

    got = exchange(
        [rd.from_arrow(t).repartition(5)], part_of, kernel,
        pa.schema([("o", pa.int64()), ("code", pa.int64())]),
        schemas=[t.schema],
    ).to_pandas()
    assert len(got) == 100
    assert (got["code"] == got["o"] // 25).all()


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_pandas_schema_metadata_never_reaches_the_shuffle(ray_session):
    """``from_pandas`` puts a dict in the schema metadata, which makes the
    schema unhashable; Ray then logs ``Failed to hash the schemas`` each
    time it unifies such blocks. The exchange strips it on both sides of
    the kernel, including ``apply_dataset``'s post_kernel output."""
    import ray.data as rd

    from debezium_connector_db2_ray.ops import OP_INSERT
    from debezium_connector_db2_ray.pipelines.replay import apply_dataset
    from debezium_connector_db2_ray.schema import changelog_schema

    records = _Records()
    log = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    log.addHandler(records)
    try:
        df = pd.DataFrame({"k": np.arange(40) % 7, "v": np.arange(40)})
        src = rd.from_arrow(
            [pa.Table.from_pandas(df.iloc[i:i + 10], preserve_index=False)
             for i in range(0, 40, 10)]
        )

        def sums(g: pa.Table) -> pa.Table:
            return pa.Table.from_pandas(
                g.to_pandas().groupby("k", as_index=False)["v"].sum(),
                preserve_index=False,
            )

        out = exchange([src], hash_part(["k"], 3), sums,
                       pa.schema([("k", pa.int64()), ("v", pa.int64())]))
        blocks = _blocks(out)
        assert all(b.schema.metadata is None for b in blocks)
        got = pd.concat([b.to_pandas() for b in blocks])
        assert dict(zip(got["k"], got["v"])) == df.groupby("k")["v"].sum().to_dict()

        rows = [{
            "commit_lsn_hi": 0, "commit_lsn_lo": lsn, "intent_lsn_hi": 0,
            "intent_lsn_lo": lsn, "op": OP_INSERT, "conv_id": f"c{lsn % 5}",
            "turn_idx": lsn, "role": "user", "text": "x" * lsn, "tool": None,
            "ts": np.datetime64(lsn, "us"),
        } for lsn in range(1, 31)]
        cl = rd.from_arrow([
            pa.Table.from_pylist(rows[i:i + 10], schema=changelog_schema())
            for i in range(0, 30, 10)
        ])

        def per_conv(state: pa.Table) -> pa.Table:
            df_ = state.to_pandas().groupby("conv_id", as_index=False).size()
            return pa.Table.from_pandas(df_, preserve_index=False)

        applied = apply_dataset(cl, num_partitions=4, post_kernel=per_conv)
        blocks = _blocks(applied)
        assert all(b.schema.metadata is None for b in blocks)
        res = applied.to_pandas()
        assert dict(zip(res["conv_id"], res["size"])) == {
            f"c{i}": 6 for i in range(5)
        }
    finally:
        log.removeHandler(records)
    assert not [m for m in records.messages if "Failed to hash" in m]


def test_similarity_partials_return_typed_empties():
    from debezium_connector_db2_ray.functions.similarity import (
        TOPK_PARTIAL_SCHEMA,
        BruteForceTopK,
        KnnLabelPartial,
        SqlParityLshTopK,
    )

    q = {"qids": np.array([1, 2]), "matrix": np.random.default_rng(0).random((2, 4))}
    empty = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "label": pa.array([], pa.int64()),
    })
    for stage in (BruteForceTopK(q["matrix"], k=3),
                  SqlParityLshTopK(q, nbits=4, k=3)):
        assert stage(empty).schema.equals(TOPK_PARTIAL_SCHEMA)
    knn = KnnLabelPartial(q, k=3)(empty)
    assert knn.num_rows == 0
    assert knn.column_names == ["query_id", "vec_id", "label", "sim"]


def test_exchange_is_the_only_part_shuffle():
    """``groupby`` on the partition column, the side tag and a
    ``num_returns=`` split may appear only in the exchange module (the
    durable sink ``CdcEngine._staged`` shuffles through its
    ``task_exchange``). A hand-rolled copy fails here."""
    shuffle = re.compile(
        r"groupby\(\s*(\"__part\"|'__part'|PART_COL|PART)\s*\)"
        r"|__side|num_returns\s*="
    )
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for i, line in enumerate(path.read_text().splitlines()):
            if shuffle.search(line) and rel != "functions/exchange.py":
                offenders.append(f"{rel}:{i + 1}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
