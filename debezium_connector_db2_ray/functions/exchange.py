"""The engine's one physical operator: an all-to-all exchange on a per-row
partition code, then a vectorized partition-local kernel.

Every grouped, joined or windowed operator in ``functions/`` and every
ad-hoc replay query (``pipelines.replay.apply_dataset``) is one or more
``exchange`` calls. The transport layout (``__part``, and ``__side`` plus
typed null slots when several inputs share one shuffle) exists only in
this module: kernels receive each input side as its own typed table and
never see padding. The shuffle itself is Ray Data's sort-based
``groupby(__part).map_groups`` — a kernel call holds every row of one
partition code, and co-located equal keys are the only guarantee a kernel
relies on.

The durable replay sink (``pipelines.replay.CdcEngine._staged``) shuffles
with ``task_exchange`` instead: its ``__part`` is a group code the caller
tags (the persisted, salted ``tag_partitions`` layout, offset per target),
and it is bounded to one window, so its reduce runs as plain Ray tasks
after the Ray Data job that preps the rows — no sort shuffle.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

PART = "__part"
SIDE = "__side"


def hash_part(keys: Sequence[str], num_partitions: int
              ) -> Callable[[pa.Table], np.ndarray]:
    """The standard partition function: ``table -> int32 codes`` from a
    (possibly multi-column, possibly string) key tuple. Every key column
    hashes to uint64 (numpy for fixed-width types, polars xxhash for
    strings), columns fold through mix64, and equal key tuples always land
    in the same partition. NULL key values hash like 0 — they co-locate
    with the 0 key but remain a distinct group inside the kernel."""
    from debezium_connector_db2_ray.functions.relational import mix64

    keys = list(keys)

    def part(batch: pa.Table) -> np.ndarray:
        h = np.zeros(batch.num_rows, np.uint64)
        for c in keys:
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            t = col.type
            if (pa.types.is_integer(t) or pa.types.is_boolean(t)
                    or pa.types.is_temporal(t)):
                # safe=False: uint64 above 2^63 wraps instead of raising
                v = pc.fill_null(
                    col.cast(pa.int64(), safe=False), 0
                ).to_numpy(zero_copy_only=False).astype(np.uint64)
            elif pa.types.is_floating(t):
                # widen to f64 (a 4-byte view would misalign) and normalize
                # signed zeros: -0.0 + 0.0 == +0.0, every other value is
                # unchanged — SQL GROUP BY treats -0.0 and 0.0 as one key
                f = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy(
                    zero_copy_only=False
                )
                v = (f + 0.0).view(np.uint64)
            else:
                from debezium_connector_db2_ray.polars_compat import (
                    import_polars,
                )
                pl = import_polars()

                v = pl.from_arrow(col).hash(seed=0).to_numpy()
            h = mix64(h ^ mix64(v))
        return (h % np.uint64(num_partitions)).astype(np.int32)

    return part


def side_schema(ds) -> pa.Schema:
    """Arrow schema of an exchange input, without schema-level metadata
    (a ``from_pandas`` dict there makes the schema unhashable, and Ray's
    schema unification then logs a warning per block). Free on a parquet
    read (footer metadata); on a transformed Dataset it executes a
    one-block sample, so callers whose input has an exchange upstream pass
    a known schema instead of calling this."""
    s = ds.schema(fetch_if_missing=False) or ds.schema()
    base = getattr(s, "base_schema", s)
    if not isinstance(base, pa.Schema):
        base = pa.schema(list(zip(s.names, s.types)))
    return base.remove_metadata()


def exchange(sides, part: Callable[[pa.Table], np.ndarray], kernel,
             out_schema: pa.Schema | None, *, schemas=None):
    """Shuffle ``sides`` (Datasets) on ``part(table) -> int32 codes`` and
    return ``kernel(*side_tables)`` over every partition as one Dataset.

    ``schemas`` (one per side) is also the projection: each side ships
    only its schema's columns, cast to the schema's types. When omitted,
    several sides are probed once with ``side_schema``, and a lone side
    ships all its columns as they are. A lone side may also give just its
    column names — it is never padded, so it needs no types. ``part`` sees
    the projected side table; a range partitioner's kernel can recompute
    its code as ``part(table)[0]``.

    With several sides, each row carries ``__side`` and a typed null in
    every slot of the other sides' columns. Sides that share a column name
    and type share its slot; a name the sides type differently gets one
    slot per side. Each kernel call gets every side as a table of its own
    schema — a side with no rows in the partition arrives as a 0-row typed
    table — and never sees ``__part``, ``__side`` or padding. Pass inputs
    as separate sides rather than a ``union`` of them: a side's own map
    then stays fused with its tag.

    The result carries a 0-row ``out_schema`` block, so it stays typed
    when the input is empty. When every side's types are known, a one-row
    sentinel (``__part = -1``, answered with that block) rides the shuffle,
    which keeps the kernel fused with whatever map follows; a lone side
    given by names gets the block from a trailing union instead.
    ``out_schema=None`` leaves the layout to the kernel (``apply_dataset``,
    whose ``post_kernel`` output is the caller's). Schema-level metadata
    is stripped from what is shipped and from what the kernel returns."""
    import ray.data as rd

    sides = list(sides)
    multi = len(sides) > 1
    if out_schema is not None:
        out_schema = out_schema.remove_metadata()
    empty = (out_schema.empty_table() if out_schema is not None
             else pa.table({}))
    if schemas is None:
        schemas = [side_schema(ds) for ds in sides] if multi else [None]
    schemas = [s.remove_metadata() if isinstance(s, pa.Schema) else s
               for s in schemas]
    names = [s.names if isinstance(s, pa.Schema) else s for s in schemas]
    slots = names
    if multi:
        # one slot per (name, type): sides agreeing on a column's type
        # share its slot (rows are told apart by __side), sides that
        # disagree get a per-side slot
        types: dict[str, set] = {}
        for sch in schemas:
            for f in sch:
                types.setdefault(f.name, set()).add(f.type)
        slots = [[c if len(types[c]) == 1 else f"__s{i}_{c}" for c in n]
                 for i, n in enumerate(names)]
    layout = None
    if all(isinstance(s, pa.Schema) for s in schemas):
        fields = {}
        for sch, sl in zip(schemas, slots):
            for f, slot in zip(sch, sl):
                fields.setdefault(slot, f.with_name(slot))
        layout = pa.schema(
            [(PART, pa.int32())] + ([(SIDE, pa.int8())] if multi else [])
            + list(fields.values())
        )

    def tag(i: int):
        def fn(batch: pa.Table) -> pa.Table:
            t = batch if names[i] is None else batch.select(names[i])
            if layout is None:
                return t.replace_schema_metadata(None).add_column(
                    0, PART, pa.array(part(t), pa.int32())
                )
            t = t.cast(schemas[i])
            n = t.num_rows
            own = dict(zip(slots[i], t.columns))
            cols = [pa.array(part(t), pa.int32())]
            if multi:
                cols.append(pa.array(np.full(n, i, np.int8)))
            cols += [own[f.name] if f.name in own else pa.nulls(n, f.type)
                     for f in list(layout)[len(cols):]]
            return pa.Table.from_arrays(cols, schema=layout)

        return fn

    inputs = [ds.map_batches(tag(i), batch_format="pyarrow")
              for i, ds in enumerate(sides)]
    if layout is not None and out_schema is not None:
        sentinel = pa.Table.from_arrays(
            [pa.array([-1], pa.int32())]
            + [pa.nulls(1, f.type) for f in list(layout)[1:]],
            schema=layout,
        )
        inputs.append(rd.from_arrow(sentinel))

    def run(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or g[PART][0].as_py() < 0:
            return empty
        if multi:
            side = g[SIDE].to_numpy(zero_copy_only=False)
            tables = [
                g.select(sl).filter(pa.array(side == i)).rename_columns(n)
                for i, (sl, n) in enumerate(zip(slots, names))
            ]
        else:
            tables = [g.drop_columns([PART])]
        out = kernel(*tables)
        return out.replace_schema_metadata(None) if out.schema.metadata else out

    out = (
        inputs[0].union(*inputs[1:]) if len(inputs) > 1 else inputs[0]
    ).groupby(PART).map_groups(run, batch_format="pyarrow")
    if out_schema is None or layout is not None:
        return out
    return out.union(rd.from_arrow(empty))


_RETRY = dict(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError])


@ray.remote(**_RETRY)
def _split(block: pa.Table, bounds: list[int]) -> tuple:
    """One tagged block cut into one table per reduce task's code range."""
    codes = block[PART].to_numpy(zero_copy_only=False)
    order = np.argsort(codes, kind="stable")
    cuts = np.searchsorted(codes[order], bounds)
    return tuple(block.take(order[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))


@ray.remote(**_RETRY)
def _reduce(kernel, *parts: pa.Table) -> list[pa.Table]:
    """``kernel`` once per group code present in ``parts``."""
    t = pa.concat_tables(parts, promote_options="default")
    codes = t[PART].to_numpy(zero_copy_only=False)
    order = np.argsort(codes, kind="stable")
    t = t.take(order)
    _, starts, counts = np.unique(codes[order], return_index=True,
                                  return_counts=True)
    return [kernel(t.slice(s, c)) for s, c in zip(starts, counts)]


def task_exchange(ds, num_codes: int, kernel) -> list[pa.Table]:
    """Shuffle a ``PART``-tagged Dataset (codes in ``[0, num_codes)``) with
    plain Ray tasks and return ``kernel(group)`` for every code present;
    each group keeps its ``PART`` column. For bounded inputs (a window, a
    snapshot) whose per-code work is small next to a sort shuffle's
    scheduling.

    The Dataset runs once (``iter_internal_ref_bundles``) and its 0-row
    blocks are dropped by their metadata. R = min(blocks, num_codes) reduce
    tasks each own a contiguous code range, so one holds about a block:
    with R == 1 it takes the blocks as they are, otherwise one split task
    per block cuts it into R ranges (``num_returns``; a lost split output is
    rebuilt from lineage). Tasks retry like Ray Data's, system errors
    included, and the kernel is put in the object store once."""
    blocks = [ref for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows != 0]
    r = min(len(blocks), num_codes)
    if not r:
        return []
    if r == 1:
        parts = [blocks]
    else:
        bounds = [i * num_codes // r for i in range(r + 1)]
        cut = [_split.options(num_returns=r).remote(b, bounds) for b in blocks]
        parts = [[c[i] for c in cut] for i in range(r)]
    ref = ray.put(kernel)
    return [t for ts in ray.get([_reduce.remote(ref, *p) for p in parts])
            for t in ts]
