"""Shared machinery for the sorted-adjacency operators: vectorized key-run
detection over a sorted, pinned block, and :func:`reduce_sorted_runs`, the
ONE implementation of the boundary-deferral protocol behind
``dedup.sorted_bucket_pairs``, ``corpus.sorted_group_min`` and
``corpus.sorted_group_agg`` (hence ``sorted_group_sum`` and the distinct
pair reduce of the dedup operators). Kept in one place so the protocol's
invariants (run = maximal equal-key span; only a block's first/last run can
straddle a boundary) have a single definition.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa


def np_col(batch: pa.Table, c: str) -> np.ndarray:
    return batch.column(c).combine_chunks().to_numpy(zero_copy_only=False)


def run_starts(batch: pa.Table, key_cols: Sequence[str]) -> np.ndarray:
    """Indices where a new equal-key run begins (batch is sorted by
    key_cols; index 0 always starts a run; an empty batch has none)."""
    n = batch.num_rows
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for c in key_cols:
        k = np_col(batch, c)
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change)


RunFn = Callable[[pa.Table, np.ndarray, np.ndarray], pa.Table]


def reduce_sorted_runs(
    ds_sorted,
    key_cols: Sequence[str],
    value_cols: Sequence[str],
    partial: RunFn,
    merge: Callable[[pa.Table], pa.Table],
    emit: RunFn,
):
    """Reduce every equal-key run of a dataset SORTED by ``key_cols`` (and
    pinned: materialized, so both passes see the same blocks) without a
    per-group aggregate.

    1. Each block defers its FIRST and LAST run, the only runs that can
       straddle a block boundary: ``partial(block, starts, runs)`` returns
       one row per listed run (key columns + the run's partial). The
       deferred rows reach the driver in one collection — ≤2 rows per
       block, never row-sized.
    2. ``merge(deferred)`` combines the deferred partials by key (a run
       spanning k blocks contributes k partials; rows arrive in block
       order) into output rows.
    3. A second pass over the same blocks emits each block's INTERIOR runs,
       complete by construction: ``emit(block, starts, runs)``.

    ``starts`` are the block's run starts (:func:`run_starts`), ``runs`` the
    indices into it to handle. The output is the union of both. When every
    block is empty the callables get a 0-row block typed from the sorted
    schema (int64 where it is unknown — an empty sort drops it) and their
    typed empty output is returned. ``value_cols`` names the other input
    columns the callables read.
    """
    import ray.data as rd

    key_cols = list(key_cols)

    def deferred_runs(block: pa.Table) -> pa.Table:
        starts = run_starts(block, key_cols)
        edges = np.unique([0, len(starts) - 1]) if len(starts) else starts
        return partial(block, starts, edges)

    # one execution, kept in Arrow so the merge sees the real column types
    tables = [
        t
        for t in ds_sorted.map_batches(
            deferred_runs, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if not tables:
        schema = ds_sorted.schema()
        types = dict(zip(schema.names, schema.types)) if schema is not None else {}
        cols = key_cols + list(value_cols)
        empty = pa.table({c: pa.array([], types.get(c, pa.int64())) for c in cols})
        none = np.zeros(0, dtype=np.int64)
        return rd.from_arrow(merge(partial(empty, none, none)))

    def interior_runs(block: pa.Table) -> pa.Table:
        starts = run_starts(block, key_cols)
        return emit(block, starts, np.arange(1, len(starts) - 1))

    inner = ds_sorted.map_batches(
        interior_runs, batch_format="pyarrow", batch_size=None
    )
    return rd.from_arrow(merge(pa.concat_tables(tables))).union(inner)
