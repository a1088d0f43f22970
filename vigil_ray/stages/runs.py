"""Shared machinery for the sorted-adjacency operators: vectorized key-run
detection over a sorted, pinned block, and the protocols built on it.

- :func:`reduce_sorted_runs` is the ONE implementation of the
  boundary-deferral protocol (one output row per key run): each block
  defers its first and last run, the driver merges them by key in one
  collection, and a second pass emits the interior runs. Behind
  ``dedup.sorted_bucket_pairs``, ``corpus.sorted_group_min``,
  ``corpus.sorted_group_agg`` (hence ``sorted_group_sum`` and the distinct
  pair reduce of the dedup operators) and ``sessions.sessionize``.
- :func:`fill_sorted_runs` is its per-ROW counterpart over the same
  edge-run collection and merge: the merged edge runs are broadcast once
  and a fill pass gives every row its run's value. Behind
  ``sortmerge.sorted_attach`` and ``sortmerge.sorted_lookup_join``.
- :func:`scan_sorted_blocks` is the ONE implementation of the block-carry
  scan (one output value per row, threaded across block boundaries) behind
  the window operators ``corpus.prefix_scan``, ``grouped_prefix_scan``,
  ``grouped_fill_forward``, ``grouped_shift`` and the
  ``grouped_rolling_*`` pair.

Two sorted operators keep their own protocol. ``sessions.funnel_counts``
emits one counts row per block, not rows per run, so it has no per-run
output to merge. ``lm.corpus_bigram_ppl`` resolves two run levels from
one sort; putting each level on a run protocol would add a second
corpus-scale sort.

Kept in one place so the invariants (run = maximal equal-key span; only a
block's first/last run can straddle a boundary) have a single definition.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

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


def require_int_cols(ds_sorted, cols: Sequence[str], op: str) -> None:
    """Raise ``ValueError`` naming the first of ``cols`` whose type in the
    (materialized) sorted schema is not an integer: an int64 sum would
    truncate it silently. An unknown schema (an empty input) passes."""
    schema = ds_sorted.schema() if cols else None
    types = dict(zip(schema.names, schema.types)) if schema is not None else {}
    for c in cols:
        if c in types and not pa.types.is_integer(types[c]):
            raise ValueError(
                f"{op}: sum column {c!r} has type {types[c]}, not an integer type"
            )


RunFn = Callable[[pa.Table, np.ndarray, np.ndarray], pa.Table]


def _edge_runs(starts: np.ndarray) -> np.ndarray:
    """The runs that can straddle a block boundary: the first and the last
    (one run when the block is a single run, none when it is empty)."""
    return np.unique([0, len(starts) - 1]) if len(starts) else starts


def _merge_edge_runs(ds_sorted, key_cols, value_cols, partial: RunFn, merge):
    """Steps 1-2 of both run protocols: every block's edge runs through
    ``partial``, collected on the driver in one execution and merged by key.
    Returns the merged table and whether any block had rows; with none, the
    merge of a 0-row block typed from the sorted schema (int64 where it is
    unknown: an empty sort drops it)."""

    def deferred_runs(block: pa.Table) -> pa.Table:
        starts = run_starts(block, key_cols)
        return partial(block, starts, _edge_runs(starts))

    # one execution, kept in Arrow so the merge sees the real column types
    tables = [
        t
        for t in ds_sorted.map_batches(
            deferred_runs, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if tables:
        return merge(pa.concat_tables(tables)), True
    schema = ds_sorted.schema()
    types = dict(zip(schema.names, schema.types)) if schema is not None else {}
    cols = list(key_cols) + list(value_cols)
    empty = pa.table({c: pa.array([], types.get(c, pa.int64())) for c in cols})
    none = np.zeros(0, dtype=np.int64)
    return merge(partial(empty, none, none)), False


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
       spanning k blocks contributes k partials; the merge must not rely
       on their order) into output rows.
    3. A second pass over the same blocks emits each block's INTERIOR runs,
       complete by construction: ``emit(block, starts, runs)``.

    ``starts`` are the block's run starts (:func:`run_starts`), ``runs`` the
    indices into it to handle. The output is the union of both. When every
    block is empty the callables get a 0-row block typed from the sorted
    schema and their typed empty output is returned. ``value_cols`` names
    the other input columns the callables read.
    """
    import ray.data as rd

    key_cols = list(key_cols)
    merged, found = _merge_edge_runs(ds_sorted, key_cols, value_cols, partial, merge)
    if not found:
        return rd.from_arrow(merged)

    def interior_runs(block: pa.Table) -> pa.Table:
        starts = run_starts(block, key_cols)
        return emit(block, starts, np.arange(1, len(starts) - 1))

    inner = ds_sorted.map_batches(
        interior_runs, batch_format="pyarrow", batch_size=None
    )
    return rd.from_arrow(merged).union(inner)


def fill_sorted_runs(
    ds_sorted,
    key_cols: Sequence[str],
    value_cols: Sequence[str],
    partial: RunFn,
    merge: Callable[[pa.Table], pa.Table],
    fill: Callable[[pa.Table, np.ndarray, pa.Table], pa.Table],
):
    """The per-ROW counterpart of :func:`reduce_sorted_runs`: every row
    gets a value of its key's whole run, over the same edge-run collection.

    Steps 1-2 are those of :func:`reduce_sorted_runs`; ``merge`` must
    return ONE row per deferred key, with the columns and types of
    ``partial``'s rows. The merged rows are broadcast once. A fill pass over
    the same blocks then builds one value row per run, in run order:
    ``partial(block, starts, all runs)``, with each edge run's row replaced
    by its key's merged row (interior runs keep their local one), and
    returns ``fill(block, starts, per_run)``.
    """
    import ray

    key_cols = list(key_cols)
    merged, _ = _merge_edge_runs(ds_sorted, key_cols, value_cols, partial, merge)
    keys = zip(*(merged.column(c).to_pylist() for c in key_cols))
    merged_ref = ray.put((merged, {k: i for i, k in enumerate(keys)}))

    def fill_runs(block: pa.Table) -> pa.Table:
        starts = run_starts(block, key_cols)
        n_runs = len(starts)
        local = partial(block, starts, np.arange(n_runs))
        table, index = ray.get(merged_ref)
        edges = _edge_runs(starts)
        heads = pa.array(starts[edges], pa.int64())
        edge_keys = zip(*(block.column(c).take(heads).to_pylist() for c in key_cols))
        edge_rows = table.take(pa.array([index[k] for k in edge_keys], pa.int64()))
        pick = np.arange(n_runs)
        pick[edges] = n_runs + np.arange(len(edges))
        per_run = pa.concat_tables(
            [local, edge_rows.select(local.column_names)]
        ).take(pa.array(pick, pa.int64()))
        return fill(block, starts, per_run)

    return ds_sorted.map_batches(fill_runs, batch_format="pyarrow", batch_size=None)


# summarize(block, starts) -> {name: 1-row array}; walk(summaries) -> one
# carry per block; apply(block, starts, carry) -> block with its output
BlockScan = Tuple[
    Callable[[pa.Table, np.ndarray], Dict[str, pa.Array]],
    Callable[[List[dict]], List[Any]],
    Callable[[pa.Table, np.ndarray, Any], pa.Table],
]


def scan_sorted_blocks(
    ds,
    key_cols: Sequence[str],
    order_cols: Sequence[str],
    make_scan: Callable[[dict], BlockScan],
):
    """Sort ``ds`` by ``key_cols + order_cols`` and append a per-row window
    result that threads a CARRY across block boundaries, with no per-key
    state anywhere: after the sort each key's rows are contiguous, so only
    a block's FIRST run can owe a carry to earlier blocks and only its LAST
    run can lend one forward.

    1. coalesce → sort → compact pins one block layout for both passes
       (no empty blocks, so neither pass sees a 0-row block).
    2. A summary pass reduces each block to ONE row: the block id (its
       first row's sort tuple, in NATIVE types — a stringified key would
       sort numeric ids lexicographically and corrupt the walk), the
       first-run key, the last-run key, a single-run flag and the payload
       ``summarize(block, starts)`` returns (``{name: 1-row array}``).
    3. The driver collects the summaries once (block-count-sized, never
       row-sized), sorts them by block id and calls ``walk(summaries)``:
       each summary is a dict of the payload plus ``first_key``,
       ``last_key`` (tuples) and ``single_run``; the walk returns one carry
       per block, in that order. The carries are broadcast once.
    4. A second pass over the same blocks returns
       ``apply(block, starts, carry)``.

    ``starts`` are the block's run starts (:func:`run_starts`; with no
    ``key_cols`` the whole block is one run). ``make_scan(types)`` is
    called once on the driver with the sorted schema's ``{column: type}``
    (empty when the schema is unknown) and returns ``(summarize, walk,
    apply)``.

    Precondition: ``key_cols + order_cols`` is row-unique, because blocks
    are identified by their first row's sort tuple.
    """
    import ray

    from vigil_ray.stages.blocks import coalesce_blocks, compact_blocks

    key_cols = list(key_cols)
    sort_cols = key_cols + list(order_cols)
    nk = len(key_cols)
    ds = compact_blocks(coalesce_blocks(ds).sort(sort_cols))
    schema = ds.schema()
    types = dict(zip(schema.names, schema.types)) if schema is not None else {}
    summarize, walk, apply = make_scan(types)

    def summary(block: pa.Table) -> pa.Table:
        starts = run_starts(block, key_cols)
        last = int(starts[-1])
        cols = {f"__id{i}": block.column(c).slice(0, 1) for i, c in enumerate(sort_cols)}
        for i, c in enumerate(key_cols):
            cols[f"__last{i}"] = block.column(c).slice(last, 1)
        cols["__single"] = pa.array([len(starts) == 1])
        cols.update(summarize(block, starts))
        return pa.table(cols)

    blocks = []
    for r in ds.map_batches(summary, batch_format="pyarrow", batch_size=None).take_all():
        r = dict(r)
        block_id = tuple(r.pop(f"__id{i}") for i in range(len(sort_cols)))
        r["first_key"] = block_id[:nk]
        r["last_key"] = tuple(r.pop(f"__last{i}") for i in range(nk))
        r["single_run"] = r.pop("__single")
        blocks.append((block_id, r))
    blocks.sort(key=lambda b: b[0])
    carries = walk([r for _, r in blocks])
    carry_ref = ray.put({block_id: c for (block_id, _), c in zip(blocks, carries)})

    def scan(block: pa.Table) -> pa.Table:
        block_id = tuple(block.column(c)[0].as_py() for c in sort_cols)
        carry = ray.get(carry_ref)[block_id]
        return apply(block, run_starts(block, key_cols), carry)

    return ds.map_batches(scan, batch_format="pyarrow", batch_size=None)
