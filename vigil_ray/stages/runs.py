"""Shared machinery for the sorted-adjacency operators: vectorized key-run
detection over a sorted block, and the two helpers built on it.

- :func:`map_sorted_runs` sorts by the run key alone and maps every sorted
  block once: Ray's range-partitioned sort never splits a run of equal
  keys across blocks, so each block holds its runs whole and reduces or
  fills them locally, with no driver collection and no second pass.
  Behind ``dedup.sorted_bucket_pairs``, ``corpus.sorted_group_min``,
  ``corpus.sorted_group_agg`` (hence ``sorted_group_sum`` and the distinct
  pair reduce of the dedup operators), ``corpus.sorted_group_topk`` (hence
  ``per_key_cap``, ``per_group_sample`` and ``per_group_weighted_sample``),
  ``corpus.segment_dedup``'s reassembly, ``sortmerge.sorted_attach``,
  ``sortmerge.sorted_lookup_join``, ``sessions.sessionize``,
  ``sessions.funnel_counts`` and ``lm.corpus_bigram_ppl``. No per-key
  reducer uses Ray's hash ``groupby().aggregate``.
- :func:`scan_sorted_blocks` is the ONE implementation of the block-carry
  scan (one output value per row, threaded across block boundaries) behind
  the window operators ``corpus.prefix_scan``, ``grouped_prefix_scan``,
  ``grouped_fill_forward``, ``grouped_shift`` and the
  ``grouped_rolling_*`` pair. Its sort includes the order columns, so a
  key run may span blocks there and the carry is needed.

Kept in one place so the invariant (run = maximal equal-key span, whole in
one block after a sort by the key alone) has a single definition.
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


def require_int_cols(ds, cols: Sequence[str], op: str) -> None:
    """Raise ``ValueError`` naming the first of ``cols`` whose type in the
    schema of ``ds`` (a materialized dataset, or a lazy sort or repartition
    of one: no execution) is not an integer: an int64 sum would truncate it
    silently. An unknown schema (an empty input) passes."""
    schema = ds.schema() if cols else None
    types = dict(zip(schema.names, schema.types)) if schema is not None else {}
    for c in cols:
        if c in types and not pa.types.is_integer(types[c]):
            raise ValueError(
                f"{op}: sum column {c!r} has type {types[c]}, not an integer type"
            )


def map_sorted_runs(
    ds,
    key_cols: Sequence[str],
    cols: Sequence[str],
    fn: Callable[[pa.Table, np.ndarray], pa.Table],
    order: Sequence[Tuple[str, str]] = (),
):
    """Sort ``ds`` by ``key_cols`` alone and return ``fn(block, starts)`` of
    every sorted block, in one map over complete key runs.

    Ray's range-partitioned sort assigns each key range to exactly one
    output block, so no run of equal ``key_cols`` ever straddles a block
    boundary (the contract ``GroupedData.map_groups`` relies on too, pinned
    by ``tests/test_sortmerge.py``). The sort is materialized and its empty
    blocks are dropped (``blocks.compact_blocks``: the map would pass them
    through as zero-column blocks). Inside a block, rows are ordered by
    ``key_cols`` and then by ``order`` (Arrow ``sort_by`` keys, e.g.
    ``[("ts", "ascending")]``); an order past the key stays out of Ray's
    sort, which would then be free to split a key run. ``starts`` are the
    block's run starts (:func:`run_starts`).

    An exception ``fn`` raises keeps its type on the driver (the flag is on
    the returned Dataset's context, so maps chained on it keep theirs too).

    When every block is empty, ``fn`` gets one 0-row block typed from the
    sorted schema (``key_cols`` and ``cols`` as int64 where it is unknown:
    an empty sort drops it) and its output is returned.
    """
    import ray.data as rd

    from vigil_ray.stages.blocks import compact_blocks

    key_cols = list(key_cols)
    sort_keys = [(c, "ascending") for c in key_cols] + list(order)
    ds_sorted = compact_blocks(ds.sort(key_cols))

    def runs(block: pa.Table) -> pa.Table:
        if order:
            block = block.sort_by(sort_keys)
        return fn(block, run_starts(block, key_cols))

    if ds_sorted.count():
        out = ds_sorted.map_batches(runs, batch_format="pyarrow", batch_size=None)
        # an error ``fn`` raises reaches the caller as its own type (a
        # ValueError stays catchable as one), not as Ray's UserCodeException
        out.context.raise_original_map_exception = True
        return out
    schema = ds_sorted.schema()
    types = dict(zip(schema.names, schema.types)) if schema is not None else {}
    for c in key_cols + list(cols):
        types.setdefault(c, pa.int64())
    empty = pa.table({c: pa.array([], t) for c, t in types.items()})
    return rd.from_arrow(runs(empty))


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
