"""Sorted-adjacency ATTACH primitives — join-free per-row enrichment.

The repo's measured rule (CLAUDE.md, BASELINE.md): Ray's per-group aggregate
machinery costs ~25 µs/group and each ``Dataset.join`` spins a
shuffle-aggregator pool worth ~3 s of fixed machinery at sf0.1 — while a
native ``sort`` of the same rows is ~0.1 s. ``sorted_group_sum`` /
``sorted_group_min`` (stages/corpus.py) exploit that for GROUP outputs; the
two primitives here exploit it for ROW outputs, replacing
aggregate-then-join-back plans with one sort. Both sit on
``runs.fill_sorted_runs``: each block defers its first and last key run,
the driver merges them by key in one collection and broadcasts the merged
rows once, and a fill pass gives every row its run's value (the merged one
for edge runs, the local one for interior runs).

* :func:`sorted_attach` — append each key's global COUNT and/or integer
  SUMs to every row of the key's run (``COUNT/SUM OVER (PARTITION BY key)``
  — the window-aggregate shape): per-run ``np.add.reduceat`` partials,
  summed by key on the driver.
* :func:`sorted_lookup_join` — inner- or left-join a unique-key lookup
  table into a row stream as a sort-merge: union both (lookup rows tagged
  src=0 so the sort places each key's lookup row at its run head); a run's
  value is its head row's, and every data row takes its run's value. The
  lookup stays distributed — only the edge runs' values broadcast, so
  (unlike the broadcast-map pattern) it is safe for vocabulary-/corpus-scale
  lookups.

Both consume the sorted Dataset twice (edge-run pass + fill pass); the sort
has already materialized its output, so the second pass re-reads pinned
blocks, not the lineage. Used by tf-idf and the prefix-filter dedup (df
counts), PageRank, connected components and canonical docs (label and rank
lookups), the dedup pair-text attach and the bigram PMI unigram lookups.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa

from vigil_ray.stages.blocks import coalesce_blocks, compact_blocks
from vigil_ray.stages.runs import (
    fill_sorted_runs,
    np_col,
    require_int_cols,
    run_starts,
)


def sorted_attach(
    rows_ds,
    key_cols: Sequence[str],
    sum_cols: Sequence[str] = (),
    count_name: Optional[str] = None,
):
    """Append per-key window aggregates to every row: ``count_name`` (key's
    global row count) and/or ``<c>_sum`` for each integer column in
    ``sum_cols`` (a non-integer column raises ``ValueError``). Output rows
    keep all input columns (order unspecified)."""
    key_cols = list(key_cols)
    sum_cols = list(sum_cols)
    if not sum_cols and count_name is None:
        raise ValueError("nothing to attach")
    # output column -> summed input column (None: the row count)
    outs = {count_name: None} if count_name else {}
    outs.update({f"{c}_sum": c for c in sum_cols})

    # coalesce first: Ray sort fan-out is keyed on input block count, and a
    # fine-block layout (filter/union debris) costs seconds of scheduling
    ds_sorted = compact_blocks(coalesce_blocks(rows_ds).sort(key_cols))
    require_int_cols(ds_sorted, sum_cols, "sorted_attach")

    def run_totals(block: pa.Table, starts: np.ndarray, runs: np.ndarray) -> pa.Table:
        lens = np.diff(np.append(starts, block.num_rows))
        out = block.select(key_cols).take(pa.array(starts[runs], pa.int64()))
        for name, c in outs.items():
            vals = lens if c is None else np.add.reduceat(
                np_col(block, c).astype(np.int64), starts
            )
            out = out.append_column(name, pa.array(vals[runs], pa.int64()))
        return out

    def add(deferred: pa.Table) -> pa.Table:
        merged = deferred.group_by(key_cols, use_threads=False).aggregate(
            [(name, "sum") for name in outs]
        )
        return merged.select(
            key_cols + [f"{name}_sum" for name in outs]
        ).rename_columns(key_cols + list(outs))

    def attach(block: pa.Table, starts: np.ndarray, per_run: pa.Table) -> pa.Table:
        lens = np.diff(np.append(starts, block.num_rows))
        for name in outs:
            vals = np.repeat(np_col(per_run, name), lens)
            block = block.append_column(name, pa.array(vals, pa.int64()))
        return block

    return fill_sorted_runs(ds_sorted, key_cols, sum_cols, run_totals, add, attach)


def sorted_lookup_join(
    rows_ds,
    lookup_ds,
    key_cols: Sequence[str],
    value_cols: Optional[Sequence[str]] = None,
    how: str = "inner",
):
    """Sort-merge join of ``rows_ds`` against a UNIQUE-key ``lookup_ds``
    (key_cols + value_cols): every row whose key exists in the lookup gains
    the value columns; rows with no match drop (``how="inner"``) or keep
    null values (``how="left"``). The lookup table stays distributed end to
    end."""
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    key_cols = list(key_cols)
    row_schema = rows_ds.schema()
    if row_schema is None:
        # no block has a schema: the input is empty (as after a row-function
        # filter that kept nothing), and so is either join of it
        return rows_ds
    lk_schema = lookup_ds.schema()
    if lk_schema is None:
        raise ValueError(
            "lookup_ds has no known schema (an empty input whose columns are "
            "unknown, e.g. after a row-function filter); the value columns "
            "cannot be typed"
        )
    lk_types = dict(zip(lk_schema.names, lk_schema.types))
    if value_cols is None:
        value_cols = [c for c in lk_schema.names if c not in key_cols]
    value_cols = list(value_cols)
    payload_cols = [c for c in row_schema.names if c not in key_cols]
    row_types = dict(zip(row_schema.names, row_schema.types))
    for c in value_cols:
        if c in row_types:
            raise ValueError(f"value column {c!r} collides with a row column")

    order = key_cols + ["__src"] + payload_cols + value_cols

    def tag_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: batch.column(c) for c in key_cols}
        cols["__src"] = pa.array(np.ones(n, np.int8))
        for c in payload_cols:
            cols[c] = batch.column(c)
        for c in value_cols:
            cols[c] = pa.nulls(n, lk_types[c])
        return pa.table({c: cols[c] for c in order})

    def tag_lookup(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: batch.column(c) for c in key_cols}
        cols["__src"] = pa.array(np.zeros(n, np.int8))
        for c in payload_cols:
            cols[c] = pa.nulls(n, row_types[c])
        for c in value_cols:
            cols[c] = batch.column(c)
        return pa.table({c: cols[c] for c in order})

    # coalesce BOTH inputs first (not just the union): Ray sort fan-out and
    # per-task scheduling are keyed on block count, and fine-block layouts
    # (filter/union debris) cost seconds of pure scheduling
    combined = (
        coalesce_blocks(rows_ds)
        .map_batches(tag_rows, batch_format="pyarrow")
        .union(
            coalesce_blocks(lookup_ds).map_batches(
                tag_lookup, batch_format="pyarrow"
            )
        )
    )
    merged = compact_blocks(combined.sort(key_cols + ["__src"]))

    def run_values(block: pa.Table, starts: np.ndarray, runs: np.ndarray) -> pa.Table:
        """Each run's head row: the lookup row's values when the run has
        one (``__known``), else the data row's null values."""
        heads = starts[runs]
        out = block.select(key_cols + value_cols).take(pa.array(heads, pa.int64()))
        known = np_col(block, "__src")[heads] == 0
        return out.append_column("__known", pa.array(known, pa.bool_()))

    def known_first(deferred: pa.Table) -> pa.Table:
        """One row per key: its lookup-row values if any block saw them."""
        deferred = deferred.sort_by(
            [(c, "ascending") for c in key_cols] + [("__known", "descending")]
        )
        return deferred.take(pa.array(run_starts(deferred, key_cols), pa.int64()))

    def join_rows(block: pa.Table, starts: np.ndarray, per_run: pa.Table) -> pa.Table:
        lens = np.diff(np.append(starts, block.num_rows))
        run = np.repeat(np.arange(len(starts)), lens)
        keep = np_col(block, "__src") == 1
        if how == "inner":
            keep &= np_col(per_run, "__known")[run]
        sel = np.flatnonzero(keep)
        out = block.select(key_cols + payload_cols).take(pa.array(sel, pa.int64()))
        run_of = pa.array(run[sel], pa.int64())
        for c in value_cols:
            out = out.append_column(c, per_run.column(c).take(run_of))
        return out

    return fill_sorted_runs(
        merged, key_cols, ["__src"] + value_cols, run_values, known_first, join_rows
    )
