"""Sorted-adjacency ATTACH primitives — join-free per-row enrichment.

The repo's measured rule (CLAUDE.md, BASELINE.md): Ray's per-group aggregate
machinery costs ~25 µs/group and each ``Dataset.join`` spins a
shuffle-aggregator pool worth ~3 s of fixed machinery at sf0.1 — while a
native ``sort`` of the same rows is ~0.1 s. ``sorted_group_sum`` /
``sorted_group_min`` (stages/corpus.py) exploit that for GROUP outputs; the
two primitives here exploit it for ROW outputs, replacing
aggregate-then-join-back plans with one sort. Both sit on
``runs.map_sorted_runs``: a sort by the key alone leaves each key's run
whole in one block, so one map gives every row its run's value.

* :func:`sorted_attach` — append each key's global COUNT and/or integer
  SUMs to every row of the key's run (``COUNT/SUM OVER (PARTITION BY key)``
  — the window-aggregate shape): per-run ``np.add.reduceat`` totals,
  repeated over the run.
* :func:`sorted_lookup_join` — inner- or left-join a unique-key lookup
  table into a row stream as a sort-merge: union both (lookup rows tagged
  ``__src`` = 0); every data row takes the values of its run's lookup row,
  and a run with two lookup rows raises ``ValueError``. The lookup stays
  distributed — nothing is collected or broadcast, so (unlike the
  broadcast-map pattern) it is safe for vocabulary-/corpus-scale lookups.

Each call runs one execution (the sort, materialized) plus the map that
its consumer runs. Used by tf-idf and the prefix-filter dedup (df
counts), PageRank, connected components and canonical docs (label and rank
lookups), the dedup pair-text attach and the bigram PMI unigram lookups.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa

from vigil_ray.stages.blocks import coalesce_blocks
from vigil_ray.stages.runs import map_sorted_runs, np_col, require_int_cols


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
    rows_ds = coalesce_blocks(rows_ds)
    require_int_cols(rows_ds, sum_cols, "sorted_attach")

    def attach(block: pa.Table, starts: np.ndarray) -> pa.Table:
        lens = np.diff(np.append(starts, block.num_rows))
        for name, c in outs.items():
            vals = lens if c is None else np.add.reduceat(
                np_col(block, c).astype(np.int64), starts
            )
            block = block.append_column(name, pa.array(np.repeat(vals, lens), pa.int64()))
        return block

    return map_sorted_runs(rows_ds, key_cols, sum_cols, attach)


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
    end. A key with two lookup rows raises ``ValueError`` naming it when the
    output is computed (in the worker that holds the key's run)."""
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

    def join_rows(block: pa.Table, starts: np.ndarray) -> pa.Table:
        """Every data row takes its run's lookup row values (null where the
        run has none); a run with two lookup rows raises."""
        lens = np.diff(np.append(starts, block.num_rows))
        run = np.repeat(np.arange(len(starts)), lens)
        src = np_col(block, "__src")
        lk = np.flatnonzero(src == 0)
        dup = np.flatnonzero(np.bincount(run[lk], minlength=len(starts)) > 1)
        if len(dup):
            key = block.select(key_cols).slice(int(starts[dup[0]]), 1).to_pylist()[0]
            raise ValueError(f"sorted_lookup_join: lookup_ds has duplicate key {key}")
        head = np.full(len(starts), -1)
        head[run[lk]] = lk  # each run's lookup row, -1 for none
        keep = src == 1
        if how == "inner":
            keep &= head[run] >= 0
        sel = np.flatnonzero(keep)
        out = block.select(key_cols + payload_cols).take(pa.array(sel, pa.int64()))
        at = head[run[sel]]
        at = pa.array(at, pa.int64(), mask=at < 0)  # a null index takes null
        for c in value_cols:
            out = out.append_column(c, block.column(c).take(at))
        return out

    return map_sorted_runs(combined, key_cols, ["__src"] + value_cols, join_rows)
