"""Sorted-adjacency ATTACH primitives — join-free per-row enrichment.

The repo's measured rule (CLAUDE.md, BASELINE.md): Ray's per-group aggregate
machinery costs ~25 µs/group and each ``Dataset.join`` spins a
shuffle-aggregator pool worth ~3 s of fixed machinery at sf0.1 — while a
native ``sort`` of the same rows is ~0.1 s. ``sorted_group_sum`` /
``sorted_group_min`` (stages/corpus.py) exploit that for GROUP outputs; the
two primitives here exploit it for ROW outputs, replacing
aggregate-then-join-back plans with one sort:

* :func:`sorted_attach` — append each key's global COUNT and/or integer
  SUMs to every row of the key's run (``COUNT/SUM OVER (PARTITION BY key)``
  — the window-aggregate shape): sort by key, per-run ``np.add.reduceat``,
  first/last run of each block deferred as ≤2 partial rows to the driver,
  which reconciles straddling runs and broadcasts the small boundary dict
  back for a second pass over the pinned sorted blocks.
* :func:`sorted_lookup_join` — inner-join a unique-key lookup table into a
  row stream as a sort-merge: union both (lookup rows tagged src=0 so the
  sort places each key's lookup row at its run head), propagate the lookup
  values down each run vectorized, same ≤2-rows-per-block boundary protocol.
  The lookup stays distributed — nothing broadcasts, so (unlike the
  broadcast-map pattern) it is safe for vocabulary-/corpus-scale lookups.

Both consume the sorted Dataset twice (boundary pass + fill pass); the sort
has already materialized its output, so the second pass re-reads pinned
blocks, not the lineage. Used by tf-idf (df counts), PageRank (rank→edge
lookup) and the LM scorer's fused variant (stages/lm.py).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa

from vigil_ray.stages.blocks import coalesce_blocks, compact_blocks
from vigil_ray.stages.runs import np_col, run_starts


def _edge_idx(n_runs: int) -> list:
    """Indices of the runs that can straddle a block boundary (the block's
    first and last; one entry when the block is a single run)."""
    return [0] if n_runs == 1 else [0, n_runs - 1]


def _key_tuple(batch: pa.Table, key_cols: Sequence[str], i: int) -> tuple:
    return tuple(batch.column(c)[i].as_py() for c in key_cols)


def sorted_attach(
    rows_ds,
    key_cols: Sequence[str],
    sum_cols: Sequence[str] = (),
    count_name: Optional[str] = None,
):
    """Append per-key window aggregates to every row: ``count_name`` (key's
    global row count) and/or ``<c>_sum`` for each integer column in
    ``sum_cols``. Output rows keep all input columns (order unspecified)."""
    key_cols = list(key_cols)
    sum_cols = list(sum_cols)
    if not sum_cols and count_name is None:
        raise ValueError("nothing to attach")

    # coalesce first: Ray sort fan-out is keyed on input block count, and a
    # fine-block layout (filter/union debris) costs seconds of scheduling
    ds_sorted = compact_blocks(coalesce_blocks(rows_ds).sort(key_cols))

    def _partials(batch: pa.Table):
        starts = run_starts(batch, key_cols)
        lens = np.diff(np.append(starts, batch.num_rows))
        sums = [
            np.add.reduceat(np_col(batch, c).astype(np.int64), starts)
            for c in sum_cols
        ]
        return starts, lens, sums

    def boundary(batch: pa.Table) -> pa.Table:
        starts, lens, sums = _partials(batch)
        idx = _edge_idx(len(starts))
        out = {
            c: pa.array(
                [batch.column(c)[int(starts[j])].as_py() for j in idx],
                batch.column(c).type,
            )
            for c in key_cols
        }
        out["__n"] = pa.array([int(lens[j]) for j in idx], pa.int64())
        for k, c in enumerate(sum_cols):
            out[f"__s_{c}"] = pa.array(
                [int(sums[k][j]) for j in idx], pa.int64()
            )
        return pa.table(out)

    deferred = ds_sorted.map_batches(
        boundary, batch_format="pyarrow", batch_size=None
    ).take_all()
    bound: dict = {}
    for r in deferred:
        k = tuple(r[c] for c in key_cols)
        acc = bound.setdefault(k, [0] * (1 + len(sum_cols)))
        acc[0] += r["__n"]
        for j, c in enumerate(sum_cols):
            acc[1 + j] += r[f"__s_{c}"]

    def fill(batch: pa.Table) -> pa.Table:
        starts, lens, sums = _partials(batch)
        run_n = lens.astype(np.int64)
        run_sums = [s.astype(np.int64) for s in sums]
        for j in _edge_idx(len(starts)):
            k = _key_tuple(batch, key_cols, int(starts[j]))
            acc = bound.get(k)
            if acc is not None:
                run_n[j] = acc[0]
                for m in range(len(sum_cols)):
                    run_sums[m][j] = acc[1 + m]
        t = batch
        if count_name:
            t = t.append_column(
                count_name, pa.array(np.repeat(run_n, lens), pa.int64())
            )
        for m, c in enumerate(sum_cols):
            t = t.append_column(
                f"{c}_sum", pa.array(np.repeat(run_sums[m], lens), pa.int64())
            )
        return t

    return ds_sorted.map_batches(fill, batch_format="pyarrow", batch_size=None)


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

    # --- boundary pass: each block's first/last run key + value-if-known ---
    def boundary(batch: pa.Table) -> pa.Table:
        src = np_col(batch, "__src")
        starts = run_starts(batch, key_cols)
        idx = _edge_idx(len(starts))
        keys = {
            c: pa.array(
                [batch.column(c)[int(starts[j])].as_py() for j in idx],
                batch.column(c).type,
            )
            for c in key_cols
        }
        known = [bool(src[int(starts[j])] == 0) for j in idx]
        out = dict(keys)
        for c in value_cols:
            out[c] = pa.array(
                [
                    batch.column(c)[int(starts[j])].as_py() if kn else None
                    for j, kn in zip(idx, known)
                ],
                lk_types[c],
            )
        out["__known"] = pa.array(known, pa.bool_())
        return pa.table(out)

    deferred = merged.map_batches(
        boundary, batch_format="pyarrow", batch_size=None
    ).take_all()
    bound: dict = {}
    for r in deferred:
        if r["__known"]:
            bound[tuple(r[c] for c in key_cols)] = tuple(
                r[c] for c in value_cols
            )

    out_cols = key_cols + payload_cols + value_cols

    def fill(batch: pa.Table) -> pa.Table:
        src = np_col(batch, "__src")
        starts = run_starts(batch, key_cols)
        lens = np.diff(np.append(starts, batch.num_rows))
        n_runs = len(starts)
        # interior runs: fully vectorized — each row takes its run-head row's
        # value columns (the lookup row when the run matches); runs whose
        # head is a data row have no lookup anywhere → inner-drop
        head_is_lookup = src[starts] == 0
        # per-run source index for values (run head), -1 = dict/drop
        edge = np.zeros(n_runs, dtype=bool)
        for j in _edge_idx(n_runs):
            edge[j] = True
        row_run = np.repeat(np.arange(n_runs), lens)
        row_head = np.repeat(starts, lens)
        data_mask = src == 1
        parts = []
        # vectorized interior fill: each row takes its run-head row's value
        # columns; unmatched runs drop (inner) or null-fill (left)
        if how == "inner":
            int_mask = data_mask & np.repeat(head_is_lookup & ~edge, lens)
        else:
            int_mask = data_mask & np.repeat(~edge, lens)
        if int_mask.any():
            sel = np.flatnonzero(int_mask)
            t = pa.table(
                {
                    c: batch.column(c).take(pa.array(sel, pa.int64()))
                    for c in key_cols + payload_cols
                }
            )
            heads = row_head[sel]
            matched = np.repeat(head_is_lookup, lens)[sel]
            for c in value_cols:
                taken = batch.column(c).take(pa.array(heads, pa.int64()))
                if how == "left" and not matched.all():
                    import pyarrow.compute as pc

                    taken = pc.if_else(
                        pa.array(matched),
                        taken.combine_chunks(),
                        pa.scalar(None, lk_types[c]),
                    )
                t = t.append_column(c, taken)
            parts.append(t.select(out_cols))
        # edge runs (≤2): values from the reconciled boundary dict
        for j in _edge_idx(n_runs):
            s = int(starts[j])
            k = _key_tuple(batch, key_cols, s)
            vals = bound.get(k)
            if vals is None and how == "inner":
                continue
            sel = np.flatnonzero(data_mask & (row_run == j))
            if not len(sel):
                continue
            t = pa.table(
                {
                    c: batch.column(c).take(pa.array(sel, pa.int64()))
                    for c in key_cols + payload_cols
                }
            )
            for m, c in enumerate(value_cols):
                t = t.append_column(
                    c,
                    pa.array(
                        [None if vals is None else vals[m]] * len(sel),
                        lk_types[c],
                    ),
                )
            parts.append(t.select(out_cols))
        if not parts:
            return pa.table(
                {
                    c: pa.array([], row_types.get(c, lk_types.get(c)))
                    for c in out_cols
                }
            )
        return pa.concat_tables(parts)

    return merged.map_batches(fill, batch_format="pyarrow", batch_size=None)
