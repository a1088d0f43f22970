"""Training-corpus preparation operators (round-3 additions).

The operators a 100-TB web-text training pipeline needs BETWEEN cleaning and
training, each in its canonical distributed shape:

- :func:`segment_dedup` — C4-style cross-document segment-level dedup: the
  corpus keeps exactly the FIRST occurrence (min doc, then min position) of
  every W-word segment; documents are reassembled from their surviving
  segments. One shuffle on segment text + one small reassembly shuffle on
  doc — no joins, no driver materialization.
- :func:`prefix_scan` / :func:`pack_shards` / :func:`deterministic_shuffle`
  — a distributed ordered PREFIX SUM (two passes over pinned blocks with a
  block-offset barrier — inherent to any prefix computation), powering
  token/byte-budget shard packing (`sum(cost) OVER (ORDER BY id)`) and a
  seeded, reproducible global shuffle rank (`row_number() OVER (ORDER BY
  md5(id||seed))`).
- :func:`grouped_prefix_scan` / :func:`grouped_fill_forward` /
  :func:`grouped_shift` / :func:`grouped_rolling_median` /
  :func:`grouped_rolling_sum` — PARTITION-BY window analytics with no
  per-key state. They and :func:`prefix_scan` run on ONE block-carry scan,
  ``runs.scan_sorted_blocks``; each supplies only its per-block summary,
  its driver walk and its in-block apply.
- :func:`hash_split` — deterministic train/val/test assignment from a keyed
  md5 bucket; embarrassingly parallel, stable across runs and cluster sizes.
- :func:`bloom_anti_join` — "drop every row whose key is in the blocklist"
  at a scale where the blocklist itself is too big to broadcast exactly: a
  compact Bloom bitmap (built distributed, OR-reduced) is broadcast once;
  bloom-NEGATIVE rows pass immediately (no false negatives by construction),
  and only the bloom-positive sliver pays the exact ``left_anti`` hash join.
- :func:`group_quantile_filter` — "keep the top (1-q) quality slice PER
  group" via per-group value histograms (partial per batch, merged small),
  thresholds broadcast, one filter pass. Exact ``quantile_disc`` semantics.
- :func:`sorted_group_topk` — the ``k`` first rows per key under an order:
  a map-side pre-cap, then one map over the sorted key runs (the sort
  carries ≤k rows per key per block). :func:`per_key_cap` ("at most K
  documents per source/domain"), :func:`per_group_sample` and
  :func:`per_group_weighted_sample` are top-k under the id, a seeded md5
  and an exponential clock.

No reference analog (the reference is a single-machine PII detector); these
extend SURVEY.md §2 with the LLM-data-pipeline operator class the north rule
grades. Every operator here is exactly SQL-checkable and wired into
``vigil_ray.queries`` with a DuckDB oracle.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from vigil_ray.stages.blocks import compact_blocks


# --------------------------------------------------------------------------
# C4-style segment dedup
# --------------------------------------------------------------------------

def chunk_documents(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    chunk_words: int = 50,
    stride: int = 40,
):
    """Context-window chunking: split each document into word windows of
    ``chunk_words`` every ``stride`` words (overlap = chunk_words − stride)
    — the 1→n explode that prepares long documents for a fixed-context
    model. Chunk starts are ``0, stride, 2·stride, …`` while start <
    n_words; the final window may be short. Pure per-row map (no shuffle,
    no state): output ``(id, chunk_id, n_words, chunk_text)`` streams at
    input parallelism, ~chunk_words/stride× the input rows.

    Whitespace-only documents produce no chunks (mirrors the SQL side's
    ``trim(text) <> ''`` guard)."""

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, chunk_ids, n_words_out, texts_out = [], [], [], []
        for vid, text in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            words = (text or "").split()
            n = len(words)
            for ci, s in enumerate(range(0, n, stride)):
                piece = words[s : s + chunk_words]
                ids_out.append(vid)
                chunk_ids.append(ci)
                n_words_out.append(len(piece))
                texts_out.append(" ".join(piece))
        return pa.table(
            {
                id_col: pa.array(ids_out, batch.column(id_col).type),
                "chunk_id": pa.array(chunk_ids, pa.int64()),
                "n_words": pa.array(n_words_out, pa.int64()),
                "chunk_text": pa.array(texts_out, pa.string()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def canonicalize_urls(ds, url_col: str = "url", out_col: str = "canonical_url"):
    """Vectorized crawl-URL canonicalization (the CommonCrawl-style dedup
    key): strip ``#fragment``, strip every ``utm_*`` tracking param, force
    the https scheme, lowercase the host, drop a leading ``www.``, strip one
    trailing path slash. Pure ``pyarrow.compute`` RE2 kernels — zero Python
    per row, embarrassingly parallel (no shuffle).

    Tracking removal is PER SEGMENT, position-independent: a real param
    after a tracking param (``?utm_source=x&page=2``) survives as
    ``?page=2`` — three RE2 passes drop ``&utm_…`` segments anywhere, then
    repair a leading ``?utm_…&`` / lone ``?utm_…``. Non-tracking query
    params are PRESERVED — a ``?page=2`` URL is a distinct resource, not a
    duplicate.
    """

    def _norm(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        u = pc.cast(batch.column(url_col), pa.string())
        u = pc.replace_substring_regex(u, r"#.*$", "")
        u = pc.replace_substring_regex(u, r"&utm_[^&]*", "")
        u = pc.replace_substring_regex(u, r"\?utm_[^&]*&", "?")
        u = pc.replace_substring_regex(u, r"\?utm_[^&]*$", "")
        m = pc.extract_regex(
            u, r"^(?i:https?)://(?P<host>[^/]*)(?P<rest>.*)$"
        )
        host = pc.utf8_lower(pc.struct_field(m, "host"))
        host = pc.replace_substring_regex(host, r"^www\.", "")
        rest = pc.replace_substring_regex(pc.struct_field(m, "rest"), r"/$", "")
        canon = pc.binary_join_element_wise("https://", host, rest, "")
        # non-http(s) rows (schemeless, ftp, garbage) don't match the
        # extractor — keep their stripped raw string as the key instead of
        # collapsing them all into one null group downstream
        canon = pc.if_else(pc.is_valid(canon), canon, u)
        return batch.append_column(out_col, canon)

    return ds.map_batches(_norm, batch_format="pyarrow")


def url_dedup(ds, url_col: str = "url", id_col: str = "row_id"):
    """Exact dedup on the canonical URL: one row per canonical URL with the
    keeper (min ``id_col``) and the variant count. canonicalize (map-side,
    no shuffle) → :func:`sorted_group_agg` — the sort carries
    ``(canonical_url, id, 1)`` rows only; page bodies never move."""
    canon = canonicalize_urls(ds, url_col=url_col).select_columns(
        ["canonical_url", id_col]
    )

    def _one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(batch.num_rows, np.int64))
        )

    rows = canon.map_batches(_one, batch_format="pyarrow")
    return sorted_group_agg(
        rows,
        ["canonical_url"],
        [(id_col, "min", "keeper_row_id"), ("one", "sum", "n_variants")],
    )


def segment_dedup(ds, id_col: str = "doc_id", text_col: str = "text", seg_words: int = 10):
    """Cross-corpus segment-level dedup (the C4 recipe, segment = ``seg_words``
    whitespace words): every distinct segment string survives exactly once —
    in the document with the smallest id, at its smallest position there —
    and each document is rebuilt from its surviving segments in order.

    Distributed shape: explode (doc, idx, segment) → :func:`sorted_group_min`
    keeps ONE winner row per distinct segment (min (doc, idx); nothing joins
    back) → ``runs.map_sorted_runs`` by doc, ordered by idx inside each
    block, joins each doc's surviving segments. Documents whose every
    segment lost are dropped (they contributed nothing new to the corpus).
    """
    from vigil_ray.stages.runs import map_sorted_runs

    def explode(batch: pa.Table) -> pa.Table:
        docs, idxs, segs = [], [], []
        for d, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            words = (t or "").split()
            for i in range(0, len(words), seg_words):
                docs.append(d)
                idxs.append(i // seg_words + 1)  # 1-based, matches SQL range()
                segs.append(" ".join(words[i : i + seg_words]))
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "seg_idx": pa.array(idxs, pa.int64()),
                "seg": pa.array(segs, pa.string()),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    kept = sorted_group_min(exploded, ["seg"], ["doc_id", "seg_idx"])

    def join_segs(batch: pa.Table, starts: np.ndarray) -> pa.Table:
        segs = batch.column("seg").to_pylist()
        ends = list(starts[1:]) + [batch.num_rows]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(pa.array(starts, pa.int64())),
                "text_dedup": pa.array(
                    [" ".join(segs[a:b]) for a, b in zip(starts, ends)], pa.string()
                ),
            }
        )

    return map_sorted_runs(
        kept, ["doc_id"], ["seg_idx", "seg"], join_segs, order=[("seg_idx", "ascending")]
    )


def sorted_group_min(
    rows_ds,
    key_cols: Sequence[str],
    value_cols: Sequence[str],
    descending: Optional[Sequence[bool]] = None,
):
    """One row per distinct key: the row FIRST in the (key_cols + value_cols)
    sort order — the groupby-argmin/argmax primitive on the sorted-adjacency
    shape (``runs.map_sorted_runs``): Ray's groupby aggregate pays
    ~25 µs of machinery per group, a native sort does not.

    ``descending`` flags apply to the VALUE columns (keys always ascend), so
    e.g. ``descending=[True, False]`` on values (score, term) yields the
    per-key argmax-by-score with term tie-break.

    Ray sorts by the keys; each block orders its rows by the values too,
    which makes each run's FIRST row its winner: a vectorized
    ``take(run_starts)``."""
    from vigil_ray.stages.blocks import coalesce_blocks
    from vigil_ray.stages.runs import map_sorted_runs

    key_cols = list(key_cols)
    all_cols = key_cols + list(value_cols)
    desc = descending if descending is not None else [False] * len(value_cols)
    order = [(c, "descending" if d else "ascending") for c, d in zip(value_cols, desc)]

    def firsts(batch: pa.Table, starts: np.ndarray) -> pa.Table:
        return batch.select(all_cols).take(pa.array(starts, pa.int64()))

    return map_sorted_runs(
        coalesce_blocks(rows_ds), key_cols, value_cols, firsts, order=order
    )


def sorted_group_sum(rows_ds, key_cols: Sequence[str], sum_cols: Sequence[str]):
    """One row per distinct key with the int64 SUM of each ``sum_cols`` —
    thin wrapper over :func:`sorted_group_agg` (kept for its many call
    sites). Sums are integer-exact (int64 accumulate; callers with float
    costs should quantize first — the int path is what a token/byte budget
    needs)."""
    return sorted_group_agg(rows_ds, key_cols, [(c, "sum", c) for c in sum_cols])


_AGG_REDUCE = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def sorted_group_agg(rows_ds, key_cols: Sequence[str], specs: Sequence[tuple]):
    """One row per distinct key with per-column reductions — the groupby
    primitive on the sorted-adjacency shape (``runs.map_sorted_runs``):
    a native sort + vectorized per-run ``np.{add,minimum,maximum}.reduceat``
    replaces the ~25 µs/group machinery of a hash aggregate. With no
    ``specs`` it is the distinct reduce: one row per distinct key.

    ``specs`` is a sequence of ``(col, op, out_name)`` with op in
    ``{"sum", "min", "max"}``; the same input col may appear under several
    ops/out names. ``sum`` takes integer columns only (``ValueError``
    otherwise) and accumulates int64, integer-exact — quantize float costs
    first; ``min``/``max`` keep the column's native type.
    """
    from vigil_ray.stages.blocks import coalesce_blocks
    from vigil_ray.stages.runs import map_sorted_runs, np_col, require_int_cols

    key_cols = list(key_cols)
    specs = [tuple(s) for s in specs]
    for _, op, _out in specs:
        if op not in _AGG_REDUCE:
            raise ValueError(f"sorted_group_agg: unknown op {op!r}")
    rows_ds = coalesce_blocks(rows_ds)
    require_int_cols(rows_ds, [c for c, op, _ in specs if op == "sum"], "sorted_group_agg")

    def run_aggs(batch: pa.Table, starts: np.ndarray) -> pa.Table:
        out = batch.select(key_cols).take(pa.array(starts, pa.int64()))
        for c, op, name in specs:
            arr = np_col(batch, c)
            typ = batch.column(c).type
            if op == "sum":
                arr, typ = arr.astype(np.int64), pa.int64()
            out = out.append_column(name, pa.array(_AGG_REDUCE[op].reduceat(arr, starts), typ))
        return out

    return map_sorted_runs(rows_ds, key_cols, [c for c, _, _ in specs], run_aggs)


def sorted_group_topk(ds, key_cols: Sequence[str], order: Sequence[Tuple[str, str]], k: int):
    """The ``k`` first rows of each distinct key under ``order`` (Arrow
    ``sort_by`` keys, e.g. ``[("n_chars", "descending"), ("doc_id",
    "ascending")]``), all columns kept — the per-key top-k / head-k
    primitive on the sorted-adjacency shape (``runs.map_sorted_runs``).

    Top-k decomposes, so every input block first sorts itself and keeps
    its ``k`` first rows per key (a map-side pre-cap): the sort carries at
    most ``k`` rows per (block, key), and a hot key's run is at most
    ``k`` × blocks rows. Each sorted block then keeps the ``k`` first rows
    of each run. Rows tied on key and ``order`` are kept in no set order:
    end ``order`` with a unique column for a deterministic result. An
    exception raised upstream keeps its type on the driver."""
    from vigil_ray.stages.runs import map_sorted_runs, run_starts

    key_cols = list(key_cols)
    order = list(order)
    sort_keys = [(c, "ascending") for c in key_cols] + order

    def head(batch: pa.Table, starts: np.ndarray) -> pa.Table:
        run_len = np.diff(starts, append=batch.num_rows)
        pos = np.arange(batch.num_rows) - np.repeat(starts, run_len)
        return batch.filter(pa.array(pos < k))

    def pre_cap(block: pa.Table) -> pa.Table:
        block = block.sort_by(sort_keys)
        return head(block, run_starts(block, key_cols))

    capped = ds.map_batches(pre_cap, batch_format="pyarrow", batch_size=None)
    capped.context.raise_original_map_exception = True
    return map_sorted_runs(capped, key_cols, [c for c, _ in order], head, order=order)


# --------------------------------------------------------------------------
# distributed ordered prefix sum → shard packing, deterministic shuffle
# --------------------------------------------------------------------------

def prefix_scan(
    ds, sort_cols: Sequence[str], cost_col: Optional[str] = None, op: str = "sum"
):
    """Append ``cum_excl`` — the EXCLUSIVE running ``op`` ("sum" or "max") of
    ``cost_col`` (or the 0-based row rank when ``cost_col`` is None, sum
    only) in ``sort_cols`` order. First row gets 0 for sum, ``-inf`` for max
    (no preceding rows).

    The canonical two-phase distributed prefix scan on
    ``runs.scan_sorted_blocks``: globally sort and PIN the block layout
    (the barrier is inherent: no row can know its prefix before every
    earlier block's total exists), reduce each block to its total, walk
    the block totals on the driver into exclusive block offsets, and
    combine them with the in-block running scan. The sum is
    :func:`grouped_prefix_scan` with no key (integer-exact for integer
    costs). Sort keys must be unique.
    """
    if op not in ("sum", "max"):
        raise ValueError(f"unsupported prefix op: {op}")
    if op == "sum":
        return grouped_prefix_scan(ds, [], sort_cols, cost_col)
    if not cost_col:
        raise ValueError("prefix max needs a cost column")
    from vigil_ray.stages.runs import np_col, scan_sorted_blocks

    # MAX never accumulates, so float is exact (values must fit a double)
    def values(block: pa.Table) -> np.ndarray:
        return np_col(block, cost_col).astype(np.float64)

    def summarize(block: pa.Table, starts: np.ndarray) -> dict:
        return {"total": pa.array([values(block).max()], pa.float64())}

    def walk(blocks: List[dict]) -> list:
        offsets, run = [], float("-inf")
        for b in blocks:
            offsets.append(run)
            run = max(run, b["total"])
        return offsets

    def apply(block: pa.Table, starts: np.ndarray, base: float) -> pa.Table:
        # exclusive running max: shift the inclusive accumulate right
        inc = np.maximum.accumulate(values(block))
        cum = np.empty_like(inc)
        cum[0] = base
        cum[1:] = np.maximum(base, inc[:-1])
        return block.append_column("cum_excl", pa.array(cum, pa.float64()))

    return scan_sorted_blocks(
        ds, [], sort_cols, lambda types: (summarize, walk, apply)
    )


def grouped_prefix_scan(
    ds,
    key_cols: Sequence[str],
    order_cols: Sequence[str],
    cost_col: Optional[str] = None,
):
    """Append ``cum_excl`` — the EXCLUSIVE running sum of ``cost_col`` (or
    the 0-based row rank when ``cost_col`` is None) WITHIN each ``key_cols``
    partition, ordered by ``order_cols`` — the distributed form of
    ``sum(cost) OVER (PARTITION BY key ORDER BY ord)`` / ``row_number()``.

    A block-carry scan (``runs.scan_sorted_blocks``): each block reports
    its first- and last-run totals, and the driver walks the blocks in
    order keeping one (key, acc) pair. Unlike the collect-list window
    pattern (sessions / cumulative), no worker ever holds a whole key's
    history: a single key spanning the entire corpus streams through in
    block-sized pieces — this is the 10^12-row window-analytic shape.
    Sums are integer-exact for integer costs (a 100-TB token/byte budget
    exceeds 2^53, where float addition diverges from the SQL window's
    one-shot sum). With no ``key_cols`` it is the global prefix sum.
    """
    from vigil_ray.stages.runs import np_col, scan_sorted_blocks

    def make_scan(types: dict):
        int_exact = cost_col is None or (
            cost_col in types and pa.types.is_integer(types[cost_col])
        )
        np_dtype = np.int64 if int_exact else np.float64
        cum_type = pa.int64() if int_exact else pa.float64()

        def costs(block: pa.Table) -> np.ndarray:
            if cost_col:
                return np_col(block, cost_col).astype(np_dtype)
            return np.ones(block.num_rows, dtype=np.int64)

        def summarize(block: pa.Table, starts: np.ndarray) -> dict:
            c = costs(block)
            first_end = np.append(starts, block.num_rows)[1]
            return {
                "first_total": pa.array([c[:first_end].sum()], cum_type),
                "last_total": pa.array([c[starts[-1]:].sum()], cum_type),
            }

        def walk(blocks: List[dict]) -> list:
            zero = 0 if int_exact else 0.0
            carries, prev_key, acc = [], None, zero
            for b in blocks:
                carry = acc if b["first_key"] == prev_key else zero
                carries.append(carry)
                if b["single_run"]:
                    acc = carry + b["first_total"]
                else:
                    acc = b["last_total"]
                prev_key = b["last_key"]
            return carries

        def apply(block: pa.Table, starts: np.ndarray, carry) -> pa.Table:
            c = costs(block)
            excl = np.cumsum(c) - c
            lengths = np.diff(np.append(starts, block.num_rows))
            # reset the running sum at each key run (vectorized per-run rebase)
            excl = excl - np.repeat(excl[starts], lengths)
            if carry:
                excl[: lengths[0]] += carry
            return block.append_column("cum_excl", pa.array(excl, cum_type))

        return summarize, walk, apply

    return scan_sorted_blocks(ds, key_cols, order_cols, make_scan)


def _resolve_value_type(types: dict, value_col: str):
    """The value column's Arrow type from a Dataset schema's ``{column:
    type}``, with a float64 fallback for null-typed / untyped columns.
    Pandas-backed blocks report NUMPY dtypes from ``ds.schema()`` (found by
    property test: an all-None object column is not a ``pa.DataType`` and
    ``pa.types.is_null`` raises), so non-Arrow entries are mapped via
    ``pa.from_numpy_dtype`` first."""
    vtype = types.get(value_col)
    if vtype is not None and not isinstance(vtype, pa.DataType):
        try:
            vtype = pa.from_numpy_dtype(vtype)
        except (TypeError, pa.lib.ArrowNotImplementedError):
            vtype = None
    if vtype is None or pa.types.is_null(vtype):
        vtype = pa.float64()
    return vtype


def _value_col(block: pa.Table, value_col: str, vtype) -> pa.Array:
    """``value_col`` as one array; an all-null block reports a ``null``-typed
    column (from_items / filtered inputs), cast to the type resolved once on
    the driver so every block emits one consistent type."""
    import pyarrow.compute as pc

    col = block.column(value_col).combine_chunks()
    return pc.cast(col, vtype) if pa.types.is_null(col.type) else col


def grouped_fill_forward(
    ds,
    key_cols: Sequence[str],
    order_cols: Sequence[str],
    value_col: str,
    out_col: str = "filled",
):
    """Append ``out_col`` — the last non-null ``value_col`` at or before each
    row WITHIN its ``key_cols`` partition, ordered by ``order_cols`` (LOCF /
    gap-fill imputation; SQL ``last_value(v IGNORE NULLS) OVER (PARTITION BY
    key ORDER BY ord ROWS UNBOUNDED PRECEDING)``). Rows before a key's first
    observation stay null.

    A block-carry scan (``runs.scan_sorted_blocks``): the driver walk
    threads the last-seen value across block boundaries (only a block's
    FIRST run can owe a value from earlier blocks), and the second pass
    fills within blocks vectorized. No worker ever holds a key's history.
    """
    import pyarrow.compute as pc

    from vigil_ray.stages.runs import scan_sorted_blocks

    def make_scan(types: dict):
        vtype = _resolve_value_type(types, value_col)

        def summarize(block: pa.Table, starts: np.ndarray) -> dict:
            # last non-null of the LAST run (null if the run is all-null:
            # the run STARTS in this block, so nothing earlier can exist
            # for it unless it is the block's only run)
            tail = _value_col(block, value_col, vtype).slice(int(starts[-1]))
            valid = np.flatnonzero(pc.is_valid(tail).to_numpy(zero_copy_only=False))
            last = tail.slice(int(valid[-1]), 1) if len(valid) else pa.nulls(1, vtype)
            return {"last_val": last}

        def walk(blocks: List[dict]) -> list:
            carries, prev_key, acc = [], None, None
            for b in blocks:
                carry = acc if b["first_key"] == prev_key else None
                carries.append(carry)
                # a run spanning the whole block passes the carry through
                # its nulls
                if b["single_run"] and b["last_val"] is None:
                    acc = carry
                else:
                    acc = b["last_val"]
                prev_key = b["last_key"]
            return carries

        def apply(block: pa.Table, starts: np.ndarray, carry) -> pa.Table:
            col = _value_col(block, value_col, vtype)
            n = block.num_rows
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            lengths = np.diff(np.append(starts, n))
            pos = np.arange(n, dtype=np.int64)
            seen = np.maximum.accumulate(np.where(valid, pos, -1))
            has_val = seen >= np.repeat(starts, lengths)  # observed in this run
            taken = col.take(pa.array(np.maximum(seen, 0), pa.int64()))
            out = pc.if_else(pa.array(has_val), taken, pa.scalar(None, vtype))
            if carry is not None:
                first_end = lengths[0]
                head = pc.if_else(
                    pa.array(~has_val[:first_end]),
                    pa.scalar(carry, vtype),
                    out.slice(0, first_end),
                )
                out = pa.concat_arrays([head, out.slice(first_end)])
            return block.append_column(out_col, out)

        return summarize, walk, apply

    return scan_sorted_blocks(ds, key_cols, order_cols, make_scan)


def grouped_shift(
    ds,
    key_cols: Sequence[str],
    order_cols: Sequence[str],
    value_col: str,
    periods: int = 1,
    out_col: str = "shifted",
):
    """Append ``out_col`` — ``value_col`` shifted by one row WITHIN each
    ``key_cols`` partition in ``order_cols`` order: SQL ``lag(v, 1)``
    (``periods=1``) / ``lead(v, 1)`` (``periods=-1``) ``OVER (PARTITION BY
    key ORDER BY ord)``. The partition's edge row gets null. Only |1| is
    supported — a one-row shift needs only the ADJACENT block's edge row,
    so the driver walk stays block-count-sized.

    A block-carry scan (``runs.scan_sorted_blocks``): each block reports
    its first and last value; the driver hands each block its neighbor's
    edge value when the run continues across the boundary, and the second
    pass shifts within blocks vectorized. No worker holds a key's history.
    """
    import pyarrow.compute as pc

    from vigil_ray.stages.runs import scan_sorted_blocks

    if periods not in (1, -1):
        raise ValueError("grouped_shift supports periods=1 (lag) or -1 (lead)")

    def make_scan(types: dict):
        vtype = _resolve_value_type(types, value_col)

        def summarize(block: pa.Table, starts: np.ndarray) -> dict:
            col = _value_col(block, value_col, vtype)
            return {"first_val": col.slice(0, 1), "last_val": col.slice(len(col) - 1, 1)}

        def walk(blocks: List[dict]) -> list:
            # the neighbor-block value the block's edge row takes, or None
            # when the run does not continue across that boundary
            if periods == 1:  # lag: row 0 takes the PREVIOUS block's last value
                pairs = zip([None] + blocks[:-1], blocks)
                return [
                    p["last_val"]
                    if p is not None and p["last_key"] == b["first_key"]
                    else None
                    for p, b in pairs
                ]
            pairs = zip(blocks, blocks[1:] + [None])  # lead: the NEXT block's first
            return [
                nx["first_val"]
                if nx is not None and nx["first_key"] == b["last_key"]
                else None
                for b, nx in pairs
            ]

        def apply(block: pa.Table, starts: np.ndarray, carry) -> pa.Table:
            col = _value_col(block, value_col, vtype)
            n = block.num_rows
            lengths = np.diff(np.append(starts, n))
            if periods == 1:
                idx = np.arange(n, dtype=np.int64) - 1
                has = idx >= np.repeat(starts, lengths)  # run start per row
            else:
                idx = np.arange(n, dtype=np.int64) + 1
                has = idx < np.repeat(np.append(starts[1:], n), lengths)  # run end
            taken = col.take(pa.array(np.clip(idx, 0, n - 1), pa.int64()))
            out = pc.if_else(pa.array(has), taken, pa.scalar(None, vtype))
            if carry is not None:
                patch = pa.array([carry], vtype)
                if periods == 1:
                    out = pa.concat_arrays([patch, out.slice(1)])
                else:
                    out = pa.concat_arrays([out.slice(0, n - 1), patch])
            return block.append_column(out_col, out)

        return summarize, walk, apply

    return scan_sorted_blocks(ds, key_cols, order_cols, make_scan)


def _grouped_rolling(
    ds,
    key_cols: Sequence[str],
    order_cols: Sequence[str],
    value_col: str,
    window: int,
    out_col: str,
    reduce_fn,
    out_type,
):
    """SQL ``median(v) OVER (PARTITION BY key ORDER BY ord ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)`` — a per-row ORDER-STATISTIC
    window (nonlinear, unlike the prefix-scan sums), as a block-carry scan
    (``runs.scan_sorted_blocks``) generalized from :func:`grouped_shift`'s
    1-row edge to a chained ≤(window−1)-row tail carry:

    1. each block reports the trailing ≤window−1 values of its LAST run;
    2. the driver walks blocks in order CHAINING tails — a run spanning
       many short blocks accumulates its true trailing values, and each
       block receives the carry its first run needs (≤window−1 values per
       block of driver state, never a key's history);
    3. the second pass computes every row's trailing-window reduction
       fully vectorized: ``sliding_window_view`` over the carry-extended
       values, run-start masking, ``reduce_fn``.

    Values must be integers (quantize first); medians of ≤``window`` ints
    are dyadic-exact doubles, so the result bit-matches a SQL ``median``
    window aggregate.
    """
    from vigil_ray.stages.runs import np_col, scan_sorted_blocks

    k_carry = window - 1

    def summarize(block: pa.Table, starts: np.ndarray) -> dict:
        n = block.num_rows
        vals = np_col(block, value_col).astype(np.int64)
        tail = vals[max(int(starts[-1]), n - k_carry) : n].tolist()
        return {"tail": pa.array([tail], pa.list_(pa.int64()))}

    def walk(blocks: List[dict]) -> list:
        carries, running, prev_key = [], [], None
        for b in blocks:
            continues = b["first_key"] == prev_key
            carries.append(list(running) if continues else [])
            tail = list(b["tail"])
            if continues and b["single_run"]:
                running = (running + tail)[-k_carry:]
            else:
                running = tail
            prev_key = b["last_key"]
        return carries

    def apply(block: pa.Table, starts: np.ndarray, carry) -> pa.Table:
        n = block.num_rows
        lengths = np.diff(np.append(starts, n))
        carry = np.asarray(carry, np.float64)
        off = len(carry)
        ext = np.concatenate([carry, np_col(block, value_col).astype(np.float64)])
        run_start_ext = np.repeat(starts + off, lengths)
        run_start_ext[: lengths[0]] = 0  # first run reaches into the carry
        eext = np.concatenate([np.full(window - 1, np.nan), ext])
        win = np.lib.stride_tricks.sliding_window_view(eext, window)
        pos = np.arange(n, dtype=np.int64) + off
        w = win[pos].copy()
        elem_pos = pos[:, None] - (window - 1) + np.arange(window)[None, :]
        w[elem_pos < run_start_ext[:, None]] = np.nan
        out = reduce_fn(w)
        if pa.types.is_integer(out_type):
            out = out.astype(np.int64)
        return block.append_column(out_col, pa.array(out, out_type))

    return scan_sorted_blocks(
        ds, key_cols, order_cols, lambda types: (summarize, walk, apply)
    )


def grouped_rolling_median(
    ds,
    key_cols: Sequence[str],
    order_cols: Sequence[str],
    value_col: str,
    window: int = 5,
    out_col: str = "rolling_median",
):
    """Trailing-window MEDIAN per row — see :func:`_grouped_rolling` for
    the sorted-block two-phase shape (chained tail carry; no per-key
    state). Integer-quantized inputs make every ≤window-element median a
    dyadic-exact double."""
    return _grouped_rolling(
        ds,
        key_cols,
        order_cols,
        value_col,
        window,
        out_col,
        lambda w: np.nanmedian(w, axis=1),
        pa.float64(),
    )


def grouped_rolling_sum(
    ds,
    key_cols: Sequence[str],
    order_cols: Sequence[str],
    value_col: str,
    window: int = 5,
    out_col: str = "rolling_sum",
):
    """Trailing-window SUM per row (SQL ``ROWS BETWEEN window-1 PRECEDING
    AND CURRENT ROW``) on the same machinery — integer-exact for
    integer-quantized inputs."""
    return _grouped_rolling(
        ds,
        key_cols,
        order_cols,
        value_col,
        window,
        out_col,
        lambda w: np.nansum(w, axis=1),
        pa.int64(),
    )


def pack_shards(ds, id_col: str, cost_col: str, shard_size: int):
    """Greedy in-order shard packing: documents in ``id_col`` order are
    assigned to consecutive shards of ≈``shard_size`` cost units
    (tokens/bytes) — ``shard_id = floor(prefix_cost / shard_size)``, the
    exact SQL window form ``floor((sum(cost) OVER (ORDER BY id) - cost) /
    S)``. The pattern behind sequence-packing / fixed-budget output shards.
    """
    scanned = prefix_scan(ds, [id_col], cost_col=cost_col)

    def finish(batch: pa.Table) -> pa.Table:
        cum = batch.column("cum_excl").combine_chunks().to_numpy(zero_copy_only=False)
        if np.issubdtype(cum.dtype, np.integer):
            shard = cum // shard_size  # exact, no float round-trip
        else:
            shard = np.floor(cum / shard_size).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "shard_id": pa.array(shard.astype(np.int64), pa.int64()),
            }
        )

    return scanned.map_batches(finish, batch_format="pyarrow")


def deterministic_shuffle(ds, id_col: str, seed: int = 42):
    """Seeded, reproducible GLOBAL shuffle rank: order by ``md5(id:seed)``
    (uniform, deterministic, cluster-size-independent — the property a
    resumable training-data shuffle needs) and emit the 1-based rank via the
    distributed prefix scan. Output: (id, shuffle_rank)."""

    def key_of(batch: pa.Table) -> pa.Table:
        keys = [
            hashlib.md5(f"{v}:{seed}".encode()).hexdigest()
            for v in batch.column(id_col).to_pylist()
        ]
        return pa.table(
            {
                id_col: batch.column(id_col),
                "shuffle_key": pa.array(keys, pa.string()),
            }
        )

    keyed = ds.map_batches(key_of, batch_format="pyarrow")
    scanned = prefix_scan(keyed, ["shuffle_key"])

    def finish(batch: pa.Table) -> pa.Table:
        rank = (
            batch.column("cum_excl").combine_chunks().to_numpy(zero_copy_only=False)
        ).astype(np.int64) + 1
        return pa.table(
            {
                id_col: batch.column(id_col),
                "shuffle_rank": pa.array(rank, pa.int64()),
            }
        )

    return scanned.map_batches(finish, batch_format="pyarrow")


def per_group_rank(ds, group_col: str, id_col: str, seed: int = 7):
    """Seeded, reproducible WITHIN-GROUP shuffle rank (1-based): rank =
    row_number over md5(id:seed) partitioned by ``group_col`` — the
    per-source ordering a deterministic data-mixing schedule consumes.

    Built on the existing global machinery instead of a per-group scan:
    sort by (group, key) so groups are contiguous, take the GLOBAL prefix
    rank, and subtract each group's exclusive start offset (a
    groups-sized count table, driver-side — never row-sized). Output:
    (id, group, rank)."""

    def key_of(batch: pa.Table) -> pa.Table:
        keys = [
            hashlib.md5(f"{v}:{seed}".encode()).hexdigest()
            for v in batch.column(id_col).to_pylist()
        ]
        return pa.table(
            {
                id_col: batch.column(id_col),
                group_col: batch.column(group_col),
                "mix_key": pa.array(keys, pa.string()),
            }
        )

    keyed = ds.map_batches(key_of, batch_format="pyarrow")
    scanned = prefix_scan(keyed, [group_col, "mix_key"]).materialize()

    # exclusive start offset per group, in the same (lexicographic) group
    # order the sort used — groups-sized, not row-sized
    counts = sorted_group_sum(
        scanned.map_batches(
            lambda b: pa.table(
                {group_col: b.column(group_col), "one": pa.array([1] * b.num_rows, pa.int64())}
            ),
            batch_format="pyarrow",
        ),
        [group_col],
        ["one"],
    ).take_all()
    counts.sort(key=lambda r: r[group_col])
    offsets, acc = {}, 0
    for r in counts:
        offsets[r[group_col]] = acc
        acc += r["one"]

    import ray

    oref = ray.put(offsets)

    def finish(batch: pa.Table) -> pa.Table:
        offs = ray.get(oref)
        glob = (
            batch.column("cum_excl").combine_chunks().to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        starts = np.array(
            [offs[g] for g in batch.column(group_col).to_pylist()], dtype=np.int64
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                group_col: batch.column(group_col),
                "rank": pa.array(glob - starts + 1, pa.int64()),
            }
        )

    return scanned.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# deterministic train/val/test split
# --------------------------------------------------------------------------

def hash_split(
    ds,
    id_col: str,
    seed: int = 42,
    bounds: Tuple[int, int] = (80, 90),
    labels: Tuple[str, str, str] = ("train", "val", "test"),
    append: bool = False,
):
    """Stable split assignment: ``bucket = int(md5(id:seed)[:8], 16) % 100``;
    bucket < bounds[0] → train, < bounds[1] → val, else test. A pure
    embarrassingly-parallel map — the split of any document never depends on
    the rest of the corpus, so it is identical at any scale or parallelism.
    ``append=True`` keeps every input column (pipeline composition);
    default output is the bare (id, split) table.
    """

    def assign(batch: pa.Table) -> pa.Table:
        out = []
        for v in batch.column(id_col).to_pylist():
            bucket = int(hashlib.md5(f"{v}:{seed}".encode()).hexdigest()[:8], 16) % 100
            out.append(
                labels[0] if bucket < bounds[0] else labels[1] if bucket < bounds[1] else labels[2]
            )
        split = pa.array(out, pa.string())
        if append:
            return batch.append_column("split", split)
        return pa.table({id_col: batch.column(id_col), "split": split})

    return ds.map_batches(assign, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Bloom-filtered anti join
# --------------------------------------------------------------------------

_BLOOM_K = 4


def _vbloom_hashes(col) -> "tuple":
    """Two independent vectorized 64-bit hashes of an Arrow column (polars
    xxhash under two seeds); Kirsch-Mitzenmacher double hashing derives the
    K probe positions as ``h1 + i*h2`` (uint64 wraparound is deterministic
    on both the build and probe side).

    polars' hash is DTYPE-SENSITIVE: the same value hashes differently as
    int32 vs int64, so a width mismatch between the Bloom build side and the
    probe side would produce silent false NEGATIVES (blocklisted rows kept).
    Canonicalize numeric widths here — on BOTH sides symmetrically — before
    hashing: signed ints → int64, unsigned → uint64, floats → float64
    (string vs large_string both land on polars Utf8 already)."""
    import polars as pl
    import pyarrow.compute as pc
    import pyarrow.types as pat

    if isinstance(col, pa.Table):
        col = col.column(0)
    t = col.type
    if pat.is_unsigned_integer(t) and t != pa.uint64():
        col = pc.cast(col, pa.uint64())
    elif pat.is_signed_integer(t) and t != pa.int64():
        col = pc.cast(col, pa.int64())
    elif pat.is_floating(t) and t != pa.float64():
        col = pc.cast(col, pa.float64())
    s = pl.from_arrow(col)
    if isinstance(s, pl.DataFrame):  # from_arrow(Table) → DataFrame
        s = s.to_series(0)
    return s.hash(seed=11).to_numpy(), s.hash(seed=23).to_numpy()


def vbloom_build(keys_ds, key_col: str, m_bits: int = 1 << 20) -> np.ndarray:
    """Distributed Bloom build: each batch of keys becomes a partial
    ``m_bits/8``-byte bitmap (vectorized hashing, no per-row Python) and
    the driver OR-reduces one bitmap per block, never the keys."""

    def partial(batch: pa.Table) -> pa.Table:
        bits = np.zeros(m_bits // 8, dtype=np.uint8)
        if batch.num_rows:
            h1, h2 = _vbloom_hashes(batch.column(key_col))
            for i in range(_BLOOM_K):
                p = ((h1 + np.uint64(i) * h2) % np.uint64(m_bits)).astype(
                    np.int64
                )
                np.bitwise_or.at(
                    bits, p >> 3, (1 << (p & 7)).astype(np.uint8)
                )
        return pa.table({"bitmap": pa.array([bits.tobytes()], pa.binary())})

    bitmap = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in keys_ds.map_batches(partial, batch_format="pyarrow").take_all():
        bitmap |= np.frombuffer(row["bitmap"], dtype=np.uint8)
    return bitmap


def vbloom_mask(col, bits: np.ndarray, m_bits: int) -> np.ndarray:
    """Vectorized membership probe: bool mask of rows whose all-K bits are
    set (bloom-positive; no false negatives)."""
    h1, h2 = _vbloom_hashes(col)
    keep = np.ones(len(h1), dtype=bool)
    for i in range(_BLOOM_K):
        p = ((h1 + np.uint64(i) * h2) % np.uint64(m_bits)).astype(np.int64)
        keep &= (bits[p >> 3] & (1 << (p & 7)).astype(np.uint8)) != 0
    return keep


# Bloom-positive sliver keys above this fall back to the left_anti Join
# (the gate aborts DURING driver collection, bounding driver memory).
_MAX_CONFIRM_BROADCAST = int(
    os.environ.get("GRAFT_CONFIRM_BROADCAST_KEYS", 2_000_000)
)


def bloom_anti_join(
    ds,
    keys_ds,
    key_col: str,
    blocklist_col: str,
    m_bits: int = 1 << 20,
    num_partitions: int = 8,
):
    """Rows of ``ds`` whose ``key_col`` is NOT in the blocklist.

    Scale shape: the Bloom bitmap (m_bits/8 bytes, e.g. 128 KiB for 10⁶
    slots) is broadcast once via ``ray.put``. Rows whose bits miss are
    DEFINITELY clean and stream straight through — no shuffle. Only the
    bloom-positive sliver (true members + ~(1-e^{-kn/m})^k false positives)
    pays the exact confirm, which is a BROADCAST SEMI, not a shuffle join:
    the sliver's distinct keys broadcast once (``ray.put``, size-gated at
    ``_MAX_CONFIRM_BROADCAST``), a shuffle-free ``pc.is_in`` scan of the
    blocklist emits only the intersection (≤ sliver-sized), and that
    confirmed set broadcasts back to filter the sliver — the Ray ``Join``
    operator's fixed per-run cost (~1.7 s measured at sf0.1) and its
    blocklist shuffle are both avoided. A sliver wider than the gate falls
    back to the exact ``left_anti`` hash join. Build and probe are
    vectorized (:func:`vbloom_build` / :func:`vbloom_mask` — polars xxhash
    + numpy bitmap ops, no per-row Python on the corpus).
    """
    import ray

    bitmap = vbloom_build(keys_ds, blocklist_col, m_bits)
    bref = ray.put(bitmap)

    def flag(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return batch.append_column("_bloom_hit", pa.array([], pa.bool_()))
        hit = vbloom_mask(batch.column(key_col), ray.get(bref), m_bits)
        return batch.append_column("_bloom_hit", pa.array(hit, pa.bool_()))

    def _take(want: bool):
        def f(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = batch.column("_bloom_hit")
            if not want:
                mask = pc.invert(mask)
            return batch.filter(mask).drop_columns(["_bloom_hit"])

        return f

    # materialized ONCE: the clean and candidate branches both consume it —
    # unpinned, the bloom probe AND the whole upstream lineage would run
    # twice, negating the operator's point
    flagged = ds.map_batches(flag, batch_format="pyarrow").materialize()
    clean = flagged.map_batches(_take(False), batch_format="pyarrow")
    candidates = flagged.map_batches(_take(True), batch_format="pyarrow")

    import pyarrow.compute as pc

    # sliver-sized driver reduce with EARLY ABORT: distinct bloom-positive
    # keys per batch stream to the driver; the running per-batch-unique
    # count (an upper bound on the distinct count) aborts to the Join
    # fallback BEFORE more than the gate's worth of keys ever accumulates
    # in driver memory — the gate bounds the collection, not just the
    # broadcast
    cand_uniq = candidates.map_batches(
        lambda b: pa.table({key_col: pc.unique(b.column(key_col))}),
        batch_format="pyarrow",
    )
    chunks, running, aborted = [], 0, False
    for b in cand_uniq.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        chunks.append(b.column(key_col))
        running += b.num_rows
        if running > _MAX_CONFIRM_BROADCAST:
            aborted = True
            break

    if not aborted:
        if not chunks:
            return clean  # no bloom hits: nothing to confirm
        cand_keys = pc.unique(pa.chunked_array(chunks).combine_chunks())
        # null keys never match a blocklist entry (SQL left_anti semantics,
        # matching the Join fallback) — exclude them from the confirm set
        # so null-key sliver rows always survive
        nonnull_keys = pc.drop_null(cand_keys)
        if len(nonnull_keys) == 0:
            return clean.union(candidates)  # all bloom hits had null keys
        # is_in requires probe and value_set types to agree; the Join
        # fallback would coerce (int32 vs int64, string vs large_string),
        # so cast the broadcast sets to each probe column's type — and on
        # an un-coercible pair, abort to the Join rather than diverge
        key_typ = nonnull_keys.type
        _ksch = keys_ds.schema()
        blk_typ = _ksch.types[_ksch.names.index(blocklist_col)]
        try:
            probe_keys = (
                nonnull_keys
                if key_typ.equals(blk_typ)
                else nonnull_keys.cast(blk_typ)
            )
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            probe_keys = None
            aborted = True

    if not aborted:
        kref = ray.put(probe_keys)

        def hist_match(batch: pa.Table) -> pa.Table:
            ks = batch.column(blocklist_col)
            m = pc.is_in(ks, value_set=ray.get(kref))
            return pa.table({blocklist_col: pc.unique(ks.filter(m))})

        mchunks = [
            b.column(blocklist_col)
            for b in keys_ds.map_batches(
                hist_match, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        confirmed = (
            pc.drop_null(pc.unique(pa.chunked_array(mchunks).combine_chunks()))
            if mchunks
            else None
        )
        if confirmed is None or len(confirmed) == 0:
            return clean.union(candidates)  # every bloom hit was a false positive
        # confirmed values are images of key_col values, so the cast back
        # to the probe side's type is lossless
        if not confirmed.type.equals(key_typ):
            confirmed = confirmed.cast(key_typ)
        cref = ray.put(confirmed)

        def keep_unconfirmed(batch: pa.Table) -> pa.Table:
            # is_in(null, non-null set) = false → invert keeps null-key rows
            m = pc.is_in(batch.column(key_col), value_set=ray.get(cref))
            return batch.filter(pc.invert(m))

        verified = candidates.map_batches(
            keep_unconfirmed, batch_format="pyarrow"
        )
        return clean.union(verified)

    # candidates is filter-derived (0-row blocks where a block had no bloom
    # hits) — compact so the join's schema broadcast can't be lost (blocks.py)
    verified = compact_blocks(candidates).join(
        keys_ds.select_columns([blocklist_col]),
        join_type="left_anti",
        num_partitions=num_partitions,
        on=(key_col,),
        right_on=(blocklist_col,),
    )
    return clean.union(verified)


# --------------------------------------------------------------------------
# per-group quantile filter, per-key cap
# --------------------------------------------------------------------------

def group_quantile_filter(
    ds, group_col: str, value_col: str, q: float, keep: str = "ge"
):
    """Keep rows whose ``value_col`` is ≥ (``keep="ge"``, top slice) or ≤
    (``keep="le"``, bottom slice) the per-group q-quantile
    (``quantile_disc`` semantics: the value at 1-based position
    ``ceil(q·n)`` of the sorted group).

    Scale shape: per-(group, value) COUNT histograms are pre-combined per
    batch, merged in one small groupby (size = groups × distinct values —
    bounded for integer quality scores/lengths, documented assumption),
    thresholds derived on the driver from the histogram (never the rows) and
    broadcast into a single filter pass."""
    import math

    import ray
    from collections import Counter

    from ray.data.aggregate import Sum

    if keep not in ("ge", "le"):
        raise ValueError(f"keep must be 'ge' or 'le', got {keep!r}")

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter(
            zip(batch.column(group_col).to_pylist(), batch.column(value_col).to_pylist())
        )
        gs, vs, ns = [], [], []
        for (g, v), n in counts.items():
            gs.append(g)
            vs.append(v)
            ns.append(n)
        return pa.table(
            {
                group_col: pa.array(gs, batch.column(group_col).type),
                value_col: pa.array(vs, batch.column(value_col).type),
                "n_partial": pa.array(ns, pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, value_col])
        .aggregate(Sum("n_partial", alias_name="n"))
        .take_all()
    )
    by_group: dict = {}
    for r in hist:
        by_group.setdefault(r[group_col], []).append((r[value_col], r["n"]))
    thresholds = {}
    for g, pairs in by_group.items():
        pairs.sort()
        total = sum(n for _, n in pairs)
        target = math.ceil(q * total)
        cum = 0
        for v, n in pairs:
            cum += n
            if cum >= target:
                thresholds[g] = v
                break
    tref = ray.put(thresholds)

    def keep_rows(batch: pa.Table) -> pa.Table:
        th = ray.get(tref)
        groups = batch.column(group_col).to_pylist()
        vals = batch.column(value_col).to_pylist()
        if keep == "ge":
            mask = [v >= th[g] for g, v in zip(groups, vals)]
        else:
            mask = [v <= th[g] for g, v in zip(groups, vals)]
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(keep_rows, batch_format="pyarrow")


def per_key_cap(ds, key_col: str, id_col: str, cap: int):
    """At most ``cap`` rows per key, keeping the smallest ids (the
    domain-cap / source-cap operator): :func:`sorted_group_topk` ordered by
    the id, so the sort carries ≤cap rows per (block, key) — a hot key
    cannot explode the exchange. Ids must be integers (``TypeError``).
    Output: (key, id int64) rows of the survivors."""

    def ids(batch: pa.Table) -> pa.Table:
        if not pa.types.is_integer(batch.schema.field(id_col).type):
            raise TypeError(
                f"per_key_cap ids must be int, got {batch.schema.field(id_col).type}"
            )
        return pa.table(
            {key_col: batch.column(key_col), id_col: batch.column(id_col).cast(pa.int64())}
        )

    rows = ds.map_batches(ids, batch_format="pyarrow")
    return sorted_group_topk(rows, [key_col], [(id_col, "ascending")], cap)


def per_group_weighted_sample(
    ds, group_col: str, id_col: str, weight_col: str, k: int, seed: int = 7
):
    """Deterministic weighted sample without replacement (Efraimidis–Spirakis
    exponential clocks): per group, the ``k`` rows with the smallest
    ``-ln(u)/w`` win, where ``u`` is the seeded md5-uniform of the id and
    ``w`` the row weight — each row is selected with probability ∝ weight.
    This is the data-mixing primitive (sample docs ∝ length / source weight)
    a training pipeline runs before packing.

    Scale shape: :func:`sorted_group_topk` ordered by (clock, id), so the
    sort carries ≤k rows per (block, group). Clocks are encoded as the
    IEEE-754 bit pattern of the positive double (order-preserving as int64
    and bit-reproducible by the SQL oracle up to libm ulp noise that only
    matters on exact clock ties, which the md5 uniform makes negligible).

    Ids must be integers (``TypeError``) and weights > 0 (``ValueError`` —
    a silent skip would bias the sample). Output: (group, id int64)."""
    import hashlib as _hl
    import math as _math
    import struct as _struct

    def _bits(vid, w) -> int:
        if not isinstance(vid, int):
            raise TypeError(
                f"per_group_weighted_sample ids must be int, got {type(vid).__name__}"
            )
        if not w or w <= 0:
            raise ValueError(f"weight must be > 0, got {w!r} for id {vid}")
        h = int(_hl.md5(f"{vid}:{seed}".encode()).hexdigest()[:16], 16)
        u = (h + 1) / 18446744073709551616.0
        clock = -_math.log(u) / w
        return _struct.unpack("<q", _struct.pack("<d", clock))[0]

    def clocks(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        ws = batch.column(weight_col).to_pylist()
        bits = [_bits(v, w) for v, w in zip(ids, ws)]  # checks before the cast
        return pa.table(
            {
                group_col: batch.column(group_col),
                id_col: pa.array(ids, pa.int64()),
                "__clock": pa.array(bits, pa.int64()),
            }
        )

    rows = ds.map_batches(clocks, batch_format="pyarrow")
    order = [("__clock", "ascending"), (id_col, "ascending")]
    top = sorted_group_topk(rows, [group_col], order, k)
    return top.select_columns([group_col, id_col])


def per_group_sample(ds, group_col: str, id_col: str, k: int, seed: int = 7):
    """Deterministic reservoir-style sample: the ``k`` rows with the smallest
    ``md5(id:seed)`` per group, ties by id — the distributed equivalent of a
    seeded uniform without-replacement sample per stratum, reproducible at
    any parallelism. :func:`sorted_group_topk` ordered by (md5 hex, id): the
    sort carries ≤k rows per (block, group). Ids must be integers
    (``TypeError``). Output: (group, id int64)."""
    import hashlib as _hl

    def _md5(v) -> str:
        if not isinstance(v, int):
            raise TypeError(f"per_group_sample ids must be int, got {type(v).__name__}")
        return _hl.md5(f"{v}:{seed}".encode()).hexdigest()

    def hashes(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        md5 = [_md5(v) for v in ids]  # checks before the cast
        return pa.table(
            {
                group_col: batch.column(group_col),
                id_col: pa.array(ids, pa.int64()),
                "__md5": pa.array(md5, pa.string()),
            }
        )

    rows = ds.map_batches(hashes, batch_format="pyarrow")
    order = [("__md5", "ascending"), (id_col, "ascending")]
    top = sorted_group_topk(rows, [group_col], order, k)
    return top.select_columns([group_col, id_col])


def contamination_flags(
    ds,
    bench_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    ngram: int = 5,
):
    """Benchmark DECONTAMINATION: flag corpus documents sharing any word
    ``ngram``-gram with a benchmark/eval set — the standard pre-training
    hygiene pass (eval contamination check).

    Scale shape: the benchmark side is small by nature (eval sets are KBs to
    MBs while the corpus is TBs), so its distinct n-gram HASHES are built
    distributed (per-batch partial sets, driver union — gram-count-sized)
    and broadcast ONCE via ``ray.put``; the corpus pass is an
    embarrassingly-parallel flag map. No shuffle touches corpus rows.
    Output: (id, contaminated: bool) for every corpus row.
    """
    import hashlib as _hl

    import ray

    def _grams(text: str) -> set:
        words = (text or "").split()
        return {
            " ".join(words[i : i + ngram]) for i in range(len(words) - ngram + 1)
        }

    def _hash(g: str) -> int:
        return int.from_bytes(
            _hl.md5(g.encode("utf-8")).digest()[:8], "big", signed=False
        )

    def bench_partial(batch: pa.Table) -> pa.Table:
        hs: set = set()
        for t in batch.column(text_col).to_pylist():
            hs.update(_hash(g) for g in _grams(t))
        return pa.table(
            {"h": pa.array(sorted(hs), pa.uint64())}
        )

    bench_hashes: set = set()
    for row in bench_ds.map_batches(bench_partial, batch_format="pyarrow").take_all():
        bench_hashes.add(row["h"])
    bref = ray.put(frozenset(bench_hashes))

    def flag(batch: pa.Table) -> pa.Table:
        bh = ray.get(bref)
        out = []
        for t in batch.column(text_col).to_pylist():
            out.append(any(_hash(g) in bh for g in _grams(t)))
        return pa.table(
            {
                id_col: batch.column(id_col),
                "contaminated": pa.array(out, pa.bool_()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Cross-document shared-chunk duplicate pairs
# --------------------------------------------------------------------------

def chunk_dup_pairs(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    chunk_words: int = 50,
    stride: int = 40,
    max_bucket: int = 2000,
):
    """Document pairs that share at least one IDENTICAL context-window chunk
    (:func:`chunk_documents` windows, md5 fingerprint per chunk) — the
    chunk-granular exact-duplicate detector that catches boilerplate blocks
    and partial copies whole-document hashing misses.

    Distributed shape: explode to (fp, doc) rows with per-batch local
    distinct (a doc repeating a chunk contributes one row), then the same
    sort + run-adjacency pair generator the LSH
    dedups use (``dedup.sorted_bucket_pairs`` — no per-group aggregate
    machinery, truncation counted and warned), then exact distinct pairs
    (:func:`sorted_group_agg` with no specs: a sort and one row per (a, b)
    run, no hash aggregate). Nothing corpus-sized reaches the driver.
    """
    import hashlib

    from vigil_ray.stages.dedup import sorted_bucket_pairs

    chunks = chunk_documents(
        ds, id_col=id_col, text_col=text_col, chunk_words=chunk_words, stride=stride
    )

    def fps(batch: pa.Table) -> pa.Table:
        seen = set()
        out_fp: List[str] = []
        out_id: List[int] = []
        for d, t in zip(
            batch.column(id_col).to_pylist(),
            batch.column("chunk_text").to_pylist(),
        ):
            fp = hashlib.md5(t.encode("utf-8")).hexdigest()
            if (fp, d) not in seen:
                seen.add((fp, d))
                out_fp.append(fp)
                out_id.append(d)
        return pa.table(
            {
                "fp": pa.array(out_fp, pa.string()),
                id_col: pa.array(out_id, pa.int64()),
            }
        )

    rows = chunks.map_batches(fps, batch_format="pyarrow")

    from vigil_ray.stages.dedup import all_member_pairs

    cand = sorted_bucket_pairs(
        rows, ["fp"], [id_col], all_member_pairs, max_bucket, "chunk_dup_pairs"
    )
    return sorted_group_agg(cand, ["a", "b"], [])


# --------------------------------------------------------------------------
# Token-budget selection
# --------------------------------------------------------------------------

def token_budget_select(ds, id_col: str, score_col: str, cost_col: str, budget: int):
    """Quality-ordered corpus selection under a global token budget: take
    rows in ``score_col`` DESC (ties by ``id_col``) order while the running
    ``cost_col`` total stays ≤ ``budget`` — the "best N tokens" selection
    every fixed-budget training run makes.

    Distributed shape: one :func:`prefix_scan` (global sort on the negated
    score + two pinned passes with a block-offset barrier) then an
    embarrassingly-parallel filter on the inclusive running sum. The sum
    stays integer-exact for integer costs (a 100-TB token budget exceeds
    2^53). Output ``(id, cost, cum_tokens)`` — exactly the SQL window
    ``sum(cost) OVER (ORDER BY score DESC, id) <= budget``.
    """

    def neg(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "_neg_score", pc.negate(batch.column(score_col))
        )

    scanned = prefix_scan(
        ds.map_batches(neg, batch_format="pyarrow"),
        ["_neg_score", id_col],
        cost_col=cost_col,
    )

    def finish(batch: pa.Table) -> pa.Table:
        cost = batch.column(cost_col).combine_chunks().to_numpy(zero_copy_only=False)
        cum = (
            batch.column("cum_excl").combine_chunks().to_numpy(zero_copy_only=False)
            + cost
        )
        keep = cum <= budget
        return pa.table(
            {
                id_col: pa.array(
                    batch.column(id_col)
                    .combine_chunks()
                    .to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                cost_col: pa.array(cost[keep], pa.int64()),
                "cum_tokens": pa.array(cum[keep], pa.int64()),
            }
        )

    return scanned.map_batches(finish, batch_format="pyarrow")


# k-gram string → 32-bit fingerprint hash memo (Zipf-bounded like the other
# kernel memos; the md5 prefix matches the DuckDB '0x'||substr(md5(),1,8)
# idiom used by every hash-coupled oracle in this repo).
_WINNOW_MEMO: dict = {}
_WINNOW_MEMO_CAP = 1_000_000


def _winnow_hash(gram: str) -> int:
    h = _WINNOW_MEMO.get(gram)
    if h is None:
        import hashlib

        h = int(hashlib.md5(gram.encode("utf-8")).hexdigest()[:8], 16)
        if len(_WINNOW_MEMO) < _WINNOW_MEMO_CAP:
            _WINNOW_MEMO[gram] = h
    return h


def winnow_fingerprints(
    ds,
    k: int = 3,
    w: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
    distinct: bool = False,
):
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken 2003,
    SIGMOD — the MOSS algorithm) over word ``k``-grams: hash every k-gram,
    slide a window of ``w`` consecutive hashes, and select each window's
    RIGHTMOST minimum. The guarantee: any shared run of ≥ w+k−1 words
    between two documents shares at least one selected fingerprint.

    Selection is computed by the closed form ``L_p + R_p ≥ w−1`` where
    ``L_p`` counts consecutive predecessors with ``h ≥ h_p`` and ``R_p``
    consecutive successors with ``h > h_p`` (both capped at ``w−1``;
    the strict/non-strict split encodes the rightmost tie-break) —
    equivalent to enumerating every window (pinned by a brute-force
    hypothesis differential in tests/test_corpus.py), but one vectorized
    pass per document instead of O(g·w).

    Ray shape: a pure ``map_batches`` — no shuffle, no state; k-gram
    hashes come from a per-worker Zipf-capped md5 memo. Docs with fewer
    than ``w`` k-gram positions (no full window) emit nothing, exactly as
    the classic algorithm. Output: one row per selected (doc, position):
    ``(doc_id, pos, fp_hash)`` — or, with ``distinct=True``, one row per
    unique (doc, fp_hash) with ``pos`` = the smallest selected position.
    The dedup happens AT EMISSION, per document inside the map (a
    downstream block-local dedup would be unsound: Ray re-batches map
    inputs at ``batch_size`` boundaries, so one document's rows can
    straddle two batches)."""

    def fingerprints(batch: pa.Table) -> pa.Table:
        out_ids, out_pos, out_fp = [], [], []
        for did, text in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            words = (text or "").split()
            g = len(words) - k + 1
            if g < w:
                continue
            h = np.fromiter(
                (
                    _winnow_hash(" ".join(words[p : p + k]))
                    for p in range(g)
                ),
                dtype=np.int64,
                count=g,
            )
            # L: consecutive predecessors ≥ h_p; R: consecutive successors
            # > h_p — chained shifted comparisons, each capped at w−1
            L = np.zeros(g, dtype=np.int64)
            run = np.ones(g, dtype=bool)
            for j in range(1, w):
                cmp = np.zeros(g, dtype=bool)
                cmp[j:] = h[:-j] >= h[j:]
                run &= cmp
                L += run
            R = np.zeros(g, dtype=np.int64)
            run = np.ones(g, dtype=bool)
            for j in range(1, w):
                cmp = np.zeros(g, dtype=bool)
                cmp[:-j] = h[j:] > h[:-j]
                run &= cmp
                R += run
            sel = np.flatnonzero(L + R >= w - 1)
            if distinct:
                # first (smallest) selected position per unique hash —
                # np.unique returns the first occurrence index of each value
                # in the sorted-unique order
                _, first = np.unique(h[sel], return_index=True)
                sel = sel[np.sort(first)]
            out_ids.extend([int(did)] * len(sel))
            out_pos.extend(sel.tolist())
            out_fp.extend(h[sel].tolist())
        return pa.table(
            {
                id_col: pa.array(out_ids, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
                "fp_hash": pa.array(out_fp, pa.int64()),
            }
        )

    return ds.map_batches(fingerprints, batch_format="pyarrow")


def winnow_match_pairs(
    ds,
    k: int = 3,
    w: int = 4,
    max_share: int = 10,
    max_bucket: int = 10_000,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Cross-document matches from winnowing fingerprints — the second half
    of the MOSS pipeline: documents sharing selected fingerprints, ranked by
    how many DISTINCT fingerprints they share. Fingerprints selected in more
    than ``max_share`` documents are excluded whole (MOSS's own
    over-shared/boilerplate rule — template n-grams carry no plagiarism
    signal and would pair the entire corpus).

    Exactness of the exclusion under the block pre-cap: bucket members are
    already distinct docs (the (doc, fp) dedup below), so a bucket pre-capped
    to ``max_bucket`` members still has > ``max_share`` members whenever its
    TRUE size does (any ``max_bucket`` > ``max_share``) — the
    len-check excludes it correctly without ever seeing the full bucket.

    Ray shape: winnow map with at-emission (doc, fp) dedup (``distinct=True``
    — per document inside the map, sound under Ray's input re-batching) →
    ``sorted_bucket_pairs`` keyed on fp_hash (pair explosion bounded by
    max_share²/2 per bucket) → ``sorted_group_sum`` over the pair key (a
    hash-aggregate groupby paid ~25 µs of machinery per group — 5 s over
    the 198k distinct pairs at sf0.1; the sorted-adjacency reduceat form
    is the repo's standard replacement).
    Output: (a, b, n_shared) with a < b.

    Raises ``ValueError`` when ``max_bucket <= max_share``: the pre-cap
    would then hide buckets that must be excluded."""
    from vigil_ray.stages.dedup import all_member_pairs, sorted_bucket_pairs

    if max_bucket <= max_share:
        raise ValueError(
            f"max_bucket ({max_bucket}) must exceed max_share ({max_share}) "
            "for the over-shared exclusion to stay exact"
        )
    distinct = winnow_fingerprints(
        ds, k=k, w=w, id_col=id_col, text_col=text_col, distinct=True
    )

    def bounded_pairs(members: list) -> list:
        if len(members) > max_share:
            return []
        return all_member_pairs(members)

    pairs = sorted_bucket_pairs(
        distinct,
        ["fp_hash"],
        [id_col],
        bounded_pairs,
        max_bucket,
        "winnow_match_pairs",
    )

    def weight_one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_shared", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )

    return sorted_group_sum(
        pairs.map_batches(weight_one, batch_format="pyarrow"),
        ["a", "b"],
        ["n_shared"],
    )
