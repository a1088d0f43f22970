"""End-to-end training-corpus preparation: the composition a 100-TB web-text
job actually runs AFTER the flagship quality filter.

    quality-filtered pages
      → exact dedup (content-hash first-occurrence)
      → train/val/test hash split (deterministic md5 buckets)
      → fixed-budget shard packing (prefix-sum shard ids over kept docs)
      → write parquet partitioned by (split, shard)

Every stage is one of the already-oracle-checked operators
(``stages/corpus.py``); this module contributes the COMPOSITION and the
partitioned output layout (one directory per (split, shard)) — the layout a
manifest-driven rerun (``pipelines/manifest.run_resumable`` over input
shards) diffs to skip finished work.

Scale notes: the only shuffles are the exact-dedup sort (carrying
(hash, url)-sized rows) and the prefix-scan sort (id-ordered, two passes
over pinned blocks); the split assignment and the writes stream.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa


def prepare_corpus(
    ds,
    out_dir: str,
    key_col: str = "url",
    text_col: str = "text_scrubbed",
    shard_chars: int = 500_000,
    seed: int = 42,
):
    """Run dedup → split → pack → partitioned write over a quality-filtered
    Dataset (rows must carry ``keep`` from the flagship). Returns the
    written Dataset (url, split, shard_id) for lineage/inspection."""
    from vigil_ray.stages.corpus import hash_split, prefix_scan, sorted_group_min

    # 1. drop filtered docs, hash the text we will train on
    def kept_with_hash(batch: pa.Table) -> pa.Table:
        if "keep" in batch.column_names:
            batch = batch.filter(batch.column("keep"))
        texts = batch.column(text_col).to_pylist()
        h = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
        n = [len(t or "") for t in texts]
        return pa.table(
            {
                key_col: batch.column(key_col),
                text_col: batch.column(text_col),
                "content_hash": pa.array(h, pa.string()),
                "n_chars": pa.array(n, pa.int64()),
            }
        )

    # materialized ONCE: both the winners group-min and the semi-join's left
    # side consume it — unpinned, the expensive upstream (detect/scrub)
    # lineage would execute twice
    hashed = ds.map_batches(kept_with_hash, batch_format="pyarrow").materialize()

    # 2. exact dedup: first occurrence (min key) per content hash — the
    # sort carries (hash, key) pairs; text re-attaches by semi-join. Every
    # block of the group-min is non-empty (its sort is compacted), so its
    # first block always carries the join's schema broadcast (blocks.py).
    # The semi join keys on (content_hash, key) — key alone would also keep
    # a SAME-KEY row with different content whose hash group it never won.
    # Precondition (input guards): key_col is row-unique per content; fully
    # identical duplicate input rows are upstream malformation this exact
    # dedup cannot distinguish.
    winners = sorted_group_min(
        hashed.select_columns(["content_hash", key_col]), ["content_hash"], [key_col]
    ).rename_columns({"content_hash": "winner_hash", key_col: "winner_key"})
    deduped = hashed.join(
        winners,
        join_type="left_semi",
        num_partitions=8,
        on=("content_hash", key_col),
        right_on=("winner_hash", "winner_key"),
    )

    # 3. deterministic split — appended in place (embarrassingly parallel;
    # no self-join of the dedup lineage). Materialized ONCE: the three
    # per-split prefix scans below each consume it, and without the pin the
    # whole dedup lineage would re-execute per split (the prefix scan
    # materializes anyway, so this adds no extra barrier).
    with_split = hash_split(deduped, key_col, seed=seed, append=True).materialize()

    # 4. shard packing WITHIN each split (training shards must not straddle
    # splits): one prefix scan per split over its filtered subset
    def _finish(batch: pa.Table) -> pa.Table:
        import numpy as np

        cum = batch.column("cum_excl").combine_chunks().to_numpy(zero_copy_only=False)
        if np.issubdtype(cum.dtype, np.integer):
            shard = (cum // shard_chars).astype(np.int64)  # integer-exact
        else:
            shard = np.floor(cum / shard_chars).astype(np.int64)
        return pa.table(
            {
                key_col: batch.column(key_col),
                text_col: batch.column(text_col),
                "split": batch.column("split"),
                "shard_id": pa.array(shard, pa.int64()),
            }
        )

    def _only(split_name: str):
        def f(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc

            return batch.filter(_pc.equal(batch.column("split"), split_name))

        return f

    parts = []
    for sp in ("train", "val", "test"):
        sub = with_split.map_batches(_only(sp), batch_format="pyarrow")
        packed = prefix_scan(sub, [key_col], cost_col="n_chars")
        parts.append(packed.map_batches(_finish, batch_format="pyarrow"))

    final = parts[0].union(*parts[1:])
    final.write_parquet(out_dir, partition_cols=["split", "shard_id"])
    return final
