"""Corpus-trained n-gram language-model stages.

The reference scores documents with a FIXED char-level LM
(`/root/reference/src/perplexity.py` analog lives in
:mod:`vigil_ray.kernel.perplexity`); these stages add the other half of a
KenLM-style workflow — TRAIN the model on the corpus itself, distributed,
then score every document under it:

* :func:`bigram_counts` — the "training" pass: global (w1, w2) → n12 and
  w → n1 count tables as *Datasets* (the model parameters stay distributed;
  at web scale an n-gram table is itself corpus-sized and must never be
  collected to the driver or broadcast whole — the same rule the tf-idf df
  join follows).
* :func:`corpus_bigram_ppl` — score each document with add-one-smoothed
  bigram perplexity via ONE sorted-adjacency merge of the exploded bigram
  rows with the unigram table (join-free), then a per-doc
  ``sorted_group_sum``.
* :func:`bigram_pmi_topk` — top-k collocations by pointwise mutual
  information over the same count tables.

All log-costs are quantized to integer micro-nats (``floor(x*1e6 + 0.5)``)
before summing, so the per-doc sums are integer-EXACT and independent of
accumulation order — the property that lets a DuckDB oracle reproduce the
engine's numbers bit-for-bit (CLAUDE.md: float sums are order-sensitive;
the int path is what a budget/score pipeline needs).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa



def _doc_bigram_rows(ds, id_col: str, text_col: str):
    """Per-document bigram counts: one row per (doc, w1, w2) with its
    in-doc count ``c`` — the exploded table both the global count aggregate
    and the scoring join consume. Tokenization = lowercase whitespace split
    (identical to ``q_corpus_top_terms``). Docs with <2 words emit nothing."""

    def explode(batch: pa.Table) -> pa.Table:
        ids, w1s, w2s, cs = [], [], [], []
        for vid, text in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            words = text.lower().split()
            if len(words) < 2:
                continue
            for (a, b), c in Counter(zip(words, words[1:])).items():
                ids.append(vid)
                w1s.append(a)
                w2s.append(b)
                cs.append(c)
        return pa.table(
            {
                id_col: pa.array(ids, batch.column(id_col).type),
                "w1": pa.array(w1s, pa.string()),
                "w2": pa.array(w2s, pa.string()),
                "c": pa.array(cs, pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def unigram_counts(ds, text_col: str = "text"):
    """Global token counts (w1, n1) — fully vectorized map side (Arrow
    lower → split → flatten → value_counts per block), merged by
    ``sorted_group_sum`` so the shuffle carries the vocabulary, never the
    corpus."""
    import pyarrow.compute as pc

    from vigil_ray.stages.corpus import sorted_group_sum

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.utf8_split_whitespace(pc.utf8_lower(batch.column(text_col)))
        )
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat.combine_chunks())
        return pa.table(
            {
                "w1": vc.field("values"),
                "n1": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return sorted_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"), ["w1"], ["n1"]
    )


def corpus_bigram_ppl(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Add-one-smoothed bigram perplexity of every document under the
    corpus's OWN bigram model, end-to-end distributed and JOIN-FREE:

    1. explode per-doc bigram counts E = (id, w1, w2, c); global unigram
       table U = (w1, n1) via ``sorted_group_sum`` (vocabulary-sized, stays
       distributed; V = its count is the one driver scalar);
    2. ONE corpus-scale sort of E ∪ U by w1 (``runs.map_sorted_runs``) —
       the sorted-adjacency merge: the sort leaves each w1 run whole in one
       block, and the block orders it by (src, w2), so the U row leads
       (src=0) and its n1 propagates down the run; inside each (w1, w2)
       sub-run the global bigram count n12 is the run-sum of c. Both attach
       in the same pass, replacing the bi-table build + two hash joins of
       the earlier design (each Ray join spins a shuffle-aggregator pool;
       measured ~3 s of machinery per join at sf0.1 — the same
       ~25 µs/group tax ``sorted_group_sum`` exists to avoid). Nothing is
       collected to the driver but V;
    3. per-row integer cost c·floor((ln(n1+V) − ln(n12+1))·1e6 + 0.5)
       (micro-nats) computed in the same pass, per-doc ``sorted_group_sum``,
       ppl = exp(mean).

    Output: (id, n_bigrams, ppl) for every doc with ≥2 words, ppl quantized
    half-up to 6 decimals."""
    from vigil_ray.stages.blocks import coalesce_blocks, compact_blocks
    from vigil_ray.stages.corpus import sorted_group_sum
    from vigil_ray.stages.runs import map_sorted_runs, np_col, run_starts

    id_type = dict(zip(ds.schema().names, ds.schema().types))[id_col]
    rows = _doc_bigram_rows(ds, id_col, text_col)
    uni = compact_blocks(unigram_counts(ds, text_col))
    vocab = uni.count()

    cols = ["w1", "src", "w2", id_col, "c", "n1"]

    def tag_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "w1": batch.column("w1"),
                "src": pa.array(np.ones(n, np.int8)),
                "w2": batch.column("w2"),
                id_col: batch.column(id_col),
                "c": batch.column("c"),
                "n1": pa.array(np.zeros(n, np.int64)),
            }
        )

    def tag_uni(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "w1": batch.column("w1"),
                "src": pa.array(np.zeros(n, np.int8)),
                "w2": pa.array([""] * n, pa.string()),
                id_col: pa.nulls(n, id_type),
                "c": pa.array(np.zeros(n, np.int64)),
                "n1": batch.column("n1"),
            }
        )

    combined = rows.map_batches(tag_rows, batch_format="pyarrow").union(
        uni.map_batches(tag_uni, batch_format="pyarrow")
    )

    def score(batch: pa.Table, w1_starts: np.ndarray) -> pa.Table:
        """Per-row integer costs of one block's bigram rows: each w1 run's
        n1 is its leading U row's (src 0), each (w1, w2) sub-run's n12 is
        the sum of its c."""
        src = np_col(batch, "src")
        e_mask = src == 1
        if not e_mask.any():
            return pa.table(
                {
                    id_col: pa.array([], id_type),
                    "cost": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                }
            )
        w1_lens = np.diff(np.append(w1_starts, batch.num_rows))
        run_n1 = np.where(src[w1_starts] == 0, np_col(batch, "n1")[w1_starts], -1)
        n1_e = np.repeat(run_n1, w1_lens)[e_mask]

        eb = batch.filter(pa.array(e_mask))
        e_starts = run_starts(eb, ["w1", "w2"])
        e_lens = np.diff(np.append(e_starts, eb.num_rows))
        c_e = np_col(eb, "c").astype(np.int64)
        row_n12 = np.repeat(np.add.reduceat(c_e, e_starts), e_lens)

        # inner semantics: a bigram whose prefix has no unigram row cannot
        # occur by construction (every prefix is a corpus token); drop
        # defensively rather than emit a wrong cost
        ok = n1_e >= 0
        if not ok.all():
            eb = eb.filter(pa.array(ok))
            n1_e, row_n12, c_e = n1_e[ok], row_n12[ok], c_e[ok]
        nll_micro = np.floor(
            (np.log(n1_e + vocab) - np.log(row_n12 + 1)) * 1e6 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                id_col: eb.column(id_col),
                "cost": pa.array(c_e * nll_micro, pa.int64()),
                "c": pa.array(c_e, pa.int64()),
            }
        )

    scored = map_sorted_runs(
        coalesce_blocks(combined),
        ["w1"],
        cols,
        score,
        order=[("src", "ascending"), ("w2", "ascending")],
    )
    per_doc = sorted_group_sum(scored, [id_col], ["cost", "c"])

    def finish(batch: pa.Table) -> pa.Table:
        tot = batch.column("cost").combine_chunks().to_numpy(zero_copy_only=False)
        n = batch.column("c").combine_chunks().to_numpy(zero_copy_only=False)
        ppl = np.exp(tot / 1e6 / n)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "n_bigrams": pa.array(n, pa.int64()),
                "ppl": pa.array(np.floor(ppl * 1e6 + 0.5) / 1e6, pa.float64()),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


def bigram_pmi_topk(
    ds,
    text_col: str = "text",
    min_count: int = 5,
    k: int = 20,
):
    """Top-k collocations by PMI: ln((n12/Tb) / ((n1/Tu)·(n2/Tu))) over the
    distributed bigram/unigram count tables, restricted to bigrams with
    n12 ≥ ``min_count`` (the standard stability floor). The unigram table
    joins in twice (prefix then suffix word); totals Tb/Tu are two scalar
    aggregates. PMI is emitted as integer micro-nats (same floor-half-up
    quantization as :func:`corpus_bigram_ppl`) so the oracle compares
    integers, not floats. Output: (w1, w2, n12, pmi_micro), top-k by
    (pmi_micro desc, w1, w2)."""
    import pyarrow.compute as pc

    from vigil_ray.stages.blocks import compact_blocks
    from vigil_ray.stages.corpus import sorted_group_sum

    rows = _doc_bigram_rows(ds, "doc_id", text_col)
    bi = compact_blocks(
        sorted_group_sum(
            rows.select_columns(["w1", "w2", "c"]).rename_columns({"c": "n12"}),
            ["w1", "w2"],
            ["n12"],
        )
    )
    uni = compact_blocks(unigram_counts(ds, text_col))

    t_bi = int(bi.sum("n12"))
    t_uni = int(uni.sum("n1"))

    frequent = bi.filter(expr=f"n12 >= {min_count}")
    # unigram tables are unique-key lookups — attach n1/n2 with two
    # sort-merge lookup joins (stages/sortmerge.py) instead of hash joins:
    # every table here is vocabulary-scale, and the sort path skips the
    # per-join shuffle-pool machinery (~3 s each at sf0.1, BASELINE.md)
    from vigil_ray.stages.sortmerge import sorted_lookup_join

    j = sorted_lookup_join(frequent, uni, ["w1"], ["n1"])
    uni2 = uni.map_batches(
        lambda b: pa.table({"w2": b.column("w1"), "n2": b.column("n1")}),
        batch_format="pyarrow",
    )
    j = sorted_lookup_join(j, uni2, ["w2"], ["n2"])

    def score(batch: pa.Table) -> pa.Table:
        n12 = batch.column("n12").combine_chunks().to_numpy(zero_copy_only=False)
        n1 = batch.column("n1").combine_chunks().to_numpy(zero_copy_only=False)
        n2 = batch.column("n2").combine_chunks().to_numpy(zero_copy_only=False)
        pmi = np.log((n12 / t_bi) / ((n1 / t_uni) * (n2 / t_uni)))
        return pa.table(
            {
                "w1": batch.column("w1"),
                "w2": batch.column("w2"),
                "n12": pc.cast(batch.column("n12"), pa.int64()),
                "pmi_micro": pa.array(
                    np.floor(pmi * 1e6 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    scored = j.map_batches(score, batch_format="pyarrow")
    return scored.sort(["pmi_micro", "w1", "w2"], descending=[True, False, False]).limit(k)


# word → feature bucket memo (Zipf: one md5 per UNIQUE word per worker).
# Capped like the CharLM memos.
_BUCKET_MEMO: dict = {}
_BUCKET_MEMO_CAP = 1_000_000


def _bucket(word: str, n_buckets: int) -> int:
    b = _BUCKET_MEMO.get(word)
    if b is None:
        import hashlib

        b = int(hashlib.md5(word.encode("utf-8")).hexdigest()[:8], 16)
        if len(_BUCKET_MEMO) < _BUCKET_MEMO_CAP:
            _BUCKET_MEMO[word] = b
    return b % n_buckets


def dsir_weights(
    ds,
    target_mod: int = 97,
    n_buckets: int = 1024,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """DSIR-style importance weights (Xie et al. 2023, arXiv:2302.03169):
    score every raw document by how target-like its hashed-token profile is,
    the selection step of data-selection-by-importance-resampling.

    Deterministic small-scale stand-in for the paper's target corpus: docs
    with ``doc_id % target_mod == 0`` are the "target" slice, the rest are
    the raw pool (no RNG, oracle-reproducible). Features are word unigrams
    hashed into ``n_buckets`` buckets via md5 (the DuckDB-matched
    ``'0x'||substr(md5(w),1,8)`` idiom); the per-bucket log-ratio
    ``ln(n_t+1) − ln(T+B) − ln(n_r+1) + ln(R+B)`` (add-1 smoothing) is
    quantized to integer micro-nats BEFORE the per-doc sum, so document
    weights are integer-exact and accumulation-order-independent — the same
    oracle-parity trick as :func:`corpus_bigram_ppl`.

    Ray shape (two streaming passes, the 100 TB form): pass 1 folds
    per-block (bucket, side) partial counts — the shuffle carries at most
    2·n_buckets rows per block, never tokens — into a B-sized stats table;
    the B integer micro-nat weights broadcast once with ``ray.put``
    (8 KiB at B=1024); pass 2 maps every document to
    ``(doc_id, is_target, n_tokens, weight_micro)``. Nothing doc-scale
    shuffles, nothing corpus-scale reaches the driver.
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        c_t: Counter = Counter()
        c_r: Counter = Counter()
        for did, text in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            words = (text or "").lower().split()
            if not words:
                continue
            acc = c_t if did % target_mod == 0 else c_r
            for w in words:
                acc[_bucket(w, n_buckets)] += 1
        buckets = sorted(set(c_t) | set(c_r))
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                "n_t": pa.array([c_t.get(b, 0) for b in buckets], pa.int64()),
                "n_r": pa.array([c_r.get(b, 0) for b in buckets], pa.int64()),
            }
        )

    stats = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n_t", alias_name="n_t"), Sum("n_r", alias_name="n_r"))
        .take_all()
    )  # ≤ n_buckets rows — bounded driver collection
    n_t = [0] * n_buckets
    n_r = [0] * n_buckets
    for row in stats:
        n_t[int(row["bucket"])] = int(row["n_t"])
        n_r[int(row["bucket"])] = int(row["n_r"])
    T, R = sum(n_t), sum(n_r)
    log = math.log
    # same left-to-right float expression as the SQL oracle, quantized per
    # bucket — micro-nat ints sum exactly in any order
    W = [
        int(
            math.floor(
                (log(n_t[b] + 1) - log(T + n_buckets) - log(n_r[b] + 1) + log(R + n_buckets))
                * 1_000_000
                + 0.5
            )
        )
        for b in range(n_buckets)
    ]
    wref = ray.put(W)

    def score(batch: pa.Table) -> pa.Table:
        Wl = ray.get(wref)
        ids, tgt, ntok, wt = [], [], [], []
        for did, text in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            words = (text or "").lower().split()
            if not words:
                continue
            ids.append(int(did))
            tgt.append(did % target_mod == 0)
            ntok.append(len(words))
            wt.append(sum(Wl[_bucket(w, n_buckets)] for w in words))
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "is_target": pa.array(tgt, pa.bool_()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "weight_micro": pa.array(wt, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
