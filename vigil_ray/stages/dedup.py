"""Corpus-level deduplication operators: exact, MinHash-LSH, SimHash,
embedding-cosine, edit distance, prefix filter.

The reference has no cross-document dedup (SURVEY.md §2.7) — these are the
north-rule / training-data-pipeline capabilities, built Ray-Data-first:

- **exact**: content-hash column in ``map_batches`` → ``groupby(hash)`` keep
  min-key (see ``vigil_ray.queries.q_dedup_exact``). Shuffle moves
  (hash, id) pairs only.
- **MinHash-LSH**: per-batch vectorized numpy minhash signatures → explode to
  (band_id, band_hash, id) rows → sorted band buckets
  (:func:`sorted_bucket_pairs`) → distinct candidate pairs (a sorted
  reduce, ``corpus.sorted_group_agg``) → exact-Jaccard verification. The
  shuffles carry band keys (16 bytes a row) and id pairs, never
  documents. b=32 bands × r=4 rows (128 perms): pair with
  Jaccard 0.89 is missed with p≈4e-14; spurious candidates are killed by the
  verify stage, so the output is deterministic.
- **SimHash**: 64-bit signature; 4×16-bit chunk banding finds candidates
  within Hamming distance ≤3 (pigeonhole: ≤3 differing bits leave ≥1 chunk
  intact).
- **embedding-cosine**: exact all-pairs via block-pair tasks — the corpus is
  normalized once into object-store blocks, and each task scans one
  (block_i, block_j) pair. O(n²) work is inherent to exact all-pairs; it is
  distributed over B(B+1)/2 tasks with two blocks of memory each, and the
  driver holds only block refs. At 10⁹+ vectors swap for the IVF/LSH
  bucketing in ``vigil_ray.stages.ann``.

Verification needs document text: candidate (a, b) pairs attach both sides
via a size-gated broadcast-exact map (``_broadcast_attach_texts``, the
candidate-scale fast path) or the Bloom-prefiltered sort-merge lookup
(``_attach_pair_texts`` fallback) — nothing corpus-sized is ever collected
to the driver or broadcast.
"""

from __future__ import annotations

import hashlib
import os
from typing import List, Tuple

import numpy as np
import pyarrow as pa

from vigil_ray.stages.corpus import sorted_group_agg

_MERSENNE = (1 << 61) - 1
_N_PERM = 128
_BANDS = 32
_ROWS = _N_PERM // _BANDS

# fixed permutation parameters (deterministic; seeded generator)
_rng = np.random.RandomState(42)
_PERM_A = _rng.randint(1, _MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)
_PERM_B = _rng.randint(0, _MERSENNE, size=_N_PERM, dtype=np.int64).astype(np.uint64)


# shingle → 64-bit hash memo: natural-language n-grams are Zipf-distributed,
# so one dict probe replaces a blake2b digest on the repeats (same cap
# pattern as the CharLM/quality memos; values identical by construction)
_SHINGLE_MEMO: dict = {}
_SHINGLE_MEMO_CAP = 2_000_000


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Stable 64-bit hashes of word n-gram shingles."""
    from vigil_ray.kernel.textstats import word_ngrams

    grams = word_ngrams(text, n)
    if not grams:
        return np.zeros(1, dtype=np.uint64)
    memo = _SHINGLE_MEMO
    get = memo.get
    out = np.empty(len(grams), dtype=np.uint64)
    for i, g in enumerate(grams):
        v = get(g)
        if v is None:
            v = int.from_bytes(
                hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(), "big"
            )
            if len(memo) < _SHINGLE_MEMO_CAP:
                memo[g] = v
        out[i] = v
    return out


def minhash_signature(text: str, n: int = 3) -> np.ndarray:
    """128-perm MinHash signature (uint64 vector)."""
    h = _shingle_hashes(text, n)
    # (s, p) permuted values; min over shingles. Modular arithmetic in object
    # ints is avoided: wrap-around multiplication is a valid universal hash.
    vals = h[:, None] * _PERM_A[None, :] + _PERM_B[None, :]
    return vals.min(axis=0)


def band_rows(vid: int, sig: np.ndarray) -> List[Tuple[int, int, int]]:
    """(band_id, band_hash, vid) rows for the LSH band buckets."""
    rows = []
    for b in range(_BANDS):
        chunk = sig[b * _ROWS : (b + 1) * _ROWS]
        digest = hashlib.blake2b(chunk.tobytes(), digest_size=8).digest()
        rows.append((b, int.from_bytes(digest, "big") >> 1, vid))
    return rows


def jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    from vigil_ray.kernel.textstats import word_ngrams

    sa, sb = set(word_ngrams(text_a, n)), set(word_ngrams(text_b, n))
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def simhash64(text: str) -> int:
    """64-bit SimHash over word features (Charikar 2002).

    The per-word hash is the first 8 bytes of md5 (big-endian) — chosen so a
    SQL oracle can recompute the identical signature (DuckDB ``md5`` +
    hex-cast + bit arithmetic; see ``vigil_ray.queries`` ``dedup_simhash_pairs``),
    turning a previously unverifiable sketch into an exactly-checked one."""
    words = text.lower().split()
    if not words:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for w in words:
        h = int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[:8], "big")
        bits = np.unpackbits(
            np.frombuffer(h.to_bytes(8, "big"), dtype=np.uint8)
        ).astype(np.int64)
        acc += bits * 2 - 1
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << (63 - i)
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def truncate_bucket(members: list, max_bucket: int):
    """Sort a bucket's members and cap to ``max_bucket``; returns
    ``(kept, n_dropped)`` so callers can COUNT what a degenerate bucket
    loses instead of silently shrinking it."""
    members = sorted(members)
    if len(members) <= max_bucket:
        return members, 0
    return members[:max_bucket], len(members) - max_bucket


def all_member_pairs(members: list) -> list:
    """All unordered (a, b) id pairs of one bucket's sorted member tuples —
    the shared ``pair_fn`` of the LSH / prefix-filter / chunk-dup bucket
    pair generators (id = first element of each member tuple)."""
    out = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            out.append((members[i][0], members[j][0]))
    return out


def _warn_truncated(stage: str, n_buckets: int, n_dropped: int) -> None:
    """One aggregated warning per exploded batch (worker-side Ray log +
    stderr): a skewed corpus that overflows ``max_bucket`` is loud, not
    silent."""
    import logging

    logging.getLogger("vigil_ray.dedup").warning(
        "%s: %d bucket(s) over max_bucket — %d member(s) dropped from pair "
        "generation (raise max_bucket or pre-filter degenerate keys)",
        stage,
        n_buckets,
        n_dropped,
    )


# --------------------------------------------------------------------------
# Ray stages
# --------------------------------------------------------------------------

def sorted_bucket_pairs(rows_ds, key_cols, member_cols, pair_fn, max_bucket, stage):
    """Candidate pairs from equal-key buckets via SORT + in-block adjacency
    (``runs.map_sorted_runs``) — the scale-shape replacement for a
    per-group collect aggregate: Ray's sort shuffle is vectorized native
    code (measured 0.13 s for 215k band rows at sf0.1), while the groupby
    aggregate pays ~25 µs of per-group machinery (measured 3.7–6.8 s over
    156k buckets, Python accumulate or not).

    The sort by key leaves each bucket whole in one block, so each block
    truncates its buckets to ``max_bucket`` members and emits their pairs
    in one map; a bucket's truncation is counted in the worker that holds
    it. The sort input is never coalesced: per-block pair work is heavy
    (``blocks.coalesce_blocks``).

    ``pair_fn(members)`` maps one bucket's sorted member tuples to (a, b)
    pairs. Returns a Dataset of candidate (a, b) rows (duplicates across
    bands possible — callers dedupe).
    """
    from vigil_ray.stages.runs import map_sorted_runs

    def bucket_pairs(batch: pa.Table, starts: np.ndarray) -> pa.Table:
        """(a, b) rows of every bucket of two or more members."""
        ends = np.append(starts[1:], batch.num_rows)
        cols = [batch.column(c) for c in member_cols]
        da, db = [], []
        n_trunc = n_dropped = 0
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s < 2:
                continue
            members = list(zip(*(c.slice(s, e - s).to_pylist() for c in cols)))
            kept, dropped = truncate_bucket(members, max_bucket)
            if dropped:
                n_trunc += 1
                n_dropped += dropped
            for a, b in pair_fn(kept):
                da.append(a)
                db.append(b)
        if n_trunc:
            _warn_truncated(stage, n_trunc, n_dropped)
        return pa.table({"a": pa.array(da, pa.int64()), "b": pa.array(db, pa.int64())})

    return map_sorted_runs(rows_ds, key_cols, member_cols, bucket_pairs)


def minhash_lsh_pairs(
    ds,
    id_col: str = "vid",
    text_col: str = "text",
    threshold: float = 0.5,
    max_bucket: int = 200,
    ngram: int = 3,
    with_texts: bool = False,
):
    """Near-duplicate pairs (a < b, exact word-``ngram`` Jaccard ≥ threshold).

    ``max_bucket`` caps pair explosion from a degenerate bucket (e.g. the
    empty-text bucket); capped buckets are truncated to their first
    ``max_bucket`` members by id — log-worthy at scale, exact here.

    Candidate recall: with b=32 bands × r=4 rows a true pair at J=t is missed
    with p=(1-t⁴)³². Verification is exact, so output precision is always 1;
    at J ≥ 0.9 (any near-duplicate worth the name) p ≈ 1.5e-15.
    """

    def to_bands(batch: pa.Table) -> pa.Table:
        bids, bhashes, vids = [], [], []
        for vid, text in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            sig = minhash_signature(text or "", ngram)
            for b, h, v in band_rows(vid, sig):
                bids.append(b)
                bhashes.append(h)
                vids.append(v)
        return pa.table(
            {
                "band_id": pa.array(bids, pa.int32()),
                "band_hash": pa.array(bhashes, pa.int64()),
                "vid": pa.array(vids, pa.int64()),
            }
        )

    bands = ds.map_batches(to_bands, batch_format="pyarrow")

    # pairs via SORT + adjacency (sorted_bucket_pairs) — replaces the
    # collect-list groupby, whose ~25 µs/group machinery dominated at 156k
    # buckets (6.8 s → sub-second); the same pair from several bands
    # collapses in a sorted distinct reduce, not a hash aggregate

    cand = sorted_bucket_pairs(
        bands,
        ["band_id", "band_hash"],
        ["vid"],
        all_member_pairs,
        max_bucket,
        "minhash_lsh_pairs",
    )
    cand = sorted_group_agg(cand, ["a", "b"], [])

    attached = _attach_pair_texts(cand, ds, id_col, text_col)

    def verify(batch: pa.Table) -> pa.Table:
        keep = []
        tas = batch.column("text_a").to_pylist()
        tbs = batch.column("text_b").to_pylist()
        for i, (ta, tb) in enumerate(zip(tas, tbs)):
            if jaccard(ta or "", tb or "", ngram) >= threshold:
                keep.append(i)
        out = batch.take(pa.array(keep, pa.int64()))
        # with_texts keeps both texts on the verified pairs so downstream
        # pair scorers (edit distance etc.) skip a second corpus lookup
        return out if with_texts else out.select(["a", "b"])

    return attached.map_batches(verify, batch_format="pyarrow")


# Size gates for the broadcast text-attach fast path; above either, the
# sort-merge attach carries the pairs instead. On a cluster, size the byte
# gate to worker heap (the lookup table is ray.put once and read
# zero-copy by every attach task).
_MAX_ATTACH_BROADCAST_IDS = int(
    os.environ.get("GRAFT_ATTACH_BROADCAST_IDS", 500_000)
)
_MAX_ATTACH_BROADCAST_BYTES = int(
    os.environ.get("GRAFT_ATTACH_BROADCAST_BYTES", 256 << 20)
)
# Bloom bitmap size (bits) of the sort-merge attach's corpus semi-filter.
_ATTACH_BLOOM_BITS = 1 << 20


def _broadcast_attach_texts(cand, ds, id_col, text_col, explode_ids):
    """Size-gated broadcast-exact attach (see ``_attach_pair_texts``):
    returns the attached Dataset, or ``None`` when either gate trips and
    the caller should fall back to the bloom + sort-merge path. Both gates
    abort DURING driver collection (running per-batch-unique id count;
    running Arrow ``nbytes`` of the text slice) — the driver never holds
    more than one gate's worth of either. The broadcast payload is an
    Arrow (id, text) table (zero-copy ``ray.get`` from plasma, unlike a
    pickled dict), and the per-batch attach is vectorized ``index_in`` +
    ``take``. The text column's Arrow type comes from ``ds``'s own schema,
    which a read knows without executing (the projection's would run it)."""
    import ray

    import pyarrow.compute as pc

    id_chunks, running = [], 0
    per_batch_uniq = cand.map_batches(explode_ids, batch_format="pyarrow").map_batches(
        lambda b: pa.table({"id": pc.unique(b.column("id"))}),
        batch_format="pyarrow",
    )
    for b in per_batch_uniq.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        id_chunks.append(b.column("id"))
        running += b.num_rows
        if running > _MAX_ATTACH_BROADCAST_IDS:
            return None
    corpus = ds.select_columns([id_col, text_col])

    # text_a/text_b carry the corpus text column's exact Arrow type (e.g.
    # large_string) so the 0-row/empty-slice branches match the sort-merge
    # fallback's schema
    if not id_chunks:
        sch = ds.schema()
        text_typ = sch.types[sch.names.index(text_col)]
        return cand.map_batches(  # no candidates: attach empty text columns
            lambda b: b.append_column(
                "text_a", pa.nulls(b.num_rows, text_typ)
            ).append_column("text_b", pa.nulls(b.num_rows, text_typ)),
            batch_format="pyarrow",
        )
    # null pair ids drop below anyway (index_in(null) = null → filtered),
    # matching the sort-merge inner merge; keep the lookup set non-null
    cand_ids = pc.drop_null(
        pc.unique(pa.chunked_array(id_chunks).combine_chunks())
    )
    idref = ray.put(cand_ids)

    def slice_corpus(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch.column(id_col), value_set=ray.get(idref))
        kept = batch.filter(m)
        return pa.table(
            {"id": kept.column(id_col), "text": kept.column(text_col)}
        )

    slices, n_bytes = [], 0
    for b in corpus.map_batches(slice_corpus, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if not b.num_rows:
            continue
        slices.append(b)
        n_bytes += b.nbytes
        if n_bytes > _MAX_ATTACH_BROADCAST_BYTES:
            import logging

            logging.getLogger("vigil_ray.dedup").warning(
                "_attach_pair_texts: candidate texts exceed %d bytes; "
                "falling back to the sort-merge attach",
                _MAX_ATTACH_BROADCAST_BYTES,
            )
            return None
    if slices:
        lookup = pa.concat_tables(slices).combine_chunks()
    else:
        sch = ds.schema()
        text_typ = sch.types[sch.names.index(text_col)]
        lookup = pa.table(
            {"id": cand_ids.slice(0, 0), "text": pa.array([], text_typ)}
        )
    tref = ray.put(lookup)

    def attach(batch: pa.Table) -> pa.Table:
        t = ray.get(tref)  # Arrow table: zero-copy from the object store
        ids = t.column("id").combine_chunks()
        txt = t.column("text").combine_chunks()
        ia = pc.index_in(batch.column("a"), value_set=ids)
        ib = pc.index_in(batch.column("b"), value_set=ids)
        out = batch.append_column("text_a", pc.take(txt, ia))
        out = out.append_column("text_b", pc.take(txt, ib))
        # inner-join semantics: a pair whose id is ABSENT from the corpus
        # (null index) drops, as the sort-merge inner merge drops it; an
        # id present with a null text keeps the pair, null attached
        keep = pc.and_(pc.is_valid(ia), pc.is_valid(ib))
        return out.filter(keep)

    return cand.map_batches(attach, batch_format="pyarrow")


def _attach_pair_texts(cand, ds, id_col: str, text_col: str):
    """Attach both documents' text to candidate (a, b) pairs.

    Two-stage semi-join, neither corpus-scale shuffle nor driver collection:

    1. **Bloom semi-filter** — a Bloom bitmap of the candidate ids (a ∪ b;
       pair-scale, OR-reduced distributed, 128 KiB broadcast) streams over
       the corpus so only bloom-positive rows (true candidates + the FP
       sliver) leave the read at all. The corpus TEXT never enters a
       shuffle — measured: moving 600k texts through either a hash join or
       a sort costs 7-9 s at sf0.1, the bloom pass ~1 s.
    2. **sorted_lookup_join** (stages/sortmerge.py) of the pairs against
       the now-candidate-sized corpus slice, once per side — a native sort
       of pair-scale rows instead of a hash join's ~3 s shuffle-pool
       machinery. Bloom false positives drop inside the inner merge (no
       false negatives by construction).

    Scale ledger: the bitmap (``_ATTACH_BLOOM_BITS``) must track the
    candidate-id count (~10 bits/key for ~1% FP); its 2^20 bits serve
    ~10⁵ candidate ids at that rate. More ids only raise the FP sliver
    that the inner merge drops.

    FAST PATH (size-gated): when the distinct candidate ids fit under
    ``_MAX_ATTACH_BROADCAST_IDS``, the whole attach is one broadcast round
    trip with NO sorts and NO bloom: candidate ids ``ray.put`` once, one
    ``pc.is_in`` corpus scan streams the candidate-sized (id, text) slice
    to the driver, and the id→text map broadcasts back to a pair-scale
    attach map. If the collected texts exceed
    ``_MAX_ATTACH_BROADCAST_BYTES`` mid-stream the collection aborts to
    the sort-merge path (one wasted corpus scan — the escape hatch, not
    the design point). Measured at sf0.1 / 2.3k pairs: 2.5 s → ~0.3 s."""

    from vigil_ray.stages.corpus import vbloom_build, vbloom_mask
    from vigil_ray.stages.sortmerge import sorted_lookup_join

    corpus = ds.select_columns([id_col, text_col])

    def explode_ids(batch: pa.Table) -> pa.Table:
        both = pa.concat_tables(
            [
                pa.table({"id": batch.column("a")}),
                pa.table({"id": batch.column("b")}),
            ]
        )
        return both

    cand = cand.materialize()  # consumed twice: bloom build + both joins

    broadcast_texts = _broadcast_attach_texts(
        cand, ds, id_col, text_col, explode_ids
    )
    if broadcast_texts is not None:
        return broadcast_texts

    import ray

    m_bits = _ATTACH_BLOOM_BITS
    bref = ray.put(
        vbloom_build(
            cand.map_batches(explode_ids, batch_format="pyarrow"), "id", m_bits
        )
    )

    def bloom_keep(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return batch
        keep = vbloom_mask(batch.column(id_col), ray.get(bref), m_bits)
        return batch.filter(pa.array(keep, pa.bool_()))

    slim = corpus.map_batches(bloom_keep, batch_format="pyarrow").materialize()

    def _as_lookup(key: str, val: str):
        def rename(batch: pa.Table) -> pa.Table:
            return pa.table(
                {key: batch.column(id_col), val: batch.column(text_col)}
            )

        return slim.map_batches(rename, batch_format="pyarrow")

    j1 = sorted_lookup_join(cand, _as_lookup("a", "text_a"), ["a"], ["text_a"])
    j2 = sorted_lookup_join(j1, _as_lookup("b", "text_b"), ["b"], ["text_b"])
    return j2


def simhash_pairs(
    ds,
    id_col: str = "vid",
    text_col: str = "text",
    max_distance: int = 3,
    max_bucket: int = 2000,
):
    """Pairs within Hamming distance ≤ max_distance via 4-chunk banding.

    ``max_bucket`` guards true degenerates only (this op is EXACT-oracle
    checked, so the cap must exceed any legitimate 16-bit-chunk bucket at
    test scale — sf0.1 measures max 398; truncation warns loudly)."""

    def to_chunks(batch: pa.Table) -> pa.Table:
        cids, chashes, vids, sigs = [], [], [], []
        for vid, text in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            sig = simhash64(text or "")
            for c in range(4):
                cids.append(c)
                chashes.append((sig >> (16 * c)) & 0xFFFF)
                vids.append(vid)
                # two's-complement fold into int64 (sig - 2^64, NOT 2^63 —
                # the latter silently clears the MSB and undercounts Hamming
                # distance; caught by the SQL oracle)
                sigs.append(sig - (1 << 64) if sig >= (1 << 63) else sig)
        return pa.table(
            {
                "chunk_id": pa.array(cids, pa.int32()),
                "chunk_hash": pa.array(chashes, pa.int32()),
                "vid": pa.array(vids, pa.int64()),
                "sig": pa.array(sigs, pa.int64()),
            }
        )

    chunks = ds.map_batches(to_chunks, batch_format="pyarrow")

    def hamming_pairs(members: list) -> list:
        out = []
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                va, sa = members[i][0], members[i][1]
                vb, sb = members[j][0], members[j][1]
                ua = sa + (1 << 64) if sa < 0 else sa
                ub = sb + (1 << 64) if sb < 0 else sb
                if hamming64(ua, ub) <= max_distance:
                    out.append((va, vb))
        return out

    cand = sorted_bucket_pairs(
        chunks,
        ["chunk_id", "chunk_hash"],
        ["vid", "sig"],
        hamming_pairs,
        max_bucket,
        "simhash_pairs",
    )
    return sorted_group_agg(cand, ["a", "b"], [])


def embedding_pairs(
    ds,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.45,
    block_rows: int = 4096,
):
    """Exact cosine near-dup pairs (a < b, cos ≥ threshold) via block-pair
    tasks: the corpus is normalized ONCE into object-store Arrow blocks, and
    each task scans one (block_i, block_j) pair with a numpy matmul. The
    driver holds only block refs — nothing corpus-sized is collected or
    broadcast; per-task memory is two blocks. O(n²) compare work is inherent
    to exact all-pairs and is spread over B(B+1)/2 independent tasks."""
    import ray
    import ray.data as rd

    def normalize(batch: pa.Table) -> pa.Table:
        mat = np.asarray(batch.column(vec_col).to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        mat = mat / norms
        return pa.table(
            {
                id_col: batch.column(id_col),
                "nvec": pa.array(list(mat), pa.list_(pa.float64())),
            }
        )

    nds = ds.map_batches(normalize, batch_format="pyarrow", batch_size=block_rows)
    refs = nds.to_arrow_refs()  # blocks stay in the object store
    n_blocks = len(refs)
    pair_ids = [
        {"i": i, "j": j} for i in range(n_blocks) for j in range(i, n_blocks)
    ]

    def scan_block_pair(batch: pa.Table) -> pa.Table:
        keep_a, keep_b = [], []
        for i, j in zip(batch.column("i").to_pylist(), batch.column("j").to_pylist()):
            ta, tb = ray.get(refs[i]), ray.get(refs[j])
            ids_a = np.asarray(ta.column(id_col).to_pylist(), dtype=np.int64)
            ids_b = np.asarray(tb.column(id_col).to_pylist(), dtype=np.int64)
            ma = np.asarray(ta.column("nvec").to_pylist(), dtype=np.float64)
            mb = np.asarray(tb.column("nvec").to_pylist(), dtype=np.float64)
            cos = ma @ mb.T
            for r, c in zip(*np.where(cos >= threshold)):
                # same-block pairs: upper triangle only (each unordered pair
                # once, no self-pairs); cross-block hits are unique per task
                # but ids are not ordered across blocks — emit (min, max)
                if i == j and r >= c:
                    continue
                a, b = int(ids_a[r]), int(ids_b[c])
                if a > b:
                    a, b = b, a
                keep_a.append(a)
                keep_b.append(b)
        return pa.table(
            {"a": pa.array(keep_a, pa.int64()), "b": pa.array(keep_b, pa.int64())}
        )

    pairs_ds = rd.from_items(pair_ids).repartition(len(pair_ids))
    return pairs_ds.map_batches(scan_block_pair, batch_format="pyarrow")


def batch_edit_distances(
    texts_a: list, texts_b: list, max_distance: int | None = None
) -> np.ndarray:
    """Exact Levenshtein distances for a batch of string pairs, vectorized
    ACROSS the batch (Wagner–Fischer, two-row form): the DP iterates over
    the longest right-side length only; each row is pure numpy over a
    (pairs × left-length) matrix. The in-row left-to-right dependency
    ``cur[i] = min(tmp[i], cur[i-1] + 1)`` resolves without a scalar scan
    via the distance-transform identity
    ``cur = arange + minimum.accumulate(tmp - arange)``.

    Strings decode to codepoint matrices through one utf-32 pass (no
    per-char Python). Cost is O(max_len² · pairs) like the scalar DP, but
    every op is a C-speed array kernel — built for candidate-pair-scale
    inputs (the output of an LSH prefilter), not corpus² scans.

    ``max_distance=d`` is the long-document scale valve (Ukkonen-style
    cutoff): distances ≤ d stay exact, anything beyond reports d+1. Pairs
    whose length difference alone exceeds d skip the DP entirely, and a
    pair whose DP row minimum passes d is settled early (row minima are
    non-decreasing) — verification cost stops tracking document length for
    genuinely distant pairs.
    """
    P = len(texts_a)
    if P == 0:
        return np.zeros(0, np.int64)
    la_all = np.array([len(s) for s in texts_a], np.int64)
    lb_all = np.array([len(s) for s in texts_b], np.int64)
    res = np.where(lb_all == 0, la_all, lb_all)  # one side empty

    if max_distance is not None:
        cap = max_distance + 1
        np.minimum(res, cap, out=res)
        live = np.abs(la_all - lb_all) <= max_distance
        res[~live & (lb_all > 0) & (la_all > 0)] = cap
        live &= (la_all > 0) & (lb_all > 0)
    else:
        cap = None
        live = (la_all > 0) & (lb_all > 0)
    sel = np.flatnonzero(live)
    if len(sel) == 0:
        return res
    texts_a = [texts_a[i] for i in sel]
    texts_b = [texts_b[i] for i in sel]
    la, lb = la_all[sel], lb_all[sel]
    n = len(sel)
    La, Lb = int(la.max()), int(lb.max())

    def matrix(texts, width):
        joined = "".join(s + "\x00" * (width - len(s)) for s in texts)
        return (
            np.frombuffer(joined.encode("utf-32-le"), dtype="<u4")
            .astype(np.int64)
            .reshape(n, width)
        )

    A, B = matrix(texts_a, La), matrix(texts_b, Lb)
    out = np.zeros(n, np.int64)
    idx = np.arange(La + 1, dtype=np.int64)[None, :]
    prev = np.broadcast_to(idx, (n, La + 1)).copy()
    tmp = np.empty((n, La + 1), np.int64)
    active = np.ones(n, bool)
    for j in range(1, Lb + 1):
        cost = (A != B[:, j - 1 : j]).astype(np.int64)
        tmp[:, 0] = j
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=tmp[:, 1:])
        cur = idx + np.minimum.accumulate(tmp - idx, axis=1)
        done = active & (lb == j)
        if done.any():
            out[done] = cur[done, la[done]]
            active &= ~done
        if cap is not None and active.any():
            # row minima never decrease → once a pair's whole row exceeds
            # max_distance its final distance does too: settle at cap
            over = active & (cur.min(axis=1) > max_distance)
            if over.any():
                out[over] = cap
                active &= ~over
        if not active.any():
            break
        prev = cur
    if cap is not None:
        np.minimum(out, cap, out=out)
    res[sel] = out
    return res


def edit_distance_pairs(
    ds=None,
    pairs=None,
    id_col: str = "vid",
    text_col: str = "text",
    texts_attached: bool = False,
    max_distance: int | None = None,
):
    """Exact edit-distance scoring of candidate near-dup pairs (the
    entity-resolution confirm step), map-side via
    :func:`batch_edit_distances`. Returns (a, b, edit_distance).

    With ``texts_attached=True`` the ``pairs`` dataset already carries
    ``text_a``/``text_b`` (e.g. from ``minhash_lsh_pairs(...,
    with_texts=True)``) — zero extra corpus passes; otherwise both texts
    attach through the Bloom-semi-filtered sort-merge lookup
    (``_attach_pair_texts`` — the corpus text never shuffles)."""
    if texts_attached:
        with_texts = pairs
    else:
        with_texts = _attach_pair_texts(pairs, ds, id_col, text_col)

    def score(batch: pa.Table) -> pa.Table:
        d = batch_edit_distances(
            [t or "" for t in batch.column("text_a").to_pylist()],
            [t or "" for t in batch.column("text_b").to_pylist()],
            max_distance=max_distance,
        )
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "edit_distance": pa.array(d, pa.int64()),
            }
        )

    return with_texts.map_batches(score, batch_format="pyarrow")


def prefix_filter_pairs(
    ds,
    id_col: str = "vid",
    text_col: str = "text",
    threshold: float = 0.7,
    ngram: int = 2,
    max_bucket: int = 200,
):
    """EXACT set-similarity self-join (word-``ngram`` Jaccard ≥ threshold)
    via df-ordered prefix filtering — the PPJoin-family candidate generator
    (Chaudhuri et al. 2006; Xiao et al. 2008), the guaranteed-no-false-
    negative complement to MinHash-LSH: under any global token order, two
    sets with overlap ≥ α must both contain the globally-SMALLEST shared
    token within their first ``l − α + 1`` tokens (α = ⌈t·l⌉, since
    J ≥ t ⟹ overlap ≥ t·max(|x|,|y|)); indexing only those prefixes, with
    the order = increasing document frequency, puts only the RAREST tokens
    in the index so buckets stay tiny.

    Ray shape — every step an existing primitive, nothing corpus-sized
    collected or broadcast: per-doc distinct shingles explode with their
    set size ``l`` → df attaches in ONE pass via
    `sortmerge.sorted_attach` (df is just each shingle run's length in a
    g-sort, so computing df and joining it back share a single sort — the
    round-3 form paid two: a `sorted_group_agg` then a
    `sorted_lookup_join` over the same g-keyed table) → per-doc rank in
    (df, shingle) order via `corpus.grouped_prefix_scan` → prefix filter
    (integer-exact α via fractions) → candidate pairs via
    `sorted_bucket_pairs` → distinct pairs via `corpus.sorted_group_agg`
    with no specs → exact Jaccard verify on texts re-attached by the
    Bloom-semi-filtered lookup. The full shingle table is sorted
    exactly twice (attach, rank); every later sort sees only prefix rows
    or candidate pairs.

    Partitioning assumption / scale ceiling (measured — BASELINE.md
    "dedup-at-scale probe"): the two full-shingle sorts carry
    corpus × distinct-shingles rows, and their footprint grows
    super-linearly past ~10⁶ docs (59.8 GiB peak at 2M docs vs
    minhash-LSH's 20.6 GiB on the identical input; both exact on the
    constructed pair set). Beyond that scale, run this join WITHIN a
    partition that already co-locates potential pairs — a hash
    partition of normalized docs, an LSH band bucket, or a per-shard
    delta — and reserve the global form for corpora whose shingle
    table fits the cluster's aggregate sort budget. MinHash-LSH
    (+ exact-Jaccard verify) is the measured corpus-global scale path.
    """
    from fractions import Fraction

    from vigil_ray.kernel.textstats import word_ngrams
    from vigil_ray.stages.corpus import grouped_prefix_scan
    from vigil_ray.stages.sortmerge import sorted_attach

    frac = Fraction(threshold).limit_denominator(1000)
    num, den = frac.numerator, frac.denominator

    def explode(batch: pa.Table) -> pa.Table:
        # shingles travel as 64-bit hashes, not strings: every downstream
        # sort/shuffle (df count, lookup join, rank scan, bucket pairs)
        # moves int64 keys instead of ~30-byte grams. A hash collision can
        # only create a SPURIOUS candidate pair — the exact-Jaccard verify
        # kills it — so correctness is untouched (the prefix principle
        # holds under any consistent global token order, hash order
        # included).
        vids, gs, ls = [], [], []
        for vid, t in zip(
            batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            grams = set(word_ngrams(t or "", ngram))
            for g in grams:
                vids.append(vid)
                gs.append(
                    int.from_bytes(
                        hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(),
                        "big",
                    )
                    >> 1
                )
                ls.append(len(grams))
        return pa.table(
            {
                "vid": pa.array(vids, pa.int64()),
                "g": pa.array(gs, pa.int64()),
                "l": pa.array(ls, pa.int64()),
            }
        )

    rows = ds.map_batches(explode, batch_format="pyarrow")
    # df(g) = number of docs containing g = the g-run's length in a g-sort
    # (shingles are per-doc DISTINCT), so one sorted_attach both computes
    # and joins it; rows has a single consumer now — no materialize needed
    withdf = sorted_attach(rows, ["g"], count_name="df")
    ranked = grouped_prefix_scan(withdf, ["vid"], ["df", "g"])

    def prefix_only(batch: pa.Table) -> pa.Table:
        l = batch.column("l").to_numpy(zero_copy_only=False)
        pos = batch.column("cum_excl").to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = (num * l + den - 1) // den  # ceil(t*l), integer-exact
        p = l - alpha + 1
        mask = pos < p
        arr = pa.array(mask)
        # l and pos ride along into the buckets: the pair generator applies
        # the PPJoin length + positional filters per emission
        return pa.table(
            {
                "g": batch.column("g").filter(arr),
                "vid": batch.column("vid").filter(arr),
                "l": batch.column("l").filter(arr),
                "pos": pa.array(pos[mask], pa.int64()),
            }
        )

    pref = ranked.map_batches(prefix_only, batch_format="pyarrow")

    def ppjoin_pairs(members: list) -> list:
        """Bucket pair generation with the two classic no-false-negative
        candidate filters (Xiao et al. 2008, PPJoin) applied per emission —
        measured at sf0.1 they cut candidates ~20× (333k → Jaccard-plausible
        pairs only), which is what the downstream text-attach and exact
        verify passes pay for:

        - **length filter**: J ≥ t needs overlap ≥ t·max(|x|,|y|) and
          overlap ≤ min(|x|,|y|), so t·max ≤ min (integer-exact as
          num·max ≤ den·min);
        - **positional filter**: at the pair's FIRST shared token (df
          order), positions (i, j) bound the overlap by
          1 + min(|x|−i−1, |y|−j−1), which must reach the equivalent
          overlap threshold α = ceil(t/(1+t)·(|x|+|y|)) =
          ceil(num·(|x|+|y|)/(num+den)). Every shared prefix token re-emits
          the pair, so the first-shared-token emission (where the bound is
          valid) is always among them — later emissions may be filtered
          spuriously, never the pair itself.

        ``members`` are sorted (vid, l, pos) tuples; sorted order makes
        a < b by construction.
        """
        out = []
        nd = num + den
        for i in range(len(members)):
            vi, li, pi = members[i]
            for j in range(i + 1, len(members)):
                vj, lj, pj = members[j]
                lo, hi = (li, lj) if li <= lj else (lj, li)
                if num * hi > den * lo:
                    continue  # length filter
                alpha_pair = -(-(num * (li + lj)) // nd)  # ceil
                if 1 + min(li - pi - 1, lj - pj - 1) < alpha_pair:
                    continue  # positional filter
                out.append((vi, vj))
        return out

    cand = sorted_bucket_pairs(
        pref, ["g"], ["vid", "l", "pos"], ppjoin_pairs, max_bucket,
        "prefix_filter_pairs",
    )
    cand = sorted_group_agg(cand, ["a", "b"], [])
    attached = _attach_pair_texts(cand, ds, id_col, text_col)

    def verify(batch: pa.Table) -> pa.Table:
        keep_a, keep_b = [], []
        for a, b, ta, tb in zip(
            batch.column("a").to_pylist(),
            batch.column("b").to_pylist(),
            batch.column("text_a").to_pylist(),
            batch.column("text_b").to_pylist(),
        ):
            if jaccard(ta or "", tb or "", ngram) >= threshold:
                keep_a.append(a)
                keep_b.append(b)
        return pa.table(
            {"a": pa.array(keep_a, pa.int64()), "b": pa.array(keep_b, pa.int64())}
        )

    return attached.map_batches(verify, batch_format="pyarrow")
