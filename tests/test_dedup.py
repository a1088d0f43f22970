"""Dedup operator tests: kernel invariants + Ray-stage results on the
deterministic variants corpus."""

import pytest

from vigil_ray.sources.pages import (
    EXACT_COPY_OFFSET,
    NEAR_COPY_OFFSET,
    synthesize_variants,
)
from vigil_ray.stages.dedup import (
    hamming64,
    jaccard,
    minhash_signature,
    simhash64,
)

SF = "/root/testdata/sf0.001"


class TestKernels:
    def test_minhash_identical_texts_equal_signatures(self):
        a = minhash_signature("the quick brown fox jumps over the lazy dog")
        b = minhash_signature("the quick brown fox jumps over the lazy dog")
        assert (a == b).all()

    def test_minhash_similarity_estimate(self):
        base = "one two three four five six seven eight nine ten eleven twelve"
        near = base + " thirteen"
        a, b = minhash_signature(base), minhash_signature(near)
        est = (a == b).mean()
        true = jaccard(base, near)
        assert abs(est - true) < 0.2

    def test_simhash_identical_and_disjoint(self):
        t = "alpha beta gamma delta epsilon"
        assert simhash64(t) == simhash64(t)
        far = simhash64("zulu yankee xray whiskey victor uniform tango sierra")
        assert hamming64(simhash64(t), far) > 10

    def test_jaccard_bounds(self):
        assert jaccard("a b c d", "a b c d") == 1.0
        assert jaccard("a b c d", "x y z w") == 0.0
        assert jaccard("", "") == 1.0


@pytest.mark.usefixtures("ray_session")
class TestStages:
    @pytest.fixture(scope="class")
    def variants(self):
        t = synthesize_variants(SF)
        ids = t.column("vid").to_pylist()
        return t, ids

    def test_minhash_lsh_includes_constructed_pairs(self, variants):
        import ray.data as rd

        from vigil_ray.stages.dedup import minhash_lsh_pairs

        table, ids = variants
        out = minhash_lsh_pairs(rd.from_arrow(table), threshold=0.5).to_pandas()
        pairs = set(zip(out["a"], out["b"]))
        base = [v for v in ids if v < EXACT_COPY_OFFSET]
        for d in base:
            if d % 7 == 3:
                assert (d, d + EXACT_COPY_OFFSET) in pairs
            if d % 5 == 0:
                assert (d, d + NEAR_COPY_OFFSET) in pairs
        # all emitted pairs truly exceed the threshold
        texts = dict(zip(ids, table.column("text").to_pylist()))
        for a, b in pairs:
            assert jaccard(texts[a], texts[b]) >= 0.5

    def test_simhash_pairs_include_exact_copies(self, variants):
        import ray.data as rd

        from vigil_ray.stages.dedup import simhash_pairs

        table, ids = variants
        out = simhash_pairs(rd.from_arrow(table), max_distance=3).to_pandas()
        pairs = set(zip(out["a"], out["b"]))
        base = [v for v in ids if v < EXACT_COPY_OFFSET]
        for d in base:
            if d % 7 == 3:
                assert (d, d + EXACT_COPY_OFFSET) in pairs
        # every emitted pair really is within the distance bound
        texts = dict(zip(ids, table.column("text").to_pylist()))
        for a, b in pairs:
            assert hamming64(simhash64(texts[a]), simhash64(texts[b])) <= 3

    def test_embedding_pairs_symmetric_free_and_thresholded(self, variants):
        import numpy as np

        from vigil_ray.sources.readers import read_table
        from vigil_ray.stages.dedup import embedding_pairs

        ds = read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        out = embedding_pairs(ds, threshold=0.45).to_pandas()
        assert (out["a"] < out["b"]).all()
        pdf = ds.to_pandas()
        mat = np.asarray(pdf["embedding"].tolist(), dtype=np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        idx = {v: i for i, v in enumerate(pdf["vec_id"])}
        for a, b in zip(out["a"], out["b"]):
            assert float(mat[idx[a]] @ mat[idx[b]]) >= 0.45


@pytest.mark.usefixtures("ray_session")
def test_sessionize_semantics():
    import pandas as pd
    import ray.data as rd

    from vigil_ray.stages.sessions import sessionize

    ts = pd.to_datetime(
        [
            "2026-01-01 10:00",
            "2026-01-01 10:10",   # same session
            "2026-01-01 11:00",   # 50-min gap → new session
            "2026-01-01 11:29",   # 29 min → same
            "2026-01-02 00:00",   # new session
        ]
    )
    df = pd.DataFrame({"user_id": [1] * 5, "ts": ts})
    out = sessionize(rd.from_pandas(df), gap_minutes=30).to_pandas()
    assert out.iloc[0]["n_sessions"] == 3
    assert out.iloc[0]["n_events"] == 5
    assert out.iloc[0]["max_session_events"] == 2


@pytest.mark.usefixtures("ray_session")
def test_multimodal_payload_stage():
    import ray.data as rd

    from vigil_ray.sources.pages import synthesize_pages
    from vigil_ray.stages.multimodal import fake_decode_meta, payload_stage, decode_image

    pages = synthesize_pages(SF)
    out = payload_stage(rd.from_arrow(pages), batch_size=64, concurrency=2).to_pandas()
    assert len(out) == pages.num_rows
    assert (out["n_bytes"] > 0).all()
    assert out["payload_md5"].str.len().eq(32).all()
    assert out["width"].between(16, 255).all()
    # fake decode is deterministic
    payload = pages.column("html")[0].as_py()
    assert fake_decode_meta(payload) == fake_decode_meta(payload)
    # the real decoder is an explicit stub
    with pytest.raises(NotImplementedError):
        decode_image(payload)


@pytest.mark.usefixtures("ray_session")
def test_payload_md5_is_raw_bytes():
    """Non-UTF-8 payloads must digest byte-for-byte (a decode-first digest
    rewrites them with U+FFFD and collapses distinct payloads)."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from vigil_ray.stages.multimodal import payload_stage

    payloads = [b"\xff\xfe\x00binary", b"\xff\xfd\x00binary", "texto é".encode()]
    tbl = pa.table(
        {
            "url": pa.array([f"u{i}" for i in range(3)], pa.string()),
            "html": pa.array(payloads, pa.binary()),
        }
    )
    out = (
        payload_stage(rd.from_arrow(tbl), batch_size=4, concurrency=1)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    expected = [hashlib.md5(p).hexdigest() for p in payloads]
    assert list(out["payload_md5"]) == expected
    assert len(set(out["payload_md5"])) == 3


@pytest.mark.usefixtures("ray_session")
def test_frame_sample_and_resize_stages():
    import ray.data as rd

    from vigil_ray.sources.pages import synthesize_pages
    from vigil_ray.stages.multimodal import (
        fake_frame_digest,
        frame_sample_stage,
        resize_stage,
    )

    pages = synthesize_pages(SF)
    sub = rd.from_arrow(pages.slice(0, 40))

    frames = frame_sample_stage(sub, n_frames=4).to_pandas()
    assert len(frames) == 160  # 40 rows x 4 frames
    assert set(frames["frame_idx"]) == {0, 1, 2, 3}
    # offsets are evenly spaced byte arithmetic, idx 0 at offset 0
    one = frames[frames["url"] == frames["url"].iloc[0]].sort_values("frame_idx")
    payload = pages.column("html")[0].as_py()
    assert list(one["frame_offset"]) == [i * len(payload) // 4 for i in range(4)]
    assert list(one["frame_digest"]) == [
        fake_frame_digest(payload, i * len(payload) // 4) for i in range(4)
    ]

    resized = resize_stage(sub, max_side=64).to_pandas()
    assert len(resized) == 40
    assert (resized[["resized_w", "resized_h"]].max(axis=1) == 64).all()
    assert (resized[["resized_w", "resized_h"]].min(axis=1) >= 1).all()


class TestBucketTruncation:
    def test_truncate_bucket_counts_drops(self):
        from vigil_ray.stages.dedup import truncate_bucket

        kept, dropped = truncate_bucket([5, 3, 1, 4, 2], 3)
        assert kept == [1, 2, 3] and dropped == 2
        kept, dropped = truncate_bucket([2, 1], 5)
        assert kept == [1, 2] and dropped == 0

    def test_degenerate_bucket_caps_pair_output(self, ray_session):
        """A bucket over max_bucket emits pairs only from the kept prefix
        (the warning itself fires worker-side — counting is covered by the
        truncate_bucket unit test above)."""
        import ray.data as rd

        from vigil_ray.stages.dedup import minhash_lsh_pairs

        # 5 identical docs → every band bucket has 5 members; cap at 3
        ds = rd.from_items(
            [{"vid": i, "text": "alpha beta gamma delta epsilon zeta"} for i in range(5)]
        ).repartition(1)
        pairs = minhash_lsh_pairs(ds, threshold=0.5, max_bucket=3).to_pandas()
        got = {tuple(r) for r in pairs[["a", "b"]].itertuples(index=False)}
        # only pairs among the kept prefix {0,1,2}
        assert got == {(0, 1), (0, 2), (1, 2)}


class TestBatchEditDistances:
    def _ref(self, a: str, b: str) -> int:
        la, lb = len(a), len(b)
        d = [[0] * (la + 1) for _ in range(lb + 1)]
        for i in range(la + 1):
            d[0][i] = i
        for j in range(1, lb + 1):
            d[j][0] = j
            for i in range(1, la + 1):
                d[j][i] = min(
                    d[j - 1][i] + 1,
                    d[j][i - 1] + 1,
                    d[j - 1][i - 1] + (a[i - 1] != b[j - 1]),
                )
        return d[lb][la]

    def test_known_and_fuzz(self):
        import random

        from vigil_ray.stages.dedup import batch_edit_distances

        words = ["kitten", "sitting", "", "a", "ab", "flaw", "lawn",
                 "gumbo", "gambol", "açai", "acai", "x" * 30]
        pairs = [(a, b) for a in words for b in words]
        got = batch_edit_distances([p[0] for p in pairs], [p[1] for p in pairs])
        for (a, b), g in zip(pairs, got):
            assert g == self._ref(a, b), (a, b, g)
        rng = random.Random(7)
        alpha = "abcde "
        ta, tb = [], []
        for _ in range(100):
            ta.append("".join(rng.choice(alpha) for _ in range(rng.randint(0, 40))))
            tb.append("".join(rng.choice(alpha) for _ in range(rng.randint(0, 40))))
        got = batch_edit_distances(ta, tb)
        for a, b, g in zip(ta, tb, got):
            assert g == self._ref(a, b), (a, b, g)

    def test_max_distance_cutoff(self):
        import random

        import numpy as np

        from vigil_ray.stages.dedup import batch_edit_distances

        rng = random.Random(3)
        alpha = "abcde "
        ta, tb = [], []
        for _ in range(120):
            ta.append("".join(rng.choice(alpha) for _ in range(rng.randint(0, 50))))
            tb.append("".join(rng.choice(alpha) for _ in range(rng.randint(0, 50))))
        exact = batch_edit_distances(ta, tb)
        for d in (0, 1, 3, 7, 15):
            got = batch_edit_distances(ta, tb, max_distance=d)
            assert (got == np.minimum(exact, d + 1)).all()
        assert list(
            batch_edit_distances(["", "abc", ""], ["xy", "", ""], max_distance=1)
        ) == [2, 2, 0]


class TestBoundaryRunTruncationAccounting:
    def test_precap_drops_are_counted(self, ray_session, tmp_path):
        """A degenerate bucket spread over every input block reaches one
        sorted block whole and is truncated there; the warning reports the
        TRUE drop count. It is logged in the Ray worker that holds the
        bucket, so the test sends that worker's ``vigil_ray.dedup`` records
        to a file."""
        import logging
        from unittest import mock

        import ray.data as rd

        from vigil_ray.stages import dedup

        log = tmp_path / "warnings"
        log.touch()
        warn = dedup._warn_truncated

        def to_file(stage, n_buckets, n_dropped):
            handler = logging.FileHandler(log)
            logger = logging.getLogger("vigil_ray.dedup")
            logger.addHandler(handler)
            try:
                warn(stage, n_buckets, n_dropped)
            finally:
                logger.removeHandler(handler)
                handler.close()

        # one bucket of 50 members split across 5 blocks; cap 10 → 40 dropped
        rows = rd.from_items(
            [{"k": 1, "vid": i} for i in range(50)]
        ).repartition(5)
        with mock.patch.object(dedup, "_warn_truncated", to_file):
            out = dedup.sorted_bucket_pairs(
                rows, ["k"], ["vid"], dedup.all_member_pairs, 10, "test_stage"
            ).to_pandas()
        # kept = 10 smallest ids → C(10,2) pairs
        assert len(out) == 45
        messages = log.read_text().splitlines()
        assert any(
            "test_stage" in m and "40 member(s) dropped" in m for m in messages
        ), messages


@pytest.mark.usefixtures("ray_session")
class TestAttachPairTexts:
    def _fixture(self):
        import ray.data as rd

        corpus = rd.from_items(
            [
                {"vid": i, "text": f"document body number {i} " * 3}
                for i in range(40)
            ]
            + [{"vid": 99, "text": None}]  # null text, id present
        ).repartition(4)
        pairs = rd.from_items(
            [
                {"a": 1, "b": 2},
                {"a": 3, "b": 17},
                {"a": 5, "b": 99},    # null-text side: kept, null attached
                {"a": 7, "b": 1234},  # absent id: dropped (inner semantics)
            ]
        ).repartition(2)
        return corpus, pairs

    def _canon(self, df):
        return df.sort_values(["a", "b"]).reset_index(drop=True)

    def test_broadcast_path_semantics(self):
        from vigil_ray.stages.dedup import _attach_pair_texts

        corpus, pairs = self._fixture()
        out = self._canon(
            _attach_pair_texts(pairs, corpus, "vid", "text").to_pandas()
        )
        assert list(out["a"]) == [1, 3, 5]
        assert out.loc[0, "text_a"].startswith("document body number 1 ")
        import pandas as pd

        assert pd.isna(out.loc[2, "text_b"])  # id 99 present, text null → kept

    def test_broadcast_equals_sortmerge_fallback(self, monkeypatch):
        """The size-gated fast path and the bloom+sort-merge fallback must
        be row-for-row identical (including the absent-id drop)."""
        import pandas as pd

        import vigil_ray.stages.dedup as dd

        corpus, pairs = self._fixture()
        fast = self._canon(
            dd._attach_pair_texts(pairs, corpus, "vid", "text").to_pandas()
        )
        monkeypatch.setattr(dd, "_MAX_ATTACH_BROADCAST_IDS", 0)  # force fallback
        slow = self._canon(
            dd._attach_pair_texts(pairs, corpus, "vid", "text").to_pandas()
        )
        pd.testing.assert_frame_equal(
            fast[sorted(fast.columns)], slow[sorted(slow.columns)]
        )

    def test_large_string_corpus_empty_slice_schema(self):
        """An all-pairs-dropped attach over a large_string corpus must emit
        text_a/text_b with the corpus text type (large_string), matching
        what the sort-merge fallback would produce — not a hardcoded
        string()."""
        import pyarrow as pa
        import ray.data as rd

        from vigil_ray.stages.dedup import _attach_pair_texts

        corpus = rd.from_arrow(
            pa.table(
                {
                    "vid": pa.array([0, 1, 2], pa.int64()),
                    "text": pa.array(["x", "y", "z"], pa.large_string()),
                }
            )
        )
        # every pair references absent ids → 0-row output via the
        # empty-lookup branch
        pairs = rd.from_items([{"a": 100, "b": 200}])
        out = _attach_pair_texts(pairs, corpus, "vid", "text")
        sch = out.schema()
        assert out.count() == 0
        assert dict(zip(sch.names, sch.types))["text_a"] == pa.large_string()
        assert dict(zip(sch.names, sch.types))["text_b"] == pa.large_string()
