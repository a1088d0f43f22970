"""Training-corpus prep operators (stages/corpus.py): segment dedup, prefix
scan / shard packing / deterministic shuffle, hash split, bloom anti join,
group quantile filter, per-key cap. SQL-oracle equivalence for the wired
queries is covered by tests/test_queries_oracle.py; these tests pin the
operator semantics directly on small constructed inputs."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest


def _ds(rows):
    import ray.data as rd

    return rd.from_items(rows).repartition(3)


@pytest.mark.usefixtures("ray_session")
class TestSegmentDedup:
    def test_first_occurrence_wins_and_reassembly(self):
        from vigil_ray.stages.corpus import segment_dedup

        # seg_words=2 → doc 1: [a b][c d]; doc 2: [a b][x y]; doc 3: [x y]
        rows = [
            {"doc_id": 1, "text": "a b c d"},
            {"doc_id": 2, "text": "a b x y"},
            {"doc_id": 3, "text": "x y"},
        ]
        out = {
            r["doc_id"]: r["text_dedup"]
            for r in segment_dedup(_ds(rows), seg_words=2).take_all()
        }
        assert out[1] == "a b c d"
        assert out[2] == "x y"  # 'a b' lost to doc 1
        assert 3 not in out  # 'x y' lost to doc 2 → all segments gone

    def test_within_doc_duplicate_kept_once(self):
        from vigil_ray.stages.corpus import segment_dedup

        rows = [{"doc_id": 7, "text": "p q p q"}]
        out = segment_dedup(_ds(rows), seg_words=2).take_all()
        assert out == [{"doc_id": 7, "text_dedup": "p q"}]

    def test_tail_segment_shorter_than_window(self):
        from vigil_ray.stages.corpus import segment_dedup

        rows = [{"doc_id": 1, "text": "a b c"}]
        out = segment_dedup(_ds(rows), seg_words=2).take_all()
        assert out == [{"doc_id": 1, "text_dedup": "a b c"}]


@pytest.mark.usefixtures("ray_session")
class TestPrefixScan:
    def test_matches_numpy_cumsum(self):
        from vigil_ray.stages.corpus import prefix_scan

        rows = [{"k": i, "cost": (i * 7) % 13 + 1} for i in range(200)]
        out = prefix_scan(_ds(rows), ["k"], cost_col="cost").to_pandas()
        out = out.sort_values("k").reset_index(drop=True)
        costs = np.array([(i * 7) % 13 + 1 for i in range(200)], dtype=float)
        expect = np.cumsum(costs) - costs
        assert np.array_equal(out["cum_excl"].to_numpy(), expect)

    def test_rank_mode(self):
        from vigil_ray.stages.corpus import prefix_scan

        rows = [{"k": i} for i in range(57)]
        out = prefix_scan(_ds(rows), ["k"]).to_pandas().sort_values("k")
        assert out["cum_excl"].tolist() == [float(i) for i in range(57)]

    def test_pack_shards_boundaries(self):
        from vigil_ray.stages.corpus import pack_shards

        rows = [{"doc_id": i, "n": 10} for i in range(10)]
        out = pack_shards(_ds(rows), "doc_id", "n", 25).to_pandas()
        out = out.sort_values("doc_id")
        # prefix(excl): 0,10,20,...,90 → //25 = 0,0,0,1,1,2,2,2,3,3
        assert out["shard_id"].tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]

    def test_integer_costs_stay_exact_past_2_53(self):
        """Integer costs keep the running sum in int64 end-to-end — a float
        accumulator diverges from the SQL window's exact bigint sum once the
        prefix exceeds 2^53 (the 100-TB budget regime)."""
        from vigil_ray.stages.corpus import prefix_scan

        big = (1 << 53) + 1  # not representable as float64 increments
        rows = [{"k": i, "cost": big + i} for i in range(8)]
        out = prefix_scan(_ds(rows), ["k"], cost_col="cost").to_pandas()
        out = out.sort_values("k").reset_index(drop=True)
        assert str(out["cum_excl"].dtype) == "int64"
        run, expect = 0, []
        for i in range(8):
            expect.append(run)
            run += big + i
        assert out["cum_excl"].tolist() == expect

    def test_shuffle_rank_is_permutation_and_deterministic(self):
        from vigil_ray.stages.corpus import deterministic_shuffle

        rows = [{"doc_id": i} for i in range(100)]
        a = deterministic_shuffle(_ds(rows), "doc_id", seed=7).to_pandas()
        b = deterministic_shuffle(_ds(rows), "doc_id", seed=7).to_pandas()
        a = a.sort_values("doc_id").reset_index(drop=True)
        b = b.sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)
        assert sorted(a["shuffle_rank"]) == list(range(1, 101))
        # matches the definition: order of md5(f"{id}:7")
        keys = sorted(range(100), key=lambda i: hashlib.md5(f"{i}:7".encode()).hexdigest())
        expect = {doc: r + 1 for r, doc in enumerate(keys)}
        got = dict(zip(a["doc_id"], a["shuffle_rank"]))
        assert got == expect


@pytest.mark.usefixtures("ray_session")
class TestHashSplit:
    def test_split_fractions_and_determinism(self):
        from vigil_ray.stages.corpus import hash_split

        rows = [{"doc_id": i} for i in range(1000)]
        out = hash_split(_ds(rows), "doc_id").to_pandas()
        frac = out["split"].value_counts(normalize=True)
        assert 0.7 < frac["train"] < 0.9
        assert frac.get("val", 0) > 0.03 and frac.get("test", 0) > 0.03
        # spot-check the definition
        row0 = out[out["doc_id"] == 0]["split"].iloc[0]
        b = int(hashlib.md5(b"0:42").hexdigest()[:8], 16) % 100
        expect = "train" if b < 80 else "val" if b < 90 else "test"
        assert row0 == expect


@pytest.mark.usefixtures("ray_session")
class TestBloomAntiJoin:
    def test_exact_anti_semantics(self):
        from vigil_ray.stages.corpus import bloom_anti_join

        rows = [{"k": i % 50, "payload": i} for i in range(300)]
        block = [{"b": v} for v in (3, 17, 42)]
        out = bloom_anti_join(
            _ds(rows), _ds(block), key_col="k", blocklist_col="b", m_bits=1 << 12
        ).to_pandas()
        assert set(out["k"]) == set(range(50)) - {3, 17, 42}
        assert len(out) == 300 - 3 * 6  # 6 rows per key

    def test_tiny_bloom_forces_fp_path_still_exact(self):
        """With m_bits tiny every row is bloom-positive → the exact confirm
        (broadcast semi) carries the result alone; output must be identical,
        including the rows that were pure Bloom false positives."""
        from vigil_ray.stages.corpus import bloom_anti_join

        rows = [{"k": i, "payload": i} for i in range(64)]
        block = [{"b": v} for v in (1, 2)]
        out = bloom_anti_join(
            _ds(rows), _ds(block), key_col="k", blocklist_col="b", m_bits=8
        ).to_pandas()
        assert set(out["k"]) == set(range(64)) - {1, 2}

    def test_disjoint_keys_all_rows_survive(self):
        """Disjoint key spaces: every row survives (exercises the
        empty/near-empty sliver short-circuits — with a roomy bitmap most
        blocks have zero bloom hits)."""
        from vigil_ray.stages.corpus import bloom_anti_join

        rows = [{"k": 1000 + i, "payload": i} for i in range(80)]
        block = [{"b": v} for v in (1, 2, 3)]
        out = bloom_anti_join(
            _ds(rows), _ds(block), key_col="k", blocklist_col="b", m_bits=1 << 16
        ).to_pandas()
        assert sorted(out["k"]) == [1000 + i for i in range(80)]

    def test_string_keys_with_duplicate_rows(self):
        """String keys, duplicate ds rows per key, duplicate blocklist rows
        (the delta-ingest fingerprint shape): every occurrence of a blocked
        key drops, every occurrence of a clean key survives."""
        from vigil_ray.stages.corpus import bloom_anti_join

        rows = [{"k": f"fp_{i % 10}", "payload": i} for i in range(100)]
        block = [{"b": "fp_3"}, {"b": "fp_7"}, {"b": "fp_3"}]
        out = bloom_anti_join(
            _ds(rows), _ds(block), key_col="k", blocklist_col="b", m_bits=1 << 12
        ).to_pandas()
        assert set(out["k"]) == {f"fp_{i}" for i in range(10)} - {"fp_3", "fp_7"}
        assert len(out) == 80  # 10 occurrences per surviving key

    def test_mismatched_key_types_int32_vs_int64(self):
        """An int32 corpus key against an int64 blocklist must behave like
        the Join fallback would (coerce, not raise or mismatch) — the
        broadcast sets are cast to each is_in probe column's type."""
        import pyarrow as pa
        import ray.data as rd

        from vigil_ray.stages.corpus import bloom_anti_join

        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([i % 50 for i in range(300)], pa.int32()),
                    "payload": pa.array(list(range(300)), pa.int64()),
                }
            )
        )
        block = rd.from_arrow(
            pa.table({"b": pa.array([3, 17, 42], pa.int64())})
        )
        out = bloom_anti_join(
            ds, block, key_col="k", blocklist_col="b", m_bits=1 << 12
        ).to_pandas()
        assert set(out["k"]) == set(range(50)) - {3, 17, 42}
        assert len(out) == 300 - 3 * 6

    def test_oversized_sliver_join_fallback(self, monkeypatch):
        """Force the >_MAX_CONFIRM_BROADCAST gate so the left_anti Join
        fallback runs; semantics must match the broadcast-semi path."""
        import vigil_ray.stages.corpus as corpus_mod

        monkeypatch.setattr(corpus_mod, "_MAX_CONFIRM_BROADCAST", 1)
        rows = [{"k": i % 50, "payload": i} for i in range(300)]
        block = [{"b": v} for v in (3, 17, 42)]
        out = corpus_mod.bloom_anti_join(
            _ds(rows), _ds(block), key_col="k", blocklist_col="b", m_bits=1 << 12
        ).to_pandas()
        assert set(out["k"]) == set(range(50)) - {3, 17, 42}
        assert len(out) == 300 - 3 * 6


@pytest.mark.usefixtures("ray_session")
class TestVectorizedBloom:
    def test_no_false_negatives_and_low_fp(self):
        from vigil_ray.stages.corpus import vbloom_build, vbloom_mask

        import pyarrow as pa

        members = [f"doc_{i:05d}" for i in range(0, 400, 2)]
        bits = vbloom_build(_ds([{"id": m} for m in members]), "id", m_bits=1 << 14)
        probe = pa.array([f"doc_{i:05d}" for i in range(400)])
        mask = vbloom_mask(probe, bits, 1 << 14)
        # every member hits (no false negatives)
        assert mask[0::2].all()
        # non-members mostly miss at 200 keys / 16k bits
        assert mask[1::2].sum() < 20

    def test_int_keys_roundtrip(self):
        from vigil_ray.stages.corpus import vbloom_build, vbloom_mask

        import pyarrow as pa

        bits = vbloom_build(_ds([{"id": i} for i in range(100)]), "id", m_bits=1 << 13)
        mask = vbloom_mask(pa.array(list(range(200)), pa.int64()), bits, 1 << 13)
        assert mask[:100].all()
        assert mask[100:].sum() < 15

    def test_dtype_width_mismatch_no_false_negatives(self):
        """polars' xxhash is dtype-sensitive: an int32 build probed with
        int64 keys (or vice versa) silently KEPT blocklisted rows before the
        canonical-width cast. Both widths must hash identically now."""
        import pyarrow as pa
        import ray.data as rd

        from vigil_ray.stages.corpus import vbloom_build, vbloom_mask

        keys32 = rd.from_arrow(
            pa.table({"id": pa.array(list(range(100)), pa.int32())})
        )
        bits = vbloom_build(keys32, "id", m_bits=1 << 13)
        mask = vbloom_mask(pa.array(list(range(100)), pa.int64()), bits, 1 << 13)
        assert mask.all()  # no false negatives across widths
        # and the reverse direction: int64 build, int32 probe
        keys64 = rd.from_arrow(
            pa.table({"id": pa.array(list(range(100)), pa.int64())})
        )
        bits64 = vbloom_build(keys64, "id", m_bits=1 << 13)
        mask32 = vbloom_mask(
            pa.array(list(range(100)), pa.int32()), bits64, 1 << 13
        )
        assert mask32.all()


@pytest.mark.usefixtures("ray_session")
class TestGroupQuantileFilter:
    def test_matches_quantile_disc(self):
        import duckdb

        from vigil_ray.stages.corpus import group_quantile_filter

        rows = [
            {"g": "a" if i % 3 else "b", "v": (i * 11) % 29, "id": i}
            for i in range(120)
        ]
        out = group_quantile_filter(_ds(rows), "g", "v", 0.7).to_pandas()
        con = duckdb.connect()
        import pandas as pd

        df = pd.DataFrame(rows)
        con.register("t", df)
        expect = con.execute(
            "SELECT id FROM t JOIN (SELECT g, quantile_disc(v, 0.7) q FROM t GROUP BY g) s "
            "USING (g) WHERE v >= q"
        ).df()
        assert sorted(out["id"]) == sorted(expect["id"])

    def test_keep_le_bottom_slice(self):
        import duckdb
        import pandas as pd

        from vigil_ray.stages.corpus import group_quantile_filter

        rows = [
            {"g": "a" if i % 3 else "b", "v": (i * 11) % 29, "id": i}
            for i in range(120)
        ]
        out = group_quantile_filter(_ds(rows), "g", "v", 0.3, keep="le").to_pandas()
        con = duckdb.connect()
        con.register("t", pd.DataFrame(rows))
        expect = con.execute(
            "SELECT id FROM t JOIN (SELECT g, quantile_disc(v, 0.3) q FROM t GROUP BY g) s "
            "USING (g) WHERE v <= q"
        ).df()
        assert sorted(out["id"]) == sorted(expect["id"])

    def test_rejects_bad_keep(self):
        from vigil_ray.stages.corpus import group_quantile_filter

        with pytest.raises(ValueError):
            group_quantile_filter(_ds([{"g": 1, "v": 1}]), "g", "v", 0.5, keep="gt")


@pytest.mark.usefixtures("ray_session")
class TestPerKeyCap:
    def test_caps_to_smallest_ids(self):
        from vigil_ray.stages.corpus import per_key_cap

        rows = [{"key": f"s{i % 4}", "doc_id": i} for i in range(40)]
        out = per_key_cap(_ds(rows), "key", "doc_id", 3).to_pandas()
        assert len(out) == 12
        for k, grp in out.groupby("key"):
            ids = sorted(r for r in rows_ids(rows, k))[:3]
            assert sorted(grp["doc_id"]) == ids

    @pytest.mark.parametrize("bad", ["7", 7.5])
    def test_rejects_non_int_ids(self, bad):
        from vigil_ray.stages.corpus import per_key_cap

        rows = [{"key": "s", "doc_id": bad}, {"key": "s", "doc_id": bad}]
        with pytest.raises(TypeError):
            per_key_cap(_ds(rows), "key", "doc_id", 1).to_pandas()


def rows_ids(rows, key):
    return [r["doc_id"] for r in rows if r["key"] == key]


@pytest.mark.usefixtures("ray_session")
class TestPrefixMax:
    def test_exclusive_running_max(self):
        from vigil_ray.stages.corpus import prefix_scan

        vals = [5, 3, 9, 1, 9, 2, 11, 4]
        rows = [{"k": i, "v": v} for i, v in enumerate(vals)]
        out = prefix_scan(_ds(rows), ["k"], cost_col="v", op="max").to_pandas()
        out = out.sort_values("k")
        got = out["cum_excl"].tolist()
        assert got[0] == float("-inf")
        expect = [max(vals[:i]) for i in range(1, len(vals))]
        assert got[1:] == [float(e) for e in expect]

    def test_rejects_bad_op(self):
        from vigil_ray.stages.corpus import prefix_scan

        with pytest.raises(ValueError):
            prefix_scan(_ds([{"k": 1, "v": 1}]), ["k"], cost_col="v", op="min")


@pytest.mark.usefixtures("ray_session")
class TestWatermarkWindows:
    def _events(self):
        # arrival order a: minute-ts events; event at t=100min arrives
        # before the t=10min event → with 30min lateness the t=10 event is
        # late (wm 100-30=70 > 10); t=95 event arrives later but within
        # lateness (95 >= 70) → accepted
        import pandas as pd

        rows = [
            {"event_id": 1, "a": 1, "event_type": "x", "m": 100},
            {"event_id": 2, "a": 2, "event_type": "x", "m": 10},
            {"event_id": 3, "a": 3, "event_type": "x", "m": 95},
            {"event_id": 4, "a": 4, "event_type": "y", "m": 130},
        ]
        for r in rows:
            r["ts"] = pd.Timestamp("2024-01-01") + pd.Timedelta(minutes=r.pop("m"))
        return rows

    def test_late_dropped_in_window_counts(self):
        from vigil_ray.stages.streaming import watermark_windows

        out = watermark_windows(
            _ds(self._events()), arrival_cols=("a",), window_minutes=60,
            lateness_minutes=30,
        ).to_pandas()
        got = {
            (r["event_type"], r["window_start"].minute + 60 * r["window_start"].hour): r["n"]
            for _, r in out.iterrows()
        }
        # t=100 and t=95 in window [60,120) for x; t=10 dropped; y t=130 in [120,180)
        assert got == {("x", 60): 2, ("y", 120): 1}

    def test_late_stats(self):
        from vigil_ray.stages.streaming import late_event_stats

        d = late_event_stats(
            _ds(self._events()), arrival_cols=("a",), lateness_minutes=30
        )
        assert d["n_total"] == 4 and d["n_late"] == 1


@pytest.mark.usefixtures("ray_session")
class TestPerGroupSample:
    def test_deterministic_and_sized(self):
        from vigil_ray.stages.corpus import per_group_sample

        rows = [{"g": f"g{i % 3}", "doc_id": i} for i in range(90)]
        a = per_group_sample(_ds(rows), "g", "doc_id", 4).to_pandas()
        b = per_group_sample(_ds(rows), "g", "doc_id", 4).to_pandas()
        assert sorted(map(tuple, a.values.tolist())) == sorted(map(tuple, b.values.tolist()))
        assert a.groupby("g").size().tolist() == [4, 4, 4]
        # matches the md5 definition
        key = lambda v: hashlib.md5(f"{v}:7".encode()).hexdigest()
        for g in ("g0", "g1", "g2"):
            ids = [r["doc_id"] for r in rows if r["g"] == g]
            expect = sorted(sorted(ids, key=key)[:4])
            got = sorted(a[a["g"] == g]["doc_id"])
            assert got == expect

    @pytest.mark.parametrize("bad", ["7", 7.5])
    def test_rejects_non_int_ids(self, bad):
        from vigil_ray.stages.corpus import per_group_sample

        rows = [{"g": "g", "doc_id": bad}, {"g": "g", "doc_id": bad}]
        with pytest.raises(TypeError):
            per_group_sample(_ds(rows), "g", "doc_id", 1).to_pandas()


@pytest.mark.usefixtures("ray_session")
class TestFunnel:
    def test_strictly_ordered_stages(self):
        import pandas as pd

        from vigil_ray.stages.sessions import funnel_counts

        t = lambda m: pd.Timestamp("2024-01-01") + pd.Timedelta(minutes=m)
        rows = [
            # user 1 completes the funnel in order
            {"user_id": 1, "event_type": "signup", "ts": t(0)},
            {"user_id": 1, "event_type": "click", "ts": t(5)},
            {"user_id": 1, "event_type": "purchase", "ts": t(9)},
            # user 2: click BEFORE signup only → stage 2 not reached
            {"user_id": 2, "event_type": "click", "ts": t(0)},
            {"user_id": 2, "event_type": "signup", "ts": t(5)},
            # user 3: signup+click, purchase before the click → stalls at click
            {"user_id": 3, "event_type": "signup", "ts": t(0)},
            {"user_id": 3, "event_type": "purchase", "ts": t(1)},
            {"user_id": 3, "event_type": "click", "ts": t(2)},
            # user 4: never signed up
            {"user_id": 4, "event_type": "purchase", "ts": t(3)},
        ]
        out = funnel_counts(
            _ds(rows), ("signup", "click", "purchase")
        ).to_pandas()
        got = dict(zip(out["stage"], out["n_users"]))
        assert got == {"signup": 3, "click": 2, "purchase": 1}


@pytest.mark.usefixtures("ray_session")
class TestQuantize:
    def test_codes_and_scale(self):
        from vigil_ray.stages.embeddings import quantize_embeddings

        rows = [
            {"vec_id": 1, "embedding": [1.0, -0.5, 0.25]},
            {"vec_id": 2, "embedding": [0.0, 0.0]},  # zero vector dropped
        ]
        out = quantize_embeddings(_ds(rows)).to_pandas()
        assert out["vec_id"].tolist() == [1]
        assert out["qvec"].iloc[0] == "127,-64,32"  # -63.5 → -64 half-away
        assert abs(out["scale"].iloc[0] - 127.0) < 1e-9

    def test_half_away_rounding(self):
        from vigil_ray.stages.embeddings import _round_half_away
        import numpy as np

        assert _round_half_away(np.array([0.5, 1.5, -0.5, -1.5, 2.4])).tolist() == [
            1.0, 2.0, -1.0, -2.0, 2.0,
        ]


@pytest.mark.usefixtures("ray_session")
class TestCorpusPrep:
    def test_end_to_end_partitioned_output(self, tmp_path):
        """dedup → split → per-split shard packing → partitioned write."""
        import os

        import pyarrow.parquet as pq
        import ray.data as rd

        from vigil_ray.pipelines.corpus_prep import prepare_corpus

        rows = []
        for i in range(60):
            # 3 duplicate groups of 2 + 54 uniques
            text = f"doc body {i % 57} content"
            rows.append(
                {"url": f"u{i:03d}", "text_scrubbed": text, "keep": i % 10 != 9}
            )
        ds = rd.from_items(rows).repartition(4)
        out = str(tmp_path / "corpus")
        final = prepare_corpus(ds, out, shard_chars=100)
        got = final.to_pandas()

        kept = [r for r in rows if r["keep"]]
        # dedup: first url per distinct text among kept rows
        firsts = {}
        for r in sorted(kept, key=lambda r: r["url"]):
            firsts.setdefault(r["text_scrubbed"], r["url"])
        assert sorted(got["url"]) == sorted(firsts.values())
        # split column present and partitioned dirs exist
        assert set(got["split"]) <= {"train", "val", "test"}
        splits_on_disk = {d for d in os.listdir(out) if d.startswith("split=")}
        assert splits_on_disk == {f"split={s}" for s in set(got["split"])}
        # shard ids start at 0 within every split and are contiguous
        for sp, grp in got.groupby("split"):
            ids = sorted(set(grp["shard_id"]))
            assert ids == list(range(len(ids)))
        # read-back row count matches
        back = rd.read_parquet(out).count()
        assert back == len(got)

    def test_rerun_deterministic(self, tmp_path):
        import ray.data as rd

        from vigil_ray.pipelines.corpus_prep import prepare_corpus

        rows = [
            {"url": f"u{i:03d}", "text_scrubbed": f"t {i % 20}", "keep": True}
            for i in range(40)
        ]
        a = prepare_corpus(
            rd.from_items(rows).repartition(3), str(tmp_path / "a"), shard_chars=50
        ).to_pandas()
        b = prepare_corpus(
            rd.from_items(rows).repartition(5), str(tmp_path / "b"), shard_chars=50
        ).to_pandas()
        key = ["url", "split", "shard_id"]
        assert sorted(map(tuple, a[key].values.tolist())) == sorted(
            map(tuple, b[key].values.tolist())
        )


@pytest.mark.usefixtures("ray_session")
class TestSortedGroupMin:
    def test_argmin_matches_python(self):
        from vigil_ray.stages.corpus import sorted_group_min

        rows = [
            {"k": i % 7, "v": (i * 13) % 29, "tag": i} for i in range(100)
        ]
        out = sorted_group_min(_ds(rows), ["k"], ["v", "tag"]).to_pandas()
        expect = {}
        for r in rows:
            cur = expect.get(r["k"])
            if cur is None or (r["v"], r["tag"]) < cur:
                expect[r["k"]] = (r["v"], r["tag"])
        got = {r["k"]: (r["v"], r["tag"]) for _, r in out.iterrows()}
        assert got == expect

    def test_argmax_with_descending_and_string_tiebreak(self):
        from vigil_ray.stages.corpus import sorted_group_min

        rows = [
            {"k": 1, "score": 2.0, "term": "b"},
            {"k": 1, "score": 2.0, "term": "a"},  # tie: term asc wins
            {"k": 1, "score": 1.0, "term": "z"},
            {"k": 2, "score": 5.0, "term": "x"},
        ]
        out = sorted_group_min(
            _ds(rows), ["k"], ["score", "term"], descending=[True, False]
        ).to_pandas()
        got = {r["k"]: (r["score"], r["term"]) for _, r in out.iterrows()}
        assert got == {1: (2.0, "a"), 2: (5.0, "x")}


@pytest.mark.usefixtures("ray_session")
class TestSortedGroupSum:
    def test_matches_python_sums_across_blocks(self):
        from vigil_ray.stages.corpus import sorted_group_sum

        rows = [
            {"k": i % 7, "a": (i * 13) % 29, "b": i} for i in range(100)
        ]
        out = sorted_group_sum(_ds(rows), ["k"], ["a", "b"]).to_pandas()
        expect = {}
        for r in rows:
            acc = expect.setdefault(r["k"], [0, 0])
            acc[0] += r["a"]
            acc[1] += r["b"]
        got = {r["k"]: [r["a"], r["b"]] for _, r in out.iterrows()}
        assert got == expect
        assert len(out) == 7

    def test_single_run_spanning_all_blocks(self):
        from vigil_ray.stages.corpus import sorted_group_sum

        rows = [{"k": "only", "n": 1} for _ in range(50)]
        out = sorted_group_sum(_ds(rows), ["k"], ["n"]).to_pandas()
        assert out.to_dict("records") == [{"k": "only", "n": 50}]

    def test_empty_input(self):
        from vigil_ray.stages.corpus import sorted_group_sum

        out = sorted_group_sum(_ds([]), ["k"], ["n"]).to_pandas()
        assert len(out) == 0


@pytest.mark.usefixtures("ray_session")
class TestSortedGroupAgg:
    def test_min_max_sum_match_pandas(self):
        import pandas as pd

        from vigil_ray.stages.corpus import sorted_group_agg

        rows = [
            {"k": i % 7, "v": ((i * 13) % 29) / 3.0, "one": 1}
            for i in range(100)
        ]
        out = (
            sorted_group_agg(
                _ds(rows),
                ["k"],
                [("one", "sum", "n"), ("v", "min", "lo"), ("v", "max", "hi")],
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        df = pd.DataFrame(rows)
        expect = (
            df.groupby("k")
            .agg(n=("one", "sum"), lo=("v", "min"), hi=("v", "max"))
            .reset_index()
        )
        pd.testing.assert_frame_equal(out, expect, check_dtype=False)

    def test_boundary_runs_merge_min_max(self):
        # one key spans every block: the driver merge must combine the
        # deferred first/last-run partials with min/max, not sum
        from vigil_ray.stages.corpus import sorted_group_agg

        rows = [{"k": "only", "v": float(i)} for i in range(60)]
        out = sorted_group_agg(
            _ds(rows), ["k"], [("v", "min", "lo"), ("v", "max", "hi")]
        ).to_pandas()
        assert out.to_dict("records") == [{"k": "only", "lo": 0.0, "hi": 59.0}]

    def test_unknown_op_raises(self):
        from vigil_ray.stages.corpus import sorted_group_agg

        with pytest.raises(ValueError, match="unknown op"):
            sorted_group_agg(_ds([{"k": 1, "v": 1}]), ["k"], [("v", "avg", "a")])


@pytest.mark.usefixtures("ray_session")
class TestContamination:
    def test_flags_shared_ngram_only(self):
        from vigil_ray.stages.corpus import contamination_flags

        bench = _ds([{"doc_id": 100, "text": "the quick brown fox jumps over it"}])
        corpus = _ds(
            [
                # contains the bench 5-gram 'quick brown fox jumps over'
                {"doc_id": 1, "text": "x quick brown fox jumps over y"},
                # shares 4 words only → clean
                {"doc_id": 2, "text": "quick brown fox jumps away now ok"},
                {"doc_id": 3, "text": "completely unrelated words here today"},
                {"doc_id": 4, "text": "tiny"},  # < 5 words → clean
            ]
        )
        out = contamination_flags(corpus, bench, ngram=5).to_pandas()
        got = dict(zip(out["doc_id"], out["contaminated"]))
        assert got == {1: True, 2: False, 3: False, 4: False}


@pytest.mark.usefixtures("ray_session")
class TestPerGroupWeightedSample:
    def test_matches_single_process_simulation(self):
        import hashlib
        import math
        import struct

        from vigil_ray.stages.corpus import per_group_weighted_sample

        rows = [
            {"g": f"g{i % 3}", "doc_id": i, "w": 1 + (i * 7) % 50}
            for i in range(90)
        ]
        out = per_group_weighted_sample(
            _ds(rows), "g", "doc_id", "w", k=4, seed=7
        ).to_pandas()

        def clock(vid, w):
            h = int(hashlib.md5(f"{vid}:7".encode()).hexdigest()[:16], 16)
            u = (h + 1) / 2**64
            c = -math.log(u) / w
            return (struct.unpack("<q", struct.pack("<d", c))[0], vid)

        expect = {}
        for r in rows:
            expect.setdefault(r["g"], []).append(clock(r["doc_id"], r["w"]))
        want = {
            (g, vid)
            for g, keys in expect.items()
            for _, vid in sorted(keys)[:4]
        }
        got = {(r["g"], r["doc_id"]) for _, r in out.iterrows()}
        assert got == want

    def test_heavy_weight_dominates(self):
        from vigil_ray.stages.corpus import per_group_weighted_sample

        # one row carries ~all the mass: with k=1 it must win
        rows = [{"g": "g", "doc_id": i, "w": 1} for i in range(50)]
        rows.append({"g": "g", "doc_id": 999, "w": 10**9})
        out = per_group_weighted_sample(
            _ds(rows), "g", "doc_id", "w", k=1
        ).to_pandas()
        assert out["doc_id"].tolist() == [999]

    def test_rejects_nonpositive_weight(self):
        from vigil_ray.stages.corpus import per_group_weighted_sample

        rows = [{"g": "g", "doc_id": 1, "w": 0}]
        with pytest.raises(ValueError):
            per_group_weighted_sample(_ds(rows), "g", "doc_id", "w", k=1).to_pandas()


@pytest.mark.usefixtures("ray_session")
class TestTokenBudgetSelect:
    def test_matches_window_semantics(self):
        import ray.data as rd

        from vigil_ray.stages.corpus import token_budget_select

        rows = [
            {"doc_id": i, "score": float((i * 7) % 5), "cost": 10 + (i % 4)}
            for i in range(200)
        ]
        out = (
            token_budget_select(
                rd.from_items(rows).repartition(9), "doc_id", "score", "cost", 500
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # python reference: score DESC, doc_id ASC, running sum <= budget
        ordered = sorted(rows, key=lambda r: (-r["score"], r["doc_id"]))
        run, expect = 0, {}
        for r in ordered:
            run += r["cost"]
            if run > 500:
                break
            expect[r["doc_id"]] = run
        assert dict(zip(out["doc_id"], out["cum_tokens"])) == expect
        assert (out["cost"] == [10 + (i % 4) for i in out["doc_id"]]).all()


@pytest.mark.usefixtures("ray_session")
class TestChunkDupPairs:
    def test_shared_chunk_pairs_found_once(self):
        import ray.data as rd

        from vigil_ray.stages.corpus import chunk_dup_pairs

        shared = " ".join(f"w{i}" for i in range(8))
        rows = [
            {"doc_id": 1, "text": shared + " tail1 a b"},
            {"doc_id": 2, "text": shared + " tail2 c d"},  # shares chunk 0 with 1
            {"doc_id": 3, "text": shared + " tail1 a b"},  # exact dup of 1
            {"doc_id": 4, "text": "totally different words here now"},
        ]
        out = (
            chunk_dup_pairs(
                rd.from_items(rows).repartition(3), chunk_words=8, stride=8
            )
            .to_pandas()
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )
        # chunk 0 ('w0..w7') is shared by docs 1,2,3 -> pairs (1,2),(1,3),(2,3);
        # doc 3's chunk 1 also equals doc 1's chunk 1 but the (1,3) pair is
        # emitted exactly once (exact distinct)
        assert list(map(tuple, out.values.tolist())) == [(1, 2), (1, 3), (2, 3)]


@pytest.mark.usefixtures("ray_session")
class TestGroupedPrefixScan:
    def _check(self, rows, key_cols, order_cols, cost_col=None):
        import pandas as pd

        from vigil_ray.stages.corpus import grouped_prefix_scan

        out = grouped_prefix_scan(
            _ds(rows), key_cols, order_cols, cost_col=cost_col
        ).to_pandas()
        df = pd.DataFrame(rows).sort_values(key_cols + order_cols)
        if cost_col is None:
            expect = df.groupby(key_cols).cumcount()
        else:
            expect = df.groupby(key_cols)[cost_col].cumsum() - df[cost_col]
        df["cum_excl"] = expect
        got = out.sort_values(key_cols + order_cols).reset_index(drop=True)
        want = df.reset_index(drop=True)[got.columns]
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_row_rank_matches_pandas(self):
        rows = [
            {"u": i % 9, "t": (i * 7) % 50, "i": i} for i in range(120)
        ]
        self._check(rows, ["u"], ["t", "i"])

    def test_weighted_sum_matches_pandas(self):
        rows = [
            {"u": i % 5, "t": i, "c": (i * 3) % 11} for i in range(80)
        ]
        self._check(rows, ["u"], ["t"], cost_col="c")

    def test_hot_key_spanning_every_block(self):
        # one key carries 90% of rows → spans every sorted block; the driver
        # carry walk must thread the accumulator through consecutive blocks
        rows = [{"u": 0, "t": i, "c": 1} for i in range(200)] + [
            {"u": 1 + (i % 5), "t": i, "c": 1} for i in range(20)
        ]
        self._check(rows, ["u"], ["t"], cost_col="c")

    def test_float_costs(self):
        rows = [{"u": i % 3, "t": i, "c": i / 4.0} for i in range(60)]
        self._check(rows, ["u"], ["t"], cost_col="c")


@pytest.mark.usefixtures("ray_session")
class TestGroupedFillForward:
    def _check(self, rows):
        import pandas as pd

        from vigil_ray.stages.corpus import grouped_fill_forward

        out = (
            grouped_fill_forward(_ds(rows), ["u"], ["t"], "v", out_col="f")
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        df = pd.DataFrame(rows).sort_values(["u", "t"]).reset_index(drop=True)
        df["f"] = df.groupby("u")["v"].ffill()
        pd.testing.assert_frame_equal(out, df[out.columns], check_dtype=False)

    def test_matches_pandas_ffill(self):
        rows = [
            {"u": i % 6, "t": i, "v": float(i) if i % 3 == 0 else None}
            for i in range(90)
        ]
        self._check(rows)

    def test_long_null_gap_spanning_blocks(self):
        # one key dominates, with a single observation followed by a long
        # all-null stretch crossing every block boundary: the driver walk
        # must carry the value through intermediate all-null blocks
        rows = [{"u": 0, "t": 0, "v": 7.5}] + [
            {"u": 0, "t": i, "v": None} for i in range(1, 150)
        ] + [{"u": 1, "t": i, "v": None} for i in range(10)]
        self._check(rows)

    def test_leading_nulls_stay_null(self):
        rows = [
            {"u": 0, "t": 0, "v": None},
            {"u": 0, "t": 1, "v": None},
            {"u": 0, "t": 2, "v": 3.0},
            {"u": 0, "t": 3, "v": None},
        ]
        self._check(rows)


@pytest.mark.usefixtures("ray_session")
class TestGroupedShift:
    def _check(self, rows, periods):
        import pandas as pd

        from vigil_ray.stages.corpus import grouped_shift

        out = (
            grouped_shift(_ds(rows), ["u"], ["t"], "v", periods=periods, out_col="s")
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        df = pd.DataFrame(rows).sort_values(["u", "t"]).reset_index(drop=True)
        df["s"] = df.groupby("u")["v"].shift(periods)
        pd.testing.assert_frame_equal(out, df[out.columns], check_dtype=False)

    def test_lag_matches_pandas(self):
        rows = [{"u": i % 7, "t": i, "v": float(i * 3 % 17)} for i in range(90)]
        self._check(rows, 1)

    def test_lead_matches_pandas(self):
        rows = [{"u": i % 7, "t": i, "v": float(i * 5 % 13)} for i in range(90)]
        self._check(rows, -1)

    def test_hot_key_spanning_blocks_lag_and_lead(self):
        # one key spans every sorted block: the edge handoff must thread the
        # neighbor's value across each boundary in both directions
        rows = [{"u": 0, "t": i, "v": float(i)} for i in range(180)] + [
            {"u": 1 + (i % 4), "t": i, "v": float(i)} for i in range(20)
        ]
        self._check(rows, 1)
        self._check(rows, -1)

    def test_null_values_shift_as_nulls(self):
        rows = [
            {"u": i % 3, "t": i, "v": float(i) if i % 4 else None}
            for i in range(48)
        ]
        self._check(rows, 1)
        self._check(rows, -1)

    def test_single_row_groups(self):
        rows = [{"u": i, "t": 0, "v": float(i)} for i in range(25)]
        self._check(rows, 1)
        self._check(rows, -1)

    def test_bad_periods_raises(self):
        import pytest as _pytest

        from vigil_ray.stages.corpus import grouped_shift

        with _pytest.raises(ValueError):
            grouped_shift(_ds([{"u": 0, "t": 0, "v": 1.0}]), ["u"], ["t"], "v", periods=2)


@pytest.mark.usefixtures("ray_session")
class TestSessionizeFragmentMerge:
    def _check(self, df, gap_minutes=30):
        import pandas as pd
        import ray.data as rd

        from vigil_ray.stages.sessions import sessionize

        out = (
            sessionize(rd.from_pandas(df).repartition(7), gap_minutes=gap_minutes)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        gap = pd.Timedelta(minutes=gap_minutes)
        rows = []
        for u, g in df.sort_values(["user_id", "ts"]).groupby("user_id"):
            d = g["ts"].diff()
            new = d.gt(gap) | d.isna()  # NaT > gap is False, not NaN
            sizes = new.cumsum().value_counts()
            rows.append(
                {
                    "user_id": u,
                    "n_sessions": int(new.sum()),
                    "n_events": len(g),
                    "max_session_events": int(sizes.max()),
                }
            )
        want = pd.DataFrame(rows).sort_values("user_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_hot_user_single_session_spanning_all_blocks(self):
        import pandas as pd

        base = pd.Timestamp("2026-01-01")
        df = pd.DataFrame(
            {
                "user_id": [0] * 200 + [1, 1],
                "ts": [base + pd.Timedelta(minutes=10 * i) for i in range(200)]
                + [base, base + pd.Timedelta(hours=5)],
            }
        )
        self._check(df)

    def test_hot_user_many_boundary_sessions(self):
        import pandas as pd

        base = pd.Timestamp("2026-01-01")
        # user 0: pairs of close events separated by >gap → 90 sessions of 2,
        # guaranteed to straddle block boundaries after repartition(7)
        ts = []
        for i in range(90):
            t0 = base + pd.Timedelta(hours=2 * i)
            ts += [t0, t0 + pd.Timedelta(minutes=5)]
        df = pd.DataFrame({"user_id": [0] * len(ts), "ts": ts})
        self._check(df)

    def test_mixed_users_and_gaps(self):
        import pandas as pd

        base = pd.Timestamp("2026-01-01")
        recs = []
        for u in range(9):
            for i in range(u * 7 + 3):
                recs.append(
                    {
                        "user_id": u,
                        "ts": base
                        + pd.Timedelta(minutes=(i * 13 * (u + 1)) % 997),
                    }
                )
        self._check(pd.DataFrame(recs).drop_duplicates(["user_id", "ts"]))


@pytest.mark.usefixtures("ray_session")
class TestFunnelAutomatonFragments:
    def _check(self, rows, stages=("signup", "click", "purchase")):
        import pandas as pd
        import ray.data as rd

        from vigil_ray.stages.sessions import funnel_counts

        df = pd.DataFrame(rows)
        out = funnel_counts(rd.from_pandas(df).repartition(9), stages)
        got = dict(zip(out.column("stage").to_pylist(), out.column("n_users").to_pylist()))
        # reference: per-user greedy min-after-cutoff (the SQL oracle's form)
        want = {s: 0 for s in stages}
        for _, g in df.groupby("user_id"):
            cutoff = None
            for s in stages:
                ts = [
                    t
                    for t, e in zip(g["ts"], g["event_type"])
                    if e == s and (cutoff is None or t > cutoff)
                ]
                if not ts:
                    break
                cutoff = min(ts)
                want[s] += 1
        assert got == want

    def test_hot_user_funnel_spanning_blocks(self):
        # one user's 300 events span every sorted block; the automaton state
        # (stage + cutoff) must thread through the fragment fold
        rows = []
        for i in range(300):
            et = ["signup", "click", "purchase"][0 if i < 5 else (1 if i % 3 else 2)]
            rows.append({"user_id": 0, "ts": 1000 + i, "event_type": et})
        rows += [{"user_id": 1, "ts": i, "event_type": "signup"} for i in range(4)]
        self._check(rows)

    def test_boundary_timestamp_ties(self):
        # stage events at IDENTICAL timestamps: 'strictly after' must not
        # advance on a tied ts even when the tie crosses a block boundary
        rows = []
        for u in range(6):
            rows += [
                {"user_id": u, "ts": 100, "event_type": "signup"},
                {"user_id": u, "ts": 100, "event_type": "click"},   # tied → no
                {"user_id": u, "ts": 101 + u % 2, "event_type": "click"},
                {"user_id": u, "ts": 101 + u % 2, "event_type": "purchase"},  # tied → no
            ]
        # a hot user with many tied rows to force ties at block edges
        rows += [{"user_id": 9, "ts": 500, "event_type": "signup"}] + [
            {"user_id": 9, "ts": 500, "event_type": "click"} for _ in range(80)
        ] + [{"user_id": 9, "ts": 501, "event_type": "click"}] + [
            {"user_id": 9, "ts": 501, "event_type": "purchase"} for _ in range(40)
        ] + [{"user_id": 9, "ts": 502, "event_type": "purchase"}]
        self._check(rows)

    def test_stage_order_vs_time_order(self):
        # purchase before click before signup in time → only signup reached
        rows = [
            {"user_id": 0, "ts": 1, "event_type": "purchase"},
            {"user_id": 0, "ts": 2, "event_type": "click"},
            {"user_id": 0, "ts": 3, "event_type": "signup"},
        ]
        self._check(rows)


@pytest.mark.usefixtures("ray_session")
class TestShiftTimestampCarry:
    def test_lead_timestamp_values_across_blocks(self):
        # timestamp-typed value column: the driver edge handoff must rebuild
        # the carry as a timestamp scalar (pa.array([Timestamp], ts-type))
        import pandas as pd
        import ray.data as rd

        from vigil_ray.stages.corpus import grouped_shift

        base = pd.Timestamp("2026-03-01")
        df = pd.DataFrame(
            {
                "u": [0] * 60 + [1] * 5,
                "t": list(range(60)) + list(range(5)),
            }
        )
        df["ts"] = [base + pd.Timedelta(minutes=i) for i in range(65)]
        out = (
            grouped_shift(
                rd.from_pandas(df).repartition(8), ["u"], ["t"], "ts",
                periods=-1, out_col="next_ts",
            )
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["u", "t"]).reset_index(drop=True)
        want["next_ts"] = want.groupby("u")["ts"].shift(-1)
        import pandas.testing as pdt

        pdt.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_fill_forward_timestamp_values(self):
        import pandas as pd
        import ray.data as rd

        from vigil_ray.stages.corpus import grouped_fill_forward

        base = pd.Timestamp("2026-03-01")
        df = pd.DataFrame({"u": [0] * 40, "t": list(range(40))})
        df["v"] = [base + pd.Timedelta(hours=i) if i % 7 == 0 else pd.NaT for i in range(40)]
        out = (
            grouped_fill_forward(
                rd.from_pandas(df).repartition(6), ["u"], ["t"], "v", out_col="f"
            )
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["u", "t"]).reset_index(drop=True)
        want["f"] = want.groupby("u")["v"].ffill()
        import pandas.testing as pdt

        pdt.assert_frame_equal(out[want.columns], want, check_dtype=False)


class TestUrlDedup:
    def test_canonicalize_rules(self):
        import ray.data as rd

        from vigil_ray.stages.corpus import canonicalize_urls

        cases = [
            # (input, expected canonical)
            ("https://example.test/doc/1", "https://example.test/doc/1"),
            ("HTTP://WWW.Example.TEST/doc/1/?utm_source=a&utm_campaign=b#f",
             "https://example.test/doc/1"),
            ("http://example.test/doc/1/", "https://example.test/doc/1"),
            # non-tracking params preserved (distinct resource)
            ("https://example.test/doc/1?page=2", "https://example.test/doc/1?page=2"),
            # tracking block after a real param: only the utm tail drops
            ("https://example.test/a?page=2&utm_x=1", "https://example.test/a?page=2"),
            # tracking param BEFORE a real param: the real param survives
            # (regression for the strip-to-end-of-string rule)
            ("https://example.test/a?utm_source=x&page=2",
             "https://example.test/a?page=2"),
            # utm params sandwiching a real one
            ("https://example.test/a?utm_a=1&page=2&utm_b=3",
             "https://example.test/a?page=2"),
            # only utm params → bare path
            ("https://example.test/a?utm_a=1&utm_b=2", "https://example.test/a"),
            # fragment alone
            ("https://example.test/a#sec", "https://example.test/a"),
            # www + host case only
            ("https://WWW.EXAMPLE.test/a", "https://example.test/a"),
            # non-http(s) rows keep their stripped raw string as the key —
            # they must NOT collapse into one null group
            ("example.test/x", "example.test/x"),
            ("ftp://a.test/y#frag", "ftp://a.test/y"),
        ]
        ds = rd.from_items([{"url": u} for u, _ in cases])
        out = canonicalize_urls(ds).to_pandas()
        got = dict(zip(out["url"], out["canonical_url"]))
        for u, want in cases:
            assert got[u] == want, (u, got[u], want)

    def test_url_dedup_groups(self):
        import ray.data as rd

        from vigil_ray.stages.corpus import url_dedup

        rows = [
            {"row_id": 10, "url": "http://www.site.test/x/"},
            {"row_id": 3, "url": "https://site.test/x?utm_source=a"},
            {"row_id": 7, "url": "https://site.test/x?page=2"},
        ]
        out = url_dedup(rd.from_items(rows)).to_pandas()
        out = out.set_index("canonical_url")
        assert out.loc["https://site.test/x", "keeper_row_id"] == 3
        assert out.loc["https://site.test/x", "n_variants"] == 2
        assert out.loc["https://site.test/x?page=2", "n_variants"] == 1


class TestWebtextKernels:
    def test_tail_regex_is_last_five_tokens(self):
        import pyarrow as pa
        import pyarrow.compute as pc

        from vigil_ray.queries import _TAIL_RE

        cases = [
            ("a b c d e f g", "c d e f g"),      # > 5 tokens
            ("a b c d e", "a b c d e"),          # exactly 5
            ("a b", "a b"),                       # < 5
            ("solo", "solo"),                     # 1 token
            ("xabc bb cc dd ee ff", "bb cc dd ee ff"),  # mid-word start trap
        ]
        arr = pa.array([c[0] for c in cases])
        got = pc.struct_field(pc.extract_regex(arr, _TAIL_RE), "tail").to_pylist()
        assert got == [c[1] for c in cases]

    def test_bpe_pair_partials_counts_and_sentinel(self):
        import pyarrow as pa

        from vigil_ray.queries import _BPE_SHIFT, _bpe_pair_partials

        batch = pa.table({"text": ["abab", "ba"]})
        out = _bpe_pair_partials(batch)
        got = dict(zip(out.column("key").to_pylist(), out.column("n").to_pylist()))
        key = lambda a, b: ord(a) * _BPE_SHIFT + ord(b)
        # "abab": ab, ba, ab; "ba": ba — and NO cross-doc pair b|b
        assert got == {key("a", "b"): 2, key("b", "a"): 2}


@pytest.mark.usefixtures("ray_session")
class TestSemDeDup:
    """stages/embeddings.semdedup: cluster assignment + within-cluster
    integer cosine dup rule (τ² = tau_num/tau_den, keep-earliest-id)."""

    def test_known_dups_and_keeper_rule(self):
        from vigil_ray.stages.embeddings import semdedup

        # k=2 seed centroids = vecs 1 and 2 (smallest non-zero ids).
        # Cluster A (near [1,0,0]): 1, 10 (parallel → cos=1, dup), 11
        # (orthogonal-ish [0,0,1] assigns to A's centroid? no — equidistant
        # ties go to the LOWEST cell id). Cluster B (near [0,1,0]): 2, 20
        # (scaled copy → dup).
        rows = [
            {"vec_id": 1, "embedding": [1.0, 0.0, 0.0]},
            {"vec_id": 2, "embedding": [0.0, 1.0, 0.0]},
            {"vec_id": 10, "embedding": [2.0, 0.0, 0.0]},  # ∥ vec 1 → dup
            {"vec_id": 20, "embedding": [0.0, 0.5, 0.0]},  # ∥ vec 2 → dup
            {"vec_id": 30, "embedding": [0.0, 0.0, 0.0]},  # zero → dropped
            {"vec_id": 40, "embedding": [-1.0, 0.0, 0.0]},  # anti-∥: x·y<0
        ]
        out = (
            semdedup(_ds(rows), k=2, tau_num=81, tau_den=100)
            .to_pandas()
            .sort_values("vec_id")
        )
        assert out["vec_id"].tolist() == [1, 2, 10, 20, 40]
        got = dict(zip(out["vec_id"], out["semdup"]))
        # earliest id in each dup pair is KEPT; negative dot never dups
        assert got == {1: False, 2: False, 10: True, 20: True, 40: False}
        cells = dict(zip(out["vec_id"], out["cell"]))
        assert cells[10] == cells[1] and cells[20] == cells[2]
        # -x: dist(-q, q) = 4‖q‖² but dist(-q, c2) = ‖q‖²+‖c2‖² = 2‖q‖² —
        # the anti-parallel vector is integer-argmin NEARER to the OTHER
        # centroid, so it lands in cell 2
        assert cells[40] == cells[2]

    def test_threshold_boundary_exact(self):
        from vigil_ray.stages.embeddings import semdedup

        # seeds 1=[127,0], 2=[0,127]; vec 10 = [127,127] is EQUIDISTANT from
        # both centroids (127² each) → tie goes to the lowest cell id, so it
        # shares cell 1 with vec 1. cos²([127,0],[127,127]) is exactly 1/2:
        # τ²=1/2 must flag it (the rule is ≥, not >); τ²=51/100 must not.
        rows = [
            {"vec_id": 1, "embedding": [1.0, 0.0]},
            {"vec_id": 2, "embedding": [0.0, 1.0]},
            {"vec_id": 10, "embedding": [1.0, 1.0]},
        ]
        hit = semdedup(_ds(rows), k=2, tau_num=1, tau_den=2).to_pandas()
        assert dict(zip(hit["vec_id"], hit["cell"]))[10] == 1  # tie → low id
        assert dict(zip(hit["vec_id"], hit["semdup"])) == {
            1: False, 2: False, 10: True,
        }
        miss = semdedup(_ds(rows), k=2, tau_num=51, tau_den=100).to_pandas()
        assert dict(zip(miss["vec_id"], miss["semdup"])) == {
            1: False, 2: False, 10: False,
        }


@pytest.mark.usefixtures("ray_session")
class TestSemDeDupPartitionInvariance:
    def test_same_result_any_block_layout(self):
        import ray.data as rd

        from vigil_ray.stages.embeddings import semdedup

        rows = [
            {"vec_id": i, "embedding": [float((i * 13 + j * 7) % 11 - 5) for j in range(8)]}
            for i in range(60)
        ]
        outs = []
        for parts in (1, 4, 16):
            ds = rd.from_items(rows).repartition(parts)
            df = (
                semdedup(ds, k=4, tau_num=81, tau_den=100)
                .to_pandas()
                .sort_values("vec_id")
                .reset_index(drop=True)
            )
            outs.append(df)
        assert outs[0].equals(outs[1]) and outs[1].equals(outs[2])


@pytest.mark.usefixtures("ray_session")
class TestWinnowFingerprints:
    """stages/corpus.winnow_fingerprints: the L+R closed form must equal a
    brute-force enumeration of every window's rightmost minimum, and the
    shared-run guarantee must hold."""

    @staticmethod
    def _brute_select(h, w):
        g = len(h)
        sel = set()
        for e in range(w - 1, g):
            win = range(e - w + 1, e + 1)
            m = min(h[p] for p in win)
            sel.add(max(p for p in win if h[p] == m))
        return sel

    def test_matches_brute_force(self):
        import hashlib

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.stages.corpus import winnow_fingerprints

        vocab = ["um", "dois", "tres", "quatro", "cinco"]  # small → hash ties
        k, w = 3, 4

        @settings(max_examples=60, deadline=None)
        @given(st.lists(st.sampled_from(vocab), min_size=0, max_size=18))
        def check(words):
            text = " ".join(words)
            out = winnow_fingerprints(
                _ds([{"doc_id": 1, "text": text}]), k=k, w=w
            ).take_all()
            got = {(r["pos"], r["fp_hash"]) for r in out}
            g = len(words) - k + 1
            if g < w:
                assert got == set()
                return
            h = [
                int(hashlib.md5(" ".join(words[p : p + k]).encode()).hexdigest()[:8], 16)
                for p in range(g)
            ]
            want = {(p, h[p]) for p in self._brute_select(h, w)}
            assert got == want, text

        check()

    def test_shared_run_guarantee(self):
        from vigil_ray.stages.corpus import winnow_fingerprints

        # two docs sharing a run of w+k-1 = 6 words must share a fingerprint
        shared = "alfa beta gama delta epsilon zeta"
        rows = [
            {"doc_id": 1, "text": "x1 y1 " + shared + " z1"},
            {"doc_id": 2, "text": shared + " p2 q2 r2 s2"},
        ]
        out = winnow_fingerprints(_ds(rows)).take_all()
        fps = {1: set(), 2: set()}
        for r in out:
            fps[r["doc_id"]].add(r["fp_hash"])
        assert fps[1] & fps[2], "shared 6-word run produced no common fingerprint"


@pytest.mark.usefixtures("ray_session")
class TestWinnowMatchPairs:
    def test_shared_run_pair_and_boilerplate_exclusion(self):
        from vigil_ray.stages.corpus import winnow_match_pairs

        shared = "alfa beta gama delta epsilon zeta"  # w+k-1 = 6 words
        boiler = "um dois tres quatro cinco seis sete oito"
        rows = [
            {"doc_id": 1, "text": "x1 y1 " + shared},
            {"doc_id": 2, "text": shared + " p2 q2"},
            # docs 3..9 share only the boilerplate run
            *[{"doc_id": i, "text": boiler + f" fim{i}"} for i in range(3, 10)],
        ]
        # max_share=2: docs 1+2's fingerprints stay; the 7-doc boilerplate
        # fingerprints are excluded whole
        out = winnow_match_pairs(_ds(rows), max_share=2).to_pandas()
        got = {(a, b) for a, b in zip(out["a"], out["b"])}
        assert (1, 2) in got
        assert not any(a >= 3 or b >= 3 for a, b in got), got
        n = out.set_index(["a", "b"]).loc[(1, 2), "n_shared"]
        assert n >= 1
        # raising max_share above 7 admits the boilerplate pairs
        out2 = winnow_match_pairs(_ds(rows), max_share=10).to_pandas()
        got2 = {(a, b) for a, b in zip(out2["a"], out2["b"])}
        assert (3, 4) in got2 and (8, 9) in got2

    @pytest.mark.parametrize("max_bucket", [2, 3])
    def test_refuses_bucket_cap_not_above_max_share(self, max_bucket):
        """A pre-cap at or below max_share would keep over-shared buckets
        that must be excluded, so the precondition is checked at entry."""
        from vigil_ray.stages.corpus import winnow_match_pairs

        ds = _ds([{"doc_id": 1, "text": "alfa beta gama delta epsilon zeta"}])
        with pytest.raises(ValueError, match="max_bucket"):
            winnow_match_pairs(ds, max_share=3, max_bucket=max_bucket)


@pytest.mark.usefixtures("ray_session")
class TestWinnowDistinct:
    def test_distinct_equals_set_of_default(self):
        """distinct=True must emit exactly the unique (doc, fp) pairs of the
        per-position output, with pos = the smallest selected position —
        regardless of how Ray batches the map input (the dedup happens at
        emission, per document)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.stages.corpus import winnow_fingerprints

        vocab = ["um", "dois", "tres"]  # tiny vocab → repeated grams → dup fps

        @settings(max_examples=40, deadline=None)
        @given(st.lists(st.sampled_from(vocab), min_size=6, max_size=20))
        def check(words):
            rows = [{"doc_id": 1, "text": " ".join(words)}]
            full = winnow_fingerprints(_ds(rows)).take_all()
            dis = winnow_fingerprints(_ds(rows), distinct=True).take_all()
            assert {(r["doc_id"], r["fp_hash"]) for r in dis} == {
                (r["doc_id"], r["fp_hash"]) for r in full
            }
            assert len(dis) == len({r["fp_hash"] for r in dis})  # unique
            first_pos = {}
            for r in sorted(full, key=lambda r: r["pos"]):
                first_pos.setdefault(r["fp_hash"], r["pos"])
            assert {r["fp_hash"]: r["pos"] for r in dis} == first_pos

        check()



def _empty_events():
    """A user-event stream filtered to zero rows: every block of the
    operators' sorted input is empty (the schema survives the filter)."""
    import pandas as pd
    import ray.data as rd

    df = pd.DataFrame(
        {
            "user_id": [i % 3 for i in range(12)],
            "t": range(12),
            "ts": pd.date_range("2026-01-01", periods=12, freq="min"),
            "event_type": ["signup", "click", "purchase"] * 4,
            "v": [float(i) for i in range(12)],
            "c": range(12),
        }
    )
    return rd.from_pandas(df).repartition(3).filter(expr="c < 0")


def _run_on_empty(op, ds):
    import ray.data as rd

    from vigil_ray.stages import corpus, sessions, sortmerge

    if op == "prefix_scan_sum":
        return corpus.prefix_scan(ds, ["t"], cost_col="c")
    if op == "prefix_scan_rank":
        return corpus.prefix_scan(ds, ["t"])
    if op == "prefix_scan_max":
        return corpus.prefix_scan(ds, ["t"], cost_col="c", op="max")
    if op == "grouped_prefix_scan":
        return corpus.grouped_prefix_scan(ds, ["user_id"], ["t"], cost_col="c")
    if op == "grouped_fill_forward":
        return corpus.grouped_fill_forward(ds, ["user_id"], ["t"], "v")
    if op in ("grouped_shift_lag", "grouped_shift_lead"):
        periods = 1 if op.endswith("lag") else -1
        return corpus.grouped_shift(ds, ["user_id"], ["t"], "v", periods=periods)
    if op in ("grouped_rolling_median", "grouped_rolling_sum"):
        return getattr(corpus, op)(ds, ["user_id"], ["t"], "c")
    if op == "sorted_attach":
        return sortmerge.sorted_attach(ds, ["user_id"], sum_cols=["c"], count_name="n")
    if op == "sorted_lookup_join":
        lookup = rd.from_items([{"user_id": u, "name": f"u{u}"} for u in range(3)])
        return sortmerge.sorted_lookup_join(ds, lookup, ["user_id"])
    if op == "sessionize":
        return sessions.sessionize(ds)
    if op == "sorted_group_topk":
        return corpus.sorted_group_topk(ds, ["user_id"], [("t", "descending")], 2)
    if op == "segment_dedup":
        return corpus.segment_dedup(ds, id_col="user_id", text_col="event_type")
    raise KeyError(op)


_EMPTY_INPUT_OPS = [
    "prefix_scan_sum",
    "prefix_scan_rank",
    "prefix_scan_max",
    "grouped_prefix_scan",
    "grouped_fill_forward",
    "grouped_shift_lag",
    "grouped_shift_lead",
    "grouped_rolling_median",
    "grouped_rolling_sum",
    "sorted_attach",
    "sorted_lookup_join",
    "sessionize",
    "funnel_counts",
    "sorted_group_topk",
    "segment_dedup",
]


def _check_empty(op, make_input):
    from vigil_ray.stages.sessions import funnel_counts

    if op == "funnel_counts":
        out = funnel_counts(make_input(), ("signup", "click", "purchase"))
        assert out.column("n_users").to_pylist() == [0, 0, 0]
    else:
        assert _run_on_empty(op, make_input()).count() == 0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("op", _EMPTY_INPUT_OPS)
def test_sorted_block_operators_on_empty_input(op):
    """Every sorted-block operator handles an input filtered to zero rows:
    0 rows out (funnel: every stage count 0), no exception."""
    _check_empty(op, _empty_events)


def _row_filtered_empty_events():
    """Zero rows of unknown schema: a row-function filter that keeps
    nothing leaves no block with a schema, so ``schema()`` is None."""
    return _empty_events().filter(lambda r: False)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("op", _EMPTY_INPUT_OPS)
def test_sorted_block_operators_on_empty_input_of_unknown_schema(op):
    """The same operators on zero rows whose schema is unknown: 0 rows out,
    no exception."""
    assert _row_filtered_empty_events().schema() is None
    _check_empty(op, _row_filtered_empty_events)


@pytest.mark.usefixtures("ray_session")
def test_sorted_lookup_join_unknown_lookup_schema_raises():
    import ray.data as rd

    from vigil_ray.stages.sortmerge import sorted_lookup_join

    rows = rd.from_items([{"user_id": 1, "v": 2.0}])
    with pytest.raises(ValueError, match="lookup_ds has no known schema"):
        sorted_lookup_join(rows, _row_filtered_empty_events(), ["user_id"])


def test_aggregate_fn_only_in_sketches():
    """Per-key reducers run on ``runs.map_sorted_runs``; Ray's hash
    ``groupby().aggregate(AggregateFn)`` stays only behind the fixed-size
    algebraic sketches of ``stages/sketches.py``."""
    from pathlib import Path

    import vigil_ray

    root = Path(vigil_ray.__file__).parent
    users = sorted(
        str(p.relative_to(root))
        for p in root.rglob("*.py")
        if "AggregateFn" in p.read_text(encoding="utf-8")
    )
    assert users == ["stages/sketches.py"]
