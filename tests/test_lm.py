"""Corpus-trained bigram LM stages (stages/lm.py) and the per-group rank
primitive (stages/corpus.per_group_rank): semantics pinned on small
constructed inputs. SQL-oracle equivalence for the wired queries
(docs_corpus_lm_ppl / corpus_pmi_bigrams / docs_mixing_order) is covered by
tests/test_queries_oracle.py."""

import hashlib
import math

import numpy as np
import pyarrow as pa
import pytest
from conftest import char_lm_spec_score


def _ds(rows, parts=3):
    import ray.data as rd

    return rd.from_items(rows).repartition(parts)


@pytest.mark.usefixtures("ray_session")
class TestCorpusBigramPpl:
    def test_matches_hand_computation(self):
        from vigil_ray.stages.lm import corpus_bigram_ppl

        rows = [
            {"doc_id": 1, "text": "a b a b"},
            {"doc_id": 2, "text": "a b c"},
        ]
        out = {r["doc_id"]: r for r in corpus_bigram_ppl(_ds(rows)).take_all()}
        # corpus tokens: a×3 b×3 c×1  (V=3); bigrams: ab×3, ba×1, bc×1
        n1 = {"a": 3, "b": 3, "c": 1}
        n12 = {("a", "b"): 3, ("b", "a"): 1, ("b", "c"): 1}
        V = 3

        def nll_micro(w1, w2):
            return math.floor(
                (math.log(n1[w1] + V) - math.log(n12[(w1, w2)] + 1)) * 1e6 + 0.5
            )

        d1 = [("a", "b"), ("b", "a"), ("a", "b")]
        d2 = [("a", "b"), ("b", "c")]
        for doc_id, bigrams in ((1, d1), (2, d2)):
            tot = sum(nll_micro(*bg) for bg in bigrams)
            want = math.floor(
                math.exp(tot / 1e6 / len(bigrams)) * 1e6 + 0.5
            ) / 1e6
            assert out[doc_id]["n_bigrams"] == len(bigrams)
            assert out[doc_id]["ppl"] == want

    def test_short_and_empty_docs_excluded(self):
        from vigil_ray.stages.lm import corpus_bigram_ppl

        rows = [
            {"doc_id": 1, "text": "solo"},
            {"doc_id": 2, "text": "   "},
            {"doc_id": 3, "text": "x y"},
        ]
        out = corpus_bigram_ppl(_ds(rows)).take_all()
        assert [r["doc_id"] for r in out] == [3]

    def test_repeated_doc_lowers_its_perplexity(self):
        from vigil_ray.stages.lm import corpus_bigram_ppl

        # 'p q' appears in 4 docs, 'r s' once → the common doc is more
        # predictable under the corpus model
        rows = [{"doc_id": i, "text": "p q"} for i in range(4)]
        rows.append({"doc_id": 99, "text": "r s"})
        out = {r["doc_id"]: r["ppl"] for r in corpus_bigram_ppl(_ds(rows)).take_all()}
        assert out[0] < out[99]


@pytest.mark.usefixtures("ray_session")
class TestBigramPmiTopk:
    def test_exclusive_pair_beats_promiscuous(self):
        from vigil_ray.stages.lm import bigram_pmi_topk

        # (x y) always together; 'a' pairs with many different words
        rows = [{"doc_id": i, "text": "x y a " + w} for i, w in enumerate(
            ["m", "n", "o", "p", "q"]
        )]
        out = bigram_pmi_topk(_ds(rows), min_count=5, k=5).take_all()
        assert out, "x-y occurs 5 times and must pass min_count"
        assert (out[0]["w1"], out[0]["w2"]) == ("x", "y")
        assert out[0]["n12"] == 5

    def test_min_count_filters(self):
        from vigil_ray.stages.lm import bigram_pmi_topk

        rows = [{"doc_id": 1, "text": "u v"}, {"doc_id": 2, "text": "u v"}]
        assert bigram_pmi_topk(_ds(rows), min_count=5, k=5).count() == 0


@pytest.mark.usefixtures("ray_session")
class TestPerGroupRank:
    def test_permutation_per_group_and_md5_order(self):
        from vigil_ray.stages.corpus import per_group_rank

        rows = [{"id": i, "g": "ab"[i % 2]} for i in range(20)]
        out = per_group_rank(_ds(rows), "g", "id", seed=7).take_all()
        by_group = {}
        for r in out:
            by_group.setdefault(r["g"], []).append(r)
        assert set(by_group) == {"a", "b"}
        for g, members in by_group.items():
            assert sorted(m["rank"] for m in members) == list(range(1, 11))
            # rank order == md5(id:seed) order within the group
            members.sort(key=lambda m: m["rank"])
            keys = [hashlib.md5(f"{m['id']}:7".encode()).hexdigest() for m in members]
            assert keys == sorted(keys)

    def test_parallelism_independent(self):
        from vigil_ray.stages.corpus import per_group_rank

        rows = [{"id": i, "g": f"g{i % 3}"} for i in range(30)]
        a = sorted(
            (r["id"], r["rank"]) for r in per_group_rank(_ds(rows, 2), "g", "id").take_all()
        )
        b = sorted(
            (r["id"], r["rank"]) for r in per_group_rank(_ds(rows, 7), "g", "id").take_all()
        )
        assert a == b


class TestSegmentScoringDifferential:
    """The word-segment-memoized scoring path must be bit-identical to the
    per-char scalar path: same lp sequence, same left-to-right float64 sum,
    same rounding — including short words whose left context spans several
    preceding words, repeated words hitting the segment memo, and the
    trailing-space distinction for the last word."""

    def test_differential_hypothesis(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel.perplexity import CharLM

        lm = CharLM()

        words = st.sampled_from(
            ["a", "b", "ab", "the", "de", "governo", "x", "~~~", "çã", "İı"]
        )

        @settings(max_examples=400, deadline=None)
        @given(st.lists(words, min_size=1, max_size=12).map(" ".join))
        def check(text):
            norm = " ".join(text.split()).lower()
            if not norm:
                return
            assert lm._score_segments(norm.split(" ")) == char_lm_spec_score(lm, norm), norm

        check()

    def test_differential_arbitrary_text(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel.perplexity import CharLM

        lm = CharLM()

        @settings(max_examples=300, deadline=None)
        @given(st.text(max_size=120))
        def check(text):
            norm = " ".join(text.split()).lower()
            if not norm:
                return
            assert lm._score_segments(norm.split(" ")) == char_lm_spec_score(lm, norm), repr(norm)

        check()

    def test_memo_cap_respected(self):
        from vigil_ray.kernel.perplexity import CharLM

        lm = CharLM()
        lm._seg_memo_cap = 2
        for w in ("alpha beta", "gamma delta", "epsilon zeta"):
            lm.score(w)
        assert len(lm._seg_memo) <= 2
        # capped scorer still scores correctly (falls through to gram memo)
        assert lm.score("eta theta") == char_lm_spec_score(lm, "eta theta")


@pytest.mark.usefixtures("ray_session")
class TestDsirWeights:
    """stages/lm.dsir_weights: hashed-unigram importance weights, target
    slice = doc_id % target_mod == 0, micro-nat integer quantization."""

    def test_target_likeness_ranks_and_exact_recompute(self):
        import hashlib
        import math

        from vigil_ray.stages.lm import dsir_weights

        # ids 0 and 10 are targets under target_mod=10; raw doc 13 uses the
        # target vocabulary, raw docs 11/12 use their own
        rows = [
            {"doc_id": 0, "text": "alvo alvo foco foco"},
            {"doc_id": 10, "text": "alvo foco alvo"},
            {"doc_id": 11, "text": "cru bruto cru"},
            {"doc_id": 12, "text": "bruto cru bruto"},
            {"doc_id": 13, "text": "alvo foco alvo foco"},
            {"doc_id": 14, "text": "   "},  # whitespace-only → excluded
        ]
        out = dsir_weights(_ds(rows), target_mod=10, n_buckets=64).to_pandas()
        assert sorted(out["doc_id"]) == [0, 10, 11, 12, 13]
        got = out.set_index("doc_id")
        assert bool(got.loc[0, "is_target"]) and bool(got.loc[10, "is_target"])
        # the target-vocabulary raw doc outranks the raw-vocabulary ones
        per_tok = got["weight_micro"] / got["n_tokens"]
        assert per_tok[13] > per_tok[11] and per_tok[13] > per_tok[12]

        # exact recompute of doc 13's weight from first principles
        B = 64
        def bucket(w):
            return int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % B
        n_t, n_r = [0] * B, [0] * B
        for r in rows:
            ws = r["text"].lower().split()
            side = n_t if r["doc_id"] % 10 == 0 else n_r
            for w in ws:
                side[bucket(w)] += 1
        T, R = sum(n_t), sum(n_r)
        W = [
            math.floor(
                (math.log(n_t[b] + 1) - math.log(T + B)
                 - math.log(n_r[b] + 1) + math.log(R + B)) * 1_000_000 + 0.5
            )
            for b in range(B)
        ]
        want = sum(W[bucket(w)] for w in "alvo foco alvo foco".split())
        assert int(got.loc[13, "weight_micro"]) == want
        assert int(got.loc[13, "n_tokens"]) == 4


@pytest.mark.usefixtures("ray_session")
class TestDsirPartitionInvariance:
    def test_same_result_any_block_layout(self):
        from vigil_ray.stages.lm import dsir_weights

        rows = [
            {"doc_id": i, "text": f"palavra comum {i % 7} alvo" if i % 3 else "cru bruto"}
            for i in range(40)
        ]
        outs = []
        for parts in (1, 3, 8):
            df = (
                dsir_weights(_ds(rows, parts=parts), target_mod=10, n_buckets=32)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            outs.append(df)
        assert outs[0].equals(outs[1]) and outs[1].equals(outs[2])
