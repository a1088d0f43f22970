"""Property tests for the round-3 distributed operators.

Pure helpers get full hypothesis sweeps; Dataset-level invariants run a small
number of randomized examples against a single-process Python simulator
(each example pays a Ray job, so examples are few but adversarial —
hypothesis shrinks failures)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


# --------------------------------------------------------------------------
# pure helpers — cheap, many examples
# --------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_round_half_away_matches_decimal(x):
    """half-away rounding of the TRUE binary value: Decimal(float) is the
    exact expansion, and decimal ROUND_HALF_UP rounds halves away from zero
    for both signs — the C/SQL round() contract."""
    from decimal import ROUND_HALF_UP, Decimal, localcontext

    from vigil_ray.stages.embeddings import _round_half_away

    got = float(_round_half_away(np.array([x], dtype=np.float64))[0])
    with localcontext() as ctx:
        ctx.prec = 80
        want = float(Decimal(float(x)).quantize(Decimal(1), rounding=ROUND_HALF_UP))
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-(10**9), max_value=10**9)), st.integers(1, 20))
def test_truncate_bucket_invariants(members, cap):
    from vigil_ray.stages.dedup import truncate_bucket

    kept, dropped = truncate_bucket(list(members), cap)
    assert kept == sorted(members)[:cap]
    assert dropped == max(0, len(members) - cap)


# --------------------------------------------------------------------------
# Dataset-level invariants vs a single-process simulator — few examples
# --------------------------------------------------------------------------


def _mk_ds(rows, parts=3):
    import ray.data as rd

    return rd.from_items(rows).repartition(parts)


@pytest.mark.usefixtures("ray_session")
class TestDistributedProperties:
    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=50), min_size=1, max_size=60
        ),
        st.integers(min_value=5, max_value=100),
    )
    def test_pack_shards_matches_simulator(self, costs, shard):
        from vigil_ray.stages.corpus import pack_shards

        rows = [{"doc_id": i, "c": c} for i, c in enumerate(costs)]
        out = (
            pack_shards(_mk_ds(rows), "doc_id", "c", shard)
            .to_pandas()
            .sort_values("doc_id")
        )
        run = 0
        expect = []
        for c in costs:
            expect.append(run // shard)
            run += c
        assert out["shard_id"].tolist() == expect

    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),  # arrival
                st.integers(min_value=0, max_value=500),  # event-time (min)
            ),
            min_size=1,
            max_size=40,
            unique_by=lambda t: t[0],
        )
    )
    def test_watermark_matches_sequential_consumer(self, evs):
        """The distributed prefix-max watermark equals a literal one-pass
        stateful stream consumer."""
        import pandas as pd

        from vigil_ray.stages.streaming import late_event_stats

        rows = [
            {
                "event_id": arr,
                "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(minutes=m),
            }
            for arr, m in evs
        ]
        d = late_event_stats(_mk_ds(rows), arrival_cols=("event_id",), lateness_minutes=30)
        # sequential simulation in arrival order
        wm = None
        late = 0
        for arr, m in sorted(evs):
            if wm is not None and m < wm - 30:
                late += 1
            wm = m if wm is None else max(wm, m)
        assert d["n_total"] == len(evs)
        assert d["n_late"] == late

    @staticmethod
    def _simulate_segment_dedup(texts, w=2):
        winners = {}  # seg -> (doc, idx)
        for d, t in enumerate(texts):
            words = t.split()
            for idx, i in enumerate(range(0, len(words), w), start=1):
                seg = " ".join(words[i : i + w])
                cand = (d, idx)
                if seg not in winners or cand < winners[seg]:
                    winners[seg] = cand
        per_doc: dict = {}
        for seg, (d, idx) in winners.items():
            per_doc.setdefault(d, []).append((idx, seg))
        return {d: " ".join(s for _, s in sorted(v)) for d, v in per_doc.items()}

    @settings(max_examples=5, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="ab ", min_size=0, max_size=30),
            min_size=1,
            max_size=15,
        )
    )
    def test_segment_dedup_matches_simulator(self, texts):
        from vigil_ray.stages.corpus import segment_dedup

        rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
        out = {
            r["doc_id"]: r["text_dedup"]
            for r in segment_dedup(_mk_ds(rows), seg_words=2).take_all()
        }
        assert out == self._simulate_segment_dedup(texts)

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50, unique=True))
    def test_shuffle_rank_matches_definition(self, ids):
        from vigil_ray.stages.corpus import deterministic_shuffle

        rows = [{"doc_id": i} for i in ids]
        out = deterministic_shuffle(_mk_ds(rows), "doc_id", seed=3).to_pandas()
        order = sorted(ids, key=lambda v: hashlib.md5(f"{v}:3".encode()).hexdigest())
        expect = {v: r + 1 for r, v in enumerate(order)}
        assert dict(zip(out["doc_id"], out["shuffle_rank"])) == expect
