"""Property tests: the sorted-block window-analytic primitives (prefix_scan
sum / rank / max, grouped_prefix_scan, grouped_fill_forward, grouped_shift,
grouped_rolling_median / grouped_rolling_sum) against their pandas reference
semantics on randomized inputs — random key skew, null patterns, and block
layouts — and the sorted-run reducers and monoid operators against plain
Python. Complements the constructed-case batteries in tests/test_corpus.py
with generative coverage of boundary interactions."""

import pandas as pd
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st


def _ds(df, nblocks):
    import ray.data as rd

    return rd.from_pandas(df).repartition(nblocks)


# rows: (key in 0..3 — heavy collisions, value or None); order index appended
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False,
                                       min_value=-1e6, max_value=1e6)),
    ),
    min_size=1,
    max_size=60,
)

# rows: (key in 0..3, integer cost); order index appended
cost_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=60,
)

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.mark.usefixtures("ray_session")
class TestWindowPrimitiveProperties:
    @given(rows=rows_strategy, nblocks=st.integers(min_value=1, max_value=7))
    @settings(**_SETTINGS)
    def test_fill_forward_matches_pandas(self, rows, nblocks):
        from vigil_ray.stages.corpus import grouped_fill_forward

        df = pd.DataFrame(
            {"u": [r[0] for r in rows], "t": range(len(rows)), "v": [r[1] for r in rows]}
        )
        out = (
            grouped_fill_forward(_ds(df, nblocks), ["u"], ["t"], "v", out_col="f")
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["u", "t"]).reset_index(drop=True)
        want["f"] = want.groupby("u")["v"].ffill()
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    @given(
        rows=rows_strategy,
        nblocks=st.integers(min_value=1, max_value=7),
        periods=st.sampled_from([1, -1]),
    )
    @settings(**_SETTINGS)
    def test_shift_matches_pandas(self, rows, nblocks, periods):
        from vigil_ray.stages.corpus import grouped_shift

        df = pd.DataFrame(
            {"u": [r[0] for r in rows], "t": range(len(rows)), "v": [r[1] for r in rows]}
        )
        out = (
            grouped_shift(_ds(df, nblocks), ["u"], ["t"], "v", periods=periods, out_col="s")
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["u", "t"]).reset_index(drop=True)
        want["s"] = want.groupby("u")["v"].shift(periods)
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    @given(rows=cost_rows, nblocks=st.integers(min_value=1, max_value=7))
    @settings(**_SETTINGS)
    def test_prefix_scan_matches_pandas(self, rows, nblocks):
        from vigil_ray.stages.corpus import grouped_prefix_scan

        df = pd.DataFrame(
            {"u": [r[0] for r in rows], "t": range(len(rows)), "c": [r[1] for r in rows]}
        )
        out = (
            grouped_prefix_scan(_ds(df, nblocks), ["u"], ["t"], cost_col="c")
            .to_pandas()
            .sort_values(["u", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["u", "t"]).reset_index(drop=True)
        want["cum_excl"] = want.groupby("u")["c"].cumsum() - want["c"]
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    @pytest.mark.parametrize("cost_col", ["c", None])
    @given(rows=cost_rows, nblocks=st.integers(min_value=1, max_value=7))
    @settings(**_SETTINGS)
    def test_ungrouped_prefix_scan_matches_pandas(self, rows, nblocks, cost_col):
        """prefix_scan's integer-cost sum and its 0-based rank (no cost)."""
        from vigil_ray.stages.corpus import prefix_scan

        df = pd.DataFrame({"t": range(len(rows)), "c": [r[1] for r in rows]})
        out = (
            prefix_scan(_ds(df, nblocks), ["t"], cost_col=cost_col)
            .to_pandas()
            .sort_values("t")
            .reset_index(drop=True)
        )
        want = df.copy()
        costs = want["c"] if cost_col else pd.Series(1, index=want.index)
        want["cum_excl"] = costs.cumsum() - costs
        assert str(out["cum_excl"].dtype) == "int64"
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    @given(rows=cost_rows, nblocks=st.integers(min_value=1, max_value=7))
    @settings(**_SETTINGS)
    def test_prefix_max_matches_pandas(self, rows, nblocks):
        from vigil_ray.stages.corpus import prefix_scan

        df = pd.DataFrame({"t": range(len(rows)), "c": [r[1] for r in rows]})
        out = (
            prefix_scan(_ds(df, nblocks), ["t"], cost_col="c", op="max")
            .to_pandas()
            .sort_values("t")
            .reset_index(drop=True)
        )
        want = df.copy()
        want["cum_excl"] = (
            want["c"].astype(float).cummax().shift(1).fillna(float("-inf"))
        )
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestMonoidOpProperties:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),      # user (heavy collisions)
                st.integers(min_value=0, max_value=200),    # minute offset (forces ties)
            ),
            min_size=1,
            max_size=60,
        ),
        nblocks=st.integers(min_value=1, max_value=7),
        gap_minutes=st.sampled_from([1, 5, 30]),
    )
    @settings(**_SETTINGS)
    def test_sessionize_matches_pandas(self, rows, nblocks, gap_minutes):
        from vigil_ray.stages.sessions import sessionize

        base = pd.Timestamp("2026-01-01")
        df = pd.DataFrame(
            {
                "user_id": [r[0] for r in rows],
                "ts": [base + pd.Timedelta(minutes=r[1]) for r in rows],
            }
        )
        out = (
            sessionize(_ds(df, nblocks), gap_minutes=gap_minutes)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        gap = pd.Timedelta(minutes=gap_minutes)
        recs = []
        for u, g in df.sort_values(["user_id", "ts"]).groupby("user_id"):
            d = g["ts"].diff()
            new = d.gt(gap) | d.isna()
            sizes = new.cumsum().value_counts()
            recs.append(
                {
                    "user_id": u,
                    "n_sessions": int(new.sum()),
                    "n_events": len(g),
                    "max_session_events": int(sizes.max()),
                }
            )
        want = pd.DataFrame(recs).sort_values("user_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # user
                st.integers(min_value=0, max_value=20),  # ts (forces ties)
                st.sampled_from(["signup", "click", "purchase", "view"]),
            ),
            min_size=1,
            max_size=60,
        ),
        nblocks=st.integers(min_value=1, max_value=7),
    )
    @settings(**_SETTINGS)
    def test_funnel_matches_greedy_reference(self, rows, nblocks):
        from vigil_ray.stages.sessions import funnel_counts

        stages = ("signup", "click", "purchase")
        df = pd.DataFrame(
            {
                "user_id": [r[0] for r in rows],
                "ts": [r[1] for r in rows],
                "event_type": [r[2] for r in rows],
            }
        )
        out = funnel_counts(_ds(df, nblocks), stages)
        got = dict(
            zip(out.column("stage").to_pylist(), out.column("n_users").to_pylist())
        )
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


rolling_given = dict(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-1000, max_value=1000),
        ),
        min_size=1,
        max_size=60,
    ),
    nblocks=st.integers(min_value=1, max_value=7),
    window=st.integers(min_value=2, max_value=6),
)


def _check_rolling(how, rows, nblocks, window):
    from vigil_ray.stages import corpus

    df = pd.DataFrame(
        {
            "k": [r[0] for r in rows],
            "t": range(len(rows)),
            "v": [r[1] for r in rows],
        }
    )
    out = (
        getattr(corpus, f"grouped_rolling_{how}")(
            _ds(df, nblocks), ["k"], ["t"], "v", window=window, out_col="m"
        )
        .to_pandas()
        .sort_values(["k", "t"])
        .reset_index(drop=True)
    )
    want = df.sort_values(["k", "t"]).reset_index(drop=True)
    rolling = want.groupby("k")["v"].rolling(window, min_periods=1)
    want["m"] = getattr(rolling, how)().reset_index(level=0, drop=True)
    pd.testing.assert_frame_equal(out[["k", "t", "v", "m"]], want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestRollingMedianProperties:
    @given(**rolling_given)
    @settings(**_SETTINGS)
    def test_matches_pandas_rolling_median(self, rows, nblocks, window):
        _check_rolling("median", rows, nblocks, window)

    @given(**rolling_given)
    @settings(**_SETTINGS)
    def test_matches_pandas_rolling_sum(self, rows, nblocks, window):
        _check_rolling("sum", rows, nblocks, window)


@pytest.mark.usefixtures("ray_session")
class TestWebtextKernelProperties:
    @given(
        scheme=st.sampled_from(["https://", "http://", "HTTP://", ""]),
        www=st.sampled_from(["", "www.", "WWW."]),
        host=st.sampled_from(["example.test", "Sub1.DOM3.test", "a.b.c.test"]),
        path=st.sampled_from(["", "/", "/p/1", "/p/1/", "/UPPER/Case"]),
        query=st.sampled_from(
            ["", "?page=2", "?utm_source=x", "?page=2&utm_a=1", "?utm_a=1&page=2"]
        ),
        frag=st.sampled_from(["", "#f", "#frag/with?marks"]),
    )
    @settings(**_SETTINGS)
    def test_canonicalize_idempotent(self, scheme, www, host, path, query, frag):
        import ray.data as rd

        from vigil_ray.stages.corpus import canonicalize_urls

        url = f"{scheme}{www}{host}{path}{query}{frag}"
        once = (
            canonicalize_urls(rd.from_items([{"url": url}]))
            .to_pandas()["canonical_url"][0]
        )
        twice = (
            canonicalize_urls(rd.from_items([{"url": once}]))
            .to_pandas()["canonical_url"][0]
        )
        assert once == twice, (url, once, twice)

    @given(
        rows=st.lists(
            st.tuples(st.text(alphabet="ab ", max_size=25),
                      st.text(alphabet="ab ", max_size=25)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(**_SETTINGS)
    def test_edit_distance_symmetry_and_identity(self, rows):
        from vigil_ray.stages.dedup import batch_edit_distances

        ta = [r[0] for r in rows]
        tb = [r[1] for r in rows]
        fwd = batch_edit_distances(ta, tb)
        rev = batch_edit_distances(tb, ta)
        assert (fwd == rev).all()
        assert (batch_edit_distances(ta, ta) == 0).all()


# rows for the sorted-run reducers: (key in 0..3 — heavy ties, two small
# values — ties inside a key too). One extra key ("span") is dealt into
# every input block, so after the input split it touches all of them.
reducer_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=0,
    max_size=50,
)


def _reducer_table(rows, nblocks, key_type, span):
    """Arrow table (k, v, w, vid) with ``k`` as int32 or string. With
    ``span`` a key 9 row is dealt into each of the ``nblocks`` slices that
    ``repartition`` cuts, so that key touches every input block."""
    import pyarrow as pa

    rows = list(rows)
    if span:
        step = max(1, -(-len(rows) // nblocks))
        for i in reversed(range(nblocks)):
            rows.insert(min(i * step, len(rows)), (9, i % 3 - 1, i % 2))
    keys = [r[0] for r in rows]
    return pa.table(
        {
            "k": pa.array(keys, pa.int32())
            if key_type == "int32"
            else pa.array([f"key{x}" for x in keys], pa.string()),
            "v": pa.array([r[1] for r in rows], pa.int64()),
            "w": pa.array([r[2] for r in rows], pa.int64()),
            "vid": pa.array(range(len(rows)), pa.int64()),
        }
    )


def _arrow_ds(tbl, nblocks):
    import ray.data as rd

    return rd.from_arrow(tbl).repartition(nblocks)


def _rows_of(ds, cols):
    """Output rows as sorted tuples, plus each non-empty block's type of
    ``cols[0]``. One execution: a re-run would repeat worker-side
    truncation warnings."""
    tables = [
        t
        for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    rows = sorted(
        tuple(r[c] for c in cols) for t in tables for r in t.to_pylist()
    )
    return rows, [t.schema.field(cols[0]).type for t in tables]


_REDUCER_GIVEN = dict(
    rows=reducer_rows,
    nblocks=st.integers(min_value=1, max_value=7),
    key_type=st.sampled_from(["int32", "string"]),
    span=st.booleans(),
)


@pytest.mark.usefixtures("ray_session")
class TestSortedRunReducerProperties:
    """Differential: the sorted-run reducers (group argmin, group
    sum/min/max, group top-k, bucket pairs, distinct pairs) against plain
    Python or pandas on random ties, block layouts, a key touching every
    input block, empty input, and int32 and string keys."""

    @given(desc=st.tuples(st.booleans(), st.booleans()), **_REDUCER_GIVEN)
    @settings(**_SETTINGS)
    def test_group_min_matches_python(self, rows, nblocks, key_type, span, desc):
        from vigil_ray.stages.corpus import sorted_group_min

        tbl = _reducer_table(rows, nblocks, key_type, span)
        out = sorted_group_min(
            _arrow_ds(tbl.select(["k", "v", "w"]), nblocks),
            ["k"],
            ["v", "w"],
            descending=list(desc),
        )
        got, types = _rows_of(out, ["k", "v", "w"])
        best = {}
        for r in tbl.to_pylist():
            order = tuple(-r[c] if d else r[c] for c, d in zip("vw", desc))
            if r["k"] not in best or order < best[r["k"]][0]:
                best[r["k"]] = (order, (r["k"], r["v"], r["w"]))
        assert got == sorted(t for _, t in best.values())
        assert all(t == tbl.schema.field("k").type for t in types)

    @given(
        desc=st.tuples(st.booleans(), st.booleans()),
        k=st.sampled_from([1, 2, 3, 100]),
        **_REDUCER_GIVEN,
    )
    # the true top row sits behind a same-key row in its input block: a
    # pre-cap that skipped its own sort would keep the wrong one
    @example(
        rows=[(0, 3, 0), (0, -3, 0)], nblocks=1, key_type="int32", span=False,
        desc=(False, False), k=1,
    )
    @settings(**_SETTINGS)
    def test_group_topk_matches_pandas_head(self, rows, nblocks, key_type, span, desc, k):
        from vigil_ray.stages.corpus import sorted_group_topk

        tbl = _reducer_table(rows, nblocks, key_type, span)
        # v and w tie often; vid (unique) ends the order
        order = [(c, "descending" if d else "ascending") for c, d in zip("vw", desc)]
        out = sorted_group_topk(
            _arrow_ds(tbl, nblocks), ["k"], order + [("vid", "ascending")], k
        )
        got, types = _rows_of(out, ["k", "v", "w", "vid"])
        df = tbl.to_pandas().sort_values(
            ["k", "v", "w", "vid"],
            ascending=[True, not desc[0], not desc[1], True],
            kind="stable",
        )
        want = sorted(df.groupby("k").head(k).itertuples(index=False, name=None))
        assert got == want
        assert all(t == tbl.schema.field("k").type for t in types)

    @given(**_REDUCER_GIVEN)
    @settings(**_SETTINGS)
    def test_group_agg_matches_python(self, rows, nblocks, key_type, span):
        from vigil_ray.stages.corpus import sorted_group_agg

        tbl = _reducer_table(rows, nblocks, key_type, span)
        out = sorted_group_agg(
            _arrow_ds(tbl.select(["k", "v", "w"]), nblocks),
            ["k"],
            [("v", "sum", "s"), ("v", "min", "lo"), ("w", "max", "hi")],
        )
        got, types = _rows_of(out, ["k", "s", "lo", "hi"])
        groups = {}
        for r in tbl.to_pylist():
            groups.setdefault(r["k"], []).append(r)
        want = sorted(
            (k, sum(r["v"] for r in g), min(r["v"] for r in g), max(r["w"] for r in g))
            for k, g in groups.items()
        )
        assert got == want
        assert all(t == tbl.schema.field("k").type for t in types)

    @given(max_bucket=st.integers(min_value=2, max_value=6), **_REDUCER_GIVEN)
    @settings(**_SETTINGS)
    def test_bucket_pairs_and_drop_count_match_python(
        self, rows, nblocks, key_type, span, max_bucket
    ):
        import tempfile
        from pathlib import Path
        from unittest import mock

        from vigil_ray.stages import dedup

        tbl = _reducer_table(rows, nblocks, key_type, span)
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "dropped"
            log.touch()

            def record(stage, n_buckets, n_dropped):
                # runs in the Ray worker that holds the bucket: append to a
                # file the test process can read
                with open(log, "a") as f:
                    f.write(f"{n_buckets} {n_dropped}\n")

            with mock.patch.object(dedup, "_warn_truncated", record):
                out = dedup.sorted_bucket_pairs(
                    _arrow_ds(tbl.select(["k", "vid"]), nblocks),
                    ["k"],
                    ["vid"],
                    dedup.all_member_pairs,
                    max_bucket,
                    "differential",
                )
                got, _ = _rows_of(out, ["a", "b"])
            warned = [tuple(map(int, x.split())) for x in log.read_text().split("\n") if x]
        buckets = {}
        for r in tbl.to_pylist():
            buckets.setdefault(r["k"], []).append(r["vid"])
        want, n_trunc, n_dropped = [], 0, 0
        for members in buckets.values():
            kept = sorted(members)[:max_bucket]
            if len(members) > max_bucket:
                n_trunc += 1
                n_dropped += len(members) - max_bucket
            want += [(a, b) for i, a in enumerate(kept) for b in kept[i + 1 :]]
        assert got == sorted(want)
        assert sum(b for b, _ in warned) == n_trunc
        assert sum(d for _, d in warned) == n_dropped

    @given(**_REDUCER_GIVEN)
    @settings(**_SETTINGS)
    def test_distinct_pairs_match_python(self, rows, nblocks, key_type, span):
        from vigil_ray.stages.corpus import sorted_group_agg

        tbl = _reducer_table(rows, nblocks, key_type, span)
        # (a, b) = (k, v): duplicate pairs from the key and value ties
        pairs = tbl.select(["k", "v"]).rename_columns(["a", "b"])
        out = sorted_group_agg(_arrow_ds(pairs, nblocks), ["a", "b"], [])
        got, types = _rows_of(out, ["a", "b"])
        assert got == sorted(set(zip(*pairs.to_pydict().values())))
        assert all(t == pairs.schema.field("a").type for t in types)


# rows for the sort-merge attach / lookup join: (key in 0..5, int value).
# A hot key 6, ``hot_rows`` rows long, is added to every example.
attach_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=-3, max_value=3)),
    min_size=0,
    max_size=40,
)
_HOT = 6

_SORTMERGE_GIVEN = dict(
    rows=attach_rows,
    nblocks=st.integers(min_value=1, max_value=7),
    key_type=st.sampled_from(["int64", "string"]),
    hot_rows=st.integers(min_value=3, max_value=9),
)


def _key_array(keys, key_type):
    import pyarrow as pa

    if key_type == "int64":
        return pa.array(keys, pa.int64())
    return pa.array([f"key{k}" for k in keys], pa.string())


@pytest.mark.usefixtures("ray_session")
class TestSortMergeAttachProperties:
    """Differential: ``sorted_attach`` (count + int sums) and
    ``sorted_lookup_join`` (inner, left) against pandas ``transform`` and
    ``merge`` on 1-7 input blocks, int and string keys, a hot key, missing
    lookup keys, and a lookup row with a null value."""

    @given(**_SORTMERGE_GIVEN)
    @settings(**_SETTINGS)
    def test_attach_matches_pandas_transform(self, rows, nblocks, key_type, hot_rows):
        import pyarrow as pa

        from vigil_ray.stages.sortmerge import sorted_attach

        rows = list(rows) + [(_HOT, i % 7 - 3) for i in range(hot_rows)]
        keys = [r[0] for r in rows]
        tbl = pa.table(
            {
                "k": _key_array(keys, key_type),
                "v": pa.array([r[1] for r in rows], pa.int64()),
                "w": pa.array([i % 3 for i in range(len(rows))], pa.int64()),
                "rid": pa.array(range(len(rows)), pa.int64()),
            }
        )
        out = sorted_attach(
            _arrow_ds(tbl, nblocks), ["k"], sum_cols=["v", "w"], count_name="n"
        )
        got, types = _rows_of(out, ["rid", "k", "v", "w", "n", "v_sum", "w_sum"])
        df = tbl.to_pandas()
        g = df.groupby("k")
        df["n"], df["v_sum"], df["w_sum"] = (
            g["k"].transform("size"),
            g["v"].transform("sum"),
            g["w"].transform("sum"),
        )
        want = sorted(map(tuple, df[["rid", "k", "v", "w", "n", "v_sum", "w_sum"]].values.tolist()))
        assert got == want
        assert all(t == pa.int64() for t in types)

    @pytest.mark.parametrize("how", ["inner", "left"])
    @given(
        missing=st.sets(st.integers(min_value=0, max_value=5)),
        null_key=st.integers(min_value=0, max_value=_HOT),
        lk_blocks=st.integers(min_value=1, max_value=3),
        **_SORTMERGE_GIVEN,
    )
    @settings(**_SETTINGS)
    def test_lookup_join_matches_pandas_merge(
        self, rows, nblocks, key_type, hot_rows, missing, null_key, lk_blocks, how
    ):
        import pandas as pd
        import pyarrow as pa

        from vigil_ray.stages.sortmerge import sorted_lookup_join

        rows = list(rows) + [(_HOT, 0)] * hot_rows
        keys = [r[0] for r in rows]
        tbl = pa.table(
            {"k": _key_array(keys, key_type), "rid": pa.array(range(len(rows)), pa.int64())}
        )
        missing.discard(null_key)
        lk_keys = [k for k in range(_HOT + 1) if k not in missing]
        lk = pa.table(
            {
                "k": _key_array(lk_keys, key_type),
                "val": pa.array([None if k == null_key else 10 * k + 1 for k in lk_keys], pa.int64()),
                "tag": pa.array([f"t{k}" for k in lk_keys], pa.string()),
            }
        )
        out = sorted_lookup_join(
            _arrow_ds(tbl, nblocks), _arrow_ds(lk, lk_blocks), ["k"], how=how
        )
        got, types = _rows_of(out, ["rid", "k", "val", "tag"])
        lk_df = lk.to_pandas()
        lk_df["val"] = pd.array(lk.column("val").to_pylist(), dtype="Int64")
        merged = tbl.to_pandas().merge(lk_df, on="k", how=how)
        want = sorted(
            (int(r.rid), r.k, None if pd.isna(r.val) else int(r.val), None if pd.isna(r.tag) else r.tag)
            for r in merged.itertuples()
        )
        assert got == want
        assert all(t == tbl.schema.field("rid").type for t in types)
