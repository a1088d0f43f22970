"""Sorted-adjacency attach primitives (stages/sortmerge.py) vs pandas
simulators — including hot keys whose runs straddle many blocks."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _mk(df: pd.DataFrame, nblocks: int = 8):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df)).repartition(nblocks)


def _rng(seed=7):
    return np.random.default_rng(seed)


@pytest.mark.usefixtures("ray_session")
class TestSortedAttach:
    def test_count_and_sum_match_pandas_window(self):
        from vigil_ray.stages.sortmerge import sorted_attach

        r = _rng()
        # zipf-ish skew: key 0 is hot and will span several sorted blocks
        keys = np.minimum((r.pareto(0.7, 3000)).astype(np.int64), 40)
        df = pd.DataFrame(
            {"k": keys, "v": r.integers(0, 100, 3000), "tag": keys % 3}
        )
        out = (
            sorted_attach(_mk(df), ["k"], sum_cols=["v"], count_name="n")
            .to_pandas()
            .sort_values(["k", "v", "tag"])
            .reset_index(drop=True)
        )
        exp = df.copy()
        exp["n"] = exp.groupby("k")["k"].transform("size")
        exp["v_sum"] = exp.groupby("k")["v"].transform("sum")
        exp = exp.sort_values(["k", "v", "tag"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            out[["k", "v", "tag", "n", "v_sum"]].astype("int64"),
            exp.astype("int64"),
        )

    def test_string_keys(self):
        from vigil_ray.stages.sortmerge import sorted_attach

        df = pd.DataFrame({"w": ["a", "b", "a", "c", "a", "b"], "c": [1, 2, 3, 4, 5, 6]})
        out = sorted_attach(_mk(df, 3), ["w"], count_name="df").to_pandas()
        got = out.groupby("w")["df"].first().to_dict()
        assert got == {"a": 3, "b": 2, "c": 1}
        assert len(out) == 6

    def test_requires_something(self):
        from vigil_ray.stages.sortmerge import sorted_attach

        with pytest.raises(ValueError):
            sorted_attach(_mk(pd.DataFrame({"k": [1]})), ["k"])

    def test_rejects_non_integer_sum_column(self):
        """An int64 sum would truncate 0.5 + 0.75 to 0 silently."""
        from vigil_ray.stages.corpus import sorted_group_agg, sorted_group_sum
        from vigil_ray.stages.sortmerge import sorted_attach

        df = pd.DataFrame({"k": [1, 1, 2], "n": [1, 2, 3], "x": [0.5, 0.75, 1.0]})
        with pytest.raises(ValueError, match="'x'"):
            sorted_attach(_mk(df, 2), ["k"], sum_cols=["n", "x"])
        with pytest.raises(ValueError, match="'x'"):
            sorted_group_sum(_mk(df, 2), ["k"], ["x"])
        # min/max keep the native type: floats are fine there
        out = sorted_group_agg(_mk(df, 2), ["k"], [("x", "max", "hi"), ("n", "sum", "s")])
        got = sorted((r["k"], r["hi"], r["s"]) for r in out.take_all())
        assert got == [(1, 0.75, 3), (2, 1.0, 3)]


@pytest.mark.usefixtures("ray_session")
class TestSortedLookupJoin:
    def _data(self):
        r = _rng(11)
        rows = pd.DataFrame(
            {
                "k": np.minimum(r.pareto(0.7, 2000).astype(np.int64), 30),
                "payload": r.integers(0, 1000, 2000),
            }
        )
        # lookup misses some keys (every 5th) to exercise inner-drop/left-null
        lk = pd.DataFrame({"k": [k for k in range(31) if k % 5 != 0]})
        lk["val"] = lk["k"] * 10 + 1
        return rows, lk

    def test_inner_matches_pandas_merge(self):
        from vigil_ray.stages.sortmerge import sorted_lookup_join

        rows, lk = self._data()
        out = (
            sorted_lookup_join(_mk(rows), _mk(lk, 3), ["k"])
            .to_pandas()
            .sort_values(["k", "payload"])
            .reset_index(drop=True)
        )
        exp = (
            rows.merge(lk, on="k", how="inner")
            .sort_values(["k", "payload"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            out[["k", "payload", "val"]].astype("int64"), exp.astype("int64")
        )

    def test_left_matches_pandas_merge(self):
        from vigil_ray.stages.sortmerge import sorted_lookup_join

        rows, lk = self._data()
        out = (
            sorted_lookup_join(_mk(rows), _mk(lk, 3), ["k"], how="left")
            .to_pandas()
            .sort_values(["k", "payload"])
            .reset_index(drop=True)
        )
        exp = (
            rows.merge(lk, on="k", how="left")
            .sort_values(["k", "payload"])
            .reset_index(drop=True)
        )
        assert out["val"].isna().sum() == exp["val"].isna().sum() > 0
        pd.testing.assert_frame_equal(
            out[["k", "payload", "val"]].astype("float64"),
            exp.astype("float64"),
        )

    def test_rejects_bad_how_and_collision(self):
        from vigil_ray.stages.sortmerge import sorted_lookup_join

        rows, lk = self._data()
        with pytest.raises(ValueError):
            sorted_lookup_join(_mk(rows), _mk(lk), ["k"], how="outer")
        lk2 = lk.rename(columns={"val": "payload"})
        with pytest.raises(ValueError):
            sorted_lookup_join(_mk(rows), _mk(lk2), ["k"])

    def test_rejects_duplicate_lookup_key(self):
        """A key with two lookup rows raises instead of taking either one;
        the check runs in the worker holding the key's run, and the driver
        sees a ValueError with the message intact."""
        from vigil_ray.stages.sortmerge import sorted_lookup_join

        rows, lk = self._data()
        dup = pd.concat([lk, lk[lk["k"] == 7].assign(val=-1)])
        with pytest.raises(ValueError, match=r"duplicate key \{'k': 7\}"):
            sorted_lookup_join(_mk(rows), _mk(dup, 3), ["k"], how="left").materialize()


def _contract_table(kind: str) -> pa.Table:
    """200k rows, one key holding 60% of them, the rest spread thin."""
    r = _rng(3)
    n = 200_000
    hot = r.random(n) < 0.6
    a = np.where(hot, 0, r.integers(1, 20_000, n))
    if kind == "int64":
        return pa.table({"k": a})
    if kind == "string":
        return pa.table({"k": pa.array([f"key{x}" for x in a], pa.string())})
    if kind == "two_column":
        return pa.table({"k": a % 100, "j": np.where(hot, 0, a // 100)})
    # null-bearing: 5% null keys next to the hot run
    return pa.table({"k": pa.array(a, pa.int64(), mask=r.random(n) < 0.05)})


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("kind", ["int64", "string", "two_column", "nulls"])
def test_sort_keeps_each_key_in_one_block(kind):
    """The contract ``runs.map_sorted_runs`` stands on: Ray's
    range-partitioned ``sort`` puts every distinct key in exactly one
    output block, however hot the key, so a map over sorted blocks sees
    each key run whole. Ray relies on the same contract in
    ``GroupedData.map_groups`` (``ray/data/grouped_data.py``: sort, then
    ``batch_size=None``, "guaranteeing that groups are contained in
    full"). If a Ray upgrade breaks it, this fails before any sorted-run
    operator returns a wrong answer."""
    import ray
    import ray.data as rd

    t = _contract_table(kind)
    keys = t.column_names
    mat = rd.from_arrow(t).repartition(8).sort(keys).materialize()
    blocks = [b for b in ray.get(mat.to_arrow_refs()) if b.num_rows]
    assert sum(b.num_rows for b in blocks) == t.num_rows
    assert len(blocks) > 1
    distinct = pa.concat_tables(
        [b.group_by(keys, use_threads=False).aggregate([]) for b in blocks]
    )
    per_key = distinct.group_by(keys, use_threads=False).aggregate([([], "count_all")])
    assert per_key.num_rows == t.group_by(keys, use_threads=False).aggregate([]).num_rows
    assert max(per_key.column("count_all").to_pylist()) == 1
