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
