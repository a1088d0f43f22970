"""Hot-key skew stress battery (SURVEY §7.5.5: in web corpora one language /
one host can hold half the corpus).

Every test runs on a synthetic events table where ONE user owns 40% of all
rows and those rows are scattered uniformly across 32 blocks — the dominant
key spans essentially every block, which is exactly the layout that breaks
per-key collected-state designs (one worker would hold 40% of the corpus).
The sorted-block primitive family, sessionize and the funnel (the sorted-run
map holds the dominant user's whole run in one block), and skew_join are
all pinned against pandas / greedy references on this input. Timings for
the same shape at 2M rows are recorded in BASELINE.md ("Hot-key skew
probe"); correctness is what these tests pin.
"""

import numpy as np
import pandas as pd
import pytest

N_ROWS = 24_000
HOT_FRAC = 0.40
N_BLOCKS = 32
N_COLD_USERS = 400


def _skewed_frame(with_nulls: bool = False, seed: int = 42) -> pd.DataFrame:
    rng = np.random.RandomState(seed)
    n_hot = int(N_ROWS * HOT_FRAC)
    users = np.concatenate(
        [
            np.zeros(n_hot, dtype=np.int64),
            rng.randint(1, N_COLD_USERS + 1, size=N_ROWS - n_hot),
        ]
    )
    # scatter the hot key across the whole frame (and hence all blocks)
    users = users[rng.permutation(N_ROWS)]
    df = pd.DataFrame(
        {
            "user_id": users,
            "t": np.arange(N_ROWS, dtype=np.int64),  # unique per-key order
            "v": rng.randint(-1000, 1000, size=N_ROWS).astype(np.int64),
        }
    )
    if with_nulls:
        vals = df["v"].astype("float64")
        vals[rng.rand(N_ROWS) < 0.3] = np.nan
        df["v"] = vals
    return df


def _ds(df: pd.DataFrame):
    import ray.data as rd

    return rd.from_pandas(df).repartition(N_BLOCKS)


def _hot_spans_blocks(df: pd.DataFrame) -> int:
    # rows land in blocks by position under repartition: block = pos * NB // n
    blocks = (np.flatnonzero(df["user_id"].to_numpy() == 0) * N_BLOCKS) // len(df)
    return len(np.unique(blocks))


def test_fixture_is_actually_skewed():
    df = _skewed_frame()
    counts = df["user_id"].value_counts()
    assert counts.loc[0] == int(N_ROWS * HOT_FRAC)
    assert counts.loc[0] / N_ROWS >= 0.39
    # the dominant key must span (essentially) every block
    assert _hot_spans_blocks(df) == N_BLOCKS


@pytest.mark.usefixtures("ray_session")
class TestSkewedSortedBlockPrimitives:
    def test_prefix_scan_under_dominant_key(self):
        from vigil_ray.stages.corpus import grouped_prefix_scan

        df = _skewed_frame()
        out = (
            grouped_prefix_scan(_ds(df), ["user_id"], ["t"], cost_col="v")
            .to_pandas()
            .sort_values(["user_id", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["user_id", "t"]).reset_index(drop=True)
        want["cum_excl"] = want.groupby("user_id")["v"].cumsum() - want["v"]
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_row_number_under_dominant_key(self):
        from vigil_ray.stages.corpus import grouped_prefix_scan

        df = _skewed_frame()
        out = (
            grouped_prefix_scan(_ds(df), ["user_id"], ["t"])
            .to_pandas()
            .sort_values(["user_id", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["user_id", "t"]).reset_index(drop=True)
        want["cum_excl"] = want.groupby("user_id").cumcount()
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_shift_lag_and_lead_under_dominant_key(self):
        from vigil_ray.stages.corpus import grouped_shift

        df = _skewed_frame()
        for periods in (1, -1):
            out = (
                grouped_shift(
                    _ds(df), ["user_id"], ["t"], "v", periods=periods, out_col="s"
                )
                .to_pandas()
                .sort_values(["user_id", "t"])
                .reset_index(drop=True)
            )
            want = df.sort_values(["user_id", "t"]).reset_index(drop=True)
            want["s"] = want.groupby("user_id")["v"].shift(periods)
            pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_fill_forward_under_dominant_key(self):
        from vigil_ray.stages.corpus import grouped_fill_forward

        df = _skewed_frame(with_nulls=True)
        out = (
            grouped_fill_forward(_ds(df), ["user_id"], ["t"], "v", out_col="f")
            .to_pandas()
            .sort_values(["user_id", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["user_id", "t"]).reset_index(drop=True)
        want["f"] = want.groupby("user_id")["v"].ffill()
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_rolling_sum_under_dominant_key(self):
        from vigil_ray.stages.corpus import grouped_rolling_sum

        df = _skewed_frame()
        out = (
            grouped_rolling_sum(
                _ds(df), ["user_id"], ["t"], "v", window=7, out_col="r"
            )
            .to_pandas()
            .sort_values(["user_id", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["user_id", "t"]).reset_index(drop=True)
        want["r"] = (
            want.groupby("user_id")["v"].rolling(7, min_periods=1).sum().values
        )
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_rolling_median_under_dominant_key(self):
        from vigil_ray.stages.corpus import grouped_rolling_median

        df = _skewed_frame()
        out = (
            grouped_rolling_median(
                _ds(df), ["user_id"], ["t"], "v", window=5, out_col="m"
            )
            .to_pandas()
            .sort_values(["user_id", "t"])
            .reset_index(drop=True)
        )
        want = df.sort_values(["user_id", "t"]).reset_index(drop=True)
        want["m"] = (
            want.groupby("user_id")["v"].rolling(5, min_periods=1).median().values
        )
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)

    def test_sorted_group_agg_under_dominant_key(self):
        from vigil_ray.stages.corpus import sorted_group_sum

        df = _skewed_frame()
        out = (
            sorted_group_sum(_ds(df[["user_id", "v"]]), ["user_id"], ["v"])
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        want = (
            df.groupby("user_id", as_index=False)["v"].sum().sort_values("user_id")
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(out[want.columns], want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestSkewedSequentialState:
    def test_sessionize_under_dominant_key(self):
        from vigil_ray.stages.sessions import sessionize

        df = _skewed_frame()
        base = pd.Timestamp("2026-01-01")
        # dense integer-minute offsets force many cross-block session merges
        # for the hot user (its ~9.6k rows fold across all 32 blocks)
        tsdf = pd.DataFrame(
            {
                "user_id": df["user_id"],
                "ts": base + pd.to_timedelta(df["t"] % 5000, unit="m"),
            }
        )
        out = (
            sessionize(_ds(tsdf), gap_minutes=3)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        gap = pd.Timedelta(minutes=3)
        recs = []
        for u, g in tsdf.sort_values(["user_id", "ts"]).groupby("user_id"):
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

    def test_funnel_under_dominant_key(self):
        from vigil_ray.stages.sessions import funnel_counts

        df = _skewed_frame()
        stages = ("signup", "click", "purchase")
        types = np.array(["signup", "click", "purchase", "view"])
        evdf = pd.DataFrame(
            {
                "user_id": df["user_id"],
                "ts": (df["t"] % 97).astype(np.int64),  # heavy ts ties
                "event_type": types[df["v"].to_numpy() % 4],
            }
        )
        out = funnel_counts(_ds(evdf), stages)
        got = dict(
            zip(out.column("stage").to_pylist(), out.column("n_users").to_pylist())
        )
        want = {s: 0 for s in stages}
        for _, g in evdf.groupby("user_id"):
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


@pytest.mark.usefixtures("ray_session")
class TestSkewedJoin:
    def test_skew_join_under_dominant_key(self):
        import ray.data as rd

        from vigil_ray.stages.joins import skew_join

        df = _skewed_frame()
        fact = _ds(df)
        dim = pd.DataFrame(
            {
                "dk": np.arange(N_COLD_USERS + 1, dtype=np.int64),
                "label": [f"u{i}" for i in range(N_COLD_USERS + 1)],
            }
        )
        out = (
            skew_join(fact, rd.from_pandas(dim).repartition(3), "user_id", "dk")
            .to_pandas()
            .sort_values(["user_id", "t"])
            .reset_index(drop=True)
        )
        want = (
            df.merge(dim, left_on="user_id", right_on="dk")
            .drop(columns=["dk"])
            .sort_values(["user_id", "t"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            out[sorted(out.columns)], want[sorted(want.columns)], check_dtype=False
        )
        # the hot user must be fully represented — replicated, not truncated
        assert (out["user_id"] == 0).sum() == int(N_ROWS * HOT_FRAC)
