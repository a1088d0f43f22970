"""Gap-based sessionization and the ordered funnel over the events log
(streaming-shaped operators).

Ray Data has no event-time windows (SURVEY.md §2.8): the idiomatic expression
is to treat events as a partitioned log keyed by ``user_id``. Both operators
sort by the user alone (``runs.map_sorted_runs``), which leaves each user's
events whole in one block; each block orders its rows by time and resolves
its users in one map. No aggregate or collected list holds a user's
history, and the driver holds nothing per user.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sessionize(ds, gap_minutes: int = 30):
    """→ (user_id, n_sessions, n_events, max_session_events).

    One sort by user_id puts each user's events in one block, ordered by
    ts inside it; a session starts at each user-run start and wherever the
    in-run gap exceeds the threshold. Every user's row is computed
    vectorized over the block: session count, event count and the longest
    session. Tied timestamps give a 0 gap, which never splits a session,
    so the order among ties does not matter.
    """
    from vigil_ray.stages.blocks import coalesce_blocks
    from vigil_ray.stages.runs import map_sorted_runs, np_col

    gap_us = gap_minutes * 60_000_000

    def to_us(batch: pa.Table) -> pa.Table:
        # normalize to microsecond int64 (a raw pandas datetime64[ns]
        # .astype(int64) would silently be nanoseconds)
        ts = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        return pa.table({"user_id": batch.column("user_id"), "ts_us": ts})

    def users(block: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = np_col(block, "ts_us")
        n = block.num_rows
        new = np.ones(n, dtype=bool)
        new[1:] = (ts[1:] - ts[:-1]) > gap_us
        new[starts] = True  # a new user always starts a session
        sess = np.flatnonzero(new)
        seg_len = np.diff(np.append(sess, n))
        first = np.searchsorted(sess, starts)  # each run's first session
        return pa.table(
            {
                "user_id": block.column("user_id").take(pa.array(starts, pa.int64())),
                "n_sessions": pa.array(np.diff(np.append(first, len(sess))), pa.int64()),
                "n_events": pa.array(np.diff(np.append(starts, n)), pa.int64()),
                "max_session_events": pa.array(
                    np.maximum.reduceat(seg_len, first), pa.int64()
                ),
            }
        )

    base = coalesce_blocks(ds.map_batches(to_us, batch_format="pyarrow"))
    return map_sorted_runs(
        base, ["user_id"], ["ts_us"], users, order=[("ts_us", "ascending")]
    )


def funnel_counts(ds, stages_types, user_col: str = "user_id", ts_col: str = "ts"):
    """Ordered funnel (sequential-pattern operator): how many users performed
    stage 1, then stage 2 strictly after their first stage-1 event, then
    stage 3 strictly after that, ... Returns a (stage, n_users) table in
    funnel order.

    One sort by user puts each user's events in one block, ordered by
    (ts, stage) inside it. Each block replays the funnel's forward scan
    (state = next stage needed + cutoff ts) over each of its users and
    returns one row of per-stage user counts; the driver sums one row per
    block. The sort input is the filtered event stream as it comes: the
    counts row is the only output, so no block is pinned before the sort.
    """
    from vigil_ray.stages.runs import map_sorted_runs, np_col

    K = len(stages_types)
    stage_arr = pa.array(list(stages_types), pa.string())

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch.column("event_type"), value_set=stage_arr)
        t = batch.filter(keep)
        ts = pc.cast(pc.cast(t.column(ts_col), pa.timestamp("us")), pa.int64())
        code = pc.cast(
            pc.index_in(t.column("event_type"), value_set=stage_arr), pa.int64()
        )
        return pa.table({user_col: t.column(user_col), "ts_us": ts, "code": code})

    def block_counts(block: pa.Table, starts: np.ndarray) -> pa.Table:
        ts = np_col(block, "ts_us").tolist()
        code = np_col(block, "code").tolist()
        reached = [0] * (K + 1)  # users whose scan stopped before stage s
        for a, b in zip(starts.tolist(), starts[1:].tolist() + [block.num_rows]):
            s, cut = 0, None
            for t, c in zip(ts[a:b], code[a:b]):
                if c == s and (cut is None or t > cut):
                    s, cut = s + 1, t
                    if s == K:
                        break
            reached[s] += 1
        done = np.cumsum(reached[::-1])[::-1][1:]  # users past each stage
        return pa.table({f"cnt_{s}": pa.array([done[s]], pa.int64()) for s in range(K)})

    rows = map_sorted_runs(
        ds.map_batches(prep, batch_format="pyarrow"),
        [user_col],
        ["ts_us", "code"],
        block_counts,
        order=[("ts_us", "ascending"), ("code", "ascending")],
    ).take_all()
    return pa.table(
        {
            "stage": pa.array(list(stages_types), pa.string()),
            "n_users": pa.array(
                [sum(r[f"cnt_{s}"] for r in rows) for s in range(K)], pa.int64()
            ),
        }
    )
