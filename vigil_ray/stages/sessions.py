"""Gap-based sessionization over the events log (streaming-shaped operator).

Ray Data has no event-time windows (SURVEY.md §2.8): the idiomatic expression
is to treat events as a partitioned log keyed by ``user_id``. The r3 form
runs on ONE global sort + a fragment-merge monoid — NO worker, aggregate, or
collected list ever holds a user's full history (the earlier collect-list
form assumed one user's history fits one aggregated row; this one has no
per-key state at all — driver state is O(blocks)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sessionize(ds, gap_minutes: int = 30):
    """→ (user_id, n_sessions, n_events, max_session_events).

    One global sort by (user_id, ts) pins each user's events contiguous; a
    session starts at each user-run start and wherever the in-run gap
    exceeds the threshold. The user runs reduce on ``runs.reduce_sorted_runs``:

    - partial: each run's constant-size FRAGMENT ``(k sessions, n events,
      max session, head len, tail len, first/last ts)``, computed
      vectorized per block;
    - merge: the session-merge monoid folds a user's fragments from the
      blocks it spans in (first_ts, last_ts) order. When the
      cross-boundary gap ≤ threshold the left tail session and right head
      session coalesce (``k₁+k₂−1``, ``max(m₁, m₂, tail₁+head₂)``);
    - emit: users inside one block are complete, their fragment IS the row.

    No worker, aggregate or collected list holds a user's history, and the
    driver folds ≤2 fragments per block. Degenerate-tie caveat: identical
    timestamps spanning 3+ blocks fold in arbitrary order among the ties,
    which is still correct because a 0 gap always merges.
    """
    from vigil_ray.stages.blocks import coalesce_blocks, compact_blocks
    from vigil_ray.stages.runs import np_col, reduce_sorted_runs

    gap_us = gap_minutes * 60_000_000

    def to_us(batch: pa.Table) -> pa.Table:
        # normalize to microsecond int64 (a raw pandas datetime64[ns]
        # .astype(int64) would silently be nanoseconds)
        ts = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        return pa.table({"user_id": batch.column("user_id"), "ts_us": ts})

    base = ds.map_batches(to_us, batch_format="pyarrow")
    ds_sorted = compact_blocks(coalesce_blocks(base).sort(["user_id", "ts_us"]))

    def fragments(block: pa.Table, starts: np.ndarray, runs: np.ndarray) -> pa.Table:
        ts = np_col(block, "ts_us")
        n = block.num_rows
        new = np.ones(n, dtype=bool)
        new[1:] = (ts[1:] - ts[:-1]) > gap_us
        new[starts] = True  # a new user always starts a session
        sess = np.flatnonzero(new)
        seg_len = np.diff(np.append(sess, n))
        first = np.searchsorted(sess, starts)  # each run's first session
        k = np.diff(np.append(first, len(sess)))
        ne = np.diff(np.append(starts, n))
        cols = {
            "k": k,
            "ne": ne,
            "mx": np.maximum.reduceat(seg_len, first),
            "head": seg_len[first],
            "tail": seg_len[first + k - 1],
            "first_ts": ts[starts],
            "last_ts": ts[starts + ne - 1],
        }
        out = block.select(["user_id"]).take(pa.array(starts[runs], pa.int64()))
        for c, v in cols.items():
            out = out.append_column(c, pa.array(v[runs], pa.int64()))
        return out

    def fold(frags: pa.Table) -> pa.Table:
        order = [(c, "ascending") for c in ("user_id", "first_ts", "last_ts")]
        merged: list = []
        for f in frags.sort_by(order).to_pylist():
            if not merged or merged[-1]["user_id"] != f["user_id"]:
                merged.append(f)
                continue
            p = merged[-1]
            if f["first_ts"] - p["last_ts"] <= gap_us:  # sessions coalesce
                joint = p["tail"] + f["head"]
                p["head"] = p["head"] if p["k"] > 1 else p["head"] + f["head"]
                p["tail"] = f["tail"] if f["k"] > 1 else p["tail"] + f["tail"]
                p["k"] = p["k"] + f["k"] - 1
                p["mx"] = max(p["mx"], f["mx"], joint)
            else:
                p["k"] += f["k"]
                p["tail"] = f["tail"]
                p["mx"] = max(p["mx"], f["mx"])
            p["ne"] += f["ne"]
            p["last_ts"] = f["last_ts"]
        return users(pa.Table.from_pylist(merged, schema=frags.schema))

    def users(frags: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": frags.column("user_id"),
                "n_sessions": frags.column("k"),
                "n_events": frags.column("ne"),
                "max_session_events": frags.column("mx"),
            }
        )

    return reduce_sorted_runs(
        ds_sorted,
        ["user_id"],
        ["ts_us"],
        fragments,
        fold,
        lambda block, starts, runs: users(fragments(block, starts, runs)),
    )


def funnel_counts(ds, stages_types, user_col: str = "user_id", ts_col: str = "ts"):
    """Ordered funnel (sequential-pattern operator): how many users performed
    stage 1, then stage 2 strictly after their first stage-1 event, then
    stage 3 strictly after that, ... Returns a (stage, n_users) table in
    funnel order.

    r3 rewrite — sorted-stream AUTOMATON FRAGMENTS, no per-user collected
    state: one global sort by (user, ts, stage) pins per-user runs; the
    funnel's forward scan (state = next stage needed + cutoff ts) replays
    each INTERIOR run directly (those users are complete within the block),
    and each block's first/last run emits a fragment TRANSITION TABLE — the
    automaton's exit ``(stage, cutoff)`` for every entry stage × a
    boundary-tie flag. The table is finite because the stream is ts-sorted:
    an entry cutoff from earlier fragments can only be < the fragment's
    first ts, or exactly EQUAL it (the tie flag); it can never exceed it.
    The driver folds ≤2 fragments per block. Determinism caveat: fragments
    of one user fold in (first_ts, first_stage) order — unique unless a
    single (user, ts, stage) triple spans 3+ blocks, where any fold order
    ties to the same cutoff anyway."""
    import pyarrow.compute as pc

    from vigil_ray.stages.blocks import coalesce_blocks, compact_blocks
    from vigil_ray.stages.runs import run_starts

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

    ds_sorted = compact_blocks(
        coalesce_blocks(ds.map_batches(prep, batch_format="pyarrow")).sort(
            [user_col, "ts_us", "code"]
        )
    )

    def replay(ts, code, s0: int, entry_tie: bool):
        """Forward-scan the automaton from entry stage ``s0``; ``entry_tie``
        means the (unknown) entry cutoff equals ts[0]. Returns (exit stage,
        exit cutoff or None = inherit entry cutoff)."""
        s, cut = s0, None
        first = ts[0]
        for t, c in zip(ts, code):
            if s >= K:
                break
            if c != s:
                continue
            if cut is None:
                if entry_tie and t == first:
                    continue  # not strictly after the entry cutoff
            elif t <= cut:
                continue
            s += 1
            cut = int(t)
        return s, cut

    frag_cols = [
        (f"exit_s_{s0}_{tie}", f"exit_c_{s0}_{tie}")
        for s0 in range(K)
        for tie in (0, 1)
    ]

    def block_stats(batch: pa.Table) -> pa.Table:
        utype = batch.column(user_col).type
        ts = batch.column("ts_us").combine_chunks().to_numpy(zero_copy_only=False)
        code = batch.column("code").combine_chunks().to_numpy(zero_copy_only=False)
        starts = run_starts(batch, [user_col])
        ends = list(starts[1:]) + [batch.num_rows]
        nruns = len(starts)
        reached = [0] * K
        frag_rows: list = []
        for i, (a, b) in enumerate(zip(starts, ends)):
            a, b = int(a), int(b)
            if i == 0 or i == nruns - 1:  # boundary run → fragment
                row = {
                    "first_ts": int(ts[a]),
                    "first_code": int(code[a]),
                    "__user_idx": a,
                }
                for s0 in range(K):
                    for tie in (0, 1):
                        es, ec = replay(ts[a:b], code[a:b], s0, bool(tie))
                        row[f"exit_s_{s0}_{tie}"] = es
                        row[f"exit_c_{s0}_{tie}"] = ec
                frag_rows.append(row)
            else:  # complete user: replay from scratch and count
                s, _ = replay(ts[a:b], code[a:b], 0, False)
                for j in range(s):
                    reached[j] += 1
        n_f = len(frag_rows)
        cols = {
            "is_frag": pa.array([True] * n_f + [False]),
            user_col: pa.concat_arrays(
                [
                    batch.column(user_col)
                    .take(pa.array([r["__user_idx"] for r in frag_rows], pa.int64()))
                    .combine_chunks(),
                    pa.nulls(1, utype),
                ]
            ),
            "first_ts": pa.array(
                [r["first_ts"] for r in frag_rows] + [None], pa.int64()
            ),
            "first_code": pa.array(
                [r["first_code"] for r in frag_rows] + [None], pa.int64()
            ),
        }
        for sc, cc in frag_cols:
            cols[sc] = pa.array([r[sc] for r in frag_rows] + [None], pa.int64())
            cols[cc] = pa.array([r[cc] for r in frag_rows] + [None], pa.int64())
        for s in range(K):
            cols[f"cnt_{s}"] = pa.array([None] * n_f + [reached[s]], pa.int64())
        return pa.table(cols)

    rows = ds_sorted.map_batches(
        block_stats, batch_format="pyarrow", batch_size=None
    ).take_all()  # 1 counts row + ≤2 fragment rows per block

    totals = [0] * K
    frags = []
    for r in rows:
        if r["is_frag"]:
            frags.append(r)
        else:
            for s in range(K):
                totals[s] += r[f"cnt_{s}"] or 0

    frags.sort(key=lambda r: (r[user_col], r["first_ts"], r["first_code"]))
    i = 0
    while i < len(frags):
        j = i
        s, cut = 0, None
        while j < len(frags) and frags[j][user_col] == frags[i][user_col]:
            f = frags[j]
            if s < K:
                tie = 1 if (cut is not None and cut == f["first_ts"]) else 0
                new_s = f[f"exit_s_{s}_{tie}"]
                new_c = f[f"exit_c_{s}_{tie}"]
                if new_c is not None:
                    cut = new_c
                s = new_s
            j += 1
        for k_ in range(s):
            totals[k_] += 1
        i = j

    return pa.table(
        {
            "stage": pa.array(list(stages_types), pa.string()),
            "n_users": pa.array(totals, pa.int64()),
        }
    )
