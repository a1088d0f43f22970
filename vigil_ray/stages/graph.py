"""Distributed graph operators for dedup post-processing.

The dedup operators (``stages/dedup.py``) emit near-duplicate PAIRS, but a
keep/drop decision needs CLUSTERS: duplication is transitive (A~B, B~C puts
{A,B,C} in one cluster even when A~C was never emitted by the LSH bands).
``connected_components`` closes that gap with distributed min-label
propagation, and ``canonical_docs`` picks one keeper per cluster — together
they are the back half of a web-scale dedup pipeline
(pairs → components → one canonical doc per component).

No reference analog: iurileao-hub/vigil-pii-detector has no dedup at all;
this follows the public MapReduce-CC literature (label propagation; cf.
Kiveris et al., "Connected Components in MapReduce and Beyond", SoCC'14).
"""

from __future__ import annotations

import os

import pyarrow as pa

from vigil_ray.stages.blocks import compact_blocks


# Pair sets at or under this fold on the driver (union-find fast path);
# beyond it the distributed label-propagation loop runs. On a cluster with
# a small driver, size this to driver memory (~100 bytes/pair of dict
# machinery → 1M pairs ≈ 100 MB).
_MAX_DRIVER_CC_PAIRS = int(os.environ.get("GRAFT_CC_DRIVER_PAIRS", 1_000_000))


def _driver_union_find(pairs, a_col: str, b_col: str):
    """Driver-local union-find (path-halving) over a pair-scale edge list:
    one streamed pass over the pairs, then min-id per set. Exactly the
    min-label-propagation fixpoint, in one pass instead of
    diameter-many distributed rounds."""
    import pyarrow.compute as pc
    import ray.data as rd

    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    typ_a = typ_b = None
    for b in pairs.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:
            continue
        typ_a = typ_a or b.column(a_col).type
        typ_b = typ_b or b.column(b_col).type
        # null-id edges drop, matching the distributed path (a null never
        # joins a label row, so it never receives or donates a component)
        mask = pc.and_(
            pc.is_valid(b.column(a_col)), pc.is_valid(b.column(b_col))
        )
        if not pc.all(mask).as_py():
            b = b.filter(mask)
        for x, y in zip(
            b.column(a_col).to_pylist(), b.column(b_col).to_pylist()
        ):
            parent.setdefault(x, x)
            parent.setdefault(y, y)
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    comp_min: dict = {}
    for x in parent:
        r = find(x)
        m = comp_min.get(r)
        if m is None or x < m:
            comp_min[r] = x
    nodes = sorted(parent)
    comps = [comp_min[find(x)] for x in nodes]
    # unify the a/b column types so e.g. an int32 a_col with an int64 b_col
    # yields one promoted output type (the distributed path's union of the
    # two projections does the same promotion)
    if typ_a is None:
        typ = typ_b or pa.int64()  # empty input: match distributed schema
    elif typ_b is None or typ_a.equals(typ_b):
        typ = typ_a
    else:
        typ = pa.unify_schemas(
            [pa.schema([("v", typ_a)]), pa.schema([("v", typ_b)])],
            promote_options="permissive",
        ).field("v").type
    return rd.from_arrow(
        pa.table(
            {"node": pa.array(nodes, typ), "component": pa.array(comps, typ)}
        )
    )


def connected_components(
    pairs_ds,
    a_col: str = "a",
    b_col: str = "b",
    num_partitions: int = 8,
    max_iters: int = 50,
):
    """Label every node of the undirected pair graph with the MINIMUM node
    id reachable from it (= its component id). Returns a Dataset with
    columns ``(node, component)``, one row per distinct node in the pairs.

    Shape: min-label propagation. Each round is one hash join (edges ⋈
    labels, both (int, int) tables — the shuffle never carries text) plus
    one ``sorted_group_min`` (native sort + vectorized run scan, no
    per-group aggregate machinery). Rounds = graph diameter; LSH duplicate
    clusters are near-cliques (the bands emit most intra-cluster pairs
    directly), so 2–3 rounds in practice. The documented assumption: a
    pathological chain of length k needs k rounds — ``max_iters`` guards
    loudly rather than silently stopping early.

    Size gate: pair sets of at most ``_MAX_DRIVER_CC_PAIRS`` (default 1M;
    env knob ``GRAFT_CC_DRIVER_PAIRS``) fold on the driver via union-find
    in one streamed pass — on that fast path ``max_iters`` does NOT apply
    (union-find has no iteration bound to hit); it bounds only the
    distributed label-propagation loop used beyond the gate.

    Convergence certificate: labels are non-increasing per node, so the
    global label sum strictly decreases until fixpoint — one scalar
    ``sum()`` per round replaces a change-count join. (Caveat: the sum is
    int64; ~10⁹ nodes with ~10¹⁰ ids would need the count-changes form.)
    """
    import ray.data as rd

    from vigil_ray.stages.corpus import sorted_group_min

    # pairs feed three lineages (fwd edges, rev edges) — pin once
    pairs = pairs_ds.materialize()

    # FAST PATH (size-gated, the broadcast-join pattern): the pair set is
    # the LSH output — a corpus-FRACTION, not the corpus (2.3k pairs for
    # 71k docs at sf0.1). Under the gate, a driver-local union-find folds
    # it in one streamed pass — replacing diameter-many distributed rounds
    # of (sorted_lookup_join + sorted_group_min), each ~2 s of sort
    # machinery. Beyond the gate the distributed loop below carries
    # arbitrary-scale pair sets; max_iters applies to that path only.
    if pairs.count() <= _MAX_DRIVER_CC_PAIRS:
        return _driver_union_find(
            pairs.select_columns([a_col, b_col]), a_col, b_col
        )

    def _proj(src: str, dst: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"src": batch.column(src), "dst": batch.column(dst)}
            )

        return f

    # compact (not plain materialize): edges and labels feed hash joins
    # every round, and a 0-row block leading a join's shuffle breaks its
    # schema broadcast (blocks.py)
    edges = compact_blocks(
        pairs.map_batches(_proj(a_col, b_col), batch_format="pyarrow")
        .union(pairs.map_batches(_proj(b_col, a_col), batch_format="pyarrow"))
    )
    if edges.count() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "component": pa.array([], pa.int64()),
                }
            )
        )

    def _self_label(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch.column("src"), "component": batch.column("src")}
        )

    labels = compact_blocks(
        sorted_group_min(
            edges.map_batches(_self_label, batch_format="pyarrow"),
            ["node"],
            ["component"],
        )
    )
    prev_sum = labels.sum("component")

    def _msg(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch.column("dst"), "component": batch.column("component")}
        )

    from vigil_ray.stages.sortmerge import sorted_lookup_join

    for _ in range(max_iters):
        lab_src = labels.rename_columns({"node": "src"})
        msgs = (
            sorted_lookup_join(edges, lab_src, ["src"], ["component"])
            .map_batches(_msg, batch_format="pyarrow")
            .union(labels)
        )
        labels = compact_blocks(sorted_group_min(msgs, ["node"], ["component"]))
        cur_sum = labels.sum("component")
        if cur_sum == prev_sum:
            return labels
        prev_sum = cur_sum
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} rounds — "
        "graph diameter exceeds the guard (raise max_iters)"
    )


def canonical_docs(
    docs_ds,
    components_ds,
    id_col: str = "doc_id",
    score_col: str = "score",
    num_partitions: int = 8,
):
    """Kept-doc ids after cluster-level dedup: for every duplicate cluster
    in ``components_ds`` (``(node, component)`` from
    :func:`connected_components`) keep the member with the LARGEST
    ``score_col`` (ties → smallest id); docs in no cluster are kept as-is.
    Returns a Dataset with the single column ``id_col``.

    Scale shape: the docs side streams — cluster members pull their score
    through a ``sorted_lookup_join`` against the docs stream (the docs side
    carries only (id, score); no hash-join shuffle-pool machinery), and the
    untouched majority passes through ``bloom_anti_join`` (bitmap broadcast
    once, no shuffle for bloom-negative rows). ``score_col`` must be
    numeric (the per-cluster argmax runs descending on it).
    """
    from vigil_ray.stages.corpus import bloom_anti_join, sorted_group_min
    from vigil_ray.stages.sortmerge import sorted_lookup_join

    docs = docs_ds.materialize()  # consumed by both the join and the anti-join

    members = sorted_lookup_join(
        components_ds.rename_columns({"node": id_col}),
        docs,
        [id_col],
        [score_col],
    )
    winners = sorted_group_min(
        members,
        ["component"],
        [score_col, id_col],
        descending=[True, False],
    )

    def _ids(batch: pa.Table) -> pa.Table:
        return pa.table({id_col: batch.column(id_col)})

    singles = bloom_anti_join(
        docs,
        components_ds,
        key_col=id_col,
        blocklist_col="node",
        num_partitions=num_partitions,
    )
    return winners.map_batches(_ids, batch_format="pyarrow").union(
        singles.map_batches(_ids, batch_format="pyarrow")
    )


def pagerank(nodes_ds, edges_ds, iters: int = 3, total: int = 10**12,
             num_partitions: int = 8):
    """Distributed PageRank over an (src, dst) edge list — the canonical
    iterative web-graph computation (Page et al. 1999; domain-rank quality
    signals over a Common-Crawl-style link graph). Returns one row per node:
    ``(node, rank_micro)``.

    INTEGER-EXACT protocol (the corpus-LM trick, stages/lm.py): all mass is
    integer micro-units of ``total`` and every division floors, so the
    per-target sums are order-independent and a SQL oracle reproduces the
    iteration bit-for-bit — an exactly-checked iterative algorithm instead
    of "converges, trust me":

    - ``r0 = total // N`` for every node;
    - per edge, ``contrib = r_src // outdeg(src)``;
    - ``r' = (15 * (total // N)) // 100 + (85 * sum(contrib)) // 100``
      (damping 0.85; nodes with no in-edges keep the teleport term).

    Per-iteration cost (the 100-TB ledger): ONE ``sorted_lookup_join`` of
    the edge list against the node-sized rank table (the shuffle carries
    (int64, int64) rows only — never text) plus one ``sorted_group_sum`` on
    dst and one left ``sorted_lookup_join`` back onto the node set — all
    three are native sorts with one map over whole key runs
    (stages/runs.py), not hash joins: each Ray ``Dataset.join`` costs
    ~3 s of shuffle-pool machinery at sf0.1 (BASELINE.md) and this loop ran
    SEVEN of them in the earlier form. The static out-degree is attached
    ONCE before the loop by ``sorted_attach`` (out-degree = each src run's
    length). Dangling mass (out-degree-0 nodes) is dropped, not
    redistributed — documented, mirrored exactly by the oracle.
    """
    from vigil_ray.stages.corpus import sorted_group_sum
    from vigil_ray.stages.sortmerge import sorted_attach, sorted_lookup_join

    edges_deg = sorted_attach(
        edges_ds, ["src"], count_name="one"
    ).materialize()  # (src, dst, one=outdeg); static across iterations — pin

    n_nodes = nodes_ds.count()
    base = total // n_nodes
    teleport = (15 * base) // 100

    def init_rank(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch.column("node"),
                "r": pa.array([base] * batch.num_rows, pa.int64()),
            }
        )

    nodes = nodes_ds.materialize()  # consumed every iteration
    ranks = nodes.map_batches(init_rank, batch_format="pyarrow")

    def rank_as_src(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch.column("node"), "r": batch.column("r")})

    def sums_as_node(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("dst"), "c": batch.column("c")})

    for _ in range(iters):
        j = sorted_lookup_join(
            edges_deg,
            ranks.map_batches(rank_as_src, batch_format="pyarrow"),
            ["src"],
            ["r"],
        )

        def contrib(batch: pa.Table) -> pa.Table:
            r = batch.column("r").combine_chunks().to_numpy(zero_copy_only=False)
            d = batch.column("one").combine_chunks().to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "dst": batch.column("dst"),
                    "c": pa.array(r // d, pa.int64()),
                }
            )

        sums = sorted_group_sum(
            j.map_batches(contrib, batch_format="pyarrow"), ["dst"], ["c"]
        )
        joined = sorted_lookup_join(
            nodes,
            sums.map_batches(sums_as_node, batch_format="pyarrow"),
            ["node"],
            ["c"],
            how="left",
        )

        def update(batch: pa.Table) -> pa.Table:
            s = (
                batch.column("c")
                .combine_chunks()
                .fill_null(0)
                .to_numpy(zero_copy_only=False)
            )
            return pa.table(
                {
                    "node": batch.column("node"),
                    "r": pa.array(teleport + (85 * s) // 100, pa.int64()),
                }
            )

        ranks = joined.map_batches(update, batch_format="pyarrow").materialize()

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["node", "rank_micro"])

    return ranks.map_batches(rename, batch_format="pyarrow")
