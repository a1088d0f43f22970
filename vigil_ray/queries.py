"""Driver-facing query registry: Ray pipelines + DuckDB oracle SQL.

Each query is one operator/pipeline from SURVEY.md §2 (or a north-rule
capability) expressed Ray-Data-first, with an ANSI-SQL equivalent the driver
runs on the same parquet tables. Column names match exactly between the two
sides (the driver hashes values after sorting columns by name).

A query is registered once, on its engine function: ``@query(sql)`` above
``def q_<name>`` records the function, its oracle SQL and whether bench.py
times it (``bench=True``). ``queries()``, ``oracle_sql()`` and
``bench_queries()`` are views of that registration, in definition order.

Two oracle styles are used:

- *independent recomputation* — the SQL computes the same function (counts,
  groupbys, windows, md5 fingerprints, token counts);
- *by construction* — for detection/scrub semantics the SQL derives the
  expected answer from the deterministic pages-synthesis arithmetic
  (``vigil_ray.sources.pages``: family = doc_id mod 20), not by re-running
  regexes. This checks the whole Ray pipeline against ground truth.

Callables never call ``ray.init``/``ray.shutdown`` (driver owns the session).
"""
from __future__ import annotations

from typing import Callable, Dict, Tuple

import pyarrow as pa

from vigil_ray.config import PipelineConfig

# pages families with real PII (sources/pages.py FAMILIES table)
PII_FAMILIES = (0, 1, 2, 3, 5, 7, 8, 13, 14, 17, 18)
DROP_FAMILIES = (10, 11, 12)
TOXIC_FAMILY = 19
_PII_SET = ", ".join(str(f) for f in PII_FAMILIES)

# SQL fragment: the scrubbed suffix each family appends (by construction,
# mirrors kernel scrub semantics over sources/pages.py FAMILIES — see
# tests/test_queries_oracle.py for the cross-check).
_SCRUB_SUFFIX_CASE = """
CASE doc_id % 20
  WHEN 0 THEN ' Atenção. Meu CPF é [CPF] para contato.'
  WHEN 1 THEN ' Contato: [EMAIL] obrigado.'
  WHEN 2 THEN ' [TELEFONE] ligar à tarde.'
  WHEN 3 THEN ' Documento [RG] anexado.'
  WHEN 4 THEN ' Conforme processo SEI 00015-12345678/2026-01 informado.'
  WHEN 5 THEN ' meu nome é [NOME], atenciosamente.'
  WHEN 6 THEN ' CDA n. 08563214753 sobre o imóvel.'
  WHEN 7 THEN ' Registro. CPF: [CPF] ok. Obrigado.'
  WHEN 8 THEN ' documento [CPF] e de novo [CPF] anexo.'
  WHEN 9 THEN ' Moro na Quadra 302 Norte, CEP: 70000-000.'
  WHEN 11 THEN ' ' || repeat('buy now ', 60)
  WHEN 12 THEN ' ' || repeat('### ... ', 20)
  WHEN 13 THEN ' [TELEFONE] após as 18h.'
  WHEN 14 THEN ' [TELEFONE] e email [EMAIL] juntos.'
  WHEN 15 THEN ' Nis: 98765432165 para consulta.'
  WHEN 17 THEN ' SSN: [SSN] informado.'
  WHEN 18 THEN ' Cartão [CARTAO] cadastrado.'
  WHEN 19 THEN ' você é um idiota estúpido e eu odeio isso.'
  ELSE ''
END
"""

_URL_EXPR = "'https://example.test/doc/' || lpad(CAST(doc_id AS VARCHAR), 9, '0')"


# --------------------------------------------------------------------------
# oracle SQL fragments shared by several queries
# --------------------------------------------------------------------------

# SQL CTE reconstructing the variants corpus by construction
_VARIANTS_CTE = """
variants AS (
  SELECT doc_id AS vid, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS vid, text FROM documents WHERE doc_id % 7 = 3
  UNION ALL
  SELECT doc_id + 2000000 AS vid, text || ' extra' AS text FROM documents WHERE doc_id % 5 = 0
)
"""


def _jaccard_pairs_ctes(ngram: int, threshold: float) -> str:
    """CTE chain ending in ``pairs(a, b)`` — true word-n-gram Jaccard pairs
    over the variants corpus (independent recomputation of the dedup
    operators' semantics in SQL). Shared by the pair oracles and the
    connected-components / canonical-dedup oracles built on the pair set."""
    concat = " || ' ' || ".join(f"w[i+{j}]" for j in range(ngram))
    return f"""{_VARIANTS_CTE},
toks AS (
  SELECT vid, regexp_split_to_array(lower(trim(text)), '\\s+') AS w FROM variants
),
grams AS (
  SELECT DISTINCT vid, {concat} AS g
  FROM toks, LATERAL unnest(range(1, len(w) - {ngram - 2})) AS t(i)
),
sizes AS (SELECT vid, count(*) AS sz FROM grams GROUP BY vid),
inter AS (
  SELECT ga.vid AS a, gb.vid AS b, count(*) AS n
  FROM grams ga JOIN grams gb ON ga.g = gb.g AND ga.vid < gb.vid
  GROUP BY ga.vid, gb.vid
),
pairs AS (
  SELECT i.a, i.b
  FROM inter i
  JOIN sizes sa ON i.a = sa.vid
  JOIN sizes sb ON i.b = sb.vid
  WHERE CAST(i.n AS DOUBLE) / (sa.sz + sb.sz - i.n) >= {threshold}
)"""


def _jaccard_pairs_sql(ngram: int, threshold: float) -> str:
    return f"""
WITH {_jaccard_pairs_ctes(ngram, threshold)}
SELECT a, b FROM pairs
"""


# min-reachable-node component labels over the pair graph; appended after
# _jaccard_pairs_ctes under a WITH RECURSIVE header. UNION (set semantics)
# bounds the recursion; `comp(node, component)` is the final table.
_COMPONENTS_CTES = """
edges AS (SELECT a AS u, b AS v FROM pairs UNION SELECT b, a FROM pairs),
reach(node, lbl) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.u, r.lbl FROM edges e JOIN reach r ON r.node = e.v
),
comp AS (SELECT node, min(lbl) AS component FROM reach GROUP BY node)
"""


# SQL fragment: the full (unscrubbed) page text per family, for payload
# reconstruction oracles. Mirrors sources/pages.py _page_text.
_PAGE_TEXT_EXPR = """
CASE WHEN doc_id % 20 = 10 THEN
  array_to_string((regexp_split_to_array(trim(text), '\\s+'))[1:3], ' ')
ELSE trim(text ||
  CASE doc_id % 20
    WHEN 0 THEN ' Atenção. Meu CPF é 123.456.789-00 para contato.'
    WHEN 1 THEN ' Contato: user' || CAST(doc_id AS VARCHAR) || '@example.test obrigado.'
    WHEN 2 THEN ' Telefone: (61) 99999-8888 ligar à tarde.'
    WHEN 3 THEN ' Documento RG: 12.345.678-9 anexado.'
    WHEN 4 THEN ' Conforme processo SEI 00015-12345678/2026-01 informado.'
    WHEN 5 THEN ' meu nome é João da Silva Pereira, atenciosamente.'
    WHEN 6 THEN ' CDA n. 08563214753 sobre o imóvel.'
    WHEN 7 THEN ' Registro. CPF: 12345678908 ok. Obrigado.'
    WHEN 8 THEN ' documento 123456789-00 e de novo 123456789-00 anexo.'
    WHEN 9 THEN ' Moro na Quadra 302 Norte, CEP: 70000-000.'
    WHEN 11 THEN ' ' || repeat('buy now ', 60)
    WHEN 12 THEN ' ' || repeat('### ... ', 20)
    WHEN 13 THEN ' whatsapp: 61 99999 8888 após as 18h.'
    WHEN 14 THEN ' +55 11 98888-7777 e email ana' || CAST(doc_id AS VARCHAR) || '@mail.test juntos.'
    WHEN 15 THEN ' Nis: 98765432165 para consulta.'
    WHEN 17 THEN ' SSN: 123-45-6789 informado.'
    WHEN 18 THEN ' Cartão 4111 1111 1111 1111 cadastrado.'
    WHEN 19 THEN ' você é um idiota estúpido e eu odeio isso.'
    ELSE ''
  END)
END
"""


_HTML_EXPR = (
    "'<html><head><title>doc</title></head><body><p>' || "
    "replace(replace(replace((" + _PAGE_TEXT_EXPR + "), '&', '&amp;'), "
    "'<', '&lt;'), '>', '&gt;') || '</p></body></html>'"
)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

# name -> (engine function, DuckDB oracle SQL, bench.py secondary?), in
# registration order, which is the definition order of the q_ functions below
_REGISTRY: Dict[str, Tuple[Callable, str, bool]] = {}


def query(sql: str, *, bench: bool = False):
    """Register the decorated ``q_<name>`` function as query ``<name>`` with
    its oracle SQL; ``bench=True`` makes it a bench.py secondary. Returns the
    function unchanged, so queries can call each other."""

    def register(fn: Callable) -> Callable:
        if not fn.__name__.startswith("q_"):
            raise ValueError(f"query function {fn.__name__!r} must be named q_<name>")
        name = fn.__name__[2:]
        if name in _REGISTRY:
            raise ValueError(f"query {name!r} is registered twice")
        _REGISTRY[name] = (fn, sql, bench)
        return fn

    return register


def queries() -> Dict[str, Callable]:
    return {name: fn for name, (fn, _, _) in _REGISTRY.items()}


def oracle_sql() -> Dict[str, str]:
    return {name: sql for name, (_, sql, _) in _REGISTRY.items()}


def bench_queries() -> Dict[str, Callable]:
    return {name: fn for name, (fn, _, bench) in _REGISTRY.items() if bench}


def _docs(sf_dir: str, columns=None):
    from vigil_ray.sources.readers import read_table

    return read_table(f"{sf_dir}/documents.parquet", columns=columns)


def _synth_cache_path(sf_dir: str, kind: str) -> str:
    """/tmp cache path for a synthesized fixture table, keyed on the SOURCE
    DATA fingerprint (size+mtime of documents.parquet) so a regenerated
    corpus can never serve a stale cache, while repeated query calls in one
    driver session skip the driver-side Python synthesis loop entirely."""
    import hashlib
    import os

    from vigil_ray.stages.ann import data_fingerprint

    fp = hashlib.md5(
        data_fingerprint(os.path.join(sf_dir, "documents.parquet")).encode()
    ).hexdigest()[:12]
    base = os.path.basename(os.path.normpath(sf_dir))
    return f"/tmp/vigil_synth/{kind}_{base}_{fp}.parquet"


def _pages_ds(sf_dir: str):
    import ray.data as rd

    from vigil_ray.sources.pages import synthesize_pages

    table = synthesize_pages(
        sf_dir, out_path=_synth_cache_path(sf_dir, "pages")
    )
    # from_arrow yields ONE block → downstream map stages would run on a
    # single task; split so per-doc work parallelizes (~2k rows per block)
    return rd.from_arrow(table).repartition(max(1, table.num_rows // 2048))


# --------------------------------------------------------------------------
# queries, in registry order
# --------------------------------------------------------------------------
# Definition ORDER below is registry order, and it is deliberate: the
# external driver verifies roughly the first 50 entries per round. Rounds
# 1-4 together produced driver-green rows for 111 of the 120 queries; the
# nine that have never had an external row lead the round-5 window so
# CORRECTNESS_r05 closes verification over all 120. The four round-5
# additions (docs_dsir_weights, embeddings_semdedup, docs_winnow_fps,
# docs_winnow_match_pairs) sit inside the window so they get an external
# row in their first round. The §2 correctness anchors (pages_pii_labels,
# pages_scrubbed, eval_confusion, review_items) stay in the window to catch
# regressions in the core PII path; the rest of the window re-checks the
# r4-green queries, and everything after position ~50 was driver-green in
# an earlier round and stays covered by the local two-scale oracle protocol
# (.claude/skills/verify). Move a def only to change the order on purpose.

# --- the last nine never-driver-verified queries (r1-r4) ---
@query(
    "SELECT event_id, CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT) AS mov_sum_cents "
    "FROM events",
    bench=True,
)
def q_events_moving_sum(sf_dir: str):
    """Per-key moving-window aggregate (SQL ``ROWS BETWEEN 4 PRECEDING AND
    CURRENT ROW``): the sliding 5-event sum of value (exact integer cents —
    float windowed averages are rounding-order-dependent) per user in
    (ts, event_id) order. Sorted-block rolling SUM
    (`corpus.grouped_rolling_sum` — the rolling-median machinery with a sum
    reducer): NO per-user collected state (this query's old collect-list
    form was the engine's last unbounded per-key accumulator — one hot user
    at web scale was one aggregator's whole heap)."""
    import numpy as np

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_rolling_sum

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts": batch.column("ts"),
                "cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    rows = ds.map_batches(cents, batch_format="pyarrow")
    out = grouped_rolling_sum(
        rows, ["user_id"], ["ts", "event_id"], "cents", window=5,
        out_col="mov_sum_cents",
    )
    return out.select_columns(["event_id", "mov_sum_cents"])


@query(
    "WITH s AS (SELECT event_type, avg(value) AS mean, "
    "  stddev_pop(value) AS sd FROM events GROUP BY event_type) "
    "SELECT e.event_id, round((e.value - s.mean) / s.sd, 6) AS z "
    "FROM events e JOIN s USING (event_type)",
    bench=True,
)
def q_events_value_zscore(sf_dir: str):
    """Per-event-type population z-score of ``value`` — the feature
    normalization a training pipeline runs before export. Two passes: a
    per-type Mean/Std(ddof=0) aggregate (a handful of rows) broadcast via
    ``ray.put``, then one vectorized normalize pass. Both sides round to 6
    (accumulation-order float noise)."""
    import numpy as np
    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Mean, Std

    from vigil_ray.sources.readers import read_table

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])
    stats = ds.groupby("event_type").aggregate(
        Mean("value", alias_name="mean"),
        Std("value", ddof=0, alias_name="sd"),
    )
    params = {
        r["event_type"]: (r["mean"], r["sd"]) for r in stats.take_all()
    }
    pref = ray.put(params)

    def normalize(batch: pa.Table) -> pa.Table:
        p = ray.get(pref)
        types = batch.column("event_type").to_pylist()
        means = np.array([p[t][0] for t in types])
        sds = np.array([p[t][1] for t in types])
        vals = batch.column("value").combine_chunks().to_numpy(zero_copy_only=False)
        z = (vals - means) / sds
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "z": pc.round(pa.array(z, pa.float64()), 6),
            }
        )

    return ds.map_batches(normalize, batch_format="pyarrow")


def _jittered_arrival(ds):
    """Deterministic out-of-order delivery model: arrival = event time plus a
    per-event transport delay of ``(event_id·48271) mod 3600`` seconds. The
    synthetic events table is time-ordered, so without jitter no event is
    ever late and the watermark path would be vacuous; with delays spread
    over an hour and a 30-min allowed lateness, ~20% of events really drop
    (the oracle counts them identically)."""
    import pyarrow.compute as pc

    def add_arrival(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        eid = batch.column("event_id")
        import numpy as np

        jitter = (
            (np.asarray(eid.to_pylist(), dtype=np.int64) * 48271) % 3600
        ) * 1_000_000
        arr = pc.add(ts_us, pa.array(jitter, pa.int64()))
        return batch.append_column("arr_us", arr)

    return ds.map_batches(add_arrival, batch_format="pyarrow")


@query(
    "WITH e AS (SELECT event_id, ts, "
    "  ts + (CAST((event_id * 48271) % 3600 AS BIGINT) * INTERVAL 1 SECOND) AS arr "
    "  FROM events), "
    "s AS (SELECT ts, max(ts) OVER (ORDER BY arr, event_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm FROM e) "
    "SELECT CAST(count(*) AS BIGINT) AS n_total, "
    "CAST(count(*) FILTER (WHERE wm IS NOT NULL AND ts < wm - INTERVAL 30 MINUTE) "
    "AS BIGINT) AS n_late FROM s",
    bench=True,
)
def q_events_late_stats(sf_dir: str):
    """Late-arrival metric of the same watermark pass: 1-row
    (n_total, n_late)."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.streaming import late_event_stats

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])
    d = late_event_stats(_jittered_arrival(ds), arrival_cols=("arr_us", "event_id"))
    return pa.table(
        {
            "n_total": pa.array([d["n_total"]], pa.int64()),
            "n_late": pa.array([d["n_late"]], pa.int64()),
        }
    )


@query(
    "WITH hv AS (SELECT event_type, "
    "  (CAST('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16) AS UBIGINT) + 1) "
    "  / 18446744073709551616.0 AS h FROM events), "
    "d AS (SELECT DISTINCT event_type, h FROM hv), "
    "r AS (SELECT event_type, h, "
    "  row_number() OVER (PARTITION BY event_type ORDER BY h) AS rn FROM d), "
    "stats AS (SELECT event_type, count(*) AS nd FROM d GROUP BY event_type), "
    "kth AS (SELECT event_type, h FROM r WHERE rn = 64) "
    "SELECT s.event_type, "
    "round(CASE WHEN s.nd < 64 THEN CAST(s.nd AS DOUBLE) "
    "ELSE 63.0 / kth.h END, 6) AS n_distinct_est "
    "FROM stats s LEFT JOIN kth USING (event_type)",
    bench=True,
)
def q_events_type_kmv(sf_dir: str):
    """Per-event-type approximate distinct users (KMV, k=64) — grouped
    cardinality without a distinct shuffle; md5 hashing makes the estimate
    SQL-recomputable exactly. See
    :func:`vigil_ray.stages.sketches.kmv_grouped`."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.sketches import kmv_grouped

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return kmv_grouped(ds, "user_id", "event_type", k=64)


@query(
    "WITH hv AS ( "
    "  SELECT event_type, "
    "  (CAST('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16) AS UBIGINT) + 1) "
    "  / 18446744073709551616.0 AS h FROM events "
    "  WHERE event_type IN ('click', 'purchase')), "
    "ka AS (SELECT DISTINCT h FROM hv WHERE event_type = 'click' ORDER BY h LIMIT 64), "
    "kb AS (SELECT DISTINCT h FROM hv WHERE event_type = 'purchase' ORDER BY h LIMIT 64), "
    "ku AS (SELECT h FROM (SELECT h FROM ka UNION SELECT h FROM kb) ORDER BY h LIMIT 64), "
    "ea AS (SELECT CASE WHEN count(*) < 64 THEN CAST(count(*) AS DOUBLE) "
    "       ELSE 63.0 / max(h) END AS e FROM ka), "
    "eb AS (SELECT CASE WHEN count(*) < 64 THEN CAST(count(*) AS DOUBLE) "
    "       ELSE 63.0 / max(h) END AS e FROM kb), "
    "eu AS (SELECT CASE WHEN count(*) < 64 THEN CAST(count(*) AS DOUBLE) "
    "       ELSE 63.0 / max(h) END AS e FROM ku) "
    "SELECT round(ea.e, 6) AS est_a, round(eb.e, 6) AS est_b, "
    "round(eu.e, 6) AS est_union, "
    "round(ea.e + eb.e - eu.e, 6) AS est_intersection "
    "FROM ea, eb, eu",
    bench=True,
)
def q_events_kmv_setops(sf_dir: str):
    """KMV sketch SET ALGEBRA (distinct clickers, purchasers, their union
    and inclusion-exclusion intersection estimate) — one aggregate pass
    carrying both k-truncated sketches; every estimate exactly recomputed
    by the SQL oracle from the same md5 hashes."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.sketches import kmv_two_set

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    return kmv_two_set(ds, "user_id", "event_type", "click", "purchase", k=64)


@query(
    # quantile_disc = value at 1-based position ceil(q*n); decile =
    # count of boundaries strictly below the row's length (matches
    # the engine's searchsorted side='left')
    "WITH bd AS (SELECT quantile_disc(n_chars, "
    "  [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]) AS bs FROM documents) "
    "SELECT d.doc_id, "
    "CAST(len(list_filter(bd.bs, b -> d.n_chars > b)) AS BIGINT) AS decile "
    "FROM documents d, bd",
    bench=True,
)
def q_docs_length_decile(sf_dir: str):
    """Assign every doc its global length decile (curriculum bucketing).
    Two passes, neither corpus-sized: (1) a value-histogram of ``n_chars``
    (map-side ``value_counts`` partials merged by ``sorted_group_sum`` —
    the shuffle carries one row per DISTINCT length), from which the driver
    derives the nine ``quantile_disc`` boundaries (1-based position
    ``ceil(q*n)``); (2) the 9 boundary ints ride the task closure and a
    vectorized ``searchsorted`` labels each row."""
    import math

    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.stages.corpus import sorted_group_sum

    ds = _docs(sf_dir, ["doc_id", "n_chars"])

    def partial_hist(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column("n_chars").combine_chunks())
        return pa.table(
            {
                "n_chars": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    hist = sorted_group_sum(
        ds.map_batches(partial_hist, batch_format="pyarrow"), ["n_chars"], ["n"]
    ).take_all()
    hist.sort(key=lambda r: r["n_chars"])
    values = np.array([r["n_chars"] for r in hist])
    cum = np.cumsum([r["n"] for r in hist])
    n_total = int(cum[-1])
    boundaries = np.array(
        [
            values[int(np.searchsorted(cum, math.ceil(q / 10 * n_total)))]
            for q in range(1, 10)
        ]
    )

    def assign(batch: pa.Table) -> pa.Table:
        lens = batch.column("n_chars").combine_chunks().to_numpy(zero_copy_only=False)
        decile = np.searchsorted(boundaries, lens, side="left")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "decile": pa.array(decile.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


@query(
    # lang/source are non-null in the corpus, so coalesce only ever
    # relabels the ROLLUP subtotal rows
    "SELECT coalesce(lang, '(all)') AS lang, "
    "coalesce(source, '(all)') AS source, "
    "CAST(sum(n_chars) AS BIGINT) AS total_chars, "
    "CAST(count(*) AS BIGINT) AS n_docs "
    "FROM documents GROUP BY ROLLUP(lang, source)",
    bench=True,
)
def q_docs_rollup_stats(sf_dir: str):
    """ROLLUP(lang, source) doc counts + char totals: one map-side partial
    per block (native Arrow group_by), ``sorted_group_sum`` merges to the
    tiny leaf table, and the lang-level + grand-total rows derive from that
    POST-AGGREGATION table (driver work is O(distinct lang×source), never
    corpus-sized)."""
    import ray.data as rd

    from vigil_ray.stages.corpus import sorted_group_sum

    ds = _docs(sf_dir, ["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "source"]).aggregate(
            [("n_chars", "sum"), ("n_chars", "count")]
        )
        return pa.table(
            {
                "lang": g.column("lang"),
                "source": g.column("source"),
                "total_chars": pa.compute.cast(g.column("n_chars_sum"), pa.int64()),
                "n_docs": pa.compute.cast(g.column("n_chars_count"), pa.int64()),
            }
        )

    leaf = sorted_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "source"],
        ["total_chars", "n_docs"],
    ).take_all()

    langs, sources, chars, docs = [], [], [], []
    by_lang: dict = {}
    tot = [0, 0]
    for r in leaf:
        langs.append(r["lang"])
        sources.append(r["source"])
        chars.append(r["total_chars"])
        docs.append(r["n_docs"])
        acc = by_lang.setdefault(r["lang"], [0, 0])
        acc[0] += r["total_chars"]
        acc[1] += r["n_docs"]
        tot[0] += r["total_chars"]
        tot[1] += r["n_docs"]
    for lang in sorted(by_lang):
        langs.append(lang)
        sources.append("(all)")
        chars.append(by_lang[lang][0])
        docs.append(by_lang[lang][1])
    langs.append("(all)")
    sources.append("(all)")
    chars.append(tot[0])
    docs.append(tot[1])
    return rd.from_arrow(
        pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "source": pa.array(sources, pa.string()),
                "total_chars": pa.array(chars, pa.int64()),
                "n_docs": pa.array(docs, pa.int64()),
            }
        )
    )


@query(
    "SELECT lang, doc_id FROM (SELECT lang, doc_id, row_number() OVER "
    "(PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR) || ':7'), doc_id) "
    "AS rn FROM documents) WHERE rn <= 5",
    bench=True,
)
def q_docs_sample_per_lang(sf_dir: str):
    """Deterministic reservoir-style stratified sample: the 5 docs with the
    smallest md5(doc_id:7) per language — a seeded uniform sample per
    stratum, reproducible at any parallelism (``corpus.sorted_group_topk``)."""
    from vigil_ray.stages.corpus import per_group_sample

    return per_group_sample(_docs(sf_dir, ["doc_id", "lang"]), "lang", "doc_id", 5)


@query(
    "SELECT doc_id, CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' "
    "ELSE 'test' END AS split FROM (SELECT doc_id, "
    "CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':42'), 1, 8) AS BIGINT) "
    "% 100 AS b FROM documents)",
    bench=True,
)
def q_docs_hash_split(sf_dir: str):
    """Deterministic train/val/test split (md5 bucket mod 100: 80/10/10) —
    embarrassingly parallel, stable across runs and cluster sizes."""
    from vigil_ray.stages.corpus import hash_split

    return hash_split(_docs(sf_dir, ["doc_id"]), "doc_id", seed=42)


# --- §2 anchors (driver-green r3+r4; re-checked every round) ---
@query(
    f"SELECT {_URL_EXPR} AS url, "
    f"(doc_id % 20) IN ({_PII_SET}) AS contem_pii FROM documents"
)
def q_pages_pii_labels(sf_dir: str):
    """Flagship detection labels; ground truth by synthesis arithmetic."""
    from vigil_ray.stages.detect import detect_stage

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig())
    return ds.select_columns(["url", "contem_pii"])


@query(
    f"SELECT {_URL_EXPR} AS url, "
    f"CASE WHEN doc_id % 20 = 10 THEN "
    "array_to_string((regexp_split_to_array(trim(text), '\\s+'))[1:3], ' ') "
    f"ELSE trim(text || {_SCRUB_SUFFIX_CASE}) END AS text_scrubbed "
    "FROM documents"
)
def q_pages_scrubbed(sf_dir: str):
    """Byte-exact scrubbed text vs the SQL-constructed expectation."""
    from vigil_ray.stages.detect import detect_stage

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig())
    return ds.select_columns(["url", "text_scrubbed"])


@query(
    "SELECT count(*) AS total, "
    f"CAST(sum(CASE WHEN (doc_id % 20) IN ({_PII_SET}) THEN 1 ELSE 0 END) AS BIGINT) AS tp, "
    f"CAST(sum(CASE WHEN (doc_id % 20) NOT IN ({_PII_SET}) THEN 1 ELSE 0 END) AS BIGINT) AS tn, "
    "CAST(0 AS BIGINT) AS fp, CAST(0 AS BIGINT) AS fn FROM documents"
)
def q_eval_confusion(sf_dir: str):
    """A3/J3: detection joined against by-construction truth → confusion row.
    Truth is broadcast-free: both sides derive from the same key arithmetic
    inside the batch (the reference's evaluate join, reference
    scripts/evaluate.py:258-261, collapses to a key-local compare here)."""
    from vigil_ray.sources.pages import expected_has_pii
    from vigil_ray.stages.aggregates import classification_metrics
    from vigil_ray.stages.detect import detect_stage

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig())

    def with_truth(batch: pa.Table) -> pa.Table:
        ks = [int(u.rsplit("/", 1)[1]) for u in batch.column("url").to_pylist()]
        truth = [expected_has_pii(k) for k in ks]
        return batch.append_column("truth", pa.array(truth, pa.bool_()))

    joined = ds.map_batches(with_truth, batch_format="pyarrow")
    m = classification_metrics(joined, "truth", "contem_pii")
    return pa.table(
        {
            "total": pa.array([m["total"]], pa.int64()),
            "tp": pa.array([m["tp"]], pa.int64()),
            "tn": pa.array([m["tn"]], pa.int64()),
            "fp": pa.array([m["fp"]], pa.int64()),
            "fn": pa.array([m["fn"]], pa.int64()),
        }
    )


# families with a detection whose confidence lands in [0.80, 0.95):
# 3 rg@0.85, 5 nome@0.80, 7 cpf-numeric@0.90, 8 cpf-partial@0.90,
# 13 phone-ctx@0.90, 14 bare-phone@0.80 (the +55 form is a distinct
# digit string, so the 11-digit bare match survives dedup too)
@query(
    f"SELECT {_URL_EXPR} AS id, "
    "CASE doc_id % 20 WHEN 3 THEN 'rg' WHEN 5 THEN 'nome' "
    "  WHEN 7 THEN 'cpf' WHEN 8 THEN 'cpf' WHEN 13 THEN 'telefone' "
    "  WHEN 14 THEN 'telefone' END AS tipo_pii, "
    "CASE doc_id % 20 WHEN 3 THEN 'RG: 12.345.678-9' "
    "  WHEN 5 THEN 'João da Silva Pereira' WHEN 7 THEN '12345678908' "
    "  WHEN 8 THEN '123456789-00' WHEN 13 THEN 'whatsapp: 61 99999 8888' "
    "  WHEN 14 THEN '11 98888-7777' END AS valor_detectado, "
    "CAST(CASE doc_id % 20 WHEN 3 THEN 0.85 WHEN 5 THEN 0.80 "
    "  WHEN 7 THEN 0.90 WHEN 8 THEN 0.90 WHEN 13 THEN 0.90 "
    "  WHEN 14 THEN 0.80 END AS DOUBLE) AS score, "
    "'score_medio' AS motivo, 'baixa' AS prioridade "
    "FROM documents WHERE doc_id % 20 IN (3, 5, 7, 8, 13, 14)"
)
def q_review_items(sf_dir: str):
    """Human-review flat-map branch (reference src/human_review.py semantics):
    detection → per-document review rows with consolidation. Expected rows are
    fully determined by family arithmetic (score thresholds: detections with
    conf in [0.80, 0.95) get motivo=score_medio / prioridade=baixa)."""
    from vigil_ray.stages.detect import detect_stage
    from vigil_ray.stages.review import review_stage

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig())
    out = review_stage(ds, PipelineConfig(), sort=False)
    return out.select_columns(
        ["id", "tipo_pii", "valor_detectado", "score", "motivo", "prioridade"]
    )


def _variants_ds(sf_dir: str):
    import ray.data as rd

    from vigil_ray.sources.pages import synthesize_variants

    table = synthesize_variants(
        sf_dir, out_path=_synth_cache_path(sf_dir, "variants")
    )
    return rd.from_arrow(table).repartition(max(1, table.num_rows // 512))


# --- driver-green r4, re-checked for regressions ---
@query(_jaccard_pairs_sql(3, 0.7), bench=True)
def q_dedup_prefix_filter_pairs(sf_dir: str):
    """Exact 3-gram-Jaccard ≥ 0.7 pairs via df-ordered PREFIX FILTERING
    (PPJoin-family) — a structurally different exact algorithm from the
    LSH detectors, with a no-false-negative GUARANTEE (the prefix principle
    is a theorem; LSH recall is probabilistic) — see
    :func:`vigil_ray.stages.dedup.prefix_filter_pairs`. Checked against the
    true-Jaccard SQL self-join. 3-gram shingles keep per-doc rarest tokens
    genuinely rare on this small-vocab synthetic corpus (2-gram df is so
    high the prefix buckets overflow max_bucket and the truncation warning
    fires — measured, which is exactly the degenerate-key valve working)."""
    from vigil_ray.stages.dedup import prefix_filter_pairs

    return prefix_filter_pairs(
        _variants_ds(sf_dir), threshold=0.7, ngram=3
    )


@query(
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "ex AS (SELECT doc_id, words, unnest(range(1, "
    "  CAST(ceil(array_length(words) / 10.0) AS BIGINT) + 1)) AS idx FROM w), "
    "segs AS (SELECT doc_id, idx, "
    "  array_to_string(words[((idx-1)*10+1):(idx*10)], ' ') AS seg FROM ex), "
    "wd AS (SELECT seg, min(doc_id) AS doc_id FROM segs GROUP BY seg), "
    "wr AS (SELECT s.seg, s.doc_id, min(s.idx) AS seg_idx FROM segs s "
    "  JOIN wd ON s.seg = wd.seg AND s.doc_id = wd.doc_id GROUP BY s.seg, s.doc_id) "
    "SELECT doc_id, string_agg(seg, ' ' ORDER BY seg_idx) AS text_dedup "
    "FROM wr GROUP BY doc_id",
    bench=True,
)
def q_doc_segment_dedup(sf_dir: str):
    """C4-style cross-corpus segment dedup (10-word segments): each distinct
    segment survives once (min doc, then min position) and docs are rebuilt
    from their surviving segments — a sorted group-min by segment, then one
    sorted-run map by doc that joins the survivors in order, no joins."""
    from vigil_ray.stages.corpus import segment_dedup

    return segment_dedup(_docs(sf_dir, ["doc_id", "text"]), seg_words=10)


@query(f"""
WITH {_jaccard_pairs_ctes(3, 0.5)}
SELECT p.a, p.b, CAST(levenshtein(da.text, db.text) AS BIGINT) AS edit_distance
FROM pairs p
JOIN variants da ON da.vid = p.a
JOIN variants db ON db.vid = p.b
""", bench=True)
def q_dedup_edit_distance(sf_dir: str):
    """Edit-distance confirmation of near-dup candidates — the
    entity-resolution verify step: MinHash-LSH candidates (exact-Jaccard
    verified, the `dedup_minhash_pairs` set) scored with the EXACT
    Levenshtein distance, vectorized across the pair batch
    (:func:`vigil_ray.stages.dedup.batch_edit_distances` — the in-row DP
    dependency resolves via a minimum.accumulate distance transform, no
    per-char Python). Texts attach through the Bloom-semi-filtered
    sort-merge lookup; the corpus never shuffles. Oracle: DuckDB's own
    ``levenshtein()`` over the true-Jaccard pair set."""
    from vigil_ray.stages.dedup import edit_distance_pairs, minhash_lsh_pairs

    pairs = minhash_lsh_pairs(_variants_ds(sf_dir), threshold=0.5, with_texts=True)
    return edit_distance_pairs(pairs=pairs, texts_attached=True)


@query(f"""
WITH RECURSIVE {_jaccard_pairs_ctes(3, 0.5)},
{_COMPONENTS_CTES.strip().rstrip()},
csizes AS (SELECT component, CAST(count(*) AS BIGINT) AS cluster_size
  FROM comp GROUP BY component)
SELECT cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
FROM csizes GROUP BY cluster_size
""", bench=True)
def q_dedup_cluster_sizes(sf_dir: str):
    """Duplicate-cluster size distribution — THE dedup report a corpus run
    ships: how many clusters of each size the near-dup graph contains
    (template families show up as the large-size tail). Components from the
    MinHash pair set → per-component member count → per-size cluster count.
    Both rollups ride `sorted_group_agg` (component-scale, then size-scale —
    monotonically shrinking tables, never the corpus)."""
    import numpy as np

    from vigil_ray.stages.corpus import sorted_group_agg
    from vigil_ray.stages.dedup import minhash_lsh_pairs
    from vigil_ray.stages.graph import connected_components

    comp = connected_components(minhash_lsh_pairs(_variants_ds(sf_dir), threshold=0.5))

    def one(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "component": batch.column("component"),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    per_comp = sorted_group_agg(
        comp.map_batches(one, batch_format="pyarrow"),
        ["component"],
        [("one", "sum", "cluster_size")],
    )

    def one2(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cluster_size": batch.column("cluster_size"),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    return sorted_group_agg(
        per_comp.map_batches(one2, batch_format="pyarrow"),
        ["cluster_size"],
        [("one", "sum", "n_clusters")],
    )


def _ivf_params(n: int):
    """Corpus-size-scaled IVF geometry: n_cells ≈ √n (faiss rule of thumb),
    probe a quarter of them. Fixed small-cell counts stop meeting the recall
    bound as the corpus grows (16 cells was fine at 500 vectors, not at 5k)."""
    n_cells = max(16, int(n**0.5))
    return n_cells, max(4, n_cells // 4)


def _ann_query_vec(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["embedding"],
        filters=[("vec_id", "==", 0)],
    )
    return np.asarray(emb.column("embedding")[0].as_py(), dtype=np.float64)


def _ivf_index_dir(sf_dir: str) -> str:
    """Canonical persisted-index location for ``sf_dir``. The ``_v3``
    cache-version suffix lives ONLY here — bump it in one place when the
    index layout or kmeans seed changes, so no query can silently serve a
    stale cached index."""
    import os

    return f"/tmp/vigil_ivf/{os.path.basename(os.path.normpath(sf_dir))}_v3"


def _persisted_ivf(sf_dir: str):
    """Build-or-reuse the persisted IVF index for ``sf_dir``; returns
    ``(index_dir, n_cells, n_probe)``."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.ann import data_fingerprint, ivf_build

    src = f"{sf_dir}/embeddings.parquet"
    ds = read_table(src)
    n_cells, n_probe = _ivf_params(ds.count())
    index_dir = _ivf_index_dir(sf_dir)
    ivf_build(ds, index_dir, n_cells=n_cells, fingerprint=data_fingerprint(src))
    return index_dir, n_cells, n_probe


@query(
    "SELECT * FROM (VALUES (CAST(1 AS BIGINT), TRUE), (2, TRUE), "
    "(4, TRUE), (8, TRUE)) AS t(n_probe, ok)"
)
def q_ann_recall_curve(sf_dir: str):
    """Multi-probe recall curve over the persisted IVF index — the ANN
    quality report: recall@10 vs exact brute force at n_probe ∈ {1,2,4,8}.
    Monotonicity is GUARANTEED (probed cell sets are nested as n_probe
    grows, and an exact top-k member among the candidates can only be
    displaced by other exact top-k members), so each row asserts
    recall(n_probe) ≥ recall(prev) and the last row additionally asserts
    the 0.7 bound — driver-visible exactness for an approximate operator
    (the `_ann_recall_table` pattern extended to the quality curve)."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.ann import brute_force_topk, ivf_query

    src = f"{sf_dir}/embeddings.parquet"
    index_dir, n_cells, _n_probe = _persisted_ivf(sf_dir)
    q = _ann_query_vec(sf_dir)
    exact_ids = set(
        brute_force_topk(
            read_table(src, columns=["vec_id", "embedding"]), q, k=10
        ).to_pandas()["vec_id"]
    )
    probes = [1, 2, 4, 8]
    oks, prev = [], -1.0
    for p in probes:
        ids = set(
            ivf_query(index_dir, q, k=10, n_probe=min(p, n_cells))
            .to_pandas()["vec_id"]
        )
        rec = len(ids & exact_ids) / 10.0
        oks.append(bool(rec >= prev and (p != probes[-1] or rec >= 0.7)))
        prev = rec
    return pa.table(
        {
            "n_probe": pa.array(probes, pa.int64()),
            "ok": pa.array(oks, pa.bool_()),
        }
    )


_BPE_SHIFT = 1 << 21  # > max codepoint, so the packed pair key is collision-free


def _bpe_pair_partials(batch: pa.Table) -> pa.Table:
    """Block-local adjacent-codepoint-pair counts: texts join with a
    ``\\x00`` sentinel and decode to a numpy codepoint array via utf-32
    (one vectorized pass — no per-char Python); pairs pack into int64 keys
    (c1·2²¹ + c2; sentinel pairs masked); ``np.unique`` emits the
    character-vocab²-bounded (key, n) partial."""
    import numpy as np

    texts = batch.column("text").to_pylist()
    joined = "\x00".join(texts)
    arr = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.int64)
    if len(arr) < 2:
        return pa.table(
            {"key": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
        )
    a, b = arr[:-1], arr[1:]
    mask = (a != 0) & (b != 0)
    keys = a[mask] * _BPE_SHIFT + b[mask]
    uniq, counts = np.unique(keys, return_counts=True)
    return pa.table(
        {
            "key": pa.array(uniq, pa.int64()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def _bpe_decode_pairs(batch: pa.Table) -> pa.Table:
    keys = batch.column("key").to_pylist()
    pairs = [chr(k // _BPE_SHIFT) + chr(k % _BPE_SHIFT) for k in keys]
    return pa.table({"pair": pa.array(pairs, pa.string()), "n": batch.column("n")})


@query(
    # nested-CTE replay of the 3-round merge loop; chr(57344+r) are
    # the same private-use merge tokens the engine allocates
    "WITH t0 AS (SELECT text FROM documents), "
    "c1 AS (SELECT substring(text, CAST(i AS BIGINT), 2) AS pair, "
    "    CAST(count(*) AS BIGINT) AS n "
    "  FROM (SELECT text, unnest(range(1, length(text))) AS i FROM t0 "
    "    WHERE length(text) >= 2) GROUP BY pair), "
    "m1 AS (SELECT pair, n FROM c1 ORDER BY n DESC, pair LIMIT 1), "
    "t1 AS (SELECT replace(text, (SELECT pair FROM m1), chr(57344)) AS text "
    "  FROM t0), "
    "c2 AS (SELECT substring(text, CAST(i AS BIGINT), 2) AS pair, "
    "    CAST(count(*) AS BIGINT) AS n "
    "  FROM (SELECT text, unnest(range(1, length(text))) AS i FROM t1 "
    "    WHERE length(text) >= 2) GROUP BY pair), "
    "m2 AS (SELECT pair, n FROM c2 ORDER BY n DESC, pair LIMIT 1), "
    "t2 AS (SELECT replace(text, (SELECT pair FROM m2), chr(57345)) AS text "
    "  FROM t1), "
    "c3 AS (SELECT substring(text, CAST(i AS BIGINT), 2) AS pair, "
    "    CAST(count(*) AS BIGINT) AS n "
    "  FROM (SELECT text, unnest(range(1, length(text))) AS i FROM t2 "
    "    WHERE length(text) >= 2) GROUP BY pair), "
    "m3 AS (SELECT pair, n FROM c3 ORDER BY n DESC, pair LIMIT 1) "
    "SELECT CAST(1 AS BIGINT) AS merge_idx, pair, n FROM m1 "
    "UNION ALL SELECT 2, pair, n FROM m2 "
    "UNION ALL SELECT 3, pair, n FROM m3",
    bench=True,
)
def q_corpus_bpe_train(sf_dir: str):
    """Iterated BPE training (3 merge rounds over the codepoint stream) —
    the driver-coordinated iterative loop (the PageRank shape applied to
    tokenizer training): each round counts adjacent pairs distributed
    (:func:`_bpe_pair_partials`, vocab²-bounded shuffle), syncs ONE winning
    pair to the driver (count desc, pair asc — `sorted_group_agg` + sort +
    limit 1), and applies the merge map-side as a vectorized
    ``replace_substring`` into a fresh private-use codepoint. Replacement
    is left-to-right non-overlapping on every engine (Arrow, Python,
    DuckDB `replace()`) so the rounds stay bit-identical to the SQL
    oracle's nested-CTE replay. Returns the merge table
    (merge_idx, pair, n)."""
    import pyarrow.compute as pc

    from vigil_ray.stages.corpus import sorted_group_agg

    ds = _docs(sf_dir, ["text"])
    merges = []
    for step in range(3):
        partials = ds.map_batches(_bpe_pair_partials, batch_format="pyarrow")
        agg = sorted_group_agg(partials, ["key"], [("n", "sum", "n")])
        top = (
            agg.map_batches(_bpe_decode_pairs, batch_format="pyarrow")
            .sort(["n", "pair"], descending=[True, False])
            .limit(1)
            .take_all()
        )[0]
        pair, n = top["pair"], int(top["n"])
        merges.append((step + 1, pair, n))
        token = chr(0xE000 + step)

        def apply_merge(batch: pa.Table, _p=pair, _t=token) -> pa.Table:
            return pa.table(
                {"text": pc.replace_substring(batch.column("text"), _p, _t)}
            )

        # materialize per round: the next round's count consumes this text
        # twice over the loop — without pinning, round r re-executes all
        # r-1 earlier replace passes plus the read (quadratic in rounds)
        ds = ds.map_batches(apply_merge, batch_format="pyarrow").materialize()
    return pa.table(
        {
            "merge_idx": pa.array([m[0] for m in merges], pa.int64()),
            "pair": pa.array([m[1] for m in merges], pa.string()),
            "n": pa.array([m[2] for m in merges], pa.int64()),
        }
    )


@query(
    "WITH pos AS (SELECT text, unnest(range(1, length(text))) AS i "
    "  FROM documents WHERE length(text) >= 2), "
    "p AS (SELECT substring(text, CAST(i AS BIGINT), 2) AS pair FROM pos), "
    "c AS (SELECT pair, CAST(count(*) AS BIGINT) AS n FROM p GROUP BY pair) "
    "SELECT pair, n FROM c ORDER BY n DESC, pair LIMIT 20",
    bench=True,
)
def q_corpus_bpe_pair(sf_dir: str):
    """The first BPE merge step (tokenizer training over the corpus): the
    20 most frequent adjacent character pairs, exact — see
    :func:`_bpe_pair_partials`. The shuffle carries the vocab²-bounded
    partial table, never corpus text; ``sorted_group_agg`` sums, pairs
    decode back to 2-char strings and a global sort takes the top 20 (ties
    by pair string — both sides sort UTF-8/codepoint order, identical)."""
    from vigil_ray.stages.corpus import sorted_group_agg

    partials = _docs(sf_dir, ["text"]).map_batches(
        _bpe_pair_partials, batch_format="pyarrow"
    )
    agg = sorted_group_agg(partials, ["key"], [("n", "sum", "n")])
    return (
        agg.map_batches(_bpe_decode_pairs, batch_format="pyarrow")
        .sort(["n", "pair"], descending=[True, False])
        .limit(20)
    )


@query(
    # engine quantizes each bigram's negative log-prob to integer
    # micro-nats (floor(x*1e6+0.5)) before summing, so the per-doc
    # sums are order-independent and the oracle reproduces them
    # exactly; the final exp/round uses the same floor-half-up form
    # (DuckDB round() is half-away, numpy half-even — CLAUDE.md)
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "big AS (SELECT doc_id, "
    "  unnest(words[1:array_length(words)-1]) AS w1, "
    "  unnest(words[2:array_length(words)]) AS w2 "
    "  FROM w WHERE array_length(words) >= 2), "
    "tok AS (SELECT unnest(words) AS w1 FROM w), "
    "uni AS (SELECT w1, CAST(count(*) AS BIGINT) AS n1 FROM tok GROUP BY 1), "
    "v AS (SELECT count(*) AS v FROM uni), "
    "bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n12 FROM big GROUP BY 1, 2), "
    "costed AS (SELECT big.doc_id, "
    "  CAST(floor((ln(uni.n1 + v.v) - ln(bc.n12 + 1)) * 1000000 + 0.5) AS BIGINT) AS nll "
    "  FROM big JOIN bc USING (w1, w2) JOIN uni USING (w1) CROSS JOIN v) "
    "SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams, "
    "floor(exp(sum(nll) / 1000000.0 / count(*)) * 1000000 + 0.5) / 1000000.0 AS ppl "
    "FROM costed GROUP BY doc_id",
    bench=True,
)
def q_docs_corpus_lm_ppl(sf_dir: str):
    """Per-doc perplexity under a bigram LM TRAINED on the corpus itself
    (the KenLM-style train-then-score loop, fully distributed) — see
    :func:`vigil_ray.stages.lm.corpus_bigram_ppl` for the join-based shape
    that keeps the model tables distributed."""
    from vigil_ray.stages.lm import corpus_bigram_ppl

    return corpus_bigram_ppl(_docs(sf_dir, ["doc_id", "text"]))


# same micro-nat quantize-then-sum trick as docs_corpus_lm_ppl; the
# bucket hash is the docs_hash_split md5 idiom. The w-weight float
# expression is written with the same operation order as the engine
# (ln(n_t+1) − ln(T+B) − ln(n_r+1) + ln(R+B)).
@query(
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "tok AS (SELECT doc_id, doc_id % 97 = 0 AS is_target, "
    "  CAST('0x' || substr(md5(unnest(words)), 1, 8) AS BIGINT) % 1024 AS bucket "
    "  FROM w), "
    "bc AS (SELECT bucket, "
    "  CAST(sum(CASE WHEN is_target THEN 1 ELSE 0 END) AS BIGINT) AS n_t, "
    "  CAST(sum(CASE WHEN is_target THEN 0 ELSE 1 END) AS BIGINT) AS n_r "
    "  FROM tok GROUP BY bucket), "
    "tots AS (SELECT (SELECT CAST(sum(n_t) AS BIGINT) FROM bc) AS t, "
    "         (SELECT CAST(sum(n_r) AS BIGINT) FROM bc) AS r), "
    "wt AS (SELECT bucket, CAST(floor((ln(n_t + 1) - ln(t + 1024) "
    "  - ln(n_r + 1) + ln(r + 1024)) * 1000000 + 0.5) AS BIGINT) AS w_micro "
    "  FROM bc CROSS JOIN tots) "
    "SELECT tok.doc_id, bool_or(tok.is_target) AS is_target, "
    "CAST(count(*) AS BIGINT) AS n_tokens, "
    "CAST(sum(wt.w_micro) AS BIGINT) AS weight_micro "
    "FROM tok JOIN wt USING (bucket) GROUP BY tok.doc_id",
    bench=True,
)
def q_docs_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): per-doc target-likeness
    under hashed-unigram bucket models (target = doc_id % 97 == 0 slice,
    B = 1024 md5 buckets, add-1 smoothing), micro-nat integer weights —
    see :func:`vigil_ray.stages.lm.dsir_weights` for the two-pass
    broadcast shape."""
    from vigil_ray.stages.lm import dsir_weights

    return dsir_weights(_docs(sf_dir, ["doc_id", "text"]))


# same quantize/seed/argmin prologue as embeddings_kmeans_assign;
# dup(x) ⇔ ∃ y<x in x's cluster with x·y>0 and 400(x·y)² ≥ 81(x·x)(y·y)
# (τ=0.45). Dots of int8 codes at dim 64 are ≤ 127²·64 ≈ 1.03e6 —
# exactly representable, and every BIGINT product stays below 2⁶³.
@query(
    "WITH m AS (SELECT vec_id, embedding, "
    "  list_max(list_transform(embedding, y -> abs(CAST(y AS DOUBLE)))) AS mx "
    "  FROM embeddings), "
    "q AS (SELECT vec_id, list_transform(embedding, x -> "
    "  CASE WHEN CAST(x AS DOUBLE) * (127.0/mx) >= 0 "
    "  THEN floor(CAST(x AS DOUBLE) * (127.0/mx) + 0.5) "
    "  ELSE ceil(CAST(x AS DOUBLE) * (127.0/mx) - 0.5) END) AS qv "
    "  FROM m WHERE mx > 0), "
    "c AS (SELECT vec_id AS cid, qv AS cv FROM q "
    "  WHERE vec_id IN (SELECT vec_id FROM q ORDER BY vec_id LIMIT 8)), "
    "d AS (SELECT q.vec_id, c.cid, q.qv, CAST(list_dot_product(q.qv, q.qv) "
    "  - 2*list_dot_product(q.qv, c.cv) + list_dot_product(c.cv, c.cv) "
    "  AS BIGINT) AS dist FROM q, c), "
    "a AS (SELECT vec_id, cid, qv, row_number() OVER "
    "  (PARTITION BY vec_id ORDER BY dist, cid) AS rn FROM d), "
    "asg AS (SELECT vec_id, cid AS cell, qv FROM a WHERE rn = 1) "
    "SELECT x.vec_id, x.cell, EXISTS (SELECT 1 FROM asg y "
    "  WHERE y.cell = x.cell AND y.vec_id < x.vec_id "
    "  AND CAST(list_dot_product(x.qv, y.qv) AS BIGINT) > 0 "
    "  AND 400 * CAST(list_dot_product(x.qv, y.qv) AS BIGINT) "
    "      * CAST(list_dot_product(x.qv, y.qv) AS BIGINT) "
    "      >= 81 * CAST(list_dot_product(x.qv, x.qv) AS BIGINT) "
    "      * CAST(list_dot_product(y.qv, y.qv) AS BIGINT)"
    ") AS semdup FROM asg x",
    bench=True,
)
def q_embeddings_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) semantic near-dup flags over the
    embeddings table: int8-quantize → integer-argmin cluster against the 8
    deterministic seed centroids → within-cluster integer cosine test
    (τ² = 81/400, i.e. τ = 0.45) with the keep-earliest-id rule. Every step
    is integer-exact, so the oracle recomputes identical flags with
    ``list_dot_product`` (see ``stages/embeddings.semdedup``)."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.embeddings import semdedup

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return semdedup(ds, k=8, tau_num=81, tau_den=400)


# winnowing selection via the L+R closed form: L = consecutive lags
# with hash >= h (non-strict), R = consecutive leads with hash > h
# (strict — the rightmost-tie-break side), select when L+R >= w-1.
# NULL lag/lead comparisons fall to the ELSE 0 arm = the boundary cap.
@query(
    "WITH wd AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "g AS (SELECT doc_id, words, array_length(words) - 2 AS ng FROM wd "
    "  WHERE array_length(words) - 2 >= 4), "
    "p AS (SELECT doc_id, words, unnest(range(0, ng)) AS pos FROM g), "
    "h AS (SELECT doc_id, pos, CAST('0x' || substr(md5("
    "  array_to_string(words[pos+1:pos+3], ' ')), 1, 8) AS BIGINT) AS hv FROM p), "
    "lp AS (SELECT doc_id, pos, hv, "
    "  lag(hv, 1) OVER win AS g1, lag(hv, 2) OVER win AS g2, lag(hv, 3) OVER win AS g3, "
    "  lead(hv, 1) OVER win AS d1, lead(hv, 2) OVER win AS d2, lead(hv, 3) OVER win AS d3 "
    "  FROM h WINDOW win AS (PARTITION BY doc_id ORDER BY pos)) "
    "SELECT doc_id, pos, hv AS fp_hash FROM (SELECT doc_id, pos, hv, "
    "  CASE WHEN g1 >= hv THEN CASE WHEN g2 >= hv THEN "
    "    CASE WHEN g3 >= hv THEN 3 ELSE 2 END ELSE 1 END ELSE 0 END "
    "  + CASE WHEN d1 > hv THEN CASE WHEN d2 > hv THEN "
    "    CASE WHEN d3 > hv THEN 3 ELSE 2 END ELSE 1 END ELSE 0 END AS lr "
    "  FROM lp) WHERE lr >= 3",
    bench=True,
)
def q_docs_winnow_fps(sf_dir: str):
    """Winnowing fingerprints (Schleimer et al. 2003, the MOSS algorithm):
    rightmost-minimum selection over windows of w=4 consecutive word-3-gram
    hashes — any ≥6-word run shared between documents shares a fingerprint.
    See :func:`vigil_ray.stages.corpus.winnow_fingerprints` for the L+R
    closed form the engine vectorizes."""
    from vigil_ray.stages.corpus import winnow_fingerprints

    return winnow_fingerprints(_docs(sf_dir, ["doc_id", "text"]), k=3, w=4)


# the winnowing CTE chain again, then: distinct (doc, fp), the
# > max_share boilerplate exclusion, and a distinct-shared count
# per doc pair (sel is distinct so count(*) = distinct fps)
@query(
    "WITH wd AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "g AS (SELECT doc_id, words, array_length(words) - 2 AS ng FROM wd "
    "  WHERE array_length(words) - 2 >= 4), "
    "p AS (SELECT doc_id, words, unnest(range(0, ng)) AS pos FROM g), "
    "h AS (SELECT doc_id, pos, CAST('0x' || substr(md5("
    "  array_to_string(words[pos+1:pos+3], ' ')), 1, 8) AS BIGINT) AS hv FROM p), "
    "lp AS (SELECT doc_id, pos, hv, "
    "  lag(hv, 1) OVER win AS g1, lag(hv, 2) OVER win AS g2, lag(hv, 3) OVER win AS g3, "
    "  lead(hv, 1) OVER win AS d1, lead(hv, 2) OVER win AS d2, lead(hv, 3) OVER win AS d3 "
    "  FROM h WINDOW win AS (PARTITION BY doc_id ORDER BY pos)), "
    "sel AS (SELECT DISTINCT doc_id, hv FROM (SELECT doc_id, pos, hv, "
    "  CASE WHEN g1 >= hv THEN CASE WHEN g2 >= hv THEN "
    "    CASE WHEN g3 >= hv THEN 3 ELSE 2 END ELSE 1 END ELSE 0 END "
    "  + CASE WHEN d1 > hv THEN CASE WHEN d2 > hv THEN "
    "    CASE WHEN d3 > hv THEN 3 ELSE 2 END ELSE 1 END ELSE 0 END AS lr "
    "  FROM lp) WHERE lr >= 3), "
    "keep AS (SELECT hv FROM sel GROUP BY hv HAVING count(*) <= 10) "
    "SELECT x.doc_id AS a, y.doc_id AS b, CAST(count(*) AS BIGINT) AS n_shared "
    "FROM sel x JOIN keep USING (hv) JOIN sel y USING (hv) "
    "WHERE x.doc_id < y.doc_id GROUP BY x.doc_id, y.doc_id",
    bench=True,
)
def q_docs_winnow_match_pairs(sf_dir: str):
    """MOSS match detection: document pairs ranked by distinct shared
    winnowing fingerprints, with the over-shared (> 10 docs) boilerplate
    exclusion — see :func:`vigil_ray.stages.corpus.winnow_match_pairs`."""
    from vigil_ray.stages.corpus import winnow_match_pairs

    return winnow_match_pairs(_docs(sf_dir, ["doc_id", "text"]), k=3, w=4, max_share=10)


@query(
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "big AS (SELECT unnest(words[1:array_length(words)-1]) AS w1, "
    "  unnest(words[2:array_length(words)]) AS w2 "
    "  FROM w WHERE array_length(words) >= 2), "
    "tok AS (SELECT unnest(words) AS w1 FROM w), "
    "uni AS (SELECT w1, CAST(count(*) AS BIGINT) AS n1 FROM tok GROUP BY 1), "
    "bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS n12 FROM big GROUP BY 1, 2), "
    "tots AS (SELECT (SELECT CAST(sum(n12) AS BIGINT) FROM bc) AS tb, "
    "         (SELECT CAST(sum(n1) AS BIGINT) FROM uni) AS tu) "
    "SELECT w1, w2, n12, "
    "CAST(floor(ln((n12 * 1.0 / tb) / ((n1 * 1.0 / tu) * (n2 * 1.0 / tu))) * 1000000 + 0.5) AS BIGINT) AS pmi_micro "
    "FROM (SELECT bc.w1, bc.w2, bc.n12, u1.n1, u2.n1 AS n2 "
    "      FROM bc JOIN uni u1 ON bc.w1 = u1.w1 JOIN uni u2 ON bc.w2 = u2.w1 "
    "      WHERE bc.n12 >= 5) CROSS JOIN tots "
    "ORDER BY pmi_micro DESC, w1, w2 LIMIT 20"
)
def q_corpus_pmi_bigrams(sf_dir: str):
    """Top-20 collocations by pointwise mutual information (n12 ≥ 5) —
    integer micro-nat PMI so the oracle compares exactly; see
    :func:`vigil_ray.stages.lm.bigram_pmi_topk`."""
    from vigil_ray.stages.lm import bigram_pmi_topk

    return bigram_pmi_topk(_docs(sf_dir, ["doc_id", "text"]), min_count=5, k=20)


@query(
    "WITH t AS (SELECT unnest(regexp_split_to_array(trim(lower(text)), '\\s+')) AS token "
    "  FROM documents WHERE trim(text) <> '') "
    "SELECT token, CAST(count(*) AS BIGINT) AS n FROM t GROUP BY token "
    "ORDER BY n DESC, token LIMIT 20",
    bench=True,
)
def q_corpus_top_terms(sf_dir: str):
    """Top-20 corpus tokens by frequency (count desc, token asc) — the
    heavy-hitters aggregate. Fully vectorized map side (Arrow lower → split
    → flatten → value_counts per block), then ``sorted_group_sum`` merges the
    per-block partial counts (shuffle carries the VOCABULARY, not the
    corpus), and the global sort sees one row per distinct token."""
    import pyarrow.compute as pc

    from vigil_ray.stages.corpus import sorted_group_sum

    ds = _docs(sf_dir, ["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
        )
        # split_whitespace emits '' at string edges; SQL splits trimmed text
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat.combine_chunks())
        return pa.table(
            {
                "token": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    counts = sorted_group_sum(
        ds.map_batches(partial_counts, batch_format="pyarrow"), ["token"], ["n"]
    )
    return counts.sort(["n", "token"], descending=[True, False]).limit(20)


@query(
    "WITH toks AS ( "
    "  SELECT doc_id, unnest(regexp_split_to_array(lower(trim(text)), '\\s+')) AS term "
    "  FROM documents WHERE trim(text) <> ''), "
    "tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term), "
    "df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term), "
    "n AS (SELECT count(*) AS n FROM documents), "
    "scored AS ( "
    "  SELECT tf.doc_id, tf.term, "
    "         round(tf.tf * ln(CAST(n.n AS DOUBLE) / df.df), 6) AS score "
    "  FROM tf JOIN df ON tf.term = df.term CROSS JOIN n), "
    "ranked AS ( "
    "  SELECT doc_id, term, score, row_number() OVER "
    "    (PARTITION BY doc_id ORDER BY score DESC, term) AS rn FROM scored) "
    "SELECT doc_id, term AS top_term, score FROM ranked WHERE rn = 1",
    bench=True,
)
def q_doc_top_tfidf(sf_dir: str):
    """Per-document top tf-idf term, FULLY DISTRIBUTED — no driver-side
    vocabulary materialization and no whole-idf broadcast (a web corpus's
    vocabulary of typos/URLs/IDs grows with the corpus, so the df table is
    corpus-scale, not broadcast-scale):

    1. one explode pass → (doc_id, term, tf) rows;
    2. df attached per row by ``sortmerge.sorted_attach`` — df is just each
       term run's length in a term-sort, so ONE native sort replaces the
       per-term groupby AND the hash join back (each Ray join costs ~3 s of
       shuffle-pool machinery at sf0.1, BASELINE.md);
    3. per-doc argmax: each block first reduces to ONE candidate row per
       (block, doc) — a vectorized map-side partial — then
       ``sorted_group_min`` picks the global best.

    Ranking uses the ROUNDED score (6 dp) with term tie-break so engine and
    SQL order identically."""
    import math

    import numpy as np
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["doc_id", "text"])
    n_docs = ds.count()

    def explode_tf(batch: pa.Table) -> pa.Table:
        # fully vectorized: lower → whitespace-split → flatten, parent
        # indices recover each token's doc_id, and per-(doc, term) tf is one
        # native Arrow group_by — no per-row Python in this corpus-scale map
        # (the q_corpus_top_terms form extended with the doc key)
        toks = pc.utf8_split_whitespace(pc.utf8_lower(batch.column("text")))
        flat = pc.list_flatten(toks)
        doc_ids = pc.take(batch.column("doc_id"), pc.list_parent_indices(toks))
        pairs = pa.table({"doc_id": doc_ids, "term": flat}).filter(
            pc.not_equal(flat, "")  # split emits '' at string edges
        )
        g = pairs.group_by(["doc_id", "term"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "doc_id": pc.cast(g.column("doc_id"), pa.int64()),
                "term": g.column("term"),
                "tf": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    from vigil_ray.stages.sortmerge import sorted_attach

    tf_tbl = ds.map_batches(explode_tf, batch_format="pyarrow")
    joined = sorted_attach(tf_tbl, ["term"], count_name="df")

    def partial_best(batch: pa.Table) -> pa.Table:
        """Vectorized per-block reduction: one best (score, term) per doc in
        this block, so the doc-side shuffle carries ≤1 row per (block, doc)."""
        # idf per distinct df value with math.log — bit-identical to the SQL
        # oracle's ln() at the 6-dp rounding boundary
        dfs, inv = np.unique(batch.column("df").to_numpy(), return_inverse=True)
        idf = [math.log(n_docs / d) for d in dfs.tolist()]
        score = [
            round(tf * idf[i], 6)
            for tf, i in zip(batch.column("tf").to_pylist(), inv.tolist())
        ]
        best = pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "term": pc.cast(batch.column("term"), pa.string()),
                "score": pa.array(score, pa.float64()),
            }
        ).sort_by([("doc_id", "ascending"), ("score", "descending"), ("term", "ascending")])
        doc = best.column("doc_id").to_numpy()
        first = np.ones(len(doc), bool)
        first[1:] = doc[1:] != doc[:-1]
        return best.take(np.flatnonzero(first))

    partials = joined.map_batches(partial_best, batch_format="pyarrow")

    # per-doc global argmax on the sorted-adjacency primitive: one native
    # sort of the (block, doc)-partial rows, winner = first row of each doc
    # run (score desc, term asc tie-break) — no per-group aggregate
    from vigil_ray.stages.corpus import sorted_group_min

    per_doc = sorted_group_min(
        partials, ["doc_id"], ["score", "term"], descending=[True, False]
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "top_term": batch.column("term"),
                "score": batch.column("score"),
            }
        )

    return per_doc.map_batches(rename, batch_format="pyarrow")


def _ann_recall_table(approx_ds, sf_dir: str, k: int = 10, bound: float = 0.7):
    """Driver-visible oracle for an approximate ANN result: recall@k vs the
    exact brute-force top-k, asserted against ``bound`` as a 1-row table the
    SQL oracle matches by construction (``SELECT k, TRUE``). Both sides are
    k-row driver pulls — no corpus materialization."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.ann import brute_force_topk

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    exact = brute_force_topk(ds, _ann_query_vec(sf_dir), k=k)
    exact_ids = set(exact.to_pandas()["vec_id"])
    approx_ids = set(approx_ds.to_pandas()["vec_id"])
    recall = len(exact_ids & approx_ids) / float(k)
    return pa.table(
        {
            "k_returned": pa.array([len(approx_ids)], pa.int64()),
            "recall_ok": pa.array([recall >= bound], pa.bool_()),
        }
    )


# IVF queries are approximate, so their driver-visible check is an
# in-query recall@10-vs-brute-force assertion: the Ray side emits the
# 1-row (k_returned, recall_ok) table and the oracle states the bound
# holds by construction — a recall regression hash-mismatches.
@query("SELECT CAST(10 AS BIGINT) AS k_returned, TRUE AS recall_ok")
def q_ann_ivf_top10(sf_dir: str):
    """IVF approximate top-k with persisted-index routing: when a
    fingerprint-valid persisted index already exists for this corpus
    (``stages.ann.ivf_index_if_valid`` — no build is triggered here), the
    query reads ONLY the probed cells' partition files through
    ``ivf_query``; otherwise it serves cold through the in-flight
    training-free scan (``stages.ann.ivf_topk``), which prunes compute but
    not IO — the explicit cold-start fallback, never the steady state (the
    reference's load-once-score-many discipline, detector.py:66-67).
    Approximate, so the driver-visible check is the recall@10-vs-brute-force
    bound computed in-query (1-row table); the raw recall value and the
    routing decision itself are additionally pinned in tests/test_ann.py."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.ann import (
        data_fingerprint,
        ivf_index_if_valid,
        ivf_query,
        ivf_topk,
    )

    src = f"{sf_dir}/embeddings.parquet"
    ds = read_table(src, columns=["vec_id", "embedding"])
    n_cells, n_probe = _ivf_params(ds.count())
    index_dir = _ivf_index_dir(sf_dir)
    if ivf_index_if_valid(index_dir, data_fingerprint(src)):
        approx = ivf_query(index_dir, _ann_query_vec(sf_dir), k=10, n_probe=n_probe)
    else:
        approx = ivf_topk(
            ds, _ann_query_vec(sf_dir), k=10, n_cells=n_cells, n_probe=n_probe
        )
    return _ann_recall_table(approx.select_columns(["vec_id"]), sf_dir)


# leftmost RE2 match = exactly the last <=5 whitespace tokens (an earlier
# start would need a 6th token to reach $); shared by the template-tail
# detection and boilerplate-scrub queries and pinned by unit test
_TAIL_RE = r"(?P<tail>(?:\S+\s+){0,4}\S+)$"


_TAIL_DF_THRESHOLD = 10  # tails on >= this many pages are template tails


def _flagged_tails(tails_ds):
    """(tail, n_pages) rows of tails shared by ≥ ``_TAIL_DF_THRESHOLD``
    pages — the shared detection core of ``pages_template_tails`` (report)
    and ``pages_boilerplate_scrub`` (apply). Input: any Dataset with a
    ``tail`` column; the shuffle carries (tail, 1) rows only."""
    import numpy as np

    from vigil_ray.stages.corpus import sorted_group_agg

    def tail_ones(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tail": batch.column("tail"),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    agg = sorted_group_agg(
        tails_ds.map_batches(tail_ones, batch_format="pyarrow"),
        ["tail"],
        [("one", "sum", "n_pages")],
    )
    return agg.filter(expr=f"n_pages >= {_TAIL_DF_THRESHOLD}")


@query(
    "WITH p AS (SELECT doc_id, (" + _PAGE_TEXT_EXPR + ") AS page_text "
    "  FROM documents), "
    "w AS (SELECT regexp_split_to_array(trim(page_text), '\\s+') AS words "
    "  FROM p WHERE trim(page_text) <> ''), "
    "t AS (SELECT array_to_string("
    "  words[greatest(1, array_length(words) - 4):array_length(words)], ' ') "
    "  AS tail FROM w) "
    "SELECT tail, CAST(count(*) AS BIGINT) AS n_pages FROM t "
    f"GROUP BY tail HAVING count(*) >= {_TAIL_DF_THRESHOLD}",
    bench=True,
)
def q_pages_template_tails(sf_dir: str):
    """Template/boilerplate family detection by trailing-shingle document
    frequency — the CCNet-style df-threshold signal, computed exactly: the
    last 5-whitespace-token shingle of every page, counted across the
    corpus; shingles shared by ≥ `_TAIL_DF_THRESHOLD` pages are template
    tails (the injected family suffixes, by construction). Parameterized
    templates (families 1/14 embed the page key) correctly evade the
    exact-tail detector with df = 1 — the known blind spot of exact
    boilerplate matching, documented rather than hidden.

    Ray shape: map-side RE2 tail extraction (leftmost match of
    ``(?:\\S+\\s+){0,4}\\S+$`` is exactly the last ≤5 tokens — a match
    starting any earlier would need a 6th token to reach ``$``) →
    :func:`_flagged_tails`. Page bodies never shuffle."""

    def tails(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.extract_regex(batch.column("text"), _TAIL_RE)
        return pa.table({"tail": pc.struct_field(m, "tail")})

    rows = _pages_ds(sf_dir).select_columns(["text"]).map_batches(
        tails, batch_format="pyarrow"
    )
    return _flagged_tails(rows)


@query(
    "WITH p AS (SELECT doc_id, (" + _PAGE_TEXT_EXPR + ") AS page_text "
    "  FROM documents), "
    "w AS (SELECT doc_id, page_text, "
    "  regexp_split_to_array(trim(page_text), '\\s+') AS words "
    "  FROM p WHERE trim(page_text) <> ''), "
    "t AS (SELECT doc_id, page_text, array_to_string("
    "  words[greatest(1, array_length(words) - 4):array_length(words)], ' ') "
    "  AS tail FROM w), "
    f"f AS (SELECT tail FROM t GROUP BY tail HAVING count(*) >= {_TAIL_DF_THRESHOLD}) "
    "SELECT " + _URL_EXPR + " AS url, f.tail IS NOT NULL AS is_template, "
    "CAST(CASE WHEN f.tail IS NOT NULL "
    "  THEN greatest(0, length(t.page_text) - length(t.tail) - 1) "
    "  ELSE length(t.page_text) END AS BIGINT) AS n_chars_clean "
    "FROM t LEFT JOIN f ON t.tail = f.tail",
    bench=True,
)
def q_pages_boilerplate_scrub(sf_dir: str):
    """Boilerplate scrub plan — the APPLY half of ``pages_template_tails``:
    the flagged template-tail dimension (df ≥ 10; bounded by the number of
    distinct templates, not the corpus) broadcast-joins back to the corpus
    and every page gets its scrub extent: ``is_template`` + the cleaned
    character count (length minus the flagged tail and its separating
    space, floored at 0 for tail-only pages). The corpus stays map-side
    throughout — detection shuffles (tail, 1) rows only, the apply step is
    a zero-shuffle broadcast probe (``joins.broadcast_join``, size-gated)."""
    from vigil_ray.stages.joins import broadcast_join

    def with_tails(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pc.struct_field(
            pc.extract_regex(batch.column("text"), _TAIL_RE), "tail"
        )
        return pa.table(
            {
                "url": batch.column("url"),
                "n_chars": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
                "tail_chars": pc.cast(pc.utf8_length(t), pa.int64()),
                "tail": t,
            }
        )

    pages = _pages_ds(sf_dir).select_columns(["url", "text"])
    # materialized: consumed twice (detection count + broadcast probe) —
    # without pinning, the per-page regex pass runs twice
    tagged = pages.map_batches(with_tails, batch_format="pyarrow").materialize()
    flagged = _flagged_tails(tagged)
    joined = broadcast_join(tagged, flagged, key="tail", how="left_outer")

    def scrub(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flag = pc.is_valid(batch.column("n_pages"))
        stripped = pc.max_element_wise(
            pc.subtract(
                pc.subtract(batch.column("n_chars"), batch.column("tail_chars")),
                pa.scalar(1, pa.int64()),
            ),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "url": batch.column("url"),
                "is_template": flag,
                "n_chars_clean": pc.if_else(flag, stripped, batch.column("n_chars")),
            }
        )

    return joined.map_batches(scrub, batch_format="pyarrow")


@query(
    "WITH e AS (SELECT event_id, event_type, ts, "
    "  ts + (CAST((event_id * 48271) % 3600 AS BIGINT) * INTERVAL 1 SECOND) AS arr "
    "  FROM events), "
    "s AS (SELECT event_type, ts, max(ts) OVER "
    "(ORDER BY arr, event_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm "
    "FROM e) "
    "SELECT event_type, time_bucket(INTERVAL 60 MINUTE, ts) AS window_start, "
    "CAST(count(*) AS BIGINT) AS n FROM s "
    "WHERE wm IS NULL OR ts >= wm - INTERVAL 30 MINUTE "
    "GROUP BY event_type, window_start"
)
def q_events_watermark_windows(sf_dir: str):
    """Event-time streaming tumbling windows with a watermark (custom-
    operator class): events replayed in a jittered arrival order
    (``_jittered_arrival``), watermark = running max event-time − 30 min,
    late events dropped at arrival, accepted events counted per (type,
    60-min window). The watermark is an exclusive distributed prefix-max
    (stages/corpus.prefix_scan op='max') — no sequential actor,
    byte-identical to single-pass stream semantics."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.streaming import watermark_windows

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "ts"])
    return watermark_windows(_jittered_arrival(ds), arrival_cols=("arr_us", "event_id"))


@query(
    "WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events "
    "  WHERE event_type = 'signup' GROUP BY user_id), "
    "s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e "
    "  JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t1 "
    "  WHERE e.event_type = 'click' GROUP BY e.user_id), "
    "s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e "
    "  JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t2 "
    "  WHERE e.event_type = 'purchase' GROUP BY e.user_id) "
    "SELECT 'signup' AS stage, CAST(count(*) AS BIGINT) AS n_users FROM s1 "
    "UNION ALL SELECT 'click', CAST(count(*) AS BIGINT) FROM s2 "
    "UNION ALL SELECT 'purchase', CAST(count(*) AS BIGINT) FROM s3"
)
def q_events_funnel(sf_dir: str):
    """Ordered funnel (sequential-pattern operator): users who signed up,
    then clicked strictly after their first signup, then purchased strictly
    after that first qualifying click. One sort by user, a forward scan
    per user inside its block; global counts are per-block partial sums."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.sessions import funnel_counts

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"])
    return funnel_counts(ds, ("signup", "click", "purchase"))


@query(
    "SELECT user_id, ts, CAST(median(CAST(floor(value * 100 + 0.5) "
    "AS BIGINT)) OVER (PARTITION BY user_id ORDER BY ts "
    "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS DOUBLE) AS med_cents "
    "FROM events",
    bench=True,
)
def q_events_rolling_median(sf_dir: str):
    """Per-event trailing-5 rolling MEDIAN of the user's event values — a
    per-row order-statistic window (nonlinear: prefix scans can't express
    it), via :func:`vigil_ray.stages.corpus.grouped_rolling_median` — the
    sorted-block two-phase shape with a chained ≤4-value tail carry; no
    worker or accumulator holds a user's history. Integer cents make every
    ≤5-element median a dyadic-exact double, bit-matching the SQL window
    ``median``."""
    import numpy as np

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_rolling_median

    ev = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts": batch.column("ts"),
                "cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    rows = ev.map_batches(cents, batch_format="pyarrow")
    out = grouped_rolling_median(
        rows, ["user_id"], ["ts"], "cents", window=5, out_col="med_cents"
    )
    return out.select_columns(["user_id", "ts", "med_cents"])


@query(
    # dyadic-exact: cents * 0.5^rn (rn <= 20) sums identically in
    # any order — the engine's dot product and this SUM bit-agree
    "WITH r AS (SELECT user_id, "
    "  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents, "
    "  row_number() OVER (PARTITION BY user_id "
    "    ORDER BY ts DESC) AS rn FROM events) "
    "SELECT user_id, CAST(sum(cents * pow(0.5, rn)) AS DOUBLE) AS score "
    "FROM r WHERE rn <= 20 GROUP BY user_id",
    bench=True,
)
def q_events_decayed_user_score(sf_dir: str):
    """Recency-weighted user activity score (exponential decay — the
    feature-store recency feature): over each user's 20 most recent events,
    ``score = Σ cents(value) · 0.5^rank`` with rank 1 = most recent.

    α = 1/2 over integer cents and a K = 20 window keeps every term and
    every partial sum an exactly-representable dyadic double
    (≤ 16 + 5 + 20 bits < 53), so ANY summation order — the engine's
    vectorized dot product, the oracle's SQL ``SUM`` — yields the
    bit-identical float: an exactly-checked decayed aggregate. Ray shape:
    scan-rank → filter → scaled-int dyadic sum — recency rank via
    ``grouped_prefix_scan`` (no per-key collected state: a user spanning
    the corpus streams through in block-sized pieces), then each kept row
    becomes the INTEGER ``cents << (K - rank)`` and one ``sorted_group_sum``
    finishes; ``score = int_sum · 2^-K`` reconstructs the float exactly.
    The shuffle carries (user, ts, cents) int rows only; the second sort
    sees ≤ K rows per user."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_prefix_scan, sorted_group_sum

    K = 20

    ev = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def enc(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        ts_us = batch.column("ts").cast(pa.int64())
        neg_ts = pc.negate(ts_us)  # ascending neg_ts = descending ts
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "neg_ts": neg_ts,
                "cents": pa.array(cents, pa.int64()),
            }
        )

    rows = ev.map_batches(enc, batch_format="pyarrow")
    # cum_excl = 0-based recency rank ((user, ts) is row-unique in events)
    ranked = grouped_prefix_scan(rows, ["user_id"], ["neg_ts"])
    kept = ranked.filter(expr=f"cum_excl < {K}")

    def scale(batch: pa.Table) -> pa.Table:
        # cents·0.5^rank scaled by 2^K: cents << (K-1-cum_excl); cents
        # ≤17 bits + shift ≤19 + 20 terms < 63 bits — int64- and
        # double-exact, so any summation order bit-agrees with the oracle
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        rank0 = batch.column("cum_excl").to_numpy(zero_copy_only=False)
        scaled = np.left_shift(cents, (K - 1 - rank0).astype(np.int64))
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "scaled": pa.array(scaled, pa.int64()),
            }
        )

    sums = sorted_group_sum(
        kept.map_batches(scale, batch_format="pyarrow"), ["user_id"], ["scaled"]
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("scaled").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "score": pa.array(np.ldexp(s.astype(np.float64), -K)),
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT p.event_id, CAST(count(c.event_id) AS BIGINT) AS n_clicks_1h "
    "FROM events p LEFT JOIN events c "
    "ON c.user_id = p.user_id AND c.event_type = 'click' "
    "AND c.ts >= p.ts - INTERVAL 1 HOUR AND c.ts < p.ts "
    "WHERE p.event_type = 'purchase' GROUP BY p.event_id"
)
def q_events_window_join(sf_dir: str):
    """Windowed stream-stream self-join (interval join): for EACH purchase,
    the number of clicks by the same user in the preceding hour
    ``[ts - 1h, ts)``. The third join flavor over event time alongside the
    as-of join (latest-before match) and the range join (static intervals).

    Ray shape (r3 rewrite): a windowed count is the DIFFERENCE OF TWO
    PREFIX-SCAN READS — ``C(<t) − C(<t−W)`` where C is the per-user running
    click count. The stream explodes into click rows (weight 1) plus two
    zero-weight PROBE rows per purchase (at ``t`` and ``t−W``, both ordered
    BEFORE any click at the same instant, pinning the half-open bounds);
    one ``corpus.grouped_prefix_scan`` assigns every probe its exclusive
    running click count, and a per-purchase signed sum (upper − lower)
    yields the interval count. NO per-user collected state — a user's
    history streams through in block-sized pieces. Purchases with zero
    preceding clicks are KEPT (n = 0) so the output is one row per
    purchase."""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_prefix_scan, sorted_group_sum

    window_us = 3_600_000_000  # 1 hour

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )
    ds = ds.filter(expr="event_type == 'click' or event_type == 'purchase'")

    def explode(batch: pa.Table) -> pa.Table:
        import numpy as np

        ts = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        isp = pc.equal(batch.column("event_type"), "purchase")
        users, eids = batch.column("user_id"), batch.column("event_id")

        def const(n, v):
            return pa.array(np.full(n, v, np.int64))

        not_p = pc.invert(isp)
        n_c = batch.num_rows - pc.sum(isp).as_py()
        clicks = pa.table(
            {
                "user_id": users.filter(not_p),
                "pos": ts.filter(not_p),
                "kind": const(n_c, 1),
                "pid": eids.filter(not_p),
                "sign": const(n_c, 0),
                "w": const(n_c, 1),
            }
        )
        pu, pt, pe = users.filter(isp), ts.filter(isp), eids.filter(isp)
        n_p = len(pe)
        upper = pa.table(
            {
                "user_id": pu,
                "pos": pt,
                "kind": const(n_p, 0),
                "pid": pe,
                "sign": const(n_p, 1),
                "w": const(n_p, 0),
            }
        )
        lower = pa.table(
            {
                "user_id": pu,
                "pos": pc.subtract(pt, pa.scalar(window_us, pa.int64())),
                "kind": const(n_p, 0),
                "pid": pe,
                "sign": const(n_p, -1),
                "w": const(n_p, 0),
            }
        )
        return pa.concat_tables([clicks, upper, lower]).combine_chunks()

    scanned = grouped_prefix_scan(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["user_id"],
        ["pos", "kind", "pid", "sign"],
        cost_col="w",
    )

    def probe_contrib(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("kind"), 0))
        return pa.table(
            {
                "event_id": t.column("pid"),
                "n_clicks_1h": pc.multiply(t.column("sign"), t.column("cum_excl")),
            }
        )

    return sorted_group_sum(
        scanned.map_batches(probe_contrib, batch_format="pyarrow"),
        ["event_id"],
        ["n_clicks_1h"],
    )


@query(
    "WITH th(thr) AS (VALUES (0.0), (10.0), (20.0), (50.0), (100.0), "
    "  (200.0), (300.0), (400.0), (500.0)) "
    "SELECT CAST(thr AS DOUBLE) AS thr, "
    "CAST(sum(CASE WHEN value >= thr AND event_type = 'purchase' "
    "  THEN 1 ELSE 0 END) AS BIGINT) AS tp, "
    "CAST(sum(CASE WHEN value >= thr AND event_type <> 'purchase' "
    "  THEN 1 ELSE 0 END) AS BIGINT) AS fp, "
    "CAST(sum(CASE WHEN value < thr AND event_type = 'purchase' "
    "  THEN 1 ELSE 0 END) AS BIGINT) AS fn, "
    "CAST(sum(CASE WHEN value < thr AND event_type <> 'purchase' "
    "  THEN 1 ELSE 0 END) AS BIGINT) AS tn "
    "FROM th CROSS JOIN events GROUP BY thr"
)
def q_events_threshold_sweep(sf_dir: str):
    """Classifier threshold sweep (PR/ROC-curve points) in ONE distributed
    pass: exact confusion counts (tp, fp, fn, tn) at K fixed thresholds of a
    score column, without K scans. Treats ``value >= thr`` as predicting
    ``event_type = 'purchase'``.

    Ray shape: each block sorts its scores per label once and answers all K
    thresholds with one ``np.searchsorted`` per label (count of scores >= t
    = n - ss(sorted, t, 'left')); blocks emit K tiny partial rows, a K-group
    sum-reduce merges them, and the confusion completes from per-label
    totals. Shuffle volume = K rows per block regardless of data size."""
    import numpy as np
    from ray.data.aggregate import Sum

    from vigil_ray.sources.readers import read_table

    thresholds = np.array(
        [0.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0]
    )

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partials(batch: pa.Table) -> pa.Table:
        v = batch.column("value").combine_chunks().to_numpy(zero_copy_only=False)
        y = np.array(
            [t == "purchase" for t in batch.column("event_type").to_pylist()],
            dtype=bool,
        )
        vp = np.sort(v[y])
        vn = np.sort(v[~y])
        tp = len(vp) - np.searchsorted(vp, thresholds, side="left")
        fp = len(vn) - np.searchsorted(vn, thresholds, side="left")
        k = len(thresholds)
        return pa.table(
            {
                "thr": pa.array(thresholds, pa.float64()),
                "tp": pa.array(tp, pa.int64()),
                "fp": pa.array(fp, pa.int64()),
                "pos": pa.array([int(y.sum())] * k, pa.int64()),
                "neg": pa.array([int((~y).sum())] * k, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("thr")
        .aggregate(
            Sum("tp", alias_name="tp"),
            Sum("fp", alias_name="fp"),
            Sum("pos", alias_name="pos"),
            Sum("neg", alias_name="neg"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tp = batch.column("tp")
        fp = batch.column("fp")
        return pa.table(
            {
                "thr": batch.column("thr"),
                "tp": tp,
                "fp": fp,
                "fn": pc.subtract(batch.column("pos"), tp),
                "tn": pc.subtract(batch.column("neg"), fp),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM events "
    "WHERE user_id NOT IN (SELECT c_custkey FROM customer WHERE c_acctbal < 0) "
    "GROUP BY event_type",
    bench=True,
)
def q_events_nonblocked_counts(sf_dir: str):
    """Bloom-filtered anti join: events from users NOT on the blocklist
    (customers with negative balance), counted per type. The Bloom bitmap is
    broadcast once; only bloom-positive rows enter the exact ``left_anti``
    hash join — bloom-negative rows (no false negatives) never shuffle."""
    from ray.data.aggregate import Sum

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import bloom_anti_join

    events = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    blocked = read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"])

    def negative_balance(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.less(b.column("c_acctbal"), 0)).select(["c_custkey"])

    blocked = blocked.map_batches(negative_balance, batch_format="pyarrow")
    kept = bloom_anti_join(
        events, blocked, key_col="user_id", blocklist_col="c_custkey", m_bits=1 << 16
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(batch.column("event_type").combine_chunks())
        return pa.table(
            {
                "event_type": pc.struct_field(vc, "values"),
                "n_partial": pc.cast(pc.struct_field(vc, "counts"), pa.int64()),
            }
        )

    return (
        kept.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_partial", alias_name="n"))
    )


@query(
    # the skew routing (hot map-side / cold hash join) is pure
    # mechanism — the result is a plain inner join + group totals
    "SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_events, "
    "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents "
    "FROM events JOIN customer ON user_id = c_custkey "
    "GROUP BY c_mktsegment"
)
def q_events_skew_join_segments(sf_dir: str):
    """events ⋈ customer via the skew-aware join (hot keys detected on a
    row sample, their dimension rows broadcast and joined map-side, cold
    keys through the ordinary hash join — see
    :func:`vigil_ray.stages.joins.skew_join`), then per-segment totals in
    exact integer cents via ``sorted_group_sum``."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import sorted_group_sum
    from vigil_ray.stages.joins import skew_join

    ev = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "value"])

    def cents(batch: pa.Table) -> pa.Table:
        import numpy as np

        c = np.asarray(
            [round(v * 100) for v in batch.column("value").to_pylist()],
            dtype=np.int64,
        )
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "cents": pa.array(c, pa.int64()),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )

    cust = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    joined = skew_join(
        ev.map_batches(cents, batch_format="pyarrow"),
        cust,
        "user_id",
        "c_custkey",
        top_k=16,
    )
    sums = sorted_group_sum(
        joined.select_columns(["c_mktsegment", "one", "cents"]),
        ["c_mktsegment"],
        ["one", "cents"],
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["c_mktsegment", "n_events", "sum_value_cents"]
        )

    return sums.map_batches(rename, batch_format="pyarrow")


@query(
    "WITH g AS (SELECT event_id, epoch_us(ts) - "
    "lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap_us "
    "FROM events) "
    "SELECT event_id, CAST(gap_us AS BIGINT) AS gap_us FROM g "
    "WHERE gap_us IS NOT NULL",
    bench=True,
)
def q_events_user_gaps(sf_dir: str):
    """LAG window analytic: each event's gap (µs) to the SAME user's
    previous event in (ts, event_id) order — SQL ``epoch_us(ts) -
    lag(epoch_us(ts)) OVER (PARTITION BY user ORDER BY ts, event_id)``.
    Ray shape: ``corpus.grouped_shift`` (sorted-block one-row lag with a
    block-count-sized driver edge handoff) — NO per-key collected state,
    unlike the earlier collect-list form; each user's first event has no
    predecessor and is omitted."""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_shift

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": ts,
            }
        )

    shifted = grouped_shift(
        ds.map_batches(to_us, batch_format="pyarrow"),
        ["user_id"],
        ["ts_us", "event_id"],
        "ts_us",
        periods=1,
        out_col="prev_us",
    )

    def finish(batch: pa.Table) -> pa.Table:
        gap = pc.subtract(batch.column("ts_us"), batch.column("prev_us"))
        t = pa.table({"event_id": batch.column("event_id"), "gap_us": gap})
        return t.filter(pc.is_valid(gap))

    return shifted.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT event_id, ts AS valid_from, "
    "lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS valid_to "
    "FROM events",
    bench=True,
)
def q_events_validity_intervals(sf_dir: str):
    """SCD2 intervalization: each event becomes a validity interval
    ``[ts, next event ts)`` within its user — SQL ``lead(ts) OVER
    (PARTITION BY user_id ORDER BY ts, event_id)``; the user's latest event
    stays open-ended (null ``valid_to``). The snapshot→slowly-changing-
    dimension build of a feature store. Ray shape: ``corpus.grouped_shift``
    with ``periods=-1`` (sorted-block LEAD, adjacent-block edge handoff,
    no per-key state)."""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_shift

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts": pc.cast(batch.column("ts"), pa.timestamp("us")),
            }
        )

    shifted = grouped_shift(
        ds.map_batches(to_us, batch_format="pyarrow"),
        ["user_id"],
        ["ts", "event_id"],
        "ts",
        periods=-1,
        out_col="valid_to",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "valid_from": batch.column("ts"),
                "valid_to": batch.column("valid_to"),
            }
        )

    return shifted.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT user_id, "
    "CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT) AS n_click, "
    "CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT) AS n_view, "
    "CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase, "
    "CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT) AS n_signup, "
    "CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT) AS n_error "
    "FROM events GROUP BY user_id"
)
def q_events_type_pivot(sf_dir: str):
    """Pivot / crosstab: one row per user with per-type event counts as
    COLUMNS. Partial (user, type)→count maps per batch, one groupby(user)
    summing the fixed column set — the shuffle carries ≤1 row per (block,
    user), never events."""
    import numpy as np
    from ray.data.aggregate import Sum

    from vigil_ray.sources.readers import read_table

    types = ("click", "view", "purchase", "signup", "error")
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # native Arrow (user, type) partial counts (the user_mode_type
        # idiom), then the per-type columns derive vectorized — the old
        # Counter-over-zip walked every event row in the interpreter
        g = batch.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        users = g.column("user_id")
        tcol = g.column("event_type")
        n = g.column("count_all")
        uniq = users.unique()
        cols = {"user_id": uniq}
        zeros = np.zeros(len(uniq), np.int64)
        idx = pc.index_in(users, value_set=uniq).to_numpy(zero_copy_only=False)
        n_np = pc.cast(n, pa.int64()).to_numpy(zero_copy_only=False)
        for t in types:
            out = zeros.copy()
            mask = pc.equal(tcol, t).to_numpy(zero_copy_only=False)
            out[idx[mask]] = n_np[mask]
            cols[f"n_{t}"] = pa.array(out, pa.int64())
        return pa.table(cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}") for t in types])
    )


@query(
    "SELECT event_id, "
    "CAST(json_extract_string(props, '$.k') AS BIGINT) AS k FROM events"
)
def q_events_props_k(sf_dir: str):
    """Semi-structured extraction: pull the integer ``$.k`` field out of the
    ``props`` JSON sidecar column for every event (vectorized Rust JSON
    kernel via polars — no per-row ``json.loads``; stateless map stage, no
    shuffle)."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.semistructured import json_path_extract

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    ds = json_path_extract(ds, "props", "$.k", "k", pa.int64())
    return ds.select_columns(["event_id", "k"])


@query(
    "SELECT event_type, count(*) AS n, "
    "CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k, "
    "min(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS min_k, "
    "max(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS max_k "
    "FROM events GROUP BY event_type"
)
def q_events_props_stats(sf_dir: str):
    """Extraction feeding an aggregate: per event_type stats over the
    JSON-extracted ``k`` (the flatten-then-aggregate shape a crawl-metadata
    pipeline runs; extraction stays a task map, only the small per-type
    aggregate shuffles)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.semistructured import json_path_extract

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "props"])
    ds = json_path_extract(ds, "props", "$.k", "k", pa.int64())
    return ds.groupby("event_type").aggregate(
        Count(alias_name="n"),
        Sum("k", alias_name="sum_k"),
        Min("k", alias_name="min_k"),
        Max("k", alias_name="max_k"),
    )


@query(
    # identical HLL rebuilt from scratch: same md5-derived 64-bit
    # hash, top-6-bit register index, rho from bin() bit length,
    # INTEGER denominator sum (HUGEINT — order-independent where a
    # float sum could round), and the same float expression +
    # small-range linear-counting branch (ln verified bit-equal)
    "WITH h AS (SELECT DISTINCT CAST('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16) AS UBIGINT) AS hv "
    "  FROM events), "
    "rr AS (SELECT CAST(hv >> 58 AS BIGINT) AS idx, "
    "  CASE WHEN hv % 288230376151711744 = 0 THEN 59 "
    "       ELSE 59 - length(bin(hv % 288230376151711744)) END AS rho "
    "  FROM h), "
    "reg AS (SELECT idx, max(rho) AS mx FROM rr GROUP BY idx), "
    "agg AS (SELECT CAST(count(*) AS BIGINT) AS present, "
    "  sum(CAST(1 AS HUGEINT) << CAST(59 - mx AS INTEGER)) AS sp FROM reg), "
    "fin AS (SELECT (64 - present) AS v, "
    "  coalesce(sp, 0) + (64 - present) * (CAST(1 AS HUGEINT) << 59) AS s FROM agg), "
    "e AS (SELECT v, CAST(0.709 AS DOUBLE) * 64 * 64 * 576460752303423488.0 "
    "  / CAST(s AS DOUBLE) AS e_raw FROM fin) "
    "SELECT round(CASE WHEN e_raw <= 160.0 AND v > 0 "
    "  THEN 64.0 * ln(64.0 / v) ELSE e_raw END, 6) AS n_distinct_est FROM e"
)
def q_events_hll_users(sf_dir: str):
    """HyperLogLog (64 registers) distinct-user estimate — see
    :func:`vigil_ray.stages.sketches.hll_distinct`; like the KMV queries,
    the oracle rebuilds the registers and the identical estimate, so the
    approximate answer is hash-checked."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.sketches import hll_distinct

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
    return hll_distinct(ds, "user_id")


@query(
    # exact reconstruction of the 4x256 Count-Min estimate: per-key
    # true counts -> md5 bucket of every observed key under each of
    # the 4 hash rows -> bucket collision sums -> min over rows for
    # each probed key (keys 0..19; empty buckets coalesce to 0)
    "WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS c "
    "  FROM events GROUP BY user_id), "
    "j AS (SELECT unnest([0, 1, 2, 3]) AS j), "
    "hb AS (SELECT u.user_id, j.j, CAST(CAST('0x' || substr(md5("
    "  CAST(j.j AS VARCHAR) || ':' || CAST(u.user_id AS VARCHAR)"
    "), 1, 16) AS UBIGINT) % 256 AS BIGINT) AS b, u.c "
    "  FROM u CROSS JOIN j), "
    "bs AS (SELECT j, b, CAST(sum(c) AS BIGINT) AS s FROM hb GROUP BY j, b), "
    "probe AS (SELECT unnest(range(0, 20)) AS user_id), "
    "pj AS (SELECT p.user_id, j.j, CAST(CAST('0x' || substr(md5("
    "  CAST(j.j AS VARCHAR) || ':' || CAST(p.user_id AS VARCHAR)"
    "), 1, 16) AS UBIGINT) % 256 AS BIGINT) AS b "
    "  FROM probe p CROSS JOIN j) "
    "SELECT CAST(pj.user_id AS BIGINT) AS user_id, "
    "CAST(min(coalesce(bs.s, 0)) AS BIGINT) AS est_count "
    "FROM pj LEFT JOIN bs ON pj.j = bs.j AND pj.b = bs.b "
    "GROUP BY pj.user_id ORDER BY user_id"
)
def q_events_cms_user_counts(sf_dir: str):
    """Count-Min sketch (4×256, md5 row hashes) point-frequency estimates
    for user_ids 0..19 — see
    :func:`vigil_ray.stages.sketches.cms_point_counts`; the oracle rebuilds
    every bucket's collision sum exactly, so the approximate answer is
    hash-checked, not trusted."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.sketches import cms_point_counts

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
    return cms_point_counts(ds, "user_id", probe_keys=range(20), depth=4, width=256)


@query(
    # same md5-bucket split as docs_hash_split; short docs (<5
    # words) emit one whole-text gram, mirroring kernel word_ngrams
    "WITH s AS (SELECT doc_id, text, "
    "  CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':42'), 1, 8) "
    "    AS BIGINT) % 100 AS b FROM documents), "
    "l AS (SELECT CASE WHEN b < 80 THEN 'train' ELSE 'test' END AS split, "
    "  text FROM s WHERE b < 80 OR b >= 90), "
    "w AS (SELECT split, regexp_split_to_array(lower(trim(text)), '\\s+') "
    "  AS words FROM l WHERE trim(text) <> ''), "
    "g AS (SELECT DISTINCT split, array_to_string(words[i:i+4], ' ') AS gram "
    "  FROM w, LATERAL unnest(range(1, "
    "    greatest(array_length(words) - 3, 2))) AS t(i)), "
    "agg AS (SELECT gram, max(split = 'train') AS tr, "
    "  max(split = 'test') AS te FROM g GROUP BY gram) "
    "SELECT CAST(count(*) FILTER (WHERE tr) AS BIGINT) AS n_train_grams, "
    "CAST(count(*) FILTER (WHERE te) AS BIGINT) AS n_test_grams, "
    "CAST(count(*) FILTER (WHERE tr AND te) AS BIGINT) AS n_shared FROM agg",
    bench=True,
)
def q_split_leakage(sf_dir: str):
    """Train/test split leakage audit (eval hygiene): distinct 5-gram
    counts per split and the cross-split overlap, over the SAME md5 hash
    split as `docs_hash_split` (val docs excluded). Ray shape: per-doc
    distinct grams exploded map-side as (gram, in_train, in_test) rows →
    one `sorted_group_agg` max-reduce per gram → block-local indicator sums
    → block-count-sized driver fold. The only shuffle carries gram rows —
    inherent to an exact overlap count (the segment-dedup class)."""
    import hashlib

    import numpy as np

    from vigil_ray.kernel.textstats import word_ngrams
    from vigil_ray.stages.corpus import sorted_group_agg

    def grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        g_col, tr_col, te_col = [], [], []
        for i, t in zip(ids, texts):
            b = int(hashlib.md5(f"{i}:42".encode()).hexdigest()[:8], 16) % 100
            if 80 <= b < 90:  # val split: not part of the train/test audit
                continue
            is_tr = b < 80
            for g in set(word_ngrams(t or "", 5)):
                g_col.append(g)
                tr_col.append(1 if is_tr else 0)
                te_col.append(0 if is_tr else 1)
        return pa.table(
            {
                "g": pa.array(g_col, pa.string()),
                "tr": pa.array(tr_col, pa.int64()),
                "te": pa.array(te_col, pa.int64()),
            }
        )

    rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        grams, batch_format="pyarrow"
    )
    agg = sorted_group_agg(rows, ["g"], [("tr", "max", "tr"), ("te", "max", "te")])

    def partial(batch: pa.Table) -> pa.Table:
        tr = batch.column("tr").to_numpy(zero_copy_only=False)
        te = batch.column("te").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_train_grams": pa.array([int(tr.sum())], pa.int64()),
                "n_test_grams": pa.array([int(te.sum())], pa.int64()),
                "n_shared": pa.array([int((tr & te).sum())], pa.int64()),
            }
        )

    parts = agg.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).take_all()  # block-count-sized
    return pa.table(
        {
            "n_train_grams": pa.array(
                [sum(p["n_train_grams"] for p in parts)], pa.int64()
            ),
            "n_test_grams": pa.array(
                [sum(p["n_test_grams"] for p in parts)], pa.int64()
            ),
            "n_shared": pa.array([sum(p["n_shared"] for p in parts)], pa.int64()),
        }
    )


@query(
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "g AS (SELECT doc_id, array_to_string(words[idx:idx+4], ' ') AS gram FROM "
    "  (SELECT doc_id, words, unnest(range(1, array_length(words) - 3)) AS idx "
    "   FROM w WHERE array_length(words) >= 5)), "
    "bg AS (SELECT DISTINCT gram FROM g WHERE doc_id < 64), "
    "flags AS (SELECT g.doc_id, max(CASE WHEN bg.gram IS NOT NULL THEN 1 ELSE 0 END) AS c "
    "  FROM g LEFT JOIN bg ON g.gram = bg.gram WHERE g.doc_id >= 64 "
    "  GROUP BY g.doc_id) "
    "SELECT d.doc_id, coalesce(f.c, 0) = 1 AS contaminated "
    "FROM documents d LEFT JOIN flags f ON d.doc_id = f.doc_id "
    "WHERE d.doc_id >= 64"
)
def q_docs_contamination(sf_dir: str):
    """Benchmark decontamination (the eval-contamination hygiene pass):
    flag every non-benchmark doc sharing any word 5-gram with the benchmark
    set (docs with doc_id < 64 stand in for an eval set — a FIXED-size
    benchmark, like real eval suites: the broadcast gram set must not grow
    with the corpus). The benchmark side's distinct gram hashes broadcast
    once; the corpus pass is an embarrassingly parallel flag map — no
    corpus shuffle."""
    import numpy as np

    from vigil_ray.stages.corpus import contamination_flags

    ds = _docs(sf_dir, ["doc_id", "text"])

    def _part(bench: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").combine_chunks().to_numpy(zero_copy_only=False)
            is_bench = ids < 64
            mask = is_bench if bench else ~is_bench
            return batch.filter(pa.array(mask))

        return f

    bench = ds.map_batches(_part(True), batch_format="pyarrow")
    corpus = ds.map_batches(_part(False), batch_format="pyarrow")
    return contamination_flags(corpus, bench, ngram=5)


@query(
    # identical magic-number bit spread (multiplication = shift on
    # disjoint masked bits; + = | on disjoint positions)
    "WITH base AS (SELECT doc_id, least(n_chars, 65535) AS a, "
    "  CAST('0x' || substr(md5(lang), 1, 4) AS BIGINT) AS b FROM documents), "
    "sp AS (SELECT doc_id, "
    "  ((a | (a * 256)) & 16711935) AS a1, "
    "  ((b | (b * 256)) & 16711935) AS b1 FROM base), "
    "sp2 AS (SELECT doc_id, ((a1 | (a1 * 16)) & 252645135) AS a2, "
    "  ((b1 | (b1 * 16)) & 252645135) AS b2 FROM sp), "
    "sp3 AS (SELECT doc_id, ((a2 | (a2 * 4)) & 858993459) AS a3, "
    "  ((b2 | (b2 * 4)) & 858993459) AS b3 FROM sp2), "
    "sp4 AS (SELECT doc_id, ((a3 | (a3 * 2)) & 1431655765) AS a4, "
    "  ((b3 | (b3 * 2)) & 1431655765) AS b4 FROM sp3), "
    "z AS (SELECT doc_id, CAST(a4 + 2 * b4 AS BIGINT) AS z FROM sp4) "
    "SELECT doc_id, z, CAST(row_number() OVER (ORDER BY z, doc_id) "
    "AS BIGINT) AS z_rank FROM z",
    bench=True,
)
def q_docs_zorder(sf_dir: str):
    """Z-order (Morton) clustering — the lakehouse ``OPTIMIZE ZORDER``
    layout operator: interleave the bits of (n_chars clipped to 16 bits,
    16-bit md5 lang bucket) into one integer key so a range scan on EITHER
    dimension touches few contiguous shards, then assign the global
    clustered rank. Map-side magic-number bit spreading (integer-exact,
    identical arithmetic in numpy and the SQL oracle) + the distributed
    prefix-scan rank (`corpus.prefix_scan`, cost 1). Output:
    (doc_id, z, z_rank)."""
    import hashlib

    import numpy as np

    from vigil_ray.stages.corpus import prefix_scan

    def _spread(x: "np.ndarray") -> "np.ndarray":
        # 16 -> 32-bit bit spread (Morton magic numbers)
        x = x.astype(np.int64) & 0xFFFF
        x = (x | (x << 8)) & 0x00FF00FF
        x = (x | (x << 4)) & 0x0F0F0F0F
        x = (x | (x << 2)) & 0x33333333
        x = (x | (x << 1)) & 0x55555555
        return x

    memo: dict = {}

    def zkey(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        for l in set(langs) - memo.keys():
            memo[l] = int(hashlib.md5(l.encode()).hexdigest()[:4], 16)
        a = np.minimum(
            batch.column("n_chars").to_numpy(zero_copy_only=False), 65535
        )
        b = np.array([memo[l] for l in langs], np.int64)
        z = _spread(a) + 2 * _spread(b)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "z": pa.array(z, pa.int64()),
            }
        )

    keyed = _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        zkey, batch_format="pyarrow"
    )
    scanned = prefix_scan(keyed, ["z", "doc_id"])

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rank = pc.add(
            pc.cast(batch.column("cum_excl"), pa.int64()), pa.scalar(1, pa.int64())
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "z": batch.column("z"),
                "z_rank": rank,
            }
        )

    return scanned.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT doc_id, row_number() OVER "
    "(ORDER BY md5(CAST(doc_id AS VARCHAR) || ':42')) AS shuffle_rank "
    "FROM documents",
    bench=True,
)
def q_docs_shuffle_rank(sf_dir: str):
    """Seeded reproducible global shuffle: rank = row_number over
    md5(doc_id:seed) — deterministic at any parallelism, via the same
    distributed prefix scan (cost=1)."""
    from vigil_ray.stages.corpus import deterministic_shuffle

    return deterministic_shuffle(_docs(sf_dir, ["doc_id"]), "doc_id", seed=42)


# data-mixing weights: en is upsampled 4×, zh 2× relative to the tail
# languages. stride = lcm(weights)/w — priority = rank·stride interleaves
# sources deterministically (integer-exact, no float ordering).
_MIX_STRIDE_CASE = "CASE lang WHEN 'en' THEN 1 WHEN 'zh' THEN 2 ELSE 4 END"
_MIX_STRIDES = {"en": 1, "zh": 2}


@query(
    "WITH ranked AS (SELECT doc_id, lang, "
    "  CAST(ROW_NUMBER() OVER (PARTITION BY lang "
    "    ORDER BY md5(CAST(doc_id AS VARCHAR) || ':7')) AS BIGINT) AS rnk "
    "  FROM documents) "
    f"SELECT doc_id, lang, rnk, rnk * {_MIX_STRIDE_CASE} AS priority "
    "FROM ranked ORDER BY priority, lang, rnk LIMIT 200"
)
def q_docs_mixing_order(sf_dir: str):
    """Deterministic weighted interleave of sources into one training
    order (the data-mixing schedule): within-lang seeded shuffle rank
    (:func:`vigil_ray.stages.corpus.per_group_rank`), priority =
    rank × stride(lang) with integer strides, first 200 docs of the
    schedule. Cluster-size-independent: both the per-group rank and the
    priority are pure functions of (doc_id, lang)."""
    from vigil_ray.stages.corpus import per_group_rank

    ranked = per_group_rank(_docs(sf_dir, ["doc_id", "lang"]), "lang", "doc_id", seed=7)

    def priority(batch: pa.Table) -> pa.Table:
        import numpy as np

        langs = batch.column("lang").to_pylist()
        rnk = batch.column("rank").combine_chunks().to_numpy(zero_copy_only=False)
        strides = np.array([_MIX_STRIDES.get(l, 4) for l in langs], dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "rnk": pa.array(rnk, pa.int64()),
                "priority": pa.array(rnk * strides, pa.int64()),
            }
        )

    return (
        ranked.map_batches(priority, batch_format="pyarrow")
        .sort(["priority", "lang", "rnk"])
        .limit(200)
    )


@query(
    # same quality features as doc_quality_stats (hash-proven equal
    # to the engine's quality_features), same DESC/ties window order
    "WITH q AS (SELECT doc_id, "
    "  array_length(regexp_split_to_array(trim(text), '\\s+')) AS n_words, "
    "  round(CAST(length(replace(text, ' ', '')) AS DOUBLE) / "
    "    array_length(regexp_split_to_array(trim(text), '\\s+')), 6) AS mwl "
    "  FROM documents WHERE trim(text) <> ''), "
    "s AS (SELECT doc_id, CAST(n_words AS BIGINT) AS n_words, "
    "  CAST(sum(n_words) OVER (ORDER BY mwl DESC, doc_id) AS BIGINT) AS cum_tokens "
    "  FROM q) "
    "SELECT doc_id, n_words, cum_tokens FROM s WHERE cum_tokens <= 10000"
)
def q_docs_token_budget(sf_dir: str):
    """Quality-ordered selection under a global 10k-token budget: docs by
    mean_word_len DESC (ties by doc_id) while the running word count stays
    ≤ 10000 — see :func:`vigil_ray.stages.corpus.token_budget_select`
    (one distributed prefix scan, then a parallel filter)."""
    from vigil_ray.kernel.quality import quality_features
    from vigil_ray.stages.corpus import token_budget_select

    ds = _docs(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        rows = [quality_features(t or "") for t in batch.column("text").to_pylist()]
        keep = [i for i, r in enumerate(rows) if r["n_words"] > 0]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(pa.array(keep)),
                "n_words": pa.array([rows[i]["n_words"] for i in keep], pa.int64()),
                "mwl": pa.array(
                    [rows[i]["mean_word_len"] for i in keep], pa.float64()
                ),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow")
    return token_budget_select(scored, "doc_id", "mwl", "n_words", budget=10000)


@query(
    "SELECT doc_id, CAST(floor((CAST(sum(n_chars) OVER (ORDER BY doc_id) AS DOUBLE) "
    "- n_chars) / 20000.0) AS BIGINT) AS shard_id FROM documents"
)
def q_doc_pack_shards(sf_dir: str):
    """Fixed-budget shard packing (distributed ordered prefix sum): docs in
    id order packed into ~20k-char shards, `floor(prefix_chars / S)` — the
    SQL window `sum(...) OVER (ORDER BY doc_id)` computed as a two-phase
    block scan (per-block totals → broadcast offsets → in-block cumsum)."""
    from vigil_ray.stages.corpus import pack_shards

    return pack_shards(_docs(sf_dir, ["doc_id", "n_chars"]), "doc_id", "n_chars", 20000)


@query(
    f"WITH scrub AS (SELECT {_URL_EXPR} AS url, "
    "  CASE WHEN doc_id % 20 = 10 THEN "
    "  array_to_string((regexp_split_to_array(trim(text), '\\s+'))[1:3], ' ') "
    f"  ELSE trim(text || {_SCRUB_SUFFIX_CASE}) END AS text_scrubbed "
    "  FROM documents), "
    "ded AS (SELECT min(url) AS url FROM scrub GROUP BY text_scrubbed), "
    "dd AS (SELECT s.url, s.text_scrubbed FROM scrub s "
    "  JOIN ded ON s.url = ded.url), "
    "sp AS (SELECT url, length(text_scrubbed) AS n_chars, "
    "  CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END "
    "  AS split FROM (SELECT url, text_scrubbed, "
    "  CAST('0x' || substr(md5(url || ':42'), 1, 8) AS BIGINT) % 100 AS b "
    "  FROM dd)) "
    "SELECT url, split, CAST(floor((CAST(sum(n_chars) OVER "
    "(PARTITION BY split ORDER BY url) AS DOUBLE) - n_chars) / 20000.0) "
    "AS BIGINT) AS shard_id FROM sp"
)
def q_corpus_prep_assignments(sf_dir: str):
    """The COMPOSED corpus-prep pipeline (pipelines/corpus_prep.py):
    detect+scrub → exact dedup (min url per content hash) → deterministic
    hash split → per-split prefix-sum shard packing → partitioned write.
    Oracle rebuilds the identical (url, split, shard_id) assignment from the
    by-construction scrub SQL + group-by dedup + md5 buckets + a windowed
    prefix sum — an end-to-end check of the whole composition."""
    import shutil
    import tempfile

    from vigil_ray.pipelines.corpus_prep import prepare_corpus
    from vigil_ray.stages.detect import detect_stage

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig())
    out_dir = tempfile.mkdtemp(prefix="vigil_corpus_prep_", dir="/tmp")
    try:
        final = prepare_corpus(ds, out_dir, shard_chars=20000)
        return final.select_columns(["url", "split", "shard_id"]).materialize()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


@query(
    "SELECT d.doc_id, d.lang, d.n_chars FROM documents d JOIN "
    "(SELECT lang, quantile_disc(n_chars, 0.9) AS q FROM documents GROUP BY lang) t "
    "ON d.lang = t.lang WHERE d.n_chars >= t.q"
)
def q_docs_top_decile_per_lang(sf_dir: str):
    """Per-group quality-quantile filter: keep docs at or above their
    language's 0.9 length quantile (``quantile_disc`` semantics) — per-group
    value histograms partial-aggregated, thresholds broadcast, one filter
    pass."""
    from vigil_ray.stages.corpus import group_quantile_filter

    return group_quantile_filter(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]), "lang", "n_chars", 0.9
    )


@query(
    "SELECT source, doc_id FROM (SELECT source, doc_id, row_number() OVER "
    "(PARTITION BY source ORDER BY doc_id) AS rn FROM documents) WHERE rn <= 10"
)
def q_docs_source_cap(sf_dir: str):
    """Per-source document cap (domain-cap operator): at most 10 docs per
    source, smallest ids kept — ``corpus.sorted_group_topk`` by id, the sort
    carries ≤10 rows per (block, source)."""
    from vigil_ray.stages.corpus import per_key_cap

    return per_key_cap(_docs(sf_dir, ["doc_id", "source"]), "source", "doc_id", 10)


@query(
    # Efraimidis–Spirakis clock: -ln(u)/w with the engine's exact
    # md5-uniform; ORDER BY clock, doc_id mirrors the (bits, id)
    # tuple ordering
    "WITH w AS (SELECT lang, doc_id, "
    "  -ln((CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':7'), 1, 16) "
    "  AS UBIGINT) + 1) / 18446744073709551616.0) / n_chars AS clock "
    "  FROM documents WHERE n_chars > 0) "
    "SELECT lang, doc_id FROM w "
    "QUALIFY row_number() OVER "
    "(PARTITION BY lang ORDER BY clock, doc_id) <= 5"
)
def q_docs_weighted_sample(sf_dir: str):
    """Length-weighted 5-per-language sample (Efraimidis–Spirakis exponential
    clocks, seeded md5 uniforms) — the data-mixing draw where longer docs are
    proportionally likelier. See
    :func:`vigil_ray.stages.corpus.per_group_weighted_sample`."""
    from vigil_ray.stages.corpus import per_group_weighted_sample

    ds = _docs(sf_dir, ["doc_id", "lang", "n_chars"]).filter(
        expr="n_chars > 0"
    )
    return per_group_weighted_sample(ds, "lang", "doc_id", "n_chars", k=5, seed=7)


@query(
    # duckdb array slices are 1-based inclusive: words[s+1:s+50] is
    # the 0-based window [s, s+50)
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "c AS (SELECT doc_id, words, "
    "  unnest(range(0, array_length(words), 40)) AS s FROM w) "
    "SELECT doc_id, CAST(s / 40 AS BIGINT) AS chunk_id, "
    "CAST(least(array_length(words) - s, 50) AS BIGINT) AS n_words, "
    "md5(array_to_string(words[s+1:s+50], ' ')) AS fp FROM c"
)
def q_docs_chunks(sf_dir: str):
    """Context-window chunking (50-word windows, stride 40) with an md5
    fingerprint per chunk — see
    :func:`vigil_ray.stages.corpus.chunk_documents`."""
    from vigil_ray.kernel.textstats import md5_hex
    from vigil_ray.stages.corpus import chunk_documents

    ds = _docs(sf_dir, ["doc_id", "text"])
    chunks = chunk_documents(ds, chunk_words=50, stride=40)

    def fp(batch: pa.Table) -> pa.Table:
        hashes = [md5_hex(t) for t in batch.column("chunk_text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "chunk_id": batch.column("chunk_id"),
                "n_words": batch.column("n_words"),
                "fp": pa.array(hashes, pa.string()),
            }
        )

    return chunks.map_batches(fp, batch_format="pyarrow")


@query(
    # the docs_chunks window arithmetic, then a distinct self-join
    # on the chunk fingerprint
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "c AS (SELECT doc_id, words, "
    "  unnest(range(0, array_length(words), 40)) AS s FROM w), "
    "f AS (SELECT DISTINCT doc_id, "
    "  md5(array_to_string(words[s+1:s+50], ' ')) AS fp FROM c) "
    "SELECT DISTINCT x.doc_id AS a, y.doc_id AS b "
    "FROM f x JOIN f y ON x.fp = y.fp AND x.doc_id < y.doc_id"
)
def q_docs_chunk_dup_pairs(sf_dir: str):
    """Document pairs sharing ≥1 identical 50-word context-window chunk —
    see :func:`vigil_ray.stages.corpus.chunk_dup_pairs` (chunk-fingerprint
    explode → sorted-adjacency bucket pairs → exact distinct)."""
    from vigil_ray.stages.corpus import chunk_dup_pairs

    return chunk_dup_pairs(
        _docs(sf_dir, ["doc_id", "text"]), chunk_words=50, stride=40
    )


def _pagerank_oracle(iters: int = 3) -> str:
    """Unrolled integer-exact PageRank iteration (mirrors
    :func:`vigil_ray.stages.graph.pagerank` bit-for-bit: same floor
    divisions, same damping split, same dangling/no-in-edge handling)."""
    parts = [
        "WITH nn AS (SELECT count(*) AS n FROM documents), ",
        "nodes AS (SELECT doc_id AS v FROM documents), ",
        "edges AS (SELECT doc_id AS src, (31 * doc_id + 7) % nn.n AS dst "
        "  FROM documents, nn "
        "  UNION ALL "
        "  SELECT doc_id, (17 * doc_id + 3) % nn.n FROM documents, nn), ",
        "deg AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM edges GROUP BY src), ",
        "c0 AS (SELECT (1000000000000 // n) AS base, "
        "  ((15 * (1000000000000 // n)) // 100) AS tel FROM nn), ",
        "r0 AS (SELECT v, (SELECT base FROM c0) AS r FROM nodes), ",
    ]
    for i in range(1, iters + 1):
        parts.append(
            f"s{i} AS (SELECT e.dst AS v, CAST(sum(r{i-1}.r // dg.d) AS BIGINT) AS s "
            f"  FROM edges e JOIN r{i-1} ON e.src = r{i-1}.v "
            f"  JOIN deg dg ON e.src = dg.src GROUP BY e.dst), "
        )
        parts.append(
            f"r{i} AS (SELECT nodes.v, (SELECT tel FROM c0) + "
            f"(85 * coalesce(s{i}.s, 0)) // 100 AS r "
            f"  FROM nodes LEFT JOIN s{i} ON nodes.v = s{i}.v), "
        )
    sql = "".join(parts).rstrip(", ")
    sql += (
        f" SELECT v AS doc_id, CAST(r AS BIGINT) AS rank_micro FROM r{iters}"
    )
    return sql


@query(_pagerank_oracle(3))
def q_docs_pagerank(sf_dir: str):
    """Distributed PageRank (3 integer-exact iterations, damping 0.85) over
    a deterministic doc-id link graph (each doc links to ``(31k+7) % N`` and
    ``(17k+3) % N``) — see :func:`vigil_ray.stages.graph.pagerank`. The
    oracle unrolls the identical integer iteration in SQL, so the iterative
    algorithm is hash-checked, not trusted."""
    from vigil_ray.stages.graph import pagerank

    ds = _docs(sf_dir, ["doc_id"])
    n = ds.count()

    def to_nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("doc_id")})

    def to_edges(batch: pa.Table) -> pa.Table:
        import numpy as np

        k = batch.column("doc_id").combine_chunks().to_numpy(zero_copy_only=False)
        src = np.concatenate([k, k])
        dst = np.concatenate([(31 * k + 7) % n, (17 * k + 3) % n])
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    pr = pagerank(
        ds.map_batches(to_nodes, batch_format="pyarrow"),
        ds.map_batches(to_edges, batch_format="pyarrow"),
        iters=3,
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "rank_micro"])

    return pr.map_batches(rename, batch_format="pyarrow")


@query(
    "WITH snap AS ( "
    "  SELECT doc_id, 1 AS version, text FROM documents "
    "  UNION ALL "
    "  SELECT doc_id, 2 AS version, text || ' [rev2]' AS text "
    "  FROM documents WHERE doc_id % 7 = 0), "
    "kept AS (SELECT doc_id, version, text FROM snap "
    "  QUALIFY row_number() OVER "
    "  (PARTITION BY doc_id ORDER BY version DESC) = 1) "
    "SELECT doc_id, CAST(version AS BIGINT) AS version, md5(text) AS fp "
    "FROM kept",
    bench=True,
)
def q_docs_snapshot_merge(sf_dir: str):
    """Incremental-crawl snapshot merge, latest version wins — the CDX-style
    recrawl dedup: union the base snapshot (v1) with a synthetic v2 recrawl
    of every 7th doc, keep ONE row per doc_id by max version. Ray shape:
    vectorized version explode → ``sorted_group_min`` argmax on version
    (the keeper's payload rides the one global sort; the driver sees no
    rows)."""
    import pyarrow.compute as pc

    from vigil_ray.kernel.textstats import md5_hex
    from vigil_ray.stages.corpus import sorted_group_min

    ds = _docs(sf_dir, ["doc_id", "text"])

    def explode_versions(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        text = batch.column("text")
        # integer pc.divide truncates, so ids - (ids // 7) * 7 is doc_id % 7
        mask = pc.equal(pc.subtract(ids, pc.multiply(pc.divide(ids, 7), 7)), 0)
        rev_text = pc.binary_join_element_wise(
            text.filter(mask), pa.scalar(" [rev2]"), pa.scalar("")
        )
        v1 = pa.table(
            {
                "doc_id": ids,
                "version": pa.array([1] * batch.num_rows, pa.int64()),
                "text": text,
            }
        )
        v2 = pa.table(
            {
                "doc_id": ids.filter(mask),
                "version": pa.array([2] * len(rev_text), pa.int64()),
                "text": rev_text,
            }
        )
        return pa.concat_tables([v1, v2])

    snap = ds.map_batches(explode_versions, batch_format="pyarrow")
    kept = sorted_group_min(
        snap, ["doc_id"], ["version", "text"], descending=[True, False]
    )

    def fp(batch: pa.Table) -> pa.Table:
        hashes = [md5_hex(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "version": batch.column("version"),
                "fp": pa.array(hashes, pa.string()),
            }
        )

    return kept.map_batches(fp, batch_format="pyarrow")


@query(
    "WITH m AS (SELECT vec_id, embedding, "
    "  list_max(list_transform(embedding, y -> abs(CAST(y AS DOUBLE)))) AS mx "
    "  FROM embeddings), "
    "s AS (SELECT vec_id, embedding, 127.0 / mx AS sc FROM m WHERE mx > 0) "
    "SELECT vec_id, array_to_string(list_transform(embedding, x -> "
    "  CAST(CAST(CASE WHEN CAST(x AS DOUBLE) * sc >= 0 "
    "  THEN floor(CAST(x AS DOUBLE) * sc + 0.5) "
    "  ELSE ceil(CAST(x AS DOUBLE) * sc - 0.5) END AS BIGINT) AS VARCHAR)), ',') "
    "AS qvec, round(sc, 6) AS scale FROM s"
)
def q_embeddings_quantized(sf_dir: str):
    """Per-vector symmetric int8 quantization (scale=127/max|x|,
    half-away-from-zero rounding to match SQL round()); qvec emitted
    comma-joined for a representation-stable driver hash."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.embeddings import quantize_embeddings

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return quantize_embeddings(ds)


@query(
    "WITH u(row_id, url) AS ("
    "  SELECT doc_id, 'https://sub' || CAST(doc_id % 3 AS VARCHAR) || "
    "    '.dom' || CAST(doc_id % 11 AS VARCHAR) || '.test/p/' || "
    "    CAST(doc_id AS VARCHAR) FROM documents "
    "  UNION ALL "
    "  SELECT doc_id + 40000000, 'HTTP://WWW.SUB' || "
    "    CAST(doc_id % 3 AS VARCHAR) || '.DOM' || "
    "    CAST(doc_id % 11 AS VARCHAR) || '.TEST/p/' || "
    "    CAST(doc_id AS VARCHAR) || '?utm_source=x#f' "
    "  FROM documents WHERE doc_id % 4 = 1), "
    "n1 AS (SELECT row_id, regexp_replace(regexp_replace("
    "  regexp_replace(regexp_replace(url, '#.*$', ''), "
    "  '&utm_[^&]*', '', 'g'), '\\?utm_[^&]*&', '?'), "
    "  '\\?utm_[^&]*$', '') AS v FROM u), "
    "n2 AS (SELECT row_id, 'https://' || "
    "  regexp_replace(lower(regexp_extract(v, '^(?i:https?)://([^/]*)', 1)), "
    "    '^www\\.', '') || "
    "  regexp_replace(regexp_replace(v, '^(?i:https?)://[^/]*', ''), '/$', '') "
    "  AS canonical_url FROM n1), "
    "g AS (SELECT canonical_url, min(row_id) AS row_id FROM n2 "
    "  GROUP BY canonical_url), "
    "d AS (SELECT row_id, regexp_extract(regexp_extract(canonical_url, "
    "  '^https://([^/]+)', 1), '([^.]+\\.[^.]+)$', 1) AS domain FROM g), "
    "f AS (SELECT * FROM d WHERE domain NOT IN ('dom0.test', 'dom7.test')) "
    "SELECT domain, row_id FROM (SELECT domain, row_id, row_number() OVER "
    "  (PARTITION BY domain ORDER BY row_id) AS rn FROM f) WHERE rn <= 10",
    bench=True,
)
def q_frontier_prep(sf_dir: str):
    """Composed crawl-frontier prep — the polite-crawler governance
    pipeline: canonicalize URLs (the `docs_url_dedup` rules) → exact dedup
    on the canonical URL (keeper = min row_id) → extract the registered
    domain (last two host labels, RE2 map-side) → drop blocklisted domains
    (tiny static set) → politeness cap of 10 URLs per domain (smallest
    keeper ids win, `corpus.per_key_cap`'s top-k by id — ≤cap rows per
    (block, domain) in the sort). Output: (domain, row_id) survivors.
    Everything between the two bounded shuffles is map-side; page bodies
    never exist on this path at all."""
    import ray.data as rd

    from vigil_ray.sources.pages import synthesize_frontier
    from vigil_ray.stages.corpus import per_key_cap, url_dedup

    table = synthesize_frontier(sf_dir)
    ds = rd.from_arrow(table).repartition(max(1, table.num_rows // 512))
    dedup = url_dedup(ds)  # (canonical_url, keeper_row_id, n_variants)

    blocked = pa.array(["dom0.test", "dom7.test"])

    def domains(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        host = pc.struct_field(
            pc.extract_regex(
                batch.column("canonical_url"), r"^https://(?P<host>[^/]+)"
            ),
            "host",
        )
        dom = pc.struct_field(
            pc.extract_regex(host, r"(?P<d>[^.]+\.[^.]+)$"), "d"
        )
        keep = pc.invert(pc.is_in(dom, value_set=blocked))
        return pa.table(
            {"domain": dom, "row_id": batch.column("keeper_row_id")}
        ).filter(keep)

    filtered = dedup.map_batches(domains, batch_format="pyarrow")
    return per_key_cap(filtered, "domain", "row_id", cap=10)


# --- driver-green in r1-r3 ---
@query("SELECT lang, count(*) AS n FROM documents GROUP BY lang")
def q_lang_doc_counts(sf_dir: str):
    """A2-style per-key counts with partial pre-aggregation."""
    from vigil_ray.stages.aggregates import lang_counts

    return lang_counts(_docs(sf_dir, ["lang"]), column="lang")


@query(
    "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
    "array_length(regexp_split_to_array(trim(text), '\\s+')) END AS n_tokens "
    "FROM documents"
)
def q_doc_token_counts(sf_dir: str):
    from vigil_ray.kernel.textstats import count_ws_tokens

    def add_tokens(batch: pa.Table) -> pa.Table:
        n = [count_ws_tokens(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_tokens, batch_format="pyarrow"
    )


@query("SELECT doc_id, md5(text) AS fp FROM documents")
def q_doc_fingerprints(sf_dir: str):
    from vigil_ray.kernel.textstats import md5_hex

    def fp(batch: pa.Table) -> pa.Table:
        hashes = [md5_hex(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "fp": pa.array(hashes, pa.string())}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fp, batch_format="pyarrow")


@query("SELECT min(doc_id) AS doc_id FROM documents GROUP BY text", bench=True)
def q_dedup_exact(sf_dir: str):
    """Exact dedup keep-first: content-hash partition → min(doc_id) per group.
    The shuffle moves (fp, doc_id) pairs, never document bodies."""
    from ray.data.aggregate import Min

    ds = q_doc_fingerprints(sf_dir)
    kept = ds.groupby("fp").aggregate(Min("doc_id", alias_name="doc_id"))
    return kept.select_columns(["doc_id"])


@query(
    "SELECT doc_id, length(text) AS n_chars, "
    "array_length(regexp_split_to_array(trim(text), '\\s+')) AS n_words, "
    "round(CAST(length(replace(text, ' ', '')) AS DOUBLE) / "
    "array_length(regexp_split_to_array(trim(text), '\\s+')), 6) AS mean_word_len "
    "FROM documents WHERE trim(text) <> ''"
)
def q_doc_quality_stats(sf_dir: str):
    """SQL-expressible subset of the Gopher features, over raw documents."""
    from vigil_ray.kernel.quality import quality_features

    def stats(batch: pa.Table) -> pa.Table:
        rows = [quality_features(t or "") for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pa.array([r["n_chars"] for r in rows], pa.int64()),
                "n_words": pa.array([r["n_words"] for r in rows], pa.int64()),
                "mean_word_len": pa.array(
                    [r["mean_word_len"] for r in rows], pa.float64()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(stats, batch_format="pyarrow")


@query(
    "SELECT doc_id, n_chars FROM documents "
    "ORDER BY n_chars DESC, doc_id LIMIT 10"
)
def q_top10_longest_docs(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


@query(
    "SELECT event_type, date_trunc('hour', ts) AS window_start, "
    "count(*) AS n, min(value) AS min_value, max(value) AS max_value "
    "FROM events GROUP BY event_type, date_trunc('hour', ts)",
    bench=True,
)
def q_events_hourly(sf_dir: str):
    """Tumbling 1-hour window per event_type (streaming-shaped op as a
    grouped reduction over a derived window key; SURVEY.md §2.8).

    Runs on ``corpus.sorted_group_agg`` (sort + vectorized per-run
    reduceat) rather than a hash ``groupby().aggregate`` —
    the window key space is bounded (hours × event types), so the sort sees
    one row per event but skips the per-group aggregate machinery; min/max
    merges are order-independent, so float values stay exact. Keys keep the
    µs timestamp unit natively (the hash-groupby path degraded them to
    seconds and needed a cast back)."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import sorted_group_agg

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def add_window(batch: pa.Table) -> pa.Table:
        win = pc.cast(
            pc.floor_temporal(batch.column("ts"), unit="hour"), pa.timestamp("us")
        )
        out = batch.append_column("window_start", win)
        return out.append_column(
            "n", pa.array(np.ones(batch.num_rows, np.int64))
        ).drop_columns(["ts"])

    ds = ds.map_batches(add_window, batch_format="pyarrow")
    return sorted_group_agg(
        ds,
        ["event_type", "window_start"],
        [("n", "sum", "n"), ("value", "min", "min_value"), ("value", "max", "max_value")],
    )


@query(
    "SELECT user_id, count(*) AS n_events, min(value) AS min_value, "
    "max(value) AS max_value, min(ts) AS first_ts, max(ts) AS last_ts "
    "FROM events GROUP BY user_id"
)
def q_events_user_stats(sf_dir: str):
    from ray.data.aggregate import Count, Max, Min

    from vigil_ray.sources.readers import read_table

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    return ds.groupby("user_id").aggregate(
        Count(alias_name="n_events"),
        Min("value", alias_name="min_value"),
        Max("value", alias_name="max_value"),
        Min("ts", alias_name="first_ts"),
        Max("ts", alias_name="last_ts"),
    )


@query(
    # integer sum() in DuckDB yields hugeint/decimal128 — cast back to
    # BIGINT so the driver's value hash matches the engine's int64
    "SELECT count(*) AS total, "
    f"CAST(sum(CASE WHEN (doc_id % 20) IN ({_PII_SET}) THEN 1 ELSE 0 END) AS BIGINT) AS com_pii "
    "FROM documents"
)
def q_pages_summary(sf_dir: str):
    """A1 global stats as one aggregated row."""
    from vigil_ray.stages.detect import detect_stage
    from vigil_ray.stages.aggregates import summary_stats

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig())
    stats = summary_stats(ds)
    return pa.table(
        {
            "total": pa.array([stats["total"]], pa.int64()),
            "com_pii": pa.array([stats["com_pii"]], pa.int64()),
        }
    )


@query(
    "WITH fam AS (SELECT doc_id % 20 AS f FROM documents), "
    "m AS ( "
    "  SELECT f, unnest(CASE "
    "    WHEN f IN (0, 7, 8) THEN ['cpf'] "
    "    WHEN f = 1 THEN ['email'] "
    "    WHEN f IN (2, 13) THEN ['telefone'] "
    "    WHEN f = 3 THEN ['rg'] "
    "    WHEN f = 5 THEN ['nome'] "
    "    WHEN f = 14 THEN ['telefone', 'email'] "
    "    WHEN f = 17 THEN ['ssn'] "
    "    WHEN f = 18 THEN ['cartao'] "
    "    ELSE [] END) AS tipo FROM fam) "
    "SELECT tipo, count(*) AS n FROM m GROUP BY tipo",
    bench=True,
)
def q_pages_type_counts(sf_dir: str):
    """A2: exploded per-type detection counts."""
    from vigil_ray.stages.aggregates import pii_type_counts
    from vigil_ray.stages.detect import detect_stage

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig())
    return pii_type_counts(ds)


@query(
    "WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0) "
    "SELECT e.vec_id FROM embeddings e, q "
    "ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id "
    "LIMIT 10",
    bench=True,
)
def q_ann_cosine_top10(sf_dir: str):
    """Brute-force cosine top-k: query vector broadcast once (``ray.put``),
    per-batch numpy matmul, per-batch top-k then global top-k. Delegates to
    ``stages.ann.brute_force_topk`` (single implementation, no drift)."""
    import numpy as np

    from vigil_ray.sources.readers import read_table

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # deterministic query vector: the vec_id == 0 embedding, fetched with a
    # row filter (row-group pushdown — not a second full read of the table)
    import pyarrow.parquet as pq

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["embedding"],
        filters=[("vec_id", "==", 0)],
    )
    qvec = np.asarray(emb.column("embedding")[0].as_py(), dtype=np.float64)

    from vigil_ray.stages.ann import brute_force_topk

    return brute_force_topk(ds, qvec, k=10).select_columns(["vec_id"])


@query(_jaccard_pairs_sql(3, 0.5), bench=True)
def q_dedup_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-dup pairs (3-gram Jaccard ≥ 0.5) over the variants
    corpus; the oracle recomputes true Jaccard with a shingle self-join."""
    from vigil_ray.stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_variants_ds(sf_dir), threshold=0.5)


@query(_jaccard_pairs_sql(2, 0.7), bench=True)
def q_dedup_ngram_pairs(sf_dir: str):
    """Word-2-gram Jaccard pairs ≥ 0.7 via LSH-band candidates + EXACT
    2-gram verification (candidate pairs hash-join back to the corpus) — no
    driver materialization, no corpus broadcast, no all-pairs scan. True
    pairs here have J ≥ 0.9, where the 32×4 banding miss probability is
    ~1.5e-15 per pair. An exact inverted shingle index degrades on this
    corpus's closed 31-word vocabulary: every 2-gram is a stop-shingle, so
    its pair-count groupby degenerates to all-pairs (a collect-list form
    measured 50 s vs ~6 s for this form at sf0.01)."""
    from vigil_ray.stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_variants_ds(sf_dir), threshold=0.7, ngram=2)


# independent recomputation of the full SimHash pipeline in SQL: the
# kernel's per-word hash is md5[:8] (big-endian) precisely so DuckDB
# can rebuild the 64 bit-votes and compare per-bit Hamming distance
@query(f"""
WITH {_VARIANTS_CTE},
words AS (
  SELECT vid, unnest(regexp_split_to_array(lower(trim(text)), '\\s+')) AS w
  FROM variants
),
wh AS (
  SELECT vid, CAST('0x' || substr(md5(w), 1, 16) AS UBIGINT) AS h FROM words
),
bits AS (
  SELECT vid, i,
         CASE WHEN sum(CASE WHEN (h >> (63 - i)) & 1 = 1 THEN 1 ELSE -1 END) > 0
              THEN 1 ELSE 0 END AS bit
  FROM wh, unnest(range(64)) AS t(i)
  GROUP BY vid, i
),
pairdist AS (
  SELECT a.vid AS a, b.vid AS b,
         sum(CASE WHEN a.bit <> b.bit THEN 1 ELSE 0 END) AS d
  FROM bits a JOIN bits b ON a.i = b.i AND a.vid < b.vid
  GROUP BY a.vid, b.vid
)
SELECT a, b FROM pairdist WHERE d <= 3
""", bench=True)
def q_dedup_simhash_pairs(sf_dir: str):
    """SimHash Hamming≤3 pairs — exactly oracle-checked: the kernel's
    per-word hash is md5[:8] so the SQL oracle recomputes the identical
    64-bit signatures and per-bit Hamming distances (the 4×16-bit chunk
    banding is pigeonhole-complete at distance ≤3, so engine and oracle pair
    sets must match exactly)."""
    from vigil_ray.stages.dedup import simhash_pairs

    return simhash_pairs(_variants_ds(sf_dir), max_distance=3)


@query(
    "SELECT a.vec_id AS a, b.vec_id AS b FROM embeddings a "
    "JOIN embeddings b ON a.vec_id < b.vec_id "
    "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45"
)
def q_dedup_embedding_pairs(sf_dir: str):
    """Embedding-cosine near-dup pairs (cos ≥ 0.45), exact blockwise scan."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.dedup import embedding_pairs

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return embedding_pairs(ds, threshold=0.45)


@query(f"""
WITH RECURSIVE {_jaccard_pairs_ctes(3, 0.5)},
{_COMPONENTS_CTES.strip().rstrip()}
SELECT node AS vid, CAST(component AS BIGINT) AS component FROM comp
""", bench=True)
def q_dedup_components(sf_dir: str):
    """Duplicate CLUSTERS from the MinHash pair set: distributed min-label
    propagation (stages/graph.py) labels every paired doc with the minimum
    vid reachable from it. The oracle recomputes the identical labels with a
    recursive reachability CTE over the same by-construction pair set."""
    from vigil_ray.stages.dedup import minhash_lsh_pairs
    from vigil_ray.stages.graph import connected_components

    pairs = minhash_lsh_pairs(_variants_ds(sf_dir), threshold=0.5)
    comp = connected_components(pairs)
    return comp.rename_columns({"node": "vid"})


@query(f"""
WITH RECURSIVE {_jaccard_pairs_ctes(3, 0.5)},
{_COMPONENTS_CTES.strip().rstrip()},
winners AS (
  SELECT c.node AS vid FROM comp c JOIN variants d ON d.vid = c.node
  QUALIFY row_number() OVER (
    PARTITION BY c.component ORDER BY length(d.text) DESC, c.node
  ) = 1
)
SELECT vid FROM variants WHERE vid NOT IN (SELECT node FROM comp)
UNION ALL
SELECT vid FROM winners
""", bench=True)
def q_dedup_canonical(sf_dir: str):
    """End-to-end cluster-level dedup: MinHash pairs → connected components
    → keep the LONGEST member per cluster (ties → smallest vid), plus every
    unpaired doc. This is the full keep/drop decision a training-corpus
    dedup pass ships (pairs alone can't make it — duplication is
    transitive)."""
    import pyarrow.compute as pc

    from vigil_ray.stages.dedup import minhash_lsh_pairs
    from vigil_ray.stages.graph import canonical_docs, connected_components

    docs = _variants_ds(sf_dir)
    comp = connected_components(minhash_lsh_pairs(docs, threshold=0.5))

    def score(batch):
        return pa.table(
            {
                "vid": batch.column("vid"),
                "n_chars": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
            }
        )

    scored = docs.map_batches(score, batch_format="pyarrow")
    return canonical_docs(scored, comp, id_col="vid", score_col="n_chars")


@query(
    "WITH flagged AS ( "
    "  SELECT user_id, ts, CASE WHEN lag(ts) OVER w IS NULL "
    "    OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s "
    "  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts) ), "
    "sessions AS ( "
    "  SELECT user_id, ts, sum(new_s) OVER "
    "    (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid "
    "  FROM flagged ), "
    "per_session AS ( "
    "  SELECT user_id, sid, count(*) AS n FROM sessions GROUP BY user_id, sid) "
    "SELECT user_id, count(*) AS n_sessions, CAST(sum(n) AS BIGINT) AS n_events, "
    "max(n) AS max_session_events FROM per_session GROUP BY user_id",
    bench=True,
)
def q_events_sessions(sf_dir: str):
    """30-min-gap sessionization per user (stages/sessions.py): one sort
    by user leaves each user's events whole in one block, which resolves
    its users in one map; NO per-user collected state anywhere."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.sessions import sessionize

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return sessionize(ds, gap_minutes=30)


@query(
    f"SELECT {_URL_EXPR} AS url, "
    f"octet_length(encode({_HTML_EXPR})) AS n_bytes, "
    # md5(VARCHAR) digests the string's UTF-8 bytes == the engine's
    # raw-bytes md5 for this UTF-8 fixture (this DuckDB build has no
    # md5(BLOB)); the non-UTF-8 case is pinned in tests/test_sources.py
    f"md5({_HTML_EXPR}) AS payload_md5 "
    "FROM documents"
)
def q_multimodal_payload_meta(sf_dir: str):
    """Binary-payload metadata via the actor-pool multimodal stage. Only the
    SQL-recomputable columns are exposed to the oracle (byte length + md5);
    the fake-decode columns are pinned in tests/test_multimodal.py."""
    from vigil_ray.stages.multimodal import payload_stage

    out = payload_stage(_pages_ds(sf_dir), payload_col="html", key_col="url")
    return out.select_columns(["url", "n_bytes", "payload_md5"])


@query(
    f"SELECT {_URL_EXPR} AS url, t.i AS frame_idx, "
    f"(t.i * octet_length(encode({_HTML_EXPR}))) // 4 AS frame_offset "
    "FROM documents, LATERAL unnest(range(0, 4)) AS t(i)",
    bench=True,
)
def q_multimodal_frames(sf_dir: str):
    """Frame-sampling explode over binary payloads (1 row → 4 frame rows):
    the offsets are pure byte arithmetic, so the flat-map shape and values
    are exactly oracle-checked; the per-frame decode stays the declared fake
    (digest column pinned in tests, excluded from the oracle columns)."""
    from vigil_ray.stages.multimodal import frame_sample_stage

    out = frame_sample_stage(_pages_ds(sf_dir), payload_col="html", key_col="url")
    return out.select_columns(["url", "frame_idx", "frame_offset"])


@query(
    "SELECT n.n_name, count(*) AS n_orders, "
    "CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_price_cents "
    "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
    "JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "GROUP BY n.n_name"
)
def q_orders_per_nation(sf_dir: str):
    """J3/J4-style join re-expressed for scale: nation (25 rows) folds into
    the customer dimension map-side, the dimension attaches to the orders
    fact through the SIZE-GATED broadcast probe (``joins.broadcast_join`` —
    an ungated ``ray.put`` of a whole dimension dict is a driver OOM at big
    SF; past the gate it falls back to the partitioned hash join), and
    per-nation partials aggregate with native Arrow ``group_by`` before the
    nations-sized shuffle. No per-row Python on the fact path."""
    import numpy as np
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.joins import broadcast_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nmap = dict(
        zip(
            nation.column("n_nationkey").to_pylist(),
            nation.column("n_name").to_pylist(),
        )
    )  # 25 rows — a genuinely fixed-size lookup

    def with_name(batch: pa.Table) -> pa.Table:
        names = [nmap[k] for k in batch.column("c_nationkey").to_pylist()]
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "n_name": pa.array(names, pa.string()),
            }
        )

    dim = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(with_name, batch_format="pyarrow")

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    joined = broadcast_join(orders, dim, key="o_custkey", right_key="c_custkey")

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        # exact integer cents: float sums of ~1e9 magnitudes can land
        # within double error of a rounding boundary and flake the
        # value-hash compare; integer sums are exact on both sides
        t = pa.table(
            {
                "n_name": batch.column("n_name"),
                "one": pa.array(np.ones(batch.num_rows, np.int64)),
                "cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )
        g = t.group_by("n_name").aggregate([("one", "sum"), ("cents", "sum")])
        return pa.table(
            {
                "n_name": g.column("n_name"),
                "n_partial": g.column("one_sum"),
                "sum_partial": g.column("cents_sum"),
            }
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(
            Sum("n_partial", alias_name="n_orders"),
            Sum("sum_partial", alias_name="total_price_cents"),
        )
    )
    return agg


@query(
    # quarter-interval range join ≡ date_trunc for full coverage
    "SELECT CAST(date_trunc('quarter', o_orderdate) AS TIMESTAMP) AS quarter_start, "
    "count(*) AS n_orders, "
    "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_price_cents "
    "FROM orders GROUP BY 1"
)
def q_orders_quarter_ranges(sf_dir: str):
    """Range join (brief-named custom-operator class): orders assigned to
    calendar-quarter intervals via the canonical distributed technique —
    broadcast the SORTED interval boundaries once, binary-search
    (``np.searchsorted``) each batch's dates into its interval, then a
    normal keyed aggregate. The boundary table is tiny and fixed; no
    interval-to-fact shuffle ever happens. Exact integer-cent sums."""
    from datetime import datetime

    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    from vigil_ray.sources.readers import read_table

    bounds = np.array(
        [datetime(y, m, 1) for y in range(1990, 2033) for m in (1, 4, 7, 10)],
        dtype="datetime64[us]",
    ).astype(np.int64)
    bref = ray.put(bounds)

    def assign(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = ray.get(bref)
        dates = pc.cast(batch.column("o_orderdate"), pa.timestamp("us"))
        d_us = dates.cast(pa.int64()).combine_chunks().to_numpy(
            zero_copy_only=False
        )
        idx = np.searchsorted(b, d_us, side="right") - 1
        # a date before the first boundary would give idx=-1, which numpy
        # silently wraps to the LAST quarter — fail loudly instead
        if len(idx) and idx.min() < 0:
            raise ValueError(
                "o_orderdate precedes the 1990-01-01 quarter-boundary range; "
                "widen the boundary table in q_orders_quarter_ranges"
            )
        qstart = b[idx]
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        cents = np.floor(p * 100.0 + 0.5).astype(np.int64)
        # map-side partial per quarter
        uniq, inv = np.unique(qstart, return_inverse=True)
        n_part = np.bincount(inv)
        c_part = np.bincount(inv, weights=cents).astype(np.int64)
        return pa.table(
            {
                "q_us": pa.array(uniq, pa.int64()),
                "n_partial": pa.array(n_part, pa.int64()),
                "cents_partial": pa.array(c_part, pa.int64()),
            }
        )

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )
    agg = (
        orders.map_batches(assign, batch_format="pyarrow")
        .groupby("q_us")
        .aggregate(
            Sum("n_partial", alias_name="n_orders"),
            Sum("cents_partial", alias_name="total_price_cents"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "quarter_start": pc.cast(
                    batch.column("q_us"), pa.timestamp("us")
                ),
                "n_orders": batch.column("n_orders"),
                "total_price_cents": batch.column("total_price_cents"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT l_returnflag, l_linestatus, "
    "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty, "
    "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents, "
    "count(*) AS n_rows FROM lineitem GROUP BY l_returnflag, l_linestatus"
)
def q_lineitem_pricing(sf_dir: str):
    """TPC-H-Q1-style pricing summary (A1-analog generic aggregate)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from vigil_ray.sources.readers import read_table

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def to_exact(batch: pa.Table) -> pa.Table:
        # integer cents / integer quantities: exact sums on both sides
        qty = pc.cast(pc.round(batch.column("l_quantity")), pa.int64())
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0)),
            pa.int64(),
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty_int": qty,
                "price_cents": cents,
            }
        )

    agg = ds.map_batches(to_exact, batch_format="pyarrow").groupby(
        ["l_returnflag", "l_linestatus"]
    ).aggregate(
        Sum("qty_int", alias_name="sum_qty"),
        Sum("price_cents", alias_name="sum_price_cents"),
        Count(alias_name="n_rows"),
    )
    return agg


@query(
    "SELECT CAST(10 AS BIGINT) AS k_returned, TRUE AS recall_ok"
)
def q_ann_ivf_persisted_top10(sf_dir: str):
    """Persisted-IVF top-k (the real scale path): index built ONCE as
    cell-partitioned parquet under /tmp (idempotent across calls, validated
    against a source-data fingerprint so a regenerated parquet forces a
    rebuild), query reads only the probed cells' files. Approximate — the
    driver-visible check is the recall@10 bound (1-row table); recall +
    reuse + invalidation pinned in tests/test_ann.py."""
    from vigil_ray.stages.ann import ivf_query

    index_dir, _n_cells, n_probe = _persisted_ivf(sf_dir)
    approx = ivf_query(
        index_dir, _ann_query_vec(sf_dir), k=10, n_probe=n_probe
    ).select_columns(["vec_id"])
    return _ann_recall_table(approx, sf_dir)


@query(
    "SELECT o.o_orderpriority, count(*) AS n_items "
    "FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
    "GROUP BY o.o_orderpriority"
)
def q_order_priority_items(sf_dir: str):
    """Both-sides-large join: orders ⨝ lineitem on o_orderkey, per-priority
    line counts. Uses Ray's hash-partitioned ``Dataset.join`` (both sides
    shuffled on the key) — the pattern for fact-to-fact joins where neither
    side broadcasts; ``num_partitions`` is the explicit shuffle width."""
    from ray.data.aggregate import Count

    from vigil_ray.sources.readers import read_table

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    lineitem = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
    joined = orders.join(
        lineitem,
        join_type="inner",
        num_partitions=8,
        on=("o_orderkey",),
        right_on=("l_orderkey",),
    )
    return joined.groupby("o_orderpriority").aggregate(Count(alias_name="n_items"))


@query(
    "SELECT event_type, window_start, count(*) AS n FROM ( "
    "  SELECT event_type, unnest([time_bucket(INTERVAL 30 MINUTE, ts), "
    "    time_bucket(INTERVAL 30 MINUTE, ts) - INTERVAL 30 MINUTE]) AS window_start "
    "  FROM events) GROUP BY event_type, window_start"
)
def q_events_sliding(sf_dir: str):
    """Sliding window (1 h length, 30 min slide): each event lands in two
    windows, emitted as two rows in ``map_batches`` (flat-map shape), then a
    normal groupby — the Ray Data expression of overlapping windows."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from vigil_ray.sources.readers import read_table

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def explode_windows(batch: pa.Table) -> pa.Table:
        base = pc.cast(
            pc.floor_temporal(batch.column("ts"), multiple=30, unit="minute"),
            pa.timestamp("us"),
        )
        shifted = pc.subtract(
            base, pa.scalar(1_800_000_000, pa.duration("us"))
        )
        types = batch.column("event_type")
        return pa.table(
            {
                "event_type": pa.concat_arrays(
                    [types.combine_chunks(), types.combine_chunks()]
                ),
                "window_start": pa.concat_arrays(
                    [base.combine_chunks(), shifted.combine_chunks()]
                ),
            }
        )

    exploded = ds.map_batches(explode_windows, batch_format="pyarrow")
    agg = exploded.groupby(["event_type", "window_start"]).aggregate(
        Count(alias_name="n")
    )

    def to_us(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("window_start")
        return batch.set_column(
            i, "window_start",
            pc.cast(batch.column("window_start"), pa.timestamp("us")),
        )

    return agg.map_batches(to_us, batch_format="pyarrow")


@query(
    "SELECT user_id, event_id, "
    "row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rk "
    "FROM events",
    bench=True,
)
def q_events_cumulative(sf_dir: str):
    """Ordered per-key window analytic: each event's running index within its
    user's history (SQL ``row_number() OVER (PARTITION BY user ORDER BY ts,
    id)``). Ray shape: ``corpus.grouped_prefix_scan`` — global sort by
    (user, ts, id), per-block vectorized grouped cumsum, block-count-sized
    driver carry walk. Unlike the earlier collect-list form, no worker ever
    holds a whole user's history (a key spanning the corpus streams through
    in block-sized pieces) and the per-group aggregate machinery disappears
    (measured 2.64 s → the sort cost alone at sf0.1). Ties broken by
    event_id, so the rank is deterministic."""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_prefix_scan

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])
    scanned = grouped_prefix_scan(ds, ["user_id"], ["ts", "event_id"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "rk": pc.add(batch.column("cum_excl"), pa.scalar(1, pa.int64())),
            }
        )

    return scanned.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT user_id, event_id, "
    "last_value(CASE WHEN event_type='purchase' THEN value END IGNORE NULLS) "
    "OVER (PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS last_purchase_value "
    "FROM events",
    bench=True,
)
def q_events_last_purchase_value(sf_dir: str):
    """LOCF / gap-fill imputation: at every event, the user's most recent
    purchase value so far (null before the first purchase) — SQL
    ``last_value(v IGNORE NULLS) OVER (PARTITION BY user ORDER BY ts, id)``.
    Ray shape: ``corpus.grouped_fill_forward`` — global sort by (user, ts,
    id) pins blocks, a block-count-sized driver walk threads the last-seen
    value across boundaries, vectorized in-block forward fill. No worker
    holds a user's history; the feature-table imputation op at 10^12 rows."""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_fill_forward

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type", "value"],
    )

    def purchase_only(batch: pa.Table) -> pa.Table:
        pv = pc.if_else(
            pc.equal(batch.column("event_type"), "purchase"),
            batch.column("value"),
            pa.scalar(None, pa.float64()),
        )
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts": batch.column("ts"),
                "pv": pv,
            }
        )

    filled = grouped_fill_forward(
        ds.map_batches(purchase_only, batch_format="pyarrow"),
        ["user_id"],
        ["ts", "event_id"],
        "pv",
        out_col="last_purchase_value",
    )
    return filled.select_columns(["user_id", "event_id", "last_purchase_value"])


@query(
    "WITH c AS (SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n "
    "FROM events GROUP BY user_id, event_type), "
    "r AS (SELECT user_id, event_type, n, row_number() OVER "
    "(PARTITION BY user_id ORDER BY n DESC, event_type) AS rk FROM c) "
    "SELECT user_id, event_type AS mode_type, n FROM r WHERE rk = 1"
)
def q_events_user_mode_type(sf_dir: str):
    """Per-user modal event type (the plurality-vote / label-consolidation
    aggregate of weak-supervision pipelines): the event_type each user
    emitted most often, count ties broken by the lexicographically smallest
    type. Ray shape: vectorized map-side (user, type) partial counts (native
    Arrow ``group_by`` per block, so the shuffle carries one row per distinct
    (user, type) pair — never the event stream) → ``sorted_group_sum`` exact
    merge → ``sorted_group_min`` per-user argmax on (n desc, type asc). No
    per-group UDF and no driver state."""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import sorted_group_min, sorted_group_sum

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": g.column("user_id"),
                "event_type": g.column("event_type"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    counts = sorted_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "event_type"],
        ["n"],
    )
    mode = sorted_group_min(
        counts, ["user_id"], ["n", "event_type"], descending=[True, False]
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "mode_type": batch.column("event_type"),
                "n": batch.column("n"),
            }
        )

    return mode.map_batches(finish, batch_format="pyarrow")


@query(
    "WITH e AS (SELECT user_id AS k, CAST(count(*) AS BIGINT) AS n_events "
    "FROM events GROUP BY user_id), "
    "o AS (SELECT o_custkey AS k, CAST(count(*) AS BIGINT) AS n_orders "
    "FROM orders GROUP BY o_custkey) "
    "SELECT COALESCE(e.k, o.k) AS k, "
    "COALESCE(n_events, 0) AS n_events, COALESCE(n_orders, 0) AS n_orders "
    "FROM e FULL OUTER JOIN o ON e.k = o.k",
    bench=True,
)
def q_user_order_reconcile(sf_dir: str):
    """Catalog reconciliation — FULL OUTER join of two independently derived
    per-key aggregates (user ids seen in the event stream vs custkeys seen in
    orders): the snapshot-merge shape for reconciling two ID catalogs where
    EACH side holds keys the other lacks (crawl frontier vs index manifest).
    Ray shape: map-side ``value_counts`` partials per side with the OTHER
    side's count column zero-filled (each shuffle row is one distinct key,
    never the fact stream) → ``union`` → ONE ``sorted_group_sum`` over both
    count columns. The full-outer semantics fall out of the union — a key
    missing from a side simply contributes no partial there, so its count
    sums to the zero fills — replacing the Ray ``Join`` operator (~1.7 s
    fixed machinery at sf0.1, measured in BASELINE.md round-4 notes) with
    the engine's cheapest exchange: a single sort of key-distinct partials."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import sorted_group_sum

    def keyed_partials(path: str, key: str, mine: str):
        ds = read_table(path, columns=[key])

        def partial(batch: pa.Table) -> pa.Table:
            vc = pc.value_counts(batch.column(key).combine_chunks())
            counts = pc.cast(vc.field("counts"), pa.int64())
            zeros = pa.array(np.zeros(len(vc), np.int64))
            cols = {
                "n_events": counts if mine == "n_events" else zeros,
                "n_orders": counts if mine == "n_orders" else zeros,
            }
            return pa.table(
                {"k": vc.field("values"), "n_events": cols["n_events"], "n_orders": cols["n_orders"]}
            )

        return ds.map_batches(partial, batch_format="pyarrow")

    ev = keyed_partials(f"{sf_dir}/events.parquet", "user_id", "n_events")
    od = keyed_partials(f"{sf_dir}/orders.parquet", "o_custkey", "n_orders")
    return sorted_group_sum(ev.union(od), ["k"], ["n_events", "n_orders"])


@query(
    "WITH a AS (SELECT DISTINCT user_id, date_trunc('hour', ts) AS h "
    "FROM events), "
    "f AS (SELECT user_id, min(h) AS cohort_h FROM a GROUP BY user_id) "
    "SELECT f.cohort_h, "
    "CAST(date_diff('hour', f.cohort_h, a.h) AS BIGINT) AS offset_h, "
    "CAST(count(*) AS BIGINT) AS n_users "
    "FROM a JOIN f USING (user_id) GROUP BY f.cohort_h, offset_h",
    bench=True,
)
def q_events_cohort_retention(sf_dir: str):
    """Cohort retention matrix — users bucketed by their FIRST-activity hour
    (the cohort), counted by how many were active at each hour offset since:
    the classic retention/engagement analytic (hour granularity so the
    fixture's time span yields a real matrix; week-granularity is the same
    query with a different truncation). Ray shape, shuffle-minimal: (1)
    per-block partial counts dedup (user, hour) activity pairs before any
    exchange, (2) ``sorted_group_sum`` makes them exact-distinct, (3)
    ``sorted_group_min`` derives each user's cohort (min hour), (4) the
    user→cohort dimension attaches via the size-gated ``broadcast_join``
    (hash-join fallback over the gate — the 10^9-user path), (5) offsets
    reduce by map-side partial counts + ``sorted_group_sum``. No per-group
    UDF anywhere; every shuffle carries distinct-pair-sized rows."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import sorted_group_min, sorted_group_sum
    from vigil_ray.stages.joins import broadcast_join

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    US_PER_HOUR = 3_600_000_000

    def pair_partials(batch: pa.Table) -> pa.Table:
        h = pc.cast(
            pc.cast(pc.floor_temporal(batch.column("ts"), unit="hour"), pa.timestamp("us")),
            pa.int64(),
        )
        t = pa.table({"user_id": batch.column("user_id"), "h": h})
        return t.group_by(["user_id", "h"]).aggregate([([], "count_all")]).select(
            ["user_id", "h"]
        )

    def with_one(batch: pa.Table) -> pa.Table:
        return batch.append_column("one", pa.array(np.ones(batch.num_rows, np.int64)))

    # pinned: consumed twice (cohort min + join left). Distinct (user, hour)
    # pairs — activity-grid-sized, far below the event log, never the corpus
    pairs = sorted_group_sum(
        ds.map_batches(pair_partials, batch_format="pyarrow").map_batches(
            with_one, batch_format="pyarrow"
        ),
        ["user_id", "h"],
        ["one"],
    ).materialize()

    cohort = sorted_group_min(pairs.select_columns(["user_id", "h"]), ["user_id"], ["h"])
    cohort = cohort.map_batches(
        lambda b: pa.table(
            {"user_id": b.column("user_id"), "cohort_us": b.column("h")}
        ),
        batch_format="pyarrow",
    )

    joined = broadcast_join(
        pairs.select_columns(["user_id", "h"]), cohort, key="user_id"
    )

    def offset_partials(batch: pa.Table) -> pa.Table:
        off = pc.divide(
            pc.subtract(batch.column("h"), batch.column("cohort_us")),
            pa.scalar(US_PER_HOUR, pa.int64()),
        )
        t = pa.table(
            {
                "cohort_us": batch.column("cohort_us"),
                "offset_h": off,
                "n_users": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )
        g = t.group_by(["cohort_us", "offset_h"]).aggregate([("n_users", "sum")])
        return g.rename_columns(["cohort_us", "offset_h", "n_users"])

    matrix = sorted_group_sum(
        joined.map_batches(offset_partials, batch_format="pyarrow"),
        ["cohort_us", "offset_h"],
        ["n_users"],
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_h": pc.cast(batch.column("cohort_us"), pa.timestamp("us")),
                "offset_h": batch.column("offset_h"),
                "n_users": batch.column("n_users"),
            }
        )

    return matrix.map_batches(finish, batch_format="pyarrow")


@query(
    "WITH c AS (SELECT lang, source, CAST(sum(n_chars) AS BIGINT) AS chars "
    "FROM documents GROUP BY lang, source), "
    "t AS (SELECT lang, CAST(sum(chars) AS BIGINT) AS tot FROM c GROUP BY lang) "
    "SELECT c.lang, c.source, c.chars, "
    "round(c.chars / CAST(t.tot AS DOUBLE), 6) AS weight "
    "FROM c JOIN t USING (lang)"
)
def q_source_mixture_weights(sf_dir: str):
    """Data-mixing weight table: each (lang, source) cell's share of its
    language's total characters — the mixture-weight computation that feeds
    a training-data sampler (chars stand in for tokens). Ray shape: map-side
    Arrow ``group_by`` char-sum partials → ``sorted_group_sum`` exact leaf
    table (bounded: langs × sources, never corpus-sized) → per-lang totals
    from a second tiny ``sorted_group_sum`` attached via the size-gated
    ``broadcast_join`` → vectorized share division. Integer sums make the
    division operands bit-identical to SQL's; round(6) guards the quotient."""
    import pyarrow.compute as pc

    from vigil_ray.stages.corpus import sorted_group_sum
    from vigil_ray.stages.joins import broadcast_join

    ds = _docs(sf_dir, ["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "source"]).aggregate([("n_chars", "sum")])
        return pa.table(
            {
                "lang": g.column("lang"),
                "source": g.column("source"),
                "chars": pc.cast(g.column("n_chars_sum"), pa.int64()),
            }
        )

    cells = sorted_group_sum(
        ds.map_batches(partial, batch_format="pyarrow"), ["lang", "source"], ["chars"]
    )

    def total_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"lang": batch.column("lang"), "tot": batch.column("chars")}
        )

    totals = sorted_group_sum(
        cells.map_batches(total_partial, batch_format="pyarrow"), ["lang"], ["tot"]
    )
    joined = broadcast_join(cells, totals, key="lang")

    def finish(batch: pa.Table) -> pa.Table:
        # DuckDB round() is half-away-from-zero; Arrow defaults half-to-even
        w = pc.round(
            pc.divide(
                pc.cast(batch.column("chars"), pa.float64()),
                pc.cast(batch.column("tot"), pa.float64()),
            ),
            ndigits=6,
            round_mode="half_towards_infinity",
        )
        return pa.table(
            {
                "lang": batch.column("lang"),
                "source": batch.column("source"),
                "chars": batch.column("chars"),
                "weight": w,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT event_type, "
    "round(corr(value, CAST(hour(ts) AS DOUBLE)), 6) AS corr_vh "
    "FROM events GROUP BY event_type"
)
def q_events_type_value_hour_corr(sf_dir: str):
    """Per-event-type Pearson correlation between event value and hour of
    day — the feature-correlation scan of a feature-engineering pipeline.
    Ray shape: one vectorized map-side pass accumulates the six sufficient
    statistics (n, Σx, Σy, Σxx, Σyy, Σxy) per type per block (Arrow
    ``group_by`` sums), a native groupby merges the per-block partials
    (groups are bounded by the type vocabulary), and the closed-form corr
    evaluates on the driver-sized result. round(6) absorbs summation-order
    ulps vs the SQL one-pass form."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column("value"), pa.float64())
        y = pc.cast(pc.hour(batch.column("ts")), pa.float64())
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "n": pa.array(np.ones(batch.num_rows, np.float64)),
                "sx": x,
                "sy": y,
                "sxx": pc.multiply(x, x),
                "syy": pc.multiply(y, y),
                "sxy": pc.multiply(x, y),
            }
        )
        g = t.group_by(["event_type"]).aggregate(
            [(c, "sum") for c in ["n", "sx", "sy", "sxx", "syy", "sxy"]]
        )
        return g.rename_columns(["event_type", "n", "sx", "sy", "sxx", "syy", "sxy"])

    from ray.data.aggregate import Sum

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(*[Sum(c, alias_name=c) for c in ["n", "sx", "sy", "sxx", "syy", "sxy"]])
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        sx = batch.column("sx").to_numpy(zero_copy_only=False)
        sy = batch.column("sy").to_numpy(zero_copy_only=False)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False)
        syy = batch.column("syy").to_numpy(zero_copy_only=False)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False)
        cov = n * sxy - sx * sy
        den = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
        corr = np.round(cov / den, 6)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "corr_vh": pa.array(corr, pa.float64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


@query(
    "WITH l AS (SELECT l_orderkey, "
    "CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) "
    "AS BIGINT) AS cents FROM lineitem GROUP BY l_orderkey) "
    "SELECT n.n_name, CAST(sum(l.cents) AS BIGINT) AS revenue_cents "
    "FROM l JOIN orders o ON l.l_orderkey = o.o_orderkey "
    "JOIN customer c ON o.o_custkey = c.c_custkey "
    "JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "GROUP BY n.n_name"
)
def q_nation_lineitem_revenue(sf_dir: str):
    """Four-table star join with aggregation PUSHED BELOW every join
    (TPC-H-Q5-shaped): lineitem revenue → orders → customer → nation.
    The fact table never crosses a join at row granularity — revenue
    aggregates to one row per orderkey BEFORE the orderkey join, to one row
    per custkey before the customer join, and to one row per nationkey
    before the 25-row nation lookup; the only full exchange carries
    (orderkey, cents) pairs. Dimensions attach via the size-gated
    ``broadcast_join`` (hash fallback over the gate). Money is exact
    integer cents (floor(x+0.5) = SQL half-away round for positive
    amounts), so every sum is order-independent and hash-stable."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.blocks import safe_join
    from vigil_ray.stages.corpus import sorted_group_sum
    from vigil_ray.stages.joins import broadcast_join

    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "cents": pa.array(cents, pa.int64()),
            }
        )
        g = t.group_by(["l_orderkey"]).aggregate([("cents", "sum")])
        return g.rename_columns(["l_orderkey", "cents"])

    per_order = sorted_group_sum(
        li.map_batches(li_partial, batch_format="pyarrow"), ["l_orderkey"], ["cents"]
    )

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    joined = safe_join(
        per_order,
        orders,
        "inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def cust_partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["o_custkey", "cents"]).group_by(["o_custkey"]).aggregate(
            [("cents", "sum")]
        )
        return g.rename_columns(["o_custkey", "cents"])

    per_cust = sorted_group_sum(
        joined.map_batches(cust_partial, batch_format="pyarrow"),
        ["o_custkey"],
        ["cents"],
    )

    customer = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    with_nk = broadcast_join(per_cust, customer, key="o_custkey", right_key="c_custkey")

    def nat_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "nk": pc.cast(batch.column("c_nationkey"), pa.int64()),
                "revenue_cents": batch.column("cents"),
            }
        )
        g = t.group_by(["nk"]).aggregate([("revenue_cents", "sum")])
        return g.rename_columns(["nk", "revenue_cents"])

    per_nation = sorted_group_sum(
        with_nk.map_batches(nat_partial, batch_format="pyarrow"),
        ["nk"],
        ["revenue_cents"],
    )

    nation = read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])

    def nat_key(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nk": pc.cast(batch.column("n_nationkey"), pa.int64()),
                "n_name": batch.column("n_name"),
            }
        )

    named = broadcast_join(
        per_nation, nation.map_batches(nat_key, batch_format="pyarrow"), key="nk"
    )
    return named.select_columns(["n_name", "revenue_cents"])


@query(
    "WITH r AS (SELECT user_id, event_id, event_id - row_number() "
    "OVER (PARTITION BY user_id ORDER BY event_id) AS grp FROM events) "
    "SELECT user_id, min(event_id) AS island_start, "
    "max(event_id) AS island_end, CAST(count(*) AS BIGINT) AS n "
    "FROM r GROUP BY user_id, grp"
)
def q_events_id_islands(sf_dir: str):
    """Gaps-and-islands: maximal runs of CONSECUTIVE event_ids per user —
    the classic sequence-integrity analytic (missing-record detection in an
    ingest log). SQL trick: ``id − row_number() OVER (PARTITION BY user
    ORDER BY id)`` is constant within an island. Ray shape:
    ``corpus.grouped_prefix_scan`` assigns the row rank with no per-key
    state, the island key derives vectorized, and ``sorted_group_agg``
    reduces each (user, island) to (start, end, n) with run-adjacency
    min/max/sum — no per-group UDF anywhere."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_prefix_scan, sorted_group_agg

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_id"])
    ranked = grouped_prefix_scan(ds, ["user_id"], ["event_id"])  # 0-based rank

    def island_key(batch: pa.Table) -> pa.Table:
        grp = pc.subtract(
            batch.column("event_id"),
            pc.add(pc.cast(batch.column("cum_excl"), pa.int64()), 1),
        )
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "grp": grp,
                "island_start": batch.column("event_id"),
                "island_end": batch.column("event_id"),
                "n": pa.array(np.ones(batch.num_rows, np.int64)),
            }
        )

    agg = sorted_group_agg(
        ranked.map_batches(island_key, batch_format="pyarrow"),
        ["user_id", "grp"],
        [
            ("island_start", "min", "island_start"),
            ("island_end", "max", "island_end"),
            ("n", "sum", "n"),
        ],
    )
    return agg.select_columns(["user_id", "island_start", "island_end", "n"])


@query(
    "SELECT CAST(0.25 AS DOUBLE) AS q, "
    "round(quantile_cont(n_chars, 0.25), 6) AS v FROM documents "
    "UNION ALL SELECT CAST(0.5 AS DOUBLE), "
    "round(quantile_cont(n_chars, 0.5), 6) FROM documents "
    "UNION ALL SELECT CAST(0.9 AS DOUBLE), "
    "round(quantile_cont(n_chars, 0.9), 6) FROM documents"
)
def q_doc_length_quantiles_cont(sf_dir: str):
    """INTERPOLATED (R-7 / ``quantile_cont``) quantiles of document length —
    the continuous companion of the exact order-statistic query above, same
    scale shape: ONE (value, count) histogram pass (shuffle moves only
    distinct values), rank selection + linear interpolation on the tiny
    driver-side histogram: ``h = (n−1)q; v = v[⌊h⌋] + (h−⌊h⌋)(v[⌈h⌉] −
    v[⌊h⌋])``. round(6) absorbs the interpolation's float-op-order ulps vs
    the SQL aggregate."""
    ds = _docs(sf_dir, ["n_chars"])
    hist = ds.groupby("n_chars").count().to_pandas()
    hist = hist.sort_values("n_chars").reset_index(drop=True)
    counts = hist["count()"].to_numpy()
    values = hist["n_chars"].to_numpy().astype(float)
    cum = counts.cumsum()
    n = int(cum[-1])

    def value_at(rank: int) -> float:
        return float(values[int((cum <= rank).sum())])

    qs_out, vals = [], []
    for q in (0.25, 0.5, 0.9):
        h = (n - 1) * q
        lo = int(h)
        hi = min(lo + 1, n - 1)
        v_lo, v_hi = value_at(lo), value_at(hi)
        qs_out.append(q)
        vals.append(round(v_lo + (h - lo) * (v_hi - v_lo), 6))
    return pa.table(
        {
            "q": pa.array(qs_out, pa.float64()),
            "v": pa.array(vals, pa.float64()),
        }
    )


@query(
    "SELECT round(mad(n_chars), 6) AS mad_n_chars FROM documents"
)
def q_doc_length_mad(sf_dir: str):
    """Median absolute deviation of document length — the ROBUST dispersion
    statistic of outlier-tolerant quality filtering. One (value, count)
    histogram pass is sufficient for BOTH medians: the deviation histogram
    |v − median| with the same counts derives on the driver from the value
    histogram, so the corpus is read once and nothing corpus-sized moves.
    Matches DuckDB ``mad()`` exactly (interpolated median both levels)."""
    import numpy as np

    ds = _docs(sf_dir, ["n_chars"])
    hist = ds.groupby("n_chars").count().to_pandas()
    hist = hist.sort_values("n_chars").reset_index(drop=True)
    counts = hist["count()"].to_numpy().astype(np.int64)
    values = hist["n_chars"].to_numpy().astype(float)

    def interp_median(vals: np.ndarray, cnts: np.ndarray) -> float:
        order = np.argsort(vals, kind="stable")
        vals, cnts = vals[order], cnts[order]
        cum = cnts.cumsum()
        n = int(cum[-1])
        h = (n - 1) * 0.5
        lo, frac = int(h), h - int(h)
        v_lo = float(vals[int((cum <= lo).sum())])
        v_hi = float(vals[int((cum <= min(lo + 1, n - 1)).sum())])
        return v_lo + frac * (v_hi - v_lo)

    med = interp_median(values, counts)
    mad = interp_median(np.abs(values - med), counts)
    return pa.table({"mad_n_chars": pa.array([round(mad, 6)], pa.float64())})


@query(
    "SELECT event_type, "
    "round(regr_slope(value, CAST(hour(ts) AS DOUBLE)), 6) AS slope "
    "FROM events GROUP BY event_type"
)
def q_events_type_value_trend(sf_dir: str):
    """Per-event-type least-squares slope of value vs hour of day
    (``regr_slope`` — the trend scan next to the correlation scan). Same
    map-side sufficient-statistics shape as ``events_type_value_hour_corr``:
    (n, Σx, Σy, Σxx, Σxy) per type per block, native groupby merges the
    bounded partials, closed form on the driver-sized result, round(6)."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from vigil_ray.sources.readers import read_table

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        y = pc.cast(batch.column("value"), pa.float64())
        x = pc.cast(pc.hour(batch.column("ts")), pa.float64())
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "n": pa.array(np.ones(batch.num_rows, np.float64)),
                "sx": x,
                "sy": y,
                "sxx": pc.multiply(x, x),
                "sxy": pc.multiply(x, y),
            }
        )
        g = t.group_by(["event_type"]).aggregate(
            [(c, "sum") for c in ["n", "sx", "sy", "sxx", "sxy"]]
        )
        return g.rename_columns(["event_type", "n", "sx", "sy", "sxx", "sxy"])

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(*[Sum(c, alias_name=c) for c in ["n", "sx", "sy", "sxx", "sxy"]])
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        sx = batch.column("sx").to_numpy(zero_copy_only=False)
        sy = batch.column("sy").to_numpy(zero_copy_only=False)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False)
        slope = np.round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "slope": pa.array(slope, pa.float64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


@query(
    "WITH f AS (SELECT CAST(length(text) AS BIGINT) AS y, "
    "  CAST(CASE WHEN trim(text) = '' THEN 0 ELSE "
    "  array_length(regexp_split_to_array(trim(text), '\\s+')) END AS BIGINT) AS x1, "
    "  CAST(length(text) - length(replace(text, 'e', '')) AS BIGINT) AS x2 "
    "  FROM documents), "
    "s AS (SELECT CAST(count(*) AS HUGEINT) AS n, "
    "  CAST(sum(x1) AS HUGEINT) AS sx1, CAST(sum(x2) AS HUGEINT) AS sx2, "
    "  CAST(sum(y) AS HUGEINT) AS sy, CAST(sum(x1*x1) AS HUGEINT) AS s11, "
    "  CAST(sum(x1*x2) AS HUGEINT) AS s12, CAST(sum(x2*x2) AS HUGEINT) AS s22, "
    "  CAST(sum(x1*y) AS HUGEINT) AS s1y, CAST(sum(x2*y) AS HUGEINT) AS s2y, "
    "  CAST(sum(y*y) AS HUGEINT) AS syy FROM f), "
    "d AS (SELECT *, "
    "  n*(s11*s22 - s12*s12) - sx1*(sx1*s22 - s12*sx2) + sx2*(sx1*s12 - s11*sx2) AS det, "
    "  sy*(s11*s22 - s12*s12) - sx1*(s1y*s22 - s12*s2y) + sx2*(s1y*s12 - s11*s2y) AS det0, "
    "  n*(s1y*s22 - s12*s2y) - sy*(sx1*s22 - s12*sx2) + sx2*(sx1*s2y - s1y*sx2) AS det1, "
    "  n*(s11*s2y - s1y*s12) - sx1*(sx1*s2y - s1y*sx2) + sy*(sx1*s12 - s11*sx2) AS det2 "
    "  FROM s), "
    "b AS (SELECT *, CAST(det0 AS DOUBLE)/CAST(det AS DOUBLE) AS b0r, "
    "  CAST(det1 AS DOUBLE)/CAST(det AS DOUBLE) AS b1r, "
    "  CAST(det2 AS DOUBLE)/CAST(det AS DOUBLE) AS b2r FROM d) "
    "SELECT CAST(n AS BIGINT) AS n, round(b0r, 6) AS b0, round(b1r, 6) AS b1, "
    "round(b2r, 6) AS b2, "
    "round(1 - (CAST(syy AS DOUBLE) - b0r*CAST(sy AS DOUBLE) - b1r*CAST(s1y AS DOUBLE) "
    "- b2r*CAST(s2y AS DOUBLE)) / (CAST(syy AS DOUBLE) - "
    "CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE)/CAST(n AS DOUBLE)), 6) AS r2 FROM b",
    bench=True,
)
def q_docs_ols_fit(sf_dir: str):
    """Distributed closed-form least squares — train a linear length model
    y = b0 + b1·x1 + b2·x2 (y = char count, x1 = ws-token count, x2 = count
    of the letter 'e' — a varying second feature; line count is constant in
    this corpus and would make the normal matrix singular) by the normal
    equations. Each block emits TEN integer sufficient
    statistics (n, Σx1, Σx2, Σy, Σx1², Σx1x2, Σx2², Σx1y, Σx2y, Σy²); the
    whole "training" run moves ten int64s per block regardless of corpus
    size, and the 3×3 Cramer solve folds the block-count-sized partial list
    on the driver in exact arbitrary-precision integer arithmetic — the same
    numbers the SQL oracle reproduces with HUGEINT determinants, so the
    coefficients match to the bit before rounding. (At 10^12 rows Σy² can
    exceed int64: the per-block partials stay exact and the driver fold is
    Python big-int, so only the Arrow partial column type would need
    widening — documented, not hit at any test scale.)"""
    import numpy as np

    from vigil_ray.kernel.textstats import count_ws_tokens

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        y = np.array([len(t or "") for t in texts], np.int64)
        x1 = np.array([count_ws_tokens(t or "") for t in texts], np.int64)
        x2 = np.array([(t or "").count("e") for t in texts], np.int64)
        sums = [
            len(texts),
            int(x1.sum()),
            int(x2.sum()),
            int(y.sum()),
            int((x1 * x1).sum()),
            int((x1 * x2).sum()),
            int((x2 * x2).sum()),
            int((x1 * y).sum()),
            int((x2 * y).sum()),
            int((y * y).sum()),
        ]
        names = ["n", "sx1", "sx2", "sy", "s11", "s12", "s22", "s1y", "s2y", "syy"]
        return pa.table({k: pa.array([v], pa.int64()) for k, v in zip(names, sums)})

    rows = _docs(sf_dir, ["text"]).map_batches(partial, batch_format="pyarrow").take_all()
    # block-count-sized fold, exact Python ints (never overflows)
    n = sum(r["n"] for r in rows)
    sx1 = sum(r["sx1"] for r in rows)
    sx2 = sum(r["sx2"] for r in rows)
    sy = sum(r["sy"] for r in rows)
    s11 = sum(r["s11"] for r in rows)
    s12 = sum(r["s12"] for r in rows)
    s22 = sum(r["s22"] for r in rows)
    s1y = sum(r["s1y"] for r in rows)
    s2y = sum(r["s2y"] for r in rows)
    syy = sum(r["syy"] for r in rows)

    # Cramer on the symmetric normal matrix [[n,sx1,sx2],[sx1,s11,s12],[sx2,s12,s22]]
    det = n * (s11 * s22 - s12 * s12) - sx1 * (sx1 * s22 - s12 * sx2) + sx2 * (
        sx1 * s12 - s11 * sx2
    )
    det0 = sy * (s11 * s22 - s12 * s12) - sx1 * (s1y * s22 - s12 * s2y) + sx2 * (
        s1y * s12 - s11 * s2y
    )
    det1 = n * (s1y * s22 - s12 * s2y) - sy * (sx1 * s22 - s12 * sx2) + sx2 * (
        sx1 * s2y - s1y * sx2
    )
    det2 = n * (s11 * s2y - s1y * s12) - sx1 * (sx1 * s2y - s1y * sx2) + sy * (
        sx1 * s12 - s11 * sx2
    )
    b0 = float(det0) / float(det)
    b1 = float(det1) / float(det)
    b2 = float(det2) / float(det)
    # expression order mirrors the SQL oracle exactly (double determinism)
    sse = float(syy) - b0 * float(sy) - b1 * float(s1y) - b2 * float(s2y)
    sst = float(syy) - float(sy) * float(sy) / float(n)
    r2 = 1.0 - sse / sst

    def _r6(x: float) -> float:
        import math

        return math.copysign(math.floor(abs(x) * 1e6 + 0.5), x) / 1e6

    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "b0": pa.array([_r6(b0)], pa.float64()),
            "b1": pa.array([_r6(b1)], pa.float64()),
            "b2": pa.array([_r6(b2)], pa.float64()),
            "r2": pa.array([_r6(r2)], pa.float64()),
        }
    )


@query(
    "SELECT event_id, user_id, value, "
    "round(percent_rank() OVER (PARTITION BY user_id ORDER BY value), 6) "
    "AS pct_rank FROM events",
    bench=True,
)
def q_events_value_percent_rank(sf_dir: str):
    """Per-user ``percent_rank()`` (SQL ``percent_rank() OVER (PARTITION BY
    user ORDER BY value)``, min-rank tie semantics) — composed entirely from
    the sorted-block primitive family, no per-key collected state:

    1. ``grouped_prefix_scan`` keyed on user, ordered by (value, id) → the
       0-based row rank r within the user;
    2. a second scan keyed on (user, value), ordered by id → the 0-based
       position p inside the tie run; min-rank₀ = r − p (the SQL rank() of
       tied values is the rank of the FIRST row of the run);
    3. per-user totals from a users-sized ``sorted_group_sum`` table,
       attached with the size-gated broadcast join (falls back to the hash
       exchange past the gate — 10^8-user-safe).

    percent_rank = min-rank₀ / (n − 1), 0 when n = 1; half-away round(6)
    matches DuckDB."""
    import numpy as np

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_prefix_scan, sorted_group_sum
    from vigil_ray.stages.joins import broadcast_join

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"])

    def _rename(col_from: str, col_to: str):
        def f(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [col_to if n == col_from else n for n in b.column_names]
            )

        return f

    s1 = grouped_prefix_scan(ds, ["user_id"], ["value", "event_id"]).map_batches(
        _rename("cum_excl", "r0"), batch_format="pyarrow"
    )
    s2 = grouped_prefix_scan(s1, ["user_id", "value"], ["event_id"]).map_batches(
        _rename("cum_excl", "p0"), batch_format="pyarrow"
    )

    def add_ones(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "ones": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )

    counts = sorted_group_sum(
        ds.map_batches(add_ones, batch_format="pyarrow"), ["user_id"], ["ones"]
    ).map_batches(_rename("ones", "n_user"), batch_format="pyarrow")

    joined = broadcast_join(s2, counts, key="user_id")

    def finish(b: pa.Table) -> pa.Table:
        r0 = b.column("r0").to_numpy(zero_copy_only=False).astype(np.int64)
        p0 = b.column("p0").to_numpy(zero_copy_only=False).astype(np.int64)
        n = b.column("n_user").to_numpy(zero_copy_only=False).astype(np.int64)
        mr = (r0 - p0).astype(np.float64)
        pct = np.where(n > 1, mr / np.maximum(n - 1, 1), 0.0)
        pct = np.floor(pct * 1e6 + 0.5) / 1e6  # pct >= 0: half-away == this
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "value": b.column("value"),
                "pct_rank": pa.array(pct, pa.float64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


@query(
    "WITH m AS (SELECT vec_id, embedding, "
    "  list_max(list_transform(embedding, y -> abs(CAST(y AS DOUBLE)))) AS mx "
    "  FROM embeddings), "
    "q AS (SELECT vec_id, list_transform(embedding, x -> "
    "  CASE WHEN CAST(x AS DOUBLE) * (127.0/mx) >= 0 "
    "  THEN floor(CAST(x AS DOUBLE) * (127.0/mx) + 0.5) "
    "  ELSE ceil(CAST(x AS DOUBLE) * (127.0/mx) - 0.5) END) AS qv "
    "  FROM m WHERE mx > 0), "
    "c AS (SELECT vec_id AS cid, qv AS cv FROM q "
    "  WHERE vec_id IN (SELECT vec_id FROM q ORDER BY vec_id LIMIT 8)), "
    "d AS (SELECT q.vec_id, c.cid, CAST(list_dot_product(q.qv, q.qv) "
    "  - 2*list_dot_product(q.qv, c.cv) + list_dot_product(c.cv, c.cv) "
    "  AS BIGINT) AS dist FROM q, c), "
    "a AS (SELECT vec_id, cid, dist, row_number() OVER "
    "  (PARTITION BY vec_id ORDER BY dist, cid) AS rn FROM d) "
    "SELECT cid AS cell, CAST(count(*) AS BIGINT) AS n_members, "
    "CAST(sum(dist) AS BIGINT) AS inertia FROM a WHERE rn = 1 GROUP BY cid",
    bench=True,
)
def q_embeddings_kmeans_assign(sf_dir: str):
    """Distributed k-means assignment step (the Lloyd inner loop) over the
    embeddings table — int8-quantized so the whole step is integer-exact and
    the oracle recomputes identical assignments/inertia with
    ``list_dot_product`` (see ``stages/embeddings.kmeans_assign_step``)."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.embeddings import kmeans_assign_step

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return kmeans_assign_step(ds, k=8)


@query(
    "SELECT date_trunc('hour', ts) AS window_start, "
    "CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
    "FROM events GROUP BY 1",
    bench=True,
)
def q_events_hourly_distinct(sf_dir: str):
    """Windowed COUNT DISTINCT — distinct active users per tumbling hour
    (the DAU/HAU shape). Exact, with no distinct-aggregate machinery: each
    block pre-dedups its (hour, user) pairs with an in-block Arrow
    ``group_by`` (the shuffle carries distinct pairs only, never event
    rows), ``sorted_group_agg`` collapses pairs globally, and a second
    hours-sized ``sorted_group_sum`` counts per window. The same plan at
    10^12 rows moves |distinct pairs| ≤ |users|·|hours| rows — the exact
    complement of the KMV/HLL sketch queries, which trade exactness for a
    constant-size shuffle."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import sorted_group_agg, sorted_group_sum

    ds = read_table(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        win = pc.cast(
            pc.floor_temporal(batch.column("ts"), unit="hour"), pa.timestamp("us")
        )
        t = pa.table({"window_start": win, "user_id": batch.column("user_id")})
        u = t.group_by(["window_start", "user_id"]).aggregate([])
        return u.append_column("n", pa.array(np.ones(u.num_rows, np.int64)))

    pair_ds = ds.map_batches(pairs, batch_format="pyarrow")
    distinct = sorted_group_agg(
        pair_ds, ["window_start", "user_id"], [("n", "min", "n")]
    )
    counts = sorted_group_sum(distinct, ["window_start"], ["n"])
    return counts.map_batches(
        lambda b: b.rename_columns(
            ["n_users" if c == "n" else c for c in b.column_names]
        ),
        batch_format="pyarrow",
    )


@query(
    "WITH w AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS words "
    "  FROM documents WHERE trim(text) <> ''), "
    "c AS (SELECT doc_id, words, "
    "  unnest(range(0, array_length(words), 40)) AS s FROM w), "
    "f AS (SELECT DISTINCT doc_id, "
    "  md5(array_to_string(words[s+1:s+50], ' ')) AS fp FROM c), "
    "e AS (SELECT DISTINCT x.doc_id AS a, y.doc_id AS b "
    "  FROM f x JOIN f y ON x.fp = y.fp AND x.doc_id < y.doc_id) "
    "SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges, "
    "CAST((SELECT count(*) FROM e e1 "
    "  JOIN e e2 ON e1.a = e2.a AND e1.b < e2.b "
    "  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b) AS BIGINT) AS n_triangles"
)
def q_docs_dup_triangles(sf_dir: str):
    """Triangle census of the shared-chunk duplicate graph — a graph-shaped
    corpus-quality signal (triangle-dense duplicate neighborhoods are
    template/boilerplate families rather than pairwise near-dups; the
    components query gives their extent, this gives their density).

    Exactly one wedge per triangle by construction: edges are stored a < b,
    the self-join on the shared MINIMUM vertex (e1 = (a,b), e2 = (a,c),
    b < c) generates each unordered neighbor pair of the smallest vertex
    once, and a second join against the edge set closes it — triangle
    {x<y<z} appears exactly once, as wedge (y,z) centered at x. Both joins
    are candidate-pair-scale: the corpus never enters a shuffle, matching
    the MR triangle-counting shape (Suri & Vassilvitskii's min-vertex
    partitioning)."""
    from vigil_ray.stages.blocks import safe_join
    from vigil_ray.stages.corpus import chunk_dup_pairs

    edges = chunk_dup_pairs(
        _docs(sf_dir, ["doc_id", "text"]), chunk_words=50, stride=40
    ).materialize()  # pair-scale (dedup output, not corpus-scale)
    n_edges = edges.count()

    e1 = edges.rename_columns({"b": "w1"})
    e2 = edges.rename_columns({"b": "w2"})
    wedges = safe_join(e1, e2, "inner", num_partitions=8, on=("a",)).filter(
        expr="w1 < w2"
    )
    closing = edges.rename_columns({"a": "w1", "b": "w2"})
    closed = safe_join(wedges, closing, "inner", num_partitions=8, on=("w1", "w2"))
    n_tri = closed.count()
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_triangles": pa.array([n_tri], pa.int64()),
        }
    )


@query(
    # by construction: the delta = exact copies (doc_id%7=3, same
    # text) + near copies (doc_id%5=0, one word appended); only the
    # near copies carry new content
    "WITH delta AS ("
    "  SELECT doc_id + 1000000 AS vid, text FROM documents WHERE doc_id % 7 = 3 "
    "  UNION ALL "
    "  SELECT doc_id + 2000000 AS vid, text || ' extra' FROM documents "
    "  WHERE doc_id % 5 = 0) "
    "SELECT d.vid FROM delta d WHERE NOT EXISTS "
    "(SELECT 1 FROM documents b WHERE b.text = d.text)",
    bench=True,
)
def q_docs_delta_ingest(sf_dir: str):
    """Incremental-ingest dedup — the daily-crawl shape: today's delta shard
    (the appended-copy rows of the variants corpus, vid ≥ EXACT_COPY_OFFSET)
    is deduplicated against the HISTORICAL corpus by content fingerprint and
    only genuinely-new vids survive. Ray shape: history enters the job as
    its md5 column only (pruned read — never the bodies), a Bloom bitmap of
    history fingerprints broadcasts once, bloom-miss delta rows stream
    through with no shuffle, and just the bloom-positive sliver pays the
    exact ``left_anti`` join (``corpus.bloom_anti_join``). At 100 TB of
    history the per-day cost is one fingerprint-column scan + a 128 KiB
    broadcast — the standard CDX-style recrawl dedup."""
    from vigil_ray.kernel.textstats import md5_hex
    from vigil_ray.sources.pages import EXACT_COPY_OFFSET
    from vigil_ray.stages.corpus import bloom_anti_join

    def fp_docs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"fp": pa.array([md5_hex(t) for t in batch.column("text").to_pylist()])}
        )

    history = _docs(sf_dir, ["text"]).map_batches(fp_docs, batch_format="pyarrow")

    def fp_delta(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vid": batch.column("vid"),
                "fp": pa.array(
                    [md5_hex(t) for t in batch.column("text").to_pylist()]
                ),
            }
        )

    delta = (
        _variants_ds(sf_dir)
        .filter(expr=f"vid >= {EXACT_COPY_OFFSET}")
        .map_batches(fp_delta, batch_format="pyarrow")
    )
    new_rows = bloom_anti_join(delta, history, key_col="fp", blocklist_col="fp")
    return new_rows.select_columns(["vid"])


@query(
    # the oracle RE-RUNS the normalization rules (not just the
    # arithmetic group structure) — regex semantics are pinned on
    # both sides (RE2 in DuckDB and pyarrow alike)
    "WITH ids AS (SELECT doc_id, "
    "  '/doc/' || lpad(CAST(doc_id AS VARCHAR), 9, '0') AS path FROM documents), "
    "urls(row_id, url) AS ("
    "  SELECT doc_id, 'https://example.test' || path FROM ids "
    "  UNION ALL "
    "  SELECT doc_id + 10000000, 'HTTP://WWW.Example.TEST' || path || "
    "    '/?utm_source=feed&utm_campaign=x' || CAST(doc_id AS VARCHAR) || '#frag' "
    "  FROM ids WHERE doc_id % 3 = 0 "
    "  UNION ALL "
    "  SELECT doc_id + 20000000, 'https://example.test' || path || '?page=2' "
    "  FROM ids WHERE doc_id % 4 = 1 "
    "  UNION ALL "
    "  SELECT doc_id + 30000000, 'http://example.test' || path || '/' "
    "  FROM ids WHERE doc_id % 5 = 2), "
    "n1 AS (SELECT row_id, regexp_replace(regexp_replace("
    "  regexp_replace(regexp_replace(url, '#.*$', ''), "
    "  '&utm_[^&]*', '', 'g'), '\\?utm_[^&]*&', '?'), "
    "  '\\?utm_[^&]*$', '') AS u FROM urls), "
    "n2 AS (SELECT row_id, 'https://' || "
    "  regexp_replace(lower(regexp_extract(u, '^(?i:https?)://([^/]*)', 1)), "
    "    '^www\\.', '') || "
    "  regexp_replace(regexp_replace(u, '^(?i:https?)://[^/]*', ''), '/$', '') "
    "  AS canonical_url FROM n1) "
    "SELECT canonical_url, CAST(min(row_id) AS BIGINT) AS keeper_row_id, "
    "CAST(count(*) AS BIGINT) AS n_variants FROM n2 GROUP BY canonical_url",
    bench=True,
)
def q_docs_url_dedup(sf_dir: str):
    """URL-canonicalization dedup over a synthetic crawl frontier (see
    :func:`vigil_ray.sources.pages.synthesize_url_variants` for the variant
    grammar): normalize every URL with vectorized RE2 kernels (strip
    fragment + every utm_* param, https scheme, lowercase host, drop
    www., strip trailing slash) and keep one row per canonical URL with the
    min row_id and the variant count — the CommonCrawl-style pre-fetch
    frontier dedup. Normalization is map-side; the only shuffle is the
    (canonical_url, id, 1) sort of :func:`corpus.sorted_group_agg`."""
    import ray.data as rd

    from vigil_ray.sources.pages import synthesize_url_variants
    from vigil_ray.stages.corpus import url_dedup

    table = synthesize_url_variants(sf_dir)
    ds = rd.from_arrow(table).repartition(max(1, table.num_rows // 512))
    return url_dedup(ds, url_col="url", id_col="row_id")


@query(
    # identical KMV estimate recomputed from scratch: same md5-based
    # hash into (0,1], same k smallest distinct values, same formula
    "WITH h AS ( "
    "  SELECT DISTINCT (CAST('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16) AS UBIGINT) + 1) "
    "         / 18446744073709551616.0 AS hv "
    "  FROM events), "
    "k AS (SELECT hv FROM h ORDER BY hv LIMIT 64), "
    "s AS (SELECT count(*) AS n, max(hv) AS hk FROM k) "
    "SELECT round(CASE WHEN n < 64 THEN CAST(n AS DOUBLE) "
    "       ELSE 63.0 / hk END, 6) AS n_distinct_est FROM s",
    bench=True,
)
def q_events_kmv_users(sf_dir: str):
    """KMV distinct-count sketch over event users (stages/sketches.py):
    mergeable k-minimum-values partials, estimate (k-1)/h_(k). The md5-based
    hash makes the SQL oracle recompute the IDENTICAL estimate — an
    exactly-checked approximate operator."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.sketches import kmv_distinct

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
    return kmv_distinct(ds, "user_id", k=64)


@query(
    "WITH ranked AS ( "
    "  SELECT lang, doc_id, row_number() OVER "
    "    (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn "
    "  FROM documents) "
    "SELECT lang, string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY rn) "
    "AS top_doc_ids FROM ranked WHERE rn <= 5 GROUP BY lang"
)
def q_lang_top_docs_concat(sf_dir: str):
    """Per-group ordered list aggregation (group-concat): the 5 longest docs
    per language as a comma-joined id string — ``corpus.sorted_group_topk``
    (the sort carries ≤5 rows per (block, lang)), then one more sorted-run
    map over the ≤5×langs survivors joins each language's ids in order, vs
    SQL ``string_agg`` over a ranked CTE."""
    from vigil_ray.stages.corpus import sorted_group_topk
    from vigil_ray.stages.runs import map_sorted_runs

    order = [("n_chars", "descending"), ("doc_id", "ascending")]
    top = sorted_group_topk(_docs(sf_dir, ["doc_id", "lang", "n_chars"]), ["lang"], order, 5)

    def join_ids(batch: pa.Table, starts) -> pa.Table:
        ids = [str(d) for d in batch.column("doc_id").to_pylist()]
        ends = list(starts[1:]) + [batch.num_rows]
        return pa.table(
            {
                "lang": batch.column("lang").take(pa.array(starts, pa.int64())),
                "top_doc_ids": pa.array(
                    [",".join(ids[a:b]) for a, b in zip(starts, ends)], pa.string()
                ),
            }
        )

    return map_sorted_runs(top, ["lang"], ["doc_id", "n_chars"], join_ids, order=order)


@query(
    "SELECT p.event_id, max(c.ts) AS click_ts "
    "FROM events p JOIN events c "
    "ON p.user_id = c.user_id AND c.ts <= p.ts AND c.event_type = 'click' "
    "WHERE p.event_type = 'purchase' GROUP BY p.event_id",
    bench=True,
)
def q_events_asof_join(sf_dir: str):
    """As-of join (SURVEY §2 custom-operator class): for each purchase, the
    most recent click by the same user at-or-before the purchase time.

    Ray shape: the as-of backward match IS gap-fill imputation — click
    timestamps fill forward over the (user, ts) sorted event stream
    (``corpus.grouped_fill_forward``), and each purchase row reads the last
    click at-or-before itself. A click ORDERS BEFORE a same-instant purchase
    (order key includes the purchase flag), so the SQL ``c.ts <= p.ts`` tie
    matches exactly. NO per-user collected state — the earlier collect-list
    form's bounded-history assumption is gone. Output: (event_id, click_ts)
    for purchases that have a preceding click."""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import grouped_fill_forward

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type", "ts"]
    )
    # only clicks and purchases participate — filter before the sort
    ds = ds.filter(expr="event_type == 'click' or event_type == 'purchase'")

    def prep(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        isp = pc.cast(
            pc.equal(batch.column("event_type"), "purchase"), pa.int64()
        )
        cts = pc.if_else(pc.equal(isp, 0), ts_us, pa.scalar(None, pa.int64()))
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "ts_us": ts_us,
                "isp": isp,
                "event_id": batch.column("event_id"),
                "cts": cts,
            }
        )

    filled = grouped_fill_forward(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        ["ts_us", "isp", "event_id"],
        "cts",
        out_col="click_us",
    )

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch.column("isp"), 1), pc.is_valid(batch.column("click_us"))
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "click_ts": pc.cast(t.column("click_us"), pa.timestamp("us")),
            }
        )

    return filled.map_batches(finish, batch_format="pyarrow")


@query(
    "SELECT lang, doc_id, n_chars FROM ( "
    "  SELECT lang, doc_id, n_chars, row_number() OVER "
    "    (PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rn "
    "  FROM documents) WHERE rn <= 3"
)
def q_top3_docs_per_lang(sf_dir: str):
    """Per-group top-k: 3 longest documents per language, ties broken by
    doc_id — ``corpus.sorted_group_topk``: each input block keeps its 3
    first rows per language before the sort, so the sort carries ≤3 rows
    per (block, lang) instead of the whole language partition (a language
    is billions of docs at web scale — a ``map_groups`` head would shuffle
    and single-task all of them)."""
    from vigil_ray.stages.corpus import sorted_group_topk

    top = sorted_group_topk(
        _docs(sf_dir, ["doc_id", "lang", "n_chars"]),
        ["lang"],
        [("n_chars", "descending"), ("doc_id", "ascending")],
        3,
    )
    return top.select_columns(["lang", "doc_id", "n_chars"])


@query(
    "WITH ranked AS (SELECT n_chars, row_number() OVER "
    "  (ORDER BY n_chars, doc_id) - 1 AS rk, count(*) OVER () AS n "
    "  FROM documents) "
    "SELECT CAST(q AS DOUBLE) AS q, n_chars "
    "FROM (VALUES (0.25), (0.5), (0.9)) AS qs(q) "
    "JOIN ranked ON ranked.rk = CAST(floor((ranked.n - 1) * qs.q) AS BIGINT)"
)
def q_doc_length_quantiles(sf_dir: str):
    """Exact order-statistic quantiles of document length (p25/p50/p90) via
    value-histogram selection: ONE ``groupby(n_chars).count()`` pass (partial
    pre-aggregation inside blocks, shuffle moves only (value, count) rows),
    then rank selection over the tiny histogram on the driver. Exact —
    rank-k order statistics of an integer column depend only on value counts
    — with no corpus sort and nothing corpus-sized ever materialized (the
    previous form ran a full distributed sort per quantile and streamed k+1
    rows to the driver)."""
    ds = _docs(sf_dir, ["n_chars"])
    hist = ds.groupby("n_chars").count().to_pandas()
    hist = hist.sort_values("n_chars").reset_index(drop=True)
    counts = hist["count()"].to_numpy()
    values = hist["n_chars"].to_numpy()
    cum = counts.cumsum()
    n = int(cum[-1])
    qs_out, vals = [], []
    for q in (0.25, 0.5, 0.9):
        k = int((n - 1) * q)
        idx = int((cum <= k).sum())  # first bucket whose cumulative count > k
        qs_out.append(q)
        vals.append(int(values[idx]))
    return pa.table(
        {
            "q": pa.array(qs_out, pa.float64()),
            "n_chars": pa.array(vals, pa.int64()),
        }
    )


@query("SELECT DISTINCT lang FROM documents")
def q_distinct_langs(sf_dir: str):
    """Set op: distinct values of one column (``Dataset.unique`` — shuffle)."""
    import ray.data as rd

    ds = _docs(sf_dir, ["lang"])
    langs = sorted(ds.unique("lang"))
    return pa.table({"lang": pa.array(langs, pa.string())})


@query(
    "SELECT count(*) AS n_names FROM "
    "(SELECT r_name AS name FROM region UNION ALL SELECT n_name FROM nation)"
)
def q_union_names(sf_dir: str):
    """Set op: union of two datasets (region ∪ nation name rows) → count."""
    from vigil_ray.sources.readers import read_table

    regions = read_table(f"{sf_dir}/region.parquet", columns=["r_name"]).map_batches(
        lambda b: pa.table({"name": b.column("r_name")}), batch_format="pyarrow"
    )
    nations = read_table(f"{sf_dir}/nation.parquet", columns=["n_name"]).map_batches(
        lambda b: pa.table({"name": b.column("n_name")}), batch_format="pyarrow"
    )
    unioned = regions.union(nations)
    return pa.table({"n_names": pa.array([unioned.count()], pa.int64())})


@query(
    f"WITH p AS (SELECT doc_id, lang, ({_PAGE_TEXT_EXPR}) AS t FROM documents) "
    "SELECT lang, count(*) AS n_docs, "
    "CAST(sum(array_length(regexp_split_to_array(trim(t), '\\s+'))) AS BIGINT) AS sum_n_words "
    "FROM p GROUP BY lang"
)
def q_pages_lang_stats(sf_dir: str):
    """Language-stratified stats via salted two-phase aggregation
    (skew-handling pattern; stages/stratified.py)."""
    from vigil_ray.kernel.textstats import count_ws_tokens
    from vigil_ray.stages.stratified import stratified_lang_stats

    def add_words(batch: pa.Table) -> pa.Table:
        n = [count_ws_tokens(t) for t in batch.column("text").to_pylist()]
        return batch.append_column("n_words", pa.array(n, pa.int64()))

    ds = _pages_ds(sf_dir).map_batches(add_words, batch_format="pyarrow")
    return stratified_lang_stats(ds)


@query(
    f"SELECT {_URL_EXPR} AS url, "
    "CAST(CASE WHEN doc_id % 20 = 19 THEN 3 ELSE 0 END AS BIGINT) AS n_tox, "
    "doc_id % 20 = 19 AS is_toxic, "
    f"CASE WHEN doc_id % 20 = 19 THEN "
    "trim(text || ' você é um [TOXIC] [TOXIC] e eu [TOXIC] isso.') "
    f"ELSE ({_PAGE_TEXT_EXPR}) END AS text_tox_scrubbed "
    "FROM documents",
    bench=True,
)
def q_pages_toxicity(sf_dir: str):
    """Toxicity score + scrub over the pages corpus (north_star: "PII/toxicity
    scrub"): the toxicity columns of the flagship's per-document map, run
    with its ``toxicity`` part alone, which masks the page ``text`` itself;
    ground truth is family arithmetic (family 19 injects exactly three toxic
    tokens, base docs' closed vocabulary contains none)."""
    from vigil_ray.stages.document import document_stage

    ds = document_stage(_pages_ds(sf_dir), PipelineConfig(), ("toxicity",))
    return ds.select_columns(["url", "n_tox", "is_toxic", "text_scrubbed"]).rename_columns(
        {"text_scrubbed": "text_tox_scrubbed"}
    )


@query(
    "SELECT c.c_custkey, count(o.o_orderkey) AS n_orders "
    "FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey "
    "GROUP BY c.c_custkey",
    bench=True,
)
def q_customer_order_counts(sf_dir: str):
    """LEFT OUTER join: orders-per-customer with zero-order customers kept
    (null → 0). Scale shape: pre-aggregate the fact table to (custkey,
    count) FIRST (map-side partial combine — the shuffle carries one row
    per customer, not one per order), then a key-key left hash join.

    Measured note (this host, sf0.1): the ``sorted_lookup_join`` form was
    tried and is SLOWER here (5.6-7.4 s vs 3.2-3.3 s engine-only, repeated
    A/B) — its two coalesce materialize passes dominate when both inputs
    are already tiny key-key tables and the hash join is a single exchange.
    The sort path wins only where the join machinery itself was the
    bottleneck (PMI / components / canonical — see stages/sortmerge.py).
    Third form (current): the count is a ``sorted_group_sum`` of ones (the
    sorted-adjacency groupby — no per-group aggregate machinery) and the
    aggregated side is customer-cardinality — a dimension table — so
    ``joins.broadcast_join`` publishes it once via ``ray.put`` and probes
    map-side, skipping the hash join's fixed shuffle-aggregator setup
    entirely; the size gate inside broadcast_join falls back to the hash
    join when the side outgrows driver memory. Measured A/B (sf0.1, warm):
    groupby-Count + broadcast 2.8-3.2 s vs this form 0.35-0.39 s."""
    import numpy as np
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table
    from vigil_ray.stages.corpus import sorted_group_sum
    from vigil_ray.stages.joins import broadcast_join

    cust = read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n_orders", pa.array(np.ones(batch.num_rows, np.int64))
        )

    ocounts = sorted_group_sum(
        orders.map_batches(ones, batch_format="pyarrow"),
        ["o_custkey"],
        ["n_orders"],
    )
    joined = broadcast_join(
        cust, ocounts, key="c_custkey", right_key="o_custkey", how="left_outer"
    )

    def fill(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(batch.column("n_orders"), pa.int64()), 0)
        return pa.table({"c_custkey": batch.column("c_custkey"), "n_orders": n})

    return joined.map_batches(fill, batch_format="pyarrow")


@query(
    "SELECT c_custkey FROM customer c WHERE NOT EXISTS "
    "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey "
    " AND o.o_orderpriority = '1-URGENT')"
)
def q_customers_no_urgent_orders(sf_dir: str):
    """Anti-join (customers with no 1-URGENT order) as pre-filter →
    pre-aggregate → left-outer join → null filter — the distributed NOT
    EXISTS pattern. (A plain customers-without-orders anti-join is empty in
    this generator's data; the priority predicate makes the result
    non-trivial at every sf.)"""
    import pyarrow.compute as pc

    from vigil_ray.sources.readers import read_table

    cust = read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )

    def urgent_only(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("o_orderpriority"), "1-URGENT")
        return batch.filter(mask).select(["o_custkey"])

    urgent = orders.map_batches(urgent_only, batch_format="pyarrow")
    import numpy as np

    from vigil_ray.stages.corpus import sorted_group_sum
    from vigil_ray.stages.joins import broadcast_join

    def ones(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "n", pa.array(np.ones(batch.num_rows, np.int64))
        )

    # sorted-adjacency count + size-gated broadcast join (see
    # q_customer_order_counts for the measured A/B); the gate falls back to
    # the hash exchange when the aggregated side outgrows driver memory
    ucounts = sorted_group_sum(
        urgent.map_batches(ones, batch_format="pyarrow"), ["o_custkey"], ["n"]
    )
    joined = broadcast_join(
        cust, ucounts, key="c_custkey", right_key="o_custkey", how="left_outer"
    )

    def only_missing(batch: pa.Table) -> pa.Table:
        mask = pc.is_null(batch.column("n"))
        return batch.filter(mask).select(["c_custkey"])

    return joined.map_batches(only_missing, batch_format="pyarrow")


@query(
    "SELECT event_type, count(*) AS n, "
    "round(avg(value), 6) AS mean_value, "
    "round(stddev_samp(value), 6) AS std_value "
    "FROM events GROUP BY event_type"
)
def q_events_value_stats(sf_dir: str):
    """Mean / sample-stddev aggregates per event type (Ray ``Mean``/``Std``
    partial merges vs SQL avg/stddev_samp; both sides rounded to 6)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Mean, Std

    from vigil_ray.sources.readers import read_table

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    agg = ds.groupby("event_type").aggregate(
        Count(alias_name="n"),
        Mean("value", alias_name="mean_value"),
        Std("value", alias_name="std_value"),
    )

    def rnd(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n": batch.column("n"),
                "mean_value": pc.round(batch.column("mean_value"), 6),
                "std_value": pc.round(batch.column("std_value"), 6),
            }
        )

    return agg.map_batches(rnd, batch_format="pyarrow")


@query(
    "SELECT doc_id, lang FROM documents WHERE doc_id % 10 = 3"
)
def q_docs_sample(sf_dir: str):
    """Deterministic 1-in-10 key-hash sample as a vectorized Arrow filter
    inside ``map_batches`` (Ray's ``filter(expr=...)`` grammar has no
    arithmetic; a per-row ``filter(fn)`` would be the Python-loop
    anti-pattern)."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["doc_id", "lang"])

    def sample(batch: pa.Table) -> pa.Table:
        # modulo via subtract(x, multiply(divide(x,10),10)) — pc has no mod
        x = batch.column("doc_id")
        mod = pc.subtract(x, pc.multiply(pc.divide(x, 10), 10))
        return batch.filter(pc.equal(mod, 3))

    return ds.map_batches(sample, batch_format="pyarrow")


@query(
    "WITH u AS ( "
    "  SELECT vec_id % 8 AS bucket, t.i AS dim, embedding[t.i] AS x "
    "  FROM embeddings, LATERAL unnest(range(1, len(embedding) + 1)) AS t(i)) "
    "SELECT bucket, dim, round(avg(x), 6) AS mean "
    "FROM u GROUP BY bucket, dim",
    bench=True,
)
def q_embedding_centroids(sf_dir: str):
    """Per-bucket centroid of the embedding column — vector aggregation via
    map-side partial sums: each batch emits (bucket, dim, partial_sum,
    partial_n) rows (np.add.at over the batch matrix), the shuffle carries
    buckets × dims rows only, and the final mean is computed after a Sum
    groupby. The flat (bucket, dim, mean) output avoids list-column hashing
    in the driver compare."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from vigil_ray.sources.readers import read_table

    n_buckets = 8
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        mat = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        dim = mat.shape[1]
        buckets = ids % n_buckets
        sums = np.zeros((n_buckets, dim), dtype=np.float64)
        np.add.at(sums, buckets, mat)
        counts = np.bincount(buckets, minlength=n_buckets)
        present = np.flatnonzero(counts)
        b_col, d_col, s_col, n_col = [], [], [], []
        for b in present:
            for d in range(dim):
                b_col.append(int(b))
                d_col.append(d + 1)  # 1-based, matches SQL subscripts
                s_col.append(sums[b, d])
                n_col.append(int(counts[b]))
        return pa.table(
            {
                "bucket": pa.array(b_col, pa.int64()),
                "dim": pa.array(d_col, pa.int64()),
                "psum": pa.array(s_col, pa.float64()),
                "pn": pa.array(n_col, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["bucket", "dim"])
        .aggregate(Sum("psum", alias_name="s"), Sum("pn", alias_name="n"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        mean = pc.round(
            pc.divide(batch.column("s"), pc.cast(batch.column("n"), pa.float64())), 6
        )
        return pa.table(
            {
                "bucket": batch.column("bucket"),
                "dim": batch.column("dim"),
                "mean": mean,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@query(
    "WITH bins(bin_low) AS (VALUES (0.0), (0.5), (0.6), (0.7), (0.8), (0.9)), "
    "c AS (SELECT CASE WHEN doc_id % 20 IN (3, 5) THEN 0.8 "
    "  WHEN doc_id % 20 IN (0, 1, 2, 7, 8, 13, 14, 17, 18) THEN 0.9 END AS bin_low, "
    "  count(*) AS n FROM documents "
    "  WHERE doc_id % 20 IN (0, 1, 2, 3, 5, 7, 8, 13, 14, 17, 18) GROUP BY 1) "
    "SELECT CAST(b.bin_low AS DOUBLE) AS bin_low, coalesce(c.n, 0) AS n "
    "FROM bins b LEFT JOIN c USING (bin_low)"
)
def q_confidence_histogram(sf_dir: str):
    """A4: fixed-bin confidence histogram over PII-positive pages."""
    from vigil_ray.stages.detect import detect_stage
    from vigil_ray.stages.stratified import confidence_histogram

    ds = detect_stage(_pages_ds(sf_dir), PipelineConfig(emit_details=False))
    return confidence_histogram(ds)


@query(
    "SELECT doc_id, "
    "CASE doc_id % 8 WHEN 0 THEN 'true' WHEN 1 THEN '1' WHEN 2 THEN 'sim' "
    "  WHEN 3 THEN 'yes' WHEN 4 THEN 'false' WHEN 5 THEN '0' "
    "  WHEN 6 THEN 'nao' WHEN 7 THEN 'verdadeiro' END AS label_raw, "
    "(doc_id % 8) IN (0, 1, 2, 3, 7) AS label_bool "
    "FROM documents"
)
def q_eval_boolean_labels(sf_dir: str):
    """Label-file boolean normalization (reference src/utils.py:13-29):
    mixed truthy/falsy encodings derived from doc_id, normalized with the
    vectorized kernel; the oracle derives the same booleans by construction."""
    from vigil_ray.functions.booleans import normalize_boolean_array

    encodings = ("true", "1", "sim", "yes", "false", "0", "nao", "verdadeiro")

    def build(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        raw = [encodings[i % 8] for i in ids]
        arr = pa.array(raw, pa.string())
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "label_raw": arr,
                "label_bool": normalize_boolean_array(arr),
            }
        )

    return _docs(sf_dir, ["doc_id"]).map_batches(build, batch_format="pyarrow")
