"""Error-analysis CLI — the reference ``scripts/analyze_errors.py`` report
re-expressed on Ray Data.

    python -m vigil_ray.analyze_errors --predictions OUT[.csv|.parquet|dir] \
        [--ground-truth truth.csv] [--sample sample.csv] \
        [--id-column url] [--text-column text_scrubbed] [--max-show 10]

Two modes, mirroring the reference exactly (scripts/analyze_errors.py:44-217):

- **without truth** — prediction stats: total/with-PII, per-type distribution
  with bar display (A2), two example rows per type, confidence histogram with
  the reference's fixed bins (A4; analyze_errors.py:98-116);
- **with truth** — confusion summary (J3; evaluate-join semantics), the full
  false-negative listing and the first ``--max-show`` false positives, each
  with its sample text attached via a small-side lookup join (J4), plus the
  reference's improvement-suggestion block (analyze_errors.py:204-217).

Ray shapes: every corpus-wide number is a distributed partial aggregate
(``stages.aggregates`` / ``stages.stratified``); only display-bound rows
(examples, FN/FP listings, capped by ``--max-show``) are ever collected to
the driver, and sample texts are fetched by filtering the sample dataset
against the tiny error-id set (broadcast lookup, never a corpus shuffle).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Dict, List, Optional

import pyarrow as pa

# reference bins (scripts/analyze_errors.py:109): [0,.5,.6,.7,.8,.9,1.0]
_BIN_EDGES = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def load_any(path: str):
    """Format-dispatching loader (reference analyze_errors.py:30-41): CSV
    (utf-8 → latin-1 fallback), XLSX, JSON, parquet file or directory."""
    from vigil_ray.sources.readers import read_table
    from vigil_ray.sources.textfiles import (
        read_csv_tolerant,
        read_json_records,
        read_xlsx,
    )

    if not os.path.exists(path):
        raise FileNotFoundError(f"file not found: {path}")
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return read_csv_tolerant(path)
    if ext == ".xlsx":
        return read_xlsx(path)
    if ext == ".json":
        return read_json_records(path)
    if os.path.isdir(path):
        import ray.data as rd

        return rd.read_parquet(path)
    return read_table(path)


def _as_type_list(value) -> List[str]:
    """tipos_detectados round-trips as a list (parquet) or a comma-joined
    string (CSV export, main.py:185 semantics) — accept both."""
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    s = str(value).strip()
    return [t.strip() for t in s.split(",") if t.strip()] if s else []


def normalize_predictions(ds, id_col: str, text_col: Optional[str]):
    """One normalization pass: boolean-coerced ``contem_pii``, list-typed
    ``tipos_detectados``, float ``confianca`` — tolerant of CSV round-trips
    (reference utils.normalize_boolean semantics via functions.booleans)."""
    from vigil_ray.functions.booleans import normalize_boolean

    def norm(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        names = batch.schema.names
        contem = (
            [normalize_boolean(v) for v in batch.column("contem_pii").to_pylist()]
            if "contem_pii" in names
            else [False] * n
        )
        tipos = (
            [_as_type_list(v) for v in batch.column("tipos_detectados").to_pylist()]
            if "tipos_detectados" in names
            else [[] for _ in range(n)]
        )
        conf = (
            [float(v) if v is not None else 0.0 for v in batch.column("confianca").to_pylist()]
            if "confianca" in names
            else [0.0] * n
        )
        cols = {
            id_col: batch.column(id_col),
            "contem_pii": pa.array(contem, pa.bool_()),
            "tipos_detectados": pa.array(tipos, pa.list_(pa.string())),
            "confianca": pa.array(conf, pa.float64()),
        }
        if text_col and text_col in names:
            cols["_text"] = batch.column(text_col).cast(pa.string())
        return pa.table(cols)

    return ds.map_batches(norm, batch_format="pyarrow")


def _type_examples(ds, id_col: str, per_type: int = 2) -> Dict[str, list]:
    """Two example (id, text-prefix) rows per detected type, the smallest
    (id, text) pairs: ``corpus.sorted_group_topk`` keyed by type, so the
    sort carries ≤per_type rows per (block, tipo), never the corpus."""
    from vigil_ray.stages.corpus import sorted_group_topk

    has_text = "_text" in ds.schema().names

    def explode(batch: pa.Table) -> pa.Table:
        out_t, out_id, out_tx = [], [], []
        texts = batch.column("_text").to_pylist() if has_text else [""] * batch.num_rows
        for rid, tipos, tx in zip(
            batch.column(id_col).to_pylist(),
            batch.column("tipos_detectados").to_pylist(),
            texts,
        ):
            for t in tipos or []:
                out_t.append(t)
                out_id.append(str(rid))
                out_tx.append((tx or "")[:100])
        return pa.table(
            {
                "tipo": pa.array(out_t, pa.string()),
                "rid": pa.array(out_id, pa.string()),
                "tx": pa.array(out_tx, pa.string()),
            }
        )

    top = sorted_group_topk(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["tipo"],
        [("rid", "ascending"), ("tx", "ascending")],
        per_type,
    )
    examples: Dict[str, list] = {}
    for r in top.take_all():  # each tipo's rows in order, whole in one block
        examples.setdefault(r["tipo"], []).append((r["rid"], r["tx"]))
    return examples


def _bar(pct: float) -> str:
    return "█" * int(pct / 2)


def report_predictions(ds, id_col: str, out=print) -> None:
    """No-truth mode (reference analyze_errors.py:44-116)."""
    from vigil_ray.stages.aggregates import pii_type_counts, summary_stats

    stats = summary_stats(ds)
    total, with_pii = stats["total"], stats["com_pii"]
    out("=" * 70)
    out("PREDICTION ANALYSIS (no ground truth)")
    out("=" * 70)
    out(f"Total records:    {total}")
    pct = 100.0 * with_pii / total if total else 0.0
    out(f"PII detected:     {with_pii} ({pct:.1f}%)")
    out(f"No PII detected:  {total - with_pii} ({100 - pct if total else 0.0:.1f}%)")

    type_rows = sorted(
        pii_type_counts(ds).take_all(), key=lambda r: (-r["n"], r["tipo"])
    )
    if type_rows:
        out("-" * 50)
        out("PII TYPE DISTRIBUTION:")
        out("-" * 50)
        for r in type_rows:
            p = 100.0 * r["n"] / total if total else 0.0
            out(f"  {r['tipo']:20s}: {r['n']:4d} ({p:5.1f}%) {_bar(p)}")

    examples = _type_examples(ds, id_col)
    if examples:
        out("-" * 50)
        out("DETECTION EXAMPLES:")
        out("-" * 50)
        for tipo in sorted(examples):
            out(f"  [{tipo.upper()}]")
            for rid, tx in examples[tipo]:
                out(f"    ID {rid}: {tx}...")

    _report_confidence(ds, out)


def _report_confidence(ds, out=print) -> None:
    from vigil_ray.stages.stratified import confidence_histogram

    rows = {r["bin_low"]: r["n"] for r in confidence_histogram(ds).take_all()}
    if not any(rows.values()):
        return
    out("-" * 50)
    out("CONFIDENCE DISTRIBUTION (PII-positive docs):")
    out("-" * 50)
    for lo, hi in zip(_BIN_EDGES[:-1], _BIN_EDGES[1:]):
        n = int(rows.get(lo, 0))
        out(f"    {lo:.1f}-{hi:.1f}: {n:4d} {'█' * (n // 2)}")


def _fetch_texts(sample_ds, id_col: str, text_col: str, ids: List[str]) -> Dict[str, str]:
    """J4 sample-text attach for a TINY error-id set: broadcast the id set
    into a filter over the sample dataset (map-side lookup join — the sample
    corpus streams, only matching rows come back)."""
    if not ids or sample_ds is None:
        return {}
    import ray

    ids_ref = ray.put(frozenset(ids))

    def pick(batch: pa.Table) -> pa.Table:
        want = ray.get(ids_ref)
        rids = [str(v) for v in batch.column(id_col).to_pylist()]
        texts = batch.column(text_col).to_pylist()
        keep_i, keep_t = [], []
        for r, t in zip(rids, texts):
            if r in want:
                keep_i.append(r)
                keep_t.append(str(t or ""))
        return pa.table(
            {
                "rid": pa.array(keep_i, pa.string()),
                "tx": pa.array(keep_t, pa.string()),
            }
        )

    rows = sample_ds.map_batches(pick, batch_format="pyarrow").take_all()
    return {r["rid"]: r["tx"] for r in rows}


def report_errors(
    pred_ds,
    truth_ds,
    id_col: str,
    sample_ds=None,
    sample_text_col: str = "text",
    max_show: int = 10,
    out=print,
) -> Dict[str, int]:
    """Truth mode (reference analyze_errors.py:119-217): join predictions to
    truth on id, confusion summary, FN listing (critical — all shown up to
    ``max_show``), FP listing, suggestions."""
    from vigil_ray.functions.booleans import normalize_boolean

    truth_col = "contem_pii" if "contem_pii" in truth_ds.schema().names else "tem_pii"

    def norm_truth(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "truth": pa.array(
                    [normalize_boolean(v) for v in batch.column(truth_col).to_pylist()],
                    pa.bool_(),
                ),
            }
        )

    truth_n = truth_ds.map_batches(norm_truth, batch_format="pyarrow")

    # Arrow hash joins reject list-typed non-key fields: carry tipos as a
    # comma-joined string (which is all the FP display needs anyway)
    def flatten_tipos(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = batch.schema.get_field_index("tipos_detectados")
        return batch.set_column(
            idx,
            "tipos_detectados",
            pc.binary_join(batch.column("tipos_detectados"), ", "),
        )

    # materialized ONCE: the confusion metrics and the two error listings all
    # consume the join — unpinned, the reads + join would execute three times
    from vigil_ray.stages.blocks import compact_blocks

    joined = (
        pred_ds.map_batches(flatten_tipos, batch_format="pyarrow")
        # truth side compacted: 0-row blocks break the join's schema
        # broadcast (blocks.py); the truth table is eval-set-sized anyway
        .join(compact_blocks(truth_n), join_type="inner", num_partitions=8, on=(id_col,))
        .materialize()
    )

    from vigil_ray.stages.aggregates import classification_metrics

    m = classification_metrics(joined, "truth", "contem_pii")
    out("=" * 70)
    out("ERROR ANALYSIS (with ground truth)")
    out("=" * 70)
    out("Summary:")
    out(f"  True Positives  (TP): {m['tp']}")
    out(f"  True Negatives  (TN): {m['tn']}")
    out(f"  False Positives (FP): {m['fp']}")
    flag = "!! CRITICAL" if m["fn"] else "ok"
    out(f"  False Negatives (FN): {m['fn']} [{flag}]")
    out(
        f"  precision={m['precision']:.3f} recall={m['recall']:.3f} "
        f"f1={m['f1']:.3f} accuracy={m['accuracy']:.3f}"
    )

    def _error_rows(want_truth: bool, want_pred: bool, cap: int):
        filtered = joined.filter(
            lambda r: bool(r["truth"]) == want_truth
            and bool(r["contem_pii"]) == want_pred
        )
        return filtered.limit(cap).take_all()

    fn_rows = _error_rows(True, False, max_show)
    fp_rows = _error_rows(False, True, max_show)
    texts = _fetch_texts(
        sample_ds,
        id_col,
        sample_text_col,
        [str(r[id_col]) for r in fn_rows + fp_rows],
    )

    if m["fn"]:
        out("-" * 50)
        out(f"FALSE NEGATIVES ({m['fn']} records) — PII exists but was NOT detected")
        out("-" * 50)
        for r in fn_rows:
            out(f"  ID: {r[id_col]}")
            tx = texts.get(str(r[id_col]))
            if tx:
                out(f"  Text: {tx[:200]}...")
            out("  -> Action: inspect why PII was not detected")
        if m["fn"] > len(fn_rows):
            out(f"  ... and {m['fn'] - len(fn_rows)} more")

    if m["fp"]:
        out("-" * 50)
        out(f"FALSE POSITIVES ({m['fp']} records) — PII detected but does not exist")
        out("-" * 50)
        for r in fp_rows:
            out(f"  ID: {r[id_col]}")
            out(f"  Detected types: {r['tipos_detectados'] or ''}")
            tx = texts.get(str(r[id_col]))
            if tx:
                out(f"  Text: {tx[:150]}...")
        if m["fp"] > len(fp_rows):
            out(f"  ... and {m['fp'] - len(fp_rows)} more")

    out("-" * 50)
    out("IMPROVEMENT SUGGESTIONS:")
    out("-" * 50)
    if m["fn"]:
        out("  To reduce FN:")
        out("    - check for uncovered regex patterns")
        out("    - add more contextual signals")
        out("    - lower the confidence threshold")
    if m["fp"]:
        out("  To reduce FP:")
        out("    - expand the institutional-name exclusion list")
        out("    - add more anti-FP guards")
        out("    - check whether the NER model is available")
    if not m["fn"] and not m["fp"]:
        out("  No errors — nothing to suggest.")
    return m


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="vigil-ray PII error analysis")
    p.add_argument("--predictions", "-p", required=True, help="predictions file/dir")
    p.add_argument("--ground-truth", "-g", default=None, help="truth file (optional)")
    p.add_argument("--sample", "-s", default=None, help="original texts for display")
    p.add_argument("--id-column", default="url")
    p.add_argument("--text-column", default="text_scrubbed")
    p.add_argument("--sample-text-column", default="text")
    p.add_argument("--max-show", type=int, default=10)
    p.add_argument("--num-cpus", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    try:
        pred = load_any(args.predictions)
        if args.id_column not in pred.schema().names:
            raise SystemExit(
                f"error: id column '{args.id_column}' not found; "
                f"available: {pred.schema().names}"
            )
        pred = normalize_predictions(pred, args.id_column, args.text_column)

        if args.ground_truth:
            truth = load_any(args.ground_truth)
            sample = load_any(args.sample) if args.sample else None
            report_errors(
                pred,
                truth,
                args.id_column,
                sample_ds=sample,
                sample_text_col=args.sample_text_column,
                max_show=args.max_show,
            )
        else:
            report_predictions(pred, args.id_column)
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
