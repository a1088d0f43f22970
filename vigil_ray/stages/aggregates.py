"""Wide/aggregate operators: per-type counts, summary stats, eval metrics.

Every aggregation pre-combines inside ``map_batches`` (one partial row per key
per batch) before the ``groupby`` — the shuffle moves partials, not rows
(SURVEY.md §7.2 step 7). The classification-metrics aggregate reproduces
reference ``scripts/evaluate.py:69-103`` as a partial+final sum of the
confusion counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import pyarrow as pa

from ray.data.aggregate import Sum


def pii_type_counts(ds):
    """Exploded ``tipos_detectados`` → count per tipo (reference
    main.py:219-222's Counter, as partial-then-global aggregation)."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: Counter = Counter()
        for tipos in batch.column("tipos_detectados").to_pylist():
            counts.update(tipos or [])
        return pa.table(
            {
                "tipo": pa.array(list(counts.keys()), pa.string()),
                "n_partial": pa.array(list(counts.values()), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("tipo").aggregate(Sum("n_partial", alias_name="n"))


def lang_counts(ds, column: str = "lang_pred"):
    """Per-language document counts — pre-aggregated the same way."""

    def partial(batch: pa.Table) -> pa.Table:
        counts = Counter(batch.column(column).to_pylist())
        return pa.table(
            {
                column: pa.array(list(counts.keys()), pa.string()),
                "n_partial": pa.array(list(counts.values()), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(column).aggregate(Sum("n_partial", alias_name="n"))


def summary_stats(ds) -> Dict[str, float]:
    """Driver-side scalar summary (reference main.py:189-191,453-469):
    total docs, docs with PII, kept docs — one pass of partial sums."""

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        with_pii = sum(1 for v in batch.column("contem_pii").to_pylist() if v)
        kept = (
            sum(1 for v in batch.column("keep").to_pylist() if v)
            if "keep" in batch.schema.names
            else 0
        )
        return pa.table(
            {
                "total": pa.array([n], pa.int64()),
                "com_pii": pa.array([with_pii], pa.int64()),
                "kept": pa.array([kept], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .aggregate(
            Sum("total", alias_name="total"),
            Sum("com_pii", alias_name="com_pii"),
            Sum("kept", alias_name="kept"),
        )
    )
    total = agg["total"] or 0
    return {
        "total": total,
        "com_pii": agg["com_pii"] or 0,
        "kept": agg["kept"] or 0,
        "pct_com_pii": round(100.0 * (agg["com_pii"] or 0) / total, 2) if total else 0.0,
    }


def classification_metrics(
    ds,
    truth_col: str,
    pred_col: str,
) -> Dict[str, float]:
    """Confusion matrix + accuracy/precision/recall/F1 over a joined dataset
    (reference scripts/evaluate.py:69-103), computed as distributed partial
    (tp, tn, fp, fn) sums — no driver-side row loop."""

    def partial(batch: pa.Table) -> pa.Table:
        truth = batch.column(truth_col).to_pylist()
        pred = batch.column(pred_col).to_pylist()
        tp = sum(1 for t, p in zip(truth, pred) if t and p)
        tn = sum(1 for t, p in zip(truth, pred) if not t and not p)
        fp = sum(1 for t, p in zip(truth, pred) if not t and p)
        fn = sum(1 for t, p in zip(truth, pred) if t and not p)
        return pa.table(
            {
                "tp": pa.array([tp], pa.int64()),
                "tn": pa.array([tn], pa.int64()),
                "fp": pa.array([fp], pa.int64()),
                "fn": pa.array([fn], pa.int64()),
            }
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("tp", alias_name="tp"),
        Sum("tn", alias_name="tn"),
        Sum("fp", alias_name="fp"),
        Sum("fn", alias_name="fn"),
    )
    tp, tn, fp, fn = (agg[k] or 0 for k in ("tp", "tn", "fp", "fn"))
    total = tp + tn + fp + fn
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall)
        else 0.0
    )
    return {
        "total": total,
        "tp": tp,
        "tn": tn,
        "fp": fp,
        "fn": fn,
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }
