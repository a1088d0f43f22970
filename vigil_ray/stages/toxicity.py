"""Standalone toxicity scoring + scrub as a task-mode Ray Data stage.

Scores the ``text`` column and appends::

    text_tox_scrubbed  string  the scored text with toxic tokens masked
    n_tox              int64   toxic-token occurrences in the scored text
    tox_ratio          float64 toxic tokens / whitespace words
    is_toxic           bool    min-hits OR min-ratio gate (kernel.toxicity)

The flagship does not use this stage: it scores toxicity inside the PII pass
(``stages.detect.PiiDetectScrub(apply_toxicity=True)``), which also masks the
PII-scrubbed text and flips ``keep``/``drop_reasons`` for toxic documents.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from vigil_ray.config import PipelineConfig
from vigil_ray.kernel.toxicity import score_toxicity, scrub_toxic


def _toxicity_batch(batch: pa.Table, cfg: PipelineConfig) -> pa.Table:
    tcfg = cfg.toxicity
    texts = [t or "" for t in batch.column(cfg.text_column).to_pylist()]
    scores = [score_toxicity(t, tcfg.min_hits, tcfg.min_ratio) for t in texts]
    masked = [
        scrub_toxic(t, tcfg.scrub_token) if toxic else t
        for t, (_, _, toxic) in zip(texts, scores)
    ]
    n_tox, ratio, toxic = zip(*scores) if scores else ((), (), ())
    return (
        batch.append_column("text_tox_scrubbed", pa.array(masked, pa.string()))
        .append_column("n_tox", pa.array(n_tox, pa.int64()))
        .append_column("tox_ratio", pa.array(ratio, pa.float64()))
        .append_column("is_toxic", pa.array(toxic, pa.bool_()))
    )


def toxicity_stage(ds, cfg: Optional[PipelineConfig] = None):
    """Append toxicity scores and the toxic-masked text to a Dataset with a
    ``text`` column."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        _toxicity_batch,
        fn_kwargs={"cfg": cfg},
        batch_format="pyarrow",
        batch_size=cfg.quality_batch_size,
    )
