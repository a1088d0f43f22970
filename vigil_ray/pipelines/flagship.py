"""The flagship quality-filter pipeline (north_rule).

``read pages → extract html → quality score → PII detect+scrub+toxicity →
keep/drop``, all streaming. Every stage is a task-mode ``map_batches``, so
Ray fuses the whole per-document path into one operator and no stage holds a
CPU between batches or after the run:

- the ``html`` payload is dropped immediately after extraction so the big
  binary column never flows through the scoring stages or the shuffle-free
  tail — at 100 TB the payload is the dominant byte volume;
- no stage materializes the dataset; consumption is ``write_parquet`` or an
  aggregate.

Reference lifecycle being re-expressed: main.py:147-193 (load → sequential
detect loop → annotate → save), as a lazy block-streamed Dataset pipeline.
"""

from __future__ import annotations

from typing import Optional

import ray.data as rd

from vigil_ray.config import PipelineConfig
from vigil_ray.stages.detect import detect_stage
from vigil_ray.stages.extract import extract_stage
from vigil_ray.stages.quality import quality_stage


def quality_filter(
    ds: "rd.Dataset", cfg: Optional[PipelineConfig] = None
) -> "rd.Dataset":
    """Full per-document pipeline over a pages-shaped Dataset.

    Output columns: url, warc_ts, lang, text, extract_ok, lang_pred,
    lang_score, ppl, quality features, keep, drop_reasons, contem_pii,
    tipos_detectados, detalhes, sinais_contextuais, confianca, text_scrubbed,
    n_tox, tox_ratio, is_toxic.
    """
    cfg = cfg or PipelineConfig()
    names = ds.schema().names
    if "html" in names:
        ds = extract_stage(ds, cfg)
        ds = ds.drop_columns(["html"])
    ds = quality_stage(ds, cfg)
    # detect + toxicity run as ONE pass (apply_toxicity=True): PII
    # placeholders first, toxicity mask over the result, keep/drop_reasons
    # flipped for toxic docs — no second string-column round-trip.
    ds = detect_stage(ds, cfg, apply_toxicity=True)
    return ds


def read_pages(path: str, columns=None) -> "rd.Dataset":
    """Parquet reader for the pages table; pass ``columns`` to prune payload
    columns at the read when html is not needed."""
    return rd.read_parquet(path, columns=columns)
