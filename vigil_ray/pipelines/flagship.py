"""The flagship quality-filter pipeline (north_rule).

``read pages → extract html → quality score → PII detect+scrub+toxicity →
keep/drop``, all streaming, as ONE task-mode ``map_batches`` over the
hand-fused per-document code (``stages.document``). Ray fuses it with
the write into one operator, and no stage holds a CPU between batches or
after the run:

- the ``html`` payload is read once per batch and never emitted, so the big
  binary column never flows past extraction — at 100 TB the payload is the
  dominant byte volume;
- each input column is read with one ``to_pylist`` and the output is one
  table build per batch;
- no stage materializes the dataset, and building the plan executes
  nothing (a batch without ``html`` skips extraction, so the input's schema
  is never asked for); consumption is ``write_parquet`` or an aggregate.

Reference lifecycle being re-expressed: main.py:147-193 (load → sequential
detect loop → annotate → save), as a lazy block-streamed Dataset pipeline.
"""

from __future__ import annotations

from typing import Optional

import ray.data as rd

from vigil_ray.config import PipelineConfig
from vigil_ray.stages.document import document_stage


def quality_filter(
    ds: "rd.Dataset", cfg: Optional[PipelineConfig] = None
) -> "rd.Dataset":
    """Full per-document pipeline over a pages-shaped Dataset.

    Output columns: url, warc_ts, lang, text, extract_ok, lang_pred,
    lang_score, ppl, quality features, keep, drop_reasons, contem_pii,
    tipos_detectados, detalhes, sinais_contextuais, confianca, text_scrubbed,
    n_tox, tox_ratio, is_toxic.
    """
    ds = document_stage(ds, cfg)
    # Ray Data's per-operator reservation (ReservationOpResourceAllocator)
    # splits half the session's CPUs evenly over the eligible operators and
    # shares the rest, so the read and the fused per-document operator each
    # get a budget of about one task on a small session, and the costly
    # operator's tasks run one after the other while the cheap read idles its
    # share. Off, the per-document operator may use every CPU the session
    # has. The flag is set on this Dataset's own context, never on
    # DataContext.get_current(); that context object is shared with the
    # input Dataset's lineage (map_batches copies the plan, not its
    # context), so the input Dataset executes without the reservation too.
    ds.context.op_resource_reservation_enabled = False
    return ds
