"""Human-review branch: per-document flat-map to review rows + priority sort.

Ray shape of reference ``main.py:282-320`` + ``src/human_review.py``: the
review analyzer is a per-document pure function (consolidation groups never
span documents, SURVEY.md §2.6 A5), so the whole branch is one ``map_batches``
that explodes 0..n review rows per document — no shuffle. The export ordering
(alta < media < baixa; reference src/human_review.py:498-500) is a global
``sort`` on the small review dataset.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from vigil_ray.config import PipelineConfig
from vigil_ray.kernel.review import PRIORITY_RANK, review_document

REVIEW_SCHEMA = pa.schema(
    [
        ("id", pa.string()),
        ("prioridade", pa.string()),
        ("prioridade_rank", pa.int32()),
        ("tipo_pii", pa.string()),
        ("valor_detectado", pa.string()),
        ("score", pa.float64()),
        ("motivo", pa.string()),
        ("texto_trecho", pa.string()),
        ("explicacao", pa.string()),
    ]
)


class ReviewExplode:
    def __init__(self, cfg: Optional[PipelineConfig] = None):
        self.cfg = cfg or PipelineConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.cfg.key_column).to_pylist()
        texts = batch.column(self.cfg.text_column).to_pylist()
        detalhes = batch.column("detalhes").to_pylist()
        contem = batch.column("contem_pii").to_pylist()
        rows = {name: [] for name in REVIEW_SCHEMA.names}
        for key, text, dets, has in zip(keys, texts, detalhes, contem):
            if not has or not dets:
                continue
            triples = [(d["tipo"], d["valor"], d["score"]) for d in dets]
            for item in review_document(
                str(key), text or "", triples, True, self.cfg.review
            ):
                rows["id"].append(item["id"])
                rows["prioridade"].append(item["prioridade"])
                rows["prioridade_rank"].append(PRIORITY_RANK[item["prioridade"]])
                rows["tipo_pii"].append(item["tipo_pii"])
                rows["valor_detectado"].append(item["valor_detectado"])
                rows["score"].append(item["score"])
                rows["motivo"].append(item["motivo"])
                rows["texto_trecho"].append(item["texto_trecho"].replace("\n", " "))
                rows["explicacao"].append(item["explicacao"])
        return pa.table(rows, schema=REVIEW_SCHEMA)


def review_stage(ds, cfg: Optional[PipelineConfig] = None, sort: bool = True):
    """Detection output → review rows, optionally export-sorted by priority."""
    cfg = cfg or PipelineConfig()
    out = ds.map_batches(
        ReviewExplode(cfg),
        batch_format="pyarrow",
        batch_size=cfg.quality_batch_size,
    )
    if sort:
        out = out.sort("prioridade_rank")
    return out
