"""Language-ID + perplexity + Gopher/C4 rule scoring: the ``quality`` part
of the per-document map (``stages.document``). Appends ``lang_pred``,
``lang_score``, ``ppl``, the ``kernel.quality`` features, and the rule
gate's ``keep``/``drop_reasons``."""

from __future__ import annotations

from typing import Optional

from vigil_ray.config import PipelineConfig
from vigil_ray.stages.document import DocumentOp


class QualityScorer(DocumentOp):
    """The quality part alone, as a ``map_batches`` callable."""

    def __init__(self, cfg: Optional[PipelineConfig] = None):
        super().__init__(cfg, parts=("quality",))
