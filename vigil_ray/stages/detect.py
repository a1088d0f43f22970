"""PII detection + scrub: the ``detect`` part of the per-document map
(``stages.document``), the Ray shape of reference ``src/detector.py``'s
layered ``detect`` with its per-row error isolation. Appends
``contem_pii``, ``tipos_detectados``, ``detalhes`` and
``sinais_contextuais`` (when ``cfg.emit_details``), ``confianca`` and
``text_scrubbed``."""

from __future__ import annotations

from typing import Optional

from vigil_ray.config import PipelineConfig
from vigil_ray.stages.document import DocumentOp, document_stage


def _parts(apply_toxicity: bool):
    return ("detect", "toxicity") if apply_toxicity else ("detect",)


class PiiDetectScrub(DocumentOp):
    """The detect part as a ``map_batches`` callable. ``apply_toxicity=True``
    adds the toxicity part to the same pass: ``n_tox``, ``tox_ratio`` and
    ``is_toxic`` scored on the raw text, toxic tokens masked in
    ``text_scrubbed``, and an incoming ``keep``/``drop_reasons`` flipped for
    toxic documents."""

    def __init__(
        self, cfg: Optional[PipelineConfig] = None, apply_toxicity: bool = False
    ):
        super().__init__(cfg, parts=_parts(apply_toxicity))


def detect_stage(
    ds, cfg: Optional[PipelineConfig] = None, apply_toxicity: bool = False
):
    """Append detection + scrub columns to a Dataset with a ``text`` column."""
    return document_stage(ds, cfg, _parts(apply_toxicity))
