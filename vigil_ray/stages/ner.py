"""Model-backed name detection: the NER actor-pool stage (reference T1/T2).

Reference semantics (src/detector.py:69-106,181-221):

- model must be on the whitelist (``ALLOWED_NER_MODELS``) or the stage
  degrades to the heuristic fallback;
- loading errors / missing transformers degrade gracefully — never fail;
- long texts are chunked first-1500 + last-1500 chars (middle dropped,
  signatures live at the ends — reference src/detector.py:164-179);
- entities with group in ``NER_PERSON_LABELS`` become name detections, score
  defaulting to 0.8, filtered by validity (2..6 words, not institutional)
  and deduplicated case-insensitively per document;
- a runtime inference error falls back to the heuristic for that text.

transformers is not installed in this container, so the real load path
degrades exactly as the reference does on a transformers-less machine; tests
exercise the full model path through ``model_factory`` with a deterministic
fake pipeline (the Ray-side hosting — actor pool, batching, chunking,
filtering — is identical either way).
"""

from __future__ import annotations

import logging
from typing import Callable, List, Optional

import pyarrow as pa

from vigil_ray.config import (
    ALLOWED_NER_MODELS,
    DEFAULT_NER_MODEL,
    NER_MAX_CHARS,
    NER_PERSON_LABELS,
    PipelineConfig,
)
from vigil_ray.kernel.detector import build_result
from vigil_ray.kernel import patterns
from vigil_ray.kernel.names import (
    find_names_heuristic,
    is_valid_person_name,
    split_ner_chunks,
)
from vigil_ray.kernel.patterns import Detection
from vigil_ray.kernel.preprocess import fold_for_keywords, keyword_index, normalize_text

logger = logging.getLogger(__name__)


def load_ner_pipeline(model_name: str):
    """Real loader: transformers NER pipeline. Raises on any failure — the
    caller decides to degrade (reference policy)."""
    from transformers import pipeline  # noqa: PLC0415 — optional dependency

    return pipeline("ner", model=model_name, aggregation_strategy="simple")


class NerNameDetector:
    """Actor-pool kernel: model loaded once per actor in ``__init__``.

    ``model_factory`` injects the pipeline constructor (tests pass a
    deterministic fake); default is the transformers loader. Appends the same
    detection columns as the heuristic detect stage, with ``metodo='ner'``
    for names when the model actually ran.
    """

    def __init__(
        self,
        cfg: Optional[PipelineConfig] = None,
        model_factory: Optional[Callable[[str], object]] = None,
    ):
        self.cfg = cfg or PipelineConfig(use_ner=True)
        self.model = None
        self.model_ran = False
        model_name = self.cfg.ner_model or DEFAULT_NER_MODEL
        if model_name not in ALLOWED_NER_MODELS and model_factory is None:
            logger.warning("model '%s' not whitelisted; using fallback", model_name)
            return
        factory = model_factory or load_ner_pipeline
        try:
            self.model = factory(model_name)
            self.model_ran = True
        except Exception as exc:  # noqa: BLE001 — degrade, never fail
            logger.warning("NER model unavailable (%s); using fallback", exc)
            self.model = None

    def _names_for(self, clean: str, low: str, index) -> List[Detection]:
        if self.model is None:
            return find_names_heuristic(clean, low, index)
        out: List[Detection] = []
        seen: set = set()
        try:
            for chunk in split_ner_chunks(clean, NER_MAX_CHARS):
                for ent in self.model(chunk):
                    group = ent.get("entity_group", ent.get("entity", ""))
                    if group not in NER_PERSON_LABELS:
                        continue
                    name = (ent.get("word") or "").strip()
                    score = float(ent.get("score", 0.8))
                    if is_valid_person_name(name):
                        key = name.lower()
                        if key not in seen:
                            out.append(Detection("nome", name, score, -1, -1))
                            seen.add(key)
        except Exception as exc:  # noqa: BLE001 — per-text fallback
            logger.warning("NER inference error (%s); falling back", exc)
            return find_names_heuristic(clean, low, index)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.cfg.text_column).to_pylist()
        n = len(texts)
        contem = [False] * n
        tipos: List[List[str]] = [[] for _ in range(n)]
        conf = [0.0] * n
        nomes: List[List[str]] = [[] for _ in range(n)]
        for i, raw in enumerate(texts):
            try:
                clean = normalize_text(raw)
                if not clean:
                    continue
                low = fold_for_keywords(clean)
                index = keyword_index(low)
                found = patterns.scan_document(clean, index)[0]
                names = self._names_for(clean, low, index)
                found.extend(names)
                if not found:
                    continue
                found.extend(patterns.find_contextual(clean, index))
                res = build_result(found)
                contem[i] = res["contem_pii"]
                tipos[i] = res["tipos_detectados"]
                conf[i] = res["confianca"]
                nomes[i] = [d.valor for d in names]
            except Exception:  # noqa: BLE001
                pass
        return (
            batch.append_column("contem_pii", pa.array(contem, pa.bool_()))
            .append_column("tipos_detectados", pa.array(tipos, pa.list_(pa.string())))
            .append_column("confianca", pa.array(conf, pa.float64()))
            .append_column("nomes_detectados", pa.array(nomes, pa.list_(pa.string())))
        )


def ner_detect_stage(
    ds,
    cfg: Optional[PipelineConfig] = None,
    model_factory=None,
    concurrency=None,
):
    """Actor-pool NER detection stage (small batches: model inference).

    Size ``concurrency`` strictly below the session's CPU count — a pool
    that reserves every CPU starves the upstream read tasks and the pipeline
    deadlocks (observed on a 4-cpu session with 4 actors).
    """
    cfg = cfg or PipelineConfig(use_ner=True)
    resources = {"num_cpus": cfg.ner_num_cpus}
    if cfg.ner_num_gpus:
        # fractional GPUs co-host several actors per device; Ray schedules
        # the pool onto GPU nodes and sets CUDA_VISIBLE_DEVICES per actor
        resources["num_gpus"] = cfg.ner_num_gpus
    return ds.map_batches(
        NerNameDetector,
        fn_constructor_kwargs={"cfg": cfg, "model_factory": model_factory},
        batch_format="pyarrow",
        batch_size=cfg.ner_batch_size,
        concurrency=concurrency if concurrency is not None else cfg.ner_concurrency,
        **resources,
    )
