"""The flagship's hand-fused per-document code as one task-mode Ray Data map.

:class:`DocumentOp` runs these parts, in this order, each a per-document
kernel mapped over every page of the batch:

- ``extract``: ``kernel.html.extract_text`` replaces ``text`` with the body
  of ``html`` and appends ``extract_ok``, whether it reproduced the shipped
  ``text`` byte for byte (the BASELINE per-url invariant); ``html`` is not
  carried past this point, so the big payload column never reaches the
  output;
- ``quality``: language ID, char-LM perplexity (the per-worker
  ``kernel.perplexity.default_model()``, whose capped memos stay warm across
  tasks), the Gopher/C4 features and their rule gate, ``keep`` and
  ``drop_reasons``;
- ``detect``: PII detection and scrub in one ``analyze_document`` call, with
  the reference's per-row error isolation (a poison row degrades to the empty
  result and an empty scrub; reference src/detector.py:378-395);
- ``toxicity``: the score on the page text, outside the ``detect`` isolation,
  the mask over the scrub (over the page text when ``detect`` is off), and
  ``toxicity`` appended to the drop reasons of toxic pages.

Each input column is read with one ``to_pylist`` and the output is one table
build: the input columns, each produced column replacing the input column of
its name in place, then the other produced columns in part order. A part
runs over the whole batch before the next one starts: calling every kernel
on one page before moving to the next was measured 15% slower on short pages
(1.49 → 1.73 s per 4096 pages, in process), because each kernel's memos and
compiled patterns fall out of the CPU caches between its calls.

The flagship runs every part (``pipelines.flagship.quality_filter``); the
stage entry points (``stages.extract``, ``stages.quality``,
``stages.detect``) and the ``pages_toxicity`` query run a subset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pyarrow as pa

from vigil_ray.config import PipelineConfig
from vigil_ray.kernel.detector import analyze_document
from vigil_ray.kernel.html import extract_text
from vigil_ray.kernel.langid import classify
from vigil_ray.kernel.perplexity import default_model
from vigil_ray.kernel.quality import quality_features, quality_rules
from vigil_ray.kernel.toxicity import score_toxicity, scrub_toxic

PARTS = ("extract", "quality", "detect", "toxicity")

DETAIL_TYPE = pa.list_(
    pa.struct([("tipo", pa.string()), ("valor", pa.string()), ("score", pa.float64()), ("metodo", pa.string())])
)
_FEATURE_COLS = (
    ("n_words", pa.int64()),
    ("mean_word_len", pa.float64()),
    ("symbol_to_word_ratio", pa.float64()),
    ("alpha_word_frac", pa.float64()),
    ("dup_line_frac", pa.float64()),
    ("top2gram_frac", pa.float64()),
    ("top3gram_frac", pa.float64()),
    ("dup5gram_frac", pa.float64()),
    ("has_stopword", pa.bool_()),
)
_FEATURES = tuple(name for name, _ in _FEATURE_COLS)
# the type of every column a part produces, except the text column extract
# replaces (its name is cfg.text_column)
_TYPES = {
    "extract_ok": pa.bool_(),
    "lang_pred": pa.string(),
    "lang_score": pa.float64(),
    "ppl": pa.float64(),
    **dict(_FEATURE_COLS),
    "keep": pa.bool_(),
    "drop_reasons": pa.list_(pa.string()),
    "contem_pii": pa.bool_(),
    "tipos_detectados": pa.list_(pa.string()),
    "detalhes": DETAIL_TYPE,
    "sinais_contextuais": DETAIL_TYPE,
    "confianca": pa.float64(),
    "text_scrubbed": pa.string(),
    "n_tox": pa.int64(),
    "tox_ratio": pa.float64(),
    "is_toxic": pa.bool_(),
}


def _drain(values: list):
    """Yield ``values`` in order, dropping each from the list once taken, so
    a page's input objects are freed as soon as it is done with them."""
    for i, v in enumerate(values):
        values[i] = None
        yield v


def _detail_rows(triples, use_ner: bool) -> List[Tuple]:
    # 'metodo' mirrors reference main.py:246: 'ner' for names (when a model
    # ran), 'regex' otherwise.
    return [
        (t, v, float(s), "ner" if (t == "nome" and use_ner) else "regex")
        for (t, v, s) in triples
    ]


class DocumentOp:
    """``map_batches`` callable running the ``parts`` it was built with (a
    subset of :data:`PARTS`), in :data:`PARTS` order. Holds only the config,
    so the pickled instance is small and Ray fuses it into its neighbours as
    a task.

    With ``toxicity`` but not ``quality``, a batch that already carries
    ``keep``/``drop_reasons`` (an upstream rule gate) gets them flipped for
    toxic pages in place."""

    def __init__(
        self, cfg: Optional[PipelineConfig] = None, parts: Sequence[str] = PARTS
    ):
        unknown = set(parts) - set(PARTS)
        if unknown:
            raise ValueError(f"unknown parts {sorted(unknown)}; expected a subset of {PARTS}")
        self.cfg = cfg or PipelineConfig()
        self.extract, self.quality, self.detect, self.toxicity = (
            p in parts for p in PARTS
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        names = batch.column_names
        texts = batch.column(cfg.text_column).to_pylist()
        cols: Dict[str, list] = {}  # produced columns, in output order
        if self.extract:
            bodies = [extract_text(h) for h in _drain(batch.column("html").to_pylist())]
            cols[cfg.text_column] = bodies
            cols["extract_ok"] = [b == t for b, t in zip(bodies, texts)]
            texts = bodies
        pages = [t or "" for t in texts]
        if self.quality:
            self._quality(pages, cols)
        elif self.toxicity and {"keep", "drop_reasons"} <= set(names):
            cols["keep"] = batch.column("keep").to_pylist()
            cols["drop_reasons"] = batch.column("drop_reasons").to_pylist()
        if self.detect or self.toxicity:
            scrub = self._detect(texts, cols) if self.detect else list(pages)
            cols["text_scrubbed"] = scrub
        if self.toxicity:
            self._toxicity(pages, scrub, cols)
        types = {**_TYPES, cfg.text_column: pa.string()}
        out = {name: batch.column(name) for name in names if not (self.extract and name == "html")}
        # a produced column keeps the position of the input column it replaces
        for name in list(cols):
            out[name] = pa.array(cols.pop(name), types[name])
        return pa.table(out, metadata=batch.schema.metadata)

    def _quality(self, pages: List[str], cols: Dict[str, list]) -> None:
        score = default_model().score
        ppl = [score(p) for p in pages]
        n = len(pages)
        lang_pred, lang_score = [""] * n, [0.0] * n
        feature_cols = {name: [None] * n for name in _FEATURES}
        keep, reasons = [False] * n, [None] * n
        qcfg = self.cfg.quality
        for i, page in enumerate(pages):
            feats = quality_features(page)  # one dict alive at a time
            lang_pred[i], lang_score[i] = classify(page)
            for name, col in feature_cols.items():
                col[i] = feats[name]
            keep[i], reasons[i] = quality_rules(feats, lang_score[i], ppl[i], qcfg)
        cols.update(lang_pred=lang_pred, lang_score=lang_score, ppl=ppl, **feature_cols)
        cols.update(keep=keep, drop_reasons=reasons)

    def _detect(self, texts: list, cols: Dict[str, list]) -> List[str]:
        """Detection columns into ``cols``; returns the scrubbed texts."""
        cfg = self.cfg
        n = len(texts)
        contem, conf, scrub = [False] * n, [0.0] * n, [""] * n
        tipos: List[list] = [[] for _ in range(n)]
        detalhes: List[list] = [[] for _ in range(n)]
        sinais: List[list] = [[] for _ in range(n)]
        for i, raw in enumerate(texts):
            try:
                res, scrub[i] = analyze_document(raw, cfg.scrub_token)
                if res["contem_pii"]:
                    contem[i], tipos[i], conf[i] = True, res["tipos_detectados"], res["confianca"]
                    if cfg.emit_details:
                        detalhes[i] = _detail_rows(res["detalhes"], cfg.use_ner)
                        sinais[i] = _detail_rows(res["sinais_contextuais"], False)
            except Exception:  # noqa: BLE001 — poison row → empty result
                scrub[i] = ""
        cols["contem_pii"], cols["tipos_detectados"] = contem, tipos
        if cfg.emit_details:
            cols["detalhes"], cols["sinais_contextuais"] = detalhes, sinais
        cols["confianca"] = conf
        return scrub

    def _toxicity(self, pages: List[str], scrub: List[str], cols: Dict[str, list]) -> None:
        """Score every page, mask ``scrub`` in place, flip the gate in
        ``cols`` (if any) for toxic pages."""
        tcfg = self.cfg.toxicity
        n = len(pages)
        n_tox, ratio, toxic = [0] * n, [0.0] * n, [False] * n
        keep, reasons = cols.get("keep"), cols.get("drop_reasons")
        for i, page in enumerate(pages):
            # outside the detect isolation: a poison-PII row is still gated
            try:
                n_tox[i], ratio[i], toxic[i] = score_toxicity(page, tcfg.min_hits, tcfg.min_ratio)
                if toxic[i]:
                    scrub[i] = scrub_toxic(scrub[i], tcfg.scrub_token)
            except Exception:  # noqa: BLE001
                pass
            if toxic[i] and keep is not None:
                keep[i], reasons[i] = False, list(reasons[i]) + ["toxicity"]
        cols["n_tox"], cols["tox_ratio"], cols["is_toxic"] = n_tox, ratio, toxic


def document_stage(ds, cfg: Optional[PipelineConfig] = None, parts: Sequence[str] = PARTS):
    """``ds.map_batches`` of :class:`DocumentOp` in task mode, in row batches
    of ``cfg.quality_batch_size``."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        DocumentOp(cfg, parts), batch_format="pyarrow", batch_size=cfg.quality_batch_size
    )
