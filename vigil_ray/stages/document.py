"""The flagship's hand-fused per-document code as one task-mode Ray Data map.

:class:`DocumentOp` runs these parts, in this order, each a per-document
kernel mapped over every page of the batch:

- ``extract``: ``kernel.html.extract_text`` replaces ``text`` with the body
  of ``html`` and appends ``extract_ok``, whether it reproduced the shipped
  ``text`` byte for byte (the BASELINE per-url invariant); ``html`` is not
  carried past this point, so the big payload column never reaches the
  output. A page whose extraction raises gets the empty body and
  ``extract_ok`` false. A batch without an ``html`` column skips this part,
  so a caller never has to inspect its input's schema (which, behind a
  lazy map, executes the upstream) to choose the parts;
- ``quality``: language ID, char-LM perplexity (the per-worker
  ``kernel.perplexity.default_model()``, whose capped memos stay warm across
  tasks), the Gopher/C4 features and their rule gate, ``keep`` and
  ``drop_reasons``. A page on which any of these kernels raises is dropped
  with the reason ``quality_error`` and nulls in every other quality column;
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

The quality part splits each page into whitespace words once
(``kernel.words.words_of``, one memoized entry per word) and hands that one
list to perplexity, the features, language ID and, when the toxicity part
runs, the toxicity score, which it passes on as one small tuple per page.
Inside the part the same rule holds one level down: each kernel runs over
every page before the next one starts (``words_of``, the toxicity score,
``CharLM.score``, ``quality_features``, ``classify``, ``quality_rules``),
which measured 8-14% faster than calling the five kernels page by page on
8.7 KB pages and 10% on short ones (in process). So the word lists are
batch-wide, about 3 MB per 4 MiB batch: each page's list is dropped as
``classify``, its last reader, takes it. A
map without the quality part (``PiiDetectScrub(apply_toxicity=True)``, the
``pages_toxicity`` query) splits in the toxicity part, through the same
function.

A poison page never fails its task: each part isolates every page's
kernels, so one bad page costs its own columns, not the batch. In the
quality part a page on which one kernel raises is skipped by the later ones.

Batches are sized in input bytes, not rows (:func:`batch_rows`): kernel cost
grows with text length, so a row count that suits short pages puts a whole
long-page input in one task and leaves the other CPUs idle.

The flagship runs every part (``pipelines.flagship.quality_filter``); the
stage entry points (``stages.extract``, ``stages.quality``,
``stages.detect``) and the ``pages_toxicity`` query run a subset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pyarrow as pa

from vigil_ray.config import NOMINAL_ROW_BYTES, PipelineConfig
from vigil_ray.kernel.detector import analyze_document
from vigil_ray.kernel.html import extract_text
from vigil_ray.kernel.langid import classify
from vigil_ray.kernel.perplexity import default_model
from vigil_ray.kernel.quality import quality_features, quality_rules
from vigil_ray.kernel.toxicity import score_toxicity, scrub_toxic
from vigil_ray.kernel.words import words_of

PARTS = ("extract", "quality", "detect", "toxicity")
QUALITY_ERROR = "quality_error"  # drop reason of a page whose quality kernels raised

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
        extract = self.extract and "html" in names
        if extract:
            bodies, ok = [], []
            for html, text in zip(_drain(batch.column("html").to_pylist()), texts):
                try:
                    body = extract_text(html)
                except Exception:  # noqa: BLE001 — poison page → empty body
                    bodies.append("")
                    ok.append(False)
                else:
                    bodies.append(body)
                    ok.append(body == text)
            cols[cfg.text_column], cols["extract_ok"] = bodies, ok
            texts = bodies
        pages = [t or "" for t in texts]
        tox = [None] * len(pages)
        if self.quality:
            tox = self._quality(pages, cols)
        elif self.toxicity and {"keep", "drop_reasons"} <= set(names):
            cols["keep"] = batch.column("keep").to_pylist()
            cols["drop_reasons"] = batch.column("drop_reasons").to_pylist()
        if self.detect or self.toxicity:
            scrub = self._detect(texts, cols) if self.detect else list(pages)
            cols["text_scrubbed"] = scrub
        if self.toxicity:
            self._toxicity(pages, scrub, tox, cols)
        types = {**_TYPES, cfg.text_column: pa.string()}
        out = {name: batch.column(name) for name in names if not (extract and name == "html")}
        # a produced column keeps the position of the input column it replaces
        for name in list(cols):
            out[name] = pa.array(cols.pop(name), types[name])
        return pa.table(out, metadata=batch.schema.metadata)

    def _quality(self, pages: List[str], cols: Dict[str, list]) -> list:
        """Quality columns into ``cols``; a page whose kernels raise keeps
        nulls in them and is dropped for :data:`QUALITY_ERROR`. Returns each
        page's toxicity score when the toxicity part runs (None where it was
        not reached), so that part need not split the page again.

        Each kernel runs over every page before the next one starts; a page
        on which one raises is skipped by the later ones."""
        score = default_model().score
        qcfg, tcfg = self.cfg.quality, self.cfg.toxicity
        n = len(pages)
        ok = [True] * n

        def each(kernel, *args) -> list:
            out: list = [None] * n
            for i, a in enumerate(zip(*args)):
                if ok[i]:
                    try:
                        out[i] = kernel(*a)
                    except Exception:  # noqa: BLE001 — poison page → quality_error
                        ok[i] = False
            return out

        # one split per page, shared by every word kernel
        words = each(words_of, pages)
        tox: list = [None] * n
        if self.toxicity:
            tox = each(
                lambda page, w: score_toxicity(page, tcfg.min_hits, tcfg.min_ratio, w),
                pages, words,
            )
        ppl = each(score, pages, words)
        feats = each(quality_features, pages, words)
        # classify is the last reader of the word lists: each goes as it is read
        langs = each(classify, pages, _drain(words))
        gates = each(
            lambda f, lang, p: quality_rules(f, lang[1], p, qcfg), feats, langs, ppl
        )
        feature_cols = {name: [None] * n for name in _FEATURES}
        lang_pred, lang_score = [None] * n, [None] * n
        keep, reasons = [False] * n, [None] * n
        for i in range(n):
            if not ok[i]:
                ppl[i] = None
                reasons[i] = [QUALITY_ERROR]  # keep stays False
                continue
            (lang_pred[i], lang_score[i]), (keep[i], reasons[i]) = langs[i], gates[i]
            for name, col in feature_cols.items():
                col[i] = feats[i][name]
        cols.update(lang_pred=lang_pred, lang_score=lang_score, ppl=ppl, **feature_cols)
        cols.update(keep=keep, drop_reasons=reasons)
        return tox

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

    def _toxicity(
        self, pages: List[str], scrub: List[str], tox: list, cols: Dict[str, list]
    ) -> None:
        """Score every page (``tox`` holds the scores the quality part already
        made), mask ``scrub`` in place, flip the gate in ``cols`` (if any) for
        toxic pages."""
        tcfg = self.cfg.toxicity
        n = len(pages)
        n_tox, ratio, toxic = [0] * n, [0.0] * n, [False] * n
        keep, reasons = cols.get("keep"), cols.get("drop_reasons")
        for i, page in enumerate(pages):
            # outside the detect isolation: a poison-PII row is still gated
            try:
                n_tox[i], ratio[i], toxic[i] = tox[i] or score_toxicity(
                    page, tcfg.min_hits, tcfg.min_ratio
                )
                if toxic[i]:
                    scrub[i] = scrub_toxic(scrub[i], tcfg.scrub_token)
            except Exception:  # noqa: BLE001
                pass
            if toxic[i] and keep is not None:
                keep[i], reasons[i] = False, list(reasons[i]) + ["toxicity"]
        cols["n_tox"], cols["tox_ratio"], cols["is_toxic"] = n_tox, ratio, toxic


def batch_rows(ds, batch_bytes: int) -> int:
    """Rows per batch that hold about ``batch_bytes`` of ``ds``'s in-memory
    input: ``batch_bytes * num_rows // size_bytes``, at least 1.

    Both numbers come from the logical plan's metadata, which a parquet read
    or an in-memory source (``from_arrow``, a materialized Dataset) knows
    without executing anything. ``ds.count()`` and ``ds.size_bytes()`` are
    not used: they execute the whole lineage when that metadata is missing.
    When it is missing (a map upstream), every row counts as
    :data:`~vigil_ray.config.NOMINAL_ROW_BYTES` wide."""
    meta = ds._logical_plan.dag.infer_metadata()
    if meta.num_rows and meta.size_bytes:
        return max(1, batch_bytes * meta.num_rows // meta.size_bytes)
    return max(1, batch_bytes // NOMINAL_ROW_BYTES)


def document_stage(ds, cfg: Optional[PipelineConfig] = None, parts: Sequence[str] = PARTS):
    """``ds.map_batches`` of :class:`DocumentOp` in task mode, in batches of
    about ``cfg.batch_bytes`` of input (:func:`batch_rows`). On long pages
    that means few rows per batch and several tasks where a fixed row count
    would merge every read block into one."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        DocumentOp(cfg, parts),
        batch_format="pyarrow",
        batch_size=batch_rows(ds, cfg.batch_bytes),
    )
