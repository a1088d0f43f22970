"""Language-ID + perplexity + heuristic-rule quality stage (task mode).

The scorer is a pure function of each page, so it runs as a task-mode
``map_batches`` over a small picklable :class:`QualityScorer` instance, and
Ray fuses it with the extract and detect maps into one operator. The
character-LM comes from the per-worker singleton
``kernel.perplexity.default_model()`` at call time: it is built once per
worker process and its capped memos stay warm across tasks. Appends::

    lang_pred, lang_score, ppl, n_words, mean_word_len, symbol_to_word_ratio,
    alpha_word_frac, dup_line_frac, top2gram_frac, top3gram_frac,
    dup5gram_frac, has_stopword, keep, drop_reasons

``keep``/``drop_reasons`` evaluate the Gopher/C4 rule gate
(``kernel.quality.quality_rules``) against the config thresholds.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from vigil_ray.config import PipelineConfig
from vigil_ray.kernel.langid import classify
from vigil_ray.kernel.perplexity import default_model
from vigil_ray.kernel.quality import quality_features, quality_rules

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


class QualityScorer:
    """Batch kernel; holds only the config, so the pickled instance is small."""

    def __init__(self, cfg: Optional[PipelineConfig] = None):
        self.cfg = cfg or PipelineConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.cfg.text_column).to_pylist()
        n = len(texts)
        cols = {name: [None] * n for name, _ in _FEATURE_COLS}
        lang_pred = [""] * n
        lang_score = [0.0] * n
        keep = [False] * n
        reasons: list = [[] for _ in range(n)]

        qcfg = self.cfg.quality
        score = default_model().score
        ppl = [score(t or "") for t in texts]
        for i, raw in enumerate(texts):
            text = raw or ""
            feats = quality_features(text)
            lp, ls = classify(text)
            lang_pred[i], lang_score[i] = lp, ls
            for name, _ in _FEATURE_COLS:
                cols[name][i] = feats[name]
            keep[i], reasons[i] = quality_rules(feats, ls, ppl[i], qcfg)

        out = batch
        out = out.append_column("lang_pred", pa.array(lang_pred, pa.string()))
        out = out.append_column("lang_score", pa.array(lang_score, pa.float64()))
        out = out.append_column("ppl", pa.array(ppl, pa.float64()))
        for name, typ in _FEATURE_COLS:
            out = out.append_column(name, pa.array(cols[name], typ))
        out = out.append_column("keep", pa.array(keep, pa.bool_()))
        out = out.append_column(
            "drop_reasons", pa.array(reasons, pa.list_(pa.string()))
        )
        return out


def quality_stage(ds, cfg: Optional[PipelineConfig] = None):
    """Task-mode quality scoring stage."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        QualityScorer(cfg),
        batch_format="pyarrow",
        batch_size=cfg.quality_batch_size,
    )
