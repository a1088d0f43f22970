"""PII detection + scrub as one fused Ray Data stage.

One ``map_batches`` pass appends the full detection result *and* the scrubbed
text: normalization runs once per row, the candidate prefilter
(``kernel.detector.could_have_pii``) short-circuits rows that provably cannot
contain PII (most of a web corpus), and the regex cascade runs only on the
rest. Arrow in / Arrow out — list-of-struct columns round-trip through the
object store zero-copy.

This is the Ray shape of reference ``src/detector.py``'s layered ``detect``
(regex → names → contextual → build result), with the reference's per-row
error isolation (a poison row degrades to the empty result, never fails the
block; reference src/detector.py:378-395).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import pyarrow as pa

from vigil_ray.config import PipelineConfig
from vigil_ray.kernel.detector import analyze_document

DETAIL_TYPE = pa.list_(
    pa.struct(
        [
            ("tipo", pa.string()),
            ("valor", pa.string()),
            ("score", pa.float64()),
            ("metodo", pa.string()),
        ]
    )
)


def _detail_rows(triples, use_ner: bool) -> List[Dict[str, Any]]:
    # 'metodo' mirrors reference main.py:246: 'ner' for names (when a model
    # ran), 'regex' otherwise.
    return [
        {
            "tipo": t,
            "valor": v,
            "score": float(s),
            "metodo": "ner" if (t == "nome" and use_ner) else "regex",
        }
        for (t, v, s) in triples
    ]


class PiiDetectScrub:
    """Callable-class kernel for ``map_batches``. Stateless in data terms, but
    a class so the compiled-regex bank and config bind once per worker.

    ``apply_toxicity=True`` (the flagship path) folds the toxicity gate into
    the SAME pass: score on the raw text, mask toxic tokens in the scrubbed
    output, flip ``keep``/``drop_reasons`` when present — one string-column
    extraction and one table rebuild (pinned by the e2e oracle). This is the
    engine's only keep/drop toxicity gate; ``stages.toxicity`` is the
    standalone scorer."""

    def __init__(
        self, cfg: Optional[PipelineConfig] = None, apply_toxicity: bool = False
    ):
        self.cfg = cfg or PipelineConfig()
        self.apply_toxicity = apply_toxicity

    def __call__(self, batch: pa.Table) -> pa.Table:
        from vigil_ray.kernel.toxicity import score_toxicity, scrub_toxic

        texts = batch.column(self.cfg.text_column).to_pylist()
        n = len(texts)
        contem = [False] * n
        tipos: List[List[str]] = [[] for _ in range(n)]
        detalhes: List[List[Dict[str, Any]]] = [[] for _ in range(n)]
        sinais: List[List[Dict[str, Any]]] = [[] for _ in range(n)]
        conf = [0.0] * n
        scrubbed = [""] * n
        tox = self.apply_toxicity
        tcfg = self.cfg.toxicity
        n_tox = [0] * n
        tox_ratio = [0.0] * n
        is_toxic = [False] * n

        emit = self.cfg.emit_details
        for i, raw in enumerate(texts):
            try:
                res, scrub = analyze_document(raw, self.cfg.scrub_token)
                if res["contem_pii"]:
                    contem[i] = True
                    tipos[i] = res["tipos_detectados"]
                    conf[i] = res["confianca"]
                    if emit:
                        detalhes[i] = _detail_rows(res["detalhes"], self.cfg.use_ner)
                        sinais[i] = _detail_rows(res["sinais_contextuais"], False)
            except Exception:  # noqa: BLE001 — poison row → empty result
                scrub = ""
            # toxicity is scored OUTSIDE the analyze_document try so a
            # poison-PII row still gets the toxicity gate
            if tox:
                try:
                    n_tox[i], tox_ratio[i], is_toxic[i] = score_toxicity(
                        raw or "", tcfg.min_hits, tcfg.min_ratio
                    )
                    if is_toxic[i]:
                        scrub = scrub_toxic(scrub, tcfg.scrub_token)
                except Exception:  # noqa: BLE001
                    pass
            scrubbed[i] = scrub

        out = (
            batch.append_column("contem_pii", pa.array(contem, pa.bool_()))
            .append_column("tipos_detectados", pa.array(tipos, pa.list_(pa.string())))
        )
        if emit:
            out = out.append_column("detalhes", pa.array(detalhes, DETAIL_TYPE))
            out = out.append_column(
                "sinais_contextuais", pa.array(sinais, DETAIL_TYPE)
            )
        out = out.append_column("confianca", pa.array(conf, pa.float64())).append_column(
            "text_scrubbed", pa.array(scrubbed, pa.string())
        )
        if tox:
            out = out.append_column("n_tox", pa.array(n_tox, pa.int64()))
            out = out.append_column("tox_ratio", pa.array(tox_ratio, pa.float64()))
            out = out.append_column("is_toxic", pa.array(is_toxic, pa.bool_()))
            if "keep" in out.column_names and "drop_reasons" in out.column_names:
                keep = out.column("keep").to_pylist()
                reasons = out.column("drop_reasons").to_pylist()
                for i, t in enumerate(is_toxic):
                    if t:
                        keep[i] = False
                        reasons[i] = list(reasons[i]) + ["toxicity"]
                out = out.set_column(
                    out.column_names.index("keep"),
                    "keep",
                    pa.array(keep, pa.bool_()),
                )
                out = out.set_column(
                    out.column_names.index("drop_reasons"),
                    "drop_reasons",
                    pa.array(reasons, pa.list_(pa.string())),
                )
        return out


def detect_stage(
    ds, cfg: Optional[PipelineConfig] = None, apply_toxicity: bool = False
):
    """Append detection + scrub columns to a Dataset with a ``text`` column."""
    cfg = cfg or PipelineConfig()
    return ds.map_batches(
        PiiDetectScrub(cfg, apply_toxicity=apply_toxicity),
        batch_format="pyarrow",
        batch_size=cfg.detect_batch_size,
    )
