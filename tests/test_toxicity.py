"""Toxicity kernel + stage semantics (north_star: PII/toxicity scrub)."""

import pyarrow as pa

from vigil_ray.config import PipelineConfig
from vigil_ray.kernel.toxicity import score_toxicity, scrub_toxic, toxic_spans


class TestKernel:
    def test_clean_text(self):
        assert score_toxicity("a perfectly nice sentence") == (0, 0.0, False)

    def test_min_hits_gate(self):
        long_doc = "word " * 200 + "idiota estúpido"
        n, ratio, toxic = score_toxicity(long_doc)
        assert n == 2 and toxic  # absolute floor despite dilution

    def test_single_mild_hit_not_toxic(self):
        n, ratio, toxic = score_toxicity(
            "this is stupid but otherwise quite a long and perfectly fine text here"
        )
        assert n == 1 and not toxic

    def test_ratio_gate(self):
        n, ratio, toxic = score_toxicity("idiota total")
        assert n == 1 and ratio == 0.5 and toxic

    def test_case_and_punct_insensitive(self):
        assert len(toxic_spans("Idiota, ESTÚPIDO!")) == 2

    def test_scrub_preserves_surroundings(self):
        assert scrub_toxic("você é um idiota mesmo") == "você é um [TOXIC] mesmo"

    def test_scrub_multiple_right_to_left(self):
        assert scrub_toxic("idiota e estúpido") == "[TOXIC] e [TOXIC]"

    def test_empty(self):
        assert score_toxicity("") == (0, 0.0, False)
        assert scrub_toxic("") == ""


class TestStage:
    def test_standalone_stage(self, ray_session):
        """The toxicity part of the per-document map on its own scores and
        masks the page text."""
        import ray.data as rd

        from vigil_ray.stages.document import document_stage

        ds = rd.from_items(
            [
                {"text": "a clean document with words"},
                {"text": "você é um idiota estúpido e eu odeio isso."},
            ]
        )
        out = document_stage(ds, PipelineConfig(), ("toxicity",)).to_pandas()
        out = out.sort_values("n_tox").reset_index(drop=True)
        assert list(out["n_tox"]) == [0, 3]
        assert list(out["is_toxic"]) == [False, True]
        assert out.loc[1, "text_scrubbed"] == (
            "você é um [TOXIC] [TOXIC] e eu [TOXIC] isso."
        )
        assert out.loc[0, "text_scrubbed"] == "a clean document with words"


class TestFusedPoisonRow:
    def test_poison_row_still_gets_toxicity_gate(self, ray_session, monkeypatch):
        """A row whose analyze_document raises must STILL be toxicity-scored
        (parity with the standalone stage, which scores every row)."""
        import pyarrow as pa

        from vigil_ray.stages import detect as detect_mod
        from vigil_ray.stages import document as document_mod

        real = document_mod.analyze_document

        def poison(raw, token):
            if raw == "POISON idiota estúpido":
                raise ValueError("boom")
            return real(raw, token)

        monkeypatch.setattr(document_mod, "analyze_document", poison)
        batch = pa.table({"text": ["POISON idiota estúpido", "fine text"]})
        out = detect_mod.PiiDetectScrub(
            PipelineConfig(), apply_toxicity=True
        )(batch)
        assert out.column("n_tox").to_pylist() == [2, 0]
        assert out.column("is_toxic").to_pylist() == [True, False]
        # poison row degrades to empty scrub, toxic masking of "" stays ""
        assert out.column("text_scrubbed").to_pylist()[0] == ""
        assert not out.column("contem_pii").to_pylist()[0]


# --- gated toxic_spans ≡ spec scan differential ------------------------------
# toxic_spans fast-rejects via findall(text.lower()) + isdisjoint; this pins
# the gate to the per-token spec scan including the Unicode traps: İ (the only
# multi-char lower), final sigma (the only context-sensitive lower), Kelvin K,
# accented PT terms, punctuation-adjacent tokens, and digit/underscore walls.
from hypothesis import given, settings
from hypothesis import strategies as st

from vigil_ray.kernel.toxicity import _toxic_spans_scan

_TOXISH = st.lists(
    st.sampled_from(
        [
            "idiota", "IDIOTA", "Idiota,", "estúpido", "ESTÚPİDO", "lixo",
            "hate", "HATE.", "hateful", "whatever", "texto", "İdiot",
            "ıdiot", "ſtupid", "ΣΟΣ", "ΑΣ", "K", "idiot_", "_idiot",
            "9idiot", "idiot9", " ", ",", ".", "-", "\n", "ó", "İ", "ı",
            "ſ", "ΟΣ'α", "miserável", "MISERÁVEL", "desgraçado",
        ]
    ),
    max_size=10,
).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(_TOXISH)
def test_toxic_spans_gate_equals_spec(text):
    assert toxic_spans(text) == _toxic_spans_scan(text), text


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_toxic_spans_gate_equals_spec_arbitrary(text):
    assert toxic_spans(text) == ([] if not text else _toxic_spans_scan(text)), text
