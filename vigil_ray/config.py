"""Pipeline configuration.

Replaces the reference's scattered CLI flags + module constants
(reference ``main.py:358-406``, ``src/constants.py``, ``src/human_review.py:58-77``)
with one dataclass that every stage accepts. Thresholds and vocabularies keep
the reference's exact values so keep/drop decisions match label-for-label.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# NER chunking limit (~375 tokens, conservative vs a 512-token model window);
# reference src/constants.py:13.
NER_MAX_CHARS = 1500

# Model whitelist semantics mirror reference src/constants.py:16-21 /
# src/detector.py:78-84: anything off-list degrades to the heuristic fallback.
DEFAULT_NER_MODEL = "pierreguillou/ner-bert-base-cased-pt-lenerbr"
ALLOWED_NER_MODELS = frozenset({DEFAULT_NER_MODEL})

# NER entity groups accepted as person names; reference src/constants.py:30.
NER_PERSON_LABELS = frozenset({"PER", "PESSOA", "B-PER", "I-PER", "PERSON"})

# In-memory width assumed for one input row when a Dataset's plan cannot say
# how big its rows are (stages.document.batch_rows); not a knob.
NOMINAL_ROW_BYTES = 1024


@dataclass
class ReviewConfig:
    """Human-review thresholds; reference src/human_review.py:58-77."""

    high_confidence_threshold: float = 0.95
    low_confidence_threshold: float = 0.80
    context_window: int = 100
    check_artistic_context: bool = True
    check_academic_context: bool = True


@dataclass
class QualityConfig:
    """Gopher/C4-style heuristic-rule thresholds (north_rule capability).

    Values follow the published Gopher rules (Rae et al. 2021, table A1) and
    C4 (Raffel et al. 2020) heuristics; tuned to be meaningful on synthetic
    fixtures.
    """

    min_words: int = 5
    max_words: int = 1_000_000
    min_mean_word_len: float = 1.0
    max_mean_word_len: float = 12.0
    max_symbol_to_word_ratio: float = 0.1   # '#' and '...' per word
    min_alpha_word_frac: float = 0.70       # words containing >=1 alphabetic char
    max_dup_line_frac: float = 0.30
    max_top2gram_frac: float = 0.20         # chars in most common 2-gram / total
    max_top3gram_frac: float = 0.18
    max_dup5gram_frac: float = 0.15         # chars in duplicated 5-grams / total
    min_lang_score: float = 0.0             # language-ID confidence floor
                                            # (0 = disabled; CCNet-style web
                                            # deployments would set ~0.3)
    max_perplexity: float = 1_500.0         # char-LM perplexity ceiling
    require_stopword: bool = False          # C4-style "has >=1 stopword"


@dataclass
class ToxicityConfig:
    """Toxicity gate thresholds (north_star: "PII/toxicity scrub").

    ``min_hits`` is an absolute floor so injected abuse in a long document
    still trips the gate; ``min_ratio`` catches short all-abuse documents.
    """

    min_hits: int = 2
    min_ratio: float = 0.1
    scrub_token: str = "[TOXIC]"


@dataclass
class PipelineConfig:
    """Top-level knobs for the flagship pipeline and its stages."""

    text_column: str = "text"
    key_column: str = "url"
    use_ner: bool = False            # reference --no-ner default path in CI
    ner_model: str = DEFAULT_NER_MODEL
    scrub_token: str = "[{tipo}]"    # template for redacted spans
    emit_details: bool = True        # detalhes/sinais list-of-struct columns
                                     # (False skips building them — the label,
                                     # types, confidence and scrub are
                                     # unchanged; saves allocation on runs
                                     # that would drop the columns anyway)
    review: ReviewConfig = field(default_factory=ReviewConfig)
    quality: QualityConfig = field(default_factory=QualityConfig)
    toxicity: ToxicityConfig = field(default_factory=ToxicityConfig)

    # Ray execution knobs (sized for one 32-cpu node; scale linearly per node).
    # batch_bytes: in-memory input bytes per batch of every per-document map
    # (the flagship's fused map, detect, review). Kernel cost grows with text
    # length, so stages.document.batch_rows turns it into rows from the
    # input's plan metadata: long pages get fewer rows per batch, and so
    # more tasks, than short ones.
    batch_bytes: int = 4 << 20
    ner_batch_size: int = 64
    ner_concurrency: int = 4
    # per-actor resources for the NER pool: set ner_num_gpus > 0 on GPU
    # clusters (the model moves to the actor's assigned device); reference
    # analog is the single in-process pipeline, SURVEY §2.4 T1
    ner_num_cpus: float = 1.0
    ner_num_gpus: float = 0.0

    @property
    def quality_batch_size(self) -> int:
        """Read-only: ``batch_bytes`` in rows of :data:`NOMINAL_ROW_BYTES`
        (4096 at the default). No map is sized by it; its only reader is the
        benchmark's in-process ledger (``perfbench/ledger.py``), which slices
        its stage samples by it."""
        return self.batch_bytes // NOMINAL_ROW_BYTES

    @property
    def detect_batch_size(self) -> int:
        """Read-only alias of :attr:`quality_batch_size`, kept for the same
        reader."""
        return self.quality_batch_size
