"""Gopher/C4-style heuristic quality features and keep/drop rules.

Feature definitions follow the published rules (Gopher: Rae et al. 2021,
appx. A1; C4: Raffel et al. 2020 §2.2) — document length in words, mean word
length, symbol-to-word ratio (hash marks and ellipses), alphabetic-word
fraction, duplicate-line fraction, and intra-document n-gram repetition
(top-2/3-gram char fraction, duplicated-5-gram char fraction). The reference
engine has no corpus-level dedup (SURVEY.md §2.7) — repetition scoring here is
per-document, so it stays a stateless ``map_batches`` member of the flagship
pipeline with no shuffle.

All features are plain floats so the rule gate is reproducible and cheap to
evaluate both here and in an SQL oracle (where expressible).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from vigil_ray.config import QualityConfig
from vigil_ray.kernel.words import HAS_ALPHA, LENGTH, LOWER, Word, words_of

# C4-style minimal English/Portuguese stopword probe
_STOP_PROBE = frozenset(
    "the and of to a in is that de a o que e do da em um para com not".split()
)


_EMPTY_FEATURES = {
    "n_chars": 0,
    "n_words": 0,
    "mean_word_len": 0.0,
    "symbol_to_word_ratio": 0.0,
    "alpha_word_frac": 0.0,
    "dup_line_frac": 0.0,
    "top2gram_frac": 0.0,
    "top3gram_frac": 0.0,
    "dup5gram_frac": 0.0,
    "has_stopword": False,
}


def quality_features(text: str, words: Optional[List[Word]] = None) -> Dict[str, Any]:
    """Numeric quality profile of one document. ``words`` is
    ``kernel.words.words_of(text)`` when the caller already has it."""
    if words is None:
        words = words_of(text)
    if not words:  # empty or whitespace-only text
        return dict(_EMPTY_FEATURES)
    n_words = len(words)
    word_lens = list(map(LENGTH, words))
    total_word_chars = sum(word_lens)
    lowered = list(map(LOWER, words))
    n_alpha_words = sum(map(HAS_ALPHA, words))
    # non-overlapping counts equal the regex scan: '#' is never part of '...'
    n_symbols = text.count("#") + text.count("...") + text.count("…")

    dup_line_frac = 0.0
    if "\n" in text:
        lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
        if len(lines) > 1:
            line_counts = Counter(lines)
            dup_lines = sum(c - 1 for c in line_counts.values() if c > 1)
            dup_line_frac = dup_lines / len(lines)

    # bigram-first repetition probe: a repeated n-gram for any n > 2
    # contains a repeated bigram (its first word pair recurs at the same
    # offset), so when NO bigram repeats the trigram and 5-gram fractions
    # are provably 0.0 and their Counter builds are skipped (~half of web
    # documents measured; differential-pinned against the unconditional
    # spec in tests/test_quality.py).
    top2 = _top_ngram_char_frac(lowered, 2, total_word_chars)
    if top2 == 0.0:
        top3 = dup5 = 0.0
    else:
        top3 = _top_ngram_char_frac(lowered, 3, total_word_chars)
        dup5 = _dup_ngram_char_frac(lowered, 5, word_lens, total_word_chars)

    return {
        "n_chars": len(text),
        "n_words": n_words,
        "mean_word_len": round(total_word_chars / n_words, 6),
        "symbol_to_word_ratio": round(n_symbols / n_words, 6),
        "alpha_word_frac": round(n_alpha_words / n_words, 6),
        "dup_line_frac": round(dup_line_frac, 6),
        "top2gram_frac": top2,
        "top3gram_frac": top3,
        "dup5gram_frac": dup5,
        "has_stopword": not _STOP_PROBE.isdisjoint(lowered),
    }


def _ngrams(words: List[str], n: int) -> List[Tuple[str, ...]]:
    # zip-of-shifts builds tuples in C
    return list(zip(*(words[i:] for i in range(n))))


def _top_ngram_char_frac(words: List[str], n: int, total_chars=None) -> float:
    """Chars covered by the single most common word n-gram / total word chars
    (Gopher's "fraction of characters in most common n-gram")."""
    if len(words) < n:
        return 0.0
    if total_chars is None:
        total_chars = sum(len(w) for w in words)
    if total_chars == 0:
        return 0.0
    # Counter consumes the zip iterator directly — no intermediate list.
    # max(values) + first-match scan ≡ most_common(1)[0]: heapq.nlargest
    # breaks count ties by earliest iteration position, and Counter iterates
    # in first-insertion order, so scanning items() for the first gram at the
    # max count picks the same gram (differential-pinned with tie-heavy
    # inputs in tests/test_quality.py). Most documents have no repeated
    # n-gram at all (59% measured), so the count<=1 early exit skips the
    # items() walk entirely.
    grams = Counter(zip(*(words[i:] for i in range(n))))
    count = max(grams.values())
    if count <= 1:
        return 0.0
    gram = next(g for g, c in grams.items() if c == count)
    return round(count * sum(len(w) for w in gram) / total_chars, 6)


def _dup_ngram_char_frac(
    words: List[str], n: int, word_lens=None, total_chars=None
) -> float:
    """Chars inside word n-grams that occur more than once / total word chars
    (Gopher's "fraction of characters in duplicated n-grams"), counting each
    word position at most once via span marking."""
    if len(words) < n:
        return 0.0
    if word_lens is None:
        word_lens = [len(w) for w in words]
    if total_chars is None:
        total_chars = sum(word_lens)
    if total_chars == 0:
        return 0.0
    grams = _ngrams(words, n)
    counts = Counter(grams)
    # no gram repeats (85% of web documents measured) → the cover-marking
    # walk would set nothing; max(values) <= 1 is the same condition
    if max(counts.values()) <= 1:
        return 0.0
    covered = [False] * len(words)
    any_dup = False
    for i, g in enumerate(grams):
        if counts[g] > 1:
            covered[i : i + n] = [True] * n
            any_dup = True
    if not any_dup:
        return 0.0
    dup_chars = sum(l for l, c in zip(word_lens, covered) if c)
    return round(dup_chars / total_chars, 6)


def quality_rules(
    feats: Dict[str, Any],
    lang_score: float,
    perplexity: float,
    cfg: QualityConfig,
) -> Tuple[bool, List[str]]:
    """Evaluate the rule gate → ``(keep, drop_reasons)``.

    Reasons use stable snake_case names so downstream per-reason stats
    aggregate cleanly.
    """
    reasons: List[str] = []
    if feats["n_words"] < cfg.min_words:
        reasons.append("too_few_words")
    if feats["n_words"] > cfg.max_words:
        reasons.append("too_many_words")
    if feats["n_words"] and not (
        cfg.min_mean_word_len <= feats["mean_word_len"] <= cfg.max_mean_word_len
    ):
        reasons.append("mean_word_length")
    if feats["symbol_to_word_ratio"] > cfg.max_symbol_to_word_ratio:
        reasons.append("symbol_ratio")
    if feats["n_words"] and feats["alpha_word_frac"] < cfg.min_alpha_word_frac:
        reasons.append("alpha_word_frac")
    if feats["dup_line_frac"] > cfg.max_dup_line_frac:
        reasons.append("dup_lines")
    if feats["top2gram_frac"] > cfg.max_top2gram_frac:
        reasons.append("top_2gram_repetition")
    if feats["top3gram_frac"] > cfg.max_top3gram_frac:
        reasons.append("top_3gram_repetition")
    if feats["dup5gram_frac"] > cfg.max_dup5gram_frac:
        reasons.append("dup_5gram_repetition")
    if lang_score < cfg.min_lang_score:
        reasons.append("lang_score")
    if perplexity > cfg.max_perplexity:
        reasons.append("perplexity")
    if cfg.require_stopword and not feats["has_stopword"]:
        reasons.append("no_stopword")
    return (not reasons, reasons)
