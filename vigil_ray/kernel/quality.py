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
evaluate both here and in an SQL oracle (where expressible). The three
n-gram fractions come from one exact integer pass in numpy
(:func:`_ngram_fracs`); their ``Counter`` definitions are the spec in
``tests/conftest.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

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

    top2, top3, dup5 = _ngram_fracs(lowered, word_lens, total_word_chars)

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


# words whose bigrams are probed for a repeat before the whole page's are
_HEAD_WORDS = 128


def _ngram_fracs(
    lowered: List[str], word_lens: List[int], total_chars: int
) -> Tuple[float, float, float]:
    """``(top2gram_frac, top3gram_frac, dup5gram_frac)`` of one page.

    - top-n: chars of the single most common word n-gram times its count,
      over the page's word chars (Gopher's "fraction of characters in most
      common n-gram"). A count tie goes to the gram that occurs first, and
      its chars are the lengths of its *lowered* words.
    - dup-5: chars of the words inside any 5-gram that occurs more than
      once, each word counted once, over the page's word chars (Gopher's
      "fraction of characters in duplicated n-grams"), by the words' own
      lengths.
    - A fraction is 0.0 when no n-gram repeats.

    Exact integer arithmetic in numpy, no hashing. A word's id is the
    position of its first occurrence on the page. An n-gram's id is the rank
    of a pair of smaller ids: bigram ``(w_i, w_i+1)``, trigram
    ``(bigram_i, w_i+2)``, 5-gram ``(trigram_i, bigram_i+3)``. Every id is
    below ``n``, so a pair key ``a * n + b`` fits in int64. One argsort per
    order gives each gram's count and first position.

    A repeated n-gram for any n > 2 contains a repeated bigram, so when the
    top-2 fraction is 0.0 all three are 0.0 and the longer grams are not
    counted. A page with no repeated bigram is found first with C-level set
    builds, which keeps numpy's fixed cost off the many short pages where
    nothing repeats: the bigrams of the first ``_HEAD_WORDS`` words, and of
    the whole page only when the head repeats none. A long page nearly
    always repeats a bigram early, so it hashes the head alone. The Counter forms these equal are
    ``top_ngram_char_frac_spec`` / ``dup_ngram_char_frac_spec`` in
    tests/conftest.py."""
    n = len(lowered)
    if n < 2 or total_chars == 0:
        return 0.0, 0.0, 0.0
    head = lowered[:_HEAD_WORDS]
    if len(set(zip(head, head[1:]))) == len(head) - 1 and (
        n <= _HEAD_WORDS or len(set(zip(lowered, lowered[1:]))) == n - 1
    ):
        return 0.0, 0.0, 0.0
    first: Dict[str, int] = {}
    w = np.fromiter(map(first.setdefault, lowered, count()), np.int64, n)
    bi, bi_count, bi_first = _rank(w[:-1] * n + w[1:])
    top2 = _top_frac(bi_count, bi_first, lowered, 2, total_chars)
    if top2 == 0.0 or n < 3:
        return top2, 0.0, 0.0
    tri, tri_count, tri_first = _rank(bi[:-1] * n + w[2:])
    top3 = _top_frac(tri_count, tri_first, lowered, 3, total_chars)
    if n < 5:
        return top2, top3, 0.0
    five, five_count, _ = _rank(tri[:-2] * n + bi[3:])
    starts = np.flatnonzero(five_count[five] > 1)
    if not len(starts):
        return top2, top3, 0.0
    edges = np.zeros(n + 1, np.int64)
    edges[starts] += 1
    edges[starts + 5] -= 1
    covered = np.cumsum(edges[:n]) > 0
    dup_chars = int(np.array(word_lens, np.int64)[covered].sum())
    return top2, top3, round(dup_chars / total_chars, 6)


def _rank(keys):
    """``(rank of each key, count per rank, first position per rank)``;
    ranks number the distinct keys in sorted order."""
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.empty(len(keys), bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    rank = np.empty(len(keys), np.int64)
    rank[order] = np.cumsum(head) - 1
    heads = np.flatnonzero(head)
    return rank, np.diff(heads, append=len(keys)), np.minimum.reduceat(order, heads)


def _top_frac(counts, firsts, lowered, n, total_chars) -> float:
    top = int(counts.max())
    if top <= 1:
        return 0.0
    at = int(firsts[counts == top].min())  # the earliest of the tied grams
    return round(top * sum(map(len, lowered[at : at + n])) / total_chars, 6)


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
