"""Deterministic toxicity scoring + scrub (north-star capability).

The reference engine has no toxicity component; BASELINE.json's north_star
names "PII/toxicity scrub" explicitly, so this module supplies the scoring
kernel of the per-document map's ``toxicity`` part
(``vigil_ray.stages.document``). A real deployment would load a classifier
(Detoxify/Perspective-style) once per worker process; there are no model
weights here, so the scorer is a deterministic token-list match that the
by-construction oracle in ``vigil_ray.queries`` can verify exactly.

Semantics:

- a token is toxic when its lowercased ``\\w+`` form is in :data:`TOXIC_TERMS`
  (punctuation never blocks a match, "Idiota," counts);
- a document is toxic when it has ``>= min_hits`` toxic tokens OR a toxic
  token ratio ``>= min_ratio`` (absolute floor catches injected abuse in long
  documents that a pure ratio would dilute);
- scrubbing masks each toxic token span with the scrub token, preserving all
  surrounding text byte-for-byte.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from vigil_ray.kernel.words import Word

# Mild, fixed EN+PT abuse vocabulary. Deterministic stand-in for a toxicity
# model's decision boundary; single lowercase word forms only.
TOXIC_TERMS = frozenset(
    {
        # en
        "idiot", "idiots", "stupid", "moron", "morons", "dumb", "scum",
        "loser", "losers", "trash", "garbage", "pathetic", "worthless",
        "hate", "hateful", "disgusting", "vile",
        # pt
        "idiota", "idiotas", "estúpido", "estúpida", "burro", "burra",
        "imbecil", "imbecis", "nojento", "nojenta", "desprezível",
        "odeio", "odiar", "lixo", "patético", "patética", "inútil",
        "desgraçado", "desgraçada", "miserável",
    }
)

_WORD = re.compile(r"\w+", re.UNICODE)


def _toxic_spans_scan(text: str) -> List[Tuple[int, int, str]]:
    """The spec scan: every ``\\w+`` token, lowered, probed against the term
    set, with original-text offsets."""
    return [
        (m.start(), m.end(), m.group())
        for m in _WORD.finditer(text)
        if m.group().lower() in TOXIC_TERMS
    ]


def toxic_spans(text: str) -> List[Tuple[int, int, str]]:
    """All toxic-token occurrences as ``(start, end, token)`` spans.

    Fast reject first: ``_WORD.findall`` over the char-wise-lowered text plus
    one C-speed ``frozenset.isdisjoint`` — no per-token ``.lower()`` calls, no
    match objects. Exactness: ``str.lower`` maps \\w→\\w and non-\\w→itself
    (uncased chars are fixed points), so token boundaries survive lowering;
    a token whose ``token.lower()`` equals a (pure-Latin) term lowers char-wise
    1:1 onto that term, which therefore appears verbatim as a token of
    ``text.lower()`` — disjoint proves the spec scan returns []. Expansion
    (İ→i+U+0307) and final-sigma context cases only produce non-term tokens on
    both paths. Pinned by the gated-vs-spec hypothesis differential in
    tests/test_toxicity.py."""
    if not text:
        return []
    if TOXIC_TERMS.isdisjoint(_WORD.findall(text.lower())):
        return []
    return _toxic_spans_scan(text)


def score_toxicity(
    text: str, min_hits: int = 2, min_ratio: float = 0.1, words: Optional[List[Word]] = None
) -> Tuple[int, float, bool]:
    """``(n_tox, tox_ratio, is_toxic)`` for one document: ``n_tox`` toxic
    tokens over the whitespace words. ``words`` is
    ``kernel.words.words_of(text)`` when the caller already has it."""
    # imported here: kernel.words imports TOXIC_TERMS and _WORD
    from vigil_ray.kernel.words import N_TOXIC, words_of

    if words is None:
        words = words_of(text)
    n_tox = sum(map(N_TOXIC, words))
    if n_tox == 0:
        return 0, 0.0, False
    ratio = round(n_tox / len(words), 6)
    return n_tox, ratio, (n_tox >= min_hits or ratio >= min_ratio)


def scrub_toxic(text: str, token: str = "[TOXIC]") -> str:
    """Mask every toxic token span; replacements run right-to-left so earlier
    offsets stay valid."""
    spans = toxic_spans(text)
    if not spans:
        return text
    out = text
    for start, end, _ in reversed(spans):
        out = out[:start] + token + out[end:]
    return out
