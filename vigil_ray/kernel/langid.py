"""Heuristic language identification (fastText-style stand-in).

A deterministic, dependency-free scorer in the spirit of fastText langid
(Joulin et al. 2016): per-language evidence from (a) stopword hit-rate over
whitespace tokens and (b) character-class signals (CJK, hiragana/katakana,
Cyrillic, language-specific diacritics). Supported: en pt es de fr it zh ja ru.

A real model would be loaded once per worker process, like
``kernel.perplexity.default_model``, and called from the per-document map
(``vigil_ray.stages.document``); the scoring function here is the
deterministic CI substitute, as the reference's own degrade-to-heuristic
policy models (reference src/detector.py:95-106).
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from vigil_ray.kernel.words import Word

_WORD = re.compile(r"[^\W\d_]+", re.UNICODE)

STOPWORDS: Dict[str, frozenset] = {
    "en": frozenset(
        "the of and to in a is that it for on with as are was be this at by an "
        "from or have not but what all were when we there can more if will one "
        "you her his they which she do how their has would about".split()
    ),
    "pt": frozenset(
        "de a o que e do da em um para é com não uma os no se na por mais as "
        "dos como mas foi ao ele das tem à seu sua ou ser quando muito há nos "
        "já está eu também só pelo pela até isso ela entre era depois sem "
        "mesmo aos ter seus quem nas me esse eles estão você tinha foram essa "
        "num nem suas meu às minha têm numa pelos elas havia seja qual será "
        "nós tenho lhe deles essas esses pelas este fosse dele".split()
    ),
    "es": frozenset(
        "de la que el en y a los del se las por un para con no una su al lo "
        "como más pero sus le ya o este sí porque esta entre cuando muy sin "
        "sobre también me hasta hay donde quien desde todo nos durante todos "
        "uno les ni contra otros ese eso ante ellos e esto mí antes algunos "
        "qué unos yo otro otras otra él tanto esa estos mucho quienes nada "
        "muchos cual poco ella estar estas algunas algo nosotros".split()
    ),
    "de": frozenset(
        "der die und in den von zu das mit sich des auf für ist im dem nicht "
        "ein eine als auch es an werden aus er hat dass sie nach wird bei "
        "einer um am sind noch wie einem über einen so zum war haben nur oder "
        "aber vor zur bis mehr durch man sein wurde sei".split()
    ),
    "fr": frozenset(
        "de la le et les des en un du une que est pour qui dans a par plus "
        "pas au sur ne se ce il sont la avec son être mais comme ou si leur "
        "y ont ces elle au aux cette ses tout nous sa votre fait été aussi "
        "bien où sans peut tous après avoir deux même lui".split()
    ),
    "it": frozenset(
        "di e il la che in a per è un non sono con si da come le dei i al "
        "una del più nel alla lo gli ma se ha anche questo della nella "
        "questa suo essere hanno loro".split()
    ),
}

# merged stopword table: token → tuple of language indexes claiming it (a
# token like "de" belongs to several). Built once at import; kernel.words
# probes it once per token when it first sees a word, so classify() only
# counts the languages its words already carry.
_LANGS = tuple(STOPWORDS)
_TOKEN_LANGS: Dict[str, tuple] = {}
for _li, _lang in enumerate(_LANGS):
    for _w in STOPWORDS[_lang]:
        _TOKEN_LANGS[_w] = _TOKEN_LANGS.get(_w, ()) + (_li,)

_CJK = re.compile(r"[一-鿿]")
_KANA = re.compile(r"[぀-ヿ]")
_CYRILLIC = re.compile(r"[Ѐ-ӿ]")
# union of the three script classes: ONE search() gates the three findall()
# scans — Latin-only documents (the overwhelming majority of a web corpus)
# pay a single short-circuiting scan instead of three full ones (4.9 →
# 1.6 µs/doc measured). search() missing ⇒ all three findalls are empty,
# so kana = cjk = cyr = 0 exactly.
_ANY_SCRIPT = re.compile(r"[一-鿿぀-ヿЀ-ӿ]")


def classify(text: str, words: Optional[List[Word]] = None) -> Tuple[str, float]:
    """Return ``(lang_pred, lang_score)``; ``("und", 0.0)`` for empty input.

    Score is in [0,1]: for script-based languages the matching-char fraction,
    for Latin-script languages the best stopword hit-rate over the
    ``[^\\W\\d_]+`` tokens. ``words`` is ``kernel.words.words_of(text)``
    when the caller already has it.
    """
    if not text:
        return ("und", 0.0)
    n_chars = len(text)
    if _ANY_SCRIPT.search(text) is not None:
        kana = len(_KANA.findall(text))
        cjk = len(_CJK.findall(text))
        cyr = len(_CYRILLIC.findall(text))
        if kana and (kana + cjk) / n_chars > 0.25:
            return ("ja", round((kana + cjk) / n_chars, 4))
        if cjk / n_chars > 0.25:
            return ("zh", round(cjk / n_chars, 4))
        if cyr / n_chars > 0.25:
            return ("ru", round(cyr / n_chars, 4))

    # imported here: kernel.words imports this module's tables
    from vigil_ray.kernel.words import N_RUNS, STOP_LANGS, words_of

    if words is None:
        words = words_of(text)
    # every word carries its tokens' stopword languages: counting them is
    # one C-level pass over the page's words, with no probe per token
    hits = Counter(chain.from_iterable(map(STOP_LANGS, words)))
    if not hits:
        return ("und", 0.0)
    best_hits = max(hits.values())
    # tie-break: the first language in STOPWORDS order
    best = min(li for li, c in hits.items() if c == best_hits)
    return (_LANGS[best], round(best_hits / sum(map(N_RUNS, words)), 4))
