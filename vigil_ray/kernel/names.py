"""Person-name detection: strong-context heuristic (default) + NER helpers.

The heuristic path mirrors reference ``src/detector.py:223-268`` — it is the
deterministic CI/default mode (the reference itself degrades to it whenever
transformers is unavailable, src/detector.py:95-106): only names introduced by
an explicit strong context ("meu nome é ...", "CPF ... ,Name", "cidadão X",
"servidor X", ...) are accepted, at fixed confidence 0.80, after title-prefix
cleaning (src/detector.py:270-285) and validity filtering — 2..6 words, not an
institutional term (src/detector.py:287-321). Repetition in the name grammar
is bounded {1,5} to keep the regex linear-ish (anti-ReDoS,
src/detector.py:239).

Chunking for the (optional) NER path keeps the reference's exact scheme
(src/detector.py:164-179): short texts whole, medium texts split at the
midpoint, long texts as first 1500 + last 1500 chars (the middle is dropped —
signatures live at the ends; pinned by reference tests/test_integration.py:257-291).
"""

from __future__ import annotations

import re
from typing import List

from vigil_ray.config import NER_MAX_CHARS
from vigil_ray.kernel.exclusions import is_institutional_name
from vigil_ray.kernel.patterns import Detection
from vigil_ray.kernel.preprocess import fold_for_keywords, keyword_hits, keyword_index

_NAME_WORD = r"[A-Z][a-záàâãéêíóôõúç]+"
_FULL_NAME = _NAME_WORD + r"(?:\s+(?:de|da|do|das|dos|e)?\s*" + _NAME_WORD + r"){1,5}"

def _tail_keyword_anchored(low: str, index=None) -> bool:
    """Necessary condition for the ``NAME[,\\s]+(?:CPF|portador)`` template
    (the one grammar whose FIRST element is the backtracking name chain — an
    unanchored leading group makes ``finditer`` try the chain at every
    position, ~370 µs per gate-passing doc while every other template costs
    ~3 µs thanks to its literal keyword prefix).

    Any match must contain a case-insensitive keyword occurrence preceded by
    a ``[,\\s]+`` run, preceded by the name chain's LAST word (a letter run
    of ≥2 chars), preceded by whitespace, preceded by another letter (the
    chain is ``WORD (SEP WORD){1,5}`` — at least two words, and every SEP
    carries ≥1 whitespace even when its optional connector abuts the next
    word, so walking back from the keyword must cross letters→space→letter).
    ``fold_for_keywords`` is length-preserving (the İ pre-translate removes
    the only multi-char lower), so fold positions ARE text positions;
    ``str.isspace()`` / ``str.isalpha()`` are supersets of the regex's
    separator / word classes under IGNORECASE, so the probe can only
    over-fire — False proves ``finditer`` yields nothing, True falls through
    to the original scan. Pinned by the template-gate superset differential
    and the prefilter-free rerun differential in tests/test_properties.py.
    The keyword occurrences come from ``index`` (``keyword_index(low)``,
    built here when not given)."""
    if index is None:
        index = keyword_index(low)
    for q in keyword_hits(index, ("cpf", "portador")):
        i = q
        while i > 0 and (low[i - 1] == "," or low[i - 1].isspace()):
            i -= 1
        if i < q:  # ≥1 separator char
            j = i
            while j > 0 and low[j - 1].isalpha():
                j -= 1
            if i - j >= 2:  # last name word is [A-Z][a-z…]+ → ≥2 letters
                k = j
                while k > 0 and low[k - 1].isspace():
                    k -= 1
                if k < j and k > 0 and low[k - 1].isalpha():
                    return True
    return False


# Each grammar is paired with a cheap literal pre-gate: the grammar can only
# match when its anchor keyword occurs, and looking ASCII literals up in the
# page's keyword index (preprocess.keyword_index over one fold_for_keywords()
# copy) is far cheaper than the bounded name chain with IGNORECASE
# backtracking (rx 4 alone costs ~540 µs/doc ungated) or an IGNORECASE
# alternation search. fold containment is
# exactly re.IGNORECASE-equivalent for ASCII literals (preprocess.py); the
# first gate weakens r"meu\s+nome" to "meu" (a strict superset — gates are
# pure optimizations, any superset is sound). Never changes which documents
# match. The third tuple slot is an optional extra structural prefilter run
# after the keyword gate (same superset soundness contract).
_STRONG_CONTEXTS = tuple(
    (gate, re.compile(p, re.IGNORECASE), pre)
    for gate, p, pre in (
        (("meu",),
         r"(?:meu\s+nome\s+(?:é|completo\s+é))[:\s]+(" + _FULL_NAME + r")",
         None),
        (("nome",), r"(?:nome)[:\s]+(" + _FULL_NAME + r")", None),
        (("chamo",), r"(?:chamo-me|me\s+chamo)[:\s]+(" + _FULL_NAME + r")",
         None),
        (("cpf",), r"(?:CPF[:\s]*[\d.-]+[,\s]+)(" + _FULL_NAME + r")", None),
        (("cpf", "portador"), r"(" + _FULL_NAME + r")[,\s]+(?:CPF|portador)",
         _tail_keyword_anchored),
        (("cidad", "requerente", "solicitante"),
         r"(?:cidadão|cidadã|requerente|solicitante)[:\s]+(" + _FULL_NAME + r")",
         None),
        (("servidor", "funcion"),
         r"(?:servidor(?:a)?|funcionário(?:a)?)[:\s]+(" + _FULL_NAME + r")",
         None),
    )
)

# union of every per-template gate: one index lookup pass rejects all 7
# templates at once on keyword-free documents (most of a web corpus).
_ANY_CONTEXT_WORDS = (
    "nome", "chamo", "cpf", "portador", "cidad", "requerente",
    "solicitante", "servidor", "funcion",
)

_TITLE_PREFIXES = ("Dr", "Dra", "Sr", "Sra", "Prof", "Profa")


def clean_name(name: str) -> str:
    """Strip leading courtesy/title prefixes (Dr/Dra/Sr/Sra/Prof/Profa)."""
    if not name:
        return ""
    for prefix in _TITLE_PREFIXES:
        if name.startswith(prefix + " ") or name.startswith(prefix + ". "):
            name = name[len(prefix):].strip(". ")
    return name.strip()


def is_valid_person_name(name: str) -> bool:
    """2..6 words and not an institutional term."""
    if not name:
        return False
    words = name.strip().split()
    if len(words) < 2 or len(words) > 6:
        return False
    return not is_institutional_name(name.strip())


def find_names_heuristic(text: str, low=None, index=None) -> List[Detection]:
    """Strong-context name detection @0.80, case-insensitive dedup.

    The union gate, the per-template gates and the tail-keyword prefilter
    read the page's keyword index instead of probing the folded page once
    per word. A caller that has them passes ``low``
    (``fold_for_keywords(text)``) and ``index`` (``keyword_index(low)``);
    they are built here otherwise."""
    if low is None:
        low = fold_for_keywords(text)
    if index is None:
        index = keyword_index(low)
    if not any(w in index for w in _ANY_CONTEXT_WORDS):
        return []
    out: List[Detection] = []
    seen: set = set()
    for gate_words, rx, pre in _STRONG_CONTEXTS:
        if not any(w in index for w in gate_words):
            continue
        if pre is not None and not pre(low, index):
            continue
        for m in rx.finditer(text):
            name = clean_name(m.group(1).strip())
            if name and is_valid_person_name(name):
                key = name.lower()
                if key not in seen:
                    out.append(Detection("nome", name, 0.80, m.start(1), m.end(1)))
                    seen.add(key)
    return out


def split_ner_chunks(text: str, max_length: int = NER_MAX_CHARS) -> List[str]:
    """Reference chunking for model inference: whole / halves / ends-only."""
    if len(text) <= max_length:
        return [text]
    if len(text) <= max_length * 2:
        mid = len(text) // 2
        return [text[:mid], text[mid:]]
    return [text[:max_length], text[-max_length:]]
