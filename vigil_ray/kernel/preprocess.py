"""Text normalization applied before every regex/NER layer.

Semantics match reference ``src/preprocessor.py:39-80`` exactly (pinned by its
``tests/test_preprocessor.py``): None/NaN -> '', non-str coerced, Unicode NFKC
(so ① -> 1, ﬁ -> fi — PDFs and legacy systems), control chars stripped while
keeping \\n and \\t, whitespace runs collapsed to one space, ends stripped.
Digits, punctuation, case and accents are preserved: every downstream pattern
assumes this normal form.
"""

from __future__ import annotations

import math
import re
import unicodedata
from itertools import chain
from typing import Dict, Iterable, List, Optional

import numpy as np

_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")
# canonical-whitespace probe: any \s char that is not a plain ASCII space
# (covers \t \n \r \x0b \x0c \x1c-\x1f \x85 \xa0 and the whole Unicode
# space block — [^\S ] is the exact complement construction) OR two adjacent
# spaces. Neither ⇒ every \s run in the text is exactly one " " ⇒ the
# collapse is the identity and its full rebuild is skipped.
# Differential-pinned in tests/test_properties.py.
_NONSPACE_WS = re.compile(r"[^\S ]")


def normalize_text(value: Optional[object]) -> str:
    """Normalize one raw value into the canonical detection form.

    Two C-level probes prove the whole-page regex scans empty (both facts
    are checked over every code point in tests/test_properties.py):

    - ``str.isprintable()``: no printable code point is in ``_CONTROL`` or
      in ``[^\\S ]`` (both classes are Unicode ``Cc``/``Z*`` characters
      other than the ASCII space), so a printable page's only whitespace is
      the space, and without a double space its collapse is ``strip()``;
    - ``\\s`` is ``str.isspace``, the set ``str.split()`` and ``str.strip()``
      use, so the collapse ``re.sub(r"\\s+", " ", v).strip()`` is
      ``" ".join(v.split())``.
    """
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if not isinstance(value, str):
        value = str(value)
    value = unicodedata.normalize("NFKC", value)
    if not value.isprintable():
        value = _CONTROL.sub("", value)
        if _NONSPACE_WS.search(value) is not None:
            return " ".join(value.split())
    # the only whitespace left is " ", and a lone space is its own collapse
    return " ".join(value.split()) if "  " in value else value.strip()


def is_latin1(text: str) -> bool:
    """Whether every code point of ``text`` is below U+0100 (a memcpy on a
    one-byte string). On such a page ``\\d`` is exactly ``0-9`` and no
    character of a non-Latin script occurs, which lets the detect and
    language kernels replace whole-page class scans with C ``str.find``
    probes."""
    try:
        text.encode("latin-1")
    except UnicodeEncodeError:
        return False
    return True


# --- exact keyword casefold -------------------------------------------------
#
# The detection gates (detector.could_have_pii, patterns._CTX_FAMILIES,
# names._ANY_CONTEXT) are boolean "does any keyword occur, case-insensitive"
# prefilters. One IGNORECASE alternation `re.search` costs ~30-60 µs per
# document; `keyword in text.lower()` is ~100× cheaper but NOT equivalent to
# re.IGNORECASE on three codepoints (exhaustively enumerated over all of
# Unicode, tests/test_properties.py (the fast-gate differentials)):
#
#   U+0130 İ  lower() = 'i'+U+0307 (the ONLY multi-char lower in Unicode) —
#             the combining dot breaks keyword adjacency; re.I folds İ→i
#   U+0131 ı  lower() = ı, but re.I folds ı→i (Turkic fold)
#   U+017F ſ  lower() = ſ, but re.I folds ſ→s (long s)
#
# Folding those three exactly as re does makes `in` containment IDENTICAL to
# re.IGNORECASE literal search for ASCII keywords. The rare-char probes keep
# the common path at a single lower() call.

_FOLD_PRE = {0x130: "i"}
_FOLD_POST = {0x131: "i", 0x17F: "s"}


def fold_for_keywords(text: str) -> str:
    """lower() variant under which ``kw in folded`` ≡ ``re.search(kw, text,
    re.IGNORECASE)`` for any ASCII-lowercase literal ``kw``."""
    if "İ" in text:
        text = text.translate(_FOLD_PRE)
    low = text.lower()
    if "ı" in low or "ſ" in low:
        low = low.translate(_FOLD_POST)
    return low


# --- one keyword index per page ---------------------------------------------
#
# Every keyword gate and keyword-anchored scan of the detect kernels reads
# one index of the folded page instead of probing it again with `in`/`find`
# (each probe walks the whole page: one `find` loop over all of these words
# costs ~230 µs on an 8.7 KB page, the index ~40). It holds each word of
# KEYWORDS with every start `p` where `low.startswith(word, p)`, so by the
# fold argument above each start is exactly where an IGNORECASE match of
# the word can start in the page. The words are the union of
# detector._CANDIDATE_WORDS, names._ANY_CONTEXT_WORDS and the name-template
# gates, patterns._PHONE_CTX_WORDS, "rg" and the patterns._CTX_FAMILIES gate
# words (tests/test_properties.py checks that every consumer's words are
# here).
KEYWORDS = (
    "nome", "chamo", "cidad", "requerente", "solicitante", "servidor",
    "funcion", "cpf", "portador", "meu", "minha", "sou", "fone", "telefone",
    "tel", "cel", "contato", "whats", "zap", "rg", "moro", "resido",
    "residente", "rua", "avenida", "quadra", "conjunto", "bloco", "lote",
    "apartamento", "apt", "cep",
)


# every word of three or more characters, under the 16-bit hash
# ((a << 10) ^ (b << 5) ^ c) & 0xFFFF of its first three code points
_BY_H3: Dict[int, tuple] = {}
for _w in KEYWORDS:
    if len(_w) >= 3:
        _k = ((ord(_w[0]) << 10) ^ (ord(_w[1]) << 5) ^ ord(_w[2])) & 0xFFFF
        _BY_H3[_k] = _BY_H3.get(_k, ()) + (_w,)
_H3_TABLE = np.zeros(1 << 16, np.bool_)
_H3_TABLE[list(_BY_H3)] = True
# numpy scalars: a Python int operand costs a conversion per array operation
_5, _10, _MASK = np.uint32(5), np.uint32(10), np.uint32(0xFFFF)
# the 2-gram hash (a << 5) ^ b of "rg", the one shorter word; a hit is
# verified, so the 2-gram hashes need no mask (one of "rg" is exact)
_RG = np.uint32((ord("r") << 5) ^ ord("g"))


def keyword_index(low: str) -> Dict[str, List[int]]:
    """``{word: every p with low.startswith(word, p), ascending}`` for the
    words of :data:`KEYWORDS` that occur in ``low``
    (``fold_for_keywords(text)``, whose positions are text positions).

    One vectorized pass: the page's code points hashed per 3-gram into a
    64K table of the words' first three characters; each table hit is
    verified with ``startswith``. A word starts only where its first three
    characters do, so no start is missed. "rg", the one shorter word, is
    found the same way from the 2-gram hashes."""
    u = np.frombuffer(low.encode("utf-32-le", "surrogatepass"), np.uint32)
    out: Dict[str, List[int]] = {}
    starts = low.startswith
    h2 = (u[:-1] << _5) ^ u[1:]
    rg = [p for p in (h2 == _RG).nonzero()[0].tolist() if starts("rg", p)]
    if rg:
        out["rg"] = rg
    h3 = (u[:-2] << _10) ^ h2[1:]
    h3 &= _MASK
    hit = _H3_TABLE.take(h3).nonzero()[0]
    for p, k in zip(hit.tolist(), h3[hit].tolist()):
        for w in _BY_H3[k]:
            if starts(w, p):
                out.setdefault(w, []).append(p)
    return out


def keyword_hits(index: Dict[str, List[int]], words: Iterable[str]) -> List[int]:
    """Every start of any of ``words`` in ``index``, ascending."""
    lists = [index[w] for w in words if w in index]
    if len(lists) == 1:
        return lists[0]
    return sorted(chain.from_iterable(lists))
