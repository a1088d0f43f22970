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
from typing import Optional

_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")
_WS_RUN = re.compile(r"\s+")
# canonical-whitespace probe: any \s char that is not a plain ASCII space
# (covers \t \n \r \x0b \x0c \x1c-\x1f \x85 \xa0 and the whole Unicode
# space block — [^\S ] is the exact complement construction) OR two adjacent
# spaces. Neither ⇒ every \s run in the text is exactly one " " ⇒ the
# \s+→" " sub is the identity and its full rebuild (~15 µs/doc, the single
# most expensive line of normalize_text) is skipped. The double-space test
# is a C substring search, and one [^\S ] class scan costs about a third of
# one scan for the `[^\S ]| {2,}` alternation (74 vs 263 µs on an 8.7 KB
# page, in process). Differential-pinned in tests/test_properties.py.
_NONSPACE_WS = re.compile(r"[^\S ]")


def normalize_text(value: Optional[object]) -> str:
    """Normalize one raw value into the canonical detection form."""
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if not isinstance(value, str):
        value = str(value)
    value = unicodedata.normalize("NFKC", value)
    value = _CONTROL.sub("", value)
    if "  " in value or _NONSPACE_WS.search(value) is not None:
        value = _WS_RUN.sub(" ", value)
    return value.strip()


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
