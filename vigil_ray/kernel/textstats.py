"""Text analysis primitives: token counting and document fingerprinting.

Token counting is a whitespace tokenizer (the SQL-oracle-friendly count).
The fingerprint is an md5 content hash (exact dedup key, matches DuckDB
``md5()``); word n-grams feed the shingle-based dedup operators.
"""

from __future__ import annotations

import hashlib
import re
from typing import List

_WS_TOKEN = re.compile(r"\S+")


def count_ws_tokens(text: str) -> int:
    """Whitespace token count (0 for empty/blank)."""
    if not text:
        return 0
    return len(_WS_TOKEN.findall(text))


def md5_hex(text: str) -> str:
    """Content hash matching DuckDB's ``md5(text)``."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def word_ngrams(text: str, n: int = 3) -> List[str]:
    """Word n-grams (space-joined) of the lowercased text."""
    words = text.lower().split()
    if len(words) < n:
        return [" ".join(words)] if words else []
    return [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
