"""One split of a page into whitespace words, shared by the word kernels.

``quality_features``, ``classify``, ``score_toxicity`` and ``CharLM.score``
each read a page word by word. :func:`words_of` splits the page once with
``str.split()`` and maps every word to one memoized entry that holds what
all four need, so the per-document map splits each page once and the four
kernels read the same list. A kernel called with text alone builds the list
itself; there is one implementation of each kernel either way.

An entry is a plain tuple (:data:`LOWER` ... :data:`N_TOXIC` read its
fields, and ``list(map(LOWER, words))`` is a column in C):

- the word's ``lower()``;
- its length;
- whether it has a letter (``[^\\W\\d_]``);
- the ``STOPWORDS`` language indexes of its lowered ``[^\\W\\d_]+`` runs,
  one per claiming language per run, and how many runs it has;
- how many of its ``\\w+`` tokens lower into ``TOXIC_TERMS``.

Why per-word results add up to the whole-text ones the kernels define:

- every ``str.split()`` separator is ``\\W`` (``\\s`` is ``str.isspace``
  over all of Unicode), so no ``[^\\W\\d_]+`` run or ``\\w+`` token crosses a
  word boundary;
- lowering word by word equals lowering the space-joined text: the only
  multi-character lowering (U+0130) is per character, and the final-sigma
  context stops at whitespace, which is neither cased nor case-ignorable.

Both facts are pinned over Unicode in ``tests/test_words.py``.

Natural text repeats words heavily (Zipf), so nearly every word is one dict
probe. The memo is capped like the ``CharLM`` memos; past the cap a new word
is analysed on every call and not stored.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Tuple

from vigil_ray.kernel.langid import _TOKEN_LANGS
from vigil_ray.kernel.langid import _WORD as _RUN
from vigil_ray.kernel.toxicity import TOXIC_TERMS
from vigil_ray.kernel.toxicity import _WORD as _TOKEN

Word = Tuple[str, int, bool, Tuple[int, ...], int, int]
LOWER, LENGTH, HAS_ALPHA, STOP_LANGS, N_RUNS, N_TOXIC = map(itemgetter, range(6))

_WORD_MEMO: Dict[str, Word] = {}
_WORD_MEMO_CAP = 1_000_000


def _entry(w: str) -> Word:
    low = w.lower()
    runs = [r.lower() for r in _RUN.findall(w)]
    e = (
        w if low == w else low,  # share the key string when lowering is a no-op
        len(w),
        bool(runs),  # a [^\W\d_] char starts a [^\W\d_]+ run
        tuple(li for r in runs for li in _TOKEN_LANGS.get(r, ())),
        len(runs),
        sum(t.lower() in TOXIC_TERMS for t in _TOKEN.findall(w)),
    )
    if len(_WORD_MEMO) < _WORD_MEMO_CAP:
        _WORD_MEMO[w] = e
    return e


def words_of(text: str) -> List[Word]:
    """The entry of every whitespace word of ``text``, in order."""
    # split() never yields "", so an entry is a non-empty tuple and `or`
    # reaches _entry only on a memo miss
    get = _WORD_MEMO.get
    return [get(w) or _entry(w) for w in text.split()]
