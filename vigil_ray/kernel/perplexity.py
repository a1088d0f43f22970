"""KenLM-style character n-gram perplexity scorer (deterministic stand-in).

CCNet/Gopher pipelines score documents with a 5-gram KenLM model; the binary
model and its training corpus are unavailable here, so this module implements
the same *shape* of scorer from scratch: an interpolated character n-gram
language model (orders 1..N, Jelinek-Mercer interpolation with add-k floor)
trained once from an embedded seed corpus. :func:`default_model` trains it
once per worker process, never per batch, where a real KenLM model would be
loaded; the per-document map (``vigil_ray.stages.document``) scores every
page with that instance.

Deterministic: fixed corpus, fixed weights, no RNG.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional

from vigil_ray.kernel.words import LOWER, Word, words_of

# Seed text: plain descriptive English + Portuguese prose (authored here, no
# external data) — enough to separate "natural language" from gibberish or
# heavy repetition by character statistics.
SEED_CORPUS = """
the quick brown fox jumps over the lazy dog while the river flows quietly
through the valley and the morning light falls on the old stone bridge .
people walk along the market street buying bread fruit and fresh vegetables
from the farmers who arrive early with their carts full of goods . the
library opens at nine and students read books about history science and the
arts until the evening bells ring across the quiet town square . weather in
the region changes slowly from warm summer days to cold winter nights and
the families gather around the fire telling stories of the past . the
government published a report about public health education and transport
that describes how the city plans to improve services for all citizens .
a solicitação de acesso à informação foi registrada no sistema eletrônico e
o cidadão recebeu a resposta dentro do prazo legal estabelecido pela lei .
os servidores públicos analisaram o pedido com atenção e encaminharam os
documentos solicitados ao requerente conforme as normas do governo federal .
a universidade oferece cursos de graduação e pesquisa científica para
estudantes de todas as regiões do país durante o ano letivo . informações
sobre saúde educação e transporte público estão disponíveis no portal da
transparência para consulta de qualquer pessoa interessada nos dados .
"""

_ORDER = 4
_LAMBDAS = (0.1, 0.2, 0.3, 0.4)  # weights for orders 1..4, sum to 1
_ADD_K = 0.01


class CharLM:
    """Interpolated character n-gram LM; `score` returns per-char perplexity."""

    def __init__(self, corpus: str = SEED_CORPUS, order: int = _ORDER):
        self.order = order
        text = " ".join(corpus.split()).lower()
        self._grams: List[Counter] = [Counter() for _ in range(order)]
        self._ctx: List[Counter] = [Counter() for _ in range(order)]
        padded = ("~" * (order - 1)) + text
        for i in range(order - 1, len(padded)):
            for n in range(1, order + 1):
                if i - n + 1 < 0:
                    continue
                gram = padded[i - n + 1 : i + 1]
                self._grams[n - 1][gram] += 1
                self._ctx[n - 1][gram[:-1]] += 1
        self._vocab = set(text)
        self._vsize = max(len(self._vocab), 1)
        self._unigram_total = sum(self._grams[0].values())
        # (context+char) → log-prob memo: natural text reuses 4-grams heavily,
        # so scoring amortizes to ~1 dict hit per char. Capped to bound memory.
        self._memo: Dict[str, float] = {}
        self._memo_cap = 1_000_000
        # (3-char left context, word, has-trailing-space) → (tuple of that
        # segment's per-gram log-probs, next left context). Natural text
        # reuses words heavily (Zipf), so scoring amortizes to ~1 dict hit
        # per WORD instead of per char; concatenating segment tuples in
        # document order reproduces the exact per-char lp sequence, so the
        # left-to-right float64 sum — and therefore the rounded perplexity —
        # is bit-identical to the scalar path (differential-tested in
        # tests/test_lm.py). Carrying the successor context in the memo value
        # removes the per-word string concat+slice on hits (32 → 19 µs/doc
        # measured). Capped like _memo.
        self._seg_memo: Dict[tuple, tuple] = {}
        self._seg_memo_cap = 500_000

    def _prob(self, context: str, ch: str) -> float:
        p = 0.0
        for n in range(1, self.order + 1):
            gram = (context[-(n - 1):] if n > 1 else "") + ch
            ctx = gram[:-1]
            if n == 1:
                num = self._grams[0][gram] + _ADD_K
                den = self._unigram_total + _ADD_K * self._vsize
            else:
                num = self._grams[n - 1][gram] + _ADD_K
                den = self._ctx[n - 1][ctx] + _ADD_K * self._vsize
            p += _LAMBDAS[n - 1] * (num / den)
        return p

    def score(self, text: str, words: Optional[List[Word]] = None) -> float:
        """Per-character perplexity of ``text`` under the model; 0.0 for empty.

        The text scored is ``" ".join(text.split()).lower()``: its words
        lowered, one space between them. ``words`` is
        ``kernel.words.words_of(text)`` when the caller already has it.
        """
        if words is None:
            words = words_of(text)
        if not words:
            return 0.0
        return self._score_segments(list(map(LOWER, words)))

    def _score_segments(self, words: List[str]) -> float:
        """Word-segment-memoized scoring of the space-joined lowered ``words``.

        Partitions the padded gram stream into (left-context, word,
        trailing-space) segments — the grams inside a segment depend only on
        the word's characters and the exact ``order-1`` characters before it,
        so a (ctx, word, trail) key is a sound memo key even when the context
        spans several short preceding words. Bit-identical to per-char
        scoring of the joined text (same lp sequence, same summation order;
        the spec is ``char_lm_spec_score`` in tests/conftest.py); ~1.6×
        faster on natural text where words repeat across documents.
        """
        get = self._seg_memo.get
        lps: list = []
        ext = lps.extend
        ctx = "~" * (self.order - 1)
        # a memo entry is a non-empty tuple, so `or` segments only on a miss
        for w in words[:-1]:  # every word but the last has a trailing space
            vals, ctx = get((ctx, w, True)) or self._segment(ctx, w, True)
            ext(vals)
        vals, _ = get((ctx, words[-1], False)) or self._segment(ctx, words[-1], False)
        ext(vals)
        return round(math.exp(-sum(lps) / len(lps)), 4)

    def _segment(self, ctx: str, w: str, trail: bool) -> tuple:
        """The (per-gram log-probs, next left context) memo entry of word
        ``w`` after left context ``ctx``: a gram per char of ``w`` (and of
        its trailing space), each with the ``order-1`` chars before it."""
        o = self.order
        seg = ctx + w + " " if trail else ctx + w
        memo = self._memo
        vals = []
        for j in range(len(seg) - o + 1):
            g = seg[j : j + o]
            lp = memo.get(g)
            if lp is None:
                lp = math.log(self._prob(g[:-1], g[-1]))
                if len(memo) < self._memo_cap:
                    memo[g] = lp
            vals.append(lp)
        entry = (tuple(vals), seg[-(o - 1):])
        if len(self._seg_memo) < self._seg_memo_cap:
            self._seg_memo[(ctx, w, trail)] = entry
        return entry


_cached: Dict[int, CharLM] = {}


def default_model() -> CharLM:
    """Process-level singleton (one build per worker, like the reference's
    module-level preprocessor cache, src/preprocessor.py:95-114)."""
    if _ORDER not in _cached:
        _cached[_ORDER] = CharLM()
    return _cached[_ORDER]
