"""The shared word pass (``kernel/words.py``) and the four kernels that read
it, against their whole-text specs.

The ``_spec_*`` functions below are the kernels as they were defined before
they shared one split of the page: each scans or lowers the whole text on
its own. The differentials pin ``quality_features``, ``classify``,
``score_toxicity`` and ``CharLM.score`` to them, called both with text
alone and with ``words_of(text)``, and pin the quality and toxicity columns
of ``DocumentOp`` to them. The alphabet holds the Unicode traps the
per-word argument rests on: the one multi-character lowering (U+0130), the
context-sensitive final sigma, the characters ``re.IGNORECASE`` folds
(U+212A, U+017F, U+0131), every kind of ``str.split()`` separator, the
script classes language ID counts, digits and underscores (``\\w`` but not
letters), the symbol-ratio marks, toxic terms glued to punctuation, and
stopwords.
"""

import re

import pyarrow as pa
from conftest import (
    char_lm_spec_score,
    dup_ngram_char_frac_spec,
    top_ngram_char_frac_spec,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from vigil_ray.config import PipelineConfig
from vigil_ray.kernel import langid as L
from vigil_ray.kernel import quality as Q
from vigil_ray.kernel.langid import classify
from vigil_ray.kernel.perplexity import CharLM, default_model
from vigil_ray.kernel.quality import quality_features, quality_rules
from vigil_ray.kernel.toxicity import TOXIC_TERMS, score_toxicity, scrub_toxic
from vigil_ray.kernel.words import words_of
from vigil_ray.stages.document import _FEATURES, DocumentOp

_LETTER = re.compile(r"[^\W\d_]")
_RUN = re.compile(r"[^\W\d_]+")
_TOKEN = re.compile(r"\w+")

# --- the whole-text specs ---------------------------------------------------


def _spec_entry(w):
    runs = [r.lower() for r in _RUN.findall(w)]
    langs = tuple(
        li for r in runs for li, lang in enumerate(L.STOPWORDS) if r in L.STOPWORDS[lang]
    )
    n_toxic = sum(1 for t in _TOKEN.findall(w) if t.lower() in TOXIC_TERMS)
    return (w.lower(), len(w), _LETTER.search(w) is not None, langs, len(runs), n_toxic)


def _spec_quality_features(text):
    """Every fraction computed unconditionally (no bigram gate)."""
    if not text or not text.strip():
        return dict(Q._EMPTY_FEATURES)
    words = text.split()
    n = len(words)
    lens = [len(w) for w in words]
    total = sum(lens)
    lowered = [w.lower() for w in words]
    n_symbols = len(re.findall(r"#|\.\.\.|…", text))
    dup_line_frac = 0.0
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if len(lines) > 1:
        counts = {}
        for ln in lines:
            counts[ln] = counts.get(ln, 0) + 1
        dup_line_frac = sum(c - 1 for c in counts.values() if c > 1) / len(lines)
    return {
        "n_chars": len(text),
        "n_words": n,
        "mean_word_len": round(total / n, 6),
        "symbol_to_word_ratio": round(n_symbols / n, 6),
        "alpha_word_frac": round(sum(1 for w in words if _LETTER.search(w)) / n, 6),
        "dup_line_frac": round(dup_line_frac, 6),
        "top2gram_frac": top_ngram_char_frac_spec(lowered, 2, total),
        "top3gram_frac": top_ngram_char_frac_spec(lowered, 3, total),
        "dup5gram_frac": dup_ngram_char_frac_spec(lowered, 5, lens, total),
        "has_stopword": any(w in Q._STOP_PROBE for w in lowered),
    }


def _spec_classify(text):
    """One whole-text token scan, one set-membership pass per language."""
    if not text:
        return ("und", 0.0)
    n_chars = len(text)
    kana = len(L._KANA.findall(text))
    cjk = len(L._CJK.findall(text))
    cyr = len(L._CYRILLIC.findall(text))
    if kana and (kana + cjk) / n_chars > 0.25:
        return ("ja", round((kana + cjk) / n_chars, 4))
    if cjk / n_chars > 0.25:
        return ("zh", round(cjk / n_chars, 4))
    if cyr / n_chars > 0.25:
        return ("ru", round(cyr / n_chars, 4))
    tokens = [t.lower() for t in _RUN.findall(text)]
    if not tokens:
        return ("und", 0.0)
    best_lang, best_hits = "und", 0
    for lang, stops in L.STOPWORDS.items():
        hits = sum(1 for t in tokens if t in stops)
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    if best_hits == 0:
        return ("und", 0.0)
    return (best_lang, round(best_hits / len(tokens), 4))


def _spec_score_toxicity(text, min_hits=2, min_ratio=0.1):
    """Toxic ``\\w+`` tokens of the whole text over its whitespace words."""
    n_tox = sum(1 for t in _TOKEN.findall(text) if t.lower() in TOXIC_TERMS)
    if n_tox == 0:
        return 0, 0.0, False
    n_words = len(text.split())
    ratio = round(n_tox / n_words, 6) if n_words else 0.0
    return n_tox, ratio, (n_tox >= min_hits or ratio >= min_ratio)


def _spec_ppl(lm, text):
    """The space-joined, lowered text through the per-char scorer."""
    norm = " ".join(text.split()).lower()
    return char_lm_spec_score(lm, norm) if norm else 0.0


# --- alphabet ---------------------------------------------------------------

_SEPS = [" ", "  ", "\t", "\n", "\n\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000"]
_TOKENS = [
    "İ", "İdiot", "ESTÚPİDO", "Σ", "ΑΣ", "ΟΣ'α", "σ", "ς", "ΣΑ", "\u212a", "ſ",
    "ſtupid", "ı", "ıdiot",
    "かな", "カタカナ", "中文", "言語", "Текст", "русском",
    "123", "9idiot", "idiot9", "_", "idiot_", "_idiot", "#", "##", "...", "....",
    "…", "a#a", "x…y",
    "IDIOTA,", "Idiota", "idiota", "Estúpido!", "hate.", "HATE", "lixo", "(moron)",
    "the", "THE", "The", "de", "la", "und", "der", "é", "não", "questo", "de-la",
    "the,and", "que", "casa",
]
_CHARS = sorted(set("".join(_TOKENS + _SEPS)))

_TOKEN_TEXT = st.lists(
    st.tuples(st.sampled_from(_TOKENS), st.sampled_from(_SEPS)), max_size=14
).map(lambda pairs: "".join(t + s for t, s in pairs))
_CHAR_TEXT = st.text(alphabet=st.sampled_from(_CHARS), max_size=60)
TEXT = st.one_of(_TOKEN_TEXT, _CHAR_TEXT, st.text(max_size=80))

# --- Unicode facts the per-word split rests on ------------------------------

_ALL = "".join(map(chr, range(0x110000)))
_SPACES = [c for c in _ALL if c.isspace()]


def test_split_separators_are_exactly_regex_whitespace():
    """``\\s`` is ``str.isspace`` over all of Unicode, and every separator is
    ``\\W``: no ``\\w+`` token or ``[^\\W\\d_]+`` run crosses a word."""
    assert re.findall(r"\s", _ALL) == _SPACES
    assert all(re.fullmatch(r"\W", c) for c in _SPACES)


def test_final_sigma_context_stops_at_whitespace():
    """No separator is cased or case-ignorable, so a sigma lowers the same
    in its word as in the whole text."""
    for s in _SPACES:
        assert ("AΣ" + s + "B").lower() == "aς" + s + "b", repr(s)
        assert ("A" + s + "Σ").lower() == "a" + s + "σ", repr(s)
        assert ("Σ" + s + "A").lower() == "σ" + s + "a", repr(s)


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_lowering_word_by_word_equals_whole_text(text):
    words = text.split()
    joined = " ".join(words).lower()
    assert [w.lower() for w in words] == (joined.split(" ") if words else [])


# --- the memo ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_words_of_matches_spec(text):
    assert words_of(text) == [_spec_entry(w) for w in text.split()]


# --- kernels against their whole-text specs ---------------------------------

_LM = default_model()


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_kernels_match_whole_text_specs(text):
    words = words_of(text)
    want = _spec_quality_features(text)
    assert quality_features(text) == want, repr(text)
    assert quality_features(text, words) == want, repr(text)
    want = _spec_classify(text)
    assert classify(text) == want, repr(text)
    assert classify(text, words) == want, repr(text)
    want = _spec_score_toxicity(text)
    assert score_toxicity(text) == want, repr(text)
    assert score_toxicity(text, 2, 0.1, words) == want, repr(text)
    want = _spec_ppl(_LM, text)
    assert _LM.score(text) == want, repr(text)
    assert _LM.score(text, words) == want, repr(text)


def test_fresh_model_scores_like_the_warm_one():
    lm = CharLM()  # empty memos: every segment and gram is a miss
    for text in ("ΑΣ the ΟΣ'α  idiota\tde-la", "a", "İ ı ſ K", "x" * 40):
        assert lm.score(text) == _spec_ppl(lm, text) == _LM.score(text), text


# --- DocumentOp's quality and toxicity columns ------------------------------

_CFG = PipelineConfig()


def _spec_rows(texts, parts):
    qcfg, tcfg = _CFG.quality, _CFG.toxicity
    rows = []
    for t in texts:
        page = t or ""
        row = {}
        if "quality" in parts:
            feats = _spec_quality_features(page)
            pred, lscore = _spec_classify(page)
            ppl = _spec_ppl(_LM, page)
            keep, reasons = quality_rules(feats, lscore, ppl, qcfg)
            row.update(lang_pred=pred, lang_score=lscore, ppl=ppl, keep=keep, drop_reasons=reasons)
            row.update({name: feats[name] for name in _FEATURES})
        if "toxicity" in parts:
            n_tox, ratio, toxic = _spec_score_toxicity(page, tcfg.min_hits, tcfg.min_ratio)
            row.update(n_tox=n_tox, tox_ratio=ratio, is_toxic=toxic)
            if "detect" not in parts:
                row["text_scrubbed"] = scrub_toxic(page, tcfg.scrub_token) if toxic else page
            if toxic and "keep" in row:
                row["keep"], row["drop_reasons"] = False, row["drop_reasons"] + ["toxicity"]
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(TEXT, st.none()), min_size=1, max_size=5),
    st.sampled_from([("quality",), ("toxicity",), ("quality", "toxicity"), ("quality", "detect", "toxicity")]),
)
def test_document_op_columns_match_specs(texts, parts):
    out = DocumentOp(_CFG, parts)(pa.table({"text": pa.array(texts, pa.string())}))
    want = _spec_rows(texts, parts)
    got = out.select(list(want[0])).to_pylist()
    assert got == want, (texts, parts)
