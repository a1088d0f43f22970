"""Unit tests for the north-rule quality kernels: langid, Gopher/C4 features,
char-LM perplexity, HTML extraction, text stats."""

import re

from conftest import dup_ngram_char_frac_spec, top_ngram_char_frac_spec

from vigil_ray.config import QualityConfig
from vigil_ray.kernel.html import extract_text, wrap_text
from vigil_ray.kernel.langid import classify
from vigil_ray.kernel.perplexity import CharLM, default_model
from vigil_ray.kernel.quality import quality_features, quality_rules
from vigil_ray.kernel.textstats import (
    count_ws_tokens,
    md5_hex,
    word_ngrams,
)


class TestLangId:
    def test_english(self):
        lang, score = classify(
            "the quick brown fox jumps over the lazy dog and runs to the river"
        )
        assert lang == "en" and score > 0.2

    def test_portuguese(self):
        lang, _ = classify(
            "o pedido de acesso à informação foi registrado no sistema e "
            "a resposta será enviada ao cidadão dentro do prazo"
        )
        assert lang == "pt"

    def test_spanish(self):
        lang, _ = classify(
            "el gobierno de la ciudad ha publicado un informe sobre la salud "
            "y la educación para todos los ciudadanos"
        )
        assert lang == "es"

    def test_german(self):
        lang, _ = classify(
            "die regierung hat einen bericht über die gesundheit und die "
            "bildung der stadt veröffentlicht und wird ihn prüfen"
        )
        assert lang == "de"

    def test_chinese_script(self):
        lang, score = classify("这是一个关于城市公共交通的报告内容非常详细")
        assert lang == "zh" and score > 0.9

    def test_empty_und(self):
        assert classify("") == ("und", 0.0)
        assert classify("12345 67890 %%%")[0] == "und"

    def test_deterministic(self):
        text = "the cat sat on the mat with a hat"
        assert classify(text) == classify(text)


class TestQualityFeatures:
    def test_word_counts(self):
        f = quality_features("one two three four five six")
        assert f["n_words"] == 6
        assert f["alpha_word_frac"] == 1.0

    def test_empty(self):
        f = quality_features("")
        assert f["n_words"] == 0 and f["n_chars"] == 0

    def test_repetition_flags(self):
        spam = "buy now " * 50
        f = quality_features(spam.strip())
        assert f["top2gram_frac"] > 0.5
        assert f["dup5gram_frac"] > 0.5

    def test_natural_text_low_repetition(self):
        f = quality_features(
            "the library opens at nine and students read many books about "
            "history science and the arts until the evening"
        )
        assert f["dup5gram_frac"] == 0.0

    def test_symbol_ratio(self):
        f = quality_features("spam ### text ... with ### symbols ...")
        assert f["symbol_to_word_ratio"] > 0.3

    def test_dup_lines(self):
        f = quality_features("same line\nsame line\nsame line\nother")
        assert f["dup_line_frac"] == 0.5

    def test_rules_keep_clean_doc(self):
        cfg = QualityConfig()
        f = quality_features(
            "people walk along the market street buying bread fruit and "
            "fresh vegetables from the farmers who arrive early"
        )
        keep, reasons = quality_rules(f, lang_score=0.4, perplexity=20.0, cfg=cfg)
        assert keep and reasons == []

    def test_rules_drop_short(self):
        cfg = QualityConfig()
        keep, reasons = quality_rules(
            quality_features("too short"), 0.5, 20.0, cfg
        )
        assert not keep and "too_few_words" in reasons

    def test_rules_drop_repetitive(self):
        cfg = QualityConfig()
        keep, reasons = quality_rules(
            quality_features(("buy now " * 50).strip()), 0.5, 20.0, cfg
        )
        assert not keep and "dup_5gram_repetition" in reasons

    def test_rules_drop_high_perplexity(self):
        cfg = QualityConfig()
        f = quality_features("normal length document with enough words here")
        keep, reasons = quality_rules(f, 0.5, 99999.0, cfg)
        assert not keep and "perplexity" in reasons


class TestPerplexity:
    def test_natural_lower_than_gibberish(self):
        lm = default_model()
        natural = lm.score("the people walk along the street in the morning")
        gibberish = lm.score("qzx jvk wqq pzzkt xjw qqq zzz kkk vvv www qqq")
        assert natural < gibberish

    def test_empty_zero(self):
        assert default_model().score("") == 0.0

    def test_deterministic_and_cached(self):
        a = default_model()
        b = default_model()
        assert a is b
        assert a.score("hello world") == CharLM().score("hello world")

    def test_portuguese_in_domain(self):
        lm = default_model()
        pt = lm.score("o cidadão recebeu a resposta dentro do prazo legal")
        junk = lm.score("ção ção ção xyzzy plugh 0101010101 %%%%% #####")
        assert pt < junk


class TestHtml:
    def test_roundtrip_byte_identical(self):
        for text in (
            "plain body text",
            "entities < > & preserved",
            "acentuação é mantida, ① stays raw here",
            "CPF 123.456.789-00 inside html",
        ):
            assert extract_text(wrap_text(text)) == text

    def test_script_and_style_dropped(self):
        html = (
            b"<html><head><script>var x=1;</script></head>"
            b"<body><style>p{}</style><p>keep this</p></body></html>"
        )
        assert extract_text(html) == "keep this"

    def test_block_tags_become_newlines(self):
        html = b"<body><p>one</p><p>two</p></body>"
        assert extract_text(html) == "one\ntwo"

    def test_empty(self):
        assert extract_text(b"") == ""


class TestTextStats:
    def test_ws_tokens(self):
        assert count_ws_tokens("one two  three") == 3
        assert count_ws_tokens("") == 0
        assert count_ws_tokens("   ") == 0

    def test_md5_matches_duckdb(self):
        import duckdb

        text = "hello fingerprint"
        assert (
            duckdb.sql(f"SELECT md5('{text}')").fetchone()[0] == md5_hex(text)
        )

    def test_word_ngrams(self):
        assert word_ngrams("a b c d", 3) == ["a b c", "b c d"]


class TestClassifyMaskDifferential:
    """The merged token→language-bitmask table must reproduce the original
    per-language set-scan algorithm exactly, including its tie-break (first
    language in STOPWORDS order wins on equal hit counts)."""

    @staticmethod
    def _classify_reference(text):
        from vigil_ray.kernel import langid as L

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
        tokens = [t.lower() for t in L._WORD.findall(text)]
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

    def test_differential_on_mixed_samples(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel.langid import STOPWORDS, classify

        shared = [w for w in ("de", "a", "la", "le", "e", "o", "un", "in")]
        vocab = shared + sorted(
            w for stops in STOPWORDS.values() for w in list(stops)[:12]
        ) + ["xyzzy", "Текст", "русском", "言語", "中文", "かな", "9", "#"]

        @settings(max_examples=500, deadline=None)
        @given(st.lists(st.sampled_from(vocab), max_size=25).map(" ".join))
        def check(text):
            assert classify(text) == self._classify_reference(text), text

        check()

    def test_tie_break_first_language_wins(self):
        from vigil_ray.kernel.langid import classify

        # 'la' is an es AND fr stopword; one hit each way — es precedes fr
        assert classify("la qwv")[0] == "es"


class TestWordProfileMemo:
    """kernel.words' memoized entry ≡ the inline lower()/len/letter-search
    spec, and the quality_features wiring over it stays identical to a
    memo-free rerun. (The entry's stopword and toxic fields are pinned in
    tests/test_words.py.)"""

    _ALPHA = re.compile(r"[^\W\d_]")

    def test_profile_matches_spec(self):
        from vigil_ray.kernel.words import words_of

        for w in [
            "word", "WORD", "Déjà", "123", "_", "a1", "１２３", "İ", "ı",
            "ſ", "x_y", "²", "①", "…", "ΑΣ", "ΟΣ", "ς",
        ]:
            (entry,) = words_of(w)
            assert entry[:3] == (w.lower(), len(w), self._ALPHA.search(w) is not None), w

    def test_quality_features_equal_memo_free(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel import quality as Q

        @settings(max_examples=300, deadline=None)
        @given(
            st.lists(
                st.sampled_from(
                    ["the", "THE", "casa", "１２３", "123", "_", "a#a",
                     "...", "x", "İx", "ſs", "linha\n", "dup dup"]
                ),
                max_size=12,
            ).map(" ".join)
        )
        def check(text):
            got = Q.quality_features(text)
            words = text.split()
            lowered = [w.lower() for w in words]
            assert got["alpha_word_frac"] == (
                round(sum(1 for w in words if self._ALPHA.search(w)) / len(words), 6)
                if words else 0.0
            ), text
            assert got["has_stopword"] == (not Q._STOP_PROBE.isdisjoint(lowered)), text
            if words:
                assert got["top2gram_frac"] == top_ngram_char_frac_spec(
                    lowered, 2, sum(len(w) for w in words)
                ), text

        check()

    def test_memo_cap_respected(self):
        from vigil_ray.kernel import words as W

        old_cap = W._WORD_MEMO_CAP
        try:
            W._WORD_MEMO_CAP = len(W._WORD_MEMO)  # full → no inserts
            before = len(W._WORD_MEMO)
            w = "Never-seen-word-%d" % before
            assert W.words_of(w)[0][:3] == (w.lower(), len(w), True)
            assert len(W._WORD_MEMO) == before
        finally:
            W._WORD_MEMO_CAP = old_cap


class TestNgramFracDifferential:
    """quality._ngram_fracs (one integer-id rank per order in numpy) must
    equal the Counter forms in conftest exactly, including the tie-break
    (Counter.most_common gives a count tie to the first-inserted gram)."""

    def test_differential_tie_heavy(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel import quality as Q

        # tiny vocab with UNEQUAL word lengths → frequent count ties between
        # grams of different char mass, where a wrong tie-break changes the
        # fraction
        vocab = ["a", "bb", "ccc", "dddd", "x"]

        @settings(max_examples=400, deadline=None)
        @given(st.lists(st.sampled_from(vocab), min_size=0, max_size=14))
        def check(words):
            lens = [len(w) for w in words]
            total = sum(lens)
            top2 = top_ngram_char_frac_spec(words, 2, total)
            expected = (
                (0.0, 0.0, 0.0)
                if top2 == 0.0
                else (
                    top2,
                    top_ngram_char_frac_spec(words, 3, total),
                    dup_ngram_char_frac_spec(words, 5, lens, total),
                )
            )
            assert Q._ngram_fracs(words, lens, total) == expected, words

        check()

    def test_lowered_lengths_and_unmemoized_words(self):
        """The top-gram mass counts *lowered* lengths ('İ' lowers to two
        chars), dup-5 and the total count the words' own; words past the
        memo cap get the same id wherever they recur on the page."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel import words as W

        vocab = ["\u0130", "i", "\u0130x", "\u0131s", "a", "bb", "\u212ak", "\u017f"]

        @settings(max_examples=300, deadline=None)
        @given(
            st.lists(st.sampled_from(vocab), max_size=16),
            st.integers(0, 10**9),
        )
        def check(words, salt):
            fresh = [f"{w}{salt}q" if w in ("a", "bb") else w for w in words]
            text = " ".join(fresh)
            lowered = [w.lower() for w in fresh]
            lens = [len(w) for w in fresh]
            total = sum(lens)
            old_cap = W._WORD_MEMO_CAP
            W._WORD_MEMO_CAP = len(W._WORD_MEMO)  # full → fresh words unstored
            try:
                got = quality_features(text)
            finally:
                W._WORD_MEMO_CAP = old_cap
            top2 = top_ngram_char_frac_spec(lowered, 2, total)
            assert got["top2gram_frac"] == top2, text
            if top2:
                assert got["top3gram_frac"] == top_ngram_char_frac_spec(
                    lowered, 3, total
                ), text
                assert got["dup5gram_frac"] == dup_ngram_char_frac_spec(
                    lowered, 5, lens, total
                ), text

        check()


class TestExtractGateDifferential:
    """The literal-probe gates in extract_text must be invisible: a gated-out
    sub returns its input unchanged, so the gated pipeline is byte-identical
    to running every sub unconditionally (the original spec, inlined here)."""

    @staticmethod
    def _extract_spec(html_bytes):
        import html as _htmlmod

        from vigil_ray.kernel import html as H

        if not html_bytes:
            return ""
        raw = html_bytes.decode("utf-8", errors="replace")
        raw = H._SCRIPT_STYLE.sub(" ", raw)
        raw = H._BR.sub("\n", raw)
        raw = H._BLOCK_CLOSE.sub("\n", raw)
        raw = H._TAG.sub("", raw)
        raw = _htmlmod.unescape(raw)
        lines = [ln.strip() for ln in raw.split("\n")]
        text = "\n".join(ln for ln in lines if ln)
        return H._BLANK_RUNS.sub("\n", text).strip()

    def test_differential_htmlish(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel.html import extract_text

        frags = [
            "<HEAD>x</head>", "<script>js</script>", "<Br/>", "<br >",
            "</p>", "</DIV>", "<p>", "texto", "a&amp;b", "&#10;", "linha um",
            " ", "\n", "123-456", "<b>bold</b>", "</br>", "&lt;tag&gt;",
            "<td>c</td>", "plain", "ação", "", "<style>s</style>",
        ]

        @settings(max_examples=400, deadline=None)
        @given(st.lists(st.sampled_from(frags), max_size=10).map("".join))
        def check(s):
            b = s.encode("utf-8")
            assert extract_text(b) == self._extract_spec(b), s

        check()


class TestTagSubDifferential:
    """extract_text strips tags only up to the last '>' (every tag match
    ends at one): equal to today's whole-text ``_TAG.sub`` on '<'/'>'-heavy
    pages, including '<' runs after the last '>'."""

    def test_differential_angle_heavy(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel import html as H

        frags = ["<", ">", "<<", ">>", "<b>", "a<b", "x>y", "</p>", "<br>",
                 " ", "\n", "texto", "&lt;", "<<<a", "é", "<\n>"]

        @settings(max_examples=400, deadline=None)
        @given(st.lists(st.sampled_from(frags), max_size=12).map("".join))
        def check(s):
            k = s.rfind(">") + 1
            assert H._TAG.sub("", s[:k]) + s[k:] == H._TAG.sub("", s), s
            b = s.encode("utf-8")
            assert extract_text(b) == TestExtractGateDifferential._extract_spec(b), s

        check()


class TestScriptStyleDifferential:
    """extract_text drops script/style/head blocks in linear time; equal to
    the ``_SCRIPT_STYLE.sub`` it replaces on pages mixing case, names nested in
    each other, closers of another name, unclosed openers and the
    characters re.IGNORECASE folds into the names' letters."""

    def test_differential_block_heavy(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel import html as H

        frags = ["<script>", "<SCRIPT a=1>", "<Script\n>", "<style>", "<STYLE>",
                 "<head>", "<HEAD x>", "<header>", "<scripts>", "<script-x>",
                 "</script>", "</SCRIPT >", "</Script\n>", "</style>", "</STYLE\t>",
                 "</head>", "</HEAD  >", "</heads>", "</scrip>", "<ſcript>",
                 "</ſcript>", "<scrİpt>", "</scrİpt>", "</scrıpt>", "<ſtyle>",
                 "</ſtyle>", "<script", "<style ", "x", "é", ">", "<", "</", " ",
                 "\n", "<p>", "</p>", "texto"]

        @settings(max_examples=800, deadline=None)
        @given(st.lists(st.sampled_from(frags), max_size=14).map("".join))
        def check(s):
            assert H._drop_script_style(s) == H._SCRIPT_STYLE.sub(" ", s), s
            b = s.encode("utf-8")
            assert extract_text(b) == TestExtractGateDifferential._extract_spec(b), s

        check()


class TestBigramGateDifferential:
    """quality_features' bigram-first gate (no repeated bigram ⇒ trigram and
    5-gram fractions are 0.0) must be invisible: the full feature dict
    equals computing every fraction unconditionally."""

    def test_differential_repetition_heavy(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from vigil_ray.kernel import quality as Q

        vocab = ["a", "bb", "ccc", "x", "yy"]

        @settings(max_examples=400, deadline=None)
        @given(st.lists(st.sampled_from(vocab), min_size=0, max_size=16).map(" ".join))
        def check(text):
            got = Q.quality_features(text)
            words = text.split()
            lowered = [w.lower() for w in words]
            lens = [len(w) for w in words]
            total = sum(lens)
            assert got["top2gram_frac"] == top_ngram_char_frac_spec(lowered, 2, total)
            assert got["top3gram_frac"] == top_ngram_char_frac_spec(lowered, 3, total)
            assert got["dup5gram_frac"] == dup_ngram_char_frac_spec(
                lowered, 5, lens, total
            ), text

        check()
