"""Property-based tests (hypothesis): kernel invariants under arbitrary text."""

from hypothesis import given, settings
from hypothesis import strategies as st

from vigil_ray.kernel.detector import (
    analyze_document,
    could_have_pii,
    detect_pii,
    scrub_text,
)
from vigil_ray.kernel.preprocess import normalize_text
from vigil_ray.kernel.quality import quality_features
from vigil_ray.kernel.textstats import count_ws_tokens

TEXTISH = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs",)
    ),
    max_size=400,
)


@settings(max_examples=300, deadline=None)
@given(TEXTISH)
def test_prefilter_is_conservative(text):
    """could_have_pii(normalized)=False ⇒ detect_pii is provably empty."""
    clean = normalize_text(text)
    if clean and not could_have_pii(clean):
        res = detect_pii(text)
        assert res["contem_pii"] is False
        assert res["tipos_detectados"] == []


@settings(max_examples=200, deadline=None)
@given(TEXTISH)
def test_analyze_equals_layered(text):
    res, scrub = analyze_document(text)
    expected = detect_pii(text)
    assert res == expected
    clean = normalize_text(text)
    assert scrub == (scrub_text(clean) if expected["contem_pii"] else clean)


@settings(max_examples=200, deadline=None)
@given(TEXTISH)
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@settings(max_examples=200, deadline=None)
@given(TEXTISH)
def test_quality_features_bounded(text):
    f = quality_features(text)
    for key in (
        "symbol_to_word_ratio",
        "alpha_word_frac",
        "dup_line_frac",
        "top2gram_frac",
        "top3gram_frac",
        "dup5gram_frac",
    ):
        assert f[key] >= 0.0
    for key in ("alpha_word_frac", "dup_line_frac", "top2gram_frac",
                "top3gram_frac", "dup5gram_frac"):
        assert f[key] <= 1.0
    assert f["n_words"] == count_ws_tokens(text.strip() if text else "")


@settings(max_examples=150, deadline=None)
@given(TEXTISH)
def test_scrub_deterministic_and_detection_free(text):
    clean = normalize_text(text)
    a, b = scrub_text(clean), scrub_text(clean)
    assert a == b
    # structured PII never survives scrubbing
    from vigil_ray.kernel.patterns import find_scrub_spans

    for d in find_scrub_spans(a):
        # any remaining span must come from the placeholder text itself
        assert "[" in a or d.valor not in clean


@settings(max_examples=200, deadline=None)
@given(TEXTISH)
def test_toxicity_scrub_removes_all_hits(text):
    """After scrub_toxic, no toxic token remains, and clean text is
    byte-identical (the mask touches exactly the toxic spans)."""
    from vigil_ray.kernel.toxicity import score_toxicity, scrub_toxic, toxic_spans

    masked = scrub_toxic(text)
    assert toxic_spans(masked) == []
    assert score_toxicity(masked)[0] == 0
    if not toxic_spans(text):
        assert masked == text


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**17))
def test_luhn_check_digit_roundtrip(n):
    """For any digit prefix there is exactly one Luhn-valid check digit."""
    from vigil_ray.kernel.patterns import luhn_valid

    prefix = str(n)
    valid = [d for d in "0123456789" if luhn_valid(prefix + d)]
    assert len(valid) == 1


@settings(max_examples=100, deadline=None)
@given(TEXTISH)
def test_card_detection_only_luhn_valid(text):
    from vigil_ray.kernel.patterns import find_card, luhn_valid, _DIGITS_ONLY

    for d in find_card(text):
        digits = _DIGITS_ONLY.sub("", d.valor)
        assert 13 <= len(digits) <= 19 and luhn_valid(digits)
        assert text[d.start : d.end] == d.valor


# adversarial PII-shaped fragments: random unicode almost never produces the
# keyword-anchored templates (RG--, name-next-to-CPF, overlapping spans), so
# compose texts from the anchors the regex banks key on
_PII_FRAGMENTS = st.lists(
    st.sampled_from(
        [
            "RG", "rg", "CPF", "portador", "nome", "Maria Silva",
            "123.456.789-00", "12 3456-7890", "3456-7890", "12.345.678-9",
            "--", "..", ":", " ", ", ", "x", "(61)", "99999-8888",
            "user@example.test", "SSN", "123-45-6789",
        ]
    ),
    min_size=1,
    max_size=8,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(_PII_FRAGMENTS)
def test_prefilter_conservative_on_pii_shaped(text):
    clean = normalize_text(text)
    if clean and not could_have_pii(clean):
        res = detect_pii(text)
        assert res["contem_pii"] is False, text


@settings(max_examples=300, deadline=None)
@given(_PII_FRAGMENTS)
def test_analyze_equals_layered_on_pii_shaped(text):
    res, scrub = analyze_document(text)
    assert res == detect_pii(text), text
    assert scrub == scrub_text(normalize_text(text)), text


def test_partial_overlap_never_leaks():
    """A span partially overlapping a kept one must extend the redacted
    region — its non-overlapped tail is detected PII and may not survive
    scrubbing (regression: 'RG 12 3456-7890' once left '3456-7890')."""
    res, scrub = analyze_document("RG 12 3456-7890")
    assert "telefone" in res["tipos_detectados"]
    assert "3456" not in scrub and "7890" not in scrub, scrub


def test_digit_free_rg_keeps_fused_path_equal():
    """RX_RG matches dots/hyphens alone; the prefilter must anchor on the
    keyword so the fused path cannot short-circuit (regression: 'RG--')."""
    res, scrub = analyze_document("RG--")
    assert res == detect_pii("RG--")
    assert res["contem_pii"] is True and scrub == "[RG]"


# --- fast-gate ≡ regex-spec differentials -----------------------------------
# The keyword gates (detector.could_have_pii, patterns._CTX_FAMILIES,
# names._ANY_CONTEXT) are evaluated as literal `in` probes over ONE
# fold_for_keywords() copy instead of IGNORECASE alternation searches
# (~30-60 µs/doc → ~2 µs/doc; they run on EVERY document). These tests pin
# the fast path to the original compiled-regex spec, including the three
# Unicode fold divergences (İ ı ſ) where str.lower() and re.IGNORECASE
# disagree.

import re as _re

from vigil_ray.kernel.preprocess import fold_for_keywords

# The spec of detector.could_have_pii: one IGNORECASE alternation search.
_CANDIDATE = _re.compile(
    r"[\d@①-⓿０-９²³¹⁰-⁹₀-₉]"
    r"|nome|chamo|cidad|requerente|solicitante|servidor|funcion"
    # the '(name)[,\s]+(?:CPF|portador)' template can fire on a digit-free
    # doc ('Maria Silva, portador'), so its anchors must be candidates too
    # (mirrors names.py _ANY_CONTEXT)
    r"|cpf|portador"
    # RX_RG's value class [\d.-]+ is satisfiable by dots/hyphens alone
    # ('RG--'), so the digit test doesn't cover it — anchor on the keyword
    r"|\brg\b",
    _re.IGNORECASE,
)

# texts biased to straddle the gate boundaries: keyword fragments, the three
# divergent codepoints, digit lookalikes, and plain filler
_GATEISH = st.lists(
    st.sampled_from(
        [
            "nome", "NOME", "chamo", "cidad", "cİdad", "requerente",
            "ſolicitante", "ſervidor", "funcİon", "cpf", "CPF", "portador",
            "rg", "RG", "argh", "ergo", "İ", "ı", "ſ", "x", "ó", "…",
            "q", "0", "①", "９", "²", "@", " ", "-", ".", "meu", "mİnha",
            "sou", "moro", "rua", "CEP", "apt", "contato", "whatſ", "zap",
            "fone", "cel", "reſido",
        ]
    ),
    max_size=10,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_GATEISH)
def test_could_have_pii_matches_candidate_spec(text):
    assert could_have_pii(text) == (
        bool(text) and _CANDIDATE.search(text) is not None
    ), text


@settings(max_examples=300, deadline=None)
@given(TEXTISH)
def test_could_have_pii_matches_candidate_spec_arbitrary(text):
    assert could_have_pii(text) == (
        bool(text) and _CANDIDATE.search(text) is not None
    ), text


_CTX_GATE_SPECS = {
    "contexto_1pessoa": _re.compile(r"meu|minha|sou|chamo|nome", _re.IGNORECASE),
    "endereco": _re.compile(
        r"moro|resido|residente|rua|avenida|quadra|conjunto|bloco|lote"
        r"|apartamento|apt|CEP",
        _re.IGNORECASE,
    ),
    "contato": _re.compile(r"contato|whats|zap|fone|telefone|cel", _re.IGNORECASE),
}


@settings(max_examples=400, deadline=None)
@given(_GATEISH)
def test_ctx_gate_words_match_regex_spec(text):
    from vigil_ray.kernel.patterns import _CTX_FAMILIES

    low = fold_for_keywords(text)
    for tipo, _label, _conf, gate_words, _guards in _CTX_FAMILIES:
        spec = _CTX_GATE_SPECS[tipo]
        assert any(w in low for w in gate_words) == bool(spec.search(text)), (
            tipo,
            text,
        )


_NAMES_ANY_SPEC = _re.compile(
    r"nome|chamo|CPF|portador|cidad|requerente|solicitante|servidor|funcion",
    _re.IGNORECASE,
)


@settings(max_examples=400, deadline=None)
@given(_GATEISH)
def test_names_any_gate_matches_regex_spec(text):
    from vigil_ray.kernel.names import _ANY_CONTEXT_WORDS

    low = fold_for_keywords(text)
    assert any(w in low for w in _ANY_CONTEXT_WORDS) == bool(
        _NAMES_ANY_SPEC.search(text)
    ), text


@settings(max_examples=400, deadline=None)
@given(_GATEISH)
def test_names_template_gates_are_supersets(text):
    """Each per-template literal gate must fire whenever its template can
    match (gates are pure optimizations — any superset is sound; gate 1
    deliberately weakens r'meu\\s+nome' to 'meu')."""
    from vigil_ray.kernel.names import _STRONG_CONTEXTS

    low = fold_for_keywords(text)
    for gate_words, rx, pre in _STRONG_CONTEXTS:
        if rx.search(text):
            assert any(w in low for w in gate_words), (rx.pattern, text)
            if pre is not None:
                assert pre(low), (rx.pattern, text)


# texts biased at the tail-keyword prefilter's boundary: names (valid and
# not), the [,\s]+ separator run in several widths/characters, keyword case
# variants, the divergent codepoints, and keyword occurrences with NO name
# before them (the prefilter's reject side)
_TAILISH = st.lists(
    st.sampled_from(
        [
            "Maria Silva", "João de Souza", "ana", "X", "á", "KK",
            ",", " ", ", ", ",\t", " ", " ", ",,", "  ,  ",
            "CPF", "cpf", "Cpf", "portador", "PORTADOR", "portadora",
            "cpf:", "1cpf", "-cpf", "İ", "ı", "ſ", "ſervidor",
            "123.456.789-00", "texto", "",
        ]
    ),
    max_size=8,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_TAILISH)
def test_names_tail_prefilter_is_necessary(text):
    """_tail_keyword_anchored(fold(text)) must be True whenever the
    NAME[,\\s]+(?:CPF|portador) template matches — a False probe is the
    license to skip that finditer entirely."""
    from vigil_ray.kernel.names import _STRONG_CONTEXTS, _tail_keyword_anchored

    rx = next(r for _g, r, p in _STRONG_CONTEXTS if p is _tail_keyword_anchored)
    if rx.search(text):
        assert _tail_keyword_anchored(fold_for_keywords(text)), text


@settings(max_examples=300, deadline=None)
@given(_TAILISH)
def test_names_heuristic_equals_prefilter_free_scan(text):
    """find_names_heuristic with the structural prefilters vs a prefilter-free
    rerun of the same template loop — identical Detection lists."""
    from vigil_ray.kernel import names as N

    low = fold_for_keywords(text)
    expected = []
    seen = set()
    if any(w in low for w in N._ANY_CONTEXT_WORDS):
        for gate_words, rx, _pre in N._STRONG_CONTEXTS:
            if not any(w in low for w in gate_words):
                continue
            for m in rx.finditer(text):
                name = N.clean_name(m.group(1).strip())
                if name and N.is_valid_person_name(name):
                    key = name.lower()
                    if key not in seen:
                        expected.append(
                            N.Detection("nome", name, 0.80, m.start(1), m.end(1))
                        )
                        seen.add(key)
    assert N.find_names_heuristic(text) == expected, text


def test_fold_for_keywords_divergent_codepoints():
    """The three enumerated str.lower()/re.IGNORECASE divergences."""
    assert "cidad" in fold_for_keywords("cİdad")          # İ → i (multi-char lower)
    assert "i" in fold_for_keywords("ı")                   # ı → i (Turkic fold)
    assert "s" in fold_for_keywords("ſ")                   # ſ → s (long s)
    assert fold_for_keywords("NOME é X") == "nome é x"


# scan_document (the guarded hot path) vs the unguarded per-type wrappers:
# the literal necessary-condition guards added to scan_document must never
# change which matches are produced. The wrappers are independent (guard-free)
# implementations of each layer, so any unsound guard shows up as a missing
# detection here.
_SCANISH = st.lists(
    st.sampled_from(
        [
            "123.456.789-00", "123456789-00", "CPF: 12345678908",
            "user@example.test", "(61) 99999-8888", "+55 11 98888-7777",
            "61 99999 8888", "fone: 61 99999-8888", "whatſ: 61 99999 8888",
            "RG: 12.345.678-9", "rG--", "123-45-6789",
            "4111 1111 1111 1111", "SEI 00015-12345678/2026-01",
            "NIS: 98765432165", "texto", "İ", "ı", "ſ", ".", "-", "(", "+",
            "@", "tel", "cpf", "9",
            # Unicode Nd digits: the \\d-class digit-count guard must count
            # them (an ASCII-only count would unsoundly skip these scans)
            "ＣＰＦ: ９９９９９９９９９９９", "４１１１ １１１１ １１１１ １１１１",
            "９９ ９９９９９ ９９９９",
        ]
    ),
    max_size=8,
).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(_SCANISH)
def test_scan_layers_equal_unguarded_wrappers(text):
    from vigil_ray.kernel import patterns as P

    dets, _spans = P.scan_document(text)
    by_tipo = {}
    for d in dets:
        by_tipo.setdefault(d.tipo, []).append(d)
    assert by_tipo.get("cpf", []) == P.find_cpf(text), text
    assert by_tipo.get("email", []) == P.find_email(text), text
    assert by_tipo.get("telefone", []) == P.find_phone(text), text
    assert by_tipo.get("rg", []) == P.find_rg(text), text
    assert by_tipo.get("ssn", []) == P.find_ssn(text), text
    assert by_tipo.get("cartao", []) == P.find_card(text), text


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["a", " ", "  ", "\t", "\n", "\xa0", " ", " ", "\x85",
             "b c", "١٢", "ﬁ", "①", "\x1c", "x\x00y"]
        ),
        max_size=12,
    ).map("".join)
)
def test_normalize_ws_gate_differential(text):
    """The canonical-whitespace gate (skip the \\s+→' ' sub when no non-space
    whitespace and no double space exists) must be invisible — compare
    against the unconditional spec across every Unicode \\s category."""
    import re
    import unicodedata

    from vigil_ray.kernel import preprocess as P

    spec = unicodedata.normalize("NFKC", text)
    spec = P._CONTROL.sub("", spec)
    spec = P._WS_RUN.sub(" ", spec).strip()
    assert normalize_text(text) == spec


# --- windowed scan ≡ whole-text scan ----------------------------------------
# scan_document runs each digit pattern per digit window, each keyword pattern
# at its keyword hits and RX_EMAIL once per '@'; find_contextual searches from
# a family's first gate hit. The spec is the whole-text scan those replace:
# every pattern's finditer over the full text, behind the same guards.


def _scan_document_spec(text):
    from vigil_ray.kernel import patterns as P

    if not text:
        return [], []
    detections, spans = [], []
    has_hyphen = "-" in text
    low = fold_for_keywords(text)
    n_digits = sum(m.end() - m.start() for m in P._DIGIT_RUNS.finditer(text))

    def emit(d, key=None, seen=None):
        spans.append(d)
        if seen is None or key not in seen:
            detections.append(d)
            if seen is not None:
                seen.add(key)

    seen_cpf = set()
    if has_hyphen and n_digits >= 11:
        for rx, conf in ((P.RX_CPF_FMT, 0.95), (P.RX_CPF_PART, 0.90)):
            for m in rx.finditer(text):
                if not P._in_sei_window(text, m.start()):
                    d = P.Detection("cpf", m.group(), conf, m.start(), m.end())
                    emit(d, P._DIGITS_ONLY.sub("", m.group()), seen_cpf)
    if n_digits >= 11 and "cpf" in low:
        for m in P.RX_CPF_NUM.finditer(text):
            if not P._in_not_cpf_window(text, m.start()):
                emit(P.Detection("cpf", m.group(1), 0.90, m.start(1), m.end(1)))
    for m in P.RX_EMAIL.finditer(text):
        emit(P.Detection("email", m.group(), 0.95, m.start(), m.end()))
    seen_phone = set()
    for rx, conf in (
        (P.RX_PHONE_PAREN, 0.95),
        (P.RX_PHONE_INTL, 0.95),
        (P.RX_PHONE_CTX, 0.90),
        (P.RX_PHONE_BARE, 0.80),
    ):
        for m in rx.finditer(text):
            digits = P._DIGITS_ONLY.sub("", m.group())
            if len(digits) >= 10:
                d = P.Detection("telefone", m.group(), conf, m.start(), m.end())
                emit(d, digits, seen_phone)
    for m in P.RX_RG.finditer(text):
        emit(P.Detection("rg", m.group(), 0.85, m.start(), m.end()))
    for m in P.RX_SSN.finditer(text):
        emit(P.Detection("ssn", m.group(), 0.95, m.start(), m.end()))
    seen_card = set()
    for m in P.RX_CARD.finditer(text):
        if P._card_accept(text, m):
            d = P.Detection("cartao", m.group(), 0.95, m.start(), m.end())
            emit(d, P._DIGITS_ONLY.sub("", m.group()), seen_card)
    return detections, spans


def _find_contextual_spec(text):
    from vigil_ray.kernel import patterns as P

    out = []
    for tipo, label, conf, _gate, guards in P._CTX_FAMILIES:
        for g in guards:
            m = g.search(text)
            if m:
                out.append(P.Detection(tipo, label, conf, m.start(), m.end()))
                break
    return out


# the IGNORECASE folds of [a-z] (U+212A Kelvin, U+017F long s, U+0130 İ,
# U+0131 ı), Unicode Nd digits and word characters next to digits
_FOLDS = ["\u212a", "\u017f", "\u0130", "\u0131", "k", "s", "i"]
_ND = ["٣", "０", "९", "١٢"]
_DIGIT_DENSE = st.lists(
    st.sampled_from(
        ["1", "12", "123", "1234", "12345", "99999", "4111", "0", " ", "  ",
         ".", "-", "(", ")", "+", "+55", "/", "\t", "\n", "a", "x1", "1x",
         "_", "é"] + _ND + _FOLDS
    ),
    max_size=24,
).map("".join)
_KEYWORD_DENSE = st.lists(
    st.sampled_from(
        ["tel", "TEL", "fone", "telefone", "cel", "celular", "contato",
         "whats", "whatſapp", "zap", "cpf", "CPF", "Cpf", "rg", "RG", "rG",
         ":", " ", ": ", "(61)", "61", "99999", "8888", "-", ".",
         "12345678901", "123.456.789-00", "meu", "moro", "rua", "cep",
         "NIS", "SEI", "x"] + _FOLDS
    ),
    max_size=16,
).map("".join)
# separators at both edges of a digit window, and '@' runs inside local-part
# runs with and without a domain
_WINDOW_EDGES = st.lists(
    st.sampled_from(
        ["(", ")", "+", "-", ".", " ", "1", "12", "123", "1234", "55",
         "a", "_", "%", "@", "@@", "@x.com", "x.com", ".br", "b", "é"]
        + _FOLDS
        + _ND
    ),
    max_size=24,
).map("".join)


def _assert_scan_equal(text):
    from vigil_ray.kernel import patterns as P

    assert P.scan_document(text) == _scan_document_spec(text), text
    assert P.find_contextual(text) == _find_contextual_spec(text), text


@settings(max_examples=600, deadline=None)
@given(_DIGIT_DENSE)
def test_windowed_scan_equals_whole_text_digit_dense(text):
    _assert_scan_equal(text)


@settings(max_examples=600, deadline=None)
@given(_KEYWORD_DENSE)
def test_windowed_scan_equals_whole_text_keyword_dense(text):
    _assert_scan_equal(text)


@settings(max_examples=600, deadline=None)
@given(_WINDOW_EDGES)
def test_windowed_scan_equals_whole_text_window_edges(text):
    _assert_scan_equal(text)


@settings(max_examples=300, deadline=None)
@given(TEXTISH)
def test_windowed_scan_equals_whole_text_arbitrary(text):
    _assert_scan_equal(text)
