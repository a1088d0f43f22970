"""Unit tests for preprocessor, exclusions, names, detector and scrub kernels
(porting the reference's pinned semantics: tests/test_preprocessor.py,
tests/test_exclusions.py, tests/test_detector.py, tests/test_integration.py)."""

import math

from vigil_ray.kernel.detector import (
    detect_pii,
    detect_pii_safe,
    empty_result,
    scrub_text,
)
from vigil_ray.kernel.exclusions import is_institutional_name
from vigil_ray.kernel.names import (
    clean_name,
    find_names_heuristic,
    is_valid_person_name,
    split_ner_chunks,
)
from vigil_ray.kernel.preprocess import normalize_text


class TestPreprocess:
    def test_nfkc_circled_digit(self):
        assert normalize_text("número ① do processo") == "número 1 do processo"

    def test_nfkc_ligature(self):
        assert normalize_text("ﬁm do texto") == "fim do texto"

    def test_accents_preserved(self):
        assert normalize_text("José da Conceição") == "José da Conceição"

    def test_control_chars_removed(self):
        assert normalize_text("abc\x00\x01def") == "abcdef"

    def test_whitespace_collapsed(self):
        assert normalize_text("  a \t\n  b   c  ") == "a b c"

    def test_none_nan_and_coercion(self):
        assert normalize_text(None) == ""
        assert normalize_text(math.nan) == ""
        assert normalize_text(12345) == "12345"
        assert normalize_text(True) == "True"


class TestExclusions:
    def test_exact_match(self):
        assert is_institutional_name("Distrito Federal")
        assert is_institutional_name("secretaria de saúde")

    def test_contains_term(self):
        assert is_institutional_name("Secretaria de Estado de Saúde do DF")

    def test_short_real_names_not_filtered(self):
        # directionality pin: "Ana" ⊂ "Candangolândia" must NOT filter Ana
        for name in ("Ana", "Lia", "Ivo", "Eva", "Ana Silva"):
            assert not is_institutional_name(name)

    def test_empty(self):
        assert not is_institutional_name("")


class TestNames:
    def test_clean_title_prefixes(self):
        assert clean_name("Dr João Silva") == "João Silva"
        assert clean_name("Profa. Maria Souza") == "Maria Souza"

    def test_validity_word_count(self):
        assert not is_valid_person_name("João")
        assert is_valid_person_name("João Silva")
        assert not is_valid_person_name("a b c d e f g")

    def test_institutional_rejected(self):
        assert not is_valid_person_name("Governo do Distrito Federal")

    def test_strong_context_detects(self):
        det = find_names_heuristic("meu nome é João da Silva Pereira, obrigado")
        assert len(det) == 1
        assert det[0].valor == "João da Silva Pereira"
        assert det[0].conf == 0.80

    def test_citizen_context(self):
        # reference-identical: IGNORECASE lets the bounded name grammar run
        # into following lowercase words (verified against the reference)
        det = find_names_heuristic("O cidadão: Carlos Alberto Souza solicita acesso")
        assert [d.valor for d in det] == ["Carlos Alberto Souza solicita acesso"]

    def test_no_context_no_hit(self):
        assert find_names_heuristic("Maria Souza esteve presente na sessão") == []

    def test_dedup_case_insensitive(self):
        det = find_names_heuristic("meu nome é João Silva. confirmo, João Silva")
        assert len(det) == 1

    def test_chunking_short_medium_long(self):
        assert split_ner_chunks("a" * 1500) == ["a" * 1500]
        halves = split_ner_chunks("a" * 2000)
        assert [len(c) for c in halves] == [1000, 1000]
        ends = split_ner_chunks("a" * 5000)
        assert [len(c) for c in ends] == [1500, 1500]  # middle dropped


class TestDetector:
    def test_result_schema(self):
        res = detect_pii("texto sem dados pessoais aqui presente")
        assert set(res) == {
            "contem_pii",
            "tipos_detectados",
            "detalhes",
            "sinais_contextuais",
            "confianca",
        }

    def test_empty_inputs(self):
        for value in ("", "   ", None):
            assert detect_pii(value) == empty_result()

    def test_cpf_document(self):
        res = detect_pii("Meu CPF é 123.456.789-00")
        assert res["contem_pii"] is True
        assert res["tipos_detectados"] == ["cpf"]
        assert res["confianca"] == 0.95

    def test_contextual_signals_never_flip_label(self):
        res = detect_pii("Moro na Quadra 302 Norte, meus dados foram retidos")
        assert res["contem_pii"] is False
        assert res["tipos_detectados"] == []
        # but signals do appear in the full signal scan when PII exists
        res2 = detect_pii("Moro na Quadra 302, CPF: 123.456.789-00")
        assert res2["contem_pii"] is True
        assert any(s[0] == "endereco" for s in res2["sinais_contextuais"])

    def test_type_order_first_appearance(self):
        res = detect_pii(
            "email: a@b.com, CPF: 123.456.789-00, tel (11) 99999-0000"
        )
        # layer order is cpf → email → telefone regardless of text order
        assert res["tipos_detectados"] == ["cpf", "email", "telefone"]

    def test_confianca_is_max(self):
        res = detect_pii("RG 1234567 e email a@b.com")
        assert res["confianca"] == 0.95

    def test_multi_pii(self):
        res = detect_pii(
            "requerente: João Silva Santos, CPF 123.456.789-00, RG 1234567, "
            "email joao@mail.com, tel (61) 99999-8888"
        )
        assert set(res["tipos_detectados"]) == {"cpf", "rg", "email", "telefone", "nome"}

    def test_dup_cpf_single_detection(self):
        res = detect_pii("CPF 111.222.333-44 e de novo 111.222.333-44")
        assert len([d for d in res["detalhes"] if d[0] == "cpf"]) == 1

    def test_nfkc_then_regex(self):
        # fullwidth digits normalize to ASCII before the regex layer
        res = detect_pii("CPF: １２３.４５６.７８９-００")
        assert res["contem_pii"] is True

    def test_long_text_100kb(self):
        text = ("palavra " * 12000) + " CPF 123.456.789-00 " + ("fim " * 12000)
        res = detect_pii(text)
        assert res["contem_pii"] is True

    def test_safe_never_raises(self):
        assert detect_pii_safe(object()) is not None

    def test_determinism(self):
        text = "CPF: 123.456.789-00, email a@b.com, (61) 99999-0000, meu nome é Ana Clara Dias"
        assert detect_pii(text) == detect_pii(text)


class TestAnalyzeDocument:
    """The fused hot-path form must equal the layered reference form."""

    CASES = [
        "CPF 123.456.789-00 email a@b.com fim",
        "CPF 111.222.333-44 e de novo 111.222.333-44",
        "meu nome é João da Silva Pereira, obrigado",
        "texto limpo sem nenhum dado pessoal",
        "Processo SEI 00015-12345678/2026-01 em andamento",
        "whatsapp: 61 99999 8888 após as 18h",
        "Telefone: (61) 99999-8888 e RG: 12.345.678-9",
        "Moro na Quadra 302 Norte, CEP: 70000-000",
        "CPF: １２３.４５６.７８９-００",
        "",
        None,
        "Conforme SEI 00015-01009853/2026-01, solicito",
        "requerente: João Silva Santos, CPF 123.456.789-00, RG 1234567, "
        "email joao@mail.com, tel (61) 99999-8888",
    ]

    def test_equals_layered_form(self):
        from vigil_ray.kernel.detector import analyze_document
        from vigil_ray.kernel.preprocess import normalize_text

        for text in self.CASES:
            res, scrub = analyze_document(text)
            expected = detect_pii(text)
            assert res == expected, text
            clean = normalize_text(text)
            expected_scrub = scrub_text(clean) if expected["contem_pii"] else clean
            assert scrub == expected_scrub, text

    def test_equals_on_pages_corpus(self):
        from vigil_ray.kernel.detector import analyze_document
        from vigil_ray.kernel.preprocess import normalize_text
        from vigil_ray.sources.pages import synthesize_pages

        pages = synthesize_pages("/root/testdata/sf0.001")
        for text in pages.column("text").to_pylist():
            res, scrub = analyze_document(text)
            expected = detect_pii(text)
            assert res == expected
            clean = normalize_text(text)
            assert scrub == (scrub_text(clean) if expected["contem_pii"] else clean)


class TestScrub:
    def test_scrub_cpf_email(self):
        out = scrub_text("CPF 123.456.789-00 email a@b.com fim")
        assert out == "CPF [CPF] email [EMAIL] fim"

    def test_scrub_all_duplicate_occurrences(self):
        out = scrub_text("CPF 111.222.333-44 e de novo 111.222.333-44")
        assert out.count("[CPF]") == 2
        assert "111.222.333" not in out

    def test_scrub_name(self):
        out = scrub_text("meu nome é João da Silva Pereira, obrigado")
        assert "[NOME]" in out and "João" not in out

    def test_scrub_noop_without_pii(self):
        text = "texto limpo sem nenhum dado pessoal"
        assert scrub_text(text) == text

    def test_sei_numbers_not_scrubbed(self):
        text = "Processo SEI 00015-12345678/2026-01 em andamento"
        assert scrub_text(text) == text


class TestCandidatePrefilter:
    def test_digit_free_portador_doc_not_prefiltered(self):
        """'(name)[,\\s]+(?:CPF|portador)' can fire with no digit/keyword the
        old prefilter knew: analyze_document must equal detect_pii+scrub_text
        on such docs (the CLAUDE.md-pinned equality)."""
        from vigil_ray.kernel.detector import (
            analyze_document,
            could_have_pii,
            detect_pii,
            scrub_text,
        )
        from vigil_ray.kernel.preprocess import normalize_text

        doc = "Maria Silva Santos, portador do documento"
        assert could_have_pii(doc)
        res_fused, scrub_fused = analyze_document(doc)
        res_layered = detect_pii(doc)
        assert res_fused == res_layered
        assert res_layered["contem_pii"]  # nome via the portador template
        assert scrub_fused == scrub_text(normalize_text(doc))


class TestHtmlLineBreaks:
    def test_void_br_and_cells_separate_words(self):
        from vigil_ray.kernel.html import extract_text, wrap_text

        assert extract_text(b"line1<br>line2") == "line1\nline2"
        assert extract_text(b"line1<br/>line2") == "line1\nline2"
        assert extract_text(b"line1<BR />line2") == "line1\nline2"
        assert extract_text(b"<td>ana</td><td>silva</td>") == "ana\nsilva"
        # the synthesized-corpus round-trip invariant is untouched
        t = "Atenção. Meu CPF é 123.456.789-00 & <escapes>."
        assert extract_text(wrap_text(t)) == t


class TestLinearTime:
    """Pathological pages stay linear: best-of-3 at 80 KB is at most 6× the
    20 KB time (quadratic growth gives about 16×)."""

    @staticmethod
    def _best(fn, arg):
        import time

        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn(arg)
            best = min(best, time.perf_counter() - t0)
        return best

    def _check(self, fn, make):
        small, large = self._best(fn, make(20_000)), self._best(fn, make(80_000))
        assert large <= 6 * small, (small, large)

    def test_unclosed_tag_run(self):
        from vigil_ray.kernel.html import extract_text

        self._check(extract_text, lambda n: b"<" * n)

    def test_email_local_run_without_domain(self):
        from vigil_ray.kernel.detector import analyze_document

        self._check(analyze_document, lambda n: "a." * (n // 2) + "@")

    def test_email_local_run_with_bad_domain(self):
        from vigil_ray.kernel.detector import analyze_document

        self._check(analyze_document, lambda n: "a_b+c%" * (n // 6) + "@x")
