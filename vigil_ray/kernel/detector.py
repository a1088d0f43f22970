"""Per-document PII classification: the core map kernel.

Combines the three detection layers in the reference's fixed order — structured
regex, person names, contextual signals (reference ``src/detector.py:108-145``)
— and builds the result with its exact semantics
(``src/detector.py:330-366``):

- only *real* PII types (cpf, email, telefone, rg, nome) set ``contem_pii``;
  contextual signals are metadata and never flip the label on their own
  (pinned by reference tests/test_detector.py:176-196);
- ``tipos_detectados`` dedups preserving first-appearance order;
- ``confianca`` = max over real PII, rounded to 2 decimals;
- a poison row degrades to the empty result instead of failing its block
  (``src/detector.py:378-395``).

Unlike the reference dict-of-tuples, the result here is a flat, Arrow-friendly
dict (list columns of structs) plus the scrub-span list used to produce
``text_scrubbed``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from vigil_ray.kernel import patterns
from vigil_ray.kernel.names import find_names_heuristic
from vigil_ray.kernel.patterns import Detection
from vigil_ray.kernel.preprocess import (
    fold_for_keywords,
    is_latin1,
    keyword_index,
    normalize_text,
)

REAL_PII_TYPES = frozenset({"cpf", "email", "telefone", "rg", "nome", "ssn", "cartao"})
CONTEXTUAL_TYPES = frozenset({"contexto_1pessoa", "endereco", "contato"})

# Conservative candidate prefilter: every real-PII pattern needs a digit, an
# '@', or a strong name-context keyword. Includes pre-NFKC digit lookalikes
# (fullwidth ０-９, circled ①-⑳, super/subscripts) so normalization cannot
# surface a digit the prefilter missed. Rows failing this cannot produce a
# non-empty result, so hot batches skip the ~40-regex cascade entirely.
#
# The spec is one IGNORECASE alternation regex (kept as ``_CANDIDATE`` in
# tests/test_properties.py and differentially tested there); it costs
# ~62 µs/doc and runs on EVERY document of the corpus. This decomposition is
# a case-free character-class scan (on a Latin-1 page, where the class is
# exactly 0-9@²³¹, C `in` probes instead), then lookups in the page's
# keyword index over one fold_for_keywords() copy (exactly
# re.IGNORECASE-equivalent for ASCII literals — see preprocess.py), then the
# lone word-boundary case as one regex match per "rg" hit. The digit class
# needs no IGNORECASE: its only cased members
# (the circled-alphanumeric block ①-⓿ spans Ⓐ-Ⓩ/ⓐ-ⓩ) include both cases
# already. The 'cpf'/'portador' words cover the '(name)[,\s]+(?:CPF|portador)'
# template, which can fire on a digit-free doc ('Maria Silva, portador'); the
# \brg\b regex covers RX_RG, whose value class [\d.-]+ is satisfiable by
# dots/hyphens alone ('RG--').
import re as _re

_CANDIDATE_NON_DIGIT = "@①-⓿０-９²³¹⁰-⁹₀-₉"
_CANDIDATE_CLASS = _re.compile(rf"[\d{_CANDIDATE_NON_DIGIT}]")
# the class without \d: analyze_document has already found the digits
_CANDIDATE_OTHER = _re.compile(f"[{_CANDIDATE_NON_DIGIT}]")
# the two classes on a Latin-1 page (pinned over U+0000-U+00FF in
# tests/test_properties.py)
_LATIN1_OTHER = "@²³¹"
_LATIN1_CLASS = "0123456789" + _LATIN1_OTHER
_CANDIDATE_WORDS = (
    "nome", "chamo", "cidad", "requerente", "solicitante", "servidor",
    "funcion", "cpf", "portador",
)
_CANDIDATE_RG = _re.compile(r"\brg\b", _re.IGNORECASE)


def could_have_pii(raw_text: str) -> bool:
    """False ⇒ :func:`detect_pii` provably returns the empty result."""
    if not raw_text:
        return False
    if is_latin1(raw_text):
        if any(c in raw_text for c in _LATIN1_CLASS):
            return True
    elif _CANDIDATE_CLASS.search(raw_text) is not None:
        return True
    return _keyword_candidate(raw_text, keyword_index(fold_for_keywords(raw_text)))


def _keyword_candidate(text: str, index) -> bool:
    if any(w in index for w in _CANDIDATE_WORDS):
        return True
    # a \brg\b match starts on an "rg" hit
    return any(_CANDIDATE_RG.match(text, p) for p in index.get("rg", ()))


def empty_result() -> Dict[str, Any]:
    return {
        "contem_pii": False,
        "tipos_detectados": [],
        "detalhes": [],
        "sinais_contextuais": [],
        "confianca": 0.0,
    }


def build_result(found: List[Detection]) -> Dict[str, Any]:
    """Split real PII from contextual metadata and derive the document label."""
    if not found:
        return empty_result()
    real = [d for d in found if d.tipo in REAL_PII_TYPES]
    contextual = [d for d in found if d.tipo in CONTEXTUAL_TYPES]
    if not real:
        return empty_result()
    tipos = list(dict.fromkeys(d.tipo for d in real))
    confianca = max(d.conf for d in real)
    return {
        "contem_pii": True,
        "tipos_detectados": tipos,
        "detalhes": [d.as_triple() for d in real],
        "sinais_contextuais": [d.as_triple() for d in contextual],
        "confianca": round(confianca, 2),
    }


def detect_pii(
    text: Optional[object],
    extra_name_detections: Optional[List[Detection]] = None,
) -> Dict[str, Any]:
    """Classify one document. ``extra_name_detections`` lets a model-backed
    name stage (NER actor pool) substitute for the heuristic layer while the
    result-building semantics stay in one place."""
    clean = normalize_text(text)
    if not clean:
        return empty_result()
    low = fold_for_keywords(clean)
    index = keyword_index(low)
    found: List[Detection] = patterns.scan_document(clean, index)[0]
    if extra_name_detections is None:
        found.extend(find_names_heuristic(clean, low, index))
    else:
        found.extend(extra_name_detections)
    # contextual signals are metadata-only: build_result drops them unless a
    # real PII detection exists, so skipping the scan on clean rows is an
    # exact-semantics short-circuit
    if not found:
        return empty_result()
    found.extend(patterns.find_contextual(clean, index))
    return build_result(found)


def detect_pii_safe(text: Optional[object]) -> Dict[str, Any]:
    """Per-row error isolation: a failing row yields the empty result."""
    try:
        return detect_pii(text)
    except Exception:  # noqa: BLE001 — any kernel failure degrades, never raises
        return empty_result()


def scrub_text(
    clean_text: str,
    token_template: str = "[{tipo}]",
    spans: Optional[List[Detection]] = None,
) -> str:
    """Redact every guard-passing PII span (structured + heuristic names).

    Spans are replaced right-to-left so earlier offsets stay valid; overlapping
    spans are merged keeping the first-reported type. Operates on *normalized*
    text — the same form detection ran on — so offsets always line up.
    Pass precomputed ``spans`` (structured scrub spans + name detections) to
    skip the rescan; semantics are identical.
    """
    if not clean_text:
        return clean_text
    if spans is None:
        spans = patterns.find_scrub_spans(clean_text)
        spans.extend(find_names_heuristic(clean_text))
    if not spans:
        return clean_text
    # sort by start asc, then longer span first; nested spans drop, spans
    # that PARTIALLY overlap a kept one EXTEND its redacted region (the
    # first-reported type names the token) — a partial overlap must never
    # leave its non-overlapped tail unredacted (it is detected PII)
    spans = sorted(spans, key=lambda d: (d.start, -d.end))
    regions: List[List] = []  # [start, end, tipo]
    for d in spans:
        if regions and d.start < regions[-1][1]:
            if d.end > regions[-1][1]:
                regions[-1][1] = d.end
            continue
        regions.append([d.start, d.end, d.tipo])
    out = clean_text
    for start, end, tipo in reversed(regions):
        out = out[:start] + token_template.format(tipo=tipo.upper()) + out[end:]
    return out


def analyze_document(
    raw_text: Optional[object], token_template: str = "[{tipo}]"
) -> Tuple[Dict[str, Any], str]:
    """Hot-path form: one normalization, one structured scan, one name scan →
    ``(detection result, scrubbed text)``. Equivalent to
    ``(detect_pii(t), scrub_text(normalize_text(t)))`` — pinned by
    tests/test_kernel.py::TestAnalyzeDocument — but without re-running the
    regex banks for the scrub pass.
    """
    clean = normalize_text(raw_text)
    if not clean:
        return empty_result(), clean
    # one fold, one keyword index and one digit pass serve the prefilter and
    # every scan; a digit is a candidate character, so could_have_pii(clean)
    # is `windows or` the rest of its class and its keyword lookups
    low = fold_for_keywords(clean)
    index = keyword_index(low)
    windows = patterns.digit_windows(clean)
    if not (
        windows
        or (
            any(c in clean for c in _LATIN1_OTHER)
            if is_latin1(clean)
            else _CANDIDATE_OTHER.search(clean) is not None
        )
        or _keyword_candidate(clean, index)
    ):
        # normalized text already carries any NFKC-surfaced digits
        return empty_result(), clean
    detections, spans = patterns.scan_document(clean, index, windows)
    names = find_names_heuristic(clean, low, index)
    found = detections + names
    if not found:
        return empty_result(), clean
    found.extend(patterns.find_contextual(clean, index))
    result = build_result(found)
    if not result["contem_pii"]:
        return result, clean
    return result, scrub_text(clean, token_template, spans=spans + names)
