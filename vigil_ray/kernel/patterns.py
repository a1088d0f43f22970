"""Structured-PII extraction: regex bank + anti-false-positive guards.

Detection semantics are a faithful re-implementation of the reference's
behavior (reference ``src/patterns.py``, pinned by its ``tests/test_patterns.py``):

- CPF formatted ``XXX.XXX.XXX-XX`` @0.95 and partial ``XXXXXXXXX-XX`` @0.90,
  deduplicated within a document by digit-normalized value, suppressed when a
  SEI/NUP/Processo/protocolo marker appears in the window
  ``text[pos-50 : pos+30]`` (reference src/patterns.py:158-187,256-268).
- CPF numeric (11 digits) only with an explicit "CPF" prefix, suppressed when a
  CDA/CNH/NIS/matrícula/RNE/PIS/PASEP marker appears in ``text[pos-30 : pos+15]``
  (reference src/patterns.py:189-201,270-282). No check-digit validation, by
  design (reference src/patterns.py:8-9).
- Email @0.95, no dedup (src/patterns.py:203-208).
- Phone in four variants tried in a fixed order — parenthesized @0.95,
  +55 international @0.95, context-prefixed @0.90, bare @0.80 — sharing one
  digit-normalized dedup set and a >=10-digit floor; the try order decides
  which surface form survives dedup (src/patterns.py:210-247).
- RG with explicit "RG" prefix @0.85 (src/patterns.py:249-254).
- Contextual signals (first-person / address / contact markers) at most one
  per family, fixed confidences 0.70/0.60/0.65 — metadata only, they never
  flip the document label (src/patterns.py:284-317).

New relative to the reference: every accepted match also reports its character
span, so the scrub stage can redact *all* occurrences (including value
duplicates that dedup removes from the detection list).

Each pattern scans only where one of its matches can lie, with the same
matches as a whole-text ``finditer`` (:func:`scan_document` gives the
proofs): digit patterns per window of digit runs joined by ``[\\s.()+-]``
gaps, from one character before the first digit to one past the last (the
``endpos`` margin that lets a trailing lookahead or ``\\b`` read the real
next character); keyword patterns and each contextual family's regexes
with one ``match`` per keyword hit of the page's one keyword index
(``preprocess.keyword_index``); ``RX_EMAIL`` with one ``match`` per ``@``.
On a Latin-1 page the digit pass runs only between the first and the last
ASCII digit. A page costs what its
digits, keywords and ``@`` signs hold, not its length times the pattern
count, and a long local-part run before an ``@`` stays linear.

This module is import-time compiled: each Ray worker process pays regex
compilation once, mirroring the reference's compile-in-__init__ policy
(src/patterns.py:103-123) without per-batch cost.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from vigil_ray.kernel.preprocess import (
    fold_for_keywords,
    is_latin1,
    keyword_hits,
    keyword_index,
)


class Detection(NamedTuple):
    tipo: str
    valor: str
    conf: float
    start: int
    end: int

    def as_triple(self) -> Tuple[str, str, float]:
        """Reference-shaped (tipo, valor, confianca) tuple."""
        return (self.tipo, self.valor, self.conf)


_DIGITS_ONLY = re.compile(r"\D")
_DIGIT_RUNS = re.compile(r"\d+")
_ASCII_DIGITS = "0123456789"
# the non-digit characters of a digit-pattern match (see digit_windows)
_DIGIT_SEP = re.compile(r"[\s.()+-]*")

# --- structured PII ---------------------------------------------------------
RX_CPF_FMT = re.compile(r"\d{3}\.\d{3}\.\d{3}-\d{2}")
RX_CPF_PART = re.compile(r"\b\d{9}-\d{2}\b")
RX_CPF_NUM = re.compile(r"(?:CPF\s*[:\s]*)\b(\d{11})\b", re.IGNORECASE)
RX_EMAIL = re.compile(r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}", re.IGNORECASE)
# RX_EMAIL's local-part class, with its flag: under IGNORECASE [a-z] also
# takes U+212A (Kelvin), U+017F (long s), U+0130 and U+0131
_EMAIL_LOCAL = re.compile(r"[a-zA-Z0-9._%+-]*", re.IGNORECASE)
RX_PHONE_PAREN = re.compile(r"\(\d{2}\)\s*\d{4,5}-?\d{4}")
RX_PHONE_INTL = re.compile(r"\+55\s*\(?\d{2}\)?\s*\d{4,5}[-\s]?\d{4}")
RX_PHONE_BARE = re.compile(r"\b\d{2}\s+\d{4,5}[-\s]?\d{4}\b")
RX_PHONE_CTX = re.compile(
    r"(?:fone|telefone|tel|celular|cel|contato|whatsapp|whats|zap)"
    r"\s*[:\s]*\(?\d{2}\)?[\s.-]?\d{4,5}[\s.-]?\d{4}",
    re.IGNORECASE,
)
RX_RG = re.compile(r"\bRG[:\s]*[\d.-]+", re.IGNORECASE)
# every alternative of RX_PHONE_CTX's keyword alternation starts with one of
# these literals (telefone with tel, celular with cel, whatsapp with whats),
# so a match starts only where the folded text holds one: scan_document's
# hit set
_PHONE_CTX_WORDS = ("fone", "tel", "cel", "contato", "whats", "zap")

# --- north-star extensions beyond the reference bank (BASELINE.json
# north_star: "CPF/SSN, credit cards") -------------------------------------
# US SSN, strict AAA-GG-SSSS surface form; boundaries exclude longer digit
# runs (SEI/processo numbers use '/' and 5+-digit groups, so they can't match).
RX_SSN = re.compile(r"\b\d{3}-\d{2}-\d{4}\b")
# Credit-card candidate: 13-19 digits in space/hyphen groups. The lookbehind
# rejects starts inside a longer number, after '+' (intl phone) or '.'
# (formatted CPF); the lookahead rejects a following digit. Acceptance
# additionally requires a Luhn-valid 13-19 digit payload — unlike CPF, the
# north_star implies card *validation*, so accidental digit runs (protocol
# numbers, concatenated ids) are rejected arithmetically.
RX_CARD = re.compile(r"(?<![\d.+-])(?:\d[ -]?){12,18}\d(?![\d-])")


_CARD_SPLIT = re.compile(r"[ -]")


def _card_shape_ok(value: str) -> bool:
    """Separator-grouped candidates must be grouped like real cards
    (4-4-4-4, 4-6-5, 4-6-4 — first group of 4, later groups 4-6 digits);
    rejects processo/protocol numbers like ``00015-00568900`` that can pass
    Luhn by chance. Contiguous digit runs are shape-free."""
    groups = _CARD_SPLIT.split(value)
    if len(groups) == 1:
        return True
    return len(groups[0]) == 4 and all(len(g) in (4, 5, 6) for g in groups[1:])


def _card_accept(text: str, m: "re.Match") -> bool:
    digits = _DIGITS_ONLY.sub("", m.group())
    return (
        13 <= len(digits) <= 19
        and _card_shape_ok(m.group())
        and luhn_valid(digits)
        and not _in_sei_window(text, m.start())
    )


def luhn_valid(digits: str) -> bool:
    """Luhn mod-10 checksum over an all-digit string."""
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = ord(ch) - 48
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0

# --- anti-false-positive window guards -------------------------------------
RX_SEI_GUARDS = tuple(
    re.compile(p, re.IGNORECASE)
    for p in (
        r"(?:SEI|NUP)\s*(?:nº|n°|n\.?)?\s*[\d./-]+",
        r"(?:Processo|processo)\s*(?:nº|n°|n\.?)?\s*[\d./-]+",
        r"protocolo\s*(?:nº|n°|n\.?)?\s*[\d./-]+",
    )
)
RX_NOT_CPF_GUARDS = (
    re.compile(
        r"(?:CDA|CNH|NIS|matrícula|RNE|PIS|PASEP)\s*(?:nº|n°|n\.?)?\s*[:\s]*\d{11}",
        re.IGNORECASE,
    ),
)

# --- contextual-signal families (metadata only) -----------------------------
# Each family carries its gate words (first tuple slot after conf): every
# family regex starts on one of them, so find_contextual tries each regex
# only at the family's hits in the page's keyword index (ASCII-lowercase
# literals over the fold_for_keywords() copy — exactly re.IGNORECASE, see
# preprocess.py; pinned by tests/test_properties.py's gate differential and
# its leading-literal check). Never changes which documents match.
_CTX_FAMILIES = (
    (
        "contexto_1pessoa",
        "marcador_primeira_pessoa",
        0.70,
        ("meu", "minha", "sou", "chamo", "nome"),
        tuple(
            re.compile(p, re.IGNORECASE)
            for p in (
                r"(?:meu|minha)\s+(?:CPF|nome|RG|telefone|email|e-mail|celular|endereço)",
                r"(?:sou|chamo-me|nome\s+é)\s+[A-Z][a-záàâãéêíóôõúç]+\s+[A-Z]",
            )
        ),
    ),
    (
        "endereco",
        "marcador_endereco",
        0.60,
        (
            "moro", "resido", "residente", "rua", "avenida", "quadra",
            "conjunto", "bloco", "lote", "apartamento", "apt", "cep",
        ),
        tuple(
            re.compile(p, re.IGNORECASE)
            for p in (
                r"(?:moro|resido|residente)\s+(?:na?|em)",
                r"(?:rua|avenida|quadra|conjunto|bloco|lote|apartamento|apt\.?)\s+",
                r"CEP[:\s]*\d{5}-?\d{3}",
            )
        ),
    ),
    (
        "contato",
        "marcador_contato",
        0.65,
        ("contato", "whats", "zap", "fone", "telefone", "cel"),
        tuple(
            re.compile(p, re.IGNORECASE)
            for p in (
                r"(?:contato|WhatsApp|whatsapp|Whats|zap)\s*[:\s]*\(?\d",
                r"(?:fone|telefone|cel|celular)\s*[:\s]*\(?\d",
            )
        ),
    ),
)


def _in_sei_window(text: str, pos: int) -> bool:
    window = text[max(0, pos - 50) : pos + 30]
    return any(g.search(window) for g in RX_SEI_GUARDS)


def _in_not_cpf_window(text: str, pos: int) -> bool:
    window = text[max(0, pos - 30) : pos + 15]
    return any(g.search(window) for g in RX_NOT_CPF_GUARDS)


def find_cpf(text: str) -> List[Detection]:
    """Formatted + partial + context-numeric CPF with guards and dedup."""
    out: List[Detection] = []
    seen: set = set()
    for rx, conf in ((RX_CPF_FMT, 0.95), (RX_CPF_PART, 0.90)):
        for m in rx.finditer(text):
            key = _DIGITS_ONLY.sub("", m.group())
            if key in seen or _in_sei_window(text, m.start()):
                continue
            out.append(Detection("cpf", m.group(), conf, m.start(), m.end()))
            seen.add(key)
    for m in RX_CPF_NUM.finditer(text):
        if _in_not_cpf_window(text, m.start()):
            continue
        out.append(Detection("cpf", m.group(1), 0.90, m.start(1), m.end(1)))
    return out


def find_email(text: str) -> List[Detection]:
    return [
        Detection("email", m.group(), 0.95, m.start(), m.end())
        for m in RX_EMAIL.finditer(text)
    ]


def find_phone(text: str) -> List[Detection]:
    """Four phone variants sharing one dedup set; >=10 digits required."""
    out: List[Detection] = []
    seen: set = set()
    for rx, conf in (
        (RX_PHONE_PAREN, 0.95),
        (RX_PHONE_INTL, 0.95),
        (RX_PHONE_CTX, 0.90),
        (RX_PHONE_BARE, 0.80),
    ):
        for m in rx.finditer(text):
            digits = _DIGITS_ONLY.sub("", m.group())
            if len(digits) < 10 or digits in seen:
                continue
            out.append(Detection("telefone", m.group(), conf, m.start(), m.end()))
            seen.add(digits)
    return out


def find_rg(text: str) -> List[Detection]:
    return [
        Detection("rg", m.group(), 0.85, m.start(), m.end())
        for m in RX_RG.finditer(text)
    ]


def find_ssn(text: str) -> List[Detection]:
    return [
        Detection("ssn", m.group(), 0.95, m.start(), m.end())
        for m in RX_SSN.finditer(text)
    ]


def find_card(text: str) -> List[Detection]:
    """Luhn-validated card numbers, deduplicated by digit string."""
    out: List[Detection] = []
    seen: set = set()
    for m in RX_CARD.finditer(text):
        if not _card_accept(text, m):
            continue
        digits = _DIGITS_ONLY.sub("", m.group())
        if digits in seen:
            continue
        out.append(Detection("cartao", m.group(), 0.95, m.start(), m.end()))
        seen.add(digits)
    return out


def digit_windows(text: str) -> List[Tuple[int, int, int]]:
    """The windows the digit patterns can match in → ``[(lo, end, n_digits)]``.

    One ``\\d+`` pass. Runs joined by separator-only gaps (``[\\s.()+-]``)
    form one chain; its window starts one character before the chain's
    first digit (the ``(`` of ``RX_PHONE_PAREN``, the ``+`` of
    ``RX_PHONE_INTL``) and ends one character past its last digit, so the
    character after the chain is in the window (see :func:`scan_document`).
    ``n_digits`` counts the chain's ``\\d`` characters (Unicode Nd, the class
    the patterns use).

    On a Latin-1 page (:func:`~vigil_ray.kernel.preprocess.is_latin1`) the
    only ``\\d`` characters are ``0-9``, so the pass runs from the first to
    one past the last of them, found with C ``str.find``/``str.rfind``, and
    a page without one has no windows."""
    if is_latin1(text):
        first = [p for p in map(text.find, _ASCII_DIGITS) if p != -1]
        if not first:
            return []
        runs = _DIGIT_RUNS.finditer(
            text, min(first), max(map(text.rfind, _ASCII_DIGITS)) + 1
        )
    else:
        runs = _DIGIT_RUNS.finditer(text)
    out: List[Tuple[int, int, int]] = []
    n = len(text)
    lo = hi = nd = reach = -1
    for m in runs:
        s, e = m.span()
        if s == reach:  # the gap since the chain's last run is all separators
            hi, nd = e, nd + e - s
        else:
            if lo >= 0:
                out.append((lo, min(hi + 1, n), nd))
            lo, hi, nd = max(s - 1, 0), e, e - s
        reach = _DIGIT_SEP.match(text, e).end()
    if lo >= 0:
        out.append((lo, min(hi + 1, n), nd))
    return out


def _in_windows(rx, text, windows, need):
    """``rx.finditer(text)`` for a digit pattern whose every kept match holds
    at least ``need`` digits: windows with fewer cannot hold one."""
    for lo, end, nd in windows:
        if nd >= need:
            yield from rx.finditer(text, lo, end)


def _at_hits(rx, text, hits):
    """``rx.finditer(text)`` for a pattern whose matches can only start at
    ``hits``: the leftmost match at or past the last match's end is the
    first hit there where ``rx.match`` succeeds."""
    end = 0
    for p in hits:
        if p >= end:
            m = rx.match(text, p)
            if m:
                yield m
                end = m.end()


def _emails(text):
    """``RX_EMAIL.finditer(text)`` with one ``RX_EMAIL.match`` per ``@``."""
    at = text.find("@")
    if at == -1:
        return
    n = len(text)
    rev = text[::-1]
    end = 0
    while at != -1:
        # the local-part run ending at this '@', bounded by the last match,
        # measured forward on the reversed text
        r = n - at
        p = at - (_EMAIL_LOCAL.match(rev, r, n - end).end() - r)
        if p < at:
            m = RX_EMAIL.match(text, p)
            if m:
                yield m
                end = m.end()
        at = text.find("@", at + 1)


def scan_document(text, index=None, windows=None):
    """One pass over every structured pattern -> ``(detections, scrub_spans)``.

    ``detections`` is exactly :func:`find_structured` (reference dedup rules,
    reference layer order cpf -> email -> phone -> rg, src/patterns.py:125-156);
    ``scrub_spans`` is every guard-passing match *including value duplicates*
    -- dedup affects reporting only; a value repeated in two surface forms
    must still be masked at both spans. Single scan = the hot-path form used
    by the detect stage; the find_* wrappers below expose each list.

    Each pattern runs only where one of its matches can lie, and yields
    exactly what ``rx.finditer(text)`` yields (pinned against the
    whole-text scan in tests/test_properties.py):

    - Digit patterns (CPF formatted/partial, the three digit-led phone
      forms, SSN, card). A match is made only of ``[\\d\\s.()+-]``
      characters, contains a digit, starts at most one character before a
      digit and ends on a digit, so it lies in one :func:`digit_windows`
      window. Each runs ``rx.finditer(text, lo, end)`` per window, in
      order. ``pos`` keeps the real string before it for lookbehind and
      ``\\b``; ``endpos`` acts as end-of-string, so the window reaches one
      character past its last digit and the lookahead / ``\\b`` after a
      match read the real next character. A window with fewer digits than
      a kept match needs (11 CPF, 10 phone, 9 SSN, 13 card) is skipped.
    - Keyword patterns (context phone, CPF numeric, RG). A match starts on
      a keyword, read from the page's keyword index
      (:func:`~vigil_ray.kernel.preprocess.keyword_index` of the
      length-preserving ``fold_for_keywords`` copy, exactly
      ``re.IGNORECASE`` for ASCII keywords). Each hit at or past the last
      match's end, in order, gets one ``rx.match``: no match can start
      anywhere else.
    - Email. A match holds one ``@`` and starts in the run of local-part
      characters just before it. Each ``@`` gets one ``RX_EMAIL.match`` at
      the later of that run's start and the last match's end: every start
      in the run reaches the same ``@`` and the same domain test, so if the
      first fails they all fail. This keeps a long local-part run without
      a domain linear instead of quadratic.

    ``index`` (``keyword_index(fold_for_keywords(text))``) and ``windows``
    (``digit_windows(text)``) may be passed by a caller that has them.
    """
    if not text:
        return [], []
    if index is None:
        index = keyword_index(fold_for_keywords(text))
    if windows is None:
        windows = digit_windows(text)
    detections: List[Detection] = []
    spans: List[Detection] = []

    # Literal necessary-condition guards: a pattern that needs a character
    # or keyword the text lacks is not run. A skipped pattern contributes no
    # matches, so append order and the shared dedup sets are untouched.
    has_hyphen = "-" in text
    # the most digits one window holds: a CPF needs 11, a kept phone 10
    max_digits = max((w[2] for w in windows), default=0)

    seen_cpf: set = set()
    if has_hyphen and max_digits >= 11:  # both CPF surface forms carry 11 digits
        cpf_layers = (
            ((RX_CPF_FMT, 0.95), (RX_CPF_PART, 0.90))
            if "." in text  # the formatted form also needs dots
            else ((RX_CPF_PART, 0.90),)
        )
        for rx, conf in cpf_layers:
            for m in _in_windows(rx, text, windows, 11):
                if _in_sei_window(text, m.start()):
                    continue
                d = Detection("cpf", m.group(), conf, m.start(), m.end())
                spans.append(d)
                key = _DIGITS_ONLY.sub("", m.group())
                if key not in seen_cpf:
                    detections.append(d)
                    seen_cpf.add(key)
    if max_digits >= 11:
        for m in _at_hits(RX_CPF_NUM, text, index.get("cpf", ())):
            if _in_not_cpf_window(text, m.start()):
                continue
            d = Detection("cpf", m.group(1), 0.90, m.start(1), m.end(1))
            spans.append(d)
            detections.append(d)

    for m in _emails(text):
        d = Detection("email", m.group(), 0.95, m.start(), m.end())
        spans.append(d)
        detections.append(d)

    seen_phone: set = set()
    if max_digits >= 10:  # the per-match filter needs 10 digits
        for matches, conf in (
            (_in_windows(RX_PHONE_PAREN, text, windows, 10) if "(" in text else (), 0.95),
            (_in_windows(RX_PHONE_INTL, text, windows, 10) if "+" in text else (), 0.95),
            (_at_hits(RX_PHONE_CTX, text, keyword_hits(index, _PHONE_CTX_WORDS)), 0.90),
            (_in_windows(RX_PHONE_BARE, text, windows, 10), 0.80),
        ):
            for m in matches:
                digits = _DIGITS_ONLY.sub("", m.group())
                if len(digits) < 10:
                    continue
                d = Detection("telefone", m.group(), conf, m.start(), m.end())
                spans.append(d)
                if digits not in seen_phone:
                    detections.append(d)
                    seen_phone.add(digits)

    for m in _at_hits(RX_RG, text, index.get("rg", ())):
        d = Detection("rg", m.group(), 0.85, m.start(), m.end())
        spans.append(d)
        detections.append(d)

    # north-star extension layers, appended after the reference's fixed order
    # so first-appearance type ordering is unchanged for reference inputs
    if has_hyphen:
        for m in _in_windows(RX_SSN, text, windows, 9):
            d = Detection("ssn", m.group(), 0.95, m.start(), m.end())
            spans.append(d)
            detections.append(d)

    seen_card: set = set()
    for m in _in_windows(RX_CARD, text, windows, 13):
        if not _card_accept(text, m):
            continue
        digits = _DIGITS_ONLY.sub("", m.group())
        d = Detection("cartao", m.group(), 0.95, m.start(), m.end())
        spans.append(d)
        if digits not in seen_card:
            detections.append(d)
            seen_card.add(digits)

    return detections, spans


def find_structured(text):
    """All structured PII: the reference's fixed layer order
    (cpf -> email -> phone -> rg; reference src/patterns.py:125-156) plus the
    north-star extension layers (ssn -> cartao) appended after it."""
    return scan_document(text)[0]


def find_scrub_spans(text):
    """Every guard-passing PII match *including value duplicates* -- the
    redaction set (see :func:`scan_document`)."""
    return scan_document(text)[1]


def find_contextual(text: str, index=None) -> List[Detection]:
    """At most one signal per family; fixed label + confidence per family.

    Every family regex starts on one of its family's gate words (its
    leading literals are gate words, pinned in tests/test_properties.py),
    so its leftmost match is the first of the family's gate hits, in order,
    where ``g.match`` succeeds: the same match ``g.search(text)`` finds.
    The hits come from ``index`` (``keyword_index(fold_for_keywords(text))``,
    built here when not given), whose positions are text positions."""
    if not text:
        return []
    if index is None:
        index = keyword_index(fold_for_keywords(text))
    out: List[Detection] = []
    for tipo, label, conf, gate_words, guards in _CTX_FAMILIES:
        hits = keyword_hits(index, gate_words)
        if not hits:
            continue
        for g in guards:
            m = next(_at_hits(g, text, hits), None)
            if m:
                out.append(Detection(tipo, label, conf, m.start(), m.end()))
                break
    return out
