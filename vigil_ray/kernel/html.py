"""Deterministic HTML → text extraction.

The flagship input table carries raw page bytes (``html: binary``) alongside
the extracted body (``text: string``); the pipeline invariant (BASELINE.md) is
that extraction is a *pure, version-pinned function* with
``extract_text(html) == text`` byte-identical per url. This implementation is
intentionally minimal and fully deterministic: drop script/style/head
subtrees, strip tags, unescape entities, collapse inter-tag whitespace the
same way the synthesizer emits it.
"""

from __future__ import annotations

import html as _htmlmod
import re

from vigil_ray.kernel.preprocess import fold_for_keywords

_SCRIPT_STYLE = re.compile(
    r"<(script|style|head)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_OPEN = re.compile(r"<(script|style|head)\b", re.IGNORECASE)
_TAG = re.compile(r"<[^>]+>")
_BLANK_RUNS = re.compile(r"\n{2,}")
_BR = re.compile(r"<br\s*/?\s*>", re.IGNORECASE)
_BLOCK_CLOSE = re.compile(r"</(p|div|br|li|h[1-6]|tr|td|th)\s*>", re.IGNORECASE)


def _drop_script_style(raw: str) -> str:
    """``_SCRIPT_STYLE.sub(" ", raw)`` in linear time.

    The sub tries the regex at every opener ``<name\\b``, and a try that
    finds no closer ``</\\1\\s*>`` past the opener's first ``>`` reads the
    rest of the page, so unclosed openers make it quadratic
    (``"<script>"*k``). Here the regex is tried at each opener too, but once
    a try has failed, later openers with the same spelling of the name are
    skipped: their first ``>`` is no earlier and the backreference accepts
    the same closers, so a closer they could take would have closed the
    failed try. A try that matches reads only the block it removes, so the
    page is read once plus at most once per failed spelling
    (tests/test_quality.py holds the differential)."""
    out, pos = [], 0
    unclosed = set()  # opener spellings whose try has failed
    m = _OPEN.search(raw)
    while m is not None:
        block = None if m.group(1) in unclosed else _SCRIPT_STYLE.match(raw, m.start())
        if block is None:
            unclosed.add(m.group(1))
            m = _OPEN.search(raw, m.end())
        else:
            out += (raw[pos : m.start()], " ")
            pos = block.end()
            m = _OPEN.search(raw, pos)
    return "".join(out) + raw[pos:]


def extract_text(html_bytes: bytes) -> str:
    """Extract the visible text body from page bytes (utf-8, replace errors)."""
    if not html_bytes:
        return ""
    raw = html_bytes.decode("utf-8", errors="replace")
    # literal necessary-condition gates mirror kernel/patterns.py: each regex
    # below provably cannot match without its anchor substring, and a C `in`
    # probe over one folded copy replaces the full scans on the misses (the
    # fold, not lower(): re.IGNORECASE also reads '<ſcript' and '<scrİpt' as
    # '<script'). A gated-out sub returns its input unchanged, so the output
    # is byte-identical (differential-pinned in tests/test_quality.py).
    low = fold_for_keywords(raw)
    if "<script" in low or "<style" in low or "<head" in low:
        raw = _drop_script_style(raw)
    # void/self-closing line breaks: <br> virtually never appears as </br>
    # in real crawl HTML — without this, 'line1<br>line2' would concatenate
    # to 'line1line2' and corrupt tokenization / PII digit runs downstream
    if "<br" in low:
        raw = _BR.sub("\n", raw)
    # block-level closers become newlines so paragraphs/cells stay separated
    if "</" in raw:
        raw = _BLOCK_CLOSE.sub("\n", raw)
    if "<" in raw:
        # every tag match ends at a '>', so none lies past the last one:
        # substituting only up to it is exact, and each '<' after it no
        # longer scans to the end of the page (quadratic on '<' runs)
        k = raw.rfind(">") + 1
        raw = _TAG.sub("", raw[:k]) + raw[k:]
    if "&" in raw:
        raw = _htmlmod.unescape(raw)
    if "\n" not in raw:
        # single-line body: the split/strip/join pipeline reduces to strip()
        # and a no-newline string cannot contain a blank run
        return raw.strip()
    lines = [ln.strip() for ln in raw.split("\n")]
    text = "\n".join(ln for ln in lines if ln)
    if "\n\n" not in text:
        return text.strip()
    return _BLANK_RUNS.sub("\n", text).strip()


def wrap_text(text: str) -> bytes:
    """Canonical page synthesis: the exact inverse of :func:`extract_text`
    for entity-escaped single-paragraph bodies. Used by the deterministic
    pages generator (``vigil_ray.sources.pages``)."""
    body = _htmlmod.escape(text, quote=False)
    return (
        "<html><head><title>doc</title></head><body><p>"
        + body
        + "</p></body></html>"
    ).encode("utf-8")
