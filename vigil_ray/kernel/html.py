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

_SCRIPT_STYLE = re.compile(
    r"<(script|style|head)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_TAG = re.compile(r"<[^>]+>")
_BLANK_RUNS = re.compile(r"\n{2,}")
_BR = re.compile(r"<br\s*/?\s*>", re.IGNORECASE)
_BLOCK_CLOSE = re.compile(r"</(p|div|br|li|h[1-6]|tr|td|th)\s*>", re.IGNORECASE)


def extract_text(html_bytes: bytes) -> str:
    """Extract the visible text body from page bytes (utf-8, replace errors)."""
    if not html_bytes:
        return ""
    raw = html_bytes.decode("utf-8", errors="replace")
    # literal necessary-condition gates mirror kernel/patterns.py: each regex
    # below provably cannot match without its anchor substring, and a C `in`
    # probe over one lowered copy replaces the full scans on the misses.
    # A gated-out sub returns its input unchanged, so the output is
    # byte-identical (differential-pinned in tests/test_quality.py).
    low = raw.lower()
    if "<script" in low or "<style" in low or "<head" in low:
        raw = _SCRIPT_STYLE.sub(" ", raw)
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
