"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of ``(workload, seed, n_docs)``. The base
documents mimic the test-data ``documents`` table (30-word vocabulary, up to
100 words per doc, the same language mix); they are generated here rather than
read from a fixture so the benchmark only ever reads inside its checkout.
The library's own synthesizers then add the labelled structure:

- ``web_short`` / ``web_long``: ``vigil_ray.sources.pages.synthesize_pages``
  over the generated ``documents.parquet`` (multiplier 1, so row key
  ``k == doc_id``). The family of row ``k`` is ``k % 20`` and every expected
  label comes from ``FAMILIES`` / ``expected_*``.
- ``near_dup``: ``vigil_ray.sources.pages.synthesize_variants``: exact copies
  of ``doc_id % 7 == 3`` and one-word-appended near copies of
  ``doc_id % 5 == 0``. The expected pair set is doc-id arithmetic.

Outputs are cached per ``(workload, seed, n_docs)`` as a directory of parquet
shards under the caller's cache root.
"""

from __future__ import annotations

import os
import shutil
from typing import List, Set, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# the 30 words of the test-data documents table
VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
LANGS = ("en", "zh", "es", "fr", "de")
LANG_P = (0.41, 0.15, 0.15, 0.15, 0.14)

# near_dup draws from a wide vocabulary: over 30 words every word 3-gram
# recurs in hundreds of docs, so winnowing's max_share rule would (correctly)
# drop nearly every fingerprint as boilerplate and no pair would be found
_SYLLABLES = "ba be bi bo bu ka ke ki ko ku la le li lo lu ma me mi mo mu".split()
WIDE_VOCAB = [a + b + c for a in _SYLLABLES for b in _SYLLABLES for c in _SYLLABLES]

# web_long: base texts joined per page until the page reaches this length
LONG_CHARS = 8000
# ratio-rule families (n-gram repetition, symbol ratio): their suffix is a
# fixed run of junk tokens, sized to dominate a ~350-char page; on an 8 KB
# page it is repeated once per joined base text so the ratio the rule tests
# stays what it is on a short page and the expected drop holds
RATIO_FAMILIES = (11, 12)

MIN_WORDS = 20
MIN_CHARS = 120

SHARDS = 8
ROW_GROUP = 1024


def _base_texts(rng: np.random.Generator, n: int, vocab) -> List[str]:
    """``n`` texts of 20-100 words and at least ``MIN_CHARS`` characters in
    which no word bigram repeats. Both keep every quality rule quiet on a
    base text, so the family suffix alone decides the expected drop: a
    repeated bigram in a short page trips the top-2-gram rule by chance, and
    the card family's ``1111 1111`` bigram trips it on a page shorter than
    about 80 word characters."""
    vocab = list(vocab)
    out = []
    for length in rng.integers(MIN_WORDS, 101, size=n).tolist():
        words: List[str] = []
        seen = set()
        chars = 0
        while len(words) < length or chars < MIN_CHARS:
            for i in rng.integers(0, len(vocab), size=2 * length).tolist():
                w = vocab[i]
                if words and (words[-1], w) in seen:
                    continue
                if words:
                    seen.add((words[-1], w))
                words.append(w)
                chars += len(w)
                if len(words) >= length and chars >= MIN_CHARS:
                    break
        out.append(" ".join(words))
    return out


def _documents(workload: str, seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    langs = np.asarray(LANGS)[rng.choice(len(LANGS), size=n, p=LANG_P)].tolist()
    if workload == "near_dup":
        texts = _base_texts(rng, n, WIDE_VOCAB)
    elif workload == "web_short":
        texts = _base_texts(rng, n, VOCAB)
    else:
        texts = []
        for _ in range(n):
            parts: List[str] = []
            size = 0
            while size < LONG_CHARS:
                parts.extend(_base_texts(rng, 1, VOCAB))
                size += len(parts[-1]) + 1
            texts.append(" ".join(parts))
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def _scale_ratio_suffixes(pages: pa.Table, docs: pa.Table) -> pa.Table:
    """web_long only: repeat the ratio-rule family suffix once per joined
    base text (see ``RATIO_FAMILIES``)."""
    from vigil_ray.kernel.html import wrap_text
    from vigil_ray.sources.pages import FAMILIES, N_FAMILIES

    bodies = pages.column("text").to_pylist()
    base = docs.column("text").to_pylist()
    htmls = pages.column("html").to_pylist()
    for k in range(len(bodies)):
        fam = k % N_FAMILIES
        if fam in RATIO_FAMILIES:
            reps = max(1, round(len(base[k]) / 300))
            bodies[k] = (base[k] + FAMILIES[fam][0] * reps).strip()
            htmls[k] = wrap_text(bodies[k])
    pages = pages.set_column(
        pages.schema.get_field_index("text"), "text", pa.array(bodies, pa.string())
    )
    return pages.set_column(
        pages.schema.get_field_index("html"), "html", pa.array(htmls, pa.binary())
    )


def build_table(workload: str, seed: int, n: int, scratch: str) -> pa.Table:
    """The workload's input table (uncached). ``scratch`` receives the
    generated ``documents.parquet`` the library synthesizers read."""
    from vigil_ray.sources.pages import synthesize_pages, synthesize_variants

    docs = _documents(workload, seed, n)
    os.makedirs(scratch, exist_ok=True)
    pq.write_table(docs, os.path.join(scratch, "documents.parquet"))
    if workload == "near_dup":
        return synthesize_variants(scratch)
    pages = synthesize_pages(scratch, multiplier=1)
    if workload == "web_long":
        pages = _scale_ratio_suffixes(pages, docs)
    return pages


def prepare(cache_root: str, workload: str, seed: int, n: int) -> str:
    """The cached input directory for ``(workload, seed, n)``, built on first
    use."""
    out = os.path.join(cache_root, f"{workload}_s{seed}_n{n}")
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    shutil.rmtree(out, ignore_errors=True)
    table = build_table(workload, seed, n, out + ".src")
    shutil.rmtree(out + ".src", ignore_errors=True)
    os.makedirs(out)
    per = -(-table.num_rows // SHARDS)
    for i in range(SHARDS):
        pq.write_table(
            table.slice(i * per, per),
            os.path.join(out, f"part_{i:02d}.parquet"),
            row_group_size=ROW_GROUP,
        )
    with open(done, "w") as f:
        f.write("ok")
    return out


def shard_files(path: str) -> List[str]:
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def expected_pairs(vids) -> Set[Tuple[int, int]]:
    """Constructed near_dup pairs (a < b) among ``vids``: base ↔ exact copy,
    base ↔ near copy, and exact copy ↔ near copy when a doc has both."""
    from vigil_ray.sources.pages import EXACT_COPY_OFFSET, NEAR_COPY_OFFSET

    present = set(vids)
    pairs = set()
    for v in present:
        if v >= EXACT_COPY_OFFSET:
            continue
        group = [v] + [
            v + off
            for off in (EXACT_COPY_OFFSET, NEAR_COPY_OFFSET)
            if v + off in present
        ]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs.add((group[i], group[j]))
    return pairs


def as_pages(table: pa.Table) -> pa.Table:
    """A pages-shaped table (url, warc_ts, html, text, lang) over any
    workload's documents, for the traced run's cross pass."""
    if "html" in table.column_names:
        return table
    from datetime import datetime

    from vigil_ray.kernel.html import wrap_text

    texts = table.column("text").to_pylist()
    vids = table.column("vid").to_pylist()
    n = len(texts)
    return pa.table(
        {
            "url": pa.array([f"https://example.test/doc/{v:09d}" for v in vids]),
            "warc_ts": pa.array([datetime(2026, 1, 1)] * n, pa.timestamp("us")),
            "html": pa.array([wrap_text(t) for t in texts], pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )


def as_corpus(table: pa.Table) -> pa.Table:
    """A (vid, text) corpus over any workload's documents; a page's vid is
    its row key ``k``."""
    if "vid" in table.column_names:
        return table
    keys = [int(u.rsplit("/", 1)[1]) for u in table.column("url").to_pylist()]
    return pa.table({"vid": pa.array(keys, pa.int64()), "text": table.column("text")})
