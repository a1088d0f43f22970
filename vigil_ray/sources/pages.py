"""Deterministic Common-Crawl-style pages table (the BASELINE input shape).

Synthesizes the flagship input ``(url:string, warc_ts:timestamp[us],
html:binary, text:string, lang:string)`` from the driver's ``documents``
table, injecting PII / anti-FP / quality-drop families keyed purely on the row
index so expected outcomes are known *by construction* (FIXTURES.md): a SQL
oracle can compute ground-truth labels with ``k % 20`` arithmetic, no regex.

Determinism: row ``k`` (``doc_id * multiplier + replica``) fully determines
url, timestamp, injected suffix, html and text. No RNG anywhere.

The html column is the canonical ``wrap_text`` envelope, so
``extract_text(html) == text`` byte-identical per url (the BASELINE invariant).
"""

from __future__ import annotations

import os
from datetime import datetime, timedelta
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from vigil_ray.kernel.html import wrap_text

N_FAMILIES = 20

# family id → (suffix template, has_pii, quality_drop)
# Templates may use {k}. Families chosen to exercise every detection layer,
# every anti-FP guard, and the Gopher-style quality rules.
FAMILIES = {
    # NOTE: templates are punctuated so the (deliberately loose,
    # reference-faithful) name-next-to-CPF grammar cannot capture preceding
    # base words — expected type sets stay exact by construction.
    0: (" Atenção. Meu CPF é 123.456.789-00 para contato.", True, False),
    1: (" Contato: user{k}@example.test obrigado.", True, False),
    2: (" Telefone: (61) 99999-8888 ligar à tarde.", True, False),
    3: (" Documento RG: 12.345.678-9 anexado.", True, False),
    4: (" Conforme processo SEI 00015-12345678/2026-01 informado.", False, False),
    5: (" meu nome é João da Silva Pereira, atenciosamente.", True, False),
    6: (" CDA n. 08563214753 sobre o imóvel.", False, False),
    7: (" Registro. CPF: 12345678908 ok. Obrigado.", True, False),
    8: (" documento 123456789-00 e de novo 123456789-00 anexo.", True, False),
    9: (" Moro na Quadra 302 Norte, CEP: 70000-000.", False, False),
    10: ("", False, True),   # truncated to 3 words → too_few_words
    11: (" " + "buy now " * 60, False, True),  # n-gram repetition
    12: (" " + "### ... " * 20, False, True),  # symbol ratio
    13: (" whatsapp: 61 99999 8888 após as 18h.", True, False),
    14: (" +55 11 98888-7777 e email ana{k}@mail.test juntos.", True, False),
    15: (" Nis: 98765432165 para consulta.", False, False),
    16: ("", False, False),  # clean
    # north-star extension families (SSN, Luhn card, toxicity)
    17: (" SSN: 123-45-6789 informado.", True, False),
    18: (" Cartão 4111 1111 1111 1111 cadastrado.", True, False),
    19: (" você é um idiota estúpido e eu odeio isso.", False, False),  # toxic
}

_EPOCH = datetime(2026, 1, 1)

_STAMP_KEY = b"vigil_source_stamp"


def _source_stamp(sf_dir: str, multiplier: int = 1) -> bytes:
    """Fingerprint of the synthesis inputs (documents.parquet size+mtime and
    the amplification factor), embedded in the cache file's parquet schema
    metadata — cache validity is decided by the FILE itself, not by whether
    the caller remembered to fingerprint the path."""
    st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    return f"{st.st_size}:{st.st_mtime_ns}:m{multiplier}".encode()


def _stamped_cache(out_path: str, stamp: bytes) -> Optional[pa.Table]:
    """Return the cached table iff its embedded stamp matches, else None."""
    meta = pq.read_schema(out_path).metadata or {}
    if meta.get(_STAMP_KEY) == stamp:
        return pq.read_table(out_path)
    return None


def _write_stamped(table: pa.Table, out_path: str, stamp: bytes) -> None:
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    tmp = out_path + ".tmp"
    # small row groups: parquet readers parallelize per row group — a
    # single-row-group file forces a single read task and serializes the
    # whole downstream pipeline (measured: 32 cpus ran NO faster than 1)
    pq.write_table(
        table.replace_schema_metadata({_STAMP_KEY: stamp}),
        tmp,
        row_group_size=4096,
    )
    os.replace(tmp, out_path)


def synthesize_pages(
    sf_dir: str,
    multiplier: int = 1,
    out_path: Optional[str] = None,
) -> pa.Table:
    """Build the pages table from ``{sf_dir}/documents.parquet``.

    ``multiplier`` replicates each base document with distinct row keys and
    distinct e-mail local parts — the scale amplifier for benchmarks (the base
    documents tables are only 500–5000 rows). Writing to ``out_path`` is
    idempotent: if the file already exists it is returned as-is (cheap reruns,
    and the SQL oracle can read the same file).
    """
    stamp = _source_stamp(sf_dir, multiplier)
    if out_path and os.path.exists(out_path):
        # validate the cache against the embedded source fingerprint: a stale
        # file from a different corpus, a regenerated documents.parquet, or a
        # different amplification must rebuild, not silently serve the wrong
        # benchmark/oracle input — even when the caller passed a plain path
        cached = _stamped_cache(out_path, stamp)
        if cached is not None:
            return cached
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    doc_ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    langs = docs.column("lang").to_pylist()
    n = len(doc_ids)

    urls, tss, htmls, bodies, out_langs = [], [], [], [], []
    for r in range(multiplier):
        for i in range(n):
            k = doc_ids[i] * multiplier + r
            body = _page_text(texts[i], k)
            urls.append(f"https://example.test/doc/{k:09d}")
            tss.append(_EPOCH + timedelta(seconds=k))
            htmls.append(wrap_text(body))
            bodies.append(body)
            out_langs.append(langs[i])

    table = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(bodies, pa.string()),
            "lang": pa.array(out_langs, pa.string()),
        }
    )
    if out_path:
        _write_stamped(table, out_path, stamp)
    return table


def _page_text(base: str, k: int) -> str:
    fam = k % N_FAMILIES
    suffix, _, _ = FAMILIES[fam]
    if fam == 10:
        return " ".join(base.split()[:3])
    return (base + suffix.format(k=k)).strip()


# variants corpus: near/exact duplicate construction offsets
EXACT_COPY_OFFSET = 1_000_000   # doc_id % 7 == 3 → identical copy
NEAR_COPY_OFFSET = 2_000_000    # doc_id % 5 == 0 → one word appended


def synthesize_variants(sf_dir: str, out_path: Optional[str] = None) -> pa.Table:
    """Documents corpus augmented with deterministic duplicates, for the
    near-dup operators (MinHash-LSH, SimHash, n-gram Jaccard). With
    ``out_path`` the table is written once and reread on later calls; cache
    validity is enforced by the source fingerprint embedded in the file's
    parquet metadata, so a regenerated documents.parquet can never serve a
    stale cache regardless of how the caller named the path:

    - every base doc appears as ``vid = doc_id``;
    - docs with ``doc_id % 7 == 3`` get an *exact* copy at
      ``vid = doc_id + EXACT_COPY_OFFSET``;
    - docs with ``doc_id % 5 == 0`` get a *near* copy (one word appended) at
      ``vid = doc_id + NEAR_COPY_OFFSET``.

    Base docs are ≥10 words, so the near copy's 3-word-shingle Jaccard is
    ≥ (S-2)/(S+1) with S ≥ 8 → ≥ 0.66; unrelated random docs stay ≪ 0.1.
    A 0.5 threshold therefore separates constructed pairs from noise with a
    wide margin, and the expected pair set is pure doc_id arithmetic — the
    SQL oracle needs no MinHash.
    """
    stamp = _source_stamp(sf_dir)
    if out_path and os.path.exists(out_path):
        cached = _stamped_cache(out_path, stamp)
        if cached is not None:
            return cached
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    vids = list(ids)
    out_texts = list(texts)
    for i, t in zip(ids, texts):
        if i % 7 == 3:
            vids.append(i + EXACT_COPY_OFFSET)
            out_texts.append(t)
        if i % 5 == 0:
            vids.append(i + NEAR_COPY_OFFSET)
            out_texts.append(t + " extra")
    table = pa.table(
        {
            "vid": pa.array(vids, pa.int64()),
            "text": pa.array(out_texts, pa.string()),
        }
    )
    if out_path:
        _write_stamped(table, out_path, stamp)
    return table


# url-variant frontier: canonicalization construction offsets
URL_TRACKED_OFFSET = 10_000_000  # doc_id % 3 == 0 → tracked/decorated dup
URL_PAGED_OFFSET = 20_000_000    # doc_id % 4 == 1 → real ?page=2 (NOT a dup)
URL_SLASH_OFFSET = 30_000_000    # doc_id % 5 == 2 → http + trailing-slash dup


def synthesize_url_variants(sf_dir: str) -> pa.Table:
    """Crawl-frontier URL list with deterministic non-canonical variants,
    for the URL-canonicalization dedup operator (the CommonCrawl-style
    pre-fetch dedup key; reference has no crawl layer — this extends the
    quality-filter tier to the frontier):

    - every doc contributes its canonical URL at ``row_id = doc_id``;
    - ``doc_id % 3 == 0``: an upper-cased, ``www.``-prefixed, http-scheme,
      trailing-slash, ``utm_*``-tracked, fragment-bearing variant — every
      normalization rule must fire for it to collapse onto the base row;
    - ``doc_id % 4 == 1``: a ``?page=2`` variant — a REAL distinct resource
      the canonicalizer must NOT merge (non-tracking params are preserved);
    - ``doc_id % 5 == 2``: an http-scheme + trailing-slash variant.

    The expected group structure is pure doc_id arithmetic, but the SQL
    oracle re-runs the normalization itself (regexp_replace/extract) so the
    check pins the RULES, not just the counts.
    """
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    ids = docs.column("doc_id").to_pylist()
    row_ids, urls = [], []
    for i in ids:
        path = f"/doc/{i:09d}"
        row_ids.append(i)
        urls.append(f"https://example.test{path}")
        if i % 3 == 0:
            row_ids.append(i + URL_TRACKED_OFFSET)
            urls.append(
                f"HTTP://WWW.Example.TEST{path}/"
                f"?utm_source=feed&utm_campaign=x{i}#frag"
            )
        if i % 4 == 1:
            row_ids.append(i + URL_PAGED_OFFSET)
            urls.append(f"https://example.test{path}?page=2")
        if i % 5 == 2:
            row_ids.append(i + URL_SLASH_OFFSET)
            urls.append(f"http://example.test{path}/")
    return pa.table(
        {
            "row_id": pa.array(row_ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
        }
    )


FRONTIER_TRACKED_OFFSET = 40_000_000  # doc_id % 4 == 1 → decorated dup URL


def synthesize_frontier(sf_dir: str) -> pa.Table:
    """Multi-domain crawl frontier for the composed frontier-prep pipeline
    (canonicalize → dedup → domain blocklist → per-domain politeness cap):

    - every doc contributes ``https://sub{i%3}.dom{i%11}.test/p/{i}`` at
      ``row_id = doc_id`` — 11 registered domains, 3 subdomains each;
    - ``doc_id % 4 == 1``: an http + WWW-cased + utm-tracked + fragment
      variant of the same resource (collapses onto the base row after
      canonicalization).
    """
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    ids = docs.column("doc_id").to_pylist()
    row_ids, urls = [], []
    for i in ids:
        host = f"sub{i % 3}.dom{i % 11}.test"
        row_ids.append(i)
        urls.append(f"https://{host}/p/{i}")
        if i % 4 == 1:
            row_ids.append(i + FRONTIER_TRACKED_OFFSET)
            urls.append(f"HTTP://WWW.{host.upper()}/p/{i}?utm_source=x#f")
    return pa.table(
        {
            "row_id": pa.array(row_ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
        }
    )


def expected_has_pii(k: int) -> bool:
    return FAMILIES[k % N_FAMILIES][1]


def expected_quality_drop(k: int) -> bool:
    return FAMILIES[k % N_FAMILIES][2]


TOXIC_FAMILY = 19
# toxic tokens injected by the toxic family's suffix (idiota, estúpido, odeio)
TOXIC_FAMILY_HITS = 3


def expected_toxic(k: int) -> bool:
    return k % N_FAMILIES == TOXIC_FAMILY
