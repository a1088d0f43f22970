"""Per-layer readings for the traced run.

Three layers below the end-to-end wall time, named after the repo's modules:

- ``kernel.*``: each per-document kernel timed in process, warm, over a
  fixed sample of the workload's documents, with the repetitions of all
  kernels interleaved so drift on the host spreads evenly over them;
- ``stages.*``: the stage callables the pipeline hands to ``map_batches``
  (``_extract_batch``, ``QualityScorer``, ``PiiDetectScrub``) called in
  process on one Arrow batch of the configured size, interleaved with the
  kernels; the glue is the stage time minus the kernels it calls;
- ``ray_data.*``: per-operator totals parsed from ``Dataset.stats()``.
"""

from __future__ import annotations

import re
import statistics
import time
from typing import Callable, Dict, List, Sequence

# --- Dataset.stats() parsing -------------------------------------------------

_OP_HEAD = re.compile(r"^\s*(Operator|Suboperator) \d+ (.+?):(.*)$")
_TASKS = re.compile(r"(\d+) tasks executed, (\d+) blocks produced")
_TIME_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_TOTAL_TIME = re.compile(r"([\d.]+)(us|ms|s) total")
_STAT_LINES = {
    "Remote wall time": "wall_s",
    "Remote cpu time": "cpu_s",
    "UDF time": "udf_s",
}
OP_FIELDS = ("wall_s", "cpu_s", "udf_s", "tasks", "blocks_out", "rows_out", "peak_heap_mb")


def parse_stats(text: str) -> List[Dict]:
    """One dict per executed operator or sub-operator of a ``ds.stats()``
    dump: ``name``, ``parent`` (the all-to-all operator a sub-operator belongs
    to, else its own name) and the ``OP_FIELDS`` totals."""
    ops: List[Dict] = []
    parent = ""
    cur = None
    for line in text.splitlines():
        head = _OP_HEAD.match(line)
        if head:
            kind, name, rest = head.groups()
            if kind == "Operator":
                parent = name
            cur = {"name": name, "parent": parent, **{f: 0.0 for f in OP_FIELDS}}
            m = _TASKS.search(rest)
            if m:
                cur["tasks"] = float(m.group(1))
                cur["blocks_out"] = float(m.group(2))
            ops.append(cur)
            continue
        if cur is None or "* " not in line:
            continue
        label, _, value = line.strip().lstrip("* ").partition(":")
        if label in _STAT_LINES:
            m = _TOTAL_TIME.search(value)
            if m:
                cur[_STAT_LINES[label]] = float(m.group(1)) * _TIME_UNITS[m.group(2)]
        elif label == "Peak heap memory usage (MiB)":
            cur["peak_heap_mb"] = float(value.split()[2])  # "<min> min, <max> max"
        elif label == "Output num rows per block":
            cur["rows_out"] = float(value.rsplit(",", 1)[1].split()[0])
    # a "Dataset throughput" or per-dataset summary never carries op stats;
    # keep only units that ran tasks
    return [op for op in ops if op["tasks"] or op["wall_s"]]


def sum_ops(ops: Sequence[Dict]) -> Dict[str, float]:
    out = {f: 0.0 for f in OP_FIELDS}
    for op in ops:
        for f in OP_FIELDS:
            if f == "peak_heap_mb":
                out[f] = max(out[f], op[f])
            else:
                out[f] += op[f]
    return out


def peak_heap_mb(ops: Sequence[Dict]) -> float:
    return max((op["peak_heap_mb"] for op in ops), default=0.0)


def remote_wall_s(ops: Sequence[Dict]) -> float:
    return sum(op["wall_s"] for op in ops)


# --- in-process timing ---------------------------------------------------------


def interleaved(fns: Dict[str, Callable[[], object]], reps: int) -> Dict[str, float]:
    """Median seconds per call of each ``fns`` entry over ``reps`` rounds; one
    round calls every function once, in a rotating order."""
    names = list(fns)
    times: Dict[str, List[float]] = {k: [] for k in names}
    for r in range(reps):
        order = names[r % len(names):] + names[: r % len(names)]
        for k in order:
            t0 = time.perf_counter()
            fns[k]()
            times[k].append(time.perf_counter() - t0)
    return {k: statistics.median(v) for k, v in times.items()}


# kernels each stage callable runs per document (glue = stage − these)
STAGE_KERNELS = {
    "extract": ("html.extract_text",),
    "quality": (
        "perplexity.score",
        "quality.quality_features",
        "langid.classify",
        "quality.quality_rules",
    ),
    "detect": ("detector.analyze_document", "toxicity.score_toxicity"),
}


def doc_ledger(pages, cfg, reps: int) -> Dict[str, float]:
    """``kernel.*`` and ``stages.*`` metrics on ``pages`` (a pyarrow table in
    the pages shape), in µs per document; the ratios count documents.

    Kernels run over every page of the sample. Each stage callable runs on
    one Arrow batch of its configured size, or on the whole sample when that
    is smaller. Kernel and stage repetitions are interleaved in one loop, so
    a slow spell on the host lands on both sides of the glue subtraction."""
    from vigil_ray.kernel.detector import analyze_document, could_have_pii
    from vigil_ray.kernel.html import extract_text
    from vigil_ray.kernel.langid import classify
    from vigil_ray.kernel.perplexity import CharLM
    from vigil_ray.kernel.quality import quality_features, quality_rules
    from vigil_ray.kernel.toxicity import score_toxicity
    from vigil_ray.stages.detect import PiiDetectScrub
    from vigil_ray.stages.extract import _extract_batch
    from vigil_ray.stages.quality import QualityScorer

    htmls = pages.column("html").to_pylist()
    texts = pages.column("text").to_pylist()
    n = len(texts)
    lm = CharLM()
    qcfg, tcfg, token = cfg.quality, cfg.toxicity, cfg.scrub_token
    feats = [quality_features(t) for t in texts]
    langs = [classify(t) for t in texts]
    ppl = [lm.score(t) for t in texts]

    scorer = QualityScorer(cfg)
    detector = PiiDetectScrub(cfg, apply_toxicity=True)
    b_extract = pages.slice(0, cfg.quality_batch_size)
    b_quality = _extract_batch(b_extract).drop_columns(["html"])
    b_detect = scorer(_extract_batch(pages.slice(0, cfg.detect_batch_size)).drop_columns(["html"]))
    per_call = {
        "stages.extract": b_extract.num_rows,
        "stages.quality": b_quality.num_rows,
        "stages.detect": b_detect.num_rows,
    }

    fns = {
        "kernel.html.extract_text": lambda: [extract_text(h) for h in htmls],
        "kernel.perplexity.score": lambda: [lm.score(t) for t in texts],
        "kernel.quality.quality_features": lambda: [quality_features(t) for t in texts],
        "kernel.quality.quality_rules": lambda: [
            quality_rules(f, ls, p, qcfg) for f, (_, ls), p in zip(feats, langs, ppl)
        ],
        "kernel.langid.classify": lambda: [classify(t) for t in texts],
        "kernel.detector.could_have_pii": lambda: [could_have_pii(t) for t in texts],
        "kernel.detector.analyze_document": lambda: [analyze_document(t, token) for t in texts],
        "kernel.toxicity.score_toxicity": lambda: [
            score_toxicity(t, tcfg.min_hits, tcfg.min_ratio) for t in texts
        ],
        "stages.extract": lambda: _extract_batch(b_extract),
        "stages.quality": lambda: scorer(b_quality),
        "stages.detect": lambda: detector(b_detect),
    }
    for f in fns.values():  # warm every memo before timing
        f()
    secs = interleaved(fns, reps)
    out = {f"{k}.us_per_doc": v / per_call.get(k, n) * 1e6 for k, v in secs.items()}
    for stage, kernels in STAGE_KERNELS.items():
        inner = sum(out[f"kernel.{k}.us_per_doc"] for k in kernels)
        out[f"stages.{stage}.glue_us_per_doc"] = out[f"stages.{stage}.us_per_doc"] - inner

    passed = [t for t in texts if could_have_pii(t)]
    hits = sum(analyze_document(t, token)[0]["contem_pii"] for t in passed)
    out["kernel.detector.prefilter_pass_ratio"] = len(passed) / n
    out["kernel.detector.pii_hit_ratio"] = hits / len(passed) if passed else 0.0
    return out


def signature_us_per_doc(texts: Sequence[str], reps: int) -> float:
    from vigil_ray.stages.dedup import minhash_signature

    texts = list(texts)
    for t in texts:
        minhash_signature(t)
    secs = interleaved({"sig": lambda: [minhash_signature(t) for t in texts]}, reps)
    return secs["sig"] / len(texts) * 1e6
