#!/usr/bin/env python3
"""vigil_ray benchmark: three workloads on a two-CPU Ray session.

    python3 perfbench/run.py --workload web_short --seed 1 --seconds 15 --trace 0

Run from the repository root. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; everything else the
run (and Ray) prints goes to standard error. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a separate
traced run and reports its per-layer metrics. See ``perfbench/NOTES.md`` for
the workloads, the metrics and the two known defects the numbers carry.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

# logical CPUs of the Ray session. Two is the least at which the flagship
# runs: at one, the quality actor pool holds the only CPU and the read tasks
# never get one (NOTES.md, defect 1).
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_REPS = 3
LEDGER_REPS = 5
DEADLINE_S = 170.0

WORKLOADS = {
    # name: (base documents, in-process ledger sample)
    "web_short": (10_000, 2048),
    "web_long": (500, 96),
    "near_dup": (4_000, 2048),
}
FLAGSHIP = ("web_short", "web_long")

# the flagship stage callables, found by name in the (possibly fused) Ray
# Data operator names; each role reports the operator that runs it
FLAGSHIP_ROLES = (
    ("read", "ReadParquet"),
    ("extract", "_extract_batch"),
    ("quality", "QualityScorer"),
    ("detect", "PiiDetectScrub"),
    ("write", "Write"),
)
DEDUP_PIPELINES = ("minhash", "winnow")
ALL_TO_ALL = ("Sort", "Aggregate", "Repartition")

KERNELS = (
    "html.extract_text",
    "perplexity.score",
    "quality.quality_features",
    "quality.quality_rules",
    "langid.classify",
    "detector.could_have_pii",
    "detector.analyze_document",
    "toxicity.score_toxicity",
)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "docs_per_s": "1/s",
    "peak_heap_mb": "MiB",
    "out_bytes_ratio": "ratio",
}


def layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from ledger import OP_FIELDS

    op_units = {
        "wall_s": "s",
        "cpu_s": "s",
        "udf_s": "s",
        "tasks": "count",
        "blocks_out": "count",
        "rows_out": "count",
        "peak_heap_mb": "MiB",
    }
    u: Dict[str, str] = {f"kernel.{k}.us_per_doc": "us" for k in KERNELS}
    u["kernel.detector.prefilter_pass_ratio"] = "ratio"
    u["kernel.detector.pii_hit_ratio"] = "ratio"
    for stage in ("extract", "quality", "detect"):
        u[f"stages.{stage}.us_per_doc"] = "us"
        u[f"stages.{stage}.glue_us_per_doc"] = "us"
    u["stages.dedup.minhash_lsh_pairs.wall_s"] = "s"
    u["stages.dedup.minhash_lsh_pairs.pairs_out"] = "count"
    u["stages.corpus.winnow_match_pairs.wall_s"] = "s"
    u["stages.corpus.winnow_match_pairs.pairs_out"] = "count"
    u["stages.dedup.minhash_signature.us_per_doc"] = "us"
    for role, _ in FLAGSHIP_ROLES:
        for f in OP_FIELDS:
            u[f"ray_data.{role}.{f}"] = op_units[f]
    for pipe in DEDUP_PIPELINES:
        for kind in ("map", "all_to_all"):
            for f in OP_FIELDS:
                u[f"ray_data.{pipe}.{kind}.{f}"] = op_units[f]
    u["ray_data.wait_s"] = "s"
    u["ray_data.pool_cpus_held"] = "count"
    u["pipelines.flagship.reconcile_ratio"] = "ratio"
    u["pipelines.trace_overhead_s"] = "s"
    u["sources.generate_s"] = "s"
    u["error_ratio"] = "ratio"
    return u


# --- session -------------------------------------------------------------------


def ray_temp_dir() -> str:
    """The Ray session directory: inside the checkout, unless the checkout
    path is too long for the session's unix sockets (107 bytes with about 65
    of session and socket names below this directory); then a per-process
    directory in the system temp dir, which ``main`` removes on exit."""
    inside = os.path.join(WORK, "ray")
    if len(inside.encode()) + 65 <= 107:
        return inside
    return os.path.join(tempfile.gettempdir(), f"perfbench-{os.getpid()}")


def start_session() -> None:
    import ray

    ray.init(
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=ray_temp_dir(),
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _proc_stat(pid: int) -> List[str]:
    """Fields of /proc/<pid>/stat after the command name (state, ppid, ...);
    empty once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _descendants() -> List[int]:
    children: Dict[int, List[int]] = {}
    for name in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if name.isdigit():
            fields = _proc_stat(int(name))
            if fields:
                children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def stop_session() -> None:
    """Shut the Ray session down and wait until every process it started
    has ended; ``ray.shutdown`` signals them without waiting for all."""
    import ray

    if not ray.is_initialized():
        return
    started = _descendants()
    ray.shutdown()
    deadline = time.monotonic() + 10.0
    alive = started
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [p for p in alive if _proc_stat(p)[:1] not in ([], ["Z"], ["X"])]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


# --- pipelines -----------------------------------------------------------------


def run_flagship(src: str, out: str):
    """read → ``quality_filter`` (library defaults) → write. Returns the
    executed dataset."""
    import ray.data as rd

    from vigil_ray.pipelines.flagship import quality_filter

    ds = quality_filter(rd.read_parquet(src))
    ds.write_parquet(out)
    return ds


def run_minhash(src: str, out: str):
    import ray.data as rd

    from vigil_ray.stages.dedup import minhash_lsh_pairs

    ds = minhash_lsh_pairs(rd.read_parquet(src), threshold=0.5)
    ds.write_parquet(os.path.join(out, "minhash"))
    return ds


def run_winnow(src: str, out: str):
    import ray.data as rd

    from vigil_ray.stages.corpus import winnow_match_pairs

    ds = winnow_match_pairs(rd.read_parquet(src), k=3, w=4, max_share=10, id_col="vid")
    ds.write_parquet(os.path.join(out, "winnow"))
    return ds


def run_near_dup(src: str, out: str):
    """read → ``minhash_lsh_pairs`` → write, then read →
    ``winnow_match_pairs`` → write. Returns both executed datasets."""
    return run_minhash(src, out), run_winnow(src, out)


PIPELINES = {"web_short": run_flagship, "web_long": run_flagship, "near_dup": run_near_dup}


def timed(fn: Callable, *args) -> Tuple[float, object]:
    t0 = time.perf_counter()
    res = fn(*args)
    return time.perf_counter() - t0, res


def cpus_held() -> float:
    """Session CPUs still reserved one second after a pipeline returned,
    while this process holds its executed Dataset (NOTES.md, defect 2)."""
    import ray

    time.sleep(1.0)  # available_resources() lags the scheduler
    return NUM_CPUS - ray.available_resources().get("CPU", 0.0)


def read_rows(path: str) -> List[Dict]:
    """Rows written under ``path``; a pipeline that produced no rows leaves
    no directory."""
    import pyarrow.parquet as pq

    return pq.read_table(path).to_pylist() if os.path.isdir(path) else []


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def stats_of(res) -> List[Dict]:
    from ledger import parse_stats

    datasets = res if isinstance(res, tuple) else (res,)
    return [op for ds in datasets for op in parse_stats(ds.stats())]


# --- output checks -------------------------------------------------------------


def check_flagship(src: str, out: str) -> Tuple[int, int]:
    """(attempted, failed): one per input page; a page fails when its output
    row is missing, duplicated, or carries a label its family contradicts."""
    import pyarrow.parquet as pq

    from vigil_ray.sources.pages import (
        expected_has_pii,
        expected_quality_drop,
        expected_toxic,
    )

    urls_in = pq.read_table(src, columns=["url"]).column("url").to_pylist()
    got = pq.read_table(
        out, columns=["url", "extract_ok", "contem_pii", "is_toxic", "keep", "drop_reasons"]
    ).to_pylist()
    rows = {}
    failed = 0
    for r in got:
        if r["url"] in rows:
            failed += 1
        rows[r["url"]] = r
    for url in urls_in:
        r = rows.pop(url, None)
        k = int(url.rsplit("/", 1)[1])
        if r is None:
            failed += 1
            continue
        keep = not (expected_quality_drop(k) or expected_toxic(k))
        ok = (
            r["extract_ok"]
            and r["contem_pii"] == expected_has_pii(k)
            and r["is_toxic"] == expected_toxic(k)
            and r["keep"] == keep
            and bool(r["drop_reasons"]) == (not keep)
        )
        failed += not ok
    failed += len(rows)  # rows out that no input produced
    return len(urls_in), failed


def check_near_dup(src: str, out: str) -> Tuple[int, int]:
    """(attempted, failed) over both operators. Attempted: the constructed
    pairs plus every pair emitted. Failed: a constructed pair not found, a
    repeated pair, a minhash pair whose exact word 3-gram Jaccard is below
    the threshold, or a winnow pair claiming more shared fingerprints than
    the two documents share distinct word 3-gram hashes (the fingerprints
    are 32-bit, so two documents can share one without sharing a 3-gram)."""
    import pyarrow.parquet as pq

    from gen import expected_pairs
    from vigil_ray.stages.corpus import _winnow_hash
    from vigil_ray.stages.dedup import jaccard

    def gram_hashes(t: str) -> set:
        words = t.split()
        return {_winnow_hash(" ".join(words[p : p + 3])) for p in range(len(words) - 2)}

    corpus = pq.read_table(src)
    text = dict(zip(corpus.column("vid").to_pylist(), corpus.column("text").to_pylist()))
    want = expected_pairs(text)
    attempted = failed = 0
    for name in ("minhash", "winnow"):
        got = read_rows(os.path.join(out, name))
        pairs = {(r["a"], r["b"]) for r in got}
        attempted += len(want | pairs)
        failed += len(want - pairs) + (len(got) - len(pairs))
        for r in got:
            a, b = r["a"], r["b"]
            if not (a < b and a in text and b in text):
                failed += 1
            elif name == "minhash":
                failed += jaccard(text[a], text[b], 3) < 0.5
            else:
                shared = gram_hashes(text[a]) & gram_hashes(text[b])
                failed += not (1 <= r["n_shared"] <= len(shared))
    return attempted, failed


CHECKS = {"web_short": check_flagship, "web_long": check_flagship, "near_dup": check_near_dup}


# --- runs ----------------------------------------------------------------------


def setup(workload: str, seed: int) -> Tuple[float, str]:
    """Session start + input generation or cache load + one untimed warm-up
    pipeline over one shard. Returns (seconds, input dir)."""
    import gen

    t0 = time.perf_counter()
    start_session()
    src = gen.prepare(os.path.join(WORK, "inputs"), workload, seed, WORKLOADS[workload][0])
    warm = os.path.join(WORK, "warm")
    shutil.rmtree(warm, ignore_errors=True)
    PIPELINES[workload](gen.shard_files(src)[0], warm)
    setup_s = time.perf_counter() - t0
    shutil.rmtree(warm, ignore_errors=True)
    return setup_s, src


def fresh(out: str) -> None:
    """Clear ``out`` and wait until every session CPU is free: garbage from
    the previous pipeline is collected and its released actors are awaited.
    A finished flagship's actor pool keeps its CPU until its handle is
    collected (NOTES.md, defect 2); ``ray_data.pool_cpus_held`` in the
    traced run reports that hold."""
    import ray

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    deadline = time.monotonic() + 10.0
    while ray.available_resources().get("CPU", 0.0) < NUM_CPUS and time.monotonic() < deadline:
        time.sleep(0.05)


def one_rep(workload: str, src: str, out: str) -> Tuple[float, object]:
    """One timed pipeline, from Dataset creation to output fully written,
    started from a ``fresh`` session (outside the timing)."""
    fresh(out)
    return timed(PIPELINES[workload], src, out)


def measure(workload: str, seed: int, seconds: float) -> Dict:
    import pyarrow.parquet as pq

    import gen
    import ledger

    setups = []
    for i in range(SETUPS):
        if i:
            stop_session()
        setups.append(setup(workload, seed))
    src = setups[-1][1]
    in_bytes = dir_bytes(src)
    out = os.path.join(WORK, "out")
    walls, heaps, ratios = [], [], []
    attempted = failed = docs = 0
    n_rows = sum(pq.read_metadata(f).num_rows for f in gen.shard_files(src))
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        wall, res = one_rep(workload, src, out)
        walls.append(wall)
        heaps.append(ledger.peak_heap_mb(stats_of(res)))
        ratios.append(dir_bytes(out) / in_bytes)
        a, f = CHECKS[workload](src, out)
        attempted += a
        failed += f
        docs += n_rows
        del res
    stop_session()
    log(f"{workload} seed={seed} reps={len(walls)} walls={[round(w, 3) for w in walls]}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(s[0] for s in setups),
            "wall_s": statistics.median(walls),
            "docs_per_s": docs / sum(walls),
            # the run's peak: which worker ran which task (and so which memos
            # share a heap) varies from rep to rep
            "peak_heap_mb": max(heaps),
            "out_bytes_ratio": statistics.median(ratios),
        },
    }


def trace(workload: str, seed: int) -> Dict:
    """The traced run: one untraced rep and one rep whose Dataset stats are
    parsed, the other pipeline family over the same documents (so every
    layer is read on every workload), then the in-process ledgers with the
    session stopped."""
    import pyarrow.parquet as pq

    import gen
    import ledger
    from vigil_ray.config import PipelineConfig

    _, src = setup(workload, seed)
    n_docs, sample = WORKLOADS[workload]
    out = os.path.join(WORK, "out")
    m: Dict[str, float] = {}

    plain_wall, res = one_rep(workload, src, out)
    del res
    wall, res = one_rep(workload, src, out)
    if workload in FLAGSHIP:
        m["ray_data.pool_cpus_held"] = cpus_held()
    own_ops = stats_of(res)
    attempted, failed = CHECKS[workload](src, out)
    m["error_ratio"] = failed / attempted
    m["pipelines.trace_overhead_s"] = wall - plain_wall
    m["ray_data.wait_s"] = wall - ledger.remote_wall_s(own_ops)
    del res

    # the other family reads this workload's documents in its own shape
    table = pq.read_table(src)
    pages, corpus = gen.as_pages(table), gen.as_corpus(table)
    cross = os.path.join(WORK, "cross")
    cross_out = os.path.join(WORK, "cross_out")
    shutil.rmtree(cross, ignore_errors=True)
    os.makedirs(cross)
    pq.write_table(
        corpus if workload in FLAGSHIP else pages,
        os.path.join(cross, "part.parquet"),
        row_group_size=gen.ROW_GROUP,
    )
    if workload in FLAGSHIP:
        flag_src, flag_out, flag_wall, flag_ops = src, out, wall, own_ops
        dedup_src, dedup_out = cross, cross_out
    else:
        flag_src, flag_out = cross, cross_out
        flag_wall, res = one_rep("web_short", flag_src, flag_out)
        m["ray_data.pool_cpus_held"] = cpus_held()
        flag_ops = stats_of(res)
        del res
        dedup_src, dedup_out = src, out
    for role, marker in FLAGSHIP_ROLES:
        picked = [op for op in flag_ops if marker in op["name"]]
        for k, v in ledger.sum_ops(picked).items():
            m[f"ray_data.{role}.{k}"] = v
    for pipe, fn, stem in (
        ("minhash", run_minhash, "stages.dedup.minhash_lsh_pairs"),
        ("winnow", run_winnow, "stages.corpus.winnow_match_pairs"),
    ):
        fresh(os.path.join(dedup_out, pipe))
        secs, res = timed(fn, dedup_src, dedup_out)
        ops = stats_of(res)
        del res
        m[f"{stem}.wall_s"] = secs
        m[f"{stem}.pairs_out"] = len(read_rows(os.path.join(dedup_out, pipe)))
        for kind in ("map", "all_to_all"):
            picked = [op for op in ops if (op["parent"].startswith(ALL_TO_ALL)) == (kind == "all_to_all")]
            for k, v in ledger.sum_ops(picked).items():
                m[f"ray_data.{pipe}.{kind}.{k}"] = v
    stop_session()

    cfg = PipelineConfig()
    sample_pages = pages.slice(0, sample)
    m.update(ledger.doc_ledger(sample_pages, cfg, reps=LEDGER_REPS))
    m["stages.dedup.minhash_signature.us_per_doc"] = ledger.signature_us_per_doc(
        corpus.column("text").to_pylist()[:sample], reps=LEDGER_REPS
    )

    # the layers add up: in-process stage time + in-process read and write +
    # time no operator ran, over the flagship wall
    stage_s = pages.num_rows / 1e6 * sum(
        m[f"stages.{s}.us_per_doc"] for s in ("extract", "quality", "detect")
    )
    wait_s = flag_wall - ledger.remote_wall_s(flag_ops)
    m["pipelines.flagship.reconcile_ratio"] = (
        stage_s + io_seconds(flag_src, flag_out) + wait_s
    ) / flag_wall

    probe = os.path.join(WORK, "gen_probe")
    t0 = time.perf_counter()
    gen.build_table(workload, seed, n_docs, probe)
    m["sources.generate_s"] = time.perf_counter() - t0
    shutil.rmtree(probe, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "metrics": m}


def io_seconds(src: str, out: str) -> float:
    """In-process cost of the pipeline's read and write: read the input
    shards, write the output table once more to a scratch file."""
    import pyarrow.parquet as pq

    t0 = time.perf_counter()
    pq.read_table(src)
    read_s = time.perf_counter() - t0
    table = pq.read_table(out)
    probe = os.path.join(WORK, "io_probe.parquet")
    t0 = time.perf_counter()
    pq.write_table(table, probe)
    write_s = time.perf_counter() - t0
    os.remove(probe)
    return read_s + write_s


# --- entry point ---------------------------------------------------------------


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def claim_stdout() -> int:
    """Point file descriptor 1 at stderr and return a copy of the original
    stdout, so the result line is the only thing written there: Ray, its
    workers and the library write to fd 1 too, and Ray Data logs INFO lines
    even at ``logging_level="ERROR"``."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    return saved


def emit(fd: int, line: Dict) -> None:
    os.write(fd, (json.dumps(line) + "\n").encode())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "vigil_ray", "__init__.py")):
        log(f"vigil_ray not found under {ROOT}: run from a repository checkout")
        return 2
    sys.path[:0] = [ROOT, HERE]
    # Ray workers import the library from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        x for x in (ROOT, os.environ.get("PYTHONPATH")) if x
    )

    result_fd = claim_stdout()

    def cleanup() -> None:
        stop_session()
        if not ray_temp_dir().startswith(WORK):
            shutil.rmtree(ray_temp_dir(), ignore_errors=True)

    def expire() -> None:
        log(f"deadline of {DEADLINE_S:.0f} s passed; stopping")
        try:
            cleanup()
        finally:
            os._exit(3)

    watchdog = threading.Timer(DEADLINE_S, expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.trace:
            res = trace(args.workload, args.seed)
            units = layer_units()
        else:
            res = measure(args.workload, args.seed, args.seconds)
            units = E2E_UNITS
    finally:
        watchdog.cancel()
        cleanup()
    missing = set(units) - set(res["metrics"])
    if missing:
        log(f"metrics not measured: {sorted(missing)}")
        return 4
    line = {
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {
            k: {"value": float(res["metrics"][k]), "unit": u} for k, u in units.items()
        },
    }
    emit(result_fd, line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
