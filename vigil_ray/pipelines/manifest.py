"""Resumable, lineage-tracked partitioned runs.

The scale story (BASELINE.md, SURVEY.md §4): output is laid out one directory
per input shard, each written atomically (tmp dir + rename), with a JSONL
manifest row per completed shard recording lineage — shard id, input file,
input fingerprint, row counts, output digest, wall time. A rerun diffs the
manifest against the input list and re-executes only missing/changed shards;
a crashed run resumes mid-corpus for free.

At 100 TB the "shards" are input files / key ranges (thousands of them) and
the same loop runs them through `ray job submit` batches; per-shard Dataset
jobs keep the streaming executor's memory bounded regardless of corpus size.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Callable, Dict, List, Optional

MANIFEST_NAME = "_manifest.jsonl"


def _input_fingerprint(path: str) -> str:
    st = os.stat(path)
    return f"{st.st_size}:{int(st.st_mtime)}"


def load_manifest(out_dir: str) -> Dict[str, dict]:
    """shard_id → manifest entry (last writer wins)."""
    entries: Dict[str, dict] = {}
    mpath = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.exists(mpath):
        with open(mpath) as f:
            for line in f:
                line = line.strip()
                if line:
                    e = json.loads(line)
                    entries[e["shard_id"]] = e
    return entries


def _append_manifest(out_dir: str, entry: dict) -> None:
    with open(os.path.join(out_dir, MANIFEST_NAME), "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def run_resumable(
    input_paths: List[str],
    out_dir: str,
    pipeline_fn: Callable,
    shard_id_fn: Optional[Callable[[str], str]] = None,
    metrics_fn: Optional[Callable] = None,
) -> dict:
    """Run ``pipeline_fn(dataset_for_shard) -> Dataset`` over every input
    shard not yet recorded complete; returns run stats.

    ``pipeline_fn`` receives a Dataset read from one input path and returns
    the transformed Dataset to persist. A shard is skipped when its manifest
    entry exists AND the input fingerprint is unchanged.

    ``metrics_fn(output_dataset) -> dict`` (optional) computes per-shard
    metrics (docs kept, PII counts, ...) recorded in the shard's manifest
    row — the per-partition metrics lineage of SURVEY.md §4; global stats are
    then a sum over manifest rows, no second pass over the data. A shard
    whose pipeline keeps no rows is recorded with ``rows_out`` 0, an empty
    shard directory and empty ``metrics`` (``metrics_fn`` is not called), so
    a rerun skips it like any other.
    """
    import ray.data as rd

    from vigil_ray.pipelines.export import read_written, write_dataset

    os.makedirs(out_dir, exist_ok=True)
    manifest = load_manifest(out_dir)
    ran, skipped = 0, 0

    for path in input_paths:
        shard_id = (
            shard_id_fn(path)
            if shard_id_fn
            else hashlib.blake2b(path.encode(), digest_size=6).hexdigest()
        )
        fingerprint = _input_fingerprint(path)
        prior = manifest.get(shard_id)
        shard_dir = os.path.join(out_dir, f"shard={shard_id}")
        if prior and prior["input_fingerprint"] == fingerprint and os.path.isdir(shard_dir):
            skipped += 1
            continue

        t0 = time.perf_counter()
        ds = rd.read_parquet(path)
        n_in = ds.count()
        out = pipeline_fn(ds)
        tmp_dir = shard_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        written = write_dataset(out, tmp_dir)
        if written.paths:
            back = read_written(written)
            n_out = back.count()
            metrics = metrics_fn(back) if metrics_fn else {}
        else:
            # no row kept: the sink wrote no file and no directory, so the
            # shard is recorded as an empty directory with no metrics
            os.makedirs(tmp_dir, exist_ok=True)
            n_out, metrics = 0, {}
        shutil.rmtree(shard_dir, ignore_errors=True)
        os.replace(tmp_dir, shard_dir)
        _append_manifest(
            out_dir,
            {
                "shard_id": shard_id,
                "input_path": path,
                "input_fingerprint": fingerprint,
                "rows_in": n_in,
                "rows_out": n_out,
                "wall_sec": round(time.perf_counter() - t0, 3),
                "output_dir": shard_dir,
                "metrics": metrics,
            },
        )
        ran += 1

    return {"ran": ran, "skipped": skipped, "total": len(input_paths)}
