"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the
repository root."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import gen  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_spec_names_match_what_the_run_reports():
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name, unit in {**e2e, **layers}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert {m["name"] for m in spec["end_to_end"]}.isdisjoint(layers)


def _result_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == RESULT_KEYS
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    for name, m in line["metrics"].items():
        assert NAME.match(name), name
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], float)
    return line


def test_result_line_survives_noise_on_stdout():
    # what a run does: claim stdout, let Ray Data (and anything else) write
    # INFO lines through fd 1 and sys.stdout, then emit the result
    code = """
import logging, os, sys
sys.path.insert(0, sys.argv[1])
import run
fd = run.claim_stdout()
log = logging.getLogger("ray.data")
log.addHandler(logging.StreamHandler(sys.stdout))
log.setLevel(logging.INFO)
log.info("Registered dataset logger for dataset test")
print("noise via print")
os.write(1, b"noise via fd 1\\n")
run.emit(fd, {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}})
log.info("Execution finished after the result")
"""
    p = subprocess.run(
        [sys.executable, "-c", code, HERE], capture_output=True, text=True, timeout=60
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout.count("\n") == 1
    _result_line(p.stdout)
    assert "noise via fd 1" in p.stderr and "Registered dataset logger" in p.stderr


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    n = 60
    a = gen.build_table(workload, 7, n, str(tmp_path / "a"))
    b = gen.build_table(workload, 7, n, str(tmp_path / "b"))
    c = gen.build_table(workload, 8, n, str(tmp_path / "c"))
    assert a.equals(b)
    assert not a.equals(c)
    if workload == "near_dup":
        pairs = gen.expected_pairs(a.column("vid").to_pylist())
        assert pairs and all(x < y for x, y in pairs)
    else:
        assert a.num_rows == n
        # row key k is the row index, so the family of row k is k % 20
        keys = [int(u.rsplit("/", 1)[1]) for u in a.column("url").to_pylist()]
        assert keys == list(range(n))


def test_prepare_caches_per_workload_seed_and_size(tmp_path):
    first = gen.prepare(str(tmp_path), "web_short", 3, 40)
    stamp = [os.stat(f).st_mtime_ns for f in gen.shard_files(first)]
    again = gen.prepare(str(tmp_path), "web_short", 3, 40)
    assert again == first
    assert [os.stat(f).st_mtime_ns for f in gen.shard_files(again)] == stamp
    assert gen.prepare(str(tmp_path), "web_short", 4, 40) != first
    assert gen.prepare(str(tmp_path), "near_dup", 3, 40) != first


STATS = """Operator 1 ReadParquet->SplitBlocks(2): 8 tasks executed, 16 blocks produced in 1.48s
* Remote wall time: 607.33us min, 12.54ms max, 5.53ms mean, 88.55ms total
* Remote cpu time: 633.4us min, 12.21ms max, 5.63ms mean, 90.14ms total
* UDF time: 0us min, 0us max, 0.0us mean, 0us total
* Peak heap memory usage (MiB): 107.5 min, 114.17 max, 110 mean
* Output num rows per block: 1250 min, 1250 max, 1250 mean, 20000 total

Operator 2 Sort: executed in 0.91s

\tSuboperator 0 SortMap: 1 tasks executed, 4 blocks produced
\t* Remote wall time: 6.65ms min, 7.79ms max, 7.38ms mean, 29.51ms total
\t* Remote cpu time: 6.47ms min, 7.79ms max, 7.34ms mean, 29.37ms total
\t* Peak heap memory usage (MiB): 0.0 min, 0.0 max, 0 mean

Operator 3 MapBatches(PiiDetectScrub)->Write: 4 tasks executed, 4 blocks produced in 4.03s
* Remote wall time: 806.04ms min, 895.11ms max, 857.63ms mean, 3.43s total
* UDF time: 776.91ms min, 865.06ms max, 824.75ms mean, 3.3s total
* Peak heap memory usage (MiB): 110.72 min, 110.81 max, 110 mean

Dataset throughput:
\t* Ray Data throughput: 0.66 rows/s
"""


def test_parse_stats():
    ops = ledger.parse_stats(STATS)
    assert [(o["name"], o["parent"]) for o in ops] == [
        ("ReadParquet->SplitBlocks(2)", "ReadParquet->SplitBlocks(2)"),
        ("SortMap", "Sort"),
        ("MapBatches(PiiDetectScrub)->Write", "MapBatches(PiiDetectScrub)->Write"),
    ]
    read, sort_map, detect = ops
    assert read["wall_s"] == pytest.approx(0.08855)
    assert read["tasks"] == 8 and read["blocks_out"] == 16 and read["rows_out"] == 20000
    assert read["peak_heap_mb"] == 114.17
    assert sort_map["cpu_s"] == pytest.approx(0.02937)
    assert detect["udf_s"] == pytest.approx(3.3)
    assert ledger.remote_wall_s(ops) == pytest.approx(0.08855 + 0.02951 + 3.43)
    assert ledger.peak_heap_mb(ops) == 114.17


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web_short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert p.stdout == ""


def test_cli_end_to_end():
    # a real run: starts a Ray session three times, about 40 s
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    assert p.stdout.count("\n") == 1
    line = _result_line(p.stdout)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(run.E2E_UNITS)
