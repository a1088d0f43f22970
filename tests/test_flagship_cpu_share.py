"""The flagship's per-document operator gets every CPU of the session.

Ray Data's per-operator reservation gives the read and the fused
per-document operator a budget of about one task each on a two-CPU session,
so the costly operator's tasks run one after the other. ``quality_filter``
turns the reservation off on its own Dataset's context: the per-document
tasks overlap, which shows in ``ds.stats()`` as a summed remote wall time
above the operator's elapsed time. The process-wide ``DataContext`` must be
left as it was.

The run needs its own ``num_cpus=2`` session, so it happens in a subprocess
with a hard timeout; the test's own Ray session is left alone.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SF_SMALL = "/root/testdata/sf0.001"
TIMEOUT_S = 120
N_FILES, ROWS_PER_FILE, BATCH_ROWS = 8, 250, 1000  # 2000 rows → 2 batches

_SCRIPT = r"""
import json, logging, os, sys

import pyarrow.parquet as pq
import ray

sf, work = sys.argv[1], sys.argv[2]
n_files, rows_per_file, batch_rows = map(int, sys.argv[3:6])
ray.init(
    address="local",
    num_cpus=2,
    object_store_memory=256 * 1024 * 1024,
    include_dashboard=False,
    logging_level="ERROR",
)
logging.getLogger("ray.data").setLevel(logging.ERROR)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
import ray.data as rd

from vigil_ray.config import PipelineConfig
from vigil_ray.pipelines.flagship import quality_filter
from vigil_ray.sources.pages import synthesize_pages

pages = synthesize_pages(sf).slice(0, rows_per_file)
os.makedirs(f"{work}/in")
for i in range(n_files):
    pq.write_table(pages, f"{work}/in/part_{i}.parquet")
before = DataContext.get_current().op_resource_reservation_enabled
ds = quality_filter(
    rd.read_parquet(f"{work}/in"), PipelineConfig(quality_batch_size=batch_rows)
)
ds.write_parquet(f"{work}/out")
print(json.dumps({
    "stats": ds.stats(),
    "rows_out": pq.read_table(f"{work}/out", columns=["url"]).num_rows,
    "before": before,
    "after": DataContext.get_current().op_resource_reservation_enabled,
}))
ray.shutdown()
"""

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _seconds(value: str, unit: str) -> float:
    return float(value) * _UNIT_S[unit]


def _operator(stats: str, marker: str):
    """(tasks, elapsed s, summed remote wall s) of the operator whose name
    contains ``marker``."""
    head = re.search(
        rf"^Operator \d+ [^:\n]*{marker}[^:\n]*: (\d+) tasks executed, \d+ blocks "
        r"produced in ([\d.]+)(us|ms|s)$(.*?)(?:^Operator |\Z)",
        stats,
        re.M | re.S,
    )
    assert head, stats
    wall = re.search(r"Remote wall time: .*?([\d.]+)(us|ms|s) total", head.group(4))
    assert wall, head.group(0)
    return (
        int(head.group(1)),
        _seconds(head.group(2), head.group(3)),
        _seconds(wall.group(1), wall.group(2)),
    )


def test_per_document_tasks_overlap_at_num_cpus_2(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, "-c", _SCRIPT, SF_SMALL, str(tmp_path),
            str(N_FILES), str(ROWS_PER_FILE), str(BATCH_ROWS),
        ],
        cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"flagship did not finish within {TIMEOUT_S} s") from None
    assert proc.returncode == 0, err[-4000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert result["rows_out"] == N_FILES * ROWS_PER_FILE
    assert result["after"] == result["before"], result

    tasks, elapsed, remote = _operator(result["stats"], "DocumentOp")
    assert tasks >= 2, result["stats"]
    # two tasks that run one after the other sum to at most the elapsed time
    # (about 0.95 of it here); overlapping ones to nearly twice it
    assert remote > 1.2 * elapsed, result["stats"]
