"""The flagship on a one-CPU Ray session: it must finish, and free the CPU.

Every flagship stage is a task-mode map, so nothing holds a CPU while the
reads wait for one, and nothing keeps a CPU after the run. A stage hosted as
an actor pool breaks both: its actor takes the only CPU, so the read tasks
never run, and a finished pipeline's actor keeps its CPU until the driver's
cyclic garbage collector frees the handle.

The run needs its own ``num_cpus=1`` session, so it happens in a subprocess
with a hard timeout; the test's own Ray session is left alone.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SF_SMALL = "/root/testdata/sf0.001"
TIMEOUT_S = 120
N_PAGES = 200

_SCRIPT = r"""
import json, logging, sys, time

import pyarrow.parquet as pq
import ray

sf, work, n_pages = sys.argv[1], sys.argv[2], int(sys.argv[3])
ray.init(
    address="local",
    num_cpus=1,
    object_store_memory=256 * 1024 * 1024,
    include_dashboard=False,
    logging_level="ERROR",
)
logging.getLogger("ray.data").setLevel(logging.ERROR)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
import ray.data as rd

from vigil_ray.pipelines.flagship import quality_filter
from vigil_ray.sources.pages import synthesize_pages

pq.write_table(synthesize_pages(sf).slice(0, n_pages), f"{work}/pages.parquet")
quality_filter(rd.read_parquet(f"{work}/pages.parquet")).write_parquet(f"{work}/out")
rows_out = pq.read_table(f"{work}/out", columns=["url"]).num_rows
time.sleep(1)  # no gc.collect(): a held CPU must not depend on the collector
print(json.dumps({"rows_out": rows_out, "cpu_free": ray.available_resources().get("CPU", 0.0)}))
ray.shutdown()
"""


def test_flagship_completes_and_frees_the_cpu_at_num_cpus_1(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, SF_SMALL, str(tmp_path), str(N_PAGES)],
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
        raise AssertionError(
            f"flagship at num_cpus=1 did not finish within {TIMEOUT_S} s"
        ) from None
    assert proc.returncode == 0, err[-4000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert result["rows_out"] == N_PAGES
    assert result["cpu_free"] == 1.0, result
