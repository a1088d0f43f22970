"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

SF_SMALL = "/root/testdata/sf0.001"
SF_MID = "/root/testdata/sf0.01"


def char_lm_spec_score(lm, norm: str) -> float:
    """Per-char perplexity of pre-normalized (lowered, single-spaced) text
    under ``lm``: each char's interpolated log-prob after its ``order-1``
    chars of left context, summed left to right. The spec that
    ``CharLM.score``'s segment-memoized path is pinned to."""
    o = lm.order
    seq = "~" * (o - 1) + norm
    lps = [math.log(lm._prob(seq[i - o + 1 : i], seq[i])) for i in range(o - 1, len(seq))]
    return round(math.exp(-sum(lps) / len(lps)), 4)


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()
