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


def top_ngram_char_frac_spec(words, n: int, total_chars: int) -> float:
    """Chars of the most common word n-gram (``Counter.most_common``: a count
    tie goes to the first-inserted gram) times its count, over
    ``total_chars``; 0.0 when no n-gram repeats. ``words`` are lowered. The
    spec of ``quality._ngram_fracs``' top-2 and top-3 fractions."""
    from collections import Counter

    if len(words) < n or total_chars == 0:
        return 0.0
    gram, count = Counter(zip(*(words[i:] for i in range(n)))).most_common(1)[0]
    if count <= 1:
        return 0.0
    return round(count * sum(len(w) for w in gram) / total_chars, 6)


def dup_ngram_char_frac_spec(words, n: int, word_lens, total_chars: int) -> float:
    """Chars (``word_lens``) of the words inside any n-gram of ``words`` that
    occurs more than once, each word counted once, over ``total_chars``. The
    spec of ``quality._ngram_fracs``' dup-5 fraction."""
    from collections import Counter

    if len(words) < n or total_chars == 0:
        return 0.0
    grams = list(zip(*(words[i:] for i in range(n))))
    counts = Counter(grams)
    covered = [False] * len(words)
    for i, g in enumerate(grams):
        if counts[g] > 1:
            covered[i : i + n] = [True] * n
    if not any(covered):
        return 0.0
    return round(sum(l for l, c in zip(word_lens, covered) if c) / total_chars, 6)


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
