"""Side-by-side harness: every queries() entry vs its DuckDB oracle.

Reproduces the driver's comparison locally (row count + schema-sorted,
order-insensitive value compare) at sf0.001 so oracle drift is caught before
the round gate runs at sf0.01.
"""

import math

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings".split()
)


def _duck(sf_dir: str):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _to_pandas(obj):
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for col in df.columns:
        if df[col].dtype == object:
            df[col] = df[col].astype(str)
        elif pd.api.types.is_float_dtype(df[col]):
            df[col] = df[col].round(9)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_all_queries_match_oracles():
    from vigil_ray.queries import oracle_sql, queries

    qs, oracles = queries(), oracle_sql()
    con = _duck(SF)
    failures = []
    for name, fn in qs.items():
        ours = _canon(_to_pandas(fn(SF)))
        theirs = _canon(con.execute(oracles[name]).df())
        if len(ours) != len(theirs):
            failures.append(f"{name}: rows {len(ours)} != {len(theirs)}")
            continue
        if list(ours.columns) != list(theirs.columns):
            failures.append(
                f"{name}: columns {list(ours.columns)} != {list(theirs.columns)}"
            )
            continue
        try:
            pd.testing.assert_frame_equal(
                ours, theirs, check_dtype=False, check_exact=False, rtol=1e-6
            )
        except AssertionError as exc:
            failures.append(f"{name}: {str(exc)[:400]}")
    assert not failures, "\n".join(failures)


# sha256 pins of the registry, so a reorder, an edited oracle string or a
# changed bench tag cannot slip in unnoticed. A deliberate change updates the
# pin in the same commit.
_PIN_ORDER = "f1d5ba1e577dbcbd8719100b6e68a2fabd7ddff6c4381d45abefa66188c970fc"
_PIN_ORACLES = "9a757f11510875b95d22f0966b109862a62abafadf6f257c39802b9357f09c4b"
_PIN_BENCH = "b6f7603ec170ebdb7272811590c25a3d33f0f8120668fa80cc4693668545bae4"


def test_registry_matches_frozen_digests():
    import hashlib
    import json

    from vigil_ray.queries import bench_queries, oracle_sql, queries

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    qs, oracles = queries(), oracle_sql()
    hint = "; a deliberate change updates the pin in tests/test_queries_oracle.py"
    assert digest(list(qs)) == _PIN_ORDER, "query names or order changed" + hint
    assert (
        digest([[n, oracles[n]] for n in qs]) == _PIN_ORACLES
    ), "oracle SQL changed" + hint
    assert digest(sorted(bench_queries())) == _PIN_BENCH, (
        "bench.py secondaries changed" + hint
    )


def test_query_decorator_rejects_bad_names():
    from vigil_ray.queries import q_lang_doc_counts, queries, query

    def lang_doc_counts(sf_dir):
        return None

    with pytest.raises(ValueError, match="q_<name>"):
        query("SELECT 1")(lang_doc_counts)
    with pytest.raises(ValueError, match="registered twice"):
        query("SELECT 1")(q_lang_doc_counts)
    assert queries()["lang_doc_counts"] is q_lang_doc_counts


def test_coverage_md_names_every_registered_query():
    import os
    import re

    from vigil_ray.queries import queries

    path = os.path.join(os.path.dirname(__file__), "..", "COVERAGE.md")
    with open(path, encoding="utf-8") as f:
        groups = re.findall(r"\(q:([^)]*)\)", f.read())
    named = {n for g in groups for n in re.findall(r"`([^`]+)`", g)}
    assert named == set(queries()), (
        f"COVERAGE.md (q:...) names not in the registry: {named - set(queries())}; "
        f"registered but not in COVERAGE.md: {set(queries()) - named}"
    )
