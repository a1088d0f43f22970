"""Result sinks: parquet/CSV datasets + the JSON summary envelope.

Ray shape of the reference's writers (reference ``main.py:196-279``,
``src/human_review.py:459-535``): big outputs stream to partitioned
parquet/CSV via Dataset sinks; the JSON "envelope" (metadata + global stats)
becomes a small driver-side manifest computed from distributed aggregates
over the files just written — never by materializing rows on the driver,
and without running the upstream pipeline a second time.
"""

from __future__ import annotations

import json
import os
from datetime import datetime
from typing import List, NamedTuple, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs

from vigil_ray.stages.aggregates import pii_type_counts, summary_stats

ENGINE_VERSION = "vigil-ray-0.1.0"


class Written(NamedTuple):
    """The files one ``write_dataset`` call added to its output directory."""

    filesystem: pafs.FileSystem
    paths: List[str]
    fmt: str


def _join_lists(batch: pa.Table) -> pa.Table:
    """CSV shape of a batch: list columns comma-joined (mirroring
    main.py:185), the nested detail columns dropped."""
    batch = batch.drop_columns(
        [c for c in ("detalhes", "sinais_contextuais") if c in batch.column_names]
    )
    for col in ("tipos_detectados", "drop_reasons"):
        if col in batch.column_names:
            idx = batch.schema.get_field_index(col)
            batch = batch.set_column(idx, col, pc.binary_join(batch.column(col), ", "))
    return batch


def _split_tipos(batch: pa.Table) -> pa.Table:
    """Inverse of ``_join_lists`` for ``tipos_detectados`` ("" → [])."""
    idx = batch.schema.get_field_index("tipos_detectados")
    tipos = [s.split(", ") if s else [] for s in batch.column(idx).to_pylist()]
    return batch.set_column(
        idx, "tipos_detectados", pa.array(tipos, pa.list_(pa.string()))
    )


def _files_under(fs: pafs.FileSystem, root: str) -> set:
    selector = pafs.FileSelector(root, allow_not_found=True, recursive=True)
    return {i.path for i in fs.get_file_info(selector) if i.type == pafs.FileType.File}


def write_dataset(ds, out_dir: str, fmt: str = "parquet") -> Written:
    """Write ``ds`` to ``out_dir`` (CSV: list columns joined, nested columns
    dropped) and return the files this write added. Ray's file sinks append
    to an existing directory and remove the directory they created when no
    row was written, so the new files are the listing's difference."""
    if fmt not in ("parquet", "csv"):
        raise ValueError(f"unsupported format: {fmt}")
    fs, root = pafs.FileSystem.from_uri(
        out_dir if "://" in out_dir else os.path.abspath(out_dir)
    )
    before = _files_under(fs, root)
    if fmt == "parquet":
        ds.write_parquet(out_dir)
    else:
        ds.map_batches(_join_lists, batch_format="pyarrow").write_csv(out_dir)
    return Written(fs, sorted(_files_under(fs, root) - before), fmt)


def read_written(written: Written, columns: Optional[List[str]] = None):
    """Dataset of ``columns`` (parquet: all when None) read back from the
    files of one write (CSV ``tipos_detectados`` stays comma-joined)."""
    import ray.data as rd

    if written.fmt == "parquet":
        return rd.read_parquet(
            written.paths, filesystem=written.filesystem, columns=columns
        )
    import pyarrow.csv as pacsv

    return rd.read_csv(
        written.paths,
        filesystem=written.filesystem,
        # page text keeps its newlines inside quoted values
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
        convert_options=pacsv.ConvertOptions(
            include_columns=columns,
            column_types={"contem_pii": pa.bool_(), "tipos_detectados": pa.string()},
        ),
    )


def summary_envelope(
    written: Written,
    input_path: str = "",
    summary_path: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """The reference's metadata/estatisticas JSON (main.py:214-275), from
    the ``contem_pii`` and ``tipos_detectados`` columns of one write."""
    if written.paths:
        cols = read_written(written, ["contem_pii", "tipos_detectados"])
        if written.fmt == "csv":
            cols = cols.map_batches(_split_tipos, batch_format="pyarrow")
        cols = cols.materialize()  # two small columns, aggregated twice
        stats = summary_stats(cols)
        per_type = {
            row["tipo"]: int(row["n"]) for row in pii_type_counts(cols).take_all()
        }
    else:
        stats = {"total": 0, "com_pii": 0, "pct_com_pii": 0.0}
        per_type = {}
    envelope = {
        "metadata": {
            "versao": ENGINE_VERSION,
            "timestamp": timestamp or datetime(2026, 1, 1).isoformat(),
            "arquivo_entrada": input_path,
            "total_registros": stats["total"],
            "total_com_pii": stats["com_pii"],
        },
        "estatisticas": {
            "por_tipo": per_type,
            "percentual_com_pii": stats["pct_com_pii"],
        },
    }
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as f:
            json.dump(envelope, f, ensure_ascii=False, indent=2)
    return envelope


def write_results(
    ds,
    out_dir: str,
    fmt: str = "parquet",
    input_path: str = "",
    summary_path: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """Persist the detection dataset and return (optionally write) the JSON
    summary envelope. ``ds``'s lineage runs once, for the write."""
    return summary_envelope(
        write_dataset(ds, out_dir, fmt), input_path, summary_path, timestamp
    )


def write_review(review_ds, out_dir: str, fmt: str = "csv") -> None:
    """Review sink, priority-sorted upstream (stages/review.py)."""
    if fmt == "csv":
        review_ds.write_csv(out_dir)
    elif fmt == "json":
        review_ds.write_json(out_dir)
    elif fmt == "parquet":
        review_ds.write_parquet(out_dir)
    else:
        raise ValueError(f"unsupported format: {fmt}")
