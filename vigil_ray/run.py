"""CLI entry point — the reference ``main.py`` lifecycle on Ray Data.

    python -m vigil_ray.run --input pages.parquet --output out_dir \
        [--output-format parquet|csv] [--text-column text] [--key-column url] \
        [--no-review] [--review-output DIR] [--no-details] [--summary PATH]

Reads a pages-shaped parquet (or CSV/JSON via the tolerant readers), runs the
flagship quality-filter pipeline, writes results + optional review export +
JSON summary envelope (reference main.py:329-469 flag surface, SURVEY.md §3.1).

This is the only module besides bench.py allowed to own a Ray session.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="vigil-ray quality-filter pipeline")
    p.add_argument("--input", required=True, help="input parquet file/dir (or .csv/.json)")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--output-format", choices=("parquet", "csv"), default="parquet")
    p.add_argument("--text-column", default="text")
    p.add_argument("--key-column", default="url")
    p.add_argument("--no-review", action="store_true", help="skip the review export")
    p.add_argument("--review-output", default=None, help="review export dir")
    p.add_argument("--no-details", action="store_true", help="omit detalhes columns")
    p.add_argument("--summary", default=None, help="JSON summary envelope path")
    p.add_argument("--num-cpus", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    try:
        from vigil_ray.config import PipelineConfig
        from vigil_ray.pipelines.export import (
            read_written,
            summary_envelope,
            write_dataset,
            write_review,
        )
        from vigil_ray.pipelines.flagship import quality_filter
        from vigil_ray.sources.readers import read_table
        from vigil_ray.sources.textfiles import read_csv_tolerant, read_json_records
        from vigil_ray.stages.review import review_stage

        ext = os.path.splitext(args.input)[1].lower()
        if ext == ".csv":
            ds = read_csv_tolerant(args.input)
        elif ext == ".json":
            ds = read_json_records(args.input)
        elif os.path.isdir(args.input):
            import ray.data as rd

            ds = rd.read_parquet(args.input)
        else:
            ds = read_table(args.input)

        if args.text_column not in ds.schema().names:
            raise SystemExit(
                f"error: text column '{args.text_column}' not found; "
                f"available: {ds.schema().names}"
            )

        cfg = PipelineConfig(
            text_column=args.text_column,
            key_column=args.key_column,
            emit_details=not args.no_details,
        )
        result = quality_filter(ds, cfg)
        written = write_dataset(result, args.output, fmt=args.output_format)
        envelope = summary_envelope(
            written, input_path=args.input, summary_path=args.summary
        )
        print(
            f"processed {envelope['metadata']['total_registros']} docs, "
            f"{envelope['metadata']['total_com_pii']} with PII "
            f"({envelope['estatisticas']['percentual_com_pii']}%)"
        )

        if not args.no_review and cfg.emit_details:
            review_dir = args.review_output or os.path.join(
                args.output.rstrip("/") + "_review"
            )
            # parquet results keep the detail columns: read this run's files
            # back rather than run the pipeline again (CSV results drop them)
            source = (
                read_written(
                    written,
                    [cfg.key_column, cfg.text_column, "detalhes", "contem_pii"],
                )
                if args.output_format == "parquet" and written.paths
                else result
            )
            review = review_stage(source, cfg, sort=True)
            write_review(review, review_dir, fmt="csv")
            print(f"review export: {review_dir}")
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
