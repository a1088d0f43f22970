"""Resumable partitioned runs (lineage manifest) and the export sinks."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
class TestResumable:
    @pytest.fixture()
    def sharded_input(self, tmp_path):
        """Split the documents table into 3 input shard files."""
        t = pq.read_table(f"{SF}/documents.parquet")
        paths = []
        n = t.num_rows
        for i in range(3):
            part = t.slice(i * n // 3, (i + 1) * n // 3 - i * n // 3)
            p = str(tmp_path / f"shard_{i}.parquet")
            pq.write_table(part, p)
            paths.append(p)
        return paths

    def _pipeline(self, ds):
        import pyarrow.compute as pc

        return ds.map_batches(
            lambda b: b.append_column(
                "n_chars2", pc.multiply(b.column("n_chars"), 2)
            ),
            batch_format="pyarrow",
        )

    def test_run_skip_and_invalidate(self, sharded_input, tmp_path):
        from vigil_ray.pipelines.manifest import load_manifest, run_resumable

        out_dir = str(tmp_path / "out")
        stats = run_resumable(sharded_input, out_dir, self._pipeline)
        assert stats == {"ran": 3, "skipped": 0, "total": 3}
        manifest = load_manifest(out_dir)
        assert len(manifest) == 3
        assert all(e["rows_in"] == e["rows_out"] for e in manifest.values())

        # second run: everything skipped
        stats2 = run_resumable(sharded_input, out_dir, self._pipeline)
        assert stats2 == {"ran": 0, "skipped": 3, "total": 3}

        # delete one shard's output → only it re-runs
        victim = next(iter(manifest.values()))
        shutil.rmtree(victim["output_dir"])
        stats3 = run_resumable(sharded_input, out_dir, self._pipeline)
        assert stats3 == {"ran": 1, "skipped": 2, "total": 3}

        # outputs complete and correct
        total = sum(
            pq.read_metadata(os.path.join(d, f)).num_rows
            for d in (e["output_dir"] for e in load_manifest(out_dir).values())
            for f in os.listdir(d)
        )
        assert total == pq.read_metadata(f"{SF}/documents.parquet").num_rows

    def test_empty_shard_is_recorded_and_skipped(self, tmp_path):
        """A shard whose pipeline keeps no rows writes no file; it is still
        recorded (rows_out 0, empty shard dir) and a rerun skips it."""
        from vigil_ray.pipelines.manifest import load_manifest, run_resumable

        src = str(tmp_path / "three.parquet")
        pq.write_table(pa.table({"x": [1, 2, 3]}), src)
        out_dir = str(tmp_path / "out_empty")

        def keep_none(ds):
            return ds.filter(expr="x < 0")

        stats = run_resumable([src], out_dir, keep_none)
        assert stats == {"ran": 1, "skipped": 0, "total": 1}
        (entry,) = load_manifest(out_dir).values()
        assert (entry["rows_in"], entry["rows_out"]) == (3, 0)
        assert os.listdir(entry["output_dir"]) == []
        stats2 = run_resumable([src], out_dir, keep_none)
        assert stats2 == {"ran": 0, "skipped": 1, "total": 1}

    def test_per_shard_metrics_in_manifest(self, sharded_input, tmp_path):
        from vigil_ray.pipelines.manifest import load_manifest, run_resumable

        out_dir = str(tmp_path / "out_m")

        def metrics(ds):
            return {"sum_n_chars": int(ds.sum("n_chars"))}

        run_resumable(sharded_input, out_dir, self._pipeline, metrics_fn=metrics)
        manifest = load_manifest(out_dir)
        total = sum(e["metrics"]["sum_n_chars"] for e in manifest.values())
        expected = int(
            pq.read_table(f"{SF}/documents.parquet", columns=["n_chars"])
            .column("n_chars")
            .to_pandas()
            .sum()
        )
        assert total == expected

    def test_crash_mid_corpus_resumes(self, sharded_input, tmp_path):
        """The docstring's headline claim: a run that dies mid-corpus
        (exception after some shards committed, a partial .tmp left behind)
        resumes from the manifest and re-runs only the unfinished shards."""
        from vigil_ray.pipelines.manifest import load_manifest, run_resumable

        out_dir = str(tmp_path / "out_crash")
        calls = {"n": 0}

        def crashing_pipeline(ds):
            calls["n"] += 1
            if calls["n"] == 3:  # die on the last shard
                raise RuntimeError("worker lost")
            return self._pipeline(ds)

        with pytest.raises(RuntimeError, match="worker lost"):
            run_resumable(sharded_input, out_dir, crashing_pipeline)

        # two shards committed atomically before the crash
        manifest = load_manifest(out_dir)
        assert len(manifest) == 2
        assert all(os.path.isdir(e["output_dir"]) for e in manifest.values())

        # simulate a torn write too: a stale .tmp from the dead shard
        stale = os.path.join(out_dir, "shard=deadbeef.tmp")
        os.makedirs(stale, exist_ok=True)

        stats = run_resumable(sharded_input, out_dir, self._pipeline)
        assert stats == {"ran": 1, "skipped": 2, "total": 3}
        total = sum(
            pq.read_metadata(os.path.join(d, f)).num_rows
            for d in (e["output_dir"] for e in load_manifest(out_dir).values())
            for f in os.listdir(d)
        )
        assert total == pq.read_metadata(f"{SF}/documents.parquet").num_rows

    def test_input_change_invalidates(self, sharded_input, tmp_path):
        from vigil_ray.pipelines.manifest import run_resumable

        out_dir = str(tmp_path / "out2")
        run_resumable(sharded_input, out_dir, self._pipeline)
        # touch one input with different content → fingerprint changes
        t = pq.read_table(sharded_input[0])
        pq.write_table(t.slice(0, max(1, t.num_rows - 5)), sharded_input[0])
        os.utime(sharded_input[0], (1, 1))
        stats = run_resumable(sharded_input, out_dir, self._pipeline)
        assert stats["ran"] == 1 and stats["skipped"] == 2


@pytest.mark.usefixtures("ray_session")
class TestExport:
    def test_write_results_and_envelope(self, tmp_path):
        import ray.data as rd

        from vigil_ray.config import PipelineConfig
        from vigil_ray.pipelines.export import write_results
        from vigil_ray.sources.pages import synthesize_pages
        from vigil_ray.stages.detect import detect_stage

        ds = detect_stage(rd.from_arrow(synthesize_pages(SF)), PipelineConfig())
        out_dir = str(tmp_path / "results")
        summary = str(tmp_path / "summary.json")
        envelope = write_results(
            ds, out_dir, fmt="parquet", input_path="sf0.001", summary_path=summary
        )
        assert envelope["metadata"]["total_registros"] == 500
        assert envelope["metadata"]["total_com_pii"] > 0
        assert set(envelope["estatisticas"]["por_tipo"]) == {
            "cpf", "email", "telefone", "rg", "nome", "ssn", "cartao",
        }
        on_disk = json.load(open(summary))
        assert on_disk == envelope
        back = pq.read_table(out_dir)
        assert back.num_rows == 500

    @staticmethod
    def _pages_with_line_breaks() -> pa.Table:
        """The sf pages six times over, one word per text line, so a CSV of
        them spans several read blocks with line breaks inside quoted values
        (extracted HTML text joins its lines with newlines)."""
        import pyarrow.compute as pc

        from vigil_ray.sources.pages import synthesize_pages

        pages = pa.concat_tables([synthesize_pages(SF)] * 6)
        idx = pages.schema.get_field_index("text")
        text = pc.replace_substring(pages.column(idx), " ", "\n")
        return pages.set_column(idx, "text", text)

    @pytest.mark.parametrize("fmt", ["parquet", "csv"])
    def test_write_results_runs_each_row_once(self, tmp_path, fmt):
        """The envelope is read off the written output: every input row goes
        through the upstream pipeline once, and the counts match an
        in-process run of the same detection, text line breaks included."""
        from collections import Counter

        import ray.data as rd

        from vigil_ray.config import PipelineConfig
        from vigil_ray.pipelines.export import write_results
        from vigil_ray.stages.detect import PiiDetectScrub, detect_stage

        pages = self._pages_with_line_breaks()
        calls = tmp_path / "calls"

        def counted(batch: pa.Table) -> pa.Table:
            with open(calls, "a") as f:
                f.write(f"{batch.num_rows}\n")
            return batch

        upstream = rd.from_arrow(pages).map_batches(counted, batch_format="pyarrow")
        ds = detect_stage(upstream, PipelineConfig())
        envelope = write_results(ds, str(tmp_path / "results"), fmt=fmt)
        assert sum(map(int, calls.read_text().split())) == pages.num_rows

        ref = PiiDetectScrub(PipelineConfig())(pages)
        with_pii = sum(ref.column("contem_pii").to_pylist())
        per_type = Counter(t for ts in ref.column("tipos_detectados").to_pylist() for t in ts)
        assert envelope["metadata"]["total_registros"] == pages.num_rows
        assert envelope["metadata"]["total_com_pii"] == with_pii
        assert envelope["estatisticas"]["por_tipo"] == dict(per_type)
        assert envelope["estatisticas"]["percentual_com_pii"] == round(
            100.0 * with_pii / pages.num_rows, 2
        )

    @pytest.mark.parametrize("fmt", ["parquet", "csv"])
    def test_write_results_empty_input(self, tmp_path, fmt):
        import ray.data as rd

        from vigil_ray.config import PipelineConfig
        from vigil_ray.pipelines.export import write_results
        from vigil_ray.sources.pages import synthesize_pages
        from vigil_ray.stages.detect import detect_stage

        empty = rd.from_arrow(synthesize_pages(SF).slice(0, 0))
        ds = detect_stage(empty, PipelineConfig())
        envelope = write_results(ds, str(tmp_path / "results"), fmt=fmt)
        assert envelope["metadata"]["total_registros"] == 0
        assert envelope["metadata"]["total_com_pii"] == 0
        assert envelope["estatisticas"] == {"por_tipo": {}, "percentual_com_pii": 0.0}

    @pytest.mark.parametrize("fmt", ["parquet", "csv"])
    def test_second_write_counts_only_its_own_files(self, tmp_path, fmt):
        """Ray's sinks append to an existing directory: the envelope and the
        read-back of a second write into it see that write's rows only."""
        import ray.data as rd

        from vigil_ray.config import PipelineConfig
        from vigil_ray.pipelines.export import (
            read_written,
            summary_envelope,
            write_dataset,
            write_results,
        )
        from vigil_ray.sources.pages import synthesize_pages
        from vigil_ray.stages.detect import detect_stage

        pages = synthesize_pages(SF)
        ds = detect_stage(rd.from_arrow(pages), PipelineConfig()).materialize()
        out_dir = str(tmp_path / "results")
        first = write_results(ds, out_dir, fmt=fmt)
        before = set(os.listdir(out_dir))
        second = write_dataset(ds, out_dir, fmt=fmt)
        assert before and second.paths
        assert not before & {os.path.basename(p) for p in second.paths}
        assert summary_envelope(second) == first
        assert first["metadata"]["total_registros"] == pages.num_rows
        assert read_written(second, ["contem_pii"]).count() == pages.num_rows

    def test_review_csv_roundtrip(self, tmp_path):
        import pandas as pd
        import ray.data as rd

        from vigil_ray.config import PipelineConfig
        from vigil_ray.pipelines.export import write_review
        from vigil_ray.sources.pages import synthesize_pages
        from vigil_ray.stages.detect import detect_stage
        from vigil_ray.stages.review import review_stage

        ds = detect_stage(rd.from_arrow(synthesize_pages(SF)), PipelineConfig())
        review = review_stage(ds, PipelineConfig(), sort=True)
        out_dir = str(tmp_path / "review")
        write_review(review, out_dir, fmt="csv")
        frames = [
            pd.read_csv(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))
        ]
        back = pd.concat(frames, ignore_index=True)
        assert len(back) > 0
        # sorted by priority rank: alta(0) ≤ media(1) ≤ baixa(2)
        assert back["prioridade_rank"].is_monotonic_increasing


class TestCli:
    def test_run_cli_end_to_end(self, tmp_path):
        """`python -m vigil_ray.run` — the ray-job-submit surface — over a
        pages parquet: exit 0, results parquet, summary envelope, review dir."""
        import json
        import subprocess
        import sys

        import pyarrow.parquet as pq

        from vigil_ray.sources.pages import synthesize_pages

        pages = synthesize_pages(SF)
        inp = str(tmp_path / "pages.parquet")
        pq.write_table(pages.slice(0, 200), inp, row_group_size=1024)
        out = str(tmp_path / "out")
        summary = str(tmp_path / "summary.json")
        proc = subprocess.run(
            [
                sys.executable, "-m", "vigil_ray.run",
                "--input", inp, "--output", out,
                "--summary", summary, "--num-cpus", "4",
            ],
            capture_output=True, text=True, timeout=300,
            cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        back = pq.read_table(out)
        assert back.num_rows == 200
        assert "text_scrubbed" in back.column_names
        assert "is_toxic" in back.column_names
        env = json.load(open(summary))
        assert env["metadata"]["total_registros"] == 200
        assert (tmp_path / "out_review").exists()

    def test_rerun_into_same_output_reports_its_own_rows(self, tmp_path):
        """A second run with the same ``--output`` appends files; its summary
        and its review cover the second run's rows only."""
        import subprocess
        import sys

        import pandas as pd

        from vigil_ray.sources.pages import synthesize_pages

        inp = str(tmp_path / "pages.parquet")
        pq.write_table(synthesize_pages(SF).slice(0, 200), inp, row_group_size=1024)
        out = str(tmp_path / "out")
        envelopes, reviews = [], []
        for run in ("a", "b"):
            summary = str(tmp_path / f"summary_{run}.json")
            review_dir = tmp_path / f"review_{run}"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "vigil_ray.run",
                    "--input", inp, "--output", out, "--summary", summary,
                    "--review-output", str(review_dir), "--num-cpus", "2",
                ],
                capture_output=True, text=True, timeout=300,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            envelopes.append(json.load(open(summary)))
            reviews.append(
                sum(len(pd.read_csv(f)) for f in sorted(review_dir.iterdir()))
            )
        assert pq.read_table(out).num_rows == 400
        assert envelopes[1] == envelopes[0]
        assert envelopes[1]["metadata"]["total_registros"] == 200
        assert reviews[1] == reviews[0] > 0


class TestAnalyzeErrorsCli:
    def test_predictions_only_report(self, tmp_path):
        """`python -m vigil_ray.analyze_errors` without truth: type
        distribution + examples + confidence histogram (reference
        scripts/analyze_errors.py:44-116)."""
        import subprocess
        import sys

        import pyarrow.parquet as pq

        from vigil_ray.sources.pages import synthesize_pages
        from vigil_ray.stages.detect import PiiDetectScrub
        from vigil_ray.config import PipelineConfig

        pages = synthesize_pages(SF).slice(0, 100)
        pred_tbl = PiiDetectScrub(PipelineConfig())(pages)
        inp = str(tmp_path / "preds.parquet")
        pq.write_table(pred_tbl, inp, row_group_size=1024)
        proc = subprocess.run(
            [
                sys.executable, "-m", "vigil_ray.analyze_errors",
                "--predictions", inp, "--num-cpus", "4",
            ],
            capture_output=True, text=True, timeout=300, cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "PREDICTION ANALYSIS" in proc.stdout
        assert "PII TYPE DISTRIBUTION" in proc.stdout
        assert "cpf" in proc.stdout
        assert "DETECTION EXAMPLES" in proc.stdout
        assert "CONFIDENCE DISTRIBUTION" in proc.stdout

    def test_truth_mode_report(self, tmp_path):
        """Truth mode: confusion summary, FN/FP listings with sample-text
        left join, suggestions (reference scripts/analyze_errors.py:119-217).
        Truth is deliberately perturbed so both FN and FP rows exist."""
        import subprocess
        import sys

        import pyarrow as pa
        import pyarrow.parquet as pq

        from vigil_ray.sources.pages import synthesize_pages
        from vigil_ray.stages.detect import PiiDetectScrub
        from vigil_ray.config import PipelineConfig

        pages = synthesize_pages(SF).slice(0, 100)
        pred_tbl = PiiDetectScrub(PipelineConfig())(pages)
        inp = str(tmp_path / "preds.parquet")
        pq.write_table(pred_tbl, inp, row_group_size=1024)

        urls = pred_tbl.column("url").to_pylist()
        pred = pred_tbl.column("contem_pii").to_pylist()
        # flip the first positive and the first negative → 1 FN + 1 FP
        truth = list(pred)
        truth[pred.index(True)] = False
        truth[pred.index(False)] = True
        truth_path = str(tmp_path / "truth.parquet")
        pq.write_table(
            pa.table({"url": pa.array(urls), "contem_pii": pa.array(truth)}),
            truth_path,
        )
        sample_path = str(tmp_path / "sample.parquet")
        pq.write_table(pages.select(["url", "text"]), sample_path)

        proc = subprocess.run(
            [
                sys.executable, "-m", "vigil_ray.analyze_errors",
                "--predictions", inp, "--ground-truth", truth_path,
                "--sample", sample_path, "--num-cpus", "4",
            ],
            capture_output=True, text=True, timeout=300, cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "ERROR ANALYSIS" in proc.stdout
        assert "False Positives (FP): 1" in proc.stdout
        assert "False Negatives (FN): 1" in proc.stdout
        assert "CRITICAL" in proc.stdout
        assert "FALSE NEGATIVES" in proc.stdout
        assert "FALSE POSITIVES" in proc.stdout
        assert "Text:" in proc.stdout  # sample-text join attached
        assert "IMPROVEMENT SUGGESTIONS" in proc.stdout

    def test_predictions_csv_roundtrip(self, tmp_path):
        """CSV predictions (tipos as comma-joined strings, booleans as text)
        are normalized back — the reference's CSV-first workflow."""
        import subprocess
        import sys

        import pandas as pd

        df = pd.DataFrame(
            {
                "url": [f"u{i}" for i in range(6)],
                "contem_pii": ["True", "False", "sim", "0", "true", "nao"],
                "tipos_detectados": ["cpf, email", "", "nome", "", "cpf", ""],
                "confianca": [0.95, 0.0, 0.8, 0.0, 0.9, 0.0],
                "text_scrubbed": [f"texto {i}" for i in range(6)],
            }
        )
        inp = str(tmp_path / "preds.csv")
        df.to_csv(inp, index=False)
        proc = subprocess.run(
            [
                sys.executable, "-m", "vigil_ray.analyze_errors",
                "--predictions", inp, "--num-cpus", "4",
            ],
            capture_output=True, text=True, timeout=300, cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "PII detected:     3 (50.0%)" in proc.stdout
        assert "cpf" in proc.stdout and "email" in proc.stdout
