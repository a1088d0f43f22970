"""The fused per-document map: byte-sized batches and per-page isolation.

``batch_rows`` turns ``PipelineConfig.batch_bytes`` into the row batch of
every per-document map from the plan's metadata, without executing the
Dataset. Every part of ``DocumentOp`` isolates each page's kernels, so a
poison page costs its own columns, not the task.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import SF_SMALL

from vigil_ray.config import NOMINAL_ROW_BYTES, PipelineConfig
from vigil_ray.stages import document as document_mod
from vigil_ray.stages.document import QUALITY_ERROR, DocumentOp, batch_rows

MIB = 1 << 20


def _pages(n: int, width: int) -> pa.Table:
    words = ("palavra ", "texto ", "documento ", "simples ")
    texts = [
        "".join(words[(i + j) % 4] for j in range(width // 8))[:width] for i in range(n)
    ]
    return pa.table({"url": [f"u{i}" for i in range(n)], "text": texts})


@pytest.mark.usefixtures("ray_session")
class TestBatchRows:
    def test_long_pages_get_proportionally_fewer_rows(self):
        import ray.data as rd

        short, long_ = _pages(2000, 400), _pages(2000, 8000)
        rows_short = batch_rows(rd.from_arrow(short), 4 * MIB)
        rows_long = batch_rows(rd.from_arrow(long_), 4 * MIB)
        assert rows_long < rows_short
        # rows scale with the inverse of the row width
        expected = rows_short * short.nbytes / long_.nbytes
        assert abs(rows_long - expected) <= 0.01 * expected + 1
        assert rows_short == 4 * MIB * 2000 // short.nbytes

    def test_parquet_read_sizes_from_its_metadata(self, tmp_path):
        import ray.data as rd

        table = _pages(1000, 8000)
        for i in range(4):
            pq.write_table(table.slice(i * 250, 250), tmp_path / f"part_{i}.parquet")
        rows = batch_rows(rd.read_parquet(str(tmp_path)), 4 * MIB)
        # the read's estimate of the in-memory size is near the table's
        expected = 4 * MIB * 1000 // table.nbytes
        assert abs(rows - expected) <= 0.2 * expected, (rows, expected)
        assert rows < 4 * MIB // NOMINAL_ROW_BYTES

    def test_unknown_size_falls_back_without_executing(self, tmp_path):
        import ray.data as rd

        calls = tmp_path / "calls"

        def counted(batch: pa.Table) -> pa.Table:
            with open(calls, "a") as f:
                f.write(f"{batch.num_rows}\n")
            return batch

        lazy = rd.from_arrow(_pages(100, 8000)).map_batches(counted, batch_format="pyarrow")
        assert batch_rows(lazy, 4 * MIB) == 4096
        document_mod.document_stage(lazy, PipelineConfig(), ("quality",))
        assert not os.path.exists(calls)

    def test_at_least_one_row(self):
        import ray.data as rd

        assert batch_rows(rd.from_arrow(_pages(10, 8000)), 1) == 1


class TestBatchKnob:
    def test_one_settable_knob(self):
        cfg = PipelineConfig(batch_bytes=2 * MIB)
        assert cfg.quality_batch_size == cfg.detect_batch_size == 2048
        assert PipelineConfig().quality_batch_size == 4096
        with pytest.raises(TypeError):
            PipelineConfig(quality_batch_size=1000)
        with pytest.raises(AttributeError):
            cfg.quality_batch_size = 1000


def _batch() -> pa.Table:
    from vigil_ray.sources.pages import synthesize_pages

    return synthesize_pages(SF_SMALL).slice(0, 6)


class TestFusedPoisonPage:
    """A kernel that raises on one page degrades that page only; every other
    page's row is what the unpatched map gives."""

    def _check_others(self, out: pa.Table, ref: pa.Table, poison: int) -> None:
        assert out.schema == ref.schema
        for i in range(ref.num_rows):
            if i != poison:
                assert out.slice(i, 1).equals(ref.slice(i, 1)), i

    def test_extract_error_gives_empty_body(self, monkeypatch):
        batch = _batch()
        ref = DocumentOp(PipelineConfig())(batch)
        poison_html = batch.column("html")[2].as_py()
        real = document_mod.extract_text

        def extract(html):
            if html == poison_html:
                raise ValueError("boom")
            return real(html)

        monkeypatch.setattr(document_mod, "extract_text", extract)
        out = DocumentOp(PipelineConfig())(batch)
        row = out.slice(2, 1).to_pylist()[0]
        assert row["text"] == "" and row["extract_ok"] is False
        assert row["keep"] is False  # the empty body fails the rule gate
        self._check_others(out, ref, 2)

    @pytest.mark.parametrize(
        "kernel", ["classify", "score", "quality_features", "quality_rules"]
    )
    def test_quality_error_drops_the_page(self, monkeypatch, kernel):
        batch = _batch()
        ref = DocumentOp(PipelineConfig())(batch)
        poison_page = ref.column("text")[3].as_py()

        def poisoned(real):
            def fn(*args):
                if poison_page in args or (
                    kernel == "quality_rules" and args[0] == poison_feats
                ):
                    raise ValueError("boom")
                return real(*args)

            return fn

        poison_feats = document_mod.quality_features(poison_page)
        if kernel == "score":
            model = document_mod.default_model()

            class Model:
                score = staticmethod(poisoned(model.score))

            monkeypatch.setattr(document_mod, "default_model", lambda: Model)
        else:
            monkeypatch.setattr(
                document_mod, kernel, poisoned(getattr(document_mod, kernel))
            )
        out = DocumentOp(PipelineConfig())(batch)
        row = out.slice(3, 1).to_pylist()[0]
        assert row["keep"] is False and row["drop_reasons"] == [QUALITY_ERROR]
        for col in ("lang_pred", "lang_score", "ppl", *document_mod._FEATURES):
            assert row[col] is None, col
        # detection still runs on the page
        assert row["contem_pii"] == ref.column("contem_pii")[3].as_py()
        self._check_others(out, ref, 3)

    def test_quality_error_page_still_gets_toxicity_gate(self, monkeypatch):
        page = "idiota estúpido " * 5
        batch = pa.table({"text": [page, "um texto qualquer sem nada de mais aqui"]})

        def boom(text):
            if text == page:
                raise ValueError("boom")
            return real(text)

        real = document_mod.quality_features
        monkeypatch.setattr(document_mod, "quality_features", boom)
        out = DocumentOp(PipelineConfig(), ("quality", "detect", "toxicity"))(batch)
        assert out.column("is_toxic").to_pylist()[0] is True
        assert out.column("drop_reasons").to_pylist()[0] == [QUALITY_ERROR, "toxicity"]


class TestColumnwiseQualityPoison:
    """The quality part runs each kernel over the whole batch before the
    next one. A page on which any of them raises gets ``quality_error`` and
    null quality columns, the toxicity part still scores it, and every
    other page's row is the row of a batch without that page."""

    KERNELS = ("words_of", "score_toxicity", "score", "quality_features", "classify", "quality_rules")
    QUALITY_COLS = ("lang_pred", "lang_score", "ppl", *document_mod._FEATURES)
    TOXIC = "idiota estúpido idiota " * 6

    def _batch(self, poison: int) -> pa.Table:
        rows = _batch().drop_columns(["html"]).to_pylist()
        rows.insert(poison, dict(rows[0], url="toxic", text=self.TOXIC))
        return pa.Table.from_pylist(rows)

    @pytest.mark.parametrize("poison", [0, 3])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_poison_page(self, monkeypatch, kernel, poison):
        cfg = PipelineConfig()
        batch = self._batch(poison)
        clean = DocumentOp(cfg)(batch)
        without = DocumentOp(cfg)(pa.concat_tables([batch.slice(0, poison), batch.slice(poison + 1)]))
        poison_feats = document_mod.quality_features(self.TOXIC)

        def poisoned(real):
            def fn(*args):
                if kernel == "quality_rules":
                    hit = args[0] == poison_feats
                else:  # the quality part passes the words; the toxicity part does not
                    hit = args[0] == self.TOXIC and (kernel != "score_toxicity" or len(args) == 4)
                if hit:
                    raise ValueError("boom")
                return real(*args)

            return fn

        if kernel == "score":
            model = document_mod.default_model()

            class Model:
                score = staticmethod(poisoned(model.score))

            monkeypatch.setattr(document_mod, "default_model", lambda: Model)
        else:
            monkeypatch.setattr(document_mod, kernel, poisoned(getattr(document_mod, kernel)))
        out = DocumentOp(cfg)(batch)

        assert out.schema == clean.schema
        row, ref = out.slice(poison, 1).to_pylist()[0], clean.slice(poison, 1).to_pylist()[0]
        assert row["keep"] is False
        assert row["drop_reasons"] == [QUALITY_ERROR, "toxicity"]
        for col in self.QUALITY_COLS:
            assert row[col] is None, col
        assert ref["is_toxic"] is True
        for col in ("n_tox", "tox_ratio", "is_toxic", "text_scrubbed", "contem_pii", "confianca"):
            assert row[col] == ref[col], col
        others = pa.concat_tables([out.slice(0, poison), out.slice(poison + 1)])
        assert others.equals(without)
