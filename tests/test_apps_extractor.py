"""Tests for the HTML→text extractor application."""


from repro.apps import ExtractCostProfile, ExtractorApplication, UnitColumns
from repro.apps.extractor import extract_text
from repro.corpus import html_18mil_like
from repro.sim.random import RngStream
from repro.units import KB
from repro.vfs import TextStats, VirtualFile
from tests.catalogues import as_catalogue, first, literal


class TestExtractText:
    def test_strips_tags(self):
        out = extract_text("<html><body><p>Hello  world</p></body></html>")
        assert "<" not in out and ">" not in out
        assert "Hello world" in out

    def test_normalises_whitespace(self):
        out = extract_text("a    b\t\tc")
        assert out == "a b c"

    def test_collapses_blank_lines(self):
        out = extract_text("a\n\n\n\n\nb")
        assert out == "a\n\nb"

    def test_empty(self):
        assert extract_text("") == ""


class TestExtractorApplication:
    def test_native_run_counts(self):
        f = literal("a.html", "<p>one two three</p>")
        res = ExtractorApplication().run_native([f])
        assert res.work.files_opened == 1
        assert res.work.bytes_read == f.size
        assert res.work.output_bytes == len("one two three")
        assert res.outputs["texts"] == ["one two three"]

    def test_output_smaller_than_input_for_html(self):
        cat = html_18mil_like(scale=2e-5)
        units = first(cat, 10)
        res = ExtractorApplication().run_native(units)
        assert 0 < res.work.output_bytes < res.work.bytes_read

    def test_estimate_tracks_native(self):
        cat = html_18mil_like(scale=2e-5)
        units = first(cat, 10)
        app = ExtractorApplication()
        native = app.run_native(units).work
        est = app.estimate_work(UnitColumns(units))
        assert est.files_opened == native.files_opened
        assert est.bytes_read == native.bytes_read
        assert abs(est.output_bytes - native.output_bytes) / native.output_bytes < 0.15


class TestExtractCostProfile:
    def test_io_dominated(self):
        p = ExtractCostProfile()
        b = p.breakdown(UnitColumns(first(html_18mil_like(scale=2e-5), 1)))
        assert b.io > b.cpu

    def test_markup_reduces_write_cost(self):
        def unit(markup: float) -> UnitColumns:
            f = VirtualFile("u", 100 * KB, TextStats(markup_fraction=markup))
            return UnitColumns(as_catalogue([f]))

        p = ExtractCostProfile()
        plain = p.breakdown(unit(0.0))
        marked = p.breakdown(unit(0.5))
        assert marked.io < plain.io

    def test_setup_draw(self):
        p = ExtractCostProfile()
        assert p.draw_setup(RngStream(1)) > 0
