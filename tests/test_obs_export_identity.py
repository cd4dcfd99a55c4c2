"""Exporter identity: the raw-tuple span path vs the eager span path.

The tracer stores raw tuples and materialises ``SpanRecord`` objects
lazily.  Both Chrome-trace and JSONL exports must be byte-identical no
matter which recording path produced the spans — otherwise a
perf-motivated switch to the fast path would silently change committed
trace artifacts.
"""

from repro.obs.export import to_chrome_trace, write_chrome_trace, write_jsonl
from repro.obs.trace import Tracer


def _scripted_clock(times):
    queue = list(times)
    return lambda: queue.pop(0)


def _eager_tracer() -> Tracer:
    """Spans recorded live through the context-manager path."""
    tracer = Tracer(clock=_scripted_clock(
        [1.0, 2.5, 2.5, 2.5, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 20.0]))
    with tracer.span("runner.execute", cat="runner", bin=0):
        pass                                   # [1.0, 2.5]
    with tracer.span("runner.execute", cat="runner", bin=1):
        pass                                   # [2.5, 2.5] zero-length
    with tracer.span("fleet.lease", cat="fleet", track="fleet"):
        pass                                   # [3.0, 4.0]
    # A column: two same-name spans with no args.
    with tracer.span("col.member", cat="columnar", track="col"):
        pass                                   # [10.0, 11.0]
    with tracer.span("col.member", cat="columnar", track="col"):
        pass                                   # [12.0, 13.0]
    tracer.instant("engine.fire", cat="sim")   # t=20.0
    return tracer


def _fast_tracer() -> Tracer:
    """The same history via add_span (raw tuples)."""
    tracer = Tracer(clock=_scripted_clock([20.0]))
    tracer.add_span("runner.execute", 1.0, 2.5, cat="runner", bin=0)
    tracer.add_span("runner.execute", 2.5, 2.5, cat="runner", bin=1)
    tracer.add_span("fleet.lease", 3.0, 4.0, cat="fleet", track="fleet")
    tracer.add_span("col.member", 10.0, 11.0, cat="columnar", track="col")
    tracer.add_span("col.member", 12.0, 13.0, cat="columnar", track="col")
    tracer.instant("engine.fire", cat="sim")
    return tracer


class TestExportIdentity:
    def test_chrome_trace_documents_identical(self):
        eager = to_chrome_trace(_eager_tracer())
        fast = to_chrome_trace(_fast_tracer())
        assert eager == fast

    def test_chrome_trace_files_byte_identical(self, tmp_path):
        a, b = tmp_path / "eager.json", tmp_path / "fast.json"
        write_chrome_trace(_eager_tracer(), a)
        write_chrome_trace(_fast_tracer(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_files_byte_identical(self, tmp_path):
        a, b = tmp_path / "eager.jsonl", tmp_path / "fast.jsonl"
        write_jsonl(_eager_tracer(), a)
        write_jsonl(_fast_tracer(), b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().count(b"\n") > 0

    def test_materialisation_does_not_change_exports(self, tmp_path):
        # Reading .spans materialises the raw tail; exports must not care.
        tracer = _fast_tracer()
        before = to_chrome_trace(tracer)
        assert tracer.spans                    # force materialisation
        assert to_chrome_trace(tracer) == before

    def test_bulk_rows_materialise_with_empty_args(self):
        tracer = _fast_tracer()
        bulk = [s for s in tracer.spans if s.name == "col.member"]
        assert len(bulk) == 2
        assert all(s.args == {} for s in bulk)
