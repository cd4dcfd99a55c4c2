"""Tests for the span tracer and its exporters."""

import json

import pytest

from repro.obs.export import (
    chrome_trace_events,
    iter_jsonl_lines,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import NULL_SPAN, Tracer


class FakeClock:
    """Settable clock so tests control span endpoints exactly."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestTracerBasics:
    def test_live_span_records_interval(self):
        clk = FakeClock()
        tr = Tracer(clk)
        with tr.span("work.step.one", cat="work", track="w"):
            clk.t = 3.0
        (s,) = tr.spans
        assert (s.name, s.cat, s.t0, s.t1, s.track) == \
            ("work.step.one", "work", 0.0, 3.0, "w")
        assert s.duration == 3.0

    def test_span_args_and_set(self):
        tr = Tracer(FakeClock())
        with tr.span("a.b", x=1) as sp:
            sp.set(y=2)
        assert tr.spans[0].args == {"x": 1, "y": 2}

    def test_span_error_annotation(self):
        tr = Tracer(FakeClock())
        with pytest.raises(KeyError):
            with tr.span("a.b"):
                raise KeyError("boom")
        assert tr.spans[0].args["error"] == "KeyError"

    def test_nesting_depth_per_track(self):
        clk = FakeClock()
        tr = Tracer(clk)
        with tr.span("outer", track="t"):
            with tr.span("inner", track="t"):
                with tr.span("other", track="u"):
                    pass
        by_name = {s.name: s for s in tr.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["other"].depth == 0

    def test_add_span_rejects_backwards_interval(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.add_span("a.b", 5.0, 4.0)

    def test_add_span_and_instant(self):
        tr = Tracer(FakeClock(7.0))
        tr.add_span("a.b", 1.0, 2.0, cat="x", track="r", n=3)
        tr.instant("a.c", cat="x", track="r")
        assert tr.span_count == 1
        assert tr.instants[0].t == 7.0
        assert tr.event_count == 2
        assert tr.categories() == {"x"}
        assert tr.tracks() == ["r"]

    def test_bind_clock_repoints(self):
        tr = Tracer()
        assert tr.now == 0.0
        tr.bind_clock(FakeClock(9.0))
        assert tr.now == 9.0

    def test_max_records_drops_and_counts(self):
        tr = Tracer(FakeClock(), max_records=2)
        tr.add_span("a.b", 0.0, 1.0)
        tr.instant("a.c")
        tr.add_span("a.d", 1.0, 2.0)
        tr.instant("a.e")
        assert tr.event_count == 2
        assert tr.dropped == 2


class TestDisabledFastPath:
    """Satellite: the disabled tracer allocates and records nothing."""

    def test_span_returns_shared_null_singleton(self):
        tr = Tracer(enabled=False)
        # identity proves no per-call allocation happens
        assert tr.span("a.b", cat="x", n=1) is NULL_SPAN
        assert tr.span("c.d") is tr.span("e.f")

    def test_null_span_is_inert_context_manager(self):
        tr = Tracer(enabled=False)
        with tr.span("a.b") as sp:
            assert sp.set(x=1) is sp
        assert tr.span_count == 0

    def test_disabled_records_nothing(self):
        tr = Tracer(enabled=False)
        tr.add_span("a.b", 0.0, 1.0)
        tr.instant("a.c")
        assert tr.event_count == 0
        assert tr.categories() == set()


def _payload(events):
    """Chrome events minus thread-name metadata."""
    return [e for e in events if e["ph"] != "M"]


class TestChromeExport:
    def _nested_tracer(self):
        clk = FakeClock()
        tr = Tracer(clk)
        with tr.span("outer", cat="a", track="t"):
            clk.t = 1.0
            with tr.span("inner", cat="a", track="t"):
                clk.t = 2.0
            clk.t = 4.0
        tr.add_span("zero", 2.0, 2.0, cat="b", track="t")
        tr.instant("tick", cat="b", track="u")
        return tr

    def test_round_trip_is_valid_json(self, tmp_path):
        tr = self._nested_tracer()
        path = write_chrome_trace(tr, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["spans"] == 3
        assert doc["otherData"]["clock"] == "simulated-seconds"
        assert isinstance(doc["traceEvents"], list)

    def test_ts_monotonically_ordered(self):
        events = _payload(chrome_trace_events(self._nested_tracer()))
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_b_e_pairs_match_per_thread(self):
        events = _payload(chrome_trace_events(self._nested_tracer()))
        stacks: dict[int, list[str]] = {}
        for e in events:
            stack = stacks.setdefault(e["tid"], [])
            if e["ph"] == "B":
                stack.append(e["name"])
            elif e["ph"] == "E":
                assert stack, f"E for {e['name']} with no open span"
                stack.pop()
        assert all(not s for s in stacks.values())

    def test_nesting_outer_opens_first_closes_last(self):
        events = _payload(chrome_trace_events(self._nested_tracer()))
        names = [(e["ph"], e["name"]) for e in events if e["ph"] in "BE"]
        assert names.index(("B", "outer")) < names.index(("B", "inner"))
        assert names.index(("E", "inner")) < names.index(("E", "outer"))

    def test_zero_duration_span_is_complete_event(self):
        events = _payload(chrome_trace_events(self._nested_tracer()))
        (x,) = [e for e in events if e["ph"] == "X"]
        assert x["name"] == "zero"
        assert x["dur"] == 0

    def test_metadata_names_every_track(self):
        tr = self._nested_tracer()
        meta = [e for e in chrome_trace_events(tr) if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"t", "u"}

    def test_timestamps_scaled_to_microseconds(self):
        tr = Tracer(FakeClock())
        tr.add_span("a.b", 1.5, 2.0)
        doc = to_chrome_trace(tr)
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        assert begins[0]["ts"] == 1.5e6


class TestJsonlExport:
    def test_lines_are_json_and_time_ordered(self):
        tr = Tracer(FakeClock(3.0))
        tr.add_span("a.b", 5.0, 6.0, track="t")
        tr.instant("a.c", track="t")
        recs = [json.loads(line) for line in iter_jsonl_lines(tr)]
        assert [r["type"] for r in recs] == ["instant", "span"]
        assert recs[0]["t"] == 3.0
        assert recs[1]["t0"] == 5.0


class TestBulkSpans:
    def test_lazy_materialization_is_stable(self):
        from repro.obs.trace import Tracer

        tr = Tracer()
        tr.add_span("a.b", 0.0, 1.0)
        first = tr.spans
        tr.add_span("a.b", 2.0, 3.0)
        second = tr.spans
        assert len(first) == 1 and len(second) == 2
        assert first[0] is second[0]  # cache, not re-materialised
