"""Tests for the metrics registry."""

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsError,
    MetricsRegistry,
    series_key,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(2.5)
        assert reg.value("a.b") == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("a.b").inc(-1)

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("a.b")
        g.set(5.0)
        g.add(-2.0)
        assert reg.value("a.b") == 3.0

    def test_histogram_buckets_and_stats(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.mean == pytest.approx(55.5 / 3)
        assert (h.vmin, h.vmax) == (0.5, 50.0)
        d = h.to_dict()
        assert d["count"] == 3 and "inf" in d["buckets"]

    def test_histogram_bounds_must_be_sorted_unique(self):
        with pytest.raises(MetricsError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(MetricsError):
            Histogram(bounds=(1.0, 1.0))


class TestRegistry:
    def test_same_series_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b", k="v") is reg.counter("a.b", k="v")
        assert reg.counter("a.b", k="v") is not reg.counter("a.b", k="w")

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        reg.counter("a.b", x=1, y=2).inc()
        assert reg.value("a.b", y=2, x=1) == 1.0

    def test_series_key_format(self):
        assert series_key("a.b", {}) == "a.b"
        assert series_key("a.b", {"y": 2, "x": 1}) == "a.b{x=1,y=2}"

    def test_name_convention_enforced(self):
        reg = MetricsRegistry()
        for bad in ("NoDots", "Upper.case", "a.b-c", "a."):
            with pytest.raises(MetricsError):
                reg.counter(bad)

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(MetricsError):
            reg.gauge("a.b")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a.hits", h="ff").inc(2)
        reg.gauge("a.margin").set(-1.5)
        reg.histogram("a.seconds").observe(0.2)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.hits{h=ff}": 2.0}
        assert snap["gauges"] == {"a.margin": -1.5}
        assert snap["histograms"]["a.seconds"]["count"] == 1

    def test_series_sorted_by_id(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc()
        ids = [sid for _, sid, _ in reg.series()]
        assert ids == sorted(ids)


class TestMerge:
    def test_counters_add_gauges_overwrite_histograms_fold(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m.c").inc(1)
        b.counter("m.c").inc(2)
        a.gauge("m.g").set(1.0)
        b.gauge("m.g").set(9.0)
        a.histogram("m.h").observe(0.2)
        b.histogram("m.h").observe(2.0)
        a.merge_dump(b.dump())
        assert a.value("m.c") == 3.0
        assert a.value("m.g") == 9.0
        h = a.histogram("m.h")
        assert h.count == 2 and h.total == pytest.approx(2.2)

    def test_merge_brings_new_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("m.only_b", k="v").inc(4)
        a.merge_dump(b.dump())
        assert a.value("m.only_b", k="v") == 4.0

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("m.h", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("m.h", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(MetricsError):
            a.merge_dump(b.dump())


class TestDisabledFastPath:
    def test_disabled_hands_out_shared_nulls(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a.b") is reg.counter("c.d")
        assert reg.gauge("a.b") is reg.gauge("c.d")
        assert reg.histogram("a.b") is reg.histogram("c.d")

    def test_null_instruments_record_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a.b").inc(5)
        reg.gauge("a.c").set(5)
        reg.histogram("a.d").observe(5)
        assert reg.snapshot() == \
            {"counters": {}, "gauges": {}, "histograms": {}}


class TestDumpMerge:
    def test_dump_roundtrip_equals_merge(self):
        import pickle

        from repro.obs.metrics import MetricsRegistry

        src = MetricsRegistry()
        src.counter("a.b.count").inc(3)
        src.counter("a.b.count", zone="us-east-1a").inc(2)
        src.gauge("a.b.level").set(7.5)
        src.histogram("a.b.seconds").observe(0.3)
        src.histogram("a.b.seconds").observe(42.0)

        dump = pickle.loads(pickle.dumps(src.dump()))
        via_dump = MetricsRegistry()
        via_dump.merge_dump(dump)
        via_merge = MetricsRegistry()
        via_merge.merge_dump(src.dump())
        assert via_dump.snapshot() == via_merge.snapshot() == src.snapshot()

    def test_merge_dump_accumulates(self):
        from repro.obs.metrics import MetricsRegistry

        a = MetricsRegistry()
        a.counter("x.y.n").inc(1)
        b = MetricsRegistry()
        b.counter("x.y.n").inc(2)
        target = MetricsRegistry()
        target.merge_dump(a.dump())
        target.merge_dump(b.dump())
        assert target.value("x.y.n") == 3

    def test_merge_dump_kind_mismatch_rejected(self):
        import pytest

        from repro.obs.metrics import MetricsError, MetricsRegistry

        a = MetricsRegistry()
        a.counter("x.y.n").inc(1)
        target = MetricsRegistry()
        target.gauge("x.y.n").set(1.0)
        with pytest.raises(MetricsError):
            target.merge_dump(a.dump())
