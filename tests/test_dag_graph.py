"""Tests for WorkflowGraph: DAG topology and edge-volume accounting."""

import pytest

from repro.core import WorkflowError
from repro.dag import WorkflowGraph, fanout_pipeline, linear_pipeline


class TestTopology:
    def test_linear_shape(self):
        g = linear_pipeline()
        assert [s.name for s in g.stages()] == [
            "filter", "extract", "tokenize", "tag", "aggregate"]
        assert g.predecessors("filter") == []
        assert g.successors("aggregate") == []
        assert g.successors("tokenize") == ["tag"]
        assert len(g.edges()) == 4

    def test_fanout_shape(self):
        g = fanout_pipeline()
        assert g.successors("extract") == ["tag", "tokenize"]
        assert g.predecessors("aggregate") == ["tag", "tokenize"]
        assert g.predecessors("filter") == []
        assert g.successors("aggregate") == []
        assert ("extract", "tag") in g.edges()
        assert ("extract", "tokenize") in g.edges()

    def test_unknown_stage_raises(self):
        with pytest.raises(WorkflowError):
            linear_pipeline().successors("nope")

    def test_empty_graph(self):
        g = WorkflowGraph()
        assert g.stages() == [] and g.edges() == []


class TestVolumes:
    def test_output_volumes_follow_ratios(self):
        g = linear_pipeline(keep=0.5)
        vin = 1_000_000
        vols = g.stage_volumes(vin)
        assert vols["filter"] == vin
        for p, c in g.edges():
            assert vols[c] == int(g.stage(p).output_ratio * vols[p])

    def test_edge_volume_is_broadcast_producer_output(self):
        g = fanout_pipeline()
        vin = 2_000_000
        vols = g.stage_volumes(vin)
        out = int(g.stage("extract").output_ratio * vols["extract"])
        # Fan-out: both consumers see the producer's FULL output (one
        # stored copy read twice), not a split of it.
        assert vols["tokenize"] == out
        assert vols["tag"] == out

    def test_fan_in_consumes_sum_of_producers(self):
        g = fanout_pipeline()
        vin = 2_000_000
        vols = g.stage_volumes(vin)
        outs = {s: int(g.stage(s).output_ratio * vols[s])
                for s in ("tokenize", "tag")}
        assert vols["aggregate"] == outs["tokenize"] + outs["tag"]
