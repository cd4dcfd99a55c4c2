"""Workflow graphs: the stage DAG the scheduler executes.

A :class:`WorkflowGraph` is a :class:`~repro.core.workflow.TextWorkflow`
with the edge-level queries a DAG scheduler needs on top of the
topological API: successors and edges.  Volume flow follows the workflow
convention:
a stage's output is ``int(output_ratio * input)`` bytes, a fan-out edge
*broadcasts* that output to every consumer (one stored copy, one get per
edge), and a fan-in stage consumes the sum of its predecessors' outputs
— the same arithmetic :meth:`~repro.core.workflow.TextWorkflow
.stage_volumes` predicts and :func:`~repro.core.workflow
.derived_catalogue` materialises, so predicted and actual bytes agree at
every hop (the conservation property tests pin this).

It is also the only graph type an executor accepts: the §7 stage-barrier
run is :class:`~repro.dag.scheduler.DagScheduler` with ``mode="serial"``
over a :class:`WorkflowGraph`, so a plain ``TextWorkflow`` is for
prediction and apportionment only.

Two builders cover the shapes the backend-comparison sweep needs: a
five-stage linear pipeline and a fan-out/fan-in diamond, both over the
real applications in :mod:`repro.apps`.
"""

from __future__ import annotations

import numpy as np

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.cloud.service import Workload
from repro.core.workflow import TextWorkflow, WorkflowStage
from repro.perfmodel.regression import Predictor, fit_affine

__all__ = ["WorkflowGraph", "fanout_pipeline", "linear_pipeline"]


class WorkflowGraph(TextWorkflow):
    """A stage DAG with the edge queries the scheduler runs on."""

    def successors(self, name: str) -> list[str]:
        """Sorted names of a stage's direct successors."""
        self.stage(name)  # raise WorkflowError on unknown stages
        return sorted(self._graph.successors(name))

    def edges(self) -> list[tuple[str, str]]:
        """All (producer, consumer) edges, sorted."""
        return sorted(self._graph.edges())


def _affine(a: float, b: float) -> Predictor:
    """A seconds-per-byte predictor fit through three synthetic points."""
    x = np.array([1e5, 1e6, 1e7])
    return fit_affine(x, a + b * x)


def _stage(name: str, workload: Workload, predictor: Predictor,
           output_ratio: float, *, strips_markup: bool = False) -> WorkflowStage:
    return WorkflowStage(name=name, workload=workload, predictor=predictor,
                         output_ratio=output_ratio,
                         strips_markup=strips_markup)


def _filter_stage(keep: float) -> WorkflowStage:
    return _stage("filter",
                  Workload("grep", GrepApplication("economy"),
                           GrepCostProfile()),
                  _affine(0.2, 1.3e-8), keep)


def _extract_stage() -> WorkflowStage:
    return _stage("extract",
                  Workload("extract", ExtractorApplication(),
                           ExtractCostProfile()),
                  _affine(0.3, 3.0e-8), 0.95, strips_markup=True)


def _tokenize_stage() -> WorkflowStage:
    # Tokenisation is extraction-shaped work (one linear pass, near-unit
    # output) at a slightly higher per-byte cost for the token stream.
    return _stage("tokenize",
                  Workload("tokenize", ExtractorApplication(),
                           ExtractCostProfile()),
                  _affine(0.3, 4.0e-8), 0.9)


def _tag_stage() -> WorkflowStage:
    # The tagger's measured cost lands near 1.1e-4 s/B once the Fig. 7
    # memory-residency penalty bites on workflow-sized files; planning at
    # 1.4e-4 keeps each tag bin comfortably inside its subdeadline.
    return _stage("tag",
                  Workload("postag", PosTaggerApplication(),
                           PosCostProfile()),
                  _affine(3.0, 1.4e-4), 1.0)


def _aggregate_stage() -> WorkflowStage:
    # Counting/merging pass: grep-cheap per byte, heavy compression out.
    return _stage("aggregate",
                  Workload("aggregate", GrepApplication("NN"),
                           GrepCostProfile()),
                  _affine(0.2, 1.0e-8), 0.05)


def linear_pipeline(*, keep: float = 0.4) -> WorkflowGraph:
    """filter → extract → tokenize → tag → aggregate (the §7 chain).

    ``keep`` is the grep filter's selectivity (fraction of the crawl
    matching the topic pattern).
    """
    g = WorkflowGraph()
    g.add_stage(_filter_stage(keep))
    g.add_stage(_extract_stage(), after=["filter"])
    g.add_stage(_tokenize_stage(), after=["extract"])
    g.add_stage(_tag_stage(), after=["tokenize"])
    g.add_stage(_aggregate_stage(), after=["tag"])
    return g


def fanout_pipeline(*, keep: float = 0.4) -> WorkflowGraph:
    """filter → extract → {tokenize, tag} → aggregate (diamond).

    After extraction the token stream and the POS tags are computed
    independently — the two branches are where stage-concurrent
    scheduling beats serial execution — then joined by the aggregator
    (a fan-in summing both branches' outputs).
    """
    g = WorkflowGraph()
    g.add_stage(_filter_stage(keep))
    g.add_stage(_extract_stage(), after=["filter"])
    g.add_stage(_tokenize_stage(), after=["extract"])
    g.add_stage(_tag_stage(), after=["extract"])
    g.add_stage(_aggregate_stage(), after=["tokenize", "tag"])
    return g
