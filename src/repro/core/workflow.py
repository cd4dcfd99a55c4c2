"""Workflow scheduling with full-hour subdeadlines (§7 future work).

"A direction for our future research is also to devise good execution
plans for more complex workflows arising in text processing.  We can
schedule such workflows while making sure we assign full hour subdeadlines
to groups of tasks [22]."

A :class:`TextWorkflow` is a DAG of stages (e.g. grep-filter → extract →
POS-tag) whose intermediate volumes are predicted from each application's
output accounting.  :func:`assign_subdeadlines` splits a total deadline
across stages proportionally to predicted work and then snaps the splits
to *full-hour* boundaries where the budget allows — under ceil-hour
pricing, a stage that releases its instances mid-hour wastes money, so
hour-aligned subdeadlines are the cost-efficient cut points (the [22]
observation the paper cites).

This module describes and apportions a workflow and derives its data
plane: :func:`stage_data` computes every stage's input and output
catalogue up front, since neither depends on capacity, clock or RNG.
Running a workflow is the job of
:class:`~repro.dag.scheduler.DagScheduler`, whose ``mode="serial"`` is
the §7 stage-barrier executor.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.cloud.service import Workload
from repro.perfmodel.regression import Predictor
from repro.units import HOUR
from repro.vfs.files import Catalogue
from repro.vfs.memo import ByIdentity, shared

__all__ = ["WorkflowStage", "TextWorkflow", "WorkflowError", "StageData",
           "assign_subdeadlines", "derived_catalogue", "stage_data"]


class WorkflowError(ValueError):
    """Malformed workflow (cycle, unknown dependency, bad deadline split)."""


@dataclass
class WorkflowStage:
    """One processing stage.

    ``predictor`` maps input bytes to seconds on a reference instance (fit
    empirically per stage, like any other model in this package).
    ``output_ratio`` is bytes-out per byte-in for the data handed to
    dependent stages (e.g. a grep filter keeping 10 % of articles has
    ``output_ratio=0.1``; extraction keeps ≈1−markup).
    ``strips_markup`` marks extraction-like stages whose output is plain
    text regardless of input markup.
    """

    name: str
    workload: Workload
    predictor: Predictor
    output_ratio: float = 1.0
    strips_markup: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.output_ratio <= 1.0:
            raise WorkflowError(f"stage {self.name!r}: output_ratio must be in [0, 1]")


class TextWorkflow:
    """A DAG of stages over one input catalogue."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()

    def add_stage(self, stage: WorkflowStage, *, after: list[str] | None = None) -> None:
        """Add a stage, optionally after named predecessors."""
        if stage.name in self._graph:
            raise WorkflowError(f"duplicate stage {stage.name!r}")
        self._graph.add_node(stage.name, stage=stage)
        for dep in after or []:
            if dep not in self._graph:
                raise WorkflowError(f"unknown dependency {dep!r} for {stage.name!r}")
            self._graph.add_edge(dep, stage.name)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_node(stage.name)
            raise WorkflowError(f"adding {stage.name!r} would create a cycle")

    def stages(self) -> list[WorkflowStage]:
        """Stages in a deterministic topological order."""
        order = list(nx.lexicographical_topological_sort(self._graph))
        return [self._graph.nodes[n]["stage"] for n in order]

    def stage(self, name: str) -> WorkflowStage:
        """Look up a stage by name."""
        try:
            return self._graph.nodes[name]["stage"]
        except KeyError:
            raise WorkflowError(f"no stage {name!r}") from None

    def predecessors(self, name: str) -> list[str]:
        """Sorted names of a stage's direct predecessors."""
        return sorted(self._graph.predecessors(name))

    def __len__(self) -> int:
        return len(self._graph)

    def data_signature(self) -> tuple:
        """Everything :func:`stage_data` reads of this workflow.

        Per stage in topological order: name, ``output_ratio``,
        ``strips_markup`` and predecessors.  Workflows with equal
        signatures derive equal catalogues from the same input.
        """
        return tuple((s.name, s.output_ratio, s.strips_markup,
                      tuple(self.predecessors(s.name)))
                     for s in self.stages())

    # -- volume flow ---------------------------------------------------------

    def stage_volumes(self, input_volume: int) -> dict[str, int]:
        """Predicted input volume of each stage.

        A stage with several predecessors consumes the sum of their
        outputs; roots consume the workflow input.
        """
        volumes: dict[str, int] = {}
        for stage in self.stages():
            preds = self.predecessors(stage.name)
            if preds:
                vin = sum(
                    int(self.stage(p).output_ratio * volumes[p]) for p in preds
                )
            else:
                vin = input_volume
            volumes[stage.name] = vin
        return volumes


def assign_subdeadlines(
    workflow: TextWorkflow,
    input_volume: int,
    deadline: float,
    *,
    hour_align: bool = True,
) -> dict[str, float]:
    """Split ``deadline`` seconds across stages.

    Shares are proportional to each stage's predicted serial work; with
    ``hour_align`` and enough budget, each share is then rounded to a
    whole number of hours (largest-remainder apportionment of
    ``floor(D/1h)`` hours), so no stage's fleet releases instances
    mid-hour.
    """
    if deadline <= 0:
        raise WorkflowError("deadline must be positive")
    stages = workflow.stages()
    if not stages:
        raise WorkflowError("empty workflow")
    volumes = workflow.stage_volumes(input_volume)
    work = {s.name: max(1e-9, float(s.predictor.predict(volumes[s.name])))
            for s in stages}
    total = sum(work.values())
    shares = {n: deadline * w / total for n, w in work.items()}

    whole_hours = int(deadline // HOUR)
    if not hour_align or whole_hours < len(stages):
        return shares

    # Largest-remainder apportionment of whole hours, at least 1 per stage.
    ideal = {n: shares[n] / HOUR for n in shares}
    base = {n: max(1, int(ideal[n])) for n in ideal}
    while sum(base.values()) > whole_hours:
        # take an hour back from the stage with the most slack
        victim = max((n for n in base if base[n] > 1),
                     key=lambda n: base[n] - ideal[n], default=None)
        if victim is None:
            return shares
        base[victim] -= 1
    remaining = whole_hours - sum(base.values())
    # Remainders relative to the *assigned* base (not int(ideal)): a stage
    # bumped to 1 by the minimum already holds more than its share and must
    # rank below genuinely-underfunded stages, or light stages can leapfrog
    # heavy ones (apportionment paradox caught by the property tests).
    by_remainder = sorted(ideal, key=lambda n: ideal[n] - base[n],
                          reverse=True)
    for n in by_remainder[:remaining]:
        base[n] += 1
    return {n: base[n] * HOUR for n in base}


def derived_catalogue(
    source: Catalogue, stage: WorkflowStage, seed_tag: str
) -> Catalogue:
    """The synthetic catalogue a stage's output forms for its dependents.

    Output bytes are apportioned so the catalogue's total is *exactly*
    ``int(source.total_size * stage.output_ratio)`` — the same value
    :meth:`TextWorkflow.stage_volumes` predicts for dependent stages.
    Truncating per file instead (the old behaviour) leaked up to one byte
    per file, so predicted and materialised volumes drifted apart on
    catalogues with many small files and the drift compounded per stage.
    Per-file shares use largest-remainder rounding: floor each share,
    then hand the leftover bytes to the files with the largest fractional
    parts (ties by catalogue order).

    The apportionment runs on the int64 size column: a stable argsort of
    the fractional deficits gives the same tie order as a stable sort,
    and a leftover of ``rem`` bytes over ``n`` files is ``rem // n`` each
    plus one more for the first ``rem % n`` in that order.  Files whose
    share rounds to zero are dropped; the rest keep their parent's stat
    columns (markup zeroed for markup-stripping stages).  The result is a
    stage store over the source's (:meth:`Catalogue._stage`), so no file
    object is built: a file's path and content seed are worked out from
    its parent's when code asks for it.
    """
    n = len(source)
    ratio = stage.output_ratio
    target = int(source.total_size * ratio)
    shares = source.sizes() * ratio
    sizes = shares.astype(np.int64)
    rem = target - int(sizes.sum())
    if rem and n:
        # Most-underfunded first for handing out bytes; walk the same
        # ranking backwards to claw bytes back if float error overshot.
        order = np.argsort(sizes - shares, kind="stable")
        if rem > 0:
            sizes += rem // n
            sizes[order[:rem % n]] += 1
        i = 0
        while rem < 0:
            j = order[-1 - (i % n)]
            if sizes[j] > 0:
                sizes[j] -= 1
                rem += 1
            i += 1
    kept = np.flatnonzero(sizes > 0)
    awl, asw, mf = (c[kept] for c in source._stat_columns())
    if stage.strips_markup:
        mf = np.where(mf > 0, 0.0, mf)
    return Catalogue._stage(f"{source.name}->{stage.name}", source, kept,
                            f"{stage.name}/", seed_tag, sizes[kept], (awl, asw, mf))


@dataclass(frozen=True)
class StageData:
    """One stage's data plane: the catalogue it reads and the one it writes."""

    input: Catalogue
    output: Catalogue


def stage_data(workflow: TextWorkflow,
               catalogue: Catalogue) -> dict[str, StageData]:
    """Every stage's input and output catalogue, in topological order.

    Roots read ``catalogue``.  A stage with predecessors reads their
    outputs concatenated in sorted predecessor order, and every output is
    :func:`derived_catalogue` of the stage's input.  Inside a sweep the
    result is shared (:mod:`repro.vfs.memo`) by every run of a workflow
    with the same :meth:`~TextWorkflow.data_signature` over the very same
    ``catalogue`` object.
    """
    key = ("stage_data", ByIdentity(catalogue), workflow.data_signature())
    return shared(key, lambda: _derive_stage_data(workflow, catalogue))


def _derive_stage_data(workflow: TextWorkflow,
                       catalogue: Catalogue) -> dict[str, StageData]:
    data: dict[str, StageData] = {}
    for stage in workflow.stages():
        preds = workflow.predecessors(stage.name)
        source = (Catalogue.concat([data[p].output for p in preds],
                                   name=f"input->{stage.name}")
                  if preds else catalogue)
        data[stage.name] = StageData(
            source, derived_catalogue(source, stage, seed_tag=stage.name))
    return data
