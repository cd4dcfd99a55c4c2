"""Multiprocess sweep harness: run experiment grids across all cores.

Experiment sweeps (chaos scenarios × policies × seeds, fleet sharing
grids) are embarrassingly parallel — every cell builds its own
:class:`~repro.cloud.cluster.Cloud` from its own seed and returns a plain
dict.  This harness fans the cells over a ``ProcessPoolExecutor`` while
keeping the repo's two non-negotiables:

* **Determinism** — a cell is a pure function of its spec: the callable
  is named by a picklable ``"module:callable"`` string and its kwargs
  carry the seed, so results are identical whether the cell runs inline,
  in another process, or in another order.  Results always come back in
  input order.
* **Observability** — each worker runs its cell under a private
  :class:`~repro.obs.metrics.MetricsRegistry` and ships a picklable
  :meth:`~repro.obs.metrics.MetricsRegistry.dump` home; the parent folds
  the dumps into its own registry via ``merge_dump``, so a sweep's
  metrics look exactly as if every cell had run inline.  Run-ledger
  records work the same way: when the parent has an active
  :class:`~repro.obs.ledger.RunLedger`, each worker captures its cell's
  records in-memory and ships them home as dicts, and the parent appends
  them — so a pooled sweep's flight-recorder history matches inline.

``processes=0`` (or 1, or a single cell) falls back to running inline in
the parent — the exact same code path minus pickling, used by tests and
by single-core machines.

Cells of one sweep share the immutable data they derive — seeded
corpora, DAG stage catalogues, on-demand baselines — through the
:mod:`repro.vfs.memo` memo: the parent opens one around its inline
cells and drops it when the sweep ends, and each pool worker opens its
own for the pool's lifetime.  A shared value is built from the same
arguments a cell would build it from, so sharing changes no result.

The four campaign sweeps (chaos, spot, dag, matrix) run their grids
through :func:`run_campaign`, the one path from cells to ledger records
to SLO verdicts: it runs the grid, turns the cells the campaign judges
into ``kind="sweep-cell"`` records (:func:`cell_record`, in the format
the campaign's :mod:`~repro.experiments.registry` entry declares),
evaluates the campaign's SLO policy once per side and appends the
records to the active ledger.  Campaign seeds come from one rule,
:func:`campaign_seeds`.
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.obs import MetricsRegistry, Obs, get_logger, get_obs, set_obs
from repro.obs.ledger import RunRecord, capture_runs, get_run_ledger
from repro.obs.slo import SloReport, render_slo_table
from repro.vfs.memo import open_sweep_memo, sweep_memo

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.registry import SloPolicyEntry

__all__ = ["Cell", "SweepResult", "run_sweep", "resolve", "DEFAULT_SEEDS",
           "campaign_seeds", "aggregate", "cell_record", "run_campaign"]

_log = get_logger("experiments.sweep")

#: Campaign seeds the sweeps aggregate over.
DEFAULT_SEEDS: tuple[int, ...] = (11, 23, 47)


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a named callable plus its kwargs.

    ``fn`` is a ``"package.module:callable"`` path — a string, so the spec
    pickles across process boundaries without dragging closures along.
    ``tag`` is an opaque caller label echoed on the result row.
    """

    fn: str
    kwargs: dict = field(default_factory=dict)
    tag: Any = None


@dataclass
class SweepResult:
    """Everything one sweep produced, cells in input order."""

    rows: list            # each cell's return value, input order
    tags: list            # the cells' tags, input order
    metrics_dumps: list   # one MetricsRegistry.dump() per cell (may be empty)
    processes: int        # worker processes actually used (1 = inline)
    run_records: list = field(default_factory=list)
    # RunRecords the cells emitted (appended to the parent ledger too)


def resolve(path: str) -> Callable:
    """``"package.module:callable"`` → the callable itself."""
    mod_name, _, fn_name = path.partition(":")
    if not mod_name or not fn_name:
        raise ValueError(
            f"cell fn must be 'module:callable', got {path!r}")
    fn = getattr(importlib.import_module(mod_name), fn_name, None)
    if not callable(fn):
        raise ValueError(f"{path!r} does not name a callable")
    return fn


def campaign_seeds(n: int) -> tuple[int, ...]:
    """The first ``n`` campaign seeds.

    :data:`DEFAULT_SEEDS` first, then the same three shifted by 100 per
    further round, so asking for more seeds never reseeds the cells a
    smaller run already had.
    """
    k = len(DEFAULT_SEEDS)
    return tuple(DEFAULT_SEEDS[i % k] + 100 * (i // k) for i in range(n))


def _run_cell(spec: Cell, collect_metrics: bool,
              collect_runs: bool) -> tuple[Any, list, list]:
    """Execute one cell (worker side).

    Returns ``(result, metrics dump, run-record dicts)`` — everything
    picklable, so the triple crosses process boundaries unchanged.
    """
    fn = resolve(spec.fn)
    if not collect_metrics and not collect_runs:
        return fn(**spec.kwargs), [], []
    # Run the cell under a private registry (the tracer, if any, is kept)
    # and, when the parent wants run records, a private in-memory ledger —
    # both ship home as picklable dumps and merge, so behaviour is
    # identical whether the cell runs inline or in a forked worker.
    if collect_metrics:
        registry = MetricsRegistry()
        previous = set_obs(Obs(tracer=get_obs().tracer, metrics=registry))
    try:
        if collect_runs:
            with capture_runs() as cell_ledger:
                result = fn(**spec.kwargs)
            records = [r.to_dict() for r in cell_ledger.records()]
        else:
            result = fn(**spec.kwargs)
            records = []
    finally:
        if collect_metrics:
            set_obs(previous)
    return result, registry.dump() if collect_metrics else [], records


def _worker(args: tuple[Cell, bool, bool]) -> tuple[Any, list, list]:
    spec, collect_metrics, collect_runs = args
    return _run_cell(spec, collect_metrics, collect_runs)


def run_sweep(cells: Sequence[Cell], *,
              processes: int | None = None) -> SweepResult:
    """Run every cell; fan out over processes when it pays.

    Parameters
    ----------
    cells:
        The grid, as :class:`Cell` specs.  Order is preserved in the
        result rows regardless of completion order.
    processes:
        Worker processes; ``None`` uses ``os.cpu_count()``.  Values ≤ 1
        — or a grid of ≤ 1 cell — run inline in the parent.

    When the active metrics registry is enabled, each cell runs under a
    private registry whose dump is merged into it, so the totals are the
    same at any process count.  When a run ledger is active, each cell's
    :class:`~repro.obs.ledger.RunRecord` emissions are captured and
    appended to it in cell order.

    The cells share one sweep memo (:mod:`repro.vfs.memo`) per process:
    inline cells the parent's, which is dropped when this call returns
    or raises; pooled cells their worker's, which ends with the pool.
    """
    cells = list(cells)
    parent_ledger = get_run_ledger()
    registry = get_obs().metrics
    collect = (registry.enabled, parent_ledger is not None)
    if processes is None:
        processes = os.cpu_count() or 1
    n_workers = max(1, min(processes, len(cells)))
    if n_workers == 1 or len(cells) <= 1:
        with sweep_memo():
            triples = [_run_cell(c, *collect) for c in cells]
        used = 1
    else:
        with ProcessPoolExecutor(max_workers=n_workers,
                                 initializer=open_sweep_memo) as pool:
            triples = list(pool.map(_worker, [(c, *collect) for c in cells]))
        used = n_workers
    rows = [r for r, _, _ in triples]
    dumps = [d for _, d, _ in triples if d]
    for d in dumps:
        registry.merge_dump(d)
    records = []
    for _, _, cell_records in triples:
        for rec_dict in cell_records:
            record = RunRecord.from_dict(rec_dict)
            if parent_ledger is not None:
                # Worker-side ids restart per cell; let the parent ledger
                # re-stamp so ids stay unique across the sweep.
                record.run_id = ""
                parent_ledger.append(record)
            records.append(record)
    return SweepResult(rows=rows, tags=[c.tag for c in cells],
                       metrics_dumps=dumps, processes=used,
                       run_records=records)


def aggregate(cells: list[dict], cost_key: str = "cost_usd") -> dict:
    """Miss rate over all cells' bins, mean cost and the cells themselves.

    ``cost_key`` names the cell field holding its bill; cells that carry
    a ``cost_ratio`` (against an on-demand baseline) also get its mean.
    """
    bins = sum(c["bins"] for c in cells)
    missed = sum(c["missed"] for c in cells)
    out = {
        "miss_rate": round(missed / bins, 4) if bins else 0.0,
        "missed": missed,
        "bins": bins,
        "mean_cost_usd": round(
            sum(c[cost_key] for c in cells) / len(cells), 4),
    }
    if "cost_ratio" in cells[0]:
        out["mean_cost_ratio"] = round(
            sum(c["cost_ratio"] for c in cells) / len(cells), 4)
    out["cells"] = cells
    return out


def cell_record(campaign: "SloPolicyEntry", cell: dict) -> RunRecord:
    """One cell outcome as the ``kind="sweep-cell"`` record ``campaign``
    declares (see :mod:`~repro.experiments.registry`)."""
    return RunRecord(
        kind="sweep-cell",
        label=campaign.label_prefix
        + ".".join(str(cell[f]) for f in campaign.label),
        config={f: cell[f] for f in campaign.config},
        billing={"cost_usd": cell[campaign.cost_key]},
        deadline={f: cell[f] for f in ("missed", "failed", "bins",
                                         "miss_rate")},
        extra={f: cell[f] for f in campaign.extra},
    )


def run_campaign(
    campaign: "SloPolicyEntry",
    grid: Sequence[Cell],
    *,
    processes: int | None = 1,
    judged: Iterable | None = None,
) -> tuple[dict, dict[str, SloReport]]:
    """Run a campaign grid, record its judged cells and judge each side once.

    Returns ``(by_tag, reports)``: ``by_tag`` maps each cell tag to its
    rows in grid order (tags in order of first appearance), ``reports``
    maps each side — the cells' ``campaign.group_name`` value, in order
    of first appearance — to its :class:`~repro.obs.slo.SloReport`.

    ``judged`` lists, in order, the tags whose cells the campaign's SLOs
    judge (default: every tag); tags the grid did not run are skipped,
    and a repeated tag is judged once.  Each judged cell becomes one
    sweep-cell record, appended to the active ledger side by side after
    the cells' own records.
    """
    result = run_sweep(grid, processes=processes)
    by_tag: dict = {}
    for tag, row in zip(result.tags, result.rows):
        by_tag.setdefault(tag, []).append(row)
    sides: dict[str, list[RunRecord]] = {}
    for tag in dict.fromkeys(by_tag if judged is None else judged):
        for cell in by_tag.get(tag, ()):
            sides.setdefault(cell[campaign.group_name], []).append(
                cell_record(campaign, cell))
    reports = {side: campaign.slos.evaluate(records)
               for side, records in sides.items()}
    for report in reports.values():
        _log.info("%s", render_slo_table(report))
    ledger = get_run_ledger()
    if ledger is not None:
        for records in sides.values():
            for record in records:
                ledger.append(record)
    return by_tag, reports
