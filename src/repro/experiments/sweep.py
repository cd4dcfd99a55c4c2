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
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.sim.random import stable_seed
from repro.vfs.memo import open_sweep_memo, sweep_memo

__all__ = ["Cell", "SweepResult", "run_sweep", "fork_seeds", "resolve"]


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


def fork_seeds(base_seed: int, n: int, name: str = "sweep") -> list[int]:
    """``n`` independent 63-bit seeds derived from ``(base_seed, name, i)``.

    The same stable BLAKE2b derivation :class:`~repro.sim.random.RngStream`
    forks use, so sweep seeds inherit the repo-wide property: adding cells
    never shifts the seeds existing cells observe, across processes and
    Python versions alike.
    """
    return [stable_seed(base_seed, f"{name}.{i}") >> 1 for i in range(n)]


def _run_cell(spec: Cell, collect_metrics: bool,
              collect_runs: bool) -> tuple[Any, list, list]:
    """Execute one cell (worker side).

    Returns ``(result, metrics dump, run-record dicts)`` — everything
    picklable, so the triple crosses process boundaries unchanged.
    """
    from repro.obs import MetricsRegistry, Obs, get_obs, set_obs
    from repro.obs.ledger import capture_runs

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


def run_sweep(
    cells: Sequence[Cell],
    *,
    processes: int | None = None,
    collect_metrics: bool = False,
    merge_into=None,
    collect_runs: bool | None = None,
) -> SweepResult:
    """Run every cell; fan out over processes when it pays.

    Parameters
    ----------
    cells:
        The grid, as :class:`Cell` specs.  Order is preserved in the
        result rows regardless of completion order.
    processes:
        Worker processes; ``None`` uses ``os.cpu_count()``.  Values ≤ 1
        — or a grid of ≤ 1 cell — run inline in the parent.
    collect_metrics:
        Capture each cell's metrics into a private registry and return
        the picklable dumps (merged into ``merge_into`` when given).
    merge_into:
        A :class:`~repro.obs.metrics.MetricsRegistry` to fold every
        worker dump into.
    collect_runs:
        Capture each cell's ledger :class:`~repro.obs.ledger.RunRecord`
        emissions and append them to the parent's active ledger.
        ``None`` (default) auto-enables exactly when the parent has an
        active ledger; ``False`` suppresses cell records entirely.

    The cells share one sweep memo (:mod:`repro.vfs.memo`) per process:
    inline cells the parent's, which is dropped when this call returns
    or raises; pooled cells their worker's, which ends with the pool.
    """
    from repro.obs.ledger import RunRecord, get_run_ledger

    cells = list(cells)
    parent_ledger = get_run_ledger()
    if collect_runs is None:
        collect_runs = parent_ledger is not None
    if processes is None:
        processes = os.cpu_count() or 1
    n_workers = max(1, min(processes, len(cells)))
    if n_workers == 1 or len(cells) <= 1:
        with sweep_memo():
            triples = [_run_cell(c, collect_metrics, collect_runs)
                       for c in cells]
        used = 1
    else:
        with ProcessPoolExecutor(max_workers=n_workers,
                                 initializer=open_sweep_memo) as pool:
            triples = list(pool.map(
                _worker, [(c, collect_metrics, collect_runs) for c in cells]))
        used = n_workers
    rows = [r for r, _, _ in triples]
    dumps = [d for _, d, _ in triples if d]
    if merge_into is not None:
        for d in dumps:
            merge_into.merge_dump(d)
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
