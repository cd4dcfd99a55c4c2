"""Outside-in per-layer tracing for the benchmark's traced run.

:class:`LayerTracer` wraps public functions and methods of each layer of
``repro`` from outside the program: methods on their class, functions at
every ``repro`` module that imported them by name.  Each wrapped call
keeps a span ``(id, name, start, end, parent)`` in memory; a layer's self
time is its spans' durations minus the part covered by child spans.
Per-unit helpers run millions of times, so they stay unwrapped: units are
counted from the wrapped calls' arguments and return values, and from
objects collected as they are built.  A target that no longer exists is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TextIO

__all__ = ["LayerTracer", "LAYERS", "TARGETS", "COLLECTED"]

#: Layers in report order, named after the ``repro`` subpackages.
LAYERS = ("corpus", "vfs", "apps", "packing", "perfmodel", "core", "dag",
          "runner", "sim", "capacity", "cloud", "obs")

Hook = Callable[["LayerTracer", tuple, Any], None]


def _add(key: str, amount: Callable[[tuple, Any], int]) -> Hook:
    """A hook adding ``amount(args, result)`` to counter ``key``."""
    def hook(tracer: "LayerTracer", args: tuple, result: Any) -> None:
        tracer.counts[key] += amount(args, result)
    return hook


def _spot_stats(tracer: "LayerTracer", args: tuple, result: Any) -> None:
    spot = getattr(result, "spot_stats", None) or {}
    tracer.counts["cloud.spot_interruptions"] += spot.get("interruptions", 0)
    tracer.counts["cloud.escalations"] += spot.get("escalations", 0)


_files = _add("corpus.files", lambda a, r: len(r))
_plan_bins = _add("runner.bins", lambda a, r: a[0].plan.n_instances)

#: ``(layer, module, target, hook)``.  ``Class.method`` patches the class,
#: ``*.method`` every class of the module that defines it, and a bare name
#: the function at every import site.  Hooks see outermost calls only.
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("corpus", "repro.corpus.datasets", "html_18mil_like", _files),
    ("corpus", "repro.corpus.datasets", "text_400k_like", _files),
    ("vfs", "repro.vfs.files", "Segment.stats", None),
    ("vfs", "repro.vfs.files", "Segment.size", None),
    ("vfs", "repro.vfs.files", "Catalogue.__init__", None),
    ("vfs", "repro.vfs.files", "Catalogue.sample_by_volume", None),
    ("apps", "repro.cloud.service", "ExecutionService.run",
     _add("apps.units", lambda a, r: len(a[2]))),
    ("apps", "repro.cloud.service", "ExecutionService.run_column", None),
    ("apps", "repro.apps.grep", "*.estimate_work", None),
    ("apps", "repro.apps.postagger", "*.estimate_work", None),
    ("apps", "repro.apps.extractor", "*.estimate_work", None),
    ("apps", "repro.apps.profiles", "*.breakdown", None),
    ("apps", "repro.apps.extractor", "*.breakdown", None),
    ("packing", "repro.packing.first_fit", "first_fit_layout", None),
    ("packing", "repro.packing.first_fit", "pack_into_n_bins_layout", None),
    ("packing", "repro.packing.subset_sum", "derive_multiples_layout", None),
    ("packing", "repro.packing.uniform", "uniform_layout", None),
    ("perfmodel", "repro.perfmodel.probes", "ProbeCampaign.measure",
     _add("perfmodel.probe_runs", lambda a, r: a[0].repeats)),
    ("perfmodel", "repro.perfmodel.probes", "build_probe_set", None),
    ("perfmodel", "repro.perfmodel.regression", "fit_affine", None),
    ("perfmodel", "repro.perfmodel.sampling", "collect_sample_points", None),
    ("perfmodel", "repro.perfmodel.sampling", "refit_with_samples", None),
    ("core", "repro.core.planner", "StaticProvisioner.plan",
     _add("core.bins", lambda a, r: r.n_instances)),
    ("core", "repro.core.reshape", "reshape", None),
    ("dag", "repro.dag.scheduler", "DagScheduler.run", _spot_stats),
    ("dag", "repro.core.workflow", "derived_catalogue",
     _add("dag.derived_files", lambda a, r: len(r))),
    ("runner", "repro.runner.core", "ExecutionCore.run", _plan_bins),
    ("runner", "repro.runner.core", "ExecutionCore.process", _plan_bins),
    ("runner", "repro.runner.execute", "execute_plan", None),
    ("sim", "repro.sim.engine", "SimulationEngine.run", None),
    ("capacity", "repro.capacity.brokers", "*.request", None),
    ("capacity", "repro.capacity.brokers", "*.settle", None),
    ("cloud", "repro.cloud.billing", "BillingLedger.record", None),
    ("cloud", "repro.cloud.billing", "BillingLedger.record_column", None),
    ("cloud", "repro.cloud.spot", "SpotMarketBoard.price", None),
    ("cloud", "repro.cloud.spot", "SpotMarketBoard.next_crossing", None),
    ("obs", "repro.obs.ledger", "RunLedger.append", None),
    ("obs", "repro.obs.ledger", "record_experiment", None),
)

#: Classes whose instances are collected as they are built (no span), so
#: their own counters can be read when the iteration ends.
COLLECTED = (
    ("repro.packing.cache", "PackingCache"),
    ("repro.sim.engine", "SimulationEngine"),
    ("repro.fleet.lease", "LeaseManager"),
    ("repro.chaos.injector", "FaultInjector"),
)


#: Spans kept per traced iteration; later ones are only counted.
MAX_SPANS = 500_000


def _is_repro(module: Any) -> bool:
    name = getattr(module, "__name__", "")
    return name == "repro" or name.startswith("repro.")


class LayerTracer:
    """Spans and counts for one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.dropped = 0
        self.layer_of: dict[str, str] = {}
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.built: defaultdict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._next_id = 0
        self._undo: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every target for the ``with`` body, then restore them."""
        self.missing.clear()
        for layer, module, target, hook in TARGETS:
            try:
                self._patch(layer, importlib.import_module(module), target,
                            hook)
            except (ImportError, AttributeError, LookupError):
                self.missing.append(f"{module}:{target}")
        for module, name in COLLECTED:
            try:
                self._collect(importlib.import_module(module), name)
            except (ImportError, AttributeError, LookupError):
                self.missing.append(f"{module}:{name}.__init__")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _patch(self, layer: str, module: Any, target: str,
               hook: Hook | None) -> None:
        if "." not in target:
            original = getattr(module, target)
            wrapped = self._wrap(layer, target, original, hook)
            for mod in list(sys.modules.values()):
                if not _is_repro(mod):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
            return
        owner, method = target.split(".")
        if owner == "*":
            classes = [c for c in vars(module).values()
                       if isinstance(c, type)
                       and c.__module__ == module.__name__
                       and method in vars(c)]
        else:
            classes = [getattr(module, owner)]
        if not classes:
            raise LookupError(target)
        for cls in classes:
            raw = cls.__dict__[method]
            name = f"{cls.__name__}.{method}"
            if isinstance(raw, property):
                new: Any = property(self._wrap(layer, name, raw.fget, hook),
                                    raw.fset, raw.fdel, raw.__doc__)
            else:
                new = self._wrap(layer, name, raw, hook)
            setattr(cls, method, new)
            self._undo.append((cls, method, raw))

    def _collect(self, module: Any, name: str) -> None:
        cls = getattr(module, name)
        raw = cls.__dict__["__init__"]
        built = self.built[name]

        @functools.wraps(raw)
        def init(obj, *args, **kwargs):
            raw(obj, *args, **kwargs)
            built.append(obj)

        cls.__init__ = init
        self._undo.append((cls, "__init__", raw))

    def _wrap(self, layer: str, name: str, fn: Callable,
              hook: Hook | None) -> Callable:
        self.layer_of[name] = layer
        stack, active, perf = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            nested = active[name] > 0
            active[name] += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                elapsed = end - start
                self.self_s[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if not nested:
                    self.inclusive_s[name] += elapsed
                self.calls[name] += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], name, start, end,
                                       parent[0] if parent else None))
                else:
                    self.dropped += 1
            if hook is not None and not nested:
                hook(self, args, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for an iteration that took ``wall_s`` traced."""
        calls, counts, built = self.calls, self.counts, self.built
        caches = [c.stats() for c in built["PackingCache"]]
        lookups = sum(s["hits"] + s["misses"] + s["derived"] for s in caches)
        useful = sum(s["hits"] + s["derived"] for s in caches)
        pools = [m.stats() for m in built["LeaseManager"]]
        acquires = sum(p["pool_hits"] + p["pool_misses"] + p["pool_extensions"]
                       for p in pools)
        requests = [n for n in calls if n.endswith(".request")
                    and self.layer_of[n] == "capacity"]
        out = {f"{layer}.self_s": (self.self_s[layer], "s")
               for layer in LAYERS}
        out.update({
            "corpus.files": (counts["corpus.files"], "count"),
            "vfs.segment_stats": (calls["Segment.stats"], "count"),
            "apps.runs": (calls["ExecutionService.run"]
                          + calls["ExecutionService.run_column"], "count"),
            "apps.units": (counts["apps.units"], "count"),
            "packing.cache_hit_ratio": (useful / lookups if lookups else 0.0,
                                        "ratio"),
            "perfmodel.probe_runs": (counts["perfmodel.probe_runs"], "count"),
            "core.bins": (counts["core.bins"], "count"),
            "dag.derive_s": (self.inclusive_s["derived_catalogue"], "s"),
            "dag.derived_files": (counts["dag.derived_files"], "count"),
            "runner.bins": (counts["runner.bins"], "count"),
            "sim.events": (sum(e.events_fired
                               for e in built["SimulationEngine"]), "count"),
            "capacity.requests": (sum(calls[n] for n in requests), "count"),
            "capacity.refusals": (sum(self.errors[n] for n in requests),
                                  "count"),
            "capacity.pool_hit_ratio": (
                sum(p["pool_hits"] for p in pools) / acquires
                if acquires else 0.0, "ratio"),
            "cloud.bill_records": (calls["BillingLedger.record"]
                                   + calls["BillingLedger.record_column"],
                                   "count"),
            "cloud.spot_interruptions": (counts["cloud.spot_interruptions"],
                                         "count"),
            "cloud.escalations": (counts["cloud.escalations"], "count"),
            "chaos.faults": (sum(sum(f.fault_counts().values())
                                 for f in built["FaultInjector"]), "count"),
            "obs.records": (calls["RunLedger.append"], "count"),
            "other.self_s": (wall_s - sum(self.self_s.values()), "s"),
        })
        return out

    def write_spans(self, fh: TextIO, iteration: int) -> None:
        """One JSON line per span, times in seconds since tracer creation."""
        for span_id, name, start, end, parent in self.spans:
            fh.write(json.dumps({
                "iteration": iteration, "id": span_id, "name": name,
                "layer": self.layer_of[name], "start": start - self._t0,
                "end": end - self._t0, "parent": parent}) + "\n")
