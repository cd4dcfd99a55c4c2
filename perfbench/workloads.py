"""The benchmark's workloads: inputs from a seed, one timed iteration, checks.

Each workload calls public entry points of :mod:`repro.experiments`.  One
iteration is ``setup(seed)`` (timed as set-up) followed by ``run(inputs)``
(timed as the iteration); ``check(result)`` runs untimed afterwards and
returns an :class:`Outcome` naming every failed correctness check.  Every
iteration rebuilds its ``Cloud`` from the seed, so iterations of one run
do identical simulated work and must produce identical outcomes.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro import corpus   # looked up per call, so traced runs see it
from repro.experiments import exp_dag, exp_grep, exp_matrix, exp_pos
from repro.obs.ledger import get_run_ledger
from repro.perfmodel import build_probe_set
from repro.units import GB, HOUR, MB

__all__ = ["Outcome", "GrepReshape", "PosDeadline", "CapacityMatrix",
           "WORKLOADS", "make_workload"]

#: ``exp_grep.fig4``'s unit-size sweep and ``fig6``'s full-run layout,
#: rebuilt by the checks to verify byte coverage.
FIG4_VOLUME = 5 * GB
FIG4_UNIT_SIZES = (1 * MB, 10 * MB, 100 * MB, 500 * MB, 1 * GB, 2 * GB)
FIG6_UNIT = 100 * MB
FIG6_DEVICES = 10


@dataclass
class Outcome:
    """What one iteration produced, reduced to the benchmark's metrics."""

    files: int                    # input catalogue files carried through
    input_bytes: int              # their total size
    usd: float                    # simulated EC2 dollars billed
    bins: int                     # bins executed against a deadline
    missed: int                   # of those, bins past their (sub)deadline
    digest: str                   # fingerprint of every deterministic result
    failures: list[str] = field(default_factory=list)

    @property
    def on_time_ratio(self) -> float:
        """Bins finished by their deadline over bins executed (1.0 if none)."""
        return 1.0 - self.missed / self.bins if self.bins else 1.0


def _digest(payload: Any) -> str:
    # Insertion order is deterministic; keys mix "orig" with unit sizes.
    text = json.dumps(payload, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _covers_once(units: Iterable, files: Iterable) -> bool:
    """True when ``units`` (files or segments) hold each of ``files`` once."""
    held: Counter = Counter()
    for unit in units:
        for f in getattr(unit, "members", (unit,)):
            held[id(f)] += 1
    return held == Counter(id(f) for f in files)


def _ledger_matches(cloud) -> bool:
    """The cloud's bill equals the sum of its ledger's usage records."""
    ledger = cloud.ledger
    total = (sum(r.cost for r in ledger.records)
             + sum(c.cost for c in ledger.column_records))
    return math.isclose(ledger.total_cost, total, rel_tol=1e-12, abs_tol=1e-9)


class GrepReshape:
    """Figs. 4 and 6: grep over reshaped versus original segmentation.

    The seed generates the corpus; the cloud keeps the figure's seed, so
    every seed runs on the same simulated instances.
    """

    name = "grep-reshape"
    seed = 2010          # html_18mil_like's own default: the figure's corpus
    cloud_seed = 7

    def __init__(self, scale: float = 7e-3) -> None:
        self.scale = scale

    def setup(self, seed: int) -> exp_grep.GrepTestbed:
        tb = exp_grep.make_testbed(self.cloud_seed, scale=self.scale)
        inputs = corpus.html_18mil_like(scale=self.scale, seed=seed)
        return replace(tb, catalogue=inputs)

    def run(self, tb: exp_grep.GrepTestbed) -> tuple:
        _, f4 = exp_grep.fig4(tb)
        _, f6 = exp_grep.fig6(tb, n_devices=FIG6_DEVICES)
        tb.cloud.finalize_billing()
        return tb, f4, f6

    def check(self, result: tuple) -> Outcome:
        tb, f4, f6 = result
        failures = []
        catalogue = tb.catalogue
        probes = build_probe_set(catalogue, FIG4_VOLUME, FIG4_UNIT_SIZES)
        head = probes.variants["orig"]
        for label, units in probes.variants.items():
            if not _covers_once(units, head):
                failures.append(f"probe-coverage[{label}]")
        parts = catalogue.partition_volumes(FIG6_DEVICES)
        if not _covers_once((f for p in parts for f in p.files),
                            catalogue.files):
            failures.append("partition-coverage")
        for i, part in enumerate(parts):
            reshaped = build_probe_set(part, part.total_size, [FIG6_UNIT])
            if not _covers_once(reshaped.variants[FIG6_UNIT], part.files):
                failures.append(f"reshape-coverage[dev{i}]")
        times = list(f4["means"].values()) + [f6["actual"], f6["orig_actual"]]
        if not all(math.isfinite(t) and t > 0 for t in times):
            failures.append("positive-times")
        if not _ledger_matches(tb.cloud):
            failures.append("usd-equals-ledger")
        usd = tb.cloud.ledger.total_cost
        return Outcome(
            files=len(catalogue), input_bytes=catalogue.total_size, usd=usd,
            bins=0, missed=0, failures=failures,
            digest=_digest({"fig4": f4, "fig6": f6, "usd": usd}))


class PosDeadline:
    """Fig. 8: Eq. 3/4 probes, adjusted deadline, four executed plans.

    ``fraction`` scales the paper's operating point down: the corpus and
    the deadline shrink together, so V / f⁻¹(D) stays ≈ 26 bins.  As for
    grep, the seed generates the corpus and the cloud keeps the figure's.
    """

    name = "pos-deadline"
    seed = 2011          # text_400k_like's own default: the figure's corpus
    cloud_seed = 11

    def __init__(self, fraction: float = 0.125) -> None:
        self.fraction = fraction

    def setup(self, seed: int) -> exp_pos.PosTestbed:
        scale = 0.87 * self.fraction
        tb = exp_pos.make_testbed(self.cloud_seed, scale=scale)
        inputs = corpus.text_400k_like(scale=scale, seed=seed)
        return replace(tb, catalogue=inputs)

    def run(self, tb: exp_pos.PosTestbed) -> tuple:
        _, out = exp_pos.fig8(tb, deadline=HOUR * self.fraction)
        tb.cloud.finalize_billing()
        return tb, out

    def check(self, result: tuple) -> Outcome:
        tb, out = result
        failures = []
        catalogue = tb.catalogue
        bins = missed = 0
        summary = {}
        for name, v in out["variants"].items():
            plan, report = v["plan"], v["report"]
            if not _covers_once((u for a in plan.assignments for u in a),
                                catalogue.files):
                failures.append(f"plan-coverage[{name}]")
            if plan.total_volume != catalogue.total_size:
                failures.append(f"plan-volume[{name}]")
            executed = len(report.runs) + len(report.failures)
            if executed != plan.n_instances:
                failures.append(f"bins-executed[{name}]")
            bins += executed
            missed += report.n_missed
            summary[name] = {"instances": v["instances"],
                             "missed": v["missed"],
                             "durations": v["durations"],
                             "instance_hours": v["instance_hours"]}
        if not _ledger_matches(tb.cloud):
            failures.append("usd-equals-ledger")
        usd = tb.cloud.ledger.total_cost
        return Outcome(
            files=len(catalogue), input_bytes=catalogue.total_size, usd=usd,
            bins=bins, missed=missed, failures=failures,
            digest=_digest({"eq3": out["eq3"], "eq4": out["eq4"],
                            "adjusted": out["adjusted_deadline"],
                            "variants": summary, "usd": usd}))


class CapacityMatrix:
    """Broker stack × DAG shape × spot regime, one seed, no worker pool.

    Set-up builds the catalogue every cell starts from (each cell builds
    its own copy inside the sweep); it sizes the input and clears the
    memoised on-demand baselines, which every CLI invocation pays for.
    """

    name = "capacity-matrix"
    seed = 11

    def __init__(self, stacks: tuple[str, ...] = exp_matrix.STACKS,
                 shapes: tuple[str, ...] = exp_matrix.SHAPES,
                 regimes: tuple[str, ...] = exp_matrix.REGIMES) -> None:
        self.stacks, self.shapes, self.regimes = stacks, shapes, regimes

    @property
    def n_cells(self) -> int:
        return len(self.stacks) * len(self.shapes) * len(self.regimes)

    def setup(self, seed: int) -> tuple:
        clear = getattr(exp_matrix._on_demand_baseline, "cache_clear", None)
        if clear is not None:
            clear()
        return seed, corpus.html_18mil_like(scale=exp_dag.SCALE, seed=seed)

    def run(self, inputs: tuple) -> tuple:
        seed, catalogue = inputs
        _, stats = exp_matrix.matrix_sweep(
            list(self.stacks), shapes=self.shapes, regimes=self.regimes,
            seeds=(seed,), processes=1)
        return catalogue, stats

    def check(self, result: tuple) -> Outcome:
        catalogue, stats = result
        failures = []
        cells = [c for agg in stats["stacks"].values() for c in agg["cells"]]
        if len(cells) != self.n_cells:
            failures.append("cell-count")
        for c in cells:
            tag = f"{c['stack']}/{c['shape']}/{c['regime']}"
            if not 0 <= c["missed"] <= c["bins"] or c["bins"] == 0:
                failures.append(f"missed-within-bins[{tag}]")
            if c["stack"] == "fleet" and c["cost_ratio"] != 1.0:
                failures.append(f"fleet-cost-ratio[{tag}]")
        usd = sum(c["total_usd"] for c in cells)
        ledger = get_run_ledger()
        records = [r for r in (ledger.records(kind="dag") if ledger else [])
                   if not r.label.startswith("matrix.baseline")]
        billed = sum(r.billing["cost_usd"] + r.extra["transfers"]["cost_usd"]
                     for r in records)
        # Cells and ledger billing are each rounded to 1e-4 $ per cell.
        if len(records) != len(cells) or abs(billed - usd) > 2e-4 * len(cells):
            failures.append("usd-equals-ledger")
        return Outcome(
            files=len(catalogue) * len(cells),
            input_bytes=catalogue.total_size * len(cells), usd=usd,
            bins=sum(c["bins"] for c in cells),
            missed=sum(c["missed"] for c in cells), failures=failures,
            digest=_digest(sorted(cells, key=lambda c: (
                c["stack"], c["shape"], c["regime"]))))


WORKLOADS = {w.name: w for w in (GrepReshape, PosDeadline, CapacityMatrix)}

#: Reduced inputs for the benchmark's own tests: one iteration in seconds.
TINY = {
    "grep-reshape": {"scale": 6.5e-3},
    "pos-deadline": {"fraction": 1 / 16},
    "capacity-matrix": {"shapes": ("linear",),
                        "regimes": ("eviction-storm",)},
}


def make_workload(name: str, *, tiny: bool = False):
    """The named workload at benchmark size, or tiny for tests."""
    return WORKLOADS[name](**(TINY[name] if tiny else {}))
