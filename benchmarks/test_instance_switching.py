"""Bench X2: the §3.1 slow-instance switching argument, analytic + simulated."""

from conftest import run_figure, show, single_shot

from repro.apps import PosCostProfile, PosTaggerApplication
from repro.cloud import Cloud, Workload
from repro.core import StaticProvisioner, reshape
from repro.corpus import text_400k_like
from repro.perfmodel.regression import fit_affine
from repro.report import ComparisonTable
from repro.runner import DynamicPolicy, execute_plan, execute_with_monitoring


def test_switching_arithmetic(benchmark):
    fig, out = run_figure(benchmark, "X2")
    show(fig)
    table = ComparisonTable()
    table.add("X2", "keep slow instance: GB in next hour", "~210 GB",
              f"{out['keep_gb']:.0f} GB", 190 < out["keep_gb"] < 230)
    table.add("X2", "swap to fast instance: extra GB", "~57 GB",
              f"{out['extra_if_fast_gb']:.0f} GB", 30 < out["extra_if_fast_gb"] < 90)
    table.add("X2", "swap to another slow one: GB lost", "~10 GB",
              f"{out['lost_if_slow_gb']:.1f} GB", 5 < out["lost_if_slow_gb"] < 15)
    print(table.render())
    assert table.all_agree


def test_switching_simulated(benchmark):
    """The same trade-off enacted by the §7 dynamic rescheduler."""
    import numpy as np

    class Scripted:
        def __init__(self, n):
            self.remaining = n

        def draw_factor(self, rng):
            if self.remaining > 0:
                self.remaining -= 1
                return 0.35
            return 1.0

    def run():
        x = np.array([1e5, 1e6, 5e6])
        model = fit_affine(x, 0.327 + 0.865e-4 * x)
        cat = text_400k_like(scale=3e-2)
        plan = StaticProvisioner(model).plan(
            list(reshape(cat, None).units), 300.0, strategy="uniform")
        wl = Workload("postag", PosTaggerApplication(), PosCostProfile())
        n = plan.n_instances
        static = execute_plan(Cloud(seed=3, heterogeneity=Scripted(2 * n)), wl, plan)
        dynamic, events = execute_with_monitoring(
            Cloud(seed=3, heterogeneity=Scripted(2 * n)), wl, plan,
            policy=DynamicPolicy(slow_threshold=0.7),
        )
        return static, dynamic, events

    static, dynamic, events = single_shot(benchmark, run)
    print(f"\nstatic makespan {static.makespan:.0f}s vs dynamic "
          f"{dynamic.makespan:.0f}s after {len(events)} replacement(s)")
    assert len(events) >= 1
    assert dynamic.makespan < static.makespan
