"""Bench X3: the §4 escalating probe protocol and bonnie vetting loop."""

from conftest import run_figure, show

from repro.cloud import Cloud, acquire_good_instance
from repro.cloud.instance import HeterogeneityModel
from repro.report import ComparisonTable
from repro.units import MB


def test_probe_protocol_escalates(benchmark):
    fig, out = run_figure(benchmark, "X3")
    show(fig)
    table = ComparisonTable()
    table.add("X3", "small probes discarded as unstable", "CV too large",
              f"first-round worst CV = {out['worst_cv'][0]:.2f}",
              out["worst_cv"][0] > 0.25)
    table.add("X3", "volume escalates geometrically", "V1 = k·V0",
              f"volumes {out['volumes']}",
              len(out["volumes"]) >= 2
              and out["volumes"][1] == out["volumes"][0] * 5)
    table.add("X3", "protocol converges to a stable probe set", "stable",
              str(out["stable"]), out["stable"])
    final_cv = out["worst_cv"][-1]
    table.add("X3", "final probe set is stable", "CV small",
              f"final worst CV = {final_cv:.2f}", final_cv <= 0.25)
    print(table.render())
    assert table.all_agree


def test_bonnie_acquisition_loop(benchmark):
    """§4: 'We repeat this procedure until we acquire an instance that
    performs well' — on a degraded cloud the loop visibly rejects."""

    def acquire():
        hmodel = HeterogeneityModel(p_slow=0.5, p_very_slow=0.2)
        cloud = Cloud(seed=71, io_heterogeneity=hmodel)
        inst, attempts = acquire_good_instance(cloud, max_attempts=60)
        return cloud, inst, attempts

    cloud, inst, attempts = benchmark.pedantic(acquire, rounds=1, iterations=1)
    print(f"\naccepted {inst.instance_id} after {attempts} attempt(s); "
          f"io_factor = {inst.io_factor:.2f}")
    table = ComparisonTable()
    table.add("X3", "vetting rejects poor instances", "repeat until good",
              f"{attempts} attempts", attempts > 1)
    table.add("X3", "accepted instance clears 60 MB/s", "> 60 MB/s",
              f"{inst.itype.base_disk_bandwidth * inst.io_factor / MB:.0f} MB/s",
              inst.itype.base_disk_bandwidth * inst.io_factor >= 60 * MB)
    table.add("X3", "rejected instances still billed (partial hour)",
              "cost of vetting", f"{len(cloud.ledger.records)} records",
              len(cloud.ledger.records) == attempts - 1)
    print(table.render())
    assert table.all_agree
