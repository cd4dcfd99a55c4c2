"""Recorded results for the §7 serial workflow executor.

The values below were recorded from the stage-barrier executor the
serial DAG scheduler replaced.  ``DagScheduler(mode="serial")`` on the
default local-disk backend must reproduce them exactly: per-stage runs
``(instance_id, boot_delay, duration, volume)``, the ledger total, the
final simulated clock and the full-hour subdeadlines.
"""

import numpy as np
import pytest

from repro.apps import (
    ExtractCostProfile,
    ExtractorApplication,
    GrepApplication,
    GrepCostProfile,
    PosCostProfile,
    PosTaggerApplication,
)
from repro.cloud import Cloud, Workload
from repro.core import WorkflowStage
from repro.corpus import html_18mil_like
from repro.dag import DagScheduler, WorkflowGraph
from repro.perfmodel.regression import fit_affine
from repro.units import HOUR


def affine(a, b):
    x = np.array([1e5, 1e6, 1e7])
    return fit_affine(x, a + b * x)


def grep(name, keep, pattern=None):
    app = GrepApplication(pattern) if pattern else GrepApplication()
    return WorkflowStage(name, Workload("grep", app, GrepCostProfile()),
                         affine(0.2, 1.3e-8), output_ratio=keep)


def pipeline(keep):
    """grep-filter → extract → POS-tag, as in tests/test_core_workflow.py."""
    g = WorkflowGraph()
    g.add_stage(grep("filter", keep))
    g.add_stage(WorkflowStage(
        "extract", Workload("extract", ExtractorApplication(),
                            ExtractCostProfile()),
        affine(0.3, 3e-8), output_ratio=0.95, strips_markup=True),
        after=["filter"])
    g.add_stage(WorkflowStage(
        "tag", Workload("postag", PosTaggerApplication(), PosCostProfile()),
        affine(3.0, 0.9e-4)), after=["extract"])
    return g


def fan_in():
    """Two greps feeding one extraction stage."""
    g = WorkflowGraph()
    g.add_stage(grep("left", 0.3, "alpha"))
    g.add_stage(grep("right", 0.2, "beta"))
    g.add_stage(WorkflowStage(
        "merge", Workload("extract", ExtractorApplication(),
                          ExtractCostProfile()),
        affine(0.3, 3e-8)), after=["left", "right"])
    return g


ONE_HOUR_EACH = {"filter": 3600.0, "extract": 3600.0, "tag": 3600.0}

#: case -> (graph builder, seed, corpus scale, deadline, recorded results)
RECORDED = {
    "pipeline-seed5": (lambda: pipeline(0.5), 5, 2e-5, 3 * HOUR, {
        "stages": {
            "filter": [("i-000001", 173.63041828100404, 2.486434086748378,
                        57950764)],
            "extract": [("i-000002", 90.47848361050441, 3.4413624201435438,
                         28975382)],
            "tag": [("i-000003", 122.14213385649748, 4772.045167790292,
                     27526612)],
        },
        "ledger_total": 0.34,
        "now": 5164.22400004519,
        "subdeadlines": ONE_HOUR_EACH,
    }),
    "pipeline-seed9": (lambda: pipeline(0.5), 9, 2e-5, 3 * HOUR, {
        "stages": {
            "filter": [("i-000001", 146.48871858086088, 2.5166261822732263,
                        57950764)],
            "extract": [("i-000002", 104.2087267743836, 2.4360771556996674,
                         28975382)],
            "tag": [("i-000003", 135.29580627620146, 4693.376162041471,
                     27526612)],
        },
        "ledger_total": 0.34,
        "now": 5084.32211701089,
        "subdeadlines": ONE_HOUR_EACH,
    }),
    "w1": (lambda: pipeline(0.4), 22, 5e-4, 4 * HOUR, {
        "stages": {
            "filter": [("i-000001", 155.26527232524535, 53.302476762065915,
                        434733479)],
            "extract": [("i-000002", 183.9887223206854, 39.85275756434009,
                         173893391)],
            "tag": [
                ("i-000003", 209.58123537381312, 5936.978110902947, 55058701),
                ("i-000004", 190.98604164987233, 6529.734665679988, 55069624),
                ("i-000005", 141.87447772602957, 6717.74535306073, 55070396),
            ],
        },
        "ledger_total": 0.68,
        "now": 7359.7358174068795,
        "subdeadlines": {"filter": 3600.0, "extract": 3600.0, "tag": 7200.0},
    }),
    "fan-in": (fan_in, 4, 1e-5, 3 * HOUR, {
        "stages": {
            "left": [("i-000001", 94.40742516016195, 1.6235614209169313,
                      49545800)],
            "right": [("i-000002", 207.71395270723997, 2.8046734892297285,
                       49545800)],
            "merge": [("i-000003", 174.17238275847595, 2.5608985677338714,
                       24772900)],
        },
        "ledger_total": 0.255,
        "now": 483.28289410375845,
        "subdeadlines": {"left": 3600.0, "right": 3600.0, "merge": 3600.0},
    }),
}


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_serial_dag_reproduces_recorded_results(case):
    build, seed, scale, deadline, expected = RECORDED[case]
    cloud = Cloud(seed=seed)
    report = DagScheduler(cloud, build(), html_18mil_like(scale=scale),
                          deadline, mode="serial").run()
    stages = {
        name: [(r.instance_id, r.boot_delay, r.duration, r.volume)
               for r in res.report.runs]
        for name, res in report.stages.items()
    }
    assert stages == expected["stages"]
    assert cloud.ledger.total_cost == expected["ledger_total"]
    assert cloud.now == expected["now"]
    assert report.subdeadlines == expected["subdeadlines"]
