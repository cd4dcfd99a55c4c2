"""``repro.obs`` — zero-dependency observability for the reproduction.

The paper's method is measurement-driven (probe runs, regression
residuals, adjusted deadlines); this package gives the *reproduction* the
same discipline about itself:

* :class:`~repro.obs.trace.Tracer` — hierarchical spans and instant
  events on **simulated time** (the cloud binds it to its engine clock),
  with a no-op fast path when disabled;
* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters,
  gauges and fixed-bucket histograms with cheap snapshot/merge;
* exporters — Chrome ``trace_event`` JSON (``chrome://tracing`` /
  Perfetto), JSONL event streams, and an ASCII metrics table matching
  the ``report`` module's style;
* :mod:`~repro.obs.log` — the stdlib-``logging`` set-up every entry
  point shares.

Wiring
------
Every instrumented layer reads the *module default* bundle via
:func:`get_obs` unless handed one explicitly (``Cloud(obs=...)``).  The
default starts **disabled** — a tracer whose ``span`` returns a shared
null context manager and a registry that hands out null instruments — so
un-traced runs pay one attribute check per call site.  Enable before
building the objects you want observed::

    import repro.obs as obs

    o = obs.configure()                 # tracing + metrics on
    cloud = Cloud(seed=7)               # binds the tracer to sim time
    ... run a campaign ...
    obs.write_chrome_trace(o.tracer, "trace.json")
    print(obs.render_metrics_table(o.metrics))
    obs.disable()

or use ``python -m repro.cli trace <demo> --out trace.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.export import (
    chrome_trace_events,
    iter_jsonl_lines,
    render_metrics_table,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.log import get_logger, install
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.trace import NULL_SPAN, InstantRecord, Span, SpanRecord, Tracer

__all__ = [
    "Obs", "get_obs", "set_obs", "configure", "disable",
    "Tracer", "Span", "SpanRecord", "InstantRecord", "NULL_SPAN",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "MetricsError",
    "DEFAULT_BUCKETS",
    "chrome_trace_events", "to_chrome_trace", "write_chrome_trace",
    "iter_jsonl_lines", "write_jsonl", "render_metrics_table",
    "get_logger", "install",
    "RunRecord", "RunLedger", "LedgerError",
    "get_run_ledger", "set_run_ledger", "configure_run_ledger",
    "capture_runs", "record_experiment",
    "Objective", "SloPolicy", "SloReport", "render_slo_table",
    "RunDiff", "diff_runs", "render_diff_table",
    "regression_gate", "render_gate_report",
]


@dataclass(frozen=True)
class Obs:
    """One tracer + one metrics registry, passed around as a unit."""

    tracer: Tracer
    metrics: MetricsRegistry

    @property
    def enabled(self) -> bool:
        """True if *either* half records anything."""
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def off(cls) -> "Obs":
        return cls(Tracer(enabled=False), MetricsRegistry(enabled=False))

    @classmethod
    def on(cls, *, trace: bool = True, metrics: bool = True,
           clock=None) -> "Obs":
        return cls(Tracer(clock, enabled=trace),
                   MetricsRegistry(enabled=metrics))


_DISABLED = Obs.off()
_default: Obs = _DISABLED


def get_obs() -> Obs:
    """The module-default bundle instrumented code falls back to."""
    return _default


def set_obs(obs: Obs) -> Obs:
    """Install ``obs`` as the module default; returns the previous one."""
    global _default
    previous, _default = _default, obs
    return previous


def configure(*, trace: bool = True, metrics: bool = True, clock=None) -> Obs:
    """Build an enabled bundle, install it as the default, and return it.

    Call *before* constructing the :class:`~repro.cloud.cluster.Cloud`
    (and caches/campaigns) you want observed — components capture the
    default at construction time.
    """
    obs = Obs.on(trace=trace, metrics=metrics, clock=clock)
    set_obs(obs)
    return obs


def disable() -> Obs:
    """Restore the disabled default; returns the bundle that was active."""
    return set_obs(_DISABLED)


# The flight-recorder layer reads get_obs() at call time, so these imports
# live after the default-bundle machinery to keep the cycle one-way.
from repro.obs.diff import (  # noqa: E402
    RunDiff,
    diff_runs,
    regression_gate,
    render_diff_table,
    render_gate_report,
)
from repro.obs.ledger import (  # noqa: E402
    LedgerError,
    RunLedger,
    RunRecord,
    capture_runs,
    configure_run_ledger,
    get_run_ledger,
    record_experiment,
    set_run_ledger,
)
from repro.obs.slo import (  # noqa: E402
    Objective,
    SloPolicy,
    SloReport,
    render_slo_table,
)
