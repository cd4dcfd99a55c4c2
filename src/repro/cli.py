"""Command-line interface: regenerate figures, inspect data, trace demos.

Usage::

    python -m repro.cli figures --ids F4 F7        # regenerate figures
    python -m repro.cli figures --all
    python -m repro.cli datasets                   # Fig. 1 summaries
    python -m repro.cli quickstart                 # the end-to-end demo
    python -m repro.cli chaos --scenario az-blackout --policy both
                                                   # fault-injection sweep
    python -m repro.cli spot --regime eviction-storm --policy both
                                                   # spot-market sweep
    python -m repro.cli chaos --seeds 6 --processes 4
                                                   # same grid, four workers
    python -m repro.cli dag --backend s3 ebs --slo
                                                   # DAG backend comparison
    python -m repro.cli matrix --stack spot spot-lease --slo
                                                   # broker-stack matrix
    python -m repro.cli trace quickstart --out trace.json
                                                   # traced demo run
    python -m repro.cli runs list                  # the persistent run ledger
    python -m repro.cli runs diff -2 -1            # compare the last two runs
    python -m repro.cli runs slo --policy spot     # a campaign's SLO verdicts

Any subcommand accepts ``--metrics`` to print the metrics table the run
accumulated; ``trace`` additionally records spans and writes a Chrome
``trace_event`` file loadable in ``chrome://tracing`` / Perfetto.

Every run-producing subcommand appends flight-recorder records to the
JSONL ledger under ``.repro/runs/`` (``--runs-dir`` to relocate,
``--no-ledger`` to disable); the ``runs`` subcommands query that history.
"""

from __future__ import annotations

import argparse
import itertools
import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.obs import configure, disable, get_logger, install
from repro.obs.export import render_metrics_table, write_chrome_trace, write_jsonl
from repro.obs.ledger import LedgerError, RunLedger, set_run_ledger
from repro.report.figures import FigureResult, render_ascii

__all__ = ["main", "build_parser", "FIGURES", "DEMOS", "figure_session"]

_log = get_logger("cli")

#: Demo name → script under ``examples/`` (the ``trace`` subcommand's menu).
DEMOS: dict[str, str] = {
    "quickstart": "quickstart.py",
    "spot_market": "spot_market.py",
    "spot_fallback": "spot_fallback.py",
    "fault_tolerance": "fault_tolerance.py",
    "text_workflow": "text_workflow.py",
    "dynamic_rescheduling": "dynamic_rescheduling.py",
    "fleet_learning": "fleet_learning.py",
    "fleet_sharing": "fleet_sharing.py",
    "news_grep_campaign": "news_grep_campaign.py",
    "pos_deadline_scheduling": "pos_deadline_scheduling.py",
    "dag_pipeline": "dag_pipeline.py",
}


#: Figure id → the ``"module:function"`` that regenerates it.  Each
#: function takes no arguments, builds its own testbed and returns
#: ``(FigureResult, stats)``; :func:`figure_session` runs them.
FIGURES: dict[str, str] = {
    "F1a": "repro.experiments.exp_fig1:fig1a",
    "F1b": "repro.experiments.exp_fig1:fig1b",
    "F2": "repro.experiments.exp_fig2:fig2",
    "F3": "repro.experiments.exp_grep:fig3",
    "F4": "repro.experiments.exp_grep:fig4",
    "F5": "repro.experiments.exp_grep:fig5",
    "F6": "repro.experiments.exp_grep:fig6",
    "F7": "repro.experiments.exp_pos:fig7",
    "F8": "repro.experiments.exp_pos:fig8",
    "F9": "repro.experiments.exp_pos:fig9",
    "X1": "repro.experiments.exp_pos:novels",
    "X2": "repro.experiments.exp_side:instance_switching",
    "X3": "repro.experiments.exp_side:probe_protocol_trace",
    "X4": "repro.experiments.exp_side:output_retrieval",
    "X5": "repro.experiments.exp_side:spot_tradeoff",
    "X6": "repro.experiments.exp_side:prediction_approaches",
    "X7": "repro.experiments.exp_side:sampling_vitality",
}


def figure_session(
        ids: Iterable[str]) -> Iterator[tuple[str, FigureResult, dict]]:
    """Run the figures ``ids`` in order; yield ``(id, figure, stats)``.

    Each run of consecutive ids whose functions live in one module gets
    one :func:`~repro.vfs.memo.sweep_memo`, so figures that generate the
    same seeded corpus (F4–F6, F7–F9) share one immutable catalogue, and
    the catalogue is dropped once the next module's figures start.  Each
    figure still builds its own ``Cloud`` from its own seed, so it
    prints the same alone as in the session.
    """
    from repro.experiments.sweep import resolve
    from repro.vfs.memo import sweep_memo

    def module(fid: str) -> str:
        return FIGURES[fid].split(":")[0]

    for _, group in itertools.groupby(ids, key=module):
        with sweep_memo():
            for fid in group:
                fig, stats = resolve(FIGURES[fid])()
                yield fid, fig, stats


def _examples_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "examples"


def _run_demo(demo: str) -> None:
    import runpy

    runpy.run_path(str(_examples_dir() / DEMOS[demo]), run_name="__main__")


def _maybe_print_metrics(args: argparse.Namespace, obs) -> None:
    if getattr(args, "metrics", False) and obs is not None:
        print()
        print(render_metrics_table(obs.metrics))


def cmd_figures(args: argparse.Namespace) -> int:
    """``figures`` subcommand: render the requested figures."""
    ids = list(FIGURES) if args.all else args.ids
    if not ids:
        _log.error("no figure ids given (use --ids F4 F7 … or --all)")
        return 2
    unknown = [i for i in ids if i not in FIGURES]
    if unknown:
        _log.error("unknown figure id(s): %s; known: %s",
                   unknown, sorted(FIGURES))
        return 2
    for _, fig, _ in figure_session(ids):
        print(render_ascii(fig))
        print()
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    """``datasets`` subcommand: print Fig. 1 summaries."""
    from repro.corpus import html_18mil_like, text_400k_like

    for cat in (html_18mil_like(scale=1e-3), text_400k_like(scale=1e-2)):
        d = cat.describe()
        print(f"{d['name']:>12}: {d['files']} files, total {d['total']:,} B, "
              f"mean {d['mean']:.0f} B, median {d['median']:.0f} B, "
              f"p90 {d['p90']:.0f} B, max {d['max']:,} B")
    return 0


def cmd_quickstart(_args: argparse.Namespace) -> int:
    """``quickstart`` subcommand: run the quickstart example."""
    _run_demo("quickstart")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet`` subcommand: N concurrent campaigns on one shared fleet."""
    from repro.experiments.exp_fleet import run_shared_fleet, shared_vs_isolated
    from repro.report import render_trace_gantt

    if args.campaigns < 1:
        _log.error("--campaigns must be at least 1")
        return 2
    obs = configure()   # fleet spans feed the per-tenant gantt
    try:
        if args.compare:
            fig, stats = shared_vs_isolated(
                args.campaigns, max_instances=args.max_instances)
            print(render_ascii(fig))
            cloud = None
        else:
            cloud, report = run_shared_fleet(
                args.campaigns, max_instances=args.max_instances)
            s = report.summary()
            print(f"{s['campaigns']} campaigns "
                  f"({s['admitted']} admitted, {s['deferred']} deferred, "
                  f"{s['rejected']} rejected): {s['bins']} bins on "
                  f"{s['instances']} instances, {s['instance_hours']} "
                  f"instance-hours, ${s['cost_usd']:.4f}, warm hit rate "
                  f"{s['warm_hit_rate']:.2f}")
            print()
            print(report.render_attribution())
            print()
            print(render_trace_gantt(obs.tracer, category="fleet",
                                     group_by="tenant"))
    finally:
        disable()
    _maybe_print_metrics(args, obs)
    return 0


def _campaign_seeds(args: argparse.Namespace) -> tuple[int, ...] | None:
    """Validate ``--seeds``/``--processes``; the seeds, or None when invalid."""
    from repro.experiments.sweep import campaign_seeds

    if args.seeds < 1:
        _log.error("--seeds must be at least 1")
        return None
    if args.processes < 1:
        _log.error("--processes must be at least 1")
        return None
    return campaign_seeds(args.seeds)


def _print_slo_tables(group_name: str, reports: dict) -> bool:
    """One SLO table per side, sides sorted; True when every side passes."""
    from repro.obs.slo import render_slo_table

    for side, report in sorted(reports.items()):
        print(f"{group_name}={side}")
        print(render_slo_table(report))
        print()
    return all(report.ok for report in reports.values())


def cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos`` subcommand: fault-scenario sweep, resilience on/off."""
    from repro.chaos import SCENARIOS
    from repro.experiments.exp_chaos import chaos_sweep
    from repro.obs import get_obs
    from repro.obs.ledger import encode_metrics_dump

    names = list(SCENARIOS) if (args.all or not args.scenarios) else args.scenarios
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        _log.error("unknown scenario(s): %s; shipped: %s",
                   ", ".join(unknown), ", ".join(sorted(SCENARIOS)))
        return 2
    seeds = _campaign_seeds(args)
    if seeds is None:
        return 2
    policies = {"on": (True,), "off": (False,),
                "both": (True, False)}[args.policy]
    # --metrics-out needs a live registry even when --metrics wasn't given.
    local_obs = None
    if args.metrics_out and not get_obs().metrics.enabled:
        local_obs = configure(trace=False)
    try:
        fig, stats = chaos_sweep(names, seeds=seeds, policies=policies,
                                 processes=args.processes)
        if args.metrics_out:
            payload = {"schema_version": 1,
                       "metrics": encode_metrics_dump(get_obs().metrics.dump())}
            Path(args.metrics_out).write_text(
                json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
            _log.info("wrote merged sweep metrics to %s", args.metrics_out)
    finally:
        if local_obs is not None:
            disable()
    print(render_ascii(fig))
    print()
    for name in names:
        row = stats["scenarios"][name]
        cells = " ".join(
            f"{p}: miss {row[p]['miss_rate']:.3f} "
            f"(${row[p]['mean_cost_usd']:.3f})"
            for p in ("on", "off") if p in row)
        print(f"{name:>16}  {cells}")
    return 0


def cmd_spot(args: argparse.Namespace) -> int:
    """``spot`` subcommand: spot-provisioning sweep, fallback ladder on/off."""
    from repro.chaos import SPOT_REGIMES
    from repro.experiments.exp_spot import BIDS, CAMPAIGN, SLACKS, spot_sweep

    names = (list(SPOT_REGIMES) if (args.all or not args.regimes)
             else args.regimes)
    bids = tuple(args.bids) if args.bids else BIDS
    slacks = tuple(args.slacks) if args.slacks else SLACKS
    unknown = [n for n in names if n not in SPOT_REGIMES]
    if unknown:
        _log.error("unknown regime(s): %s; shipped: %s",
                   ", ".join(unknown), ", ".join(sorted(SPOT_REGIMES)))
        return 2
    seeds = _campaign_seeds(args)
    if seeds is None:
        return 2
    if any(b <= 0 for b in bids) or any(s <= 0 for s in slacks):
        _log.error("--bids and --slacks must be positive")
        return 2
    policies = {"on": (True,), "off": (False,),
                "both": (True, False)}[args.policy]
    fig, stats = spot_sweep(names, seeds=seeds, policies=policies,
                            bids=bids, slacks=slacks,
                            processes=args.processes)
    print(render_ascii(fig))
    print()
    for name in names:
        row = stats["regimes"][name]
        cells = " ".join(
            f"{p}: miss {row[p]['miss_rate']:.3f} "
            f"(${row[p]['mean_cost_usd']:.3f}, "
            f"{row[p]['mean_cost_ratio']:.2f}x od)"
            for p in ("on", "off") if p in row)
        print(f"{name:>16}  {cells}")
    if args.slo:
        print()
        _print_slo_tables(CAMPAIGN.group_name, stats["slo"])
    return 0


def cmd_dag(args: argparse.Namespace) -> int:
    """``dag`` subcommand: backend-comparison sweep over workflow DAGs."""
    from repro.experiments.exp_dag import CAMPAIGN, dag_sweep

    known_backends = ("local", "s3", "ebs")
    known_shapes = ("linear", "fanout")
    backends = tuple(args.backends) or known_backends
    shapes = tuple(args.shapes) or known_shapes
    unknown = [b for b in backends if b not in known_backends]
    unknown += [s for s in shapes if s not in known_shapes]
    if unknown:
        _log.error("unknown backend/shape(s): %s; backends: %s, shapes: %s",
                   ", ".join(unknown), ", ".join(known_backends),
                   ", ".join(known_shapes))
        return 2
    seeds = _campaign_seeds(args)
    if seeds is None:
        return 2
    fig, stats = dag_sweep(backends, shapes, seeds=seeds,
                           processes=args.processes)
    print(render_ascii(fig))
    print()
    for backend in backends:
        cells = " ".join(
            f"{shape}: {stats['agg'][backend][shape]['mean_makespan_s']:.0f}s "
            f"(${stats['agg'][backend][shape]['mean_total_usd']:.3f})"
            for shape in shapes)
        extra = (f"  speedup x{stats['speedup'][backend]:.2f}"
                 if backend in stats["speedup"] else "")
        print(f"{backend:>6}  {cells}{extra}")
    if args.slo:
        print()
        _print_slo_tables(CAMPAIGN.group_name, stats["slo"])
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    """``matrix`` subcommand: broker stack × shape × regime DAG sweep."""
    from repro.experiments.exp_matrix import (
        CAMPAIGN,
        REGIMES,
        SHAPES,
        STACKS,
        matrix_sweep,
    )

    stacks = tuple(args.stacks) or STACKS
    shapes = tuple(args.shapes) or SHAPES
    regimes = tuple(args.regimes) or REGIMES
    unknown = [s for s in stacks if s not in STACKS]
    unknown += [s for s in shapes if s not in SHAPES]
    unknown += [r for r in regimes if r not in REGIMES]
    if unknown:
        _log.error("unknown stack/shape/regime(s): %s; stacks: %s, "
                   "shapes: %s, regimes: %s", ", ".join(unknown),
                   ", ".join(STACKS), ", ".join(SHAPES), ", ".join(REGIMES))
        return 2
    seeds = _campaign_seeds(args)
    if seeds is None:
        return 2
    fig, stats = matrix_sweep(list(stacks), shapes=shapes, regimes=regimes,
                              seeds=seeds, processes=args.processes)
    print(render_ascii(fig))
    print()
    for stack, agg in stats["stacks"].items():
        print(f"{stack:>10}  miss {agg['miss_rate']:.3f}  "
              f"cost x{agg['mean_cost_ratio']:.3f} of on-demand "
              f"(${agg['mean_cost_usd']:.3f}/run)")
    if args.slo:
        print()
        _print_slo_tables(CAMPAIGN.group_name, stats["slo"])
    return 0


def _ledger_for(args: argparse.Namespace) -> RunLedger:
    return RunLedger(args.runs_dir)


def cmd_runs_list(args: argparse.Namespace) -> int:
    """``runs list``: one line per ledger record, oldest first."""
    ledger = _ledger_for(args)
    records = ledger.records(kind=args.kind or None, label=args.label or None)
    if not records:
        print(f"(no run records under {ledger.root})")
        return 0
    rows = [("run_id", "kind", "label", "created", "bins", "missed",
             "cost_usd", "wall_s")]
    for r in records:
        rows.append((
            r.run_id, r.kind, r.label, r.created_at,
            str(r.get("deadline.bins", "-")),
            str(r.get("deadline.missed", "-")),
            f"{r.get('billing.cost_usd'):.4f}"
            if r.get("billing.cost_usd") is not None else "-",
            f"{r.get('profile.wall_s'):.3f}"
            if r.get("profile.wall_s") is not None else "-",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print(f"{len(records)} records in {ledger.path}")
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    """``runs show REF``: dump one record as pretty JSON."""
    try:
        record = _ledger_for(args).resolve(args.ref)
    except LedgerError as e:
        _log.error("%s", e)
        return 2
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_runs_diff(args: argparse.Namespace) -> int:
    """``runs diff A B``: structured comparison of two ledger records."""
    from repro.obs.diff import DiffError, diff_runs, render_diff_table

    ledger = _ledger_for(args)
    try:
        diff = diff_runs(ledger.resolve(args.a), ledger.resolve(args.b),
                         threshold=args.threshold,
                         perf_threshold=args.perf_threshold)
    except (LedgerError, DiffError) as e:
        _log.error("%s", e)
        return 2
    print(render_diff_table(diff))
    if args.strict and (not diff.clean or diff.perf_regressions):
        return 3
    return 0


def cmd_runs_slo(args: argparse.Namespace) -> int:
    """``runs slo``: evaluate campaign SLOs over recorded sweep cells.

    ``--policy`` names a registered campaign — experiments register
    theirs in :mod:`repro.experiments.registry`, so new campaigns become
    judgeable here without touching the CLI.  An unknown name exits 2
    and lists what is registered.
    """
    from repro.experiments.registry import (
        get_slo_policy,
        load_defaults,
        slo_policy_names,
    )

    load_defaults()
    try:
        entry = get_slo_policy(args.policy)
    except KeyError:
        _log.error("unknown SLO policy %r; registered: %s", args.policy,
                   ", ".join(slo_policy_names()))
        return 2
    ledger = _ledger_for(args)
    sides: dict[str, list] = {}
    for r in ledger.records(kind="sweep-cell", label=args.label or None):
        if r.get(entry.group_key) is not None and (
                args.label or r.label.startswith(entry.label_prefix)):
            sides.setdefault(str(r.get(entry.group_key)), []).append(r)
    if not sides:
        print(f"(no matching sweep-cell records under {ledger.root}; "
              f"run `repro {entry.name}` first)")
        return 0
    ok = _print_slo_tables(entry.group_name, {
        side: entry.slos.evaluate(sides[side]) for side in sorted(sides)})
    return 3 if args.strict and not ok else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace`` subcommand: run a demo with observability on, export it."""
    if args.demo not in DEMOS:
        _log.error("unknown demo %r; known: %s", args.demo, sorted(DEMOS))
        return 2
    obs = configure()
    try:
        _run_demo(args.demo)
    finally:
        disable()
    tracer = obs.tracer
    if args.out:
        write_chrome_trace(tracer, args.out)
        _log.info("wrote Chrome trace (%d spans, %d instants, cats: %s) to %s",
                  tracer.span_count, len(tracer.instants),
                  ",".join(tracer.categories()), args.out)
    if args.jsonl:
        write_jsonl(tracer, args.jsonl)
        _log.info("wrote JSONL event log to %s", args.jsonl)
    if args.gantt:
        from repro.report import render_trace_gantt

        print()
        print(render_trace_gantt(tracer, category=args.gantt_category))
    print()
    print(render_metrics_table(obs.metrics, title=f"metrics: {args.demo}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's figures and demos.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="<command>")

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("--ids", nargs="*", default=[], metavar="ID",
                       help=f"figure ids ({', '.join(FIGURES)})")
    p_fig.add_argument("--all", action="store_true", help="all figures")
    p_fig.set_defaults(fn=cmd_figures)

    p_ds = sub.add_parser("datasets", help="summarise the synthetic data sets")
    p_ds.set_defaults(fn=cmd_datasets)

    p_qs = sub.add_parser("quickstart", help="run the quickstart example")
    p_qs.set_defaults(fn=cmd_quickstart)

    p_fl = sub.add_parser(
        "fleet", help="run concurrent campaigns on one shared fleet")
    p_fl.add_argument("--campaigns", type=int, default=8, metavar="N",
                      help="number of concurrent campaigns (default: 8)")
    p_fl.add_argument("--max-instances", type=int, default=8, metavar="M",
                      help="fleet instance cap (default: 8)")
    p_fl.add_argument("--compare", action="store_true",
                      help="also run the isolated baselines and print the "
                           "shared-vs-isolated figure")
    p_fl.set_defaults(fn=cmd_fleet)

    p_ch = sub.add_parser(
        "chaos", help="sweep fault scenarios with resilience on/off")
    p_ch.add_argument("--scenario", dest="scenarios", nargs="*", default=[],
                      metavar="NAME",
                      help="scenario names (default: all shipped scenarios)")
    p_ch.add_argument("--all", action="store_true",
                      help="sweep every shipped scenario")
    p_ch.add_argument("--policy", choices=("on", "off", "both"),
                      default="both",
                      help="resilience policy side(s) to run (default: both)")
    p_ch.add_argument("--seeds", type=int, default=3, metavar="N",
                      help="number of campaign seeds to aggregate (default: 3)")
    p_ch.add_argument("--processes", type=int, default=1, metavar="P",
                      help="worker processes for the sweep grid "
                           "(default: 1 = inline)")
    p_ch.add_argument("--metrics-out", metavar="PATH", default=None,
                      help="write the merged sweep metrics dump as JSON")
    p_ch.set_defaults(fn=cmd_chaos)

    p_sp = sub.add_parser(
        "spot", help="sweep spot interruption regimes with the fallback "
                     "ladder on/off")
    p_sp.add_argument("--regime", dest="regimes", nargs="*", default=[],
                      metavar="NAME",
                      help="regime names (default: all shipped regimes)")
    p_sp.add_argument("--all", action="store_true",
                      help="sweep every shipped regime")
    p_sp.add_argument("--policy", choices=("on", "off", "both"),
                      default="both",
                      help="fallback-ladder side(s) to run (default: both)")
    p_sp.add_argument("--seeds", type=int, default=3, metavar="N",
                      help="number of campaign seeds to aggregate (default: 3)")
    p_sp.add_argument("--bids", type=float, nargs="*", metavar="B",
                      default=None,
                      help="reference-terms bid levels to sweep "
                           "(default: 0.02 0.06 0.085)")
    p_sp.add_argument("--slacks", type=float, nargs="*", metavar="S",
                      default=None,
                      help="deadline-slack multipliers to sweep "
                           "(default: 0.85 1.0 1.25)")
    p_sp.add_argument("--processes", type=int, default=1, metavar="P",
                      help="worker processes for the sweep grid "
                           "(default: 1 = inline)")
    p_sp.add_argument("--slo", action="store_true",
                      help="print the per-policy SLO tables")
    p_sp.set_defaults(fn=cmd_spot)

    p_dag = sub.add_parser(
        "dag", help="sweep workflow DAGs over data-sharing backends")
    p_dag.add_argument("--backend", dest="backends", nargs="*", default=[],
                       metavar="NAME",
                       help="backends to sweep: local, s3, ebs "
                            "(default: all three)")
    p_dag.add_argument("--shape", dest="shapes", nargs="*", default=[],
                       metavar="SHAPE",
                       help="DAG shapes to sweep: linear, fanout "
                            "(default: both)")
    p_dag.add_argument("--seeds", type=int, default=3, metavar="N",
                       help="number of campaign seeds to aggregate "
                            "(default: 3)")
    p_dag.add_argument("--processes", type=int, default=1, metavar="P",
                       help="worker processes for the sweep grid "
                            "(default: 1 = inline)")
    p_dag.add_argument("--slo", action="store_true",
                       help="print the per-backend SLO tables")
    p_dag.set_defaults(fn=cmd_dag)

    p_mx = sub.add_parser(
        "matrix", help="sweep workflow DAGs over capacity broker stacks")
    p_mx.add_argument("--stack", dest="stacks", nargs="*", default=[],
                      metavar="NAME",
                      help="broker stacks to sweep: fleet, spot, spot-lease "
                           "(default: all three)")
    p_mx.add_argument("--shape", dest="shapes", nargs="*", default=[],
                      metavar="SHAPE",
                      help="DAG shapes to sweep: linear, fanout "
                           "(default: both)")
    p_mx.add_argument("--regime", dest="regimes", nargs="*", default=[],
                      metavar="REGIME",
                      help="spot interruption regimes: calm, choppy, "
                           "eviction-storm (default: all three)")
    p_mx.add_argument("--seeds", type=int, default=3, metavar="N",
                      help="number of campaign seeds to aggregate "
                           "(default: 3)")
    p_mx.add_argument("--processes", type=int, default=1, metavar="P",
                      help="worker processes for the sweep grid "
                           "(default: 1 = inline)")
    p_mx.add_argument("--slo", action="store_true",
                      help="print the per-stack SLO tables")
    p_mx.set_defaults(fn=cmd_matrix)

    p_runs = sub.add_parser(
        "runs", help="query the persistent flight-recorder ledger")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    p_rl = runs_sub.add_parser("list", help="list recorded runs")
    p_rl.add_argument("--kind", default=None, metavar="KIND",
                      help="only records of this kind (runner, dag, spot, "
                           "matrix, experiment, sweep-cell)")
    p_rl.add_argument("--label", default=None, metavar="LABEL",
                      help="only records with this label")
    p_rl.set_defaults(fn=cmd_runs_list)

    p_rs = runs_sub.add_parser("show", help="dump one record as JSON")
    p_rs.add_argument("ref", metavar="REF",
                      help="run id, or a negative index (-1 = latest)")
    p_rs.set_defaults(fn=cmd_runs_show)

    p_rd = runs_sub.add_parser("diff", help="compare two recorded runs")
    p_rd.add_argument("a", metavar="A",
                      help="baseline run id or negative index")
    p_rd.add_argument("b", metavar="B",
                      help="candidate run id or negative index")
    p_rd.add_argument("--threshold", type=float, default=0.05, metavar="T",
                      help="relative threshold for deterministic deltas "
                           "(default: 0.05)")
    p_rd.add_argument("--perf-threshold", type=float, default=0.15,
                      metavar="T",
                      help="relative threshold for wall-clock deltas "
                           "(default: 0.15)")
    p_rd.add_argument("--strict", action="store_true",
                      help="exit 3 when the diff is dirty or a perf "
                           "regression exceeds the threshold")
    p_rd.set_defaults(fn=cmd_runs_diff)

    p_rslo = runs_sub.add_parser(
        "slo", help="evaluate a campaign's SLOs over recorded sweep cells")
    p_rslo.add_argument("--label", default=None, metavar="LABEL",
                        help="only records with this label")
    p_rslo.add_argument("--policy", default="chaos", metavar="NAME",
                        help="registered SLO policy to evaluate (default: "
                             "chaos; e.g. chaos, dag, spot, matrix — an "
                             "unknown name lists what is registered)")
    p_rslo.add_argument("--strict", action="store_true",
                        help="exit 3 when any policy side violates an SLO")
    p_rslo.set_defaults(fn=cmd_runs_slo)

    for p in (p_rl, p_rs, p_rd, p_rslo):
        p.add_argument("--runs-dir", default=".repro/runs", metavar="DIR",
                       help="ledger directory (default: .repro/runs)")

    p_tr = sub.add_parser("trace", help="run a demo with tracing enabled")
    p_tr.add_argument("demo", metavar="DEMO",
                      help=f"demo to trace ({', '.join(DEMOS)})")
    p_tr.add_argument("--out", metavar="PATH", default=None,
                      help="write a Chrome trace_event JSON file")
    p_tr.add_argument("--jsonl", metavar="PATH", default=None,
                      help="write a JSONL span/instant log")
    p_tr.add_argument("--gantt", action="store_true",
                      help="print an ASCII Gantt of the recorded spans")
    p_tr.add_argument("--gantt-category", metavar="CAT", default="runner",
                      help="span category for --gantt (default: runner)")
    p_tr.set_defaults(fn=cmd_trace)

    for p in (p_fig, p_ds, p_qs, p_fl, p_ch, p_sp, p_dag, p_mx, p_tr):
        p.add_argument("--metrics", action="store_true",
                       help="print the metrics table after the run")
        p.add_argument("--runs-dir", default=".repro/runs", metavar="DIR",
                       help="flight-recorder ledger directory "
                            "(default: .repro/runs)")
        p.add_argument("--no-ledger", action="store_true",
                       help="do not append run records to the ledger")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    install()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed its one-line usage error (unknown
        # subcommand, bad flag value); surface the status as a return
        # code so callers never see a traceback.
        return int(e.code or 0)
    # Run-producing subcommands record to the flight-recorder ledger;
    # the ``runs`` query group only reads (via its own --runs-dir).
    record = args.command != "runs" and not getattr(args, "no_ledger", False)
    previous_ledger = (set_run_ledger(RunLedger(args.runs_dir))
                       if record else None)
    try:
        # ``trace`` and ``fleet`` manage their own Obs bundle (spans +
        # metrics); the other subcommands only need the registry when
        # --metrics is requested.
        if args.fn in (cmd_trace, cmd_fleet):
            return _dispatch(args)
        obs = (configure(trace=False)
               if getattr(args, "metrics", False) else None)
        try:
            return _dispatch(args)
        finally:
            if obs is not None:
                _maybe_print_metrics(args, obs)
                disable()
    finally:
        if record:
            set_run_ledger(previous_ledger)


def _dispatch(args: argparse.Namespace) -> int:
    """Run a subcommand; unexpected errors become one log line, not a dump."""
    try:
        return args.fn(args)
    except Exception as e:  # noqa: BLE001 - the CLI boundary
        _log.error("%s: %s", type(e).__name__, e)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
