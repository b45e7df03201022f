"""Command-line interface.

The subcommands cover the deploy-time workflow end to end::

    repro-rod generate --kind random --inputs 3 --ops-per-tree 10 -o g.json
    repro-rod place    --graph g.json --nodes 4 --algorithm rod -o plan.json
    repro-rod check    --paths examples/configs --fail-on error
    repro-rod evaluate --graph g.json --plan plan.json
    repro-rod simulate --graph g.json --plan plan.json --rates 50,80 \\
                       --duration 20 --record
    repro-rod trace    run.jsonl --type batch.serviced --node 0 --since 5
    repro-rod trace    run.jsonl --span 42 --operator filter_0
    repro-rod runs     list --json
    repro-rod compare  RUN_A RUN_B --threshold latency.p99=0.1
    repro-rod explain  RUN_B -k 5
    repro-rod why      RUN_B --json
    repro-rod slo      RUN_B --config slo.json
    repro-rod report   RUN_B -o report.html
    repro-rod experiment fig14 --record

``generate`` writes a query-graph JSON document (see
:mod:`repro.graphs.serialize`); ``place`` runs any placement algorithm
and emits an ``{operator: node}`` plan; ``check`` runs the static
verifiers of :mod:`repro.check` over JSON artifacts and the custom lint
pass over sources; ``evaluate`` scores a plan
(feasible-set ratio, plane distance, and an ASCII picture for 2-D
systems); ``simulate`` replays a constant rate point through the
discrete-event simulator; ``trace`` renders a JSONL event trace (see
:mod:`repro.obs.trace`) as per-node utilization timelines; ``experiment``
regenerates any paper artifact by id.

``simulate`` and ``evaluate`` accept ``--trace-out FILE`` to stream
structured events and ``--emit-metrics {json,prometheus}`` to dump the
run's metrics registry after the normal output.  The global ``-v`` /
``-q`` flags (before the subcommand) control ``repro.*`` log verbosity.

``simulate``, ``evaluate`` and ``experiment`` accept ``--record
[ROOT]`` to persist the invocation in the run registry
(:mod:`repro.obs.runs`): ``runs`` lists and shows recorded runs,
``compare`` diffs two of them with regression thresholds (non-zero exit
on breach, so CI can gate on it), and ``report RUN`` renders a
self-contained HTML report with inline-SVG utilization charts.

``explain RUN`` attributes a recorded run's end-to-end latency to
(operator, phase) pairs via causal span tracing
(:mod:`repro.obs.critical_path`); ``slo RUN --config FILE`` judges a
run against declarative latency/throughput objectives with burn-rate
windows (:mod:`repro.obs.slo`) — ``simulate --slo FILE`` does the same
inline at the end of a run.  ``trace --span ID`` prints one batch's
causal lineage instead of the timeline view.

``why RUN`` audits the control plane of a recorded run: every
``decision.evaluated`` record (trigger, observed loads, scored
candidates, the structured no-op reason when nothing moved), each
migration's rejected alternatives and feasible-volume before/after, and
any drift detections (:mod:`repro.obs.decisions`,
:mod:`repro.obs.drift`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence,
    Union,
)

# Only the light observability core is imported here.  Each command
# imports the layers it runs, so `--help`, `generate` and the trace
# viewers never load the placers, the engine or the experiments.
from .obs import (
    MetricsRegistry,
    Observability,
    Run,
    TraceFormatError,
    configure,
    find_run,
    list_runs,
    read_trace,
)
from . import paper, placers
from .obs.runs import Recording, snapshot_from_rows

if TYPE_CHECKING:
    from .core.plans import Placement
    from .obs.index import RunIndex

__all__ = ["main"]

def _load_placement(
    graph_path: str, plan_path: str, nodes: Optional[int]
) -> Placement:
    from .check import check_plan_document
    from .core.load_model import build_load_model
    from .core.plans import placement_from_mapping
    from .graphs.serialize import load_graph

    model = build_load_model(load_graph(graph_path))
    with open(plan_path) as handle:
        doc = json.load(handle)
    if "assignment" in doc:
        # Static-check the document before construction so a stale or
        # corrupted plan fails with structured diagnostics, not a
        # NumPy shape error mid-simulation.
        report = check_plan_document(doc, model=model, location=plan_path)
        if not report.ok:
            raise SystemExit(report.format())
        mapping = doc["assignment"]
    else:
        mapping = doc
    capacities = doc.get(
        "capacities",
        [1.0] * (nodes or (max(mapping.values()) + 1)),
    )
    return placement_from_mapping(model, capacities, mapping)


def _print_plan_summary(placement: Placement) -> None:
    print(placement.describe())
    print(f"feasible-set ratio to ideal: {placement.volume_ratio():.4f}")
    print(f"inter-node arcs: {placement.inter_node_arcs()}")


def _emit_metrics(args: argparse.Namespace, registry: MetricsRegistry) -> None:
    fmt = getattr(args, "emit_metrics", None)
    if not fmt:
        return
    if fmt == "json":
        print(json.dumps(registry.to_json(), indent=2, sort_keys=True))
    else:
        print(registry.render_prometheus(), end="")


def cmd_generate(args: argparse.Namespace) -> int:
    from .graphs.generator import (
        RandomGraphConfig,
        join_graph,
        monitoring_graph,
        random_tree_graph,
    )
    from .graphs.serialize import dump_graph

    if args.kind == "random":
        graph = random_tree_graph(
            RandomGraphConfig(
                num_inputs=args.inputs, operators_per_tree=args.ops_per_tree
            ),
            seed=args.seed,
        )
    elif args.kind == "monitoring":
        graph = monitoring_graph(num_links=args.inputs, seed=args.seed)
    elif args.kind == "joins":
        graph = join_graph(num_join_pairs=max(1, args.inputs // 2),
                           seed=args.seed)
    elif args.kind == "elastic":
        # The elasticity demo workload: one hot operator already split
        # two ways with skewed fractions (uniform hash ranges over a
        # skewed key distribution), ready for ``simulate --elastic``.
        from .experiments.elasticity import hot_pipeline
        from .graphs.partition import partition_operator

        graph = partition_operator(
            hot_pipeline(), "hot", 2,
            fractions=(0.8, 0.2),
        )
    else:
        raise SystemExit(f"unknown graph kind: {args.kind!r}")
    dump_graph(graph, args.output)
    print(
        f"wrote {graph.num_operators} operators / {graph.num_inputs} "
        f"inputs to {args.output}"
    )
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    from .core.load_model import build_load_model
    from .graphs.serialize import dump_graph, load_graph
    from .placement import ElasticPlacer

    model = build_load_model(load_graph(args.graph))
    placer = placers.build_placer(
        "hierarchical" if args.hierarchical else args.algorithm,
        model, args.seed,
        score_batch=args.score_batch,
        group_size=args.group_size,
    )
    if args.elastic:
        placer = ElasticPlacer(
            base=placer,
            target_ratio=args.elastic_target_ratio,
            ways=args.elastic_ways,
            max_splits=args.elastic_max_splits,
            seed=args.seed if args.seed is not None else 0,
        )
    placement = placer.place(model, [args.capacity] * args.nodes)
    _print_plan_summary(placement)
    if args.elastic:
        for entry in placer.history:
            print(
                f"elastic {entry['action']} {entry['operator']}: "
                f"{entry['ratio_before']:.4f} -> "
                f"{entry['ratio_after']:.4f} "
                f"({'kept' if entry['kept'] else 'rolled back'})"
            )
        if args.elastic_graph_out:
            # The placed model's graph gained routes/instances/merges:
            # persist it (partition provenance included) so evaluate /
            # simulate can reload a matching model.
            dump_graph(placement.model.graph, args.elastic_graph_out)
            print(f"partitioned graph written to "
                  f"{args.elastic_graph_out}")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(placement.to_json())
            handle.write("\n")
        print(f"plan written to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .core.analysis import resilience_summary
    from .core.viz import render_feasible_set
    from .core.volume import cache as volume_cache

    placement = _load_placement(args.graph, args.plan, args.nodes)
    with Recording(
        args.record, "evaluate",
        {"graph": args.graph, "plan": args.plan},
        trace_out=args.trace_out,
        run_id=args.run_id, argv=args._argv,
        placement=placement.to_document(),
    ) as run:
        obs = Observability(tracer=run.tracer)
        print(placement.describe())
        if args.axis_budget is not None:
            with obs.phase("evaluate.volume_ratio"):
                ratio, se = placement.feasible_set().volume_ratio_axis_sampled(
                    axis_budget=args.axis_budget
                )
            print(
                f"feasible-set ratio to ideal: {ratio:.4f} "
                f"(axis-sampled, se={se:.4f})"
            )
        else:
            with obs.phase("evaluate.volume_ratio"):
                ratio = placement.volume_ratio()
            print(f"feasible-set ratio to ideal: {ratio:.4f}")
        print(f"inter-node arcs: {placement.inter_node_arcs()}")
        print()
        with obs.phase("evaluate.resilience"):
            print(resilience_summary(placement))
        feasible_set = placement.feasible_set()
        if feasible_set.dimension == 2:
            print()
            print(render_feasible_set(feasible_set, title="feasible set"))
        volume_cache.publish_metrics(obs.registry)
        _emit_metrics(args, obs.registry)
        if run.writer is not None:
            run.writer.finish(
                snapshot={
                    "kind": "evaluate",
                    "volume_ratio": ratio,
                    "inter_node_arcs": placement.inter_node_arcs(),
                    "plane_distance": placement.plane_distance(),
                },
                registry=obs.registry,
            )
            print(f"run recorded to {run.writer.path}")
    return 0


def _faults_from_args(
    args: argparse.Namespace, placement: Placement, duration: float
):
    """The fault schedule ``--faults`` / ``--chaos-seed`` ask for."""
    from .faults import chaos_schedule, load_fault_schedule

    if args.faults and args.chaos_seed is not None:
        raise SystemExit("--faults and --chaos-seed are mutually "
                         "exclusive: pick a file or a generated schedule")
    if args.faults:
        return load_fault_schedule(args.faults)
    if args.chaos_seed is not None:
        return chaos_schedule(
            placement.num_nodes,
            horizon=duration,
            seed=args.chaos_seed,
            operator_names=placement.model.graph.operator_names,
            intensity=args.chaos_intensity,
        )
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    from .dynamics import ElasticityController, FailoverController
    from .simulator.engine import Simulator

    placement = _load_placement(args.graph, args.plan, args.nodes)
    rates = args.rates
    inputs = placement.model.graph.num_inputs
    if len(rates) != inputs:
        raise SystemExit(f"--rates: got {len(rates)} rates for a graph "
                         f"with {inputs} inputs")
    faults = _faults_from_args(args, placement, args.duration)
    controller = None
    if args.failover and getattr(args, "elastic", False):
        raise SystemExit("--failover and --elastic are mutually "
                         "exclusive: pick one controller")
    if args.failover:
        controller = FailoverController(policy=args.failover)
    elif getattr(args, "elastic", False):
        if not placement.model.graph.partition_groups:
            raise SystemExit(
                "--elastic needs a graph with partition groups; place "
                "with --elastic --elastic-graph-out (or partition the "
                "graph first) and simulate that graph"
            )
        controller = ElasticityController()
    slo_objectives = None
    if getattr(args, "slo", None):
        from .obs.slo import load_slo_config

        try:
            slo_objectives = load_slo_config(args.slo)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--slo {args.slo}: {exc}") from None
    config = {
        "graph": args.graph,
        "plan": args.plan,
        "rates": rates,
        "duration": args.duration,
        "step_seconds": args.step,
    }
    # Conditional keys: fault-free invocations keep their pre-faults
    # config digest, so existing recorded baselines still match.
    if faults is not None:
        config["faults"] = [f.to_json_obj() for f in faults.events]
        if args.chaos_seed is not None:
            config["chaos_seed"] = args.chaos_seed
            config["chaos_intensity"] = args.chaos_intensity
    if args.failover:
        config["failover"] = args.failover
    if getattr(args, "elastic", False):
        config["elastic"] = True
    with Recording(
        args.record, "simulate", config,
        trace_out=args.trace_out,
        # The recorded snapshot and `--slo` analyze the events the run
        # emitted, kept as they are written to the trace file, if any.
        keep_events=args.record is not None or slo_objectives is not None,
        run_id=args.run_id, argv=args._argv,
        placement=placement.to_document(),
    ) as run:
        obs = Observability(tracer=run.tracer)
        simulator = Simulator(
            placement,
            step_seconds=args.step,
            tracer=obs.tracer,
            metrics=obs.registry,
            faults=faults,
            controller=controller,
        )
        result = simulator.run(rates=rates, duration=args.duration)
        print(result.summary())
        if getattr(args, "elastic", False):
            print(
                "repartitions applied: "
                f"{len(getattr(controller, 'history', ()))}"
            )
        feasible = result.is_feasible(backlog_tolerance=args.step)
        print(f"feasible at this rate point: {feasible}")
        if args.trace_out:
            print(f"trace written to {args.trace_out}")
        index = run.index()
        slo_section: Optional[Dict[str, object]] = None
        slo_breached = False
        if index is not None and slo_objectives is not None:
            from .obs.slo import (
                evaluate_slos,
                record_slo_metrics,
                render_slo_report,
            )

            slo_report = evaluate_slos(index, slo_objectives)
            record_slo_metrics(obs.registry, slo_report)
            slo_section = slo_report.to_json_obj()
            print(render_slo_report(slo_report))
            slo_breached = not slo_report.ok
        _emit_metrics(args, obs.registry)
        if run.writer is not None:
            run.finish_simulation(result, obs.registry, slo=slo_section)
            print(f"run recorded to {run.writer.path}")
    if slo_breached:
        return 1
    return 0 if feasible or not args.check else 1


class _Refusal(Exception):
    """A command that cannot run on what it was given: :func:`main`
    prints the message and returns 1."""


def _find_run(ref: str, root: str) -> Run:
    """The run ``ref`` names (a directory, or an id under ``root``)."""
    try:
        return find_run(ref, root)
    except FileNotFoundError as exc:
        raise _Refusal(str(exc)) from None


@contextlib.contextmanager
def _trace_defects(path: str) -> Iterator[None]:
    """A malformed line or a structurally impossible trace (a span
    closed twice, a node the header does not declare) exits 1 with
    ``<path>: ...`` instead of a traceback, whichever view finds it.
    Only :class:`~repro.obs.trace.TraceFormatError` is caught: any other
    error in the command body keeps its traceback."""
    try:
        yield
    except TraceFormatError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _untraced(run: Run, needed_by: str) -> _Refusal:
    return _Refusal(
        f"run {run.run_id} has no trace; {needed_by} needs a traced "
        "recording (simulate --record)"
    )


@contextlib.contextmanager
def _indexed(
    source: Union[str, Run], needed_by: Optional[str] = None
) -> Iterator[RunIndex]:
    """The indexed trace of a file or a recorded run, as the trace
    readers read it (:func:`_trace_defects`); an untraced run reads as
    an empty trace, which the ``needed_by`` command refuses."""
    from .obs.index import RunIndex

    is_run = isinstance(source, Run)
    with _trace_defects(source.trace_path if is_run else source):
        index = source.index() if is_run else RunIndex(read_trace(source))
        if is_run and needed_by and not index.events:
            raise _untraced(source, needed_by)
        yield index


def _document(run: Run, viewer: str) -> Dict[str, Any]:
    """What ``viewer`` renders for ``run`` (:meth:`Run.document`): the
    stored document, or one computed from a trace read as
    :func:`_indexed` reads it; an untraced run is refused."""
    with _trace_defects(run.trace_path):
        document = run.document(viewer)
    if document is None:
        raise _untraced(run, viewer)
    return document


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs.index import RunIndex, filter_events
    from .obs.timeline import render_trace_report

    with _indexed(args.path) as index:
        if not index.events:
            print(f"{args.path}: empty trace")
            return 1
        if args.span is not None:
            return _trace_span_lineage(args, index)
        filters = dict(
            types=[
                name
                for spec in (args.types or [])
                for name in spec.split(",")
                if name
            ] or None,
            nodes=args.nodes,
            since=args.since,
            operators=args.operators,
        )
        if any(value is not None for value in filters.values()):
            # Geometry comes from the unfiltered trace, so a filtered
            # view still renders with the run's true node count /
            # capacities / horizon.
            index = RunIndex(
                filter_events(index.events, **filters),  # type: ignore[arg-type]
                meta=index.meta,
            )
        if not index.events:
            print(f"{args.path}: no events match the filters")
            return 1
        print(render_trace_report(index, width=args.width))
    return 0


def _trace_span_lineage(args: argparse.Namespace, index: RunIndex) -> int:
    """``repro-rod trace --span ID``: one batch's causal history."""
    from .obs.spans import span_lineage

    spans = index.spans
    if not spans:
        print(f"{args.path}: trace carries no span events")
        return 1
    try:
        closure = span_lineage(spans, args.span)
    except KeyError:
        print(f"{args.path}: span {args.span} does not appear in the "
              f"trace ({len(spans)} spans recorded)")
        return 1
    operators = None if not args.operators else frozenset(args.operators)
    print(f"lineage of span {args.span}: {len(closure)} span(s)")
    for span_id in sorted(closure):
        record = spans[span_id]
        if operators is not None and record.operator not in operators:
            continue
        parent = "-" if record.parent is None else str(record.parent)
        line = (
            f"  span {record.span} parent={parent} "
            f"op={record.operator} port={record.port} "
            f"count={record.count} arrival={record.open_t:g}s"
        )
        if record.closed:
            line += (
                f" node={record.node} wait={record.wait_seconds:g}s "
                f"service={record.service_seconds:g}s out={record.out}"
            )
            if record.is_sink:
                line += (
                    f" sink={record.sink} "
                    f"latency={0.0 if record.latency is None else record.latency:g}s"
                )
        else:
            line += " (never serviced — stranded)"
        print(line)
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    if args.runs_command == "list":
        runs = list_runs(args.root)
        if getattr(args, "json", False):
            print(json.dumps(
                [_run_list_obj(run) for run in runs],
                indent=2, sort_keys=True,
            ))
            return 0
        if not runs:
            print(f"no runs under {args.root}")
            return 0
        rows = [("run id", "kind", "created", "config", "headline")]
        for run in runs:
            manifest = run.manifest
            created = _format_wall(manifest.created_wall)
            rows.append((
                manifest.run_id, manifest.kind, created,
                manifest.config_digest or "-", _headline(run.result),
            ))
        from .obs.text import text_table

        print("\n".join(text_table(rows)))
        return 0
    # show
    run = _find_run(args.run, args.root)
    manifest = run.manifest
    print(f"run {manifest.run_id} ({manifest.kind})")
    print(f"  path: {run.path}")
    print(f"  created: {_format_wall(manifest.created_wall)}")
    print(f"  version: {manifest.version or '?'}  "
          f"config digest: {manifest.config_digest or '?'}")
    print(f"  seed: {manifest.seed}")
    if manifest.argv:
        print(f"  argv: {' '.join(manifest.argv)}")
    for key, value in sorted(manifest.labels.items()):
        print(f"  label {key}: {value}")
    if manifest.wall_seconds is not None:
        print(f"  wall seconds: {manifest.wall_seconds:.3f}")
    if manifest.sim_seconds is not None:
        print(f"  simulated seconds: {manifest.sim_seconds:g}")
    if run.has_trace:
        with _indexed(run) as index:
            print(f"  trace: {len(index.events)} events")
    else:
        print("  trace: none")
    if run.result:
        from .obs.diff import flatten_metrics

        flat = flatten_metrics(run.result)
        print(f"  result.json: {len(flat)} metrics — {_headline(run.result)}")
    else:
        print("  result.json: none")
    return 0


def _run_list_obj(run) -> dict:
    """One run's machine-readable row for ``runs list --json``."""
    manifest = run.manifest
    faults = run.result.get("faults") if run.result else None
    return {
        "run_id": manifest.run_id,
        "kind": manifest.kind,
        "created_wall": manifest.created_wall,
        "sim_seconds": manifest.sim_seconds,
        "seed": manifest.seed,
        "faults": len(faults) if isinstance(faults, list) else 0,
        "config_digest": manifest.config_digest,
        "path": run.path,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    from .obs.diff import compare_runs, parse_thresholds

    run_a = _find_run(args.run_a, args.root)
    run_b = _find_run(args.run_b, args.root)
    try:
        thresholds = parse_thresholds(args.threshold or [])
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    diff = compare_runs(
        run_a, run_b,
        thresholds=thresholds,
        default_threshold=args.default_threshold,
    )
    print(f"comparing {run_a.run_id} (baseline) -> {run_b.run_id}")
    print(diff.format(show_unchanged=args.all))
    return 1 if diff.breaches else 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .obs.critical_path import render_critical_path_report

    run = _find_run(args.run, args.root)
    document = _document(run, "explain")
    if document["spans_total"] == 0:
        print(f"run {run.run_id}: trace carries no span events "
              "(recorded before span tracing? re-record it)")
        return 1
    if args.json:
        print(json.dumps(
            document["critical_path"], indent=2, sort_keys=True
        ))
        return 0
    print(f"run {run.run_id}")
    print(render_critical_path_report(document, top_k=args.top))
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    from .obs.decisions import render_why_report

    run = _find_run(args.run, args.root)
    document = _document(run, "why")
    if not document["summary"]["evaluated"]:
        print(f"run {run.run_id}: trace carries no decision events "
              "(no controller attached, or recorded before decision "
              "telemetry? re-record it)")
        return 1
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"run {run.run_id}")
    print(render_why_report(document))
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    from .obs.slo import evaluate_slos, load_slo_config, render_slo_report

    run = _find_run(args.run, args.root)
    try:
        objectives = load_slo_config(args.config)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--config {args.config}: {exc}") from None
    with _indexed(run, "slo") as index:
        report = evaluate_slos(index, objectives)
    print(f"run {run.run_id}")
    print(render_slo_report(report))
    return 0 if report.ok else 1


def _format_wall(epoch: float) -> str:
    import time as _time

    return _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(epoch))


def _headline(result: dict) -> str:
    """One-cell summary of a run snapshot for the list view."""
    if not result:
        return "-"
    kind = result.get("kind")
    if kind == "simulate":
        latency = result.get("latency", {})
        p95 = latency.get("p95", 0.0) if isinstance(latency, dict) else 0.0
        return (
            f"util={result.get('max_utilization', 0):.3g} "
            f"out={result.get('tuples_out', '?')} "
            f"p95={float(p95) * 1e3:.2f}ms"
        )
    if kind == "evaluate":
        return f"volume_ratio={result.get('volume_ratio', 0):.4g}"
    if kind == "experiment":
        rows = result.get("rows")
        count = len(rows) if isinstance(rows, list) else 0
        return f"{count} row(s)"
    return "-"


def cmd_report(args: argparse.Namespace) -> int:
    if args.run:
        from .obs.report_html import write_html_report

        run = _find_run(args.run, args.root)
        output = args.output or os.path.join(run.path, "report.html")
        with _trace_defects(run.trace_path):
            write_html_report(run, output)
        print(f"run report written to {output}")
        return 0
    if not args.output:
        raise SystemExit(
            "report: pass a RUN to render a run report, or -o/--output "
            "for the experiment markdown report"
        )
    from .experiments import format_rows

    sections = [f"# Reproduction report ({args.scale} scale)\n"]
    for artifact_id, artifact in paper.ARTIFACTS.items():
        if args.only and artifact_id not in args.only:
            continue
        rows = paper.run(artifact_id, quick=args.scale == "quick")
        sections.append(f"\n## {artifact_id} — {artifact.title}\n\n"
                        f"```\n{format_rows(rows)}\n```\n")
    with open(args.output, "w") as handle:
        handle.write("".join(sections))
    print(f"report written to {args.output}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import Severity, check_paths

    try:
        report = check_paths(args.paths, lint=not args.no_lint)
    except Exception as exc:
        print(f"check: internal error: {exc}", file=sys.stderr)
        return 2
    threshold = Severity.parse(args.fail_on)
    for diagnostic in report:
        print(diagnostic.format())
    errors, warnings, infos = report.counts()
    print(f"check: {errors} error(s), {warnings} warning(s), {infos} info(s)")
    parse_failures = [d for d in report if d.code == "REPRO500"]
    if parse_failures:
        for diagnostic in parse_failures:
            print(f"check: cannot analyze {diagnostic.location}",
                  file=sys.stderr)
        return 2
    return 1 if report.at_least(threshold) else 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import format_rows

    # Opened before the artifact runs: the writer's wall clock starts here.
    with Recording(
        args.record, "experiment", {"experiment": args.id},
        traced=False, run_id=args.run_id, argv=args._argv,
        labels={"experiment": args.id},
    ) as run:
        rows = paper.run(args.id)
        print(format_rows(rows))
        if run.writer is not None:
            run.writer.finish(snapshot=snapshot_from_rows(rows))
            print(f"run recorded to {run.writer.path}")
    return 0


def _failover_policy(value: str) -> str:
    """``--failover``'s choices, looked up only when the flag is given:
    importing the controllers at parser build time would cost every
    subcommand their start-up."""
    from .dynamics.failover import FAILOVER_POLICIES

    if value not in FAILOVER_POLICIES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from "
            f"{', '.join(map(repr, FAILOVER_POLICIES))})"
        )
    return value


def _bounded(
    kind: Callable[[str], float], low: float, strict: bool = False,
    high: Optional[float] = None,
) -> Callable[[str], float]:
    """An argparse ``type``: ``kind(text)``, turned into a usage error
    (exit 2, naming the option) unless it is finite, at least ``low``
    (above it when ``strict``) and at most ``high``, if given.  The
    library keeps its own checks for callers that do not come through
    the parser."""

    def parse(text: str) -> float:
        value = kind(text)
        if not -math.inf < value < math.inf:  # NaN too; any int passes
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be <= {high}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def _rates(text: str) -> List[float]:
    """An argparse ``type`` for ``--rates``: comma-separated tuples per
    second, each a finite number >= 0."""
    rate = _bounded(float, 0)
    try:
        return [rate(entry) for entry in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated numbers, got {text}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rod",
        description="Resilient Operator Distribution (VLDB 2006) toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise repro.* log verbosity (-v INFO, -vv DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="lower repro.* log verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace-out", metavar="FILE",
            help="stream structured JSONL events to FILE "
                 "(render with `repro-rod trace FILE`)",
        )
        command.add_argument(
            "--emit-metrics", choices=("json", "prometheus"),
            help="dump the metrics registry after the normal output",
        )

    def add_record_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--record", nargs="?", const="runs", default=None,
            metavar="ROOT",
            help="record this invocation as a run directory under ROOT "
                 "(default ./runs); browse with `repro-rod runs`, diff "
                 "with `repro-rod compare`, render with "
                 "`repro-rod report`",
        )
        command.add_argument(
            "--run-id", default=None,
            help="explicit run id (default: timestamp + config digest)",
        )

    gen = sub.add_parser("generate", help="write a query-graph JSON file")
    gen.add_argument("--kind", default="random",
                     choices=("random", "monitoring", "joins",
                              "elastic"))
    gen.add_argument("--inputs", type=_bounded(int, 1), default=3)
    gen.add_argument("--ops-per-tree", type=_bounded(int, 1), default=10)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    place = sub.add_parser("place", help="place a graph on a cluster")
    place.add_argument("--graph", required=True)
    place.add_argument("--nodes", type=_bounded(int, 1), required=True)
    place.add_argument("--capacity", type=_bounded(float, 0, strict=True),
                       default=1.0)
    place.add_argument("--algorithm", default="rod",
                       choices=tuple(placers.PLACERS))
    place.add_argument(
        "--hierarchical", action="store_true",
        help="shortcut for --algorithm hierarchical: one ROD pass, then "
             "annealing within node groups, for large clusters "
             "(hundreds to 1000 nodes)",
    )
    place.add_argument(
        "--score-batch", type=_bounded(int, 1), default=1, metavar="K",
        help="score K candidate moves per search round in the annealing "
             "kernels (K=1 is bit-identical to the classic loop)",
    )
    place.add_argument(
        "--group-size", type=_bounded(int, 1), default=16, metavar="N",
        help="nodes per refinement group for --hierarchical",
    )
    place.add_argument(
        "--elastic", action="store_true",
        help="wrap the chosen algorithm in the elastic placer: split "
             "the bottleneck operator into key-partitioned instances "
             "until the feasible-volume ratio clears the target",
    )
    place.add_argument(
        "--elastic-target-ratio", type=_bounded(float, 0, strict=True, high=1),
        default=0.5, metavar="R",
        help="stop splitting once the ratio reaches R (default 0.5)",
    )
    place.add_argument(
        "--elastic-ways", type=_bounded(int, 2), default=2, metavar="W",
        help="instances per split; escalation doubles an existing "
             "group (default 2)",
    )
    place.add_argument(
        "--elastic-max-splits", type=_bounded(int, 0), default=4,
        metavar="N",
        help="bound on split attempts per placement (default 4)",
    )
    place.add_argument(
        "--elastic-graph-out", metavar="FILE", default=None,
        help="write the partitioned graph JSON (with partition "
             "provenance) so evaluate/simulate can reload the plan",
    )
    place.add_argument("--seed", type=int, default=None)
    place.add_argument("-o", "--output")
    place.set_defaults(func=cmd_place)

    ev = sub.add_parser("evaluate", help="score an existing plan")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--plan", required=True)
    ev.add_argument("--nodes", type=int, default=None)
    ev.add_argument(
        "--axis-budget", type=_bounded(int, 1), default=None, metavar="K",
        help="estimate the volume ratio with importance-weighted "
             "axis-sampled QMC (Halton on the K hardest-binding axes, "
             "seeded uniforms elsewhere) and report its standard error; "
             "for high-dimensional models — NOT bit-identical to the "
             "default estimator",
    )
    add_obs_flags(ev)
    add_record_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    sim = sub.add_parser("simulate", help="replay a rate point")
    sim.add_argument("--graph", required=True)
    sim.add_argument("--plan", required=True)
    sim.add_argument("--nodes", type=int, default=None)
    sim.add_argument("--rates", type=_rates, required=True,
                     help="comma-separated tuples/second per input")
    sim.add_argument("--duration", type=_bounded(float, 0, strict=True),
                     default=20.0)
    sim.add_argument("--step", type=_bounded(float, 0, strict=True),
                     default=0.1)
    sim.add_argument("--check", action="store_true",
                     help="exit non-zero if the point is infeasible")
    sim.add_argument(
        "--faults", metavar="FILE", default=None,
        help="inject the fault schedule in FILE (JSON; see "
             "docs/robustness.md for the schema)",
    )
    sim.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="generate a seeded random fault schedule instead of "
             "loading one (same seed = same faults, bit for bit)",
    )
    sim.add_argument(
        "--chaos-intensity", type=_bounded(float, 0, strict=True),
        default=1.0, metavar="X",
        help="scale the number of generated chaos faults (default 1.0)",
    )
    sim.add_argument(
        "--failover", type=_failover_policy, default=None,
        metavar="POLICY",
        help="react to node crashes by reassigning their operators "
             "('volume' keeps the residual feasible set largest, "
             "'least_loaded' is the classic baseline)",
    )
    sim.add_argument(
        "--elastic", action="store_true",
        help="rebalance key ranges inside partition groups at runtime "
             "(skew-aware repartitioning; the graph must carry "
             "partition provenance)",
    )
    sim.add_argument(
        "--slo", metavar="FILE", default=None,
        help="evaluate the SLO config in FILE over the run's trace "
             "(see docs/observability.md for the schema); breaches "
             "exit non-zero",
    )
    add_obs_flags(sim)
    add_record_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    tr = sub.add_parser(
        "trace", help="render a JSONL event trace as text timelines"
    )
    tr.add_argument("path", help="trace file written by --trace-out")
    tr.add_argument("--width", type=_bounded(int, 1), default=60,
                    help="timeline width in characters")
    tr.add_argument(
        "--type", dest="types", action="append", metavar="TYPE",
        help="keep only these event types (repeatable; accepts "
             "comma-separated lists, e.g. --type batch.serviced,node.stall)",
    )
    tr.add_argument(
        "--node", dest="nodes", action="append", type=int, metavar="N",
        help="keep only events on node N (repeatable)",
    )
    tr.add_argument(
        "--since", type=float, default=None, metavar="T",
        help="keep only events at simulated time >= T seconds "
             "(events with no sim clock are kept)",
    )
    tr.add_argument(
        "--operator", dest="operators", action="append", metavar="NAME",
        help="keep only events for operator NAME (repeatable)",
    )
    tr.add_argument(
        "--span", type=int, default=None, metavar="ID",
        help="print the causal lineage of span ID (ancestors and "
             "descendants) instead of the timeline report",
    )
    tr.set_defaults(func=cmd_trace)

    runs_parser = sub.add_parser(
        "runs", help="browse the run registry (see `--record`)"
    )
    runs_sub = runs_parser.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="tabulate recorded runs")
    runs_list.add_argument("--root", default="runs",
                           help="run registry root (default ./runs)")
    runs_list.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON array (run id, sim time, "
             "seed, fault count) instead of the table",
    )
    runs_list.set_defaults(func=cmd_runs)
    runs_show = runs_sub.add_parser("show", help="describe one run")
    runs_show.add_argument("run", help="run id or run directory path")
    runs_show.add_argument("--root", default="runs",
                           help="run registry root (default ./runs)")
    runs_show.set_defaults(func=cmd_runs)

    cmp_parser = sub.add_parser(
        "compare",
        help="diff two recorded runs; non-zero exit on threshold breach",
    )
    cmp_parser.add_argument("run_a", help="baseline run id or directory")
    cmp_parser.add_argument("run_b", help="candidate run id or directory")
    cmp_parser.add_argument("--root", default="runs",
                            help="run registry root (default ./runs)")
    cmp_parser.add_argument(
        "--threshold", action="append", metavar="NAME=REL",
        help="per-metric relative regression threshold (repeatable; "
             "NAME matches a flattened key or prefix, e.g. "
             "latency.p99=0.1)",
    )
    cmp_parser.add_argument(
        "--default-threshold", type=_bounded(float, 0), default=0.02,
        metavar="REL",
        help="relative threshold for metrics without an explicit one "
             "(default 0.02 = ±2%%)",
    )
    cmp_parser.add_argument(
        "--all", action="store_true",
        help="show unchanged metrics too, not just deltas",
    )
    cmp_parser.set_defaults(func=cmd_compare)

    explain = sub.add_parser(
        "explain",
        help="attribute a recorded run's end-to-end latency to "
             "operators and phases (critical-path analysis)",
    )
    explain.add_argument("run", help="run id or run directory path")
    explain.add_argument("--root", default="runs",
                         help="run registry root (default ./runs)")
    explain.add_argument(
        "-k", "--top", type=_bounded(int, 1), default=5, metavar="K",
        help="show the K most latency-critical operators (default 5)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="print the critical_path snapshot section as JSON",
    )
    explain.set_defaults(func=cmd_explain)

    why = sub.add_parser(
        "why",
        help="explain a recorded run's migrations: the decision behind "
             "each move, rejected alternatives, and no-op periods",
    )
    why.add_argument("run", help="run id or run directory path")
    why.add_argument("--root", default="runs",
                     help="run registry root (default ./runs)")
    why.add_argument(
        "--json", action="store_true",
        help="print the decision audit as JSON",
    )
    why.set_defaults(func=cmd_why)

    slo_parser = sub.add_parser(
        "slo",
        help="judge a recorded run against declarative latency/"
             "throughput objectives; non-zero exit on breach",
    )
    slo_parser.add_argument("run", help="run id or run directory path")
    slo_parser.add_argument(
        "--config", required=True, metavar="FILE",
        help="SLO config JSON (see docs/observability.md)",
    )
    slo_parser.add_argument("--root", default="runs",
                            help="run registry root (default ./runs)")
    slo_parser.set_defaults(func=cmd_slo)

    chk = sub.add_parser(
        "check",
        help="statically verify graphs/plans/configs and lint sources",
    )
    chk.add_argument(
        "--paths", nargs="+", default=["."],
        help="files or directories to check (JSON artifacts and .py files)",
    )
    chk.add_argument(
        "--fail-on", default="error", choices=("info", "warning", "error"),
        help="lowest diagnostic severity that fails the exit code",
    )
    chk.add_argument(
        "--no-lint", action="store_true",
        help="skip the repro-lint pass over .py files",
    )
    chk.set_defaults(func=cmd_check)

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("id", choices=sorted(paper.ARTIFACTS))
    add_record_flags(exp)
    exp.set_defaults(func=cmd_experiment)

    rep = sub.add_parser(
        "report",
        help="render a recorded run as HTML, or (with -o only) run "
             "every experiment into one markdown report",
    )
    rep.add_argument(
        "run", nargs="?", default=None,
        help="run id or directory to render as a self-contained HTML "
             "report (omit for the experiment markdown report)",
    )
    rep.add_argument(
        "-o", "--output",
        help="output file (run mode default: <run>/report.html)",
    )
    rep.add_argument("--root", default="runs",
                     help="run registry root (default ./runs)")
    rep.add_argument("--scale", default="quick", choices=("quick", "full"))
    rep.add_argument("--only", nargs="*", default=(), metavar="ID",
                     choices=sorted(paper.ARTIFACTS),
                     help="restrict to these artifact ids (those of "
                          "`repro-rod experiment`)")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Recorded run manifests carry the invocation for provenance.
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    configure(verbosity=args.verbose - args.quiet)
    try:
        return args.func(args)
    except _Refusal as exc:
        print(exc)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
