"""Exact oracles for the engine: golden digests and tracing neutrality.

Five small runs are pinned twice over: the wall-clock-free
``trace_digest`` of the traced event stream, and a SHA-256 of the whole
untraced ``SimulationResult`` reduced to plain data (arrays
element-wise, latency samples in order, every migration and fault).  A
refactor of the engine or the controllers must leave both
byte-identical; a change that means to alter behaviour must regenerate
them on purpose.  Six more runs (``PATHS``) take the engine paths those
five never do: per-operator queues, the join and variable-selectivity
runtimes, transfer costs on split arcs, seeded Poisson arrivals and
overlapping fault windows.  The same two digests pin them
(``PATH_GOLDEN``).

A third digest per run pins what the trace readers make of it: the
critical path with its rebuilt latency samples, ``why``, the decision
and drift snapshots, two SLO verdicts, the span forest in id order and
the ``analyze`` overview (minus the ``span.*`` rows of its event
counts).  A change to the trace *format* may re-pin the trace digest,
but must leave every reader's answer as it was.

A fourth pins the JSONL wire format: each traced run written through
``JsonlSink`` with the wall clock frozen at 0.0 must produce the same
file bytes, and ``read_trace`` on that file must give back the trace
digest and the reader digest above.

A fifth pins the text and HTML views: the ``explain``, ``why``, ``slo``
and ``trace`` renderings, the per-node busy totals and utilization
timeline, and the HTML report of a run directory holding the trace.

The neutrality matrix runs every controller, with and without chaos
faults, traced and through a disabled tracer, and requires the whole
result to equal the untraced run's exactly.
"""

import dataclasses
import functools
import hashlib
import json
import time
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.load_model import build_load_model, partition_load_model
from repro.core.plans import placement_from_mapping
from repro.dynamics import (
    ElasticityController,
    FailoverController,
    LoadBalancingController,
)
from repro.experiments.elasticity import hot_pipeline
from repro.faults import FaultEvent, FaultSchedule, chaos_schedule
from repro.graphs.generator import monitoring_graph, paper_example3_graph
from repro.obs import (
    JsonlSink,
    MemorySink,
    RunManifest,
    Tracer,
    load_run,
    read_trace,
    trace_digest,
)
from repro.obs import report_html
from repro.obs import trace as trace_module
from repro.obs.analyze import analyze_trace
from repro.obs.critical_path import (
    analyze_critical_path,
    explain_document,
    render_critical_path_report,
)
from repro.obs.decisions import (
    decision_snapshot,
    render_why_report,
    why_json_obj,
)
from repro.obs.drift import drift_snapshot
from repro.obs.runs import snapshot_from_result
from repro.obs.slo import (
    LatencyObjective,
    SloWatcher,
    ThroughputObjective,
    evaluate_slos,
    render_slo_report,
)
from repro.obs.index import RunIndex, filter_events
from repro.obs.timeline import (
    busy_totals,
    render_trace_report,
    utilization_timeline,
)
from repro.placement import RODPlacer
from repro.simulator.engine import Simulator
from repro.simulator.scheduling import SchedulerQueue
from repro.workload.rates import scale_point_to_utilization


def plain(value):
    """``value`` as nested builtins, so ``==`` and JSON see every field."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__, {
            f.name: plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if hasattr(value, "__dict__"):
        return [type(value).__name__, plain(vars(value))]
    return value


def fingerprint(result) -> str:
    text = json.dumps(plain(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: One latency and one throughput objective for the SLO reader golden.
READER_OBJECTIVES = (
    LatencyObjective(
        name="p95", threshold_seconds=0.05, target=0.95,
        window_seconds=1.0,
    ),
    ThroughputObjective(
        name="floor", min_tuples_per_second=40.0, window_seconds=1.0,
    ),
)


def reader_outputs(events):
    """Every trace reader's answer for one run, as plain data."""
    critical = analyze_critical_path(events)
    spans = RunIndex(events).spans
    overview = analyze_trace(events).to_json_obj()
    overview["events_by_type"] = {
        kind: count
        for kind, count in overview["events_by_type"].items()
        if not kind.startswith("span.")
    }
    return {
        "critical_path": critical.to_json_obj(),
        "latency": [critical.latency._values, critical.latency._weights],
        "why": why_json_obj(events),
        "decisions": decision_snapshot(events),
        "drift": drift_snapshot(events),
        "slo": plain(evaluate_slos(events, READER_OBJECTIVES)),
        "spans": [plain(spans[span]) for span in sorted(spans)],
        "analyze": overview,
    }


def _skewed_placement():
    """Input 0's chain on node 0, the rest on node 1: work to balance."""
    graph = monitoring_graph(2, seed=7)
    mapping = {
        name: 0 if name.endswith("0") else 1
        for name in graph.operator_names
    }
    return placement_from_mapping(
        build_load_model(graph), [1.0, 1.0], mapping
    )


def _spiked_series(steps=120, surge=6.0):
    series = np.full((steps, 2), 200.0)
    series[30:90, 0] *= surge  # input 0 surges from t=3s to t=9s
    return series


def _balance(**kwargs):
    return dict(
        placement=_skewed_placement(),
        controller=lambda: LoadBalancingController(
            period=1.0, imbalance_threshold=0.1, max_moves_per_period=2,
            cooldown=2.0, **kwargs
        ),
        run={"rate_series": _spiked_series()},
    )


def _failover():
    graph = monitoring_graph(3, seed=1)
    model = build_load_model(graph)
    placement = RODPlacer().place(model, [1.0, 1.0, 1.0])
    return dict(
        placement=placement,
        controller=lambda: FailoverController(
            policy="volume", samples=128, failback=True
        ),
        faults=chaos_schedule(
            3, horizon=10.0, seed=7, operator_names=graph.operator_names,
        ),
        run={"rates": [60.0, 60.0, 60.0], "duration": 10.0},
    )


def _elastic():
    """The 2-way (0.8, 0.2) split of the hot pipeline's hot operator."""
    model = partition_load_model(
        build_load_model(hot_pipeline()), "hot", 2, fractions=(0.8, 0.2)
    )
    capacities = [1.0] * 4
    point = scale_point_to_utilization(model, capacities, [1.0], 0.5)
    return dict(
        placement=RODPlacer().place(model, capacities),
        controller=lambda: ElasticityController(
            period=1.0, hot_threshold=1.3
        ),
        run={"rates": list(point), "duration": 12.0},
    )


def _slo_watcher():
    return SloWatcher(LatencyObjective(
        name="p99", threshold_seconds=0.05, target=0.99,
        window_seconds=1.0,
    ))


SCENARIOS = {
    "none": lambda: dict(
        placement=_skewed_placement(),
        run={"rate_series": _spiked_series()},
    ),
    "balance": lambda: _balance(),
    "balance-slo": lambda: _balance(slo_watcher=_slo_watcher()),
    "failover-chaos": _failover,
    "elastic": _elastic,
}


def _queued_moves(scheduling):
    """The balance scenario under a 10x surge, so its moves take queued
    batches out of the per-operator queues."""
    return dict(
        _balance(), engine={"scheduling": scheduling},
        run={"rate_series": _spiked_series(surge=10.0)},
    )


def _nonlinear():
    """Example 3's graph: a variable-selectivity operator and a window
    join, each fed across the two nodes."""
    graph = paper_example3_graph()
    mapping = {"o1": 0, "o2": 0, "o3": 1, "o4": 1, "o5": 0, "o6": 1}
    return dict(
        placement=placement_from_mapping(
            build_load_model(graph), [150.0, 150.0], mapping
        ),
        run={"rates": [10.0, 10.0], "duration": 6.0},
    )


#: Overlapping degrade windows on node 0 (one nested in the other), an
#: open-ended one on node 1 and overlapping slowdowns of one operator.
_WINDOWS = (
    ("node.degrade", {"node": 0, "factor": 0.5}, 2.0, 5.0),
    ("node.degrade", {"node": 0, "factor": 0.8}, 4.0, 2.0),
    ("node.degrade", {"node": 1, "factor": 0.7}, 3.0, None),
    ("operator.slowdown", {"operator": "normalize0", "factor": 2.0}, 1.0,
     6.0),
    ("operator.slowdown", {"operator": "normalize0", "factor": 1.5}, 3.0,
     6.0),
    ("operator.slowdown", {"operator": "top_talkers", "factor": 3.0}, 5.0,
     1.0),
)


def _windows():
    return dict(
        placement=_skewed_placement(),
        faults=FaultSchedule(
            FaultEvent(time=time, kind=kind, duration=duration, **target)
            for kind, target, time, duration in _WINDOWS
        ),
        run={"rates": [500.0, 500.0], "duration": 10.0},
    )


#: Engine paths the five scenarios above never take: per-operator
#: queues (with migrations taking their batches), the join and
#: variable-selectivity runtimes, a transfer cost on split arcs, seeded
#: Poisson arrivals and overlapping fault windows.  Each is pinned by
#: its trace digest and result fingerprint only (``PATH_GOLDEN``).
PATHS = {
    "round-robin": lambda: _queued_moves("round_robin"),
    "longest-queue": lambda: _queued_moves("longest_queue"),
    "nonlinear": _nonlinear,
    "transfer": lambda: dict(
        SCENARIOS["none"](), engine={"transfer_costs": 2e-5}
    ),
    "poisson": lambda: dict(
        SCENARIOS["none"](), engine={"arrival_kind": "poisson", "seed": 11}
    ),
    "windows": _windows,
}


def simulate(name, tracer=None):
    """One run of scenario ``name``: (result, controller)."""
    spec = {**SCENARIOS, **PATHS}[name]()
    controller = spec.get("controller", lambda: None)()
    result = Simulator(
        spec["placement"], step_seconds=0.1, controller=controller,
        faults=spec.get("faults"), tracer=tracer, **spec.get("engine", {}),
    ).run(**spec["run"])
    return result, controller


@functools.lru_cache(maxsize=None)
def run_scenario(name):
    """(trace digest, untraced fingerprint, traced result, events,
    traced-run controller) for scenario ``name``."""
    untraced, _ = simulate(name)
    sink = MemorySink()
    traced, controller = simulate(name, Tracer(sink))
    return (trace_digest(sink.events), fingerprint(untraced), traced,
            sink.events, controller)


#: scenario -> (trace_digest, result fingerprint), generated once from
#: the engine and pinned.
GOLDEN = {
    "none": (
        "a730321c8d72e459debbf80709c2c0246881e9668e11c351d6342d8e823c770f",
        "b2b56e95b32ec6529df7709787da97e4296a458c87b9a5a4dc4aebe90550f03b",
    ),
    "balance": (
        "6ec0249355577cd2d6b5b83066f1004644d5c9e98769c1fca93052655e2e7f6b",
        "3da1f6b4b7f2c88bad4c4da1f050d1f382d7bcf6b682c7493e16ff1c9a49ad78",
    ),
    "balance-slo": (
        "c3568bb218140cafe69958ad57912c9ea0467b84da92ebaebb0d7ae7777fd984",
        "3da1f6b4b7f2c88bad4c4da1f050d1f382d7bcf6b682c7493e16ff1c9a49ad78",
    ),
    "failover-chaos": (
        "2c82edfea08d899c13699314e1ed6901174c875da0c464043f5905ac5eca4cb4",
        "49c2fdd0cb4889adb880c3476c23ab8729d300ba017fed7402bb2da36cae395e",
    ),
    "elastic": (
        "c4f3f34f2899a65499c044bc146114f81ad6889d5f194fe5d6622227aac93fbd",
        "8d920e56ca05523b3de4ffe568e382e814a9b4f0caa1b53a9ed2850dc8ffbe3d",
    ),
}


#: path -> (trace_digest, result fingerprint) for each run of ``PATHS``,
#: generated once from the engine and pinned like ``GOLDEN``.
PATH_GOLDEN = {
    "round-robin": (
        "aeacb5635841985d8577406ecdebb4cda2d918a300ca9dfa173c994e0217b392",
        "d58f6d86de1beef42e4b69cef54022fc45fa45497532543589a6394e1d293888",
    ),
    "longest-queue": (
        "084808f936ca5a95c15b015b636c8f936c0a64a125fdaddd09c7f24e266d20b7",
        "a4cd94fa4f16eaf3effb69a51e2f76c5397262ad66cd63530dfb44c4a513c5af",
    ),
    "nonlinear": (
        "3f5a3f1015df948d71121d0352a851e29932fc8baef640e3942a9259085b3cae",
        "1446183d57fd30aa0582a7a9ed341d61d51af72e6784fb123c2bc24aebcb71f7",
    ),
    "transfer": (
        "1005a5845857413e909260004041715f0b3e761d1e22f479c07dad72524eecfa",
        "f9b4b4e5d7c1ecaaf8c8cda6e9ace98fdac164f6c62b912daac37532ceaab52e",
    ),
    "poisson": (
        "c59702d94a3bae771e15e942d4a9736b42599ac571986cb4532eef49a56d1186",
        "51013c8334f1b63c2e26fb91226517773c2619602cc35de9c06100d855b773d4",
    ),
    "windows": (
        "946f7d3d6d417fd7280e445d1784c32f092c824415d63f74890f5fe9999f8cf7",
        "e9e38dd79de025a913fbd9b3daffde25854f6efb2b88bab34dd385efdc467d57",
    ),
}


def reader_digest(events):
    text = json.dumps(
        plain(reader_outputs(events)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: scenario -> SHA-256 of :func:`reader_outputs` on its traced run.
READER_GOLDEN = {
    "none": (
        "6e7f8a6aa63027eade94a8e25693e4c1fa7be7044f634c8fdbbc31fedbd878ce"
    ),
    "balance": (
        "a550dbdf0764eb98567eac4f2a92388e8ad125814377083dc8a4cd197a753ed4"
    ),
    "balance-slo": (
        "3e7196f03597075dfb84ae22c75e51ad8d967cd701f2bf03f5d773bb2217646c"
    ),
    "failover-chaos": (
        "dc6b3c51de527b818f0ce428e217400e9b07d8dbdb67c712dc302570948b72f0"
    ),
    "elastic": (
        "9fa72d98fcf0a7ef7122ac602f7b66c0a9a3fff267781826f603e965161b73b0"
    ),
}


def _triggers(events):
    return {
        e["trigger"] for e in events
        if e["type"] == "decision.evaluated"
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(PATHS))
def test_golden_digest(name):
    digest, result_print, _, _, _ = run_scenario(name)
    assert (digest, result_print) == {**GOLDEN, **PATH_GOLDEN}[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reader_golden(name):
    assert reader_digest(run_scenario(name)[3]) == READER_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_loop_numbers_stay_builtin(name):
    """Every traced time, work sum and latency sample is a builtin
    ``float``: a numpy scalar that leaks back into the event loop fails
    here instead of only slowing it down."""
    leaks = sorted({
        (event["type"], key, type(value).__name__)
        for event in run_scenario(name)[3]
        for key, value in (
            ("t", event["t"]),
            *((key, event.get(key))
              for key in ("start", "work", "latency")),
        )
        if value is not None and type(value) is not float
    })
    assert leaks == []


#: scenario -> SHA-256 of the JSONL file its traced run writes with the
#: wall clock frozen at 0.0.
WIRE_GOLDEN = {
    "none": (
        "2cb4ba00d262c62ea38ccecdd5e6c55835982bbf7410d9516f02b762a18a8b5d"
    ),
    "balance": (
        "eb1888fd7e82137c1f82cdc919bd1a81d1516927986e186145c8395a2f3c97bd"
    ),
    "balance-slo": (
        "faccf7a5780e94ca3b22ae85c173a369e957d0cfd16634f88b5445dc6b986e5b"
    ),
    "failover-chaos": (
        "436b1e29b35f758e5f81cf0d74a8ba840b3523f74cfcbedb6325d44d88fc5434"
    ),
    "elastic": (
        "b38c6645879c8713cd4e5c069bcfaec7cbe339575f4717b5b1105a2e74761bf9"
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_jsonl_wire_golden_and_round_trip(name, tmp_path, monkeypatch):
    """The bytes ``JsonlSink`` writes, and what ``read_trace`` makes of
    them: the same events the in-memory sink saw, for every reader."""
    monkeypatch.setattr(
        trace_module, "time", types.SimpleNamespace(time=lambda: 0.0)
    )
    path = tmp_path / "trace.jsonl"
    with JsonlSink(str(path)) as sink:
        simulate(name, Tracer(sink))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        WIRE_GOLDEN[name]
    )
    events = read_trace(str(path))
    assert trace_digest(events) == GOLDEN[name][0]
    assert reader_digest(events) == READER_GOLDEN[name]


def render_outputs(events, result, run_dir):
    """Every text and HTML view of one run, as plain data.

    The HTML report renders a run directory holding the trace and the
    result snapshot, with the manifest's clock fields fixed and its
    creation time formatted in UTC.
    """
    run_dir.mkdir()
    manifest = RunManifest(
        run_id="golden", kind="simulate", created_wall=0.0,
        version="golden", wall_seconds=1.0, sim_seconds=result.duration,
    )
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest.to_json_obj())
    )
    (run_dir / "result.json").write_text(
        json.dumps(snapshot_from_result(result))
    )
    with JsonlSink(str(run_dir / "trace.jsonl")) as sink:
        for event in events:
            sink.write(event)
    subset = filter_events(events, types=["batch.serviced"], nodes=[0])
    return {
        "explain": render_critical_path_report(explain_document(events)),
        "why": render_why_report(why_json_obj(events)),
        "slo": render_slo_report(evaluate_slos(events, READER_OBJECTIVES)),
        "busy": busy_totals(events).tolist(),
        "utilization": utilization_timeline(events).tolist(),
        "trace": render_trace_report(events),
        "trace_subset": render_trace_report(
            RunIndex(subset, meta=RunIndex(events).meta)
        ),
        "html": report_html.render_html_report(load_run(str(run_dir))),
    }


#: scenario -> SHA-256 of :func:`render_outputs` on its traced run.
RENDER_GOLDEN = {
    "none": (
        "01b7e24c9201ad3b2d25facd5285e0f29e4d809b7c3ab5728b732fc5eebc586f"
    ),
    "balance": (
        "9e702bbd41fc4daa60e7385dd5eaf326e997a7285eb1430ce9ed68584c0df0ed"
    ),
    "balance-slo": (
        "fc196fec410643af38035f5411d157c0687a26fd5fc4de579b5a74eb82f419e7"
    ),
    "failover-chaos": (
        "93c20f6f036175c121667db934500a174f8a93e2fa487d468e8d10da517b21cb"
    ),
    "elastic": (
        "58efd8894256e83a342d89b858dc93920fea744671e53db9812b333d642a87ef"
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_render_golden(name, tmp_path, monkeypatch):
    monkeypatch.setattr(report_html, "time", types.SimpleNamespace(
        strftime=time.strftime, localtime=time.gmtime,
    ))
    _, _, result, events, _ = run_scenario(name)
    text = json.dumps(
        render_outputs(events, result, tmp_path / "run"),
        sort_keys=True, separators=(",", ":"),
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        RENDER_GOLDEN[name]
    )


class TestScenariosExerciseTheirPaths:
    """The digests only guard what the runs actually do."""

    def test_balance_migrates(self):
        _, _, result, events, _ = run_scenario("balance")
        assert len(result.migrations) > 1
        assert _triggers(events) == {"periodic"}

    def test_slo_watcher_labels_decisions(self):
        _, _, _, events, _ = run_scenario("balance-slo")
        assert "slo-burn" in _triggers(events)

    def test_chaos_failover_crashes_fails_back_and_recovers(self):
        _, _, result, events, _ = run_scenario("failover-chaos")
        assert {"fault", "recover", "periodic"} <= _triggers(events)
        reasons = {
            e["reason"] for e in events
            if e["type"] == "migration.applied"
        }
        assert reasons == {"failover", "balance"}
        assert result.stranded_tuples == 0

    def test_elastic_repartitions(self):
        _, _, _, events, controller = run_scenario("elastic")
        assert controller.history
        assert any(e["type"] == "elastic.repartition" for e in events)


class TestPathsAreTaken:
    """Each ``PATHS`` run takes the engine path it is there to pin."""

    @pytest.mark.parametrize("name", ["round-robin", "longest-queue"])
    def test_per_operator_queues_move_queued_batches(
        self, name, monkeypatch
    ):
        taken = []
        take = SchedulerQueue.take_operator

        def counting(queue, operator):
            batches = take(queue, operator)
            taken.append((queue.policy, len(batches)))
            return batches

        monkeypatch.setattr(SchedulerQueue, "take_operator", counting)
        simulate(name)
        policy = name.replace("-", "_")
        assert {p for p, _ in taken} == {policy}
        assert max(count for _, count in taken) > 0

    def test_nonlinear_runtimes_emit_output(self):
        stats = run_scenario("nonlinear")[2].operator_stats
        assert stats["o1"].tuples_out > 0  # variable selectivity
        assert stats["o5"].tuples_out > 0  # window join
        assert 0 < stats["o1"].tuples_out < stats["o1"].tuples_in

    def test_transfer_charges_split_arcs(self):
        charged = run_scenario("transfer")[2]
        free = run_scenario("none")[2]
        assert charged.tuples_out == free.tuples_out
        assert (charged.node_busy > free.node_busy).all()

    def test_poisson_batches_vary(self):
        deterministic = {
            e["count"] for e in run_scenario("none")[3]
            if e["type"] == "batch.enqueued" and "parent" not in e
        }
        drawn = {
            e["count"] for e in run_scenario("poisson")[3]
            if e["type"] == "batch.enqueued" and "parent" not in e
        }
        assert len(drawn) > 2 * len(deterministic)

    def test_windows_overlap(self):
        events = run_scenario("windows")[3]
        opened = [e for e in events if e["type"] == "fault.injected"]
        closed = [e for e in events if e["type"] == "fault.reverted"]
        assert len(opened) == len(_WINDOWS)
        assert len(closed) == sum(w[3] is not None for w in _WINDOWS)
        # The second window on each target opens before the first closes.
        for target in ({"node": 0}, {"operator": "normalize0"}):
            key, value = next(iter(target.items()))
            times = [e["t"] for e in opened if e.get(key) == value]
            ends = [e["t"] for e in closed if e.get(key) == value]
            assert len(times) == 2 and times[1] < min(ends)


NEUTRALITY_CONTROLLERS = {
    "none": lambda: None,
    "balance": lambda: LoadBalancingController(
        period=1.0, imbalance_threshold=0.1, max_moves_per_period=2,
        cooldown=2.0,
    ),
    "failover": lambda: FailoverController(
        policy="volume", samples=128, failback=True
    ),
    "elastic": lambda: ElasticityController(period=1.0, hot_threshold=1.3),
}


@pytest.mark.parametrize("tracing", ["off", "on"])
@pytest.mark.parametrize("faults", ["none", "chaos"])
@pytest.mark.parametrize("controller", sorted(NEUTRALITY_CONTROLLERS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16 - 1))
@example(seed=7)
def test_tracing_never_changes_the_result(controller, faults, tracing, seed):
    """Observing a run never changes it, and never leaves decision
    telemetry attached to the controller.  A chaos cell draws the seed
    of its fault schedule; seed 7 always runs."""
    if faults == "none" and seed != 7:
        return  # without faults the seed changes nothing: run once
    spec = _elastic() if controller == "elastic" else SCENARIOS["none"]()
    placement = spec["placement"]
    schedule = None if faults == "none" else chaos_schedule(
        placement.num_nodes, horizon=12.0, seed=seed,
        operator_names=placement.model.graph.operator_names,
    )

    def run(tracer):
        driver = NEUTRALITY_CONTROLLERS[controller]()
        result = Simulator(
            placement, step_seconds=0.1, controller=driver,
            faults=schedule, tracer=tracer,
        ).run(**spec["run"])
        assert getattr(driver, "telemetry", None) is None
        return plain(result)

    observed = Tracer(MemorySink(), validate=True) if tracing == "on" else (
        Tracer()
    )
    assert run(observed) == run(None)
