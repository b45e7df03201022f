"""The benchmark's four workloads: inputs, one op, and its checks.

Every workload is a closed loop with one client: the next op starts when
the last one returns.  The benchmark seed chooses the rate-trace, chaos
and placer seeds; the graphs stay fixed (seed 5) so the work in one op,
and every per-op count, is the same for every benchmark seed.

* ``steady`` — only the engine's event loop works (no controller, no
  faults); the no-change workload for every other layer.
* ``reactive`` — the same engine driven by all three controllers, with
  migrations, failover, repartitions and fault injection.
* ``record-explain`` — the user's CLI pipeline, where tracing, trace
  parsing, the analyzers and interpreter start-up dominate.
* ``plan`` — the placers and QMC kernels, with no engine at all.

Each workload checks every op: results must equal the warm-up op's
(or, for ``record-explain``, the first op's) and each scenario must
still do what it was chosen for.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check import check_artifact
from repro.core.load_model import build_load_model, partition_load_model
from repro.core.plans import Placement, placement_from_mapping
from repro.core.rod import rod_place
from repro.core.volume import cache as volume_cache
from repro.core.volume import qmc
from repro.dynamics import (
    ElasticityController,
    FailoverController,
    LoadBalancingController,
    graph_state_tuples,
)
from repro.dynamics import failover as failover_module
from repro.experiments.common import make_model
from repro.experiments.elasticity import hot_pipeline
from repro.faults.schedule import FaultSchedule, chaos_schedule
from repro.graphs.serialize import load_graph
from repro.obs.analyze import analyze_trace
from repro.obs.critical_path import analyze_critical_path
from repro.obs.decisions import why_json_obj
from repro.obs.report_html import write_html_report
from repro.obs.runs import load_run
from repro.obs.trace import JsonlSink, Tracer, read_trace, trace_digest
from repro.placement import LLFPlacer, RODPlacer
from repro.placement.hierarchical import HierarchicalPlacer
from repro.simulator.engine import Simulator
from repro.simulator.metrics import LatencyStats
from repro.workload.rates import scale_point_to_utilization
from repro.workload.scenarios import shift_series, steady_trace_series

import speed
from layers import SpanRecorder

__all__ = ["WORKLOADS", "install_wrappers", "work_dir"]

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: Scratch space for run directories, traces and spans (git-ignored).
WORK_DIR = HERE / "_out"
GRAPH_SEED = 5
STEP = 0.1


def work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR


def _seeds(seed: int) -> Dict[str, int]:
    """Input seeds for benchmark seed ``seed`` (0 gives rates 3, chaos 7)."""
    return {"rates": 3 + seed, "chaos": 7 + seed, "placer": 5 + seed}


def plain(value: object) -> object:
    """``value`` as nested builtins, so ``==`` compares every field
    exactly (arrays element-wise, latency samples in order)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [type(value).__name__, fields]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if hasattr(value, "__dict__"):
        return [type(value).__name__, plain(vars(value))]
    return value


def install_wrappers(recorder: SpanRecorder) -> None:
    """Wrap every public entry point the per-layer metrics time."""
    recorder.patch_method(Simulator, "run", "Simulator.run", "simulator")
    for cls in (LoadBalancingController, FailoverController,
                ElasticityController):
        recorder.patch_method(cls, "decide", "decide", "dynamics")
    for hook in ("on_node_failed", "on_node_recovered"):
        recorder.patch_method(FailoverController, hook, "failover_hook",
                              "dynamics")
    recorder.patch_function(failover_module.residual_volume_ratio,
                            "residual_volume_ratio", "dynamics")
    recorder.patch_function(qmc.feasible_fraction, "feasible_fraction",
                            "core.volume")
    recorder.patch_method(HierarchicalPlacer, "place",
                          "HierarchicalPlacer.place", "placement")
    recorder.patch_function(rod_place, "rod_place", "core.rod")
    recorder.patch_method(Placement, "volume_ratio",
                          "Placement.volume_ratio", "placement")


def layer_counts(recorder: SpanRecorder, root: str,
                 ops: int) -> Dict[str, float]:
    """Per-op self times and call counts of the wrapped layers."""
    totals = recorder.totals(root)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / ops

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / ops

    return {
        "simulator.run_s": self_s("Simulator.run"),
        "dynamics.decide_calls": calls("decide"),
        "dynamics.decide_s": self_s("decide"),
        "dynamics.failover_hooks_s": self_s("failover_hook"),
        "dynamics.residual_volume_calls": calls("residual_volume_ratio"),
        "dynamics.residual_volume_s": self_s("residual_volume_ratio"),
        "core.volume.feasible_fraction_calls": calls("feasible_fraction"),
        "core.volume.feasible_fraction_s": self_s("feasible_fraction"),
        "placement.place_s": self_s("HierarchicalPlacer.place"),
        "placement.rod_s": self_s("rod_place"),
        "placement.volume_ratio_s": self_s("Placement.volume_ratio"),
    }


def cache_delta(before: Dict[str, int], ops: int) -> Dict[str, float]:
    after = volume_cache.cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "core.volume.cache_hits": hits / ops,
        "core.volume.cache_misses": misses / ops,
        "core.volume.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
    }


#: What a layer pass returns: per-layer metrics, the traced ops' times
#: in reference seconds, and one list of problems per checked op (empty
#: when it passed).
LayerPass = Tuple[Dict[str, float], List[float], List[List[str]]]


def timed(call: Callable[[], object]) -> Tuple[object, float]:
    """``call()`` and its duration in reference seconds."""
    before = speed.scale()
    start = time.perf_counter()
    value = call()
    elapsed = time.perf_counter() - start
    return value, elapsed * (before + speed.scale()) / 2


def traced(recorder: SpanRecorder, op: Callable[[], object]) -> object:
    """One op under the root span the per-op layer metrics divide."""
    with recorder.span("op", "bench"):
        return op()


def _operator_tuples(result) -> int:
    return sum(stats.tuples_in for stats in result.operator_stats.values())


# ---------------------------------------------------------------- engine


@dataclasses.dataclass
class Outcome:
    """One scenario's simulation and the controller that drove it."""

    result: object
    controller: Optional[object]

    def counts(self) -> Dict[str, int]:
        repartitions = 0
        if isinstance(self.controller, ElasticityController):
            repartitions = len(self.controller.history)
        return {
            "migrations": self.result.migration_count,
            "faults": self.result.fault_count,
            "repartitions": repartitions,
        }

    def fingerprint(self) -> object:
        return [plain(self.result), self.counts()]


@dataclasses.dataclass
class Scenario:
    name: str
    placement: Placement
    series: np.ndarray
    controller: Callable[[], Optional[object]] = lambda: None
    faults: Optional[FaultSchedule] = None
    #: Counts (``Outcome.counts`` keys) that must be non-zero every op.
    expect: Tuple[str, ...] = ()

    def run(self, tracer: Optional[Tracer] = None) -> Outcome:
        controller = self.controller()
        result = Simulator(
            self.placement, step_seconds=STEP, controller=controller,
            faults=self.faults, tracer=tracer,
        ).run(rate_series=self.series)
        return Outcome(result, controller)


class InProcessWorkload:
    """A workload whose ops run in this process; the warm-up op's
    fingerprint is the reference every later op must match."""

    layer_ops = 10
    reference: object = None

    def warm_up(self) -> None:
        out = self.op()
        problems = self.check(out)
        if problems:
            raise RuntimeError("warm-up op failed: " + "; ".join(problems))
        self.reference = self.fingerprint(out)

    def traced_ops(self, recorder: SpanRecorder) -> Tuple[
        Dict[str, float], List[float], List[List[str]], object
    ]:
        """``layer_ops`` ops under the wrappers: per-op layer metrics,
        op times, per-op problems and the last op's output."""
        before = volume_cache.cache_stats()
        times, checks = [], []
        install_wrappers(recorder)
        try:
            for _ in range(self.layer_ops):
                out, seconds = timed(lambda: traced(recorder, self.op))
                times.append(seconds)
                checks.append(self.check(out))
        finally:
            recorder.restore()
        metrics = layer_counts(recorder, "op", self.layer_ops)
        metrics.update(cache_delta(before, self.layer_ops))
        return metrics, times, checks, out


class SimulationWorkload(InProcessWorkload):
    """One op runs every scenario once, in a fixed order."""

    def __init__(self, scenarios: Sequence[Scenario]) -> None:
        self.scenarios = list(scenarios)

    def op(self) -> List[Outcome]:
        return [scenario.run() for scenario in self.scenarios]

    def fingerprint(self, outcomes: List[Outcome]) -> List[object]:
        return [outcome.fingerprint() for outcome in outcomes]

    def check(self, outcomes: List[Outcome]) -> List[str]:
        problems = []
        for index, (scenario, outcome) in enumerate(
            zip(self.scenarios, outcomes)
        ):
            if outcome.result.stranded_tuples:
                problems.append(f"{scenario.name}: stranded tuples")
            counts = outcome.counts()
            problems.extend(
                f"{scenario.name}: no {key}"
                for key in scenario.expect if counts[key] == 0
            )
            if (self.reference is not None
                    and outcome.fingerprint() != self.reference[index]):
                problems.append(
                    f"{scenario.name}: result differs from the warm-up op"
                )
        return problems

    def summary(self, outcomes: List[Outcome]) -> Dict[str, float]:
        latency = LatencyStats()
        totals = {"migrations": 0, "faults": 0, "repartitions": 0}
        for outcome in outcomes:
            latency.merge(outcome.result.latency)
            for key, value in outcome.counts().items():
                totals[key] += value
        return {
            "simulator.tuples_per_op": float(
                sum(_operator_tuples(o.result) for o in outcomes)
            ),
            "simulator.sim_p99_ms": latency.percentile(99) * 1e3,
            "dynamics.migrations_per_op": float(totals["migrations"]),
            "dynamics.repartitions_per_op": float(totals["repartitions"]),
            "faults.applied_per_op": float(totals["faults"]),
        }

    def layer_pass(self, recorder: SpanRecorder) -> LayerPass:
        """Traced ops under the wrappers, then the neutrality check:
        each scenario once more with a JSONL tracer must give exactly
        the untraced result."""
        metrics, times, checks, outcomes = self.traced_ops(recorder)
        metrics.update(self.summary(outcomes))
        events = 0
        for index, scenario in enumerate(self.scenarios):
            path = work_dir() / f"neutrality-{os.getpid()}.jsonl"
            sink = JsonlSink(str(path))
            tracer = Tracer(sink)
            try:
                outcome = scenario.run(tracer=tracer)
            finally:
                sink.close()
                path.unlink()
            events += tracer.events_emitted
            checks.append(
                [f"{scenario.name}: tracing changed the result"]
                if outcome.fingerprint() != self.reference[index] else []
            )
        metrics["simulator.events_per_op"] = float(events)
        return metrics, times, checks


def steady(seed: int) -> SimulationWorkload:
    model = make_model(4, 12, seed=GRAPH_SEED)
    capacities = [1.0] * 8
    series = steady_trace_series(
        model, capacities, 300, 0.7, seed=_seeds(seed)["rates"]
    )
    return SimulationWorkload([
        Scenario("steady", rod_place(model, capacities), series),
    ])


def reactive(seed: int) -> SimulationWorkload:
    seeds = _seeds(seed)
    model = make_model(4, 12, seed=GRAPH_SEED)
    capacities = [1.0] * 8
    steps = 150  # 15 simulated seconds

    # Balance: an LLF plan tuned to the pre-shift mix meets a shift.
    expected_mix, shifted_mix = (6.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 6.0)
    expected = scale_point_to_utilization(
        model, capacities, list(expected_mix), 0.6
    )
    state = graph_state_tuples(model.graph, expected)
    balance = Scenario(
        "balance",
        LLFPlacer(rates=expected).place(model, capacities),
        shift_series(
            model, capacities, steps, base_mix=expected_mix,
            shifted_mix=shifted_mix, base_utilization=0.6,
            shifted_utilization=0.85,
        ),
        controller=lambda: LoadBalancingController(
            period=1.0, cooldown=2.0, state_tuples=state
        ),
        expect=("migrations",),
    )

    # Failover: the ROD plan under a dense chaos schedule.
    failover = Scenario(
        "failover",
        rod_place(model, capacities),
        steady_trace_series(model, capacities, steps, 0.7,
                            seed=seeds["rates"]),
        controller=lambda: FailoverController(policy="volume"),
        faults=chaos_schedule(
            len(capacities), steps * STEP, seed=seeds["chaos"],
            operator_names=model.graph.operator_names, intensity=2.0,
        ),
        expect=("faults", "migrations"),
    )

    # Elastic: a skewed 2-way split of the hot pipeline's hot operator.
    hot = partition_load_model(
        build_load_model(hot_pipeline()), "hot", 2, fractions=(0.8, 0.2)
    )
    hot_capacities = [1.0] * 4
    point = scale_point_to_utilization(hot, hot_capacities, [1.0], 0.5)
    elastic = Scenario(
        "elastic",
        RODPlacer().place(hot, hot_capacities),
        np.tile(np.asarray(point, dtype=float), (750, 1)),
        controller=lambda: ElasticityController(
            period=1.0, hot_threshold=1.3
        ),
        expect=("repartitions",),
    )
    workload = SimulationWorkload([balance, failover, elastic])
    workload.layer_ops = 5  # a rotation costs about 3 steady ops
    return workload


# ------------------------------------------------------------------ plan


class PlanWorkload(InProcessWorkload):
    """Hierarchical placement of 384 operators on 96 nodes, then QMC."""

    layer_ops = 40

    def __init__(self, seed: int) -> None:
        self.model = make_model(6, 64, seed=GRAPH_SEED)
        self.capacities = [1.0] * 96
        self.placer_seed = _seeds(seed)["placer"]

    def op(self) -> Tuple[Placement, float]:
        plan = HierarchicalPlacer(
            group_size=8, refine_iterations=100, samples=512,
            score_batch=16, seed=self.placer_seed,
        ).place(self.model, self.capacities)
        return plan, plan.volume_ratio(samples=4096)

    def fingerprint(self, out: Tuple[Placement, float]) -> object:
        plan, ratio = out
        return plan.assignment, ratio

    def check(self, out: Tuple[Placement, float]) -> List[str]:
        plan, ratio = out
        problems = []
        report = check_artifact(plan)
        if not report.ok:
            problems.append("plan fails check_artifact: " + report.format())
        if not 0.0 < ratio <= 1.0:
            problems.append(f"volume ratio {ratio} outside (0, 1]")
        if (self.reference is not None
                and self.fingerprint(out) != self.reference):
            problems.append("plan differs from the warm-up op")
        return problems

    def layer_pass(self, recorder: SpanRecorder) -> LayerPass:
        metrics, times, checks, out = self.traced_ops(recorder)
        metrics["placement.volume_ratio"] = out[1]
        return metrics, times, checks


# -------------------------------------------------------- record-explain


class RecordExplainWorkload:
    """``generate → place → simulate --record → explain, why, report``
    as sequential CLI subprocesses in a fresh directory per op."""

    layer_ops = 1
    rates = (150.0, 150.0, 150.0, 150.0)
    duration = 50.0

    def __init__(self, seed: int) -> None:
        self.chaos_seed = _seeds(seed)["chaos"]
        self.steps = [
            ("generate", ["generate", "--kind", "random", "--inputs", "4",
                          "--ops-per-tree", "12", "--seed",
                          str(GRAPH_SEED), "-o", "graph.json"]),
            ("place", ["place", "--graph", "graph.json", "--nodes", "8",
                       "--algorithm", "rod", "-o", "plan.json"]),
            ("simulate", ["simulate", "--graph", "graph.json", "--plan",
                          "plan.json", "--rates",
                          ",".join(f"{r:g}" for r in self.rates),
                          "--duration", f"{self.duration:g}",
                          "--chaos-seed", str(self.chaos_seed),
                          "--failover", "volume", "--record", "runs",
                          "--run-id", "op"]),
            ("explain", ["explain", "op", "--root", "runs", "--json"]),
            ("why", ["why", "op", "--root", "runs"]),
            ("report", ["report", "op", "--root", "runs"]),
        ]
        self.reference: Optional[Dict[str, object]] = None
        #: Per-step reference seconds of every op, in order.
        self.history: List[Dict[str, float]] = []

    def warm_up(self) -> None:
        """Nothing to warm: every op starts cold interpreters."""

    def op(self, keep: bool = False) -> Dict[str, object]:
        """Run the pipeline; ``keep`` leaves the directory for the
        layer pass (the caller removes it).

        An op lasts seconds, longer than the machine's speed holds
        still, so each step gets its own speed calibration, by the
        child-process yardstick."""
        workdir = tempfile.mkdtemp(prefix="op-", dir=work_dir())
        out: Dict[str, object] = {"dir": workdir, "seconds": {},
                                  "failed_steps": []}
        try:
            before = speed.process_scale()
            for name, args in self.steps:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "repro", *args], cwd=workdir,
                    env=dict(os.environ, PYTHONPATH=str(SRC)),
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, check=False,
                )
                elapsed = time.perf_counter() - start
                after = speed.process_scale()
                out["seconds"][name] = elapsed * (before + after) / 2
                before = after
                if proc.returncode != 0:
                    out["failed_steps"].append(
                        f"{name} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}"
                    )
                    break
                if name == "explain":
                    out["explain"] = json.loads(proc.stdout)
            run_dir = Path(workdir) / "runs" / "op"
            if not out["failed_steps"]:
                out["result"] = json.loads(
                    (run_dir / "result.json").read_text()
                )
                out["report_bytes"] = (run_dir / "report.html").stat().st_size
        finally:
            self.history.append(out["seconds"])
            if not keep:
                shutil.rmtree(workdir)
        return out

    def check(self, out: Dict[str, object]) -> List[str]:
        problems = list(out["failed_steps"])
        if problems:
            return problems
        ratio = out["explain"]["attributed_ratio"]
        if ratio < 0.999:
            problems.append(f"explain attributed_ratio {ratio} < 0.999")
        if not out["report_bytes"]:
            problems.append("report.html is empty")
        if self.reference is None:
            self.reference = out["result"]
        elif out["result"] != self.reference:
            problems.append("result.json differs from the first op's")
        return problems

    def summary(self, out: Dict[str, object]) -> Dict[str, float]:
        return {
            "simulator.sim_p99_ms": out["result"]["latency"]["p99"] * 1e3,
            "dynamics.migrations_per_op": float(out["result"]["migrations"]),
            "faults.applied_per_op": float(len(out["result"]["faults"])),
        }

    def layer_pass(self, recorder: SpanRecorder) -> LayerPass:
        """One pipeline op, then in-process timings on its recorded run:
        the trace readers, and the simulation with and without a JSONL
        tracer (whose results must be equal)."""
        out = self.op(keep=True)
        times = [sum(out["seconds"].values())]
        workdir = Path(out["dir"])
        try:
            checks = [self.check(out)]
            if checks[0]:
                return {}, times, checks
            metrics = self.summary(out)
            metrics.update(self._readers(recorder, workdir))
            before = volume_cache.cache_stats()
            install_wrappers(recorder)
            try:
                metrics.update(self._resimulate(recorder, workdir, checks))
            finally:
                recorder.restore()
            metrics.update(cache_delta(before, 1))
        finally:
            shutil.rmtree(workdir)
        return metrics, times, checks

    def _readers(self, recorder: SpanRecorder,
                 workdir: Path) -> Dict[str, float]:
        run = load_run(str(workdir / "runs" / "op"))
        trace_path = Path(run.path) / "trace.jsonl"
        with recorder.span("readers", "bench"):
            with recorder.span("read_trace", "obs"):
                events = read_trace(str(trace_path))
            for name, call in (
                ("analyze_trace", analyze_trace),
                ("critical_path", analyze_critical_path),
                ("why", why_json_obj),
                ("trace_digest", trace_digest),
            ):
                with recorder.span(name, "obs"):
                    call(events)
            with recorder.span("report_html", "obs"):
                write_html_report(run, str(workdir / "report-inprocess.html"))
        metrics = {
            f"obs.{name}_s": entry["self_s"]
            for name, entry in recorder.totals("readers").items()
            if name != "readers"
        }
        metrics["obs.trace_events"] = float(len(events))
        metrics["obs.trace_mb"] = trace_path.stat().st_size / 1e6
        return metrics

    def _resimulate(self, recorder: SpanRecorder, workdir: Path,
                    checks: List[List[str]]) -> Dict[str, float]:
        model = build_load_model(load_graph(str(workdir / "graph.json")))
        doc = json.loads((workdir / "plan.json").read_text())
        placement = placement_from_mapping(
            model, doc["capacities"], doc["assignment"]
        )
        faults = chaos_schedule(
            placement.num_nodes, horizon=self.duration,
            seed=self.chaos_seed,
            operator_names=model.graph.operator_names,
        )

        def simulate(tracer: Optional[Tracer]):
            return Simulator(
                placement, step_seconds=STEP, faults=faults, tracer=tracer,
                controller=FailoverController(policy="volume"),
            ).run(rates=list(self.rates), duration=self.duration)

        with recorder.span("resim.untraced", "bench"):
            untraced = simulate(None)
        sink = JsonlSink(str(workdir / "resim.jsonl"))
        tracer = Tracer(sink)
        try:
            with recorder.span("resim.traced", "bench"):
                traced = simulate(tracer)
        finally:
            sink.close()
        checks.append(
            ["tracing changed the simulate result"]
            if plain(traced) != plain(untraced) else []
        )
        totals = recorder.totals()
        metrics = layer_counts(recorder, "resim.traced", 1)
        metrics["obs.tracing_overhead_ratio"] = (
            totals["resim.traced"]["total_s"]
            / totals["resim.untraced"]["total_s"]
        )
        metrics["simulator.tuples_per_op"] = float(_operator_tuples(traced))
        metrics["simulator.events_per_op"] = float(tracer.events_emitted)
        return metrics


WORKLOADS: Dict[str, Callable[[int], object]] = {
    "steady": steady,
    "reactive": reactive,
    "record-explain": RecordExplainWorkload,
    "plan": PlanWorkload,
}
