"""Tests for the double-run determinism harness and its guarantees.

Three layers: :func:`repro.check.determinism.compare_runs` unit tests on
synthetic run directories, the harness's plan comparison with stubbed
subprocesses, and an actual two-subprocess PYTHONHASHSEED stability
check on the simulator and the seeded placers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.check import determinism
from repro.check.determinism import (
    DEFAULT_HASH_SEEDS,
    compare_runs,
    run_digest,
)
from repro.obs import JsonlSink, Tracer

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _write_run(root, name, events, result):
    run_dir = root / name
    run_dir.mkdir(parents=True)
    sink = JsonlSink(str(run_dir / "trace.jsonl"))
    tracer = Tracer(sink)
    for type_, t, fields in events:
        tracer.emit(type_, t=t, **fields)
    sink.close()
    (run_dir / "result.json").write_text(json.dumps(result))
    return str(run_dir)


EVENTS = [
    ("sim.start", 0.0, {"duration": 2.0, "num_nodes": 1}),
    ("node.busy", 1.0, {"node": 0}),
    ("sim.end", 2.0, {"tuples_out": 7}),
]
RESULT = {"tuples_out": 7, "duration": 2.0}


class TestCompareRuns:
    def test_identical_runs_have_no_mismatches(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        b = _write_run(tmp_path, "b", EVENTS, RESULT)
        assert compare_runs(a, b) == []

    def test_result_value_difference_is_reported_by_key(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        b = _write_run(tmp_path, "b", EVENTS, {**RESULT, "tuples_out": 8})
        mismatches = compare_runs(a, b)
        assert len(mismatches) == 1
        assert "tuples_out" in mismatches[0]

    def test_missing_result_key_is_reported(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        short = {k: v for k, v in RESULT.items() if k != "duration"}
        b = _write_run(tmp_path, "b", EVENTS, short)
        assert any("duration" in m for m in compare_runs(a, b))

    def test_trace_difference_changes_the_digest(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        tampered = EVENTS[:-1] + [("sim.end", 2.0, {"tuples_out": 8})]
        b = _write_run(tmp_path, "b", tampered, RESULT)
        mismatches = compare_runs(a, b)
        assert any("trace_digest" in m for m in mismatches)

    def test_run_digest_is_stable_for_one_directory(self, tmp_path):
        a = _write_run(tmp_path, "a", EVENTS, RESULT)
        assert run_digest(a) == run_digest(a)


class TestDoubleRun:
    def test_plans_that_differ_by_hash_seed_are_reported(
        self, tmp_path, monkeypatch
    ):
        # Stand-in for the CLI subprocesses: identical simulate runs,
        # but a placer whose output depends on the hash seed.
        def fake_run(cmd, hash_seed=None):
            args = cmd[3:]  # drop "python -m repro"
            if args[0] == "place":
                Path(args[args.index("-o") + 1]).write_text(
                    f"plan {hash_seed}\n"
                )
            elif args[0] == "simulate":
                _write_run(
                    Path(args[args.index("--record") + 1]),
                    args[args.index("--run-id") + 1], EVENTS, RESULT,
                )
            return subprocess.CompletedProcess(cmd, 0, "", "")

        monkeypatch.setattr(determinism, "_run", fake_run)
        outcome = determinism.double_run(str(tmp_path / "work"))
        assert outcome["mismatches"] == ["plan.json differs"]


_PROBE = """
import sys
from repro.core.rod import rod_place
from repro.experiments.common import make_model
from repro.faults import chaos_schedule
from repro.obs import MemorySink, Tracer
from repro.obs.trace import trace_digest
from repro.placement import AnnealingPlacer, HierarchicalPlacer
from repro.simulator.engine import Simulator

model = make_model(2, 6, seed=5)
plan = rod_place(model, [1.0, 1.0, 1.0])
sink = MemorySink()
result = Simulator(
    plan,
    step_seconds=0.1,
    faults=chaos_schedule(num_nodes=3, horizon=4.0, seed=9),
    tracer=Tracer(sink),
).run(rates=[30.0, 30.0], duration=4.0)
sys.stdout.write(trace_digest(sink.events))
sys.stdout.write("|%d" % result.tuples_out)
# Seeded placers (on four nodes the hierarchical placer refines two
# node groups, each with its own derived seed), on a model where both
# plans depend on the placer seed.
placer_model = make_model(3, 8, seed=5)
for placer in (
    HierarchicalPlacer(group_size=2, refine_iterations=60, samples=128,
                       seed=3, score_batch=2),
    AnnealingPlacer(iterations=40, samples=128, seed=3, score_batch=2,
                    start="random"),
):
    assignment = placer.place(placer_model, [1.0] * 4).assignment
    sys.stdout.write("|" + ",".join(map(str, assignment)))
"""


def _probe_digest(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestHashSeedStability:
    def test_trace_digest_is_hash_seed_invariant(self):
        first, second = (
            _probe_digest(seed) for seed in DEFAULT_HASH_SEEDS
        )
        assert first == second
        digest, tuples_out, *assignments = first.split("|")
        assert len(digest) == 64
        assert int(tuples_out) > 0
        assert len(assignments) == 2
        assert all(len(a.split(",")) == 24 for a in assignments)
