"""Tests of the layered benchmark and its comparison tool.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

The workload tests run every workload at a tiny run length, so each
measures the minimum of two ops; they check the benchmark's contract,
not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "bench.py"),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def assert_printed(lines, workload, metrics, result):
    for metric in metrics:
        printed = [line.split() for line in lines
                   if line.split()[:2] == [workload, metric["name"]]]
        assert printed, f"{metric['name']} not printed"
        assert printed[0][3] == metric["unit"]
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_and_no_op_fails(workload):
    proc = bench("--workload", workload, "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert_printed(lines, workload, SPEC["end_to_end"], result)
    assert all(e["value"] > 0 for e in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert f"{workload} error_rate 0 ratio" in lines


def test_layer_pass_writes_spans_with_self_time_within_duration():
    proc = bench("--workload", "plan", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert_printed(lines, "plan", SPEC["per_layer"], result)
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["placement.place_s"] > 0
    assert metrics["placement.volume_ratio"] > 0
    assert metrics["simulator.run_s"] == 0
    assert metrics["dynamics.decide_calls"] == 0
    spans = json.loads((HERE / "_out" / "spans-plan.json").read_text())
    assert {s["name"] for s in spans} == {
        "op", "HierarchicalPlacer.place", "rod_place",
        "Placement.volume_ratio", "feasible_fraction",
    }
    for span in spans:
        assert 0 <= span["self"] <= span["duration"]


def _steady_with(op_wrapper):
    import worker
    import workloads

    workload = workloads.steady(0)
    workload.warm_up()
    workload.op = op_wrapper(workload.op)
    times, _, checks = worker.closed_loop(workload, seconds=0.3)
    return times, checks


def test_a_corrupted_op_counts_as_failed():
    def corrupt_first(op):
        calls = []

        def corrupted():
            outcomes = op()
            if not calls:
                outcomes[0].result.tuples_out += 1
            calls.append(1)
            return outcomes

        return corrupted

    times, checks = _steady_with(corrupt_first)
    assert len(times) == len(checks) >= 2
    assert [bool(problems) for problems in checks].count(True) == 1
    assert "differs from the warm-up op" in checks[0][0]


def test_an_op_that_raises_counts_as_failed_and_timed():
    def raise_first(op):
        calls = []

        def raising():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected")
            return op()

        return raising

    times, checks = _steady_with(raise_first)
    assert len(times) == len(checks) >= 2
    assert checks[0] == ["RuntimeError: injected"]
    assert not any(checks[1:])


def test_fails_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "steady", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ------------------------------------------------------------- compare


def _ramp(center, n=10, step=0.001):
    return [center + step * (i - n // 2) for i in range(n)]


def test_verdict_better_needs_nine_wins_and_a_shift_past_the_iqr():
    parent = _ramp(1.0)
    assert compare.verdict(parent, _ramp(0.8), "lower", 0.12)[0] == "better"
    # Same shift but the change loses two pairs: not a claimable gain.
    change = _ramp(0.8)
    change[0] = change[1] = 2.0
    assert compare.verdict(parent, change, "lower", 0.12)[0] != "better"
    # Wins every pair by less than the parent's IQR.
    small = [p - 0.001 for p in parent]
    assert compare.verdict(parent, small, "lower", 0.12)[0] == "unchanged"


def test_verdict_worse_beyond_the_bound_in_the_metric_direction():
    parent = _ramp(1.0)
    assert compare.verdict(parent, _ramp(1.2), "lower", 0.12)[0] == "worse"
    assert compare.verdict(parent, _ramp(1.1), "lower", 0.12)[0] == (
        "unchanged"
    )
    assert compare.verdict(parent, _ramp(0.8), "higher", 0.12)[0] == "worse"


def test_verdict_unresolved_when_the_parent_spread_exceeds_the_bound():
    parent = _ramp(1.0, step=0.1)       # IQR/median ~ 0.5
    change = list(reversed(parent))
    assert compare.verdict(parent, change, "lower", 0.12)[0] == "unresolved"


def _write_runs(path, workload, values, failed=0):
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0),
                           "unit": m["unit"]} for m in SPEC["end_to_end"]}
    path.write_text(json.dumps({"runs": [{
        "workload": workload, "trace": 0, "attempted": 10,
        "failed": failed, "metrics": metrics,
    }]}))
    return str(path)


def test_compare_cli_flags_a_regression_and_a_new_failure(tmp_path, capsys):
    parents = [_write_runs(tmp_path / f"p{i}.json", "steady",
                           {"op_p50_s": 1.0 + 0.001 * i}) for i in range(10)]
    changes = [_write_runs(tmp_path / f"c{i}.json", "steady",
                           {"op_p50_s": 1.5 + 0.001 * i},
                           failed=1 if i == 0 else 0) for i in range(10)]
    assert compare.main(["--parent", *parents, "--change", *changes]) == 1
    out = capsys.readouterr().out
    verdicts = {tuple(line.split()[:2]): line.split()[-1]
                for line in out.splitlines()}
    assert verdicts[("steady", "op_p50_s")] == "worse"
    assert verdicts[("steady", "error_rate")] == "worse"
    assert verdicts[("steady", "setup_s")] == "unchanged"


def test_compare_refuses_fewer_than_ten_pairs(tmp_path):
    runs = [_write_runs(tmp_path / f"r{i}.json", "plan", {})
            for i in range(9)]
    assert compare.main(["--parent", *runs, "--change", *runs]) == 2


def test_spread_mode_checks_each_bound_except_setup(tmp_path, capsys):
    steady = [_write_runs(tmp_path / f"s{i}.json", "steady",
                          {"setup_s": 1.0 + 0.5 * (i % 2)})
              for i in range(10)]
    assert compare.main(["--spread", *steady]) == 0
    noisy = [_write_runs(tmp_path / f"n{i}.json", "steady",
                         {"op_p50_s": 1.0 + 0.5 * (i % 2)})
             for i in range(10)]
    assert compare.main(["--spread", *noisy]) == 1
    assert "over bound" in capsys.readouterr().out
