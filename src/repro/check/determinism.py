"""Double-run determinism harness — the repo's hash-order gate.

It places and simulates the same seeded workload twice, in
subprocesses under two different ``PYTHONHASHSEED`` values, and diffs
the artifacts that must not care: the bytes of ``plan.json``, the
wall-clock-free :func:`~repro.obs.trace.trace_digest` of
``trace.jsonl`` and every key of ``result.json``.  Any divergence
means set or dict iteration order, or hidden global state, leaked into
the placer or the simulation.

CI wires this up as the ``determinism`` job::

    python -m repro.check.determinism --workdir /tmp/det --duration 8

Exit codes mirror the lint contract: **0** identical, **1** the runs
diverged, **2** a subprocess or setup failure (the failing command and
its stderr are printed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.runs import RESULT_NAME, TRACE_NAME
from ..obs.trace import read_trace, trace_digest

__all__ = [
    "DEFAULT_HASH_SEEDS",
    "compare_runs",
    "double_run",
    "main",
    "run_digest",
]

#: Two deliberately different hash seeds; any fixed distinct pair works
#: because a hash-order dependence only needs *some* pair to disagree.
DEFAULT_HASH_SEEDS = (1, 4242)


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def _run(
    cmd: Sequence[str], hash_seed: Optional[int] = None
) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    # The subprocess must import the same repro package as this process.
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        list(cmd), capture_output=True, text=True, env=env, check=False,
    )


class HarnessError(RuntimeError):
    """A subprocess or setup step failed (exit code 2 territory)."""


def _check(proc: "subprocess.CompletedProcess[str]") -> None:
    if proc.returncode != 0:
        raise HarnessError(
            f"command failed ({proc.returncode}): "
            f"{' '.join(proc.args)}\n{proc.stderr.strip()}"
        )


def run_digest(run_dir: str) -> Tuple[str, Dict[str, object]]:
    """``(trace_digest, result.json)`` of one recorded run directory."""
    digest = trace_digest(
        read_trace(os.path.join(run_dir, TRACE_NAME))
    )
    with open(
        os.path.join(run_dir, RESULT_NAME), encoding="utf-8"
    ) as handle:
        result = json.load(handle)
    return digest, result


def compare_runs(run_a: str, run_b: str) -> List[str]:
    """Human-readable mismatches between two recorded simulate runs.

    Empty list == the runs are byte-equivalent where determinism is
    promised: identical trace digests and identical ``result.json``
    content (key order aside).
    """
    digest_a, result_a = run_digest(run_a)
    digest_b, result_b = run_digest(run_b)
    mismatches: List[str] = []
    if digest_a != digest_b:
        mismatches.append(
            f"trace_digest differs: {digest_a[:16]}… vs {digest_b[:16]}…"
        )
    keys = sorted(set(result_a) | set(result_b))
    for key in keys:
        if key not in result_a:
            mismatches.append(f"result.json[{key!r}]: only in second run")
        elif key not in result_b:
            mismatches.append(f"result.json[{key!r}]: only in first run")
        elif result_a[key] != result_b[key]:
            mismatches.append(
                f"result.json[{key!r}]: {result_a[key]!r} != "
                f"{result_b[key]!r}"
            )
    return mismatches


def double_run(
    workdir: str,
    hash_seeds: Tuple[int, int] = DEFAULT_HASH_SEEDS,
    seed: int = 23,
    inputs: int = 2,
    ops_per_tree: int = 8,
    nodes: int = 3,
    rates: str = "40,40",
    duration: float = 8.0,
    step: float = 0.1,
    chaos_seed: Optional[int] = 7,
    failover: Optional[str] = "volume",
    elastic: bool = False,
) -> Dict[str, object]:
    """Generate once, then place and simulate under each hash seed.

    The graph is written once; each hash seed gets its own
    ``plan.json``, whose bytes must agree, and its own recorded run
    directory, whose trace digest and result snapshot must agree bit
    for bit.
    With ``elastic`` the workload is the skewed pre-partitioned
    pipeline and each simulate runs the elasticity controller (key
    routing uses the stable unit hash, so the repartition path must be
    just as hash-seed-blind as everything else); ``--failover`` is
    dropped there (the controllers are mutually exclusive).
    Returns ``{"runs": [dir, dir], "mismatches": [...]}``.

    Raises :class:`HarnessError` when any subprocess fails.
    """
    os.makedirs(workdir, exist_ok=True)
    graph = os.path.join(workdir, "graph.json")
    if elastic:
        # No failover (mutually exclusive controller) and no chaos: a
        # fault hitting the partitioned pipeline can mask the skew the
        # controller must react to, and the point here is exercising
        # the repartition path under both hash seeds.
        failover = None
        chaos_seed = None
        _check(_run(_cli(
            "generate", "--kind", "elastic", "-o", graph,
        )))
    else:
        _check(_run(_cli(
            "generate", "--kind", "random", "--inputs", str(inputs),
            "--ops-per-tree", str(ops_per_tree), "--seed", str(seed),
            "-o", graph,
        )))

    record_root = os.path.join(workdir, "runs")
    run_dirs: List[str] = []
    plans: List[str] = []
    for hash_seed in hash_seeds:
        run_id = f"det-hashseed-{hash_seed}"
        plan_dir = os.path.join(workdir, run_id)
        os.makedirs(plan_dir, exist_ok=True)
        plan = os.path.join(plan_dir, "plan.json")
        _check(_run(_cli(
            "place", "--graph", graph, "--nodes", str(nodes),
            "--algorithm", "rod", "-o", plan,
        ), hash_seed=hash_seed))
        plans.append(plan)
        cmd = _cli(
            "simulate", "--graph", graph, "--plan", plan,
            "--rates", rates, "--duration", str(duration),
            "--step", str(step),
            "--record", record_root, "--run-id", run_id,
        )
        if chaos_seed is not None:
            cmd += ["--chaos-seed", str(chaos_seed)]
        if failover:
            cmd += ["--failover", failover]
        if elastic:
            cmd += ["--elastic"]
        _check(_run(cmd, hash_seed=hash_seed))
        run_dirs.append(os.path.join(record_root, run_id))

    mismatches = compare_runs(run_dirs[0], run_dirs[1])
    with open(plans[0], "rb") as first, open(plans[1], "rb") as second:
        if first.read() != second.read():
            mismatches.insert(0, "plan.json differs")
    return {
        "runs": run_dirs,
        "hash_seeds": list(hash_seeds),
        "mismatches": mismatches,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; see the module docstring for the CI wiring."""
    parser = argparse.ArgumentParser(
        prog="repro-determinism",
        description="run the same seeded place and simulate twice "
                    "under two PYTHONHASHSEED values and diff the "
                    "artifacts",
    )
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for artifacts and runs")
    parser.add_argument("--hash-seeds", default=None, metavar="A,B",
                        help="the two PYTHONHASHSEED values "
                             f"(default {DEFAULT_HASH_SEEDS[0]},"
                             f"{DEFAULT_HASH_SEEDS[1]})")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--duration", type=float, default=8.0)
    parser.add_argument("--rates", default=None,
                        help="tuples/second per input (default 40,40; "
                             "400 for --elastic's one-input pipeline)")
    parser.add_argument("--chaos-seed", type=int, default=7,
                        help="seeded chaos schedule for the runs "
                             "(-1 disables fault injection)")
    parser.add_argument("--elastic", action="store_true",
                        help="run the skewed partitioned pipeline under "
                             "the elasticity controller instead of the "
                             "random graph under failover")
    args = parser.parse_args(argv)
    if args.rates is None:
        args.rates = "400" if args.elastic else "40,40"

    hash_seeds = DEFAULT_HASH_SEEDS
    if args.hash_seeds:
        parts = [int(p) for p in args.hash_seeds.split(",")]
        if len(parts) != 2 or parts[0] == parts[1]:
            parser.error("--hash-seeds needs two distinct integers")
        hash_seeds = (parts[0], parts[1])

    try:
        outcome = double_run(
            args.workdir,
            hash_seeds=hash_seeds,
            seed=args.seed,
            rates=args.rates,
            duration=args.duration,
            chaos_seed=None if args.chaos_seed < 0 else args.chaos_seed,
            elastic=args.elastic,
        )
    except HarnessError as exc:
        print(f"determinism: {exc}", file=sys.stderr)  # noqa: REPRO505
        return 2
    # This *is* the console entry point; stdout is its interface.
    mismatches = list(outcome["mismatches"])  # type: ignore[arg-type]
    for line in mismatches:
        print(f"determinism: {line}")  # noqa: REPRO505
    runs = outcome["runs"]
    if mismatches:
        print(f"determinism: FAIL — {len(mismatches)} mismatch(es) "  # noqa: REPRO505
              f"between {runs[0]} and {runs[1]}")  # type: ignore[index]
        return 1
    print(f"determinism: OK — PYTHONHASHSEED {hash_seeds[0]} and "  # noqa: REPRO505
          f"{hash_seeds[1]} produced identical plans, trace digests "
          "and result snapshots")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    sys.exit(main())
