"""Run registry: persistent run directories with provenance manifests.

Every instrumented invocation — ``Deployment.simulate``, ``repro-rod
evaluate``, ``repro-rod experiment`` — can record itself as a *run
directory*::

    runs/<run_id>/
        manifest.json   # provenance: config hash, seeds, placement,
                        # package version, CLI argv, wall/sim clocks
        trace.jsonl     # the structured event stream (when traced)
        result.json     # metrics snapshot (flat, diffable numbers)
        metrics.json    # full MetricsRegistry.to_json() dump
        analysis.json   # what explain and why render (traced simulate
                        # runs), with the trace's SHA-256

The registry turns one-shot terminal output into queryable artifacts:
``repro-rod runs list/show`` browses them, ``repro-rod compare``
(:mod:`repro.obs.diff`) diffs two snapshots with regression thresholds,
and ``repro-rod report`` (:mod:`repro.obs.report_html`) renders a
self-contained HTML report.

A :class:`RunWriter` records one run; :class:`Run` reads one back;
:func:`list_runs` / :func:`find_run` locate them under a root directory
(``runs/`` by default).  A :class:`Recording` is how every recorder
opens a run: it owns the choice of trace sink and seals a run that
failed.  Everything is plain JSON — no database, no
external dependency — so run directories can be committed as regression
baselines (see the CI compare step).

A simulate run's critical path is analyzed once, when its recorder
seals it: the documents the ``explain`` and ``why`` viewers render
(:func:`viewer_document`), whose sections ``result.json`` also holds,
are built from the events it kept and stored in ``analysis.json`` with
the SHA-256 of the ``trace.jsonl`` bytes it wrote; ``report`` renders
the ``explain`` one beside what it computes from the trace.  The file
is a cache: :meth:`Run.document` uses it only while it parses, names
:data:`ANALYSIS_FORMAT` and the trace still hashes to that digest, and
otherwise computes the document from the trace with the same function.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from .metrics import MetricsRegistry
from .trace import JsonlSink, MemorySink, Tracer, _jsonable, read_trace

if TYPE_CHECKING:
    from .index import RunIndex
    from .trace import TraceSink

__all__ = [
    "ANALYSIS_FORMAT",
    "ANALYSIS_NAME",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "RESULT_NAME",
    "RUN_FORMAT_VERSION",
    "TRACE_NAME",
    "DEFAULT_ROOT",
    "Recording",
    "RunManifest",
    "RunWriter",
    "Run",
    "config_digest",
    "find_run",
    "list_runs",
    "load_run",
    "snapshot_from_result",
    "snapshot_from_rows",
    "VIEWERS",
    "viewer_document",
]

#: Bumped when the on-disk layout changes incompatibly.
RUN_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
TRACE_NAME = "trace.jsonl"
RESULT_NAME = "result.json"
METRICS_NAME = "metrics.json"
ANALYSIS_NAME = "analysis.json"

#: Bumped when the ``analysis.json`` layout changes; a file that names
#: another format is ignored.
ANALYSIS_FORMAT = 1

#: The commands whose documents ``analysis.json`` stores.
VIEWERS = ("explain", "why")

#: Default registry root, relative to the working directory.
DEFAULT_ROOT = "runs"


def config_digest(config: object) -> str:
    """Short stable hash of a JSON-able configuration object.

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256,
    truncated to 12 hex characters — enough to tell two configurations
    apart at a glance in ``runs list`` output.
    """
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=_jsonable
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _package_version() -> str:
    try:
        from .. import __version__
        return str(__version__)
    except Exception:  # pragma: no cover - partial-init fallback
        return "unknown"


@dataclass
class RunManifest:
    """Provenance header of one run directory (``manifest.json``)."""

    run_id: str
    kind: str                          # "simulate" | "evaluate" | ...
    created_wall: float                # epoch seconds at run start
    config: Dict[str, object] = field(default_factory=dict)
    config_digest: str = ""
    seed: Optional[int] = None
    version: str = ""
    argv: List[str] = field(default_factory=list)
    wall_seconds: Optional[float] = None   # wall-clock duration of the run
    sim_seconds: Optional[float] = None    # simulated horizon, if any
    placement: Optional[Dict[str, object]] = None
    labels: Dict[str, str] = field(default_factory=dict)
    format: int = RUN_FORMAT_VERSION

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "format": self.format,
            "run_id": self.run_id,
            "kind": self.kind,
            "created_wall": self.created_wall,
            "config": self.config,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "version": self.version,
            "argv": list(self.argv),
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "placement": self.placement,
            "labels": dict(self.labels),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, object]) -> "RunManifest":
        if "run_id" not in obj or "kind" not in obj:
            raise ValueError("run manifest lacks run_id/kind")
        return cls(
            run_id=str(obj["run_id"]),
            kind=str(obj["kind"]),
            created_wall=float(obj.get("created_wall", 0.0)),
            config=dict(obj.get("config", {})),  # type: ignore[arg-type]
            config_digest=str(obj.get("config_digest", "")),
            seed=None if obj.get("seed") is None else int(obj["seed"]),  # type: ignore[arg-type]
            version=str(obj.get("version", "")),
            argv=[str(a) for a in obj.get("argv", [])],  # type: ignore[union-attr]
            wall_seconds=(
                None if obj.get("wall_seconds") is None
                else float(obj["wall_seconds"])  # type: ignore[arg-type]
            ),
            sim_seconds=(
                None if obj.get("sim_seconds") is None
                else float(obj["sim_seconds"])  # type: ignore[arg-type]
            ),
            placement=obj.get("placement"),  # type: ignore[arg-type]
            labels={
                str(k): str(v)
                for k, v in dict(obj.get("labels", {})).items()  # type: ignore[arg-type]
            },
            format=int(obj.get("format", RUN_FORMAT_VERSION)),  # type: ignore[arg-type]
        )


def snapshot_from_result(result: object) -> Dict[str, object]:
    """Flatten a ``SimulationResult`` into the ``result.json`` snapshot.

    Every value is a plain JSON number/list so :mod:`repro.obs.diff` can
    compare snapshots key by key.  Accepts the result duck-typed to keep
    this module import-light (no simulator dependency).  A traced run's
    snapshot adds the ``critical_path``, ``decisions`` and ``drift``
    sections of its events (:meth:`Recording.finish_simulation`).
    """
    latency = result.latency  # type: ignore[attr-defined]
    snapshot: Dict[str, object] = {
        "kind": "simulate",
        "duration": float(result.duration),  # type: ignore[attr-defined]
        "tuples_in": int(result.tuples_in),  # type: ignore[attr-defined]
        "tuples_out": int(result.tuples_out),  # type: ignore[attr-defined]
        "max_utilization": float(result.max_utilization),  # type: ignore[attr-defined]
        "node_busy": [float(v) for v in result.node_busy],  # type: ignore[attr-defined]
        "node_utilization": [
            float(v) for v in result.node_utilization  # type: ignore[attr-defined]
        ],
        "backlog_seconds": [
            float(v) for v in result.backlog_seconds  # type: ignore[attr-defined]
        ],
        "latency": {
            "mean": latency.mean(),
            "max": latency.maximum(),
            "tuples": latency.total_tuples,
            **latency.percentiles(),
        },
        "migrations": int(result.migration_count),  # type: ignore[attr-defined]
        "migration_pause": float(
            result.total_migration_pause  # type: ignore[attr-defined]
        ),
        "operators": {
            name: {
                "tuples_in": stats.tuples_in,
                "tuples_out": stats.tuples_out,
                "work_seconds": stats.work_seconds,
            }
            for name, stats in sorted(
                result.operator_stats.items()  # type: ignore[attr-defined]
            )
        },
        "sink_latency": {
            sink: {"mean": s.mean(), **s.percentiles()}
            for sink, s in sorted(
                result.sink_latency.items()  # type: ignore[attr-defined]
            )
        },
    }
    # Fault fields are conditional so fault-free snapshots stay byte-
    # compatible with baselines committed before fault injection existed.
    faults = list(getattr(result, "faults", ()) or ())
    if faults:
        snapshot["faults"] = [
            {
                "time": float(f.time),
                "kind": str(f.kind),
                "node": None if f.node is None else int(f.node),
                "operator": f.operator,
                "factor": (
                    None if f.factor is None else float(f.factor)
                ),
                "duration": (
                    None if f.duration is None else float(f.duration)
                ),
            }
            for f in faults
        ]
        snapshot["stranded_tuples"] = int(
            getattr(result, "stranded_tuples", 0)
        )
    return snapshot


def viewer_document(viewer: str, index: RunIndex) -> Dict[str, Any]:
    """The document ``viewer`` renders, computed from a run's indexed
    trace: :func:`~repro.obs.critical_path.explain_document` for
    ``explain`` and :func:`~repro.obs.decisions.why_json_obj` for
    ``why``.  The recorder stores what it returns in ``analysis.json``."""
    # Imported here: each viewer loads only its own analyzer.
    if viewer == "explain":
        from .critical_path import explain_document

        return explain_document(index)
    if viewer == "why":
        from .decisions import why_json_obj

        return why_json_obj(index)
    raise ValueError(f"unknown viewer {viewer!r}; expected one of {VIEWERS}")


def _sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB blocks."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def snapshot_from_rows(
    rows: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """``result.json`` snapshot for an experiment's row table."""
    return {"kind": "experiment", "rows": [dict(row) for row in rows]}


def _unique_run_dir(root: str, run_id: str) -> str:
    """Reserve ``root/run_id`` (suffixing ``-2``, ``-3``… on collision)."""
    os.makedirs(root, exist_ok=True)
    candidate = run_id
    counter = 2
    while True:
        path = os.path.join(root, candidate)
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            candidate = f"{run_id}-{counter}"
            counter += 1


class RunWriter:
    """Records one run directory; create, attach artifacts, ``finish``.

    >>> import tempfile
    >>> root = tempfile.mkdtemp()
    >>> writer = RunWriter(root, kind="evaluate", run_id="demo",
    ...                    config={"graph": "g"})
    >>> writer.finish(snapshot={"kind": "evaluate", "volume_ratio": 0.5})
    >>> load_run(writer.path).result["volume_ratio"]
    0.5
    """

    def __init__(
        self,
        root: str = DEFAULT_ROOT,
        kind: str = "run",
        run_id: Optional[str] = None,
        config: Optional[Mapping[str, object]] = None,
        seed: Optional[int] = None,
        argv: Optional[Sequence[str]] = None,
        placement: Optional[Mapping[str, object]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        created = time.time()
        digest = config_digest(dict(config or {}))
        if run_id is None:
            stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(created))
            run_id = f"{stamp}-{digest[:8]}"
        self.path = _unique_run_dir(root, run_id)
        self.manifest = RunManifest(
            run_id=os.path.basename(self.path),
            kind=kind,
            created_wall=created,
            config=dict(config or {}),
            config_digest=digest,
            seed=seed,
            version=_package_version(),
            argv=list(argv if argv is not None else []),
            placement=dict(placement) if placement is not None else None,
            labels=dict(labels or {}),
        )
        self._start = time.perf_counter()
        self._trace_sink: Optional[JsonlSink] = None
        self._finished = False

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def trace_path(self) -> str:
        return os.path.join(self.path, TRACE_NAME)

    @property
    def traced(self) -> bool:
        """Whether the run's events stream to its ``trace.jsonl``."""
        return self._trace_sink is not None

    def trace_sink(self) -> JsonlSink:
        """A JSONL sink writing the run's ``trace.jsonl`` (memoized)."""
        if self._trace_sink is None:
            self._trace_sink = JsonlSink(self.trace_path)
        return self._trace_sink

    def finish(
        self,
        snapshot: Optional[Mapping[str, object]] = None,
        registry: Optional[MetricsRegistry] = None,
        sim_seconds: Optional[float] = None,
        analysis: Optional[Mapping[str, object]] = None,
    ) -> RunManifest:
        """Close the trace and write manifest/result/metrics files, then
        ``analysis``, the viewers' documents of a run that wrote its
        ``trace.jsonl``, as ``analysis.json`` with the SHA-256 of that
        trace.

        Idempotent by refusal: a second call raises, so a run directory
        is never silently rewritten after it was sealed.
        """
        if self._finished:
            raise RuntimeError(f"run {self.run_id!r} is already finished")
        self._finished = True
        if self._trace_sink is not None:
            self._trace_sink.close()
        self.manifest.wall_seconds = time.perf_counter() - self._start
        self.manifest.sim_seconds = sim_seconds
        if snapshot is not None:
            self._write_json(RESULT_NAME, dict(snapshot))
        if registry is not None:
            self._write_json(METRICS_NAME, registry.to_json())
        self._write_json(MANIFEST_NAME, self.manifest.to_json_obj())
        if analysis is not None:
            document = {
                "format": ANALYSIS_FORMAT,
                "trace_sha256": _sha256(self.trace_path),
                **analysis,
            }
            # Compact: one C-encoder call, in the documents' key order.
            with open(os.path.join(self.path, ANALYSIS_NAME), "w",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(
                    document, separators=(",", ":"), default=_jsonable
                ))
        return self.manifest

    def _write_json(self, name: str, obj: Mapping[str, object]) -> None:
        with open(os.path.join(self.path, name), "w",
                  encoding="utf-8") as handle:
            json.dump(obj, handle, indent=2, sort_keys=True,
                      default=_jsonable)
            handle.write("\n")


class Recording:
    """One invocation's run directory and trace sink, for a ``with``
    block: how the CLI and ``Deployment.simulate`` record.

    A ``root`` records the invocation under it through a
    :class:`RunWriter` (``manifest`` holds its ``run_id``, ``seed``,
    ``argv``, ``placement`` and ``labels``); without one, :attr:`writer`
    is ``None``.  The events go to ``trace_out`` when it names a file,
    else to the run's ``trace.jsonl``; ``traced=False`` opens no sink,
    and :attr:`tracer` is ``None`` when no sink is open.  With
    ``keep_events`` the sink also keeps every event it wrote, for
    :meth:`index`.

    The caller seals a completed run with ``writer.finish(...)``, or a
    simulation with :meth:`finish_simulation`.  On exit the sink is
    closed, and a run an error left unfinished is sealed with what
    exists, so the registry never holds an unreadable half-run.
    """

    def __init__(
        self,
        root: Optional[str],
        kind: str,
        config: Mapping[str, object],
        trace_out: Optional[str] = None,
        traced: bool = True,
        keep_events: bool = False,
        **manifest: Any,
    ) -> None:
        # A trace file that cannot be opened fails before a run exists.
        sink: Optional[TraceSink] = None
        if traced and trace_out is not None:
            sink = JsonlSink(trace_out)
        self.writer = None if root is None else RunWriter(
            root, kind=kind, config=config, **manifest
        )
        if traced and sink is None and self.writer is not None:
            sink = self.writer.trace_sink()
        self.sink = MemorySink(forward=sink) if keep_events else sink
        self.tracer = None if self.sink is None else Tracer(self.sink)
        self._index: Optional[RunIndex] = None

    def __enter__(self) -> Recording:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.sink is not None:
            self.sink.close()
        if self.writer is not None and not self.writer.finished:
            self.writer.finish()

    def index(self) -> Optional[RunIndex]:
        """The kept events, indexed on the first call; ``None`` when
        none were kept."""
        kept = self.sink.events if isinstance(self.sink, MemorySink) else ()
        if self._index is None and kept:
            from .index import RunIndex

            self._index = RunIndex(kept)
        return self._index

    def finish_simulation(
        self, result: object, registry: MetricsRegistry,
        slo: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Seal a simulate run.

        ``result.json`` is :func:`snapshot_from_result` plus, when
        events were kept, their ``critical_path``, ``decisions`` and
        ``drift`` sections, plus the ``slo`` section when given.  A run
        that wrote its ``trace.jsonl`` also gets ``analysis.json``:
        each of :data:`VIEWERS`'s documents, built from the kept events.
        The critical path is analyzed once, for its ``explain``
        document and the snapshot's section.
        """
        assert self.writer is not None, "finish_simulation needs a root"
        snapshot = snapshot_from_result(result)
        index = self.index()
        analysis = None
        if index is not None:
            from .decisions import decision_snapshot
            from .drift import drift_snapshot

            explain = viewer_document("explain", index)
            snapshot["critical_path"] = explain["critical_path"]
            # Always present (zero-valued for controller-less runs) so
            # baselines gain the keys and `compare` can diff them.
            snapshot["decisions"] = decision_snapshot(index)
            snapshot["drift"] = drift_snapshot(index)
            if self.writer.traced:
                analysis = {
                    "explain": explain, "why": viewer_document("why", index),
                }
        if slo is not None:
            snapshot["slo"] = dict(slo)
        self.writer.finish(
            snapshot=snapshot, registry=registry,
            sim_seconds=result.duration,  # type: ignore[attr-defined]
            analysis=analysis,
        )


class Run:
    """Read-only view of one recorded run directory (lazy loads)."""

    def __init__(self, path: str) -> None:
        if not os.path.isdir(path):
            raise FileNotFoundError(f"run directory not found: {path}")
        self.path = path
        self._manifest: Optional[RunManifest] = None
        self._result: Optional[Dict[str, object]] = None
        self._metrics: Optional[Dict[str, object]] = None
        self._index: Optional[RunIndex] = None

    def _read_json(self, name: str) -> Dict[str, object]:
        with open(os.path.join(self.path, name), encoding="utf-8") as handle:
            obj = json.load(handle)
        if not isinstance(obj, dict):
            raise ValueError(f"{name} in {self.path} is not a JSON object")
        return obj

    @property
    def manifest(self) -> RunManifest:
        if self._manifest is None:
            self._manifest = RunManifest.from_json_obj(
                self._read_json(MANIFEST_NAME)
            )
        return self._manifest

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    @property
    def result(self) -> Dict[str, object]:
        """The ``result.json`` snapshot (``{}`` when none was written)."""
        if self._result is None:
            try:
                self._result = self._read_json(RESULT_NAME)
            except FileNotFoundError:
                self._result = {}
        return self._result

    @property
    def metrics(self) -> Dict[str, object]:
        """The ``metrics.json`` registry dump (``{}`` when absent)."""
        if self._metrics is None:
            try:
                self._metrics = self._read_json(METRICS_NAME)
            except FileNotFoundError:
                self._metrics = {}
        return self._metrics

    @property
    def trace_path(self) -> str:
        return os.path.join(self.path, TRACE_NAME)

    @property
    def has_trace(self) -> bool:
        return os.path.exists(self.trace_path)

    def index(self) -> RunIndex:
        """The run's trace, parsed and indexed on the first call
        (:class:`~repro.obs.index.RunIndex`) and the same index after;
        an untraced run reads as an empty trace."""
        # Imported here: start-up paths that read no trace skip it.
        from .index import RunIndex

        if self._index is None:
            self._index = RunIndex(
                read_trace(self.trace_path) if self.has_trace else []
            )
        return self._index

    @cached_property
    def analysis(self) -> Optional[Dict[str, Any]]:
        """The viewers' documents stored in ``analysis.json``, or
        ``None`` unless the file parses, names :data:`ANALYSIS_FORMAT`,
        holds a document for each of :data:`VIEWERS` and was recorded
        from the bytes ``trace.jsonl`` holds now."""
        try:
            stored = self._read_json(ANALYSIS_NAME)
        except (OSError, ValueError):
            return None
        current = (
            stored.get("format") == ANALYSIS_FORMAT
            and all(isinstance(stored.get(v), dict) for v in VIEWERS)
            and self.has_trace
            and stored.get("trace_sha256") == _sha256(self.trace_path)
        )
        return stored if current else None

    def document(self, viewer: str) -> Optional[Dict[str, Any]]:
        """The document ``viewer`` (one of :data:`VIEWERS`) renders:
        the stored one while :attr:`analysis` holds, else
        :func:`viewer_document` of the trace; ``None`` when the run has
        no trace events."""
        if self.analysis is not None:
            return self.analysis[viewer]
        index = self.index()
        return viewer_document(viewer, index) if index.events else None

    def __repr__(self) -> str:
        return f"Run({self.path!r})"


def load_run(path: str) -> Run:
    """Open a run directory; raises ``FileNotFoundError`` if missing."""
    return Run(path)


def find_run(ref: str, root: str = DEFAULT_ROOT) -> Run:
    """Resolve ``ref`` as a run directory path or a run id under ``root``."""
    if os.path.isdir(ref):
        return Run(ref)
    candidate = os.path.join(root, ref)
    if os.path.isdir(candidate):
        return Run(candidate)
    raise FileNotFoundError(
        f"no run {ref!r} (looked at {ref!r} and {candidate!r}); "
        f"`repro-rod runs list --root {root}` shows recorded runs"
    )


def list_runs(root: str = DEFAULT_ROOT) -> List[Run]:
    """All runs under ``root``, oldest first (by manifest wall clock).

    Directories without a readable manifest are skipped — a half-written
    run (crash mid-record) must not break browsing the rest.
    """
    if not os.path.isdir(root):
        return []
    runs = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if not os.path.isdir(path):
            continue
        try:
            run = Run(path)
            run.manifest  # noqa: B018 - probe that the manifest parses
        except (OSError, ValueError, KeyError):
            continue
        runs.append(run)
    runs.sort(key=lambda r: (r.manifest.created_wall, r.run_id))
    return runs
