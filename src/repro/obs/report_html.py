"""Self-contained static HTML reports for recorded runs.

``render_html_report`` turns one :class:`~repro.obs.runs.Run` into a
single HTML document with **zero external dependencies** — no script
tags, no CSS/font/image URLs, nothing fetched from the network.  Charts
are inline SVG generated here: per-node utilization sparklines, a
time × node utilization heatmap, and migration markers.  The file can be
archived as a CI artifact or mailed around and will render identically
anywhere.

The terminal view (``repro-rod trace`` / ``repro.obs.timeline``) stays
the quick-look tool; this module is the durable, shareable sibling
behind ``repro-rod report RUN``.

The latency waterfall renders the run's critical-path document
(:meth:`~repro.obs.runs.Run.document`), which ``simulate --record``
stores in ``analysis.json``; the other sections are computed from the
trace.
"""

from __future__ import annotations

import html
import json
import time
from typing import Any, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .analyze import TraceAnalysis, analyze_trace
from .critical_path import PHASES
from .runs import Run
from .timeline import utilization_timeline

__all__ = ["render_html_report", "write_html_report"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e;
       line-height: 1.45; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #2563eb;
     padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin: .6rem 0; }
th, td { border: 1px solid #d4d4e0; padding: .25rem .6rem;
         font-size: .85rem; text-align: left; }
th { background: #eef1f8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
code { background: #f2f3f7; padding: .05rem .3rem; border-radius: 3px;
       font-size: .85em; }
.meta { color: #555; font-size: .85rem; }
svg { display: block; }
.legend { font-size: .75rem; color: #555; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}g}"


def _td(value: object) -> str:
    return f"<td>{_esc(value)}</td>"


def _num(value: object) -> str:
    """A right-aligned cell; ``value`` is inserted as it is."""
    return f"<td class='num'>{value}</td>"


def _code(value: object) -> str:
    return f"<td><code>{_esc(value)}</code></td>"


def _table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """A header row of ``header`` labels, then one row per entry of
    ``rows``, each a sequence of ready-made cells."""
    head = "".join(f"<th>{_esc(label)}</th>" for label in header)
    body = "".join("<tr>" + "".join(row) + "</tr>" for row in rows)
    return f"<table><tr>{head}</tr>{body}</table>"


def _utilization_color(value: float) -> str:
    """Blue ramp for [0, 1], switching to red past saturation."""
    v = max(0.0, float(value))
    if v > 1.0:
        over = min(1.0, v - 1.0)
        red = 220
        green = int(80 - 60 * over)
        blue = int(80 - 60 * over)
        return f"rgb({red},{max(green, 20)},{max(blue, 20)})"
    light = 245 - int(190 * v)
    return f"rgb({light},{light + 5},250)"


def _svg_sparkline(
    values: Sequence[float],
    width: int = 260,
    height: int = 32,
    ceiling: Optional[float] = None,
) -> str:
    """Inline SVG polyline of a series, with a dashed 1.0 reference."""
    series = [max(0.0, float(v)) for v in values] or [0.0]
    top = max(ceiling if ceiling is not None else 0.0, max(series), 1e-9)
    n = len(series)
    points = []
    for i, v in enumerate(series):
        x = (i / max(n - 1, 1)) * (width - 2) + 1
        y = height - 1 - (min(v, top) / top) * (height - 2)
        points.append(f"{x:.1f},{y:.1f}")
    ref = ""
    if top >= 1.0:
        ref_y = height - 1 - (1.0 / top) * (height - 2)
        ref = (
            f'<line x1="1" y1="{ref_y:.1f}" x2="{width - 1}" '
            f'y2="{ref_y:.1f}" stroke="#c33" stroke-width="1" '
            'stroke-dasharray="3,3"/>'
        )
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} '
        f'{height}" role="img">'
        f'<rect width="{width}" height="{height}" fill="#f7f8fc"/>'
        f"{ref}"
        f'<polyline fill="none" stroke="#2563eb" stroke-width="1.5" '
        f'points="{" ".join(points)}"/>'
        "</svg>"
    )


def _svg_heatmap(
    matrix: np.ndarray,
    migrations: Sequence[object] = (),
    horizon: float = 0.0,
    cell_width_total: int = 640,
    row_height: int = 18,
    faults: Sequence[object] = (),
) -> str:
    """Time × node utilization heatmap with migration/fault markers."""
    steps, nodes = matrix.shape
    if steps == 0 or nodes == 0:
        return "<p class='meta'>no timeline data</p>"
    label_pad = 52
    width = cell_width_total + label_pad
    height = nodes * row_height + 18
    cell = cell_width_total / steps
    parts = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} '
        f'{height}" role="img">'
    ]
    for node in range(nodes):
        y = node * row_height
        parts.append(
            f'<text x="0" y="{y + row_height - 5}" font-size="11" '
            f'fill="#333">node {node}</text>'
        )
        for step in range(steps):
            color = _utilization_color(float(matrix[step, node]))
            x = label_pad + step * cell
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{cell + 0.5:.2f}" '
                f'height="{row_height - 2}" fill="{color}"/>'
            )
    if horizon > 0:
        for m in migrations:
            x = label_pad + (float(m.t) / horizon) * cell_width_total
            parts.append(
                f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" '
                f'y2="{nodes * row_height - 2}" stroke="#111" '
                'stroke-width="1.5" stroke-dasharray="2,2"/>'
            )
        for fault in faults:
            if getattr(fault, "reverted", False):
                continue
            x = label_pad + (
                float(fault.t) / horizon
            ) * cell_width_total
            parts.append(
                f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" '
                f'y2="{nodes * row_height - 2}" stroke="#c0392b" '
                'stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{x + 2:.2f}" y="10" font-size="9" '
                f'fill="#c0392b">{_esc(fault.kind)}</text>'
            )
    parts.append(
        f'<text x="{label_pad}" y="{height - 4}" font-size="10" '
        'fill="#777">t = 0</text>'
    )
    parts.append(
        f'<text x="{width - 40}" y="{height - 4}" font-size="10" '
        f'fill="#777">{_fmt(horizon)}s</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _kv_table(pairs: Sequence[tuple]) -> str:
    rows = "".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>" for k, v in pairs
    )
    return f"<table>{rows}</table>"


def _manifest_section(run: Run) -> str:
    m = run.manifest
    created = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(m.created_wall)
    )
    pairs = [
        ("run id", m.run_id),
        ("kind", m.kind),
        ("created", created),
        ("package version", m.version or "?"),
        ("config digest", m.config_digest or "?"),
        ("seed", "none" if m.seed is None else m.seed),
        ("wall seconds", "?" if m.wall_seconds is None
         else _fmt(m.wall_seconds)),
        ("simulated seconds", "?" if m.sim_seconds is None
         else _fmt(m.sim_seconds)),
    ]
    if m.argv:
        pairs.append(("argv", " ".join(m.argv)))
    for key, value in sorted(m.labels.items()):
        pairs.append((f"label:{key}", value))
    parts = ["<h2>Provenance</h2>", _kv_table(pairs)]
    if m.config:
        parts.append(
            "<details><summary class='meta'>configuration</summary>"
            f"<pre><code>{_esc(json.dumps(m.config, indent=2, sort_keys=True, default=str))}"
            "</code></pre></details>"
        )
    return "".join(parts)


def _headline_section(result: Mapping[str, object]) -> str:
    keys = (
        "duration", "tuples_in", "tuples_out", "max_utilization",
        "migrations", "volume_ratio",
    )
    pairs = [(k, result[k]) for k in keys if k in result]
    latency = result.get("latency")
    if isinstance(latency, Mapping):
        for name in ("mean", "p50", "p95", "p99", "max"):
            if name in latency:
                value = float(latency[name])  # type: ignore[arg-type]
                pairs.append((f"latency {name}", f"{value * 1e3:.2f} ms"))
    if not pairs:
        return ""
    return "<h2>Headline metrics</h2>" + _kv_table(pairs)


def _nodes_section(analysis: TraceAnalysis,
                   utilization: np.ndarray) -> str:
    util_means = analysis.utilization()
    rows = []
    for index, node in enumerate(analysis.nodes):
        series = (
            utilization[:, index] if utilization.size else np.zeros(1)
        )
        rows.append((
            _td(f"node {index}"), _num(_fmt(node.busy_seconds)),
            _num(_fmt(node.stall_seconds)), _num(node.batches_serviced),
            _num(node.peak_outstanding),
            _num(_fmt(float(util_means[index]), 3)),
            _num(_fmt(float(series.max()), 3)),
            f"<td>{_svg_sparkline(series, ceiling=1.0)}</td>",
        ))
    return (
        "<h2>Per-node utilization</h2>"
        + _table(("node", "busy s", "stall s", "batches", "peak queue",
                  "mean util", "peak util", "timeline"), rows)
        + "<p class='legend'>sparkline ceiling at utilization 1.0 "
        "(dashed red line = saturation)</p>"
    )


def _operators_section(analysis: TraceAnalysis) -> str:
    if not analysis.operators:
        return ""
    rows = [
        (_code(name), _num(op.tuples_in), _num(op.tuples_out),
         _num(_fmt(op.work_seconds)), _num(op.batches),
         _td(", ".join(str(n) for n in op.nodes)))
        for name, op in sorted(analysis.operators.items())
    ]
    return "<h2>Per-operator activity</h2>" + _table(
        ("operator", "tuples in", "tuples out", "work s", "batches",
         "nodes"), rows,
    )


def _migrations_section(analysis: TraceAnalysis) -> str:
    if not analysis.migrations:
        return ""
    rows = [
        (_num(_fmt(m.t)), _code(m.operator), _num(m.source),
         _num(m.target), _num(_fmt(m.pause)))
        for m in analysis.migrations
    ]
    return f"<h2>Migrations ({len(analysis.migrations)})</h2>" + _table(
        ("t (s)", "operator", "from", "to", "pause (s)"), rows
    )


def _decisions_section(analysis: TraceAnalysis, max_rows: int = 200) -> str:
    """Decision timeline: every controller deliberation, in time order.

    The summary line carries the trigger and no-op breakdowns; each row
    shows what the controller saw (loads), what it weighed (candidate
    count), and what it did (actions or the structured no-op reason).
    """
    if not analysis.decisions:
        return ""
    summary = analysis.decision_summary
    triggers = ", ".join(
        f"{name}={count}"
        for name, count in summary.get("triggers", {}).items()
    )
    no_op = ", ".join(
        f"{name}={count}"
        for name, count in summary.get("no_op", {}).items()
    )
    rows = []
    for view in analysis.decisions[:max_rows]:
        loads = ", ".join(f"{float(v):.2f}" for v in view.loads)
        volumes = ""
        if view.volume_before is not None:
            after = (
                "" if view.volume_after is None
                else f" &rarr; {float(view.volume_after):.3f}"
            )
            volumes = f"{float(view.volume_before):.3f}{after}"
        rows.append((
            _num(_fmt(view.t)), _num(view.decision), _code(view.trigger),
            _code(view.controller), _code(view.reason),
            _num(view.actions), _num(len(view.candidates)),
            _td(f"[{loads}]"), _num(volumes),
        ))
    truncated = (
        f"<p>… and {len(analysis.decisions) - max_rows} more decisions"
        "</p>" if len(analysis.decisions) > max_rows else ""
    )
    return (
        f"<h2>Decision timeline ({len(analysis.decisions)})</h2>"
        f"<p>triggers: {_esc(triggers) or '—'}"
        + (f" · no-op reasons: {_esc(no_op)}" if no_op else "")
        + "</p>"
        + _table(("t (s)", "#", "trigger", "controller", "outcome",
                  "moves", "candidates", "loads", "volume"), rows)
        + truncated
    )


def _drift_section(analysis: TraceAnalysis) -> str:
    if not analysis.drift:
        return ""
    numbers = ("observed", "baseline", "statistic")
    rows = [
        (_num(_fmt(float(d.get("t", 0.0)))), _code(d.get("signal")),
         _num("" if d.get("input") is None else d.get("input")),
         _code(d.get("direction")),
         *(_num(_fmt(float(d.get(key, 0.0)))) for key in numbers))
        for d in analysis.drift
    ]
    return f"<h2>Drift detections ({len(analysis.drift)})</h2>" + _table(
        ("t (s)", "signal", "input", "direction") + numbers, rows
    )


def _faults_section(analysis: TraceAnalysis) -> str:
    injected = [f for f in analysis.faults if not f.reverted]
    if not injected:
        return ""
    rows = [
        (_num(_fmt(f.t)), _code(f.kind),
         _num("" if f.node is None else f.node), _td(f.operator or ""),
         _num("" if f.factor is None else _fmt(f.factor)),
         _num("" if f.duration is None else _fmt(f.duration)))
        for f in injected
    ]
    return f"<h2>Injected faults ({len(injected)})</h2>" + _table(
        ("t (s)", "kind", "node", "operator", "factor", "duration (s)"),
        rows,
    )


#: Phase fill colors for the latency waterfall (stable order: PHASES).
_PHASE_COLORS = {
    "enqueue-wait": "#f59e0b",
    "service": "#2563eb",
    "migration-pause": "#8b5cf6",
    "stall": "#dc2626",
}


def _critical_path_section(
    explain: Mapping[str, Any], top_k: int = 8
) -> str:
    """Latency waterfall of an explain document: stacked per-phase bars
    for the top operators.

    Each row is one operator's mean per-sink-tuple latency contribution,
    split into phase segments — the flame-graph view of where an
    end-to-end millisecond actually went.  Bars share one scale so row
    lengths compare directly.
    """
    if explain["spans_closed"] == 0:
        return ""
    top = explain["ranking"][:top_k]
    if not top:
        return ""
    section = explain["critical_path"]
    operators = section["operators"]
    scale = max(operators[name]["seconds"] for name in top)
    if scale <= 0:
        return ""
    bar_width, row_height, label_pad = 420, 22, 120
    width = bar_width + label_pad + 80
    height = len(top) * row_height + 4
    parts = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} '
        f'{height}" role="img">'
    ]
    for row, operator in enumerate(top):
        entry = operators[operator]
        y = row * row_height
        parts.append(
            f'<text x="0" y="{y + row_height - 8}" font-size="11" '
            f'fill="#333">{_esc(operator)}</text>'
        )
        x = float(label_pad)
        for phase in PHASES:
            mean = entry["phases"].get(phase, 0.0)
            segment = (mean / scale) * bar_width
            if segment <= 0:
                continue
            parts.append(
                f'<rect x="{x:.2f}" y="{y + 2}" width="{segment:.2f}" '
                f'height="{row_height - 8}" '
                f'fill="{_PHASE_COLORS[phase]}"/>'
            )
            x += segment
        parts.append(
            f'<text x="{x + 4:.2f}" y="{y + row_height - 8}" '
            f'font-size="10" fill="#555">'
            f"{entry['seconds'] * 1e3:.3f} ms</text>"
        )
    parts.append("</svg>")
    legend = " &middot; ".join(
        f'<span style="color:{_PHASE_COLORS[p]}">&#9632;</span> {_esc(p)}'
        for p in PHASES
    )
    mean_ms = explain["mean_latency"] * 1e3
    return (
        "<h2>Latency critical path</h2>"
        f"<p class='meta'>mean end-to-end latency {mean_ms:.3f} ms over "
        f"{explain['sink_tuples']} sink tuples; "
        f"{section['attributed_ratio']:.2%} attributed to "
        "(operator, phase) pairs</p>"
        + "".join(parts)
        + f"<p class='legend'>{legend} — bar length is the operator's "
        "mean per-tuple latency contribution</p>"
    )


def _events_section(analysis: TraceAnalysis) -> str:
    if not analysis.events_by_type:
        return ""
    rows = [
        (_code(name), _num(count))
        for name, count in sorted(analysis.events_by_type.items())
    ]
    return "<h2>Events by type</h2>" + _table(("type", "count"), rows)


def _rows_section(result: Mapping[str, object]) -> str:
    rows = result.get("rows")
    if not isinstance(rows, list) or not rows:
        return ""
    columns: List[str] = []
    for row in rows:
        if isinstance(row, Mapping):
            for key in row:
                if key not in columns:
                    columns.append(str(key))
    body = [
        [
            _num(_fmt(value)) if isinstance(value, float) else _td(value)
            for value in (row.get(column, "") for column in columns)
        ]
        for row in rows if isinstance(row, Mapping)
    ]
    return "<h2>Experiment rows</h2>" + _table(columns, body)


def _phase_section(metrics: Mapping[str, object]) -> str:
    family = metrics.get("repro_phase_seconds")
    if not isinstance(family, Mapping):
        return ""
    samples = family.get("samples")
    if not isinstance(samples, list) or not samples:
        return ""
    rows = []
    for sample in samples:
        if not isinstance(sample, Mapping):
            continue
        labels = sample.get("labels", {})
        phase = labels.get("phase", "?") if isinstance(labels, Mapping) \
            else "?"
        count = int(sample.get("count", 0))  # type: ignore[arg-type]
        total = float(sample.get("sum", 0.0))  # type: ignore[arg-type]
        mean = total / count if count else 0.0
        rows.append((_code(phase), _num(count), _num(f"{total * 1e3:.2f}"),
                     _num(f"{mean * 1e3:.2f}")))
    if not rows:
        return ""
    return "<h2>Profiled phases</h2>" + _table(
        ("phase", "calls", "total ms", "mean ms"), rows
    )


def render_html_report(run: Run) -> str:
    """Render one recorded run as a self-contained HTML document."""
    sections: List[str] = [_manifest_section(run), _headline_section(
        run.result
    )]
    index = run.index()
    if index.events:
        analysis = analyze_trace(index)
        utilization = utilization_timeline(index)
        horizon = float(analysis.meta["horizon"])
        sections.append("<h2>Utilization heatmap</h2>")
        sections.append(_svg_heatmap(
            utilization, migrations=analysis.migrations, horizon=horizon,
            faults=analysis.faults,
        ))
        sections.append(
            "<p class='legend'>rows are nodes, columns are "
            f"{_fmt(float(analysis.meta['step_seconds']))}s bins; blue "
            "depth is utilization, red marks &gt; 1.0, dashed lines are "
            "applied migrations, solid red lines are injected faults</p>"
        )
        sections.append(_nodes_section(analysis, utilization))
        sections.append(_operators_section(analysis))
        sections.append(_critical_path_section(run.document("explain")))
        sections.append(_decisions_section(analysis))
        sections.append(_drift_section(analysis))
        sections.append(_migrations_section(analysis))
        sections.append(_faults_section(analysis))
        sections.append(_events_section(analysis))
    sections.append(_rows_section(run.result))
    sections.append(_phase_section(run.metrics))
    title = f"run {run.manifest.run_id} ({run.manifest.kind})"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}</style>\n"
        "</head><body>\n"
        f"<h1>{_esc(title)}</h1>\n"
        + "\n".join(s for s in sections if s)
        + "\n</body></html>\n"
    )


def write_html_report(run: Run, path: str) -> str:
    """Write :func:`render_html_report` output to ``path``; returns it."""
    document = render_html_report(run)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return path
