"""Exporters: JSONL, Chrome trace-event, Prometheus text, span-tree render.

Three audiences, three formats:

* **JSONL** — one JSON object per line, records and spans interleaved in a
  stable order; the archival format for post-hoc analysis with standard
  line-oriented tooling.
* **Chrome trace-event** — the ``{"traceEvents": [...]}`` JSON that
  ``chrome://tracing`` / Perfetto load directly. Spans become complete
  ("X") events with microsecond timestamps; flat records become instant
  ("i") events on their source's track.
* **Prometheus text** — the plain-text exposition format for the metrics
  registry: dots in ``layer.component.metric`` become underscores, labels
  render in braces, histograms expand to ``_count``/``_sum`` plus quantile
  samples.

``render_span_tree`` is the human-facing view: the causal tree indented by
depth, used by ``python -m repro control-demo``.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Optional, Union

from .metrics import MetricsRegistry
from .spans import Span

__all__ = [
    "export_jsonl",
    "chrome_trace",
    "export_chrome_trace",
    "prometheus_text",
    "render_span_tree",
]


def _span_lines(spans: Iterable[Span]) -> Iterable[str]:
    for span in spans:
        payload = span.to_dict()
        payload["record"] = "span"
        yield json.dumps(payload, sort_keys=True)


def export_jsonl(trace, fh: Optional[IO[str]] = None) -> str:
    """Serialise a :class:`~repro.sim.tracing.TraceLog` as JSON lines.

    Flat records come first (in emit order, exactly their ``to_json`` form),
    then spans (in open order, tagged ``"record": "span"``). Returns the
    text; also writes it to ``fh`` when given.
    """
    lines = [record.to_json() for record in trace.records]
    lines.extend(_span_lines(trace.spans.values()))
    text = "\n".join(lines) + ("\n" if lines else "")
    if fh is not None:
        fh.write(text)
    return text


def chrome_trace(trace, *, process_name: str = "repro") -> dict[str, Any]:
    """Build a Chrome trace-event dict from a TraceLog.

    Simulated seconds map to trace microseconds. Each distinct span/record
    source gets its own thread track so the per-layer timelines read
    side-by-side. Spans still open at export time are drawn up to the
    current simulated clock and flagged ``status: "open"``.
    """
    tids: dict[str, int] = {}

    def tid_for(source: str) -> int:
        if source not in tids:
            tids[source] = len(tids) + 1
        return tids[source]

    events: list[dict[str, Any]] = []
    now = trace.env.now
    for span in trace.spans.values():
        end = span.end if span.end is not None else now
        args = dict(span.details)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args["status"] = span.status if span.closed else "open"
        events.append({
            "name": span.kind,
            "cat": span.source,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": 1,
            "tid": tid_for(span.source),
            "args": args,
        })
    for record in trace.records:
        args = dict(record.details)
        if record.span_id is not None:
            args["span_id"] = record.span_id
        events.append({
            "name": record.kind,
            "cat": record.source,
            "ph": "i",
            "s": "t",
            "ts": record.time * 1e6,
            "pid": 1,
            "tid": tid_for(record.source),
            "args": args,
        })
    # Thread-name metadata makes the tracks legible in the viewer.
    for source, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": source},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"process": process_name, "sim_now_s": now},
    }


def export_chrome_trace(trace, fh: Optional[IO[str]] = None, **kwargs: Any
                        ) -> str:
    text = json.dumps(chrome_trace(trace, **kwargs), sort_keys=True)
    if fh is not None:
        fh.write(text)
    return text


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_escape(value: str) -> str:
    """Label-value escaping per the exposition format: backslash, double
    quote, and newline must be escaped or a value like ``he said "hi"``
    corrupts every sample after it."""
    return (value.replace("\\", r"\\")
                 .replace('"', r'\"')
                 .replace("\n", r"\n"))


def _prom_labels(labels: dict[str, str],
                 extra: Optional[dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_prom_escape(str(v))}"'
                     for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _prom_value(value: Any) -> str:
    if value is None:
        return "NaN"
    return f"{float(value):g}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus plain-text exposition format."""
    out: list[str] = []
    seen_types: set[str] = set()
    for name, labels, kind, value in registry.collect():
        pname = _prom_name(name)
        if pname not in seen_types:
            seen_types.add(pname)
            prom_kind = "summary" if kind == "histogram" else kind
            out.append(f"# TYPE {pname} {prom_kind}")
        if kind == "histogram":
            out.append(f"{pname}_count{_prom_labels(labels)} "
                       f"{_prom_value(value['count'])}")
            out.append(f"{pname}_sum{_prom_labels(labels)} "
                       f"{_prom_value(value['sum'])}")
            for q_key, q in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
                out.append(
                    f"{pname}{_prom_labels(labels, {'quantile': q})} "
                    f"{_prom_value(value[q_key])}")
        else:
            out.append(f"{pname}{_prom_labels(labels)} {_prom_value(value)}")
    return "\n".join(out) + ("\n" if out else "")


def render_span_tree(trace, *, root: Union[Span, int, None] = None,
                     max_depth: int = 12) -> str:
    """Indented causal tree of a TraceLog's spans.

    Roots are spans with no parent (or whose parent lives in another log);
    pass ``root=`` to render one subtree. Each line shows timing, status and
    a compact detail summary.
    """
    spans = list(trace.spans.values())
    children: dict[Optional[int], list[Span]] = {}
    ids = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        children.setdefault(parent, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.start, s.span_id))

    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        if depth > max_depth:
            lines.append("  " * depth + "...")
            return
        dur = f"{span.duration:.3f}s" if span.closed else "open"
        detail = ", ".join(f"{k}={v}" for k, v in list(span.details.items())[:4])
        suffix = f" [{detail}]" if detail else ""
        lines.append(
            f"{'  ' * depth}#{span.span_id} {span.source}:{span.kind} "
            f"@{span.start:.3f} {dur} {span.status}{suffix}")
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    if root is not None:
        root_span = trace.get_span(root.span_id if isinstance(root, Span)
                                   else root)
        roots = [root_span] if root_span is not None else []
    else:
        roots = children.get(None, [])
    for r in roots:
        walk(r, 0)
    return "\n".join(lines) + ("\n" if lines else "")
