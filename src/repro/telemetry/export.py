"""Exporters: Prometheus text, JSON snapshots, Chrome trace-event JSON.

Three ways telemetry leaves the process:

* :func:`render_prometheus` — the text exposition format every
  Prometheus-compatible scraper understands (``# HELP``/``# TYPE``
  headers, escaped label values, cumulative histogram buckets).
  :func:`parse_prometheus` is the deliberately tiny inverse used by the
  CI smoke job to prove the output is well-formed.
* :func:`registry_to_json` — one nested dict for dashboards and the
  ``serve-bench --metrics-json`` artifact.
* :func:`timeline_to_chrome` / :func:`traces_to_chrome` — Chrome
  trace-event JSON (the format Perfetto and ``chrome://tracing`` load)
  built from executor step timelines and finished request traces.
  Worker threads become named tracks; every event is a complete ``X``
  event with microsecond ``ts``/``dur``.  :func:`validate_chrome_trace`
  re-checks an exported file's invariants (valid JSON, non-negative
  monotonically consistent times) without any browser involved.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .registry import MetricFamily, MetricsRegistry, get_registry
from .tracing import RequestTrace, Span

# -- Prometheus text exposition ---------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry's current state in Prometheus text exposition format."""
    registry = registry or get_registry()
    lines: List[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} "
                         f"{_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            if sample.labels:
                rendered = ",".join(
                    f'{key}="{_escape_label(value)}"'
                    for key, value in sample.labels)
                lines.append(f"{sample.name}{{{rendered}}} "
                             f"{_format_value(sample.value)}")
            else:
                lines.append(f"{sample.name} "
                             f"{_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Tiny exposition-format parser (the CI validity check).

    Returns ``{family_name: {"type": kind, "samples": {(sample_name,
    labels_tuple): value}}}``.  Raises ``ValueError`` on any malformed
    line, which is the point: feeding it :func:`render_prometheus`
    output proves the exposition is parseable.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family_for(sample_name: str) -> Optional[Dict[str, object]]:
        for suffix in ("", "_bucket", "_sum", "_count"):
            base = sample_name[:-len(suffix)] if suffix and \
                sample_name.endswith(suffix) else (
                    sample_name if not suffix else None)
            if base and base in families:
                return families[base]
        return None

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP")
            families.setdefault(parts[2], {"type": None, "samples": {}})
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "untyped"):
                raise ValueError(f"line {lineno}: malformed TYPE")
            entry = families.setdefault(parts[2],
                                        {"type": None, "samples": {}})
            entry["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue
        name, labels, value = _parse_sample_line(line, lineno)
        entry = family_for(name)
        if entry is None:
            entry = families.setdefault(name, {"type": None, "samples": {}})
        entry["samples"][(name, labels)] = value
    return families


def _parse_sample_line(line: str, lineno: int):
    brace = line.find("{")
    if brace != -1:
        close = line.rfind("}")
        if close == -1 or close < brace:
            raise ValueError(f"line {lineno}: unbalanced braces")
        name = line[:brace]
        label_text = line[brace + 1:close]
        rest = line[close + 1:].strip()
        labels = []
        for chunk in _split_labels(label_text, lineno):
            key, _, raw = chunk.partition("=")
            if not raw.startswith('"') or not raw.endswith('"'):
                raise ValueError(f"line {lineno}: unquoted label value")
            value = raw[1:-1].replace('\\"', '"') \
                .replace("\\n", "\n").replace("\\\\", "\\")
            labels.append((key, value))
        labels_key = tuple(labels)
    else:
        name, _, rest = line.partition(" ")
        rest = rest.strip()
        labels_key = ()
    if not name or not name.replace("_", "").replace(":", "").isalnum():
        raise ValueError(f"line {lineno}: bad metric name {name!r}")
    token = rest.split(" ")[0] if rest else ""
    try:
        value = float(token.replace("+Inf", "inf"))
    except ValueError:
        raise ValueError(f"line {lineno}: bad sample value {token!r}")
    return name, labels_key, value


def _split_labels(text: str, lineno: int) -> List[str]:
    chunks: List[str] = []
    current = []
    in_quotes = False
    escaped = False
    for ch in text:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\" and in_quotes:
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            chunks.append("".join(current))
            current = []
            continue
        current.append(ch)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label quote")
    if current:
        chunks.append("".join(current))
    return [chunk for chunk in chunks if chunk]


# -- Human-readable summary -------------------------------------------------


def render_summary(registry: Optional[MetricsRegistry] = None) -> str:
    """Fixed-width operator summary of the registry.

    Counters and gauges print one ``name value`` line.  Histogram
    families get count/sum/p50/p95/p99 columns, with the percentiles
    estimated from the log buckets via
    :func:`repro.telemetry.registry.quantile_from_buckets` (linear
    interpolation within a bucket, Prometheus
    ``histogram_quantile``-style) — no raw samples are retained, so
    the estimate is exact only at bucket boundaries.
    """
    from .registry import quantile_from_buckets

    registry = registry or get_registry()
    scalar_lines: List[str] = []
    histogram_rows: List[tuple] = []
    for family in registry.collect():
        if family.kind != "histogram":
            for sample in family.samples:
                label = sample.name
                if sample.labels:
                    rendered = ",".join(f"{key}={value}" for key, value
                                        in sample.labels)
                    label = f"{sample.name}{{{rendered}}}"
                scalar_lines.append(
                    f"{label:<52} {_format_value(sample.value):>12}")
            continue
        # Regroup the exploded _bucket/_sum/_count samples per label
        # set and de-cumulate the buckets for the quantile estimator.
        grouped: Dict[tuple, Dict[str, object]] = {}
        for sample in family.samples:
            plain = tuple((key, value) for key, value in sample.labels
                          if key != "le")
            entry = grouped.setdefault(
                plain, {"bounds": [], "cumulative": [], "sum": 0.0,
                        "count": 0})
            if sample.name.endswith("_bucket"):
                bound = dict(sample.labels)["le"]
                if bound != "+Inf":
                    entry["bounds"].append(float(bound))
                entry["cumulative"].append(int(sample.value))
            elif sample.name.endswith("_sum"):
                entry["sum"] = sample.value
            elif sample.name.endswith("_count"):
                entry["count"] = int(sample.value)
        for plain, entry in grouped.items():
            cumulative = entry["cumulative"]
            counts = [cumulative[0]] + [
                cumulative[index] - cumulative[index - 1]
                for index in range(1, len(cumulative))]
            label = family.name
            if plain:
                rendered = ",".join(f"{key}={value}"
                                    for key, value in plain)
                label = f"{family.name}{{{rendered}}}"
            quantiles = [quantile_from_buckets(entry["bounds"], counts, q)
                         for q in (0.5, 0.95, 0.99)]
            histogram_rows.append(
                (label, entry["count"], entry["sum"], *quantiles))
    lines = scalar_lines
    if histogram_rows:
        if lines:
            lines.append("")
        lines.append(f"{'histogram':<52} {'count':>8} {'sum':>12} "
                     f"{'p50':>10} {'p95':>10} {'p99':>10}")
        for label, count, total, p50, p95, p99 in histogram_rows:
            lines.append(f"{label:<52} {count:>8} {total:>12.4f} "
                         f"{p50:>10.5f} {p95:>10.5f} {p99:>10.5f}")
    return "\n".join(lines) + "\n"


# -- JSON snapshot ----------------------------------------------------------


def registry_to_json(registry: Optional[MetricsRegistry] = None) -> Dict:
    """A JSON-serializable snapshot of every family and sample."""
    registry = registry or get_registry()
    families = []
    for family in registry.collect():
        families.append({
            "name": family.name,
            "type": family.kind,
            "help": family.help,
            "samples": [
                {"name": sample.name,
                 "labels": dict(sample.labels),
                 "value": sample.value}
                for sample in family.samples
            ],
        })
    return {"version": 1, "families": families}


# -- Chrome trace events ----------------------------------------------------

_SECONDS_TO_US = 1e6


def _thread_tracks(thread_ids: Sequence[int]) -> Dict[int, int]:
    """Stable compact tid assignment: caller thread first, then workers."""
    order: List[int] = []
    for ident in thread_ids:
        if ident not in order:
            order.append(ident)
    return {ident: index for index, ident in enumerate(order)}


def _metadata_events(tracks: Mapping[int, int], pid: int,
                     process: str = "repro") -> List[Dict]:
    events = []
    events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": process}})
    for ident, tid in sorted(tracks.items(), key=lambda kv: kv[1]):
        label = "caller" if tid == 0 else f"worker-{tid}"
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": label,
                                            "ident": ident}})
    return events


def timeline_to_chrome(timelines: Sequence[Sequence[Mapping[str, object]]],
                       pid: int = 1,
                       offsets_s: Optional[Sequence[float]] = None
                       ) -> List[Dict]:
    """Chrome events from executor step timelines (one list per run).

    Each timeline entry is the executor's span dict (``name``/``op``/
    ``start``/``end``/``thread``) with run-relative
    seconds; ``offsets_s`` places each run on the global time axis
    (defaults to laying runs end to end with a small gap).
    """
    if offsets_s is not None and len(offsets_s) != len(timelines):
        raise ValueError("offsets_s must match the number of timelines")
    idents: List[int] = []
    for timeline in timelines:
        idents.extend(int(entry.get("thread", 0)) for entry in timeline)
    tracks = _thread_tracks(idents)
    events = _metadata_events(tracks, pid)
    cursor = 0.0
    for run, timeline in enumerate(timelines):
        if offsets_s is not None:
            offset = float(offsets_s[run])
        else:
            offset = cursor
            if timeline:
                cursor = offset + max(float(entry["end"])
                                      for entry in timeline) + 1e-4
        for entry in timeline:
            start = offset + float(entry["start"])
            duration = max(0.0, float(entry["end"]) - float(entry["start"]))
            events.append({
                "name": str(entry["name"]),
                "cat": str(entry.get("op", "step")),
                "ph": "X",
                "pid": pid,
                "tid": tracks[int(entry.get("thread", 0))],
                "ts": start * _SECONDS_TO_US,
                "dur": duration * _SECONDS_TO_US,
                "args": {"run": run},
            })
    return events


def traces_to_chrome(traces: Iterable[RequestTrace],
                     pid: int = 1) -> List[Dict]:
    """Chrome events from finished request traces (span trees).

    The serving phases of one request render on a per-request track;
    per-step execute children render on the track of the engine worker
    thread that ran the batch.

    Spans carrying a ``process`` name (the replica tier stamps remote
    spans ``replica-<index>``) render in their own Chrome *process*
    track: each distinct name gets a fresh pid (``pid+1`` onward, sorted
    by name for stability) with ``process_name``/``thread_name``
    metadata, and the replica's worker threads become compact
    ``worker-M`` rows inside it.  All span times must already be on one
    clock axis (see :mod:`repro.telemetry.clock`); the merged fleet
    trace then shows parent dispatch windows with the child execute
    spans nested inside them.
    """
    spans: List[Span] = []
    roots: List[Span] = []
    for trace in traces:
        root = trace.build_spans()
        if root is None:
            continue
        roots.append(root)
        spans.extend(root.walk())
    if not roots:
        return []
    origin = min(span.start_s for span in roots)
    step_idents = [span.thread for span in spans
                   if span.process is None and span.thread and
                   span.category not in ("request", "serving")]
    tracks = _thread_tracks(step_idents)
    step_base = 1000  # keep worker tracks clear of request tracks
    events: List[Dict] = _metadata_events(
        {ident: step_base + tid for ident, tid in tracks.items()}, pid,
        process="parent")
    # One Chrome process per remote process name, threads compacted
    # within it (tid 0 is the replica's serve loop).
    remote_threads: Dict[str, List[int]] = {}
    for span in spans:
        if span.process is not None:
            remote_threads.setdefault(span.process, []).append(span.thread)
    remote_pids: Dict[str, int] = {}
    remote_tracks: Dict[str, Dict[int, int]] = {}
    for offset, name in enumerate(sorted(remote_threads)):
        remote_pid = pid + 1 + offset
        remote_pids[name] = remote_pid
        track = _thread_tracks([0] + remote_threads[name])
        remote_tracks[name] = track
        events.append({"name": "process_name", "ph": "M",
                       "pid": remote_pid, "tid": 0,
                       "args": {"name": name}})
        for ident, tid in sorted(track.items(), key=lambda kv: kv[1]):
            label = "main" if tid == 0 else f"worker-{tid}"
            events.append({"name": "thread_name", "ph": "M",
                           "pid": remote_pid, "tid": tid,
                           "args": {"name": label, "ident": ident}})
    for index, root in enumerate(roots):
        request_tid = index % 100
        for span in root.walk():
            if span.process is not None:
                span_pid = remote_pids[span.process]
                tid = remote_tracks[span.process].get(span.thread, 0)
            elif span.category in ("request", "serving"):
                span_pid, tid = pid, request_tid
            else:
                span_pid = pid
                tid = step_base + tracks.get(span.thread, 0)
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "pid": span_pid,
                "tid": tid,
                "ts": (span.start_s - origin) * _SECONDS_TO_US,
                "dur": span.duration_s * _SECONDS_TO_US,
                "args": dict(span.args),
            })
    return events


def chrome_trace_processes(payload) -> Dict[int, str]:
    """``pid -> process name`` from a trace's metadata events.

    Accepts the parsed JSON object, a raw string, or a bare event list;
    used by tests and the CI smoke job to assert a merged fleet trace
    really carries parent + per-replica tracks.
    """
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    events = payload.get("traceEvents", []) if isinstance(payload, dict) \
        else payload
    names: Dict[int, str] = {}
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "M" and \
                event.get("name") == "process_name":
            names[int(event["pid"])] = str(event["args"]["name"])
    return names


def write_chrome_trace(path, events: Sequence[Mapping]) -> None:
    """Write a Perfetto-loadable trace file (JSON object format)."""
    payload = {"traceEvents": list(events), "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))


def validate_chrome_trace(payload) -> List[Dict]:
    """Check trace-event invariants; returns the complete events.

    Accepts the parsed JSON object (or a raw string) and raises
    ``ValueError`` unless every ``X`` event has non-negative ``ts`` and
    ``dur`` (monotonic consistency: ``ts + dur`` never precedes ``ts``),
    a name, and integer ``pid``/``tid``; metadata (``M``) events naming
    process/thread tracks must carry a string ``args.name``, and no two
    ``process_name`` events may claim the same pid with different
    names.  Used by the CI smoke job on the uploaded artifact.
    """
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("traceEvents"), list):
        raise ValueError("trace must be an object with a traceEvents list")
    complete: List[Dict] = []
    process_names: Dict[int, str] = {}
    for index, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"event {index}: not a trace event object")
        if event["ph"] == "M":
            if event.get("name") in ("process_name", "thread_name"):
                if not isinstance(event.get("pid"), int):
                    raise ValueError(f"event {index}: metadata pid "
                                     "must be an int")
                label = event.get("args", {}).get("name") \
                    if isinstance(event.get("args"), dict) else None
                if not isinstance(label, str) or not label:
                    raise ValueError(f"event {index}: metadata track "
                                     "needs a string args.name")
                if event["name"] == "process_name":
                    pid = event["pid"]
                    if process_names.get(pid, label) != label:
                        raise ValueError(
                            f"event {index}: pid {pid} named both "
                            f"{process_names[pid]!r} and {label!r}")
                    process_names[pid] = label
            continue
        if event["ph"] != "X":
            raise ValueError(f"event {index}: unsupported phase "
                             f"{event['ph']!r}")
        if not event.get("name"):
            raise ValueError(f"event {index}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"event {index}: {key} must be an int")
        ts, dur = event.get("ts"), event.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {index}: bad ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            raise ValueError(f"event {index}: bad dur {dur!r}")
        complete.append(event)
    if not complete:
        raise ValueError("trace contains no complete (ph=X) events")
    return complete
