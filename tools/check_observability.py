#!/usr/bin/env python3
"""Validates the observability artifacts bench_unnesting --metrics emits.

Usage:
    check_observability.py <bench.json> <metrics.prom> <trace.json> \
        [server.prom [ring.json [serving.json]]]
    check_observability.py --metrics-off <serving.json> [server.prom \
        [ring.json]]

Checks three things:
  * the benchmark report embeds a metrics snapshot with sane counters;
  * the Prometheus text exposition is well-formed (TYPE lines, cumulative
    histogram buckets, _count == +Inf bucket, well-formed OpenMetrics
    exemplar suffixes on bucket lines);
  * the Chrome trace-event JSON is loadable, events are well-formed with
    non-negative monotone-sortable timestamps, and spans within one
    (pid, tid) lane nest properly (a worker lane never has two morsels
    overlapping halfway).

With the optional fourth argument — a Prometheus dump from an ldb_server
run (--metrics-dump) — it additionally validates the network-front-end
instruments: connection and byte counters moved, per-opcode frame counters
are present, everything the server accepted was counted, and the latency
histograms carry at least one exemplar linking a bucket to a trace id.

With the optional fifth/sixth arguments it validates the request-tracing
artifacts (docs/OBSERVABILITY.md, "Request tracing"):
  * ring.json — an ldb_server --trace-dump / SIGUSR1 trace-ring snapshot:
    counters consistent, every kept trace carries a valid sample_reason,
    16-hex trace id, and a properly parented span tree;
  * serving.json — an ldb_loadgen --json report whose server_phases section
    must be present with non-negative phase means and a non-zero
    slowest_trace_id (the serving run issues traced requests).

The --metrics-off mode validates the opposite build: an ldb_server compiled
with -DLDB_METRICS=OFF must still *serve* (the loadgen report shows
successful requests at non-zero qps with no transport errors) while its
metrics dump proves the instruments are genuinely compiled out (every
query/connection counter pinned at zero, no exemplars anywhere) and its
trace-ring dump proves tracing compiled out too (capacity 0, nothing
submitted or kept). This guards the include seam tools/lint_layering.py
enforces: runtime sees obs only through obs/resource.h, so turning metrics
off must never take the server with it.

Exits non-zero with a message on the first violation.
"""

import json
import re
import sys
from collections import defaultdict


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# A sample line: name, optional {labels}, a float value, and an optional
# OpenMetrics exemplar suffix (` # {trace_id="<16 hex>"} <value>`) that the
# histogram bucket lines carry once a traced request landed in the bucket.
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+]+|\+Inf|NaN)"
    r"(?:\s+#\s+\{trace_id=\"([0-9a-f]{16})\"\}\s+(-?[0-9.eE+]+|\+Inf))?$"
)
TRACE_ID_RE = re.compile(r"^[0-9a-f]{16}$")


def check_prometheus(path):
    typed = {}
    samples = defaultdict(list)  # name -> [(labels, value)]
    exemplars = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram"
                ):
                    fail(f"{path}:{lineno}: malformed TYPE line: {line}")
                if parts[2] in typed:
                    fail(f"{path}:{lineno}: duplicate TYPE for {parts[2]}")
                typed[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: malformed sample line: {line}")
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            if m.group(4) is not None:
                # Exemplars only make sense on histogram bucket lines.
                if not name.endswith("_bucket"):
                    fail(f"{path}:{lineno}: exemplar on a non-bucket "
                         f"sample: {line}")
                if m.group(4) == "0" * 16:
                    fail(f"{path}:{lineno}: exemplar with the zero "
                         f"trace id: {line}")
                exemplars += 1
            samples[name].append((labels, float(value.replace("+Inf", "inf"))))

    if not typed:
        fail(f"{path}: no TYPE lines — empty exposition?")

    for name, kind in typed.items():
        if kind != "histogram":
            if not samples.get(name):
                fail(f"{path}: TYPE {name} declared but no samples")
            continue
        buckets = samples.get(name + "_bucket", [])
        if not buckets:
            fail(f"{path}: histogram {name} has no _bucket samples")
        # Buckets must be cumulative (non-decreasing in le order, which is
        # the emission order) and end at +Inf matching _count.
        prev = -1.0
        inf_cum = None
        for labels, cum in buckets:
            if cum < prev:
                fail(f"{path}: {name} buckets not cumulative at {labels}")
            prev = cum
            if 'le="+Inf"' in labels:
                inf_cum = cum
        if inf_cum is None:
            fail(f"{path}: {name} missing the +Inf bucket")
        counts = samples.get(name + "_count", [])
        if len(counts) != 1 or counts[0][1] != inf_cum:
            fail(f"{path}: {name}_count != +Inf bucket cumulative")
    print(f"prometheus OK: {len(typed)} metrics, "
          f"{sum(len(v) for v in samples.values())} samples, "
          f"{exemplars} exemplar(s)")
    return exemplars


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")

    lanes = defaultdict(list)
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            fail(f"{path}: event {i} has unsupported phase {ph!r}")
        if ph == "M":
            continue
        if not ev.get("name"):
            fail(f"{path}: complete event {i} has no name")
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: event {i} has bad ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"{path}: event {i} has bad dur {dur!r}")
        lanes[(ev.get("pid"), ev.get("tid"))].append((ts, dur, ev["name"]))

    if not lanes:
        fail(f"{path}: only metadata events, no spans")

    spans = 0
    for (pid, tid), lane in lanes.items():
        lane.sort()
        open_stack = []  # end timestamps of enclosing spans
        prev_ts = -1.0
        for ts, dur, name in lane:
            if ts < prev_ts:
                fail(f"{path}: lane {pid}/{tid} timestamps not sorted")
            prev_ts = ts
            # Timestamps are rendered with microsecond %.3f precision, so
            # adjacent spans can appear to overlap by up to ~1e-3 us.
            end = ts + dur
            while open_stack and ts >= open_stack[-1] - 2e-3:
                open_stack.pop()
            if open_stack and end > open_stack[-1] + 2e-3:
                fail(f"{path}: lane {pid}/{tid} span '{name}' "
                     f"[{ts}, {end}) overlaps its predecessor without nesting")
            open_stack.append(end)
            spans += 1
    print(f"trace OK: {spans} spans across {len(lanes)} lanes")


def check_bench(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not metrics:
        fail(f"{path}: no top-level metrics block (run with --metrics)")
    by_name = defaultdict(float)
    histograms = {}
    for s in metrics.get("samples", []):
        if "name" not in s or "type" not in s:
            fail(f"{path}: metrics sample missing name/type: {s}")
        if s["type"] == "counter":
            by_name[s["name"]] += s.get("value", 0)
        elif s["type"] == "histogram":
            histograms[s["name"]] = s
        elif s["type"] == "gauge":
            # gauges accumulate by max: ldb_operator_mem_peak_bytes has one
            # series per operator class and only the peak matters here.
            by_name[s["name"]] = max(by_name[s["name"]], s.get("value", 0))
    started = by_name.get("ldb_queries_started_total", 0)
    ok = by_name.get("ldb_queries_ok_total", 0)
    hits = by_name.get("ldb_plan_cache_hits_total", 0)
    if started <= 0:
        fail(f"{path}: ldb_queries_started_total is {started} after a "
             "service run")
    if ok <= 0 or ok > started:
        fail(f"{path}: ldb_queries_ok_total {ok} inconsistent with "
             f"started {started}")
    if hits <= 0:
        fail(f"{path}: no plan-cache hits in a repeated-statement mix")

    # Parallel-pipeline probe: the --metrics block runs morsel-parallel
    # executions, so the dispatch/busy counters must have moved.
    if by_name.get("ldb_morsels_dispatched_total", 0) <= 0:
        fail(f"{path}: ldb_morsels_dispatched_total is zero — the parallel "
             "probe did not engage")
    if by_name.get("ldb_worker_busy_ns_total", 0) <= 0:
        fail(f"{path}: ldb_worker_busy_ns_total is zero")

    # Memory attribution: peak-bytes histogram populated, at least one
    # operator class charged, and build identity present.
    mem_peak = histograms.get("ldb_query_mem_peak_bytes")
    if mem_peak is None or mem_peak.get("count", 0) <= 0:
        fail(f"{path}: ldb_query_mem_peak_bytes histogram empty")
    if mem_peak.get("sum", 0) <= 0:
        fail(f"{path}: ldb_query_mem_peak_bytes sum is zero — no query "
             "charged any tracked memory")
    if by_name.get("ldb_operator_mem_peak_bytes", 0) <= 0:
        fail(f"{path}: no operator class has a non-zero memory peak")
    build_info = [s for s in metrics.get("samples", [])
                  if s["name"] == "ldb_build_info"]
    if not build_info:
        fail(f"{path}: ldb_build_info gauge missing")
    for key in ("commit", "build_type", "metrics"):
        if key not in build_info[0].get("labels", {}):
            fail(f"{path}: ldb_build_info missing label {key!r}")
    rb = histograms.get("ldb_result_bytes")
    if rb is None or rb.get("count", 0) <= 0:
        fail(f"{path}: ldb_result_bytes histogram empty — it must be "
             "recorded for every successful query")

    # Live-introspection probe: the active_queries capture must be present
    # and each entry shaped like an ActiveQueryInfo.
    active = metrics.get("active_queries")
    if active is None:
        fail(f"{path}: metrics block has no active_queries capture")
    for q in active:
        for key in ("query_id", "session", "phase", "elapsed_ms", "rows",
                    "mem_in_use_bytes", "mem_peak_bytes", "remote"):
            if key not in q:
                fail(f"{path}: active_queries entry missing {key!r}: {q}")
        if q["phase"] not in ("queued", "compiling", "executing"):
            fail(f"{path}: active_queries entry has bad phase: {q['phase']}")
        if q["elapsed_ms"] < 0:
            fail(f"{path}: active_queries entry has negative elapsed_ms: {q}")
        # In-process bench queries have no peer; over TCP this is "ip:port".
        if not isinstance(q["remote"], str):
            fail(f"{path}: active_queries 'remote' is not a string: {q}")

    print(f"bench metrics OK: {started:.0f} started, {ok:.0f} ok, "
          f"{hits:.0f} cache hits, "
          f"{by_name['ldb_morsels_dispatched_total']:.0f} morsels, "
          f"mem peak sum {mem_peak['sum']:.0f}B, "
          f"{len(active)} active-query capture(s)")


def parse_prom_samples(path):
    """name -> [(labels-dict, value)] for every non-comment sample line."""
    out = defaultdict(list)
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: malformed sample line: {line}")
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            out[name].append((dict(label_re.findall(labels)),
                              float(value.replace("+Inf", "inf"))))
    return out


def check_server(path):
    """Validates the network instruments in an ldb_server --metrics-dump."""
    exemplars = check_prometheus(path)  # structural pass first
    samples = parse_prom_samples(path)
    if exemplars <= 0:
        fail(f"{path}: no histogram exemplars — a traced serving run must "
             "leave a trace_id on at least one latency bucket")

    def total(name):
        if name not in samples:
            fail(f"{path}: server metric {name} missing")
        return sum(v for _, v in samples[name])

    conns_total = total("ldb_connections_total")
    if conns_total <= 0:
        fail(f"{path}: ldb_connections_total is zero after a server run")
    conns_open = total("ldb_connections_open")
    if conns_open < 0 or conns_open > conns_total:
        fail(f"{path}: ldb_connections_open {conns_open} inconsistent with "
             f"total {conns_total}")
    sent = total("ldb_net_bytes_sent_total")
    recv = total("ldb_net_bytes_recv_total")
    if sent <= 0 or recv <= 0:
        fail(f"{path}: ldb_net_bytes_{{sent,recv}}_total did not move "
             f"(sent {sent}, recv {recv})")

    frames = {labels.get("op", "?"): v
              for labels, v in samples.get("ldb_net_frames_total", [])}
    if not frames:
        fail(f"{path}: ldb_net_frames_total has no per-opcode series")
    for op in ("HELLO", "EXECUTE"):
        if frames.get(op, 0) <= 0:
            fail(f"{path}: ldb_net_frames_total{{op=\"{op}\"}} is zero — "
                 "the serving run issued no such frames?")
    if frames.get("HELLO", 0) > conns_total:
        fail(f"{path}: more HELLO frames ({frames['HELLO']}) than "
             f"connections ({conns_total})")
    print(f"server metrics OK: {conns_total:.0f} connections, "
          f"{sent:.0f}B sent, {recv:.0f}B received, "
          f"frames {sorted(frames.items())}")


VALID_SAMPLE_REASONS = ("slow", "error", "head", "forced")


def check_trace_ring(path, expect_empty=False):
    """Validates an ldb_server --trace-dump / SIGUSR1 trace-ring snapshot."""
    with open(path) as f:
        doc = json.load(f)
    for key in ("capacity", "submitted", "kept", "dropped", "traces"):
        if key not in doc:
            fail(f"{path}: trace-ring snapshot missing {key!r}")
    traces = doc["traces"]
    if doc["kept"] < len(traces):
        fail(f"{path}: kept counter {doc['kept']} below the {len(traces)} "
             "traces actually present")
    if doc["submitted"] != doc["kept"] + doc["dropped"]:
        fail(f"{path}: submitted != kept + dropped "
             f"({doc['submitted']} != {doc['kept']} + {doc['dropped']})")
    if expect_empty:
        if doc["capacity"] != 0 or doc["submitted"] != 0 or traces:
            fail(f"{path}: -DLDB_METRICS=OFF trace ring is not compiled "
                 f"out: capacity {doc['capacity']}, submitted "
                 f"{doc['submitted']}, {len(traces)} trace(s)")
        print("trace ring OK: compiled out (capacity 0, nothing submitted)")
        return
    if len(traces) > doc["capacity"]:
        fail(f"{path}: {len(traces)} traces exceed capacity "
             f"{doc['capacity']}")
    if not traces:
        fail(f"{path}: trace ring kept nothing — the serving run must "
             "leave at least one sampled trace")
    n_spans = 0
    for t in traces:
        tid = t.get("trace_id", "")
        if not TRACE_ID_RE.match(tid) or tid == "0" * 16:
            fail(f"{path}: bad trace_id {tid!r}")
        if t.get("sample_reason") not in VALID_SAMPLE_REASONS:
            fail(f"{path}: trace {tid} has bad sample_reason "
                 f"{t.get('sample_reason')!r}")
        if not t.get("status"):
            fail(f"{path}: trace {tid} has no status")
        total = t.get("total_ms", -1)
        if not isinstance(total, (int, float)) or total < 0:
            fail(f"{path}: trace {tid} has bad total_ms {total!r}")
        spans = t.get("spans", [])
        if not spans:
            fail(f"{path}: trace {tid} has no spans")
        ids = set()
        roots = 0
        for s in spans:
            for key in ("span_id", "parent_span_id", "name", "lane",
                        "start_ms", "dur_ms"):
                if key not in s:
                    fail(f"{path}: trace {tid} span missing {key!r}: {s}")
            if s["span_id"] in ids or s["span_id"] == 0:
                fail(f"{path}: trace {tid} duplicate/zero span_id "
                     f"{s['span_id']}")
            ids.add(s["span_id"])
            if s["start_ms"] < 0 or s["dur_ms"] < 0:
                fail(f"{path}: trace {tid} span {s['name']!r} has negative "
                     "timing")
            roots += s["parent_span_id"] == 0
        if roots != 1:
            fail(f"{path}: trace {tid} has {roots} roots (want exactly 1)")
        for s in spans:
            if s["parent_span_id"] != 0 and s["parent_span_id"] not in ids:
                fail(f"{path}: trace {tid} span {s['name']!r} parent "
                     f"{s['parent_span_id']} does not resolve")
        n_spans += len(spans)
    print(f"trace ring OK: {len(traces)} kept trace(s), {n_spans} spans, "
          f"{doc['submitted']} submitted / {doc['dropped']} dropped")


def check_serving_phases(path):
    """Validates the server_phases section of an ldb_loadgen --json report."""
    with open(path) as f:
        doc = json.load(f)
    recs = doc.get("serving")
    if not recs:
        fail(f"{path}: no serving records — did ldb_loadgen run?")
    rec = recs[0]
    phases = rec.get("server_phases")
    if phases is None:
        fail(f"{path}: serving record has no server_phases section")
    for key in ("queue_wait_ms_mean", "queue_ms_mean", "compile_ms_mean",
                "exec_ms_mean", "serialize_ms_mean"):
        v = phases.get(key)
        if not isinstance(v, (int, float)) or v < 0:
            fail(f"{path}: server_phases.{key} is {v!r}")
    if rec.get("ok", 0) > 0 and phases.get("exec_ms_mean", 0) <= 0:
        fail(f"{path}: requests succeeded but exec_ms_mean is zero — the "
             "EXEC_OK phase extension did not come back")
    slowest = phases.get("slowest_trace_id", "")
    if not TRACE_ID_RE.match(slowest) or slowest == "0" * 16:
        fail(f"{path}: server_phases.slowest_trace_id {slowest!r} is not a "
             "real trace id — traced requests must report their ids")
    print(f"serving phases OK: exec mean {phases['exec_ms_mean']:.3f} ms, "
          f"slowest trace {slowest}")


def check_metrics_off(serving_path, prom_path=None, ring_path=None):
    """Asserts a -DLDB_METRICS=OFF server served real traffic with every
    instrument compiled out."""
    with open(serving_path) as f:
        doc = json.load(f)
    recs = doc.get("serving")
    if not recs:
        fail(f"{serving_path}: no serving records — did ldb_loadgen run?")
    rec = recs[0]
    if rec.get("ok", 0) <= 0:
        fail(f"{serving_path}: metrics-off server completed no requests: "
             f"{rec}")
    if rec.get("achieved_qps", 0) <= 0:
        fail(f"{serving_path}: metrics-off server achieved zero qps: {rec}")
    if rec.get("transport_errors", 0) != 0:
        fail(f"{serving_path}: transport errors against the metrics-off "
             f"server: {rec}")
    # The compile gate also covers trace minting: a metrics-off server must
    # not report trace ids back to the loadgen.
    phases = rec.get("server_phases")
    if phases is not None:
        slowest = phases.get("slowest_trace_id", "0" * 16)
        if slowest not in ("", "0" * 16):
            fail(f"{serving_path}: metrics-off server reported trace id "
                 f"{slowest} — trace minting escaped the compile-out gate")
    print(f"metrics-off serving OK: {rec['ok']} ok requests at "
          f"{rec['achieved_qps']:.1f} q/s")

    if prom_path is not None:
        # The registry still exists when compiled out (call sites stay
        # #ifdef-free), so the dump is well-formed — but nothing may have
        # counted. A moving counter here means some instrument escaped the
        # LDB_METRICS_ENABLED gate.
        exemplars = check_prometheus(prom_path)
        if exemplars != 0:
            fail(f"{prom_path}: {exemplars} exemplar(s) in a "
                 "-DLDB_METRICS=OFF build — exemplar capture escaped the "
                 "compile-out gate")
        samples = parse_prom_samples(prom_path)
        for name in ("ldb_queries_started_total", "ldb_queries_ok_total",
                     "ldb_connections_total", "ldb_net_bytes_recv_total",
                     "ldb_plan_cache_hits_total",
                     "ldb_plan_cache_misses_total",
                     "ldb_morsels_dispatched_total"):
            moved = sum(v for _, v in samples.get(name, []))
            if moved != 0:
                fail(f"{prom_path}: {name} = {moved} in a -DLDB_METRICS=OFF "
                     "build — an instrument escaped the compile-out gate")
        print(f"metrics-off dump OK: all instruments pinned at zero")
    if ring_path is not None:
        check_trace_ring(ring_path, expect_empty=True)


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--metrics-off":
        if len(sys.argv) not in (3, 4, 5):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_metrics_off(*sys.argv[2:])
        print("metrics-off build OK")
        return
    if len(sys.argv) not in (4, 5, 6, 7):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_bench(sys.argv[1])
    check_prometheus(sys.argv[2])
    check_trace(sys.argv[3])
    if len(sys.argv) >= 5:
        check_server(sys.argv[4])
    if len(sys.argv) >= 6:
        check_trace_ring(sys.argv[5])
    if len(sys.argv) >= 7:
        check_serving_phases(sys.argv[6])
    print("all observability artifacts OK")


if __name__ == "__main__":
    main()
