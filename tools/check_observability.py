#!/usr/bin/env python3
"""Validates the observability artifacts of a bench run and a server run.

Usage:
    check_observability.py <bench.json> <metrics.prom> <trace.json>
    check_observability.py --server <server.prom> <ring.json> <trace.json>
    check_observability.py --metrics-off <server.prom> <ring.json>

The first form checks what bench_unnesting --quick --metrics --json writes:
  * the benchmark report carries its commit/timestamp header, profiled
    records with non-empty per-operator stats and compile-stage times, and
    an embedded metrics snapshot with sane counters;
  * the Prometheus text exposition is well-formed (TYPE lines, cumulative
    histogram buckets, _count == +Inf bucket, well-formed OpenMetrics
    exemplar suffixes on bucket lines);
  * the Chrome trace-event JSON (bench_trace.json: TraceToChromeJson's
    rendering of one profiled parallel request, built by the same span
    builder as every served trace) is loadable, its events are well-formed,
    its spans form one tree (the span-tree rule below, read from each
    event's args), and spans within one (pid, tid) lane nest properly (a
    worker lane never has two morsels overlapping halfway).

--server checks what an ldb_server run leaves behind (docs/OBSERVABILITY.md,
"Request tracing"):
  * server.prom — its --metrics-dump: connection and byte counters moved,
    HELLO and EXECUTE frames were counted, everything the server accepted
    was counted, and the latency histograms carry at least one exemplar
    linking a bucket to a trace id;
  * ring.json — its --trace-dump / SIGUSR1 trace-ring snapshot: counters
    consistent, at least one kept trace, and every kept trace carries a
    valid sample_reason, 16-hex trace id, and a span tree that obeys the
    span-tree rule;
  * trace.json — one trace fetched over INTROSPECT (oqlsh .fetch-trace),
    as Chrome trace-event JSON: the checks above, plus `request` and
    `execute` spans.

--metrics-off checks the opposite build: an ldb_server compiled with
-DLDB_METRICS=OFF pins every query/connection counter at zero with no
exemplars anywhere, and its trace-ring dump shows tracing compiled out too
(capacity 0, nothing submitted or kept). That such a server still serves is
checked where its traffic is sent. This guards the include seam
tools/lint_layering.py enforces: runtime sees obs only through
obs/resource.h, so turning metrics off must never take the server with it.

The span-tree rule, one function for both trace formats: exactly one
root, unique nonzero span ids, every parent resolves within the trace, and
no span starts before the origin or has a negative duration.

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


def check_span_tree(where, spans):
    """The span-tree rule over (span_id, parent_span_id, name, start, dur)
    tuples of one trace."""
    ids = set()
    roots = 0
    for span_id, parent, name, start, dur in spans:
        if not isinstance(span_id, int) or span_id == 0 or span_id in ids:
            fail(f"{where}: duplicate/zero span_id {span_id!r}")
        ids.add(span_id)
        if not isinstance(start, (int, float)) or start < 0:
            fail(f"{where}: span {name!r} has bad start {start!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"{where}: span {name!r} has bad duration {dur!r}")
        roots += parent == 0
    if roots != 1:
        fail(f"{where}: {roots} roots (want exactly 1)")
    for span_id, parent, name, _, _ in spans:
        if parent != 0 and parent not in ids:
            fail(f"{where}: span {name!r} parent {parent} does not resolve")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")

    lanes = defaultdict(list)
    tree = []
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            fail(f"{path}: event {i} has unsupported phase {ph!r}")
        if ph == "M":
            continue
        if not ev.get("name"):
            fail(f"{path}: complete event {i} has no name")
        args = ev.get("args", {})
        ts, dur = ev.get("ts"), ev.get("dur")
        tree.append((args.get("span_id"), args.get("parent_span_id"),
                     ev["name"], ts, dur))
        lanes[(ev.get("pid"), ev.get("tid"))].append((ts, dur, ev["name"]))

    if not lanes:
        fail(f"{path}: only metadata events, no spans")
    check_span_tree(path, tree)

    spans = 0
    for (pid, tid), lane in lanes.items():
        # Start order; of two spans that start together the longer one
        # encloses the other, so it comes first.
        lane.sort(key=lambda span: (span[0], -span[1]))
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
    return {name for _, _, name, _, _ in tree}


def check_bench(path):
    with open(path) as f:
        doc = json.load(f)
    if not doc.get("commit") or not doc.get("timestamp"):
        fail(f"{path}: missing commit/timestamp provenance header")
    profiled = [r for r in doc.get("results", []) if "profile" in r]
    if not profiled:
        fail(f"{path}: no record carries a profile block")
    for r in profiled:
        where = f"{path}: {r.get('experiment')} scale {r.get('scale')}"
        if not r["profile"].get("operators"):
            fail(f"{where}: profile block has no operator stats")
        if not r.get("compile_trace", {}).get("stages"):
            fail(f"{where}: compile trace has no stages")
    print(f"bench profiles OK: {len(profiled)} profiled records")

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
        for s in spans:
            for key in ("span_id", "parent_span_id", "name", "lane",
                        "start_ms", "dur_ms"):
                if key not in s:
                    fail(f"{path}: trace {tid} span missing {key!r}: {s}")
        check_span_tree(f"{path}: trace {tid}",
                        [(s["span_id"], s["parent_span_id"], s["name"],
                          s["start_ms"], s["dur_ms"]) for s in spans])
        n_spans += len(spans)
    print(f"trace ring OK: {len(traces)} kept trace(s), {n_spans} spans, "
          f"{doc['submitted']} submitted / {doc['dropped']} dropped")


def check_metrics_off(prom_path, ring_path):
    """Asserts a -DLDB_METRICS=OFF server's dumps show every instrument
    compiled out."""
    # The registry still exists when compiled out (call sites stay
    # #ifdef-free), so the dump is well-formed — but nothing may have
    # counted. A moving counter here means some instrument escaped the
    # LDB_METRICS_ENABLED gate.
    exemplars = check_prometheus(prom_path)
    if exemplars != 0:
        fail(f"{prom_path}: {exemplars} exemplar(s) in a -DLDB_METRICS=OFF "
             "build — exemplar capture escaped the compile-out gate")
    samples = parse_prom_samples(prom_path)
    for name in ("ldb_queries_started_total", "ldb_queries_ok_total",
                 "ldb_connections_total", "ldb_net_bytes_recv_total",
                 "ldb_plan_cache_hits_total", "ldb_plan_cache_misses_total",
                 "ldb_morsels_dispatched_total"):
        moved = sum(v for _, v in samples.get(name, []))
        if moved != 0:
            fail(f"{prom_path}: {name} = {moved} in a -DLDB_METRICS=OFF "
                 "build — an instrument escaped the compile-out gate")
    print("metrics-off dump OK: all instruments pinned at zero")
    check_trace_ring(ring_path, expect_empty=True)


def usage():
    print(__doc__, file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    if args[:1] == ["--metrics-off"]:
        if len(args) != 3:
            usage()
        check_metrics_off(*args[1:])
        print("metrics-off build OK")
    elif args[:1] == ["--server"]:
        if len(args) != 4:
            usage()
        check_server(args[1])
        check_trace_ring(args[2])
        names = check_trace(args[3])
        if "request" not in names or "execute" not in names:
            fail(f"{args[3]}: fetched trace lacks a request or execute span: "
                 f"{sorted(names)}")
        print("server artifacts OK")
    elif len(args) == 3:
        check_bench(args[0])
        check_prometheus(args[1])
        check_trace(args[2])
        print("bench artifacts OK")
    else:
        usage()


if __name__ == "__main__":
    main()
