#!/usr/bin/env python3
"""Compares the "results" records of two bench_unnesting JSON reports.

Usage:
    bench_compare.py <baseline.json> <current.json> [--threshold PCT]

Records are matched on (experiment, engine, scale, threads) and printed with
their wall-time delta. Records present on only one side are reported as
added/removed rather than being an error — a report from before an
experiment existed must still compare cleanly against one from after.

Pairs whose |delta| exceeds the threshold (default 25%) are flagged as
WARN. The exit code is always 0 — benchmark noise in shared CI runners
makes regressions advisory, not blocking; the WARN lines are for a human
reading the job log.
"""

import argparse
import json
import sys


def key_of(rec):
    return (rec.get("experiment"), rec.get("engine"),
            rec.get("scale"), rec.get("threads"))


def sort_key(k):
    # Keys may mix None/str/int across malformed or partial records; compare
    # by stringified fields so sorting never raises TypeError.
    return tuple(str(x) for x in k)


def load(path):
    with open(path) as f:
        return json.load(f)


def timed_results(doc):
    out = {}
    for rec in doc.get("results", []):
        ms = rec.get("ms")
        if ms is None or ms <= 0:
            continue
        # Duplicate keys (repeated experiments) keep the last record, which
        # matches the report's own "latest run wins" reading.
        out[key_of(rec)] = ms
    return out


def pct_delta(base, cur):
    if not base:
        return 0.0
    return (cur - base) / base * 100.0


def compare_results(base_doc, cur_doc, threshold):
    base = timed_results(base_doc)
    cur = timed_results(cur_doc)
    warns = 0
    shared = sorted((k for k in base if k in cur), key=sort_key)
    for k in shared:
        experiment, engine, scale, threads = k
        b, c = base[k], cur[k]
        delta = pct_delta(b, c)
        flag = ""
        if abs(delta) > threshold:
            flag = "  WARN" if delta > 0 else "  (faster)"
            warns += delta > 0
        label = f"{experiment}/{engine} scale={scale} threads={threads}"
        print(f"{label:<55} {b:10.3f} ms -> {c:10.3f} ms  {delta:+7.1f}%"
              f"{flag}")
    only_base = sorted((k for k in base if k not in cur), key=sort_key)
    only_cur = sorted((k for k in cur if k not in base), key=sort_key)
    for k in only_base:
        print(f"results: removed (baseline only): {k}")
    for k in only_cur:
        print(f"results: added (current only):    {k}")
    return len(shared), warns


def main():
    ap = argparse.ArgumentParser(
        description="Per-experiment deltas between bench reports")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="warn when |delta| exceeds this percentage")
    args = ap.parse_args()

    pairs, warns = compare_results(load(args.baseline), load(args.current),
                                   args.threshold)
    if pairs == 0:
        print("bench_compare: no shared records; nothing to compare")
        return
    print(f"bench_compare: {pairs} pairs compared, {warns} regression "
          f"warning(s) over {args.threshold:.0f}%")
    if warns:
        print("bench_compare: WARN lines are advisory — shared-runner "
              "timing noise regularly exceeds the threshold; investigate "
              "only when a warning persists across runs", file=sys.stderr)


if __name__ == "__main__":
    main()
