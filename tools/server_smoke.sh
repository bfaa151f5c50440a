#!/usr/bin/env sh
# Serves the Company workload with <build-dir>/examples/ldb_server, drives
# it over TCP with one scripted oqlsh session (.connect, the SERVICE
# statement mix twice, one query that fails in execution, .stats,
# .fetch-trace slowest), and checks the server's life cycle:
#
#   * every query of the session is answered, the failing one with
#     ERROR(EVAL) on the same live connection;
#   * SIGUSR1 writes the metrics and trace-ring dumps without stopping;
#   * SIGTERM drains, and the server exits 0.
#
# It leaves server.log, oqlsh.log, server_metrics.prom and
# server_trace_ring.json in the current directory, plus slowest_trace.json
# when metrics are compiled in, for tools/check_observability.py (--server,
# or --metrics-off for a -DLDB_METRICS=OFF build).
#
# Usage:  tools/server_smoke.sh <build-dir> [port]

set -eu

BIN=$1/examples
PORT=${2:-4994}

"$BIN/ldb_server" --workload company --scale 2000 --port "$PORT" \
    --workers 4 --metrics-dump server_metrics.prom \
    --trace-dump server_trace_ring.json > server.log 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT
for i in $(seq 100); do
    grep -q "listening on" server.log && break
    sleep 0.1
done
grep "listening on" server.log

TYPE_A="select distinct struct(D: d.name, total: sum(select e.salary from e in Employees where e.dno = d.dno)) from d in Departments"
TYPE_JA="select distinct e.name from e in Employees where e.salary < max(select m.salary from m in Managers where e.age > m.age)"
COUNT_BUG="select distinct d.name from d in Departments where count(select e from e in Employees where e.dno = d.dno) = 0"
"$BIN/oqlsh" company 10 > oqlsh.log 2>&1 <<EOF
.connect 127.0.0.1:$PORT
.prepare lookup select distinct e.name from e in Employees where e.dno = \$1
$TYPE_A
$TYPE_JA
$COUNT_BUG
.exec lookup 1
$TYPE_A
$TYPE_JA
$COUNT_BUG
.exec lookup 2
sum(select 1 / (e.age - e.age) from e in Employees)
.stats
.fetch-trace slowest slowest_trace.json
.quit
EOF
cat oqlsh.log
answered=$(grep -c "| remote)$" oqlsh.log || true)
if [ "$answered" -ne 8 ]; then
    echo "FAIL: $answered of 8 queries answered" >&2
    exit 1
fi
grep -q "error: server error \[EVAL\]" oqlsh.log

# Live snapshot mid-serve: SIGUSR1 must dump without stopping.
kill -USR1 "$SRV"
for i in $(seq 50); do
    grep -q "SIGUSR1, trace ring" server.log && break
    sleep 0.1
done
grep "SIGUSR1" server.log
test -s server_metrics.prom
test -s server_trace_ring.json

# Clean drain: SIGTERM must produce exit code 0, not a timeout.
kill -TERM "$SRV"
wait "$SRV"
cat server.log
grep -q "draining" server.log
echo "server smoke OK: 8 answered, 1 EVAL error, SIGUSR1 dump, clean drain"
