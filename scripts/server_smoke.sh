#!/usr/bin/env bash
# End-to-end smoke test of the network server: boots mmdb_server (with
# tracing and an everything-is-slow slow-query log), waits for it to
# answer PING, runs a scripted session, checks that a failing script
# exits non-zero, exercises EXPLAIN ANALYZE and STATS over the wire,
# checks the slow log, and shuts the server down gracefully.  Used by CI
# (server-smoke job); runnable locally:
#
#   dune build && scripts/server_smoke.sh
set -euo pipefail

PORT="${MMDB_SMOKE_PORT:-7478}"
SERVER=_build/default/bin/mmdb_server.exe
CLIENT=_build/default/bin/mmdb_client.exe
LOG="$(mktemp)"
SLOWLOG="$(mktemp)"
ANALYZE_SQL="$(mktemp --suffix=.sql)"

cleanup() {
  if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$LOG" "$SLOWLOG" "$ANALYZE_SQL"
}
trap cleanup EXIT

"$SERVER" --port "$PORT" --slow-log "$SLOWLOG" --slow-ms 0 >"$LOG" 2>&1 &
SERVER_PID=$!

# wait for the server to answer
for _ in $(seq 1 100); do
  if "$CLIENT" --port "$PORT" --ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$CLIENT" --port "$PORT" --ping

# a full scripted session must succeed, and its auto-commit statements
# answer with the auto-commit reply texts
SESSION_OUT="$("$CLIENT" --port "$PORT" examples/server_smoke.sql)"
echo "$SESSION_OUT" | grep -q 'tuple inserted'
echo "$SESSION_OUT" | grep -q 'tuples updated in'
echo "$SESSION_OUT" | grep -q 'tuples deleted from'

# a failing script must exit non-zero and stop at the first error
if "$CLIENT" --port "$PORT" examples/server_smoke_bad.sql 2>/dev/null; then
  echo "FAIL: bad script did not exit non-zero" >&2
  exit 1
fi

# EXPLAIN ANALYZE over the wire: per-operator rows (Value.pp quotes the
# strings, hence \"...\") with the paper's counters and a total row
cat > "$ANALYZE_SQL" <<'SQL'
EXPLAIN ANALYZE SELECT Employee.Name, Department.Name
  FROM Employee JOIN Department ON Dept = Id;
SQL
ANALYZE_OUT="$("$CLIENT" --port "$PORT" "$ANALYZE_SQL")"
echo "$ANALYZE_OUT" | grep -q 'comparisons'
echo "$ANALYZE_OUT" | grep -q 'ptr_derefs'
# nested operators are indented inside the quoted cell: match the tail
echo "$ANALYZE_OUT" | grep -q '"query"'
echo "$ANALYZE_OUT" | grep -q 'join"'
echo "$ANALYZE_OUT" | grep -q '"total"'

# STATS answers machine-readable JSON with the per-operator aggregates
STATS_OUT="$("$CLIENT" --port "$PORT" --stats)"
echo "$STATS_OUT" | grep -q '"requests"'
echo "$STATS_OUT" | grep -q '"by_kind"'
echo "$STATS_OUT" | grep -q '"operators"'
echo "$STATS_OUT" | grep -q '"revision"'

# --status prints the STATUS text: the same sections and keys as STATS
"$CLIENT" --port "$PORT" --status | grep -q 'uptime_s='
"$CLIENT" --port "$PORT" --status | grep -q 'operators:'

# the 0ms threshold made every query slow: JSONL lines with trace trees
grep -q '"trace"' "$SLOWLOG"
grep -q '"elapsed_ms"' "$SLOWLOG"
head -1 "$SLOWLOG" | grep -q '^{'

# graceful shutdown drains and reports final metrics
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q "final metrics" "$LOG"
grep -q "uptime_s=" "$LOG"

echo "server smoke test passed"
