#!/usr/bin/env bash
# Observability smoke test: boots mmdb_server with workload capture and
# tracing, drives the example scripts, then checks the three PR-9
# surfaces end to end:
#
#   1. METRICS answers a parseable Prometheus text exposition whose
#      families stay the same and whose counters are monotonic across
#      two polls, and --status has a line for every STATS section;
#   2. EXPLAIN ANALYZE carries est_rows / actual_rows / err columns and
#      STATS carries the worst-misestimates table;
#   3. the capture file replays cleanly against a fresh server
#      (scripts/replay.sh), statement for statement.
#
# Artifacts (metrics dumps, capture, replay report) land in
# $OBS_ARTIFACTS when set (CI uploads them), else a temp dir.
#
#   dune build && scripts/observability_smoke.sh
set -euo pipefail

PORT="${MMDB_SMOKE_PORT:-7478}"
SERVER=_build/default/bin/mmdb_server.exe
CLIENT=_build/default/bin/mmdb_client.exe
ART="${OBS_ARTIFACTS:-$(mktemp -d)}"
mkdir -p "$ART"
LOG="$ART/server.log"
CAPTURE="$ART/capture.jsonl"
ANALYZE_SQL="$(mktemp --suffix=.sql)"

cleanup() {
  if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$ANALYZE_SQL"
}
trap cleanup EXIT

"$SERVER" --port "$PORT" --trace --capture "$CAPTURE" >"$LOG" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if "$CLIENT" --port "$PORT" --ping >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
"$CLIENT" --port "$PORT" --ping

# drive a workload: the good script, then the failing one (captured
# errors must replay as errors)
"$CLIENT" --port "$PORT" examples/server_smoke.sql >/dev/null
if "$CLIENT" --port "$PORT" examples/server_smoke_bad.sql >/dev/null 2>&1; then
  echo "FAIL: bad script did not exit non-zero" >&2
  exit 1
fi

# EXPLAIN ANALYZE surfaces the cardinality-feedback columns
cat > "$ANALYZE_SQL" <<'SQL'
EXPLAIN ANALYZE SELECT Name FROM Employee WHERE Age BETWEEN 20 AND 30;
SQL
ANALYZE_OUT="$("$CLIENT" --port "$PORT" "$ANALYZE_SQL")"
echo "$ANALYZE_OUT" | grep -q 'est_rows'
echo "$ANALYZE_OUT" | grep -q 'actual_rows'
echo "$ANALYZE_OUT" | grep -q 'err'

# STATS carries the worst-misestimates table and the windowed figures
STATS_OUT="$("$CLIENT" --port "$PORT" --stats)"
echo "$STATS_OUT" | grep -q '"worst_misestimates"'
echo "$STATS_OUT" | grep -q '"last_60s"'
echo "$STATS_OUT" | grep -q '"captured"'

# STATUS renders the same registry: every top-level STATS section has a
# "section:" line in --status
echo "$STATS_OUT" > "$ART/stats.json"
"$CLIENT" --port "$PORT" --status > "$ART/status.txt"
python3 - "$ART/stats.json" "$ART/status.txt" <<'PY'
import json, sys

stats = json.load(open(sys.argv[1]))
lines = open(sys.argv[2]).read().splitlines()
for section in stats:
    assert any(l.startswith(section + ":") for l in lines), \
        f"--status has no {section}: line"
print(f"status output OK: {len(stats)} sections")
PY

# two METRICS polls: both must parse as Prometheus text exposition, and
# every counter must be monotonic between them
"$CLIENT" --port "$PORT" --metrics > "$ART/metrics_1.txt"
"$CLIENT" --port "$PORT" "$ANALYZE_SQL" >/dev/null
"$CLIENT" --port "$PORT" --metrics > "$ART/metrics_2.txt"

python3 - "$ART/metrics_1.txt" "$ART/metrics_2.txt" <<'PY'
import sys

def parse(path):
    samples, types, helps = {}, {}, set()
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                assert len(line.split(None, 3)) == 4, f"{path}:{lineno}: bad HELP"
                helps.add(line.split()[2])
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                assert len(parts) == 4, f"{path}:{lineno}: bad TYPE"
                assert parts[3] in ("counter", "gauge", "histogram"), \
                    f"{path}:{lineno}: unknown type {parts[3]}"
                types[parts[2]] = parts[3]
                continue
            assert not line.startswith("#"), f"{path}:{lineno}: stray comment"
            key, _, value = line.rpartition(" ")
            assert key, f"{path}:{lineno}: no sample name"
            float(value)  # must parse
            name = key.split("{", 1)[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base.removesuffix(suffix) in types:
                    base = base.removesuffix(suffix)
            assert base in types, f"{path}:{lineno}: sample {name} has no TYPE"
            samples[key] = (base, float(value))
    assert samples, f"{path}: no samples at all"
    assert helps == set(types), f"{path}: HELP and TYPE families differ"
    return samples, types

s1, t1 = parse(sys.argv[1])
s2, t2 = parse(sys.argv[2])
# one registry renders every poll: the same families, the same types
assert t1 == t2, f"families changed between polls: {set(t1) ^ set(t2)}"
for key, (base, v1) in s1.items():
    if t1.get(base) == "counter" and key in s2:
        v2 = s2[key][1]
        assert v2 >= v1, f"counter {key} went backwards: {v1} -> {v2}"
# the second poll saw more requests than the first
r1 = s1["mmdb_requests_total"][1]
r2 = s2["mmdb_requests_total"][1]
assert r2 > r1, f"mmdb_requests_total did not advance: {r1} -> {r2}"
print(f"prometheus output OK: {len(s2)} samples, {len(t2)} families")
PY

# --watch renders at least one deltas line without erroring
"$CLIENT" --port "$PORT" --watch --interval 0.2 --count 2 | tee "$ART/watch.txt"
grep -q 'qps' "$ART/watch.txt"

# stop the capture server; the capture must be non-empty JSONL
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
[[ -s "$CAPTURE" ]]
head -1 "$CAPTURE" | grep -q '^{'
grep -q '"sql"' "$CAPTURE"
CAPTURED_LINES=$(wc -l < "$CAPTURE")
echo "captured $CAPTURED_LINES statements"

# the capture replays cleanly against a fresh server (same config:
# tracing changes EXPLAIN ANALYZE's operator rows, so replay fidelity
# needs the flags the capture ran under)
MMDB_REPLAY_PORT=$((PORT + 1)) scripts/replay.sh "$CAPTURE" --trace \
  | tee "$ART/replay.txt"
grep -q 'replay clean' "$ART/replay.txt"

echo "observability smoke test passed (artifacts in $ART)"
