#!/usr/bin/env bash
# Refresh the checked-in performance baselines.  Runs the server, join
# (batched execution), advisor and micro experiments with JSONL output and
# rewrites BENCH_server.json / BENCH_join.json / BENCH_advisor.json /
# BENCH_micro.json at the repo root, then asserts the acceptance bounds
# from the fresh JSONL:
# under 2x overload, shed requests must exist (typed Overloaded replies)
# and the accepted p99 must stay within 3x the uncontended p99
# (`overload_ok`); with MVCC on, reader p99 under a background
# bulk-update writer must stay within 2x the uncontended reader p99
# (`mvcc_read_ok`); batch size 256 must beat batch size 1 (the
# tuple-at-a-time ablation) by >= 1.3x on scan_select; the 50%-hot-key
# partitioned join must land within 2x of uniform keys with at least one
# role reversal; and on the adversarial drift workload
# the cost-based planner plus index advisor must beat the rule-based
# baseline with at least one index created and one dropped
# (`advisor_ok`).  Bounded phases are retried a couple
# of times before failing: timing ratios on a loaded shared host carry
# scheduler noise even after the bench's own median smoothing.
#
#   dune build && scripts/bench_baseline.sh [--scale F]
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${BENCH_SCALE:-1.0}"
if [[ "${1:-}" == "--scale" && -n "${2:-}" ]]; then
  SCALE="$2"
fi

BENCH=_build/default/bench/main.exe
[[ -x "$BENCH" ]] || { echo "build first: dune build" >&2; exit 2; }

check_overload() { # file -> 0 if the overload and mvcc records pass
  python3 - "$1" <<'PY'
import json, sys
overload_ok = False
mvcc_ok = False
for line in open(sys.argv[1]):
    rec = json.loads(line)
    if rec.get("experiment") != "server":
        continue
    if "overload_ok" in rec:
        print(
            "overload: accepted p99 %.3fms, uncontended p99 %.3fms, "
            "ratio %.2f, shed %d, ok=%d"
            % (
                rec["p99_accepted_ms"],
                rec["p99_uncontended_ms"],
                rec["p99_ratio"],
                rec["shed"],
                rec["overload_ok"],
            )
        )
        overload_ok = bool(rec["overload_ok"]) and rec["shed"] > 0
    if rec.get("mix") == "mvcc-read":
        print(
            "mvcc-read (mvcc=%d): contended p99 %.3fms, uncontended p99 "
            "%.3fms, ratio %.2f, bulk updates %d"
            % (
                rec["mvcc"],
                rec["p99_contended_ms"],
                rec["p99_uncontended_ms"],
                rec["p99_ratio"],
                rec["bulk_updates"],
            )
        )
        if rec["mvcc"] == 1:
            mvcc_ok = rec.get("mvcc_read_ok") == 1
sys.exit(0 if overload_ok and mvcc_ok else 1)
PY
}

echo "== server experiment (scale $SCALE) =="
for attempt in 1 2 3; do
  rm -f BENCH_server.json
  "$BENCH" --only server --scale "$SCALE" --out BENCH_server.json
  if check_overload BENCH_server.json; then
    break
  elif [[ "$attempt" == 3 ]]; then
    echo "FAIL: overload/mvcc bound violated on $attempt consecutive runs" >&2
    exit 1
  else
    echo "overload/mvcc bound missed (attempt $attempt), retrying..." >&2
  fi
done

check_batch() { # file -> 0 if the batched-execution records pass
  python3 - "$1" <<'PY'
import json, sys
# acceptance bounds: batch size 256 >= 1.3x rows/sec over batch size 1
# on scan_select at 30k scale (hash join's gain comes from its
# value-carrying chains, which batch size 1 keeps, so it has no bound),
# and the 50%-hot-key partitioned join within 2x of uniform keys with at
# least one role reversal.
speedups = {}
skew = None
for line in open(sys.argv[1]):
    rec = json.loads(line)
    if rec.get("experiment") != "join":
        continue
    if rec.get("section") == "batch_speedup":
        speedups[rec["op"]] = rec["speedup"]
    if rec.get("section") == "skew":
        skew = rec
ok = True
for op in ("scan_select",):
    s = speedups.get(op)
    print("batch speedup %-12s %s (need >= 1.3)" % (op, "%.2fx" % s if s else "missing"))
    ok = ok and s is not None and s >= 1.3
if skew is None:
    print("skew record missing")
    ok = False
else:
    print(
        "skew ratio %.2fx (need <= 2.0), role_reversals %d"
        % (skew["skew_ratio"], skew["role_reversals"])
    )
    ok = ok and skew["skew_ratio"] <= 2.0
    ok = ok and skew["role_reversals"] > 0
sys.exit(0 if ok else 1)
PY
}

echo "== join experiment (batched execution, scale $SCALE) =="
for attempt in 1 2 3; do
  rm -f BENCH_join.json
  "$BENCH" --only join --scale "$SCALE" --repeats 5 --out BENCH_join.json
  if check_batch BENCH_join.json; then
    break
  elif [[ "$attempt" == 3 ]]; then
    echo "FAIL: batched-execution bound violated on $attempt consecutive runs" >&2
    exit 1
  else
    echo "batched-execution bound missed (attempt $attempt), retrying..." >&2
  fi
done

check_advisor() { # file -> 0 if the advisor record passes
  python3 - "$1" <<'PY'
import json, sys
# acceptance bound (ISSUE 10): on the adversarial drift workload the
# cost-based planner plus index advisor must beat the rule-based
# baseline outright (speedup > 1.0 net of analyze/advise/build time),
# and the advisor must have both created and dropped indices across the
# hot-column drift.  The bench itself folds all of that into advisor_ok.
ok = False
for line in open(sys.argv[1]):
    rec = json.loads(line)
    if rec.get("experiment") != "advisor":
        continue
    print(
        "advisor: rule %.4fs, cost+advisor %.4fs, speedup %.2fx, "
        "created %d, dropped %d, active %d, ok=%d"
        % (
            rec["rule_s"],
            rec["cost_s"],
            rec["speedup"],
            rec["created"],
            rec["dropped"],
            rec["active"],
            rec["advisor_ok"],
        )
    )
    ok = rec["advisor_ok"] == 1 and rec["speedup"] > 1.0
sys.exit(0 if ok else 1)
PY
}

echo "== advisor experiment (cost-based planning + index advisor, scale $SCALE) =="
for attempt in 1 2 3; do
  rm -f BENCH_advisor.json
  "$BENCH" --only advisor --scale "$SCALE" --out BENCH_advisor.json
  if check_advisor BENCH_advisor.json; then
    break
  elif [[ "$attempt" == 3 ]]; then
    echo "FAIL: advisor bound violated on $attempt consecutive runs" >&2
    exit 1
  else
    echo "advisor bound missed (attempt $attempt), retrying..." >&2
  fi
done

echo "== micro experiment =="
rm -f BENCH_micro.json
"$BENCH" --only micro --scale "$SCALE" --out BENCH_micro.json

# Append one summary record per refresh to BENCH_trend.jsonl: the
# headline numbers of each baseline, stamped with revision and date, so
# performance drift across PRs is a one-file time series.
python3 - "$SCALE" <<'PY'
import json, subprocess, sys, time

def load(path):
    try:
        return [json.loads(l) for l in open(path)]
    except OSError:
        return []

server = load("BENCH_server.json")
join = load("BENCH_join.json")
advisor = load("BENCH_advisor.json")
micro = load("BENCH_micro.json")

trend = {
    "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "rev": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True).stdout.strip() or "unknown",
    "scale": float(sys.argv[1]),
}
for rec in server:
    if "overload_ok" in rec:
        trend["overload_p99_ratio"] = rec["p99_ratio"]
    if rec.get("mix") == "mvcc-read" and rec.get("mvcc") == 1:
        trend["mvcc_read_p99_ratio"] = rec["p99_ratio"]
    if rec.get("mix") == "read-only (parallel readers)" and rec.get("clients") == 8:
        trend["readonly_8c_req_per_s"] = rec.get("req_per_s")
    if rec.get("mix") == "50/50 insert+select" and rec.get("clients") == 1:
        trend["mixed_1c_req_per_s"] = rec.get("req_per_s")
for rec in join:
    if rec.get("section") == "batch_speedup":
        trend["batch_speedup_" + rec["op"]] = rec["speedup"]
    if rec.get("section") == "skew":
        trend["skew_ratio"] = rec["skew_ratio"]
for rec in advisor:
    if rec.get("experiment") == "advisor":
        trend["advisor_speedup"] = rec["speedup"]
for rec in micro:
    if rec.get("op") and rec.get("ns_per_op") is not None:
        trend.setdefault("micro_ns", {})[rec["op"]] = rec["ns_per_op"]

with open("BENCH_trend.jsonl", "a") as f:
    f.write(json.dumps(trend) + "\n")
print("trend record appended to BENCH_trend.jsonl")
PY

echo "baselines refreshed: BENCH_server.json BENCH_join.json BENCH_advisor.json BENCH_micro.json"
