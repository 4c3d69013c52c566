#!/usr/bin/env bash
# daemon-smoke.sh — end-to-end smoke test of fastscd (run from repo root,
# or via `make daemon-smoke`). Mirrors the CI daemon-smoke job:
#
#   1. build fastscd and start it with a snapshot file
#   2. submit a 5-strategy QASM batch on a 9-qubit grid; validate every
#      result line carries a sane schedule summary
#   3. resubmit the identical batch; assert the request-scoped cache hit
#      rate exceeds 0.90
#   4. assert /metrics exports nonzero cache-region hit counters
#   5. submit one deep 36-qubit circuit with workers > 1 (a batch of one
#      job, which runs on one worker) and assert it completes and reports
#      into the fastscd_batch_duration_seconds histogram
#   6. SIGTERM; assert a clean exit that persisted the snapshot
#   7. restart against the snapshot; assert a warm start
#      (fastscd_snapshot_restored_entries > 0) and a post-restart hit rate
#      above 0.8
#   8. stop, cut the snapshot to its first 200 bytes and restart; assert
#      the daemon still becomes ready, counts one corrupt load and restores
#      nothing, logs the degrade before it listens, and compiles the batch
set -euo pipefail

PORT="${PORT:-8077}"
BASE="http://localhost:$PORT"
WORKDIR="$(mktemp -d)"
SNAP="$WORKDIR/cache.snap.gz"
DAEMON_PID=""

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() { echo "daemon-smoke: FAIL: $*" >&2; exit 1; }

# Readiness (not liveness): the daemon loads its cache snapshot before it
# opens the port, so /readyz answers 200 only once the restored entries
# are queryable; until then curl gets "connection refused".
wait_ready() {
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    fail "daemon did not become ready on $BASE"
}

start_daemon() {
    "$WORKDIR/fastscd" -addr ":$PORT" -cache-file "$SNAP" >"$WORKDIR/daemon.log" 2>&1 &
    DAEMON_PID=$!
    wait_ready
}

echo "== build"
go build -o "$WORKDIR/fastscd" ./cmd/fastscd

REQ="$WORKDIR/request.json"
python3 - "$REQ" <<'PYEOF'
import json, sys
qasm = "\n".join([
    "OPENQASM 2.0;",
    'include "qelib1.inc";',
    "qreg q[9];",
    "h q[0];", "h q[4];",
    "cz q[0],q[1];", "cz q[3],q[4];", "cz q[7],q[8];",
    "cz q[1],q[2];", "cz q[4],q[5];",
    "rz(pi/2) q[2];",
    "cz q[2],q[5];",
]) + "\n"
req = {
    "device": {"topology": "grid", "qubits": 9},
    "jobs": [
        {"id": s.lower().replace(" ", "-"), "strategy": s, "qasm": qasm}
        for s in ["Baseline N", "Baseline G", "Baseline U", "Baseline S", "ColorDynamic"]
    ],
}
with open(sys.argv[1], "w") as f:
    json.dump(req, f)
PYEOF

echo "== start (cold)"
start_daemon

echo "== submit batch (cold)"
curl -fsS -N "$BASE/v1/compile" -d @"$REQ" > "$WORKDIR/cold.ndjson"
python3 - "$WORKDIR/cold.ndjson" cold <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
results = [l for l in lines if l["type"] == "result"]
errors = [l for l in lines if l["type"] == "error"]
dones = [l for l in lines if l["type"] == "done"]
assert not errors, f"error lines: {errors}"
assert len(results) == 5, f"{len(results)} results, want 5"
assert len(dones) == 1, "want exactly one done line"
for r in results:
    d = r["result"]
    assert 0 < d["success"] <= 1, f"{r['id']}: success {d['success']}"
    assert d["depth"] > 0 and d["total_ns"] > 0, f"{r['id']}: empty schedule"
done = dones[0]
assert done["jobs"] == 5 and done["failed"] == 0, done
mode = sys.argv[2]
rate = done["cache"]["hit_rate"]
if mode == "warm":
    assert rate > 0.90, f"warm hit rate {rate} is not > 0.90"
print(f"{mode}: 5 strategies ok, hit rate {rate:.3f}")
PYEOF

echo "== resubmit identical batch (must be >90% cache hits)"
curl -fsS -N "$BASE/v1/compile" -d @"$REQ" > "$WORKDIR/warm.ndjson"
python3 - "$WORKDIR/warm.ndjson" warm <"/dev/null" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
done = [l for l in lines if l["type"] == "done"][0]
assert done["failed"] == 0, done
rate = done["cache"]["hit_rate"]
assert rate > 0.90, f"repeat-request hit rate {rate} is not > 0.90"
print(f"warm: hit rate {rate:.3f}")
PYEOF

echo "== /metrics must export nonzero cache hits"
curl -fsS "$BASE/metrics" > "$WORKDIR/metrics.txt"
python3 - "$WORKDIR/metrics.txt" <<'PYEOF'
import sys
hits = 0
for line in open(sys.argv[1]):
    if line.startswith("fastscd_cache_hits_total{"):
        hits += int(float(line.split()[-1]))
assert hits > 0, "no cache hits exported on /metrics"
print(f"metrics: {hits} cache hits across regions")
PYEOF
grep -q '^fastscd_batches_done_total 2$' "$WORKDIR/metrics.txt" \
    || fail "expected fastscd_batches_done_total 2 on /metrics"

echo "== single large circuit with workers > 1 must compile and report batch duration"
LARGE_REQ="$WORKDIR/large-request.json"
python3 - "$LARGE_REQ" <<'PYEOF'
import json, random, sys
# One deep circuit on a 6x6 grid: enough scattered slices that most
# slices miss the cache. A worker budget larger than the batch must not
# change how the single job compiles or reports.
rows = cols = 6
n = rows * cols
couplers = []
for r in range(rows):
    for c in range(cols):
        q = r * cols + c
        if c + 1 < cols:
            couplers.append((q, q + 1))
        if r + 1 < rows:
            couplers.append((q, q + cols))
rng = random.Random(7)
gates = []
for _ in range(600):
    roll = rng.randrange(4)
    if roll == 0:
        gates.append(f"h q[{rng.randrange(n)}];")
    elif roll == 1:
        gates.append(f"rz({rng.random():.6f}) q[{rng.randrange(n)}];")
    else:
        a, b = rng.choice(couplers)
        gates.append(f"cz q[{a}],q[{b}];")
qasm = "\n".join(
    ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"] + gates
) + "\n"
req = {
    "device": {"topology": "grid", "qubits": n},
    "workers": 4,
    "jobs": [{"id": "large-parallel", "strategy": "ColorDynamic", "qasm": qasm}],
}
with open(sys.argv[1], "w") as f:
    json.dump(req, f)
PYEOF
count_before=$(awk '/^fastscd_batch_duration_seconds_count / {print $2}' "$WORKDIR/metrics.txt")
curl -fsS -N "$BASE/v1/compile" -d @"$LARGE_REQ" > "$WORKDIR/large.ndjson"
python3 - "$WORKDIR/large.ndjson" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
errors = [l for l in lines if l["type"] == "error"]
results = [l for l in lines if l["type"] == "result"]
assert not errors, f"error lines: {errors}"
assert len(results) == 1, f"{len(results)} results, want 1"
d = results[0]["result"]
assert d["depth"] > 0 and d["total_ns"] > 0, "empty schedule from large circuit"
done = [l for l in lines if l["type"] == "done"][0]
assert done["jobs"] == 1 and done["failed"] == 0, done
print("large-parallel: compiled ok")
PYEOF
curl -fsS "$BASE/metrics" > "$WORKDIR/metrics-large.txt"
count_after=$(awk '/^fastscd_batch_duration_seconds_count / {print $2}' "$WORKDIR/metrics-large.txt")
sum_after=$(awk '/^fastscd_batch_duration_seconds_sum / {print $2}' "$WORKDIR/metrics-large.txt")
[ -n "$count_before" ] && [ -n "$count_after" ] && [ "$count_after" -eq $((count_before + 1)) ] \
    || fail "fastscd_batch_duration_seconds_count went $count_before -> $count_after, want +1 for the workers>1 batch"
awk -v s="$sum_after" 'BEGIN { if (s == "" || s + 0 <= 0) exit 1 }' \
    || fail "fastscd_batch_duration_seconds_sum = '$sum_after', want > 0"
echo "large-parallel: batch duration histogram count $count_before -> $count_after, sum ${sum_after}s"

echo "== SIGTERM must drain cleanly and persist the snapshot"
kill -TERM "$DAEMON_PID"
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
    fail "daemon still running 10s after SIGTERM"
fi
wait "$DAEMON_PID" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 0 ] || fail "daemon exited with status $rc (want 0); log: $(cat "$WORKDIR/daemon.log")"
[ -s "$SNAP" ] || fail "no cache snapshot at $SNAP after drain"
DAEMON_PID=""

echo "== restart must warm-start from the snapshot"
start_daemon
curl -fsS "$BASE/metrics" > "$WORKDIR/metrics2.txt"
restored=$(awk '/^fastscd_snapshot_restored_entries / {print $2}' "$WORKDIR/metrics2.txt")
[ -n "$restored" ] && [ "$restored" -gt 0 ] \
    || fail "fastscd_snapshot_restored_entries = '$restored', want > 0"
echo "restart: $restored entries restored"

echo "== warm-start requests must hit the restored cache"
curl -fsS -N "$BASE/v1/compile" -d @"$REQ" > "$WORKDIR/restart.ndjson"
python3 - "$WORKDIR/restart.ndjson" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
done = [l for l in lines if l["type"] == "done"][0]
assert done["failed"] == 0, done
rate = done["cache"]["hit_rate"]
# The snapshot carries the solver results; after a restart only the
# process-local xtalk, route and circ regions rebuild, so the floor sits
# below the same-process 0.90.
assert rate > 0.8, f"post-restart hit rate {rate} is not > 0.8"
print(f"post-restart: hit rate {rate:.3f}")
PYEOF

echo "== a damaged snapshot must degrade to a cold start, not stop the boot"
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
head -c 200 "$SNAP" > "$WORKDIR/cut.snap.gz"
mv "$WORKDIR/cut.snap.gz" "$SNAP"
start_daemon
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = 200 ] \
    || fail "/readyz is not 200 after booting on a damaged snapshot"
curl -fsS "$BASE/metrics" > "$WORKDIR/metrics3.txt"
grep -q '^fastscd_snapshot_degraded_total{reason="corrupt"} 1$' "$WORKDIR/metrics3.txt" \
    || fail "expected fastscd_snapshot_degraded_total{reason=\"corrupt\"} 1 on /metrics"
grep -q '^fastscd_snapshot_restored_entries 0$' "$WORKDIR/metrics3.txt" \
    || fail "expected fastscd_snapshot_restored_entries 0 on /metrics"
degraded_line=$(grep -n 'degraded (corrupt)' "$WORKDIR/daemon.log" | head -1 | cut -d: -f1 || true)
listening_line=$(grep -n 'listening' "$WORKDIR/daemon.log" | head -1 | cut -d: -f1 || true)
[ -n "$degraded_line" ] && [ -n "$listening_line" ] && [ "$degraded_line" -lt "$listening_line" ] \
    || fail "the degrade must be logged before the listener opens; log: $(cat "$WORKDIR/daemon.log")"
curl -fsS -N "$BASE/v1/compile" -d @"$REQ" > "$WORKDIR/degraded.ndjson"
python3 - "$WORKDIR/degraded.ndjson" <<'PYEOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
done = [l for l in lines if l["type"] == "done"][0]
assert done["jobs"] == 5 and done["failed"] == 0, done
print(f"degraded restart: corrupt snapshot discarded, 5 jobs compiled cold (hit rate {done['cache']['hit_rate']:.3f})")
PYEOF

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "daemon-smoke: PASS"
