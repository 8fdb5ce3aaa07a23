#!/usr/bin/env bash
# daemon_smoke.sh — end-to-end smoke test of the ntcsimd HTTP job service.
#
# Boots the daemon on a random port, submits the golden fig2 configuration
# (seed 0x5eed, warm 200k, settle 10k — the exact knobs TestGolden pins),
# watches its progress over SSE, and requires the downloaded report to be
# byte-identical to cmd/ntcsim/testdata/golden/fig2.golden. A second
# submission of the same configuration must be answered from the result
# cache. fig3 at the same knobs sweeps the same four scale-out workloads,
# so its job must be answered from the daemon's sweep memo (4 hits on
# /metrics) and still match fig3.golden byte for byte. Finally SIGTERM
# must drain the daemon to a clean exit.
#
# Run via `make daemon-smoke`. Needs only curl + a POSIX shell.
set -euo pipefail

cd "$(dirname "$0")/.."
GOLDEN=cmd/ntcsim/testdata/golden/fig2.golden
GOLDEN3=cmd/ntcsim/testdata/golden/fig3.golden
for g in "$GOLDEN" "$GOLDEN3"; do
    [ -f "$g" ] || { echo "daemon-smoke: missing $g" >&2; exit 1; }
done

work=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/ntcsimd" ./cmd/ntcsimd

# Random port: the daemon logs the kernel-assigned address on stderr.
"$work/ntcsimd" -listen 127.0.0.1:0 -workers 1 2>"$work/daemon.log" &
daemon_pid=$!

base=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^ntcsimd: listening on //p' "$work/daemon.log" | head -n1)
    if [ -n "$addr" ]; then
        base="http://$addr"
        curl -fsS "$base/healthz" >/dev/null 2>&1 && break
        base=""
    fi
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$work/daemon.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "daemon-smoke: daemon never became healthy" >&2; cat "$work/daemon.log" >&2; exit 1; }
echo "daemon-smoke: daemon healthy at $base"

# Extract a string field from the daemon's indented-JSON responses
# without depending on jq.
field() { # field <name> <file>
    sed -n 's/.*"'"$1"'": *"\([^"]*\)".*/\1/p' "$2" | head -n1
}

params='"params": {"seed": 24301, "warm_instr": 200000, "settle_cycles": 10000}'
body='{"experiment": "fig2", '"$params"'}'

curl -fsS -X POST "$base/v1/jobs" -H 'Content-Type: application/json' \
    -d "$body" >"$work/submit1.json"
job=$(field id "$work/submit1.json")
[ -n "$job" ] || { echo "daemon-smoke: no job id in response:" >&2; cat "$work/submit1.json" >&2; exit 1; }
echo "daemon-smoke: submitted $job"

# Follow the SSE stream until the terminal state event closes it; this is
# both the progress observer and the completion wait.
curl -fsSN --max-time 600 "$base/v1/jobs/$job/events" >"$work/events.sse"
grep -q '^event: progress$' "$work/events.sse" || {
    echo "daemon-smoke: no progress events on the SSE stream" >&2
    cat "$work/events.sse" >&2; exit 1
}
curl -fsS "$base/v1/jobs/$job" >"$work/status1.json"
state=$(field state "$work/status1.json")
[ "$state" = done ] || { echo "daemon-smoke: job settled as $state" >&2; cat "$work/status1.json" >&2; exit 1; }

curl -fsS "$base/v1/jobs/$job/result" >"$work/report1.txt"
cmp -s "$GOLDEN" "$work/report1.txt" || {
    echo "daemon-smoke: HTTP fig2 report differs from $GOLDEN" >&2
    diff "$GOLDEN" "$work/report1.txt" | head -n 10 >&2 || true
    exit 1
}
echo "daemon-smoke: report is byte-identical to the CLI golden"

# Resubmission of the identical configuration must be a cache hit that is
# born done and serves the same bytes.
curl -fsS -X POST "$base/v1/jobs" -H 'Content-Type: application/json' \
    -d "$body" >"$work/submit2.json"
grep -q '"cached": true' "$work/submit2.json" || {
    echo "daemon-smoke: resubmission was not served from cache:" >&2
    cat "$work/submit2.json" >&2; exit 1
}
job2=$(field id "$work/submit2.json")
curl -fsS "$base/v1/jobs/$job2/result" >"$work/report2.txt"
cmp -s "$work/report1.txt" "$work/report2.txt" || {
    echo "daemon-smoke: cached report bytes differ" >&2; exit 1
}
echo "daemon-smoke: resubmission served from cache ($job2)"

# fig3 reuses fig2's four scale-out sweeps from the daemon's sweep memo.
curl -fsS -X POST "$base/v1/jobs" -H 'Content-Type: application/json' \
    -d '{"experiment": "fig3", '"$params"'}' >"$work/submit3.json"
job3=$(field id "$work/submit3.json")
[ -n "$job3" ] || { echo "daemon-smoke: no fig3 job id:" >&2; cat "$work/submit3.json" >&2; exit 1; }
curl -fsSN --max-time 600 "$base/v1/jobs/$job3/events" >"$work/events3.sse"
curl -fsS "$base/v1/jobs/$job3" >"$work/status3.json"
state=$(field state "$work/status3.json")
[ "$state" = done ] || { echo "daemon-smoke: fig3 job settled as $state" >&2; cat "$work/status3.json" >&2; exit 1; }
curl -fsS "$base/v1/jobs/$job3/result" >"$work/report3.txt"
cmp -s "$GOLDEN3" "$work/report3.txt" || {
    echo "daemon-smoke: HTTP fig3 report differs from $GOLDEN3" >&2
    diff "$GOLDEN3" "$work/report3.txt" | head -n 10 >&2 || true
    exit 1
}
curl -fsS "$base/metrics" >"$work/metrics.json"
hits=$(sed -n 's/.*"service\/sweep_memo_hits": *\([0-9.e+]*\).*/\1/p' "$work/metrics.json" | head -n1)
[ "$hits" = 4 ] || {
    echo "daemon-smoke: /metrics shows ${hits:-no} sweep memo hits, want 4" >&2
    cat "$work/metrics.json" >&2; exit 1
}
echo "daemon-smoke: fig3 is byte-identical to its golden, served by 4 sweep memo hits"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || {
    echo "daemon-smoke: daemon exited $rc on SIGTERM" >&2
    cat "$work/daemon.log" >&2; exit 1
}
echo "daemon-smoke: PASS (drained cleanly)"
