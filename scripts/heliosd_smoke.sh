#!/usr/bin/env bash
# heliosd end-to-end smoke: build the server and client, pin the
# server's flag surface, start the server, drive every endpoint plus
# the hostile-input taxonomy through heliosctl, then SIGTERM the server
# mid-flight and assert a clean drain (client request completes, server
# exits 0, manifests flushed).
#
# Mirrors the CI heliosd-smoke job; run locally via `make serve-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${HELIOSD_SMOKE_PORT:-18080}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/heliosd" ./cmd/heliosd
go build -o "$WORK/heliosctl" ./cmd/heliosctl
CTL=("$WORK/heliosctl" -server "$BASE")

echo "== flag surface"
# Adding a knob is a deliberate edit to this list.
WANT_FLAGS="addr artifact-dir deadline drain insts manifest-dir max-body max-deadline queue retry-after telemetry trace-dir workers"
FLAGS="$("$WORK/heliosd" -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p' | LC_ALL=C sort | xargs)"
[ "$FLAGS" = "$WANT_FLAGS" ] || { echo "FAIL: heliosd flags are [$FLAGS], want [$WANT_FLAGS]"; exit 1; }
STATUS=0
"$WORK/heliosd" -telemetry=false -trace-dir "$WORK/never" 2>"$WORK/reject.log" || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "FAIL: -telemetry=false -trace-dir exited $STATUS, want 2"; exit 1; }
[ ! -e "$WORK/never" ] || { echo "FAIL: the rejected boot created its trace dir"; exit 1; }
echo "ok: 13 flags; a trace dir that can never fill exits 2"

echo "== start heliosd"
# Small -max-body so the oversized probe stays within shell arg limits;
# small -insts keeps every simulation sub-second.
"$WORK/heliosd" -addr "$ADDR" -insts 5000 -max-body 2048 \
  -manifest-dir "$WORK/manifests" -drain 30s 2>"$WORK/heliosd.log" &
SERVER_PID=$!
"${CTL[@]}" health -wait 15s >/dev/null
echo "ok: healthy"

echo "== run (miss, then content-cache hit)"
FIRST="$("${CTL[@]}" run -workload crc32 -mode Helios)"
grep -q '"cached":false' <<<"$FIRST" || { echo "FAIL: first run claims cached"; exit 1; }
SECOND="$("${CTL[@]}" run -workload crc32 -mode Helios)"
grep -q '"cached":true' <<<"$SECOND" || { echo "FAIL: repeat run was not a cache hit"; exit 1; }
KEY1="$(grep -o '"key":"[a-f0-9]*"' <<<"$FIRST")"
KEY2="$(grep -o '"key":"[a-f0-9]*"' <<<"$SECOND")"
[ "$KEY1" = "$KEY2" ] || { echo "FAIL: content keys differ across identical requests"; exit 1; }
echo "ok: content-addressed cache"

echo "== suite + diff"
"${CTL[@]}" suite -workloads crc32,sha -modes NoFusion,Helios | grep -q '"cells"' \
  || { echo "FAIL: suite response has no cells"; exit 1; }
"${CTL[@]}" diff -workloads crc32 -baseline NoFusion -target Helios | grep -q 'Differential report' \
  || { echo "FAIL: diff did not render"; exit 1; }
echo "ok: suite + diff"

echo "== hostile inputs: typed errors, correct statuses"
"${CTL[@]}" raw -path /v1/run -body '{"workload": nope}' -expect 400 | grep -q '"kind":"bad-request"' \
  || { echo "FAIL: malformed JSON not a typed 400"; exit 1; }
"${CTL[@]}" raw -path /v1/run -body '{"workload":"no_such_kernel"}' -expect 400 >/dev/null
"${CTL[@]}" raw -path /v1/run -body "{\"workload\":\"$(printf 'a%.0s' $(seq 1 4000))\"}" -expect 413 \
  | grep -q '"kind":"oversized"' || { echo "FAIL: oversized body not a typed 413"; exit 1; }
echo "ok: typed 400/413"

echo "== SIGTERM mid-flight drains cleanly"
# Park a fresh (uncached) request in flight, then signal the server.
"${CTL[@]}" -retries 0 run -workload qsort -mode NoFusion >"$WORK/inflight.json" &
CLIENT_PID=$!
sleep 0.1
kill -TERM "$SERVER_PID"
wait "$CLIENT_PID" || { echo "FAIL: in-flight request died during drain"; cat "$WORK/inflight.json"; exit 1; }
grep -q '"ipc"' "$WORK/inflight.json" || { echo "FAIL: drained request has no result"; exit 1; }
wait "$SERVER_PID" || { echo "FAIL: heliosd exited non-zero"; cat "$WORK/heliosd.log"; exit 1; }
grep -q 'drained clean' "$WORK/heliosd.log" || { echo "FAIL: no clean-drain log line"; exit 1; }
N_MANIFESTS="$(ls "$WORK/manifests" | wc -l)"
[ "$N_MANIFESTS" -ge 1 ] || { echo "FAIL: no manifests flushed"; exit 1; }
echo "ok: clean drain, exit 0, $N_MANIFESTS manifest(s) flushed"

echo "heliosd smoke: ALL OK"
