#!/bin/sh
# End-to-end exercise of sgq_server + sgq_client over a Unix socket: serve,
# query (inline and @file), json stats via the CLI, RELOAD, a graceful
# SIGTERM shutdown that must drain and exit 0, refusal of an unknown
# engine, and an overload flood whose latency percentiles must count only
# served replies. Any failure aborts.
set -e
CLI="$1"
SERVER="$2"
CLIENT="$3"
DIR="$(mktemp -d)"
SOCK="$DIR/sgq.sock"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --out "$DIR/db.txt" --graphs 30 --vertices 20 --degree 3 \
  --labels 5 --seed 11
"$CLI" genq --db "$DIR/db.txt" --out "$DIR/q.txt" --edges 5 --count 6 \
  --seed 4

# The CLI json format must emit a parsable summary object.
"$CLI" query --db "$DIR/db.txt" --queries "$DIR/q.txt" --engine CFQL \
  --format json | grep -q '"summary":{"num_queries":6'

"$SERVER" --db "$DIR/db.txt" --socket "$SOCK" --engine CFQL --workers 2 \
  --queue 16 > "$DIR/server.log" 2>&1 &
SERVER_PID=$!
for i in $(seq 1 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "server did not come up" >&2; exit 1; }

"$CLIENT" --socket "$SOCK" --op query --queries "$DIR/q.txt" --repeat 3 \
  --connections 3 --quiet 1 | grep -q "summary: ok 18,"
"$CLIENT" --socket "$SOCK" --op stats | grep -q '"completed_ok":18'
"$CLIENT" --socket "$SOCK" --op reload | grep -q "OK reloaded 30 graphs"
# A malformed inline request must be rejected, not crash the server.
printf 'NONSENSE\n' | timeout 5 sh -c \
  "\"$CLIENT\" --socket \"$SOCK\" --op stats > /dev/null" # server still alive
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q "drained, final stats" "$DIR/server.log"
[ ! -S "$SOCK" ] || { echo "socket file not removed" >&2; exit 1; }

# A retired engine name is refused up front with an error message (exit
# status 2), not a Fatal abort inside the engine factory.
STATUS=0
"$SERVER" --db "$DIR/db.txt" --socket "$DIR/retired.sock" \
  --engine CFQL-parallel-intra 2> "$DIR/retired.err" || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "retired engine: exit $STATUS" >&2; exit 1; }
grep -q "unknown engine: CFQL-parallel-intra" "$DIR/retired.err"

# Overload flood: one worker, one queue slot, eight connections sending a
# query that can only time out — a 7-cycle against K_{20,20}, which holds
# no odd cycle but passes every filter. Requests arriving while the slot
# is taken are refused with OVERLOADED at once; the latency line must
# count only the served (OK + TIMEOUT) replies.
awk 'BEGIN { print "t # 0"; for (v = 0; v < 40; v++) print "v " v " 0";
  for (a = 0; a < 20; a++) for (b = 20; b < 40; b++) print "e " a " " b }' \
  > "$DIR/kmm.txt"
awk 'BEGIN { print "t # 0"; for (v = 0; v < 7; v++) print "v " v " 0";
  for (v = 0; v < 7; v++) print "e " v " " (v + 1) % 7 }' > "$DIR/c7.txt"
FLOOD_SOCK="$DIR/flood.sock"
"$SERVER" --db "$DIR/kmm.txt" --socket "$FLOOD_SOCK" --engine CFQL \
  --workers 1 --queue 1 --cache off > "$DIR/flood.log" 2>&1 &
FLOOD_PID=$!
for i in $(seq 1 50); do
  [ -S "$FLOOD_SOCK" ] && break
  sleep 0.1
done
[ -S "$FLOOD_SOCK" ] || { echo "flood server did not come up" >&2; exit 1; }
OUT="$("$CLIENT" --socket "$FLOOD_SOCK" --op query --graph "$DIR/c7.txt" \
  --timeout 0.3 --repeat 16 --connections 8 --quiet 1)"
kill -TERM "$FLOOD_PID"
wait "$FLOOD_PID"
SUMMARY="$(echo "$OUT" | sed -n 's/^summary: ok \([0-9]*\), timeout \([0-9]*\), overloaded \([0-9]*\),.*/\1 \2 \3/p')"
set -- $SUMMARY
OK_N="$1"; TIMEOUT_N="$2"; OVERLOADED_N="$3"
LATENCY_N="$(echo "$OUT" | sed -n 's/^latency: .*(\([0-9]*\) requests)$/\1/p')"
[ "${OVERLOADED_N:-0}" -gt 0 ] || { echo "flood drew no OVERLOADED: $OUT" >&2; exit 1; }
[ "$LATENCY_N" -eq $((OK_N + TIMEOUT_N)) ] || {
  echo "latency counts $LATENCY_N replies, served $((OK_N + TIMEOUT_N)): $OUT" >&2
  exit 1
}
echo "server_test OK"
