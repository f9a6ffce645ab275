#!/usr/bin/env bash
# End-to-end smoke of `oshil serve`: daemon lifecycle, the health and
# stats endpoints, protocol robustness (malformed JSON gets a typed
# parse-failure and the daemon keeps serving), CLI/daemon byte-identity
# on a real scenario and on the natural and dcsweep ops, fault-injection through the serve-request site
# (retry recovery, and typed degradation with retries off), the
# graceful SIGTERM drain contract (exit 0, socket removed, trace
# flushed), and a daemon with the result cache on whose repeated and
# waveform responses match the cache-off bytes. Driven by
# `dune build @serve-smoke`; also in CI.
#
# Usage: serve_smoke.sh path/to/oshil.exe path/to/scenario.scn path/to/netlist.cir
set -u

USAGE="usage: serve_smoke.sh OSHIL_EXE SCENARIO NETLIST"
OSHIL=${1:?$USAGE}
SCN=${2:?$USAGE}
NET=${3:?$USAGE}
case "$OSHIL" in /*) ;; *) OSHIL=$PWD/$OSHIL ;; esac
case "$SCN" in /*) ;; *) SCN=$PWD/$SCN ;; esac
case "$NET" in /*) ;; *) NET=$PWD/$NET ;; esac

# Unix socket paths are length-limited (~107 bytes); dune build dirs can
# exceed that, so the sockets live in a throwaway /tmp dir.
DIR=$(mktemp -d /tmp/oshil-serve-smoke.XXXXXX)
SOCK=$DIR/s.sock
SRV=
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "serve-smoke: FAIL: $*" >&2
  exit 1
}

wait_sock() {
  for _ in $(seq 1 200); do
    [ -S "$1" ] && return 0
    sleep 0.05
  done
  return 1
}

drain() { # drain <pid> <what>: SIGTERM must be a clean exit-0 shutdown
  kill -TERM "$1" 2>/dev/null || fail "$2: daemon already gone"
  wait "$1"
  rc=$?
  [ "$rc" -eq 0 ] || fail "$2: drain exited $rc (want 0)"
  SRV=
}

# --- leg 1: lifecycle, endpoints, robustness, byte-identity ----------

"$OSHIL" serve -l "unix:$SOCK" --trace "$DIR/t1.jsonl" \
  > "$DIR/srv1.log" 2>&1 &
SRV=$!
wait_sock "$SOCK" || fail "daemon socket never appeared"

"$OSHIL" call -c "unix:$SOCK" health | grep -q '"status":"ok"' \
  || fail "health endpoint"

# the report field carries the stats JSON as an escaped string
"$OSHIL" call -c "unix:$SOCK" stats | grep -qF '\"queue\":{\"depth\":' \
  || fail "stats endpoint"

# a garbage line must come back as a typed parse-failure...
"$OSHIL" call -c "unix:$SOCK" --raw 'this is not json' \
  | grep -q '"code":"parse-failure"' || fail "malformed line not typed"

# ...and must not have taken the daemon down
"$OSHIL" call -c "unix:$SOCK" ping | grep -q '"report":"pong"' \
  || fail "daemon did not survive malformed input"

# the daemon's response bytes are exactly the in-process Api bytes
"$OSHIL" api scenario --file "$SCN" --id smoke > "$DIR/local.out"
"$OSHIL" call -c "unix:$SOCK" scenario --file "$SCN" --id smoke \
  > "$DIR/wire.out"
diff "$DIR/local.out" "$DIR/wire.out" \
  || fail "daemon response differs from local api"

# likewise for analysis ops the subcommands run through the same request
for op in natural dcsweep; do
  "$OSHIL" api "$op" --osc diffpair --id "smoke-$op" > "$DIR/$op.local"
  grep -q '"status":"ok"' "$DIR/$op.local" || fail "api $op did not succeed"
  "$OSHIL" call -c "unix:$SOCK" "$op" --osc diffpair --id "smoke-$op" \
    > "$DIR/$op.wire"
  diff "$DIR/$op.local" "$DIR/$op.wire" \
    || fail "daemon $op response differs from local api"
done

drain "$SRV" "leg1"
[ ! -e "$SOCK" ] || fail "socket file not removed on drain"

# --- leg 2: transient fault at serve-request -> retry recovers -------

OSHIL_FAULTS=serve-request@0 "$OSHIL" serve -l "unix:$SOCK" \
  --backoff 0.01 --trace "$DIR/t2.jsonl" > "$DIR/srv2.log" 2>&1 &
SRV=$!
wait_sock "$SOCK" || fail "leg2: daemon socket never appeared"

"$OSHIL" call -c "unix:$SOCK" ping | grep -q '"status":"ok"' \
  || fail "retry did not recover the faulted request"

drain "$SRV" "leg2"
"$OSHIL" stats "$DIR/t2.jsonl" \
  --assert-counter resilience.faults.serve-request \
  --assert-counter serve.retries > /dev/null \
  || fail "leg2: fault/retry counters missing from flushed trace"

# --- leg 3: retries off -> typed degradation, daemon survives --------

OSHIL_FAULTS=serve-request "$OSHIL" serve -l "unix:$SOCK" \
  --retries 0 --trace "$DIR/t3.jsonl" > "$DIR/srv3.log" 2>&1 &
SRV=$!
wait_sock "$SOCK" || fail "leg3: daemon socket never appeared"

"$OSHIL" call -c "unix:$SOCK" ping | grep -q '"code":"fault-injected"' \
  || fail "injected fault not surfaced as a typed error"

# health is answered inline, outside the faulted worker path
"$OSHIL" call -c "unix:$SOCK" health | grep -q '"status":"ok"' \
  || fail "daemon did not survive the injected fault"

drain "$SRV" "leg3"
"$OSHIL" stats "$DIR/t3.jsonl" \
  --assert-counter resilience.faults.serve-request > /dev/null \
  || fail "leg3: fault counter missing from flushed trace"

# --- leg 4: cache on -> repeats and waveforms keep the cache-off bytes

# reference bytes from the in-process api with the cache forced off
TRAN_ARGS=(--file "$NET" --tstop 1e-7 --dt 2e-11 --probe t)
OSHIL_CACHE=0 "$OSHIL" api shil --id c-shil > "$DIR/shil.ref"
OSHIL_CACHE=0 "$OSHIL" api netlist-tran "${TRAN_ARGS[@]}" --id c-tran \
  > "$DIR/tran.ref"

"$OSHIL" serve -l "unix:$SOCK" --cache --cache-dir "$DIR/cache" \
  --trace "$DIR/t4.jsonl" > "$DIR/srv4.log" 2>&1 &
SRV=$!
wait_sock "$SOCK" || fail "leg4: daemon socket never appeared"

# the first shil request fills the cache, the second is served from it
for k in 1 2; do
  "$OSHIL" call -c "unix:$SOCK" shil --id c-shil > "$DIR/shil.$k"
  diff "$DIR/shil.ref" "$DIR/shil.$k" \
    || fail "leg4: shil response $k with the cache on differs from cache off"
done
"$OSHIL" call -c "unix:$SOCK" netlist-tran "${TRAN_ARGS[@]}" --id c-tran \
  > "$DIR/tran.out"
diff "$DIR/tran.ref" "$DIR/tran.out" \
  || fail "leg4: netlist-tran response with the cache on differs from cache off"

drain "$SRV" "leg4"
[ -d "$DIR/cache/shil.lockrange" ] || fail "leg4: no lock range was cached"
"$OSHIL" stats "$DIR/t4.jsonl" --assert-counter cache.hits > /dev/null \
  || fail "leg4: the repeated shil request did not hit the cache"

echo "serve-smoke: PASS"
