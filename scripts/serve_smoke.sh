#!/usr/bin/env bash
# End-to-end smoke of the evaluation daemon through the real CLI:
#   - start `cerb serve` with a persistent cache,
#   - issue concurrent cold queries, then warm repeats,
#   - assert warm bytes are identical to cold bytes,
#   - ship the whole directory as one `cerb suite --server` batch, repeat
#     it warm at a different pipeline depth and under a torn-read fault,
#     and assert all three combined reports are byte-identical,
#   - SIGTERM with a request in flight and assert a clean, zero-drop drain.
# Usage: serve_smoke.sh /path/to/cerb
set -u

CERB=${1:?usage: serve_smoke.sh /path/to/cerb}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cerb-serve-smoke.XXXXXX")
SOCK="$WORK/d.sock"
FAILED=0
SERVE_PID=

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  FAILED=1
}

cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill -KILL "$SERVE_PID" 2>/dev/null
    wait "$SERVE_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# Three distinct programs: two trivial, one branchy (unsequenced updates
# explore several paths, so the cold evaluation does real work).
cat > "$WORK/t1.c" <<'EOF'
int main(void) { int x = 5; int *p = &x; return *p - 5; }
EOF
cat > "$WORK/t2.c" <<'EOF'
int main(void) { int a[2] = {1, 2}; return a[0] + a[1] - 3; }
EOF
cat > "$WORK/t3.c" <<'EOF'
#include <stdio.h>
int g;
int main(void) {
  int a = (g = 1) + (g = 2);
  printf("%d %d\n", a, g);
  return 0;
}
EOF

"$CERB" serve --socket "$SOCK" --cache-dir "$WORK/cache" --jobs 2 --quiet &
SERVE_PID=$!

# Wait for the daemon to come up.
up=0
for _ in $(seq 1 100); do
  if "$CERB" query --socket "$SOCK" --op ping >/dev/null 2>&1; then
    up=1
    break
  fi
  sleep 0.1
done
[ "$up" = 1 ] || { fail "daemon did not come up"; exit 1; }

# Concurrent cold queries (distinct sources, all presets).
for i in 1 2 3; do
  "$CERB" query "$WORK/t$i.c" --socket "$SOCK" \
    --policies concrete,defacto,strict-iso,cheri \
    --report "$WORK/cold$i.json" --quiet &
done
wait_rc=0
for job in $(jobs -p); do
  [ "$job" = "$SERVE_PID" ] && continue
  wait "$job" || wait_rc=1
done
[ "$wait_rc" = 0 ] || fail "a cold query failed"
for i in 1 2 3; do
  [ -s "$WORK/cold$i.json" ] || fail "cold$i.json missing or empty"
done

# Warm repeats must be byte-identical to the cold runs.
for i in 1 2 3; do
  "$CERB" query "$WORK/t$i.c" --socket "$SOCK" \
    --policies concrete,defacto,strict-iso,cheri \
    --report "$WORK/warm$i.json" --quiet || fail "warm query $i failed"
  cmp -s "$WORK/cold$i.json" "$WORK/warm$i.json" ||
    fail "warm$i.json differs from cold$i.json (cache replay not byte-identical)"
done

# Robustness through the real CLI: inject a deterministic client-side
# fault (the first socket write in the query process dies with EPIPE) and
# assert the retry path recovers with byte-identical results. The daemon
# is untouched — this exercises reconnect + backoff end to end.
"$CERB" query "$WORK/t1.c" --socket "$SOCK" \
  --policies concrete,defacto,strict-iso,cheri \
  --faults 'seed=3;socket.write,nth=1,errno=EPIPE' --retries 3 \
  --report "$WORK/faulted.json" --quiet ||
  fail "fault-injected query did not recover via retry"
cmp -s "$WORK/cold1.json" "$WORK/faulted.json" ||
  fail "faulted.json differs from cold1.json (retry corrupted the reply)"

# A bad fault spec must be rejected up front, not half-applied.
if "$CERB" query --socket "$SOCK" --op ping --faults 'seed=nope' \
     >/dev/null 2>&1; then
  fail "malformed --faults spec was accepted"
fi

# Cache observability: the daemon must report hits for the warm round.
STATS=$("$CERB" query --socket "$SOCK" --op stats) || fail "stats op failed"
case "$STATS" in
*'"memory_hits": 0'*) fail "expected memory hits after warm queries: $STATS" ;;
esac

# Batch rounds: the whole directory as one `cerb suite --server` batch.
# Round 1 populates the combined report; round 2 repeats it warm at a
# deliberately different pipeline depth (chunked frames instead of one);
# round 3 arms a deterministic torn read (the client's first reply read
# dies with ECONNRESET) so the idempotent resend path runs end to end.
# All three combined reports must be byte-identical.
"$CERB" suite "$WORK" --server "$SOCK" \
  --report "$WORK/batch1.json" --quiet || fail "batch suite round failed"
[ -s "$WORK/batch1.json" ] || fail "batch1.json missing or empty"
"$CERB" suite "$WORK" --server "$SOCK" --pipeline-depth 2 \
  --report "$WORK/batch2.json" --quiet || fail "chunked batch round failed"
cmp -s "$WORK/batch1.json" "$WORK/batch2.json" ||
  fail "batch2.json differs from batch1.json (pipeline depth leaked into bytes)"
"$CERB" suite "$WORK" --server "$SOCK" \
  --faults 'seed=5;socket.read,nth=1,errno=ECONNRESET' --retries 3 \
  --report "$WORK/batch3.json" --quiet ||
  fail "fault-injected batch did not recover via resend"
cmp -s "$WORK/batch1.json" "$WORK/batch3.json" ||
  fail "batch3.json differs from batch1.json (resend corrupted the stream)"

# The daemon-resident compile cache must be visible in stats and must
# have absorbed the repeats (hits, not just misses).
STATS=$("$CERB" query --socket "$SOCK" --op stats) || fail "stats op failed"
case "$STATS" in
*'"compile_cache"'*) : ;;
*) fail "stats does not expose compile_cache counters: $STATS" ;;
esac
case "$STATS" in
*'"hits": 0,'*) fail "expected compile-cache hits after batch repeats: $STATS" ;;
esac

# SIGTERM with a request in flight: the drain must finish it (zero drops).
"$CERB" query "$WORK/t3.c" --socket "$SOCK" \
  --policies concrete,defacto,strict-iso,cheri --no-cache \
  --report "$WORK/inflight.json" --quiet &
INFLIGHT_PID=$!
sleep 0.2 # let the request reach admission
kill -TERM "$SERVE_PID"

wait "$INFLIGHT_PID" || fail "in-flight query was dropped during drain"
cmp -s "$WORK/inflight.json" "$WORK/cold3.json" ||
  fail "drained in-flight response differs from the cold bytes"

wait "$SERVE_PID"
rc=$?
SERVE_PID=
[ "$rc" = 0 ] || fail "daemon exited $rc after SIGTERM (want 0)"
[ -e "$SOCK" ] && fail "socket file not removed on drain"
[ -f "$WORK/cache/index.json" ] || fail "cache index not flushed on drain"

# Post-drain queries must fail fast, not hang.
if "$CERB" query --socket "$SOCK" --op ping >/dev/null 2>&1; then
  fail "daemon still answering after drain"
fi

if [ "$FAILED" = 0 ]; then
  echo "serve_smoke: OK"
  exit 0
fi
exit 1
