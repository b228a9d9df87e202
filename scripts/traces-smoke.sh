#!/bin/sh
# traces-smoke: end-to-end gate for the trace-ingest subsystem
# (make traces-smoke).
#
# Boots two trace-store-enabled imtd shards behind one imtgw gateway,
# then:
#   1. records a catalog workload's trace with imtsim and uploads it
#      through the gateway twice — the second upload must be a
#      content-address hit ("already stored as"), which also proves the
#      gateway targets uploads deterministically; then replays the
#      recording with imtsim -replay, whose tagged stats must equal a
#      direct run of the workload, and requires the same file with one
#      trailing byte appended to be rejected, as the store rejects it;
#   2. runs imtload -traces against the gateway: upload twice (hit
#      asserted server-side via tracestore put-hit counters), stream a
#      trace:<digest> sweep across the 2-shard fleet, and byte-compare
#      the streamed results against an in-process replay of the very
#      same file — sharding and trace routing must not change one bit;
#   3. streams a large synthetic trace (~1GB by default; override with
#      TRACES_SMOKE_BIG_OPS=ops-per-SM) up through the gateway and
#      asserts every process's peak RSS stayed far below the blob size
#      — the chunked codec never materializes a trace in memory;
#   4. SIGTERMs shard 1 and asserts a clean drain with an "imtd:
#      traces:" summary line and tracestore_* series in the flushed
#      metrics.
set -eu

GO=${GO:-go}
BIG_OPS=${TRACES_SMOKE_BIG_OPS:-64000000}   # ops/SM x 2 SMs ~= 1GB on the wire
RSS_LIMIT_KB=524288                         # 512MB: fail if any process peaked above
WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "traces-smoke: building imtd + imtgw + imtsim + imtload"
$GO build -o "$WORK/imtd" ./cmd/imtd
$GO build -o "$WORK/imtgw" ./cmd/imtgw
$GO build -o "$WORK/imtsim" ./cmd/imtsim
$GO build -o "$WORK/imtload" ./cmd/imtload

wait_addr() { # $1 = file, $2 = pid, $3 = name
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        kill -0 "$2" 2>/dev/null || { cat "${1%.addr}.log" 2>/dev/null; echo "traces-smoke: FAILED: $3 died on startup"; exit 1; }
        sleep 0.1
    done
    echo "traces-smoke: FAILED: $3 never wrote its address file"; exit 1
}

echo "traces-smoke: starting 2 trace-enabled imtd shards (ephemeral ports)"
"$WORK/imtd" -addr 127.0.0.1:0 -addr-file "$WORK/shard1.addr" -j 2 \
    -cache-dir "$WORK/cache1" -trace-dir "$WORK/traces1" \
    -metrics-out "$WORK/shard1-metrics.prom" 2>"$WORK/shard1.log" &
SHARD1_PID=$!
PIDS="$PIDS $SHARD1_PID"
"$WORK/imtd" -addr 127.0.0.1:0 -addr-file "$WORK/shard2.addr" -j 2 \
    -cache-dir "$WORK/cache2" -trace-dir "$WORK/traces2" 2>"$WORK/shard2.log" &
SHARD2_PID=$!
PIDS="$PIDS $SHARD2_PID"
wait_addr "$WORK/shard1.addr" "$SHARD1_PID" "shard 1"
wait_addr "$WORK/shard2.addr" "$SHARD2_PID" "shard 2"
S1=$(cat "$WORK/shard1.addr"); S2=$(cat "$WORK/shard2.addr")
echo "traces-smoke: shards on $S1 $S2"

echo "traces-smoke: starting imtgw over the fleet"
"$WORK/imtgw" -addr 127.0.0.1:0 -addr-file "$WORK/imtgw.addr" \
    -shards "http://$S1,http://$S2" -probe-interval 250ms \
    2>"$WORK/imtgw.log" &
GW_PID=$!
PIDS="$PIDS $GW_PID"
wait_addr "$WORK/imtgw.addr" "$GW_PID" "imtgw"
GW=$(cat "$WORK/imtgw.addr")
echo "traces-smoke: imtgw listening on $GW"

WORKLOAD=stream-copy-16MB
MODES=none,imt,carve-low

echo "traces-smoke: recording $WORKLOAD and uploading through the gateway (twice)"
"$WORK/imtsim" -workload "$WORKLOAD" -record "$WORK/rec.trc" -upload "http://$GW" \
    | tee "$WORK/upload1.out"
grep -q ' stored as trace:' "$WORK/upload1.out" || { echo "traces-smoke: FAILED: first upload printed no digest"; exit 1; }
"$WORK/imtsim" -workload "$WORKLOAD" -record "$WORK/rec.trc" -upload "http://$GW" \
    | tee "$WORK/upload2.out"
grep -q 'already stored as trace:' "$WORK/upload2.out" || {
    echo "traces-smoke: FAILED: re-uploading identical bytes through the gateway was not a content-address hit"; exit 1; }

echo "traces-smoke: replaying the recording with imtsim -replay (must match the generator, and reject what the store rejects)"
"$WORK/imtsim" -replay "$WORK/rec.trc" -mode carve-low >"$WORK/replay.out"
"$WORK/imtsim" -workload "$WORKLOAD" -mode carve-low >"$WORK/direct.out"
REPLAY_TAGGED=$(grep 'tagged:' "$WORK/replay.out" || true)
DIRECT_TAGGED=$(grep 'tagged:' "$WORK/direct.out" || true)
if [ -z "$DIRECT_TAGGED" ] || [ "$REPLAY_TAGGED" != "$DIRECT_TAGGED" ]; then
    echo "traces-smoke: FAILED: replayed stats differ from the generator's"
    echo "  replay: $REPLAY_TAGGED"; echo "  direct: $DIRECT_TAGGED"; exit 1
fi
cp "$WORK/rec.trc" "$WORK/trailing.trc"
printf 'x' >>"$WORK/trailing.trc"
if "$WORK/imtsim" -replay "$WORK/trailing.trc" -mode carve-low >/dev/null 2>"$WORK/trailing.err"; then
    echo "traces-smoke: FAILED: imtsim -replay accepted a trace with a trailing byte"; exit 1
fi
echo "traces-smoke: replay matches the generator; trailing byte rejected: $(cat "$WORK/trailing.err")"

echo "traces-smoke: trace sweep through the gateway + ~$((BIG_OPS * 2 * 8 / 1048576))MB streamed synthetic upload"
"$WORK/imtload" -addr "$GW" -traces -trace-file "$WORK/rec.trc" \
    -sweep-modes "$MODES" -trace-big-ops "$BIG_OPS"

echo "traces-smoke: checking peak RSS stayed bounded while a ~GB blob streamed through"
for pair in "shard1:$SHARD1_PID" "shard2:$SHARD2_PID" "imtgw:$GW_PID"; do
    name=${pair%%:*}; pid=${pair##*:}
    hwm=$(awk '/VmHWM/{print $2}' "/proc/$pid/status")
    echo "traces-smoke: $name peak RSS ${hwm}KB"
    if [ "$hwm" -gt "$RSS_LIMIT_KB" ]; then
        echo "traces-smoke: FAILED: $name peaked at ${hwm}KB (> ${RSS_LIMIT_KB}KB): the upload path materialized the blob"
        exit 1
    fi
done

echo "traces-smoke: draining shard 1 (SIGTERM)"
kill -TERM "$SHARD1_PID"
DRAIN_OK=0
for _ in $(seq 1 300); do
    if ! kill -0 "$SHARD1_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
    sleep 0.1
done
if [ "$DRAIN_OK" != 1 ]; then
    echo "traces-smoke: FAILED: shard 1 did not drain within 30s"
    exit 1
fi
wait "$SHARD1_PID" 2>/dev/null || { echo "traces-smoke: FAILED: shard 1 exited nonzero"; cat "$WORK/shard1.log"; exit 1; }
grep -q 'imtd: traces:' "$WORK/shard1.log" || { echo "traces-smoke: FAILED: no trace-store drain line in shard 1 log"; cat "$WORK/shard1.log"; exit 1; }
[ -s "$WORK/shard1-metrics.prom" ] || { echo "traces-smoke: FAILED: shard 1 metrics not flushed on drain"; exit 1; }
grep -q 'tracestore_puts_total' "$WORK/shard1-metrics.prom" || { echo "traces-smoke: FAILED: tracestore_* series missing from flushed metrics"; exit 1; }
grep 'imtd: traces:' "$WORK/shard1.log"
echo "traces-smoke: PASS"
