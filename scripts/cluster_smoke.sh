#!/bin/sh
# cluster_smoke.sh — end-to-end horizontal-deployment smoke test (the
# CI cluster-smoke job, runnable locally as `make cluster-smoke`).
#
# Boots two hmeansd replicas and an hmeansgw gateway over them, replays
# the paper's 13-workload case study through the gateway, and requires:
#
#   - the gateway's rendered result is line-identical to the batch
#     hmeans CLI (the single-number contract survives the extra tier);
#   - the gateway's raw bytes are byte-identical to the serving
#     replica's direct answer (the byte-identity contract survives the
#     proxy hop), and a repeat is a cache hit routed to the same
#     sticky replica;
#   - a concurrent burst of one fresh request costs the fleet exactly
#     ONE compute (cross-replica singleflight, proven by the summed
#     service_cache_miss delta across both replicas' /metrics);
#   - a chosen X-Request-ID appears in BOTH hops' access logs — the
#     gateway's and the serving replica's — so one key correlates the
#     2-hop path;
#   - SIGTERMing one replica mid-load never surfaces an untyped 5xx:
#     the load report may contain 200s (and typed shed 429s), but no
#     500/502/503/504 — drain and failure are routing events, absorbed
#     by failover to the survivor.
#
# Ring state (/ring) is snapshotted at boot and on exit — on a red run
# the final snapshot says where keys were being routed. All artifacts
# land in $SMOKE_DIR (default: a fresh temp dir); CI uploads them even
# on failure.
set -eu

SMOKE_DIR="${SMOKE_DIR:-$(mktemp -d)}"
echo "cluster-smoke: artifacts in $SMOKE_DIR"

go build -o "$SMOKE_DIR/hmeansd" ./cmd/hmeansd
go build -o "$SMOKE_DIR/hmeansgw" ./cmd/hmeansgw
go build -o "$SMOKE_DIR/hmeansctl" ./cmd/hmeansctl
go build -o "$SMOKE_DIR/hmeans" ./cmd/hmeans
go build -o "$SMOKE_DIR/hmeansload" ./cmd/hmeansload
go run ./cmd/benchsim -emit sar > "$SMOKE_DIR/sar.csv"
go run ./cmd/benchsim -emit speedups > "$SMOKE_DIR/speedups.csv"

# wait_addr LOGFILE: echo the "listening on" address once it appears.
wait_addr() {
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$1")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "cluster-smoke: $1 never reported an address" >&2; cat "$1" >&2; exit 1; }
    echo "$addr"
}

# counter ADDR NAME: the Prometheus counter NAME scraped from ADDR's
# /metrics, 0 while the counter has never moved.
counter() {
    v="$(curl -sf -H 'Accept: text/plain' "$1/metrics" | sed -n "s/^$2 \([0-9]*\)\$/\1/p")"
    echo "${v:-0}"
}

# -obs.trace turns recording on, so each replica's /metrics exposes
# the service counters the singleflight leg sums (and the traces are
# artifacts in their own right).
"$SMOKE_DIR/hmeansd" -addr 127.0.0.1:0 -cache-size 32 \
    -access-log "$SMOKE_DIR/replica1-access.log" \
    -obs.trace "$SMOKE_DIR/replica1-trace.jsonl" \
    > "$SMOKE_DIR/replica1.log" 2>&1 &
REPLICA1=$!
"$SMOKE_DIR/hmeansd" -addr 127.0.0.1:0 -cache-size 32 \
    -access-log "$SMOKE_DIR/replica2-access.log" \
    -obs.trace "$SMOKE_DIR/replica2-trace.jsonl" \
    > "$SMOKE_DIR/replica2.log" 2>&1 &
REPLICA2=$!
cleanup() {
    # Best-effort final ring snapshot: on a red run this is the routing
    # state at the moment of failure.
    [ -n "${GW:-}" ] && curl -s "$GW/ring" > "$SMOKE_DIR/ring-final.json" 2>/dev/null || true
    kill "$REPLICA1" "$REPLICA2" "${GATEWAY:-}" 2>/dev/null || true
}
trap cleanup EXIT
ADDR1="$(wait_addr "$SMOKE_DIR/replica1.log")"
ADDR2="$(wait_addr "$SMOKE_DIR/replica2.log")"
echo "cluster-smoke: replicas at $ADDR1 and $ADDR2"

"$SMOKE_DIR/hmeansgw" -addr 127.0.0.1:0 \
    -replica "$ADDR1" -replica "$ADDR2" \
    -access-log "$SMOKE_DIR/gateway-access.log" \
    -obs.trace "$SMOKE_DIR/gateway-trace.jsonl" \
    > "$SMOKE_DIR/gateway.log" 2>&1 &
GATEWAY=$!
GW="$(wait_addr "$SMOKE_DIR/gateway.log")"
echo "cluster-smoke: gateway at $GW"

curl -sf "$GW/ring" > "$SMOKE_DIR/ring-initial.json"
curl -sf "$GW/readyz" > "$SMOKE_DIR/readyz-initial.json" || {
    echo "cluster-smoke: gateway not ready with both replicas up" >&2
    cat "$SMOKE_DIR/readyz-initial.json" >&2; exit 1; }
"$SMOKE_DIR/hmeansctl" -gateway "$GW" -health > /dev/null

# Leg 1: the rendered case-study result through the gateway must be
# line-identical to the batch CLI — three ways to compute one number
# (batch, replica, cluster), zero disagreements allowed.
"$SMOKE_DIR/hmeans" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    > "$SMOKE_DIR/batch.out"
"$SMOKE_DIR/hmeansctl" -gateway "$GW" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -request-id smoke-gw-1 -v \
    > "$SMOKE_DIR/cluster.out" 2> "$SMOKE_DIR/cluster.err"
diff -u "$SMOKE_DIR/batch.out" "$SMOKE_DIR/cluster.out" || {
    echo "cluster-smoke: gateway result diverges from the batch CLI" >&2; exit 1; }
echo "cluster-smoke: gateway result matches the batch CLI"

# Leg 2: raw-byte identity through the hop. The -v output names the
# serving replica; its direct answer must be byte-for-byte the
# gateway's, and a gateway repeat must be a hit on the same replica.
"$SMOKE_DIR/hmeansctl" -gateway "$GW" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -json -v > "$SMOKE_DIR/gw1.json" 2> "$SMOKE_DIR/gw1.err"
HOME_REPLICA="$(sed -n 's/^replica: \(http:\/\/[0-9.:]*\) .*/\1/p' "$SMOKE_DIR/gw1.err")"
[ -n "$HOME_REPLICA" ] || {
    echo "cluster-smoke: hmeansctl -v reported no serving replica" >&2
    cat "$SMOKE_DIR/gw1.err" >&2; exit 1; }
"$SMOKE_DIR/hmeansctl" -addr "$HOME_REPLICA" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -json > "$SMOKE_DIR/direct.json"
cmp "$SMOKE_DIR/gw1.json" "$SMOKE_DIR/direct.json" || {
    echo "cluster-smoke: gateway bytes differ from the direct replica bytes" >&2; exit 1; }
GW_ALIAS0="$(counter "$GW" gateway_alias_hit)"
HOME_ALIAS0="$(counter "$HOME_REPLICA" service_alias_hit)"
"$SMOKE_DIR/hmeansctl" -gateway "$GW" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -json -v > "$SMOKE_DIR/gw2.json" 2> "$SMOKE_DIR/gw2.err"
GW_ALIAS1="$(counter "$GW" gateway_alias_hit)"
HOME_ALIAS1="$(counter "$HOME_REPLICA" service_alias_hit)"
grep -q 'cache: hit' "$SMOKE_DIR/gw2.err" || {
    echo "cluster-smoke: gateway repeat was not a cache hit" >&2
    cat "$SMOKE_DIR/gw2.err" >&2; exit 1; }
grep -q "replica: $HOME_REPLICA " "$SMOKE_DIR/gw2.err" || {
    echo "cluster-smoke: repeat was not routed to the sticky home $HOME_REPLICA" >&2
    cat "$SMOKE_DIR/gw2.err" >&2; exit 1; }
cmp "$SMOKE_DIR/gw1.json" "$SMOKE_DIR/gw2.json" || {
    echo "cluster-smoke: gateway cache-hit bytes differ" >&2; exit 1; }
# The gateway forwards the client's own bytes, so the repeat is keyed
# from an alias on both hops: neither decodes it.
[ $((GW_ALIAS1 - GW_ALIAS0)) -eq 1 ] && [ $((HOME_ALIAS1 - HOME_ALIAS0)) -eq 1 ] || {
    echo "cluster-smoke: gateway repeat moved gateway_alias_hit by $((GW_ALIAS1 - GW_ALIAS0)) and the home replica's service_alias_hit by $((HOME_ALIAS1 - HOME_ALIAS0)), want 1 and 1" >&2
    exit 1; }
echo "cluster-smoke: byte identity holds through the proxy hop (home: $HOME_REPLICA); the repeat hit an alias on both hops"

# Leg 3: cross-replica singleflight. A concurrent burst of one FRESH
# request (new seed, never scored) must cost the fleet exactly one
# compute: the summed service_cache_miss across both replicas moves by
# exactly 1, and every client gets byte-identical bytes.
miss_total() {
    t=0
    for a in "$ADDR1" "$ADDR2"; do
        t=$((t + $(counter "$a" service_cache_miss)))
    done
    echo "$t"
}
BEFORE="$(miss_total)"
BURST=""
for i in 1 2 3 4 5 6; do
    "$SMOKE_DIR/hmeansctl" -gateway "$GW" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" \
        -k 6 -seed 4242 -json > "$SMOKE_DIR/sf$i.json" 2> "$SMOKE_DIR/sf$i.err" &
    BURST="$BURST $!"
done
# Wait for the burst only — a bare `wait` would also wait on the
# daemons, which never exit on their own.
for pid in $BURST; do
    wait "$pid" || { echo "cluster-smoke: burst client $pid failed" >&2; exit 1; }
done
AFTER="$(miss_total)"
DELTA=$((AFTER - BEFORE))
[ "$DELTA" -eq 1 ] || {
    echo "cluster-smoke: concurrent burst cost $DELTA computes, want exactly 1 (cross-replica singleflight)" >&2
    exit 1; }
for i in 2 3 4 5 6; do
    cmp "$SMOKE_DIR/sf1.json" "$SMOKE_DIR/sf$i.json" || {
        echo "cluster-smoke: burst response $i differs from response 1" >&2; exit 1; }
done
echo "cluster-smoke: 6 concurrent identical requests, exactly 1 fleet-wide compute"

# Leg 4: 2-hop request-ID correlation. smoke-gw-1 must appear in the
# gateway's access log AND in the serving replica's — one key, both
# tiers.
grep -q 'smoke-gw-1' "$SMOKE_DIR/gateway-access.log" || {
    echo "cluster-smoke: gateway access log has no line for smoke-gw-1" >&2
    cat "$SMOKE_DIR/gateway-access.log" >&2; exit 1; }
grep -q 'smoke-gw-1' "$SMOKE_DIR/replica1-access.log" "$SMOKE_DIR/replica2-access.log" || {
    echo "cluster-smoke: no replica access log carries smoke-gw-1 — the ID did not cross the hop" >&2
    exit 1; }
echo "cluster-smoke: request ID correlates across both hops"

# Leg 5: replica death is a routing event. Drive a closed-loop load at
# the gateway and SIGTERM replica 1 mid-run: the survivor absorbs the
# traffic and the client never sees an untyped 5xx — no 500/502/503/
# 504 in the report's status counts, zero errors.
# Paced closed loop, SIGTERM keyed to observed progress (not wall
# clock): wait until the gateway access log shows the run well under
# way but far from done, so the kill provably lands mid-load.
"$SMOKE_DIR/hmeansload" -addr "$GW" -mode closed -concurrency 4 -rps 30 \
    -n 300 -seed 13 -max-retries 3 \
    -mix "hit=50,miss=50,invalid=0" -workloads 13 -features 6 \
    -o "$SMOKE_DIR/cluster-load.json" > "$SMOKE_DIR/hmeansload.out" 2>&1 &
LOAD=$!
for _ in $(seq 1 200); do
    [ "$(grep -c 'load-13-' "$SMOKE_DIR/gateway-access.log")" -ge 50 ] && break
    sleep 0.05
done
kill -TERM "$REPLICA1"
wait "$LOAD" || {
    echo "cluster-smoke: load run failed during replica SIGTERM" >&2
    cat "$SMOKE_DIR/hmeansload.out" >&2; exit 1; }
wait "$REPLICA1" || { echo "cluster-smoke: SIGTERMed replica exited non-zero" >&2; exit 1; }
grep -Eq '"(500|502|503|504)"' "$SMOKE_DIR/cluster-load.json" && {
    echo "cluster-smoke: untyped 5xx leaked through the gateway during replica death" >&2
    cat "$SMOKE_DIR/cluster-load.json" >&2; exit 1; }
grep -q '"error_rate": 0,' "$SMOKE_DIR/cluster-load.json" || {
    echo "cluster-smoke: replica death produced client-visible errors" >&2
    cat "$SMOKE_DIR/cluster-load.json" >&2; exit 1; }
# The kill must have landed mid-load: the gateway's failover counter
# moved, i.e. some requests homed on the dead replica were rerouted.
curl -sf -H 'Accept: text/plain' "$GW/metrics" > "$SMOKE_DIR/gateway-metrics.prom"
FAILOVER="$(sed -n 's/^gateway_route_failover \([0-9]*\)$/\1/p' "$SMOKE_DIR/gateway-metrics.prom")"
[ "${FAILOVER:-0}" -ge 1 ] || {
    echo "cluster-smoke: no failover recorded — the SIGTERM landed after the load finished" >&2
    exit 1; }
echo "cluster-smoke: replica SIGTERM mid-load: zero untyped 5xx, zero errors, $FAILOVER failovers"

# The survivor alone still answers, and /ring shows the dead replica's
# breaker open (or half-open, if the cooldown elapsed before this
# snapshot) — failure is visible routing state, not silence.
"$SMOKE_DIR/hmeansctl" -gateway "$GW" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    > "$SMOKE_DIR/survivor.out"
diff -u "$SMOKE_DIR/batch.out" "$SMOKE_DIR/survivor.out" || {
    echo "cluster-smoke: survivor-only result diverges from the batch CLI" >&2; exit 1; }
curl -sf "$GW/ring" > "$SMOKE_DIR/ring-after-sigterm.json"
grep -Eq '"breaker": "(open|half-open)"' "$SMOKE_DIR/ring-after-sigterm.json" || {
    echo "cluster-smoke: /ring does not show the dead replica's breaker open" >&2
    cat "$SMOKE_DIR/ring-after-sigterm.json" >&2; exit 1; }
echo "cluster-smoke: survivor serves the case study; /ring shows the dead replica tripped"

# Graceful teardown: gateway and survivor must both exit clean.
kill -TERM "$GATEWAY"
wait "$GATEWAY" || { echo "cluster-smoke: gateway exited non-zero" >&2; exit 1; }
kill -TERM "$REPLICA2"
wait "$REPLICA2" || { echo "cluster-smoke: surviving replica exited non-zero" >&2; exit 1; }
GATEWAY=""
echo "cluster-smoke: ok"
