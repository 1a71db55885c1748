#!/bin/sh
# serve_smoke.sh — end-to-end service smoke test (the CI serve-smoke
# job, runnable locally as `make serve-smoke`).
#
# Boots hmeansd with tracing on, scores the paper's 13-workload case
# study through hmeansctl, and requires the rendered result to be
# line-identical to the batch hmeans CLI on the same inputs — the
# service and the CLI must never disagree about a mean. Also checks
# that a repeated request is answered from the cache with identical
# bytes, that the same suite at another SOM seed reuses the suite's
# SOM start and its grid's kernel schedule and still matches the CLI,
# and validates the request trace the daemon wrote.
#
# On top of that it exercises the request-telemetry story end to end:
# one X-Request-ID chosen by hmeansctl and one reported by hmeansload
# are each traced through the daemon's structured access log and JSONL
# trace; /metrics is scraped in both JSON and Prometheus form and the
# exposition is validated; and an undersized second daemon proves shed
# 429s land in the access log with their shed reason and Retry-After.
#
# Crash-safety leg: the first daemon runs with -snapshot, so its
# graceful shutdown writes a durable cache snapshot; a warm restart
# from that snapshot must answer the same request as a cache hit with
# bytes identical to the pre-restart response.
#
# Artifacts land in $SMOKE_DIR (default: a fresh temp dir).
set -eu

SMOKE_DIR="${SMOKE_DIR:-$(mktemp -d)}"
echo "serve-smoke: artifacts in $SMOKE_DIR"

go build -o "$SMOKE_DIR/hmeansd" ./cmd/hmeansd
go build -o "$SMOKE_DIR/hmeansctl" ./cmd/hmeansctl
go build -o "$SMOKE_DIR/hmeans" ./cmd/hmeans
go build -o "$SMOKE_DIR/report" ./cmd/report
go build -o "$SMOKE_DIR/hmeansload" ./cmd/hmeansload
go run ./cmd/benchsim -emit sar > "$SMOKE_DIR/sar.csv"
go run ./cmd/benchsim -emit speedups > "$SMOKE_DIR/speedups.csv"

"$SMOKE_DIR/hmeansd" -addr 127.0.0.1:0 -cache-size 16 \
    -snapshot "$SMOKE_DIR/cache.snap" -drain.timeout 5s \
    -access-log "$SMOKE_DIR/access.log" -runtime-sample 100ms \
    -obs.trace "$SMOKE_DIR/trace.jsonl" > "$SMOKE_DIR/hmeansd.log" 2>&1 &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT

# The daemon prints its ephemeral address once the listener is up.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$SMOKE_DIR/hmeansd.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve-smoke: daemon never came up" >&2; cat "$SMOKE_DIR/hmeansd.log" >&2; exit 1; }
echo "serve-smoke: daemon at $ADDR"

"$SMOKE_DIR/hmeansctl" -addr "$ADDR" -health > /dev/null

# The service must agree with the batch CLI line for line: same
# quarantine lines, same hierarchical/plain geometric means at k=6,
# same cluster memberships.
"$SMOKE_DIR/hmeans" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    > "$SMOKE_DIR/batch.out"
"$SMOKE_DIR/hmeansctl" -addr "$ADDR" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -request-id smoke-ctl-1 -v \
    > "$SMOKE_DIR/service.out" 2> "$SMOKE_DIR/service.err"
diff -u "$SMOKE_DIR/batch.out" "$SMOKE_DIR/service.out" || {
    echo "serve-smoke: service result diverges from the batch CLI" >&2; exit 1; }
grep -q 'request: smoke-ctl-1' "$SMOKE_DIR/service.err" || {
    echo "serve-smoke: hmeansctl -v did not report its request ID" >&2
    cat "$SMOKE_DIR/service.err" >&2; exit 1; }

# The HGM is the paper's headline number; require it to be present and
# positive in both outputs (the diff above already proved equality).
HGM="$(sed -n 's/^hierarchical geometric mean (k=6): //p' "$SMOKE_DIR/batch.out")"
case "$HGM" in
    ''|0.0000|-*) echo "serve-smoke: implausible HGM '$HGM'" >&2; exit 1 ;;
esac
echo "serve-smoke: service HGM matches batch CLI: $HGM"

# som_count TABLE NAME: the daemon's som_TABLE_NAME counter (0 until
# the first SOM start or kernel schedule is built or reused).
som_count() {
    n="$(curl -sf -H 'Accept: text/plain' "$ADDR/metrics" | sed -n "s/^som_$1_$2 \([0-9]*\)$/\1/p")"
    echo "${n:-0}"
}

# A miss on a suite the daemon has prepared before — the same case
# study at another SOM seed — reuses that suite's SOM start and its
# grid's kernel schedule, builds neither, and still agrees with the
# batch CLI line for line. (It runs
# before the cache-hit checks below, which make the k=6 result the
# more recently used, so the load run further down evicts this one
# first and the warm restart still finds the k=6 result.)
BUILT_BEFORE="$(som_count start built)"
REUSED_BEFORE="$(som_count start reused)"
SCHED_BUILT_BEFORE="$(som_count schedule built)"
SCHED_REUSED_BEFORE="$(som_count schedule reused)"
"$SMOKE_DIR/hmeans" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 -seed 11 \
    > "$SMOKE_DIR/batch-seed11.out"
"$SMOKE_DIR/hmeansctl" -addr "$ADDR" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 -seed 11 \
    > "$SMOKE_DIR/service-seed11.out"
diff -u "$SMOKE_DIR/batch-seed11.out" "$SMOKE_DIR/service-seed11.out" || {
    echo "serve-smoke: seed-11 service result diverges from the batch CLI" >&2; exit 1; }
BUILT_AFTER="$(som_count start built)"
REUSED_AFTER="$(som_count start reused)"
[ $((REUSED_AFTER - REUSED_BEFORE)) -eq 1 ] && [ $((BUILT_AFTER - BUILT_BEFORE)) -eq 0 ] || {
    echo "serve-smoke: seed-11 miss moved som_start_reused by $((REUSED_AFTER - REUSED_BEFORE)) and som_start_built by $((BUILT_AFTER - BUILT_BEFORE)), want 1 and 0" >&2
    exit 1; }
SCHED_BUILT_AFTER="$(som_count schedule built)"
SCHED_REUSED_AFTER="$(som_count schedule reused)"
[ $((SCHED_REUSED_AFTER - SCHED_REUSED_BEFORE)) -eq 1 ] && [ $((SCHED_BUILT_AFTER - SCHED_BUILT_BEFORE)) -eq 0 ] || {
    echo "serve-smoke: seed-11 miss moved som_schedule_reused by $((SCHED_REUSED_AFTER - SCHED_REUSED_BEFORE)) and som_schedule_built by $((SCHED_BUILT_AFTER - SCHED_BUILT_BEFORE)), want 1 and 0" >&2
    exit 1; }
echo "serve-smoke: a new SOM seed on a prepared suite reuses its start and kernel schedule and matches the batch CLI"

# alias_hits: the daemon's service_alias_hit counter (0 until the
# first replay of a body it has keyed).
alias_hits() {
    n="$(curl -sf -H 'Accept: text/plain' "$ADDR/metrics" | sed -n 's/^service_alias_hit \([0-9]*\)$/\1/p')"
    echo "${n:-0}"
}

# A repeat of the same request must be a cache hit with identical raw
# bytes — the bit-identical-cache contract, over the wire. hmeansctl
# sends the same bytes each time, so the repeat is answered from the
# body's alias, without a decode.
"$SMOKE_DIR/hmeansctl" -addr "$ADDR" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -json -v > "$SMOKE_DIR/raw1.json" 2> "$SMOKE_DIR/raw1.err"
ALIAS_BEFORE="$(alias_hits)"
"$SMOKE_DIR/hmeansctl" -addr "$ADDR" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -json -v > "$SMOKE_DIR/raw2.json" 2> "$SMOKE_DIR/raw2.err"
ALIAS_AFTER="$(alias_hits)"
grep -q 'cache: hit' "$SMOKE_DIR/raw2.err" || {
    echo "serve-smoke: repeat request was not a cache hit" >&2; cat "$SMOKE_DIR/raw2.err" >&2; exit 1; }
cmp "$SMOKE_DIR/raw1.json" "$SMOKE_DIR/raw2.json" || {
    echo "serve-smoke: cache hit bytes differ from cold-path bytes" >&2; exit 1; }
[ $((ALIAS_AFTER - ALIAS_BEFORE)) -eq 1 ] || {
    echo "serve-smoke: repeat moved service_alias_hit by $((ALIAS_AFTER - ALIAS_BEFORE)), want 1" >&2; exit 1; }
echo "serve-smoke: cache hit is byte-identical and served from the body's alias"

# A short load run against the same daemon: the report names its
# slowest requests by the X-Request-IDs it sent, giving us a second,
# machine-chosen ID to trace through the server-side artifacts.
"$SMOKE_DIR/hmeansload" -addr "$ADDR" -rps 100 -n 30 -seed 7 \
    -mix "hit=70,miss=30,invalid=0" -workloads 13 -features 6 \
    -o "$SMOKE_DIR/smoke-load.json" > "$SMOKE_DIR/hmeansload.out"
SLOW_ID="$(sed -n 's/.*"request_id": "\(load-[^"]*\)".*/\1/p' "$SMOKE_DIR/smoke-load.json" | head -n 1)"
[ -n "$SLOW_ID" ] || {
    echo "serve-smoke: load report names no slowest request" >&2
    cat "$SMOKE_DIR/smoke-load.json" >&2; exit 1; }
echo "serve-smoke: slowest load request was $SLOW_ID"

# /metrics speaks both formats: JSON (the default, dotted names) and
# the Prometheus text exposition (content-negotiated), which must pass
# the format validator.
curl -sf "$ADDR/metrics?format=json" > "$SMOKE_DIR/metrics.json"
grep -q 'service.requests' "$SMOKE_DIR/metrics.json" || {
    echo "serve-smoke: JSON /metrics lacks service counters" >&2; exit 1; }
curl -sf -H 'Accept: text/plain' "$ADDR/metrics" > "$SMOKE_DIR/metrics.prom"
grep -q '^service_requests ' "$SMOKE_DIR/metrics.prom" || {
    echo "serve-smoke: Prometheus /metrics lacks service counters" >&2
    cat "$SMOKE_DIR/metrics.prom" >&2; exit 1; }
"$SMOKE_DIR/report" -validate-metrics "$SMOKE_DIR/metrics.prom"

# Graceful shutdown flushes the trace; validate it like obs-trace does.
kill "$DAEMON"
wait "$DAEMON" || { echo "serve-smoke: daemon exited non-zero" >&2; exit 1; }
trap - EXIT
grep -q 'shut down' "$SMOKE_DIR/hmeansd.log" || {
    echo "serve-smoke: no graceful shutdown line" >&2; cat "$SMOKE_DIR/hmeansd.log" >&2; exit 1; }
"$SMOKE_DIR/report" -validate-trace "$SMOKE_DIR/trace.jsonl"

# Cross-process correlation: both request IDs — the one hmeansctl
# chose and the one hmeansload reported — must appear in the daemon's
# access log AND its JSONL trace, and -request must pull the ctl
# request's server-side span breakdown out of the trace.
for id in smoke-ctl-1 "$SLOW_ID"; do
    grep -q "$id" "$SMOKE_DIR/access.log" || {
        echo "serve-smoke: access log has no line for $id" >&2; exit 1; }
    grep -q "$id" "$SMOKE_DIR/trace.jsonl" || {
        echo "serve-smoke: trace has no span for $id" >&2; exit 1; }
done
"$SMOKE_DIR/report" -timings "$SMOKE_DIR/trace.jsonl" -request smoke-ctl-1 \
    > "$SMOKE_DIR/request-timings.out"
grep -q 'request smoke-ctl-1' "$SMOKE_DIR/request-timings.out" || {
    echo "serve-smoke: no per-request timing table" >&2
    cat "$SMOKE_DIR/request-timings.out" >&2; exit 1; }
echo "serve-smoke: request IDs correlate across client, access log and trace"

# Warm restart: the graceful shutdown above must have written the
# cache snapshot; a fresh daemon booted from it must answer the same
# request as a cache hit, byte-identical to the pre-restart response
# — the crash-safety contract, cold kill to warm boot, over the wire.
grep -q 'wrote snapshot' "$SMOKE_DIR/hmeansd.log" || {
    echo "serve-smoke: graceful shutdown wrote no snapshot" >&2
    cat "$SMOKE_DIR/hmeansd.log" >&2; exit 1; }
[ -s "$SMOKE_DIR/cache.snap" ] || {
    echo "serve-smoke: snapshot file missing or empty" >&2; exit 1; }
"$SMOKE_DIR/hmeansd" -addr 127.0.0.1:0 -cache-size 16 \
    -snapshot "$SMOKE_DIR/cache.snap" > "$SMOKE_DIR/hmeansd3.log" 2>&1 &
DAEMON3=$!
trap 'kill "$DAEMON3" 2>/dev/null || true' EXIT
ADDR3=""
for _ in $(seq 1 100); do
    ADDR3="$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$SMOKE_DIR/hmeansd3.log")"
    [ -n "$ADDR3" ] && break
    sleep 0.1
done
[ -n "$ADDR3" ] || { echo "serve-smoke: warm daemon never came up" >&2; cat "$SMOKE_DIR/hmeansd3.log" >&2; exit 1; }
grep -q 'restored' "$SMOKE_DIR/hmeansd3.log" || {
    echo "serve-smoke: warm daemon restored nothing from the snapshot" >&2
    cat "$SMOKE_DIR/hmeansd3.log" >&2; exit 1; }
curl -sf "$ADDR3/readyz" > /dev/null || {
    echo "serve-smoke: warm daemon not ready" >&2; exit 1; }
"$SMOKE_DIR/hmeansctl" -addr "$ADDR3" -scores "$SMOKE_DIR/speedups.csv" -chars "$SMOKE_DIR/sar.csv" -k 6 \
    -json -v > "$SMOKE_DIR/raw3.json" 2> "$SMOKE_DIR/raw3.err"
grep -q 'cache: hit' "$SMOKE_DIR/raw3.err" || {
    echo "serve-smoke: first post-restart request was not a warm cache hit" >&2
    cat "$SMOKE_DIR/raw3.err" >&2; exit 1; }
cmp "$SMOKE_DIR/raw1.json" "$SMOKE_DIR/raw3.json" || {
    echo "serve-smoke: warm-restart bytes differ from pre-restart bytes" >&2; exit 1; }
kill "$DAEMON3"
wait "$DAEMON3" || { echo "serve-smoke: warm daemon exited non-zero" >&2; exit 1; }
trap - EXIT
echo "serve-smoke: warm restart serves byte-identical cache hits"

# Shed paths are telemetry too: an undersized daemon under sustained
# closed-loop pressure (8 workers, no think time, no retries) must log
# its 429s with the shed reason and Retry-After. The closed loop keeps
# concurrent requests in flight for the whole run, so shedding does
# not depend on a one-shot burst landing just right.
"$SMOKE_DIR/hmeansd" -addr 127.0.0.1:0 -cache-size 0 \
    -max-inflight 1 -queue-depth 0 \
    -access-log "$SMOKE_DIR/access2.log" > "$SMOKE_DIR/hmeansd2.log" 2>&1 &
DAEMON2=$!
trap 'kill "$DAEMON2" 2>/dev/null || true' EXIT
ADDR2=""
for _ in $(seq 1 100); do
    ADDR2="$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$SMOKE_DIR/hmeansd2.log")"
    [ -n "$ADDR2" ] && break
    sleep 0.1
done
[ -n "$ADDR2" ] || { echo "serve-smoke: shed daemon never came up" >&2; exit 1; }
"$SMOKE_DIR/hmeansload" -addr "$ADDR2" -mode closed -concurrency 8 -rps 0 \
    -n 40 -seed 11 -max-retries 0 \
    -mix "hit=0,miss=100,invalid=0" > "$SMOKE_DIR/hmeansload-shed.out"
kill "$DAEMON2"
wait "$DAEMON2" || { echo "serve-smoke: shed daemon exited non-zero" >&2; exit 1; }
trap - EXIT
grep -q '"status":429' "$SMOKE_DIR/access2.log" || {
    echo "serve-smoke: no shed 429 in the undersized daemon's access log" >&2
    cat "$SMOKE_DIR/access2.log" >&2; exit 1; }
grep '"status":429' "$SMOKE_DIR/access2.log" | head -n 1 | grep -q 'pool_and_queue_full' || {
    echo "serve-smoke: shed line lacks its shed_reason" >&2; exit 1; }
grep '"status":429' "$SMOKE_DIR/access2.log" | head -n 1 | grep -q 'retry_after' || {
    echo "serve-smoke: shed line lacks retry_after" >&2; exit 1; }
echo "serve-smoke: shed 429s are logged with reason and Retry-After"
echo "serve-smoke: ok"
