#!/usr/bin/env bash
# Multi-process cluster smoke: three real sbxnode OS processes over UDP
# loopback, bootstrapped from a config file with RSA keys loaded from disk,
# run pathvector to the distributed fixpoint; their merged result set must
# be byte-identical to the in-process memnet reference (-allinone). The run
# must also be observable from the outside while it happens: /readyz flips
# 503 -> 200 across the ready barrier, `sbx top --once` renders one row per
# principal with live counters, and `sbx trace` reconstructs a multi-node
# derivation wave from the span dumps the processes leave behind. A second
# phase kills one member right after the ready barrier and asserts the
# survivors fail with the typed unresponsive-detector error (exit 3) naming
# the dead principal — not a hang.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)

# On failure, keep the observability artifacts (span/log/metrics dumps and
# collector output) where CI can upload them. The background scraper must
# die here too: an orphaned scraper holds the stdout pipe open and hangs
# the calling CI step forever.
scraper=""
cleanup() {
    rc=$?
    if [ -n "$scraper" ]; then
        kill "$scraper" 2>/dev/null || true
        wait "$scraper" 2>/dev/null || true
    fi
    if [ "$rc" -ne 0 ] && [ -n "${SMOKE_ARTIFACTS:-}" ]; then
        mkdir -p "$SMOKE_ARTIFACTS"
        cp "$work"/*.spans "$work"/*.logs "$work"/*.metrics "$work"/*.out "$work"/*.err "$SMOKE_ARTIFACTS"/ 2>/dev/null || true
        echo "artifacts preserved in $SMOKE_ARTIFACTS"
    fi
    rm -rf "$work"
    exit "$rc"
}
trap cleanup EXIT

go build -o "$work/sbxnode" ./cmd/sbxnode
go build -o "$work/sbx" ./cmd/sbx

cat > "$work/cluster.json" <<EOF
{
  "cluster": "ci-pv3",
  "policy": "RSA",
  "workload": {"name": "pathvector", "seed": 42, "degree": 3},
  "bootstrap_timeout": "60s",
  "nodes": [
    {"principal": "p0", "addr": "127.0.0.1:7501", "key_file": "$work/p0.pem", "debug_addr": "127.0.0.1:7911"},
    {"principal": "p1", "addr": "127.0.0.1:0",    "key_file": "$work/p1.pem", "debug_addr": "127.0.0.1:7915"},
    {"principal": "p2", "addr": "127.0.0.1:0",    "key_file": "$work/p2.pem", "debug_addr": "127.0.0.1:7916"}
  ]
}
EOF

# A 3-node pathvector fixpoint over loopback completes in well under a
# second — too fast for an external observer to catch the cluster alive.
# A uniform per-datagram chaos delay stretches the run to several seconds
# without changing the result set (delay drops nothing), giving the
# /readyz flip and the live `sbx top` scrape a real window to observe.
cat > "$work/delay.json" <<EOF
{"seed": 7, "links": [{"from": "*", "to": "*", "delay_ms": 150}]}
EOF

echo "== provisioning RSA keys"
"$work/sbxnode" -genkeys -config "$work/cluster.json"

echo "== static pre-flight (-vet)"
"$work/sbxnode" -vet -config "$work/cluster.json" | tail -1

echo "== in-process memnet reference (-allinone)"
"$work/sbxnode" -config "$work/cluster.json" -allinone -timeout 120s > "$work/allinone.out"
[ -s "$work/allinone.out" ] || { echo "FAIL: empty reference result set"; exit 1; }

echo "== 3 sbxnode OS processes over UDP loopback (staged start)"
debugaddr="127.0.0.1:7911"
# curl prints 000 via -w when the connection fails; || true keeps set -e
# out of it without adding output.
readyz() { curl -s -o /dev/null -w '%{http_code}' "http://$debugaddr/readyz" 2>/dev/null || true; }

# The seed starts alone: it cannot pass the ready barrier without its
# joiners, so its /readyz must answer 503 — the deterministic "not ready"
# half of the flip.
"$work/sbxnode" -config "$work/cluster.json" -node p0 -timeout 120s -chaos "$work/delay.json" \
    -metricsdump "$work/final.metrics" -spandump "$work/p0.spans" -logdump "$work/p0.logs" \
    > "$work/p0.out" 2> "$work/p0.err" &
pid0=$!
up=0
for _ in $(seq 1 200); do
    code=$(readyz)
    [ "$code" != 000 ] && { up=1; break; }
    sleep 0.05
done
[ "$up" -eq 1 ] || { echo "FAIL: seed debug server never came up"; exit 1; }
[ "$code" = 503 ] || { echo "FAIL: lone seed /readyz answered $code, want 503"; exit 1; }
echo "OK: /readyz is 503 while the seed waits for joiners"

# Scrape p0's /metrics continuously while it runs, keeping the last
# successful scrape: the run must be observable from the outside, not
# only measurable after the fact.
(
    while :; do
        if curl -sf "http://$debugaddr/metrics" > "$work/metrics.tmp" 2>/dev/null; then
            mv "$work/metrics.tmp" "$work/metrics.out"
        fi
        sleep 0.05
    done 2>/dev/null
) &
scraper=$!

"$work/sbxnode" -config "$work/cluster.json" -node p1 -timeout 120s -chaos "$work/delay.json" -spandump "$work/p1.spans" -logdump "$work/p1.logs" > "$work/p1.out" 2> "$work/p1.err" &
pid1=$!
"$work/sbxnode" -config "$work/cluster.json" -node p2 -timeout 120s -chaos "$work/delay.json" -spandump "$work/p2.spans" -logdump "$work/p2.logs" > "$work/p2.out" 2> "$work/p2.err" &
pid2=$!

# With the joiners up the barrier passes and /readyz must flip to 200.
flipped=0
for _ in $(seq 1 600); do
    [ "$(readyz)" = 200 ] && { flipped=1; break; }
    sleep 0.025
done
[ "$flipped" -eq 1 ] || { echo "FAIL: /readyz never flipped to 200 after the joiners started"; exit 1; }
echo "OK: /readyz flipped to 200 once the ready barrier passed"

# The cluster collector against the live cluster: one row per principal
# with nonzero txn and send counters. Retried because the counters start
# at zero right after the barrier.
topok=0
for _ in $(seq 1 400); do
    if "$work/sbx" top --once -config "$work/cluster.json" > "$work/top.out" 2>/dev/null; then
        rows=$(awk '$1 ~ /^p[0-9]$/ && $4 > 0 && $6 > 0 { n++ } END { print n+0 }' "$work/top.out")
        if [ "$rows" -eq 3 ]; then topok=1; break; fi
    fi
    sleep 0.025
done
[ "$topok" -eq 1 ] || { echo "FAIL: sbx top --once never showed 3 principals with nonzero TXNS and SENT"; cat "$work/top.out" 2>/dev/null; exit 1; }
echo "OK: sbx top --once rendered the live cluster:"
cat "$work/top.out"

wait "$pid0" "$pid1" "$pid2"
kill "$scraper" 2>/dev/null || true
wait "$scraper" 2>/dev/null || true

[ -s "$work/metrics.out" ] || { echo "FAIL: never scraped /metrics from the live p0 process"; exit 1; }
# An RSA pathvector run must show transactions, engine work, RSA
# signatures and shipped bytes on the scraped node. The sums come from
# the end-of-run dump (-metricsdump) rather than the live scrape — the
# scraper's last read can race the process exit.
for series in sbx_txns_total sbx_engine_index_probes_total sbx_engine_tuples_scanned_total sbx_rsa_sign_ops_total sbx_bytes_sent_total; do
    val=$(awk -v s="$series" '$1 ~ "^"s && $1 !~ /^#/ { sum += $NF } END { print sum+0 }' "$work/final.metrics")
    [ "$val" -gt 0 ] || { echo "FAIL: metrics series $series is $val, want > 0"; cat "$work/final.metrics"; exit 1; }
done
# The UDP reliability counters must at least be present (zero is fine on
# a healthy loopback), as must the Go runtime gauges and the ring-overflow
# counters of the log/span rings.
for series in sbx_transport_retransmits_total sbx_transport_dup_drops_total sbx_transport_crc_rejects_total \
              sbx_go_goroutines sbx_spans_dropped_total sbx_log_dropped_total; do
    grep -q "^$series" "$work/final.metrics" || { echo "FAIL: metrics lack $series"; exit 1; }
done
echo "OK: live /metrics scrape shows txns, engine probes, RSA signs, bytes shipped"

sort "$work"/p[0-9].out > "$work/multi.out"
if ! diff -u "$work/allinone.out" "$work/multi.out"; then
    echo "FAIL: multi-process result set differs from in-process reference"
    exit 1
fi
echo "OK: result sets byte-identical ($(wc -l < "$work/multi.out") rows)"

echo "== sbx trace over the span dumps the processes left behind"
for p in p0 p1 p2; do
    [ -s "$work/$p.spans" ] || { echo "FAIL: $p wrote no span dump"; exit 1; }
done
"$work/sbx" trace -dump "$work/p0.spans" -dump "$work/p1.spans" -dump "$work/p2.spans" -list > "$work/traces.out"
# The deepest multi-node wave tops the list (sorted by node count).
tid=$(awk 'NR == 2 { print $1 }' "$work/traces.out")
tnodes=$(awk 'NR == 2 { print $3 }' "$work/traces.out")
[ -n "$tid" ] && [ "$tnodes" -ge 2 ] || { echo "FAIL: no multi-node trace in the span dumps"; cat "$work/traces.out"; exit 1; }
"$work/sbx" trace -dump "$work/p0.spans" -dump "$work/p1.spans" -dump "$work/p2.spans" "$tid" > "$work/trace.out"
head -5 "$work/trace.out"
# The rendered tree's span count must match the per-node dump sum — the
# collector must not drop or duplicate spans while reassembling the wave.
tree_spans=$(awk 'NR == 1 { print $3 }' "$work/trace.out")
dump_spans=$(grep -ch "\"trace\": $tid," "$work"/p[0-2].spans | awk '{ sum += $1 } END { print sum+0 }')
[ "$tree_spans" = "$dump_spans" ] || { echo "FAIL: wave tree holds $tree_spans spans, per-node dumps sum to $dump_spans"; cat "$work/trace.out"; exit 1; }
grep -q "└─" "$work/trace.out" || { echo "FAIL: trace output is not a tree"; cat "$work/trace.out"; exit 1; }
echo "OK: sbx trace rebuilt wave $tid across $tnodes nodes ($tree_spans spans, matching the dumps)"

echo "== kill-one-mid-run: p2 vanishes after the ready barrier"
set +e
"$work/sbxnode" -config "$work/cluster.json" -node p1 -timeout 60s -unresponsive 3s > /dev/null 2> "$work/k1.err" &
pid1=$!
"$work/sbxnode" -config "$work/cluster.json" -node p2 -timeout 60s -dieafterjoin > /dev/null 2>&1 &
pid2=$!
"$work/sbxnode" -config "$work/cluster.json" -node p0 -timeout 60s -unresponsive 3s > /dev/null 2> "$work/k0.err"
rc0=$?
wait "$pid1"; rc1=$?
wait "$pid2"; rc2=$?
set -e

[ "$rc2" -eq 0 ] || { echo "FAIL: fault-injected node exited $rc2"; exit 1; }
for i in 0 1; do
    rc_var="rc$i"
    [ "${!rc_var}" -eq 3 ] || { echo "FAIL: survivor p$i exited ${!rc_var}, want 3 (typed detector error)"; cat "$work/k$i.err"; exit 1; }
    grep -q "no termination report from p2" "$work/k$i.err" || { echo "FAIL: survivor p$i error does not name p2:"; cat "$work/k$i.err"; exit 1; }
done
echo "OK: survivors surfaced the typed unresponsive error naming p2"
