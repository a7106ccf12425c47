// Command benchjson runs the paper's two headline workloads (Figure 4's
// path-vector sweep and Figure 7/10/11's hash join) and writes one
// machine-readable BENCH_*.json report per figure, with every measurement
// pulled from the unified obs registry: fixpoint seconds, RSA sign
// operations, bytes shipped, and per-transaction latency quantiles from
// the sbx_txn_duration_seconds histogram delta.
// The JSON files are checked into the repo so the performance trajectory
// across PRs is recorded as data instead of prose.
//
// Usage:
//
//	benchjson -quick -out .
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/metrics"
	"secureblox/internal/obs"
)

// registrySnap is the registry state a run is measured against: quantities
// accumulate process-wide, so each run reports the delta from its start.
type registrySnap struct {
	txnHist     obs.HistSnapshot
	signOps     int64
	bytes       int64
	txns        int64
	rounds      int64
	retransmits int64
	backoffs    int64
	evictions   int64
	chaosFaults int64
}

func snapshot() registrySnap {
	r := obs.Default()
	return registrySnap{
		txnHist:     r.HistogramSnapshot("sbx_txn_duration_seconds"),
		signOps:     r.CounterValue("sbx_rsa_sign_ops_total"),
		bytes:       r.CounterValue("sbx_bytes_sent_total"),
		txns:        r.CounterValue("sbx_txns_total"),
		rounds:      r.CounterValue("sbx_engine_fixpoint_rounds_total"),
		retransmits: r.CounterValue("sbx_transport_retransmits_total"),
		backoffs:    r.CounterValue("sbx_transport_backoffs_total"),
		evictions:   r.CounterValue("sbx_cluster_evictions_total"),
		chaosFaults: r.CounterValue("sbx_chaos_faults_total"),
	}
}

// delta fills one result's registry-sourced fields from the difference
// between the current registry state and the pre-run snapshot.
func (before registrySnap) delta(res *obs.BenchSchemeResult) {
	after := snapshot()
	hist := after.txnHist.Sub(before.txnHist)
	res.RSASignOps = after.signOps - before.signOps
	res.BytesShipped = after.bytes - before.bytes
	res.Txns = after.txns - before.txns
	res.TxnP50Ms = hist.Quantile(0.5) * 1000
	res.TxnP90Ms = hist.Quantile(0.9) * 1000
	res.TxnP99Ms = hist.Quantile(0.99) * 1000
	res.FixpointRounds = after.rounds - before.rounds
	res.Retransmits = after.retransmits - before.retransmits
	res.Backoffs = after.backoffs - before.backoffs
	res.Evictions = after.evictions - before.evictions
	res.ChaosFaults = after.chaosFaults - before.chaosFaults
}

func main() {
	quick := flag.Bool("quick", false, "scaled-down sizes for CI (the checked-in reports use this)")
	outDir := flag.String("out", ".", "directory to write BENCH_*.json files into")
	transportFlag := flag.String("transport", "mem", "cluster transport: mem or udp")
	seed := flag.Int64("seed", 1, "workload random seed")
	flag.Parse()

	pvSizes := []int{6, 12, 18, 24, 30, 36}
	hjSizes := []int{6, 12, 18}
	if *quick {
		pvSizes = []int{6, 12, 18, 24}
		hjSizes = []int{6}
	}
	now := time.Now().UTC().Format(time.RFC3339)

	// Figure 4: path-vector fixpoint latency across schemes and sizes.
	pvSchemes := []core.PolicyConfig{
		{Auth: core.AuthNone},
		{Auth: core.AuthHMAC},
		{Auth: core.AuthRSA},
		{Auth: core.AuthRSA, BatchSign: true},
	}
	fig4 := obs.BenchReport{
		Figure: "fig4_pathvector", Workload: "pathvector",
		Transport: *transportFlag, Quick: *quick, GeneratedAt: now,
	}
	for _, p := range pvSchemes {
		for _, n := range pvSizes {
			metrics.EngineReset()
			before := snapshot()
			res, err := apps.RunPathVector(apps.PathVectorConfig{
				N: n, AvgDegree: 3, Policy: p,
				Seed: *seed + int64(n), Transport: *transportFlag,
			})
			if err != nil {
				log.Fatalf("pathvector n=%d %s: %v", n, p.Name(), err)
			}
			if res.Violations != 0 {
				log.Fatalf("pathvector n=%d %s: %d violations", n, p.Name(), res.Violations)
			}
			out := obs.BenchSchemeResult{
				Scheme: p.Name(), N: n,
				FixpointSeconds: res.FixpointLatency.Seconds(),
			}
			before.delta(&out)
			res.Cluster.Stop()
			fig4.Results = append(fig4.Results, out)
			fmt.Printf("# pathvector %s n=%d: %.3fs %d signs %d txns\n",
				p.Name(), n, out.FixpointSeconds, out.RSASignOps, out.Txns)
		}
	}
	fig4Path := filepath.Join(*outDir, "BENCH_fig4_pathvector.json")
	if err := obs.WriteBenchJSON(fig4Path, fig4); err != nil {
		log.Fatal(err)
	}

	// Figure 7: hash-join completion across schemes and sizes.
	hjSchemes := []core.PolicyConfig{
		{Auth: core.AuthNone},
		{Auth: core.AuthRSA, Encrypt: true},
	}
	fig7 := obs.BenchReport{
		Figure: "fig7_hashjoin", Workload: "hashjoin",
		Transport: *transportFlag, Quick: *quick, GeneratedAt: now,
	}
	for _, p := range hjSchemes {
		for _, n := range hjSizes {
			cfg := apps.DefaultHashJoinConfig(n, p, *seed+int64(n))
			if *quick {
				cfg.SizeA, cfg.SizeB, cfg.JoinValues = 300, 260, 24
			}
			cfg.Transport = *transportFlag
			metrics.EngineReset()
			before := snapshot()
			res, err := apps.RunHashJoin(cfg)
			if err != nil {
				log.Fatalf("hashjoin n=%d %s: %v", n, p.Name(), err)
			}
			if res.Violations != 0 {
				log.Fatalf("hashjoin n=%d %s: %d violations", n, p.Name(), res.Violations)
			}
			if res.ResultCount != res.ExpectedCount {
				log.Fatalf("hashjoin n=%d %s: wrong join result %d (want %d)", n, p.Name(), res.ResultCount, res.ExpectedCount)
			}
			out := obs.BenchSchemeResult{
				Scheme: p.Name(), N: n,
				FixpointSeconds: res.Duration.Seconds(),
			}
			before.delta(&out)
			res.Cluster.Stop()
			fig7.Results = append(fig7.Results, out)
			fmt.Printf("# hashjoin %s n=%d: %.3fs %d signs %d txns\n",
				p.Name(), n, out.FixpointSeconds, out.RSASignOps, out.Txns)
		}
	}
	fig7Path := filepath.Join(*outDir, "BENCH_fig7_hashjoin.json")
	if err := obs.WriteBenchJSON(fig7Path, fig7); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("# wrote %s and %s\n", fig4Path, fig7Path)
}
