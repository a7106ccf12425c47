// Command hashjoin reproduces the paper's §8.2 secure hash join
// experiments (Figures 10–12): transaction-completion CDFs at the join
// initiator and per-node communication overhead across experiment sizes.
//
// Usage:
//
//	hashjoin -sizes 6,12,18,24,30,36,42,48 -trials 3
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"secureblox/cmd/internal/sweep"
	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/metrics"
)

func main() {
	sizesFlag := flag.String("sizes", "6,12,18,24,30,36,42,48", "comma-separated experiment sizes")
	trials := flag.Int("trials", 3, "trials per size (paper: 10)")
	cdfSizes := flag.String("cdf", "6,18", "sizes for the completion CDFs (Figures 10/11)")
	seed := flag.Int64("seed", 1, "base random seed")
	transportFlag := flag.String("transport", "mem", "cluster transport: mem (in-process) or udp (real loopback sockets)")
	batchSign := flag.Bool("batchsign", false, "add footnote 2's batch-signed RSA-AES scheme to the comparison")
	debugAddr := flag.String("debugaddr", "", "serve /metrics and /debug/spans on this address while the sweep runs (e.g. 127.0.0.1:0)")
	flag.Parse()

	sizes, err := sweep.ParseSizes(*sizesFlag)
	if err != nil {
		log.Fatalf("bad -sizes: %v", err)
	}
	stopDebug, err := sweep.ServeDebug(*debugAddr, "hashjoin")
	if err != nil {
		log.Fatalf("debug server: %v", err)
	}
	defer stopDebug()
	cdfs, err := sweep.ParseSizes(*cdfSizes)
	if err != nil {
		log.Fatalf("bad -cdf: %v", err)
	}

	schemes := []core.PolicyConfig{
		{Auth: core.AuthNone},
		{Auth: core.AuthRSA, Encrypt: true},
	}
	if *batchSign {
		// The hash join's small per-transaction batches are exactly where
		// footnote 2 predicts per-tuple signing hurts most.
		schemes = append(schemes, core.PolicyConfig{Auth: core.AuthRSA, BatchSign: true, Encrypt: true})
	}

	run := func(n int, p core.PolicyConfig, trial int) *apps.HashJoinResult {
		cfg := apps.DefaultHashJoinConfig(n, p, *seed+int64(trial)*1000+int64(n))
		cfg.Transport = *transportFlag
		res, err := apps.RunHashJoin(cfg)
		if err != nil {
			log.Fatalf("n=%d %s: %v%s", n, p.Name(), err, sweep.UDPDiag(*transportFlag))
		}
		if res.Violations != 0 {
			log.Fatalf("n=%d %s: %d violations%s", n, p.Name(), res.Violations, sweep.UDPDiag(*transportFlag))
		}
		if res.ResultCount != res.ExpectedCount {
			log.Fatalf("n=%d %s: wrong join result %d (want %d)%s", n, p.Name(), res.ResultCount, res.ExpectedCount, sweep.UDPDiag(*transportFlag))
		}
		return res
	}

	for _, n := range cdfs {
		fmt.Printf("== Figures 10/11: completion CDF at the initiator, %d nodes ==\n", n)
		fmt.Println("scheme\tp10\tp50\tp90\tp100\ttxns")
		for _, p := range schemes {
			res := run(n, p, 0)
			cdf := res.InitiatorCDF
			fmt.Printf("%s\t%v\t%v\t%v\t%v\t%d\n", p.Name(),
				cdf.Quantile(0.1).Round(time.Millisecond),
				cdf.Quantile(0.5).Round(time.Millisecond),
				cdf.Quantile(0.9).Round(time.Millisecond),
				cdf.Quantile(1.0).Round(time.Millisecond),
				cdf.Len())
			res.Cluster.Stop()
		}
		fmt.Println()
	}

	fmt.Println("== Figure 12: per-node communication overhead (KB) ==")
	var series []metrics.Series
	for _, p := range schemes {
		s := metrics.Series{Label: p.Name()}
		for _, n := range sizes {
			var sum float64
			for tr := 0; tr < *trials; tr++ {
				res := run(n, p, tr)
				sum += res.PerNodeKB
				res.Cluster.Stop()
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sum/float64(*trials))
		}
		series = append(series, s)
	}
	fmt.Print(metrics.Table("nodes", series...))
}
