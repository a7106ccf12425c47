// Command pathvector reproduces the paper's §8.1 path-vector experiments
// (Figures 4–9): fixpoint latency, per-node communication overhead, and
// average transaction duration across network sizes and security schemes,
// plus convergence CDFs for single runs.
//
// Usage:
//
//	pathvector -sizes 6,12,18,24,30,36 -trials 3 -cdf 36
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
	"secureblox/internal/seccrypto"
)

func main() {
	sizesFlag := flag.String("sizes", "6,12,18,24,30,36", "comma-separated network sizes")
	trials := flag.Int("trials", 3, "random graphs per size (paper: 10)")
	degree := flag.Float64("degree", 3, "average node degree")
	cdfSize := flag.Int("cdf", 36, "network size for the convergence CDF (Figures 8/9); 0 disables")
	seed := flag.Int64("seed", 1, "base random seed")
	transportFlag := flag.String("transport", "mem", "cluster transport: mem (in-process) or udp (real loopback sockets)")
	batchSign := flag.Bool("batchsign", false, "add footnote 2's batch-signed RSA scheme (one signature per export batch) to the sweep")
	debugAddr := flag.String("debugaddr", "", "serve /metrics and /debug/spans on this address while the sweep runs (e.g. 127.0.0.1:0)")
	flag.Parse()

	sizes, err := sweep.ParseSizes(*sizesFlag)
	if err != nil {
		log.Fatalf("bad -sizes: %v", err)
	}
	stopDebug, err := sweep.ServeDebug(*debugAddr, "pathvector")
	if err != nil {
		log.Fatalf("debug server: %v", err)
	}
	defer stopDebug()

	// Every (scheme, size) combination is run once per trial; all figures
	// are derived from the same runs.
	all := []core.PolicyConfig{
		{Auth: core.AuthNone},
		{Auth: core.AuthHMAC},
		{Auth: core.AuthRSA},
		{Auth: core.AuthNone, Encrypt: true},
		{Auth: core.AuthHMAC, Encrypt: true},
		{Auth: core.AuthRSA, Encrypt: true},
	}
	if *batchSign {
		all = append(all,
			core.PolicyConfig{Auth: core.AuthRSA, BatchSign: true},
			core.PolicyConfig{Auth: core.AuthRSA, BatchSign: true, Encrypt: true},
		)
	}

	run := func(n int, p core.PolicyConfig, trial int) *apps.PathVectorResult {
		res, err := apps.RunPathVector(apps.PathVectorConfig{
			N: n, AvgDegree: *degree, Policy: p,
			Seed:      *seed + int64(trial)*1000 + int64(n),
			Transport: *transportFlag,
		})
		if err != nil {
			log.Fatalf("n=%d %s: %v%s", n, p.Name(), err, sweep.UDPDiag(*transportFlag))
		}
		if res.Violations != 0 {
			log.Fatalf("n=%d %s: %d violations%s", n, p.Name(), res.Violations, sweep.UDPDiag(*transportFlag))
		}
		defer res.Cluster.Stop()
		return res
	}

	type agg struct {
		latency, traffic, txn float64
		signs                 int64
	}
	results := map[string]map[int]*agg{}
	for _, p := range all {
		results[p.Name()] = map[int]*agg{}
		for _, n := range sizes {
			a := &agg{}
			for tr := 0; tr < *trials; tr++ {
				before := seccrypto.SignOps()
				r := run(n, p, tr)
				a.latency += r.FixpointLatency.Seconds()
				a.traffic += r.PerNodeKB
				a.txn += float64(r.MeanTxn.Microseconds()) / 1000
				a.signs += seccrypto.SignOps() - before
			}
			a.latency /= float64(*trials)
			a.traffic /= float64(*trials)
			a.txn /= float64(*trials)
			a.signs /= int64(*trials)
			results[p.Name()][n] = a
			fmt.Printf("# ran %s n=%d: %.3fs %.1fKB/node %.2fms/txn %d rsa-signs\n",
				p.Name(), n, a.latency, a.traffic, a.txn, a.signs)
		}
	}

	series := func(names []string, metric func(*agg) float64) []metrics.Series {
		var out []metrics.Series
		for _, name := range names {
			s := metrics.Series{Label: name}
			for _, n := range sizes {
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, metric(results[name][n]))
			}
			out = append(out, s)
		}
		return out
	}
	latency := func(a *agg) float64 { return a.latency }
	traffic := func(a *agg) float64 { return a.traffic }
	txn := func(a *agg) float64 { return a.txn }

	fig4 := []string{"NoAuth", "HMAC", "RSA"}
	fig5 := []string{"NoAuth", "NoAuth-AES", "HMAC-AES", "RSA-AES"}
	if *batchSign {
		fig4 = append(fig4, "RSA-batch")
		fig5 = append(fig5, "RSA-batch-AES")
	}
	fmt.Println("\n== Figure 4: fixpoint latency (s), no encryption ==")
	fmt.Print(metrics.Table("nodes", series(fig4, latency)...))
	fmt.Println("\n== Figure 5: fixpoint latency (s), with AES ==")
	fmt.Print(metrics.Table("nodes", series(fig5, latency)...))
	fmt.Println("\n== Figure 6: per-node communication overhead (KB), no encryption ==")
	fmt.Print(metrics.Table("nodes", series(fig4, traffic)...))
	fmt.Println("\n== Figure 7: average transaction duration (ms) ==")
	fmt.Print(metrics.Table("nodes", series([]string{"NoAuth", "HMAC", "RSA-AES"}, txn)...))
	if *batchSign {
		fmt.Println("\n== Footnote 2: RSA sign operations per fixpoint ==")
		fmt.Print(metrics.Table("nodes", series([]string{"RSA", "RSA-batch"},
			func(a *agg) float64 { return float64(a.signs) })...))
	}
	fig7 := []core.PolicyConfig{{Auth: core.AuthNone}, {Auth: core.AuthHMAC}, {Auth: core.AuthRSA, Encrypt: true}}

	if *cdfSize > 0 {
		fmt.Printf("\n== Figures 8/9: cumulative fraction of converged nodes, one %d-node graph ==\n", *cdfSize)
		fmt.Println("scheme\tp10\tp50\tp90\tp100")
		for _, p := range fig7 {
			res := run(*cdfSize, p, 0)
			cdf := &metrics.CDF{}
			for _, d := range res.Convergence {
				cdf.Add(d)
			}
			fmt.Printf("%s\t%v\t%v\t%v\t%v\n", p.Name(),
				cdf.Quantile(0.1).Round(time.Millisecond),
				cdf.Quantile(0.5).Round(time.Millisecond),
				cdf.Quantile(0.9).Round(time.Millisecond),
				cdf.Quantile(1.0).Round(time.Millisecond))
		}
	}
}
