// Package secureblox's root benchmark harness regenerates every figure of
// the paper's evaluation (§8). Each BenchmarkFigN target runs the
// corresponding experiment and reports the same quantity the figure plots
// (fixpoint seconds, per-node KB, transaction ms, CDF quantiles). Absolute
// numbers differ from the paper's 2010 cluster — the shape (scheme
// ordering, growth with N, crossovers) is what EXPERIMENTS.md records.
//
// Default sizes are scaled down so `go test -bench=.` completes quickly;
// set SBX_BENCH_FULL=1 for the paper's full size sweep. `sbx run
// <workload>` does one oracle-checked run outside the test binary.
package secureblox

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/udf"
)

func benchSizes(full []int, quick []int) []int {
	if os.Getenv("SBX_BENCH_FULL") != "" {
		return full
	}
	return quick
}

var (
	pvSizes = benchSizes(
		[]int{6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72},
		[]int{6, 12, 18, 24})
	hjSizes = benchSizes(
		[]int{6, 12, 18, 24, 30, 36, 42, 48},
		[]int{6, 12, 18})
)

// runRow takes the named row of apps.Workloads to its fixpoint through the
// row's one runner, over a fresh memnet, and fails on any violation. The
// caller Stops the outcome's cluster; its counts stay readable after.
func runRow(b *testing.B, name string, wc cluster.WorkloadConfig, n int, p core.PolicyConfig) *apps.Outcome {
	b.Helper()
	w, err := apps.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	o, err := w.Run(context.Background(), wc, n, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	if r := o.Cluster.Rejections(); r != 0 {
		o.Cluster.Stop()
		b.Fatalf("violations: %d", r)
	}
	return o
}

// runPV is one path-vector run at degree 3. Its answer is not checked: the
// query is wrong above n ≈ 8 (ROADMAP item 1), and these sweeps report cost.
func runPV(b *testing.B, n int, p core.PolicyConfig) *apps.Outcome {
	o := runRow(b, "pathvector", cluster.WorkloadConfig{Seed: int64(n) * 31}, n, p)
	o.Cluster.Stop()
	return o
}

func benchPathVector(b *testing.B, policies []core.PolicyConfig, report func(*testing.B, *apps.Outcome)) {
	for _, p := range policies {
		for _, n := range pvSizes {
			b.Run(fmt.Sprintf("%s/n=%d", p.Name(), n), func(b *testing.B) {
				// The evaluator counters are process-wide and cumulative; the
				// before/after delta makes this (scheme, size) cell report only
				// its own rounds and attributes any join-plan regression to the
				// run that caused it.
				before := engine.Totals()
				for i := 0; i < b.N; i++ {
					report(b, runPV(b, n, p))
				}
				s := engine.Totals().Sub(before)
				if s.FullScanFallbacks != 0 {
					b.Fatalf("join plan regression: %s", s)
				}
				b.ReportMetric(float64(s.FixpointRounds)/float64(b.N), "rounds")
			})
		}
	}
}

// BenchmarkFig4FixpointLatencyNoEnc regenerates Figure 4: fixpoint latency
// for NoAuth, HMAC and RSA without encryption — plus footnote 2's
// batch-signed RSA, which amortizes one signature per shipping transaction.
func BenchmarkFig4FixpointLatencyNoEnc(b *testing.B) {
	benchPathVector(b, []core.PolicyConfig{
		{Auth: core.AuthNone}, {Auth: core.AuthHMAC}, {Auth: core.AuthRSA},
		{Auth: core.AuthRSA, BatchSign: true},
	}, func(b *testing.B, r *apps.Outcome) {
		b.ReportMetric(r.Latency.Seconds(), "fixpoint-s")
	})
}

// BenchmarkSignOpsPerFixpoint isolates footnote 2's claim on the memnet
// path-vector workload: batch signing cuts RSA private-key operations per
// fixpoint from one per distinct said fact to one per shipping transaction
// (one signature covers every envelope the transaction ships, whatever the
// fan-out). The rsa-signs metric is the process-wide RSASign delta over the
// run; at n=24, degree 3, expect RSA-batch at about 1/30 of RSA's count
// (≈ 5 700 → ≈ 180; it was ≈ 425, 1/13, when each envelope was signed).
func BenchmarkSignOpsPerFixpoint(b *testing.B) {
	n := pvSizes[len(pvSizes)-1]
	for _, p := range []core.PolicyConfig{
		{Auth: core.AuthRSA}, {Auth: core.AuthRSA, BatchSign: true},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", p.Name(), n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				before := seccrypto.SignOps()
				r := runPV(b, n, p)
				b.ReportMetric(float64(seccrypto.SignOps()-before), "rsa-signs")
				b.ReportMetric(r.Latency.Seconds(), "fixpoint-s")
			}
		})
	}
}

// BenchmarkFig5FixpointLatencyEnc regenerates Figure 5: fixpoint latency
// with AES encryption added.
func BenchmarkFig5FixpointLatencyEnc(b *testing.B) {
	benchPathVector(b, []core.PolicyConfig{
		{Auth: core.AuthNone},
		{Auth: core.AuthNone, Encrypt: true},
		{Auth: core.AuthHMAC, Encrypt: true},
		{Auth: core.AuthRSA, Encrypt: true},
	}, func(b *testing.B, r *apps.Outcome) {
		b.ReportMetric(r.Latency.Seconds(), "fixpoint-s")
	})
}

// BenchmarkFig6CommOverhead regenerates Figure 6: per-node communication
// overhead (KB) for the unencrypted schemes.
func BenchmarkFig6CommOverhead(b *testing.B) {
	benchPathVector(b, []core.PolicyConfig{
		{Auth: core.AuthNone}, {Auth: core.AuthHMAC}, {Auth: core.AuthRSA},
	}, func(b *testing.B, r *apps.Outcome) {
		b.ReportMetric(r.Cluster.MeanNodeTrafficKB(), "KB/node")
	})
}

// BenchmarkFig7TxnDuration regenerates Figure 7: average local transaction
// duration for NoAuth, HMAC and RSA-AES.
func BenchmarkFig7TxnDuration(b *testing.B) {
	benchPathVector(b, []core.PolicyConfig{
		{Auth: core.AuthNone}, {Auth: core.AuthHMAC}, {Auth: core.AuthRSA, Encrypt: true},
	}, func(b *testing.B, r *apps.Outcome) {
		b.ReportMetric(float64(r.Cluster.MeanTxnDuration().Microseconds())/1000, "txn-ms")
	})
}

func benchConvergenceCDF(b *testing.B, n int) {
	for _, p := range []core.PolicyConfig{
		{Auth: core.AuthNone}, {Auth: core.AuthHMAC}, {Auth: core.AuthRSA, Encrypt: true},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", p.Name(), n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runPV(b, n, p)
				reportQuantiles(b, r.Cluster.ConvergenceTimes())
			}
		})
	}
}

// reportQuantiles reports the median and the maximum of a distribution of
// times, the two points the CDF figures are read at.
func reportQuantiles(b *testing.B, ds []time.Duration) {
	b.ReportMetric(float64(quantile(ds, 0.5).Microseconds())/1000, "p50-ms")
	b.ReportMetric(float64(quantile(ds, 1.0).Microseconds())/1000, "p100-ms")
}

// quantile is the nearest-rank q-quantile of ds: the smallest value with at
// least a q fraction of ds at or below it (0 for an empty ds).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(ds))
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// BenchmarkFig8ConvergenceCDF36 regenerates Figure 8: cumulative fraction
// of converged nodes on one 36-node random graph (scaled to the quick size
// unless SBX_BENCH_FULL is set).
func BenchmarkFig8ConvergenceCDF36(b *testing.B) {
	n := 36
	if os.Getenv("SBX_BENCH_FULL") == "" {
		n = 18
	}
	benchConvergenceCDF(b, n)
}

// BenchmarkFig9ConvergenceCDF72 regenerates Figure 9: the 72-node graph.
func BenchmarkFig9ConvergenceCDF72(b *testing.B) {
	n := 72
	if os.Getenv("SBX_BENCH_FULL") == "" {
		n = 24
	}
	benchConvergenceCDF(b, n)
}

// runHJ is one hash-join run at the paper's sizes (smaller unless
// SBX_BENCH_FULL is set), held to the row's count oracle.
func runHJ(b *testing.B, n int, p core.PolicyConfig) *apps.Outcome {
	wc := cluster.WorkloadConfig{Seed: int64(n) * 17}
	if os.Getenv("SBX_BENCH_FULL") == "" {
		wc.SizeA, wc.SizeB, wc.JoinValues = 300, 260, 24
	}
	o := runRow(b, "hashjoin", wc, n, p)
	o.Cluster.Stop()
	if o.Wrong != nil {
		b.Fatalf("bad run: %s: %v", o.Answer, o.Wrong)
	}
	return o
}

func benchHashJoinCDF(b *testing.B, n int) {
	for _, p := range []core.PolicyConfig{{Auth: core.AuthNone}, {Auth: core.AuthRSA, Encrypt: true}} {
		b.Run(fmt.Sprintf("%s/n=%d", p.Name(), n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obs.ResetSpans()
				r := runHJ(b, n, p)
				reportQuantiles(b, initiatorCommits(b, r.Cluster))
			}
		})
	}
}

// initiatorCommits returns when each transaction the hash join's initiator
// (node 0) committed, relative to the cluster's start: the end of each of its
// fixpoint spans, of which a node records exactly one per committed
// transaction. The span ring must have been reset before the run.
func initiatorCommits(b *testing.B, c *core.Cluster) []time.Duration {
	if d := obs.SpanDrops(); d > 0 {
		b.Fatalf("the span ring dropped %d spans: the initiator's commits are incomplete", d)
	}
	var out []time.Duration
	for _, sp := range obs.Spans() {
		if sp.Stage == obs.StageFixpoint && sp.Principal == c.Principals[0] {
			out = append(out, sp.Start.Add(sp.Dur).Sub(c.StartTime()))
		}
	}
	return out
}

// BenchmarkFig10HashJoinCDF6 regenerates Figure 10: transaction completion
// CDF at the initiator for the 6-node hash join, NoAuth vs RSA-AES.
func BenchmarkFig10HashJoinCDF6(b *testing.B) { benchHashJoinCDF(b, 6) }

// BenchmarkFig11HashJoinCDF18 regenerates Figure 11: the 18-node variant,
// where smaller batches amortize crypto less and the gap widens.
func BenchmarkFig11HashJoinCDF18(b *testing.B) { benchHashJoinCDF(b, 18) }

// BenchmarkFig12HashJoinOverhead regenerates Figure 12: per-node
// communication overhead of the hash join across experiment sizes.
func BenchmarkFig12HashJoinOverhead(b *testing.B) {
	for _, p := range []core.PolicyConfig{{Auth: core.AuthNone}, {Auth: core.AuthRSA, Encrypt: true}} {
		for _, n := range hjSizes {
			b.Run(fmt.Sprintf("%s/n=%d", p.Name(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := runHJ(b, n, p)
					b.ReportMetric(r.Cluster.MeanNodeTrafficKB(), "KB/node")
				}
			})
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkEngineTransitiveClosure measures the raw engine: semi-naïve
// fixpoint of a 200-node chain closure (20100 derived tuples).
func BenchmarkEngineTransitiveClosure(b *testing.B) {
	prog, err := datalog.Parse(`
		reachable(X,Y) <- link(X,Y).
		reachable(X,Y) <- link(X,Z), reachable(Z,Y).
	`)
	if err != nil {
		b.Fatal(err)
	}
	var facts []engine.Fact
	for i := 0; i < 200; i++ {
		facts = append(facts, engine.Fact{Pred: "link",
			Tuple: datalog.Tuple{datalog.Int64(int64(i)), datalog.Int64(int64(i + 1))}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := engine.NewWorkspace(nil)
		if err := w.Install(prog); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Assert(facts); err != nil {
			b.Fatal(err)
		}
		if w.Count("reachable") != 20100 {
			b.Fatal("wrong closure size")
		}
	}
}

// closureAllocCeiling bounds allocations per closure iteration. The evaluator
// reuses its per-round rule lists and per-rule frames across fixpoint rounds,
// so allocs/op is dominated by tuple storage for the ~60k derived reachable
// facts. The ceiling catches a reintroduced per-round or per-delta-tuple
// allocation, which multiplies that figure.
const closureAllocCeiling = 200_000

// BenchmarkEngineFixpoint measures the local evaluator's join machinery in
// isolation — the per-transaction cost under every security policy. The
// closure case exercises recursive semi-naïve evaluation over a dense
// random digraph (delta probing); the multijoin case exercises a three-way
// join whose middle atom binds a non-first column, the shape that
// historically forced a full relation scan.
func BenchmarkEngineFixpoint(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		prog, err := datalog.Parse(engine.BenchClosureSrc)
		if err != nil {
			b.Fatal(err)
		}
		facts, want := engine.BenchClosureInput(250, 1000, 7)
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := engine.NewWorkspace(nil)
			if err := w.Install(prog); err != nil {
				b.Fatal(err)
			}
			if _, err := w.Assert(facts); err != nil {
				b.Fatal(err)
			}
			if got := w.Count("reachable"); got != want {
				b.Fatalf("closure size %d, want %d", got, want)
			}
			if s := w.Stats(); s.FullScanFallbacks != 0 {
				b.Fatalf("join plan regression: %s", s)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
		if perOp > closureAllocCeiling {
			b.Fatalf("allocation regression: %.0f allocs/op (ceiling %d)",
				perOp, closureAllocCeiling)
		}
	})
	b.Run("multijoin", func(b *testing.B) {
		prog, err := datalog.Parse(engine.BenchMultijoinSrc)
		if err != nil {
			b.Fatal(err)
		}
		facts := engine.BenchMultijoinInput(600, 400, 7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := engine.NewWorkspace(nil)
			if err := w.Install(prog); err != nil {
				b.Fatal(err)
			}
			if _, err := w.Assert(facts); err != nil {
				b.Fatal(err)
			}
			if w.Count("q") == 0 {
				b.Fatal("empty join result")
			}
			if s := w.Stats(); s.FullScanFallbacks != 0 {
				b.Fatalf("join plan regression: %s", s)
			}
		}
	})
}

// BenchmarkAnonCircuit measures the full anonymous join (§7.3) end to end.
func BenchmarkAnonCircuit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := runRow(b, "anonjoin", cluster.WorkloadConfig{Seed: int64(i)}, 4, core.PolicyConfig{})
		o.Cluster.Stop()
		if o.Wrong != nil {
			b.Fatalf("wrong result: %s", o.Answer)
		}
		b.ReportMetric(o.Latency.Seconds(), "fixpoint-s")
	}
}

// BenchmarkAblationSigningBatchSize isolates the design choice behind
// Figures 10/11: the same number of said tuples processed as one large
// batch vs many single-tuple batches. Per-batch fixed costs (transaction
// setup, constraint sweep) amortize in the large batch; per-tuple RSA
// signatures do not — which is why the paper's footnote 2 recommends
// signing batch aggregates, and why parallelism (smaller batches) hurts
// RSA-AES disproportionately.
func BenchmarkAblationSigningBatchSize(b *testing.B) {
	const tuples = 64
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("RSA/batch=%d", batch), func(b *testing.B) {
			ts, err := seccrypto.NewTrustSetup([]string{"a", "bpeer"}, seccrypto.NewDeterministicRand(1))
			if err != nil {
				b.Fatal(err)
			}
			ks := ts.Stores["a"]
			prog, err := datalog.Parse(`
				sig(V1, S) <- outgoing(V1), private_key[]=K, rsa_sign['m](K, V1, S).
				packed(T) <- outgoing(V1), sig(V1, S), serialize['m](S, T, V1).
			`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reg, err := udf.NewRegistry(ks, seccrypto.NewDeterministicRand(2))
				if err != nil {
					b.Fatal(err)
				}
				w := engine.NewWorkspace(reg)
				if err := w.Install(prog); err != nil {
					b.Fatal(err)
				}
				if _, err := w.Assert([]engine.Fact{{Pred: "private_key",
					Tuple: datalog.Tuple{datalog.BytesV(ks.PrivateKeyDER())}}}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for start := 0; start < tuples; start += batch {
					var facts []engine.Fact
					for j := start; j < start+batch && j < tuples; j++ {
						facts = append(facts, engine.Fact{Pred: "outgoing",
							Tuple: datalog.Tuple{datalog.Int64(int64(j))}})
					}
					if _, err := w.Assert(facts); err != nil {
						b.Fatal(err)
					}
				}
				if w.Count("packed") != tuples {
					b.Fatal("wrong pipeline output")
				}
			}
		})
	}
}
