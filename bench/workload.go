package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"secureblox/internal/apps"
	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/graph"
	"secureblox/internal/metrics"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
)

// Workload is one set of inputs the benchmark runs: a program shape, a
// cluster size, a security policy and a transport. Every rep builds a
// fresh in-process cluster through core.NewCluster, asserts the generated
// facts from one driver goroutine and waits for the termination detector
// (a closed loop with one client).
type Workload struct {
	Name string
	Why  string
	// HashJoin selects the secure hash join; otherwise path-vector.
	HashJoin  bool
	N         int
	Policy    core.PolicyConfig
	Transport string
	// Hash-join table sizes (paper §8.2).
	SizeA, SizeB, JoinValues int
}

// pvDegree is the paper's average node degree (§8.1).
const pvDegree = 3

// workloads are the four fixed inputs, in the order BENCHMARK.json lists
// them. The three path-vector workloads share graph family and size so the
// paper's ordering NoAuth < RSA-batch < RSA can be read off directly.
var workloads = []Workload{
	{
		Name: "pv_noauth_mem", N: 24, Transport: "mem",
		Why: "path-vector n=24 deg 3, NoAuth, memnet: ~1500 tiny transactions, no crypto, trivial transport; engine+dist+detector do the work, a crypto change must not show",
	},
	{
		Name: "pv_rsa_mem", N: 24, Transport: "mem", Policy: core.PolicyConfig{Auth: core.AuthRSA},
		Why: "same graphs, per-tuple RSA, memnet: ~5500 signs+verifies put seccrypto/udf at ~70% of the run; sign/verify-pool, signature-size and policy-constraint changes show here",
	},
	{
		Name: "pv_rsabatch_udp", N: 24, Transport: "udp", Policy: core.PolicyConfig{Auth: core.AuthRSA, BatchSign: true},
		Why: "same graphs, RSA-batch over reliable UDP loopback: async sign stage, MsgBatch envelopes, one verify per envelope, ~1400 small datagrams through seq/ack/retransmit/dedup",
	},
	{
		Name: "hj_noauth_udp", HashJoin: true, N: 12, Transport: "udp", SizeA: 900, SizeB: 800, JoinValues: 72,
		Why: "hash join n=12 at paper sizes, NoAuth, reliable UDP: ~150 large transactions and near-limit datagrams, non-recursive bulk join; a small-delta win that loses on bulk shows here",
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// repDeadline bounds one rep's wait for the distributed fixpoint; a hang
// in work accounting shows up as a failed rep, not a stuck benchmark.
const repDeadline = 60 * time.Second

// tracedSpanCap is the program's span-ring capacity during the traced run.
// One rep of the largest workload records about 7000 spans and the ring is
// reset before every traced rep, so nothing is overwritten; the ring is
// allocated inside the timed interval, so it is not made larger than that.
const tracedSpanCap = 1 << 16

// Sample is what one successful rep contributes: the five end-to-end
// values and, from a traced rep, the per-layer values by metric name.
type Sample struct {
	SetupS, FixpointS, CPUS, NodeKB, AllocMB float64
	// Wall is the whole rep including set-up, check and stop; the rep loop
	// uses it to decide whether another rep fits the time budget.
	Wall  time.Duration
	Layer map[string]float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// deltaCounters are the obs registry counter families the traced run turns
// into per-rep deltas.
var deltaCounters = []string{
	"sbx_txns_total", "sbx_msgs_sent_total", "sbx_bytes_sent_total",
	"sbx_rsa_sign_ops_total", "sbx_rsa_verify_ops_total",
	"sbx_signpool_hits_total", "sbx_signpool_misses_total",
	"sbx_verifypool_hits_total", "sbx_verifypool_misses_total",
	"sbx_transport_retransmits_total", "sbx_transport_dup_drops_total", "sbx_transport_send_deferrals_total",
}

// counters is a snapshot of every process-wide count the traced run turns
// into a per-rep delta.
type counters struct {
	reg     map[string]int64
	engine  metrics.EngineStats
	txnHist obs.HistSnapshot
}

func snapshotCounters() counters {
	c := counters{reg: map[string]int64{}, engine: metrics.EngineTotals(),
		txnHist: obs.Default().HistogramSnapshot("sbx_txn_duration_seconds")}
	for _, name := range deltaCounters {
		c.reg[name] = obs.Default().CounterValue(name)
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runRep runs one rep of w on inputs generated from seed. With a recorder
// it is a traced rep: the benchmark's spans are recorded under trace id
// `trace`, compile and trust set-up are also timed on their own, and the
// registry, engine and span-ring deltas over the fixpoint interval fill
// Sample.Layer. The error is the rep's oracle, violation, deadline or
// construction failure.
func runRep(w Workload, seed int64, rec *Recorder, trace int) (Sample, error) {
	var s Sample
	repStart := time.Now()
	root := rec.Begin(trace, -1, "rep")
	defer rec.End(root)

	policy := w.Policy
	policy.Delegation = core.DelegateNone // both queries import says themselves
	query := apps.PathVectorQuery
	if w.HashJoin {
		query = apps.HashJoinQuery
	}

	// setup: what a user waits for before the first fact can be asserted.
	setup := rec.Begin(trace, root, "setup")
	newc := rec.Begin(trace, setup, "core.newcluster")
	t0 := time.Now()
	net, err := core.NewNetwork(w.Transport)
	if err != nil {
		return s, err
	}
	c, err := core.NewCluster(core.ClusterConfig{N: w.N, Policy: policy, Query: query, Seed: seed, Net: net})
	if err != nil {
		return s, fmt.Errorf("new cluster: %w", err)
	}
	defer c.Stop()
	var g *graph.Graph
	var parts [][]engine.Fact
	expected := 0
	if w.HashJoin {
		var common []engine.Fact
		common, parts, expected = apps.HashJoinInput(apps.HashJoinConfig{
			N: w.N, SizeA: w.SizeA, SizeB: w.SizeB, JoinValues: w.JoinValues, Seed: seed,
		}, c.Principals)
		for i := range c.Nodes {
			if _, err := c.Nodes[i].WS.Assert(common); err != nil {
				return s, fmt.Errorf("hash-join metadata on node %d: %w", i, err)
			}
		}
	}
	s.SetupS = time.Since(t0).Seconds()
	rec.End(newc)
	var compileMS, trustMS float64
	if rec != nil {
		// The same two calls NewCluster made, timed on their own right after
		// it, so the rest of NewCluster (endpoints, install, directory) is
		// the difference. They run after the measured set-up, not before, so
		// setup_s is the same work in a traced and an untraced rep.
		id := rec.Begin(trace, setup, "core.compile")
		t := time.Now()
		if _, err := core.CompileProgram(policy, query, nil); err != nil {
			return s, fmt.Errorf("compile: %w", err)
		}
		compileMS = ms(time.Since(t))
		rec.End(id)
		id = rec.Begin(trace, setup, "seccrypto.trustsetup")
		t = time.Now()
		if _, err := seccrypto.NewTrustSetup(c.Principals, seccrypto.NewDeterministicRand(seed+1)); err != nil {
			return s, fmt.Errorf("trust setup: %w", err)
		}
		trustMS = ms(time.Since(t))
		rec.End(id)
	}
	rec.End(setup)

	if !w.HashJoin {
		g = graph.RandomConnected(w.N, pvDegree, seed)
		parts = make([][]engine.Fact, w.N)
		for i := range parts {
			parts[i] = apps.PathVectorLinkFacts(g, c.Addrs, i)
		}
	}

	// Everything between here and the second ReadMemStats is the timed
	// fixpoint interval; GC and the counter snapshots stay outside it.
	runtime.GC()
	var before counters
	if rec != nil {
		obs.ResetSpans()
		before = snapshotCounters()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	c.Start()
	start := c.StartTime()
	for i, facts := range parts {
		if len(facts) > 0 {
			c.AssertAt(i, facts)
		}
	}
	loaded := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline)
	fix, err := c.WaitFixpointCtx(ctx)
	cancel()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, fmt.Errorf("wait fixpoint: %w", err)
	}
	s.FixpointS = fix.Seconds()
	s.CPUS = cpu1 - cpu0
	s.NodeKB = c.MeanNodeTrafficKB()
	s.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6

	// The cluster's own start stamp is the origin of its convergence
	// times; the last node activity splits the interval into run and
	// detect (last commit → quiescence proven).
	conv := c.ConvergenceTimes()
	sort.Slice(conv, func(a, b int) bool { return conv[a] < conv[b] })
	lastActivity := conv[len(conv)-1]
	run := rec.Add(trace, root, "run", start, start.Add(lastActivity))
	rec.Add(trace, run, "load", start, loaded)
	rec.Add(trace, root, "detect", start.Add(lastActivity), start.Add(fix))

	check := rec.Begin(trace, root, "check")
	violations := c.Violations()
	var oracleShare float64
	if w.HashJoin {
		oracleShare, err = checkHashJoin(c, expected)
	} else {
		oracleShare, err = checkPathVector(c, g)
	}
	if err == nil && len(violations) > 0 {
		err = fmt.Errorf("%d violations, first: %v", len(violations), violations[0])
	}
	rec.End(check)
	if err != nil {
		return s, err
	}

	if rec != nil {
		after := snapshotCounters()
		progSpans := obs.Spans()
		if d := obs.SpanDrops(); d > 0 {
			return s, fmt.Errorf("program span ring dropped %d spans: traced rep invalid", d)
		}
		stage := map[string]float64{}
		for _, sp := range progSpans {
			stage[sp.Stage] += sp.Dur.Seconds()
		}
		eng := after.engine.Sub(before.engine)
		delta := func(name string) float64 { return float64(after.reg[name] - before.reg[name]) }
		txns, msgs := delta("sbx_txns_total"), delta("sbx_msgs_sent_total")
		signHit, verifyHit := delta("sbx_signpool_hits_total"), delta("sbx_verifypool_hits_total")
		hist := after.txnHist.Sub(before.txnHist)
		convF := make([]float64, len(conv))
		for i, d := range conv {
			convF[i] = d.Seconds()
		}
		s.Layer = map[string]float64{
			"dist.txns":             txns,
			"dist.msgs_sent":        msgs,
			"dist.bytes_per_msg":    ratio(delta("sbx_bytes_sent_total"), msgs),
			"dist.txn_mean_ms":      ms(c.MeanTxnDuration()),
			"dist.txn_p99_ms":       hist.Quantile(0.99) * 1e3,
			"dist.converge_p50_s":   quantile(convF, 0.5),
			"dist.detect_lag_ms":    ms(fix - lastActivity),
			"dist.violations":       float64(len(violations)),
			"dist.stage_decode_s":   stage[obs.StageDecode],
			"dist.stage_verify_s":   stage[obs.StageVerify],
			"dist.stage_fixpoint_s": stage[obs.StageFixpoint],
			"dist.stage_sign_s":     stage[obs.StageSign],
			"dist.stage_ship_s":     stage[obs.StageShip],

			"engine.probes_per_txn":        ratio(float64(eng.IndexProbes), txns),
			"engine.leading_scans_per_txn": ratio(float64(eng.LeadingScans), txns),
			"engine.rounds_per_txn":        ratio(float64(eng.FixpointRounds), txns),
			"engine.scan_share":            ratio(float64(eng.LeadingScans), float64(eng.IndexProbes+eng.LeadingScans)),
			"engine.fullscan_fallbacks":    float64(eng.FullScanFallbacks),

			"seccrypto.sign_ops":             delta("sbx_rsa_sign_ops_total"),
			"seccrypto.verify_ops":           delta("sbx_rsa_verify_ops_total"),
			"seccrypto.signpool_hit_ratio":   ratio(signHit, signHit+delta("sbx_signpool_misses_total")),
			"seccrypto.verifypool_hit_ratio": ratio(verifyHit, verifyHit+delta("sbx_verifypool_misses_total")),

			"transport.retransmits":    delta("sbx_transport_retransmits_total"),
			"transport.dup_drops":      delta("sbx_transport_dup_drops_total"),
			"transport.send_deferrals": delta("sbx_transport_send_deferrals_total"),

			"core.compile_ms":         compileMS,
			"seccrypto.trustsetup_ms": trustMS,
			"core.assemble_ms":        s.SetupS*1e3 - compileMS - trustMS,
			"bench.load_ms":           ms(loaded.Sub(start)),
			"apps.oracle_share":       oracleShare,
		}
		if eng.FullScanFallbacks != 0 {
			return s, fmt.Errorf("join plan regression: %s", eng)
		}
	}

	stop := rec.Begin(trace, root, "stop")
	t := time.Now()
	c.Stop()
	if s.Layer != nil {
		s.Layer["bench.stop_ms"] = ms(time.Since(t))
	}
	rec.End(stop)
	s.Wall = time.Since(repStart)
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkPathVector is the path-vector oracle. Against BFS ground truth on
// the generated graph, every node must hold a bestcost to every other
// node, no bestcost may undercut the true distance, and a neighbour must
// cost exactly 1. It returns the share of (source, destination) pairs
// whose bestcost is the true shortest distance.
//
// The strict oracle, (*apps.PathVectorResult).ValidateShortestPaths, is
// not the gate: at the parent commit the query's first-writer-wins import
// drops a shorter path that arrives second under a path entity the node
// already holds, so at n=24 some pairs keep a longer-than-shortest cost in
// every run (see README.md). The share of optimal pairs is reported as
// apps.oracle_share so that defect is measured, not hidden.
func checkPathVector(c *core.Cluster, g *graph.Graph) (float64, error) {
	optimal, pairs := 0, 0
	for i := 0; i < g.N; i++ {
		me := datalog.NodeV(c.Addrs[i])
		for j, want := range g.ShortestPaths(i) {
			if j == i {
				continue
			}
			pairs++
			got, ok := c.Nodes[i].WS.LookupFn("bestcost", me, datalog.NodeV(c.Addrs[j]))
			switch {
			case !ok:
				return 0, fmt.Errorf("node %d: no bestcost to node %d (true distance %d)", i, j, want)
			case got.Int < int64(want):
				return 0, fmt.Errorf("node %d: bestcost to node %d = %d undercuts true distance %d", i, j, got.Int, want)
			case want == 1 && got.Int != 1:
				return 0, fmt.Errorf("node %d: bestcost to neighbour %d = %d, want 1", i, j, got.Int)
			case got.Int == int64(want):
				optimal++
			}
		}
	}
	return float64(optimal) / float64(pairs), nil
}

// checkHashJoin is the hash-join oracle: the initiator (node 0) must hold
// exactly |A ⋈ B| joinresult tuples.
func checkHashJoin(c *core.Cluster, expected int) (float64, error) {
	got := len(c.Query(0, "joinresult"))
	if got != expected {
		return float64(got) / float64(expected), fmt.Errorf("join returned %d rows at the initiator, want %d", got, expected)
	}
	return 1, nil
}
